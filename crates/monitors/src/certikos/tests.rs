//! CertiKOS^s tests: concrete monitor-call execution, binary refinement,
//! and noninterference.

use super::proofs::*;
use super::spec::*;
use super::*;
use serval_core::PathElem;
use serval_riscv::Machine;
use serval_smt::solver::SolverConfig;
use serval_smt::{reset_ctx, BV};
use serval_sym::SymCtx;

fn cfg() -> SolverConfig {
    SolverConfig::default()
}

/// Sets up a concrete two-process machine: pid 0 running with quota 8 at
/// page 0, everything else free.
fn concrete_machine() -> Machine {
    let mut mem = fresh_mem();
    mem.write_path("cur_pid", &[PathElem::Field("cur")], BV::lit(64, 0));
    for i in 0..NPROC {
        for f in [
            "state",
            "quota",
            "base",
            "nr_children",
            "ctx_s0",
            "ctx_s1",
            "ctx_sp",
            "ctx_mepc",
        ] {
            mem.write_path(
                "procs",
                &[PathElem::Index(i), PathElem::Field(f)],
                BV::lit(64, 0),
            );
        }
    }
    mem.write_path("procs", &[PathElem::Index(0), PathElem::Field("state")], BV::lit(64, 1));
    mem.write_path("procs", &[PathElem::Index(0), PathElem::Field("quota")], BV::lit(64, 8));
    let mut m = Machine::reset_at(CODE_BASE, mem);
    m.csrs.mepc = BV::lit(64, 0x1_0000);
    m
}

fn run_call(m: &mut Machine, op: u64, a0: u64, a1: u64) -> u64 {
    let mut ctx = SymCtx::new();
    let interp = build(serval_ir::OptLevel::O1, serval_core::OptCfg::default());
    m.pc = BV::lit(64, CODE_BASE as u128);
    m.set_reg(serval_riscv::reg::A7, BV::lit(64, op as u128));
    m.set_reg(serval_riscv::reg::A0, BV::lit(64, a0 as u128));
    m.set_reg(serval_riscv::reg::A1, BV::lit(64, a1 as u128));
    let o = interp.run(&mut ctx, m);
    assert!(o.ok(), "{o:?}");
    m.reg(serval_riscv::reg::A0).as_const().unwrap() as u64
}

#[test]
fn concrete_spawn_and_quota() {
    reset_ctx();
    let mut m = concrete_machine();
    assert_eq!(run_call(&mut m, sys::GET_QUOTA, 0, 0), 8);
    // Spawn child 1 with quota 3.
    assert_eq!(run_call(&mut m, sys::SPAWN, 1, 3), 1);
    assert_eq!(run_call(&mut m, sys::GET_QUOTA, 0, 0), 5);
    // Child 1 is now used: spawning it again fails.
    assert_eq!(run_call(&mut m, sys::SPAWN, 1, 1), u64::MAX);
    // A PID not owned by pid 0 is rejected.
    assert_eq!(run_call(&mut m, sys::SPAWN, 3, 1), u64::MAX);
    // Over-quota spawn is rejected.
    assert_eq!(run_call(&mut m, sys::SPAWN, 2, 6), u64::MAX);
    // Child base carved from the top: child 1 gets pages [5, 8).
    let cb = m
        .mem
        .read_path("procs", &[PathElem::Index(1), PathElem::Field("base")]);
    assert_eq!(cb.as_const(), Some(5));
}

#[test]
fn concrete_yield_round_robin() {
    reset_ctx();
    let mut m = concrete_machine();
    assert_eq!(run_call(&mut m, sys::SPAWN, 1, 2), 1);
    assert_eq!(run_call(&mut m, sys::SPAWN, 2, 2), 2);
    // Round-robin from 0: next used is 1.
    assert_eq!(run_call(&mut m, sys::YIELD, 0, 0), 0, "yield returns 0");
    let cur = m
        .mem
        .read_path("cur_pid", &[PathElem::Field("cur")]);
    assert_eq!(cur.as_const(), Some(1));
    // PMP now covers child 1's region: pages [6, 8).
    let lo = m.csrs.pmpaddr[0].as_const().unwrap() as u64;
    let hi = m.csrs.pmpaddr[1].as_const().unwrap() as u64;
    assert_eq!(lo << 2, PROC_RAM + 6 * PAGE);
    assert_eq!(hi << 2, PROC_RAM + 8 * PAGE);
    assert_eq!(m.csrs.pmpcfg0.as_const(), Some(PMP_CFG as u128));
    // Control transferred to child 1's entry point.
    assert_eq!(m.pc.as_const(), Some((PROC_RAM + 6 * PAGE) as u128));
}

#[test]
fn refinement_get_quota() {
    let report = prove_op(
        sys::GET_QUOTA,
        serval_ir::OptLevel::O1,
        serval_core::OptCfg::default(),
        cfg(),
    );
    assert!(report.all_proved(), "\n{}", report.render());
}

#[test]
fn refinement_spawn() {
    let report = prove_op(
        sys::SPAWN,
        serval_ir::OptLevel::O1,
        serval_core::OptCfg::default(),
        cfg(),
    );
    assert!(report.all_proved(), "\n{}", report.render());
}

#[test]
fn refinement_yield() {
    let report = prove_op(
        sys::YIELD,
        serval_ir::OptLevel::O1,
        serval_core::OptCfg::default(),
        cfg(),
    );
    assert!(report.all_proved(), "\n{}", report.render());
}

#[test]
fn refinement_all_opt_levels() {
    for level in serval_ir::OptLevel::ALL {
        let report = prove_op(sys::GET_QUOTA, level, serval_core::OptCfg::default(), cfg());
        assert!(report.all_proved(), "{level:?}\n{}", report.render());
    }
}

#[test]
fn noninterference_holds() {
    let report = prove_noninterference(cfg());
    assert!(report.all_proved(), "\n{}", report.render());
}

#[test]
fn legacy_spawn_covert_channel_caught() {
    let report = prove_spawn_child_consistency(true, cfg());
    assert!(
        !report.all_proved(),
        "the consecutive-PID covert channel must be detected"
    );
}

#[test]
fn ir_step_matches_spec() {
    // The paper's first verification step (§6.4): check the IR against the
    // spec before touching the binary.
    reset_ctx();
    let mut ctx = SymCtx::new();
    let module = module();
    let mut mem = fresh_mem();
    let s0 = abstraction(&mem);
    ctx.assume(s0.invariant());
    let interp = serval_ir::IrInterp::new(&module);
    let child = BV::fresh(64, "child");
    let quota = BV::fresh(64, "quota");
    let ret = interp.call(&mut ctx, &mut mem, "sys_spawn", &[child, quota]);
    let mut s = s0.clone();
    let spec_ret = spec_spawn(&mut s, child, quota);
    let s_impl = abstraction(&mem);
    let assumptions: Vec<_> = ctx.assumptions().to_vec();
    assert!(
        serval_smt::solver::verify_with(cfg(), &assumptions, s_impl.eq_(&s) & ret.eq_(spec_ret))
            .is_proved(),
        "IR-level spawn must refine the spec"
    );
}

#[test]
fn boot_establishes_initial_state() {
    let report = prove_boot(serval_ir::OptLevel::O1, cfg());
    assert!(report.all_proved(), "\n{}", report.render());
}

#[test]
fn failed_evaluation_says_why() {
    // Without split_pc every code address is a case of the merged pc and
    // the paths run out of fuel: the evaluation fails before any query
    // exists, and the report says so instead of blaming a solver budget.
    let no_split = OptCfg { split_pc: false, ..OptCfg::default() };
    let report = prove_op(sys::GET_QUOTA, OptLevel::O1, no_split, cfg());
    let [t] = &report.theorems[..] else { panic!("one theorem:\n{}", report.render()) };
    assert_eq!(t.name, "certikos get_quota: symbolic evaluation");
    assert!(report.any_unknown() && t.stats.is_none());
    let reason = t.reason.as_deref().expect("a failed evaluation names its cause");
    assert!(report.render().contains(reason), "\n{}", report.render());
    assert!(!report.render().contains("budget exhausted"), "\n{}", report.render());
}
