//! Komodo^s tests: concrete enclave lifecycle, binary refinement, and
//! noninterference.

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

fn concrete_machine() -> Machine {
    let mut mem = fresh_mem();
    for i in 0..NPAGES {
        for f in ["type", "owner", "state", "refcount", "extra", "pad0", "pad1", "pad2"] {
            mem.write_path(
                "pagedb",
                &[PathElem::Index(i), PathElem::Field(f)],
                BV::lit(64, 0),
            );
        }
    }
    mem.write_path("state", &[PathElem::Field("cur_thread")], BV::lit(64, NONE as u128));
    mem.write_path("state", &[PathElem::Field("os_resume")], BV::lit(64, 0));
    mem.write_path("state", &[PathElem::Field("pending_mepc")], BV::lit(64, 0));
    let mut m = Machine::reset_at(CODE_BASE, mem);
    m.csrs.mepc = BV::lit(64, 0x1_0000);
    m
}

fn call(m: &mut Machine, op: u64, args: [u64; 3]) -> u64 {
    let mut ctx = SymCtx::new();
    let interp = build(serval_ir::OptLevel::O1, serval_core::OptCfg::default());
    m.pc = BV::lit(64, CODE_BASE as u128);
    m.set_reg(serval_riscv::reg::A7, BV::lit(64, op as u128));
    for (i, &a) in args.iter().enumerate() {
        m.set_reg(serval_riscv::reg::A0 + i as u8, BV::lit(64, a as u128));
    }
    let o = interp.run(&mut ctx, m);
    assert!(o.ok(), "op {op}: {o:?}");
    m.reg(serval_riscv::reg::A0).as_const().unwrap() as u64
}

#[test]
fn enclave_lifecycle() {
    reset_ctx();
    let mut m = concrete_machine();
    let err = u64::MAX;
    // Build an enclave in pages 0 (addrspace), 1 (l1pt), 2 (thread),
    // 3 (l2pt), 4 (l3pt), 5 (data).
    assert_eq!(call(&mut m, sys::INIT_ADDRSPACE, [0, 1, 0]), 0);
    assert_eq!(call(&mut m, sys::INIT_THREAD, [0, 2, 0x9000_0000]), 0);
    assert_eq!(call(&mut m, sys::INIT_L2PT, [0, 3, 0]), 0);
    assert_eq!(call(&mut m, sys::INIT_L3PT, [0, 4, 0]), 0);
    assert_eq!(call(&mut m, sys::MAP_SECURE, [0, 5, 4]), 0);
    // MapSecure through a non-L3PT page fails.
    assert_eq!(call(&mut m, sys::MAP_SECURE, [0, 6, 3]), err);
    // MapInsecure within/outside the insecure window.
    assert_eq!(call(&mut m, sys::MAP_INSECURE, [0, 4, 10]), 0);
    assert_eq!(call(&mut m, sys::MAP_INSECURE, [0, 4, INSEC_PAGES]), err);
    // Cannot enter before finalising.
    assert_eq!(call(&mut m, sys::ENTER, [2, 0, 0]), err);
    assert_eq!(call(&mut m, sys::FINALISE, [0, 0, 0]), 0);
    // Mapping after finalise fails (no longer INIT).
    assert_eq!(call(&mut m, sys::MAP_SECURE, [0, 6, 4]), err);
    // Enter the enclave thread. (Each completed call above advanced mepc
    // by 4; pin it so the OS resume point below is predictable.)
    m.csrs.mepc = BV::lit(64, 0x2_0000);
    assert_eq!(call(&mut m, sys::ENTER, [2, 0, 0]), 0);
    assert_eq!(m.pc.as_const(), Some(0x9000_0000), "control enters the enclave");
    assert_eq!(
        m.csrs.pmpcfg0.as_const(),
        Some((PMP_DENY | (PMP_ALLOW << 8)) as u128),
        "secure window opened"
    );
    // Exit with a value; control returns to the OS resume point.
    m.csrs.mepc = BV::lit(64, 0x9000_0040); // enclave's own pc
    assert_eq!(call(&mut m, sys::EXIT, [42, 0, 0]), 42);
    assert_eq!(m.pc.as_const(), Some(0x2_0004), "OS resumes after its ecall");
    assert_eq!(
        m.csrs.pmpcfg0.as_const(),
        Some((PMP_DENY | (PMP_DENY << 8)) as u128),
        "secure window closed"
    );
    // Teardown: stop, then remove pages (addrspace last).
    assert_eq!(call(&mut m, sys::STOP, [0, 0, 0]), 0);
    assert_eq!(call(&mut m, sys::REMOVE, [0, 0, 0]), err, "addrspace not last");
    for p in [1, 2, 3, 4, 5] {
        assert_eq!(call(&mut m, sys::REMOVE, [p, 0, 0]), 0, "remove page {p}");
    }
    assert_eq!(call(&mut m, sys::REMOVE, [0, 0, 0]), 0, "addrspace last");
    let t0 = m
        .mem
        .read_path("pagedb", &[PathElem::Index(0), PathElem::Field("type")]);
    assert_eq!(t0.as_const(), Some(ty::FREE as u128));
}

#[test]
fn refinement_init_addrspace() {
    let report = prove_op(
        sys::INIT_ADDRSPACE,
        serval_ir::OptLevel::O1,
        serval_core::OptCfg::default(),
        cfg(),
    );
    assert!(report.all_proved(), "\n{}", report.render());
}

#[test]
fn refinement_map_secure() {
    let report = prove_op(
        sys::MAP_SECURE,
        serval_ir::OptLevel::O1,
        serval_core::OptCfg::default(),
        cfg(),
    );
    assert!(report.all_proved(), "\n{}", report.render());
}

#[test]
fn refinement_enter_exit() {
    for op in [sys::ENTER, sys::EXIT] {
        let report = prove_op(op, serval_ir::OptLevel::O1, serval_core::OptCfg::default(), cfg());
        assert!(report.all_proved(), "\n{}", report.render());
    }
}

#[test]
fn refinement_remove() {
    let report = prove_op(
        sys::REMOVE,
        serval_ir::OptLevel::O1,
        serval_core::OptCfg::default(),
        cfg(),
    );
    assert!(report.all_proved(), "\n{}", report.render());
}

#[test]
fn refinement_remaining_ops() {
    for op in [
        sys::INIT_THREAD,
        sys::INIT_L2PT,
        sys::INIT_L3PT,
        sys::MAP_INSECURE,
        sys::FINALISE,
        sys::RESUME,
        sys::STOP,
    ] {
        let report = prove_op(op, serval_ir::OptLevel::O1, serval_core::OptCfg::default(), cfg());
        assert!(report.all_proved(), "op {op}\n{}", report.render());
    }
}

#[test]
fn noninterference_holds() {
    let report = prove_noninterference(cfg());
    assert!(report.all_proved(), "\n{}", report.render());
}

#[test]
fn spec_catches_cross_enclave_write() {
    // Sanity check on obs_eq: a buggy "spec" in which MapSecure steals a
    // page already owned by another enclave must violate local respect.
    reset_ctx();
    let mut ctx = SymCtx::new();
    let a = BV::fresh(64, "a");
    let mut s = SpecState::fresh("s");
    let before = s.clone();
    ctx.assume(a.ult(BV::lit(64, NPAGES as u128)));
    ctx.assume(s.wf());
    let target = BV::fresh(64, "target");
    let page = BV::fresh(64, "page");
    ctx.assume(target.ne_(a));
    ctx.assume(page.ult(BV::lit(64, NPAGES as u128)));
    // Buggy transition: takes the page without checking it is free.
    s.update(serval_smt::SBool::lit(true), page, |p| {
        p.ty = BV::lit(64, ty::DATA as u128);
        p.owner = target;
    });
    let assumptions: Vec<_> = ctx.assumptions().to_vec();
    let holds = serval_smt::solver::verify_with(
        cfg(),
        &assumptions,
        obs_eq(a, &before, &s),
    )
    .is_proved();
    assert!(!holds, "stealing an owned page must be visible to its owner");
}

#[test]
fn boot_establishes_initial_state() {
    let report = prove_boot(serval_ir::OptLevel::O1, cfg());
    assert!(report.all_proved(), "\n{}", report.render());
}

#[test]
fn failed_evaluation_says_why() {
    let no_split = serval_core::OptCfg { split_pc: false, ..serval_core::OptCfg::default() };
    let report = prove_op(sys::INIT_ADDRSPACE, serval_ir::OptLevel::O1, no_split, cfg());
    let [t] = &report.theorems[..] else { panic!("one theorem:\n{}", report.render()) };
    assert_eq!(t.name, "komodo InitAddrspace: symbolic evaluation");
    assert!(report.any_unknown() && t.stats.is_none());
    let reason = t.reason.as_deref().expect("a failed evaluation names its cause");
    assert!(report.render().contains(reason), "\n{}", report.render());
    assert!(!report.render().contains("budget exhausted"), "\n{}", report.render());
}
