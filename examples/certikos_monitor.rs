//! CertiKOS^s end-to-end (paper §6.2): run the monitor binary concretely,
//! then verify it — refinement of every monitor call against the
//! functional specification, plus the noninterference properties,
//! including the legacy spawn's covert channel being caught.
//!
//! Run with: `cargo run --release --example certikos_monitor`

use serval_core::{OptCfg, PathElem};
use serval_ir::OptLevel;
use serval_monitors::certikos::{self, proofs, sys};
use serval_riscv::{reg, Machine};
use serval_smt::solver::SolverConfig;
use serval_smt::{reset_ctx, BV};
use serval_sym::SymCtx;

fn main() {
    serval_engine::install(serval_engine::edge::or_exit(serval_engine::EngineCfg::from_env()));
    let cfg = SolverConfig::default();

    // --- 1. The monitor as a concrete machine: spawn two children, yield.
    println!("== CertiKOS^s: concrete run ==");
    reset_ctx();
    let mut mem = certikos::fresh_mem();
    mem.write_path("cur_pid", &[PathElem::Field("cur")], BV::lit(64, 0));
    for i in 0..certikos::NPROC {
        for f in ["state", "quota", "base", "nr_children", "ctx_s0", "ctx_s1", "ctx_sp", "ctx_mepc"] {
            mem.write_path("procs", &[PathElem::Index(i), PathElem::Field(f)], BV::lit(64, 0));
        }
    }
    mem.write_path("procs", &[PathElem::Index(0), PathElem::Field("state")], BV::lit(64, 1));
    mem.write_path("procs", &[PathElem::Index(0), PathElem::Field("quota")], BV::lit(64, 8));
    let mut m = Machine::reset_at(certikos::CODE_BASE, mem);
    m.csrs.mepc = BV::lit(64, 0x1_0000);
    let interp = certikos::build(OptLevel::O1, OptCfg::default());
    let call = |m: &mut Machine, op: u64, a0: u64, a1: u64| -> u64 {
        let mut ctx = SymCtx::new();
        m.pc = BV::lit(64, certikos::CODE_BASE as u128);
        m.set_reg(reg::A7, BV::lit(64, op as u128));
        m.set_reg(reg::A0, BV::lit(64, a0 as u128));
        m.set_reg(reg::A1, BV::lit(64, a1 as u128));
        assert!(interp.run(&mut ctx, m).ok());
        m.reg(reg::A0).as_const().unwrap() as u64
    };
    println!("  get_quota()          = {}", call(&mut m, sys::GET_QUOTA, 0, 0));
    println!("  spawn(child=1, q=3)  = {}", call(&mut m, sys::SPAWN, 1, 3));
    println!("  spawn(child=2, q=2)  = {}", call(&mut m, sys::SPAWN, 2, 2));
    println!("  get_quota()          = {}", call(&mut m, sys::GET_QUOTA, 0, 0));
    println!("  yield()              = {}", call(&mut m, sys::YIELD, 0, 0));
    println!(
        "  now running pid {}, PMP = [{:#x}, {:#x})",
        m.mem.read_path("cur_pid", &[PathElem::Field("cur")]).as_const().unwrap(),
        (m.csrs.pmpaddr[0].as_const().unwrap() as u64) << 2,
        (m.csrs.pmpaddr[1].as_const().unwrap() as u64) << 2,
    );

    // --- 2. Refinement of the binary, per monitor call.
    println!("\n== refinement proof (binary, -O1) ==");
    let report = proofs::prove_refinement(OptLevel::O1, OptCfg::default(), cfg);
    print!("{}", report.render());
    assert!(report.all_proved());

    // --- 3. Noninterference, including the covert-channel catch.
    println!("== noninterference ==");
    let report = proofs::prove_noninterference(cfg);
    print!("{}", report.render());
    assert!(report.all_proved());

    println!("== legacy consecutive-PID spawn (the §6.2 covert channel) ==");
    let report = proofs::prove_spawn_child_consistency(true, cfg);
    print!("{}", report.render());
    assert!(
        !report.all_proved(),
        "the covert channel must be caught"
    );
    println!("(failure above is expected: the legacy interface leaks nr_children)");
}
