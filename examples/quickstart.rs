//! Quickstart: the paper's §3 walkthrough on the ToyRISC sign program.
//!
//! Reproduces, end to end:
//! - concrete emulation (the interpreter as a CPU emulator),
//! - symbolic evaluation of the sign program (paper Fig. 5),
//! - the refinement proof of §3.3 (UB absence, RI preservation, lock-step
//!   commutation with `spec-sign`),
//! - the step-consistency (noninterference) proof over the specification,
//! - the symbolic profiler exposing the merged-pc bottleneck (§3.2).
//!
//! Run with: `cargo run --example quickstart`

use serval_smt::solver::SolverConfig;
use serval_smt::{reset_ctx, BV};
use serval_sym::SymCtx;
use serval_toyrisc::{
    prove_sign_refinement, prove_sign_step_consistency, sign_program, Cpu, ToyRisc, A0,
};

fn main() {
    serval_engine::install(serval_engine::edge::or_exit(serval_engine::EngineCfg::from_env()));
    println!("== Serval quickstart: the ToyRISC sign program (paper §3) ==\n");
    println!("program (Fig. 3):");
    for (i, insn) in sign_program().iter().enumerate() {
        println!("  {i}: {insn:?}");
    }

    // 1. Concrete emulation.
    println!("\n-- 1. concrete emulation --");
    for a0 in [42i64, -5, 0] {
        reset_ctx();
        let mut ctx = SymCtx::new();
        let t = ToyRisc::new(sign_program());
        let mut cpu = Cpu::new(BV::lit(64, a0 as u64 as u128), BV::lit(64, 0));
        t.interpret(&mut ctx, &mut cpu);
        let sign = cpu.regs[A0].as_const().unwrap() as u64 as i64;
        println!("  sign({a0:>3}) = {sign}");
    }

    // 2. Symbolic evaluation (Fig. 5): the final state as terms.
    println!("\n-- 2. symbolic evaluation --");
    reset_ctx();
    let mut ctx = SymCtx::new();
    let t = ToyRisc::new(sign_program());
    let mut cpu = Cpu::fresh("cpu");
    let o = t.interpret(&mut ctx, &mut cpu);
    println!("  evaluated all paths in {} steps (longest path)", o.steps);
    println!("  final a0 = {:?}", cpu.regs[A0]);
    println!("  final pc = {:?}", cpu.pc);
    println!("  splits: {}, merges: {}", ctx.profiler.total_splits(),
        ctx.profiler.total_merges());

    // 3. Refinement proof (§3.3).
    println!("\n-- 3. refinement proof --");
    reset_ctx();
    let report = prove_sign_refinement(SolverConfig::default());
    print!("{}", report.render());
    assert!(report.all_proved());

    // 4. Step consistency over the specification.
    println!("\n-- 4. step consistency (noninterference) --");
    reset_ctx();
    let report = prove_sign_step_consistency(SolverConfig::default());
    print!("{}", report.render());
    assert!(report.all_proved());

    // 5. Symbolic profiling of the merged-pc baseline (§3.2).
    println!("\n-- 5. symbolic profiler: merged-pc vs split-pc --");
    reset_ctx();
    let mut ctx = SymCtx::new();
    let mut t = ToyRisc::new(sign_program());
    t.use_split_pc = false;
    t.fuel = 6;
    let mut cpu = Cpu::fresh("cpu");
    let o = t.interpret(&mut ctx, &mut cpu);
    println!("  without split-pc (fuel 6): diverged = {}", o.diverged);
    print!("{}", ctx.profiler.render());

    reset_ctx();
    let mut ctx = SymCtx::new();
    let t = ToyRisc::new(sign_program());
    let mut cpu = Cpu::fresh("cpu");
    let o = t.interpret(&mut ctx, &mut cpu);
    println!("\n  with split-pc: diverged = {}", o.diverged);
    print!("{}", ctx.profiler.render());

    println!("\nAll proofs completed.");
}
