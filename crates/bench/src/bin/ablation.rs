//! Experiment E4 — paper §6.4: the symbolic optimizations are essential.
//!
//! The paper reports that with the symbolic optimizations disabled, the
//! refinement proofs of both monitors fail to terminate (two-hour
//! timeout), under any gcc optimization level. This harness disables each
//! optimization and reports the outcome:
//!
//! - without `split-pc`, symbolic evaluation of the monitor binary
//!   explores every instruction at every step and exhausts its evaluation
//!   fuel (the divergence the paper describes) — shown here on both a
//!   bounded monitor run and the ToyRISC walkthrough;
//! - without offset concretization, memory accesses fall back to symbolic
//!   division and quadratic field enumeration, blowing up solve times
//!   (bounded here by a conflict budget, reported as UNKNOWN).
//!
//! Run with: `cargo run --release -p serval-bench --bin ablation`

use serval_core::OptCfg;
use serval_ir::OptLevel;
use serval_monitors::certikos;
use serval_smt::solver::SolverConfig;
use serval_smt::reset_ctx;
use serval_sym::SymCtx;
use serval_toyrisc::{sign_program, Cpu, ToyRisc};
use std::time::Instant;

fn main() {
    serval_engine::install(serval_engine::edge::or_exit(serval_engine::EngineCfg::from_env()));
    let budget = SolverConfig {
        conflict_budget: Some(2_000_000),
        ..SolverConfig::default()
    };

    println!("§6.4 ablation (reproduction): disabling symbolic optimizations\n");

    // ToyRISC: merged-pc evaluation diverges (paper §3.2).
    reset_ctx();
    let mut ctx = SymCtx::new();
    let mut t = ToyRisc::new(sign_program());
    t.use_split_pc = false;
    t.fuel = 7;
    let mut cpu = Cpu::fresh("cpu");
    let o = t.interpret(&mut ctx, &mut cpu);
    println!(
        "toyrisc sign, split-pc OFF : diverged={} after {} splits (fuel 7)",
        o.diverged,
        ctx.profiler.total_splits()
    );
    reset_ctx();
    let mut ctx = SymCtx::new();
    let t = ToyRisc::new(sign_program());
    let mut cpu = Cpu::fresh("cpu");
    let o = t.interpret(&mut ctx, &mut cpu);
    println!(
        "toyrisc sign, split-pc ON  : diverged={} after {} splits\n",
        o.diverged,
        ctx.profiler.total_splits()
    );

    // CertiKOS^s get_quota with each optimization toggled.
    let cases: [(&str, OptCfg); 3] = [
        ("all optimizations", OptCfg::default()),
        (
            "split-pc disabled",
            OptCfg {
                split_pc: false,
                ..OptCfg::default()
            },
        ),
        (
            "offset concretization disabled",
            OptCfg {
                concretize_offsets: false,
                ..OptCfg::default()
            },
        ),
    ];
    println!("certikos^s get_quota refinement (conflict budget 2M):");
    for (name, optcfg) in cases {
        let t0 = Instant::now();
        let report = certikos::proofs::prove_op(
            certikos::sys::GET_QUOTA,
            OptLevel::O1,
            optcfg,
            budget,
        );
        let secs = t0.elapsed().as_secs_f64();
        let status = if report.all_proved() {
            "proved".to_string()
        } else if report.any_unknown() {
            "TIMEOUT (diverged or budget exhausted)".to_string()
        } else {
            "FAILED".to_string()
        };
        println!("  {name:<34} {secs:>8.2}s  {status}");
    }
    // split-cases (paper §4): per-call verification vs one monolithic
    // query with a symbolic call number over the whole dispatcher.
    println!();
    println!("certikos^s dispatch decomposition (split-cases):");
    let t0 = Instant::now();
    let per_call = certikos::proofs::prove_refinement(OptLevel::O1, OptCfg::default(), budget);
    let per_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mono = certikos::proofs::prove_monolithic(OptLevel::O1, OptCfg::default(), budget);
    let mono_secs = t0.elapsed().as_secs_f64();
    println!(
        "  per-call (split-cases)             {per_secs:>8.2}s  {}",
        if per_call.all_proved() { "proved" } else { "FAILED/TIMEOUT" }
    );
    println!(
        "  monolithic (one symbolic query)    {mono_secs:>8.2}s  {}",
        if mono.all_proved() {
            "proved"
        } else if mono.any_unknown() {
            "TIMEOUT (budget exhausted)"
        } else {
            "FAILED"
        }
    );
    println!();
    println!("paper: with optimizations disabled, neither monitor's refinement proof");
    println!("terminates within two hours at any gcc optimization level.");
}
