//! The BPF JIT checker (paper §7): verify the fixed Linux-style JITs,
//! then reintroduce the historical bugs and watch the checker find each
//! one with a concrete counterexample.
//!
//! Run with: `cargo run --release --example bpf_jit_check`

use serval_jit::{check_rv64, sweep_rv64, sweep_x86, Rv64Jit, RvBug, X86Bug, X86Jit};
use serval_bpf::{AluOp, Insn, Src};
use serval_smt::solver::SolverConfig;

fn main() {
    serval_engine::install(serval_engine::edge::or_exit(serval_engine::EngineCfg::from_env()));
    let cfg = SolverConfig::default();

    println!("== fixed JITs: full ALU sweep ==");
    let rows = sweep_rv64(&Rv64Jit::fixed(), cfg);
    let ok = rows.iter().filter(|r| r.ok).count();
    println!("  rv64:   {ok}/{} instruction forms verified", rows.len());
    assert_eq!(ok, rows.len());
    let rows = sweep_x86(&X86Jit::fixed(), cfg);
    let ok = rows.iter().filter(|r| r.ok).count();
    println!("  x86-32: {ok}/{} instruction forms verified", rows.len());
    assert_eq!(ok, rows.len());

    println!("\n== seeded historical bugs (9 rv64 + 6 x86-32, paper §7) ==");
    for bug in RvBug::ALL {
        let mut jit = Rv64Jit::fixed();
        jit.bugs.insert(bug);
        let rows = sweep_rv64(&jit, cfg);
        let hit = rows.iter().find(|r| !r.ok).expect("bug must be found");
        println!(
            "  rv64   {:<12} found at {:<55} {}",
            format!("{bug:?}"),
            hit.insn,
            hit.cex.as_deref().unwrap_or("")
        );
    }
    for bug in X86Bug::ALL {
        let mut jit = X86Jit::fixed();
        jit.bugs.insert(bug);
        let rows = sweep_x86(&jit, cfg);
        let hit = rows.iter().find(|r| !r.ok).expect("bug must be found");
        println!(
            "  x86-32 {:<12} found at {:<55} {}",
            format!("{bug:?}"),
            hit.insn,
            hit.cex.as_deref().unwrap_or("")
        );
    }

    println!("\n== a single check in detail ==");
    let insn = Insn::Alu32 { op: AluOp::Rsh, src: Src::X, dst: 1, srcr: 2, imm: 0 };
    let mut buggy = Rv64Jit::fixed();
    buggy.bugs.insert(RvBug::Shift32Rsh);
    println!("  BPF instruction: {insn:?}");
    println!("  buggy emission (64-bit srl instead of srlw):");
    for i in buggy.emit(insn).unwrap() {
        println!("    {i:?}");
    }
    let row = check_rv64(&buggy, insn, cfg).unwrap();
    println!("  verdict: ok={} {}", row.ok, row.cex.as_deref().unwrap_or(""));
    println!("  fixed emission:");
    for i in Rv64Jit::fixed().emit(insn).unwrap() {
        println!("    {i:?}");
    }
    let row = check_rv64(&Rv64Jit::fixed(), insn, cfg).unwrap();
    println!("  verdict: ok={}", row.ok);
}
