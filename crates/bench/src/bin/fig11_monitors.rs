//! Experiment E3 — paper Fig. 11: sizes and verification times of the two
//! security monitors, broken down by theorem and by the optimization level
//! used to compile the implementation.
//!
//! The shapes to check against the paper: verification succeeds at every
//! optimization level; refinement dominates the safety (noninterference)
//! proof for CertiKOS^s while Komodo^s is the more expensive monitor
//! overall; times stay the same order of magnitude across `-O` levels
//! (the paper's §6.4 narrative after adding the symbolic optimizations).
//!
//! Run with: `cargo run --release -p serval-bench --bin fig11_monitors`

use serval_bench::{count_loc, print_table, workspace_root};
use serval_core::OptCfg;
use serval_ir::OptLevel;
use serval_monitors::{certikos, komodo};
use serval_smt::solver::SolverConfig;
use std::time::Instant;

fn main() {
    serval_engine::install(serval_engine::edge::or_exit(serval_engine::EngineCfg::from_env()));
    let cfg = SolverConfig::default();
    let root = workspace_root().join("crates").join("monitors").join("src");

    let mut rows = Vec::new();
    rows.push((
        "lines of code (impl + stub)".to_string(),
        format!(
            "certikos {}   komodo {}",
            count_loc(&root.join("certikos")),
            count_loc(&root.join("komodo"))
        ),
    ));
    print_table("Fig. 11 (reproduction): monitor sizes", &rows);

    println!("verification times (seconds):");
    println!("{:<34} {:>10} {:>10}", "theorem", "certikos^s", "komodo^s");
    // SERVAL_FIG11_LEVELS=O1 (comma-separated) restricts the sweep for
    // quick runs; the default covers all three levels.
    let levels: Vec<OptLevel> = match std::env::var("SERVAL_FIG11_LEVELS") {
        Ok(s) => s
            .split(',')
            .map(|l| match l.trim() {
                "O0" => OptLevel::O0,
                "O1" => OptLevel::O1,
                "O2" => OptLevel::O2,
                other => panic!("bad level {other}"),
            })
            .collect(),
        Err(_) => OptLevel::ALL.to_vec(),
    };
    for level in levels {
        let t0 = Instant::now();
        let r = certikos::proofs::prove_refinement(level, OptCfg::default(), cfg);
        assert!(r.all_proved(), "certikos refinement at {level:?} failed");
        let certikos_t = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let r = komodo::proofs::prove_refinement(level, OptCfg::default(), cfg);
        assert!(r.all_proved(), "komodo refinement at {level:?} failed");
        let komodo_t = t0.elapsed().as_secs_f64();
        println!(
            "{:<34} {:>10.2} {:>10.2}",
            format!("refinement proof (-{level:?})"),
            certikos_t,
            komodo_t
        );
    }
    let t0 = Instant::now();
    let r = certikos::proofs::prove_noninterference(cfg);
    assert!(r.all_proved(), "certikos NI failed");
    let certikos_t = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let r = komodo::proofs::prove_noninterference(cfg);
    assert!(r.all_proved(), "komodo NI failed");
    let komodo_t = t0.elapsed().as_secs_f64();
    println!(
        "{:<34} {:>10.2} {:>10.2}",
        "safety (noninterference) proof", certikos_t, komodo_t
    );
    println!();
    let engine = serval_engine::handle();
    let (hits, misses) = engine.cache_stats();
    println!(
        "engine: {} worker(s) (SERVAL_JOBS), query cache {} hits / {} misses",
        engine.jobs(),
        hits,
        misses
    );
    println!();
    println!("paper (seconds, Intel i7-7700K): certikos refinement 92/138/133 (O0/O1/O2),");
    println!("safety 33; komodo refinement 275/309/289, safety 477");
}
