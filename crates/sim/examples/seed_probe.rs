//! Scans hostile seeds per scenario and prints which fault/buggify
//! events each one fires — used to pick the pinned seeds in
//! `tests/sim_regressions.rs` (a pinned seed must demonstrably exercise
//! the fault it regresses).

use serval_check::sim::{SimConfig, TraceEvent};
use serval_sim::{run_scenario, SCENARIOS};

fn main() {
    let max: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(64);
    for name in SCENARIOS {
        println!("== {name}");
        for seed in 0..max {
            let r = match run_scenario(name, SimConfig::hostile(seed)) {
                Ok(r) => r,
                Err(f) => {
                    println!("  seed {seed}: FAILED: {}", f.message);
                    continue;
                }
            };
            let mut tags: Vec<String> = Vec::new();
            for ev in &r.trace {
                match ev {
                    TraceEvent::Buggify { point, .. } => tags.push(format!("b:{point}")),
                    TraceEvent::IoFault { kind, .. } => tags.push(format!("io:{kind}")),
                    TraceEvent::Step { .. } | TraceEvent::Mark { .. } => {}
                }
            }
            tags.sort();
            tags.dedup();
            if !tags.is_empty() {
                println!("  seed {seed:3}: {} :: {}", tags.join(" "), r.summary);
            }
        }
    }
}
