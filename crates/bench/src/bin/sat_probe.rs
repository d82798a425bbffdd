//! The knob-ablation tool: cold runs of the certikos `-O1` refinement
//! over the discharge mode × inprocessing × polarity matrix, plus
//! session-BVE off/on isolation legs on the sessioned inprocessing
//! rows, printing wall time and the solver totals on one line per row.
//! Every row is a struct literal; nothing here reads the environment.
//! (`tests/config_matrix.rs` checks the same switches for verdict
//! equality; this prints what they cost.)
//!
//! ```sh
//! cargo run --release -p serval-bench --bin sat_probe
//! ```

use serval_core::OptCfg;
use serval_engine::{DischargeMode, EngineCfg};
use serval_ir::OptLevel;
use serval_monitors::certikos;
use serval_smt::solver::SolverConfig;
use std::time::Instant;

/// One cold refinement run under the given discharge/solver row.
fn probe(inc: bool, inp: bool, pol: bool, sbve: bool) {
    serval_engine::install(EngineCfg {
        mode: if inc { DischargeMode::Session } else { DischargeMode::Fresh },
        ..EngineCfg::default()
    });
    let cfg = SolverConfig {
        inprocess: inp,
        polarity: pol,
        session_bve: sbve,
        ..SolverConfig::default()
    };
    let t0 = Instant::now();
    let report = certikos::proofs::prove_refinement(OptLevel::O1, OptCfg::default(), cfg);
    let secs = t0.elapsed().as_secs_f64();
    let t = report.solver_totals();
    println!(
        "inc={} inp={} pol={} sbve={} wall={:.2}s proved={}/{} conflicts={} props={} \
         vars={} clauses={} elim={} sub={} str={} res={} cert_wall={:.2}s",
        inc as u8,
        inp as u8,
        pol as u8,
        sbve as u8,
        secs,
        report.theorems.iter().filter(|t| t.verdict.is_proved()).count(),
        report.theorems.len(),
        t.conflicts,
        t.propagations,
        t.vars,
        t.clauses,
        t.eliminated_vars,
        t.subsumed,
        t.strengthened,
        t.resolvents,
        t.cert_wall.as_secs_f64(),
    );
}

fn main() {
    // Session BVE only exists on the sessioned inprocessing rows, where
    // it gets an off/on pair; everywhere else it rides along with `inp`
    // (it is inert without sessions or inprocessing).
    for inc in [false, true] {
        for inp in [false, true] {
            for pol in [false, true] {
                if inc && inp {
                    probe(inc, inp, pol, false);
                    probe(inc, inp, pol, true);
                } else {
                    probe(inc, inp, pol, inp);
                }
            }
        }
    }
}
