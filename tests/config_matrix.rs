//! The configuration matrix: every algorithm toggle is a struct field,
//! so "the same suite under one flipped knob" is a loop over values, not
//! a CI rerun under an environment variable. Each row builds a fresh
//! engine from its `EngineCfg`, runs the corpus with its `SolverConfig`
//! through a checking wrapper at the `Discharge` seam, and must
//!
//! - return the baseline row's verdict vector,
//! - back every `Refuted` with a model that is a counterexample on the
//!   caller's terms (every assumption true, the goal false),
//! - under `cert`, give every solver-`Proved` a certificate fingerprint
//!   and reject no certificate,
//! - answer a rerun entirely from the cache (`misses` unchanged).
//!
//! A row that keys queries as the baseline does (`split` and `presolve`
//! as there) must also reproduce the baseline's cold cache traffic and
//! query counts exactly: every discharge mode keys a query on its whole
//! presolved base, so `mode=Fresh` is invisible to the cache.
//!
//! A second, smaller matrix runs whole JIT sweeps — each one batch, one
//! assumption-free session group — at 1, 2 and 4 workers: the engine
//! cuts such a group into one session per idle worker, and that must
//! change nothing a caller can see except which session a goal sat in.
//!
//! One `#[test]` in a file of its own: the discharger override is
//! process-wide, and every integration-test file is its own process.

use serval_engine::{
    Discharge, DischargeMode, Engine, EngineCfg, Query, QueryOutcome, MIN_SHARD_GOALS,
    SHARDS_PER_JOB,
};
use serval_repro::bpf::{AluOp, Insn as Bpf, Src};
use serval_repro::core_fw::OptCfg;
use serval_repro::ir::OptLevel;
use serval_repro::jit::{check_rv64, check_x86, sweep_rv64, sweep_x86, Rv64Jit, X86Jit};
use serval_repro::monitors::certikos;
use serval_repro::monitors::keystone::{
    audit_ub, prove_isolation, prove_no_nested_creation, KeystoneVariant,
};
use serval_repro::smt::solver::{SolverConfig, VerifyResult};
use serval_repro::smt::{reset_ctx, SBool};
use serval_repro::toyrisc::{prove_sign_refinement, prove_sign_step_consistency};
use std::sync::{Arc, Mutex};

struct Row {
    name: &'static str,
    engine: EngineCfg,
    solver: SolverConfig,
}

/// Two workers whatever the machine has, so the baseline is the same
/// row everywhere; the `jobs` rows move it.
fn e() -> EngineCfg {
    EngineCfg { jobs: 2, ..EngineCfg::default() }
}

fn rows() -> Vec<Row> {
    use DischargeMode::Fresh;
    let s = SolverConfig::default;
    let row = |name, engine, solver| Row { name, engine, solver };
    vec![
        row("baseline", e(), s()),
        // Every single-field flip.
        row("split=false", EngineCfg { split: false, ..e() }, s()),
        row("presolve=false", EngineCfg { presolve: false, ..e() }, s()),
        row("cert=false", EngineCfg { cert: false, ..e() }, s()),
        row("mode=Fresh", EngineCfg { mode: Fresh, ..e() }, s()),
        row("jobs=1", EngineCfg { jobs: 1, ..e() }, s()),
        row("jobs=4", EngineCfg { jobs: 4, ..e() }, s()),
        row("inprocess=false", e(), SolverConfig { inprocess: false, ..s() }),
        row("polarity=false", e(), SolverConfig { polarity: false, ..s() }),
        row("session_bve=false", e(), SolverConfig { session_bve: false, ..s() }),
        // A client's `lrat: false` is ignored (the field is retired):
        // its certificates still carry hints and are still accepted.
        row("cert x lrat=false", e(), SolverConfig { lrat: false, ..s() }),
        // Pairs no CI leg ever crossed.
        row("presolve=false x Fresh", EngineCfg { presolve: false, mode: Fresh, ..e() }, s()),
        row(
            "cert=false x inprocess=false",
            EngineCfg { cert: false, ..e() },
            SolverConfig { inprocess: false, ..s() },
        ),
        row("Fresh x cert=false", EngineCfg { mode: Fresh, cert: false, ..e() }, s()),
        row(
            "Fresh x inprocess=false x lrat=false",
            EngineCfg { mode: Fresh, ..e() },
            SolverConfig { inprocess: false, lrat: false, ..s() },
        ),
    ]
}

fn alu(op: AluOp, is32: bool) -> Bpf {
    let (src, dst, srcr, imm) = (Src::X, 1, 2, 0);
    if is32 {
        Bpf::Alu32 { op, src, dst, srcr, imm }
    } else {
        Bpf::Alu64 { op, src, dst, srcr, imm }
    }
}

/// ToyRISC, a JIT instruction subset on the fixed and the buggy JITs
/// (the buggy rv64 JIT mis-extends 32-bit ALU results, the buggy x86-32
/// JIT gets 64-bit register shifts wrong), the Keystone audit, and the
/// certikos `-O1` spawn refinement. Verdicts are read at the seam, so
/// the reports are dropped.
fn corpus(cfg: SolverConfig) {
    reset_ctx();
    drop(prove_sign_refinement(cfg));
    reset_ctx();
    drop(prove_sign_step_consistency(cfg));
    for insn in [alu(AluOp::Add, false), alu(AluOp::Add, true), alu(AluOp::Rsh, true)] {
        drop(check_rv64(&Rv64Jit::fixed(), insn, cfg));
        drop(check_rv64(&Rv64Jit::buggy(), insn, cfg));
    }
    for insn in [alu(AluOp::Add, false), alu(AluOp::Lsh, false), alu(AluOp::Xor, true)] {
        drop(check_x86(&X86Jit::fixed(), insn, cfg));
        drop(check_x86(&X86Jit::buggy(), insn, cfg));
    }
    for variant in [KeystoneVariant::AsImplemented, KeystoneVariant::Suggested] {
        drop(prove_no_nested_creation(variant, cfg));
    }
    drop(prove_isolation(KeystoneVariant::Suggested, cfg));
    drop(audit_ub(true, cfg));
    drop(audit_ub(false, cfg));
    drop(certikos::proofs::prove_op(certikos::sys::SPAWN, OptLevel::O1, OptCfg::default(), cfg));
}

/// Both JITs' full sweeps, fixed and buggy: four batches (208, 208, 160
/// and 160 checks), none with an assumption, 75 checks refuted. A row's
/// engine answers the checks the buggy JIT gets right from the fixed
/// sweep's cache entries, so the four session groups differ in size.
fn sweeps(cfg: SolverConfig) {
    for jit in [Rv64Jit::fixed(), Rv64Jit::buggy()] {
        drop(sweep_rv64(&jit, cfg));
    }
    for jit in [X86Jit::fixed(), X86Jit::buggy()] {
        drop(sweep_x86(&jit, cfg));
    }
}

/// Forwards to one row's engine and checks every outcome on the way
/// back, while the caller's terms are still alive.
struct Checked {
    row: &'static str,
    engine: Engine,
    verdicts: Mutex<Vec<(String, &'static str)>>,
    /// Per batch, the deepest position any goal had in its session
    /// (0 when nothing reached a solver).
    deepest: Mutex<Vec<u64>>,
}

impl Discharge for Checked {
    fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome> {
        let claims: Vec<(Vec<SBool>, SBool)> =
            queries.iter().map(|q| (q.assumptions.clone(), q.goal)).collect();
        let outs = self.engine.submit_batch(queries);
        let mut verdicts = self.verdicts.lock().expect("only the test thread submits");
        for (out, (assumptions, goal)) in outs.iter().zip(&claims) {
            let (row, label) = (self.row, &out.label);
            let code = match &out.result {
                VerifyResult::Proved => {
                    if self.engine.cert() && out.stats.is_some() {
                        assert!(out.cert.is_some(), "[{row}] {label}: proved, no certificate");
                    }
                    "proved"
                }
                VerifyResult::Counterexample(m) => {
                    assert!(
                        assumptions.iter().all(|a| m.eval_bool(a.0)) && !m.eval_bool(goal.0),
                        "[{row}] {label}: the model is not a counterexample"
                    );
                    "refuted"
                }
                VerifyResult::Unknown => "unknown",
                VerifyResult::Interrupted => "interrupted",
            };
            verdicts.push((out.label.clone(), code));
        }
        let deepest = outs.iter().filter_map(|o| o.stats).map(|s| s.session_goals).max();
        self.deepest.lock().expect("only the test thread submits").push(deepest.unwrap_or(0));
        outs
    }
}

/// Runs `corpus` cold and warm under every row and holds each row to
/// the contract in the module docs. Returns, per row, the cold run's
/// deepest session position per batch.
fn check_rows(rows: Vec<Row>, corpus: fn(SolverConfig), refuted: usize) -> Vec<Vec<u64>> {
    let mut baseline: Option<Vec<(String, &'static str)>> = None;
    let mut baseline_counts = None;
    let mut depths = Vec::new();
    for Row { name, engine: cfg, solver } in rows {
        let mode = cfg.mode;
        let keyed_as_baseline = cfg.split && cfg.presolve;
        let checked = Arc::new(Checked {
            row: name,
            engine: Engine::new(cfg),
            verdicts: Mutex::new(Vec::new()),
            deepest: Mutex::new(Vec::new()),
        });
        serval_engine::install_discharger(Arc::clone(&checked) as Arc<dyn Discharge>);
        let take = || std::mem::take(&mut *checked.verdicts.lock().expect("test thread"));

        corpus(solver);
        let cold = take();
        depths.push(std::mem::take(&mut *checked.deepest.lock().expect("test thread")));
        let (cold_hits, cold_misses) = checked.engine.cache_stats();
        let (cold_queries, cold_trivial) = checked.engine.query_counts();
        corpus(solver);
        let warm = take();
        serval_engine::clear_discharger();

        let baseline = baseline.get_or_insert_with(|| {
            let count = |code| cold.iter().filter(|(_, c)| *c == code).count();
            assert_eq!(count("proved") + count("refuted"), cold.len(), "baseline is definitive");
            assert_eq!(count("refuted"), refuted, "{cold:?}");
            cold.clone()
        });
        assert_eq!(&cold, baseline, "[{name}] cold verdicts differ from the baseline row");
        let cold_counts = ((cold_hits, cold_misses), (cold_queries, cold_trivial));
        let baseline_counts = baseline_counts.get_or_insert(cold_counts);
        if keyed_as_baseline {
            assert_eq!(&cold_counts, baseline_counts, "[{name}] cold (hits, misses), (queries, trivial)");
        }
        assert_eq!(&warm, baseline, "[{name}] warm verdicts differ from the baseline row");
        // Trivially discharged queries never consult the cache; every
        // other query of the rerun must hit it.
        let (hits, misses) = checked.engine.cache_stats();
        let (queries, trivial) = checked.engine.query_counts();
        assert_eq!(misses, cold_misses, "[{name}] the rerun missed the cache");
        assert_eq!(
            hits - cold_hits,
            (queries - cold_queries) - (trivial - cold_trivial),
            "[{name}] warm hits do not cover every non-trivial query"
        );
        assert_eq!(checked.engine.cert_counts().1, 0, "[{name}] a certificate was rejected");
        let (sessions, fresh) = checked.engine.mode_counts();
        if mode == DischargeMode::Session {
            assert!(sessions > 0 && fresh == 0, "[{name}]");
        } else {
            assert!(sessions == 0 && fresh > 0, "[{name}]");
        }
    }
    depths
}

#[test]
fn every_config_row_agrees_with_the_baseline() {
    // 2 rv64 + 1 x86-32 buggy instructions, nested creation as
    // implemented, and the three undefined-behaviour checks.
    check_rows(rows(), corpus, 7);

    // Sharding: at one worker each sweep is one session, so its deepest
    // position is its goal count; with idle workers it is cut into
    // sessions within one goal of equal size.
    let workers = [1, 2, 4];
    let row = |name, jobs| Row {
        name,
        engine: EngineCfg { jobs, ..EngineCfg::default() },
        solver: SolverConfig::default(),
    };
    let shard_rows =
        vec![row("sweeps jobs=1", 1), row("sweeps jobs=2", 2), row("sweeps jobs=4", 4)];
    let depths = check_rows(shard_rows, sweeps, 75);
    let goals = &depths[0];
    assert_eq!(goals.len(), 4, "one batch per sweep");
    assert!(
        goals.iter().any(|&n| n as usize >= 4 * MIN_SHARD_GOALS),
        "some sweep is big enough to cut 4 ways: {goals:?}"
    );
    for (jobs, deepest) in workers.into_iter().zip(&depths) {
        let cut: Vec<u64> = goals
            .iter()
            .map(|&n| {
                let sessions = (SHARDS_PER_JOB * jobs).min(n as usize / MIN_SHARD_GOALS).max(1);
                n.div_ceil(sessions as u64)
            })
            .collect();
        assert_eq!(deepest, &cut, "[sweeps jobs={jobs}] sessions per sweep");
    }
}
