//! Certificates that check in linear time: every derivation a session
//! logs carries its hints, and the checker walks them without searching.
//!
//! The slice is fixed — the certikos `-O1` `get_quota` and `yield`
//! refinements and 16 instructions of the fixed rv64 JIT sweep — and
//! each batch is
//! solved as one certified session with session elimination on, the
//! way a pool worker solves it. Elimination elides most resolvents from
//! the proof; the ones a hint names are logged on first use, once. The
//! deltas are replayed here on one checker per session, so the test
//! sees every step: each `Derived` step must carry hints, every
//! certificate must be accepted, and a reordered or dropped hint must
//! be rejected. No elimination resolvent may reach the log twice: the
//! solver asserts that itself each time it logs one.

use serval_drat::{CheckError, Checker};
use serval_engine::form::{Core, Keyer};
use serval_engine::{Discharge, Query, QueryOutcome};
use serval_repro::core_fw::OptCfg;
use serval_repro::ir::OptLevel;
use serval_repro::jit::{sweep_rv64, Rv64Jit};
use serval_repro::monitors::certikos;
use serval_repro::sat::{Lit, ProofLog, StepKind};
use serval_repro::smt::solver::{CheckResult, SolverConfig, VerifyResult};
use serval_repro::smt::{reset_ctx, SBool, Session};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Rv64 sweep goals kept: every 8th of the sweep's batch, 16 in all.
const RV64_STRIDE: usize = 8;
const RV64_GOALS: usize = 16;

/// Keys each batch a proof submits into session cores, one per run of
/// queries under the same assumptions (the engine's planner groups the
/// same way), keeping every `stride`-th goal up to `keep` of them, and
/// answers `Unknown` to everything: the proofs are only here to build
/// the terms.
struct Capture {
    stride: usize,
    keep: usize,
    cores: Mutex<Vec<Core>>,
}

impl Discharge for Capture {
    fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome> {
        let mut runs: Vec<(&[SBool], Vec<SBool>)> = Vec::new();
        for q in &queries {
            match runs.last_mut() {
                Some((asms, goals)) if *asms == q.assumptions.as_slice() => goals.push(q.goal),
                _ => runs.push((&q.assumptions, vec![q.goal])),
            }
        }
        let mut cores = self.cores.lock().expect("one thread");
        for (asms, goals) in runs {
            let kept: Vec<SBool> = goals
                .into_iter()
                .step_by(self.stride)
                .take(self.keep)
                .collect();
            cores.push(Keyer::new().chunk(asms, &kept).0);
        }
        queries
            .into_iter()
            .map(|q| QueryOutcome {
                label: q.label,
                result: VerifyResult::Unknown,
                stats: None,
                wall: Duration::ZERO,
                cache_hit: false,
                cert: None,
                error: None,
            })
            .collect()
    }
}

/// The cores `run` submits, with every `stride`-th goal of each kept.
fn capture(stride: usize, keep: usize, run: impl FnOnce()) -> Vec<Core> {
    let capture = Arc::new(Capture {
        stride,
        keep,
        cores: Mutex::new(Vec::new()),
    });
    serval_engine::install_discharger(Arc::clone(&capture) as Arc<dyn Discharge>);
    run();
    serval_engine::clear_discharger();
    let cores = std::mem::take(&mut *capture.cores.lock().expect("one thread"));
    cores
}

/// One goal's delta: its steps, its activation literal (`None` for a
/// constant-false goal) and whether it came back `Unsat`.
struct Delta {
    steps: ProofLog,
    act: Option<Lit>,
    unsat: bool,
}

/// Solves `core` as one certified session with session elimination on
/// and returns its goal deltas, in order, with the solver's counts of
/// (elimination resolvents made, elided ones logged on first use).
fn session_deltas(core: &Core, cfg: SolverConfig) -> (Vec<Delta>, u64, u64) {
    reset_ctx();
    let rq = core.materialize(true);
    let mut session = Session::new(cfg, None);
    session.set_proof_logging(true);
    for &a in &rq.assumptions {
        session.assume(a);
    }
    session.plan_goals(&rq.goals);
    let deltas = rq
        .goals
        .iter()
        .map(|&g| {
            let out = session.solve_negated(g);
            let proof = out.proof.expect("logging is on");
            let unsat = matches!(out.result, CheckResult::Unsat);
            Delta {
                steps: proof.steps,
                act: proof.act,
                unsat,
            }
        })
        .collect();
    let stats = session.solver_stats();
    (deltas, stats.resolvents, stats.lazy_resolvents)
}

/// Replays a session's deltas on one checker, requiring every `Unsat`
/// goal to conclude over its negated activation literal. Returns the
/// first rejection as (delta, step, error).
fn replay(deltas: &[Delta]) -> Result<(), (usize, usize, CheckError)> {
    let mut ck = Checker::new();
    for (d, delta) in deltas.iter().enumerate() {
        for (i, st) in delta.steps.iter().enumerate() {
            ck.apply(st).map_err(|e| (d, i, e))?;
        }
        let conclusion = ck.take_conclusion();
        if let (true, Some(act)) = (delta.unsat, delta.act) {
            let concluded = conclusion.is_some_and(|c| serval_drat::conclusion_covers(&c, &[act]));
            assert!(
                concluded,
                "goal {d} concluded no clause over its negated activation literal"
            );
        }
    }
    Ok(())
}

/// Asserts that every `Derived` step of a session's deltas is hinted.
fn all_hinted(deltas: &[Delta]) {
    for (d, delta) in deltas.iter().enumerate() {
        for (i, st) in delta.steps.iter().enumerate() {
            let unhinted = st.kind == StepKind::Derived && st.hints.is_empty();
            assert!(!unhinted, "delta {d} step {i} is unhinted: {st:?}");
        }
    }
}

/// `deltas` with one step's hints replaced by `edit` of them.
fn with_hints(
    deltas: &[Delta],
    at: (usize, usize),
    edit: impl Fn(&[u32]) -> Vec<u32>,
) -> Vec<Delta> {
    deltas
        .iter()
        .enumerate()
        .map(|(d, delta)| {
            let mut steps = ProofLog::new();
            for (i, st) in delta.steps.iter().enumerate() {
                let hints = if (d, i) == at {
                    edit(st.hints)
                } else {
                    st.hints.to_vec()
                };
                steps.push(st.kind, st.lits, &hints);
            }
            Delta {
                steps,
                act: delta.act,
                unsat: delta.unsat,
            }
        })
        .collect()
}

/// The certikos `-O1` monitor calls in the slice: `get_quota`, and
/// `yield`, whose session consults elided resolvents (`get_quota`'s
/// session eliminates, but no hint ever names one of its resolvents).
const CERTIKOS_OPS: [u64; 2] = [certikos::sys::GET_QUOTA, certikos::sys::YIELD];

#[test]
fn certified_sessions_log_every_hint_and_check_by_walking_them() {
    // A resolvent logged twice trips a debug assertion in the solver
    // (`Solver::hint_id`), so this test must run with them on, as the
    // tier-1 profiles do.
    let log_once_checked = cfg!(debug_assertions);
    assert!(log_once_checked, "the log-once check is a debug assertion");
    let cfg = SolverConfig::default();
    assert!(
        cfg.inprocess && cfg.session_bve,
        "the slice runs with session elimination on"
    );
    let mut cores = Vec::new();
    for op in CERTIKOS_OPS {
        cores.extend(capture(1, usize::MAX, || {
            drop(certikos::proofs::prove_op(
                op,
                OptLevel::O1,
                OptCfg::default(),
                cfg,
            ))
        }));
    }
    cores.extend(capture(RV64_STRIDE, RV64_GOALS, || {
        drop(sweep_rv64(&Rv64Jit::fixed(), cfg))
    }));
    assert!(
        cores.len() >= 3,
        "every proof submitted: {} cores",
        cores.len()
    );

    let (mut unsat, mut steps, mut made, mut lazy) = (0, 0, 0, 0);
    let mut sessions = Vec::new();
    for core in &cores {
        let (deltas, resolvents, lazy_resolvents) = session_deltas(core, cfg);
        all_hinted(&deltas);
        if let Err((d, i, e)) = replay(&deltas) {
            panic!(
                "session {}: delta {d} step {i} rejected: {e}",
                sessions.len()
            );
        }
        assert!(
            lazy_resolvents <= resolvents,
            "{lazy_resolvents} of {resolvents} resolvents logged"
        );
        unsat += deltas.iter().filter(|d| d.unsat).count();
        steps += deltas.iter().map(|d| d.steps.len()).sum::<usize>();
        (made, lazy) = (made + resolvents, lazy + lazy_resolvents);
        sessions.push(deltas);
    }
    println!(
        "hinted_certificates: {} sessions, {unsat} Unsat goals, {steps} steps, {lazy} of {made} \
         resolvents logged on first use",
        sessions.len()
    );
    assert!(unsat > 100, "the slice proves theorems: {unsat}");
    assert!(lazy > 0, "the slice consults elided resolvents");

    // Tampering: reverse the first walk of three hints or more, or drop
    // its last hint (the clause the walk ends on falsified). Either is
    // rejected at that very step: there is no search to fall back on.
    let (s, d, i) = sessions
        .iter()
        .enumerate()
        .flat_map(|(s, deltas)| {
            deltas
                .iter()
                .enumerate()
                .map(move |(d, delta)| (s, d, delta))
        })
        .find_map(|(s, d, delta)| {
            let multi = |h: &[u32]| h.len() >= 3 && h[0] != h[h.len() - 1];
            Some((s, d, delta.steps.iter().position(|st| multi(st.hints))?))
        })
        .expect("a derivation hinted by three clauses or more");
    let rejected_there = |deltas: &[Delta]| matches!(replay(deltas), Err((rd, ri, CheckError::NotImplied { .. })) if (rd, ri) == (d, i));
    let reversed = with_hints(&sessions[s], (d, i), |h| h.iter().rev().copied().collect());
    assert!(
        rejected_there(&reversed),
        "a reordered hint list must be rejected"
    );
    let dropped = with_hints(&sessions[s], (d, i), |h| h[..h.len() - 1].to_vec());
    assert!(rejected_there(&dropped), "a dropped hint must be rejected");
}
