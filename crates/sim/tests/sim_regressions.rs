//! Pinned-seed regression corpus for the deterministic simulator.
//!
//! Two kinds of tests live here:
//!
//! 1. **The determinism contract** — running any scenario twice on the
//!    same seed must produce a bit-identical schedule trace and summary.
//!    Everything else (replayable bug reports, the pinned corpus below)
//!    rests on this.
//!
//! 2. **One named seed per bug this harness caught** — each pinned seed
//!    is verified to still *exercise* the fault it was pinned for (the
//!    buggify/IO event appears in the trace) and to uphold the oracle
//!    that used to fail before the fix. If a refactor makes a pinned
//!    seed stop firing its fault, the test fails so the seed can be
//!    re-picked with `cargo run -p serval-sim --example seed_probe`.
//!
//! The sim context is process-global, so every test serializes on
//! [`LOCK`].

use std::sync::Mutex;

use serval_check::sim::SimConfig;
use serval_sim::{run_scenario, ScenarioReport, SCENARIOS};

static LOCK: Mutex<()> = Mutex::new(());

fn run(name: &str, cfg: SimConfig) -> ScenarioReport {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    match run_scenario(name, cfg) {
        Ok(r) => r,
        Err(f) => panic!("{f}"),
    }
}

#[test]
fn same_seed_same_trace_and_summary() {
    for name in SCENARIOS {
        for seed in [0u64, 7, 42] {
            for cfg in [SimConfig::plain(seed), SimConfig::hostile(seed)] {
                let a = run(name, cfg.clone());
                let b = run(name, cfg);
                assert_eq!(
                    (a.trace_hash, &a.summary),
                    (b.trace_hash, &b.summary),
                    "{name} seed {seed} is nondeterministic"
                );
            }
        }
    }
}

#[test]
fn plain_seeds_resolve_everything() {
    // Liveness sample: with no faults armed, every scenario's oracle
    // demands definitive verdicts, full warm coverage, and zero lost
    // disk records (the oracles themselves assert this; a panic here is
    // the failure).
    for name in SCENARIOS {
        for seed in [0u64, 1, 2, 3] {
            run(name, SimConfig::plain(seed));
        }
    }
}

/// Regression: torn appends to the shared disk-cache tier used to leave
/// a half-record that poisoned every later record in the file. Fixed by
/// per-process segment files with per-record checksums and
/// truncate-to-last-good on load. Seed 1 injects torn and bit-flip
/// writes (no crash): some records are lost, none reload wrong.
#[test]
fn torn_append_truncates_to_last_good_record() {
    let r = run("cache_writers", SimConfig::hostile(1));
    assert!(r.injected("torn"), "pinned seed no longer injects a torn write");
    assert!(r.injected("flip"), "pinned seed no longer injects a bit flip");
    assert_eq!(r.summary, "wrote=40 survived=14");
}

/// Regression: a simulated crash mid-run plus every other fault kind at
/// once. The reload oracle (no wrong certificate, no panic) must hold
/// even when nothing survives.
#[test]
fn crash_and_lost_rename_lose_records_but_never_corrupt() {
    let r = run("cache_writers", SimConfig::hostile(9));
    for kind in ["torn", "flip", "crash", "lost-rename"] {
        assert!(r.injected(kind), "pinned seed no longer injects {kind}");
    }
    assert_eq!(r.summary, "wrote=40 survived=0");
}

/// Regression: the loader's truncate-to-last-good repair can itself be
/// skipped by buggify ("cache-load-skip-truncate") — the reload must
/// still never surface a checksum-failing record as a verdict.
#[test]
fn skipped_truncation_still_rejects_bad_records() {
    let r = run("cache_writers", SimConfig::hostile(0));
    assert!(
        r.fired("cache-load-skip-truncate"),
        "pinned seed no longer skips load-time truncation"
    );
    assert!(r.injected("crash"), "pinned seed no longer injects a crash");
    assert_eq!(r.summary, "wrote=40 survived=7");
}

/// Regression: a corrupted proof certificate (buggify pops the final
/// proof step) must demote the verdict to Unknown with the rejection
/// reason — never surface as an unchecked Proved, never flip to
/// Refuted. Seed 19 corrupts two of four proofs on the fresh leg (its
/// session leg corrupts the first goal's delta).
#[test]
fn corrupted_proofs_demote_to_unknown() {
    let r = run("cert_demotion", SimConfig::hostile(19));
    assert!(
        r.fired("cert-corrupt-proof"),
        "pinned seed no longer corrupts a proof"
    );
    assert_eq!(r.summary, "proved=2 demoted=2 session=UUUUUU");
}

/// The session twin: a goal delta streamed to the session's trailing
/// checker without its conclusion ("cert-corrupt-delta") demotes that
/// goal to Unknown and poisons the session — every later goal demotes
/// with the same error (the scenario's oracle checks the error), while
/// the goals before it keep their certificates. Seed 27 corrupts the
/// third of six goals and no fresh proof.
#[test]
fn a_corrupted_session_delta_demotes_its_goal_and_every_later_one() {
    let r = run("cert_demotion", SimConfig::hostile(27));
    assert!(
        r.fired("cert-corrupt-delta"),
        "pinned seed no longer corrupts a session delta"
    );
    assert!(!r.fired("cert-corrupt-proof"));
    assert_eq!(r.summary, "proved=4 demoted=0 session=PPUUUU");
}

/// Regression: a hostile seed that permutes the execution order keeps
/// submission order. The scenario's oracle asserts the result order;
/// here the pinned seed must really run both batches (16 tasks, then 5)
/// out of order, every task exactly once.
#[test]
fn permuted_execution_keeps_submission_order() {
    let r = run("pool_determinism", SimConfig::hostile(0));
    let order = r.task_order();
    let (first, second) = order.split_at(16);
    for (batch, n) in [(first, 16), (second, 5)] {
        let mut sorted = batch.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "every task runs exactly once");
        assert_ne!(batch, sorted, "pinned seed no longer permutes a batch of {n}");
    }
}

/// The executor's sim contract: the task order is a function of the
/// seed — the same seed replays it, and different seeds explore
/// different orders.
#[test]
fn task_order_is_a_function_of_the_seed() {
    let order = |seed| run("pool_determinism", SimConfig::plain(seed)).task_order();
    let orders: Vec<Vec<usize>> = (0..32).map(order).collect();
    for (seed, o) in orders.iter().enumerate().step_by(8) {
        assert_eq!(*o, order(seed as u64), "seed {seed} replays another order");
    }
    assert!(orders.iter().any(|o| *o != orders[0]), "32 seeds, one order");
}

/// Regression: the warm-rerun accounting identity (misses = 0,
/// hits = submitted - trivial) must survive a hostile schedule that
/// skips session purging and permutes the execution order. The
/// engine_batch oracle checks the identity itself in plain mode; here
/// the pinned hostile seed must still land full warm coverage.
#[test]
fn warm_accounting_survives_hostile_schedule() {
    let r = run("engine_batch", SimConfig::hostile(0));
    assert!(r.fired("session-skip-purge"), "pinned seed no longer skips a purge");
    assert_eq!(r.summary, "cold=PPRPP warm=PPRPP acct=4h/0m/5q/1t");
}

/// Regression: degraded SAT inprocessing ("inprocess-skip" turns the
/// maintenance round into a no-op) must never flip a verdict —
/// inprocessing is an equisatisfiable rewrite, so the full engine
/// pipeline must land the same cold and warm verdicts with or without
/// it. Seed 2 skips inprocessing *and* a session purge in one run.
#[test]
fn skipped_inprocessing_never_flips_a_verdict() {
    let r = run("engine_batch", SimConfig::hostile(2));
    assert!(
        r.fired("inprocess-skip"),
        "pinned seed no longer skips inprocessing"
    );
    assert!(r.fired("session-skip-purge"));
    assert_eq!(r.summary, "cold=PPRPP warm=PPRPP acct=4h/0m/5q/1t");
}

/// Regression: degraded session elimination ("session-eliminate-skip"
/// leaves a session's inprocessing only its level-0 cleanup) must never
/// flip a verdict — eliminated clauses are retraction-safe rewrites of
/// the plan's own cone, so skipping the whole pass only costs speed.
/// Seed 3 skips elimination inside the cold run's live session.
#[test]
fn skipped_session_elimination_never_flips_a_verdict() {
    let r = run("engine_batch", SimConfig::hostile(3));
    assert!(
        r.fired("session-eliminate-skip"),
        "pinned seed no longer skips session elimination"
    );
    assert_eq!(r.summary, "cold=PPRPP warm=PPRPP acct=4h/0m/5q/1t");
}

/// Regression: stripping the LRAT hints off every proof step (as a
/// solver version skew would) gets the certificates rejected — the
/// checker walks hints and has no search to fall back on — so the
/// cold run's last two theorems demote to `Unknown` (`U`) and stay
/// uncached, while no verdict flips; the warm rerun solves them again
/// and proves them. Re-pinned when the checker's full-RUP fallback was
/// deleted: the summary was `cold=PPRPP warm=PPRPP acct=4h/0m/5q/1t`.
#[test]
fn dropped_lrat_hints_demote_but_never_flip() {
    let r = run("engine_batch", SimConfig::hostile(1));
    assert!(
        r.fired("lrat-drop-hint"),
        "pinned seed no longer strips LRAT hints"
    );
    assert_eq!(r.summary, "cold=PPRUU warm=PPRPP acct=3h/3m/5q/1t");
}
