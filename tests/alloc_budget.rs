//! The allocation budgets of a certified session, of a warm batch and of
//! a warm frontend pass.
//!
//! Two pool workers can only run two sessions side by side if the
//! sessions stay out of the allocator: under one malloc arena (the
//! benchmark's setting) every `malloc` takes the same lock, and at ~8
//! calls per proof step — a vector per logged clause, per gate bucket,
//! per resolution step — the second worker bought futex time, not wall
//! time. This test pins the property that fixed it: encoding, search,
//! proof logging and certificate checking work on flat, owned buffers,
//! so heap calls per proof step stay under one (what is left is watch
//! lists growing, a call or two per variable).
//!
//! The second test pins the warm path the same way: re-proving an item
//! against a warm engine is fold → key → probe per obligation over one
//! batch-scoped keyer's buffers, so `submit_batch` makes about one heap
//! call per obligation where it used to make fifty.
//!
//! The third pins the other side of that seam: the frontend of a warm
//! re-proof (compile, symbolic evaluation, the smart constructors) with
//! `submit_batch` left out. The term store interns into one arena with
//! children inline, so heap calls per term stay a small constant.
//!
//! The counts are exact to within a call or two — a fixed input, no
//! hash-order dependence in what is counted, the tests serialized, and
//! only the harness's own thread beside them — so the bounds need no
//! noise margin, only headroom for honest growth. A binary of its own:
//! the counting `#[global_allocator]` is process-wide, so it also counts
//! the checker thread a certified session streams its proof to.

use serval_engine::form::{Core, Keyer};
use serval_engine::solve::{solve_session, RawVerdict};
use serval_engine::{Discharge, Engine, EngineCfg, Query, QueryOutcome};
use serval_repro::core_fw::OptCfg;
use serval_repro::ir::OptLevel;
use serval_repro::jit::{sweep_rv64, Rv64Jit};
use serval_repro::monitors::certikos;
use serval_repro::smt::solver::{SolverConfig, VerifyResult};
use serval_repro::smt::with_ctx;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// `malloc + realloc` calls allowed per proof step of the session below.
/// Measured: 0.81 (113 529 calls over 139 797 steps; the parent commit
/// under this same test: 5.40). The bound is the measurement with 2×
/// headroom.
const CALLS_PER_STEP_BOUND: f64 = 1.7;

/// `malloc + realloc` calls allowed per obligation of a warm
/// resubmission, every obligation answered by a fold or the raw-key
/// probe. Measured on the fixed rv64 JIT sweep: 1.05 per obligation (218
/// calls over 208 obligations, 116 of them folded; the parent commit
/// under this same test: 49.89) — interning `!goal` for the 92 keyed
/// ones, and the keyer's buffers growing to size once. On one certikos
/// `-O1` call (`spawn`), per obligation that is keyed at all: 3.48 (115
/// calls, 33 keyed of 565; the parent: 3837.09, all but a sliver of it
/// normalizing the 532 queries a constant already proves). The bounds
/// are the measurements with 2× headroom, both more than 10× under the
/// parent's figures. Since the term store stopped allocating per node
/// (no `Vec` per constructor call, no table rebuilt per item), the same
/// two figures read 0.16 (34 calls) and 1.88 (62 calls).
const WARM_SWEEP_BOUND: f64 = 2.1;
const WARM_MONITOR_BOUND: f64 = 7.0;

/// `malloc + realloc` calls allowed per interned term of a warm
/// frontend pass — compile and symbolic evaluation of one certikos `-O1`
/// call (`spawn`) against a warm engine, with the engine's own calls
/// inside `submit_batch` not counted. Measured: 3.41 (6 752 calls over
/// 1 979 terms; the parent commit, whose store kept a `HashMap` clone
/// and a `Vec` per node and rebuilt its table per item, under this same
/// test: 5.49, 10 866 calls). Most of what is left is compiling the
/// binary and the callers' own buffers, not the store. The bound is the
/// measurement with 2× headroom.
const WARM_FRONTEND_BOUND: f64 = 6.8;

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only two
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Keys the one batch a sweep submits into a session core, the way the
/// engine's planner keys a chunk, and answers `Unknown` to everything:
/// the sweep is only here to build the terms.
struct Capture(Mutex<Option<Core>>);

impl Discharge for Capture {
    fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome> {
        assert!(
            queries.iter().all(|q| q.assumptions.is_empty()),
            "sweep queries share no base"
        );
        let goals: Vec<_> = queries.iter().map(|q| q.goal).collect();
        let (core, _) = Keyer::new().chunk(&[], &goals);
        *self.0.lock().expect("one thread") = Some(core);
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

/// Runs tests one at a time: the counter and the installed discharger
/// are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn a_certified_session_stays_out_of_the_allocator() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SolverConfig::default();
    let capture = Arc::new(Capture(Mutex::new(None)));
    serval_engine::install_discharger(Arc::clone(&capture) as Arc<dyn Discharge>);
    drop(sweep_rv64(&Rv64Jit::fixed(), cfg));
    serval_engine::clear_discharger();
    let core = capture
        .0
        .lock()
        .expect("one thread")
        .take()
        .expect("the sweep submitted a batch");

    COUNTING.store(true, Ordering::Relaxed);
    // The session's checker thread is joined before this returns, so the
    // count read below includes every call it made.
    let outcomes = solve_session(&core, cfg, None, true);
    COUNTING.store(false, Ordering::Relaxed);

    let calls = CALLS.swap(0, Ordering::Relaxed);
    assert!(
        outcomes
            .iter()
            .all(|o| matches!(o.verdict, RawVerdict::Proved) && o.cert_error.is_none()),
        "the fixed rv64 JIT proves with every certificate accepted"
    );
    let steps: u64 = outcomes.iter().map(|o| o.stats.cert_steps).sum();
    let per_step = calls as f64 / steps as f64;
    println!("alloc_budget: {calls} malloc+realloc calls / {steps} proof steps = {per_step:.3}");
    assert!(
        steps > 100_000,
        "the session is big enough to mean something: {steps} steps"
    );
    assert!(
        per_step <= CALLS_PER_STEP_BOUND,
        "{per_step:.3} malloc+realloc calls per proof step, bound {CALLS_PER_STEP_BOUND}"
    );
}

/// An engine at the seam that counts heap calls inside `submit_batch`
/// once `warm` is set, and how many obligations those calls answered.
struct Counted {
    engine: Engine,
    warm: AtomicBool,
    obligations: AtomicU64,
    folded: AtomicU64,
}

impl Discharge for Counted {
    fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome> {
        let warm = self.warm.load(Ordering::Relaxed);
        COUNTING.store(warm, Ordering::Relaxed);
        let out = self.engine.submit_batch(queries);
        COUNTING.store(false, Ordering::Relaxed);
        if warm {
            let folded = out
                .iter()
                .filter(|o| o.stats.is_none() && !o.cache_hit)
                .count();
            assert!(
                out.iter()
                    .all(|o| o.stats.is_none() && o.result.is_proved()),
                "a warm rerun of a proved item solves nothing"
            );
            self.obligations
                .fetch_add(out.len() as u64, Ordering::Relaxed);
            self.folded.fetch_add(folded as u64, Ordering::Relaxed);
        }
        out
    }
}

/// Proves `item` cold, then again warm with the allocator counted:
/// (heap calls, obligations, trivially folded obligations) of the warm
/// pass's `submit_batch` calls.
fn warm_calls(item: impl Fn()) -> (u64, u64, u64) {
    let counted = Arc::new(Counted {
        engine: Engine::new(EngineCfg {
            jobs: 1,
            ..EngineCfg::default()
        }),
        warm: AtomicBool::new(false),
        obligations: AtomicU64::new(0),
        folded: AtomicU64::new(0),
    });
    serval_engine::install_discharger(Arc::clone(&counted) as Arc<dyn Discharge>);
    item();
    counted.warm.store(true, Ordering::Relaxed);
    item();
    serval_engine::clear_discharger();
    (
        CALLS.swap(0, Ordering::Relaxed),
        counted.obligations.load(Ordering::Relaxed),
        counted.folded.load(Ordering::Relaxed),
    )
}

#[test]
fn a_warm_batch_stays_out_of_the_allocator() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SolverConfig::default();

    let (calls, obligations, folded) = warm_calls(|| drop(sweep_rv64(&Rv64Jit::fixed(), cfg)));
    let per_obligation = calls as f64 / obligations as f64;
    println!(
        "alloc_budget: warm rv64 sweep: {calls} malloc+realloc calls / {obligations} obligations \
         ({folded} folded) = {per_obligation:.2}"
    );
    assert!(
        obligations - folded > 50,
        "the sweep keys real queries: {folded} of {obligations} fold"
    );
    assert!(
        per_obligation <= WARM_SWEEP_BOUND,
        "{per_obligation:.2} malloc+realloc calls per warm sweep obligation, bound {WARM_SWEEP_BOUND}"
    );

    let spawn = || {
        drop(certikos::proofs::prove_op(
            certikos::sys::SPAWN,
            OptLevel::O1,
            OptCfg::default(),
            cfg,
        ))
    };
    let (calls, obligations, folded) = warm_calls(spawn);
    let keyed = obligations - folded;
    let per_keyed = calls as f64 / keyed as f64;
    println!(
        "alloc_budget: warm certikos -O1 spawn: {calls} malloc+realloc calls / {keyed} non-trivial \
         of {obligations} obligations = {per_keyed:.2}"
    );
    assert!(
        keyed > 20 && folded > keyed,
        "most of a refinement batch folds: {folded} of {obligations}"
    );
    assert!(
        per_keyed <= WARM_MONITOR_BOUND,
        "{per_keyed:.2} malloc+realloc calls per non-trivial warm obligation, bound {WARM_MONITOR_BOUND}"
    );
}

/// An engine at the seam that counts heap calls everywhere *but* inside
/// `submit_batch` once `warm` is set: what is left is the frontend.
struct Frontend {
    engine: Engine,
    warm: AtomicBool,
}

impl Discharge for Frontend {
    fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome> {
        COUNTING.store(false, Ordering::Relaxed);
        let out = self.engine.submit_batch(queries);
        COUNTING.store(self.warm.load(Ordering::Relaxed), Ordering::Relaxed);
        out
    }
}

#[test]
fn a_warm_frontend_stays_out_of_the_allocator() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SolverConfig::default();
    let spawn = || {
        drop(certikos::proofs::prove_op(
            certikos::sys::SPAWN,
            OptLevel::O1,
            OptCfg::default(),
            cfg,
        ))
    };
    let frontend = Arc::new(Frontend {
        engine: Engine::new(EngineCfg {
            jobs: 1,
            ..EngineCfg::default()
        }),
        warm: AtomicBool::new(false),
    });
    serval_engine::install_discharger(Arc::clone(&frontend) as Arc<dyn Discharge>);
    spawn();
    frontend.warm.store(true, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    spawn();
    COUNTING.store(false, Ordering::Relaxed);
    serval_engine::clear_discharger();

    let calls = CALLS.swap(0, Ordering::Relaxed);
    let terms = with_ctx(|c| c.num_terms());
    let per_term = calls as f64 / terms as f64;
    println!(
        "alloc_budget: warm certikos -O1 spawn frontend: {calls} malloc+realloc calls / {terms} terms \
         = {per_term:.3}"
    );
    assert!(terms > 1_000, "the item builds real terms: {terms}");
    assert!(
        per_term <= WARM_FRONTEND_BOUND,
        "{per_term:.3} malloc+realloc calls per term of a warm frontend pass, bound {WARM_FRONTEND_BOUND}"
    );
}
