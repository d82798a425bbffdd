//! The allocation budget of a certified session.
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
//! The count is exact — one thread, a fixed input, no hash-order
//! dependence in what is counted — so the bound needs no noise margin,
//! only headroom for honest growth. A binary of its own: the counting
//! `#[global_allocator]` is process-wide.

use serval_engine::form::{prepare_session, SessionCore};
use serval_engine::solve::{solve_session, RawVerdict};
use serval_engine::{Discharge, Query, QueryOutcome};
use serval_repro::jit::{sweep_rv64, Rv64Jit};
use serval_repro::smt::solver::{SolverConfig, VerifyResult};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// `malloc + realloc` calls allowed per proof step of the session below.
/// Measured: 0.81 (113 529 calls over 139 797 steps; the parent commit
/// under this same test: 5.40). The bound is the measurement with 2×
/// headroom.
const CALLS_PER_STEP_BOUND: f64 = 1.7;

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

/// Turns the one batch a sweep submits into a session core and answers
/// `Unknown` to everything: the sweep is only here to build the terms.
struct Capture(Mutex<Option<SessionCore>>);

impl Discharge for Capture {
    fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome> {
        assert!(
            queries.iter().all(|q| q.assumptions.is_empty()),
            "sweep queries share no base"
        );
        let goals: Vec<_> = queries.iter().map(|q| q.goal).collect();
        *self.0.lock().expect("one thread") = Some(prepare_session(&[], &goals).core);
        queries
            .into_iter()
            .map(|q| QueryOutcome {
                label: q.label,
                result: VerifyResult::Unknown,
                stats: None,
                wall: Duration::ZERO,
                cache_hit: false,
                variant: 0,
                cert: None,
                error: None,
            })
            .collect()
    }
}

#[test]
fn a_certified_session_stays_out_of_the_allocator() {
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
    let outcomes = solve_session(&core, cfg, None, true);
    COUNTING.store(false, Ordering::Relaxed);

    let calls = CALLS.load(Ordering::Relaxed);
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
