//! The property-test runner: case generation, failure detection, and
//! choice-list shrinking.
//!
//! Determinism: the default seed is a fixed constant, so a test binary
//! produces the same case sequence on every run and every machine. Set
//! `SERVAL_CHECK_SEED=<u64>` to explore a different stream, and
//! `SERVAL_CHECK_CASES=<n>` to override case counts globally (e.g. a
//! quick CI smoke pass). Each property's stream is additionally salted
//! with a hash of its name so sibling properties are decorrelated.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::data::DataSource;
use crate::rng::{hash_name, Rng, SplitMix64};
use crate::strategy::Strategy;

/// The fixed default seed: determinism out of the box.
pub const DEFAULT_SEED: u64 = 0x5e77_a1c0_5e7a_11ed;

#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Upper bound on shrink candidate executions after a failure.
    pub max_shrink_iters: u32,
    /// Root seed (salted per property by the property name).
    pub seed: u64,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256, max_shrink_iters: 4096, seed: DEFAULT_SEED }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases, ..Default::default() }
    }
}

/// A fully shrunk property failure.
#[derive(Debug)]
pub struct Failure<V> {
    /// The minimal failing input (after shrinking).
    pub minimal: V,
    /// Panic message produced by the minimal input.
    pub message: String,
    /// The effective root seed (reproduce with `SERVAL_CHECK_SEED`).
    pub seed: u64,
    /// 0-based index of the first failing case.
    pub case: u32,
    /// Shrink candidates executed.
    pub shrink_iters: u32,
}

/// The message of a caught panic (`catch_unwind`'s or `join`'s `Err`):
/// the `&str` or `String` it was raised with. The one such downcast in
/// the workspace; the engine pool, the net shards and the simulator
/// report a panicked task through it.
pub fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

thread_local! {
    static QUIET_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Silences the default panic hook on this thread while `f` runs, so
/// the many expected panics caught during case execution and shrinking
/// don't spam stderr with backtraces. The hook is swapped once per
/// process for a forwarding hook gated on a thread-local, keeping other
/// threads' panics untouched.
fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            QUIET_PANICS.with(|q| q.set(self.0));
        }
    }
    let _reset = Reset(QUIET_PANICS.with(|q| q.replace(true)));
    f()
}

/// Replays `choices` through the strategy and the test closure.
/// `Ok(consumed)` means the test passed; `Err((consumed, msg))` carries
/// the panic message and the canonical (reduced, truncated-to-consumed)
/// choice list actually used.
fn run_once<S: Strategy, F: Fn(S::Value)>(
    strat: &S,
    test: &F,
    choices: Vec<u64>,
) -> Result<Vec<u64>, (Vec<u64>, String)> {
    let mut src = DataSource::replay(choices);
    let value = strat.generate(&mut src);
    let consumed = src.into_record();
    match catch_unwind(AssertUnwindSafe(|| test(value))) {
        Ok(()) => Ok(consumed),
        Err(e) => Err((consumed, panic_message(e))),
    }
}

/// Shortlex order on choice lists: shorter is strictly simpler; at equal
/// length, lexicographically smaller is simpler. Accepting only
/// strictly-simpler candidates guarantees shrinking always progresses
/// (replay pads exhausted lists with zeros, so a candidate's *consumed*
/// record can be longer than the candidate itself).
fn simpler(a: &[u64], b: &[u64]) -> bool {
    a.len() < b.len() || (a.len() == b.len() && a < b)
}

/// Shrinks a failing choice list: alternating passes of block deletion
/// and per-choice minimization (zero, then binary search), to a
/// fixpoint or the iteration budget.
fn shrink<S: Strategy, F: Fn(S::Value)>(
    cfg: &ProptestConfig,
    strat: &S,
    test: &F,
    mut best: Vec<u64>,
    mut best_msg: String,
) -> (Vec<u64>, String, u32) {
    let mut iters: u32 = 0;
    macro_rules! attempt {
        ($cand:expr) => {{
            iters += 1;
            match run_once(strat, test, $cand) {
                Err((consumed, msg)) if simpler(&consumed, &best) => {
                    best = consumed;
                    best_msg = msg;
                    true
                }
                _ => false,
            }
        }};
    }

    loop {
        let mut improved = false;

        // Pass 1: delete contiguous blocks, large to small. Removing a
        // block drops generated substructure (e.g. vector elements);
        // replay pads with zeros if generation overruns the shorter list.
        let mut size = (best.len() / 2).max(1);
        loop {
            let mut start = 0;
            while start + size <= best.len() && iters < cfg.max_shrink_iters {
                let mut cand = best.clone();
                cand.drain(start..start + size);
                if attempt!(cand) {
                    improved = true;
                    // best changed (and may be shorter); retry same start.
                } else {
                    start += size;
                }
            }
            if size == 1 {
                break;
            }
            size /= 2;
        }

        // Pass 2: minimize individual choices — try 0, then binary
        // search between the largest known-passing and the current
        // failing value.
        let mut i = 0;
        while i < best.len() && iters < cfg.max_shrink_iters {
            let cur = best[i];
            if cur != 0 {
                let mut cand = best.clone();
                cand[i] = 0;
                if attempt!(cand) {
                    improved = true;
                } else {
                    // 0 passes, `cur` fails: bisect toward the smallest
                    // failing choice at this position.
                    let (mut lo, mut hi) = (0u64, cur);
                    while hi - lo > 1 && iters < cfg.max_shrink_iters {
                        let mid = lo + (hi - lo) / 2;
                        if i >= best.len() {
                            break;
                        }
                        let mut cand = best.clone();
                        cand[i] = mid;
                        if attempt!(cand) {
                            improved = true;
                            hi = mid;
                        } else {
                            lo = mid;
                        }
                    }
                }
            }
            i += 1;
        }

        if !improved || iters >= cfg.max_shrink_iters {
            return (best, best_msg, iters);
        }
    }
}

/// The number of cases to run where `default` is asked for: the
/// `SERVAL_CHECK_CASES` override when it parses, else `default`. Also
/// sizes seed-indexed soaks that are not written as properties, so one
/// variable scales both.
pub fn case_count(default: u32) -> u32 {
    std::env::var("SERVAL_CHECK_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Runs a property to completion, returning the shrunk failure if any.
/// This is the inspectable core of [`run_property`]; the self-tests use
/// it to assert shrinking quality without unwinding.
pub fn run_property_result<S: Strategy, F: Fn(S::Value)>(
    cfg: &ProptestConfig,
    name: &str,
    strat: &S,
    test: F,
) -> Result<(), Failure<S::Value>> {
    let seed = std::env::var("SERVAL_CHECK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(cfg.seed);
    let cases = case_count(cfg.cases);
    let mut case_seeds = SplitMix64::new(seed ^ hash_name(name));
    with_quiet_panics(|| {
        for case in 0..cases {
            let mut src = DataSource::random(Rng::from_seed(case_seeds.next_u64()));
            let value = strat.generate(&mut src);
            if let Err(e) = catch_unwind(AssertUnwindSafe(|| test(value))) {
                let choices = src.into_record();
                let msg = panic_message(e);
                let (min_choices, final_msg, shrink_iters) =
                    shrink(cfg, strat, &test, choices, msg);
                let minimal = strat.generate(&mut DataSource::replay(min_choices));
                return Err(Failure { minimal, message: final_msg, seed, case, shrink_iters });
            }
        }
        Ok(())
    })
}

/// The entry point generated by the `proptest!` macro: runs the property
/// and panics with a reproduction report on failure.
pub fn run_property<S: Strategy, F: Fn(S::Value)>(
    cfg: &ProptestConfig,
    name: &str,
    strat: &S,
    test: F,
) {
    if let Err(f) = run_property_result(cfg, name, strat, test) {
        panic!(
            "[serval-check] property '{}' failed (case {} of this run, \
             {} shrink iterations)\n  minimal input: {:?}\n  failure: {}\n  \
             reproduce with SERVAL_CHECK_SEED={}",
            name, f.case, f.shrink_iters, f.minimal, f.message, f.seed
        );
    }
}
