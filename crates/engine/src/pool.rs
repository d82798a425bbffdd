//! The batch executor: scratch threads over one cursor (std-only).
//!
//! [`Pool::run_batch`] opens a [`std::thread::scope`], spawns
//! `min(jobs, tasks)` threads, and each claims the next task index from
//! one atomic cursor, in submission order, until the batch is spent.
//! Nothing lives between batches: an empty batch — every warm batch —
//! spawns nothing. That is all the traffic needs: a task is a whole
//! solver session (milliseconds to seconds) and a batch never holds more
//! than a handful of them (DESIGN.md, "Engine", has the counts).
//! A certified session task is two threads: it opens a scope of its own
//! for the checker that trails its solver (`solve::solve_session`), so
//! `jobs` bounds the *solving* threads, and each certified session adds
//! one mostly idle checker beside its solver.
//!
//! A task never runs on the submitting thread, even with `jobs = 1`:
//! tasks `reset_ctx()` to materialize their core, and the caller owns
//! live terms. Each task runs under `catch_unwind`, so a poisoned query fails
//! alone, and results come back **in submission order** whatever the
//! completion order or worker count — the basis of the engine's
//! determinism guarantee.
//!
//! Under a [`serval_check::sim`] context the same function runs the
//! tasks one at a time, each on its own scratch thread, in an order
//! drawn from the sim's seeded decision stream, and logs one trace step
//! per task: same seed ⇒ same execution order ⇒ same trace.

use serval_check::runner::panic_message;
use serval_check::sim;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::Builder;

type Task<T> = Box<dyn FnOnce() -> T + Send + 'static>;

/// How many threads a batch may use; the threads themselves are scoped
/// to [`Pool::run_batch`].
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool running at most `jobs` tasks at once (at least 1).
    pub fn new(jobs: usize) -> Pool {
        Pool { jobs: jobs.max(1) }
    }

    /// Concurrent tasks per batch.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs a batch of tasks and returns their results in submission
    /// order. A panicking task yields `Err(panic message)` for its slot
    /// only; the rest of the batch completes normally.
    pub fn run_batch<T: Send + 'static>(&self, tasks: Vec<Task<T>>) -> Vec<Result<T, String>> {
        let n = tasks.len();
        // Slot `i` holds task `i` until a thread claims it, then its
        // result. No lock is held while a task runs, so a panic cannot
        // poison one.
        let todo: Vec<Mutex<Option<Task<T>>>> =
            tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let done: Vec<Mutex<Option<Result<T, String>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let run = |i: usize| {
            let task = todo[i]
                .lock()
                .expect("no task runs under a slot lock")
                .take();
            let task = task.expect("the cursor hands out each index once");
            let result = catch_unwind(AssertUnwindSafe(task)).map_err(panic_message);
            *done[i].lock().expect("no task runs under a slot lock") = Some(result);
        };
        if sim::active() {
            let mut left: Vec<usize> = (0..n).collect();
            while !left.is_empty() {
                let i = left.remove(sim::choose(left.len()));
                sim::trace_step(i);
                std::thread::scope(|s| {
                    let name = "serval-sim-task".to_string();
                    Builder::new()
                        .name(name)
                        .spawn_scoped(s, || run(i))
                        .expect("spawn sim task");
                });
            }
        } else {
            // Relaxed: the cursor only hands out distinct indices; the
            // slots are published by the spawn and collected by the join.
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for w in 0..self.jobs.min(n) {
                    let work = || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        run(i);
                    };
                    let name = format!("serval-engine-{w}");
                    Builder::new()
                        .name(name)
                        .spawn_scoped(s, work)
                        .expect("spawn engine worker");
                }
            });
        }
        done.into_iter()
            .map(|slot| slot.into_inner().expect("no task runs under a slot lock"))
            .map(|r| r.expect("every batch slot reports exactly once"))
            .collect()
    }
}
