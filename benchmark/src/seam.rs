//! The measuring wrapper installed at the `Discharge` seam.
//!
//! Everything a proof entry point sends to the engine passes through
//! [`Seam::submit_batch`]: that is where frontend time is split from
//! engine time, where verdicts are checked against the expected-answer
//! files, where counts are taken from `QueryOutcome`/`QueryStats`, and —
//! in a traced run — where spans are recorded and queries are captured
//! as wire bytes for the stage replay.

use crate::expected::Expected;
use serval_engine::form::{prepare_wire, wire_bytes};
use serval_engine::{Discharge, Query, QueryOutcome};
use serval_smt::solver::{QueryStats, SolverConfig, VerifyResult};
use serval_smt::{with_ctx, SBool};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded interval. `parent` indexes [`Trace::spans`] (-1 = root);
/// `item` indexes [`Trace::items`]. `solve`/`cert` spans ran on a pool
/// worker: only their length is known, so they start at their batch.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i32,
    pub item: i32,
}

#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub items: Vec<String>,
    open: Vec<usize>,
}

/// A query captured for the stage replay.
pub struct Sample {
    pub bytes: Vec<u8>,
    pub cfg: SolverConfig,
    /// The real run solved it (as opposed to answering from a cache).
    pub solved: bool,
}

/// What the seam saw since [`Seam::start_timed`].
#[derive(Default)]
pub struct Counters {
    pub obligations: u64,
    pub batches: u64,
    pub submit: Duration,
    pub batch_ms: Vec<f64>,
    pub terms_built: u64,
    pub solve_sum: Duration,
    pub slowest: Duration,
    pub refuted: u64,
    pub refuted_solve: Duration,
    pub session_goals: u64,
    pub stats: QueryStats,
    /// Time a traced run spent capturing replay samples.
    pub capture: Duration,
}

#[derive(Default)]
pub struct Verdicts {
    pub attempted: u64,
    pub failed: u64,
    /// Definitive verdicts that contradict the expected file.
    pub contradicted: u64,
    /// Order-independent digest of every (item, label, verdict).
    pub digest: u64,
    pub complaints: Vec<String>,
    pub sizes: Vec<(String, u64)>,
}

#[derive(Default)]
struct State {
    item: String,
    item_id: i32,
    item_obligations: u64,
    item_terms: u64,
    counters: Counters,
    verdicts: Verdicts,
    trace: Trace,
    samples: Vec<Sample>,
    eligible_seen: u64,
}

pub struct Seam {
    /// Where batches go: a local engine or the loopback client. Swapped
    /// whenever a pass asks for a cold engine.
    inner: Mutex<Option<Arc<dyn Discharge>>>,
    state: Mutex<State>,
    expected: Expected,
    epoch: Instant,
    traced: bool,
    /// Capture every `stride`-th eligible query, starting at `offset`.
    stride: u64,
    offset: u64,
}

/// Complaints kept per child; the counts are kept in full.
const MAX_COMPLAINTS: usize = 20;

/// One (item, label, verdict) triple's contribution to the digest. The
/// default hasher with its fixed keys: digests are only ever compared
/// between runs of one build.
fn digest_of(item: &str, label: &str, code: &str) -> u64 {
    let mut h = DefaultHasher::new();
    (item, label, code).hash(&mut h);
    h.finish()
}

impl Seam {
    pub fn new(expected: Expected, traced: bool, stride: u64, seed: u64) -> Seam {
        Seam {
            inner: Mutex::new(None),
            state: Mutex::new(State {
                item_id: -1,
                ..State::default()
            }),
            expected,
            epoch: Instant::now(),
            traced,
            stride: stride.max(1),
            offset: seed % stride.max(1),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("seam state is only locked by the submitting thread")
    }

    /// `None` drops the current backend (and with it an engine's cache)
    /// before its replacement is built.
    pub fn set_inner(&self, inner: Option<Arc<dyn Discharge>>) {
        *self.inner.lock().expect("seam inner lock") = inner;
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one (traced runs only).
    pub fn open(&self, name: &'static str) {
        if !self.traced {
            return;
        }
        let now = self.now_ns();
        let mut st = self.state();
        let parent = st.trace.open.last().map_or(-1, |&p| p as i32);
        let item = st.item_id;
        st.trace.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            item,
        });
        let id = st.trace.spans.len() - 1;
        st.trace.open.push(id);
    }

    pub fn close(&self) {
        if !self.traced {
            return;
        }
        let now = self.now_ns();
        let mut st = self.state();
        if let Some(id) = st.trace.open.pop() {
            st.trace.spans[id].end_ns = now;
        }
    }

    pub fn begin_item(&self, name: String) {
        {
            let mut st = self.state();
            st.item_obligations = 0;
            st.item_terms = 0;
            st.item_id = match st.trace.items.iter().position(|n| *n == name) {
                Some(i) => i as i32,
                None => {
                    st.trace.items.push(name.clone());
                    st.trace.items.len() as i32 - 1
                }
            };
            st.item = name;
        }
        self.open("item");
    }

    /// Closes the item and checks its size against the expected file: a
    /// changed obligation count changes what `obligations_per_s` means.
    pub fn end_item(&self) {
        self.close();
        let mut st = self.state();
        st.counters.terms_built += st.item_terms;
        let (name, got) = (st.item.clone(), st.item_obligations);
        let complaint = match self.expected.size(&name) {
            Some(want) if want == got => None,
            Some(want) => Some(format!(
                "{name}: submitted {got} obligations, benchmark/expected says {want}"
            )),
            None => Some(format!(
                "{name}: no size line in benchmark/expected ({got} submitted)"
            )),
        };
        if let Some(complaint) = complaint {
            st.verdicts.contradicted += 1;
            if st.verdicts.complaints.len() < MAX_COMPLAINTS {
                st.verdicts.complaints.push(complaint);
            }
        }
        if !st.verdicts.sizes.iter().any(|(n, _)| *n == name) {
            st.verdicts.sizes.push((name, got));
        }
    }

    /// Forgets the counters gathered so far (the set-up pass); verdicts,
    /// spans and samples are kept.
    pub fn start_timed(&self) {
        self.state().counters = Counters::default();
    }

    pub fn take_counters(&self) -> Counters {
        std::mem::take(&mut self.state().counters)
    }

    pub fn take_verdicts(&self) -> Verdicts {
        std::mem::take(&mut self.state().verdicts)
    }

    pub fn take_trace(&self) -> Trace {
        std::mem::take(&mut self.state().trace)
    }

    pub fn take_samples(&self) -> Vec<Sample> {
        std::mem::take(&mut self.state().samples)
    }

    /// Time spent capturing samples since [`Seam::start_timed`]; the
    /// child takes it out of the wall time it reports.
    pub fn capture_time(&self) -> Duration {
        self.state().counters.capture
    }

    /// `claim` is the query as submitted, kept only where the expected
    /// file wants a refutation: a `Refuted` verdict counts only if its
    /// model really is a counterexample on the caller's terms — every
    /// assumption true, the goal false.
    fn judge(&self, st: &mut State, out: &QueryOutcome, claim: Option<&(Vec<SBool>, SBool)>) {
        let (code, definitive) = match &out.result {
            VerifyResult::Proved => ("proved", true),
            VerifyResult::Counterexample(_) => ("refuted", true),
            VerifyResult::Unknown => ("unknown", false),
            VerifyResult::Interrupted => ("interrupted", false),
        };
        let (ok, why) = match (&out.result, claim) {
            (VerifyResult::Proved, None) => (true, ""),
            (VerifyResult::Counterexample(m), Some((assumptions, goal))) => {
                let holds = assumptions.iter().all(|a| m.eval_bool(a.0)) && !m.eval_bool(goal.0);
                (holds, "its model is not a counterexample")
            }
            _ => (false, ""),
        };
        let v = &mut st.verdicts;
        v.attempted += 1;
        v.digest = v.digest.wrapping_add(digest_of(&st.item, &out.label, code));
        if !ok {
            v.failed += 1;
            v.contradicted += definitive as u64;
            if v.complaints.len() < MAX_COMPLAINTS {
                let want = if claim.is_some() { "refuted" } else { "proved" };
                let why = out.error.as_deref().unwrap_or(why);
                v.complaints.push(format!(
                    "{} | {}: expected {want}, got {code} {why}",
                    st.item, out.label
                ));
            }
        }
    }

    fn tally(&self, st: &mut State, out: &QueryOutcome) {
        let c = &mut st.counters;
        if matches!(out.result, VerifyResult::Counterexample(_)) {
            c.refuted += 1;
            c.refuted_solve += out.wall;
        }
        let Some(s) = &out.stats else { return };
        // `out.wall` is a split query's critical path (max over its
        // conjuncts); `s.wall` their sum, which is the work done.
        c.solve_sum += s.wall;
        c.slowest = c.slowest.max(out.wall);
        c.session_goals += (s.session_goals > 0) as u64;
        let t = &mut c.stats;
        t.conflicts += s.conflicts;
        t.decisions += s.decisions;
        t.propagations += s.propagations;
        t.restarts += s.restarts;
        t.learnts += s.learnts;
        t.clauses += s.clauses;
        t.vars += s.vars;
        t.reused_clauses += s.reused_clauses;
        t.eliminated_vars += s.eliminated_vars;
        t.subsumed += s.subsumed;
        t.strengthened += s.strengthened;
        t.resolvents += s.resolvents;
        t.cert_steps += s.cert_steps;
        t.cert_wall += s.cert_wall;
    }
}

impl Discharge for Seam {
    fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome> {
        let inner = self
            .inner
            .lock()
            .expect("seam inner lock")
            .clone()
            .expect("a backend is installed before the first proof runs");
        let terms = with_ctx(|c| c.num_terms()) as u64;
        let claims: Vec<Option<(Vec<SBool>, SBool)>> = {
            let st = self.state();
            queries
                .iter()
                .map(|q| {
                    self.expected
                        .wants_refuted(&st.item, &q.label)
                        .then(|| (q.assumptions.clone(), q.goal))
                })
                .collect()
        };
        // Kept only in a traced run: the terms stay alive until the next
        // item resets the context, so sampled queries can be captured
        // after their verdicts are known.
        let kept: Vec<(Vec<SBool>, SBool, SolverConfig)> = if self.traced {
            queries
                .iter()
                .map(|q| (q.assumptions.clone(), q.goal, q.cfg))
                .collect()
        } else {
            Vec::new()
        };
        self.open("submit_batch");
        let t0 = Instant::now();
        let outcomes = inner.submit_batch(queries);
        let dt = t0.elapsed();
        self.close();

        let mut st = self.state();
        st.item_terms = terms;
        st.item_obligations += outcomes.len() as u64;
        st.counters.obligations += outcomes.len() as u64;
        st.counters.batches += 1;
        st.counters.submit += dt;
        st.counters.batch_ms.push(dt.as_secs_f64() * 1e3);
        for (out, claim) in outcomes.iter().zip(&claims) {
            self.judge(&mut st, out, claim.as_ref());
            self.tally(&mut st, out);
        }
        if self.traced {
            let batch = st.trace.spans.len() as i32 - 1;
            let (start, item) = (st.trace.spans[batch as usize].start_ns, st.item_id);
            let t_cap = Instant::now();
            for (out, (assumptions, goal, cfg)) in outcomes.iter().zip(&kept) {
                if let Some(s) = &out.stats {
                    let solve = out.wall.saturating_sub(s.cert_wall).as_nanos() as u64;
                    let cert = s.cert_wall.as_nanos() as u64;
                    let mut push = |name, len: u64| {
                        st.trace.spans.push(Span {
                            name,
                            start_ns: start,
                            end_ns: start + len,
                            parent: batch,
                            item,
                        });
                    };
                    push("solve", solve);
                    if cert > 0 {
                        push("cert", cert);
                    }
                }
                // Trivially folded queries (no stats, no hit) never reach
                // a cache or a solver: nothing to replay.
                if out.stats.is_none() && !out.cache_hit {
                    continue;
                }
                st.eligible_seen += 1;
                if st.eligible_seen % self.stride == self.offset {
                    let wp = prepare_wire(assumptions, *goal);
                    st.samples.push(Sample {
                        bytes: wire_bytes(&wp.core),
                        cfg: *cfg,
                        solved: out.stats.is_some(),
                    });
                }
            }
            st.counters.capture += t_cap.elapsed();
        }
        outcomes
    }
}
