//! serval-engine: the parallel proof-discharge engine.
//!
//! Serval's workloads are embarrassingly parallel — split-cases factors a
//! monolithic verification condition into independent per-handler
//! queries, and the JIT checker emits one query per BPF opcode — but the
//! term DAG they are phrased over is *thread-local*. This crate bridges
//! the two: a [`Query`] (assumptions + goal + label) is re-serialized
//! into a portable, alpha-invariant normal form ([`form`]), solved on
//! scratch threads scoped to the batch ([`pool`]), memoized in a
//! verdict cache over an optional disk tier ([`cache`]), and optionally
//! raced across several solver configurations with cooperative
//! cancellation ([`solve`]).
//!
//! The cache is keyed two ways, each with one job. A query's *raw key*
//! (its normal form as submitted) answers a resubmission: every query
//! is probed under it before anything else happens, and every
//! definitive outcome is stored under it. A *conjunct's key* (the
//! normal form of one conjunct of a split goal, after presolve) shares
//! work between goals: two conjunctions with a conjunct in common solve
//! it once. Nothing else is keyed — in particular not the whole goal
//! after presolve, a layer that answered none of its probes on the
//! benchmark's five workloads (DESIGN.md, "Which layer answers").
//!
//! [`Engine::submit_batch`] is a short driver over typed stages on plain
//! data — `Prepared → Keyed → Planned → Discharged → Recombined` — each
//! a function a test drives alone (DESIGN.md, "Engine", has the table).
//! The first two resolve what needs no solver, and at both keying sites
//! the order is *fold → key → probe*: a query a constant already proves
//! ([`form::folds`], most of a monitor's obligations) is answered before
//! anything is normalized; the rest are keyed through one
//! [`form::Keyer`] made for the batch, whose buffers hold the key the
//! probe reads; and a portable core is built only for what is planned.
//!
//! Results stream back in deterministic submission order with identical
//! verdicts regardless of worker count, so `SERVAL_JOBS=1` and
//! `SERVAL_JOBS=32` differ only in wall time — and in certificate
//! fingerprints: sub-queries sharing an assumption set are one *group*,
//! a group is discharged as one incremental session or, when workers
//! would otherwise idle and the assumption set is empty, as several
//! sessions over contiguous chunks of its goals ([`shard_plan`]), and a
//! goal's fingerprint chains over the proof deltas of the session it
//! sat in.
//!
//! Configuration is a value: [`EngineCfg`] (and the per-query
//! [`SolverConfig`]) decide everything, their `Default`s are constants,
//! and nothing in this library reads the process environment except
//! [`EngineCfg::from_env`], which a binary's `main` calls once and hands
//! to [`install`]. An environment variable exists only for a run setting
//! a user has a reason to change; algorithm toggles (`split`, `presolve`,
//! `mode`, `portfolio`, the [`SolverConfig`] switches) are struct fields,
//! flipped by `tests/config_matrix.rs` as differential oracles.
//!
//! | Variable           | Meaning                                            |
//! |--------------------|----------------------------------------------------|
//! | `SERVAL_JOBS`      | Solver threads per batch, an integer ≥ 1 (default: available parallelism) |
//! | `SERVAL_CACHE`     | `1`/`on`/`true` → disk tier under `target/serval-cache/`; `0`/`off`/`false` → memory tier only (the default); anything else is a path → disk tier there |
//! | `SERVAL_CERT`      | `0`/`off`/`false` → disable proof certificates (on by default: every solver `Unsat` must present a DRAT-style proof accepted by the independent `serval-drat` checker before it becomes `Proved`; cached `Proved` entries carry the certificate fingerprint and uncertified disk records are ignored; cached `Refuted` hits re-evaluate their stored countermodel against the term semantics and are evicted on mismatch). |
//!
//! Any other value is an error naming the variable and what it accepts
//! (see [`edge`]).

pub mod cache;
pub mod edge;
pub mod form;
pub mod pool;
pub mod solve;

#[cfg(test)]
mod tests;

pub use form::Query;

use cache::{Cache, CachedVerdict};
use form::{prepare, prepare_session, BackMap, Keyer};
use pool::Pool;
use serval_smt::bv::SBool;
use serval_smt::model::Model;
use serval_smt::presolve;
use serval_smt::solver::{QueryStats, SolverConfig, VerifyResult};
use serval_smt::term::{Sort, TermId};
use solve::{solve_one, solve_portfolio, solve_session, PortableModel, RawOutcome, RawVerdict};
use std::collections::HashMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// How solver work is discharged for sub-queries that share an
/// assumption set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DischargeMode {
    /// One fresh solver per sub-query: the same groups, planned as one
    /// task per goal. No workload runs it; it stays as the reference
    /// path `tests/config_matrix.rs` holds sessions to.
    Fresh,
    /// Live incremental sessions: one per assumption group, or one per
    /// chunk of a group [`shard_plan`] cuts (see
    /// [`solve::solve_session`]).
    Session,
}

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub struct EngineCfg {
    /// Solver threads per batch (clamped to at least 1).
    pub jobs: usize,
    /// Race [`solve::portfolio_variants`] per query instead of solving
    /// each query once.
    pub portfolio: bool,
    /// Directory for the on-disk proved-key tier; `None` disables it.
    pub disk_cache: Option<PathBuf>,
    /// Split conjunction goals into per-conjunct sub-queries discharged
    /// in parallel (see [`form::split_goal`]). On by default: monitor
    /// refinement goals are monolithic conjunctions over the whole
    /// abstract state, and one such goal can otherwise dominate the
    /// batch's critical path.
    pub split: bool,
    /// Whether sub-queries sharing an assumption set are discharged in
    /// one live incremental session (the default, and what every
    /// workload runs) or on one fresh solver each (the differential
    /// reference). Has no effect when `portfolio` is on, since a
    /// portfolio races *independent* solvers per query.
    /// Verdicts, cache keys and cache traffic are identical in both
    /// modes — the mode only changes how much encoding and search work
    /// is re-done.
    pub mode: DischargeMode,
    /// Run the word-level presolve pipeline ([`serval_smt::presolve`])
    /// on each query before normalization and blasting: the assumption
    /// base is simplified once per distinct assumption set, every goal
    /// is rewritten against it, and a split goal's conjuncts are keyed
    /// on the simplified form. On by default.
    pub presolve: bool,
    /// Require a checker-accepted DRAT proof certificate before any
    /// solver `Unsat` becomes `Proved`, and revalidate cached verdicts
    /// at hit time (see the `SERVAL_CERT` row above). On by default.
    pub cert: bool,
}

impl Default for EngineCfg {
    fn default() -> Self {
        EngineCfg {
            jobs: default_jobs(),
            portfolio: false,
            disk_cache: None,
            split: true,
            mode: DischargeMode::Session,
            presolve: true,
            cert: true,
        }
    }
}

impl EngineCfg {
    /// [`EngineCfg::default`] overridden by `SERVAL_JOBS`,
    /// `SERVAL_CACHE` and `SERVAL_CERT`, parsed strictly
    /// ([`edge::parse`]). For `fn main`: libraries take the value, they
    /// never read the environment.
    pub fn from_env() -> Result<EngineCfg, String> {
        use edge::{at_least, parse, switch};
        let var = |name: &str| std::env::var_os(name);
        let mut cfg = EngineCfg::default();
        if let Some(n) = parse(var, "SERVAL_JOBS", edge::POSITIVE, at_least(1))? {
            cfg.jobs = n;
        }
        let disk = |v: &str| match switch(v) {
            Some(true) => Some(Some(PathBuf::from("target/serval-cache"))),
            Some(false) => Some(None),
            None if v.is_empty() => Some(None),
            None => Some(Some(PathBuf::from(v))),
        };
        if let Some(dir) = parse(var, "SERVAL_CACHE", "a switch or a path", disk)? {
            cfg.disk_cache = dir;
        }
        if let Some(on) = parse(var, "SERVAL_CERT", edge::SWITCH, switch)? {
            cfg.cert = on;
        }
        Ok(cfg)
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Session tasks a shardable group is cut into per pool worker. One:
/// every session opens with its own inprocessing round and re-encodes
/// what its goals share with their neighbours, so on the JIT sweeps two
/// tasks per worker cost 10% more CPU (and wall) than one, and the
/// halves of a sweep are even enough that a finer cut has nothing to fix.
pub const SHARDS_PER_JOB: usize = 1;

/// Fewest goals worth a session of their own: below this, the per-session
/// set-up (term rebuild, solver and checker construction, re-encoding the
/// sub-terms goals share across the cut) outweighs the overlap gained.
pub const MIN_SHARD_GOALS: usize = 16;

/// Plans how one sessioned assumption group is cut into session tasks:
/// returns the first goal of each task (always starting with 0), tasks
/// being contiguous, in goal order, and within one goal of equal size.
///
/// A group is cut only when the batch would otherwise leave workers idle
/// (`tasks`, its pool tasks with every group uncut, is below `jobs`) and
/// only when its assumption set is empty (`base_terms == 0`). Goals over
/// an empty base share no encoding but their own common sub-terms, so
/// sessions over disjoint chunks do the same work as one session over
/// all of them; a non-empty base would be asserted, blasted, simplified
/// and certified once *per chunk*, which on the refinement proofs costs
/// more CPU and memory than the overlap buys (see DESIGN.md).
pub fn shard_plan(goals: usize, base_terms: usize, tasks: usize, jobs: usize) -> Vec<usize> {
    let shards = if base_terms == 0 && tasks < jobs {
        (SHARDS_PER_JOB * jobs).min(goals / MIN_SHARD_GOALS).max(1)
    } else {
        1
    };
    (0..shards).map(|k| k * goals / shards).collect()
}

/// Every field of a [`SolverConfig`] as a hashable value (`f64` by bit
/// pattern): the half of a session group's key that keeps a query from
/// being solved under another query's configuration.
type CfgKey = (Option<u64>, u64, u64, u8, [bool; 6]);

fn cfg_key(cfg: &SolverConfig) -> CfgKey {
    let SolverConfig {
        conflict_budget,
        restart_base,
        var_decay,
        default_phase,
        restart_geometric,
        rephase,
        inprocess,
        polarity,
        session_bve,
        lrat,
    } = *cfg;
    (
        conflict_budget,
        restart_base,
        var_decay.to_bits(),
        rephase as u8,
        [default_phase, restart_geometric, inprocess, polarity, session_bve, lrat],
    )
}

/// The outcome of one discharged query, in submission order.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The label the query was submitted with.
    pub label: String,
    /// The verdict, with counterexample models translated back into the
    /// submitting thread's term context.
    pub result: VerifyResult,
    /// Solver statistics (absent for cache hits and trivial queries).
    pub stats: Option<QueryStats>,
    /// Wall time of the solve (zero for cache hits and trivial queries).
    pub wall: Duration,
    /// Whether the verdict came from the cache.
    pub cache_hit: bool,
    /// Which portfolio variant won (0 when portfolio is off, and for
    /// split queries, whose conjuncts each had a winner of their own).
    pub variant: usize,
    /// Fingerprint of the checker-accepted proof certificate backing a
    /// `Proved` verdict (for split queries: the chained fingerprint over
    /// the per-conjunct certificates). `None` when certification is off
    /// or the verdict is not `Proved`.
    pub cert: Option<u64>,
    /// Panic message if the query died on a worker, or the reason a
    /// certificate was rejected; the verdict is then `Unknown`.
    pub error: Option<String>,
}

/// The one place a [`QueryOutcome`] is built: an outcome that took no
/// solving (`cert` 0 = none). Recombination overrides the solver fields.
fn outcome(label: String, result: VerifyResult, cert: u64, cache_hit: bool) -> QueryOutcome {
    QueryOutcome {
        label,
        result,
        stats: None,
        wall: Duration::ZERO,
        cache_hit,
        variant: 0,
        cert: (cert != 0).then_some(cert),
        error: None,
    }
}

/// The outcome of a query [`form::folds`] answers, for a discharger that
/// folds before it ships (`serval-net`'s client): what this engine
/// returns for it under the default configuration — `Proved`, no stats,
/// not a cache hit, the canonical trivial certificate.
pub fn folded_outcome(label: String) -> QueryOutcome {
    outcome(label, VerifyResult::Proved, trivial_cert_hash(), false)
}

/// The outcome of a query resolved without solving — trivially, or from
/// the cache — with its verdict translated into the caller's terms.
fn resolved(label: String, verdict: CachedVerdict, backmap: &BackMap, hit: bool) -> QueryOutcome {
    match verdict {
        CachedVerdict::Proved { cert } => outcome(label, VerifyResult::Proved, cert, hit),
        CachedVerdict::Refuted(pm) => {
            let model = caller_model(&pm, backmap);
            outcome(label, VerifyResult::Counterexample(Box::new(model)), 0, hit)
        }
    }
}

/// Cap on conjuncts produced by goal splitting, to bound per-conjunct
/// preparation overhead on pathologically wide conjunctions.
const SPLIT_CAP: usize = 512;

// ---------------------------------------------------------------------------
// Stage types. `submit_batch` threads a batch through
//
//   Vec<Query> → Prepared → Keyed → Planned → Discharged → Vec<QueryOutcome>
//
// and every arrow is one function below: plain data in, plain data out,
// so a test builds any stage's input by hand and drives it alone.
// ---------------------------------------------------------------------------

/// One pool task: a worker-side solve answering one chunk of a group,
/// one outcome per goal.
type Task = Box<dyn FnOnce() -> Vec<RawOutcome> + Send + 'static>;

/// What presolve did to a live query, for finalization: shrink counts
/// onto the stats, eliminated variables back into a countermodel.
pub(crate) struct PresolveInfo {
    base: Rc<presolve::BaseSimp>,
    pre: presolve::Counts,
    post: presolve::Counts,
}

/// What finalization needs to know about a query its raw key did not
/// answer.
pub(crate) struct Fixup {
    /// The query's position in the batch.
    pub(crate) slot: usize,
    /// Its key and backmap as submitted: the outcome is stored under it
    /// once definitive, so a resubmission is answered by the raw-key
    /// probe.
    pub(crate) raw: (Vec<u8>, BackMap),
    pub(crate) presolve: Option<PresolveInfo>,
}

/// A query still to be keyed (as presolve rewrote it), with its fix-up.
pub(crate) struct Live {
    pub(crate) query: Query,
    pub(crate) fixup: Fixup,
}

/// Stage 1 output: one slot per submitted query — filled where the
/// raw-key layer answered — and the queries it did not answer.
pub(crate) struct Prepared {
    pub(crate) slots: Vec<Option<QueryOutcome>>,
    pub(crate) live: Vec<Live>,
}

/// Sub-queries sharing an assumption set and a solver configuration:
/// the unit of planning, discharged as sessions or goal by goal.
pub(crate) struct Group {
    pub(crate) asms: Vec<SBool>,
    pub(crate) goals: Vec<SBool>,
    pub(crate) cfg: SolverConfig,
}

/// One sub-query of a pending query: a conjunct of a split goal, or the
/// whole of an unsplit one.
pub(crate) enum Sub {
    /// A conjunct resolved without solving (trivial, or cached).
    Ready {
        verdict: CachedVerdict,
        backmap: BackMap,
        hit: bool,
    },
    /// Waiting on goal `goal` of group `group`. A conjunct carries the
    /// key its verdict is stored under and the backmap a countermodel
    /// stored there is numbered in; an unsplit query carries neither —
    /// its raw key is its only key.
    Wait {
        group: usize,
        goal: usize,
        conjunct: Option<(Vec<u8>, BackMap)>,
    },
}

/// A query waiting on solver work: the conjuncts of a goal that split
/// (two or more), or one [`Sub::Wait`] for a goal that did not.
pub(crate) struct Pending {
    pub(crate) slot: usize,
    pub(crate) label: String,
    pub(crate) subs: Vec<Sub>,
}

/// Stage 2 output. Groups are in order of first use and goals in order
/// of submission, so a session sees its goals in the caller's order.
pub(crate) struct Keyed {
    pub(crate) pending: Vec<Pending>,
    pub(crate) groups: Vec<Group>,
    pub(crate) fixups: Vec<Fixup>,
}

/// One pool task's share of a group: goals `start..` up to the next
/// chunk's start, answered by `task` with countermodels numbered in
/// `backmap`.
pub(crate) struct Chunk {
    pub(crate) start: usize,
    pub(crate) task: usize,
    pub(crate) backmap: BackMap,
}

/// Stage 3 output: the pool tasks, and per group the chunks they answer.
pub(crate) struct Planned {
    pub(crate) tasks: Vec<Task>,
    pub(crate) chunks: Vec<Vec<Chunk>>,
}

/// Stage 4 output: what the pool returned, by task (`Err` carries a
/// worker's panic message), beside the plan that says whose it is.
pub(crate) struct Discharged {
    pub(crate) chunks: Vec<Vec<Chunk>>,
    pub(crate) raw: Vec<Result<Vec<RawOutcome>, String>>,
}

impl Discharged {
    /// The answer to goal `goal` of group `group` and the backmap its
    /// countermodel is numbered in: a goal's chunk is the last one
    /// starting at or before it.
    fn locate(&self, group: usize, goal: usize) -> (Result<&RawOutcome, &str>, &BackMap) {
        let chunks = &self.chunks[group];
        let chunk = &chunks[chunks.partition_point(|c| c.start <= goal) - 1];
        let out = match &self.raw[chunk.task] {
            Ok(outs) => Ok(&outs[goal - chunk.start]),
            Err(msg) => Err(msg.as_str()),
        };
        (out, &chunk.backmap)
    }
}

/// The groups of a batch under construction. Sub-queries are grouped by
/// their *exact* assumption set: terms are hash-consed, so within one
/// batch structural equality of assumptions is `TermId` equality, and
/// the sorted dedup'd id vector identifies the set regardless of
/// submission order. (Alpha-equivalent-but-distinct sets stay in
/// separate groups — a missed grouping costs reuse, never correctness.)
/// The solver config is part of the key so a budgeted query is never
/// solved under another query's budget.
#[derive(Default)]
struct Groups {
    groups: Vec<Group>,
    index: HashMap<(Vec<TermId>, CfgKey), usize>,
}

impl Groups {
    /// Appends `goal` to the group of `assumptions` under `cfg`, opening
    /// it on first use; returns (group, goal position within it).
    fn enqueue(&mut self, assumptions: &[SBool], goal: SBool, cfg: SolverConfig) -> (usize, usize) {
        let mut ids: Vec<TermId> = assumptions
            .iter()
            .filter(|a| !a.is_true())
            .map(|a| a.0)
            .collect();
        ids.sort_unstable_by_key(|t| t.0);
        ids.dedup();
        let key = (ids, cfg_key(&cfg));
        let g = match self.index.get(&key) {
            Some(&g) => g,
            None => {
                let g = self.groups.len();
                self.groups.push(Group {
                    asms: key.0.iter().map(|&t| SBool(t)).collect(),
                    goals: Vec::new(),
                    cfg,
                });
                self.index.insert(key, g);
                g
            }
        };
        self.groups[g].goals.push(goal);
        (g, self.groups[g].goals.len() - 1)
    }
}

/// Prepared stage, second half — word-level presolve: simplify each live
/// query, so everything downstream — splitting, conjunct keys, grouping,
/// blasting — sees the shrunken form. The base is presolved once per
/// distinct assumption set and shared across the batch (certikos-style
/// batches phrase hundreds of queries over a handful of invariant sets),
/// and every query keeps its *whole* presolved base whatever the
/// discharge mode: grouping and conjunct keys then never depend on the
/// mode, and no verdict rests on assumptions set aside and checked
/// elsewhere.
fn presolve_live(live: &mut [Live]) {
    type BaseEntry = (Rc<presolve::BaseSimp>, presolve::GoalCache);
    let mut bases: HashMap<Vec<TermId>, BaseEntry> = HashMap::new();
    for Live { query: q, fixup } in live {
        let pre = presolve::measure(q.assumptions.iter().map(|a| a.0).chain([q.goal.0]));
        let mut key: Vec<TermId> = q.assumptions.iter().map(|a| a.0).collect();
        key.sort_unstable_by_key(|t| t.0);
        key.dedup();
        let (base, cache) = bases.entry(key).or_insert_with(|| {
            (
                Rc::new(presolve::presolve_base(&q.assumptions)),
                presolve::GoalCache::default(),
            )
        });
        q.goal = presolve::simplify_goal_cached(base, q.goal, cache);
        q.assumptions = base.roots.clone();
        let post = presolve::measure(q.assumptions.iter().map(|a| a.0).chain([q.goal.0]));
        fixup.presolve = Some(PresolveInfo {
            base: Rc::clone(base),
            pre,
            post,
        });
    }
}

/// Planned stage: turns groups into pool tasks. A sessioned group's
/// portable core is prepared here, caller-side (the caller owns the
/// terms); a worker rebuilds it once and answers every goal on one live
/// solver. It is one session unless [`shard_plan`] cuts it into several
/// over contiguous goal chunks. Fresh discharge (`sessions` off, and
/// `portfolio`, which races independent solvers) is the degenerate
/// plan: every goal starts a chunk of its own.
pub(crate) fn plan(
    groups: &[Group],
    sessions: bool,
    portfolio: bool,
    jobs: usize,
    cert: bool,
) -> Planned {
    let mut tasks: Vec<Task> = Vec::new();
    let chunks = groups
        .iter()
        .map(|g| {
            let starts: Vec<usize> = if sessions {
                shard_plan(g.goals.len(), g.asms.len(), groups.len(), jobs)
            } else {
                (0..g.goals.len()).collect()
            };
            let cfg = g.cfg;
            let chunk = |(k, &start): (usize, &usize)| {
                let end = starts.get(k + 1).copied().unwrap_or(g.goals.len());
                let (task, backmap): (Task, BackMap) = if sessions {
                    let sp = prepare_session(&g.asms, &g.goals[start..end]);
                    (
                        Box::new(move || solve_session(&sp.core, cfg, None, cert)),
                        sp.backmap,
                    )
                } else {
                    let sp = prepare(&g.asms, g.goals[start]);
                    let solve = if portfolio {
                        solve_portfolio
                    } else {
                        solve_one
                    };
                    (
                        Box::new(move || vec![solve(&sp.core, cfg, None, cert)]),
                        sp.backmap,
                    )
                };
                tasks.push(task);
                Chunk {
                    start,
                    task: tasks.len() - 1,
                    backmap,
                }
            };
            starts.iter().enumerate().map(chunk).collect()
        })
        .collect();
    Planned { tasks, chunks }
}

/// The proof-discharge engine: a thread budget and a verdict cache
/// around the staged pipeline of [`Engine::submit_batch`].
pub struct Engine {
    pool: Pool,
    cache: Cache,
    portfolio: bool,
    split: bool,
    mode: DischargeMode,
    presolve: bool,
    cert: bool,
    /// Probes a revalidated entry answered, and those nothing did (see
    /// [`Engine::probe`]).
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Queries submitted (before trivial/cache short-circuits).
    submitted: AtomicU64,
    /// Queries answered `Proved` without solving *or* cache lookup
    /// because preparation found them trivially unsatisfiable. Cache
    /// accounting must exclude these: `hits + misses = submitted -
    /// trivial` on every warm rerun.
    trivial: AtomicU64,
    /// Certificates checked and accepted.
    certs_checked: AtomicU64,
    /// Certificates rejected (verdict demoted to `Unknown`).
    certs_rejected: AtomicU64,
    /// Assumption groups discharged as live sessions.
    groups_session: AtomicU64,
    /// Assumption groups discharged on one fresh solver per goal.
    groups_fresh: AtomicU64,
}

impl Engine {
    /// Builds an engine. No thread starts here: workers are scoped to
    /// each batch ([`pool`]), so `jobs` bounds solver threads per batch.
    ///
    /// With portfolio mode on, every pool task spawns one solver thread
    /// per [`solve::portfolio_variants`] variant, so the pool is shrunk
    /// by that width (rounding up): total solver threads stay ≈ `jobs`
    /// instead of oversubscribing the CPU 3x.
    pub fn new(cfg: EngineCfg) -> Engine {
        let jobs = if cfg.portfolio {
            let width = solve::portfolio_variants(SolverConfig::default()).len();
            (cfg.jobs + width - 1) / width
        } else {
            cfg.jobs
        };
        Engine {
            pool: Pool::new(jobs),
            cache: Cache::new(cfg.disk_cache, cfg.cert),
            portfolio: cfg.portfolio,
            split: cfg.split,
            mode: cfg.mode,
            presolve: cfg.presolve,
            cert: cfg.cert,
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            trivial: AtomicU64::new(0),
            certs_checked: AtomicU64::new(0),
            certs_rejected: AtomicU64::new(0),
            groups_session: AtomicU64::new(0),
            groups_fresh: AtomicU64::new(0),
        }
    }

    /// Solver threads per batch.
    pub fn jobs(&self) -> usize {
        self.pool.jobs()
    }

    /// Whether incremental discharge sessions are in use (the mode is
    /// `Session` *and* not preempted by portfolio mode).
    pub fn incremental(&self) -> bool {
        self.mode == DischargeMode::Session && !self.portfolio
    }

    /// (session-discharged, fresh-discharged) assumption-group counts
    /// since construction: all on one side, by [`Engine::incremental`].
    pub fn mode_counts(&self) -> (u64, u64) {
        (
            self.groups_session.load(Ordering::Relaxed),
            self.groups_fresh.load(Ordering::Relaxed),
        )
    }

    /// Whether proof certificates are required.
    pub fn cert(&self) -> bool {
        self.cert
    }

    /// Cache (hits, misses) since engine construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// The engine's verdict cache (sim scenarios and tests inspect it).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// (submitted, trivially-proved) query counts since construction.
    /// Trivially-proved queries never consult the cache, so the warm-run
    /// invariant is `hits = submitted - trivial` (and `misses = 0`).
    pub fn query_counts(&self) -> (u64, u64) {
        (
            self.submitted.load(Ordering::Relaxed),
            self.trivial.load(Ordering::Relaxed),
        )
    }

    /// (accepted, rejected) certificate counts since construction.
    pub fn cert_counts(&self) -> (u64, u64) {
        (
            self.certs_checked.load(Ordering::Relaxed),
            self.certs_rejected.load(Ordering::Relaxed),
        )
    }

    /// Tallies one raw outcome's certificate fate.
    fn count_cert(&self, cert_hash: u64, cert_error: &Option<String>) {
        if cert_error.is_some() {
            self.certs_rejected.fetch_add(1, Ordering::Relaxed);
        } else if cert_hash != 0 {
            self.certs_checked.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Discharges one query (see [`Engine::submit_batch`]).
    pub fn submit(&self, query: Query) -> QueryOutcome {
        self.submit_batch(vec![query])
            .pop()
            .expect("one query in, one outcome out")
    }

    /// Discharges a batch of independent queries, returning outcomes in
    /// submission order. Must be called from the thread that owns the
    /// queries' terms; solving itself happens on the pool workers (and
    /// never mutates the caller's term context).
    ///
    /// With goal splitting on (the default), a query whose goal is a
    /// conjunction is discharged as one sub-query per conjunct — all
    /// sub-queries across the whole batch share the pool, so a single
    /// monolithic goal no longer serializes the batch's critical path.
    /// The recombined outcome is equivalent: proved iff every conjunct
    /// proved; refuted with the first refuted conjunct's countermodel
    /// (which satisfies the shared assumptions, hence refutes the
    /// conjunction). For split queries `wall` is the parallel critical
    /// path (max over conjuncts) and `stats` the sum.
    pub fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome> {
        self.submitted
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        let mut keyer = Keyer::new();
        let Prepared { mut slots, live } = self.prepare_batch(queries, &mut keyer);
        let Keyed {
            pending,
            groups,
            fixups,
        } = self.key_batch(live, &mut slots, &mut keyer);
        let sessions = self.incremental();
        let counter = if sessions {
            &self.groups_session
        } else {
            &self.groups_fresh
        };
        counter.fetch_add(groups.len() as u64, Ordering::Relaxed);
        let Planned { tasks, chunks } =
            plan(&groups, sessions, self.portfolio, self.jobs(), self.cert);
        let discharged = Discharged {
            chunks,
            raw: self.pool.run_batch(tasks),
        };
        for p in pending {
            let slot = p.slot;
            slots[slot] = Some(self.recombine(p, &discharged));
        }
        self.finalize(fixups, &mut slots);
        slots
            .into_iter()
            .map(|s| s.expect("every slot resolved"))
            .collect()
    }

    /// The one cache probe, shared by the raw-key and per-conjunct
    /// layers, and counted in [`Engine::cache_stats`] every time. A warm
    /// `Refuted` hit is a claim: under `cert` the stored countermodel is
    /// re-evaluated against the term semantics, and an entry that no
    /// longer refutes this query is removed and reported — and counted —
    /// as a miss (the caller falls through to a fresh solve).
    fn probe(
        &self,
        key: &[u8],
        backmap: &BackMap,
        assumptions: &[SBool],
        goal: SBool,
    ) -> Option<CachedVerdict> {
        let found = match self.cache.get(key) {
            Some(CachedVerdict::Refuted(pm))
                if self.cert && !countermodel_valid(&pm, backmap, assumptions, goal) =>
            {
                self.cache.remove(key);
                None
            }
            found => found,
        };
        let counter = if found.is_some() {
            &self.cache_hits
        } else {
            &self.cache_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// The certificate of a query [`form::folds`] answers: the canonical
    /// trivial one (0 with certification off).
    fn trivial_cert(&self) -> u64 {
        if self.cert {
            trivial_cert_hash()
        } else {
            0
        }
    }

    /// Resolves a query or a conjunct without solving when that is
    /// possible — fold, key, probe, in that order. One a constant
    /// already proves ([`form::folds`]) is `Proved` under the canonical
    /// trivial certificate before anything is interned or walked; any
    /// other is keyed (the key and backmap stay in `keyer` for the
    /// caller to keep on a miss) and looked up once. Returns the verdict
    /// and whether the cache gave it: `false` means folded.
    fn resolve(
        &self,
        keyer: &mut Keyer,
        assumptions: &[SBool],
        goal: SBool,
    ) -> Option<(CachedVerdict, bool)> {
        if form::folds(assumptions, goal) {
            let cert = self.trivial_cert();
            return Some((CachedVerdict::Proved { cert }, false));
        }
        keyer.key(assumptions, goal);
        let found = self.probe(keyer.bytes(), keyer.backmap(), assumptions, goal)?;
        Some((found, true))
    }

    /// Prepared stage: the raw-key layer, then presolve of what it left.
    /// Every query is folded, keyed and probed *as submitted*, whether
    /// or not presolve is on, so a resubmission resolves on one
    /// normalization + one lookup and never pays the presolve pipeline
    /// again. Queries that fold here, unkeyed, are the only ones counted
    /// trivial: one presolve later folds to a constant did consult the
    /// cache (and its raw key is recorded at finalization, so it hits
    /// warm).
    pub(crate) fn prepare_batch(&self, queries: Vec<Query>, keyer: &mut Keyer) -> Prepared {
        let mut slots: Vec<Option<QueryOutcome>> = Vec::with_capacity(queries.len());
        let mut live: Vec<Live> = Vec::new();
        for (slot, query) in queries.into_iter().enumerate() {
            if let Some((verdict, hit)) = self.resolve(keyer, &query.assumptions, query.goal) {
                self.trivial.fetch_add(!hit as u64, Ordering::Relaxed);
                slots.push(Some(resolved(query.label, verdict, keyer.backmap(), hit)));
                continue;
            }
            slots.push(None);
            live.push(Live {
                query,
                fixup: Fixup {
                    slot,
                    raw: (keyer.bytes().to_vec(), keyer.backmap().clone()),
                    presolve: None,
                },
            });
        }
        if self.presolve {
            presolve_live(&mut live);
        }
        Prepared { slots, live }
    }

    /// Keyed stage: a live query is its conjuncts. One presolve folded
    /// to a constant is answered unwalked; a goal that splits has each
    /// conjunct folded, keyed and probed, so a conjunct another goal
    /// already proved is not solved again; and every sub-query still
    /// open — an unanswered conjunct, or the whole of a goal that did
    /// not split, which gets no key here — is filed under its assumption
    /// group. Groups open and goals append in submission order.
    pub(crate) fn key_batch(
        &self,
        live: Vec<Live>,
        slots: &mut [Option<QueryOutcome>],
        keyer: &mut Keyer,
    ) -> Keyed {
        let mut groups = Groups::default();
        let mut pending: Vec<Pending> = Vec::new();
        let mut fixups: Vec<Fixup> = Vec::with_capacity(live.len());
        for Live { query: q, fixup } in live {
            let slot = fixup.slot;
            fixups.push(fixup);
            // Not counted trivial: its counted lookup was the raw-key
            // miss (see `prepare_batch`).
            if form::folds(&q.assumptions, q.goal) {
                let cert = self.trivial_cert();
                slots[slot] = Some(outcome(q.label, VerifyResult::Proved, cert, false));
                continue;
            }
            let conjuncts = if self.split {
                form::split_goal(q.goal, SPLIT_CAP)
            } else {
                vec![q.goal]
            };
            let subs = if conjuncts.len() > 1 {
                let sub = |c: SBool| match self.resolve(keyer, &q.assumptions, c) {
                    Some((verdict, hit)) => Sub::Ready {
                        // Only a countermodel is numbered in a backmap.
                        backmap: match verdict {
                            CachedVerdict::Refuted(_) => keyer.backmap().clone(),
                            CachedVerdict::Proved { .. } => BackMap::default(),
                        },
                        verdict,
                        hit,
                    },
                    None => {
                        let (group, goal) = groups.enqueue(&q.assumptions, c, q.cfg);
                        let conjunct = (keyer.bytes().to_vec(), keyer.backmap().clone());
                        Sub::Wait {
                            group,
                            goal,
                            conjunct: Some(conjunct),
                        }
                    }
                };
                conjuncts.into_iter().map(sub).collect()
            } else {
                let (group, goal) = groups.enqueue(&q.assumptions, q.goal, q.cfg);
                vec![Sub::Wait {
                    group,
                    goal,
                    conjunct: None,
                }]
            };
            pending.push(Pending {
                slot,
                label: q.label,
                subs,
            });
        }
        Keyed {
            pending,
            groups: groups.groups,
            fixups,
        }
    }

    /// Recombined stage: folds a pending query's sub-verdicts — cached,
    /// or located in what the pool returned — into its outcome. Proved
    /// iff every sub-query proved; refuted with the first refuted one's
    /// countermodel; otherwise `Unknown` (a budget, a rejected
    /// certificate, a worker panic) before `Interrupted`. Every solved
    /// sub-query's certificate is tallied, and a solved conjunct's
    /// definitive verdict is stored under the conjunct's key, on the
    /// way. A worker's countermodel is numbered in its chunk's session
    /// core; it becomes a model over the caller's terms once, and a
    /// conjunct stores that model's projection onto its own variables.
    pub(crate) fn recombine(&self, p: Pending, d: &Discharged) -> QueryOutcome {
        let Pending { label, subs, .. } = p;
        let split = subs.len() > 1;
        let mut stats: Option<QueryStats> = None;
        let mut wall = Duration::ZERO;
        let mut variant = 0;
        let mut all_hit = true;
        let mut refuted: Option<Model> = None;
        let (mut unknown, mut interrupted) = (false, false);
        let mut error: Option<String> = None;
        let mut certs: Vec<u64> = Vec::with_capacity(subs.len());
        for sub in subs {
            let (group, goal, conjunct) = match sub {
                Sub::Ready {
                    verdict,
                    backmap,
                    hit,
                } => {
                    all_hit &= hit;
                    match verdict {
                        CachedVerdict::Proved { cert } => certs.push(cert),
                        CachedVerdict::Refuted(pm) => {
                            refuted.get_or_insert_with(|| caller_model(&pm, &backmap));
                        }
                    }
                    continue;
                }
                Sub::Wait {
                    group,
                    goal,
                    conjunct,
                } => (group, goal, conjunct),
            };
            all_hit = false;
            let (out, numbering) = d.locate(group, goal);
            let out = match out {
                Ok(out) => out,
                Err(panic) => {
                    unknown = true;
                    error.get_or_insert_with(|| panic.to_string());
                    continue;
                }
            };
            let total = stats.get_or_insert_with(QueryStats::default);
            // Deepest session position among the sub-queries: a rough
            // "how incremental was this" indicator, not a sum.
            total.session_goals = total.session_goals.max(out.stats.session_goals);
            total.absorb(&out.stats);
            wall = wall.max(out.stats.wall);
            if !split {
                variant = out.variant;
            }
            self.count_cert(out.cert_hash, &out.cert_error);
            match &out.verdict {
                RawVerdict::Proved => {
                    let cert = out.cert_hash;
                    if let Some((key, _)) = conjunct {
                        self.cache.insert(key, CachedVerdict::Proved { cert });
                    }
                    certs.push(cert);
                }
                RawVerdict::Refuted(pm) => {
                    let model = caller_model(pm, numbering);
                    if let Some((key, backmap)) = conjunct {
                        let pm = portable_of_caller_model(&model, &backmap);
                        self.cache.insert(key, CachedVerdict::Refuted(pm));
                    }
                    refuted.get_or_insert(model);
                }
                RawVerdict::Unknown => {
                    unknown = true;
                    if error.is_none() {
                        error = out.cert_error.clone();
                    }
                }
                RawVerdict::Interrupted => interrupted = true,
            }
        }
        let mut cert = 0;
        let result = if let Some(model) = refuted {
            VerifyResult::Counterexample(Box::new(model))
        } else if unknown {
            VerifyResult::Unknown
        } else if interrupted {
            VerifyResult::Interrupted
        } else {
            cert = if !split {
                // The one sub-query is the whole goal, and its
                // certificate passes through unchanged.
                certs[0]
            } else if self.cert && certs.iter().all(|&h| h != 0) {
                // The chained fingerprint over the per-conjunct
                // certificates — nonzero only when every conjunct was
                // itself certified.
                combine_cert_hashes(&certs)
            } else {
                0
            };
            VerifyResult::Proved
        };
        QueryOutcome {
            stats,
            wall,
            variant,
            error,
            ..outcome(label, result, cert, all_hit)
        }
    }

    /// Last stage: presolve fix-ups, then the raw-key write side. The
    /// shrink counts go onto whatever stats the solve produced, and a
    /// countermodel of the simplified query (solver result or conjunct
    /// hit alike) has the variables presolve narrowed re-derived from
    /// their bindings, so it refutes the query as submitted. Only now
    /// are outcomes definitive, so each is recorded under the query's
    /// raw key — a resubmission's probe then resolves it before ever
    /// entering the presolve pipeline, and a stored countermodel refutes
    /// the original query as-is.
    fn finalize(&self, fixups: Vec<Fixup>, slots: &mut [Option<QueryOutcome>]) {
        for Fixup {
            slot,
            raw: (key, backmap),
            presolve,
        } in fixups
        {
            let out = slots[slot].as_mut().expect("every live slot was resolved");
            if let Some(info) = presolve {
                if let Some(stats) = &mut out.stats {
                    stats.presolve_terms_in = info.pre.terms;
                    stats.presolve_terms_out = info.post.terms;
                    stats.presolve_vars_in = info.pre.vars;
                    stats.presolve_vars_out = info.post.vars;
                }
                if let VerifyResult::Counterexample(m) = &mut out.result {
                    presolve::complete_model(m, &info.base.bindings);
                }
            }
            match &out.result {
                VerifyResult::Proved => {
                    let cert = out.cert.unwrap_or(0);
                    self.cache.insert(key, CachedVerdict::Proved { cert });
                }
                VerifyResult::Counterexample(m) => {
                    let pm = portable_of_caller_model(m, &backmap);
                    self.cache.insert(key, CachedVerdict::Refuted(pm));
                }
                VerifyResult::Unknown | VerifyResult::Interrupted => {}
            }
        }
    }
}

/// Fingerprint of the canonical two-step refutation `[Input([]),
/// Derived([])]` attached to trivially-unsat fast-path verdicts. The
/// steps are run through the real checker once per process, so even the
/// fast path's certificate is checker-backed (and its hash agrees with
/// the solver layer's own const-false short-circuit).
fn trivial_cert_hash() -> u64 {
    static HASH: OnceLock<u64> = OnceLock::new();
    *HASH.get_or_init(|| {
        let steps = serval_smt::solver::trivial_refutation();
        serval_drat::check_refutation(&steps, &[])
            .expect("the canonical trivial refutation always checks");
        serval_drat::hash_steps(&steps)
    })
}

/// Chains per-conjunct certificate fingerprints into one fingerprint for
/// the whole split goal (FNV-1a over the hashes in conjunct order; 0 is
/// reserved for "uncertified", so a zero digest is nudged to 1).
fn combine_cert_hashes(hashes: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in hashes {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// Re-evaluates a cached countermodel against the query it claims to
/// refute: every assumption must evaluate true and the goal false under
/// the stored assignment (missing variables default like the solver's
/// don't-cares). A cache entry failing this check — or not even naming
/// this query's variables — is corrupt or stale and must be evicted,
/// never returned.
pub fn countermodel_valid(
    pm: &PortableModel,
    backmap: &BackMap,
    assumptions: &[SBool],
    goal: SBool,
) -> bool {
    portable_to_model(pm, backmap)
        .is_some_and(|m| assumptions.iter().all(|a| m.eval_bool(a.0)) && !m.eval_bool(goal.0))
}

/// Projects a caller-context model onto a back map's canonical indices —
/// the inverse of [`portable_to_model`], used to record a finalized
/// countermodel under the query's *raw* (pre-presolve) cache key. Every
/// variable presolve narrowed was re-derived by finalization, so the raw back map covers everything the model needs;
/// model entries the map doesn't reach are don't-cares and stay out. UF
/// rows are sorted so the portable form (and hence the cache bytes) is
/// deterministic.
pub fn portable_of_caller_model(m: &Model, backmap: &BackMap) -> PortableModel {
    let mut pm = PortableModel::default();
    for (k, origin) in backmap.vars.iter().enumerate() {
        if let Some(&v) = m.bv_values.get(&origin.term) {
            pm.bvs.push((k as u32, v));
        }
        if let Some(&b) = m.bool_values.get(&origin.term) {
            pm.bools.push((k as u32, b));
        }
    }
    for (k, uf) in backmap.ufs.iter().enumerate() {
        if let Some(rows) = m.uf_tables.get(uf) {
            let mut rows: Vec<(Vec<u128>, u128)> =
                rows.iter().map(|(a, r)| (a.clone(), *r)).collect();
            rows.sort();
            pm.ufs.push((k as u32, rows));
        }
    }
    pm
}

/// Maps a portable model onto the submitting thread's terms, or `None`
/// if it is not a model over `backmap` at all: an index past the map, a
/// bitvector value for a boolean variable or the reverse. A model may
/// come off the wire (`serval-net`'s client), so nothing here trusts it.
pub fn portable_to_model(pm: &PortableModel, backmap: &BackMap) -> Option<Model> {
    let var = |k: u32, want_bool: bool| {
        let origin = backmap.vars.get(k as usize)?;
        (matches!(origin.sort, Sort::Bool) == want_bool).then_some(origin.term)
    };
    let mut m = Model::default();
    for &(k, v) in &pm.bvs {
        m.set_bv(var(k, false)?, v);
    }
    for &(k, b) in &pm.bools {
        m.set_bool(var(k, true)?, b);
    }
    for (k, rows) in &pm.ufs {
        m.uf_tables.insert(
            *backmap.ufs.get(*k as usize)?,
            rows.iter().cloned().collect(),
        );
    }
    Some(m)
}

/// [`portable_to_model`] for a model this engine produced or has just
/// revalidated, numbered in `backmap` by construction.
fn caller_model(pm: &PortableModel, backmap: &BackMap) -> Model {
    portable_to_model(pm, backmap).expect("an in-process model indexes its own backmap")
}

static GLOBAL: OnceLock<Mutex<Option<Arc<Engine>>>> = OnceLock::new();

fn global_slot() -> &'static Mutex<Option<Arc<Engine>>> {
    GLOBAL.get_or_init(|| Mutex::new(None))
}

/// The process-wide engine: whatever [`install`] put there, otherwise
/// one built from [`EngineCfg::default`] on first use.
pub fn handle() -> Arc<Engine> {
    let mut slot = global_slot().lock().unwrap();
    if slot.is_none() {
        *slot = Some(Arc::new(Engine::new(EngineCfg::default())));
    }
    Arc::clone(slot.as_ref().unwrap())
}

/// Replaces the process-wide engine: a binary's `main` installs
/// [`EngineCfg::from_env`], tests install the configuration under test.
/// Returns the new engine.
pub fn install(cfg: EngineCfg) -> Arc<Engine> {
    let engine = Arc::new(Engine::new(cfg));
    *global_slot().lock().unwrap() = Some(Arc::clone(&engine));
    engine
}

/// The discharge seam: anything that can resolve a batch of queries into
/// submission-order outcomes. [`Engine`] is the in-process
/// implementation; `serval-net`'s `RemoteEngine` forwards the batch to a
/// `servald` server over TCP. Consumers (`serval_core::report`) go
/// through [`discharger`], so whole workloads can be redirected over the
/// network without touching the proof code.
pub trait Discharge: Send + Sync {
    /// Discharges a batch, returning outcomes in submission order. Must
    /// be called from the thread that owns the queries' terms.
    fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome>;

    /// Discharges one query.
    fn submit(&self, query: Query) -> QueryOutcome {
        self.submit_batch(vec![query])
            .pop()
            .expect("one query in, one outcome out")
    }
}

impl Discharge for Engine {
    fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome> {
        Engine::submit_batch(self, queries)
    }

    fn submit(&self, query: Query) -> QueryOutcome {
        Engine::submit(self, query)
    }
}

static DISCHARGER: OnceLock<Mutex<Option<Arc<dyn Discharge>>>> = OnceLock::new();

fn discharger_slot() -> &'static Mutex<Option<Arc<dyn Discharge>>> {
    DISCHARGER.get_or_init(|| Mutex::new(None))
}

/// The process-wide discharger: the installed override if any, otherwise
/// the global in-process engine ([`handle`]).
pub fn discharger() -> Arc<dyn Discharge> {
    if let Some(d) = discharger_slot().lock().unwrap().as_ref() {
        return Arc::clone(d);
    }
    handle()
}

/// Routes all subsequent [`discharger`] calls to `d` (e.g. a remote
/// engine). Returns the previous override, if any.
pub fn install_discharger(d: Arc<dyn Discharge>) -> Option<Arc<dyn Discharge>> {
    discharger_slot().lock().unwrap().replace(d)
}

/// Removes the discharger override; [`discharger`] falls back to the
/// in-process engine.
pub fn clear_discharger() -> Option<Arc<dyn Discharge>> {
    discharger_slot().lock().unwrap().take()
}
