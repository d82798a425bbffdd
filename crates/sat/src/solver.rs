//! The CDCL solver proper.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::heap::VarHeap;
use crate::luby::luby;
use crate::proof::{ProofLog, StepKind};
use crate::types::{LBool, Lit, SolveResult, Var};

/// SatELite-style inprocessing (level-0 cleanup, bounded variable
/// elimination). A child module of `solver` so it can work directly on
/// the private clause arena and watch lists.
#[path = "inprocess.rs"]
mod inprocess;

/// Reference to a clause in the solver's arena.
type CRef = u32;

/// A clause. Learnt clauses carry an LBD ("glue") score used by database
/// reduction; original clauses are never deleted.
/// Clause metadata; the literals live in the solver's flat `lit_arena`
/// at `[start, start + len)`. One shared arena (instead of a `Vec<Lit>`
/// per clause) keeps the literal blocks of clauses allocated together
/// physically adjacent, and lets `compact_deleted` defragment storage
/// after incremental sessions retire whole goals — per-clause heap
/// allocations would scatter surviving clauses across freed blocks and
/// cache-miss every propagation.
struct Clause {
    start: u32,
    len: u32,
    learnt: bool,
    lbd: u32,
    deleted: bool,
    /// The clause's id in the proof checker's database — the 0-based
    /// count of added proof steps at the moment this clause's current
    /// literal content was logged — or [`NO_PROOF_ID`] with logging
    /// off. Variable elimination adds most resolvents *without*
    /// logging them (see `inprocess.rs`): such a clause holds
    /// [`ELIDED`] plus its index into `Solver::elided`, and is logged
    /// the first time a hint names it (`Solver::hint_id`), which swaps
    /// the logged id in. Deletions of a clause the log never saw are
    /// not logged either, or the checker would reject the `Delete` of a
    /// clause it never saw. Logged clauses' ids are what LRAT-style
    /// antecedent hints are made of (see [`crate::Step::hints`]).
    proof_id: u32,
}

/// Sentinel for [`Clause::proof_id`]: logging is off.
const NO_PROOF_ID: u32 = u32::MAX;

/// Tag bit of a [`Clause::proof_id`] (and of an [`Elided`] parent)
/// naming an elided elimination resolvent: the low bits index
/// `Solver::elided`. Logged ids stay below it.
const ELIDED: u32 = 1 << 31;

/// Whether proof id `pid` names a clause the checker holds.
#[inline]
fn logged(pid: u32) -> bool {
    pid < ELIDED
}

/// An elimination resolvent the proof log has not seen yet: what it
/// takes to log it later, once, as a `Derived` step hinted by its two
/// parents. The parents were original clauses whose deletion the
/// elimination did not log, so the checker holds them for the rest of
/// the session; a parent that was itself an elided resolvent is logged
/// first, recursively through elimination cascades.
#[derive(Clone, Copy)]
struct Elided {
    /// Proof ids of the positive and the negative parent, each logged
    /// or [`ELIDED`]-tagged; once the resolvent itself is logged, its
    /// own id and [`NO_PROOF_ID`].
    parents: [u32; 2],
    /// Where the resolvent's literals start in `Solver::elided_lits`,
    /// behind their count, once saved: when the clause died as an
    /// elimination parent itself (a live clause's literals are in the
    /// arena).
    lits: u32,
}

/// The original clauses of one eliminated variable, snapshotted for
/// model reconstruction and reintroduction — flattened into one literal
/// vector with clause-end offsets, because a `Vec` per stored clause
/// would dominate the allocation cost of elimination-heavy rounds.
struct StoredClauses {
    lits: Vec<Lit>,
    ends: Vec<u32>,
}

impl StoredClauses {
    fn new() -> StoredClauses {
        StoredClauses { lits: Vec::new(), ends: Vec::new() }
    }

    fn push(&mut self, clause: &[Lit]) {
        self.lits.extend_from_slice(clause);
        self.ends.push(self.lits.len() as u32);
    }

    /// The stored clauses, in insertion order.
    fn iter(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        self.ends.iter().scan(0usize, move |start, &end| {
            let s = *start;
            *start = end as usize;
            Some(&self.lits[s..end as usize])
        })
    }

    /// Keeps only the stored clauses `keep` accepts, in order, in place.
    fn retain(&mut self, mut keep: impl FnMut(&[Lit]) -> bool) {
        let (mut from, mut to, mut kept) = (0usize, 0usize, 0usize);
        for i in 0..self.ends.len() {
            let end = self.ends[i] as usize;
            if keep(&self.lits[from..end]) {
                self.lits.copy_within(from..end, to);
                to += end - from;
                self.ends[kept] = to as u32;
                kept += 1;
            }
            from = end;
        }
        self.lits.truncate(to);
        self.ends.truncate(kept);
    }
}

/// Whether clause `c` mentions a variable `purged` marks.
#[inline]
fn mentions_purged(purged: &[bool], c: &[Lit]) -> bool {
    c.iter().any(|l| purged[l.var().index()])
}

impl Clause {
    #[inline]
    fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A watcher entry: the watched clause plus a "blocker" literal that lets
/// propagation skip the clause without touching its memory when the blocker
/// is already true.
/// One-bit-per-level Bloom filter entry used by clause minimization.
fn abstract_level(level: u32) -> u32 {
    1u32 << (level & 31)
}

#[derive(Clone, Copy)]
struct Watch {
    cref: CRef,
    blocker: Lit,
}

/// Counters exposed for the symbolic profiler and the benchmark harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnts: u64,
    /// Literals dropped from learnt clauses by recursive minimization.
    pub minimized_lits: u64,
    /// Variables removed by bounded variable elimination (net of any
    /// later reintroductions; see [`Solver::set_inprocess`]).
    pub eliminated_vars: u64,
    /// Resolvent clauses added by variable elimination.
    pub resolvents: u64,
    /// Conflicts answered with a one-level backtrack instead of the
    /// computed backjump, because the backjump would have undone more
    /// than [`CHRONO_LEVELS`] levels (see [`Solver::backtrack`]).
    pub chrono_backtracks: u64,
    /// Physical compactions of the clause arena (see
    /// [`Solver::purge_vars`]): one per inprocessing round, plus one
    /// whenever a retraction or purge sweep leaves more than half of
    /// the arena dead.
    pub compactions: u64,
    /// Eliminated variables brought back by a clause or an assumption
    /// that mentions them (see [`Solver::set_eliminable`]).
    pub reintroduced_vars: u64,
    /// Elided elimination resolvents logged to the proof because a
    /// hint named them (each at most once; see `inprocess.rs`).
    pub lazy_resolvents: u64,
}

/// Restart-boundary phase policy (see [`Solver::set_rephase`]): what to
/// do to the saved phases every [`REPHASE_PERIOD`] restarts. The
/// default is [`Rephase::Off`]; the other modes send the search to
/// different assignments, for a caller that sets them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Rephase {
    /// Keep saved phases untouched (classic phase saving).
    #[default]
    Off,
    /// Invert every saved phase, sending the search to the complement
    /// of the assignment it has been circling.
    Invert,
    /// Reset every saved phase to the solver's default phase.
    Reset,
}

/// A CDCL SAT solver. See the crate documentation for an overview.
pub struct Solver {
    clauses: Vec<Clause>,
    /// Clauses in `clauses` not marked deleted.
    live_clauses: usize,
    /// Flat literal storage for all clauses; see [`Clause`].
    lit_arena: Vec<Lit>,
    /// Arena literals no live clause covers: deleted clauses' blocks
    /// and the tails strengthening cut off. `maybe_compact` reclaims
    /// them once they outweigh the live literals.
    dead_lits: usize,
    watches: Vec<Vec<Watch>>,
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<CRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// Whether the trail may hold *out-of-order* literals: literals
    /// assigned at a level below the decision level they were placed
    /// under (by chronological backtracking, or a learnt clause asserted
    /// below the current level). While false, every literal's level is
    /// that of its trail segment, and `propagate`/`backtrack` take their
    /// cheap in-order paths. Cleared by `backtrack(0)`.
    out_of_order: bool,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// False once the clause set is unsatisfiable at level 0.
    ok: bool,
    /// Assumptions for the current `solve_assuming` call.
    assumptions: Vec<Lit>,
    /// Subset of assumptions responsible for the last `Unsat` answer.
    conflict_core: Vec<Lit>,
    /// Learnt-clause count that triggers the next database reduction.
    max_learnts: f64,
    num_learnts: usize,
    /// Optional conflict budget; `None` = unbounded.
    budget: Option<u64>,
    /// Cooperative cancellation flag, polled at restart boundaries and
    /// every [`INTERRUPT_GRANULARITY`] conflicts.
    interrupt: Option<Arc<AtomicBool>>,
    /// Luby restart unit (conflicts per base restart interval).
    restart_base: u64,
    /// VSIDS activity decay factor.
    var_decay: f64,
    /// Initial saved phase for fresh variables.
    default_phase: bool,
    /// When set, VSIDS decisions are restricted to variables whose entry
    /// is `true` (variables past the end are out of scope). Incremental
    /// sessions use this to keep the search inside the cone of the
    /// current goal, skipping retired goals' dead gate variables.
    decision_scope: Option<Vec<bool>>,
    /// When set, bounded variable elimination is restricted to variables
    /// whose entry is `true` (variables past the end are not
    /// eliminable), *replacing* the decision-scope auto-freeze.
    /// Incremental sessions compute this mask from their retirement
    /// plan: a variable is eliminable once no future goal's encoding
    /// can mention its literals (see `Session::solve_negated`).
    eliminable: Option<Vec<bool>>,
    /// DRAT-style proof log; `None` = logging off (see
    /// [`Solver::set_proof_logging`]).
    proof: Option<ProofLog>,
    /// Count of *added* steps (`Input`/`Derived`) in the proof log since
    /// logging began — the next added step's checker clause id. `Delete`
    /// steps do not count. Not reset by `take_proof`: an incremental
    /// session's checker replays every delta into one database, so ids
    /// keep counting across goals.
    proof_adds: u32,
    /// True while the current `analyze` call is collecting antecedents
    /// (proof logging on).
    collect_hints: bool,
    /// The elimination resolvents the proof log has not seen, indexed
    /// by the low bits of an [`ELIDED`] proof id (see [`Elided`]).
    elided: Vec<Elided>,
    /// Saved literals of elided resolvents that died as elimination
    /// parents, each block behind its length (as a `Lit`).
    elided_lits: Vec<Lit>,
    /// The checker id of the last empty clause logged, which hints the
    /// empty clause re-logged by every later `solve` once `ok` dropped.
    empty_id: u32,
    /// Per variable: whether its level-0 value is a unit clause the
    /// checker holds, a *fact*. The checker does no propagation of its
    /// own, so every level-0 literal a logged step leans on must be one
    /// (see [`Solver::log_fact`]).
    fact: Vec<bool>,
    /// Variable → the checker id of its fact's unit clause. A map:
    /// level-0 facts are few next to the variables.
    fact_id: HashMap<u32, u32>,
    /// Antecedents of the learnt clause currently being analyzed:
    /// `(trail position of the implied literal, reason clause)` pairs,
    /// sorted ascending before emission so the checker's hinted walk
    /// makes each antecedent unit in turn.
    hint_buf: Vec<(u32, CRef)>,
    /// The checker ids `take_hints` made of `hint_buf`.
    hint_ids: Vec<u32>,
    /// The clause the last `analyze` call learnt (asserting literal
    /// first, second-highest-level literal second).
    learnt: Vec<Lit>,
    /// Scratch owned by the solver so that adding a clause and analyzing
    /// a conflict never allocate: the clause being normalized by
    /// `add_clause`, the variables marked `seen` by an analysis, the
    /// minimization DFS stack, and the level set an LBD is counted from.
    add_buf: Vec<Lit>,
    marked: Vec<Var>,
    min_stack: Vec<Lit>,
    lbd_levels: Vec<u32>,
    /// Trail position each variable was (last) assigned at; only read
    /// for currently-assigned variables during hint collection.
    trail_pos: Vec<u32>,
    stats: SolverStats,
    /// Whether inprocessing (the level-0 cleanup) runs at solve start
    /// and restart boundaries.
    inprocess_on: bool,
    /// Whether inprocessing also runs bounded variable elimination.
    /// Incremental sessions pass `SolverConfig::session_bve` (on by
    /// default) and confine it with an eliminability mask.
    inprocess_bve: bool,
    /// Cumulative-conflict threshold for the next inprocessing round.
    inprocess_next: u64,
    /// Set when a variable-elimination pass ran to completion with the
    /// current clause set. Search never adds *original* clauses, so
    /// elimination opportunities only reappear when the embedder adds a
    /// clause (which clears this); until then later rounds skip the
    /// full-variable BVE scan and run the level-0 cleanup only.
    bve_saturated: bool,
    /// Variables that must never be eliminated (assumption variables
    /// and anything the caller pinned via [`Solver::freeze_var`]).
    frozen: Vec<bool>,
    /// Variables currently eliminated by BVE: never decided, absent
    /// from every live clause, re-added on demand (see
    /// [`Solver::reintroduce_touched`]).
    elim: Vec<bool>,
    /// Model-reconstruction stack: for each eliminated variable, in
    /// elimination order, the original clauses that mentioned it.
    elim_stack: Vec<(Var, StoredClauses)>,
    /// Variables retired by [`Solver::purge_vars`]. Their entries on
    /// `elim_stack`, and stored clauses that mention them, are dead:
    /// reconstruction and reintroduction skip them, and the next
    /// compaction drops them.
    purged: Vec<bool>,
    /// Set by `purge_vars`: `elim_stack` may hold dead entries or
    /// clauses for the next compaction to drop.
    elim_stack_stale: bool,
    /// Post-`Sat` values for eliminated variables, recomputed per solve
    /// by replaying `elim_stack` in reverse (SatELite-style model
    /// extension); consulted by [`Solver::value`] when `assign` is
    /// undefined.
    model_overlay: Vec<LBool>,
    /// Geometric restarts instead of Luby (see
    /// [`Solver::set_restart_geometric`]).
    restart_geometric: bool,
    /// Restart-boundary phase policy.
    rephase: Rephase,
}

const VAR_DECAY: f64 = 0.95;
const RESCALE_LIMIT: f64 = 1e100;
/// Initial learnt-clause budget; `reduce_db` fires when the live learnt
/// count exceeds the budget, which then grows geometrically.
const INITIAL_MAX_LEARNTS: f64 = 4096.0;
const RESTART_BASE: u64 = 128;
/// Conflicts between polls of the interrupt flag inside a restart
/// interval (restart boundaries always poll): this bounds how long a
/// flag raised mid-solve waits to stop a running search.
const INTERRUPT_GRANULARITY: u64 = 1024;
/// Clauses between polls of the interrupt flag inside database sweeps
/// (`reduce_db`, `simplify`). Sessions grow large learnt databases, and
/// a cancel must not wait out a full O(clauses) sweep.
const SWEEP_GRANULARITY: usize = 4096;
/// Conflicts between inprocessing rounds. The first round runs at solve
/// start (threshold 0); later rounds wait for this much new search so a
/// stream of easy incremental goals is not taxed with repeated sweeps.
const INPROCESS_INTERVAL: u64 = 4000;
/// Restarts between applications of the [`Rephase`] policy.
const REPHASE_PERIOD: u64 = 10;
/// Longest backjump taken as is: a conflict whose first-UIP backjump
/// would undo more levels than this backtracks one level instead and
/// asserts the learnt literal out of order at its own (lower) level
/// (chronological backtracking, Nadel & Ryvchin SAT 2018). Sessions
/// over a large shared base otherwise undo and re-decide hundreds of
/// base levels, to the same saved phases, after every conflict.
const CHRONO_LEVELS: u32 = 100;
/// Compaction waits until dead literals outnumber live ones: more than
/// `1 / COMPACT_DEAD_SHARE` of the arena. A retraction or purge sweep
/// then costs what it deletes, and each compaction's full watch-list
/// remap is paid for by at least as many deleted literals.
const COMPACT_DEAD_SHARE: usize = 2;
/// Geometric restart growth factor (per restart, starting from
/// `restart_base`), the classic MiniSat-style alternative to Luby.
const GEOMETRIC_FACTOR: f64 = 1.2;

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            live_clauses: 0,
            lit_arena: Vec::new(),
            dead_lits: 0,
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            out_of_order: false,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarHeap::default(),
            phase: Vec::new(),
            seen: Vec::new(),
            ok: true,
            assumptions: Vec::new(),
            conflict_core: Vec::new(),
            max_learnts: INITIAL_MAX_LEARNTS,
            num_learnts: 0,
            budget: None,
            interrupt: None,
            restart_base: RESTART_BASE,
            var_decay: VAR_DECAY,
            default_phase: false,
            decision_scope: None,
            eliminable: None,
            proof: None,
            proof_adds: 0,
            collect_hints: false,
            elided: Vec::new(),
            elided_lits: Vec::new(),
            empty_id: NO_PROOF_ID,
            fact: Vec::new(),
            fact_id: HashMap::new(),
            hint_buf: Vec::new(),
            hint_ids: Vec::new(),
            learnt: Vec::new(),
            add_buf: Vec::new(),
            marked: Vec::new(),
            min_stack: Vec::new(),
            lbd_levels: Vec::new(),
            trail_pos: Vec::new(),
            stats: SolverStats::default(),
            inprocess_on: true,
            inprocess_bve: true,
            inprocess_next: 0,
            bve_saturated: false,
            frozen: Vec::new(),
            elim: Vec::new(),
            elim_stack: Vec::new(),
            purged: Vec::new(),
            elim_stack_stale: false,
            model_overlay: Vec::new(),
            restart_geometric: false,
            rephase: Rephase::Off,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(self.default_phase);
        self.seen.push(false);
        self.trail_pos.push(0);
        self.fact.push(false);
        self.frozen.push(false);
        self.elim.push(false);
        self.purged.push(false);
        self.model_overlay.push(LBool::Undef);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow(self.assign.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses added (including learnt, excluding deleted).
    pub fn num_clauses(&self) -> usize {
        self.live_clauses
    }

    /// Limits the search to `conflicts` conflicts; `solve` returns
    /// [`SolveResult::Unknown`] if exhausted. Pass `None` for no limit.
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.budget = conflicts;
    }

    /// Restricts VSIDS decisions to variables whose `scope` entry is
    /// `true` (variables at or past `scope.len()` are out of scope);
    /// `None` removes the restriction. Assumptions are always honoured
    /// regardless of scope, and propagation still assigns out-of-scope
    /// variables.
    ///
    /// This is only sound when every clause over out-of-scope variables
    /// is *extendable*: satisfiable by some completion of any conflict-
    /// free assignment of the in-scope variables (e.g. Tseitin gate
    /// definitions whose outputs are functionally determined, or guard
    /// clauses already satisfied at level 0). Incremental sessions
    /// guarantee this by scoping to the cone of the live goal plus the
    /// shared base; retired goals' gates are exactly such extensions.
    /// `Sat` then means "every in-scope variable assigned, no conflict",
    /// which under that contract extends to a total model. That holds
    /// on an out-of-order trail too (see the crate docs): propagation
    /// reaches the same fixpoint whatever levels the literals carry,
    /// and chronological backtracking keeps an assigned literal only
    /// together with its reason, so a `Sat` trail is still a
    /// conflict-free assignment closed under unit propagation.
    pub fn set_decision_scope(&mut self, scope: Option<&[bool]>) {
        set_mask(&mut self.decision_scope, scope);
        // Variables popped and skipped under an earlier scope are gone
        // from the order heap; re-offer every unassigned variable the
        // new scope can decide, so it starts complete (insert is a no-op
        // for present vars). Offering the others would only make
        // `pick_branch` pop and discard them one by one.
        for i in 0..self.assign.len() {
            if self.assign[i] == LBool::Undef && self.decidable(i) {
                self.order.insert(Var(i as u32), &self.activity);
            }
        }
    }

    /// Whether VSIDS may branch on variable `v`: not eliminated (absent
    /// from every live clause, so deciding it would only pad the trail)
    /// and inside the decision scope, if one is installed.
    #[inline]
    fn decidable(&self, v: usize) -> bool {
        !self.elim[v]
            && self
                .decision_scope
                .as_ref()
                .is_none_or(|s| s.get(v).copied().unwrap_or(false))
    }

    /// Installs a cooperative cancellation flag. While set, `solve`
    /// polls it at every restart boundary (and every
    /// [`INTERRUPT_GRANULARITY`] conflicts within a restart interval)
    /// and returns [`SolveResult::Interrupted`] once the flag is true.
    /// The solver stays usable afterwards — clear the flag and call
    /// `solve` again to resume from scratch.
    pub fn set_interrupt(&mut self, flag: Option<Arc<AtomicBool>>) {
        self.interrupt = flag;
    }

    /// Overrides the Luby restart unit (default 128 conflicts).
    pub fn set_restart_base(&mut self, conflicts: u64) {
        self.restart_base = conflicts.max(1);
    }

    /// Overrides the VSIDS activity decay factor (default 0.95). Values
    /// closer to 1.0 keep old activity relevant for longer.
    pub fn set_var_decay(&mut self, decay: f64) {
        assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]");
        self.var_decay = decay;
    }

    /// Sets the initial saved phase handed to variables created *after*
    /// this call (default `false`, i.e. branch negative first).
    pub fn set_default_phase(&mut self, phase: bool) {
        self.default_phase = phase;
    }

    /// Enables or disables inprocessing (default: on, with BVE). With
    /// `bve` false the rounds run the level-0 cleanup only —
    /// equivalence-preserving, safe under any use pattern. Incremental
    /// sessions pass `SolverConfig::session_bve` (on by default) and
    /// confine elimination with [`Solver::set_eliminable`], so that
    /// variables a future goal re-mentions are never eliminated.
    pub fn set_inprocess(&mut self, enabled: bool, bve: bool) {
        self.inprocess_on = enabled;
        self.inprocess_bve = bve;
    }

    /// Pins `v` against bounded variable elimination. Assumption
    /// variables and decision-scope cones are frozen automatically at
    /// each inprocessing round; callers freeze anything else a future
    /// query will re-reference (activation literals, memoized gates).
    pub fn freeze_var(&mut self, v: Var) {
        self.frozen[v.index()] = true;
    }

    /// Restricts bounded variable elimination to variables whose `mask`
    /// entry is `true` (variables at or past `mask.len()` are not
    /// eliminable); `None` removes the restriction. While a mask is
    /// installed it *replaces* the decision-scope auto-freeze — the
    /// caller is asserting it knows exactly which variables can never
    /// be re-mentioned — so in-scope variables with a `true` entry
    /// become eliminable. [`Solver::freeze_var`] pins and assumption
    /// variables always win over the mask. Installing a mask re-opens
    /// elimination (clears the saturation latch): the new mask may
    /// permit variables the previous pass skipped.
    ///
    /// Eliminating a variable the embedder later re-mentions is safe —
    /// `add_clause`/`solve_assuming` transparently reintroduce its
    /// stored clauses first — but each such round trip is churn, so the
    /// mask should only admit variables with no planned future use.
    pub fn set_eliminable(&mut self, mask: Option<&[bool]>) {
        set_mask(&mut self.eliminable, mask);
        if self.eliminable.is_some() {
            self.bve_saturated = false;
        }
    }

    /// Switches restarts from Luby (the default) to a geometric series
    /// growing by [`GEOMETRIC_FACTOR`] per restart.
    pub fn set_restart_geometric(&mut self, on: bool) {
        self.restart_geometric = on;
    }

    /// Sets the restart-boundary phase policy (default [`Rephase::Off`]).
    pub fn set_rephase(&mut self, mode: Rephase) {
        self.rephase = mode;
    }

    #[inline]
    fn interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Solver statistics for profiling.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnts = self.num_learnts as u64;
        s
    }

    /// Enables or disables DRAT-style proof logging. Must be enabled
    /// *before* the first `add_clause` — input clauses added while
    /// logging is off are missing from the log, and certificates built
    /// from it would claim unsatisfiability of the wrong formula.
    /// Enabling clears any previous log.
    ///
    /// Every `Derived` step carries LRAT-style antecedent hints: the
    /// checker verifies each one by an indexed walk over the clauses
    /// it names, never by a search.
    pub fn set_proof_logging(&mut self, on: bool) {
        self.proof = on.then(ProofLog::new);
        self.proof_adds = 0;
        self.elided.clear();
        self.elided_lits.clear();
        self.fact.iter_mut().for_each(|f| *f = false);
        self.fact_id.clear();
        self.empty_id = NO_PROOF_ID;
    }

    /// Whether proof logging is on.
    pub fn proof_logging(&self) -> bool {
        self.proof.is_some()
    }

    /// Drains the proof steps logged since the last call (empty when
    /// logging is off). Incremental sessions drain once per goal, so the
    /// per-goal delta ends exactly at that goal's concluding clause.
    pub fn take_proof(&mut self) -> ProofLog {
        self.proof.as_mut().map(std::mem::take).unwrap_or_default()
    }

    #[inline]
    fn log(&mut self, kind: StepKind, lits: &[Lit], hints: &[u32]) {
        log_to(&mut self.proof, &mut self.proof_adds, kind, lits, hints);
    }

    /// Logs the deletion of clause `ci` (caller marks it deleted).
    /// No-op for clauses the proof log never saw (elided resolvents).
    fn log_delete(&mut self, ci: usize) {
        let c = &self.clauses[ci];
        if logged(c.proof_id) {
            let lits = &self.lit_arena[c.range()];
            log_to(&mut self.proof, &mut self.proof_adds, StepKind::Delete, lits, &[]);
        }
    }

    /// Marks clause `ci` deleted (watch lists drop it lazily; the next
    /// `compact_deleted` reclaims its storage).
    fn mark_deleted(&mut self, ci: usize) {
        let c = &mut self.clauses[ci];
        c.deleted = true;
        self.dead_lits += c.len as usize;
        if c.learnt {
            self.num_learnts -= 1;
        }
        self.live_clauses -= 1;
    }

    fn delete_clause(&mut self, ci: usize) {
        self.log_delete(ci);
        self.mark_deleted(ci);
    }

    /// The checker clause id of the most recently logged added step
    /// (`Input`/`Derived`); only meaningful right after such a `log`.
    #[inline]
    fn last_proof_id(&self) -> u32 {
        if self.proof.is_some() {
            self.proof_adds - 1
        } else {
            NO_PROOF_ID
        }
    }

    /// Assigns `l` at level 0 with no reason: the unit clause just
    /// logged (if logging is on) makes it a fact.
    fn fix_unit(&mut self, l: Lit) {
        self.enqueue_at(l, 0, None);
        if self.proof.is_some() {
            self.fact[l.var().index()] = true;
            self.fact_id.insert(l.var().0, self.last_proof_id());
        }
    }

    /// Makes `v`'s level-0 value a fact, logging it once: a `Derived`
    /// unit hinted by the reason that implied it, after the facts that
    /// reason's other literals rest on (deepest first, on a stack of
    /// its own: level-0 implication chains can be long). A unit the
    /// solver fixed is a fact already, and so is every literal whose
    /// reason `forget_level0_reasons` has cleared.
    fn log_fact(&mut self, v: Var) {
        if self.proof.is_none() || self.fact[v.index()] {
            return;
        }
        let mut stack = vec![v];
        while let Some(&u) = stack.last() {
            let Some(r) = self.reason[u.index()].filter(|_| !self.fact[u.index()]) else {
                stack.pop();
                continue;
            };
            let range = self.clauses[r as usize].range();
            let needs = self.lit_arena[range]
                .iter()
                .map(|l| l.var())
                .find(|w| !self.fact[w.index()] && *w != u);
            if let Some(w) = needs {
                stack.push(w);
                continue;
            }
            stack.pop();
            let hint = self.hint_id(r);
            let l = Lit::new(u, self.assign[u.index()] == LBool::False);
            self.log(StepKind::Derived, &[l], &[hint]);
            self.fact[u.index()] = true;
            self.fact_id.insert(u.0, self.last_proof_id());
        }
    }

    /// Clears the reasons of the level-0 trail (callers are about to
    /// delete or move clauses, and conflict analysis never reads a
    /// level-0 reason), making each literal a fact first: once its
    /// reason is gone, only its unit can name it.
    fn forget_level0_reasons(&mut self) {
        for i in 0..self.trail.len() {
            let v = self.trail[i].var();
            self.log_fact(v);
            self.reason[v.index()] = None;
        }
    }

    /// Logs the empty clause, hinted by `hint`: a clause the checker's
    /// facts falsify, or the empty clause logged before.
    fn log_empty(&mut self, hint: u32) {
        if self.proof.is_some() {
            self.log(StepKind::Derived, &[], &[hint]);
            self.empty_id = self.last_proof_id();
        }
    }

    /// Drops `ok` on a level-0 conflict and logs the empty clause,
    /// hinted by the conflict clause, once each of its (level-0 false)
    /// literals is a fact.
    fn refute(&mut self, confl: CRef) {
        self.ok = false;
        if self.proof.is_some() {
            let hint = self.hint_id(confl);
            let range = self.clauses[confl as usize].range();
            for k in range {
                self.log_fact(self.lit_arena[k].var());
            }
            self.log_empty(hint);
        }
    }

    /// Adds a clause. Returns `false` if the clause set became trivially
    /// unsatisfiable (all further solving returns `Unsat`).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        // A previous Sat answer leaves the model trail in place; clear it.
        self.backtrack(0);
        if !self.ok {
            return false;
        }
        // A fresh original clause reopens elimination opportunities.
        self.bve_saturated = false;
        // A clause over an eliminated variable reactivates it: its
        // original defining clauses come back first, so the new clause
        // constrains the variable the caller thinks it is constraining.
        self.reintroduce_touched(lits);
        if !self.ok {
            return false;
        }
        // The nested `add_clause` calls of a reintroduction have
        // returned by now, so the scratch clause is free.
        let mut c = std::mem::take(&mut self.add_buf);
        c.clear();
        c.extend_from_slice(lits);
        let ok = self.add_normalized(&mut c);
        self.add_buf = c;
        ok
    }

    /// The rest of [`Solver::add_clause`], on the solver's own copy of
    /// the clause (sorted, deduped and stripped of level-0-false
    /// literals in place).
    fn add_normalized(&mut self, c: &mut Vec<Lit>) -> bool {
        c.sort_unstable();
        c.dedup();
        // Tautologies constrain nothing and are not logged (l and !l
        // are adjacent after the sort).
        if c.windows(2).any(|w| w[1] == !w[0]) {
            return true;
        }
        // The clause as given (post sort/dedup) is part of the formula;
        // the level-0 strengthening below is re-derived by the checker
        // from the logged level-0 units.
        self.log(StepKind::Input, c, &[]);
        let input_id = self.last_proof_id();
        // Drop literals already false at level 0; detect clauses already
        // satisfied at level 0.
        if c.iter().any(|&l| self.value_lbool(l) == LBool::True) {
            return true;
        }
        let given = c.len();
        if self.proof.is_some() {
            for &l in c.iter() {
                if value_of(&self.assign, l) == LBool::False {
                    self.log_fact(l.var());
                }
            }
        }
        c.retain(|&l| value_of(&self.assign, l) == LBool::Undef);
        if c.len() != given {
            // The one antecedent is the Input: after the checker
            // negates the strengthened clause (the empty one included),
            // the input's remaining literals are exactly the level-0
            // false ones just made facts, so the input is falsified
            // outright and the hinted walk concludes in one lookup.
            if c.is_empty() {
                self.log_empty(input_id);
            } else {
                self.log(StepKind::Derived, c, &[input_id]);
            }
        }
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.fix_unit(c[0]);
                if let Some(confl) = self.propagate() {
                    self.refute(confl);
                }
                self.ok
            }
            _ => {
                let cref = self.attach_new_clause(c, false);
                // The clause's id is that of the step that introduced
                // its exact literals (the strengthened `Derived` when
                // one was logged, otherwise the `Input` itself).
                self.clauses[cref as usize].proof_id = self.last_proof_id();
                true
            }
        }
    }

    /// Retires an activation literal: hard-asserts `!act` at level 0 and
    /// sweeps the now-satisfied clauses out of the database. Used by
    /// incremental sessions — a goal guarded by `{!act, g}` is solved
    /// under the assumption `act`; once answered, retracting `act`
    /// permanently satisfies the guard clause (and any learnt clause
    /// mentioning `!act`), so later goals never revisit it.
    ///
    /// Returns `false` if the clause set became unsatisfiable (which can
    /// only happen if `act` was already forced true at level 0).
    pub fn retract(&mut self, act: Lit) -> bool {
        let ok = self.add_clause(&[!act]);
        self.simplify();
        ok
    }

    /// Removes clauses satisfied at decision level 0 from the database.
    /// Safe at any time: the solver backtracks to level 0 first (wiping
    /// any Sat model trail, and leaving only level-0 literals, in
    /// order; `retract` and `purge_vars` rely on the same). Polls the
    /// cooperative-interrupt flag every
    /// [`SWEEP_GRANULARITY`] clauses and bails early when set — an
    /// incomplete sweep leaves extra satisfied clauses behind, which is
    /// only a missed cleanup, never unsound.
    ///
    /// The sweep only marks clauses deleted; storage is reclaimed by
    /// `maybe_compact`, once more than half of the arena is dead, so a
    /// retraction that deletes a handful of guard clauses does not pay
    /// for a rebuild of every watch list.
    pub fn simplify(&mut self) {
        self.backtrack(0);
        if !self.ok {
            return;
        }
        if let Some(confl) = self.propagate() {
            self.refute(confl);
            return;
        }
        // Level-0 assignments are permanent facts: their reason clauses
        // are never needed again (conflict analysis skips level 0), so
        // clear them before deleting clauses they might point into.
        self.forget_level0_reasons();
        for ci in 0..self.clauses.len() {
            if ci % SWEEP_GRANULARITY == 0 && self.interrupted() {
                return;
            }
            if self.clauses[ci].deleted {
                continue;
            }
            let satisfied = self.lit_arena[self.clauses[ci].range()]
                .iter()
                .any(|&l| value_of(&self.assign, l) == LBool::True);
            if satisfied {
                self.delete_clause(ci);
            }
        }
        self.maybe_compact();
    }

    /// Deletes every clause mentioning a variable marked in `garbage`
    /// (variables past the end are not garbage), and retires those
    /// variables for good. Used by incremental sessions to retire a
    /// dead goal's gate clauses outright.
    ///
    /// # Soundness contract
    ///
    /// Callers may only mark variables whose remaining clauses are
    /// *conservative extensions* of the rest: Tseitin gates of retired
    /// goals (functionally determined by their inputs, referenced by no
    /// future goal) qualify — any model of the surviving clause set
    /// extends over them, so deleting the clauses (including learnts
    /// that mention the variables, which may have been derived *from*
    /// those gates) changes no future verdict. A purged variable must
    /// never be mentioned again: later models give it no value.
    ///
    /// # Eliminated variables
    ///
    /// An eliminated variable `x` (say a base gate that later
    /// countermodels read) may have stored clauses that mention a
    /// purged variable: the clauses of a goal gate that read `x`. Such
    /// clauses are dead from here on. Reconstruction and
    /// reintroduction skip them, and skip the entries of purged
    /// variables, and the next compaction drops both. This is sound.
    /// Every resolvent of `x`'s trimmed entry mentions no purged
    /// variable, so it is still live, or was shortened or satisfied at
    /// level 0, or moved into the entry of a variable
    /// eliminated later, where it survives the trim. A model of the
    /// live database therefore satisfies every such resolvent, and the
    /// usual elimination argument gives `x` a value satisfying its
    /// trimmed entry, which holds `x`'s own definition. The proof log
    /// is not touched: the checker still holds the elided parents.
    ///
    /// The sweep only marks clauses deleted; see [`Solver::simplify`]
    /// for when storage is reclaimed.
    pub fn purge_vars(&mut self, garbage: &[bool]) {
        self.backtrack(0);
        if !self.ok {
            return;
        }
        self.forget_level0_reasons();
        for ci in 0..self.clauses.len() {
            if ci % SWEEP_GRANULARITY == 0 && self.interrupted() {
                // Bail early on cancellation: an incomplete purge only
                // leaves extra (conservative) clauses behind.
                return;
            }
            if self.clauses[ci].deleted {
                continue;
            }
            let hit = self.lit_arena[self.clauses[ci].range()]
                .iter()
                .any(|l| garbage.get(l.var().index()).copied().unwrap_or(false));
            if hit {
                self.delete_clause(ci);
            }
        }
        for (p, &g) in self.purged.iter_mut().zip(garbage) {
            *p |= g;
        }
        self.elim_stack_stale |= !self.elim_stack.is_empty();
        self.maybe_compact();
    }

    /// Compacts once dead literals outweigh live ones (see
    /// [`COMPACT_DEAD_SHARE`]). Same preconditions as `compact_deleted`.
    fn maybe_compact(&mut self) {
        if self.dead_lits * COMPACT_DEAD_SHARE > self.lit_arena.len() {
            self.compact_deleted();
        }
    }

    /// Physically removes deleted clauses: live clauses (and their
    /// literal blocks in the arena) slide down into the freed slots and
    /// every watcher is remapped to the new clause index. Deleted
    /// clauses are normally dropped from watch lists lazily in
    /// propagate, but a long incremental session retires whole goals at
    /// a time — leaving their slots in place scatters the surviving
    /// clauses across dead storage, and every later propagation
    /// cache-misses on the gaps. Only callable at level 0 with all
    /// reasons cleared (backtrack(0) clears reasons for unassigned
    /// vars; the callers clear the level-0 trail's), so watch lists
    /// hold the only clause references left to remap.
    ///
    /// Each call remaps every watch list, so sweeps reach it through
    /// `maybe_compact` once half of the arena is dead; only the
    /// inprocessing rebuild, which rebuilds every watch anyway, calls
    /// it each time. After a purge it also drops the dead entries and
    /// clauses from `elim_stack` (see [`Solver::purge_vars`]), so the
    /// stack stays bounded by what is still eliminated.
    fn compact_deleted(&mut self) {
        self.stats.compactions += 1;
        let mut remap: Vec<CRef> = vec![CRef::MAX; self.clauses.len()];
        let mut next = 0usize;
        let mut arena_next = 0usize;
        for ci in 0..self.clauses.len() {
            if !self.clauses[ci].deleted {
                remap[ci] = next as CRef;
                // Clause arena starts are monotone in clause index
                // (attach order, preserved by compaction), so the
                // destination never overruns the source.
                let r = self.clauses[ci].range();
                debug_assert!(arena_next <= r.start);
                let len = r.len();
                self.lit_arena.copy_within(r, arena_next);
                self.clauses[ci].start = arena_next as u32;
                arena_next += len;
                if next != ci {
                    self.clauses.swap(next, ci);
                }
                next += 1;
            }
        }
        self.clauses.truncate(next);
        debug_assert_eq!(next, self.live_clauses);
        debug_assert_eq!(self.lit_arena.len() - arena_next, self.dead_lits);
        self.lit_arena.truncate(arena_next);
        self.dead_lits = 0;
        if std::mem::take(&mut self.elim_stack_stale) {
            let purged = &self.purged;
            self.elim_stack.retain_mut(|(v, stored)| {
                if purged[v.index()] {
                    return false;
                }
                stored.retain(|c| !mentions_purged(purged, c));
                true
            });
        }
        self.compact_elided();
        for ws in &mut self.watches {
            ws.retain_mut(|w| {
                let nc = remap[w.cref as usize];
                if nc == CRef::MAX {
                    return false;
                }
                w.cref = nc;
                true
            });
        }
    }

    /// Solves the current clause set with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_assuming(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// On `Unsat`, [`Solver::unsat_core`] returns the subset of assumptions
    /// used in the refutation.
    pub fn solve_assuming(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.conflict_core.clear();
        if !self.ok {
            // The empty clause was already derived in an earlier call;
            // re-log it, hinted by that one, so this call's proof delta
            // still ends in the concluding clause.
            self.log_empty(self.empty_id);
            return SolveResult::Unsat;
        }
        // An assumption over an eliminated variable reactivates it (its
        // defining clauses are gone from the database, so assuming it
        // would otherwise constrain nothing).
        self.reintroduce_touched(assumptions);
        if !self.ok {
            self.log_empty(self.empty_id);
            return SolveResult::Unsat;
        }
        self.assumptions.clear();
        self.assumptions.extend_from_slice(assumptions);
        let result = self.search_loop();
        if result == SolveResult::Sat {
            // Extend the model over eliminated variables before the
            // caller reads it.
            self.reconstruct_model();
        } else {
            self.backtrack(0);
        }
        // On Sat, keep the trail so `value` reads the full model; the next
        // solve call restarts from level 0 via backtrack below.
        result
    }

    /// The subset of assumption literals in the final conflict of the last
    /// `Unsat` answer from [`Solver::solve_assuming`].
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// The model value of `v` after a `Sat` answer. Eliminated
    /// variables read from the reconstruction overlay (see
    /// [`Solver::reconstruct_model`][Self::solve_assuming]).
    pub fn value(&self, v: Var) -> Option<bool> {
        let raw = match self.assign[v.index()] {
            LBool::Undef => self.model_overlay[v.index()],
            assigned => assigned,
        };
        match raw {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// The model value of a literal after a `Sat` answer.
    pub fn value_lit(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b != l.is_neg())
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    fn search_loop(&mut self) -> SolveResult {
        self.backtrack(0);
        self.maybe_inprocess();
        if !self.ok {
            return SolveResult::Unsat;
        }
        let mut restart_idx: u64 = 0;
        loop {
            if self.interrupted() {
                return SolveResult::Interrupted;
            }
            restart_idx += 1;
            let budget = if self.restart_geometric {
                // f64→u64 casts saturate, so overflow after many
                // restarts just means "no further restarts".
                (self.restart_base as f64 * GEOMETRIC_FACTOR.powi(restart_idx as i32 - 1))
                    as u64
            } else {
                luby(restart_idx) * self.restart_base
            };
            match self.search(budget) {
                Some(r) => return r,
                None => {
                    // Restart: keep learnt clauses and saved phases.
                    self.stats.restarts += 1;
                    self.backtrack(0);
                    if restart_idx % REPHASE_PERIOD == 0 {
                        self.apply_rephase();
                    }
                    self.maybe_inprocess();
                    if !self.ok {
                        return SolveResult::Unsat;
                    }
                }
            }
        }
    }

    /// Runs an inprocessing round at this level-0 boundary if enough
    /// conflicts have accumulated since the last one. On `false` return
    /// of `ok` the round itself logged the concluding empty clause.
    fn maybe_inprocess(&mut self) {
        if self.inprocess_on && self.ok && self.stats.conflicts >= self.inprocess_next {
            self.inprocess();
            self.inprocess_next = self.stats.conflicts + INPROCESS_INTERVAL;
        }
    }

    /// Applies the [`Rephase`] policy to every saved phase.
    fn apply_rephase(&mut self) {
        match self.rephase {
            Rephase::Off => {}
            Rephase::Invert => {
                for p in &mut self.phase {
                    *p = !*p;
                }
            }
            Rephase::Reset => {
                let d = self.default_phase;
                for p in &mut self.phase {
                    *p = d;
                }
            }
        }
    }

    /// Runs CDCL for up to `conflict_budget` conflicts. Returns `None` to
    /// request a restart.
    fn search(&mut self, conflict_budget: u64) -> Option<SolveResult> {
        let mut conflicts_here: u64 = 0;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if let Some(total) = self.budget {
                    if self.stats.conflicts > total {
                        return Some(SolveResult::Unknown);
                    }
                }
                if conflicts_here % INTERRUPT_GRANULARITY == 0 && self.interrupted() {
                    return Some(SolveResult::Interrupted);
                }
                // On an out-of-order trail the conflict may sit below the
                // current level: analysis runs at the clause's own level.
                let (confl_level, missed) = self.conflict_level(confl);
                if confl_level == 0 {
                    self.refute(confl);
                    return Some(SolveResult::Unsat);
                }
                if missed {
                    // One literal at its level: the clause implied that
                    // literal's negation below it, and propagation got
                    // there late. Undo the level and assert the literal
                    // from this very clause. Learning a copy instead
                    // would put a twin in the database, and the checker,
                    // deleting by literal set, may drop the id a later
                    // hint names.
                    self.backtrack(confl_level - 1);
                    self.assert_missed(confl);
                    continue;
                }
                self.backtrack(confl_level);
                let (back_level, lbd) = self.analyze(confl);
                if self.proof.is_some() {
                    self.take_hints(confl);
                    log_to(
                        &mut self.proof,
                        &mut self.proof_adds,
                        StepKind::Derived,
                        &self.learnt,
                        &self.hint_ids,
                    );
                }
                // A deep backjump would undo levels whose decisions phase
                // saving re-makes verbatim: step back one level instead;
                // the asserting literal still gets its own level, below
                // the trail's (a unit lands at level 0).
                if confl_level - back_level > CHRONO_LEVELS {
                    self.stats.chrono_backtracks += 1;
                    self.backtrack(confl_level - 1);
                } else {
                    self.backtrack(back_level);
                }
                let learnt = std::mem::take(&mut self.learnt);
                if learnt.len() == 1 {
                    self.fix_unit(learnt[0]);
                } else {
                    let cref = self.attach_new_clause(&learnt, true);
                    self.clauses[cref as usize].lbd = lbd;
                    self.clauses[cref as usize].proof_id = self.last_proof_id();
                    self.enqueue_at(learnt[0], back_level, Some(cref));
                }
                self.learnt = learnt;
                self.decay_activities();
                if self.num_learnts as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.5;
                }
                if conflicts_here >= conflict_budget {
                    return None; // restart
                }
            } else {
                // No conflict: place assumptions, then decide by VSIDS.
                match self.pick_branch() {
                    Decision::Sat => return Some(SolveResult::Sat),
                    Decision::AssumptionConflict(l) => {
                        self.analyze_final(l);
                        if self.proof.is_some() {
                            // The conflict core A ⊆ assumptions was refuted:
                            // the clause {!a : a ∈ A} is implied by the
                            // database and concludes this solve's proof,
                            // hinted by the reasons `analyze_final` walked.
                            let mut core = std::mem::take(&mut self.add_buf);
                            core.clear();
                            core.extend(self.conflict_core.iter().map(|&a| !a));
                            log_to(
                                &mut self.proof,
                                &mut self.proof_adds,
                                StepKind::Derived,
                                &core,
                                &self.hint_ids,
                            );
                            self.add_buf = core;
                        }
                        return Some(SolveResult::Unsat);
                    }
                    Decision::Took => {}
                }
            }
        }
    }

    fn pick_branch(&mut self) -> Decision {
        // First honor pending assumptions, one decision level each.
        while (self.decision_level() as usize) < self.assumptions.len() {
            let a = self.assumptions[self.decision_level() as usize];
            match self.value_lbool(a) {
                LBool::True => {
                    // Already implied: open an empty decision level so the
                    // level↔assumption-index correspondence is kept.
                    self.trail_lim.push(self.trail.len());
                }
                LBool::False => return Decision::AssumptionConflict(a),
                LBool::Undef => {
                    self.trail_lim.push(self.trail.len());
                    self.enqueue_at(a, self.decision_level(), None);
                    self.stats.decisions += 1;
                    return Decision::Took;
                }
            }
        }
        // Then VSIDS.
        while let Some(v) = self.order.pop(&self.activity) {
            // Variables eliminated, or left out of scope by a new mask,
            // while they sat in the heap are dropped here (reintroduction
            // and `set_decision_scope` re-offer them).
            if self.decidable(v.index()) && self.assign[v.index()] == LBool::Undef {
                let lit = Lit::new(v, !self.phase[v.index()]);
                self.trail_lim.push(self.trail.len());
                self.enqueue_at(lit, self.decision_level(), None);
                self.stats.decisions += 1;
                return Decision::Took;
            }
        }
        Decision::Sat
    }

    // ------------------------------------------------------------------
    // Propagation
    // ------------------------------------------------------------------

    fn propagate(&mut self) -> Option<CRef> {
        let from = self.qhead;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Take the watch list for !p; clauses watching !p must find a
            // new watch, propagate, or conflict.
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            let mut conflict: Option<CRef> = None;
            'outer: while i < ws.len() {
                let w = ws[i];
                if self.value_lbool(w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let cref = w.cref;
                let clause = &self.clauses[cref as usize];
                if clause.deleted {
                    ws.swap_remove(i);
                    continue;
                }
                let lits = &mut self.lit_arena[clause.range()];
                // Normalize: watched literals are lits[0] and lits[1]; put
                // the false literal in position 1.
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                if first != w.blocker
                    && value_of(&self.assign, first) == LBool::True
                {
                    ws[i] = Watch {
                        cref,
                        blocker: first,
                    };
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    let l = lits[k];
                    if value_of(&self.assign, l) != LBool::False {
                        lits.swap(1, k);
                        let new_watch = lits[1];
                        self.watches[new_watch.index()].push(Watch {
                            cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'outer;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[i] = Watch {
                    cref,
                    blocker: first,
                };
                i += 1;
                if value_of(&self.assign, first) == LBool::False {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                }
                // In order, every false literal sits at or below the
                // current level and `false_lit` at it. Out of order, the
                // implied literal belongs at the highest level among
                // the others (all false), so `backtrack` keeps it
                // exactly as long as its reason.
                let level = if self.out_of_order {
                    lits[1..]
                        .iter()
                        .map(|l| self.level[l.var().index()])
                        .max()
                        .unwrap_or(0)
                } else {
                    self.decision_level()
                };
                self.enqueue_at(first, level, Some(cref));
            }
            // Merge back: propagation may have appended new watches for
            // false_lit (self-watch is impossible, but keep it robust).
            let appended = std::mem::replace(&mut self.watches[false_lit.index()], ws);
            self.watches[false_lit.index()].extend(appended);
            if conflict.is_some() {
                return conflict;
            }
        }
        self.debug_check_trail(from);
        None
    }

    fn value_lbool(&self, l: Lit) -> LBool {
        value_of(&self.assign, l)
    }

    /// Assigns `l` at `level` (at most the decision level; below it the
    /// trail becomes out of order) with reason `from`.
    fn enqueue_at(&mut self, l: Lit, level: u32, from: Option<CRef>) {
        debug_assert_eq!(self.value_lbool(l), LBool::Undef);
        debug_assert!(level <= self.decision_level());
        self.out_of_order |= level < self.decision_level();
        let v = l.var();
        self.assign[v.index()] = if l.is_neg() {
            LBool::False
        } else {
            LBool::True
        };
        self.level[v.index()] = level;
        self.reason[v.index()] = from;
        self.phase[v.index()] = !l.is_neg();
        self.trail_pos[v.index()] = self.trail.len() as u32;
        self.trail.push(l);
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Undoes every assignment above level `target`. Literals of level
    /// at most `target` placed after its segment (out-of-order ones) stay
    /// assigned: they slide down, in trail order, to just past the kept
    /// prefix, `trail_pos` following them (LRAT hints sort by it), and
    /// are propagated again — whatever justified their watches' state
    /// above `target` is gone. In place: no allocation.
    fn backtrack(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let keep = self.trail_lim[target as usize];
        for i in (keep..self.trail.len()).rev() {
            let v = self.trail[i].var();
            if self.level[v.index()] > target {
                self.assign[v.index()] = LBool::Undef;
                self.reason[v.index()] = None;
                if self.decidable(v.index()) {
                    self.order.insert(v, &self.activity);
                }
            }
        }
        let mut kept = keep;
        if self.out_of_order {
            for i in keep..self.trail.len() {
                let l = self.trail[i];
                if self.assign[l.var().index()] != LBool::Undef {
                    self.trail[kept] = l;
                    self.trail_pos[l.var().index()] = kept as u32;
                    kept += 1;
                }
            }
        }
        self.trail.truncate(kept);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.qhead.min(keep);
        // Level 0 is one segment: nothing on it can be out of order.
        self.out_of_order &= target > 0;
        self.debug_check_trail(keep);
    }

    /// The level a conflict is analyzed at — the highest level among the
    /// clause's (all false) literals — and whether exactly one literal
    /// sits there. On an in-order trail: the decision level, and never
    /// one (both watches were assigned at it).
    fn conflict_level(&self, confl: CRef) -> (u32, bool) {
        if !self.out_of_order {
            return (self.decision_level(), false);
        }
        let (mut level, mut at_level) = (0, 0);
        for l in &self.lit_arena[self.clauses[confl as usize].range()] {
            let lv = self.level[l.var().index()];
            if lv > level {
                (level, at_level) = (lv, 1);
            } else if lv == level {
                at_level += 1;
            }
        }
        (level, at_level == 1)
    }

    /// Asserts the one unassigned literal of `confl` (after `search`
    /// undid the level of its single top-level literal) with `confl` as
    /// its reason, at the highest level among the others. The clause is
    /// rewatched on that literal and one of that level, as propagation
    /// would have left it: re-propagating the kept literals need not
    /// revisit it, since its other watch may sit below the kept suffix.
    fn assert_missed(&mut self, confl: CRef) {
        let lits = &mut self.lit_arena[self.clauses[confl as usize].range()];
        let old = [lits[0], lits[1]];
        let free = lits.iter().position(|&l| value_of(&self.assign, l) == LBool::Undef);
        lits.swap(0, free.expect("the undone literal is unassigned"));
        let (top, level) = (1..lits.len())
            .map(|k| (k, self.level[lits[k].var().index()]))
            .max_by_key(|&(_, lv)| lv)
            .expect("a conflict clause has two literals");
        lits.swap(1, top);
        let new = [lits[0], lits[1]];
        for l in old.into_iter().filter(|l| !new.contains(l)) {
            self.watches[l.index()].retain(|w| w.cref != confl);
        }
        for (i, l) in new.into_iter().enumerate().filter(|(_, l)| !old.contains(l)) {
            self.watches[l.index()].push(Watch { cref: confl, blocker: new[1 - i] });
        }
        self.enqueue_at(new[0], level, Some(confl));
    }

    /// Debug builds: the trail invariants chronological backtracking
    /// rests on, over the positions from `from` on (earlier positions
    /// were checked when placed, and neither `backtrack` nor
    /// `propagate` moves them). Each assigned literal sits at its
    /// `trail_pos`, at a level no higher than the segment it was placed
    /// in (so every `trail_lim` prefix holds no literal above its
    /// level), and its reason implies it from literals that sit earlier
    /// on the trail at no higher level. Skipped while the trail is in
    /// order, where all of it holds by construction.
    fn debug_check_trail(&self, from: usize) {
        if !cfg!(debug_assertions) || !self.out_of_order {
            return;
        }
        for i in from..self.trail.len() {
            let l = self.trail[i];
            let v = l.var().index();
            let segment = self.trail_lim.partition_point(|&lim| lim <= i) as u32;
            assert_eq!(self.value_lbool(l), LBool::True, "trail literal not true");
            assert_eq!(self.trail_pos[v] as usize, i, "stale trail_pos");
            assert!(self.level[v] <= segment, "literal above its segment's level");
            if let Some(cref) = self.reason[v] {
                let lits = &self.lit_arena[self.clauses[cref as usize].range()];
                assert_eq!(lits[0], l, "reason does not imply its literal first");
                for &q in &lits[1..] {
                    let qv = q.var().index();
                    assert_eq!(self.value_lbool(q), LBool::False, "reason literal not false");
                    assert!((self.trail_pos[qv] as usize) < i, "reason literal placed later");
                    assert!(self.level[qv] <= self.level[v], "reason literal above the level");
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Conflict analysis
    // ------------------------------------------------------------------

    /// First-UIP conflict analysis. Leaves the learnt clause in
    /// `self.learnt` (asserting literal first, second-highest-level
    /// literal second) and returns the backtrack level and the clause
    /// LBD. Reason clauses are read in place, by arena index.
    ///
    /// Runs at the conflict clause's level (`search` backtracks there
    /// first). On an out-of-order trail, literals of that level need not
    /// be contiguous, and seen literals of lower levels may sit between
    /// them, so the trail walk skips any seen literal below the level.
    /// Reverse trail order is still a reverse implication order: every
    /// reason's literals sit earlier on the trail.
    fn analyze(&mut self, confl: CRef) -> (u32, u32) {
        let mut learnt = std::mem::take(&mut self.learnt);
        let mut marked = std::mem::take(&mut self.marked);
        learnt.clear();
        learnt.push(Lit(0)); // slot 0 for the UIP
        marked.clear();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        let mut cref = confl;
        // Collect the resolution antecedents (every reason clause this
        // analysis consults) for the learnt clause's LRAT hint; see
        // `take_hints`.
        self.collect_hints = self.proof.is_some();
        self.hint_buf.clear();
        loop {
            let range = self.clauses[cref as usize].range();
            // A reason clause's first literal is the one it implied.
            let skip = usize::from(p.is_some());
            for k in range.start + skip..range.end {
                let q = self.lit_arena[k];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    marked.push(v);
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                } else if self.collect_hints && self.level[v.index()] == 0 {
                    // Dropped from the learnt clause: the walk leans on
                    // its fact instead.
                    self.log_fact(v);
                }
            }
            // Walk the trail backwards to the next seen literal at the
            // current decision level.
            loop {
                idx -= 1;
                let v = self.trail[idx].var().index();
                if self.seen[v] && self.level[v] == self.decision_level() {
                    break;
                }
            }
            let lit = self.trail[idx];
            self.seen[lit.var().index()] = false;
            counter -= 1;
            p = Some(lit);
            if counter == 0 {
                break;
            }
            cref = self.reason[lit.var().index()]
                .expect("non-decision literal at conflict level must have a reason");
            if self.collect_hints {
                self.hint_buf.push((idx as u32, cref));
            }
        }
        learnt[0] = !p.expect("the loop ran once");

        // Clause minimization: drop literals whose negations are implied
        // by the rest of the clause, following reason chains recursively
        // (MiniSat's ccmin-mode=2). Removed literals stay marked, so a
        // later literal may be subsumed through an earlier removed one.
        let abstract_levels = learnt[1..]
            .iter()
            .fold(0u32, |acc, l| acc | abstract_level(self.level[l.var().index()]));
        let mut kept = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.reason[l.var().index()].is_some()
                && self.lit_redundant(l, abstract_levels, &mut marked)
            {
                self.stats.minimized_lits += 1;
            } else {
                learnt[kept] = l;
                kept += 1;
            }
        }
        learnt.truncate(kept);

        // Compute backtrack level (second-highest level in the clause) and
        // move that literal to position 1 for watching.
        let mut back_level = 0;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            back_level = self.level[learnt[1].var().index()];
        }

        // LBD: number of distinct decision levels in the clause.
        let levels = &mut self.lbd_levels;
        levels.clear();
        levels.extend(learnt.iter().map(|l| self.level[l.var().index()]));
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;

        // Clear every mark set during this analysis, including literals
        // dropped by minimization (a stale mark corrupts later analyses).
        for v in &marked {
            self.seen[v.index()] = false;
        }
        self.learnt = learnt;
        self.marked = marked;
        (back_level, lbd)
    }

    /// Converts the antecedents collected by the last `analyze` call
    /// into an LRAT hint in `self.hint_ids`: checker clause ids ordered
    /// so that, with the learnt clause's negation asserted, each
    /// antecedent in turn is unit (ascending trail position of its
    /// implied literal) and the conflict clause — last — is falsified.
    /// An antecedent the log has not seen (an elided elimination
    /// resolvent) is logged first, once (see [`Solver::hint_id`]).
    fn take_hints(&mut self, confl: CRef) {
        self.collect_hints = false;
        self.hint_buf.sort_unstable_by_key(|&(pos, _)| pos);
        self.hint_ids_of_buf();
        let id = self.hint_id(confl);
        self.hint_ids.push(id);
    }

    /// Replaces `self.hint_ids` with the checker ids of the clauses in
    /// `self.hint_buf`, in its order.
    fn hint_ids_of_buf(&mut self) {
        self.hint_ids.clear();
        for i in 0..self.hint_buf.len() {
            let id = self.hint_id(self.hint_buf[i].1);
            self.hint_ids.push(id);
        }
    }

    /// Whether learnt-clause literal `l` is redundant: following reason
    /// chains, every path from `l` bottoms out in literals already in the
    /// clause (seen) or fixed at level 0. Iterative DFS over the
    /// implication graph; `abstract_levels` is a 32-bit Bloom filter of
    /// the clause's decision levels — a reason literal from a level with
    /// no clause literal can never be subsumed, so the walk fails fast.
    ///
    /// Literals proven redundant along the way are marked `seen` (and
    /// recorded in `marked` for end-of-analysis cleanup) so overlapping
    /// chains are walked once; on failure the marks added by this call
    /// are rolled back.
    ///
    /// Reads levels and reasons only, never trail order, so an
    /// out-of-order trail changes nothing: an implied literal's level is
    /// the highest of its reason's, so a chain never leaves the levels
    /// it started in for a higher one, and the level filter stays
    /// exact. Hint positions are `trail_pos`, current after compaction.
    fn lit_redundant(&mut self, l: Lit, abstract_levels: u32, marked: &mut Vec<Var>) -> bool {
        let top = marked.len();
        let hint_top = self.hint_buf.len();
        let mut stack = std::mem::take(&mut self.min_stack);
        stack.clear();
        stack.push(l);
        let mut redundant = true;
        'walk: while let Some(p) = stack.pop() {
            let cref = self.reason[p.var().index()]
                .expect("only literals with reasons are pushed");
            if self.collect_hints {
                // The dropped literal's implication chain is part of the
                // learnt clause's derivation: the checker's hinted walk
                // re-propagates it (recorded only if this call succeeds).
                self.hint_buf.push((self.trail_pos[p.var().index()], cref));
            }
            for k in self.clauses[cref as usize].range() {
                let q = self.lit_arena[k];
                let v = q.var();
                if v == p.var() || self.seen[v.index()] {
                    continue;
                }
                if self.level[v.index()] == 0 {
                    if self.collect_hints {
                        self.log_fact(v);
                    }
                    continue;
                }
                if self.reason[v.index()].is_none()
                    || abstract_level(self.level[v.index()]) & abstract_levels == 0
                {
                    for &u in &marked[top..] {
                        self.seen[u.index()] = false;
                    }
                    marked.truncate(top);
                    self.hint_buf.truncate(hint_top);
                    redundant = false;
                    break 'walk;
                }
                self.seen[v.index()] = true;
                marked.push(v);
                stack.push(q);
            }
        }
        self.min_stack = stack;
        redundant
    }

    /// Builds the unsat core when assumption `failed` is falsified by the
    /// earlier assumptions: traces reasons back to assumption decisions.
    ///
    /// Out of order, the reverse trail walk is still a reverse
    /// implication order, and a level-0 literal can sit past
    /// `trail_lim[0]` (a learnt unit asserted mid-search): it is never
    /// marked, and a `failed` falsified at level 0 needs no other
    /// assumption, whatever the decision level.
    ///
    /// With logging on, leaves the core clause's LRAT hint in
    /// `self.hint_ids`: the reasons walked, in trail order, so that
    /// with the core's assumptions asserted each is unit in turn and
    /// the reason of `!failed` — last — is falsified. A `failed`
    /// falsified at level 0 is hinted by its fact's unit clause.
    fn analyze_final(&mut self, failed: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(failed);
        self.hint_buf.clear();
        let logging = self.proof.is_some();
        if self.level[failed.var().index()] == 0 {
            self.hint_ids.clear();
            if logging {
                self.log_fact(failed.var());
                self.hint_ids.extend(self.fact_id.get(&failed.var().0));
            }
            return;
        }
        let mut marked = std::mem::take(&mut self.marked);
        marked.clear();
        self.seen[failed.var().index()] = true;
        marked.push(failed.var());
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let t = self.trail[i];
            let v = t.var();
            if !self.seen[v.index()] {
                continue;
            }
            match self.reason[v.index()] {
                Some(cref) => {
                    if logging {
                        self.hint_buf.push((i as u32, cref));
                    }
                    let range = self.clauses[cref as usize].range();
                    for k in range {
                        let q = self.lit_arena[k];
                        let qv = q.var();
                        if qv == v || self.seen[qv.index()] {
                            continue;
                        }
                        if self.level[qv.index()] > 0 {
                            self.seen[qv.index()] = true;
                            marked.push(qv);
                        } else if logging {
                            self.log_fact(qv);
                        }
                    }
                }
                None => {
                    // A decision below the assumption levels is always an
                    // assumption literal.
                    self.conflict_core.push(t);
                }
            }
        }
        for v in &marked {
            self.seen[v.index()] = false;
        }
        self.marked = marked;
        self.conflict_core.sort_unstable();
        self.conflict_core.dedup();
        // Collected walking the trail backwards: reverse into trail order.
        self.hint_buf.reverse();
        self.hint_ids_of_buf();
    }

    // ------------------------------------------------------------------
    // Activities and clause database
    // ------------------------------------------------------------------

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a /= RESCALE_LIMIT;
            }
            self.var_inc /= RESCALE_LIMIT;
        }
        self.order.decrease_key(v, &self.activity);
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.var_decay;
    }

    fn attach_new_clause(&mut self, lits: &[Lit], learnt: bool) -> CRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as CRef;
        let w0 = lits[0];
        let w1 = lits[1];
        self.watches[w0.index()].push(Watch { cref, blocker: w1 });
        self.watches[w1.index()].push(Watch { cref, blocker: w0 });
        if learnt {
            self.num_learnts += 1;
        }
        self.live_clauses += 1;
        let start = self.lit_arena.len() as u32;
        self.lit_arena.extend_from_slice(lits);
        self.clauses.push(Clause {
            start,
            len: lits.len() as u32,
            learnt,
            lbd: 0,
            deleted: false,
            proof_id: NO_PROOF_ID,
        });
        cref
    }

    /// Deletes roughly half of the learnt clauses, preferring high LBD.
    /// Clauses that are the reason for a current assignment are kept.
    ///
    /// Activation-literal aware: learnt clauses already satisfied at
    /// level 0 (typically via a retracted activation literal, see
    /// [`Solver::retract`]) are dead weight from retired goals — they
    /// are deleted outright, before and not counted against the LBD
    /// halving, so retired-goal garbage cannot crowd out live learnts.
    ///
    /// Polls the cooperative-interrupt flag every [`SWEEP_GRANULARITY`]
    /// clauses; an interrupted sweep just reduces less.
    ///
    /// The locked test reads `reason` per variable, not the trail: an
    /// out-of-order literal kept by `backtrack` keeps its reason, and an
    /// unassigned variable has none. The dead test reads levels.
    fn reduce_db(&mut self) {
        let locked: Vec<bool> = {
            let mut locked = vec![false; self.clauses.len()];
            for v in 0..self.assign.len() {
                if let Some(cref) = self.reason[v] {
                    locked[cref as usize] = true;
                }
            }
            locked
        };
        let mut learnt_refs: Vec<CRef> = Vec::new();
        for c in 0..self.clauses.len() {
            if c % SWEEP_GRANULARITY == 0 && self.interrupted() {
                return;
            }
            let cl = &self.clauses[c];
            if !cl.learnt || cl.deleted || locked[c] {
                continue;
            }
            let dead = self.lit_arena[cl.range()].iter().any(|&l| {
                value_of(&self.assign, l) == LBool::True && self.level[l.var().index()] == 0
            });
            if dead {
                self.delete_clause(c);
            } else if cl.len > 2 {
                learnt_refs.push(c as CRef);
            }
        }
        learnt_refs.sort_by_key(|&c| std::cmp::Reverse(self.clauses[c as usize].lbd));
        let to_delete = learnt_refs.len() / 2;
        for &c in &learnt_refs[..to_delete] {
            self.delete_clause(c as usize);
        }
        // Deleted clauses are dropped from watch lists lazily in propagate.
    }
}

#[cfg(test)]
impl Solver {
    /// Every variable the elimination stack mentions: each entry's own
    /// variable and those of its stored clauses.
    pub(crate) fn elim_stack_mentions(&self) -> Vec<Var> {
        let mut vs: Vec<Var> = self
            .elim_stack
            .iter()
            .flat_map(|(v, stored)| std::iter::once(*v).chain(stored.lits.iter().map(|l| l.var())))
            .collect();
        vs.sort_unstable_by_key(|v| v.index());
        vs.dedup();
        vs
    }

    /// Compacts the clause arena now, whatever its dead share.
    pub(crate) fn compact_now(&mut self) {
        self.backtrack(0);
        self.forget_level0_reasons();
        self.compact_deleted();
    }
}

/// [`Solver::log`] over the two fields it touches, for steps whose
/// literals are borrowed from another field of the solver.
#[inline]
fn log_to(proof: &mut Option<ProofLog>, adds: &mut u32, kind: StepKind, lits: &[Lit], hints: &[u32]) {
    if let Some(p) = proof {
        if kind != StepKind::Delete {
            // A logged id must stay clear of the `ELIDED` tag bit.
            assert!(*adds < ELIDED, "proof ids outgrew the ELIDED tag");
            *adds += 1;
        }
        p.push(kind, lits, hints);
    }
}

/// Copies `src` into `dst`, keeping `dst`'s buffer: sessions install a
/// fresh mask per goal.
fn set_mask(dst: &mut Option<Vec<bool>>, src: Option<&[bool]>) {
    match src {
        Some(src) => {
            let buf = dst.get_or_insert_with(Vec::new);
            buf.clear();
            buf.extend_from_slice(src);
        }
        None => *dst = None,
    }
}

#[inline]
fn value_of(assign: &[LBool], l: Lit) -> LBool {
    assign[l.var().index()].under_sign(l.is_neg())
}

enum Decision {
    Took,
    Sat,
    AssumptionConflict(Lit),
}
