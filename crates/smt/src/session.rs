//! Incremental discharge sessions.
//!
//! A [`Session`] owns one [`Solver`] and one [`Blaster`] for its whole
//! lifetime. The shared assumption set is asserted (and blasted) exactly
//! once; each goal's *negation* is then blasted behind a fresh activation
//! literal and solved with `solve_assuming([act])`:
//!
//! ```text
//! base clauses             (asserted once, before the first goal)
//! { !act_k, ¬goal_k }      (the guard: the only clause containing act_k)
//! solve_assuming([act_k])  Unsat ⇔ base ∧ ¬goal_k unsat ⇔ goal_k proved
//! retract(act_k)           unit !act_k retires the goal
//! ```
//!
//! Soundness of clause retention: every clause the blaster emits is
//! either (a) a Tseitin gate definition — a conservative extension naming
//! a subcircuit, valid regardless of which goal introduced it (with
//! polarity-aware encoding possibly only one implication direction, which
//! is *weaker*, hence still conservative; a model over the reduced CNF
//! extends by evaluating each gate over its inputs); (b) an Ackermann congruence
//! constraint — a valid fact of QF_UFBV; or (c) a goal guard
//! `{!act_k, g_k}`, the only clause containing `act_k` at all. Since
//! `act_k` occurs in exactly one clause and only *negatively* elsewhere
//! after retraction, resolution can only ever produce learnt clauses in
//! which `act_k` occurs negatively — so asserting `!act_k` satisfies (and
//! lets the simplifier sweep) every learnt clause that depended on goal
//! `k`, and clauses *not* mentioning `act_k` are consequences of the base
//! and gate definitions alone, valid for every later goal. Therefore
//! `solve_assuming([act_k])` answers Unsat iff `base ∧ ¬goal_k` is unsat:
//! exactly the fresh-solver verdict.
//!
//! Per-goal [`QueryStats`] report the *delta* encoding work (new SAT
//! vars/clauses blasted for this goal) plus reuse counters (vars/clauses/
//! learnts carried over from earlier goals). The first goal's delta
//! includes the base-assumption encoding, so summing deltas over a
//! session gives its true total encoding cost — directly comparable to
//! the sum of fresh per-query totals.

use crate::blast::Blaster;
use crate::bv::SBool;
use crate::solver::{extract_model, CheckResult, QueryStats, SolverConfig};
use crate::term::TermId;
use serval_check::sim;
use serval_sat::{Lit, ProofLog, SolveResult, Solver, SolverStats};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// One goal's verdict and statistics within a session.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The verdict for `base ∧ ¬goal` (Unsat = goal proved, Sat = goal
    /// refuted with the live session's countermodel).
    pub result: CheckResult,
    /// Per-goal delta statistics with session reuse counters.
    pub stats: QueryStats,
    /// This goal's proof-log delta, when logging is on (see
    /// [`Session::set_proof_logging`]).
    pub proof: Option<SessionProof>,
}

/// One goal's slice of the session's proof log.
///
/// The delta is drained *before* the goal's activation literal is
/// retracted, so on `Unsat` it ends in the goal's concluding clause —
/// a derived clause over `{!act}` (or the empty clause if the base
/// itself was refuted). The retraction unit and any sweep deletions
/// land at the *start* of the next goal's delta, keeping an incremental
/// checker's database in sync across the whole session.
#[derive(Debug)]
pub struct SessionProof {
    /// Proof steps logged since the previous goal's delta was drained.
    pub steps: ProofLog,
    /// The goal's activation literal. `None` for the constant-false
    /// fast path, where the verdict needs no derived conclusion (the
    /// delta still carries any pending base-encoding steps).
    pub act: Option<Lit>,
}

/// An incremental discharge session: one live solver + blaster answering
/// a stream of goals that share an assumption set.
pub struct Session {
    cfg: SolverConfig,
    sat: Solver,
    blaster: Blaster,
    /// Assumptions queued until the first goal (`assume` before solving).
    base: Vec<SBool>,
    /// Asserted base roots, kept for countermodel extraction.
    base_roots: Vec<TermId>,
    base_asserted: bool,
    /// Term-walk memo covering the base cone; cloned and extended with
    /// each goal's cone to build that goal's decision scope.
    base_visited: HashSet<TermId>,
    /// Decision-scope mask for the base cone's SAT variables.
    base_mask: Vec<bool>,
    /// Per-goal buffers, kept across goals so a goal costs its own cone
    /// and two mask copies, not fresh session-sized allocations: the
    /// goal's decision scope, the walk memo of its cone, and a
    /// variable mask shared by the eliminability and purge computations.
    scope: Vec<bool>,
    goal_visited: HashSet<TermId>,
    var_mask: Vec<bool>,
    /// Negated-goal roots announced via [`Session::plan_goals`], waiting
    /// for the base cone to be computed before building the plan.
    planned: Option<Vec<TermId>>,
    /// The retirement plan, built lazily on the first goal.
    plan: Option<Plan>,
    goals: u64,
}

/// The session's retirement plan: which terms die after which goal.
struct Plan {
    /// The announced goal sequence; purging is disabled on the first
    /// mismatch with the goals actually solved (safe fallback — a term
    /// that was purged must never be referenced again).
    roots: Vec<TermId>,
    /// `last_use[t]` = index of the last announced goal whose cone
    /// contains `t` (base-cone terms are excluded entirely).
    last_use: HashMap<TermId, usize>,
    /// `expiry[i]` = terms whose last use is goal `i`.
    expiry: Vec<Vec<TermId>>,
    /// `mention_until[t]` = index of the last goal whose *encoding*
    /// re-mentions already-blasted term `t`'s literals: `t` is a direct
    /// child of a term first blasted at that goal (or is that goal's
    /// root, mentioned by the guard clause). After it, `t`'s variables
    /// can never appear in a newly emitted clause through the memo, so
    /// they become eliminable (see [`Session::solve_negated`]). Terms
    /// never re-mentioned (base interior gates, dead cone interiors)
    /// have no entry and are eliminable from the first goal on.
    mention_until: HashMap<TermId, usize>,
}

impl Session {
    /// Creates a session. `interrupt` is the cooperative cancellation
    /// flag, polled inside solving *and* database sweeps.
    pub fn new(cfg: SolverConfig, interrupt: Option<Arc<AtomicBool>>) -> Session {
        let mut sat = Solver::new();
        sat.set_restart_base(cfg.restart_base);
        sat.set_var_decay(cfg.var_decay);
        sat.set_default_phase(cfg.default_phase);
        sat.set_restart_geometric(cfg.restart_geometric);
        sat.set_rephase(cfg.rephase);
        // Sessions run full inprocessing, but variable elimination is
        // *plan-scoped*: an eliminability mask derived from the
        // retirement plan admits only variables no future goal's
        // encoding can mention (see `solve_negated`), so elimination
        // shrinks the shared base and retired cones without churning
        // through reintroduction. The `inprocess-skip` buggify degrades
        // inprocessing to a no-op and `session-eliminate-skip` degrades
        // it to the level-0 cleanup (the pre-elimination behaviour);
        // verdicts must not change either way (the sim sweep pins both).
        sat.set_inprocess(
            cfg.inprocess && !sim::buggify("inprocess-skip"),
            cfg.session_bve && !sim::buggify("session-eliminate-skip"),
        );
        sat.set_interrupt(interrupt);
        let mut blaster = Blaster::new();
        blaster.set_polarity(cfg.polarity);
        Session {
            cfg,
            sat,
            blaster,
            base: Vec::new(),
            base_roots: Vec::new(),
            base_asserted: false,
            base_visited: HashSet::new(),
            base_mask: Vec::new(),
            scope: Vec::new(),
            goal_visited: HashSet::new(),
            var_mask: Vec::new(),
            planned: None,
            plan: None,
            goals: 0,
        }
    }

    /// Enables or disables DRAT-style proof logging for the whole
    /// session. Must precede the first goal: the base encoding has to
    /// be in the log for any goal's certificate to mean anything.
    ///
    /// # Panics
    ///
    /// Panics if the base is already asserted.
    pub fn set_proof_logging(&mut self, on: bool) {
        assert!(
            !self.base_asserted,
            "set_proof_logging must precede the first goal"
        );
        self.sat.set_proof_logging(on);
    }

    /// Adds a shared assumption. Must be called before the first goal.
    ///
    /// # Panics
    ///
    /// Panics if a goal has already been solved: the base is asserted
    /// permanently and cannot grow afterwards without changing the
    /// meaning of earlier verdicts.
    pub fn assume(&mut self, a: SBool) {
        assert!(
            !self.base_asserted,
            "session assumptions must precede the first goal"
        );
        self.base.push(a);
    }

    /// Number of goals discharged so far.
    pub fn goals_discharged(&self) -> u64 {
        self.goals
    }

    /// Announces the full (already negated) goal sequence up front,
    /// enabling goal *retirement*: after the last goal whose cone uses a
    /// term, that term's gate clauses are purged from the solver
    /// (`Solver::purge_vars`), so a long session's clause database and
    /// watch lists hold only the base, the live suffix, and useful
    /// learnts — instead of every goal ever answered. Without a plan the
    /// session is still correct, just slower on long goal streams.
    ///
    /// The subsequent `solve_negated` calls must present exactly these
    /// goals in order; on the first mismatch the plan is discarded and
    /// purging stops. Already-purged terms *may* be re-solved: purging
    /// evicts them from the blaster's memo too, so a re-mention
    /// re-encodes them with fresh variables.
    pub fn plan_goals(&mut self, neg_goals: &[SBool]) {
        assert!(self.plan.is_none() && self.goals == 0, "plan before solving");
        self.planned = Some(neg_goals.iter().map(|g| g.0).collect());
    }

    /// Builds the retirement plan once the base cone is known.
    fn build_plan(&mut self, roots: Vec<TermId>) {
        let mut last_use: HashMap<TermId, usize> = HashMap::new();
        let mut stack: Vec<TermId> = Vec::new();
        for (i, &r) in roots.iter().enumerate() {
            // Walk goal i's cone, overwriting earlier last-use entries;
            // base-cone terms never expire.
            let mut seen: HashSet<TermId> = HashSet::new();
            if !self.base_visited.contains(&r) && seen.insert(r) {
                stack.push(r);
            }
            while let Some(t) = stack.pop() {
                last_use.insert(t, i);
                crate::with_ctx(|c| {
                    for &ch in &c.term(t).children {
                        if !self.base_visited.contains(&ch) && seen.insert(ch) {
                            stack.push(ch);
                        }
                    }
                });
            }
        }
        let mut expiry: Vec<Vec<TermId>> = vec![Vec::new(); roots.len()];
        for (&t, &i) in &last_use {
            expiry[i].push(t);
        }
        // Mention analysis for plan-scoped variable elimination: replay
        // the announced goal sequence against the blaster's memoization
        // discipline. Blasting goal i encodes exactly the terms of its
        // cone not yet encoded; the literals such a *new* term's gate
        // clauses mention belong to the term itself and to its direct
        // children — so an already-encoded term is re-mentioned at goal
        // i iff it is a direct child of a new term (or goal i's root,
        // which the guard clause mentions). Anything else — base
        // interior gates, retired cone interiors — can only come back
        // through Ackermann congruence or a polarity-bucket flush, both
        // of which enter through `add_clause` and therefore transparently
        // reintroduce any eliminated variable they touch.
        let mut mention_until: HashMap<TermId, usize> = HashMap::new();
        let mut encoded: HashSet<TermId> = self.base_visited.clone();
        let mut walk: Vec<TermId> = Vec::new();
        for (i, &r) in roots.iter().enumerate() {
            // (A mention recorded at a term's own blast goal is
            // equivalent to no entry: the eliminability mask is built
            // after that goal's encoding, so `until == i` never keeps.)
            if encoded.insert(r) {
                walk.push(r);
            } else {
                mention_until.insert(r, i);
            }
            while let Some(t) = walk.pop() {
                crate::with_ctx(|c| {
                    for &ch in &c.term(t).children {
                        if encoded.insert(ch) {
                            walk.push(ch);
                        } else {
                            mention_until.insert(ch, i);
                        }
                    }
                });
            }
        }
        self.plan = Some(Plan {
            roots,
            last_use,
            expiry,
            mention_until,
        });
    }

    /// Purges terms whose last planned use was the goal just answered.
    fn purge_expired(&mut self) {
        // Buggify: miss this purge round, as a deferred retirement
        // under memory pressure would. Purging is purely an
        // optimization (retired gate clauses are conservative
        // extensions either way), so every later goal's verdict must be
        // identical with or without it — the sim sweep pins that.
        if sim::buggify("session-skip-purge") {
            return;
        }
        let Some(plan) = &mut self.plan else { return };
        let i = (self.goals - 1) as usize;
        if i >= plan.expiry.len() {
            return;
        }
        let bucket = std::mem::take(&mut plan.expiry[i]);
        if bucket.is_empty() {
            return;
        }
        let mask = &mut self.var_mask;
        mask.clear();
        mask.resize(self.sat.num_vars(), false);
        let mut any = false;
        for t in bucket {
            // A term sharing allocated variables with a still-live term
            // (udiv/urem of one divider circuit) is re-bucketed to the
            // partner's expiry instead.
            let defer_to = self
                .blaster
                .coupled_terms(t)
                .iter()
                .filter_map(|c| plan.last_use.get(c))
                .copied()
                .max()
                .filter(|&m| m > i);
            if let Some(m) = defer_to {
                plan.expiry[m].push(t);
            } else {
                any |= self.blaster.mark_term_vars(t, mask);
                // Drop the blaster's memo entry along with the solver
                // clauses: an off-plan re-mention of this term then
                // re-encodes it with fresh variables instead of
                // referencing purged gates (see `Blaster::forget_term`).
                self.blaster.forget_term(t);
            }
        }
        if any {
            self.sat.purge_vars(mask);
        }
    }

    /// Discharges `goal`: answers for `base ∧ ¬goal`, i.e. `Unsat` means
    /// the goal is proved under the assumptions.
    pub fn solve_goal(&mut self, goal: SBool) -> SessionOutcome {
        self.solve_negated(!goal)
    }

    /// Like [`Session::solve_goal`], but takes the *already negated*
    /// goal (the engine's session cores store `¬goal` roots directly).
    pub fn solve_negated(&mut self, neg_goal: SBool) -> SessionOutcome {
        let start = Instant::now();
        let reused_vars = self.sat.num_vars();
        let reused_clauses = self.sat.num_clauses();
        let prev = self.sat.stats();
        if !self.base_asserted {
            let base = std::mem::take(&mut self.base);
            // Deliberately *not* short-circuiting a constant-false base
            // assumption: asserting it makes the solver permanently
            // unsat, which answers every goal `Unsat` — the same verdict
            // the fresh path's fast-path returns, with no special case.
            for a in base {
                self.blaster.assert_true(&mut self.sat, a.0);
                self.base_roots.push(a.0);
            }
            self.base_asserted = true;
            self.base_mask = vec![false; self.sat.num_vars()];
            self.blaster.mark_cone_vars(
                self.base_roots.iter().copied(),
                &mut self.base_visited,
                &mut self.base_mask,
            );
            if let Some(roots) = self.planned.take() {
                self.build_plan(roots);
            }
        }
        // An off-plan goal disables retirement for the rest of the
        // session; anything already purged re-encodes fresh on
        // re-mention (the purge evicted the blaster memo too).
        if let Some(plan) = &self.plan {
            if plan.roots.get(self.goals as usize) != Some(&neg_goal.0) {
                self.plan = None;
            }
        }
        self.goals += 1;

        let (result, proof) = if neg_goal.is_false() {
            // Mirrors `check_full`'s constant-false fast path. The delta
            // (base encoding, prior retraction/purge steps) still needs
            // draining so an incremental checker stays in sync; `act:
            // None` marks the verdict as needing no derived conclusion.
            (CheckResult::Unsat, self.capture_proof(None))
        } else {
            let g = self.blaster.lit_of(&mut self.sat, neg_goal.0);
            self.blaster.finalize(&mut self.sat);
            // The guard uses `g` positively; flush the gate definitions
            // that polarity-aware encoding deferred for that direction.
            self.blaster.use_lit(&mut self.sat, g);
            let act = Lit::pos(self.sat.new_var());
            // Never eliminate an activation literal: retraction must
            // keep meaning "assert the unit !act".
            self.sat.freeze_var(act.var());
            self.sat.add_clause(&[!act, g]);
            // Scope VSIDS decisions to the base + this goal's cone:
            // retired goals leave their (conservative-extension) gate
            // clauses behind, and without scoping the search wanders
            // through those dead variables — the cost grows with every
            // goal the session has already answered. Out-of-scope
            // clauses are dead guards (satisfied at level 0) or gates
            // functionally determined by their inputs (with polarity
            // encoding, possibly constrained in one direction only —
            // weaker still), so Sat over the scope extends to a total
            // model; see `Solver::set_decision_scope` for the contract.
            self.scope.clear();
            self.scope.extend_from_slice(&self.base_mask);
            self.scope.resize(self.sat.num_vars(), false);
            self.goal_visited.clear();
            self.blaster.mark_cone_vars_skipping(
                std::iter::once(neg_goal.0),
                &mut self.goal_visited,
                &self.base_visited,
                &mut self.scope,
            );
            self.sat.set_decision_scope(Some(&self.scope));
            // Plan-scoped eliminability: a variable becomes eliminable
            // once no future goal's encoding can mention its literals
            // (`mention_until` ≤ the goal just blasted). This admits the
            // base cone's interior — the big win: those gate variables
            // are eliminated once and stay eliminated for the whole
            // session — while keeping the shared surface (terms future
            // goals re-reference) intact. Frozen variables (activation
            // literals) and assumptions stay pinned regardless of the
            // mask. Without a plan the solver falls back to freezing
            // the whole decision scope, which still lets retraction-
            // retired cones be eliminated. Either way, a variable the
            // mask wrongly admits (an Ackermann congruence partner, a
            // late polarity-bucket flush) is transparently reintroduced
            // by `add_clause` — a retraction-safe round trip, never an
            // unsound verdict.
            if self.cfg.inprocess && self.cfg.session_bve {
                let i = (self.goals - 1) as usize;
                match &self.plan {
                    Some(plan) => {
                        let mask = &mut self.var_mask;
                        mask.clear();
                        mask.resize(self.sat.num_vars(), false);
                        for (&t, &until) in &plan.mention_until {
                            if until > i {
                                self.blaster.mark_term_vars(t, mask);
                            }
                        }
                        // Marked = still mentioned; eliminable = the rest.
                        for m in mask.iter_mut() {
                            *m = !*m;
                        }
                        self.sat.set_eliminable(Some(mask));
                    }
                    None => self.sat.set_eliminable(None),
                }
            }
            // The budget is per *goal*: the solver's budget check is
            // against cumulative conflicts, so rebase it each time.
            let budget = self.cfg.conflict_budget.map(|b| prev.conflicts.saturating_add(b));
            self.sat.set_conflict_budget(budget);
            let sr = self.sat.solve_assuming(&[act]);
            // Drain the proof delta *before* retraction: on Unsat the
            // delta then ends in this goal's concluding clause, and the
            // retraction unit + sweep deletions flow into the next
            // goal's delta instead.
            let proof = self.capture_proof(Some(act));
            let result = match sr {
                SolveResult::Unsat => {
                    self.sat.retract(act);
                    CheckResult::Unsat
                }
                SolveResult::Unknown => {
                    self.sat.retract(act);
                    CheckResult::Unknown
                }
                SolveResult::Interrupted => CheckResult::Interrupted,
                SolveResult::Sat => {
                    // Extract the countermodel from the live trail
                    // *before* retracting (retraction backtracks to
                    // level 0, wiping the model).
                    let roots: Vec<TermId> = self
                        .base_roots
                        .iter()
                        .copied()
                        .chain([neg_goal.0])
                        .collect();
                    let model = extract_model(&self.blaster, &self.sat, roots.into_iter());
                    self.sat.retract(act);
                    CheckResult::Sat(Box::new(model))
                }
            };
            (result, proof)
        };
        if !matches!(result, CheckResult::Interrupted) {
            self.purge_expired();
        }

        let now = self.sat.stats();
        let stats = QueryStats {
            conflicts: now.conflicts - prev.conflicts,
            decisions: now.decisions - prev.decisions,
            propagations: now.propagations - prev.propagations,
            restarts: now.restarts - prev.restarts,
            learnts: now.learnts,
            // `num_clauses` can shrink below the pre-goal count when the
            // retraction sweep deletes more than this goal added.
            clauses: self.sat.num_clauses().saturating_sub(reused_clauses),
            vars: self.sat.num_vars() - reused_vars,
            reused_clauses,
            reused_vars,
            reused_learnts: prev.learnts,
            session_goals: self.goals,
            presolve_terms_in: 0,
            presolve_terms_out: 0,
            presolve_vars_in: 0,
            presolve_vars_out: 0,
            // `eliminated_vars` is a net counter (reintroduction decrements
            // it), so the per-goal delta can be negative; clamp at zero.
            eliminated_vars: now.eliminated_vars.saturating_sub(prev.eliminated_vars),
            subsumed: 0,
            strengthened: 0,
            resolvents: now.resolvents - prev.resolvents,
            cert_steps: 0,
            cert_wall: std::time::Duration::ZERO,
            wall: start.elapsed(),
        };
        SessionOutcome { result, stats, proof }
    }

    fn capture_proof(&mut self, act: Option<Lit>) -> Option<SessionProof> {
        if !self.sat.proof_logging() {
            return None;
        }
        let mut steps = self.sat.take_proof();
        crate::solver::buggify_drop_hints(&mut steps);
        Some(SessionProof { steps, act })
    }

    /// Cumulative solver statistics for the whole session.
    pub fn solver_stats(&self) -> SolverStats {
        self.sat.stats()
    }
}
