//! SatELite-style inprocessing: level-0 cleanup and bounded variable
//! elimination, run at level-0 boundaries of the search
//! (`Solver::maybe_inprocess`).
//!
//! The round works directly on the parent module's flat clause arena in
//! three phases:
//!
//! 1. **Scan** — delete level-0-satisfied clauses, strip level-0-false
//!    literals, sort every live clause's literals in place, and, when
//!    elimination runs this round, build literal-indexed occurrence
//!    lists.
//! 2. **Bounded variable elimination** — resolve the positive against
//!    the negative occurrences of cheap unfrozen variables; when the
//!    non-tautological resolvents do not outnumber the clauses they
//!    replace, add the resolvents, delete the originals, and push the
//!    originals onto the model-reconstruction stack.
//! 3. **Rebuild** — phases 1–2 reorder literals inside the arena, so
//!    the two-watched-literal invariant is void; rebuild every watch
//!    list wholesale, compact deleted clauses, and re-propagate the
//!    trail from scratch. This phase always runs (even when an earlier
//!    phase was interrupted): the solver must never leave inprocessing
//!    with stale watches.
//!
//! Certified mode accepts inprocessed refutations unchanged, but most
//! elimination traffic never reaches the proof. The scan's strengthened
//! clauses are logged while their premises are live, as usual. Variable
//! elimination instead *elides* its parent deletions — the parents stay
//! in the checker's database — and then a live parent pair simulates
//! its resolvent under unit propagation: whenever the resolvent would
//! propagate `l`, one parent becomes unit on the pivot and the other
//! then unit on `l`. The simulation fails only when the parents share a
//! non-pivot literal (both keep two free literals), so exactly those
//! resolvents, plus unit resolvents (which must propagate
//! persistently), are logged as RUP `Derived` steps; the rest are
//! elided, keeping the certificate linear in the *search* effort
//! instead of the elimination effort. Extra live clauses in the checker
//! are always sound (they are entailed consequences), and the
//! simulation argument makes the logged refutation check through
//! without the elided clauses, recursively through elimination
//! cascades. An elided resolvent has no checker id, so a derivation
//! that consults one is logged unhinted: the checker re-derives it by
//! full unit propagation, from the live parents.

use super::*;

/// Per-side occurrence cap for variable elimination: variables with
/// more occurrences than this are skipped (SatELite's cheap-var rule).
const BVE_OCC_CAP: usize = 10;
/// Skip elimination when any resolvent would exceed this many literals.
const BVE_RESOLVENT_LEN_CAP: usize = 32;

/// Occurrence lists, indexed by `Lit::index`, built by the scan phase
/// for elimination. Only *original* (non-learnt) clauses are indexed:
/// they are the elimination substrate, and leaving the (much larger)
/// learnt database out keeps every list short. Lists go stale as
/// clauses are deleted; consumers re-verify membership on use.
type Occs = Vec<Vec<CRef>>;

impl Solver {
    /// Runs one inprocessing round. Must be called at decision level 0
    /// (after `backtrack(0)`, so the trail holds level-0 literals only,
    /// in order, whatever chronological backtracking left before); on
    /// unsatisfiability (`ok` drops) the concluding empty clause has
    /// been logged.
    pub(super) fn inprocess(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if self.propagate().is_some() {
            self.ok = false;
            self.log(StepKind::Derived, &[], &[]);
            return;
        }
        // Level-0 reasons are never consulted again (conflict analysis
        // skips level 0); clear them so the clauses they point into can
        // be deleted and compacted.
        for i in 0..self.trail.len() {
            self.reason[self.trail[i].var().index()] = None;
        }
        // Only elimination reads occurrence lists: a round without it
        // (BVE off, or saturated) does not build them.
        let bve = self.inprocess_bve && !self.bve_saturated;
        let mut occ: Occs = vec![Vec::new(); if bve { 2 * self.assign.len() } else { 0 }];
        let complete = self.inprocess_scan(bve, &mut occ);
        if bve && self.ok && complete && !self.interrupted() {
            let finished = self.eliminate_vars(&mut occ);
            self.bve_saturated = finished && self.ok;
        }
        if self.ok {
            self.rebuild_after_inprocess();
        }
    }

    /// Replaces clause `ci`'s literals with `new` (a strict subset of
    /// the current ones), logging the derivation before the deletion so
    /// the new clause is RUP while the old one is live. A one-literal
    /// result enqueues the unit and deletes the clause; an empty result
    /// concludes the proof. Returns `false` when `ok` dropped.
    ///
    /// The LRAT hint is the old clause itself: its dropped literals are
    /// false by the checker's persistent level-0 facts, so asserting
    /// the new clause's negation falsifies it.
    fn rewrite_clause(&mut self, ci: usize, new: &mut [Lit]) -> bool {
        new.sort_unstable();
        self.log_derived(new, &[ci as CRef]);
        if new.is_empty() {
            self.ok = false;
            return false;
        }
        self.log_delete(ci);
        match new.len() {
            1 => {
                self.mark_deleted(ci);
                match value_of(&self.assign, new[0]) {
                    LBool::True => true,
                    LBool::False => {
                        self.ok = false;
                        self.log(StepKind::Derived, &[], &[]);
                        false
                    }
                    LBool::Undef => {
                        self.enqueue_at(new[0], 0, None);
                        true
                    }
                }
            }
            _ => {
                let start = self.clauses[ci].start as usize;
                self.lit_arena[start..start + new.len()].copy_from_slice(new);
                self.dead_lits += self.clauses[ci].len as usize - new.len();
                self.clauses[ci].len = new.len() as u32;
                // The derivation above put the new literal set in the
                // proof, even if the old clause was an unlogged
                // resolvent — its future deletion must be logged.
                self.clauses[ci].proof_id = self.last_proof_id();
                true
            }
        }
    }

    /// Logs `lits` as a `Derived` step, hinted with `antecedents` (the
    /// clauses whose unit propagations justify it, the falsified one
    /// last) when every one of them can be named to the checker.
    fn log_derived(&mut self, lits: &[Lit], antecedents: &[CRef]) {
        let hints: &[u32] =
            if self.antecedent_hints(antecedents) { &self.hint_ids } else { &[] };
        log_to(&mut self.proof, &mut self.proof_adds, StepKind::Derived, lits, hints);
    }

    /// Maps antecedent clause refs to their proof-log ids for an LRAT
    /// hint, into `self.hint_ids`. `false` when hints are off or an
    /// antecedent was never logged (an elided elimination resolvent):
    /// the step still RUP-checks from that resolvent's live parents,
    /// just not by the direct walk.
    fn antecedent_hints(&mut self, antecedents: &[CRef]) -> bool {
        if !self.lrat || self.proof.is_none() || antecedents.is_empty() {
            return false;
        }
        self.hint_ids.clear();
        antecedents.iter().all(|&c| self.push_hint_id(c))
    }

    /// Phase 1: level-0 cleanup, plus occurrence lists into `occ` when
    /// `index` is set. Returns `false` when interrupted (or `ok`
    /// dropped) mid-scan.
    fn inprocess_scan(&mut self, index: bool, occ: &mut Occs) -> bool {
        for ci in 0..self.clauses.len() {
            if ci % SWEEP_GRANULARITY == 0 && self.interrupted() {
                return false;
            }
            if self.clauses[ci].deleted {
                continue;
            }
            let range = self.clauses[ci].range();
            let mut satisfied = false;
            let mut false_lits = 0usize;
            for k in range.clone() {
                match value_of(&self.assign, self.lit_arena[k]) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => false_lits += 1,
                    LBool::Undef => {}
                }
            }
            if satisfied {
                self.delete_clause(ci);
                continue;
            }
            if false_lits > 0 {
                let mut live = std::mem::take(&mut self.add_buf);
                live.clear();
                live.extend(
                    self.lit_arena[range]
                        .iter()
                        .copied()
                        .filter(|&l| value_of(&self.assign, l) == LBool::Undef),
                );
                let ok = self.rewrite_clause(ci, &mut live);
                self.add_buf = live;
                if !ok {
                    return false;
                }
                if self.clauses[ci].deleted {
                    continue; // shrank to a unit
                }
            } else {
                let r = self.clauses[ci].range();
                self.lit_arena[r].sort_unstable();
            }
            if !index || self.clauses[ci].learnt {
                continue; // cleaned, but not indexed (see [`Occs`])
            }
            for k in self.clauses[ci].range() {
                occ[self.lit_arena[k].index()].push(ci as CRef);
            }
        }
        true
    }

    /// Collects the live original clauses containing `l` into `out`,
    /// pruning stale occurrence entries in passing (a clause deleted
    /// never comes back within a round).
    fn live_original_occs_into(&self, occ: &mut Occs, l: Lit, out: &mut Vec<CRef>) {
        out.clear();
        let list = &mut occ[l.index()];
        let mut i = 0;
        while i < list.len() {
            let c = &self.clauses[list[i] as usize];
            if !c.deleted && !c.learnt && self.lit_arena[c.range()].contains(&l) {
                out.push(list[i]);
                i += 1;
            } else {
                list.swap_remove(i);
            }
        }
    }

    /// Counts live occurrences of `l`, stopping at `cap + 1` — the
    /// common case (a variable far too busy to eliminate) is answered
    /// without allocating its occurrence vector. Stale entries
    /// encountered on the way are pruned, so an elimination-heavy pass
    /// does not rescan its own dead parents for every later variable.
    fn count_live_occs(&self, occ: &mut Occs, l: Lit, cap: usize) -> usize {
        let list = &mut occ[l.index()];
        let mut n = 0;
        let mut i = 0;
        while i < list.len() {
            let c = &self.clauses[list[i] as usize];
            if !c.deleted && !c.learnt && self.lit_arena[c.range()].contains(&l) {
                n += 1;
                if n > cap {
                    break;
                }
                i += 1;
            } else {
                list.swap_remove(i);
            }
        }
        n
    }

    /// Appends the resolvent of clauses `p` and `n` on variable `v`
    /// (`v` in `p` positively, in `n` negatively) to `out`; `None` for
    /// tautologies (leaving `out` untouched). The returned flag is
    /// `true` when the parents share a non-pivot literal — the one
    /// case where the parents do *not* simulate the resolvent under
    /// unit propagation (see `eliminate_vars_inner`), so the resolvent
    /// must be logged to the proof.
    ///
    /// Both parents are sorted and duplicate-free (the scan phase sorts
    /// every live clause, and every clause BVE adds or strengthens
    /// stays sorted), so the resolvent is a two-pointer merge — no sort
    /// and, with the caller-owned buffer, no allocation in the
    /// million-resolvent elimination cascade. A cross-parent
    /// complementary pair (tautology) is adjacent in merge order, since
    /// the two polarities of one variable sort next to each other.
    fn resolve_on_into(
        &self,
        p: usize,
        n: usize,
        v: Var,
        out: &mut Vec<Lit>,
    ) -> Option<bool> {
        let a = &self.lit_arena[self.clauses[p].range()];
        let b = &self.lit_arena[self.clauses[n].range()];
        debug_assert!(a.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(b.windows(2).all(|w| w[0] < w[1]));
        let start = out.len();
        let mut shared = false;
        let mut i = 0;
        let mut j = 0;
        loop {
            let next = match (a.get(i), b.get(j)) {
                (Some(&la), Some(&lb)) => {
                    if la == lb {
                        // The pivot appears with opposite polarities,
                        // so an equal pair is a shared non-pivot lit.
                        i += 1;
                        j += 1;
                        shared = true;
                        la
                    } else if la < lb {
                        i += 1;
                        la
                    } else {
                        j += 1;
                        lb
                    }
                }
                (Some(&la), None) => {
                    i += 1;
                    la
                }
                (None, Some(&lb)) => {
                    j += 1;
                    lb
                }
                (None, None) => break,
            };
            if next.var() == v {
                continue;
            }
            if out.len() > start && out[out.len() - 1] == !next {
                out.truncate(start);
                return None;
            }
            out.push(next);
        }
        Some(shared)
    }

    /// Phase 3: bounded variable elimination. The learnt database is
    /// swept once at the end (learnt clauses mentioning an eliminated
    /// variable are consequences of the *old* database; dropping
    /// learnts is always sound) — on every exit path, because phase 4
    /// re-watches whatever is left and an eliminated variable must not
    /// come back to life through a learnt unit. Returns whether the
    /// pass covered every variable (i.e. was not interrupted).
    fn eliminate_vars(&mut self, occ: &mut Occs) -> bool {
        let killed_from = self.elim_stack.len();
        let finished = self.eliminate_vars_inner(occ);
        if self.elim_stack.len() == killed_from {
            return finished;
        }
        let mut killed = vec![false; self.assign.len()];
        for (v, _) in &self.elim_stack[killed_from..] {
            killed[v.index()] = true;
        }
        for ci in 0..self.clauses.len() {
            let c = &self.clauses[ci];
            if c.deleted || !c.learnt {
                continue;
            }
            if self.lit_arena[c.range()].iter().any(|l| killed[l.var().index()]) {
                self.delete_clause(ci);
            }
        }
        finished
    }

    /// Returns `false` when interrupted or when `ok` dropped mid-pass.
    fn eliminate_vars_inner(&mut self, occ: &mut Occs) -> bool {
        let mut frozen_now = self.frozen.clone();
        for &a in &self.assumptions {
            frozen_now[a.var().index()] = true;
        }
        if let Some(elig) = &self.eliminable {
            // An explicit eliminability mask replaces the decision-scope
            // auto-freeze: the embedder has pre-computed exactly which
            // variables no future clause can mention (sessions derive
            // this from their retirement plan), so even in-scope
            // variables may be eliminated. Soundness is unchanged —
            // `pick_branch` skips eliminated variables, `Sat` models
            // extend via `reconstruct_model`, and a mask mistake only
            // costs a reintroduction round trip.
            for (i, f) in frozen_now.iter_mut().enumerate() {
                if !elig.get(i).copied().unwrap_or(false) {
                    *f = true;
                }
            }
        } else if let Some(scope) = &self.decision_scope {
            // In-scope variables carry the goal's meaning; out-of-scope
            // clauses must stay extendable, which elimination could
            // break — without an eliminability mask, scope is frozen
            // wholesale.
            for (i, &in_scope) in scope.iter().enumerate() {
                if in_scope {
                    frozen_now[i] = true;
                }
            }
        }
        let mut pos_refs: Vec<CRef> = Vec::new();
        let mut neg_refs: Vec<CRef> = Vec::new();
        // Flat staging for one variable's resolvents: a literal pool
        // with clause-end offsets, reused across variables.
        let mut res_lits: Vec<Lit> = Vec::new();
        let mut res_ends: Vec<u32> = Vec::new();
        let mut res_shared: Vec<bool> = Vec::new();
        let mut res_parents: Vec<(CRef, CRef)> = Vec::new();
        for vi in 0..self.assign.len() {
            if vi % 64 == 0 && self.interrupted() {
                return false;
            }
            if frozen_now[vi] || self.elim[vi] || self.assign[vi] != LBool::Undef {
                continue;
            }
            let v = Var(vi as u32);
            if self.count_live_occs(occ, Lit::pos(v), BVE_OCC_CAP) > BVE_OCC_CAP
                || self.count_live_occs(occ, Lit::neg(v), BVE_OCC_CAP) > BVE_OCC_CAP
            {
                continue;
            }
            self.live_original_occs_into(occ, Lit::pos(v), &mut pos_refs);
            self.live_original_occs_into(occ, Lit::neg(v), &mut neg_refs);
            if pos_refs.is_empty() && neg_refs.is_empty() {
                continue;
            }
            let limit = pos_refs.len() + neg_refs.len();
            res_lits.clear();
            res_ends.clear();
            res_shared.clear();
            res_parents.clear();
            let mut blown = false;
            'pairs: for &p in &pos_refs {
                for &n in &neg_refs {
                    let start = res_lits.len();
                    if let Some(shared) =
                        self.resolve_on_into(p as usize, n as usize, v, &mut res_lits)
                    {
                        if res_lits.len() - start > BVE_RESOLVENT_LEN_CAP {
                            blown = true;
                            break 'pairs;
                        }
                        res_ends.push(res_lits.len() as u32);
                        res_shared.push(shared);
                        res_parents.push((p, n));
                        if res_ends.len() > limit {
                            blown = true;
                            break 'pairs;
                        }
                    }
                }
            }
            if blown {
                continue;
            }
            // Commit. Stored clauses are snapshotted (for reconstruction
            // and reintroduction). The parents' deletions are *not*
            // logged, so they stay live in the checker's database — and
            // a live parent pair simulates its resolvent under unit
            // propagation: when the resolvent would propagate `l`, one
            // parent is unit on the pivot and the other then unit on
            // `l`. That simulation only fails when the parents share a
            // non-pivot literal `l` (both parents keep two free
            // literals), so exactly those resolvents — plus units,
            // which must propagate *persistently* in the checker — are
            // logged as `Derived` (RUP from the live parents); the
            // rest are elided, which keeps the certificate linear in
            // the *search* effort instead of the elimination effort.
            let mut stored = StoredClauses::new();
            for &c in pos_refs.iter().chain(&neg_refs) {
                stored.push(&self.lit_arena[self.clauses[c as usize].range()]);
            }
            let mut rs = 0usize;
            for i in 0..res_ends.len() {
                let re = res_ends[i] as usize;
                let r = &res_lits[rs..re];
                let shared = res_shared[i];
                // Hint for a logged resolvent: under its negation the
                // positive parent is unit on the pivot, the negative
                // parent then falsified.
                let parents = [res_parents[i].0, res_parents[i].1];
                rs = re;
                self.stats.resolvents += 1;
                match r.len() {
                    0 => {
                        // Both parents were units — cannot happen with a
                        // unit-free database, but conclude soundly.
                        self.log(StepKind::Derived, &[], &[]);
                        self.ok = false;
                        return false;
                    }
                    1 => {
                        self.log_derived(r, &parents);
                        match value_of(&self.assign, r[0]) {
                            LBool::True => {}
                            LBool::False => {
                                self.ok = false;
                                self.log(StepKind::Derived, &[], &[]);
                                return false;
                            }
                            LBool::Undef => self.enqueue_at(r[0], 0, None),
                        }
                    }
                    _ => {
                        let pid = if shared {
                            self.log_derived(r, &parents);
                            self.last_proof_id()
                        } else {
                            NO_PROOF_ID
                        };
                        let cref = self.attach_new_clause(r, false);
                        self.clauses[cref as usize].proof_id = pid;
                        for &l in r {
                            occ[l.index()].push(cref);
                        }
                    }
                }
            }
            for &c in pos_refs.iter().chain(&neg_refs) {
                self.mark_deleted(c as usize);
            }
            self.elim[vi] = true;
            self.stats.eliminated_vars += 1;
            self.elim_stack.push((v, stored));
        }
        true
    }

    /// Phase 4: wholesale watch rebuild + compaction + re-propagation.
    fn rebuild_after_inprocess(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        for ws in &mut self.watches {
            ws.clear();
        }
        for ci in 0..self.clauses.len() {
            if self.clauses[ci].deleted {
                continue;
            }
            let range = self.clauses[ci].range();
            let satisfied = self.lit_arena[range.clone()]
                .iter()
                .any(|&l| value_of(&self.assign, l) == LBool::True);
            if satisfied {
                self.delete_clause(ci);
                continue;
            }
            // Move up to two non-false literals into the watch slots;
            // if fewer exist the clause is unit or conflicting, which
            // the full re-propagation below discovers through the
            // false watch.
            let s = range.start;
            let mut found = 0usize;
            for k in range {
                if found == 2 {
                    break;
                }
                if value_of(&self.assign, self.lit_arena[k]) != LBool::False {
                    self.lit_arena.swap(s + found, k);
                    found += 1;
                }
            }
            let l0 = self.lit_arena[s];
            let l1 = self.lit_arena[s + 1];
            self.watches[l0.index()].push(Watch { cref: ci as CRef, blocker: l1 });
            self.watches[l1.index()].push(Watch { cref: ci as CRef, blocker: l0 });
        }
        self.compact_deleted();
        self.qhead = 0;
        if self.propagate().is_some() {
            self.ok = false;
            self.log(StepKind::Derived, &[], &[]);
        }
    }

    /// Reactivates any eliminated variable mentioned in `lits`: its
    /// stored original clauses return to the database (transitively —
    /// a stored clause may mention a variable eliminated later). The
    /// returning clauses are re-logged as `Input` steps; they are
    /// consequences of earlier inputs by construction (original clauses
    /// possibly strengthened by RUP-logged steps), and in-tree callers
    /// never add clauses mid-proof after elimination, so certificates
    /// are unaffected. Drops `ok` if a returning clause conflicts.
    ///
    /// A stored clause that mentions a purged variable is dead (see
    /// [`Solver::purge_vars`]): it is neither re-added nor followed to
    /// the variables it mentions, and a purged variable's own entry
    /// therefore brings nothing back.
    pub(super) fn reintroduce_touched(&mut self, lits: &[Lit]) {
        if self.elim_stack.is_empty() {
            return;
        }
        let mut work: Vec<Var> = lits
            .iter()
            .map(|l| l.var())
            .filter(|v| self.elim.get(v.index()).copied().unwrap_or(false))
            .collect();
        if work.is_empty() {
            return;
        }
        let mut to_add: Vec<StoredClauses> = Vec::new();
        while let Some(v) = work.pop() {
            if !self.elim[v.index()] {
                continue;
            }
            self.elim[v.index()] = false;
            self.model_overlay[v.index()] = LBool::Undef;
            self.stats.eliminated_vars = self.stats.eliminated_vars.saturating_sub(1);
            self.stats.reintroduced_vars += 1;
            self.order.insert(v, &self.activity);
            if let Some(pos) = self.elim_stack.iter().position(|(u, _)| *u == v) {
                let (_, stored) = self.elim_stack.remove(pos);
                for c in stored.iter().filter(|c| !mentions_purged(&self.purged, c)) {
                    for l in c {
                        if self.elim[l.var().index()] {
                            work.push(l.var());
                        }
                    }
                }
                to_add.push(stored);
            }
        }
        // All flags are cleared before any clause returns, so the
        // nested `add_clause` calls cannot recurse back in here.
        for stored in &to_add {
            for c in stored.iter() {
                if !mentions_purged(&self.purged, c) && !self.add_clause(c) {
                    return;
                }
            }
        }
    }

    /// Extends a `Sat` assignment over eliminated variables by replaying
    /// the elimination stack in reverse: each variable defaults to false
    /// unless one of its stored clauses is unsatisfied without it, in
    /// which case its literal in that clause decides the value. The
    /// elimination guarantee (every resolvent is in the database and
    /// satisfied) means the two polarities are never both forced.
    ///
    /// Stored clauses of `v` never mention a variable eliminated before
    /// `v` (its clauses were already deleted then), and variables
    /// eliminated after `v` are reconstructed first — so every literal
    /// read here is already valued.
    ///
    /// Entries of purged variables, and stored clauses that mention a
    /// purged variable, are skipped: they are dead, and what is left
    /// of each entry still satisfies the elimination guarantee (see
    /// [`Solver::purge_vars`]). A purged variable gets no value.
    pub(super) fn reconstruct_model(&mut self) {
        if self.elim_stack.is_empty() {
            return;
        }
        for x in &mut self.model_overlay {
            *x = LBool::Undef;
        }
        for i in (0..self.elim_stack.len()).rev() {
            let (v, ref stored) = self.elim_stack[i];
            if self.purged[v.index()] {
                continue;
            }
            let mut forced = LBool::Undef;
            for c in stored.iter() {
                if mentions_purged(&self.purged, c) {
                    continue;
                }
                let mut sat_without = false;
                let mut vlit: Option<Lit> = None;
                for &l in c {
                    if l.var() == v {
                        vlit = Some(l);
                        continue;
                    }
                    if self.model_lit_truth(l) == LBool::True {
                        sat_without = true;
                        break;
                    }
                }
                if !sat_without {
                    if let Some(l) = vlit {
                        let need = if l.is_neg() { LBool::False } else { LBool::True };
                        debug_assert!(
                            forced == LBool::Undef || forced == need,
                            "both polarities forced: elimination was unsound"
                        );
                        forced = need;
                    }
                }
            }
            self.model_overlay[v.index()] = if forced == LBool::Undef {
                LBool::False
            } else {
                forced
            };
        }
    }

    /// Literal truth under the assignment, falling back to the
    /// reconstruction overlay for eliminated variables.
    fn model_lit_truth(&self, l: Lit) -> LBool {
        let a = match self.assign[l.var().index()] {
            LBool::Undef => self.model_overlay[l.var().index()],
            assigned => assigned,
        };
        a.under_sign(l.is_neg())
    }
}
