//! DRAT-style proof logging types.
//!
//! When proof logging is enabled (see [`crate::Solver::set_proof_logging`]),
//! the solver records every clause it adds, derives, or deletes as one
//! step of a [`ProofLog`]. An `Unsat` answer is then backed by a
//! *certificate*: the ordered step log, ending in a derived clause that
//! contains only negated assumption literals (the empty clause when
//! solving without assumptions). The `serval-drat` crate checks such
//! certificates by walking each step's hints, independently of the
//! solver's own data structures.
//!
//! The logging discipline mirrors drat-trim's input conventions:
//!
//! - `Input` steps are taken on faith — they *are* the formula whose
//!   unsatisfiability the certificate claims. This includes activation-
//!   literal retraction units (`!act` asserted by [`crate::Solver::retract`]):
//!   an incremental session's per-goal claim is phrased over the inputs
//!   logged so far, so the retraction unit is part of the formula for
//!   every later goal.
//! - `Derived` steps must each be implied by the clauses currently in the
//!   checker's database, by the unit-propagation walk their hints spell
//!   out; this covers learnt clauses (including ccmin-2-minimized ones),
//!   input clauses strengthened by level-0 literal elimination,
//!   elimination resolvents, level-0 units, assumption-core conflict
//!   clauses, and the empty clause. The solver hints every one.
//! - `Delete` steps must name a clause previously added and not yet
//!   deleted; the checker drops it. A deleted unit's fact stays in force
//!   (the drat-trim convention), so deletions can only make later
//!   `Derived` checks *harder*, never unsound.
//! - The checker propagates nothing itself: every level-0 literal a
//!   step leans on has been logged as a unit clause before it.
//!
//! # Format
//!
//! The log is flat: one 12-byte header per step plus two shared pools,
//! one of literals and one of hint ids, that the headers slice by end
//! offset. Logging a step appends to three vectors and never allocates a
//! vector of its own, so two solver threads logging millions of steps do
//! not meet in the allocator; readers get each step as a borrowed
//! [`Step`] view.

use crate::types::Lit;

/// What a proof step does to the checker's clause database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// A clause asserted from outside (part of the formula being refuted).
    /// The empty input clause encodes a constant-false assertion.
    Input,
    /// A clause the solver claims follows from the database (checked by
    /// walking its hints).
    Derived,
    /// A clause removed from the database (`simplify`, `purge_vars`,
    /// `reduce_db` sweeps).
    Delete,
}

/// One step of a [`ProofLog`], borrowed from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step<'a> {
    /// What the step does.
    pub kind: StepKind,
    /// The step's clause.
    pub lits: &'a [Lit],
    /// LRAT-style antecedent hints, on `Derived` steps only: the ids of
    /// the clauses whose unit propagations, taken in order under the
    /// negated clause, end in a conflict. Ids are 0-based counts of
    /// *added* steps (`Input` and `Derived`; `Delete` does not count)
    /// since logging began — exactly the order a replaying checker
    /// numbers its database. The checker verifies a step by this walk
    /// alone and rejects it when the walk ends short of a conflict, so
    /// a bad hint costs acceptance, never soundness: every literal the
    /// walk assigns is forced by live clauses whatever the hints say.
    pub hints: &'a [u32],
}

#[derive(Clone, Copy, Debug)]
struct Head {
    kind: StepKind,
    /// End of this step's literals in [`ProofLog::lits`] (they start
    /// where the previous step's end).
    lits_end: u32,
    /// Likewise into [`ProofLog::hints`].
    hints_end: u32,
}

/// An ordered log of proof steps (see the module docs for the format).
#[derive(Clone, Debug, Default)]
pub struct ProofLog {
    heads: Vec<Head>,
    lits: Vec<Lit>,
    hints: Vec<u32>,
}

fn end(len: usize) -> u32 {
    u32::try_from(len).expect("proof log pools are indexed by u32")
}

impl ProofLog {
    /// An empty log.
    pub fn new() -> ProofLog {
        ProofLog::default()
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the log has no steps.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Appends a step. `hints` must be empty unless `kind` is `Derived`.
    pub fn push(&mut self, kind: StepKind, lits: &[Lit], hints: &[u32]) {
        debug_assert!(hints.is_empty() || kind == StepKind::Derived);
        self.lits.extend_from_slice(lits);
        self.hints.extend_from_slice(hints);
        self.heads.push(Head {
            kind,
            lits_end: end(self.lits.len()),
            hints_end: end(self.hints.len()),
        });
    }

    /// Where step `i`'s literals and hints start: where step `i - 1`'s
    /// end.
    fn starts(&self, i: usize) -> (usize, usize) {
        match i.checked_sub(1) {
            Some(p) => (
                self.heads[p].lits_end as usize,
                self.heads[p].hints_end as usize,
            ),
            None => (0, 0),
        }
    }

    fn bounds(&self, i: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let (l0, h0) = self.starts(i);
        let h = self.heads[i];
        (l0..h.lits_end as usize, h0..h.hints_end as usize)
    }

    /// Step `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn step(&self, i: usize) -> Step<'_> {
        let (l, h) = self.bounds(i);
        Step {
            kind: self.heads[i].kind,
            lits: &self.lits[l],
            hints: &self.hints[h],
        }
    }

    /// The last step, if any.
    pub fn last(&self) -> Option<Step<'_>> {
        self.len().checked_sub(1).map(|i| self.step(i))
    }

    /// The steps in order.
    pub fn iter(&self) -> impl Iterator<Item = Step<'_>> + '_ {
        let (mut l0, mut h0) = (0, 0);
        self.heads.iter().map(move |h| {
            let (l1, h1) = (h.lits_end as usize, h.hints_end as usize);
            let step = Step {
                kind: h.kind,
                lits: &self.lits[l0..l1],
                hints: &self.hints[h0..h1],
            };
            (l0, h0) = (l1, h1);
            step
        })
    }

    /// Appends every step of `other`.
    pub fn extend(&mut self, other: &ProofLog) {
        for s in other.iter() {
            self.push(s.kind, s.lits, s.hints);
        }
    }

    /// Keeps the first `steps` steps and drops the rest, whole: a torn
    /// log loses steps, never the tail of one step's clause.
    pub fn truncate(&mut self, steps: usize) {
        if steps >= self.len() {
            return;
        }
        let (lits, hints) = self.starts(steps);
        self.heads.truncate(steps);
        self.lits.truncate(lits);
        self.hints.truncate(hints);
    }

    /// Strips every hint, leaving each `Derived` step unhinted.
    pub fn drop_hints(&mut self) {
        self.hints.clear();
        for h in &mut self.heads {
            h.hints_end = 0;
        }
    }

    /// Step `i`'s literals, for proof-mutation tests.
    pub fn lits_mut(&mut self, i: usize) -> &mut [Lit] {
        let (l, _) = self.bounds(i);
        &mut self.lits[l]
    }

    /// Step `i`'s hints, for proof-mutation tests.
    pub fn hints_mut(&mut self, i: usize) -> &mut [u32] {
        let (_, h) = self.bounds(i);
        &mut self.hints[h]
    }
}
