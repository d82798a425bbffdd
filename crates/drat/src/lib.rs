//! An independent checker for the SAT solver's proof certificates.
//!
//! `serval-sat` can log every clause it adds, derives, or deletes as a
//! step of a [`ProofLog`] (see `serval_sat::Solver::set_proof_logging`).
//! This crate replays such a log against its *own* clause database —
//! sharing no solver data structures — and accepts it only if every
//! `Derived` clause follows by the **hinted walk** its step carries
//! (LRAT-style): assert the negation of the clause's literals, then take
//! the hinted clauses in order, each of which must be unit (assigning
//! its last free literal) until one is falsified. The walk is a linear
//! pass over the hints; the checker never searches for a derivation,
//! so a step with a missing, reordered or wrong hint is rejected. A log
//! that ends in a derived clause containing only negated assumption
//! literals (the empty clause when there are no assumptions) is a
//! *certificate* of unsatisfiability: the checker's acceptance depends
//! only on the logged `Input` clauses, so a buggy solver cannot smuggle
//! an unsound refutation past it.
//!
//! Conventions (mirroring drat-trim):
//!
//! - `Input` clauses are taken on faith; they define the formula the
//!   certificate refutes.
//! - `Derived` clauses are checked by their hinted walk *before* being
//!   added. Once the database is contradictory every derived clause is
//!   accepted (the empty one included).
//! - `Delete` steps must name a live clause (matched as a sorted literal
//!   multiset — watch-list reordering inside the solver does not change
//!   the multiset); deleting a clause that was never added, or was
//!   already deleted, is tamper evidence and rejected.
//! - Unit clauses are persistent *facts*: a unit's literal is assigned
//!   when the clause arrives and stays in force across deletions, so a
//!   hint list never names the unit behind a level-0 fact, and
//!   deletions only ever make later walks harder, never unsound. The
//!   checker does no propagation of its own — no watch lists — so the
//!   solver logs each level-0 literal a step leans on as a unit first.
//!
//! The checker is incremental: `serval-engine`'s session mode feeds one
//! live [`Checker`] the per-goal proof deltas of an incremental SAT
//! session, calling [`Checker::take_conclusion`] after each goal, on a
//! thread of its own that trails the solving thread.

use serval_sat::{Lit, ProofLog, Step, StepKind};
use std::collections::HashMap;
use std::ops::Range;

/// Why a proof log was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// A `Delete` step named a clause that is not live in the database.
    DeleteMissing {
        /// 0-based index of the offending step within the log.
        step: usize,
    },
    /// A `Derived` clause did not follow by its hinted walk.
    NotImplied {
        /// 0-based index of the offending step within the log.
        step: usize,
    },
    /// The log contained no `Derived` step to serve as its conclusion.
    NoConclusion,
    /// The final derived clause contains a literal that is not a negated
    /// assumption (for a refutation without assumptions: is non-empty).
    BadConclusion,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::DeleteMissing { step } => {
                write!(f, "proof step {step}: deleted clause is not in the database")
            }
            CheckError::NotImplied { step } => {
                write!(f, "proof step {step}: clause not implied by its hints")
            }
            CheckError::NoConclusion => write!(f, "proof has no derived conclusion"),
            CheckError::BadConclusion => {
                write!(f, "proof conclusion is not over the negated assumptions")
            }
        }
    }
}

/// One clause of the arena in 8 bytes: the checker holds hundreds of
/// thousands of these per session, so the record is a `u32` start and a
/// `u32` holding the length above the deleted bit.
#[derive(Clone, Copy)]
struct ClauseMeta {
    start: u32,
    len_deleted: u32,
}

/// End of a fingerprint's chain of live clause ids.
const NO_CLAUSE: u32 = u32::MAX;

impl ClauseMeta {
    fn new(start: usize, len: usize) -> ClauseMeta {
        let fit = |n: usize| u32::try_from(n).expect("checker arenas are indexed by u32");
        ClauseMeta { start: fit(start), len_deleted: fit(len << 1) }
    }

    fn range(&self) -> Range<usize> {
        let start = self.start as usize;
        start..start + (self.len_deleted >> 1) as usize
    }

    fn deleted(&self) -> bool {
        self.len_deleted & 1 == 1
    }

    fn delete(&mut self) {
        self.len_deleted |= 1;
    }
}

/// A pass-through hasher for keys that are already FNV fingerprints
/// ([`fp_lits`]) — re-hashing them through SipHash would only burn
/// time on the checker's hottest path (one map touch per clause add
/// and delete).
#[derive(Clone, Copy, Default)]
struct FpBuild;

struct FpHasher(u64);

impl std::hash::Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("fingerprint keys are hashed via write_u64");
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

impl std::hash::BuildHasher for FpBuild {
    type Hasher = FpHasher;
    fn build_hasher(&self) -> FpHasher {
        FpHasher(0)
    }
}

/// FNV-style fingerprint of a normalized (sorted, deduped) literal
/// slice, used only to bucket clauses for `Delete` matching (never
/// persisted — certificate hashes are [`hash_steps`]). One multiply
/// per literal: this runs once per clause add and delete, and bucket
/// hits verify the actual literal set, so hash quality only affects
/// bucket collision rate.
fn fp_lits(lits: &[Lit]) -> u64 {
    let mut h = FNV_OFFSET;
    for l in lits {
        h = (h ^ l.0 as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// An incremental hinted-walk proof checker.
#[derive(Default)]
pub struct Checker {
    /// Flat literal arena; clauses index into it, each normalized
    /// (sorted, deduped).
    lits: Vec<Lit>,
    clauses: Vec<ClauseMeta>,
    /// Literal-set fingerprint → the most recently added live clause
    /// id with it, for `Delete` matching; older ones chain through
    /// `older`. Matches are verified against the actual literals, so a
    /// fingerprint collision can never delete the wrong clause.
    by_key: HashMap<u64, u32, FpBuild>,
    /// Clause id → the next older live clause id on its fingerprint's
    /// chain. Almost every chain is one id long (a twin or a collision
    /// starts a longer one), so this map stays small, and `by_key` at
    /// 16 bytes a slot.
    older: HashMap<u32, u32>,
    /// Reusable normalization buffer (sort + dedup scratch).
    scratch: Vec<Lit>,
    /// Assignment per variable: 0 undef, 1 true, -1 false. Below a
    /// walk's checkpoint the trail holds the persistent facts (the
    /// literals of unit clauses added), above it the walk's own.
    assign: Vec<i8>,
    trail: Vec<Lit>,
    /// Set once the database is contradictory; never cleared.
    contradiction: bool,
    /// Clause id of the most recent `Derived` clause, if any. Stored as
    /// an id (the literal set lives in the arena) so the per-step cost
    /// is a register write; [`Checker::take_conclusion`] materializes
    /// it once per goal.
    last_derived: Option<u32>,
    steps: u64,
}

impl Checker {
    /// A fresh checker with an empty database.
    pub fn new() -> Checker {
        Checker::default()
    }

    /// Applies one proof step. Errors leave the checker poisoned for the
    /// caller to discard — partial state after a rejection is unspecified.
    pub fn apply(&mut self, step: Step<'_>) -> Result<(), CheckError> {
        let idx = self.steps as usize;
        self.steps += 1;
        let Step { kind, lits, hints } = step;
        match kind {
            StepKind::Input => {
                self.add(lits);
                Ok(())
            }
            StepKind::Derived => {
                // The hinted walk is an indexed replay of the claimed
                // propagation chain, and sound by construction: every
                // literal it assigns is forced by the negated clause
                // plus live database clauses, so reaching a falsified
                // clause is a genuine implication wherever the hints
                // came from. A walk that ends short of a conflict is
                // tamper evidence (or a solver bug), and rejects.
                if !self.hinted_rup(lits, hints) {
                    return Err(CheckError::NotImplied { step: idx });
                }
                let cid = self.add(lits);
                self.last_derived = Some(cid);
                Ok(())
            }
            StepKind::Delete => self.delete(lits, idx),
        }
    }

    /// Number of proof steps applied so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether the database has been refuted outright.
    pub fn contradiction(&self) -> bool {
        self.contradiction
    }

    /// Takes (and clears) the most recent derived clause, normalized.
    /// A session caller invokes this once per goal so a goal that
    /// derives nothing cannot inherit the previous goal's conclusion.
    pub fn take_conclusion(&mut self) -> Option<Vec<Lit>> {
        let cid = self.last_derived.take()?;
        Some(self.lits[self.clauses[cid as usize].range()].to_vec())
    }

    // ------------------------------------------------------------------
    // Database
    // ------------------------------------------------------------------

    fn ensure_capacity(&mut self, lits: &[Lit]) {
        let max_var = lits.iter().map(|l| l.var().index() + 1).max().unwrap_or(0);
        if self.assign.len() < max_var {
            self.assign.resize(max_var, 0);
        }
    }

    /// Normalizes `lits_in` into the reusable scratch buffer and takes
    /// it (callers put it back via `self.scratch = ...`).
    fn normalize(&mut self, lits_in: &[Lit]) -> Vec<Lit> {
        let mut norm = std::mem::take(&mut self.scratch);
        norm.clear();
        norm.extend_from_slice(lits_in);
        norm.sort_unstable();
        norm.dedup();
        norm
    }

    /// Adds a clause persistently (no implication check — callers check
    /// `Derived` clauses first). A unit clause's literal becomes a
    /// persistent fact; the empty clause, or a unit whose literal a
    /// fact already falsifies, makes the database contradictory. No
    /// other clause is looked at: the checker does no propagation of
    /// its own, and a walk learns every fact it leans on from a unit
    /// clause the solver logged.
    fn add(&mut self, lits_in: &[Lit]) -> u32 {
        let norm = self.normalize(lits_in);
        self.ensure_capacity(&norm);
        let cid = self.clauses.len() as u32;
        let start = self.lits.len();
        // The arena and the records only grow, and are the checker's
        // largest buffers: grow them by half, not by doubling, which
        // past a power of two strands up to half of each.
        grow_by_half(&mut self.lits, norm.len());
        grow_by_half(&mut self.clauses, 1);
        self.lits.extend_from_slice(&norm);
        self.clauses.push(ClauseMeta::new(start, norm.len()));
        if let Some(older) = self.by_key.insert(fp_lits(&norm), cid) {
            self.older.insert(cid, older);
        }
        match norm[..] {
            [] => self.contradiction = true,
            [l] => match self.value(l) {
                0 => self.enqueue(l),
                -1 => self.contradiction = true,
                _ => {}
            },
            _ => {}
        }
        self.scratch = norm;
        cid
    }

    fn delete(&mut self, lits_in: &[Lit], step: usize) -> Result<(), CheckError> {
        let norm = self.normalize(lits_in);
        let key = fp_lits(&norm);
        // The most recent live clause with exactly these literals, and
        // the newer one whose chain link points at it.
        let (mut newer, mut cid) = (None, self.by_key.get(&key).copied().unwrap_or(NO_CLAUSE));
        while cid != NO_CLAUSE && self.lits[self.clauses[cid as usize].range()] != norm[..] {
            (newer, cid) = (Some(cid), self.older_than(cid));
        }
        self.scratch = norm;
        if cid == NO_CLAUSE {
            return Err(CheckError::DeleteMissing { step });
        }
        let next = self.older.remove(&cid);
        match (newer, next) {
            (Some(n), Some(next)) => drop(self.older.insert(n, next)),
            (Some(n), None) => drop(self.older.remove(&n)),
            (None, Some(next)) => drop(self.by_key.insert(key, next)),
            (None, None) => drop(self.by_key.remove(&key)),
        }
        // Facts a deleted unit established stay in force (drat-trim
        // convention).
        self.clauses[cid as usize].delete();
        Ok(())
    }

    /// A live clause with the literal set of the deleted clause `dead`,
    /// if any. A solver may hold two clauses with one literal set and
    /// delete one of them; `delete` matches by literal set, so it may
    /// have dropped the id a later hint names while its twin lives on.
    /// The twin serves the hinted walk as well: the walk reads only the
    /// clause's literals.
    fn live_twin(&self, dead: ClauseMeta) -> Option<ClauseMeta> {
        let lits = &self.lits[dead.range()];
        let mut cid = self.by_key.get(&fp_lits(lits)).copied().unwrap_or(NO_CLAUSE);
        while cid != NO_CLAUSE {
            let meta = self.clauses[cid as usize];
            if self.lits[meta.range()] == *lits {
                return Some(meta);
            }
            cid = self.older_than(cid);
        }
        None
    }

    /// The next older live clause on `cid`'s fingerprint chain.
    fn older_than(&self, cid: u32) -> u32 {
        self.older.get(&cid).copied().unwrap_or(NO_CLAUSE)
    }

    // ------------------------------------------------------------------
    // The hinted walk
    // ------------------------------------------------------------------

    #[inline]
    fn value(&self, l: Lit) -> i8 {
        value_of(&self.assign, l)
    }

    fn enqueue(&mut self, l: Lit) {
        self.assign[l.var().index()] = if l.is_neg() { -1 } else { 1 };
        self.trail.push(l);
    }

    /// LRAT-style hinted implication check: assert the negation of
    /// `lits` over the persistent facts, then walk `hints` in order —
    /// each named clause should be unit (assign its last free literal)
    /// or falsified (conflict: implication established). A hint naming
    /// a deleted clause walks that clause's live twin
    /// ([`Checker::live_twin`]) instead; one naming an out-of-range id,
    /// or a deleted clause with no live twin, ends the walk
    /// unsuccessfully. Hints that are satisfied or leave two literals
    /// free are skipped. Every assignment made is forced by the negated
    /// clause and live database clauses, so a `true` return is a sound
    /// implication no matter what the hints were; `false` means "not
    /// established by this walk", and the step is rejected. Temporary
    /// assignments are undone before returning.
    fn hinted_rup(&mut self, lits: &[Lit], hints: &[u32]) -> bool {
        if self.contradiction {
            return true;
        }
        self.ensure_capacity(lits);
        let checkpoint = self.trail.len();
        let mut implied = false;
        for &l in lits {
            match self.value(l) {
                1 => {
                    implied = true;
                    break;
                }
                -1 => {}
                _ => self.enqueue(!l),
            }
        }
        if !implied {
            'walk: for &h in hints {
                let Some(&meta) = self.clauses.get(h as usize) else {
                    break;
                };
                let meta = match meta.deleted() {
                    false => meta,
                    true => match self.live_twin(meta) {
                        Some(twin) => twin,
                        None => break,
                    },
                };
                let mut free: Option<Lit> = None;
                for k in meta.range() {
                    let l = self.lits[k];
                    match value_of(&self.assign, l) {
                        1 => continue 'walk, // satisfied: useless hint
                        -1 => {}
                        _ => {
                            if free.is_some() {
                                continue 'walk; // two free literals
                            }
                            free = Some(l);
                        }
                    }
                }
                match free {
                    None => {
                        implied = true; // falsified: conflict reached
                        break;
                    }
                    Some(l) => self.enqueue(l),
                }
            }
        }
        for i in checkpoint..self.trail.len() {
            self.assign[self.trail[i].var().index()] = 0;
        }
        self.trail.truncate(checkpoint);
        implied
    }
}

/// Makes room in `v` for `more` elements, growing its capacity by half
/// of its length when it must grow at all.
fn grow_by_half<T>(v: &mut Vec<T>, more: usize) {
    if v.capacity() - v.len() < more {
        v.reserve_exact(v.len() / 2 + more);
    }
}

#[inline]
fn value_of(assign: &[i8], l: Lit) -> i8 {
    let a = assign[l.var().index()];
    if l.is_neg() {
        -a
    } else {
        a
    }
}

/// Checks a complete refutation log: applies every step, then requires a
/// conclusion whose literals are all negated `assumptions` (the empty
/// clause when `assumptions` is empty).
pub fn check_refutation(log: &ProofLog, assumptions: &[Lit]) -> Result<(), CheckError> {
    let mut ck = Checker::new();
    for s in log.iter() {
        ck.apply(s)?;
    }
    match ck.take_conclusion() {
        None => Err(CheckError::NoConclusion),
        Some(conc) if conclusion_covers(&conc, assumptions) => Ok(()),
        Some(_) => Err(CheckError::BadConclusion),
    }
}

/// Whether every literal of `conclusion` is the negation of one of
/// `assumptions`.
pub fn conclusion_covers(conclusion: &[Lit], assumptions: &[Lit]) -> bool {
    conclusion.iter().all(|&l| assumptions.iter().any(|&a| l == !a))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 fingerprint of a proof log (order-sensitive). Certificate
/// hashes stored in the engine's verdict cache use this; 0 never occurs,
/// so callers can use 0 for "no certificate".
pub fn hash_steps(log: &ProofLog) -> u64 {
    hash_steps_seeded(FNV_OFFSET, log)
}

/// [`hash_steps`] with an explicit seed, for chaining per-goal deltas of
/// an incremental session into one running certificate hash.
pub fn hash_steps_seeded(seed: u64, log: &ProofLog) -> u64 {
    // FNV-1a over u32 units rather than bytes: one xor-multiply per
    // literal/hint. This fingerprint guards against corruption and
    // accidental replacement (bucket hits re-replay the proof), not
    // adversaries, and it hashes every literal of every step of every
    // certificate — at half a million steps per workload the byte-wise
    // variant was a measurable slice of certified-discharge overhead.
    #[inline]
    fn word(h: u64, w: u32) -> u64 {
        (h ^ w as u64).wrapping_mul(FNV_PRIME)
    }
    let mut h = seed;
    for Step { kind, lits, hints } in log.iter() {
        let tag = match kind {
            StepKind::Input => 1,
            StepKind::Derived if hints.is_empty() => 2,
            StepKind::Delete => 3,
            StepKind::Derived => 4,
        };
        h = word(h, tag);
        h = word(h, lits.len() as u32);
        for l in lits {
            h = word(h, l.0);
        }
        // Hints are part of the certificate: a fingerprint match must
        // mean the cached proof replays identically, hints included.
        if !hints.is_empty() {
            h = word(h, hints.len() as u32);
            for &id in hints {
                h = word(h, id);
            }
        }
    }
    // Never collide with the "no certificate" sentinel.
    if h == 0 {
        1
    } else {
        h
    }
}

#[cfg(test)]
mod tests;
