//! An independent checker for the SAT solver's proof certificates.
//!
//! `serval-sat` can log every clause it adds, derives, or deletes as a
//! step of a [`ProofLog`] (see `serval_sat::Solver::set_proof_logging`).
//! This crate replays such a log against its *own* clause database and unit
//! propagation — sharing no solver data structures — and accepts it only
//! if every `Derived` clause follows by **reverse unit propagation**
//! (RUP): assert the negation of the clause's literals, propagate, and
//! require a conflict. A log that ends in a derived clause containing
//! only negated assumption literals (the empty clause when there are no
//! assumptions) is a *certificate* of unsatisfiability: the checker's
//! acceptance depends only on the logged `Input` clauses, so a buggy
//! solver cannot smuggle an unsound refutation past it.
//!
//! Conventions (mirroring drat-trim):
//!
//! - `Input` clauses are taken on faith; they define the formula the
//!   certificate refutes.
//! - `Derived` clauses are checked by RUP *before* being added. The empty
//!   derived clause is accepted exactly when the database is already
//!   contradictory.
//! - `Delete` steps must name a live clause (matched as a sorted literal
//!   multiset — watch-list reordering inside the solver does not change
//!   the multiset); deleting a clause that was never added, or was
//!   already deleted, is tamper evidence and rejected.
//! - Unit propagation already performed persists across deletions, so
//!   deletions only ever make later RUP checks harder, never unsound.
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
    /// A `Derived` clause did not follow by reverse unit propagation.
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
                write!(f, "proof step {step}: clause not implied (RUP check failed)")
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

/// Live clause ids sharing one literal-set fingerprint. Almost every
/// bucket holds exactly one id, so the first lives inline and only
/// genuine duplicates (or collisions) allocate.
struct Bucket {
    first: u32,
    rest: Vec<u32>,
}

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

/// An incremental RUP proof checker.
#[derive(Default)]
pub struct Checker {
    /// Flat literal arena; clauses index into it.
    lits: Vec<Lit>,
    clauses: Vec<ClauseMeta>,
    /// Literal-set fingerprint → live clause ids, for `Delete`
    /// matching. Matches are verified against the actual literals, so
    /// a fingerprint collision can never delete the wrong clause.
    by_key: HashMap<u64, Bucket, FpBuild>,
    /// Reusable normalization buffer (sort + dedup scratch).
    scratch: Vec<Lit>,
    /// Two-watched-literal scheme, indexed by `Lit::index()`.
    watches: Vec<Vec<u32>>,
    /// Assignment per variable: 0 undef, 1 true, -1 false.
    assign: Vec<i8>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Set once the database is contradictory; never cleared.
    contradiction: bool,
    /// Clause id of the most recent `Derived` clause, if any. Stored as
    /// an id (the literal set lives in the arena) so the per-step cost
    /// is a register write; [`Checker::take_conclusion`] materializes
    /// it once per goal.
    last_derived: Option<u32>,
    steps: u64,
    /// When set, a hinted step whose hinted walk fails is rejected
    /// outright instead of falling back to full RUP (see
    /// [`Checker::set_strict_hints`]).
    strict_hints: bool,
    /// Hinted steps whose antecedent walk succeeded.
    hinted_ok: u64,
    /// Hinted steps that fell back to full RUP (lenient mode only).
    hint_fallbacks: u64,
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
                // propagation chain — far cheaper than watch-driven
                // RUP, and sound by construction: every literal it
                // assigns is forced by the negated clause plus live
                // database clauses, so reaching a falsified clause is a
                // genuine implication regardless of where the hints
                // came from. A failed walk therefore only ever costs
                // acceptance: lenient checking falls back to full RUP
                // (absent-or-wrong hints change nothing), strict
                // checking treats it as tamper evidence and rejects.
                let ok = if hints.is_empty() {
                    self.rup(lits)
                } else if self.hinted_rup(lits, hints) {
                    self.hinted_ok += 1;
                    true
                } else if self.strict_hints {
                    false
                } else {
                    self.hint_fallbacks += 1;
                    self.rup(lits)
                };
                if !ok {
                    return Err(CheckError::NotImplied { step: idx });
                }
                let cid = self.add(lits);
                self.last_derived = Some(cid);
                Ok(())
            }
            StepKind::Delete => self.delete(lits, idx),
        }
    }

    /// In strict mode, a hinted step must check by its hinted walk
    /// alone — a wrong hint rejects the certificate instead of falling
    /// back to full RUP. Default: lenient (fall back), so hints can
    /// never make a previously-accepted certificate fail.
    pub fn set_strict_hints(&mut self, on: bool) {
        self.strict_hints = on;
    }

    /// `(hinted steps verified by their walk, hinted steps that fell
    /// back to full RUP)` so far.
    pub fn hint_stats(&self) -> (u64, u64) {
        (self.hinted_ok, self.hint_fallbacks)
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
        // The arena stores the clause deduped but watch handling may
        // have permuted it; re-sort the copy so callers get the same
        // normalized form as before.
        let mut lits = self.lits[self.clauses[cid as usize].range()].to_vec();
        lits.sort_unstable();
        Some(lits)
    }

    // ------------------------------------------------------------------
    // Database
    // ------------------------------------------------------------------

    fn ensure_capacity(&mut self, lits: &[Lit]) {
        let mut max_var = 0usize;
        for l in lits {
            max_var = max_var.max(l.var().index() + 1);
        }
        if self.assign.len() < max_var {
            self.assign.resize(max_var, 0);
            self.watches.resize(max_var * 2, Vec::new());
        }
    }

    /// Adds a clause persistently (no implication check — callers check
    /// `Derived` clauses first). Satisfied and tautological clauses are
    /// stored inert (matchable by `Delete`, never propagating); unit
    /// clauses propagate persistently.
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

    fn add(&mut self, lits_in: &[Lit]) -> u32 {
        let norm = self.normalize(lits_in);
        let taut = norm.windows(2).any(|w| w[1] == !w[0]);
        self.ensure_capacity(&norm);
        let cid = self.clauses.len() as u32;
        let start = self.lits.len();
        self.lits.extend_from_slice(&norm);
        self.clauses.push(ClauseMeta::new(start, norm.len()));
        match self.by_key.entry(fp_lits(&norm)) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Bucket { first: cid, rest: Vec::new() });
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                e.into_mut().rest.push(cid);
            }
        }
        if taut || self.contradiction {
            self.scratch = norm;
            return cid;
        }
        // One scan: bail if satisfied by persistent facts (stored
        // inert), else record the first two non-false positions.
        let mut non_false = [0usize; 2];
        let mut found = 0usize;
        for (i, &l) in norm.iter().enumerate() {
            match value_of(&self.assign, l) {
                1 => {
                    self.scratch = norm; // satisfied: inert
                    return cid;
                }
                -1 => {}
                _ => {
                    if found < 2 {
                        non_false[found] = i;
                        found += 1;
                    }
                }
            }
        }
        let unit = norm.get(non_false[0]).copied();
        self.scratch = norm;
        match found {
            0 => self.contradiction = true, // includes the empty clause
            1 => {
                self.enqueue(unit.expect("non-empty clause"));
                if self.propagate() {
                    self.contradiction = true;
                }
            }
            _ => {
                // Watch two non-false literals (swapped into slots 0, 1).
                let r = self.clauses[cid as usize].range();
                let lits = &mut self.lits[r];
                lits.swap(0, non_false[0]);
                let second = (1..lits.len())
                    .find(|&i| value_of(&self.assign, lits[i]) != -1)
                    .expect("second non-false literal");
                lits.swap(1, second);
                let (w0, w1) = (lits[0], lits[1]);
                self.watches[w0.index()].push(cid);
                self.watches[w1.index()].push(cid);
            }
        }
        cid
    }

    fn delete(&mut self, lits_in: &[Lit], step: usize) -> Result<(), CheckError> {
        let norm = self.normalize(lits_in);
        let key = fp_lits(&norm);
        let mut deleted: Option<u32> = None;
        let mut emptied = false;
        if let Some(bucket) = self.by_key.get_mut(&key) {
            // Verify the literal set exactly within the bucket (watch
            // handling permutes stored clauses, so compare as sets —
            // both sides are deduped, so length + membership suffices).
            let matches = |meta: ClauseMeta, lits: &[Lit]| same_set(&lits[meta.range()], &norm);
            // Most-recent first, mirroring the old LIFO pop.
            for i in (0..bucket.rest.len()).rev() {
                if matches(self.clauses[bucket.rest[i] as usize], &self.lits) {
                    deleted = Some(bucket.rest.swap_remove(i));
                    break;
                }
            }
            if deleted.is_none() && matches(self.clauses[bucket.first as usize], &self.lits) {
                deleted = Some(bucket.first);
                match bucket.rest.pop() {
                    Some(next) => bucket.first = next,
                    None => emptied = true,
                }
            }
        }
        if emptied {
            self.by_key.remove(&key);
        }
        self.scratch = norm;
        let Some(cid) = deleted else {
            return Err(CheckError::DeleteMissing { step });
        };
        self.clauses[cid as usize].delete();
        // Watch lists drop deleted clauses lazily in propagate; persistent
        // facts already derived stay in force (drat-trim convention).
        Ok(())
    }

    /// A live clause with the literal set of the deleted clause `dead`,
    /// if any. A solver may hold two clauses with one literal set and
    /// delete one of them; `delete` matches by literal set, so it may
    /// have dropped the id a later hint names while its twin lives on.
    /// The twin serves the hinted walk as well: the walk reads only the
    /// clause's literals.
    fn live_twin(&mut self, dead: ClauseMeta) -> Option<ClauseMeta> {
        let mut norm = std::mem::take(&mut self.scratch);
        norm.clear();
        norm.extend_from_slice(&self.lits[dead.range()]);
        norm.sort_unstable();
        let twin = self.by_key.get(&fp_lits(&norm)).and_then(|bucket| {
            std::iter::once(bucket.first)
                .chain(bucket.rest.iter().copied())
                .map(|cid| self.clauses[cid as usize])
                .find(|meta| same_set(&self.lits[meta.range()], &norm))
        });
        self.scratch = norm;
        twin
    }

    // ------------------------------------------------------------------
    // Propagation and RUP
    // ------------------------------------------------------------------

    #[inline]
    fn value(&self, l: Lit) -> i8 {
        value_of(&self.assign, l)
    }

    fn enqueue(&mut self, l: Lit) {
        self.assign[l.var().index()] = if l.is_neg() { -1 } else { 1 };
        self.trail.push(l);
    }

    /// Propagates to fixpoint from `qhead`. Returns `true` on conflict
    /// (an all-false clause).
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            let mut conflict = false;
            while i < ws.len() {
                let cid = ws[i] as usize;
                if self.clauses[cid].deleted() {
                    ws.swap_remove(i);
                    continue;
                }
                let r = self.clauses[cid].range();
                let (first, relocated) = {
                    let lits = &mut self.lits[r];
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                    let first = lits[0];
                    if value_of(&self.assign, first) == 1 {
                        (first, None)
                    } else {
                        let mut moved = None;
                        for k in 2..lits.len() {
                            if value_of(&self.assign, lits[k]) != -1 {
                                lits.swap(1, k);
                                moved = Some(lits[1]);
                                break;
                            }
                        }
                        (first, moved)
                    }
                };
                if self.value(first) == 1 {
                    i += 1;
                    continue;
                }
                if let Some(new_watch) = relocated {
                    self.watches[new_watch.index()].push(ws[i] as u32);
                    ws.swap_remove(i);
                    continue;
                }
                match self.value(first) {
                    0 => {
                        self.enqueue(first);
                        i += 1;
                    }
                    _ => {
                        conflict = true;
                        break;
                    }
                }
            }
            self.watches[false_lit.index()] = ws;
            if conflict {
                return true;
            }
        }
        false
    }

    /// Reverse-unit-propagation check: is `lits` implied by the current
    /// database? Temporary assignments are undone before returning.
    fn rup(&mut self, lits: &[Lit]) -> bool {
        if self.contradiction {
            return true;
        }
        self.ensure_capacity(lits);
        let checkpoint = self.trail.len();
        debug_assert_eq!(self.qhead, checkpoint);
        let mut implied = false;
        for &l in lits {
            match self.value(l) {
                // Satisfied under the forced assignment (also covers
                // tautologies: the earlier negation-enqueue of the
                // complementary literal makes this one true).
                1 => {
                    implied = true;
                    break;
                }
                -1 => {}
                _ => self.enqueue(!l),
            }
        }
        if !implied {
            // If every literal was already false, no new assignment was
            // made and propagation cannot surface a fresh conflict; that
            // state only arises from a contradictory database, which the
            // contradiction flag already covers. Reject (sound side).
            implied = self.trail.len() > checkpoint && self.propagate();
        }
        for i in checkpoint..self.trail.len() {
            self.assign[self.trail[i].var().index()] = 0;
        }
        self.trail.truncate(checkpoint);
        self.qhead = checkpoint;
        implied
    }

    /// LRAT-style hinted implication check: assert the negation of
    /// `lits`, then walk `hints` in order — each named clause should be
    /// unit (assign its last free literal) or falsified (conflict:
    /// implication established). Hints naming out-of-range or deleted
    /// clauses end the walk unsuccessfully; hints that are satisfied or
    /// leave two literals free are skipped. Every assignment made is
    /// forced by the negated clause and live database clauses, so a
    /// `true` return is a sound implication no matter what the hints
    /// were; `false` only means "not established by this walk".
    /// Temporary assignments are undone before returning.
    fn hinted_rup(&mut self, lits: &[Lit], hints: &[u32]) -> bool {
        if self.contradiction {
            return true;
        }
        self.ensure_capacity(lits);
        let checkpoint = self.trail.len();
        debug_assert_eq!(self.qhead, checkpoint);
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
                let meta = if meta.deleted() {
                    match self.live_twin(meta) {
                        Some(twin) => twin,
                        None => break,
                    }
                } else {
                    meta
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
        self.qhead = checkpoint;
        implied
    }
}

/// Whether a stored clause holds exactly the literals of `norm`. Both
/// sides are deduped, so length plus membership suffices.
fn same_set(stored: &[Lit], norm: &[Lit]) -> bool {
    stored.len() == norm.len() && norm.iter().all(|l| stored.contains(l))
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
