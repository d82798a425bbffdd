//! Word-level presolve: a fixpoint simplification pipeline that shrinks
//! `(assumptions, goal)` queries *before* normalization and bit-blasting.
//!
//! The smart constructors in [`crate::build`] only see one node at a
//! time, so every *global* fact implied by the assumption base — an
//! asserted equality, a range bound on a variable, a boolean assumption
//! deciding an `ite` arm — is otherwise rediscovered bit-by-bit inside
//! CDCL. This module runs three word-level passes to a fixpoint on the
//! hash-consed term DAG:
//!
//! 1. **Equality substitution** — `var = term` / `var = const`
//!    equalities harvested from the assumption conjunction are inlined
//!    through the goal and the remaining assumptions (occurs-checked, so
//!    cyclic equality chains like `x = y+1 ∧ y = x+1` are left alone).
//!    The defining roots are dropped; the recorded *bindings* re-derive
//!    the eliminated variables when a countermodel comes back.
//! 2. **Known-bits / interval dataflow** — a forward abstract
//!    interpretation computing, per term, a known-zero mask, a known-one
//!    mask, and an unsigned range `[lo, hi]`. Decided comparisons
//!    (`ult`/`ule`/`slt`/`sle`/`eq`) fold to constants, which collapses
//!    `ite`s whose conditions they feed; variables the base bounds to a
//!    small range are *narrowed* — replaced by `zext` of a fresh shorter
//!    variable, so the blaster allocates that many fewer SAT variables.
//! 3. **Assumption-guided constant propagation** — each surviving
//!    assumption root is a fact: any *interior* occurrence of it (or of
//!    its negation) elsewhere in the query folds to a constant. Bare
//!    boolean assumptions become `var := true/false` bindings.
//!
//! # Soundness
//!
//! Every rewrite is justified by roots that remain asserted (or by
//! recorded bindings): in any model of the simplified query, evaluating
//! the bindings in reverse order extends the model to one of the
//! original query, and conversely every original model satisfies the
//! simplified query. Two rules keep the justification non-circular:
//!
//! - a surviving assumption root is never fact- or dataflow-folded *at
//!   its own top node* ([`rewrite_root`] vs. the interior rewriter), so
//!   a range fact can never delete its own source — `ult(x, 8)` seeds
//!   `x ∈ [0, 7]` but must not then fold itself to `true`;
//! - fact folding matches the *pre-rewrite* id of an interior subterm,
//!   and a strict subterm of a hash-consed term can never equal the
//!   term itself, so a root cannot fold to `true` through its own entry.
//!
//! # Termination
//!
//! Each round substitutes, then rewrites bottom-up once (memoized). The
//! loop stops when a round changes neither the assumption root set nor
//! any binding, with a hard cap of [`MAX_ROUNDS`] as a backstop.
//! Harvesting strictly shrinks the set of unbound variables, narrowing
//! strictly shrinks a variable's width, and rewriting is a single pass,
//! so every round terminates.

use crate::build;
use crate::bv::SBool;
use crate::model::Model;
use crate::term::{mask, with_ctx, Op, Sort, TermId};
use std::collections::{HashMap, HashSet};

/// Fixpoint round cap; real workloads converge in 2–3 rounds.
const MAX_ROUNDS: usize = 8;

/// Minimum width saving (in bits) before a bounded variable is narrowed.
/// Narrowing below this saves too few SAT variables to pay for the
/// `zext` indirection in the term DAG.
const NARROW_MIN_SAVING: u32 = 4;

/// Recursion budget for the structural equality rewriter. Each step
/// strictly descends an `ite` spine (or strips a `zext`), so real chains
/// stay far below this; the cap is a stack-depth backstop.
const EQ_FUEL: u32 = 512;

/// DAG size of the term graph reachable from a set of roots.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Distinct term nodes.
    pub terms: usize,
    /// Distinct symbolic constants (variables) among them.
    pub vars: usize,
}

/// Counts distinct nodes and variables reachable from `roots`.
pub fn measure(roots: impl Iterator<Item = TermId>) -> Counts {
    let mut seen: HashSet<TermId> = HashSet::new();
    let mut stack: Vec<TermId> = roots.collect();
    let mut vars = 0usize;
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        with_ctx(|c| {
            let n = c.term(t);
            if matches!(n.op, Op::Var(_)) {
                vars += 1;
            }
            stack.extend(n.children.iter().copied());
        });
    }
    Counts { terms: seen.len(), vars }
}

/// The presolved shared assumption base: simplified roots plus the
/// substitution / fact / range environment needed to simplify goals
/// phrased over the same assumptions and to complete countermodels.
#[derive(Debug, Default)]
pub struct BaseSimp {
    /// Surviving assumption roots, simplified and deduplicated. A
    /// contradictory base collapses to a single constant-`false` root.
    pub roots: Vec<SBool>,
    /// Harvested `var := definition` bindings, in harvest order. A
    /// definition may reference variables bound *later* (or never), but
    /// not earlier ones, so reverse-order evaluation re-derives every
    /// eliminated variable from a model of the simplified query — see
    /// [`complete_model`].
    pub bindings: Vec<(TermId, TermId)>,
    /// Variable substitution map (same content as `bindings`).
    subst: HashMap<TermId, TermId>,
    /// Root ids asserted true (the surviving roots).
    facts: HashSet<TermId>,
    /// Ids whose negation is asserted (roots of shape `¬x`).
    neg_facts: HashSet<TermId>,
    /// Per-variable abstract seeds harvested from comparison roots.
    ranges: HashMap<TermId, Abs>,
}

/// Known-bits + unsigned-interval abstract value for one bitvector term.
#[derive(Clone, Copy, Debug)]
struct Abs {
    /// Bits known to be zero.
    zeros: u128,
    /// Bits known to be one.
    ones: u128,
    /// Unsigned lower bound.
    lo: u128,
    /// Unsigned upper bound.
    hi: u128,
}

impl Abs {
    fn top(w: u32) -> Abs {
        Abs {
            zeros: !mask(w, u128::MAX),
            ones: 0,
            lo: 0,
            hi: mask(w, u128::MAX),
        }
    }

    fn constant(w: u32, v: u128) -> Abs {
        let v = mask(w, v);
        Abs { zeros: !v, ones: v, lo: v, hi: v }
    }

    /// Restores the invariants `lo ≥ ones`, `hi ≤ ~zeros`, `lo ≤ hi`.
    /// A violated `lo ≤ hi` means the seeding facts are jointly
    /// unsatisfiable; clamping to a singleton keeps later folds
    /// well-defined (and vacuously sound — the base has no models).
    fn norm(mut self, w: u32) -> Abs {
        let m = mask(w, u128::MAX);
        self.ones &= m;
        self.zeros |= !m;
        self.lo = self.lo.max(self.ones);
        self.hi = self.hi.min(!self.zeros & m);
        if self.lo > self.hi {
            self.hi = self.lo;
        }
        self
    }

    /// The single possible value, if the abstraction pins one down.
    fn singleton(&self, w: u32) -> Option<u128> {
        if self.lo == self.hi {
            return Some(self.lo);
        }
        if self.zeros | self.ones == u128::MAX {
            return Some(mask(w, self.ones));
        }
        None
    }

    /// Sign bit (`true` = known negative), if known.
    fn sign(&self, w: u32) -> Option<bool> {
        let top = 1u128 << (w - 1);
        if self.ones & top != 0 {
            Some(true)
        } else if self.zeros & top != 0 {
            Some(false)
        } else {
            None
        }
    }
}

fn fetch(t: TermId) -> (Op, Vec<TermId>, Sort) {
    with_ctx(|c| {
        let n = c.term(t);
        (n.op.clone(), n.children.clone(), n.sort)
    })
}

fn is_var(t: TermId) -> bool {
    with_ctx(|c| matches!(c.term(t).op, Op::Var(_)))
}

/// The argument of a `zext`, if `t` is one.
fn as_zext(t: TermId) -> Option<TermId> {
    with_ctx(|c| {
        let n = c.term(t);
        matches!(n.op, Op::ZeroExt).then(|| n.children[0])
    })
}

/// The base and constant amount of a shift-left by a constant.
fn as_shl_const(t: TermId) -> Option<(TermId, u128)> {
    let (op, ch, _) = fetch(t);
    if matches!(op, Op::BvShl) {
        if let Some(k) = build::as_bv_const(ch[1]) {
            return Some((ch[0], k));
        }
    }
    None
}

/// Flattens the top-level `And` structure of each root into conjuncts,
/// dropping constant-`true` entries and duplicates.
fn flatten(roots: impl Iterator<Item = TermId>, out: &mut Vec<TermId>) {
    let mut present: HashSet<TermId> = out.iter().copied().collect();
    let mut stack: Vec<TermId> = roots.collect();
    stack.reverse();
    while let Some(t) = stack.pop() {
        let (op, children, _) = fetch(t);
        if matches!(op, Op::And) {
            for &ch in children.iter().rev() {
                stack.push(ch);
            }
        } else if !SBool(t).is_true() && present.insert(t) {
            out.push(t);
        }
    }
}

/// One abstract fact extracted from a comparison-shaped root.
enum Seed {
    Hi(TermId, u128),
    Lo(TermId, u128),
    Zeros(TermId, u128),
}

/// Seeds from one `ult`/`ule` atom (possibly under a negation, which
/// flips `ult(a,b)` into `ule(b,a)` and vice versa).
fn seed_cmp(op: &Op, a: TermId, b: TermId, negated: bool, out: &mut Vec<Seed>) {
    let (op, a, b) = if negated {
        match op {
            Op::Ult => (Op::Ule, b, a),
            Op::Ule => (Op::Ult, b, a),
            _ => return,
        }
    } else {
        (op.clone(), a, b)
    };
    if is_var(a) {
        if let Some(k) = build::as_bv_const(b) {
            match op {
                Op::Ult if k > 0 => out.push(Seed::Hi(a, k - 1)),
                Op::Ule => out.push(Seed::Hi(a, k)),
                _ => {}
            }
            return;
        }
    }
    if is_var(b) {
        if let Some(k) = build::as_bv_const(a) {
            match op {
                Op::Ult if k < u128::MAX => out.push(Seed::Lo(b, k + 1)),
                Op::Ule => out.push(Seed::Lo(b, k)),
                _ => {}
            }
        }
    }
}

/// Extracts abstract seeds from comparison-shaped roots: `ult(v, k)`,
/// `ule(k, v)`, their negations, and alignment facts `eq(v & m, 0)`.
fn harvest_ranges(roots: &[TermId]) -> HashMap<TermId, Abs> {
    let mut seeds: Vec<Seed> = Vec::new();
    for &r in roots {
        let (op, ch, _) = fetch(r);
        match op {
            Op::Ult | Op::Ule => seed_cmp(&op, ch[0], ch[1], false, &mut seeds),
            Op::Not => {
                let (iop, ich, _) = fetch(ch[0]);
                if matches!(iop, Op::Ult | Op::Ule) {
                    seed_cmp(&iop, ich[0], ich[1], true, &mut seeds);
                }
            }
            Op::Eq => {
                // eq(v & m, 0) pins the masked bits of v to zero.
                if build::as_bv_const(ch[1]) == Some(0) {
                    let (iop, ich, _) = fetch(ch[0]);
                    if matches!(iop, Op::BvAnd) && is_var(ich[0]) {
                        if let Some(m) = build::as_bv_const(ich[1]) {
                            seeds.push(Seed::Zeros(ich[0], m));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    let mut ranges: HashMap<TermId, Abs> = HashMap::new();
    for s in seeds {
        let v = match s {
            Seed::Hi(v, _) | Seed::Lo(v, _) | Seed::Zeros(v, _) => v,
        };
        let w = build::width_of(v);
        let a = ranges.entry(v).or_insert_with(|| Abs::top(w));
        match s {
            Seed::Hi(_, k) => a.hi = a.hi.min(k),
            Seed::Lo(_, k) => a.lo = a.lo.max(k),
            Seed::Zeros(_, m) => a.zeros |= m,
        }
        *a = a.norm(w);
    }
    ranges
}

/// The per-round rewriter: substitution + smart-constructor rebuild +
/// fact folding + known-bits/interval folding, memoized over the DAG.
struct Rewriter<'a> {
    simp: &'a BaseSimp,
    memo: HashMap<TermId, TermId>,
    abs: HashMap<TermId, Abs>,
    eq_memo: HashMap<(TermId, TermId), TermId>,
    /// Root mode disables every fold justified by the abstract ranges.
    /// Ranges are seeded *by* the roots, so a range fold inside the
    /// seeding root could delete the very constraint that justifies it
    /// (e.g. `eq(x & 3, 0)` seeds `x`'s zero bits, which would fold its
    /// own `x & 3` subterm to `0` and the root to `true`). Goal
    /// rewriting keeps them: the goal is not asserted, and all range
    /// sources stay asserted, so every fold is an equivalence under the
    /// base. Fact/negated-fact folds stay enabled in both modes — their
    /// justifying root is always a strictly smaller term, so chains of
    /// fact-justified drops are well-founded and never circular.
    root_mode: bool,
}

impl<'a> Rewriter<'a> {
    fn new(simp: &'a BaseSimp, root_mode: bool) -> Rewriter<'a> {
        Rewriter {
            simp,
            memo: HashMap::new(),
            abs: HashMap::new(),
            eq_memo: HashMap::new(),
            root_mode,
        }
    }

    /// Structural equality rewriting over `ite` spines and `zext`
    /// wrappers. Refinement-style goals equate two large mux trees that
    /// agree on most branches (untouched state), so descending the
    /// spines and cancelling equal branch pairs removes whole mux
    /// networks from the blasted cone. Purely equivalence-preserving —
    /// no fact or range reasoning — so it is safe in root mode too.
    /// Memoized on unordered pairs; every recursion strictly descends
    /// one side (or strips a `zext`), so it terminates.
    fn eq_deep(&mut self, a: TermId, b: TermId, fuel: u32) -> TermId {
        if a == b {
            return build::bool_const(true);
        }
        if fuel == 0 {
            return build::eq(a, b);
        }
        let key = (a.min(b), a.max(b));
        if let Some(&r) = self.eq_memo.get(&key) {
            return r;
        }
        let mut r = self.eq_deep_steps(key.0, key.1, fuel - 1);
        // Case splits pay off only when branches fold; a split that
        // grew the cone would hand the blaster *more* gates than the
        // plain equality, so size-guard the result.
        if build::as_bool_const(r).is_none() {
            let plain = build::eq(key.0, key.1);
            if measure([r].into_iter()).terms > measure([plain].into_iter()).terms {
                r = plain;
            }
        }
        self.eq_memo.insert(key, r);
        r
    }

    fn eq_deep_steps(&mut self, a: TermId, b: TermId, fuel: u32) -> TermId {
        let ia = build::as_ite(a);
        let ib = build::as_ite(b);
        if let (Some((c1, t1, e1)), Some((c2, t2, e2))) = (ia, ib) {
            // Same-condition muxes compare branchwise; equal branch
            // pairs (the common case) then cancel to `true`.
            if c1 == c2 {
                let tt = self.eq_deep(t1, t2, fuel);
                let ee = self.eq_deep(e1, e2, fuel);
                return build::ite_bool(c1, tt, ee);
            }
            // Different conditions: case-split, but only when at least
            // one aligned branch pair folds to a constant — refinement
            // goals equate an implementation and a specification mux
            // tree whose aligned branches are syntactically equal, and
            // the split then dissolves both mux networks. Without a
            // folding pair the split would trade two muxes for four
            // equalities, so fall through instead.
            let tt = self.eq_deep(t1, t2, fuel);
            let ee = self.eq_deep(e1, e2, fuel);
            if build::as_bool_const(tt).is_some() || build::as_bool_const(ee).is_some() {
                let te = self.eq_deep(t1, e2, fuel);
                let et = self.eq_deep(e1, t2, fuel);
                return build::ite_bool(
                    c1,
                    build::ite_bool(c2, tt, te),
                    build::ite_bool(c2, et, ee),
                );
            }
        }
        // One-sided: `ite(c, t, e) = b` splits when either branch
        // equality folds (the `t = b` / `e = b` cases fold to `true`;
        // disjoint constants fold to `false`), turning a wide mux +
        // equality into boolean structure over one smaller equality.
        for (x, y) in [(a, b), (b, a)] {
            if let Some((c, t, e)) = build::as_ite(x) {
                let pt = self.eq_deep(t, y, fuel);
                let pe = self.eq_deep(e, y, fuel);
                if build::as_bool_const(pt).is_some() || build::as_bool_const(pe).is_some() {
                    return build::ite_bool(c, pt, pe);
                }
            }
        }
        // Width narrowing: comparisons of zero-extended values decide on
        // the low bits alone, so the blaster encodes the short equality.
        if let (Some(ia), Some(ib)) = (as_zext(a), as_zext(b)) {
            if build::width_of(ia) == build::width_of(ib) {
                return self.eq_deep(ia, ib, fuel);
            }
        }
        for (x, y) in [(a, b), (b, a)] {
            if let (Some(ix), Some(k)) = (as_zext(x), build::as_bv_const(y)) {
                let wi = build::width_of(ix);
                return if k > mask(wi, u128::MAX) {
                    build::bool_const(false)
                } else {
                    self.eq_deep(ix, build::bv_const(wi, k), fuel)
                };
            }
        }
        // `x << k = c` fixes the low k bits of c to zero and compares
        // the surviving low part of x: it aligns scaled index
        // comparisons (`cur * 64 = i * 64`) with their unscaled
        // specification twins (`cur = i`).
        for (x, y) in [(a, b), (b, a)] {
            if let (Some((sx, sk)), Some(c)) = (as_shl_const(x), build::as_bv_const(y)) {
                let w = build::width_of(x);
                if sk > 0 && sk < w as u128 {
                    let k = sk as u32;
                    if c & mask(k, u128::MAX) != 0 {
                        return build::bool_const(false);
                    }
                    let lo = build::extract(w - 1 - k, 0, sx);
                    return self.eq_deep(lo, build::bv_const(w - k, c >> k), fuel);
                }
            }
        }
        build::eq(a, b)
    }

    /// Narrows `ult`/`ule` over zero-extended operands, mirroring the
    /// equality narrowing in [`Rewriter::eq_deep`].
    fn cmp_narrow(&mut self, strict: bool, a: TermId, b: TermId) -> Option<TermId> {
        let cmp = |x, y| if strict { build::ult(x, y) } else { build::ule(x, y) };
        if let (Some(ia), Some(ib)) = (as_zext(a), as_zext(b)) {
            if build::width_of(ia) == build::width_of(ib) {
                return Some(cmp(ia, ib));
            }
        }
        if let (Some(ia), Some(k)) = (as_zext(a), build::as_bv_const(b)) {
            let m = mask(build::width_of(ia), u128::MAX);
            // `zext(x) < k` is vacuous once `k` exceeds every value of x.
            let always = if strict { k > m } else { k >= m };
            return Some(if always {
                build::bool_const(true)
            } else {
                cmp(ia, build::bv_const(build::width_of(ia), k))
            });
        }
        if let (Some(k), Some(ib)) = (build::as_bv_const(a), as_zext(b)) {
            let m = mask(build::width_of(ib), u128::MAX);
            let never = if strict { k >= m } else { k > m };
            return Some(if never {
                build::bool_const(false)
            } else {
                cmp(build::bv_const(build::width_of(ib), k), ib)
            });
        }
        None
    }

    /// Rebuilds one node from rewritten children: the smart constructor,
    /// plus the structural equality/comparison rules above.
    fn rebuild_smart(&mut self, op: &Op, ch: &[TermId], sort: Sort) -> TermId {
        match op {
            Op::Eq => self.eq_deep(ch[0], ch[1], EQ_FUEL),
            Op::Ult | Op::Ule => self
                .cmp_narrow(matches!(op, Op::Ult), ch[0], ch[1])
                .unwrap_or_else(|| rebuild(op, ch, sort)),
            _ => rebuild(op, ch, sort),
        }
    }

    /// Abstract value of (already rewritten) bitvector term `t`.
    fn abs_of(&mut self, root: TermId) -> Abs {
        let mut stack = vec![root];
        while let Some(&t) = stack.last() {
            if self.abs.contains_key(&t) {
                stack.pop();
                continue;
            }
            let (op, children, sort) = fetch(t);
            let w = match sort {
                Sort::BitVec(w) => w,
                // Bool children (ite conditions) carry no abstraction.
                Sort::Bool => {
                    self.abs.insert(t, Abs::top(1));
                    stack.pop();
                    continue;
                }
            };
            let pending: Vec<TermId> = children
                .iter()
                .copied()
                .filter(|c| !self.abs.contains_key(c))
                .collect();
            if !pending.is_empty() {
                stack.extend(pending);
                continue;
            }
            let ch = |i: usize| self.abs[&children[i]];
            let m = mask(w, u128::MAX);
            let a = match op {
                Op::BvConst(v) => Abs::constant(w, v),
                Op::Var(_) => self
                    .simp
                    .ranges
                    .get(&t)
                    .copied()
                    .unwrap_or_else(|| Abs::top(w)),
                Op::BvAnd => {
                    let (a, b) = (ch(0), ch(1));
                    Abs {
                        zeros: a.zeros | b.zeros,
                        ones: a.ones & b.ones,
                        lo: 0,
                        hi: a.hi.min(b.hi),
                    }
                }
                Op::BvOr => {
                    let (a, b) = (ch(0), ch(1));
                    Abs {
                        zeros: a.zeros & b.zeros,
                        ones: a.ones | b.ones,
                        lo: a.lo.max(b.lo),
                        hi: m,
                    }
                }
                Op::BvXor => {
                    let (a, b) = (ch(0), ch(1));
                    Abs {
                        zeros: (a.zeros & b.zeros) | (a.ones & b.ones),
                        ones: (a.ones & b.zeros) | (a.zeros & b.ones),
                        lo: 0,
                        hi: m,
                    }
                }
                Op::BvNot => {
                    let a = ch(0);
                    Abs {
                        zeros: a.ones,
                        ones: a.zeros & m,
                        lo: !a.hi & m,
                        hi: !a.lo & m,
                    }
                }
                Op::BvAdd => {
                    let (a, b) = (ch(0), ch(1));
                    match (a.lo.checked_add(b.lo), a.hi.checked_add(b.hi)) {
                        (Some(lo), Some(hi)) if hi <= m => {
                            Abs { zeros: 0, ones: 0, lo, hi }
                        }
                        _ => Abs::top(w),
                    }
                }
                Op::BvSub => {
                    let (a, b) = (ch(0), ch(1));
                    if a.lo >= b.hi {
                        Abs {
                            zeros: 0,
                            ones: 0,
                            lo: a.lo - b.hi,
                            hi: a.hi - b.lo,
                        }
                    } else {
                        Abs::top(w)
                    }
                }
                Op::BvMul => {
                    let (a, b) = (ch(0), ch(1));
                    match (a.lo.checked_mul(b.lo), a.hi.checked_mul(b.hi)) {
                        (Some(lo), Some(hi)) if hi <= m => {
                            Abs { zeros: 0, ones: 0, lo, hi }
                        }
                        _ => Abs::top(w),
                    }
                }
                Op::BvUdiv => {
                    let (a, b) = (ch(0), ch(1));
                    if b.lo > 0 {
                        // Divisor can't be zero, so no all-ones case.
                        Abs {
                            zeros: 0,
                            ones: 0,
                            lo: a.lo / b.hi.max(1),
                            hi: a.hi / b.lo,
                        }
                    } else {
                        Abs::top(w)
                    }
                }
                Op::BvUrem => {
                    let (a, b) = (ch(0), ch(1));
                    let hi = if b.lo > 0 {
                        a.hi.min(b.hi - 1)
                    } else {
                        // A zero divisor yields the dividend.
                        a.hi.max(b.hi.saturating_sub(1))
                    };
                    Abs { zeros: 0, ones: 0, lo: 0, hi }
                }
                Op::BvShl => match ch(1).singleton(w) {
                    Some(k) if k < w as u128 => {
                        let a = ch(0);
                        let k = k as u32;
                        // Range shifts only transfer when neither bound
                        // loses bits (the shift is exact within width).
                        let sh = |v: u128| {
                            let s = v << k;
                            (s <= m && s >> k == v).then_some(s)
                        };
                        let (lo, hi) = match (sh(a.lo), sh(a.hi)) {
                            (Some(lo), Some(hi)) => (lo, hi),
                            _ => (0, m),
                        };
                        Abs {
                            zeros: (a.zeros << k) | mask(k, u128::MAX),
                            ones: (a.ones << k) & m,
                            lo,
                            hi,
                        }
                    }
                    _ => Abs::top(w),
                },
                Op::BvLshr => match ch(1).singleton(w) {
                    Some(k) if k < w as u128 => {
                        let a = ch(0);
                        let k = k as u32;
                        Abs {
                            zeros: (a.zeros >> k) | !(m >> k),
                            ones: a.ones >> k,
                            lo: a.lo >> k,
                            hi: a.hi >> k,
                        }
                    }
                    _ => Abs::top(w),
                },
                Op::ZeroExt => {
                    let a = ch(0);
                    let wi = build::width_of(children[0]);
                    Abs {
                        zeros: a.zeros | !mask(wi, u128::MAX),
                        ones: a.ones,
                        lo: a.lo,
                        hi: a.hi,
                    }
                }
                Op::SignExt => {
                    let a = ch(0);
                    let wi = build::width_of(children[0]);
                    match a.sign(wi) {
                        Some(false) => Abs {
                            zeros: a.zeros | !mask(wi, u128::MAX),
                            ones: a.ones,
                            lo: a.lo,
                            hi: a.hi,
                        },
                        Some(true) => Abs {
                            zeros: a.zeros & mask(wi, u128::MAX),
                            ones: a.ones | (m & !mask(wi, u128::MAX)),
                            lo: 0,
                            hi: m,
                        },
                        None => Abs {
                            zeros: a.zeros & mask(wi - 1, u128::MAX),
                            ones: a.ones & mask(wi - 1, u128::MAX),
                            lo: 0,
                            hi: m,
                        },
                    }
                }
                Op::Extract(_, lo) => {
                    let a = ch(0);
                    let em = mask(w, u128::MAX);
                    // A low extract whose source range already fits the
                    // extracted width keeps the range exactly.
                    let (rlo, rhi) = if lo == 0 && a.hi <= em {
                        (a.lo, a.hi)
                    } else {
                        (0, em)
                    };
                    Abs {
                        zeros: (a.zeros >> lo) & em | !em,
                        ones: (a.ones >> lo) & em,
                        lo: rlo,
                        hi: rhi,
                    }
                }
                Op::Concat => {
                    let (h, l) = (ch(0), ch(1));
                    let wl = build::width_of(children[1]);
                    Abs {
                        zeros: (h.zeros << wl) | (l.zeros & mask(wl, u128::MAX)),
                        ones: (h.ones << wl) | l.ones,
                        lo: (h.lo << wl) + l.lo,
                        hi: (h.hi << wl) + l.hi,
                    }
                }
                Op::IteBv => {
                    let (t1, e1) = (ch(1), ch(2));
                    Abs {
                        zeros: t1.zeros & e1.zeros,
                        ones: t1.ones & e1.ones,
                        lo: t1.lo.min(e1.lo),
                        hi: t1.hi.max(e1.hi),
                    }
                }
                _ => Abs::top(w),
            };
            self.abs.insert(t, a.norm(w));
            stack.pop();
        }
        self.abs[&root]
    }

    /// Folds a boolean term using the fact environment and, for
    /// comparisons, the abstract values of its operands. Returns the
    /// (possibly unchanged) term.
    fn fold_bool(&mut self, t: TermId) -> TermId {
        let (op, ch, _) = fetch(t);
        let decided = match op {
            Op::Ult => self.cmp_abs(ch[0], ch[1], false),
            Op::Ule => self.cmp_abs(ch[0], ch[1], true),
            Op::Slt => self.scmp_abs(ch[0], ch[1], false),
            Op::Sle => self.scmp_abs(ch[0], ch[1], true),
            Op::Eq if build::sort_of(ch[0]) != Sort::Bool => {
                let (a, b) = (self.abs_of(ch[0]), self.abs_of(ch[1]));
                if a.lo > b.hi || b.lo > a.hi || (a.ones & b.zeros) | (b.ones & a.zeros) != 0 {
                    Some(false)
                } else {
                    None
                }
            }
            _ => None,
        };
        match decided {
            Some(b) => SBool(build::bool_const(b)).0,
            None => t,
        }
    }

    /// Decides `a < b` (`or_eq` = `≤`) from unsigned ranges, if possible.
    fn cmp_abs(&mut self, a: TermId, b: TermId, or_eq: bool) -> Option<bool> {
        let (aa, ab) = (self.abs_of(a), self.abs_of(b));
        if if or_eq { aa.hi <= ab.lo } else { aa.hi < ab.lo } {
            return Some(true);
        }
        if if or_eq { aa.lo > ab.hi } else { aa.lo >= ab.hi } {
            return Some(false);
        }
        None
    }

    /// Signed comparison via known sign bits: decided outright when the
    /// signs differ, reduced to the unsigned range comparison when they
    /// agree (two's-complement order is monotone within one sign class).
    fn scmp_abs(&mut self, a: TermId, b: TermId, or_eq: bool) -> Option<bool> {
        let w = build::width_of(a);
        let (sa, sb) = (self.abs_of(a).sign(w), self.abs_of(b).sign(w));
        match (sa?, sb?) {
            (true, false) => Some(true),
            (false, true) => Some(false),
            _ => self.cmp_abs(a, b, or_eq),
        }
    }

    /// Interior rewrite: substitution, smart-constructor rebuild, fact
    /// folding (entry id), and dataflow folding. Memoized; iterative so
    /// deep obligation DAGs cannot overflow the stack.
    fn rewrite(&mut self, root: TermId) -> TermId {
        let mut stack = vec![root];
        while let Some(&t) = stack.last() {
            if self.memo.contains_key(&t) {
                stack.pop();
                continue;
            }
            // Fact folding on the *entry* id: a strict subterm can never
            // be its own enclosing root, so no root deletes itself here.
            if self.simp.facts.contains(&t) {
                self.memo.insert(t, build::bool_const(true));
                stack.pop();
                continue;
            }
            if self.simp.neg_facts.contains(&t) {
                self.memo.insert(t, build::bool_const(false));
                stack.pop();
                continue;
            }
            let (op, children, sort) = fetch(t);
            if matches!(op, Op::Var(_)) {
                match self.simp.subst.get(&t) {
                    Some(&def) => match self.memo.get(&def) {
                        Some(&d) => {
                            self.memo.insert(t, d);
                            stack.pop();
                        }
                        None => stack.push(def),
                    },
                    None => {
                        self.memo.insert(t, t);
                        stack.pop();
                    }
                }
                continue;
            }
            let pending: Vec<TermId> = children
                .iter()
                .copied()
                .filter(|c| !self.memo.contains_key(c))
                .collect();
            if !pending.is_empty() {
                stack.extend(pending);
                continue;
            }
            let ch: Vec<TermId> = children.iter().map(|c| self.memo[c]).collect();
            let mut r = self.rebuild_smart(&op, &ch, sort);
            if !self.root_mode {
                match build::sort_of(r) {
                    Sort::Bool => {
                        if build::as_bool_const(r).is_none() {
                            r = self.fold_bool(r);
                        }
                    }
                    Sort::BitVec(w) => {
                        // Singleton abstraction ⇒ the term is constant
                        // in every model of the base. Variables are
                        // exempt: they are eliminated through
                        // *bindings* instead, so countermodels keep an
                        // entry for them.
                        if build::as_bv_const(r).is_none() && !is_var(r) {
                            if let Some(v) = self.abs_of(r).singleton(w) {
                                r = build::bv_const(w, v);
                            }
                        }
                    }
                }
            }
            self.memo.insert(t, r);
            stack.pop();
        }
        self.memo[&root]
    }

    /// Root rewrite for a surviving assumption: children through the
    /// interior rewriter, the top rebuilt by its smart constructor only
    /// — no fact folding at the top node, so a root can never be
    /// deleted by the very fact it contributes. For a `¬B` root the
    /// protection extends one level down: the root contributes `B` to
    /// `neg_facts`, so `B`'s own top must not fold through that entry
    /// (it would turn `¬B` into `¬false = true` and silently drop the
    /// constraint). Deeper occurrences of `B` are fine — hash-consing
    /// makes a strict subterm of `B` distinct from `B`.
    fn rewrite_root(&mut self, t: TermId) -> TermId {
        let (op, children, sort) = fetch(t);
        if matches!(op, Op::Var(_)) {
            return match self.simp.subst.get(&t) {
                Some(&def) => self.rewrite(def),
                None => t,
            };
        }
        if matches!(op, Op::Not) {
            return build::not(self.rewrite_top_protected(children[0]));
        }
        let ch: Vec<TermId> = children.iter().map(|&c| self.rewrite(c)).collect();
        self.rebuild_smart(&op, &ch, sort)
    }

    /// Rewrites `t` without consulting the fact environment for `t`'s
    /// own id: children go through the interior rewriter, the top is
    /// rebuilt structurally. Bypasses the memo for the top node (a
    /// memoized interior rewrite of the same id may have fact-folded).
    fn rewrite_top_protected(&mut self, t: TermId) -> TermId {
        let (op, children, sort) = fetch(t);
        if matches!(op, Op::Var(_)) {
            return match self.simp.subst.get(&t) {
                Some(&def) => self.rewrite(def),
                None => t,
            };
        }
        let ch: Vec<TermId> = children.iter().map(|&c| self.rewrite(c)).collect();
        self.rebuild_smart(&op, &ch, sort)
    }
}

/// Re-applies the smart constructor for `op` to rewritten children.
fn rebuild(op: &Op, ch: &[TermId], sort: Sort) -> TermId {
    match op {
        Op::BoolConst(b) => build::bool_const(*b),
        Op::BvConst(v) => build::bv_const(sort.width(), *v),
        Op::Var(_) => unreachable!("vars handled by the rewriter"),
        Op::Not => build::not(ch[0]),
        Op::And => build::and(ch[0], ch[1]),
        Op::Or => build::or(ch[0], ch[1]),
        Op::Xor => build::xor(ch[0], ch[1]),
        Op::Iff => build::iff(ch[0], ch[1]),
        Op::IteBool => build::ite_bool(ch[0], ch[1], ch[2]),
        Op::Eq => build::eq(ch[0], ch[1]),
        Op::Ult => build::ult(ch[0], ch[1]),
        Op::Ule => build::ule(ch[0], ch[1]),
        Op::Slt => build::slt(ch[0], ch[1]),
        Op::Sle => build::sle(ch[0], ch[1]),
        Op::BvNot => build::bvnot(ch[0]),
        Op::BvNeg => build::bvneg(ch[0]),
        Op::BvAnd => build::bvand(ch[0], ch[1]),
        Op::BvOr => build::bvor(ch[0], ch[1]),
        Op::BvXor => build::bvxor(ch[0], ch[1]),
        Op::BvAdd => build::bvadd(ch[0], ch[1]),
        Op::BvSub => build::bvsub(ch[0], ch[1]),
        Op::BvMul => build::bvmul(ch[0], ch[1]),
        Op::BvUdiv => build::bvudiv(ch[0], ch[1]),
        Op::BvUrem => build::bvurem(ch[0], ch[1]),
        Op::BvShl => build::bvshl(ch[0], ch[1]),
        Op::BvLshr => build::bvlshr(ch[0], ch[1]),
        Op::BvAshr => build::bvashr(ch[0], ch[1]),
        Op::Concat => build::concat(ch[0], ch[1]),
        Op::Extract(hi, lo) => build::extract(*hi, *lo, ch[0]),
        Op::ZeroExt => build::zext(sort.width(), ch[0]),
        Op::SignExt => build::sext(sort.width(), ch[0]),
        Op::IteBv => build::ite_bv(ch[0], ch[1], ch[2]),
        Op::UfApply(uf) => build::uf_apply(*uf, ch),
    }
}

/// Whether variable `v` occurs in `def` once all current bindings are
/// resolved (the occurs check that keeps the substitution acyclic).
fn occurs(v: TermId, def: TermId, subst: &HashMap<TermId, TermId>) -> bool {
    let mut seen: HashSet<TermId> = HashSet::new();
    let mut stack = vec![def];
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        if t == v {
            return true;
        }
        let (op, children, _) = fetch(t);
        if matches!(op, Op::Var(_)) {
            if let Some(&d) = subst.get(&t) {
                stack.push(d);
            }
        } else {
            stack.extend(children);
        }
    }
    false
}

/// Presolves a shared assumption set to a fixpoint. The result is
/// goal-independent, so the engine computes it once per assumption set
/// and reuses it across every sub-query (and every session goal).
pub fn presolve_base(assumptions: &[SBool]) -> BaseSimp {
    let mut simp = BaseSimp::default();
    let mut roots: Vec<TermId> = Vec::new();
    flatten(assumptions.iter().map(|a| a.0), &mut roots);
    for round in 0..MAX_ROUNDS {
        // Refresh the fact/range environment for this round.
        simp.facts = roots.iter().copied().collect();
        simp.neg_facts = roots
            .iter()
            .filter_map(|&r| {
                let (op, ch, _) = fetch(r);
                matches!(op, Op::Not).then(|| ch[0])
            })
            .collect();
        simp.ranges = harvest_ranges(&roots);

        let mut changed = false;

        // Harvest: equalities, pinned booleans, singleton ranges, and
        // narrowable bounded variables become bindings.
        let mut kept: Vec<TermId> = Vec::with_capacity(roots.len());
        for &r in &roots {
            let (op, ch, _) = fetch(r);
            let bound = |simp: &BaseSimp, t: TermId| simp.subst.contains_key(&t);
            let mut harvested = false;
            match op {
                Op::Eq => {
                    for (v, d) in [(ch[0], ch[1]), (ch[1], ch[0])] {
                        if is_var(v) && !bound(&simp, v) && !occurs(v, d, &simp.subst) {
                            simp.bindings.push((v, d));
                            simp.subst.insert(v, d);
                            harvested = true;
                            break;
                        }
                    }
                }
                Op::Var(_) => {
                    if !bound(&simp, r) {
                        let d = build::bool_const(true);
                        simp.bindings.push((r, d));
                        simp.subst.insert(r, d);
                        harvested = true;
                    }
                }
                Op::Not if is_var(ch[0]) => {
                    if !bound(&simp, ch[0]) {
                        let d = build::bool_const(false);
                        simp.bindings.push((ch[0], d));
                        simp.subst.insert(ch[0], d);
                        harvested = true;
                    }
                }
                _ => {}
            }
            if harvested {
                changed = true;
            } else {
                kept.push(r);
            }
        }

        // Singleton-range variables become constant bindings; bounded
        // wide variables are narrowed to `zext` of a fresh short one.
        // The seeding roots stay in `kept`, so the facts survive (and
        // after substitution most fold to `true` structurally).
        let seeded: Vec<(TermId, Abs)> = simp
            .ranges
            .iter()
            .map(|(&v, &a)| (v, a))
            .collect();
        for (v, a) in seeded {
            if simp.subst.contains_key(&v) {
                continue;
            }
            let w = build::width_of(v);
            if let Some(val) = a.singleton(w) {
                let d = build::bv_const(w, val);
                simp.bindings.push((v, d));
                simp.subst.insert(v, d);
                changed = true;
                continue;
            }
            let need = 128 - a.hi.leading_zeros();
            if need >= 1 && need + NARROW_MIN_SAVING <= w {
                let narrow = with_ctx(|c| c.fresh_var(Sort::BitVec(need), "presolve_narrow"));
                let d = build::zext(w, narrow);
                simp.bindings.push((v, d));
                simp.subst.insert(v, d);
                changed = true;
            }
        }

        // Rewrite the surviving roots under the updated environment
        // (root mode: no range-justified folds — see `Rewriter`).
        let mut rw = Rewriter::new(&simp, true);
        let rewritten: Vec<TermId> = kept.iter().map(|&r| rw.rewrite_root(r)).collect();
        let mut next: Vec<TermId> = Vec::with_capacity(rewritten.len());
        flatten(rewritten.into_iter(), &mut next);
        changed |= next != roots;
        if next.iter().any(|&r| SBool(r).is_false()) {
            // Contradictory base: collapse to the canonical UNSAT form.
            roots = vec![build::bool_const(false)];
            changed = false;
        } else {
            roots = next;
        }
        if !changed || round + 1 == MAX_ROUNDS {
            break;
        }
    }
    simp.facts = roots.iter().copied().collect();
    simp.neg_facts = roots
        .iter()
        .filter_map(|&r| {
            let (op, ch, _) = fetch(r);
            matches!(op, Op::Not).then(|| ch[0])
        })
        .collect();
    simp.ranges = harvest_ranges(&roots);
    simp.roots = roots.into_iter().map(SBool).collect();
    simp
}

/// Reusable per-base simplification state: the rewrite memo, the
/// abstract values, and the structural-equality memo. Goals of one base
/// share large term cones, so carrying these maps across goals avoids
/// re-deriving the abstraction and rewrites of the shared cone per goal.
#[derive(Debug, Default)]
pub struct GoalCache {
    memo: HashMap<TermId, TermId>,
    abs: HashMap<TermId, Abs>,
    eq_memo: HashMap<(TermId, TermId), TermId>,
}

/// Simplifies one goal under a presolved base: substitution, fact
/// folding, dataflow folding, and structural equality rewriting. The
/// cache must only ever be used with the `simp` it was first used with.
pub fn simplify_goal_cached(simp: &BaseSimp, goal: SBool, cache: &mut GoalCache) -> SBool {
    let mut rw = Rewriter::new(simp, false);
    std::mem::swap(&mut rw.memo, &mut cache.memo);
    std::mem::swap(&mut rw.abs, &mut cache.abs);
    std::mem::swap(&mut rw.eq_memo, &mut cache.eq_memo);
    let out = SBool(rw.rewrite(goal.0));
    std::mem::swap(&mut rw.memo, &mut cache.memo);
    std::mem::swap(&mut rw.abs, &mut cache.abs);
    std::mem::swap(&mut rw.eq_memo, &mut cache.eq_memo);
    out
}

/// [`simplify_goal_cached`] without a persistent cache.
pub fn simplify_goal(simp: &BaseSimp, goal: SBool) -> SBool {
    simplify_goal_cached(simp, goal, &mut GoalCache::default())
}

/// Extends a countermodel of the simplified query to the original:
/// evaluates the bindings in reverse harvest order (a definition may
/// reference variables bound later, never earlier) and assigns each
/// eliminated variable its derived value.
pub fn complete_model(m: &mut Model, bindings: &[(TermId, TermId)]) {
    for &(v, def) in bindings.iter().rev() {
        match build::sort_of(v) {
            Sort::Bool => {
                let b = m.eval_bool(def);
                m.set_bool(v, b);
            }
            Sort::BitVec(_) => {
                let x = m.eval_bv(def);
                m.set_bv(v, x);
            }
        }
    }
}
