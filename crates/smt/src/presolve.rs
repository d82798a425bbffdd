//! Word-level presolve: one pass that shrinks `(assumptions, goal)`
//! queries *before* normalization and bit-blasting.
//!
//! The smart constructors in [`crate::build`] only see one node at a
//! time, so a global fact implied by the assumption base — a range bound
//! on a variable, an assumption restated inside the goal — is otherwise
//! rediscovered bit-by-bit inside CDCL. This module applies four rules
//! on the hash-consed term DAG, each of which fires on the benchmark's
//! workloads (DESIGN.md, "Which presolve rule answers"):
//!
//! 1. **Narrowing** — a variable an assumption `v < c` bounds below
//!    `2^k` is replaced by `zext` of a fresh `k`-bit variable, so the
//!    blaster allocates that many fewer SAT variables; an `ult` or `=` of
//!    the `zext` against a constant then decides on the short variable
//!    alone. The recorded *bindings* re-derive the original variables
//!    when a countermodel comes back.
//! 2. **Known-bits / interval dataflow** — a forward abstract
//!    interpretation computing, per term, a known-zero mask, a known-one
//!    mask, and an unsigned range `[lo, hi]`, from constants and the
//!    structure of `&`, `|`, `+`, `<<`, `zext` and `ite`. Variables are
//!    ⊤, so an `ult` the ranges decide folds to a constant in every
//!    model, and so does a term with one possible value.
//! 3. **Structural equality** — equalities of `ite` spines are split
//!    where an aligned branch pair folds, which removes whole mux
//!    networks from refinement goals (see `Rewriter::eq_deep`).
//! 4. **Fact folding** — an *interior* occurrence of a surviving
//!    assumption root elsewhere in the query folds to `true`.
//!
//! The base is presolved in one pass: a second pass over its result
//! changed nothing on any workload, so there is no fixpoint loop.
//!
//! # Soundness
//!
//! Every rewrite is justified by roots that remain asserted (or by
//! recorded bindings): in any model of the simplified query, evaluating
//! the bindings extends the model to one of the original query, and
//! conversely every original model, with each fresh variable set to the
//! low bits of the variable it narrows, satisfies the simplified query.
//! Two rules keep the justification non-circular:
//!
//! - a surviving assumption root is never fact- or dataflow-folded *at
//!   its own top node* (`Rewriter::rewrite_root` vs. the interior
//!   rewriter), so a root can never delete its own source;
//! - fact folding matches the *pre-rewrite* id of an interior subterm,
//!   and a strict subterm of a hash-consed term can never equal the
//!   term itself, so a root cannot fold to `true` through its own entry.

use crate::build;
use crate::bv::SBool;
use crate::model::Model;
use crate::term::{mask, with_ctx, Children, Op, Sort, TermId};
use std::collections::{HashMap, HashSet};

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
/// narrowing and fact environment needed to simplify goals phrased over
/// the same assumptions and to complete countermodels.
#[derive(Debug, Default)]
pub struct BaseSimp {
    /// Surviving assumption roots, simplified and deduplicated.
    pub roots: Vec<SBool>,
    /// `var := zext(fresh)` bindings of the narrowed variables, in order
    /// of the roots that bound them (a few per base); the rewriter
    /// substitutes them, and [`complete_model`] evaluates them.
    pub bindings: Vec<(TermId, TermId)>,
    /// Root ids asserted true (the surviving roots).
    facts: HashSet<TermId>,
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
    /// A violated `lo ≤ hi` means the term has no value in any model of
    /// the base; clamping to a singleton keeps later folds well-defined
    /// (and vacuously sound).
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
}

fn fetch(t: TermId) -> (Op, Children, Sort) {
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

/// Every variable `v` a root `ult(v, k)` bounds, with its largest
/// possible value, in order of first mention: the fresh narrow variables
/// are created in this order, so a base presolves to the same terms in
/// every run. (No workload bounds a variable by `ule`, a negated
/// comparison or an alignment mask.)
fn harvest_bounds(roots: &[TermId]) -> Vec<(TermId, u128)> {
    let mut bounds: Vec<(TermId, u128)> = Vec::new();
    for &r in roots {
        let (op, ch, _) = fetch(r);
        if op != Op::Ult || !is_var(ch[0]) {
            continue;
        }
        let Some(k) = build::as_bv_const(ch[1]).filter(|&k| k > 0) else {
            continue;
        };
        match bounds.iter_mut().find(|(v, _)| *v == ch[0]) {
            Some((_, hi)) => *hi = (*hi).min(k - 1),
            None => bounds.push((ch[0], k - 1)),
        }
    }
    bounds
}

/// Abstract value of a bitvector node of width `w` from the values of
/// its children (all present in `abs`). Operators without a transfer
/// function here are ⊤: giving the others one changes no workload's
/// presolve result (DESIGN.md, "Which presolve rule answers").
fn transfer(op: &Op, children: &[TermId], w: u32, abs: &HashMap<TermId, Abs>) -> Abs {
    let ch = |i: usize| abs[&children[i]];
    let m = mask(w, u128::MAX);
    match *op {
        Op::BvConst(v) => Abs::constant(w, v),
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
        Op::BvAdd => {
            let (a, b) = (ch(0), ch(1));
            match (a.lo.checked_add(b.lo), a.hi.checked_add(b.hi)) {
                (Some(lo), Some(hi)) if hi <= m => Abs { zeros: 0, ones: 0, lo, hi },
                _ => Abs::top(w),
            }
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
        Op::ZeroExt => {
            let a = ch(0);
            Abs {
                zeros: a.zeros | !mask(build::width_of(children[0]), u128::MAX),
                ..a
            }
        }
        Op::IteBv => {
            let (t, e) = (ch(1), ch(2));
            Abs {
                zeros: t.zeros & e.zeros,
                ones: t.ones & e.ones,
                lo: t.lo.min(e.lo),
                hi: t.hi.max(e.hi),
            }
        }
        _ => Abs::top(w),
    }
}

/// `zext(x) < k` decides on the low bits alone: it is vacuous once `k`
/// exceeds every value of `x`, and otherwise compares `x` against `k` at
/// `x`'s width.
fn narrow_ult(a: TermId, b: TermId) -> Option<TermId> {
    let (x, k) = (as_zext(a)?, build::as_bv_const(b)?);
    let wx = build::width_of(x);
    Some(if k > mask(wx, u128::MAX) {
        build::bool_const(true)
    } else {
        build::ult(x, build::bv_const(wx, k))
    })
}

/// The rewriter: substitution, smart-constructor rebuild, fact folding
/// and known-bits/interval folding, memoized over the DAG. The
/// abstraction starts every variable at ⊤, so a dataflow fold holds in
/// every model and applies to roots and goals alike.
struct Rewriter<'a> {
    simp: &'a BaseSimp,
    memo: HashMap<TermId, TermId>,
    abs: HashMap<TermId, Abs>,
    eq_memo: HashMap<(TermId, TermId), TermId>,
}

impl<'a> Rewriter<'a> {
    fn new(simp: &'a BaseSimp) -> Rewriter<'a> {
        Rewriter {
            simp,
            memo: HashMap::new(),
            abs: HashMap::new(),
            eq_memo: HashMap::new(),
        }
    }

    /// Structural equality rewriting over `ite` spines and `zext`
    /// wrappers. Refinement-style goals equate two large mux trees that
    /// agree on most branches (untouched state), so descending the
    /// spines and cancelling equal branch pairs removes whole mux
    /// networks from the blasted cone. Purely equivalence-preserving —
    /// no fact or range reasoning. Memoized on unordered pairs; every
    /// recursion strictly descends one side (or strips a `zext`), so it
    /// terminates.
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
        if let (Some((c1, t1, e1)), Some((c2, t2, e2))) = (build::as_ite(a), build::as_ite(b)) {
            // Two muxes: case-split, but only when at least one aligned
            // branch pair folds to a constant — refinement goals equate
            // an implementation and a specification mux tree whose
            // aligned branches are syntactically equal, and the split
            // then dissolves both mux networks. Without a folding pair
            // the split would trade two muxes for four equalities, so
            // fall through instead.
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
        // Width narrowing: `zext(x) = k` decides on the low bits alone,
        // so the blaster encodes the short equality.
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
        build::eq(a, b)
    }

    /// Rebuilds one node from rewritten children: the smart constructor,
    /// plus the structural equality/comparison rules above.
    fn rebuild_smart(&mut self, op: &Op, ch: &[TermId], sort: Sort) -> TermId {
        match op {
            Op::Eq => self.eq_deep(ch[0], ch[1], EQ_FUEL),
            Op::Ult => narrow_ult(ch[0], ch[1]).unwrap_or_else(|| rebuild(op, ch, sort)),
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
            let a = transfer(&op, &children, w, &self.abs).norm(w);
            self.abs.insert(t, a);
            stack.pop();
        }
        self.abs[&root]
    }

    /// Folds a node the abstraction decides: an `ult` whose operand
    /// ranges do not overlap, or a bitvector term with a single possible
    /// value. Returns the (possibly unchanged) term.
    fn fold_by_ranges(&mut self, r: TermId) -> TermId {
        match build::sort_of(r) {
            Sort::Bool => {
                let (op, ch, _) = fetch(r);
                if op != Op::Ult {
                    return r;
                }
                let (a, b) = (self.abs_of(ch[0]), self.abs_of(ch[1]));
                if a.hi < b.lo {
                    build::bool_const(true)
                } else if a.lo >= b.hi {
                    build::bool_const(false)
                } else {
                    r
                }
            }
            // A singleton abstraction means the term is constant in
            // every model. Variables are exempt: they are
            // eliminated through *bindings* instead, so countermodels
            // keep an entry for them.
            Sort::BitVec(w) if build::as_bv_const(r).is_none() && !is_var(r) => {
                match self.abs_of(r).singleton(w) {
                    Some(v) => build::bv_const(w, v),
                    None => r,
                }
            }
            Sort::BitVec(_) => r,
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
            let (op, children, sort) = fetch(t);
            if matches!(op, Op::Var(_)) {
                match self.simp.bindings.iter().find(|b| b.0 == t) {
                    Some(&(_, def)) => match self.memo.get(&def) {
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
            let r = self.rebuild_smart(&op, &ch, sort);
            let r = self.fold_by_ranges(r);
            self.memo.insert(t, r);
            stack.pop();
        }
        self.memo[&root]
    }

    /// Root rewrite for a surviving assumption: children through the
    /// interior rewriter, the top rebuilt by its smart constructor only
    /// — no fact folding at the top node, so a root can never be
    /// deleted by the very fact it contributes. A root `¬B` is the
    /// negation of `B` rewritten as a root, which rewrites `B`'s
    /// children left to right like any other root's.
    fn rewrite_root(&mut self, t: TermId) -> TermId {
        let (op, children, sort) = fetch(t);
        match op {
            // A bare boolean variable is never narrowed.
            Op::Var(_) => t,
            Op::Not => build::not(self.rewrite_root(children[0])),
            _ => {
                let ch: Vec<TermId> = children.iter().map(|&c| self.rewrite(c)).collect();
                self.rebuild_smart(&op, &ch, sort)
            }
        }
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

/// Presolves a shared assumption set in one pass: narrows the variables
/// it bounds, then rewrites every root. The result is goal-independent,
/// so the engine computes it once per assumption set and reuses it
/// across every sub-query (and every session goal).
pub fn presolve_base(assumptions: &[SBool]) -> BaseSimp {
    let mut roots: Vec<TermId> = Vec::new();
    flatten(assumptions.iter().map(|a| a.0), &mut roots);
    let mut simp = BaseSimp { facts: roots.iter().copied().collect(), ..BaseSimp::default() };
    // A bounded wide variable becomes `zext` of a fresh short one. The
    // bounding roots stay, so the facts survive (and after substitution
    // most fold to `true` structurally).
    for (v, hi) in harvest_bounds(&roots) {
        let w = build::width_of(v);
        let need = 128 - hi.leading_zeros();
        if need >= 1 && need + NARROW_MIN_SAVING <= w {
            let narrow = with_ctx(|c| c.fresh_var(Sort::BitVec(need), "presolve_narrow"));
            let d = build::zext(w, narrow);
            simp.bindings.push((v, d));
        }
    }
    let mut rw = Rewriter::new(&simp);
    let rewritten: Vec<TermId> = roots.iter().map(|&r| rw.rewrite_root(r)).collect();
    roots.clear();
    flatten(rewritten.into_iter(), &mut roots);
    simp.facts = roots.iter().copied().collect();
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
    let mut rw = Rewriter::new(simp);
    std::mem::swap(&mut rw.memo, &mut cache.memo);
    std::mem::swap(&mut rw.abs, &mut cache.abs);
    std::mem::swap(&mut rw.eq_memo, &mut cache.eq_memo);
    let out = SBool(rw.rewrite(goal.0));
    std::mem::swap(&mut rw.memo, &mut cache.memo);
    std::mem::swap(&mut rw.abs, &mut cache.abs);
    std::mem::swap(&mut rw.eq_memo, &mut cache.eq_memo);
    out
}

/// Extends a countermodel of the simplified query to the original: each
/// narrowed variable takes the value of its `zext` binding. A binding
/// mentions only its fresh variable, so the order does not matter.
pub fn complete_model(m: &mut Model, bindings: &[(TermId, TermId)]) {
    for &(v, def) in bindings {
        let x = m.eval_bv(def);
        m.set_bv(v, x);
    }
}
