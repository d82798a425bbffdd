//! Smart constructors with simplification.
//!
//! Every constructor folds constants and applies local rewrite rules before
//! interning, mirroring Rosette's partial evaluation: symbolic evaluation of
//! machine code with concrete operands stays entirely concrete, and the
//! residual terms handed to the bit-blaster are small and canonical.
//!
//! Canonical forms maintained here (relied on by `serval-core`'s symbolic
//! optimizations, which pattern-match term structure):
//!
//! - constants appear as the *right* child of commutative operators;
//! - chained additions of constants are gathered: `(x + c1) + c2 → x + c`;
//! - subtraction of a constant is an addition: `x - c → x + (-c)`;
//! - `ite` conditions are never negations: `ite(!c, t, e) → ite(c, e, t)`.

use crate::semantics;
use crate::term::{mask, with_ctx, Op, Sort, TermId, UfId};

fn intern(op: Op, children: &[TermId], sort: Sort) -> TermId {
    with_ctx(|c| c.intern(op, children, sort))
}

/// The sort of `t`.
pub fn sort_of(t: TermId) -> Sort {
    with_ctx(|c| c.sort(t))
}

/// The width of bitvector term `t`.
pub fn width_of(t: TermId) -> u32 {
    sort_of(t).width()
}

/// The constant value of `t`, if `t` is a bitvector constant.
pub fn as_bv_const(t: TermId) -> Option<u128> {
    with_ctx(|c| match c.term(t).op {
        Op::BvConst(v) => Some(v),
        _ => None,
    })
}

/// The constant value of `t`, if `t` is a boolean constant.
pub fn as_bool_const(t: TermId) -> Option<bool> {
    with_ctx(|c| match c.term(t).op {
        Op::BoolConst(b) => Some(b),
        _ => None,
    })
}

/// Decomposes `t` as `ite(cond, then, else)` over either sort.
pub fn as_ite(t: TermId) -> Option<(TermId, TermId, TermId)> {
    with_ctx(|c| {
        let n = c.term(t);
        match n.op {
            Op::IteBv | Op::IteBool => Some((n.children[0], n.children[1], n.children[2])),
            _ => None,
        }
    })
}

/// Decomposes `t` as `a + b`.
pub fn as_add(t: TermId) -> Option<(TermId, TermId)> {
    with_ctx(|c| {
        let n = c.term(t);
        match n.op {
            Op::BvAdd => Some((n.children[0], n.children[1])),
            _ => None,
        }
    })
}

/// Decomposes `t` as `a * b`.
pub fn as_mul(t: TermId) -> Option<(TermId, TermId)> {
    with_ctx(|c| {
        let n = c.term(t);
        match n.op {
            Op::BvMul => Some((n.children[0], n.children[1])),
            _ => None,
        }
    })
}

/// Decomposes `t` as `a urem b`.
pub fn as_urem(t: TermId) -> Option<(TermId, TermId)> {
    with_ctx(|c| {
        let n = c.term(t);
        match n.op {
            Op::BvUrem => Some((n.children[0], n.children[1])),
            _ => None,
        }
    })
}

// ---------------------------------------------------------------------
// Leaves
// ---------------------------------------------------------------------

/// Boolean constant term.
pub fn bool_const(b: bool) -> TermId {
    intern(Op::BoolConst(b), &[], Sort::Bool)
}

/// Bitvector constant term of width `w`.
pub fn bv_const(w: u32, v: u128) -> TermId {
    assert!((1..=128).contains(&w), "unsupported width {w}");
    intern(Op::BvConst(mask(w, v)), &[], Sort::BitVec(w))
}

/// Fresh symbolic boolean.
pub fn fresh_bool(name: &str) -> TermId {
    with_ctx(|c| c.fresh_var(Sort::Bool, name))
}

/// Fresh symbolic bitvector of width `w`.
pub fn fresh_bv(w: u32, name: &str) -> TermId {
    assert!((1..=128).contains(&w), "unsupported width {w}");
    with_ctx(|c| c.fresh_var(Sort::BitVec(w), name))
}

// ---------------------------------------------------------------------
// Boolean connectives
// ---------------------------------------------------------------------

/// Logical negation.
pub fn not(a: TermId) -> TermId {
    if let Some(b) = as_bool_const(a) {
        return bool_const(!b);
    }
    // not(not x) → x.
    let inner = with_ctx(|c| {
        let n = c.term(a);
        if n.op == Op::Not {
            Some(n.children[0])
        } else {
            None
        }
    });
    if let Some(x) = inner {
        return x;
    }
    intern(Op::Not, &[a], Sort::Bool)
}

/// Logical conjunction.
pub fn and(a: TermId, b: TermId) -> TermId {
    match (as_bool_const(a), as_bool_const(b)) {
        (Some(false), _) | (_, Some(false)) => return bool_const(false),
        (Some(true), _) => return b,
        (_, Some(true)) => return a,
        _ => {}
    }
    if a == b {
        return a;
    }
    if a == not(b) {
        return bool_const(false);
    }
    intern(Op::And, &sorted2(a, b), Sort::Bool)
}

/// Logical disjunction.
pub fn or(a: TermId, b: TermId) -> TermId {
    match (as_bool_const(a), as_bool_const(b)) {
        (Some(true), _) | (_, Some(true)) => return bool_const(true),
        (Some(false), _) => return b,
        (_, Some(false)) => return a,
        _ => {}
    }
    if a == b {
        return a;
    }
    if a == not(b) {
        return bool_const(true);
    }
    intern(Op::Or, &sorted2(a, b), Sort::Bool)
}

/// Exclusive or.
pub fn xor(a: TermId, b: TermId) -> TermId {
    match (as_bool_const(a), as_bool_const(b)) {
        (Some(x), Some(y)) => return bool_const(x ^ y),
        (Some(false), _) => return b,
        (_, Some(false)) => return a,
        (Some(true), _) => return not(b),
        (_, Some(true)) => return not(a),
        _ => {}
    }
    if a == b {
        return bool_const(false);
    }
    intern(Op::Xor, &sorted2(a, b), Sort::Bool)
}

/// Boolean equivalence.
pub fn iff(a: TermId, b: TermId) -> TermId {
    not(xor(a, b))
}

/// Implication `a → b`.
pub fn implies(a: TermId, b: TermId) -> TermId {
    or(not(a), b)
}

/// Boolean if-then-else.
pub fn ite_bool(c: TermId, t: TermId, e: TermId) -> TermId {
    if let Some(b) = as_bool_const(c) {
        return if b { t } else { e };
    }
    if t == e {
        return t;
    }
    // ite(c, true, e) → c ∨ e; ite(c, false, e) → ¬c ∧ e; etc.
    match (as_bool_const(t), as_bool_const(e)) {
        (Some(true), _) => return or(c, e),
        (Some(false), _) => return and(not(c), e),
        (_, Some(true)) => return or(not(c), t),
        (_, Some(false)) => return and(c, t),
        _ => {}
    }
    // ite(!c, t, e) → ite(c, e, t).
    let negated = with_ctx(|ctx| {
        let n = ctx.term(c);
        if n.op == Op::Not {
            Some(n.children[0])
        } else {
            None
        }
    });
    if let Some(c2) = negated {
        return ite_bool(c2, e, t);
    }
    intern(Op::IteBool, &[c, t, e], Sort::Bool)
}

// ---------------------------------------------------------------------
// Predicates
// ---------------------------------------------------------------------

/// Bitvector equality.
pub fn eq(a: TermId, b: TermId) -> TermId {
    debug_assert_eq!(sort_of(a), sort_of(b), "eq sort mismatch");
    if a == b {
        return bool_const(true);
    }
    let w = width_of(a);
    if let (Some(x), Some(y)) = (as_bv_const(a), as_bv_const(b)) {
        return bool_const(mask(w, x) == mask(w, y));
    }
    // eq(ite(c, k1, k2), k) with constants: resolves to c, !c, or false.
    // This rule makes `split_pc` feasibility checks concrete (paper §4).
    for (x, y) in [(a, b), (b, a)] {
        if let (Some((c, th, el)), Some(k)) = (as_ite(x), as_bv_const(y)) {
            if let (Some(k1), Some(k2)) = (as_bv_const(th), as_bv_const(el)) {
                return match (k1 == k, k2 == k) {
                    (true, true) => bool_const(true),
                    (true, false) => c,
                    (false, true) => not(c),
                    (false, false) => bool_const(false),
                };
            }
        }
    }
    // eq(x + c1, c2) → eq(x, c2 - c1): keeps offset comparisons canonical.
    for (x, y) in [(a, b), (b, a)] {
        if let (Some((base, off)), Some(k)) = (as_add(x), as_bv_const(y)) {
            if let Some(c1) = as_bv_const(off) {
                return eq(base, bv_const(w, k.wrapping_sub(c1)));
            }
        }
    }
    intern(Op::Eq, &sorted2(a, b), Sort::Bool)
}

/// Distinctness of two bitvectors.
pub fn ne(a: TermId, b: TermId) -> TermId {
    not(eq(a, b))
}

fn cmp(op: Op, a: TermId, b: TermId) -> TermId {
    debug_assert_eq!(sort_of(a), sort_of(b), "cmp sort mismatch");
    let w = width_of(a);
    if let (Some(x), Some(y)) = (as_bv_const(a), as_bv_const(b)) {
        return bool_const(semantics::cmp_const(&op, w, x, y));
    }
    if a == b {
        return bool_const(matches!(op, Op::Ule | Op::Sle));
    }
    // Bounds against extremes.
    match op {
        Op::Ult => {
            if as_bv_const(b) == Some(0) {
                return bool_const(false); // x < 0 unsigned
            }
            if as_bv_const(a) == Some(0) {
                return ne(a, b); // 0 < x  ⇔  x ≠ 0
            }
        }
        Op::Ule => {
            if as_bv_const(a) == Some(0) {
                return bool_const(true); // 0 <= x
            }
            if as_bv_const(b) == Some(mask(w, u128::MAX)) {
                return bool_const(true); // x <= max
            }
        }
        _ => {}
    }
    intern(op, &[a, b], Sort::Bool)
}

/// Unsigned less-than.
pub fn ult(a: TermId, b: TermId) -> TermId {
    cmp(Op::Ult, a, b)
}

/// Unsigned less-or-equal.
pub fn ule(a: TermId, b: TermId) -> TermId {
    cmp(Op::Ule, a, b)
}

/// Signed less-than.
pub fn slt(a: TermId, b: TermId) -> TermId {
    cmp(Op::Slt, a, b)
}

/// Signed less-or-equal.
pub fn sle(a: TermId, b: TermId) -> TermId {
    cmp(Op::Sle, a, b)
}

// ---------------------------------------------------------------------
// Bitvector operations
// ---------------------------------------------------------------------

fn bv_unop(op: Op, a: TermId) -> TermId {
    let w = width_of(a);
    if let Some(x) = as_bv_const(a) {
        return bv_const(w, semantics::unop_const(&op, w, x));
    }
    intern(op, &[a], Sort::BitVec(w))
}

/// Bitwise complement.
pub fn bvnot(a: TermId) -> TermId {
    // not(not x) → x.
    let inner = with_ctx(|c| {
        let n = c.term(a);
        if n.op == Op::BvNot {
            Some(n.children[0])
        } else {
            None
        }
    });
    if let Some(x) = inner {
        return x;
    }
    bv_unop(Op::BvNot, a)
}

/// Two's-complement negation.
pub fn bvneg(a: TermId) -> TermId {
    bv_unop(Op::BvNeg, a)
}

/// Addition (wrapping).
pub fn bvadd(a: TermId, b: TermId) -> TermId {
    debug_assert_eq!(sort_of(a), sort_of(b), "add sort mismatch");
    let w = width_of(a);
    match (as_bv_const(a), as_bv_const(b)) {
        (Some(x), Some(y)) => return bv_const(w, x.wrapping_add(y)),
        // Canonicalize: constant to the right.
        (Some(_), None) => return bvadd(b, a),
        (None, Some(0)) => return a,
        _ => {}
    }
    // (x + c1) + c2 → x + (c1 + c2); (x + c1) + y → (x + y) + c1.
    if let Some((base, off)) = as_add(a) {
        if let Some(c1) = as_bv_const(off) {
            if let Some(c2) = as_bv_const(b) {
                return bvadd(base, bv_const(w, c1.wrapping_add(c2)));
            }
            return bvadd(bvadd(base, b), off);
        }
    }
    if let Some((base, off)) = as_add(b) {
        if as_bv_const(off).is_some() && as_bv_const(b).is_none() {
            return bvadd(bvadd(a, base), off);
        }
    }
    intern(Op::BvAdd, &sorted2_keep_const_right(a, b), Sort::BitVec(w))
}

/// Subtraction (wrapping).
pub fn bvsub(a: TermId, b: TermId) -> TermId {
    debug_assert_eq!(sort_of(a), sort_of(b), "sub sort mismatch");
    let w = width_of(a);
    if a == b {
        return bv_const(w, 0);
    }
    if let Some(y) = as_bv_const(b) {
        // x - c → x + (-c): unifies offset arithmetic.
        return bvadd(a, bv_const(w, y.wrapping_neg()));
    }
    if let (Some(x), None) = (as_bv_const(a), as_bv_const(b)) {
        if x == 0 {
            return bvneg(b);
        }
    }
    intern(Op::BvSub, &[a, b], Sort::BitVec(w))
}

/// Multiplication (wrapping).
pub fn bvmul(a: TermId, b: TermId) -> TermId {
    debug_assert_eq!(sort_of(a), sort_of(b), "mul sort mismatch");
    let w = width_of(a);
    match (as_bv_const(a), as_bv_const(b)) {
        (Some(x), Some(y)) => return bv_const(w, x.wrapping_mul(y)),
        (Some(_), None) => return bvmul(b, a),
        (None, Some(0)) => return bv_const(w, 0),
        (None, Some(1)) => return a,
        _ => {}
    }
    intern(Op::BvMul, &sorted2_keep_const_right(a, b), Sort::BitVec(w))
}

fn bv_binop_raw(op: Op, a: TermId, b: TermId) -> TermId {
    debug_assert_eq!(sort_of(a), sort_of(b), "binop sort mismatch");
    let w = width_of(a);
    if let (Some(x), Some(y)) = (as_bv_const(a), as_bv_const(b)) {
        return bv_const(w, semantics::binop_const(&op, w, x, y));
    }
    intern(op, &[a, b], Sort::BitVec(w))
}

/// Bitwise and.
pub fn bvand(a: TermId, b: TermId) -> TermId {
    let w = width_of(a);
    match (as_bv_const(a), as_bv_const(b)) {
        (Some(_), None) => return bvand(b, a),
        (None, Some(0)) => return bv_const(w, 0),
        (None, Some(m)) if m == mask(w, u128::MAX) => return a,
        _ => {}
    }
    if a == b {
        return a;
    }
    bv_binop_raw(Op::BvAnd, a, b)
}

/// Bitwise or.
pub fn bvor(a: TermId, b: TermId) -> TermId {
    let w = width_of(a);
    match (as_bv_const(a), as_bv_const(b)) {
        (Some(_), None) => return bvor(b, a),
        (None, Some(0)) => return a,
        (None, Some(m)) if m == mask(w, u128::MAX) => return bv_const(w, m),
        _ => {}
    }
    if a == b {
        return a;
    }
    bv_binop_raw(Op::BvOr, a, b)
}

/// Bitwise xor.
pub fn bvxor(a: TermId, b: TermId) -> TermId {
    let w = width_of(a);
    match (as_bv_const(a), as_bv_const(b)) {
        (Some(_), None) => return bvxor(b, a),
        (None, Some(0)) => return a,
        _ => {}
    }
    if a == b {
        return bv_const(w, 0);
    }
    bv_binop_raw(Op::BvXor, a, b)
}

/// Unsigned division; division by zero yields all-ones (SMT-LIB semantics).
///
/// Constant divisors avoid the restoring `divrem_gate` entirely:
/// `x div 0` → all-ones, `x div 1` → `x`, `x div 2^k` → `x >> k`. (The
/// signed variants are derived from this one, so they inherit the
/// rewrites through the `|divisor|` path.)
pub fn bvudiv(a: TermId, b: TermId) -> TermId {
    let w = width_of(a);
    match as_bv_const(b) {
        Some(0) => return bv_const(w, u128::MAX),
        Some(1) => return a,
        Some(d) if d.is_power_of_two() => {
            return bvlshr(a, bv_const(w, d.trailing_zeros() as u128));
        }
        _ => {}
    }
    bv_binop_raw(Op::BvUdiv, a, b)
}

/// Unsigned remainder; remainder by zero yields the dividend.
///
/// Constant divisors fold like [`bvudiv`]: `x rem 0` → `x`,
/// `x rem 1` → `0`, `x rem 2^k` → `x & (2^k - 1)`.
pub fn bvurem(a: TermId, b: TermId) -> TermId {
    let w = width_of(a);
    match as_bv_const(b) {
        Some(0) => return a,
        Some(1) => return bv_const(w, 0),
        Some(d) if d.is_power_of_two() => {
            return bvand(a, bv_const(w, d - 1));
        }
        _ => {}
    }
    bv_binop_raw(Op::BvUrem, a, b)
}

/// Signed division, derived: SMT-LIB `bvsdiv` semantics.
pub fn bvsdiv(a: TermId, b: TermId) -> TermId {
    let w = width_of(a);
    let zero = bv_const(w, 0);
    let na = slt(a, zero);
    let nb = slt(b, zero);
    let abs_a = ite_bv(na, bvneg(a), a);
    let abs_b = ite_bv(nb, bvneg(b), b);
    let q = bvudiv(abs_a, abs_b);
    ite_bv(xor(na, nb), bvneg(q), q)
}

/// Signed remainder (sign follows the dividend), derived: SMT-LIB `bvsrem`.
pub fn bvsrem(a: TermId, b: TermId) -> TermId {
    let w = width_of(a);
    let zero = bv_const(w, 0);
    let na = slt(a, zero);
    let nb = slt(b, zero);
    let abs_a = ite_bv(na, bvneg(a), a);
    let abs_b = ite_bv(nb, bvneg(b), b);
    let r = bvurem(abs_a, abs_b);
    ite_bv(na, bvneg(r), r)
}

fn shift(op: Op, a: TermId, b: TermId) -> TermId {
    if let Some(k) = as_bv_const(b) {
        if k == 0 {
            return a;
        }
        // Oversized amounts shift everything out: zero for logical
        // shifts, a sign-bit fill for arithmetic right shift.
        let w = width_of(a);
        if k >= w as u128 {
            return match op {
                Op::BvAshr => sext(w, extract(w - 1, w - 1, a)),
                _ => bv_const(w, 0),
            };
        }
    }
    bv_binop_raw(op, a, b)
}

/// Logical shift left; amounts >= width yield zero.
pub fn bvshl(a: TermId, b: TermId) -> TermId {
    shift(Op::BvShl, a, b)
}

/// Logical shift right; amounts >= width yield zero.
pub fn bvlshr(a: TermId, b: TermId) -> TermId {
    shift(Op::BvLshr, a, b)
}

/// Arithmetic shift right; amounts >= width replicate the sign bit.
pub fn bvashr(a: TermId, b: TermId) -> TermId {
    shift(Op::BvAshr, a, b)
}

/// Concatenation: `hi` becomes the high bits.
pub fn concat(hi: TermId, lo: TermId) -> TermId {
    let wh = width_of(hi);
    let wl = width_of(lo);
    let w = wh + wl;
    assert!(w <= 128, "concat width {w} exceeds 128");
    if let (Some(h), Some(l)) = (as_bv_const(hi), as_bv_const(lo)) {
        return bv_const(w, (h << wl) | mask(wl, l));
    }
    // concat(extract(h1, l1, x), extract(h2, l2, x)) with l1 == h2 + 1
    // re-assembles to extract(h1, l2, x).
    let merged = with_ctx(|c| {
        let nh = c.term(hi);
        let nl = c.term(lo);
        if let (Op::Extract(h1, l1), Op::Extract(h2, l2)) = (&nh.op, &nl.op) {
            if nh.children[0] == nl.children[0] && *l1 == *h2 + 1 {
                return Some((*h1, *l2, nh.children[0]));
            }
        }
        None
    });
    if let Some((h1, l2, x)) = merged {
        return extract(h1, l2, x);
    }
    intern(Op::Concat, &[hi, lo], Sort::BitVec(w))
}

/// Bit extraction `[hi:lo]`, inclusive, producing `hi - lo + 1` bits.
pub fn extract(hi: u32, lo: u32, a: TermId) -> TermId {
    let wa = width_of(a);
    assert!(hi >= lo && hi < wa, "bad extract [{hi}:{lo}] of width {wa}");
    let w = hi - lo + 1;
    if w == wa {
        return a;
    }
    if let Some(x) = as_bv_const(a) {
        return bv_const(w, x >> lo);
    }
    // extract of concat: resolve when fully inside one side.
    let node = with_ctx(|c| {
        let n = c.term(a);
        (n.op.clone(), n.children.clone())
    });
    match node {
        (Op::Concat, ch) => {
            let wl = width_of(ch[1]);
            if hi < wl {
                return extract(hi, lo, ch[1]);
            }
            if lo >= wl {
                return extract(hi - wl, lo - wl, ch[0]);
            }
        }
        (Op::ZeroExt, ch) => {
            let wi = width_of(ch[0]);
            if hi < wi {
                return extract(hi, lo, ch[0]);
            }
            if lo >= wi {
                return bv_const(w, 0);
            }
            // Partial overlap: the kept high bits are all zero.
            return zext(w, extract(wi - 1, lo, ch[0]));
        }
        (Op::SignExt, ch) => {
            let wi = width_of(ch[0]);
            if hi < wi {
                return extract(hi, lo, ch[0]);
            }
        }
        (Op::Extract(_, lo2), ch) => {
            return extract(hi + lo2, lo + lo2, ch[0]);
        }
        (Op::IteBv, ch) => {
            // Push extraction into ite when branches are constants, keeping
            // pc-shaped terms flat for split_pc.
            if as_bv_const(ch[1]).is_some() && as_bv_const(ch[2]).is_some() {
                return ite_bv(ch[0], extract(hi, lo, ch[1]), extract(hi, lo, ch[2]));
            }
        }
        _ => {}
    }
    intern(Op::Extract(hi, lo), &[a], Sort::BitVec(w))
}

/// Zero-extends `a` to `to` bits.
pub fn zext(to: u32, a: TermId) -> TermId {
    let wa = width_of(a);
    assert!(to >= wa && to <= 128, "bad zext to {to} from {wa}");
    if to == wa {
        return a;
    }
    if let Some(x) = as_bv_const(a) {
        return bv_const(to, x);
    }
    intern(Op::ZeroExt, &[a], Sort::BitVec(to))
}

/// Sign-extends `a` to `to` bits.
pub fn sext(to: u32, a: TermId) -> TermId {
    let wa = width_of(a);
    assert!(to >= wa && to <= 128, "bad sext to {to} from {wa}");
    if to == wa {
        return a;
    }
    if let Some(x) = as_bv_const(a) {
        let s = crate::term::to_signed(wa, x) as u128;
        return bv_const(to, s);
    }
    intern(Op::SignExt, &[a], Sort::BitVec(to))
}

/// Bitvector if-then-else.
pub fn ite_bv(c: TermId, t: TermId, e: TermId) -> TermId {
    debug_assert_eq!(sort_of(t), sort_of(e), "ite sort mismatch");
    if let Some(b) = as_bool_const(c) {
        return if b { t } else { e };
    }
    if t == e {
        return t;
    }
    // ite(!c, t, e) → ite(c, e, t).
    let negated = with_ctx(|ctx| {
        let n = ctx.term(c);
        if n.op == Op::Not {
            Some(n.children[0])
        } else {
            None
        }
    });
    if let Some(c2) = negated {
        return ite_bv(c2, e, t);
    }
    // One level of redundant-nesting collapse.
    if let Some((c2, t2, _)) = as_ite(t) {
        if c2 == c {
            return ite_bv(c, t2, e);
        }
    }
    if let Some((c2, _, e2)) = as_ite(e) {
        if c2 == c {
            return ite_bv(c, t, e2);
        }
    }
    let w = width_of(t);
    intern(Op::IteBv, &[c, t, e], Sort::BitVec(w))
}

/// Applies uninterpreted function `uf` to `args`.
pub fn uf_apply(uf: UfId, args: &[TermId]) -> TermId {
    let result = with_ctx(|c| {
        let sig = c.uf_sig(uf);
        assert_eq!(sig.args.len(), args.len(), "uf arity mismatch");
        sig.result
    });
    for (i, &a) in args.iter().enumerate() {
        let expect = with_ctx(|c| c.uf_sig(uf).args[i]);
        assert_eq!(width_of(a), expect, "uf arg {i} width mismatch");
    }
    intern(Op::UfApply(uf), args, Sort::BitVec(result))
}

/// Orders commutative children canonically to improve sharing.
fn sorted2(a: TermId, b: TermId) -> [TermId; 2] {
    if a <= b {
        [a, b]
    } else {
        [b, a]
    }
}

/// Like [`sorted2`], but never moves a constant to the left: the
/// "constant on the right" canonical form is part of this module's API.
fn sorted2_keep_const_right(a: TermId, b: TermId) -> [TermId; 2] {
    if as_bv_const(b).is_some() {
        [a, b]
    } else {
        sorted2(a, b)
    }
}
