//! Ergonomic symbolic-value wrappers: [`BV`] and [`SBool`].
//!
//! These are the values the instruction-set interpreters compute with. A
//! `BV` is a bitvector term id plus operator overloads; an `SBool` is a
//! boolean term id. Both are `Copy` and cheap — all sharing happens in the
//! hash-consed term DAG.

use crate::build;
use crate::term::TermId;
use std::fmt;
use std::ops;

/// A symbolic boolean value.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SBool(pub TermId);

/// A symbolic bitvector value of a fixed width.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct BV(pub TermId);

impl fmt::Debug for SBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_const() {
            Some(b) => write!(f, "{b}"),
            None => write!(f, "bool@{}", self.0 .0),
        }
    }
}

impl fmt::Debug for BV {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_const() {
            Some(v) => write!(f, "{:#x}:bv{}", v, self.width()),
            None => write!(f, "bv{}@{}", self.width(), self.0 .0),
        }
    }
}

impl SBool {
    /// The constant `true` or `false`.
    pub fn lit(b: bool) -> SBool {
        SBool(build::bool_const(b))
    }

    /// A fresh symbolic boolean named `name`.
    pub fn fresh(name: &str) -> SBool {
        SBool(build::fresh_bool(name))
    }

    /// The concrete value, if this is a constant.
    pub fn as_const(self) -> Option<bool> {
        build::as_bool_const(self.0)
    }

    /// Whether this is the constant `true`.
    pub fn is_true(self) -> bool {
        self.as_const() == Some(true)
    }

    /// Whether this is the constant `false`.
    pub fn is_false(self) -> bool {
        self.as_const() == Some(false)
    }

    /// Logical implication `self → other`.
    pub fn implies(self, other: SBool) -> SBool {
        SBool(build::implies(self.0, other.0))
    }

    /// Logical equivalence.
    pub fn iff(self, other: SBool) -> SBool {
        SBool(build::iff(self.0, other.0))
    }

    /// Boolean if-then-else.
    pub fn ite(self, t: SBool, e: SBool) -> SBool {
        SBool(build::ite_bool(self.0, t.0, e.0))
    }

    /// Selects between two bitvectors.
    pub fn select(self, t: BV, e: BV) -> BV {
        BV(build::ite_bv(self.0, t.0, e.0))
    }
}

impl ops::Not for SBool {
    type Output = SBool;
    fn not(self) -> SBool {
        SBool(build::not(self.0))
    }
}

impl ops::BitAnd for SBool {
    type Output = SBool;
    fn bitand(self, rhs: SBool) -> SBool {
        SBool(build::and(self.0, rhs.0))
    }
}

impl ops::BitOr for SBool {
    type Output = SBool;
    fn bitor(self, rhs: SBool) -> SBool {
        SBool(build::or(self.0, rhs.0))
    }
}

impl ops::BitXor for SBool {
    type Output = SBool;
    fn bitxor(self, rhs: SBool) -> SBool {
        SBool(build::xor(self.0, rhs.0))
    }
}

impl BV {
    /// A constant of width `w`.
    pub fn lit(w: u32, v: u128) -> BV {
        BV(build::bv_const(w, v))
    }

    /// A fresh symbolic bitvector of width `w` named `name`.
    pub fn fresh(w: u32, name: &str) -> BV {
        BV(build::fresh_bv(w, name))
    }

    /// The width in bits.
    pub fn width(self) -> u32 {
        build::width_of(self.0)
    }

    /// The concrete value, if this is a constant.
    pub fn as_const(self) -> Option<u128> {
        build::as_bv_const(self.0)
    }

    /// Whether this value is fully concrete.
    pub fn is_const(self) -> bool {
        self.as_const().is_some()
    }

    // ---- predicates ----

    /// Equality.
    pub fn eq_(self, other: BV) -> SBool {
        SBool(build::eq(self.0, other.0))
    }

    /// Disequality.
    pub fn ne_(self, other: BV) -> SBool {
        SBool(build::ne(self.0, other.0))
    }

    /// Unsigned less-than.
    pub fn ult(self, other: BV) -> SBool {
        SBool(build::ult(self.0, other.0))
    }

    /// Unsigned less-or-equal.
    pub fn ule(self, other: BV) -> SBool {
        SBool(build::ule(self.0, other.0))
    }

    /// Unsigned greater-than.
    pub fn ugt(self, other: BV) -> SBool {
        other.ult(self)
    }

    /// Unsigned greater-or-equal.
    pub fn uge(self, other: BV) -> SBool {
        other.ule(self)
    }

    /// Signed less-than.
    pub fn slt(self, other: BV) -> SBool {
        SBool(build::slt(self.0, other.0))
    }

    /// Signed less-or-equal.
    pub fn sle(self, other: BV) -> SBool {
        SBool(build::sle(self.0, other.0))
    }

    /// Signed greater-than.
    pub fn sgt(self, other: BV) -> SBool {
        other.slt(self)
    }

    /// Signed greater-or-equal.
    pub fn sge(self, other: BV) -> SBool {
        other.sle(self)
    }

    /// Whether the value is zero.
    pub fn is_zero(self) -> SBool {
        self.eq_(BV::lit(self.width(), 0))
    }

    // ---- arithmetic not covered by operator overloads ----

    /// Unsigned division (division by zero yields all-ones).
    pub fn udiv(self, other: BV) -> BV {
        BV(build::bvudiv(self.0, other.0))
    }

    /// Unsigned remainder (remainder by zero yields the dividend).
    pub fn urem(self, other: BV) -> BV {
        BV(build::bvurem(self.0, other.0))
    }

    /// Signed division (SMT-LIB `bvsdiv`).
    pub fn sdiv(self, other: BV) -> BV {
        BV(build::bvsdiv(self.0, other.0))
    }

    /// Signed remainder (SMT-LIB `bvsrem`).
    pub fn srem(self, other: BV) -> BV {
        BV(build::bvsrem(self.0, other.0))
    }

    /// Two's-complement negation.
    pub fn neg(self) -> BV {
        BV(build::bvneg(self.0))
    }

    /// Logical shift left.
    pub fn shl(self, amount: BV) -> BV {
        BV(build::bvshl(self.0, amount.0))
    }

    /// Logical shift right.
    pub fn lshr(self, amount: BV) -> BV {
        BV(build::bvlshr(self.0, amount.0))
    }

    /// Arithmetic shift right.
    pub fn ashr(self, amount: BV) -> BV {
        BV(build::bvashr(self.0, amount.0))
    }

    // ---- structure ----

    /// Concatenates `self` (high bits) with `lo`.
    pub fn concat(self, lo: BV) -> BV {
        BV(build::concat(self.0, lo.0))
    }

    /// Extracts bits `[hi:lo]` inclusive.
    pub fn extract(self, hi: u32, lo: u32) -> BV {
        BV(build::extract(hi, lo, self.0))
    }

    /// Zero-extends to `w` bits.
    pub fn zext(self, w: u32) -> BV {
        BV(build::zext(w, self.0))
    }

    /// Sign-extends to `w` bits.
    pub fn sext(self, w: u32) -> BV {
        BV(build::sext(w, self.0))
    }

    /// Truncates to the low `w` bits.
    pub fn trunc(self, w: u32) -> BV {
        self.extract(w - 1, 0)
    }
}

impl ops::Add for BV {
    type Output = BV;
    fn add(self, rhs: BV) -> BV {
        BV(build::bvadd(self.0, rhs.0))
    }
}

impl ops::Sub for BV {
    type Output = BV;
    fn sub(self, rhs: BV) -> BV {
        BV(build::bvsub(self.0, rhs.0))
    }
}

impl ops::Mul for BV {
    type Output = BV;
    fn mul(self, rhs: BV) -> BV {
        BV(build::bvmul(self.0, rhs.0))
    }
}

impl ops::BitAnd for BV {
    type Output = BV;
    fn bitand(self, rhs: BV) -> BV {
        BV(build::bvand(self.0, rhs.0))
    }
}

impl ops::BitOr for BV {
    type Output = BV;
    fn bitor(self, rhs: BV) -> BV {
        BV(build::bvor(self.0, rhs.0))
    }
}

impl ops::BitXor for BV {
    type Output = BV;
    fn bitxor(self, rhs: BV) -> BV {
        BV(build::bvxor(self.0, rhs.0))
    }
}

impl ops::Not for BV {
    type Output = BV;
    fn not(self) -> BV {
        BV(build::bvnot(self.0))
    }
}
