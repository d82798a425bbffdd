//! Hash-consed term DAG and the thread-local term context.
//!
//! Every term lives in a per-thread [`Ctx`]; [`TermId`] is an index into it.
//! Hash-consing guarantees structural sharing: building the same term twice
//! yields the same id, which keeps symbolic evaluation of straight-line
//! machine code polynomial in practice and makes equality checks O(1).
//!
//! The store is one flat arena, `terms`, indexed by an open-addressing
//! table of `(hash, id + 1)` pairs probed linearly. A node's children sit
//! inline in it (up to three; see [`Children`]), so interning a new node
//! allocates nothing once the buffers have grown, and a hit allocates
//! nothing at all. Ids are handed out in interning order, so the same
//! sequence of constructor calls yields the same ids on every run.
//!
//! The hash is a folded multiply (128-bit product, halves xored) over the
//! operator's tag and payload, the sort, the child count and the
//! children. It is keyed once per process from the standard library's
//! `RandomState`: `servald` interns terms decoded from client frames, and
//! an unkeyed hash would let a client pick colliding terms that turn
//! every probe into a scan. [`reset_ctx`] clears the store in place, so
//! the next item reuses the capacity the last one grew.

use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Deref;
use std::sync::OnceLock;

/// The sort of a term: boolean or a fixed-width bitvector.
///
/// Widths from 1 to 128 bits are supported; 128 covers double-width
/// multiplication results used by the RISC-V `mulh` family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sort {
    /// Boolean sort.
    Bool,
    /// Bitvector sort of the given width in bits (1..=128).
    BitVec(u32),
}

impl Sort {
    /// The width of a bitvector sort.
    ///
    /// # Panics
    ///
    /// Panics if the sort is `Bool`.
    pub fn width(self) -> u32 {
        match self {
            Sort::BitVec(w) => w,
            Sort::Bool => panic!("Bool sort has no width"),
        }
    }
}

/// Identifier of a hash-consed term within the thread's context.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

/// Identifier of an uninterpreted function within the thread's context.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct UfId(pub u32);

/// Term operators. Children are stored separately in [`Term::children`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    // Leaves.
    /// Boolean constant.
    BoolConst(bool),
    /// Bitvector constant; `value` is truncated to the sort width.
    BvConst(u128),
    /// A free symbolic constant ("unknown input"). The `u32` is a unique
    /// ordinal; the name is kept in the context for diagnostics.
    Var(u32),

    // Boolean connectives (children: Bool).
    Not,
    And,
    Or,
    Xor,
    Iff,
    /// if-then-else on booleans: children `[cond, then, else]`.
    IteBool,

    // Predicates (children: BitVec, result: Bool).
    /// Bitvector equality.
    Eq,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,

    // Bitvector operations (children and result: BitVec).
    BvNot,
    BvNeg,
    BvAnd,
    BvOr,
    BvXor,
    BvAdd,
    BvSub,
    BvMul,
    /// Unsigned division; division by zero yields all-ones (SMT-LIB).
    BvUdiv,
    /// Unsigned remainder; remainder by zero yields the dividend.
    BvUrem,
    /// Logical shift left; shift amounts >= width yield zero.
    BvShl,
    /// Logical shift right; shift amounts >= width yield zero.
    BvLshr,
    /// Arithmetic shift right; shift amounts >= width replicate the sign.
    BvAshr,
    /// Concatenation: children `[hi, lo]`; result width is the sum.
    Concat,
    /// Bit extraction `[hi:lo]` (inclusive).
    Extract(u32, u32),
    /// Zero extension to the result width.
    ZeroExt,
    /// Sign extension to the result width.
    SignExt,
    /// if-then-else on bitvectors: children `[cond, then, else]`.
    IteBv,
    /// Application of an uninterpreted function to bitvector arguments.
    UfApply(UfId),
}

/// A node's child ids. Up to three are stored inline, which covers every
/// smart constructor in [`crate::build`]; a longer list (an n-ary `And`
/// or `Or` decoded from a wire frame, a UF of more than three arguments)
/// spills to one boxed slice. Dereferences to `[TermId]`, and compares
/// and hashes as that slice.
#[derive(Clone)]
pub struct Children(Kids);

#[derive(Clone)]
enum Kids {
    Inline(u8, [TermId; 3]),
    Spill(Box<[TermId]>),
}

impl From<&[TermId]> for Children {
    fn from(ids: &[TermId]) -> Self {
        Children(match *ids {
            [] => Kids::Inline(0, [TermId(0); 3]),
            [a] => Kids::Inline(1, [a, TermId(0), TermId(0)]),
            [a, b] => Kids::Inline(2, [a, b, TermId(0)]),
            [a, b, c] => Kids::Inline(3, [a, b, c]),
            _ => Kids::Spill(ids.into()),
        })
    }
}

impl Deref for Children {
    type Target = [TermId];

    fn deref(&self) -> &[TermId] {
        match &self.0 {
            Kids::Inline(n, ids) => &ids[..*n as usize],
            Kids::Spill(ids) => ids,
        }
    }
}

impl<'a> IntoIterator for &'a Children {
    type Item = &'a TermId;
    type IntoIter = std::slice::Iter<'a, TermId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Children {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Children {}

impl Hash for Children {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl fmt::Debug for Children {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A term node: operator, children, and sort.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Term {
    /// The operator at this node.
    pub op: Op,
    /// Child term ids, in operator-specific order.
    pub children: Children,
    /// The node's sort.
    pub sort: Sort,
}

/// Signature of an uninterpreted function: argument widths and result width.
#[derive(Clone, Debug)]
pub struct UfSig {
    /// Diagnostic name.
    pub name: String,
    /// Widths of the (bitvector) arguments.
    pub args: Vec<u32>,
    /// Width of the (bitvector) result.
    pub result: u32,
}

/// The per-thread term store.
///
/// `terms` is the only copy of each node; `slots` indexes it by a keyed
/// hash (see the module doc). A slot is `(low 32 bits of the hash,
/// id + 1)`, `(_, 0)` when empty; the table's size is a power of two and
/// it doubles before it is half full.
pub struct Ctx {
    terms: Vec<Term>,
    slots: Vec<(u32, u32)>,
    key: [u64; 2],
    /// Every variable's name, concatenated; `name_ends[v]` is where
    /// ordinal `v`'s ends.
    names: String,
    name_ends: Vec<u32>,
    ufs: Vec<UfSig>,
}

impl Default for Ctx {
    fn default() -> Self {
        static KEY: OnceLock<[u64; 2]> = OnceLock::new();
        let key = *KEY.get_or_init(|| {
            let s = RandomState::new();
            [s.hash_one(0u8), s.hash_one(1u8) | 1]
        });
        Ctx {
            terms: Vec::new(),
            slots: Vec::new(),
            key,
            names: String::new(),
            name_ends: Vec::new(),
            ufs: Vec::new(),
        }
    }
}

/// Multiplies `a` by `b` into 128 bits and folds the halves together.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = a as u128 * b as u128;
    p as u64 ^ (p >> 64) as u64
}

/// The keyed folded-multiply hash: one multiply per word written.
struct FoldHasher {
    h: u64,
    k: u64,
}

impl FoldHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.h = fold_mul(self.h ^ w, self.k);
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.word(v as u64)
    }
    fn write_u32(&mut self, v: u32) {
        self.word(v as u64)
    }
    fn write_u64(&mut self, v: u64) {
        self.word(v)
    }
    fn write_u128(&mut self, v: u128) {
        self.word(v as u64);
        self.word((v >> 64) as u64);
    }
    fn write_usize(&mut self, v: usize) {
        self.word(v as u64)
    }
    fn finish(&self) -> u64 {
        self.h
    }
}

impl Ctx {
    /// The keyed hash of a node: the operator (tag and payload), then
    /// the sort and child count in one word, then the children two ids
    /// to a word.
    fn hash(&self, op: &Op, children: &[TermId], sort: Sort) -> u64 {
        let mut h = FoldHasher {
            h: self.key[0],
            k: self.key[1],
        };
        op.hash(&mut h);
        let sort = match sort {
            Sort::Bool => 0,
            Sort::BitVec(w) => w as u64 + 1,
        };
        h.word(sort | (children.len() as u64) << 32);
        for pair in children.chunks(2) {
            let hi = pair.get(1).map_or(0, |t| t.0 as u64);
            h.word(pair[0].0 as u64 | hi << 32);
        }
        h.finish()
    }

    /// Interns the node `(op, children, sort)`, returning the id of its
    /// one copy: the existing id if the node was built before, else the
    /// next id in order.
    pub fn intern(&mut self, op: Op, children: &[TermId], sort: Sort) -> TermId {
        if 2 * (self.terms.len() + 1) > self.slots.len() {
            self.grow();
        }
        let h = self.hash(&op, children, sort);
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        loop {
            let (tag, slot) = self.slots[i];
            if slot == 0 {
                break;
            }
            if tag == h as u32 {
                let t = &self.terms[slot as usize - 1];
                if t.op == op && t.sort == sort && *t.children == *children {
                    return TermId(slot - 1);
                }
            }
            i = (i + 1) & mask;
        }
        let id = self.terms.len() as u32;
        self.slots[i] = (h as u32, id + 1);
        self.terms.push(Term {
            op,
            children: children.into(),
            sort,
        });
        TermId(id)
    }

    /// Doubles the index and re-places every slot by its stored hash.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(64);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); size]);
        let mask = size - 1;
        for (tag, slot) in old.into_iter().filter(|s| s.1 != 0) {
            let mut i = tag as usize & mask;
            while self.slots[i].1 != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = (tag, slot);
        }
    }

    /// The longest probe sequence any interned term takes to be found.
    #[cfg(test)]
    pub(crate) fn max_probe(&self) -> usize {
        let mask = self.slots.len() - 1;
        let mut longest = 0;
        for (i, &(tag, slot)) in self.slots.iter().enumerate() {
            if slot != 0 {
                longest = longest.max((i.wrapping_sub(tag as usize) & mask) + 1);
            }
        }
        longest
    }

    /// The term node for `id`.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.0 as usize]
    }

    /// The sort of `id`.
    pub fn sort(&self, id: TermId) -> Sort {
        self.terms[id.0 as usize].sort
    }

    /// Allocates a fresh symbolic constant of the given sort.
    pub fn fresh_var(&mut self, sort: Sort, name: &str) -> TermId {
        let ordinal = self.name_ends.len() as u32;
        self.names.push_str(name);
        self.name_ends.push(self.names.len() as u32);
        // Vars are unique by ordinal, so interning always adds a node.
        self.intern(Op::Var(ordinal), &[], sort)
    }

    /// The diagnostic name of variable ordinal `v`: its name as given to
    /// [`Ctx::fresh_var`], then `#` and the ordinal.
    pub fn var_name(&self, v: u32) -> String {
        let v = v as usize;
        let start = if v == 0 {
            0
        } else {
            self.name_ends[v - 1] as usize
        };
        format!("{}#{v}", &self.names[start..self.name_ends[v] as usize])
    }

    /// Declares an uninterpreted function.
    pub fn declare_uf(&mut self, name: &str, args: Vec<u32>, result: u32) -> UfId {
        let id = UfId(self.ufs.len() as u32);
        self.ufs.push(UfSig {
            name: name.to_string(),
            args,
            result,
        });
        id
    }

    /// The signature of `uf`.
    pub fn uf_sig(&self, uf: UfId) -> &UfSig {
        &self.ufs[uf.0 as usize]
    }

    /// Number of interned terms (used by the symbolic profiler).
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Forgets every term, variable and UF, keeping the buffers' capacity
    /// and the hash key.
    fn clear(&mut self) {
        self.terms.clear();
        self.slots.fill((0, 0));
        self.names.clear();
        self.name_ends.clear();
        self.ufs.clear();
    }
}

thread_local! {
    static CTX: RefCell<Ctx> = RefCell::new(Ctx::default());
}

/// Runs `f` with mutable access to the thread's term context.
pub fn with_ctx<R>(f: impl FnOnce(&mut Ctx) -> R) -> R {
    CTX.with(|c| f(&mut c.borrow_mut()))
}

/// Clears the thread's term context in place: the next term is id 0 and
/// the next variable ordinal 0, while the arena, the index and the name
/// buffer keep their capacity for the next item.
///
/// Term ids issued before the reset become dangling; callers (benchmarks,
/// independent verification queries) must not reuse them.
pub fn reset_ctx() {
    CTX.with(|c| c.borrow_mut().clear());
}

/// Truncates `v` to `w` bits.
#[inline]
pub fn mask(w: u32, v: u128) -> u128 {
    if w >= 128 {
        v
    } else {
        v & ((1u128 << w) - 1)
    }
}

/// Sign-extends the `w`-bit value `v` to an `i128`.
#[inline]
pub fn to_signed(w: u32, v: u128) -> i128 {
    let v = mask(w, v);
    if w < 128 && v >> (w - 1) & 1 == 1 {
        // Two's-complement reinterpretation, computed in u128 to avoid
        // signed overflow at w = 127.
        v.wrapping_sub(1u128 << w) as i128
    } else {
        v as i128
    }
}
