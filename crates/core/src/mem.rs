//! The unified memory model shared by the verifiers (paper §3.4).
//!
//! Memory is a set of disjoint, named *regions* (extracted in the paper
//! from the binary's symbol table via `objdump`; here declared by the
//! system's build description, which plays the same role). Each region is
//! typed by a [`Layout`] built from three block kinds, mirroring the paper:
//!
//! - **structured blocks** ([`Layout::Struct`]): a collection of fields of
//!   possibly different types (like a C struct);
//! - **uniform blocks** ([`Layout::Array`]): a sequence of same-typed
//!   elements (like a C array), materialized per element;
//! - **cells** ([`Layout::Cell`]): a bitvector value (like a C integer) —
//!   plus [`Layout::SymArray`], a large uniform region backed by an
//!   uninterpreted function with a guarded store chain (used for RAM-like
//!   regions, following KLEE/CompCert-style models).
//!
//! Choosing a representation matching the implementation's access pattern
//! keeps the generated constraints small; a flat byte array would make
//! every access a giant select chain. The `concretize_offsets` knob
//! controls the §4 "symbolic memory addresses" optimization: pattern-match
//! `i*C0 + C1` offsets into (element, field) pairs with a bounds side
//! condition, instead of symbolic division.

use crate::opts::match_scaled_offset;
use crate::BugOn;
use serval_smt::{with_ctx, SBool, UfId, BV};
use serval_sym::{merge_many, Merge, SymCtx};

/// Memory-model configuration (ablation knobs).
#[derive(Clone, Copy, Debug)]
pub struct MemCfg {
    /// Apply the §4 offset-concretization optimization.
    pub concretize_offsets: bool,
}

impl Default for MemCfg {
    fn default() -> Self {
        MemCfg {
            concretize_offsets: true,
        }
    }
}

/// The shape of a region, declared by the system description (the paper
/// derives the same information from symbol tables and debug info).
#[derive(Clone, Debug)]
pub enum Layout {
    /// An integer cell of 1, 2, 4, or 8 bytes.
    Cell(u32),
    /// A struct with named fields laid out sequentially with natural
    /// alignment.
    Struct(Vec<(String, Layout)>),
    /// A uniform array of `count` elements, each materialized.
    Array(u64, Box<Layout>),
    /// A large uniform array of `count` cells of `elem_bytes` bytes backed
    /// by an uninterpreted function (whole-cell accesses only).
    SymArray(u32, u64),
}

impl Layout {
    /// Natural alignment in bytes.
    pub fn align(&self) -> u64 {
        match self {
            Layout::Cell(b) => *b as u64,
            Layout::Struct(fields) => fields.iter().map(|(_, l)| l.align()).max().unwrap_or(1),
            Layout::Array(_, elem) => elem.align(),
            Layout::SymArray(b, _) => *b as u64,
        }
    }

    /// Size in bytes (structs padded to their alignment).
    pub fn size(&self) -> u64 {
        match self {
            Layout::Cell(b) => *b as u64,
            Layout::Struct(fields) => {
                let mut off = 0;
                for (_, l) in fields {
                    off = align_up(off, l.align()) + l.size();
                }
                align_up(off, self.align())
            }
            Layout::Array(n, elem) => n * align_up(elem.size(), elem.align()),
            Layout::SymArray(b, n) => *b as u64 * *n,
        }
    }

    /// Instantiates the layout with fresh symbolic contents; cell names are
    /// derived from their access path for readable counterexamples.
    pub fn instantiate_fresh(&self, prefix: &str) -> Block {
        self.instantiate(&mut |name, bytes| BV::fresh(bytes * 8, name), prefix)
    }

    /// Instantiates the layout with all-zero contents (e.g. for boot-time
    /// `.bss` regions).
    pub fn instantiate_zero(&self, prefix: &str) -> Block {
        self.instantiate(&mut |_name, bytes| BV::lit(bytes * 8, 0), prefix)
    }

    fn instantiate(&self, mk: &mut dyn FnMut(&str, u32) -> BV, prefix: &str) -> Block {
        match self {
            Layout::Cell(b) => Block::Cell {
                bytes: *b,
                value: mk(prefix, *b),
            },
            Layout::Struct(fields) => {
                let mut out = Vec::new();
                let mut off = 0u64;
                for (name, l) in fields {
                    off = align_up(off, l.align());
                    out.push(Field {
                        name: name.clone(),
                        offset: off,
                        block: l.instantiate(mk, &format!("{prefix}.{name}")),
                    });
                    off += l.size();
                }
                Block::Struct {
                    size: self.size(),
                    fields: out,
                }
            }
            Layout::Array(n, elem) => {
                let elem_size = align_up(elem.size(), elem.align());
                let elems = (0..*n)
                    .map(|i| elem.instantiate(mk, &format!("{prefix}[{i}]")))
                    .collect();
                Block::Array {
                    elem_size,
                    elems,
                }
            }
            Layout::SymArray(b, n) => {
                let uf = with_ctx(|c| {
                    c.declare_uf(&format!("{prefix}.init"), vec![64], *b * 8)
                });
                Block::SymArray {
                    elem_bytes: *b,
                    count: *n,
                    init: uf,
                    init_zero: false,
                    stores: Vec::new(),
                }
            }
        }
    }
}

/// A guarded store in a [`Block::SymArray`] chain.
#[derive(Clone, Debug)]
pub struct GuardedStore {
    /// The store happened only when this holds.
    pub guard: SBool,
    /// Element index (64-bit term).
    pub idx: BV,
    /// Stored value.
    pub val: BV,
}

/// A field of a structured block.
#[derive(Clone, Debug)]
pub struct Field {
    /// Field name (diagnostics and typed access).
    pub name: String,
    /// Byte offset within the struct.
    pub offset: u64,
    /// Field contents.
    pub block: Block,
}

/// Instantiated region contents.
#[derive(Clone, Debug)]
pub enum Block {
    /// An integer cell holding a symbolic value.
    Cell {
        /// Cell size in bytes.
        bytes: u32,
        /// Current value (width `bytes * 8`).
        value: BV,
    },
    /// A structured block.
    Struct {
        /// Total padded size.
        size: u64,
        /// Fields ordered by offset.
        fields: Vec<Field>,
    },
    /// A materialized uniform block.
    Array {
        /// Element stride in bytes.
        elem_size: u64,
        /// Element blocks.
        elems: Vec<Block>,
    },
    /// A UF-backed uniform block with a guarded store chain.
    SymArray {
        /// Element size in bytes.
        elem_bytes: u32,
        /// Number of elements.
        count: u64,
        /// Initial contents (uninterpreted function of the index).
        init: UfId,
        /// If true the initial contents are zero instead of `init`.
        init_zero: bool,
        /// Stores applied on top of the initial contents, oldest first.
        stores: Vec<GuardedStore>,
    },
}

impl Block {
    /// Size in bytes.
    pub fn size(&self) -> u64 {
        match self {
            Block::Cell { bytes, .. } => *bytes as u64,
            Block::Struct { size, .. } => *size,
            Block::Array { elem_size, elems } => elem_size * elems.len() as u64,
            Block::SymArray {
                elem_bytes, count, ..
            } => *elem_bytes as u64 * count,
        }
    }
}

impl Merge for GuardedStore {
    fn merge(cond: SBool, t: &Self, e: &Self) -> Self {
        GuardedStore {
            guard: SBool::merge(cond, &t.guard, &e.guard),
            idx: BV::merge(cond, &t.idx, &e.idx),
            val: BV::merge(cond, &t.val, &e.val),
        }
    }
}

impl Merge for Block {
    fn merge(cond: SBool, t: &Self, e: &Self) -> Self {
        match (t, e) {
            (
                Block::Cell { bytes, value: v1 },
                Block::Cell { value: v2, .. },
            ) => Block::Cell {
                bytes: *bytes,
                value: cond.select(*v1, *v2),
            },
            (
                Block::Struct { size, fields: f1 },
                Block::Struct { fields: f2, .. },
            ) => Block::Struct {
                size: *size,
                fields: f1
                    .iter()
                    .zip(f2)
                    .map(|(a, b)| Field {
                        name: a.name.clone(),
                        offset: a.offset,
                        block: Block::merge(cond, &a.block, &b.block),
                    })
                    .collect(),
            },
            (
                Block::Array {
                    elem_size,
                    elems: e1,
                },
                Block::Array { elems: e2, .. },
            ) => Block::Array {
                elem_size: *elem_size,
                elems: e1
                    .iter()
                    .zip(e2)
                    .map(|(a, b)| Block::merge(cond, a, b))
                    .collect(),
            },
            (
                Block::SymArray {
                    elem_bytes,
                    count,
                    init,
                    init_zero,
                    stores: s1,
                },
                Block::SymArray { stores: s2, .. },
            ) => {
                // Both sides extend a common prefix (they are clones of the
                // same pre-branch state); suffix stores become conditional.
                let common = s1
                    .iter()
                    .zip(s2.iter())
                    .take_while(|(a, b)| {
                        a.guard == b.guard && a.idx == b.idx && a.val == b.val
                    })
                    .count();
                let mut stores: Vec<GuardedStore> = s1[..common].to_vec();
                for st in &s1[common..] {
                    stores.push(GuardedStore {
                        guard: st.guard & cond,
                        ..st.clone()
                    });
                }
                for st in &s2[common..] {
                    stores.push(GuardedStore {
                        guard: st.guard & !cond,
                        ..st.clone()
                    });
                }
                Block::SymArray {
                    elem_bytes: *elem_bytes,
                    count: *count,
                    init: *init,
                    init_zero: *init_zero,
                    stores,
                }
            }
            _ => panic!("cannot merge blocks of different shapes"),
        }
    }
}

/// A named, typed memory region at a fixed base address.
#[derive(Clone, Debug)]
pub struct Region {
    /// Symbol name.
    pub name: String,
    /// Base physical address.
    pub base: u64,
    /// Contents.
    pub block: Block,
}

/// Typed-access path element for [`Mem::read_path`] / [`Mem::write_path`].
#[derive(Clone, Debug)]
pub enum PathElem<'a> {
    /// Select a struct field by name.
    Field(&'a str),
    /// Select an array element by concrete index.
    Index(u64),
    /// Select an array element by symbolic index (reads only).
    IndexSym(BV),
}

/// The memory state of a machine under verification.
#[derive(Clone, Debug)]
pub struct Mem {
    /// Regions sorted by base address.
    pub regions: Vec<Region>,
    /// Configuration knobs.
    pub cfg: MemCfg,
}

impl Merge for Mem {
    fn merge(cond: SBool, t: &Self, e: &Self) -> Self {
        assert_eq!(t.regions.len(), e.regions.len());
        Mem {
            regions: t
                .regions
                .iter()
                .zip(&e.regions)
                .map(|(a, b)| Region {
                    name: a.name.clone(),
                    base: a.base,
                    block: Block::merge(cond, &a.block, &b.block),
                })
                .collect(),
            cfg: t.cfg,
        }
    }
}

impl Mem {
    /// Creates an empty memory.
    pub fn new(cfg: MemCfg) -> Mem {
        Mem {
            regions: Vec::new(),
            cfg,
        }
    }

    /// Adds a region, enforcing the paper's validity checks: disjointness
    /// from existing regions and base alignment.
    ///
    /// # Panics
    ///
    /// Panics if the region overlaps an existing one or is misaligned.
    pub fn add_region(&mut self, name: &str, base: u64, block: Block) {
        let size = block.size();
        assert!(size > 0, "empty region {name}");
        for r in &self.regions {
            let rsize = r.block.size();
            assert!(
                base + size <= r.base || r.base + rsize <= base,
                "region {name} overlaps {}",
                r.name
            );
        }
        self.regions.push(Region {
            name: name.to_string(),
            base,
            block,
        });
        self.regions.sort_by_key(|r| r.base);
    }

    /// The region named `name`.
    pub fn region(&self, name: &str) -> &Region {
        self.regions
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no region {name}"))
    }

    fn region_mut(&mut self, name: &str) -> &mut Region {
        self.regions
            .iter_mut()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no region {name}"))
    }

    // ------------------------------------------------------------------
    // Address-based access (used by machine-code interpreters)
    // ------------------------------------------------------------------

    /// Loads `bytes` bytes at `addr` (64-bit), returning a `bytes*8`-wide
    /// value. Records bounds/alignment obligations via `bug_on`; an access
    /// no region can hold reads 0 under its refuted obligation.
    pub fn load(&mut self, ctx: &mut SymCtx, addr: BV, bytes: u32) -> BV {
        let cases = self.resolve(ctx, addr, bytes);
        if cases.is_empty() {
            return BV::lit(bytes * 8, 0);
        }
        let cfg = self.cfg;
        let mut out: Vec<(SBool, BV)> = Vec::new();
        for (guard, idx, offset) in &cases {
            let val = ctx.with_path(*guard, |ctx| {
                load_block(ctx, cfg, &self.regions[*idx].block, *offset, bytes)
            });
            out.push((*guard, val));
        }
        merge_many(&out)
    }

    /// Stores `value` (width `bytes*8`) at `addr`; an access no region can
    /// hold touches nothing.
    pub fn store(&mut self, ctx: &mut SymCtx, addr: BV, value: BV, bytes: u32) {
        debug_assert_eq!(value.width(), bytes * 8);
        let cases = self.resolve(ctx, addr, bytes);
        let cfg = self.cfg;
        for (guard, idx, offset) in &cases {
            let region = &mut self.regions[*idx];
            // The store guard carries only memory-resolution uncertainty
            // (which region the address hits). Path conditions are *not*
            // folded in: the `Mem` being mutated is already the per-path
            // clone, and guarding by the path condition would block the
            // load-after-store simplification that keeps values (e.g. a
            // saved return address) concrete along a path.
            ctx.with_path(*guard, |ctx| {
                store_block(ctx, cfg, &mut region.block, *offset, value, bytes, *guard);
            });
        }
    }

    /// Resolves `addr` to `(guard, region index, region offset)` cases.
    ///
    /// Fast path: the canonical constant part of the address identifies a
    /// unique region (symbol + offset addressing, as produced by real
    /// compilers and extracted by the paper via `objdump`). Slow path:
    /// all regions guarded by range checks. No case at all (a wild
    /// constant address) is undefined behaviour, left to the obligation.
    fn resolve(&self, ctx: &mut SymCtx, addr: BV, bytes: u32) -> Vec<(SBool, usize, BV)> {
        let w = addr.width();
        debug_assert_eq!(w, 64);
        // Constant part of the canonical form (x + C) or a constant addr.
        let const_part = addr.as_const().or_else(|| {
            serval_smt::build::as_add(addr.0)
                .and_then(|(_x, c)| serval_smt::build::as_bv_const(c))
        });
        if let Some(k) = const_part {
            if let Some((i, r)) = self
                .regions
                .iter()
                .enumerate()
                .find(|(_, r)| (k as u64) >= r.base && (k as u64) < r.base + r.block.size())
            {
                let offset = addr - BV::lit(64, r.base as u128);
                // Bounds obligation: the whole access stays inside.
                let limit = BV::lit(64, (r.block.size() - bytes as u64 + 1) as u128);
                ctx.bug_on(
                    !offset.ult(limit),
                    &format!("out-of-bounds access to {}", r.name),
                );
                return vec![(SBool::lit(true), i, offset)];
            }
        }
        // Slow path: consider every region.
        let mut cases = Vec::new();
        let mut any = SBool::lit(false);
        for (i, r) in self.regions.iter().enumerate() {
            let base = BV::lit(64, r.base as u128);
            let inside = addr.uge(base)
                & (addr - base).ult(BV::lit(64, (r.block.size() - bytes as u64 + 1) as u128));
            any = any | inside;
            if !inside.is_false() {
                cases.push((inside, i, addr - base));
            }
        }
        ctx.bug_on(!any, "access outside all memory regions");
        cases
    }

    // ------------------------------------------------------------------
    // Typed access (used by abstraction functions and specifications)
    // ------------------------------------------------------------------

    /// Reads the cell at `path` in region `region` (pure; no obligations).
    pub fn read_path(&self, region: &str, path: &[PathElem<'_>]) -> BV {
        read_block_path(&self.region(region).block, path)
    }

    /// Overwrites the cell at `path` (concrete indices only).
    pub fn write_path(&mut self, region: &str, path: &[PathElem<'_>], value: BV) {
        write_block_path(&mut self.region_mut(region).block, path, value);
    }
}

fn align_up(v: u64, a: u64) -> u64 {
    v.div_ceil(a) * a
}

// ---------------------------------------------------------------------
// Block-level access
// ---------------------------------------------------------------------

fn load_block(ctx: &mut SymCtx, cfg: MemCfg, block: &Block, offset: BV, bytes: u32) -> BV {
    match block {
        Block::Cell {
            bytes: cb,
            value,
        } => load_cell(ctx, *cb, *value, offset, bytes),
        Block::Struct { fields, .. } => {
            if let Some(off) = offset.as_const() {
                let off = off as u64;
                let f = fields
                    .iter()
                    .find(|f| off >= f.offset && off + bytes as u64 <= f.offset + f.block.size());
                match f {
                    Some(f) => load_block(
                        ctx,
                        cfg,
                        &f.block,
                        offset - BV::lit(64, f.offset as u128),
                        bytes,
                    ),
                    None => {
                        // Falls in padding or spans fields: UB.
                        ctx.bug_on(
                            SBool::lit(true),
                            "access to struct padding or spanning fields",
                        );
                        BV::lit(bytes * 8, 0)
                    }
                }
            } else {
                // Symbolic in-struct offset: consider every field. This is
                // the quadratic fallback the §4 optimization avoids.
                let mut cases: Vec<(SBool, BV)> = Vec::new();
                for f in fields {
                    let lo = BV::lit(64, f.offset as u128);
                    let guard = offset.uge(lo)
                        & (offset - lo).ult(BV::lit(
                            64,
                            (f.block.size() - (bytes as u64).min(f.block.size()) + 1) as u128,
                        ));
                    let v = ctx.with_path(guard, |ctx| {
                        load_block(ctx, cfg, &f.block, offset - lo, bytes)
                    });
                    cases.push((guard, v));
                }
                merge_many(&cases)
            }
        }
        Block::Array { elem_size, elems } => {
            let (idx, intra) = array_index(ctx, cfg, offset, *elem_size, elems.len() as u64);
            if let Some(i) = idx.as_const() {
                let i = (i as usize).min(elems.len() - 1);
                return load_block(ctx, cfg, &elems[i], intra, bytes);
            }
            let mut cases: Vec<(SBool, BV)> = Vec::new();
            for (i, e) in elems.iter().enumerate() {
                let guard = idx.eq_(BV::lit(64, i as u128));
                let v = ctx.with_path(guard, |ctx| load_block(ctx, cfg, e, intra, bytes));
                cases.push((guard, v));
            }
            merge_many(&cases)
        }
        Block::SymArray {
            elem_bytes,
            count,
            init,
            init_zero,
            stores,
        } => {
            let (idx, intra) =
                array_index(ctx, cfg, offset, *elem_bytes as u64, *count);
            ctx.bug_on(
                intra.ne_(BV::lit(64, 0)),
                "sub-element access to uniform symbolic array",
            );
            debug_assert_eq!(bytes, *elem_bytes, "SymArray access width mismatch");
            let mut v = if *init_zero {
                BV::lit(*elem_bytes * 8, 0)
            } else {
                BV(serval_smt::build::uf_apply(*init, &[idx.0]))
            };
            for st in stores {
                v = (st.guard & idx.eq_(st.idx)).select(st.val, v);
            }
            v
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn store_block(
    ctx: &mut SymCtx,
    cfg: MemCfg,
    block: &mut Block,
    offset: BV,
    value: BV,
    bytes: u32,
    guard: SBool,
) {
    match block {
        Block::Cell {
            bytes: cb,
            value: cell,
        } => {
            let updated = store_cell(ctx, *cb, *cell, offset, value, bytes);
            *cell = guard.select(updated, *cell);
        }
        Block::Struct { fields, .. } => {
            if let Some(off) = offset.as_const() {
                let off = off as u64;
                let f = fields
                    .iter_mut()
                    .find(|f| off >= f.offset && off + bytes as u64 <= f.offset + f.block.size());
                match f {
                    Some(f) => {
                        let rel = offset - BV::lit(64, f.offset as u128);
                        store_block(ctx, cfg, &mut f.block, rel, value, bytes, guard);
                    }
                    None => ctx.bug_on(
                        SBool::lit(true),
                        "store to struct padding or spanning fields",
                    ),
                }
            } else {
                for f in fields.iter_mut() {
                    let lo = BV::lit(64, f.offset as u128);
                    let inside = offset.uge(lo)
                        & (offset - lo).ult(BV::lit(
                            64,
                            (f.block.size() - (bytes as u64).min(f.block.size()) + 1) as u128,
                        ));
                    let rel = offset - lo;
                    store_block(ctx, cfg, &mut f.block, rel, value, bytes, guard & inside);
                }
            }
        }
        Block::Array { elem_size, elems } => {
            let n = elems.len() as u64;
            let (idx, intra) = array_index(ctx, cfg, offset, *elem_size, n);
            if let Some(i) = idx.as_const() {
                let i = (i as usize).min(elems.len() - 1);
                store_block(ctx, cfg, &mut elems[i], intra, value, bytes, guard);
                return;
            }
            for (i, e) in elems.iter_mut().enumerate() {
                let g = guard & idx.eq_(BV::lit(64, i as u128));
                store_block(ctx, cfg, e, intra, value, bytes, g);
            }
        }
        Block::SymArray {
            elem_bytes,
            count,
            stores,
            ..
        } => {
            let (idx, intra) =
                array_index(ctx, cfg, offset, *elem_bytes as u64, *count);
            ctx.bug_on(
                intra.ne_(BV::lit(64, 0)),
                "sub-element store to uniform symbolic array",
            );
            debug_assert_eq!(bytes, *elem_bytes, "SymArray store width mismatch");
            stores.push(GuardedStore {
                guard,
                idx,
                val: value,
            });
        }
    }
}

/// Splits a block-relative byte offset into `(element index, intra-element
/// offset)`. With `concretize_offsets`, pattern-matches `i*C0 + C1` and
/// emits the §4 soundness side condition (here: the index stays in bounds,
/// which implies the scaled form cannot wrap); otherwise falls back to
/// symbolic division.
fn array_index(
    ctx: &mut SymCtx,
    cfg: MemCfg,
    offset: BV,
    elem_size: u64,
    count: u64,
) -> (BV, BV) {
    let es = BV::lit(64, elem_size as u128);
    if cfg.concretize_offsets {
        if let Some((idx, intra)) = match_scaled_offset(offset, elem_size as u128) {
            // Side condition (paper §4): the optimistic rewrite
            // (C0*i + C1) mod C0 → C1 is only sound without overflow; the
            // bounds obligation i < count establishes it, and doubles as
            // the out-of-bounds UB check.
            ctx.bug_on(
                !idx.ult(BV::lit(64, count as u128)),
                "array index out of bounds",
            );
            return (idx, BV::lit(64, intra as u128));
        }
    }
    let idx = offset.udiv(es);
    let intra = offset.urem(es);
    ctx.bug_on(
        !idx.ult(BV::lit(64, count as u128)),
        "array index out of bounds",
    );
    (idx, intra)
}

/// Reads `bytes` bytes at `offset` within a `cb`-byte little-endian cell.
fn load_cell(ctx: &mut SymCtx, cb: u32, value: BV, offset: BV, bytes: u32) -> BV {
    assert!(bytes <= cb, "load wider than cell");
    if bytes == cb {
        ctx.bug_on(offset.ne_(BV::lit(64, 0)), "misaligned full-cell load");
        return value;
    }
    // Sub-cell load: enumerate the aligned byte offsets.
    let mut cases: Vec<(SBool, BV)> = Vec::new();
    let mut aligned = SBool::lit(false);
    for o in (0..cb).step_by(bytes as usize) {
        let guard = offset.eq_(BV::lit(64, o as u128));
        aligned = aligned | guard;
        cases.push((guard, value.extract((o + bytes) * 8 - 1, o * 8)));
    }
    ctx.bug_on(!aligned, "misaligned sub-cell load");
    merge_many(&cases)
}

/// Writes `bytes` bytes at `offset` within a `cb`-byte cell, returning the
/// updated cell value.
fn store_cell(ctx: &mut SymCtx, cb: u32, cell: BV, offset: BV, value: BV, bytes: u32) -> BV {
    assert!(bytes <= cb, "store wider than cell");
    if bytes == cb {
        ctx.bug_on(offset.ne_(BV::lit(64, 0)), "misaligned full-cell store");
        return value;
    }
    let mut cases: Vec<(SBool, BV)> = Vec::new();
    let mut aligned = SBool::lit(false);
    for o in (0..cb).step_by(bytes as usize) {
        let guard = offset.eq_(BV::lit(64, o as u128));
        aligned = aligned | guard;
        // Splice `value` into bits [o*8, (o+bytes)*8).
        let mut parts: Vec<BV> = Vec::new();
        if (o + bytes) * 8 < cb * 8 {
            parts.push(cell.extract(cb * 8 - 1, (o + bytes) * 8));
        }
        parts.push(value);
        if o > 0 {
            parts.push(cell.extract(o * 8 - 1, 0));
        }
        let mut spliced = parts[0];
        for p in &parts[1..] {
            spliced = spliced.concat(*p);
        }
        cases.push((guard, spliced));
    }
    ctx.bug_on(!aligned, "misaligned sub-cell store");
    merge_many(&cases)
}

// ---------------------------------------------------------------------
// Typed paths
// ---------------------------------------------------------------------

fn read_block_path(block: &Block, path: &[PathElem<'_>]) -> BV {
    match (block, path) {
        (Block::Cell { value, .. }, []) => *value,
        (Block::Struct { fields, .. }, [PathElem::Field(name), rest @ ..]) => {
            let f = fields
                .iter()
                .find(|f| f.name == *name)
                .unwrap_or_else(|| panic!("no field {name}"));
            read_block_path(&f.block, rest)
        }
        (Block::Array { elems, .. }, [PathElem::Index(i), rest @ ..]) => {
            read_block_path(&elems[*i as usize], rest)
        }
        (Block::Array { elems, .. }, [PathElem::IndexSym(idx), rest @ ..]) => {
            let cases: Vec<(SBool, BV)> = elems
                .iter()
                .enumerate()
                .map(|(i, e)| (idx.eq_(BV::lit(64, i as u128)), read_block_path(e, rest)))
                .collect();
            merge_many(&cases)
        }
        _ => panic!("path does not match block shape"),
    }
}

fn write_block_path(block: &mut Block, path: &[PathElem<'_>], value: BV) {
    match (block, path) {
        (Block::Cell { value: v, .. }, []) => *v = value,
        (Block::Struct { fields, .. }, [PathElem::Field(name), rest @ ..]) => {
            let f = fields
                .iter_mut()
                .find(|f| f.name == *name)
                .unwrap_or_else(|| panic!("no field {name}"));
            write_block_path(&mut f.block, rest, value)
        }
        (Block::Array { elems, .. }, [PathElem::Index(i), rest @ ..]) => {
            write_block_path(&mut elems[*i as usize], rest, value)
        }
        _ => panic!("path does not match block shape"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serval_smt::{reset_ctx, verify};

    fn proc_layout() -> Layout {
        Layout::Struct(vec![
            ("state".into(), Layout::Cell(8)),
            ("quota".into(), Layout::Cell(8)),
            ("owner".into(), Layout::Cell(8)),
            ("pad".into(), Layout::Cell(8)),
        ])
    }

    #[test]
    fn layout_sizes() {
        let l = proc_layout();
        assert_eq!(l.size(), 32);
        assert_eq!(l.align(), 8);
        let mixed = Layout::Struct(vec![
            ("a".into(), Layout::Cell(1)),
            ("b".into(), Layout::Cell(4)),
            ("c".into(), Layout::Cell(8)),
        ]);
        assert_eq!(mixed.size(), 16, "padding after the 1-byte field");
    }

    #[test]
    fn concrete_load_store_roundtrip() {
        reset_ctx();
        let mut ctx = SymCtx::new();
        let mut mem = Mem::new(MemCfg::default());
        mem.add_region(
            "procs",
            0x8000_0000,
            Layout::Array(4, Box::new(proc_layout())).instantiate_fresh("procs"),
        );
        let addr = BV::lit(64, 0x8000_0000 + 32 + 8); // procs[1].quota
        mem.store(&mut ctx, addr, BV::lit(64, 777), 8);
        let v = mem.load(&mut ctx, addr, 8);
        assert_eq!(v.as_const(), Some(777));
        // Typed path agrees.
        let q = mem.read_path("procs", &[PathElem::Index(1), PathElem::Field("quota")]);
        assert_eq!(q.as_const(), Some(777));
        // All obligations hold (bounds were concrete).
        for ob in ctx.take_obligations() {
            assert!(verify(&[], ob.condition).is_proved(), "{}", ob.label);
        }
    }

    #[test]
    fn symbolic_index_store_updates_conditionally() {
        reset_ctx();
        let mut ctx = SymCtx::new();
        let mut mem = Mem::new(MemCfg::default());
        mem.add_region(
            "procs",
            0x1000,
            Layout::Array(4, Box::new(proc_layout())).instantiate_fresh("procs"),
        );
        let pid = BV::fresh(64, "pid");
        ctx.assume(pid.ult(BV::lit(64, 4)));
        // store procs[pid].quota = 42 via address arithmetic.
        let addr = BV::lit(64, 0x1000) + pid * BV::lit(64, 32) + BV::lit(64, 8);
        mem.store(&mut ctx, addr, BV::lit(64, 42), 8);
        // Under pid == 2, procs[2].quota is 42 and procs[1].quota unchanged.
        let q2 = mem.read_path("procs", &[PathElem::Index(2), PathElem::Field("quota")]);
        let asm = [pid.eq_(BV::lit(64, 2))];
        assert!(verify(&asm, q2.eq_(BV::lit(64, 42))).is_proved());
        let q1 = mem.read_path("procs", &[PathElem::Index(1), PathElem::Field("quota")]);
        assert!(
            verify(&asm, q1.eq_(BV::lit(64, 42))).is_proved() == false,
            "other elements must not be clobbered"
        );
        // Bounds obligation holds under the assumption.
        for ob in ctx.take_obligations() {
            let assumptions: Vec<_> = vec![pid.ult(BV::lit(64, 4))];
            assert!(
                verify(&assumptions, ob.condition).is_proved(),
                "obligation failed: {}",
                ob.label
            );
        }
    }

    #[test]
    fn out_of_bounds_is_flagged() {
        reset_ctx();
        let mut ctx = SymCtx::new();
        let mut mem = Mem::new(MemCfg::default());
        mem.add_region(
            "arr",
            0x1000,
            Layout::Array(4, Box::new(Layout::Cell(8))).instantiate_fresh("arr"),
        );
        let i = BV::fresh(64, "i"); // unconstrained!
        let addr = BV::lit(64, 0x1000) + i * BV::lit(64, 8);
        let _ = mem.load(&mut ctx, addr, 8);
        let obs = ctx.take_obligations();
        assert!(
            obs.iter()
                .any(|ob| !verify(&[], ob.condition).is_proved()),
            "an out-of-bounds obligation must fail without bounds assumptions"
        );
    }

    #[test]
    fn wild_constant_address_is_undefined_behaviour() {
        reset_ctx();
        let mut ctx = SymCtx::new();
        let mut mem = Mem::new(MemCfg::default());
        mem.add_region(
            "cell",
            0x1000,
            Layout::Struct(vec![("value".into(), Layout::Cell(8))]).instantiate_zero("cell"),
        );
        let wild = BV::lit(64, 0x9000);
        assert_eq!(mem.load(&mut ctx, wild, 8).as_const(), Some(0));
        mem.store(&mut ctx, wild, BV::lit(64, 7), 8);
        assert_eq!(mem.read_path("cell", &[PathElem::Field("value")]).as_const(), Some(0));
        let obs = ctx.take_obligations();
        assert_eq!(obs.len(), 2, "one obligation per access");
        for ob in obs {
            assert!(
                matches!(verify(&[], ob.condition), serval_smt::VerifyResult::Counterexample(_)),
                "{} must be refuted",
                ob.label
            );
        }
    }

    #[test]
    fn sym_array_load_store() {
        reset_ctx();
        let mut ctx = SymCtx::new();
        let mut mem = Mem::new(MemCfg::default());
        mem.add_region(
            "ram",
            0x2000,
            Layout::SymArray(8, 1024).instantiate_fresh("ram"),
        );
        let i = BV::fresh(64, "i");
        ctx.assume(i.ult(BV::lit(64, 1024)));
        let addr = BV::lit(64, 0x2000) + i * BV::lit(64, 8);
        mem.store(&mut ctx, addr, BV::lit(64, 0xdead), 8);
        let v = mem.load(&mut ctx, addr, 8);
        assert!(verify(&[i.ult(BV::lit(64, 1024))], v.eq_(BV::lit(64, 0xdead))).is_proved());
        // A different index is unaffected by this store.
        let j = BV::fresh(64, "j");
        let addr_j = BV::lit(64, 0x2000) + j * BV::lit(64, 8);
        let vj = mem.load(&mut ctx, addr_j, 8);
        let asm = [
            i.ult(BV::lit(64, 1024)),
            j.ult(BV::lit(64, 1024)),
            i.ne_(j),
        ];
        // vj equals the initial (UF) contents at j, hence generally != 0xdead.
        assert!(!verify(&asm, vj.eq_(BV::lit(64, 0xdead))).is_proved());
    }

    #[test]
    fn merge_memories_after_branch() {
        reset_ctx();
        let mut ctx = SymCtx::new();
        let mut mem = Mem::new(MemCfg::default());
        mem.add_region(
            "data",
            0x1000,
            Layout::Struct(vec![("x".into(), Layout::Cell(8))]).instantiate_fresh("data"),
        );
        let c = SBool::fresh("c");
        let addr = BV::lit(64, 0x1000);
        ctx.branch(
            c,
            &mut mem,
            |ctx, m| m.store(ctx, addr, BV::lit(64, 1), 8),
            |ctx, m| m.store(ctx, addr, BV::lit(64, 2), 8),
        );
        let v = mem.read_path("data", &[PathElem::Field("x")]);
        assert!(verify(&[c], v.eq_(BV::lit(64, 1))).is_proved());
        assert!(verify(&[!c], v.eq_(BV::lit(64, 2))).is_proved());
    }

    #[test]
    fn sub_cell_access() {
        reset_ctx();
        let mut ctx = SymCtx::new();
        let mut mem = Mem::new(MemCfg::default());
        mem.add_region(
            "data",
            0x1000,
            Layout::Struct(vec![("x".into(), Layout::Cell(8))]).instantiate_zero("data"),
        );
        // Store a 4-byte value into the high half, then read bytes.
        mem.store(&mut ctx, BV::lit(64, 0x1004), BV::lit(32, 0xaabbccdd), 4);
        let lo = mem.load(&mut ctx, BV::lit(64, 0x1000), 4);
        let hi = mem.load(&mut ctx, BV::lit(64, 0x1004), 4);
        assert_eq!(lo.as_const(), Some(0));
        assert_eq!(hi.as_const(), Some(0xaabbccdd));
        let b = mem.load(&mut ctx, BV::lit(64, 0x1007), 1);
        assert_eq!(b.as_const(), Some(0xaa));
        for ob in ctx.take_obligations() {
            assert!(verify(&[], ob.condition).is_proved(), "{}", ob.label);
        }
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_regions_rejected() {
        reset_ctx();
        let mut mem = Mem::new(MemCfg::default());
        mem.add_region("a", 0x1000, Layout::Cell(8).instantiate_zero("a"));
        mem.add_region("b", 0x1004, Layout::Cell(8).instantiate_zero("b"));
    }
}
