//! The Keystone case study (paper §7): partial specifications for rapid
//! interface analysis and undefined-behaviour bug finding.
//!
//! Keystone is an open-source security monitor that isolates each enclave
//! with a dedicated PMP region (no paging, unlike Komodo). The paper wrote
//! a functional specification from its design, proved safety properties
//! over the specification, compared against the implementation, and ran
//! the LLVM verifier over the code, producing four findings:
//!
//! 1. Keystone allowed an enclave to create enclaves within itself,
//!    violating the safety property that an enclave's state is not
//!    influenced by other enclaves — reproduced by
//!    [`prove_no_nested_creation`] failing against the
//!    [`KeystoneVariant::AsImplemented`] model and passing against the
//!    specification's behaviour.
//! 2. Keystone required the OS to provide a page table and checked its
//!    well-formedness, although PMP alone guarantees isolation —
//!    reproduced by [`prove_isolation`] holding *without* any page-table
//!    precondition.
//! 3. An oversized-shift UB bug on a monitor-call path — found by the IR
//!    verifier's UBSan-style checks in [`audit_ub`].
//! 4. A buffer overflow on a monitor-call path — found by the memory
//!    model's bounds obligations in [`audit_ub`].

use serval_core::report::{discharge, discharge_obligations, ProofReport};
use serval_core::{BugOn, Layout, Mem, MemCfg};
use serval_ir::ir::{BinOp, FuncBuilder, Module, Pred, Term, Val};
use serval_ir::IrInterp;
use serval_smt::solver::SolverConfig;
use serval_smt::{reset_ctx, SBool, BV};
use serval_sym::{Merge, SymCtx};

/// Number of enclave slots.
pub const NENC: u64 = 4;
/// Sentinel for "no running enclave".
pub const NONE: u64 = NENC;
/// Base of the monitor's config array.
pub const CONFIG: u64 = 0x8040_0000;
/// Number of config slots.
pub const NCONFIG: u64 = 8;
/// Width of region bounds (page numbers); keeping this narrow keeps the
/// pairwise-disjointness queries small for the bit-blasted solver without
/// changing the isolation argument.
pub const W: u32 = 16;

/// Which behaviour to model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeystoneVariant {
    /// Keystone as found: `create_enclave` is reachable from enclave
    /// context, and the monitor checks the OS-provided page table.
    AsImplemented,
    /// With the paper's two suggestions applied (both adopted upstream):
    /// nested creation rejected; page-table check dropped.
    Suggested,
}

/// Abstract Keystone state: enclave slots with PMP regions, plus the
/// currently running enclave.
#[derive(Clone, Debug)]
pub struct SpecState {
    /// Per-slot: 0 = free, 1 = active.
    pub state: Vec<BV>,
    /// Per-slot dedicated PMP region `[lo, hi)`.
    pub lo: Vec<BV>,
    /// Region upper bounds.
    pub hi: Vec<BV>,
    /// Currently running enclave or [`NONE`].
    pub cur: BV,
}

impl Merge for SpecState {
    fn merge(c: SBool, t: &Self, e: &Self) -> Self {
        SpecState {
            state: Vec::merge(c, &t.state, &e.state),
            lo: Vec::merge(c, &t.lo, &e.lo),
            hi: Vec::merge(c, &t.hi, &e.hi),
            cur: BV::merge(c, &t.cur, &e.cur),
        }
    }
}

impl SpecState {
    /// A fully symbolic state.
    pub fn fresh(tag: &str) -> SpecState {
        SpecState {
            state: (0..NENC)
                .map(|i| BV::fresh(64, &format!("{tag}.st{i}")))
                .collect(),
            lo: (0..NENC)
                .map(|i| BV::fresh(W, &format!("{tag}.lo{i}")))
                .collect(),
            hi: (0..NENC)
                .map(|i| BV::fresh(W, &format!("{tag}.hi{i}")))
                .collect(),
            cur: BV::fresh(64, &format!("{tag}.cur")),
        }
    }
}

/// `create_enclave(idx, lo, hi)` under the given variant. Returns the
/// result (0 ok / -1 error).
pub fn spec_create(
    variant: KeystoneVariant,
    s: &mut SpecState,
    idx: BV,
    lo: BV,
    hi: BV,
) -> BV {
    let mut valid = idx.ult(BV::lit(64, NENC as u128)) & lo.ult(hi);
    // Slot must be free and the region disjoint from every active one.
    for i in 0..NENC as usize {
        let iv = BV::lit(64, i as u128);
        let active = s.state[i].eq_(BV::lit(64, 1));
        let disjoint = hi.ule(s.lo[i]) | s.hi[i].ule(lo);
        valid = valid & idx.eq_(iv).implies(!active);
        valid = valid & (!idx.eq_(iv)).implies(active.implies(disjoint));
    }
    if variant == KeystoneVariant::Suggested {
        // The paper's first suggestion: creation is an OS operation only.
        valid = valid & s.cur.eq_(BV::lit(64, NONE as u128));
    }
    // (The second suggestion is the *absence* of any page-table
    // precondition here: PMP disjointness alone carries the proof.)
    for i in 0..NENC as usize {
        let here = valid & idx.eq_(BV::lit(64, i as u128));
        s.state[i] = here.select(BV::lit(64, 1), s.state[i]);
        s.lo[i] = here.select(lo, s.lo[i]);
        s.hi[i] = here.select(hi, s.hi[i]);
    }
    valid.select(BV::lit(64, 0), BV::lit(64, u64::MAX as u128))
}

/// Safety property (paper §7): an enclave's state is never influenced by
/// the creation of another enclave. Fails for [`KeystoneVariant::
/// AsImplemented`]: a *running enclave* can invoke creation, so enclave
/// behaviour (its slot bookkeeping and the set of co-resident enclaves it
/// can observe through timing of its own calls) is influenced from enclave
/// context — the paper's suggestion makes creation an OS-only operation.
pub fn prove_no_nested_creation(variant: KeystoneVariant, cfg: SolverConfig) -> ProofReport {
    reset_ctx();
    let mut ctx = SymCtx::new();
    let mut s = SpecState::fresh("s");
    let (idx, lo, hi) = (
        BV::fresh(64, "idx"),
        BV::fresh(W, "lo"),
        BV::fresh(W, "hi"),
    );
    // An enclave is running.
    ctx.assume(s.cur.ult(BV::lit(64, NENC as u128)));
    let r = spec_create(variant, &mut s, idx, lo, hi);
    // The call must fail from enclave context.
    let goal = r.eq_(BV::lit(64, u64::MAX as u128));
    discharge(
        &ctx,
        cfg,
        format!("keystone[{variant:?}]: no enclave-in-enclave creation"),
        goal,
    )
    .into()
}

/// Safety property: active enclaves' PMP regions are pairwise disjoint,
/// preserved by creation — with *no* page-table hypothesis, demonstrating
/// the paper's second suggestion (drop the page-table check; PMP
/// suffices).
pub fn prove_isolation(variant: KeystoneVariant, cfg: SolverConfig) -> ProofReport {
    reset_ctx();
    let mut ctx = SymCtx::new();
    let mut s = SpecState::fresh("s");
    ctx.assume(isolated(&s));
    let (idx, lo, hi) = (
        BV::fresh(64, "idx"),
        BV::fresh(W, "lo"),
        BV::fresh(W, "hi"),
    );
    let _ = spec_create(variant, &mut s, idx, lo, hi);
    discharge(
        &ctx,
        cfg,
        format!("keystone[{variant:?}]: PMP isolation without page-table checks"),
        isolated(&s),
    )
    .into()
}

/// The isolation invariant: active regions are well-formed and pairwise
/// disjoint.
fn isolated(s: &SpecState) -> SBool {
    let mut inv = SBool::lit(true);
    for i in 0..NENC as usize {
        let ai = s.state[i].eq_(BV::lit(64, 1));
        inv = inv & ai.implies(s.lo[i].ult(s.hi[i]));
        for j in (i + 1)..NENC as usize {
            let aj = s.state[j].eq_(BV::lit(64, 1));
            let disjoint = s.hi[i].ule(s.lo[j]) | s.hi[j].ule(s.lo[i]);
            inv = inv & (ai & aj).implies(disjoint);
        }
    }
    inv
}

// ---------------------------------------------------------------------
// Undefined-behaviour bugs (found by the IR verifier, paper §7)
// ---------------------------------------------------------------------

/// The two monitor-call code paths with the §7 UB bug classes. With
/// `buggy`, `region_size` shifts by an unchecked user-controlled order
/// (oversized shift) and `set_config` indexes the config array without a
/// bound (buffer overflow); without, both are guarded.
pub fn module(buggy: bool) -> Module {
    // region_size(order) = 1 << order.
    let region_size = {
        let mut b = FuncBuilder::new("region_size", 1);
        b.block("entry");
        if buggy {
            let r = b.bin(BinOp::Shl, Val::Const(1), Val::Param(0));
            b.term(Term::Ret(r));
        } else {
            let ok = b.icmp(Pred::Ult, Val::Param(0), Val::Const(56));
            b.term(Term::CondBr(ok, "doit", "fail"));
            b.block("doit");
            let r = b.bin(BinOp::Shl, Val::Const(1), Val::Param(0));
            b.term(Term::Ret(r));
            b.block("fail");
            b.term(Term::Ret(Val::Const(0)));
        }
        b.build()
    };
    // set_config(idx, val): config[idx] = val.
    let set_config = {
        let mut b = FuncBuilder::new("set_config", 2);
        b.block("entry");
        if buggy {
            let off = b.bin(BinOp::Shl, Val::Param(0), Val::Const(3));
            let addr = b.bin(BinOp::Add, Val::Global("config"), off);
            b.store(addr, Val::Param(1), 8);
            b.term(Term::Ret(Val::Const(0)));
        } else {
            let ok = b.icmp(Pred::Ult, Val::Param(0), Val::Const(NCONFIG as i64));
            b.term(Term::CondBr(ok, "doit", "fail"));
            b.block("doit");
            let off = b.bin(BinOp::Shl, Val::Param(0), Val::Const(3));
            let addr = b.bin(BinOp::Add, Val::Global("config"), off);
            b.store(addr, Val::Param(1), 8);
            b.term(Term::Ret(Val::Const(0)));
            b.block("fail");
            b.term(Term::Ret(Val::Const(-1)));
        }
        b.build()
    };
    Module {
        funcs: vec![region_size, set_config],
        globals: vec![("config", CONFIG)],
    }
}

/// Runs the IR verifier's UB checks over both monitor-call paths with
/// symbolic arguments, as the paper did with the LLVM verifier. With the
/// bugs present the report contains failures (the two §7 UB bugs); with
/// the fixes it is clean. The obligations go to the engine as one batch.
pub fn audit_ub(buggy: bool, cfg: SolverConfig) -> ProofReport {
    reset_ctx();
    let mut ctx = SymCtx::new();
    let module = module(buggy);
    let mut mem = Mem::new(MemCfg::default());
    mem.add_region(
        "config",
        CONFIG,
        Layout::Array(NCONFIG, Box::new(Layout::Cell(8))).instantiate_fresh("config"),
    );
    let interp = IrInterp::new(&module);
    let order = BV::fresh(64, "order");
    let _ = interp.call(&mut ctx, &mut mem, "region_size", &[order]);
    let idx = BV::fresh(64, "idx");
    let val = BV::fresh(64, "val");
    let _ = interp.call(&mut ctx, &mut mem, "set_config", &[idx, val]);
    // Sanity-check obligations also flow through bug_on.
    ctx.bug_on(SBool::lit(false), "audit harness self-check");
    discharge_obligations(&mut ctx, cfg, "keystone ub: ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SolverConfig {
        SolverConfig::default()
    }

    #[test]
    fn nested_creation_caught_then_fixed() {
        let report = prove_no_nested_creation(KeystoneVariant::AsImplemented, cfg());
        assert!(!report.all_proved(), "finding 1 must be caught");
        let report = prove_no_nested_creation(KeystoneVariant::Suggested, cfg());
        assert!(report.all_proved(), "\n{}", report.render());
    }

    #[test]
    fn isolation_holds_without_page_table_checks() {
        // Finding 2: both variants prove isolation with no page-table
        // hypothesis anywhere — the check is unnecessary.
        for v in [KeystoneVariant::AsImplemented, KeystoneVariant::Suggested] {
            let report = prove_isolation(v, cfg());
            assert!(report.all_proved(), "{v:?}\n{}", report.render());
        }
    }

    #[test]
    fn ub_bugs_found_and_fixed() {
        let report = audit_ub(true, cfg());
        let failures = report
            .theorems
            .iter()
            .filter(|t| !t.verdict.is_proved())
            .count();
        assert!(failures >= 2, "both §7 UB bugs must be found:\n{}", report.render());
        let report = audit_ub(false, cfg());
        assert!(report.all_proved(), "\n{}", report.render());
    }
}
