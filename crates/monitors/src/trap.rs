//! The binary-level trap harness (paper §6.4, second step): what every
//! monitor proof over the compiled binary does around its
//! specification.
//!
//! [`enter`] builds the symbolic trap-entry state, assumes the
//! representation invariant of its abstraction and runs the handler;
//! [`run`] turns a failed evaluation into the report's one `Unknown`
//! theorem; [`ub`] starts a proof's [`Goals`] with the UB obligations,
//! and [`scrubbed`] and [`pmp_is`] build the goals the monitors share.
//! Each builds its terms in the order the proofs always did, so the
//! queries they submit keep their cache keys.

use serval_core::report::{discharge_batch, NamedGoal, ProofReport, TheoremResult, Verdict};
use serval_core::{Mem, OptCfg};
use serval_riscv::{reg, Interp, Machine};
use serval_smt::solver::SolverConfig;
use serval_smt::{SBool, BV};
use serval_sym::SymCtx;
use std::time::Duration;

/// A handler run from the symbolic trap-entry state.
pub(crate) struct Trap<S> {
    /// Holds the representation invariant and the handler's path
    /// conditions and UB obligations.
    pub ctx: SymCtx,
    /// The machine after the handler returned.
    pub m: Machine,
    /// The abstract entry state.
    pub s0: S,
    /// The registers at trap entry (with `a7` pinned, if it was).
    pub regs: Vec<BV>,
    /// `mepc` at trap entry.
    pub mepc: BV,
}

/// A monitor as the harness sees it.
pub(crate) struct Monitor<S> {
    /// Where the trap vector points: the handler's first instruction.
    pub code_base: u64,
    /// The monitor's memory with fully symbolic contents.
    pub fresh_mem: fn() -> Mem,
    /// The abstraction function from memory to the specification state.
    pub abstraction: fn(&Mem) -> S,
    /// The representation invariant over the specification state.
    pub invariant: fn(&S) -> SBool,
}

/// Builds a fully symbolic machine at the monitor's code base over its
/// fresh memory (offsets concretized as `optcfg` says), assumes the
/// representation invariant of the entry state's abstraction, pins `a7`
/// to the monitor-call number when one is given (the external form of
/// split-cases, paper §4) and runs the handler. A failed evaluation is
/// the `Err` report of [`run`].
pub(crate) fn enter<S>(
    monitor: &Monitor<S>,
    name: &str,
    interp: &Interp,
    optcfg: OptCfg,
    a7: Option<u64>,
) -> Result<Trap<S>, ProofReport> {
    let mut ctx = SymCtx::new();
    let mut mem = (monitor.fresh_mem)();
    mem.cfg.concretize_offsets = optcfg.concretize_offsets;
    let mut m = Machine::fresh_at(monitor.code_base, mem, "m");
    let s0 = (monitor.abstraction)(&m.mem);
    ctx.assume((monitor.invariant)(&s0));
    if let Some(op) = a7 {
        m.set_reg(reg::A7, BV::lit(64, op as u128));
    }
    let regs = m.regs.clone();
    let mepc = m.csrs.mepc;
    run(name, interp, &mut ctx, &mut m)?;
    Ok(Trap { ctx, m, s0, regs, mepc })
}

/// Evaluates the code from `m`. If some path diverged, jumped to an
/// opaque pc or none returned, the `Err` report holds one `Unknown`
/// theorem, `{name}: symbolic evaluation`, that says which.
pub(crate) fn run(
    name: &str,
    interp: &Interp,
    ctx: &mut SymCtx,
    m: &mut Machine,
) -> Result<(), ProofReport> {
    let outcome = interp.run(ctx, m);
    let reason = if outcome.diverged {
        "diverged: a path ran out of fuel"
    } else if outcome.opaque_pc {
        "a path reached an opaque program counter"
    } else if !outcome.returned {
        "no path returned from the handler"
    } else {
        return Ok(());
    };
    Err(TheoremResult {
        name: format!("{name}: symbolic evaluation"),
        verdict: Verdict::Unknown,
        time: Duration::ZERO,
        stats: None,
        cache_hit: false,
        reason: Some(reason.into()),
    }
    .into())
}

/// The theorems of one proof, each named `{name}: {what}`.
pub(crate) struct Goals<'a> {
    name: &'a str,
    list: Vec<NamedGoal>,
}

/// The proof's first theorems: the UB obligations the evaluation
/// collected, one each.
pub(crate) fn ub<'a>(ctx: &mut SymCtx, name: &'a str) -> Goals<'a> {
    let list = ctx.take_obligations().into_iter();
    let list = list.map(|ob| NamedGoal::new(format!("{name}: {}", ob.label), ob.condition));
    Goals { name, list: list.collect() }
}

impl Goals<'_> {
    /// Adds the theorem `goal`, named `{name}: {what}`.
    pub fn push(&mut self, what: &str, goal: SBool) {
        self.list.push(NamedGoal::new(format!("{}: {what}", self.name), goal));
    }

    /// Discharges every theorem under `ctx`'s assumptions, as one batch.
    pub fn discharge(self, ctx: &SymCtx, cfg: SolverConfig) -> ProofReport {
        discharge_batch(ctx, cfg, self.list)
    }
}

/// The scratch registers a handler must zero before `mret` (`a0`
/// carries the result; `sp`, `s0` and `s1` are checked against the
/// context the handler resumes).
const SCRATCH: [u8; 17] = [
    reg::RA,
    reg::GP,
    reg::TP,
    reg::T0,
    reg::T1,
    reg::T2,
    reg::T3,
    reg::T4,
    reg::T5,
    reg::T6,
    reg::A1,
    reg::A2,
    reg::A3,
    reg::A4,
    reg::A5,
    reg::A6,
    reg::A7,
];

/// No monitor data leaks through a scratch register: every one is zero
/// at trap return.
pub(crate) fn scrubbed(m: &Machine) -> SBool {
    let mut scrubbed = SBool::lit(true);
    for r in SCRATCH {
        scrubbed = scrubbed & m.reg(r).eq_(BV::lit(64, 0));
    }
    scrubbed
}

/// The PMP window is `[lo, hi)` with configuration `cfg`.
pub(crate) fn pmp_is(m: &Machine, lo: BV, hi: BV, cfg: BV) -> SBool {
    m.csrs.pmpaddr[0].eq_(lo) & m.csrs.pmpaddr[1].eq_(hi) & m.csrs.pmpcfg0.eq_(cfg)
}
