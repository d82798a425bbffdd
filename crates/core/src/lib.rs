//! The Serval framework core (paper §3–§4).
//!
//! This crate provides what the paper calls the "Serval framework" layer of
//! the verification stack (Fig. 1): everything a lifted interpreter needs
//! beyond raw symbolic evaluation.
//!
//! - [`mem`]: the unified memory model shared by the verifiers (§3.4) —
//!   memory as disjoint typed blocks (structured blocks, uniform blocks,
//!   cells), with symbol-table-driven construction and validity checks.
//! - [`opts`]: the symbolic optimizations (§4) — `split_pc`, `split_cases`,
//!   and in-struct offset concretization with soundness side conditions.
//!   Each can be disabled individually for the §6.4 ablation.
//! - [`spec`]: the specification library (§3.3) — state-machine refinement
//!   and step consistency, the lemmas the verifiers prove through it.
//! - [`report`]: proof reports with rendered counterexamples.
//! - [`BugOn`]: undefined-behaviour checks (`bug_on`) collected as proof
//!   obligations, as in Fig. 4.

pub mod mem;
pub mod opts;
pub mod report;
pub mod spec;

pub use mem::{Block, Layout, Mem, MemCfg, PathElem};
pub use opts::{enumerate_pc, split_cases, split_pc, OptCfg, PcCases};
pub use report::{discharge, discharge_obligations, ProofReport, TheoremResult, Verdict};
pub use spec::{prove_refinement, prove_step_consistency, Refinement};

use serval_smt::SBool;
use serval_sym::SymCtx;

/// Undefined-behaviour checks, as inserted by verifiers (paper Fig. 4).
pub trait BugOn {
    /// Records the obligation that `cond` is false on the current path:
    /// the behaviour is undefined whenever `cond` holds.
    fn bug_on(&mut self, cond: SBool, label: &str);
}

impl BugOn for SymCtx {
    fn bug_on(&mut self, cond: SBool, label: &str) {
        self.require(!cond, format!("bug-on: {label}"));
    }
}
