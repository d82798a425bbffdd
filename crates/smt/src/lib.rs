//! An SMT layer for the quantifier-free theory of fixed-width bitvectors
//! with uninterpreted functions (QF_UFBV).
//!
//! The original Serval relies on Rosette to compile symbolic values to SMT
//! constraints and on Z3 to discharge them. This crate plays both roles for
//! the decidable fragment Serval's specification library permits (paper
//! §3.1): booleans, bitvectors, uninterpreted functions, and quantifiers
//! over finite domains (which the layer above unrolls).
//!
//! Architecture:
//!
//! - [`term`]: a hash-consed term DAG with a thread-local context.
//! - [`build`]: smart constructors performing aggressive simplification and
//!   constant folding — the analogue of Rosette's partial evaluation.
//! - [`bv`]: ergonomic [`BV`] / [`SBool`] wrappers with operator
//!   overloading, used pervasively by the instruction-set interpreters.
//! - [`blast`]: a Tseitin bit-blaster lowering assertions to CNF for the
//!   `serval-sat` CDCL solver, with Ackermann expansion for uninterpreted
//!   functions.
//! - [`model`]: satisfying assignments mapped back to term-level values
//!   (counterexamples, paper §3.1).
//! - [`solver`]: `check` / `verify` entry points.
//! - [`session`]: incremental discharge sessions — one live solver and
//!   blaster answering a stream of goals under a shared assumption set,
//!   with per-goal activation literals and learnt-clause reuse.
//! - [`presolve`]: one word-level simplification pass (narrowing of
//!   bounded variables, known-bits/interval folding, structural `ite`
//!   equality splits, folding of restated assumptions) run on
//!   `(assumptions, goal)` queries before normalization and blasting.
//!
//! # Examples
//!
//! ```
//! use serval_smt::{BV, reset_ctx, verify, VerifyResult};
//!
//! reset_ctx();
//! let x = BV::fresh(32, "x");
//! // x & 1 is 0 or 1, so (x & 1) <= 1 must hold.
//! let goal = (x & BV::lit(32, 1)).ule(BV::lit(32, 1));
//! assert!(matches!(verify(&[], goal), VerifyResult::Proved));
//! ```

pub mod blast;
pub mod build;
pub mod bv;
pub mod model;
pub mod presolve;
pub mod semantics;
pub mod session;
pub mod solver;
pub mod term;

pub use bv::{SBool, BV};
pub use model::Model;
pub use serval_sat::Rephase;
pub use session::{Session, SessionOutcome, SessionProof};
pub use solver::{
    check, check_full, check_full_proof, verify, verify_full, CheckOutcome, CheckResult,
    QueryStats, SolverConfig, VerifyOutcome, VerifyResult,
};
pub use term::{reset_ctx, with_ctx, Sort, TermId, UfId};

#[cfg(test)]
mod tests;
