//! A CDCL SAT solver.
//!
//! This crate is the bottom of the Serval-reproduction verification stack
//! (paper Fig. 1). The original Serval discharges verification conditions
//! with Z3; this reproduction bit-blasts bitvector constraints (see the
//! `serval-smt` crate) and decides the resulting propositional formula with
//! the conflict-driven clause-learning solver implemented here.
//!
//! The solver implements the standard modern architecture:
//!
//! - two-watched-literal unit propagation,
//! - first-UIP conflict analysis with clause minimization,
//! - exponential VSIDS variable activities with a binary-heap order,
//! - phase saving (with optional restart-boundary rephasing),
//! - Luby-sequence restarts (or a geometric series, for portfolio
//!   diversity),
//! - LBD ("glue")-based learnt-clause database reduction,
//! - SatELite-style inprocessing at level-0 boundaries — backward
//!   subsumption, self-subsuming resolution, and bounded variable
//!   elimination with model reconstruction — every step logged to the
//!   DRAT proof so certified mode survives it, and
//! - incremental solving under assumptions with final-conflict (core)
//!   extraction.
//!
//! # Examples
//!
//! ```
//! use serval_sat::{Solver, Lit, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a)]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.value_lit(Lit::pos(b)), Some(true));
//! ```

mod heap;
mod luby;
mod proof;
mod solver;
mod types;

pub use proof::{ProofLog, Step, StepKind};
pub use solver::{Rephase, Solver, SolverStats};
pub use types::{Lit, SolveResult, Var};

#[cfg(test)]
mod tests;
