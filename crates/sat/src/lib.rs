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
//! - chronological backtracking: a conflict whose backjump would undo
//!   more than 100 levels backtracks one level instead, and the learnt
//!   clause asserts its literal at its own lower level. The trail may
//!   then hold *out-of-order* literals (a literal's level below that of
//!   the segment it sits in); every reason's literals still sit earlier
//!   on the trail at no higher level, and `backtrack` keeps the literals
//!   at or below its target, in trail order. A `Sat` answer means what
//!   it meant on an in-order trail: every in-scope variable assigned
//!   and no conflict,
//! - exponential VSIDS variable activities with a binary-heap order,
//! - phase saving (with optional restart-boundary rephasing),
//! - Luby-sequence restarts (or, optionally, a geometric series),
//! - LBD ("glue")-based learnt-clause database reduction,
//! - SatELite-style inprocessing at level-0 boundaries — level-0
//!   cleanup and bounded variable elimination with model
//!   reconstruction. Certified mode survives it: every strengthening
//!   and every unit resolvent is logged to the proof; the other
//!   resolvents are elided, and each is logged once, on first use, when
//!   a hint names it (see `inprocess.rs`), and
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
