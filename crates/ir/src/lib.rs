//! The LLVM-subset IR verifier and the untrusted IR→RV64 compiler.
//!
//! The paper's LLVM verifier (§5) implements the same LLVM subset as
//! Hyperkernel: integer arithmetic, comparisons, branches, memory access
//! through typed pointers, and direct calls — enough for trap handlers
//! written in C, with UBSan-style undefined-behaviour checks. This crate
//! provides:
//!
//! - [`ir`]: the IR itself (SSA-ish registers, basic blocks, terminators);
//! - [`interp`]: the lifted IR interpreter/verifier, sharing the
//!   `serval-core` memory model, with `bug_on` checks for oversized
//!   shifts, division by zero, and out-of-bounds access (the §7 Keystone
//!   bug classes);
//! - [`compile`](mod@compile): an *untrusted* compiler to RV64 at
//!   three optimization levels, playing gcc's role in the monitors'
//!   build (paper §6.4 measures verification time against
//!   `-O0/-O1/-O2` binaries). Nothing
//!   in the proofs trusts this compiler: the RISC-V verifier consumes its
//!   output like any other binary.
//!
//! The paper's two-step strategy (§6.4) is reproduced by the monitors:
//! first verify the IR against the specification with [`interp`], then
//! verify the compiled binary with the RISC-V verifier.

pub mod compile;
pub mod interp;
pub mod ir;

pub use compile::{compile, OptLevel};
pub use interp::IrInterp;
pub use ir::{BinOp, Block, Func, Module, Pred, Stmt, Term, Val};

#[cfg(test)]
mod tests;
