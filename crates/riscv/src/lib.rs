//! The RISC-V verifier (paper §5): an RV64I + M + Zicsr interpreter lifted
//! to a verifier by symbolic evaluation.
//!
//! Components:
//!
//! - [`insn`]: the instruction set, with both a decoder *and* an encoder.
//!   Following the paper's validation approach (§3.4), anything that
//!   decodes machine words re-encodes each instruction and compares bytes,
//!   removing the assembler/disassembler from the trusted base.
//! - [`asm`]: a small assembler (labels, branches, pseudo-instructions)
//!   used by the monitors' build descriptions and by tests.
//! - [`machine`]: the machine state — registers, CSRs (Zicsr + the M-mode
//!   trap and PMP registers used by the security monitors), and typed
//!   memory from `serval-core`.
//! - [`interp`]: the fetch-decode-execute loop under symbolic evaluation,
//!   with `split-pc` applied before every fetch (paper §4) and trap-return
//!   (`mret`) as the exit point of a handler run (paper §3.4, Fig. 6).
//!
//! The PMP CSRs are machine state, not a model: the monitors' proofs
//! compare them with the configuration each call must install. S/U-mode
//! code is not interpreted, so no page walk is modelled.

pub mod asm;
pub mod insn;
pub mod interp;
pub mod machine;

pub use asm::Asm;
pub use insn::{decode, encode, Insn};
pub use interp::{Interp, RunOutcome};
pub use machine::{Csrs, Machine};

/// ABI register numbers.
pub mod reg {
    /// Hard-wired zero.
    pub const ZERO: u8 = 0;
    /// Return address.
    pub const RA: u8 = 1;
    /// Stack pointer.
    pub const SP: u8 = 2;
    /// Global pointer.
    pub const GP: u8 = 3;
    /// Thread pointer.
    pub const TP: u8 = 4;
    /// Temporaries.
    pub const T0: u8 = 5;
    pub const T1: u8 = 6;
    pub const T2: u8 = 7;
    /// Saved register / frame pointer.
    pub const S0: u8 = 8;
    pub const S1: u8 = 9;
    /// Argument registers.
    pub const A0: u8 = 10;
    pub const A1: u8 = 11;
    pub const A2: u8 = 12;
    pub const A3: u8 = 13;
    pub const A4: u8 = 14;
    pub const A5: u8 = 15;
    pub const A6: u8 = 16;
    pub const A7: u8 = 17;
    /// More saved registers.
    pub const S2: u8 = 18;
    pub const S3: u8 = 19;
    pub const S4: u8 = 20;
    pub const S5: u8 = 21;
    /// More temporaries.
    pub const T3: u8 = 28;
    pub const T4: u8 = 29;
    pub const T5: u8 = 30;
    pub const T6: u8 = 31;
}

#[cfg(test)]
mod tests;
