//! The verified security monitors (paper §6) and the Keystone case study
//! (paper §7).
//!
//! - [`certikos`]: CertiKOS^s — strict isolation between processes with
//!   memory quotas and PMP-backed contiguous regions (paper §6.2),
//!   including the two retrofit interface changes (caller-chosen child
//!   PID; ELF loading delegated to S-mode) and the legacy consecutive-PID
//!   `spawn` whose covert channel the Nickel-style specification catches.
//! - [`komodo`]: Komodo^s — an SGX-like enclave monitor with a page
//!   database and PMP+paging isolation (paper §6.3).
//! - [`keystone`]: the Keystone partial-specification case study with the
//!   four §7 findings seeded and detected.
//!
//! Each monitor follows the paper's two-step strategy (§6.4): the trap
//! handlers are written in the LLVM-like IR and verified with the IR
//! verifier first; then the *binary* (compiled by the untrusted IR→RV64
//! compiler plus a hand-written trap-dispatch stub) is verified with the
//! RISC-V verifier. Functional correctness is proved by state-machine
//! refinement; noninterference over the specification. The binary-level
//! proofs share one trap harness (`trap`): the symbolic trap-entry
//! state, the handler run, and the goals every monitor checks at trap
//! return.

pub mod certikos;
pub mod keystone;
pub mod komodo;
mod trap;
