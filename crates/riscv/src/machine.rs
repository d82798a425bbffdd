//! RV64 machine state: registers, CSRs, and typed memory.

use serval_core::Mem;
use serval_smt::{SBool, BV};
use serval_sym::{Merge, SymCtx};

/// CSR numbers used by the monitors.
pub mod csr {
    pub const SATP: u16 = 0x180;
    pub const MSTATUS: u16 = 0x300;
    pub const MEDELEG: u16 = 0x302;
    pub const MIE: u16 = 0x304;
    pub const MTVEC: u16 = 0x305;
    pub const MSCRATCH: u16 = 0x340;
    pub const MEPC: u16 = 0x341;
    pub const MCAUSE: u16 = 0x342;
    pub const MTVAL: u16 = 0x343;
    pub const PMPCFG0: u16 = 0x3a0;
    pub const PMPADDR0: u16 = 0x3b0;
    pub const MHARTID: u16 = 0xf14;
}

/// The control and status registers modelled by the verifier: the Zicsr
/// state the two security monitors manipulate (trap handling, PMP, paging).
/// Monitor code under verification always executes in M-mode; S/U code is
/// never interpreted.
#[derive(Clone, Debug)]
pub struct Csrs {
    pub mstatus: BV,
    pub medeleg: BV,
    pub mie: BV,
    pub mtvec: BV,
    pub mscratch: BV,
    pub mepc: BV,
    pub mcause: BV,
    pub mtval: BV,
    pub satp: BV,
    pub mhartid: BV,
    /// PMP configuration (8 entries packed into pmpcfg0, RV64 layout).
    pub pmpcfg0: BV,
    /// PMP address registers.
    pub pmpaddr: Vec<BV>,
}

impl Csrs {
    /// Fully symbolic CSRs (trap-handler verification; paper §3.4).
    pub fn fresh(tag: &str) -> Csrs {
        let f = |n: &str| BV::fresh(64, &format!("{tag}.{n}"));
        Csrs {
            mstatus: f("mstatus"),
            medeleg: f("medeleg"),
            mie: f("mie"),
            mtvec: f("mtvec"),
            mscratch: f("mscratch"),
            mepc: f("mepc"),
            mcause: f("mcause"),
            mtval: f("mtval"),
            satp: f("satp"),
            mhartid: f("mhartid"),
            pmpcfg0: f("pmpcfg0"),
            pmpaddr: (0..8).map(|i| f(&format!("pmpaddr{i}"))).collect(),
        }
    }

    /// The architectural reset state (boot verification; paper §3.4).
    pub fn reset() -> Csrs {
        let z = BV::lit(64, 0);
        Csrs {
            mstatus: z,
            medeleg: z,
            mie: z,
            mtvec: z,
            mscratch: z,
            mepc: z,
            mcause: z,
            mtval: z,
            satp: z,
            mhartid: z,
            pmpcfg0: z,
            pmpaddr: vec![z; 8],
        }
    }

    /// Reads a CSR by number.
    pub fn read(&self, n: u16) -> Option<BV> {
        use csr::*;
        Some(match n {
            SATP => self.satp,
            MSTATUS => self.mstatus,
            MEDELEG => self.medeleg,
            MIE => self.mie,
            MTVEC => self.mtvec,
            MSCRATCH => self.mscratch,
            MEPC => self.mepc,
            MCAUSE => self.mcause,
            MTVAL => self.mtval,
            PMPCFG0 => self.pmpcfg0,
            MHARTID => self.mhartid,
            n if (PMPADDR0..PMPADDR0 + 8).contains(&n) => {
                self.pmpaddr[(n - PMPADDR0) as usize]
            }
            _ => return None,
        })
    }

    /// Writes a CSR by number. Returns false for unknown CSRs.
    pub fn write(&mut self, n: u16, v: BV) -> bool {
        use csr::*;
        match n {
            SATP => self.satp = v,
            MSTATUS => self.mstatus = v,
            MEDELEG => self.medeleg = v,
            MIE => self.mie = v,
            MTVEC => self.mtvec = v,
            MSCRATCH => self.mscratch = v,
            MEPC => self.mepc = v,
            MCAUSE => self.mcause = v,
            MTVAL => self.mtval = v,
            PMPCFG0 => self.pmpcfg0 = v,
            MHARTID => {} // read-only; writes are ignored
            n if (PMPADDR0..PMPADDR0 + 8).contains(&n) => {
                self.pmpaddr[(n - PMPADDR0) as usize] = v
            }
            _ => return false,
        }
        true
    }
}

impl Merge for Csrs {
    fn merge(c: SBool, t: &Self, e: &Self) -> Self {
        Csrs {
            mstatus: BV::merge(c, &t.mstatus, &e.mstatus),
            medeleg: BV::merge(c, &t.medeleg, &e.medeleg),
            mie: BV::merge(c, &t.mie, &e.mie),
            mtvec: BV::merge(c, &t.mtvec, &e.mtvec),
            mscratch: BV::merge(c, &t.mscratch, &e.mscratch),
            mepc: BV::merge(c, &t.mepc, &e.mepc),
            mcause: BV::merge(c, &t.mcause, &e.mcause),
            mtval: BV::merge(c, &t.mtval, &e.mtval),
            satp: BV::merge(c, &t.satp, &e.satp),
            mhartid: BV::merge(c, &t.mhartid, &e.mhartid),
            pmpcfg0: BV::merge(c, &t.pmpcfg0, &e.pmpcfg0),
            pmpaddr: Vec::merge(c, &t.pmpaddr, &e.pmpaddr),
        }
    }
}

/// The full machine state under symbolic evaluation.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Program counter.
    pub pc: BV,
    /// Integer registers; index 0 is hard-wired zero (use the accessors).
    pub regs: Vec<BV>,
    /// Control and status registers.
    pub csrs: Csrs,
    /// Typed memory (paper §3.4).
    pub mem: Mem,
}

impl Machine {
    /// A machine with fully symbolic registers and CSRs at the given entry
    /// point — the architecturally-defined trap-entry state (paper §3.4).
    pub fn fresh_at(pc: u64, mem: Mem, tag: &str) -> Machine {
        let mut regs: Vec<BV> = (0..32)
            .map(|i| BV::fresh(64, &format!("{tag}.x{i}")))
            .collect();
        regs[0] = BV::lit(64, 0);
        Machine {
            pc: BV::lit(64, pc as u128),
            regs,
            csrs: Csrs::fresh(tag),
            mem,
        }
    }

    /// A machine in the architectural reset state (boot verification).
    pub fn reset_at(pc: u64, mem: Mem) -> Machine {
        Machine {
            pc: BV::lit(64, pc as u128),
            regs: vec![BV::lit(64, 0); 32],
            csrs: Csrs::reset(),
            mem,
        }
    }

    /// Reads register `r` (x0 reads as zero).
    pub fn reg(&self, r: u8) -> BV {
        if r == 0 {
            BV::lit(64, 0)
        } else {
            self.regs[r as usize]
        }
    }

    /// Writes register `r` (writes to x0 are dropped).
    pub fn set_reg(&mut self, r: u8, v: BV) {
        debug_assert_eq!(v.width(), 64);
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    /// Loads from memory, recording UB obligations in `ctx`.
    pub fn load(&mut self, ctx: &mut SymCtx, addr: BV, bytes: u32) -> BV {
        self.mem.load(ctx, addr, bytes)
    }

    /// Stores to memory, recording UB obligations in `ctx`.
    pub fn store(&mut self, ctx: &mut SymCtx, addr: BV, val: BV, bytes: u32) {
        self.mem.store(ctx, addr, val, bytes)
    }
}

impl Merge for Machine {
    fn merge(c: SBool, t: &Self, e: &Self) -> Self {
        Machine {
            pc: BV::merge(c, &t.pc, &e.pc),
            regs: Vec::merge(c, &t.regs, &e.regs),
            csrs: Csrs::merge(c, &t.csrs, &e.csrs),
            mem: Mem::merge(c, &t.mem, &e.mem),
        }
    }
}
