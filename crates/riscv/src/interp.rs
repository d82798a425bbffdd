//! The RV64 fetch-decode-execute loop under symbolic evaluation.
//!
//! A run starts from a trap-entry or reset state and evaluates until the
//! handler executes `mret` (paper §3.4, Fig. 6: each trap handler runs in
//! its entirety with interrupts disabled). `split-pc` is applied before
//! every fetch (paper §4); the merged-pc fallback exists only for the §6.4
//! ablation.

use crate::insn::{BrOp, CsrSrc, IAluOp, IAluWOp, Insn, LdOp, RAluOp, RAluWOp, StOp};
use crate::machine::Machine;
use serval_core::{split_pc, BugOn, OptCfg};
use serval_smt::{SBool, BV};
use serval_sym::{Merge, SymCtx};
use std::collections::BTreeMap;

/// How a handler run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Some path executed `mret` (normal handler exit).
    pub returned: bool,
    /// Some path ran out of fuel (symbolic evaluation diverged).
    pub diverged: bool,
    /// Some path had an opaque (unconstrained) program counter — usually a
    /// security bug in the system (paper §4).
    pub opaque_pc: bool,
    /// Instructions executed on the longest path.
    pub steps: usize,
}

impl Merge for RunOutcome {
    fn merge(_c: SBool, t: &Self, e: &Self) -> Self {
        RunOutcome {
            returned: t.returned || e.returned,
            diverged: t.diverged || e.diverged,
            opaque_pc: t.opaque_pc || e.opaque_pc,
            steps: t.steps.max(e.steps),
        }
    }
}

impl RunOutcome {
    /// A run that ended cleanly on every path.
    pub fn ok(&self) -> bool {
        self.returned && !self.diverged && !self.opaque_pc
    }
}

/// The lifted interpreter: validated code plus evaluation knobs.
pub struct Interp {
    /// Decoded (and encoder-validated) instructions by address.
    pub code: BTreeMap<u64, Insn>,
    /// Symbolic-optimization configuration.
    pub opt: OptCfg,
    /// Maximum instructions per path.
    pub fuel: usize,
}

impl Interp {
    /// Builds an interpreter from machine-code words laid out at `base`,
    /// decoding each word and validating it against the encoder
    /// (paper §3.4).
    pub fn from_words(base: u64, words: &[u32], fuel: usize) -> Result<Interp, String> {
        let mut code = BTreeMap::new();
        for (i, &w) in words.iter().enumerate() {
            let insn = crate::insn::decode_validated(w)
                .map_err(|e| format!("at {:#x}: {e}", base + 4 * i as u64))?;
            code.insert(base + 4 * i as u64, insn);
        }
        Ok(Interp {
            code,
            opt: OptCfg::default(),
            fuel,
        })
    }

    /// Runs from `m` until every path executes `mret` (or exhausts fuel).
    pub fn run(&self, ctx: &mut SymCtx, m: &mut Machine) -> RunOutcome {
        self.step(ctx, m, self.fuel)
    }

    fn step(&self, ctx: &mut SymCtx, m: &mut Machine, mut fuel: usize) -> RunOutcome {
        // Straight-line fast path: while the pc has exactly one feasible
        // concrete value, execute iteratively (no Rust recursion). This
        // keeps long handler runs within stack limits; genuine path splits
        // fall through to the recursive `split_pc` below.
        let mut steps = 0usize;
        if self.opt.split_pc {
            loop {
                if fuel == 0 {
                    return RunOutcome {
                        returned: false,
                        diverged: true,
                        opaque_pc: false,
                        steps,
                    };
                }
                let single = match serval_core::enumerate_pc(m.pc) {
                    serval_core::PcCases::Concrete(vs) => {
                        let mut feasible = vs.into_iter().filter(|&v| {
                            !ctx.infeasible(m.pc.eq_(serval_smt::BV::lit(64, v)))
                        });
                        match (feasible.next(), feasible.next()) {
                            (Some(v), None) => Some(v),
                            _ => None,
                        }
                    }
                    serval_core::PcCases::Opaque => {
                        return RunOutcome {
                            returned: false,
                            diverged: false,
                            opaque_pc: true,
                            steps,
                        }
                    }
                };
                match single {
                    Some(v) => {
                        if let Some(mut o) = self.exec_one(ctx, m, v as u64) {
                            o.steps += steps;
                            return o;
                        }
                        steps += 1;
                        fuel -= 1;
                    }
                    None => break,
                }
            }
        }
        if fuel == 0 {
            return RunOutcome {
                returned: false,
                diverged: true,
                opaque_pc: false,
                steps,
            };
        }
        let pc = m.pc;
        if self.opt.split_pc {
            let r = split_pc(ctx, m, pc, |ctx, m, v| self.exec_at(ctx, m, v as u64, fuel));
            match r {
                Ok(mut o) => {
                    o.steps += steps;
                    o
                }
                Err(()) => RunOutcome {
                    returned: false,
                    diverged: false,
                    opaque_pc: true,
                    steps,
                },
            }
        } else {
            // Merged-pc ablation baseline: every code address is a case and
            // the guards are opaque to the term layer (paper §3.2).
            let cases: Vec<(SBool, u128)> = self
                .code
                .keys()
                .map(|&a| {
                    let av = BV::lit(64, a as u128);
                    (pc.uge(av) & pc.ule(av), a as u128)
                })
                .collect();
            ctx.split(m, &cases, |ctx, m, a| self.exec_at(ctx, m, a as u64, fuel))
        }
    }

    /// Executes one instruction at a concrete address. Returns `Some` when
    /// the path stops here (mret, or a dead path flagged by `bug_on`).
    fn exec_one(&self, ctx: &mut SymCtx, m: &mut Machine, addr: u64) -> Option<RunOutcome> {
        let insn = match self.code.get(&addr) {
            Some(&i) => i,
            None => {
                // Jumping outside the monitor's text section is UB.
                ctx.bug_on(SBool::lit(true), &format!("pc {addr:#x} outside code"));
                return Some(RunOutcome {
                    returned: false,
                    diverged: false,
                    opaque_pc: false,
                    steps: 0,
                });
            }
        };
        m.pc = BV::lit(64, addr as u128);
        if self.execute(ctx, m, insn) {
            Some(RunOutcome {
                returned: true,
                diverged: false,
                opaque_pc: false,
                steps: 1,
            })
        } else {
            None
        }
    }

    fn exec_at(&self, ctx: &mut SymCtx, m: &mut Machine, addr: u64, fuel: usize) -> RunOutcome {
        match self.exec_one(ctx, m, addr) {
            Some(o) => o,
            None => {
                let mut o = self.step(ctx, m, fuel - 1);
                o.steps += 1;
                o
            }
        }
    }

    /// Executes one instruction at a concrete pc; returns true on `mret`.
    fn execute(&self, ctx: &mut SymCtx, m: &mut Machine, insn: Insn) -> bool {
        let pc = m.pc;
        let next = pc + BV::lit(64, 4);
        match insn {
            Insn::Lui { rd, imm20 } => {
                m.set_reg(rd, BV::lit(64, ((imm20 as i64) << 12) as u64 as u128));
                m.pc = next;
            }
            Insn::Auipc { rd, imm20 } => {
                m.set_reg(rd, pc + BV::lit(64, ((imm20 as i64) << 12) as u64 as u128));
                m.pc = next;
            }
            Insn::Jal { rd, off } => {
                m.set_reg(rd, next);
                m.pc = pc + BV::lit(64, off as i64 as u64 as u128);
            }
            Insn::Jalr { rd, rs1, off } => {
                let target =
                    (m.reg(rs1) + BV::lit(64, off as i64 as u64 as u128)) & !BV::lit(64, 1);
                m.set_reg(rd, next);
                m.pc = target;
            }
            Insn::Branch { op, rs1, rs2, off } => {
                let a = m.reg(rs1);
                let b = m.reg(rs2);
                let taken = match op {
                    BrOp::Beq => a.eq_(b),
                    BrOp::Bne => a.ne_(b),
                    BrOp::Blt => a.slt(b),
                    BrOp::Bge => a.sge(b),
                    BrOp::Bltu => a.ult(b),
                    BrOp::Bgeu => a.uge(b),
                };
                let target = pc + BV::lit(64, off as i64 as u64 as u128);
                m.pc = taken.select(target, next);
            }
            Insn::Load { op, rd, rs1, off } => {
                let addr = m.reg(rs1) + BV::lit(64, off as i64 as u64 as u128);
                let raw = m.load(ctx, addr, op.bytes());
                let v = match op {
                    LdOp::Lb | LdOp::Lh | LdOp::Lw => raw.sext(64),
                    LdOp::Lbu | LdOp::Lhu | LdOp::Lwu => raw.zext(64),
                    LdOp::Ld => raw,
                };
                m.set_reg(rd, v);
                m.pc = next;
            }
            Insn::Store { op, rs1, rs2, off } => {
                let addr = m.reg(rs1) + BV::lit(64, off as i64 as u64 as u128);
                let v = m.reg(rs2).trunc(op.bytes() * 8);
                let v = if op == StOp::Sd { m.reg(rs2) } else { v };
                m.store(ctx, addr, v, op.bytes());
                m.pc = next;
            }
            Insn::OpImm { op, rd, rs1, imm } => {
                let a = m.reg(rs1);
                let i = BV::lit(64, imm as i64 as u64 as u128);
                let one = BV::lit(64, 1);
                let zero = BV::lit(64, 0);
                let v = match op {
                    IAluOp::Addi => a + i,
                    IAluOp::Slti => a.slt(i).select(one, zero),
                    IAluOp::Sltiu => a.ult(i).select(one, zero),
                    IAluOp::Xori => a ^ i,
                    IAluOp::Ori => a | i,
                    IAluOp::Andi => a & i,
                    IAluOp::Slli => a.shl(BV::lit(64, (imm & 0x3f) as u128)),
                    IAluOp::Srli => a.lshr(BV::lit(64, (imm & 0x3f) as u128)),
                    IAluOp::Srai => a.ashr(BV::lit(64, (imm & 0x3f) as u128)),
                };
                m.set_reg(rd, v);
                m.pc = next;
            }
            Insn::OpImmW { op, rd, rs1, imm } => {
                let a = m.reg(rs1).trunc(32);
                let v32 = match op {
                    IAluWOp::Addiw => a + BV::lit(32, imm as i64 as u64 as u128),
                    IAluWOp::Slliw => a.shl(BV::lit(32, (imm & 0x1f) as u128)),
                    IAluWOp::Srliw => a.lshr(BV::lit(32, (imm & 0x1f) as u128)),
                    IAluWOp::Sraiw => a.ashr(BV::lit(32, (imm & 0x1f) as u128)),
                };
                m.set_reg(rd, v32.sext(64));
                m.pc = next;
            }
            Insn::Op { op, rd, rs1, rs2 } => {
                let a = m.reg(rs1);
                let b = m.reg(rs2);
                m.set_reg(rd, alu64(op, a, b));
                m.pc = next;
            }
            Insn::OpW { op, rd, rs1, rs2 } => {
                let a = m.reg(rs1).trunc(32);
                let b = m.reg(rs2).trunc(32);
                m.set_reg(rd, alu32(op, a, b).sext(64));
                m.pc = next;
            }
            Insn::Csr { op, rd, src, csr } => {
                let old = match m.csrs.read(csr) {
                    Some(v) => v,
                    None => {
                        ctx.bug_on(
                            SBool::lit(true),
                            &format!("access to unmodelled CSR {csr:#x}"),
                        );
                        BV::lit(64, 0)
                    }
                };
                let (src_val, src_is_zero) = match src {
                    CsrSrc::Reg(rs1) => (m.reg(rs1), rs1 == 0),
                    CsrSrc::Imm(z) => (BV::lit(64, z as u128), z == 0),
                };
                let new = match op {
                    crate::insn::CsrOp::Rw => src_val,
                    crate::insn::CsrOp::Rs => old | src_val,
                    crate::insn::CsrOp::Rc => old & !src_val,
                };
                // CSRRS/CSRRC with a zero source do not write (WARL
                // side-effect suppression); CSRRW always writes.
                let skip_write = src_is_zero && op != crate::insn::CsrOp::Rw;
                if !skip_write {
                    m.csrs.write(csr, new);
                }
                m.set_reg(rd, old);
                m.pc = next;
            }
            Insn::Ecall | Insn::Ebreak => {
                // The monitor itself must never trap.
                ctx.bug_on(SBool::lit(true), "ecall/ebreak inside monitor code");
                m.pc = next;
            }
            Insn::Mret => {
                // Handler exit (paper §3.4): control returns to mepc in the
                // mode recorded in mstatus.MPP; evaluation stops here.
                m.pc = m.csrs.mepc;
                return true;
            }
            Insn::Wfi | Insn::Fence => {
                m.pc = next;
            }
        }
        false
    }
}

/// 64-bit register-register ALU semantics, including the M extension with
/// RISC-V's division-by-zero and overflow rules.
fn alu64(op: RAluOp, a: BV, b: BV) -> BV {
    let one = BV::lit(64, 1);
    let zero = BV::lit(64, 0);
    let shamt = b & BV::lit(64, 0x3f);
    match op {
        RAluOp::Add => a + b,
        RAluOp::Sub => a - b,
        RAluOp::Sll => a.shl(shamt),
        RAluOp::Slt => a.slt(b).select(one, zero),
        RAluOp::Sltu => a.ult(b).select(one, zero),
        RAluOp::Xor => a ^ b,
        RAluOp::Srl => a.lshr(shamt),
        RAluOp::Sra => a.ashr(shamt),
        RAluOp::Or => a | b,
        RAluOp::And => a & b,
        RAluOp::Mul => a * b,
        RAluOp::Mulh => (a.sext(128) * b.sext(128)).extract(127, 64),
        RAluOp::Mulhsu => (a.sext(128) * b.zext(128)).extract(127, 64),
        RAluOp::Mulhu => (a.zext(128) * b.zext(128)).extract(127, 64),
        RAluOp::Div => div_signed(a, b, 64),
        RAluOp::Divu => b.is_zero().select(!zero, a.udiv(b)),
        RAluOp::Rem => rem_signed(a, b, 64),
        RAluOp::Remu => b.is_zero().select(a, a.urem(b)),
    }
}

/// 32-bit ALU semantics (inputs and result are 32-bit).
fn alu32(op: RAluWOp, a: BV, b: BV) -> BV {
    let shamt = b & BV::lit(32, 0x1f);
    let zero = BV::lit(32, 0);
    match op {
        RAluWOp::Addw => a + b,
        RAluWOp::Subw => a - b,
        RAluWOp::Sllw => a.shl(shamt),
        RAluWOp::Srlw => a.lshr(shamt),
        RAluWOp::Sraw => a.ashr(shamt),
        RAluWOp::Mulw => a * b,
        RAluWOp::Divw => div_signed(a, b, 32),
        RAluWOp::Divuw => b.is_zero().select(!zero, a.udiv(b)),
        RAluWOp::Remw => rem_signed(a, b, 32),
        RAluWOp::Remuw => b.is_zero().select(a, a.urem(b)),
    }
}

/// RISC-V signed division: x/0 = -1; MIN/-1 = MIN.
fn div_signed(a: BV, b: BV, w: u32) -> BV {
    let minus_one = !BV::lit(w, 0);
    let min = BV::lit(w, 1u128 << (w - 1));
    let overflow = a.eq_(min) & b.eq_(minus_one);
    b.is_zero()
        .select(minus_one, overflow.select(min, a.sdiv(b)))
}

/// RISC-V signed remainder: x%0 = x; MIN%-1 = 0.
fn rem_signed(a: BV, b: BV, w: u32) -> BV {
    let minus_one = !BV::lit(w, 0);
    let min = BV::lit(w, 1u128 << (w - 1));
    let overflow = a.eq_(min) & b.eq_(minus_one);
    b.is_zero()
        .select(a, overflow.select(BV::lit(w, 0), a.srem(b)))
}
