//! A BPF→RV64 JIT modelled on the Linux kernel's `bpf_jit_comp64.c`,
//! emitting one RISC-V sequence per BPF instruction.
//!
//! The nine [`RvBug`] variants reproduce the bug classes found via
//! verification in §7 (all in zero-extension and 32-bit shift handling)
//! so the checker can demonstrate finding them; an empty bug set is the
//! fixed JIT, which verifies.

use serval_bpf::{AluOp, Insn as Bpf, Src};
use serval_riscv::insn::{IAluOp, IAluWOp, Insn as Rv, RAluOp, RAluWOp};
use serval_riscv::reg;
use std::collections::BTreeSet;

/// The nine §7 RISC-V JIT bugs, as reintroducible switches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RvBug {
    /// ALU32 add: result not zero-extended (addw sign-extends).
    ZextAdd32,
    /// ALU32 sub: result not zero-extended.
    ZextSub32,
    /// ALU32 and: operands' high bits leak into the result.
    ZextAnd32,
    /// ALU32 or: high bits leak.
    ZextOr32,
    /// ALU32 xor: high bits leak.
    ZextXor32,
    /// ALU32 mov: source high bits copied instead of cleared.
    ZextMov32,
    /// ALU32 lsh: emitted the 64-bit shift instead of sllw.
    Shift32Lsh,
    /// ALU32 rsh: emitted the 64-bit shift instead of srlw.
    Shift32Rsh,
    /// ALU32 arsh: emitted the 64-bit shift instead of sraw.
    Shift32Arsh,
}

impl RvBug {
    /// All nine bugs.
    pub const ALL: [RvBug; 9] = [
        RvBug::ZextAdd32,
        RvBug::ZextSub32,
        RvBug::ZextAnd32,
        RvBug::ZextOr32,
        RvBug::ZextXor32,
        RvBug::ZextMov32,
        RvBug::Shift32Lsh,
        RvBug::Shift32Rsh,
        RvBug::Shift32Arsh,
    ];
}

/// The JIT: maps BPF registers to RISC-V registers and emits per-BPF-
/// instruction sequences.
#[derive(Clone, Debug, Default)]
pub struct Rv64Jit {
    /// Bugs to reintroduce; empty = the fixed JIT.
    pub bugs: BTreeSet<RvBug>,
}

/// BPF register → RISC-V register (modelled on the kernel's map).
pub fn reg_map(r: u8) -> u8 {
    match r {
        0..=7 => reg::A0 + r, // a0..a7
        8 => reg::S2,
        9 => reg::S3,
        10 => reg::S4,
        _ => panic!("bad bpf register {r}"),
    }
}

/// Temporaries used by emitted sequences.
const TMP1: u8 = reg::T0;
const TMP2: u8 = reg::T1;

impl Rv64Jit {
    /// A correct (fixed) JIT.
    pub fn fixed() -> Rv64Jit {
        Rv64Jit::default()
    }

    /// A JIT with all nine historical bugs present.
    pub fn buggy() -> Rv64Jit {
        Rv64Jit {
            bugs: RvBug::ALL.into_iter().collect(),
        }
    }

    fn has(&self, b: RvBug) -> bool {
        self.bugs.contains(&b)
    }

    /// Emits the RISC-V sequence for one BPF ALU instruction. Returns
    /// `None` for instructions outside the checker's scope.
    pub fn emit(&self, insn: Bpf) -> Option<Vec<Rv>> {
        let mut out = Vec::new();
        match insn {
            Bpf::Alu64 { op, src, dst, srcr, imm } => {
                let rd = reg_map(dst);
                let rs = self.operand(&mut out, src, srcr, imm);
                self.emit_alu64(&mut out, op, rd, rs)?;
            }
            Bpf::Alu32 { op, src, dst, srcr, imm } => {
                let rd = reg_map(dst);
                let rs = self.operand(&mut out, src, srcr, imm);
                self.emit_alu32(&mut out, op, rd, rs)?;
            }
            _ => return None,
        }
        Some(out)
    }

    /// Materializes the source operand into a register (the immediate goes
    /// through `emit_imm`, like the kernel).
    fn operand(&self, out: &mut Vec<Rv>, src: Src, srcr: u8, imm: i32) -> u8 {
        match src {
            Src::X => reg_map(srcr),
            Src::K => {
                emit_imm(out, TMP1, imm as i64);
                TMP1
            }
        }
    }

    fn emit_alu64(&self, out: &mut Vec<Rv>, op: AluOp, rd: u8, rs: u8) -> Option<()> {
        let r = |op| Rv::Op { op, rd, rs1: rd, rs2: rs };
        match op {
            AluOp::Add => out.push(r(RAluOp::Add)),
            AluOp::Sub => out.push(r(RAluOp::Sub)),
            AluOp::Mul => out.push(r(RAluOp::Mul)),
            AluOp::Or => out.push(r(RAluOp::Or)),
            AluOp::And => out.push(r(RAluOp::And)),
            AluOp::Xor => out.push(r(RAluOp::Xor)),
            AluOp::Mov => out.push(Rv::OpImm { op: IAluOp::Addi, rd, rs1: rs, imm: 0 }),
            AluOp::Neg => out.push(Rv::Op { op: RAluOp::Sub, rd, rs1: reg::ZERO, rs2: rd }),
            AluOp::Lsh => {
                // BPF masks shift amounts to the width; RISC-V sll does
                // the same masking in hardware.
                out.push(r(RAluOp::Sll))
            }
            AluOp::Rsh => out.push(r(RAluOp::Srl)),
            AluOp::Arsh => out.push(r(RAluOp::Sra)),
            AluOp::Div => {
                // BPF semantics: division by zero yields 0. Emit the
                // checked sequence:
                //   beq rs, x0, +8 ; divu rd, rd, rs ; j +8 ; li rd, 0
                out.push(Rv::Branch {
                    op: serval_riscv::insn::BrOp::Beq,
                    rs1: rs,
                    rs2: reg::ZERO,
                    off: 12,
                });
                out.push(Rv::Op { op: RAluOp::Divu, rd, rs1: rd, rs2: rs });
                out.push(Rv::Jal { rd: reg::ZERO, off: 8 });
                out.push(Rv::OpImm { op: IAluOp::Addi, rd, rs1: reg::ZERO, imm: 0 });
            }
            AluOp::Mod => {
                // x % 0 = x: the remu result is unused on the zero path.
                out.push(Rv::Branch {
                    op: serval_riscv::insn::BrOp::Beq,
                    rs1: rs,
                    rs2: reg::ZERO,
                    off: 8,
                });
                out.push(Rv::Op { op: RAluOp::Remu, rd, rs1: rd, rs2: rs });
            }
        }
        Some(())
    }

    fn emit_alu32(&self, out: &mut Vec<Rv>, op: AluOp, rd: u8, rs: u8) -> Option<()> {
        let rw = |op| Rv::OpW { op, rd, rs1: rd, rs2: rs };
        let r64 = |op| Rv::Op { op, rd, rs1: rd, rs2: rs };
        let mut need_zext = true;
        match op {
            AluOp::Add => {
                out.push(rw(RAluWOp::Addw));
                if self.has(RvBug::ZextAdd32) {
                    need_zext = false;
                }
            }
            AluOp::Sub => {
                out.push(rw(RAluWOp::Subw));
                if self.has(RvBug::ZextSub32) {
                    need_zext = false;
                }
            }
            AluOp::Mul => out.push(rw(RAluWOp::Mulw)),
            AluOp::Or => {
                out.push(r64(RAluOp::Or));
                if self.has(RvBug::ZextOr32) {
                    need_zext = false;
                }
            }
            AluOp::And => {
                out.push(r64(RAluOp::And));
                if self.has(RvBug::ZextAnd32) {
                    need_zext = false;
                }
            }
            AluOp::Xor => {
                out.push(r64(RAluOp::Xor));
                if self.has(RvBug::ZextXor32) {
                    need_zext = false;
                }
            }
            AluOp::Mov => {
                out.push(Rv::OpImm { op: IAluOp::Addi, rd, rs1: rs, imm: 0 });
                if self.has(RvBug::ZextMov32) {
                    need_zext = false;
                }
            }
            AluOp::Neg => {
                out.push(Rv::OpW { op: RAluWOp::Subw, rd, rs1: reg::ZERO, rs2: rd });
            }
            AluOp::Lsh => {
                if self.has(RvBug::Shift32Lsh) {
                    // The historical bug: 64-bit shift, no 32-bit wrap.
                    out.push(r64(RAluOp::Sll));
                    need_zext = false;
                } else {
                    out.push(rw(RAluWOp::Sllw));
                }
            }
            AluOp::Rsh => {
                if self.has(RvBug::Shift32Rsh) {
                    out.push(r64(RAluOp::Srl));
                    need_zext = false;
                } else {
                    out.push(rw(RAluWOp::Srlw));
                }
            }
            AluOp::Arsh => {
                if self.has(RvBug::Shift32Arsh) {
                    out.push(r64(RAluOp::Sra));
                    need_zext = false;
                } else {
                    out.push(rw(RAluWOp::Sraw));
                }
            }
            AluOp::Div => {
                // The 32-bit zero test must look at the low word only.
                out.push(Rv::OpImmW { op: IAluWOp::Addiw, rd: TMP2, rs1: rs, imm: 0 });
                out.push(Rv::Branch {
                    op: serval_riscv::insn::BrOp::Beq,
                    rs1: TMP2,
                    rs2: reg::ZERO,
                    off: 12,
                });
                out.push(Rv::OpW { op: RAluWOp::Divuw, rd, rs1: rd, rs2: rs });
                out.push(Rv::Jal { rd: reg::ZERO, off: 8 });
                out.push(Rv::OpImm { op: IAluOp::Addi, rd, rs1: reg::ZERO, imm: 0 });
            }
            AluOp::Mod => {
                out.push(Rv::OpImmW { op: IAluWOp::Addiw, rd: TMP2, rs1: rs, imm: 0 });
                out.push(Rv::Branch {
                    op: serval_riscv::insn::BrOp::Beq,
                    rs1: TMP2,
                    rs2: reg::ZERO,
                    off: 8,
                });
                out.push(Rv::OpW { op: RAluWOp::Remuw, rd, rs1: rd, rs2: rs });
            }
        }
        if need_zext {
            zext32(out, rd);
        }
        Some(())
    }
}

/// Zero-extends the low 32 bits of `rd` (slli 32; srli 32), the fix for
/// the `Zext*` bug class.
fn zext32(out: &mut Vec<Rv>, rd: u8) {
    out.push(Rv::OpImm { op: IAluOp::Slli, rd, rs1: rd, imm: 32 });
    out.push(Rv::OpImm { op: IAluOp::Srli, rd, rs1: rd, imm: 32 });
}

/// Loads a sign-extended 32-bit immediate (the kernel's `emit_imm`,
/// restricted to the i32 immediates BPF instructions carry).
fn emit_imm(out: &mut Vec<Rv>, rd: u8, v: i64) {
    if (-2048..2048).contains(&v) {
        out.push(Rv::OpImm { op: IAluOp::Addi, rd, rs1: reg::ZERO, imm: v as i32 });
        return;
    }
    let low = (v << 52 >> 52) as i32;
    let high = ((v - low as i64) >> 12) as i32;
    out.push(Rv::Lui { rd, imm20: high & 0xfffff });
    if low != 0 {
        out.push(Rv::OpImmW { op: IAluWOp::Addiw, rd, rs1: rd, imm: low });
    }
}
