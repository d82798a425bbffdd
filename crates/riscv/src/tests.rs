//! RISC-V verifier tests: golden encodings, encoder/decoder round-trips,
//! riscv-tests-style instruction semantics, and symbolic handler runs.

use crate::insn::*;
use crate::machine::{csr, Machine};
use crate::reg::*;
use crate::{Asm, Interp};
use serval_check::prelude::*;
use serval_core::{Layout, Mem, MemCfg};
use serval_smt::{reset_ctx, verify, BV};
use serval_sym::SymCtx;

// ---------------------------------------------------------------------
// Encoder/decoder
// ---------------------------------------------------------------------

#[test]
fn golden_encodings() {
    // Hand-checked words (matching binutils output).
    let cases: Vec<(Insn, u32)> = vec![
        (
            Insn::OpImm { op: IAluOp::Addi, rd: 1, rs1: 2, imm: 3 },
            0x0031_0093,
        ),
        (
            Insn::OpImm { op: IAluOp::Addi, rd: 0, rs1: 0, imm: 0 },
            0x0000_0013, // nop
        ),
        (Insn::Jalr { rd: 0, rs1: RA, off: 0 }, 0x0000_8067), // ret
        (Insn::Ecall, 0x0000_0073),
        (Insn::Ebreak, 0x0010_0073),
        (Insn::Mret, 0x3020_0073),
        (Insn::Op { op: RAluOp::Add, rd: 3, rs1: 1, rs2: 2 }, 0x0020_81b3),
        (Insn::Lui { rd: 5, imm20: 0x12345 }, 0x1234_52b7),
    ];
    for (insn, word) in cases {
        assert_eq!(encode(insn), word, "{insn:?}");
        assert_eq!(decode(word).unwrap(), insn);
    }
}

fn arb_insn() -> impl Strategy<Value = Insn> {
    let r = 0u8..32;
    let imm12 = -2048i32..2048;
    let sh6 = 0i32..64;
    let sh5 = 0i32..32;
    prop_oneof![
        (r.clone(), -(1i32 << 19)..(1 << 19)).prop_map(|(rd, imm20)| Insn::Lui { rd, imm20 }),
        (r.clone(), -(1i32 << 19)..(1 << 19)).prop_map(|(rd, imm20)| Insn::Auipc { rd, imm20 }),
        (r.clone(), (-(1i32 << 19)..(1 << 19)).prop_map(|x| x * 2))
            .prop_map(|(rd, off)| Insn::Jal { rd, off }),
        (r.clone(), r.clone(), imm12.clone())
            .prop_map(|(rd, rs1, off)| Insn::Jalr { rd, rs1, off }),
        (
            prop_oneof![
                Just(BrOp::Beq), Just(BrOp::Bne), Just(BrOp::Blt),
                Just(BrOp::Bge), Just(BrOp::Bltu), Just(BrOp::Bgeu)
            ],
            r.clone(), r.clone(),
            (-(1i32 << 11)..(1 << 11)).prop_map(|x| x * 2)
        ).prop_map(|(op, rs1, rs2, off)| Insn::Branch { op, rs1, rs2, off }),
        (
            prop_oneof![
                Just(LdOp::Lb), Just(LdOp::Lh), Just(LdOp::Lw), Just(LdOp::Ld),
                Just(LdOp::Lbu), Just(LdOp::Lhu), Just(LdOp::Lwu)
            ],
            r.clone(), r.clone(), imm12.clone()
        ).prop_map(|(op, rd, rs1, off)| Insn::Load { op, rd, rs1, off }),
        (
            prop_oneof![Just(StOp::Sb), Just(StOp::Sh), Just(StOp::Sw), Just(StOp::Sd)],
            r.clone(), r.clone(), imm12.clone()
        ).prop_map(|(op, rs1, rs2, off)| Insn::Store { op, rs1, rs2, off }),
        (
            prop_oneof![
                Just(IAluOp::Addi), Just(IAluOp::Slti), Just(IAluOp::Sltiu),
                Just(IAluOp::Xori), Just(IAluOp::Ori), Just(IAluOp::Andi)
            ],
            r.clone(), r.clone(), imm12.clone()
        ).prop_map(|(op, rd, rs1, imm)| Insn::OpImm { op, rd, rs1, imm }),
        (
            prop_oneof![Just(IAluOp::Slli), Just(IAluOp::Srli), Just(IAluOp::Srai)],
            r.clone(), r.clone(), sh6
        ).prop_map(|(op, rd, rs1, imm)| Insn::OpImm { op, rd, rs1, imm }),
        (
            prop_oneof![Just(IAluWOp::Slliw), Just(IAluWOp::Srliw), Just(IAluWOp::Sraiw)],
            r.clone(), r.clone(), sh5
        ).prop_map(|(op, rd, rs1, imm)| Insn::OpImmW { op, rd, rs1, imm }),
        (
            prop_oneof![
                Just(RAluOp::Add), Just(RAluOp::Sub), Just(RAluOp::Sll), Just(RAluOp::Slt),
                Just(RAluOp::Sltu), Just(RAluOp::Xor), Just(RAluOp::Srl), Just(RAluOp::Sra),
                Just(RAluOp::Or), Just(RAluOp::And), Just(RAluOp::Mul), Just(RAluOp::Mulh),
                Just(RAluOp::Mulhsu), Just(RAluOp::Mulhu), Just(RAluOp::Div),
                Just(RAluOp::Divu), Just(RAluOp::Rem), Just(RAluOp::Remu)
            ],
            r.clone(), r.clone(), r.clone()
        ).prop_map(|(op, rd, rs1, rs2)| Insn::Op { op, rd, rs1, rs2 }),
        (
            prop_oneof![
                Just(RAluWOp::Addw), Just(RAluWOp::Subw), Just(RAluWOp::Sllw),
                Just(RAluWOp::Srlw), Just(RAluWOp::Sraw), Just(RAluWOp::Mulw),
                Just(RAluWOp::Divw), Just(RAluWOp::Divuw), Just(RAluWOp::Remw),
                Just(RAluWOp::Remuw)
            ],
            r.clone(), r.clone(), r.clone()
        ).prop_map(|(op, rd, rs1, rs2)| Insn::OpW { op, rd, rs1, rs2 }),
        (
            prop_oneof![Just(CsrOp::Rw), Just(CsrOp::Rs), Just(CsrOp::Rc)],
            r.clone(), r.clone(), any::<bool>(), 0u16..4096
        ).prop_map(|(op, rd, f, imm_form, csrn)| Insn::Csr {
            op, rd,
            src: if imm_form { CsrSrc::Imm(f & 0x1f) } else { CsrSrc::Reg(f) },
            csr: csrn
        }),
        Just(Insn::Ecall),
        Just(Insn::Mret),
        Just(Insn::Fence),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The paper's §3.4 validation: decode(encode(i)) == i for every
    /// instruction, so the decoder never needs to be trusted.
    #[test]
    fn encode_decode_roundtrip(insn in arb_insn()) {
        let w = encode(insn);
        let back = decode_validated(w).expect("decode of encoded insn");
        prop_assert_eq!(back, insn);
    }
}

// ---------------------------------------------------------------------
// Concrete execution (riscv-tests style)
// ---------------------------------------------------------------------

/// Runs a code fragment with registers preloaded; the fragment must end in
/// mret. Returns the final machine.
fn run_concrete(build: impl FnOnce(&mut Asm), regs: &[(u8, u64)]) -> Machine {
    let mut ctx = SymCtx::new();
    let mut asm = Asm::new();
    build(&mut asm);
    asm.i(Insn::Mret);
    let words = asm.assemble(0x8000_0000);
    let interp = Interp::from_words(0x8000_0000, &words, 4096).unwrap();
    let mem = Mem::new(MemCfg::default());
    let mut m = Machine::reset_at(0x8000_0000, mem);
    for &(r, v) in regs {
        m.set_reg(r, BV::lit(64, v as u128));
    }
    let o = interp.run(&mut ctx, &mut m);
    assert!(o.ok(), "{o:?}");
    // All obligations must hold for a clean concrete run.
    for ob in ctx.take_obligations() {
        assert!(verify(&[], ob.condition).is_proved(), "{}", ob.label);
    }
    m
}

fn reg_val(m: &Machine, r: u8) -> u64 {
    m.reg(r).as_const().expect("concrete register") as u64
}

#[test]
fn alu_semantics_match_rust() {
    reset_ctx();
    let a: u64 = 0xdead_beef_1234_5678;
    let b: u64 = 0x0f0f_0f0f_8765_4321;
    let cases: Vec<(RAluOp, u64)> = vec![
        (RAluOp::Add, a.wrapping_add(b)),
        (RAluOp::Sub, a.wrapping_sub(b)),
        (RAluOp::Sll, a << (b & 63)),
        (RAluOp::Slt, ((a as i64) < (b as i64)) as u64),
        (RAluOp::Sltu, (a < b) as u64),
        (RAluOp::Xor, a ^ b),
        (RAluOp::Srl, a >> (b & 63)),
        (RAluOp::Sra, ((a as i64) >> (b & 63)) as u64),
        (RAluOp::Or, a | b),
        (RAluOp::And, a & b),
        (RAluOp::Mul, a.wrapping_mul(b)),
        (
            RAluOp::Mulhu,
            ((a as u128 * b as u128) >> 64) as u64,
        ),
        (
            RAluOp::Mulh,
            (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
        ),
        (RAluOp::Divu, a / b),
        (RAluOp::Remu, a % b),
        (RAluOp::Div, ((a as i64).wrapping_div(b as i64)) as u64),
        (RAluOp::Rem, ((a as i64).wrapping_rem(b as i64)) as u64),
    ];
    for (op, expect) in cases {
        reset_ctx();
        let m = run_concrete(
            |asm| {
                asm.i(Insn::Op { op, rd: A0, rs1: A1, rs2: A2 });
            },
            &[(A1, a), (A2, b)],
        );
        assert_eq!(reg_val(&m, A0), expect, "{op:?}");
    }
}

#[test]
fn division_edge_cases() {
    // RISC-V: x/0 = -1, x%0 = x, MIN/-1 = MIN, MIN%-1 = 0.
    let min = i64::MIN as u64;
    for (op, a, b, expect) in [
        (RAluOp::Div, 5u64, 0u64, u64::MAX),
        (RAluOp::Divu, 5, 0, u64::MAX),
        (RAluOp::Rem, 5, 0, 5),
        (RAluOp::Remu, 5, 0, 5),
        (RAluOp::Div, min, u64::MAX, min),
        (RAluOp::Rem, min, u64::MAX, 0),
    ] {
        reset_ctx();
        let m = run_concrete(
            |asm| {
                asm.i(Insn::Op { op, rd: A0, rs1: A1, rs2: A2 });
            },
            &[(A1, a), (A2, b)],
        );
        assert_eq!(reg_val(&m, A0), expect, "{op:?} {a}/{b}");
    }
}

#[test]
fn word_ops_sign_extend() {
    reset_ctx();
    // addw of values overflowing 32 bits sign-extends the 32-bit result.
    let m = run_concrete(
        |asm| {
            asm.i(Insn::OpW { op: RAluWOp::Addw, rd: A0, rs1: A1, rs2: A2 });
        },
        &[(A1, 0x7fff_ffff), (A2, 1)],
    );
    assert_eq!(reg_val(&m, A0), 0xffff_ffff_8000_0000);
    reset_ctx();
    let m = run_concrete(
        |asm| {
            asm.i(Insn::OpImmW { op: IAluWOp::Sraiw, rd: A0, rs1: A1, imm: 4 });
        },
        &[(A1, 0x8000_0000)],
    );
    assert_eq!(reg_val(&m, A0), 0xffff_ffff_f800_0000);
}

#[test]
fn li_pseudo_loads_constants() {
    for v in [0i64, 1, -1, 2047, -2048, 4096, 0x12345, -0x7654321, 0x7fff_ffff, 0xdead_beef] {
        reset_ctx();
        let m = run_concrete(
            |asm| {
                asm.li(A0, v);
            },
            &[],
        );
        assert_eq!(reg_val(&m, A0), v as u64, "li {v:#x}");
    }
}

#[test]
fn sum_loop() {
    reset_ctx();
    let n = 10u64;
    let m = run_concrete(
        |asm| {
            asm.li(A0, 0);
            asm.li(T0, 1);
            asm.li(T1, n as i64);
            asm.label("loop");
            asm.add(A0, A0, T0);
            asm.addi(T0, T0, 1);
            asm.branch(BrOp::Bge, T1, T0, "loop");
        },
        &[],
    );
    assert_eq!(reg_val(&m, A0), (1..=n).sum::<u64>());
}

#[test]
fn memory_load_store_via_machine() {
    reset_ctx();
    let mut ctx = SymCtx::new();
    let mut asm = Asm::new();
    asm.define_symbol("counter", 0x1000);
    asm.la(T0, "counter");
    asm.ld(A0, 0, T0);
    asm.addi(A0, A0, 1);
    asm.sd(A0, 0, T0);
    asm.i(Insn::Mret);
    let words = asm.assemble(0x8000_0000);
    let interp = Interp::from_words(0x8000_0000, &words, 64).unwrap();
    let mut mem = Mem::new(MemCfg::default());
    mem.add_region(
        "counter",
        0x1000,
        Layout::Struct(vec![("value".into(), Layout::Cell(8))]).instantiate_fresh("counter"),
    );
    let init = mem.read_path("counter", &[serval_core::PathElem::Field("value")]);
    let mut m = Machine::reset_at(0x8000_0000, mem);
    let o = interp.run(&mut ctx, &mut m);
    assert!(o.ok());
    // Symbolic increment: final = initial + 1 for ALL initial values.
    let fin = m
        .mem
        .read_path("counter", &[serval_core::PathElem::Field("value")]);
    assert!(verify(&[], fin.eq_(init + BV::lit(64, 1))).is_proved());
}

#[test]
fn function_call_and_return() {
    reset_ctx();
    let m = run_concrete(
        |asm| {
            asm.li(A0, 5);
            asm.call("double");
            asm.call("double");
            asm.j("done");
            asm.label("double");
            asm.add(A0, A0, A0);
            asm.ret();
            asm.label("done");
        },
        &[],
    );
    assert_eq!(reg_val(&m, A0), 20);
}

#[test]
fn csr_read_write_set_clear() {
    reset_ctx();
    let m = run_concrete(
        |asm| {
            asm.li(T0, 0xff);
            asm.i(Insn::Csr { op: CsrOp::Rw, rd: ZERO, src: CsrSrc::Reg(T0), csr: csr::MSCRATCH });
            // Set bit 8 via immediate... zimm max 31, so set bit 4.
            asm.i(Insn::Csr { op: CsrOp::Rs, rd: A0, src: CsrSrc::Imm(0x10), csr: csr::MSCRATCH });
            // Clear low 4 bits.
            asm.i(Insn::Csr { op: CsrOp::Rc, rd: A1, src: CsrSrc::Imm(0xf), csr: csr::MSCRATCH });
            // Read back.
            asm.i(Insn::Csr { op: CsrOp::Rs, rd: A2, src: CsrSrc::Reg(ZERO), csr: csr::MSCRATCH });
        },
        &[],
    );
    assert_eq!(reg_val(&m, A0), 0xff, "old value after rw");
    assert_eq!(reg_val(&m, A1), 0xff, "old value after rs (bit4 already set)");
    assert_eq!(reg_val(&m, A2), 0xf0, "cleared low bits remain");
}

#[test]
fn mret_jumps_to_mepc() {
    reset_ctx();
    let mut ctx = SymCtx::new();
    let mut asm = Asm::new();
    asm.i(Insn::Mret);
    let words = asm.assemble(0x8000_0000);
    let interp = Interp::from_words(0x8000_0000, &words, 8).unwrap();
    let mut m = Machine::reset_at(0x8000_0000, Mem::new(MemCfg::default()));
    m.csrs.mepc = BV::lit(64, 0x4242);
    let o = interp.run(&mut ctx, &mut m);
    assert!(o.ok());
    assert_eq!(m.pc.as_const(), Some(0x4242));
}

// ---------------------------------------------------------------------
// Symbolic execution
// ---------------------------------------------------------------------

/// A handler with symbolic input: abs(a0), verified against a spec.
#[test]
fn symbolic_abs_handler() {
    reset_ctx();
    let mut ctx = SymCtx::new();
    let mut asm = Asm::new();
    // if (a0 < 0) a0 = -a0;
    asm.branch(BrOp::Bge, A0, ZERO, "done");
    asm.i(Insn::Op { op: RAluOp::Sub, rd: A0, rs1: ZERO, rs2: A0 });
    asm.label("done");
    asm.i(Insn::Mret);
    let words = asm.assemble(0x8000_0000);
    let interp = Interp::from_words(0x8000_0000, &words, 16).unwrap();
    let mut m = Machine::fresh_at(0x8000_0000, Mem::new(MemCfg::default()), "m");
    let a0 = m.reg(A0);
    let o = interp.run(&mut ctx, &mut m);
    assert!(o.ok(), "{o:?}");
    let spec = a0
        .slt(BV::lit(64, 0))
        .select(BV::lit(64, 0) - a0, a0);
    assert!(verify(&[], m.reg(A0).eq_(spec)).is_proved());
    assert_eq!(
        ctx.profiler.total_splits(),
        1,
        "one symbolic branch, one split"
    );
}

/// Merged-pc ablation: the baseline and split-pc agree semantically.
#[test]
fn merged_pc_agrees_with_split_pc() {
    reset_ctx();
    let mut ctx = SymCtx::new();
    let mut asm = Asm::new();
    asm.branch(BrOp::Beq, A0, ZERO, "zero");
    asm.li(A1, 7);
    asm.i(Insn::Mret);
    asm.label("zero");
    asm.li(A1, 9);
    asm.i(Insn::Mret);
    let words = asm.assemble(0x8000_0000);
    let mut interp = Interp::from_words(0x8000_0000, &words, 8).unwrap();
    let mut m1 = Machine::fresh_at(0x8000_0000, Mem::new(MemCfg::default()), "m");
    let mut m2 = m1.clone();
    interp.run(&mut ctx, &mut m1);
    interp.opt = serval_core::OptCfg::none();
    interp.run(&mut ctx, &mut m2);
    assert!(verify(&[], m1.reg(A1).eq_(m2.reg(A1))).is_proved());
}

/// A load from an address no region holds is undefined behaviour: the
/// handler still runs to `mret`, and the access's obligation is refuted.
#[test]
fn wild_load_is_refuted_not_a_panic() {
    reset_ctx();
    let mut ctx = SymCtx::new();
    let mut asm = Asm::new();
    asm.ld(A0, 0, ZERO);
    asm.i(Insn::Mret);
    let words = asm.assemble(0x8000_0000);
    let interp = Interp::from_words(0x8000_0000, &words, 8).unwrap();
    let mut m = Machine::fresh_at(0x8000_0000, Mem::new(MemCfg::default()), "m");
    let o = interp.run(&mut ctx, &mut m);
    assert!(o.ok(), "{o:?}");
    let refuted: Vec<String> = ctx
        .take_obligations()
        .into_iter()
        .filter(|ob| matches!(verify(&[], ob.condition), serval_smt::VerifyResult::Counterexample(_)))
        .map(|ob| ob.label)
        .collect();
    assert_eq!(refuted, ["bug-on: access outside all memory regions"]);
}

/// An opaque pc (jump through an arbitrary register) is reported, matching
/// the paper's "unconstrained program counter indicates a security bug".
#[test]
fn opaque_pc_detected() {
    reset_ctx();
    let mut ctx = SymCtx::new();
    let mut asm = Asm::new();
    asm.i(Insn::Jalr { rd: ZERO, rs1: A0, off: 0 }); // jump to untrusted a0!
    let words = asm.assemble(0x8000_0000);
    let interp = Interp::from_words(0x8000_0000, &words, 8).unwrap();
    let mut m = Machine::fresh_at(0x8000_0000, Mem::new(MemCfg::default()), "m");
    let o = interp.run(&mut ctx, &mut m);
    assert!(o.opaque_pc, "unconstrained jump must be flagged");
}
