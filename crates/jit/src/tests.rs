//! JIT checker tests: the fixed JITs verify; each seeded historical bug
//! is found with a counterexample; differential testing against concrete
//! execution cross-checks the checker itself.

use crate::checker::{check_rv64, prepare_rv64, sweep_rv64, sweep_x86, PreparedCheck};
use crate::rv64::{Rv64Jit, RvBug};
use crate::x86jit::{X86Bug, X86Jit};
use serval_bpf::{AluOp, Insn as Bpf, Src};
use serval_engine::{Engine, EngineCfg, Query};
use serval_smt::reset_ctx;
use serval_smt::solver::{SolverConfig, VerifyResult};

fn cfg() -> SolverConfig {
    SolverConfig::default()
}

#[test]
fn fixed_rv64_jit_verifies_all_alu() {
    let jit = Rv64Jit::fixed();
    let rows = sweep_rv64(&jit, cfg());
    assert!(!rows.is_empty());
    for row in &rows {
        assert!(row.ok, "{} {}: {:?}", row.target, row.insn, row.cex);
    }
}

#[test]
fn fixed_x86_jit_verifies_supported_alu() {
    let jit = X86Jit::fixed();
    let rows = sweep_x86(&jit, cfg());
    assert!(!rows.is_empty());
    for row in &rows {
        assert!(row.ok, "{} {}: {:?}", row.target, row.insn, row.cex);
    }
}

#[test]
fn each_rv64_bug_is_found() {
    for bug in RvBug::ALL {
        let mut jit = Rv64Jit::fixed();
        jit.bugs.insert(bug);
        let rows = sweep_rv64(&jit, cfg());
        let found = rows.iter().any(|r| !r.ok);
        assert!(found, "seeded bug {bug:?} not detected");
        // The failure comes with a concrete counterexample.
        let failing = rows.iter().find(|r| !r.ok).unwrap();
        assert!(failing.cex.is_some(), "{bug:?} missing counterexample");
    }
}

#[test]
fn each_x86_bug_is_found() {
    for bug in X86Bug::ALL {
        let mut jit = X86Jit::fixed();
        jit.bugs.insert(bug);
        let rows = sweep_x86(&jit, cfg());
        let found = rows.iter().any(|r| !r.ok);
        assert!(found, "seeded bug {bug:?} not detected");
    }
}

#[test]
fn bug_counts_match_paper() {
    // Paper §7: 15 bugs total — 9 RISC-V, 6 x86-32.
    assert_eq!(RvBug::ALL.len(), 9);
    assert_eq!(X86Bug::ALL.len(), 6);
    // All-buggy JITs: the checker flags failing rows on each target.
    let rv_fail = sweep_rv64(&Rv64Jit::buggy(), cfg())
        .iter()
        .filter(|r| !r.ok)
        .count();
    let x86_fail = sweep_x86(&X86Jit::buggy(), cfg())
        .iter()
        .filter(|r| !r.ok)
        .count();
    assert!(rv_fail >= 9, "expected >= 9 failing rv64 rows, got {rv_fail}");
    assert!(x86_fail >= 6, "expected >= 6 failing x86 rows, got {x86_fail}");
}

#[test]
fn div_by_zero_sequence_is_correct() {
    // The checked-division emission must match BPF's x/0 = 0, x%0 = x.
    let jit = Rv64Jit::fixed();
    for op in [AluOp::Div, AluOp::Mod] {
        for is32 in [false, true] {
            let insn = if is32 {
                Bpf::Alu32 { op, src: Src::X, dst: 1, srcr: 2, imm: 0 }
            } else {
                Bpf::Alu64 { op, src: Src::X, dst: 1, srcr: 2, imm: 0 }
            };
            let row = check_rv64(&jit, insn, cfg()).unwrap();
            assert!(row.ok, "{op:?} is32={is32}: {:?}", row.cex);
        }
    }
}

#[test]
fn buggy_shift32_counterexample_is_concrete() {
    // ALU32 lsh with the 64-bit-shift bug: find and validate a concrete
    // counterexample by running both sides concretely.
    let mut jit = Rv64Jit::fixed();
    jit.bugs.insert(RvBug::Shift32Lsh);
    let insn = Bpf::Alu32 { op: AluOp::Lsh, src: Src::X, dst: 1, srcr: 2, imm: 0 };
    let row = check_rv64(&jit, insn, cfg()).unwrap();
    assert!(!row.ok);
    assert!(row.cex.as_deref().unwrap_or("").contains("counterexample"));
}

/// A refuted query's countermodel renders byte for byte as it did when
/// the term store kept one `String` per variable: `"{name}#{ordinal}"`,
/// one line per variable, sorted.
#[test]
fn refuted_rv64_countermodel_renders_as_pinned() {
    let mut jit = Rv64Jit::fixed();
    jit.bugs.insert(RvBug::Shift32Lsh);
    let insn = Bpf::Alu32 { op: AluOp::Lsh, src: Src::X, dst: 1, srcr: 2, imm: 0 };
    reset_ctx();
    let Some(PreparedCheck::Pending { assumptions, goal, .. }) = prepare_rv64(&jit, insn) else {
        panic!("the shift is covered and runs to completion");
    };
    let engine = Engine::new(EngineCfg { jobs: 1, ..EngineCfg::default() });
    let label = "rv64 lsh32".to_string();
    let mut out = engine.submit_batch(vec![Query { label, assumptions, goal, cfg: cfg() }]);
    let VerifyResult::Counterexample(model) = out.remove(0).result else {
        panic!("the 64-bit shift bug is refuted");
    };
    assert_eq!(model.render(), PINNED_RENDER);
}

/// The rendering before variable names were formatted on demand.
const PINNED_RENDER: &str = "  bpf.r1#1 = 0x1 (64 bits)\n  bpf.r2#2 = 0x20 (64 bits)";

/// Differential testing: for random concrete inputs, the JIT-emitted code
/// and the BPF interpreter agree on the fixed JIT (a sanity check on the
/// checker's modelling, not a proof).
#[test]
fn differential_concrete_rv64() {
    use serval_core::{Mem, MemCfg};
    use serval_riscv::{Interp as RvInterp, Machine};
    use serval_smt::{reset_ctx, BV};
    use serval_sym::SymCtx;

    let jit = Rv64Jit::fixed();
    let mut seed = 0x12345678u64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for op in [AluOp::Add, AluOp::Lsh, AluOp::Rsh, AluOp::Arsh, AluOp::Div] {
        for is32 in [false, true] {
            let insn = if is32 {
                Bpf::Alu32 { op, src: Src::X, dst: 1, srcr: 2, imm: 0 }
            } else {
                Bpf::Alu64 { op, src: Src::X, dst: 1, srcr: 2, imm: 0 }
            };
            for _ in 0..4 {
                reset_ctx();
                let (a, b) = (rng(), rng() % 100);
                let mut ctx = SymCtx::new();
                // BPF side.
                let mut s = serval_bpf::BpfState::fresh("b");
                s.regs[1] = BV::lit(64, a as u128);
                s.regs[2] = BV::lit(64, b as u128);
                serval_bpf::BpfInterp::new(vec![]).step_insn(&mut ctx, &mut s, insn);
                let expect = s.reg(1).as_const().unwrap();
                // Machine side.
                let mut words: Vec<u32> = jit
                    .emit(insn)
                    .unwrap()
                    .iter()
                    .map(|&i| serval_riscv::encode(i))
                    .collect();
                words.push(serval_riscv::encode(serval_riscv::Insn::Mret));
                let interp = RvInterp::from_words(0, &words, 64).unwrap();
                let mut m = Machine::reset_at(0, Mem::new(MemCfg::default()));
                m.set_reg(crate::rv64::reg_map(1), BV::lit(64, a as u128));
                m.set_reg(crate::rv64::reg_map(2), BV::lit(64, b as u128));
                let o = interp.run(&mut ctx, &mut m);
                assert!(o.ok());
                let got = m.reg(crate::rv64::reg_map(1)).as_const().unwrap();
                assert_eq!(got, expect, "{op:?} is32={is32} a={a:#x} b={b:#x}");
            }
        }
    }
}
