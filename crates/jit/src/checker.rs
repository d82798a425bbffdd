//! The JIT-correctness checker (paper §7).
//!
//! The property: starting from a BPF state and an equivalent machine
//! state, the result of executing a single BPF instruction on the BPF
//! state is equivalent to the machine state after executing the JIT's
//! output for that instruction. Violations are reported as bugs with
//! counterexamples, which the paper turned into kernel patches and
//! regression tests.

use crate::rv64::{reg_map, Rv64Jit};
use crate::x86jit::{pair_map, X86Jit};
use serval_bpf::{AluOp, BpfInterp, BpfState, Insn as Bpf, Src};
use serval_core::{Mem, MemCfg};
use serval_engine::{Query, QueryOutcome};
use serval_riscv::{Interp as RvInterp, Machine};
use serval_smt::solver::SolverConfig;
use serval_smt::{reset_ctx, SBool, VerifyResult};
use serval_sym::SymCtx;
use std::time::Instant;

/// One checker verdict.
#[derive(Clone, Debug)]
pub struct CheckRow {
    /// Target ISA ("rv64" or "x86-32").
    pub target: &'static str,
    /// Description of the BPF instruction checked.
    pub insn: String,
    /// Whether the translation was verified equivalent.
    pub ok: bool,
    /// Counterexample description when not ok.
    pub cex: Option<String>,
    /// End-to-end wall time of the check: symbolic evaluation (query
    /// construction) plus solving. The solve component is zero for
    /// cache hits, so warm-cache rows show only the preparation time.
    pub millis: u128,
}

/// A check that built its equivalence query but has not solved it yet.
/// The query's terms live in the building thread's term context, which
/// must stay intact (no `reset_ctx`) until the verdict comes back.
pub(crate) enum PreparedCheck {
    /// The check failed before solving (encode/decode/run error).
    Done(CheckRow),
    /// A solver query, ready for the engine.
    Pending {
        target: &'static str,
        insn: String,
        b0: BpfState,
        assumptions: Vec<SBool>,
        goal: SBool,
    },
}

/// Builds the RISC-V equivalence query for one BPF instruction without
/// solving it. Returns `None` when the JIT does not cover the
/// instruction. Does not reset the term context, so many checks can be
/// prepared back-to-back and discharged as one batch.
pub(crate) fn prepare_rv64(jit: &Rv64Jit, insn: Bpf) -> Option<PreparedCheck> {
    let seq = jit.emit(insn)?;
    let mut ctx = SymCtx::new();
    // Full fidelity: the emitted instructions go through machine-code
    // encoding and validated decoding (paper §3.4).
    let mut words: Vec<u32> = seq.iter().map(|&i| serval_riscv::encode(i)).collect();
    words.push(serval_riscv::encode(serval_riscv::Insn::Mret));
    let interp = match RvInterp::from_words(0, &words, 256) {
        Ok(i) => i,
        Err(e) => {
            return Some(PreparedCheck::Done(CheckRow {
                target: "rv64",
                insn: format!("{insn:?}"),
                ok: false,
                cex: Some(format!("emitted invalid machine code: {e}")),
                millis: 0,
            }))
        }
    };
    let b0 = BpfState::fresh("bpf");
    let mut b = b0.clone();
    let mut m = Machine::fresh_at(0, Mem::new(MemCfg::default()), "rv");
    for r in 0..=10u8 {
        m.set_reg(reg_map(r), b.reg(r));
    }
    let bpf = BpfInterp::new(vec![]);
    bpf.step_insn(&mut ctx, &mut b, insn);
    let o = interp.run(&mut ctx, &mut m);
    if !o.ok() {
        return Some(PreparedCheck::Done(CheckRow {
            target: "rv64",
            insn: format!("{insn:?}"),
            ok: false,
            cex: Some(format!("machine run did not complete: {o:?}")),
            millis: 0,
        }));
    }
    // Equivalence goal over every BPF register.
    let mut goal = SBool::lit(true);
    for r in 0..=10u8 {
        goal = goal & m.reg(reg_map(r)).eq_(b.reg(r));
    }
    Some(seal("rv64", insn, b0, ctx, goal))
}

/// Builds the x86-32 equivalence query for one BPF instruction.
fn prepare_x86(jit: &X86Jit, insn: Bpf) -> Option<PreparedCheck> {
    let seq = jit.emit(insn)?;
    let mut ctx = SymCtx::new();
    // Fidelity: round-trip through machine bytes.
    for &i in &seq {
        let bytes = serval_x86::encode(i);
        if serval_x86::decode_validated(&bytes).is_err() {
            return Some(PreparedCheck::Done(CheckRow {
                target: "x86-32",
                insn: format!("{insn:?}"),
                ok: false,
                cex: Some("emitted invalid machine code".into()),
                millis: 0,
            }));
        }
    }
    let interp = serval_x86::X86Interp::new(seq);
    let b0 = BpfState::fresh("bpf");
    let mut b = b0.clone();
    let mut m = serval_x86::X86State::fresh("x86");
    for r in 0..=2u8 {
        let (lo, hi) = pair_map(r);
        m.set_reg(lo, b.reg(r).trunc(32));
        m.set_reg(hi, b.reg(r).extract(63, 32));
    }
    let bpf = BpfInterp::new(vec![]);
    bpf.step_insn(&mut ctx, &mut b, insn);
    if !interp.run(&mut ctx, &mut m) {
        return Some(PreparedCheck::Done(CheckRow {
            target: "x86-32",
            insn: format!("{insn:?}"),
            ok: false,
            cex: Some("machine run diverged".into()),
            millis: 0,
        }));
    }
    let mut goal = SBool::lit(true);
    for r in 0..=2u8 {
        let (lo, hi) = pair_map(r);
        goal = goal & m.reg(hi).concat(m.reg(lo)).eq_(b.reg(r));
    }
    Some(seal("x86-32", insn, b0, ctx, goal))
}

/// Folds the collected UB obligations into the goal (e.g. no jumps out
/// of the emitted sequence) and packages the pending query.
fn seal(
    target: &'static str,
    insn: Bpf,
    b0: BpfState,
    ctx: SymCtx,
    mut goal: SBool,
) -> PreparedCheck {
    for ob in ctx.obligations() {
        goal = goal & ob.condition;
    }
    PreparedCheck::Pending {
        target,
        insn: format!("{insn:?}"),
        b0,
        assumptions: ctx.assumptions().to_vec(),
        goal,
    }
}

/// Turns an engine verdict into a checker row. The counterexample model
/// comes back translated into this thread's term context, so it can be
/// evaluated against the original BPF state.
fn row_from_outcome(
    target: &'static str,
    insn: String,
    b0: &BpfState,
    outcome: QueryOutcome,
) -> CheckRow {
    let (ok, cex) = match outcome.result {
        VerifyResult::Proved => (true, None),
        VerifyResult::Unknown => match outcome.error {
            Some(e) => (false, Some(format!("worker failed: {e}"))),
            None => (false, Some("solver budget exhausted".into())),
        },
        VerifyResult::Interrupted => (false, Some("solve was cancelled".into())),
        VerifyResult::Counterexample(model) => {
            let mut desc = String::from("counterexample:");
            for r in 0..=10u8 {
                let v = model.eval_bv(b0.reg(r).0) as u64;
                if v != 0 {
                    desc.push_str(&format!(" r{r}={v:#x}"));
                }
            }
            (false, Some(desc))
        }
    };
    CheckRow {
        target,
        insn,
        ok,
        cex,
        millis: outcome.wall.as_millis(),
    }
}

/// Discharges a list of prepared checks as one engine batch, preserving
/// order.
fn discharge_prepared(prepared: Vec<PreparedCheck>, cfg: SolverConfig) -> Vec<CheckRow> {
    let mut queries = Vec::new();
    // (row slot, pending metadata) — pending rows are filled after the batch.
    let mut rows: Vec<Option<CheckRow>> = Vec::with_capacity(prepared.len());
    let mut pending: Vec<(usize, &'static str, String, BpfState)> = Vec::new();
    for p in prepared {
        match p {
            PreparedCheck::Done(row) => rows.push(Some(row)),
            PreparedCheck::Pending {
                target,
                insn,
                b0,
                assumptions,
                goal,
            } => {
                queries.push(Query {
                    label: format!("{target}: {insn}"),
                    assumptions,
                    goal,
                    cfg,
                });
                pending.push((rows.len(), target, insn, b0));
                rows.push(None);
            }
        }
    }
    let outcomes = serval_engine::discharger().submit_batch(queries);
    for ((slot, target, insn, b0), outcome) in pending.into_iter().zip(outcomes) {
        rows[slot] = Some(row_from_outcome(target, insn, &b0, outcome));
    }
    rows.into_iter().map(|r| r.expect("row resolved")).collect()
}

/// Checks one BPF instruction against the RISC-V JIT. Returns `None` when
/// the JIT does not cover the instruction. Resets the thread's term
/// context.
pub fn check_rv64(jit: &Rv64Jit, insn: Bpf, cfg: SolverConfig) -> Option<CheckRow> {
    reset_ctx();
    let t = Instant::now();
    let prepared = prepare_rv64(jit, insn)?;
    let prep = t.elapsed().as_millis();
    let mut row = discharge_prepared(vec![prepared], cfg).pop()?;
    row.millis += prep;
    Some(row)
}

/// Checks one BPF instruction against the x86-32 JIT.
pub fn check_x86(jit: &X86Jit, insn: Bpf, cfg: SolverConfig) -> Option<CheckRow> {
    reset_ctx();
    let t = Instant::now();
    let prepared = prepare_x86(jit, insn)?;
    let prep = t.elapsed().as_millis();
    let mut row = discharge_prepared(vec![prepared], cfg).pop()?;
    row.millis += prep;
    Some(row)
}

/// Immediates exercised for `K`-form instructions (shift corner cases
/// included: 0, 32 boundary, and large counts).
pub const K_VALUES: [i32; 7] = [0, 1, 31, 32, 33, 63, -1];

/// The sweep plan: each entry yields at most one report row.
enum Plan {
    /// A register-form check (one prepared index).
    One(usize),
    /// The immediate-form group across [`K_VALUES`]; the reported row is
    /// the first failing immediate, or the first immediate if all pass.
    KGroup(Vec<usize>),
}

/// Builds the full sweep (every ALU op, both widths, both source forms)
/// with `prepare`, discharges it as a single engine batch, and selects
/// the report rows.
fn sweep_with(
    mut prepare: impl FnMut(Bpf) -> Option<PreparedCheck>,
    cfg: SolverConfig,
) -> Vec<CheckRow> {
    // One term context for the whole sweep: every prepared query's terms
    // must stay alive until its verdict (and counterexample) comes back.
    reset_ctx();
    let mut prepared = Vec::new();
    // Per-check symbolic-evaluation wall time, folded into each row's
    // `millis` after solving so rows report end-to-end check time.
    let mut prep_ms: Vec<u128> = Vec::new();
    let mut plan = Vec::new();
    for &op in &AluOp::ALL {
        for is32 in [false, true] {
            // Register form.
            let t = Instant::now();
            if let Some(p) = prepare(mk_insn(op, is32, Src::X, 0)) {
                prepared.push(p);
                prep_ms.push(t.elapsed().as_millis());
                plan.push(Plan::One(prepared.len() - 1));
            }
            // Immediate forms across the corner-case constants.
            let mut group = Vec::new();
            for &k in &K_VALUES {
                let t = Instant::now();
                if let Some(p) = prepare(mk_insn(op, is32, Src::K, k)) {
                    prepared.push(p);
                    prep_ms.push(t.elapsed().as_millis());
                    group.push(prepared.len() - 1);
                }
            }
            if !group.is_empty() {
                plan.push(Plan::KGroup(group));
            }
        }
    }
    let mut solved: Vec<Option<CheckRow>> = discharge_prepared(prepared, cfg)
        .into_iter()
        .zip(prep_ms)
        .map(|(mut row, prep)| {
            row.millis += prep;
            Some(row)
        })
        .collect();
    let mut rows = Vec::new();
    for entry in plan {
        match entry {
            Plan::One(i) => rows.extend(solved[i].take()),
            Plan::KGroup(group) => {
                let failing = group
                    .iter()
                    .find(|&&i| !solved[i].as_ref().expect("unclaimed").ok);
                let pick = *failing.unwrap_or(&group[0]);
                rows.extend(solved[pick].take());
            }
        }
    }
    rows
}

/// Sweeps the RISC-V JIT across every ALU instruction in both widths and
/// both source forms (paper §7's per-instruction checking). All queries
/// are discharged as one concurrent engine batch.
pub fn sweep_rv64(jit: &Rv64Jit, cfg: SolverConfig) -> Vec<CheckRow> {
    sweep_with(|insn| prepare_rv64(jit, insn), cfg)
}

/// Sweeps the x86-32 JIT (register-only subset).
pub fn sweep_x86(jit: &X86Jit, cfg: SolverConfig) -> Vec<CheckRow> {
    sweep_with(|insn| prepare_x86(jit, insn), cfg)
}

fn mk_insn(op: AluOp, is32: bool, src: Src, imm: i32) -> Bpf {
    let (dst, srcr) = (1, 2);
    if is32 {
        Bpf::Alu32 { op, src, dst, srcr, imm }
    } else {
        Bpf::Alu64 { op, src, dst, srcr, imm }
    }
}
