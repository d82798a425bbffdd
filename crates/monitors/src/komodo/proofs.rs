//! Komodo^s proofs: binary-level refinement for every monitor call, plus
//! Nickel-style noninterference over the specification (paper §6.3).

use super::spec::{
    abstraction, page_eq, spec_alloc, spec_enter, spec_exit, spec_init_addrspace,
    spec_map_insecure, spec_remove, spec_set_state, SpecState,
};
use super::{build, fresh_mem, st, sys, ty, CODE_BASE, NPAGES, PAGE, PMP_ALLOW, PMP_DENY, SECURE_BASE};
use crate::trap::{self, Trap};
use serval_core::report::{discharge, discharge_queries, ProofReport};
use serval_core::OptCfg;
use serval_ir::OptLevel;
use serval_riscv::{reg, Machine};
use serval_smt::solver::SolverConfig;
use serval_smt::{reset_ctx, SBool, BV};
use serval_sym::SymCtx;

fn lit(v: u64) -> BV {
    BV::lit(64, v as u128)
}

/// Komodo^s as the trap harness sees it.
const MONITOR: trap::Monitor<SpecState> = trap::Monitor {
    code_base: CODE_BASE,
    fresh_mem,
    abstraction,
    invariant: SpecState::invariant,
};

/// Proves one monitor call of the compiled binary against its functional
/// specification. Resets the thread's term context.
pub fn prove_op(op: u64, level: OptLevel, optcfg: OptCfg, cfg: SolverConfig) -> ProofReport {
    reset_ctx();
    let interp = build(level, optcfg);
    let name = op_name(op);
    let Trap { mut ctx, m, s0, regs, mepc: entry_mepc } =
        match trap::enter(&MONITOR, &name, &interp, optcfg, Some(op)) {
            Ok(t) => t,
            Err(report) => return report,
        };
    let [a0, a1, a2, entry_sp] = [reg::A0, reg::A1, reg::A2, reg::SP].map(|r| regs[r as usize]);

    // The specification run.
    let mut s = s0.clone();
    let os_resume = entry_mepc + lit(4);
    let (spec_ret, entered, exited) = match op {
        sys::INIT_ADDRSPACE => (spec_init_addrspace(&mut s, a0, a1), None, None),
        sys::INIT_THREAD => (
            spec_alloc(&mut s, a0, a1, ty::THREAD, Some(a2), None),
            None,
            None,
        ),
        sys::INIT_L2PT => (spec_alloc(&mut s, a0, a1, ty::L2PT, None, None), None, None),
        sys::INIT_L3PT => (spec_alloc(&mut s, a0, a1, ty::L3PT, None, None), None, None),
        sys::MAP_SECURE => (
            spec_alloc(&mut s, a0, a1, ty::DATA, None, Some(a2)),
            None,
            None,
        ),
        sys::MAP_INSECURE => (spec_map_insecure(&s, a0, a1, a2), None, None),
        sys::FINALISE => (spec_set_state(&mut s, a0, st::FINAL, st::INIT), None, None),
        sys::STOP => (spec_set_state(&mut s, a0, st::STOPPED, 0), None, None),
        sys::ENTER | sys::RESUME => {
            let (r, ok) = spec_enter(&mut s, a0, os_resume);
            (r, Some(ok), None)
        }
        sys::EXIT => {
            let (r, ok) = spec_exit(&mut s, a0);
            (r, None, Some(ok))
        }
        sys::REMOVE => (spec_remove(&mut s, a0), None, None),
        _ => panic!("unknown op {op}"),
    };

    // Collect every theorem and discharge them as one engine batch.
    // 1. UB obligations.
    let mut goals = trap::ub(&mut ctx, &name);

    // 2. State refinement. The implementation's `os_resume` cell differs
    // from the spec's only on paths where it is never consulted again
    // (enter saves it provisionally); compare the spec-relevant parts.
    let s_impl = abstraction(&m.mem);
    let mut state_eq = s_impl.cur_thread.eq_(s.cur_thread);
    for (a, b) in s_impl.pages.iter().zip(&s.pages) {
        state_eq = state_eq & page_eq(a, b);
    }
    if matches!(op, sys::ENTER | sys::RESUME) {
        // On a successful enter the saved resume point must be correct.
        let ok = entered.unwrap();
        state_eq = state_eq & ok.implies(s_impl.os_resume.eq_(os_resume));
    } else {
        state_eq = state_eq & s_impl.os_resume.eq_(s.os_resume);
    }
    goals.push("state refinement", state_eq);
    // 3. Return value (for Enter the returned 0 goes to the enclave).
    goals.push("return value", m.reg(reg::A0).eq_(spec_ret));
    // 4. Invariant preservation.
    goals.push("invariant preserved", s.invariant());

    // 5. Control flow: where does the machine resume?
    let want_pc = match op {
        sys::ENTER | sys::RESUME => {
            let ok = entered.unwrap();
            let thread_entry = s0.read(a0, |p| p.extra);
            ok.select(thread_entry, entry_mepc + lit(4))
        }
        sys::EXIT => {
            let ok = exited.unwrap();
            ok.select(s0.os_resume, entry_mepc + lit(4))
        }
        _ => entry_mepc + lit(4),
    };
    let control = m.pc.eq_(want_pc) & m.reg(reg::SP).eq_(entry_sp);
    goals.push("control flow", control);
    // 6. Scratch registers scrubbed.
    goals.push("scratch registers scrubbed", trap::scrubbed(&m));

    // 7. PMP window on the secure region after Enter/Exit.
    if matches!(op, sys::ENTER | sys::RESUME | sys::EXIT) {
        let ok = entered.or(exited).unwrap();
        let lo = lit(SECURE_BASE >> 2);
        let hi = lit((SECURE_BASE + NPAGES * PAGE) >> 2);
        let cfg_val = if op == sys::EXIT {
            lit(PMP_DENY | (PMP_DENY << 8))
        } else {
            lit(PMP_DENY | (PMP_ALLOW << 8))
        };
        let goal = ok.implies(trap::pmp_is(&m, lo, hi, cfg_val));
        goals.push("PMP window", goal);
    }
    goals.discharge(&ctx, cfg)
}

fn op_name(op: u64) -> String {
    let n = match op {
        sys::INIT_ADDRSPACE => "InitAddrspace",
        sys::INIT_THREAD => "InitThread",
        sys::INIT_L2PT => "InitL2PTable",
        sys::INIT_L3PT => "InitL3PTable",
        sys::MAP_SECURE => "MapSecure",
        sys::MAP_INSECURE => "MapInsecure",
        sys::FINALISE => "Finalise",
        sys::ENTER => "Enter",
        sys::RESUME => "Resume",
        sys::EXIT => "Exit",
        sys::STOP => "Stop",
        sys::REMOVE => "Remove",
        _ => "unknown",
    };
    format!("komodo {n}")
}

/// All monitor calls.
pub const ALL_OPS: [u64; 12] = [
    sys::INIT_ADDRSPACE,
    sys::INIT_THREAD,
    sys::INIT_L2PT,
    sys::INIT_L3PT,
    sys::MAP_SECURE,
    sys::MAP_INSECURE,
    sys::FINALISE,
    sys::ENTER,
    sys::RESUME,
    sys::EXIT,
    sys::STOP,
    sys::REMOVE,
];

/// Proves refinement for every monitor call.
pub fn prove_refinement(level: OptLevel, optcfg: OptCfg, cfg: SolverConfig) -> ProofReport {
    let mut report = ProofReport::default();
    for op in ALL_OPS {
        report.extend(prove_op(op, level, optcfg, cfg));
    }
    report
}

// ---------------------------------------------------------------------
// Noninterference (Nickel-style, paper §6.3)
// ---------------------------------------------------------------------

/// Enclave `a`'s observation equivalence: which pages belong to addrspace
/// `a` must agree, and the contents of those page-database entries must be
/// equal.
pub fn obs_eq(a: BV, s1: &SpecState, s2: &SpecState) -> SBool {
    let mut acc = SBool::lit(true);
    for (i, (p1, p2)) in s1.pages.iter().zip(&s2.pages).enumerate() {
        let i = BV::lit(64, i as u128);
        let b1 = belongs(s1, i, a);
        let b2 = belongs(s2, i, a);
        acc = acc & b1.iff(b2) & b1.implies(page_eq(p1, p2));
    }
    acc
}

fn belongs(s: &SpecState, page: BV, asp: BV) -> SBool {
    s.read(page, |p| p.ty).ne_(BV::lit(64, ty::FREE as u128))
        & s.read(page, |p| p.owner).eq_(asp)
}

/// Local respect: an OS operation targeting addrspace `b != a` leaves
/// enclave `a`'s observation unchanged. Covers the whole construction and
/// teardown interface.
pub fn prove_local_respect(cfg: SolverConfig) -> ProofReport {
    // One term context for the whole family; each lemma gets its own
    // assumption set and the batch goes through the engine at once.
    reset_ctx();
    let mut items: Vec<(String, Vec<SBool>, SBool)> = Vec::new();
    let ops: [(&str, u64); 7] = [
        ("InitAddrspace", sys::INIT_ADDRSPACE),
        ("InitThread", sys::INIT_THREAD),
        ("InitL2PTable", sys::INIT_L2PT),
        ("InitL3PTable", sys::INIT_L3PT),
        ("MapSecure", sys::MAP_SECURE),
        ("Finalise", sys::FINALISE),
        ("Stop", sys::STOP),
    ];
    for (name, op) in ops {
        let mut ctx = SymCtx::new();
        let a = BV::fresh(64, "a");
        let mut s = SpecState::fresh("s");
        let before = s.clone();
        ctx.assume(a.ult(lit(NPAGES)));
        ctx.assume(s.invariant());
        ctx.assume(s.wf());
        let target = BV::fresh(64, "target");
        let arg1 = BV::fresh(64, "arg1");
        let arg2 = BV::fresh(64, "arg2");
        ctx.assume(target.ne_(a)); // the operation is for another enclave
        match op {
            sys::INIT_ADDRSPACE => {
                // The new addrspace page must not currently belong to a
                // (it is required FREE anyway, but the mask keeps the
                // query well-formed).
                let _ = spec_init_addrspace(&mut s, target, arg1);
            }
            sys::INIT_THREAD => {
                let _ = spec_alloc(&mut s, target, arg1, ty::THREAD, Some(arg2), None);
            }
            sys::INIT_L2PT => {
                let _ = spec_alloc(&mut s, target, arg1, ty::L2PT, None, None);
            }
            sys::INIT_L3PT => {
                let _ = spec_alloc(&mut s, target, arg1, ty::L3PT, None, None);
            }
            sys::MAP_SECURE => {
                let _ = spec_alloc(&mut s, target, arg1, ty::DATA, None, Some(arg2));
            }
            sys::FINALISE => {
                let _ = spec_set_state(&mut s, target, st::FINAL, st::INIT);
            }
            _ => {
                let _ = spec_set_state(&mut s, target, st::STOPPED, 0);
            }
        }
        items.push((
            format!("komodo {name}: invisible to other enclaves"),
            ctx.assumptions().to_vec(),
            obs_eq(a, &before, &s),
        ));
    }

    // Remove: frees a page of a *stopped* addrspace b != a.
    let mut ctx = SymCtx::new();
    let a = BV::fresh(64, "a");
    let mut s = SpecState::fresh("s");
    let before = s.clone();
    ctx.assume(a.ult(lit(NPAGES)));
    ctx.assume(s.invariant());
    ctx.assume(s.wf());
    let page = BV::fresh(64, "page");
    // The removed page does not belong to enclave `a`.
    ctx.assume(s.read(page, |p| p.owner).ne_(a));
    let _ = spec_remove(&mut s, page);
    items.push((
        "komodo Remove: invisible to other enclaves".to_string(),
        ctx.assumptions().to_vec(),
        obs_eq(a, &before, &s),
    ));
    discharge_queries(cfg, items)
}

/// Step consistency for the OS construction interface: from two states
/// indistinguishable to enclave `a`, the same operation on `a`'s own
/// addrspace yields `a`-indistinguishable states (the OS builds the
/// enclave deterministically from public arguments).
pub fn prove_construction_consistency(cfg: SolverConfig) -> ProofReport {
    reset_ctx();
    let mut ctx = SymCtx::new();
    let a = BV::fresh(64, "a");
    let mut s1 = SpecState::fresh("s1");
    let mut s2 = SpecState::fresh("s2");
    ctx.assume(a.ult(lit(NPAGES)));
    ctx.assume(s1.invariant());
    ctx.assume(s2.invariant());
    ctx.assume(s1.wf());
    ctx.assume(s2.wf());
    ctx.assume(obs_eq(a, &s1, &s2));
    // The page being granted is free in both runs (not owned by anyone).
    let page = BV::fresh(64, "page");
    let entry_pc = BV::fresh(64, "entry");
    ctx.assume(s1.read(page, |p| p.ty).eq_(lit(ty::FREE)));
    ctx.assume(s2.read(page, |p| p.ty).eq_(lit(ty::FREE)));
    // a's own record agrees (it is part of obs when it belongs to a);
    // require that a is an addrspace in both.
    ctx.assume(belongs(&s1, a, a));
    ctx.assume(belongs(&s2, a, a));
    let r1 = spec_alloc(&mut s1, a, page, ty::THREAD, Some(entry_pc), None);
    let r2 = spec_alloc(&mut s2, a, page, ty::THREAD, Some(entry_pc), None);
    discharge(
        &ctx,
        cfg,
        "komodo InitThread: construction consistency",
        obs_eq(a, &s1, &s2) & r1.eq_(r2),
    )
    .into()
}

/// All noninterference theorems.
pub fn prove_noninterference(cfg: SolverConfig) -> ProofReport {
    let mut report = ProofReport::default();
    report.extend(prove_local_respect(cfg));
    report.extend(prove_construction_consistency(cfg));
    report
}

/// Boot verification (paper §3.4): from the architectural reset state
/// with arbitrary memory, boot zeroes the page database, closes the
/// secure PMP window, installs the trap vector, and enters the OS.
pub fn prove_boot(level: OptLevel, cfg: SolverConfig) -> ProofReport {
    reset_ctx();
    let (interp, boot_addr) = super::build_with_boot(level, OptCfg::default());
    let name = "komodo boot";
    let mut ctx = SymCtx::new();
    let mut m = Machine::reset_at(boot_addr, fresh_mem());
    if let Err(report) = trap::run(name, &interp, &mut ctx, &mut m) {
        return report;
    }
    let mut goals = trap::ub(&mut ctx, name);
    let s = abstraction(&m.mem);
    let mut goal = s.cur_thread.eq_(lit(super::NONE)) & s.invariant();
    for p in &s.pages {
        goal = goal & p.ty.eq_(lit(ty::FREE));
    }
    goals.push("initial abstract state", goal);
    let (lo, hi) = (lit(SECURE_BASE >> 2), lit((SECURE_BASE + NPAGES * PAGE) >> 2));
    let machine_goal = m.csrs.mtvec.eq_(lit(CODE_BASE))
        & m.pc.eq_(lit(super::OS_ENTRY))
        & trap::pmp_is(&m, lo, hi, lit(PMP_DENY | (PMP_DENY << 8)));
    goals.push("trap vector, PMP window closed, OS entry", machine_goal);
    goals.discharge(&ctx, cfg)
}
