//! The specification library (paper §3.3): state-machine refinement and
//! step consistency, the two-safety lemma of noninterference.
//!
//! Quantifiers over finite domains are handled the way Serval handles them:
//! the quantified variables become fresh symbolic constants, so proving the
//! body valid proves the universally quantified formula.

use crate::report::{discharge, discharge_batch, NamedGoal, ProofReport};
use serval_smt::solver::SolverConfig;
use serval_smt::SBool;
use serval_sym::{Merge, SymCtx};

/// A state-machine refinement proof description (paper §3.3).
///
/// The four specification inputs are the ones the paper lists: the
/// specification state (type `Spec`), the functional specification
/// (`run_spec`), the abstraction function (`abstraction`), and the
/// representation invariant (`rep_invariant`).
pub trait Refinement {
    /// Implementation state (e.g. machine registers + typed memory).
    type Impl: Merge;
    /// Specification state.
    type Spec: Merge;

    /// A fresh, fully symbolic implementation state.
    fn fresh_impl(&self, ctx: &mut SymCtx) -> Self::Impl;

    /// The representation invariant `RI` over implementation states.
    fn rep_invariant(&self, c: &Self::Impl) -> SBool;

    /// The abstraction function `AF`.
    fn abstraction(&self, c: &Self::Impl) -> Self::Spec;

    /// Equality of specification states.
    fn spec_eq(&self, a: &Self::Spec, b: &Self::Spec) -> SBool;

    /// Runs the implementation one operation (symbolic evaluation of
    /// machine code). `bug_on` obligations are collected in `ctx`.
    fn run_impl(&self, ctx: &mut SymCtx, c: &mut Self::Impl);

    /// Runs the functional specification for the same operation.
    fn run_spec(&self, ctx: &mut SymCtx, s: &mut Self::Spec);
}

/// Proves the refinement theorems of paper §3.3 for one operation:
///
/// 1. every collected `bug_on` obligation (absence of undefined behavior),
/// 2. `RI(c) ⇒ RI(f_impl(c))` (invariant preservation), and
/// 3. `RI(c) ∧ AF(c) = s ⇒ AF(f_impl(c)) = f_spec(s)` (lock-step
///    commutation).
pub fn prove_refinement<R: Refinement>(
    r: &R,
    cfg: SolverConfig,
    name: &str,
) -> ProofReport {
    let mut ctx = SymCtx::new();
    let mut impl_state = r.fresh_impl(&mut ctx);
    let ri0 = r.rep_invariant(&impl_state);
    ctx.assume(ri0);
    let mut spec_state = r.abstraction(&impl_state);

    r.run_impl(&mut ctx, &mut impl_state);
    r.run_spec(&mut ctx, &mut spec_state);

    // All three theorem families are independent, so collect them first
    // and discharge as one concurrent batch on the engine.
    let mut goals: Vec<NamedGoal> = ctx
        .take_obligations()
        .into_iter()
        .map(|ob| NamedGoal::new(format!("{name}: {}", ob.label), ob.condition))
        .collect();
    // 2. RI preservation.
    let ri1 = r.rep_invariant(&impl_state);
    goals.push(NamedGoal::new(format!("{name}: RI preserved"), ri1));
    // 3. Lock-step commutation through AF.
    let af1 = r.abstraction(&impl_state);
    let eq = r.spec_eq(&af1, &spec_state);
    goals.push(NamedGoal::new(format!("{name}: refinement"), eq));
    discharge_batch(&ctx, cfg, goals)
}

/// Proves step consistency (paper §3.3, §6.2), the core two-safety lemma of
/// noninterference: for any action `a` and states `s1 ∼ s2`,
/// `step(s1, a) ∼ step(s2, a)`.
///
/// `fresh` produces two independent symbolic states; `action` runs the same
/// (shared-symbolic) action on a state; `unwinding` is the observer's
/// indistinguishability relation `∼`.
pub fn prove_step_consistency<S>(
    cfg: SolverConfig,
    name: &str,
    mut fresh: impl FnMut(&mut SymCtx, &str) -> S,
    mut action: impl FnMut(&mut SymCtx, &mut S),
    unwinding: impl Fn(&S, &S) -> SBool,
    invariant: impl Fn(&S) -> SBool,
) -> ProofReport {
    let mut ctx = SymCtx::new();
    let mut s1 = fresh(&mut ctx, "s1");
    let mut s2 = fresh(&mut ctx, "s2");
    ctx.assume(invariant(&s1));
    ctx.assume(invariant(&s2));
    ctx.assume(unwinding(&s1, &s2));
    action(&mut ctx, &mut s1);
    action(&mut ctx, &mut s2);
    let goal = unwinding(&s1, &s2);
    discharge(&ctx, cfg, name, goal).into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serval_smt::{reset_ctx, BV};

    /// A counter machine: spec is the counter value; impl stores it split
    /// across two fields (lo/hi nibbles) to exercise AF/RI.
    struct CounterRefinement;

    #[derive(Clone)]
    struct CImpl {
        lo: BV,
        hi: BV,
    }
    impl Merge for CImpl {
        fn merge(c: SBool, t: &Self, e: &Self) -> Self {
            CImpl {
                lo: BV::merge(c, &t.lo, &e.lo),
                hi: BV::merge(c, &t.hi, &e.hi),
            }
        }
    }

    impl Refinement for CounterRefinement {
        type Impl = CImpl;
        type Spec = BV;

        fn fresh_impl(&self, _ctx: &mut SymCtx) -> CImpl {
            CImpl {
                lo: BV::fresh(8, "lo"),
                hi: BV::fresh(8, "hi"),
            }
        }

        fn rep_invariant(&self, c: &CImpl) -> SBool {
            c.lo.ult(BV::lit(8, 16)) & c.hi.ult(BV::lit(8, 16))
        }

        fn abstraction(&self, c: &CImpl) -> BV {
            c.hi.shl(BV::lit(8, 4)) | c.lo
        }

        fn spec_eq(&self, a: &BV, b: &BV) -> SBool {
            a.eq_(*b)
        }

        fn run_impl(&self, ctx: &mut SymCtx, c: &mut CImpl) {
            // increment with nibble carry
            let lo1 = c.lo + BV::lit(8, 1);
            let carry = lo1.eq_(BV::lit(8, 16));
            ctx.branch(
                carry,
                c,
                |_, c| {
                    c.lo = BV::lit(8, 0);
                    c.hi = (c.hi + BV::lit(8, 1)) & BV::lit(8, 0xf);
                },
                |_, c| c.lo = lo1,
            );
        }

        fn run_spec(&self, _ctx: &mut SymCtx, s: &mut BV) {
            *s = *s + BV::lit(8, 1);
        }
    }

    #[test]
    fn counter_refinement_proves() {
        reset_ctx();
        let report =
            prove_refinement(&CounterRefinement, SolverConfig::default(), "inc");
        assert!(report.all_proved(), "\n{}", report.render());
    }

    /// A broken variant (forgets the carry) must fail refinement.
    struct BrokenCounter;
    impl Refinement for BrokenCounter {
        type Impl = CImpl;
        type Spec = BV;
        fn fresh_impl(&self, ctx: &mut SymCtx) -> CImpl {
            CounterRefinement.fresh_impl(ctx)
        }
        fn rep_invariant(&self, c: &CImpl) -> SBool {
            c.lo.ult(BV::lit(8, 16)) & c.hi.ult(BV::lit(8, 16))
        }
        fn abstraction(&self, c: &CImpl) -> BV {
            CounterRefinement.abstraction(c)
        }
        fn spec_eq(&self, a: &BV, b: &BV) -> SBool {
            a.eq_(*b)
        }
        fn run_impl(&self, _ctx: &mut SymCtx, c: &mut CImpl) {
            c.lo = (c.lo + BV::lit(8, 1)) & BV::lit(8, 0xf); // no carry!
        }
        fn run_spec(&self, _ctx: &mut SymCtx, s: &mut BV) {
            *s = *s + BV::lit(8, 1);
        }
    }

    #[test]
    fn broken_counter_fails_with_counterexample() {
        reset_ctx();
        let report = prove_refinement(&BrokenCounter, SolverConfig::default(), "inc");
        let failure = report.first_failure().expect("must fail");
        assert!(failure.name.contains("refinement"));
    }

    #[test]
    fn step_consistency_toy() {
        reset_ctx();
        // State: (public, secret); action doubles public. Observer sees
        // only public; consistency must hold.
        let report = prove_step_consistency(
            SolverConfig::default(),
            "toy-ni",
            |_, tag| (BV::fresh(8, &format!("{tag}.pub")), BV::fresh(8, &format!("{tag}.sec"))),
            |_, s: &mut (BV, BV)| s.0 = s.0 + s.0,
            |a, b| a.0.eq_(b.0),
            |_| SBool::lit(true),
        );
        assert!(report.all_proved(), "\n{}", report.render());
    }

    #[test]
    fn step_consistency_catches_leak() {
        reset_ctx();
        // Action leaks the secret into public.
        let report = prove_step_consistency(
            SolverConfig::default(),
            "leaky",
            |_, tag| (BV::fresh(8, &format!("{tag}.pub")), BV::fresh(8, &format!("{tag}.sec"))),
            |_, s: &mut (BV, BV)| s.0 = s.0 + s.1,
            |a, b| a.0.eq_(b.0),
            |_| SBool::lit(true),
        );
        assert!(!report.all_proved(), "leak must be caught");
    }
}
