//! Tests for the SMT layer: simplification, solving, models, and a
//! property test cross-checking the bit-blaster against the term semantics.

use crate::model::Model;
use crate::solver::{check, check_with, verify, CheckResult, SolverConfig, VerifyResult};
use crate::term::{with_ctx, Op, Sort, TermId, UfId};
use crate::{reset_ctx, SBool, BV};
use serval_check::prelude::*;
use std::collections::HashMap;

fn proved(assumptions: &[SBool], goal: SBool) -> bool {
    verify(assumptions, goal).is_proved()
}

#[test]
fn constant_folding() {
    reset_ctx();
    let a = BV::lit(32, 20) + BV::lit(32, 22);
    assert_eq!(a.as_const(), Some(42));
    let b = BV::lit(8, 0xf0) | BV::lit(8, 0x0f);
    assert_eq!(b.as_const(), Some(0xff));
    let c = BV::lit(8, 200) * BV::lit(8, 2); // wraps
    assert_eq!(c.as_const(), Some(144));
    let d = BV::lit(16, 0x8000).ashr(BV::lit(16, 15));
    assert_eq!(d.as_const(), Some(0xffff));
    assert!((BV::lit(8, 3).ult(BV::lit(8, 5))).is_true());
    assert!((BV::lit(8, 0xff).slt(BV::lit(8, 0))).is_true()); // -1 < 0 signed
}

#[test]
fn identity_simplifications() {
    reset_ctx();
    let x = BV::fresh(32, "x");
    assert_eq!(x + BV::lit(32, 0), x);
    assert_eq!(x * BV::lit(32, 1), x);
    assert_eq!(x ^ x, BV::lit(32, 0));
    assert_eq!(x - x, BV::lit(32, 0));
    assert_eq!(x & x, x);
    assert_eq!(x | BV::lit(32, 0), x);
    assert_eq!((x & BV::lit(32, 0)).as_const(), Some(0));
    assert!(x.eq_(x).is_true());
    assert!(x.ult(x).is_false());
    assert!(x.ule(x).is_true());
}

#[test]
fn add_constant_gathering() {
    reset_ctx();
    let x = BV::fresh(64, "x");
    let a = x + BV::lit(64, 5) + BV::lit(64, 7);
    let b = x + BV::lit(64, 12);
    assert_eq!(a, b, "chained constant adds must canonicalize");
    let c = x - BV::lit(64, 3);
    let d = x + BV::lit(64, 3u128.wrapping_neg());
    assert_eq!(c, d, "subtraction of a constant becomes addition");
}

#[test]
fn ite_simplifications() {
    reset_ctx();
    let c = SBool::fresh("c");
    let x = BV::fresh(8, "x");
    let y = BV::fresh(8, "y");
    assert_eq!(c.select(x, x), x);
    assert_eq!(SBool::lit(true).select(x, y), x);
    assert_eq!(SBool::lit(false).select(x, y), y);
    // eq(ite(c, 4, 2), 4) → c  (the split-pc feasibility pattern).
    let pc = c.select(BV::lit(64, 4), BV::lit(64, 2));
    assert_eq!(pc.eq_(BV::lit(64, 4)), c);
    assert_eq!(pc.eq_(BV::lit(64, 2)), !c);
    assert!(pc.eq_(BV::lit(64, 9)).is_false());
}

#[test]
fn verify_commutativity_and_assoc() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let z = BV::fresh(16, "z");
    assert!(proved(&[], (x + y).eq_(y + x)));
    assert!(proved(&[], ((x + y) + z).eq_(x + (y + z))));
    assert!(proved(&[], (x * y).eq_(y * x)));
    assert!(proved(&[], ((x ^ y) ^ y).eq_(x)));
}

#[test]
fn verify_finds_counterexample() {
    reset_ctx();
    let x = BV::fresh(8, "x");
    // x + 1 > x fails at x = 0xff.
    match verify(&[], (x + BV::lit(8, 1)).ugt(x)) {
        VerifyResult::Counterexample(m) => {
            assert_eq!(m.eval_bv(x.0), 0xff);
        }
        r => panic!("expected counterexample, got {r:?}"),
    }
}

#[test]
fn verify_with_assumptions() {
    reset_ctx();
    let x = BV::fresh(8, "x");
    let lt = x.ult(BV::lit(8, 0x80));
    // Under the assumption, x + 1 > x does hold.
    assert!(proved(&[lt], (x + BV::lit(8, 1)).ugt(x)));
}

#[test]
fn signed_comparisons() {
    reset_ctx();
    let x = BV::fresh(8, "x");
    let y = BV::fresh(8, "y");
    // slt(x, y) == ult(x ^ 0x80, y ^ 0x80).
    let lhs = x.slt(y);
    let rhs = (x ^ BV::lit(8, 0x80)).ult(y ^ BV::lit(8, 0x80));
    assert!(proved(&[], lhs.iff(rhs)));
}

#[test]
fn shift_semantics() {
    reset_ctx();
    let x = BV::fresh(8, "x");
    // Oversized shifts yield zero (logical) / sign (arithmetic).
    assert!(proved(&[], x.shl(BV::lit(8, 8)).eq_(BV::lit(8, 0))));
    assert!(proved(&[], x.lshr(BV::lit(8, 9)).eq_(BV::lit(8, 0))));
    let sign = x.slt(BV::lit(8, 0)).select(BV::lit(8, 0xff), BV::lit(8, 0));
    assert!(proved(&[], x.ashr(BV::lit(8, 200)).eq_(sign)));
    // shl by 1 doubles.
    assert!(proved(&[], x.shl(BV::lit(8, 1)).eq_(x + x)));
}

#[test]
fn division_relation() {
    reset_ctx();
    let a = BV::fresh(8, "a");
    let b = BV::fresh(8, "b");
    let nz = !b.is_zero();
    let q = a.udiv(b);
    let r = a.urem(b);
    assert!(proved(&[nz], (q * b + r).eq_(a)));
    assert!(proved(&[nz], r.ult(b)));
    // Division by zero: SMT-LIB semantics.
    let z = BV::lit(8, 0);
    assert!(proved(&[b.eq_(z)], a.udiv(b).eq_(BV::lit(8, 0xff))));
    assert!(proved(&[b.eq_(z)], a.urem(b).eq_(a)));
}

#[test]
fn signed_division() {
    reset_ctx();
    // Exhaustive spot checks vs Rust semantics at width 8.
    for (x, y) in [(7i8, 2i8), (-7, 2), (7, -2), (-7, -2), (-128, -1)] {
        let a = BV::lit(8, x as u8 as u128);
        let b = BV::lit(8, y as u8 as u128);
        let q = a.sdiv(b);
        let r = a.srem(b);
        let expect_q = x.wrapping_div(y) as u8 as u128;
        let expect_r = x.wrapping_rem(y) as u8 as u128;
        assert_eq!(q.as_const(), Some(expect_q), "sdiv {x}/{y}");
        assert_eq!(r.as_const(), Some(expect_r), "srem {x}%{y}");
    }
}

#[test]
fn extract_concat_roundtrip() {
    reset_ctx();
    let x = BV::fresh(32, "x");
    let hi = x.extract(31, 16);
    let lo = x.extract(15, 0);
    assert_eq!(hi.concat(lo), x, "re-concatenation simplifies structurally");
    assert!(proved(&[], hi.concat(lo).eq_(x)));
    // zext/sext agree on non-negative values.
    let small = BV::fresh(8, "s");
    let nonneg = small.slt(BV::lit(8, 0x80));
    assert!(proved(&[nonneg], small.zext(16).eq_(small.sext(16))));
}

#[test]
fn uf_congruence() {
    reset_ctx();
    let f = with_ctx(|c| c.declare_uf("f", vec![8], 8));
    let x = BV::fresh(8, "x");
    let y = BV::fresh(8, "y");
    let fx = BV(crate::build::uf_apply(f, &[x.0]));
    let fy = BV(crate::build::uf_apply(f, &[y.0]));
    // Congruence: x == y → f(x) == f(y).
    assert!(proved(&[x.eq_(y)], fx.eq_(fy)));
    // But f(x) == f(y) is not valid in general.
    assert!(!proved(&[], fx.eq_(fy)));
    // And distinct outputs for distinct inputs are satisfiable.
    match check(&[x.ne_(y), fx.ne_(fy)]) {
        CheckResult::Sat(m) => {
            assert_ne!(m.eval_bv(x.0), m.eval_bv(y.0));
        }
        r => panic!("expected sat, got {r:?}"),
    }
}

#[test]
fn model_evaluates_whole_query() {
    reset_ctx();
    let x = BV::fresh(8, "x");
    let y = BV::fresh(8, "y");
    let constraint = (x * y).eq_(BV::lit(8, 35)) & x.ult(y);
    match check(&[constraint]) {
        CheckResult::Sat(m) => {
            assert!(m.eval_bool(constraint.0), "model must satisfy the query");
            let xv = m.eval_bv(x.0);
            let yv = m.eval_bv(y.0);
            assert_eq!((xv * yv) & 0xff, 35);
            assert!(xv < yv);
        }
        r => panic!("expected sat, got {r:?}"),
    }
}

#[test]
fn conflict_budget_gives_unknown() {
    reset_ctx();
    // A multiplication inversion query that is hard for a tiny budget.
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let goal = (x * y).ne_(BV::lit(32, 0x12345677));
    let cfg = SolverConfig {
        conflict_budget: Some(5),
        ..SolverConfig::default()
    };
    let q = [!goal, x.ugt(BV::lit(32, 1)), y.ugt(BV::lit(32, 1))];
    match check_with(cfg, &q) {
        CheckResult::Unknown => {}
        CheckResult::Sat(_) => {} // a lucky model within budget is fine
        r => panic!("unexpected {r:?}"),
    }
}

#[test]
fn wide_terms_128_bits() {
    reset_ctx();
    let x = BV::fresh(64, "x");
    // zext to 128 and multiply: check (x * 1)<<0 round trips at 128 bits.
    let wide = x.zext(128);
    let sq = wide * BV::lit(128, 2);
    assert!(proved(&[], sq.extract(64, 1).eq_(x)));
}

// ---------------------------------------------------------------------
// Property test: blaster vs. term semantics
// ---------------------------------------------------------------------

/// A tiny stack machine for generating random well-sorted terms of width 8.
fn build_term(opcodes: &[u8], vars: &[BV]) -> BV {
    let mut stack: Vec<BV> = vec![vars[0]];
    for &op in opcodes {
        let a = *stack.last().unwrap();
        let b = if stack.len() >= 2 {
            stack[stack.len() - 2]
        } else {
            vars[1]
        };
        let r = match op % 18 {
            0 => a + b,
            1 => a - b,
            2 => a * b,
            3 => a & b,
            4 => a | b,
            5 => a ^ b,
            6 => !a,
            7 => a.neg(),
            8 => a.shl(b),
            9 => a.lshr(b),
            10 => a.ashr(b),
            11 => a.udiv(b),
            12 => a.urem(b),
            13 => a.ult(b).select(a, b),
            14 => a.slt(b).select(a, b),
            15 => a.eq_(b).select(a + b, a - b),
            16 => a.extract(7, 4).concat(b.extract(3, 0)),
            17 => a.extract(3, 0).zext(8) + b.extract(7, 4).sext(8),
            _ => unreachable!(),
        };
        stack.push(r);
        if stack.len() > 4 {
            stack.remove(0);
        }
    }
    *stack.last().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// For a random term t and random inputs, the bit-blasted circuit and
    /// the direct evaluator must agree: asserting `inputs = model` and
    /// `t != eval(t)` must be UNSAT, and with `t == eval(t)` must be SAT.
    #[test]
    fn blaster_agrees_with_evaluator(
        opcodes in prop::collection::vec(any::<u8>(), 1..24),
        x in any::<u8>(),
        y in any::<u8>(),
        z in any::<u8>(),
    ) {
        reset_ctx();
        let vars = [BV::fresh(8, "x"), BV::fresh(8, "y"), BV::fresh(8, "z")];
        let t = build_term(&opcodes, &vars);
        let mut m = Model::default();
        m.set_bv(vars[0].0, x as u128);
        m.set_bv(vars[1].0, y as u128);
        m.set_bv(vars[2].0, z as u128);
        let expected = m.eval_bv(t.0);
        let pins = [
            vars[0].eq_(BV::lit(8, x as u128)),
            vars[1].eq_(BV::lit(8, y as u128)),
            vars[2].eq_(BV::lit(8, z as u128)),
        ];
        // t must equal the evaluator's answer under the pinned inputs.
        let goal = t.eq_(BV::lit(8, expected));
        prop_assert!(
            verify(&pins, goal).is_proved(),
            "blaster disagrees with evaluator: expected {expected:#x}"
        );
    }
}

// ---------------------------------------------------------------------
// Additional algebraic properties (solver-checked)
// ---------------------------------------------------------------------

#[test]
fn distributivity_and_negation() {
    reset_ctx();
    let x = BV::fresh(8, "x");
    let y = BV::fresh(8, "y");
    let z = BV::fresh(8, "z");
    assert!(proved(&[], (x * (y + z)).eq_(x * y + x * z)));
    assert!(proved(&[], (x.neg()).eq_(!x + BV::lit(8, 1))));
    assert!(proved(&[], (x - y).eq_(x + y.neg())));
}

#[test]
fn shift_composition() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    // (x << 3) << 4 == x << 7.
    let lhs = x.shl(BV::lit(16, 3)).shl(BV::lit(16, 4));
    assert!(proved(&[], lhs.eq_(x.shl(BV::lit(16, 7)))));
    // Arithmetic then logical shift right relation on non-negative values.
    let nonneg = x.slt(BV::lit(16, 0x8000));
    assert!(proved(&[nonneg], x.ashr(BV::lit(16, 5)).eq_(x.lshr(BV::lit(16, 5)))));
}

#[test]
fn extension_properties() {
    reset_ctx();
    let x = BV::fresh(8, "x");
    // zext then trunc is the identity.
    assert!(proved(&[], x.zext(32).trunc(8).eq_(x)));
    // sext preserves signed comparisons.
    let y = BV::fresh(8, "y");
    let narrow = x.slt(y);
    let wide = x.sext(16).slt(y.sext(16));
    assert!(proved(&[], narrow.iff(wide)));
    // zext preserves unsigned comparisons.
    let wide = x.zext(16).ult(y.zext(16));
    assert!(proved(&[], x.ult(y).iff(wide)));
}

#[test]
fn mulh_via_wide_multiply() {
    reset_ctx();
    // The RISC-V mulhu lowering: high half of zext multiply matches a
    // manual decomposition at 8 bits.
    let x = BV::fresh(8, "x");
    let y = BV::fresh(8, "y");
    let wide = x.zext(16) * y.zext(16);
    let hi = wide.extract(15, 8);
    let lo = wide.extract(7, 0);
    assert!(proved(&[], lo.eq_(x * y)));
    // hi:lo reassembles the wide product.
    assert!(proved(&[], hi.concat(lo).eq_(wide)));
}

#[test]
fn urem_bounds_and_step() {
    reset_ctx();
    let a = BV::fresh(8, "a");
    let n = BV::fresh(8, "n");
    let nz = !n.is_zero();
    // (a + n) % n == a % n.
    let wraps = (a + n).urem(n);
    // Careful: a + n can wrap at 8 bits, where the identity fails; guard.
    let no_ovf = a.zext(9) + n.zext(9);
    let fits = no_ovf.ult(BV::lit(9, 256));
    assert!(proved(&[nz, fits], wraps.eq_(a.urem(n))));
}

#[test]
fn ite_distributes_over_ops() {
    reset_ctx();
    let c = SBool::fresh("c");
    let x = BV::fresh(8, "x");
    let y = BV::fresh(8, "y");
    let z = BV::fresh(8, "z");
    // ite(c, x, y) + z == ite(c, x + z, y + z).
    let lhs = c.select(x, y) + z;
    let rhs = c.select(x + z, y + z);
    assert!(proved(&[], lhs.eq_(rhs)));
}

#[test]
fn uf_two_arguments() {
    reset_ctx();
    let f = with_ctx(|c| c.declare_uf("g", vec![8, 8], 8));
    let a = BV::fresh(8, "a");
    let b = BV::fresh(8, "b");
    let ab = BV(crate::build::uf_apply(f, &[a.0, b.0]));
    let ba = BV(crate::build::uf_apply(f, &[b.0, a.0]));
    // Congruence needs both arguments equal.
    assert!(proved(&[a.eq_(b)], ab.eq_(ba)));
    assert!(!proved(&[], ab.eq_(ba)), "uninterpreted g need not be symmetric");
}

#[test]
fn unsat_from_contradictory_assumptions() {
    reset_ctx();
    let x = BV::fresh(8, "x");
    // Contradictory assumptions prove anything (vacuous truth).
    let asm = [x.ult(BV::lit(8, 4)), x.ugt(BV::lit(8, 9))];
    assert!(proved(&asm, x.eq_(BV::lit(8, 0xee))));
}

// ---------------------------------------------------------------------
// Constant-divisor rewrites
// ---------------------------------------------------------------------

#[test]
fn division_by_constant_short_circuits() {
    reset_ctx();
    let a = BV::fresh(8, "a");
    let z = BV::lit(8, 0);
    // SMT-LIB: x div 0 = all-ones, x rem 0 = x.
    assert_eq!(a.udiv(z), BV::lit(8, 0xff));
    assert_eq!(a.urem(z), a);
    assert_eq!(a.udiv(BV::lit(8, 1)), a);
    assert_eq!(a.urem(BV::lit(8, 1)), BV::lit(8, 0));
    // Power-of-two divisors become shifts/masks, never a division circuit.
    assert_eq!(a.udiv(BV::lit(8, 8)), a.lshr(BV::lit(8, 3)));
    assert_eq!(a.urem(BV::lit(8, 8)), a & BV::lit(8, 7));
    assert_eq!(a.udiv(BV::lit(8, 128)), a.lshr(BV::lit(8, 7)));
    assert_eq!(a.urem(BV::lit(8, 2)), a & BV::lit(8, 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For every concrete (x, d) the symbolic `x op d` with a *constant*
    /// divisor — which may take the shift/mask rewrite, the short
    /// circuit, or the full division circuit — must agree with the
    /// constant-folded semantics of the same operation.
    #[test]
    fn prop_const_divisor_matches_concrete_semantics(
        x in any::<u8>(),
        d in any::<u8>(),
        which in any::<u8>(),
    ) {
        reset_ctx();
        let a = BV::fresh(8, "a");
        let db = BV::lit(8, d as u128);
        let xc = BV::lit(8, x as u128);
        let pin = a.eq_(xc);
        // The constant-constant fold is the semantics oracle.
        let (sym, oracle) = match which % 4 {
            0 => (a.udiv(db), xc.udiv(db)),
            1 => (a.urem(db), xc.urem(db)),
            2 => (a.sdiv(db), xc.sdiv(db)),
            _ => (a.srem(db), xc.srem(db)),
        };
        let expected = oracle.as_const().expect("const operands must fold");
        prop_assert!(
            verify(&[pin], sym.eq_(BV::lit(8, expected))).is_proved(),
            "x={x} d={d} op={} expected {expected:#x}",
            which % 4
        );
    }
}

// ---------------------------------------------------------------------
// Incremental discharge sessions
// ---------------------------------------------------------------------

use crate::presolve;
use crate::session::Session;
use crate::solver::CheckOutcome;

fn fresh_check(assumptions: &[SBool], goal: SBool) -> CheckOutcome {
    let mut q: Vec<SBool> = assumptions.to_vec();
    q.push(!goal);
    crate::solver::check_full(SolverConfig::default(), &q, None)
}

#[test]
fn session_basic_stream_of_goals() {
    reset_ctx();
    let x = BV::fresh(8, "x");
    let y = BV::fresh(8, "y");
    let mut s = Session::new(SolverConfig::default(), None);
    s.assume(x.ult(y));
    // Proved goal.
    let out = s.solve_goal(x.ule(y));
    assert!(matches!(out.result, CheckResult::Unsat));
    assert_eq!(out.stats.session_goals, 1);
    assert_eq!(out.stats.reused_vars, 0, "goal 1 pays for the base encoding");
    // Refuted goal, model from the live session.
    let out = s.solve_goal(y.ule(x));
    assert_eq!(out.stats.session_goals, 2);
    assert!(out.stats.reused_vars > 0, "goal 2 reuses the base encoding");
    let CheckResult::Sat(m) = out.result else {
        panic!("expected refutation, got {:?}", out.result);
    };
    assert!(m.eval_bool(x.ult(y).0), "model must satisfy the assumption");
    assert!(!m.eval_bool(y.ule(x).0), "model must refute the goal");
    // A later proved goal is unaffected by the refuted one.
    let out = s.solve_goal(x.ne_(y));
    assert!(matches!(out.result, CheckResult::Unsat));
    assert_eq!(s.goals_discharged(), 3);
}

/// A per-goal budget is rebased on the session's cumulative conflicts;
/// the largest budget a caller may ask for (a wire client may send any
/// `u64`) must saturate there, not overflow, so a later goal is still
/// answered definitively.
#[test]
fn session_max_conflict_budget_saturates_across_goals() {
    reset_ctx();
    let x = BV::fresh(4, "x");
    let y = BV::fresh(4, "y");
    let z = BV::fresh(4, "z");
    let cfg = SolverConfig { conflict_budget: Some(u64::MAX), ..SolverConfig::default() };
    let mut s = Session::new(cfg, None);
    for goal in [(x * (y + z)).eq_(x * y + x * z), ((x & y) + (x | y)).eq_(x + y)] {
        let out = s.solve_goal(goal);
        assert!(matches!(out.result, CheckResult::Unsat), "got {:?}", out.result);
        assert!(out.stats.conflicts > 0, "each goal must need search to test the rebase");
    }
}

#[test]
fn session_retirement_does_not_leak_between_goals() {
    reset_ctx();
    let x = BV::fresh(8, "x");
    let mut s = Session::new(SolverConfig::default(), None);
    s.assume(x.ult(BV::lit(8, 100)));
    // Goal 1: proved.
    assert!(matches!(
        s.solve_goal(x.ult(BV::lit(8, 200))).result,
        CheckResult::Unsat
    ));
    // Goal 2: refuted; its negation pins x == 5 while active.
    assert!(matches!(
        s.solve_goal(x.ne_(BV::lit(8, 5))).result,
        CheckResult::Sat(_)
    ));
    // Goal 3: refuted *only* by x == 6. If retiring goal 2 leaked its
    // negation (x == 5) into the clause set, this would flip to Unsat.
    let out = s.solve_goal(x.ne_(BV::lit(8, 6)));
    let CheckResult::Sat(m) = out.result else {
        panic!("goal 3 must stay refuted after goal 2 retired, got {:?}", out.result);
    };
    assert_eq!(m.eval_bv(x.0), 6, "the only countermodel is x = 6");
    // Goal 4: still proved, with everything retired.
    assert!(matches!(
        s.solve_goal(x.ule(BV::lit(8, 99))).result,
        CheckResult::Unsat
    ));
}

/// Per-goal housekeeping stays amortized. A planned stream of 103
/// goals over one shared base: 34 base terms `c_j = x + K_j`, read by
/// goal terms `t_j = c_j ^ y`, where goal 0 encodes every `t_j` and
/// group `j`'s three goals read `t_j` again. Each `c_j` is mentioned
/// only at goal 0, so it is eliminable from there on, and its stored
/// clauses hold `t_j`'s clauses until group `j` retires and purges
/// them. Every goal's retraction and purge sweep the database.
///
/// Measured (`solver_stats()` at the end of the stream): the parent
/// commit, which compacted after every sweep and reintroduced every
/// eliminated variable whose stored clauses mentioned a purged one,
/// made 207 compactions (2.01 per goal) and reintroduced 1 186
/// variables; now 8 compactions (0.078 per goal) and 0 reintroduced
/// variables. The bounds are twice today's figures (for the
/// reintroductions, that is still none), as
/// `tests/alloc_budget.rs` sets its own: if this trips, a per-goal
/// path went back to compacting on every sweep, or to reintroducing
/// what a purge strands.
#[test]
fn session_housekeeping_stays_amortized() {
    const COMPACTIONS_PER_GOAL: f64 = 0.16;
    reset_ctx();
    let x = BV::fresh(12, "x");
    let y = BV::fresh(12, "y");
    let c: Vec<BV> = (0..34).map(|j| x + BV::lit(12, 37 * j + 5)).collect();
    let t: Vec<BV> = c.iter().map(|&cj| cj ^ y).collect();
    let sum = t[1..].iter().fold(t[0], |acc, &tj| acc + tj);
    let mut goals = vec![sum.ne_(BV::lit(12, 7))];
    for (j, &tj) in t.iter().enumerate() {
        let j = j as u128;
        goals.push(tj.ult(BV::lit(12, 100 + j)));
        goals.push((tj & BV::lit(12, 0xf0)).eq_(BV::lit(12, j << 4)));
        goals.push(tj.ne_(x));
    }
    let cfg = SolverConfig { inprocess: true, session_bve: true, ..SolverConfig::default() };
    let mut s = Session::new(cfg, None);
    for cj in &c {
        s.assume(cj.ne_(BV::lit(12, 0)));
    }
    s.plan_goals(&goals.iter().map(|&g| !g).collect::<Vec<_>>());
    for &g in &goals {
        let out = s.solve_goal(g);
        assert!(matches!(out.result, CheckResult::Unsat | CheckResult::Sat(_)));
    }
    let (st, n) = (s.solver_stats(), goals.len());
    let per_goal = st.compactions as f64 / n as f64;
    assert!(per_goal <= COMPACTIONS_PER_GOAL, "{} compactions over {n} goals", st.compactions);
    assert_eq!(st.reintroduced_vars, 0, "twice today's 0 is still 0");
}

/// Plan-driven purging with a shared divider circuit: `x udiv y` and
/// `x urem y` (non-constant divisor) share one restoring-divider
/// encoding, so retiring the udiv goal must *defer* until the urem
/// goal expires — purging the shared circuit early would leave the
/// later goal underconstrained and flip its verdict.
#[test]
fn session_purging_defers_coupled_divrem_circuits() {
    reset_ctx();
    let x = BV::fresh(8, "x");
    let y = BV::fresh(8, "y");
    let q = x.udiv(y);
    let r = x.urem(y);
    let assumptions = vec![
        x.eq_(BV::lit(8, 23)),
        y.eq_(BV::lit(8, 5)),
        BV::fresh(8, "pad").ult(BV::lit(8, 7)),
    ];
    let goals = vec![
        q.eq_(BV::lit(8, 4)),  // uses the divider; proved
        r.eq_(BV::lit(8, 3)),  // reuses the same circuit; proved
        r.eq_(BV::lit(8, 2)),  // refuted: needs the circuit still live
        x.ult(BV::lit(8, 200)), // divider fully expired by now
    ];
    let mut s = Session::new(SolverConfig::default(), None);
    for &a in &assumptions {
        s.assume(a);
    }
    let neg: Vec<SBool> = goals.iter().map(|&g| !g).collect();
    s.plan_goals(&neg);
    for (i, &g) in goals.iter().enumerate() {
        let out = s.solve_goal(g);
        let fresh = fresh_check(&assumptions, g);
        match (&out.result, &fresh.result) {
            (CheckResult::Unsat, CheckResult::Unsat) => {}
            (CheckResult::Sat(m), CheckResult::Sat(_)) => {
                assert!(!m.eval_bool(g.0), "goal {i}: model must refute the goal");
                for &a in &assumptions {
                    assert!(m.eval_bool(a.0), "goal {i}: model violates an assumption");
                }
            }
            (sv, fv) => panic!("goal {i}: session {sv:?} vs fresh {fv:?}"),
        }
    }
}

/// A goal that deviates from the announced plan discards the plan
/// (purging stops) but must still be answered correctly, as must every
/// goal after it.
#[test]
fn session_off_plan_goal_disables_purging_but_stays_sound() {
    reset_ctx();
    let x = BV::fresh(8, "x");
    let mut s = Session::new(SolverConfig::default(), None);
    s.assume(x.ult(BV::lit(8, 50)));
    let planned = vec![x.ult(BV::lit(8, 60)), x.ult(BV::lit(8, 70))];
    let neg: Vec<SBool> = planned.iter().map(|&g| !g).collect();
    s.plan_goals(&neg);
    // First goal on-plan: proved (and goal-1-only terms purged).
    assert!(matches!(
        s.solve_goal(planned[0]).result,
        CheckResult::Unsat
    ));
    // Off-plan goal: refuted, with a model.
    let out = s.solve_goal(x.ne_(BV::lit(8, 9)));
    let CheckResult::Sat(m) = out.result else {
        panic!("off-plan goal must be refuted");
    };
    assert_eq!(m.eval_bv(x.0), 9);
    // The originally planned second goal still answers correctly.
    assert!(matches!(
        s.solve_goal(planned[1]).result,
        CheckResult::Unsat
    ));
}

#[test]
fn session_with_unsat_base_proves_everything() {
    reset_ctx();
    let x = BV::fresh(8, "x");
    let mut s = Session::new(SolverConfig::default(), None);
    s.assume(x.ult(BV::lit(8, 4)));
    s.assume(x.ugt(BV::lit(8, 9)));
    // Vacuous truth, exactly like the fresh path.
    assert!(matches!(s.solve_goal(x.eq_(BV::lit(8, 77))).result, CheckResult::Unsat));
    assert!(matches!(s.solve_goal(x.ne_(x)).result, CheckResult::Unsat));
}

#[test]
fn session_handles_uninterpreted_functions() {
    reset_ctx();
    let f = with_ctx(|c| c.declare_uf("f", vec![8], 8));
    let x = BV::fresh(8, "x");
    let y = BV::fresh(8, "y");
    let fx = BV(crate::build::uf_apply(f, &[x.0]));
    let fy = BV(crate::build::uf_apply(f, &[y.0]));
    let mut s = Session::new(SolverConfig::default(), None);
    s.assume(x.eq_(y));
    // Congruence must hold even though the second application is only
    // blasted (and its Ackermann pairs only emitted) at goal time.
    assert!(matches!(s.solve_goal(fx.eq_(fy)).result, CheckResult::Unsat));
    // And a fresh application introduced by a later goal still gets its
    // congruence constraints against the existing ones.
    let z = BV::fresh(8, "z");
    let fz = BV(crate::build::uf_apply(f, &[z.0]));
    let out = s.solve_goal(z.eq_(x).implies(fz.eq_(fx)));
    assert!(matches!(out.result, CheckResult::Unsat));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Session discharge must return exactly the fresh-solver verdict
    /// for every goal in a random batch sharing a random assumption
    /// set; refuted-goal countermodels from the live session must
    /// re-evaluate (via the term semantics) to: all assumptions true,
    /// goal false.
    #[test]
    fn prop_session_verdicts_match_fresh_solvers(
        asm_ops in prop::collection::vec(any::<u8>(), 1..8),
        goal_ops in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..12), 1..5),
        bound in any::<u8>(),
        flip in any::<u8>(),
    ) {
        reset_ctx();
        let vars = [BV::fresh(8, "x"), BV::fresh(8, "y"), BV::fresh(8, "z")];
        // A random (often satisfiable, sometimes not) assumption set.
        let t = build_term(&asm_ops, &vars);
        let assumptions = vec![
            t.ule(BV::lit(8, (bound as u128).max(1))),
            vars[0].ult(BV::lit(8, 0xc0)),
        ];
        let goals: Vec<SBool> = goal_ops
            .iter()
            .enumerate()
            .map(|(i, ops)| {
                let lhs = build_term(ops, &vars);
                let rhs = build_term(&[ops[0].wrapping_add(i as u8).wrapping_add(1)], &vars);
                if (flip.wrapping_add(i as u8)) % 2 == 0 {
                    lhs.eq_(rhs)
                } else {
                    lhs.ule(rhs)
                }
            })
            .collect();

        // Both ways the engine feeds a session: the query as given, and
        // presolved caller-side — the base once, each goal rewritten
        // against it, and the variables presolve eliminated put back
        // into a countermodel. A session blasts what it is handed.
        for presolved in [false, true] {
            let base = presolved.then(|| presolve::presolve_base(&assumptions));
            let mut rewrites = presolve::GoalCache::default();
            let mut session = Session::new(SolverConfig::default(), None);
            for &a in base.as_ref().map_or(&assumptions, |b| &b.roots) {
                session.assume(a);
            }
            // Announce the stream so the property also exercises goal
            // retirement (plan-driven purging), exactly as the engine does.
            let neg: Vec<SBool> = goals
                .iter()
                .map(|&g| match &base {
                    Some(b) => !presolve::simplify_goal_cached(b, g, &mut rewrites),
                    None => !g,
                })
                .collect();
            session.plan_goals(&neg);
            for (i, (&g, &ng)) in goals.iter().zip(&neg).enumerate() {
                let mut out = session.solve_negated(ng);
                if let (CheckResult::Sat(m), Some(b)) = (&mut out.result, &base) {
                    presolve::complete_model(m, &b.bindings);
                }
                prop_assert_eq!(out.stats.session_goals, i as u64 + 1);
                let fresh = fresh_check(&assumptions, g);
                match (&out.result, &fresh.result) {
                    (CheckResult::Unsat, CheckResult::Unsat) => {}
                    (CheckResult::Sat(m), CheckResult::Sat(_)) => {
                        for &a in &assumptions {
                            prop_assert!(
                                m.eval_bool(a.0),
                                "goal {}: session model violates an assumption", i
                            );
                        }
                        prop_assert!(
                            !m.eval_bool(g.0),
                            "goal {}: session model does not refute the goal", i
                        );
                    }
                    (s, f) => {
                        prop_assert!(
                            false,
                            "goal {} (presolved: {}): session {:?} vs fresh {:?}",
                            i, presolved, s, f
                        );
                    }
                }
            }
        }
    }
}

/// A deterministic purge → retract → re-mention stream with plan-scoped
/// elimination forced on. The plan announces only the first two goals,
/// so after goal 2 the session purges goal-local structure and may
/// eliminate any variable the plan says is never mentioned again; the
/// off-plan repeats and strengthened variants that follow re-mention
/// exactly that retired structure, forcing the reintroduction path.
/// Verdicts must match fresh solvers throughout.
#[test]
fn session_elimination_remention_after_purge_stays_sound() {
    reset_ctx();
    let x = BV::fresh(8, "x");
    let y = BV::fresh(8, "y");
    let assumptions = vec![x.ult(BV::lit(8, 50)), y.ult(BV::lit(8, 50))];
    let planned = vec![
        (x * y).ult(BV::lit(8, 0xff)).implies(x.ult(BV::lit(8, 60))), // proved
        (x + y).ult(BV::lit(8, 100)),                                 // proved
    ];
    let cfg = SolverConfig { inprocess: true, session_bve: true, ..SolverConfig::default() };
    let mut s = Session::new(cfg, None);
    for &a in &assumptions {
        s.assume(a);
    }
    let neg: Vec<SBool> = planned.iter().map(|&g| !g).collect();
    s.plan_goals(&neg);
    for &g in &planned {
        assert!(matches!(s.solve_goal(g).result, CheckResult::Unsat));
    }
    // Off-plan re-mention: repeat goal 0 verbatim (its multiplier
    // circuit retired with the plan), then a strengthened variant of
    // goal 1 that is refutable, then goal 0 once more.
    let out = s.solve_goal(planned[0]);
    assert!(matches!(out.result, CheckResult::Unsat), "re-mentioned goal 0 must stay proved");
    let strengthened = (x + y).ult(BV::lit(8, 40));
    let out = s.solve_goal(strengthened);
    let CheckResult::Sat(m) = out.result else {
        panic!("strengthened goal must be refuted, got {:?}", out.result);
    };
    for &a in &assumptions {
        assert!(m.eval_bool(a.0), "countermodel violates an assumption");
    }
    assert!(!m.eval_bool(strengthened.0), "countermodel does not refute the goal");
    assert!(matches!(s.solve_goal(planned[0]).result, CheckResult::Unsat));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Retraction safety for plan-scoped elimination: a session stream
    /// that purges retired goals and then *re-mentions* them — verbatim
    /// repeats and strengthened conjunction variants arriving off-plan,
    /// after the plan said their terms would never be mentioned again —
    /// must match fresh solvers verdict for verdict. Elimination may
    /// only rip out structure that `add_clause` reintroduction can
    /// transparently restore.
    #[test]
    fn prop_session_elimination_matches_fresh_on_remention_streams(
        asm_ops in prop::collection::vec(any::<u8>(), 1..8),
        goal_ops in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..12), 2..5),
        bound in any::<u8>(),
        flip in any::<u8>(),
    ) {
        reset_ctx();
        let vars = [BV::fresh(8, "x"), BV::fresh(8, "y"), BV::fresh(8, "z")];
        let t = build_term(&asm_ops, &vars);
        let assumptions = vec![
            t.ule(BV::lit(8, (bound as u128).max(1))),
            vars[0].ult(BV::lit(8, 0xc0)),
        ];
        let planned: Vec<SBool> = goal_ops
            .iter()
            .enumerate()
            .map(|(i, ops)| {
                let lhs = build_term(ops, &vars);
                let rhs = build_term(&[ops[0].wrapping_add(i as u8).wrapping_add(1)], &vars);
                if (flip.wrapping_add(i as u8)) % 2 == 0 {
                    lhs.eq_(rhs)
                } else {
                    lhs.ule(rhs)
                }
            })
            .collect();
        // The stream the session actually sees: the announced goals in
        // order, then off-plan re-mentions of the first two — one
        // verbatim retract/re-assert, one strengthened (conjoined with
        // a fresh bound on a shared variable).
        let strengthened = SBool(crate::build::and(
            planned[1].0,
            vars[1].ule(BV::lit(8, (bound as u128) | 1)).0,
        ));
        let mut stream: Vec<SBool> = planned.clone();
        stream.push(planned[0]);
        stream.push(strengthened);
        stream.push(planned[1]);

        let cfg = SolverConfig { inprocess: true, session_bve: true, ..SolverConfig::default() };
        let mut session = Session::new(cfg, None);
        for &a in &assumptions {
            session.assume(a);
        }
        let neg: Vec<SBool> = planned.iter().map(|&g| !g).collect();
        session.plan_goals(&neg);
        for (i, &g) in stream.iter().enumerate() {
            let out = session.solve_goal(g);
            prop_assert_eq!(out.stats.session_goals, i as u64 + 1);
            let fresh = fresh_check(&assumptions, g);
            match (&out.result, &fresh.result) {
                (CheckResult::Unsat, CheckResult::Unsat) => {}
                (CheckResult::Sat(m), CheckResult::Sat(_)) => {
                    for &a in &assumptions {
                        prop_assert!(
                            m.eval_bool(a.0),
                            "goal {}: session model violates an assumption", i
                        );
                    }
                    prop_assert!(
                        !m.eval_bool(g.0),
                        "goal {}: session model does not refute the goal", i
                    );
                }
                (s, f) => {
                    prop_assert!(false, "goal {}: session {:?} vs fresh {:?}", i, s, f);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Builder identities agree with the concrete operator semantics on
    /// every pinned input: `x ^ x`, `x & x`, `x | x`, `~~x`, and
    /// oversized shift amounts. Each property pins a symbolic variable
    /// to a concrete value and proves the built term equal to the value
    /// computed by [`crate::semantics`] — so a rewrite that fires in the
    /// builder is checked against the semantics it claims to preserve.
    #[test]
    fn prop_xor_self_matches_semantics(x in any::<u8>()) {
        use crate::semantics;
        use crate::term::Op;
        reset_ctx();
        let a = BV::fresh(8, "a");
        let pin = a.eq_(BV::lit(8, x as u128));
        let want = semantics::binop_const(&Op::BvXor, 8, x as u128, x as u128);
        prop_assert!(proved(&[pin], (a ^ a).eq_(BV::lit(8, want))));
    }

    #[test]
    fn prop_and_self_matches_semantics(x in any::<u8>()) {
        use crate::semantics;
        use crate::term::Op;
        reset_ctx();
        let a = BV::fresh(8, "a");
        let pin = a.eq_(BV::lit(8, x as u128));
        let want = semantics::binop_const(&Op::BvAnd, 8, x as u128, x as u128);
        prop_assert!(proved(&[pin], (a & a).eq_(BV::lit(8, want))));
    }

    #[test]
    fn prop_or_self_matches_semantics(x in any::<u8>()) {
        use crate::semantics;
        use crate::term::Op;
        reset_ctx();
        let a = BV::fresh(8, "a");
        let pin = a.eq_(BV::lit(8, x as u128));
        let want = semantics::binop_const(&Op::BvOr, 8, x as u128, x as u128);
        prop_assert!(proved(&[pin], (a | a).eq_(BV::lit(8, want))));
    }

    #[test]
    fn prop_double_negation_matches_semantics(x in any::<u8>()) {
        use crate::semantics;
        use crate::term::Op;
        reset_ctx();
        let a = BV::fresh(8, "a");
        let pin = a.eq_(BV::lit(8, x as u128));
        let inner = semantics::unop_const(&Op::BvNot, 8, x as u128);
        let want = semantics::unop_const(&Op::BvNot, 8, inner);
        prop_assert!(proved(&[pin], (!!a).eq_(BV::lit(8, want))));
    }

    /// Shift amounts at or beyond the width fold in the builder; the
    /// result must match the semantics' oversized-shift convention
    /// (zero for logical shifts, sign fill for arithmetic).
    #[test]
    fn prop_oversized_shift_matches_semantics(x in any::<u8>(), k in 8u32..=255, which in 0u8..3) {
        use crate::semantics;
        use crate::term::Op;
        reset_ctx();
        let a = BV::fresh(8, "a");
        let pin = a.eq_(BV::lit(8, x as u128));
        let amt = BV::lit(8, k as u128);
        let (sym, op) = match which {
            0 => (a.shl(amt), Op::BvShl),
            1 => (a.lshr(amt), Op::BvLshr),
            _ => (a.ashr(amt), Op::BvAshr),
        };
        let want = semantics::binop_const(&op, 8, x as u128, k as u128);
        prop_assert!(
            proved(&[pin], sym.eq_(BV::lit(8, want))),
            "x={x} k={k} op={op:?} want={want:#x}"
        );
    }
}

// ---------------------------------------------------------------------
// Word-level presolve, one rule at a time
// ---------------------------------------------------------------------

/// Presolves `goal` under `assumptions` the way the engine does: the
/// base once, then the goal against it.
fn presolved(assumptions: &[SBool], goal: SBool) -> (presolve::BaseSimp, SBool) {
    let base = presolve::presolve_base(assumptions);
    let goal = presolve::simplify_goal_cached(&base, goal, &mut presolve::GoalCache::default());
    (base, goal)
}

/// One hand-built input per presolve rule that fires on the benchmark's
/// workloads, each rewritten by that rule: to the expected term where
/// one is given (the size guard's row is a split that would have grown,
/// so it comes back unchanged), else to anything new. Every rewrite is
/// an equivalence under the original base plus the narrowing bindings,
/// so each rule is checked once here rather than per instance.
#[test]
fn every_presolve_rule_fires_and_is_an_equivalence() {
    reset_ctx();
    let x = BV::fresh(32, "x");
    let y = BV::fresh(16, "y");
    let b = BV::fresh(8, "b");
    let (c1, c2) = (SBool::fresh("c1"), SBool::fresh("c2"));
    let k = BV::lit;
    let yes = Some(SBool::lit(true));
    let small = vec![x.ult(k(32, 16))];
    let guarded = c1.select(b, k(8, 1)).eq_(c2.select(b, k(8, 2)));
    let rows: [(&str, Vec<SBool>, SBool, Option<SBool>); 9] = [
        ("narrowing", small.clone(), x.ule(y.zext(32)), None),
        ("ult decided from ranges", small.clone(), (x + k(32, 3)).ult(k(32, 20)), yes),
        ("interior fact", vec![x.ult(y.zext(32))], b.is_zero().implies(x.ult(y.zext(32))), yes),
        (
            "single-valued term",
            vec![],
            (y.shl(k(16, 8)) & k(16, 0xff)).eq_(b.zext(16)),
            Some(b.eq_(k(8, 0))),
        ),
        (
            "split on two ite conditions",
            vec![],
            c1.select(k(8, 5), k(8, 7)).eq_(c2.select(k(8, 5), k(8, 7))),
            None,
        ),
        (
            "one-sided ite split",
            vec![],
            c1.select(c2.select(k(8, 3), k(8, 4)), k(8, 5)).eq_(k(8, 5)),
            None,
        ),
        ("zext(x) = k", vec![], b.zext(16).eq_(k(16, 7)), Some(b.eq_(k(8, 7)))),
        ("size guard", vec![], guarded, Some(guarded)),
        ("zext(x) < k", vec![], b.zext(16).ult(k(16, 100)), Some(b.ult(k(8, 100)))),
    ];
    let all = |roots: &[SBool]| roots.iter().fold(SBool::lit(true), |a, &r| a & r);
    for (name, asms, goal, want) in rows {
        assert!(goal.as_const().is_none(), "{name}: the builder alone already folds the input");
        let (base, simplified) = presolved(&asms, goal);
        match want {
            Some(want) => assert_eq!(simplified, want, "{name}"),
            None => assert!(
                simplified != goal || base.roots != asms || !base.bindings.is_empty(),
                "{name}: nothing was rewritten"
            ),
        }
        let bound: Vec<SBool> = asms
            .iter()
            .copied()
            .chain(base.bindings.iter().map(|&(v, d)| BV(v).eq_(BV(d))))
            .collect();
        assert!(proved(&bound, goal.iff(simplified)), "{name}: the goal rewrite is not an equivalence");
        assert!(proved(&bound, all(&asms).iff(all(&base.roots))), "{name}: the base rewrite is not an equivalence");
    }

    // A countermodel of the narrowed query completes onto the original
    // terms: the narrowed variable is re-derived from its binding.
    let goal = x.ult(k(32, 8));
    let (base, simplified) = presolved(&small, goal);
    assert_eq!(base.bindings.len(), 1, "x is narrowed to four bits");
    let mut query = base.roots.clone();
    query.push(!simplified);
    let CheckResult::Sat(mut m) = check(&query) else { panic!("x in [8, 15] refutes x < 8") };
    presolve::complete_model(&mut m, &base.bindings);
    assert!(m.eval_bool(small[0].0) && !m.eval_bool(goal.0), "x = {}", m.eval_bv(x.0));
}

/// Narrowing creates its fresh variables in root order, so a base that
/// bounds several variables presolves to the same terms in every run
/// (fresh variables are ordered by id wherever children are sorted).
#[test]
fn narrowing_creates_fresh_variables_in_root_order() {
    let run = || {
        reset_ctx();
        let v: Vec<BV> = (0..8).map(|i| BV::fresh(32, &format!("v{i}"))).collect();
        let asms: Vec<SBool> = v.iter().map(|x| x.ult(BV::lit(32, 5))).collect();
        let (base, goal) = presolved(&asms, (v[0] + v[1]).ult(v[2] + v[3]));
        let narrowed: Vec<crate::TermId> = base.bindings.iter().map(|b| b.0).collect();
        assert_eq!(narrowed, v.iter().map(|x| x.0).collect::<Vec<_>>());
        (base.bindings, base.roots, goal)
    };
    let first = run();
    for _ in 1..8 {
        assert_eq!(run(), first, "the same base presolves to the same terms");
    }
}

// ---------------------------------------------------------------------
// The term store is a drop-in for a map from node to id
// ---------------------------------------------------------------------

type Node = (Op, Vec<TermId>, Sort);

/// What the term store must behave as: a map from node to id, ids handed
/// out in order from 0 after every reset, and variable names
/// `"{name}#{ordinal}"`.
#[derive(Default)]
struct RefStore {
    ids: HashMap<Node, TermId>,
    nodes: Vec<Node>,
    names: Vec<String>,
}

impl RefStore {
    /// The id the store must return for a raw intern of `node`.
    fn intern(&mut self, node: Node) -> TermId {
        let next = TermId(self.nodes.len() as u32);
        *self.ids.entry(node.clone()).or_insert_with(|| {
            self.nodes.push(node);
            next
        })
    }

    /// Takes in the nodes a smart constructor built, checking that each
    /// is new: a node interned twice means the store failed to share it.
    fn sync(&mut self) {
        with_ctx(|c| {
            for i in self.nodes.len()..c.num_terms() {
                let t = c.term(TermId(i as u32));
                let node = (t.op.clone(), t.children.to_vec(), t.sort);
                assert!(
                    self.ids.insert(node.clone(), TermId(i as u32)).is_none(),
                    "{node:?} interned twice"
                );
                self.nodes.push(node);
            }
        });
    }

    /// Every id's node and every variable's name agree with the store.
    fn check(&self) {
        with_ctx(|c| {
            assert_eq!(c.num_terms(), self.nodes.len());
            for (i, (op, children, sort)) in self.nodes.iter().enumerate() {
                let t = c.term(TermId(i as u32));
                assert_eq!(
                    (&t.op, &t.children[..], t.sort),
                    (op, &children[..], *sort),
                    "term {i}"
                );
            }
            for (v, name) in self.names.iter().enumerate() {
                assert_eq!(&c.var_name(v as u32), name, "var {v}");
            }
        });
    }
}

fn pick<T: Copy>(pool: &[T], i: u64) -> T {
    pool[i as usize % pool.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random smart-constructor calls, raw interns (spilled `And`s and
    /// 4-argument UF applications, 128-bit constants that differ only
    /// above bit 64, `Extract`s) and resets, against [`RefStore`].
    #[test]
    fn prop_term_store_matches_a_reference_map(
        steps in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..160),
    ) {
        reset_ctx();
        let mut r = RefStore::default();
        let mut bvs: Vec<BV> = Vec::new();
        let mut bools: Vec<SBool> = Vec::new();
        let mut uf4: Option<UfId> = None;
        let fresh = |r: &mut RefStore, bvs: &mut Vec<BV>, name: &str| {
            let ord = r.names.len() as u32;
            let v = BV::fresh(8, name);
            r.names.push(format!("{name}#{ord}"));
            r.sync();
            assert_eq!(with_ctx(|c| c.term(v.0).op.clone()), Op::Var(ord));
            bvs.push(v);
        };
        for (kind, a, b) in steps {
            if bvs.is_empty() {
                fresh(&mut r, &mut bvs, "x");
                assert_eq!(bvs[0].0, TermId(0), "a reset store numbers from 0");
                bools.push(bvs[0].ult(BV::lit(8, 9)));
                r.sync();
            }
            let any = |r: &RefStore, i: u64| TermId((i % r.nodes.len() as u64) as u32);
            let raw = |r: &mut RefStore, op: Op, children: Vec<TermId>, sort: Sort| {
                let got = with_ctx(|c| c.intern(op.clone(), &children, sort));
                assert_eq!(got, r.intern((op, children, sort)));
            };
            match kind % 12 {
                0 => fresh(&mut r, &mut bvs, ["x", "reg.a0", "", "mem#1"][a as usize % 4]),
                1 => bvs.push(BV::lit(8, a as u128)),
                2 => bvs.push(pick(&bvs, a) + pick(&bvs, b)),
                3 => {
                    let (x, y) = (pick(&bvs, a), pick(&bvs, b));
                    bvs.push(if a % 2 == 0 { x & y } else { x ^ y });
                }
                4 => {
                    let (x, y) = (pick(&bvs, a), pick(&bvs, b));
                    bools.push(if b % 2 == 0 { x.eq_(y) } else { x.ult(y) });
                }
                5 => {
                    let (p, q) = (pick(&bools, a), pick(&bools, b));
                    bools.push(match b % 3 { 0 => p & q, 1 => p | q, _ => !p });
                }
                6 => bvs.push(pick(&bools, a).select(pick(&bvs, a), pick(&bvs, b))),
                7 => {
                    // Equal low 64 bits, and at width 8 the sort alone
                    // tells a constant from its 128-bit twin.
                    let (low, high) = (u128::from(a % 4), u128::from(b % 8));
                    let (v, w) = if a % 3 == 0 { (low, 8) } else { (high << 64 | low, 128) };
                    raw(&mut r, Op::BvConst(v), vec![], Sort::BitVec(w));
                }
                8 => {
                    let (x, bounds) = (any(&r, a), Op::Extract((b % 16) as u32, (b / 16 % 16) as u32));
                    raw(&mut r, bounds, vec![x], Sort::BitVec(1 + (a % 2) as u32));
                }
                9 => {
                    let n = 4 + (b % 5);
                    let kids = (0..n).map(|i| any(&r, a.wrapping_add(i.wrapping_mul(b)))).collect();
                    raw(&mut r, Op::And, kids, Sort::Bool);
                }
                10 => {
                    let g = *uf4.get_or_insert_with(|| with_ctx(|c| c.declare_uf("g", vec![8; 4], 8)));
                    let kids = (0..4u64).map(|i| any(&r, a.wrapping_add(i.wrapping_mul(b)))).collect();
                    raw(&mut r, Op::UfApply(g), kids, Sort::BitVec(8));
                }
                _ if b % 4 == 0 => {
                    r.check();
                    reset_ctx();
                    r = RefStore::default();
                    bvs.clear();
                    bools.clear();
                    uf4 = None;
                    continue;
                }
                _ => {
                    let kids = vec![any(&r, a), any(&r, b)];
                    raw(&mut r, Op::BvAdd, kids, Sort::BitVec(8));
                }
            }
            r.sync();
        }
        r.check();
    }
}

/// Keys built to collide under a weak hash — 2^18 128-bit constants equal
/// in their low 64 bits, and 2^18 `Extract`s of one variable that differ
/// only in their bounds — still find their slot in a short probe.
#[test]
fn shaped_inputs_keep_probes_short() {
    reset_ctx();
    let x = BV::fresh(64, "x");
    with_ctx(|c| {
        for i in 0..1u128 << 18 {
            c.intern(Op::BvConst(i << 64 | 0x5eed), &[], Sort::BitVec(128));
        }
        for i in 0..1u32 << 18 {
            c.intern(Op::Extract(i >> 9, i & 511), &[x.0], Sort::BitVec(1));
        }
        assert_eq!(c.num_terms(), 1 + (1 << 19));
        let longest = c.max_probe();
        println!("term store: longest probe {longest} over {} terms", c.num_terms());
        assert!(longest <= 64, "longest probe {longest}");
    });
    reset_ctx();
}
