//! Unit and property tests for the CDCL solver.
//!
//! The property tests cross-check the solver against a brute-force
//! enumeration on random small formulas, covering both satisfiable and
//! unsatisfiable instances, with and without assumptions.

use crate::{Lit, SolveResult, Solver, Var};
use serval_check::prelude::*;

fn lits(s: &mut Solver, n: usize) -> Vec<Var> {
    (0..n).map(|_| s.new_var()).collect()
}

#[test]
fn empty_formula_is_sat() {
    let mut s = Solver::new();
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn unit_clauses() {
    let mut s = Solver::new();
    let v = lits(&mut s, 2);
    assert!(s.add_clause(&[Lit::pos(v[0])]));
    assert!(s.add_clause(&[Lit::neg(v[1])]));
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.value(v[0]), Some(true));
    assert_eq!(s.value(v[1]), Some(false));
}

#[test]
fn contradictory_units_unsat() {
    let mut s = Solver::new();
    let v = s.new_var();
    assert!(s.add_clause(&[Lit::pos(v)]));
    assert!(!s.add_clause(&[Lit::neg(v)]));
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn empty_clause_unsat() {
    let mut s = Solver::new();
    s.new_var();
    assert!(!s.add_clause(&[]));
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn tautology_is_dropped() {
    let mut s = Solver::new();
    let v = s.new_var();
    assert!(s.add_clause(&[Lit::pos(v), Lit::neg(v)]));
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn implication_chain_propagates() {
    // x0 & (x0 -> x1) & (x1 -> x2) ... forces all true.
    let mut s = Solver::new();
    let v = lits(&mut s, 20);
    s.add_clause(&[Lit::pos(v[0])]);
    for i in 0..19 {
        s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1])]);
    }
    assert_eq!(s.solve(), SolveResult::Sat);
    for &x in &v {
        assert_eq!(s.value(x), Some(true));
    }
}

#[test]
fn pigeonhole_3_into_2_unsat() {
    // PHP(3,2): 3 pigeons, 2 holes. Classic small UNSAT instance that
    // requires real conflict analysis.
    let mut s = Solver::new();
    // p[i][j]: pigeon i in hole j.
    let p: Vec<Vec<Var>> = (0..3).map(|_| lits(&mut s, 2)).collect();
    for row in &p {
        s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
    }
    for j in 0..2 {
        for i1 in 0..3 {
            for i2 in (i1 + 1)..3 {
                s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
            }
        }
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn pigeonhole_5_into_4_unsat() {
    let mut s = Solver::new();
    let n = 5;
    let m = 4;
    let p: Vec<Vec<Var>> = (0..n).map(|_| lits(&mut s, m)).collect();
    for row in &p {
        let c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
        s.add_clause(&c);
    }
    for j in 0..m {
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
            }
        }
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert!(s.stats().conflicts > 0);
}

#[test]
fn assumptions_flip_result() {
    let mut s = Solver::new();
    let v = lits(&mut s, 2);
    s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
    assert_eq!(s.solve_assuming(&[Lit::neg(v[0])]), SolveResult::Sat);
    assert_eq!(s.value(v[1]), Some(true));
    assert_eq!(
        s.solve_assuming(&[Lit::neg(v[0]), Lit::neg(v[1])]),
        SolveResult::Unsat
    );
    // The formula itself is still satisfiable afterwards.
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn unsat_core_is_subset_of_assumptions() {
    let mut s = Solver::new();
    let v = lits(&mut s, 4);
    // v0 -> v1, v1 -> v2.
    s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1])]);
    s.add_clause(&[Lit::neg(v[1]), Lit::pos(v[2])]);
    let asms = [Lit::pos(v[0]), Lit::pos(v[3]), Lit::neg(v[2])];
    assert_eq!(s.solve_assuming(&asms), SolveResult::Unsat);
    let core = s.unsat_core().to_vec();
    assert!(!core.is_empty());
    for l in &core {
        assert!(asms.contains(l), "core literal {:?} not an assumption", l);
    }
    // v3 is irrelevant and should not appear in the core.
    assert!(!core.contains(&Lit::pos(v[3])));
}

#[test]
fn incremental_add_after_solve() {
    let mut s = Solver::new();
    let v = lits(&mut s, 3);
    s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
    assert_eq!(s.solve(), SolveResult::Sat);
    s.add_clause(&[Lit::neg(v[0])]);
    s.add_clause(&[Lit::neg(v[1])]);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn conflict_budget_returns_unknown() {
    // A hard instance (PHP 7 into 6) with a tiny budget must give up.
    let mut s = Solver::new();
    let n = 7;
    let m = 6;
    let p: Vec<Vec<Var>> = (0..n).map(|_| lits(&mut s, m)).collect();
    for row in &p {
        let c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
        s.add_clause(&c);
    }
    for j in 0..m {
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
            }
        }
    }
    s.set_conflict_budget(Some(10));
    assert_eq!(s.solve(), SolveResult::Unknown);
    s.set_conflict_budget(None);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

/// Pigeonhole principle `n` into `m` (unsat when n > m).
fn php(s: &mut Solver, n: usize, m: usize) {
    let p: Vec<Vec<Var>> = (0..n).map(|_| lits(s, m)).collect();
    for row in &p {
        let c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
        s.add_clause(&c);
    }
    for j in 0..m {
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
            }
        }
    }
}

#[test]
fn interrupt_flag_stops_search() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let mut s = Solver::new();
    php(&mut s, 8, 7);
    let flag = Arc::new(AtomicBool::new(true));
    s.set_interrupt(Some(flag.clone()));
    // Flag already set: the restart-boundary poll fires before any search.
    assert_eq!(s.solve(), SolveResult::Interrupted);
    // Clearing the flag makes the solver usable again.
    flag.store(false, Ordering::Relaxed);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn tuned_parameters_preserve_verdicts() {
    // Non-default restart/decay/phase settings change the search order
    // but never the answer.
    let mut s = Solver::new();
    s.set_restart_base(32);
    s.set_var_decay(0.90);
    s.set_default_phase(true);
    php(&mut s, 7, 6);
    assert_eq!(s.solve(), SolveResult::Unsat);

    let mut s2 = Solver::new();
    s2.set_default_phase(true);
    let v = lits(&mut s2, 2);
    s2.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1])]);
    assert_eq!(s2.solve(), SolveResult::Sat);
}

#[test]
fn xor_chain_sat() {
    // CNF encoding of x0 ^ x1 ^ ... ^ x9 = 1 via intermediate variables.
    let mut s = Solver::new();
    let x = lits(&mut s, 10);
    let mut acc = x[0];
    for &xi in &x[1..] {
        let out = s.new_var();
        // out = acc ^ xi.
        s.add_clause(&[Lit::neg(out), Lit::pos(acc), Lit::pos(xi)]);
        s.add_clause(&[Lit::neg(out), Lit::neg(acc), Lit::neg(xi)]);
        s.add_clause(&[Lit::pos(out), Lit::neg(acc), Lit::pos(xi)]);
        s.add_clause(&[Lit::pos(out), Lit::pos(acc), Lit::neg(xi)]);
        acc = out;
    }
    s.add_clause(&[Lit::pos(acc)]);
    assert_eq!(s.solve(), SolveResult::Sat);
    let parity = x
        .iter()
        .fold(false, |p, &v| p ^ s.value(v).unwrap());
    assert!(parity, "model must satisfy odd parity");
}

// ---------------------------------------------------------------------
// Property tests vs. brute force
// ---------------------------------------------------------------------

/// Brute-force satisfiability of a CNF over `n` variables (n <= 16).
fn brute_force_sat(n: usize, cnf: &[Vec<(usize, bool)>]) -> bool {
    'outer: for m in 0u32..(1 << n) {
        for clause in cnf {
            let sat = clause
                .iter()
                .any(|&(v, neg)| ((m >> v) & 1 == 1) != neg);
            if !sat {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

fn clause_strategy(nvars: usize) -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::vec((0..nvars, any::<bool>()), 1..=4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_agrees_with_brute_force(
        cnf in prop::collection::vec(clause_strategy(8), 1..40)
    ) {
        let nvars = 8;
        let mut s = Solver::new();
        let vars = lits(&mut s, nvars);
        let mut ok = true;
        for clause in &cnf {
            let c: Vec<Lit> = clause
                .iter()
                .map(|&(v, neg)| Lit::new(vars[v], neg))
                .collect();
            ok &= s.add_clause(&c);
        }
        let expected = brute_force_sat(nvars, &cnf);
        let got = if ok { s.solve() } else { SolveResult::Unsat };
        prop_assert_eq!(got == SolveResult::Sat, expected);
        if got == SolveResult::Sat {
            // The returned model must actually satisfy the formula.
            for clause in &cnf {
                let sat = clause.iter().any(|&(v, neg)| {
                    s.value(vars[v]).unwrap_or(false) != neg
                });
                prop_assert!(sat, "model does not satisfy clause {:?}", clause);
            }
        }
    }

    #[test]
    fn solver_with_assumptions_agrees_with_brute_force(
        cnf in prop::collection::vec(clause_strategy(6), 1..25),
        asm in prop::collection::vec((0..6usize, any::<bool>()), 0..3)
    ) {
        let nvars = 6;
        let mut s = Solver::new();
        let vars = lits(&mut s, nvars);
        let mut ok = true;
        for clause in &cnf {
            let c: Vec<Lit> = clause
                .iter()
                .map(|&(v, neg)| Lit::new(vars[v], neg))
                .collect();
            ok &= s.add_clause(&c);
        }
        // Deduplicate contradictory assumptions on the same variable;
        // brute force treats them as unit clauses.
        let mut full = cnf.clone();
        for &(v, neg) in &asm {
            full.push(vec![(v, neg)]);
        }
        let expected = brute_force_sat(nvars, &full);
        let asml: Vec<Lit> = asm.iter().map(|&(v, neg)| Lit::new(vars[v], neg)).collect();
        let got = if ok { s.solve_assuming(&asml) } else { SolveResult::Unsat };
        prop_assert_eq!(got == SolveResult::Sat, expected);
        // Solving twice must be deterministic w.r.t. the verdict.
        let again = if ok { s.solve_assuming(&asml) } else { SolveResult::Unsat };
        prop_assert_eq!(got, again);
    }
}

#[test]
fn graph_coloring_instances() {
    // K4 is 3-colorable? No — needs 4. Check both directions on small
    // complete graphs using direct encoding (vertex×color vars).
    for (n, colors, expect_sat) in [(3usize, 3usize, true), (4, 3, false), (4, 4, true)] {
        let mut s = Solver::new();
        let v: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..colors).map(|_| s.new_var()).collect())
            .collect();
        for row in &v {
            let c: Vec<Lit> = row.iter().map(|&x| Lit::pos(x)).collect();
            s.add_clause(&c); // every vertex colored
            for i in 0..colors {
                for j in (i + 1)..colors {
                    s.add_clause(&[Lit::neg(row[i]), Lit::neg(row[j])]);
                }
            }
        }
        for a in 0..n {
            for b in (a + 1)..n {
                for c in 0..colors {
                    s.add_clause(&[Lit::neg(v[a][c]), Lit::neg(v[b][c])]);
                }
            }
        }
        assert_eq!(
            s.solve() == SolveResult::Sat,
            expect_sat,
            "K{n} with {colors} colors"
        );
    }
}

#[test]
fn solve_reuses_learnt_clauses() {
    // Solving the same instance twice must stay correct (learnt clauses
    // and saved phases persist across calls).
    let mut s = Solver::new();
    let n = 6;
    let m = 5;
    let p: Vec<Vec<Var>> = (0..n).map(|_| lits(&mut s, m)).collect();
    for row in &p {
        let c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
        s.add_clause(&c);
    }
    for j in 0..m {
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
            }
        }
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
    let conflicts_first = s.stats().conflicts;
    assert_eq!(s.solve(), SolveResult::Unsat);
    // The second solve benefits from the learnt clauses (strictly fewer
    // *new* conflicts than the first full search).
    assert!(s.stats().conflicts <= conflicts_first * 2);
}

// ---------------------------------------------------------------------
// Activation literals: retract + simplify
// ---------------------------------------------------------------------

#[test]
fn retract_retires_a_guarded_goal() {
    // Guard two contradictory "goals" behind activation literals: each
    // is individually satisfiable under its own activation, and
    // retracting one must not constrain the other.
    let mut s = Solver::new();
    let x = Lit::pos(s.new_var());
    let act1 = Lit::pos(s.new_var());
    let act2 = Lit::pos(s.new_var());
    s.add_clause(&[!act1, x]); // goal 1: x
    s.add_clause(&[!act2, !x]); // goal 2: !x
    assert_eq!(s.solve_assuming(&[act1]), SolveResult::Sat);
    assert_eq!(s.value_lit(x), Some(true));
    assert!(s.retract(act1));
    assert_eq!(s.solve_assuming(&[act2]), SolveResult::Sat);
    assert_eq!(s.value_lit(x), Some(false));
    assert!(s.retract(act2));
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn retract_sweeps_satisfied_clauses() {
    let mut s = Solver::new();
    let vs = lits(&mut s, 4);
    let act = Lit::pos(s.new_var());
    // A few clauses only reachable through the activation literal.
    s.add_clause(&[!act, Lit::pos(vs[0]), Lit::pos(vs[1])]);
    s.add_clause(&[!act, Lit::neg(vs[2]), Lit::pos(vs[3])]);
    // One clause independent of the activation literal.
    s.add_clause(&[Lit::pos(vs[0]), Lit::neg(vs[1])]);
    let before = s.num_clauses();
    assert_eq!(s.solve_assuming(&[act]), SolveResult::Sat);
    assert!(s.retract(act));
    // The guarded clauses are satisfied by !act at level 0 and swept.
    assert!(s.num_clauses() < before, "simplify must sweep retired clauses");
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn simplify_preserves_verdicts() {
    // Pigeonhole 4-into-3 stays unsat through a simplify call.
    let mut s = Solver::new();
    let n = 4;
    let m = 3;
    let p: Vec<Vec<Var>> = (0..n).map(|_| lits(&mut s, m)).collect();
    for row in &p {
        let c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
        s.add_clause(&c);
    }
    for j in 0..m {
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
            }
        }
    }
    s.simplify();
    assert_eq!(s.solve(), SolveResult::Unsat);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Solving a random batch of guarded goals one by one, retracting
    /// each activation literal after its answer, yields exactly the
    /// verdicts of solving each goal in a fresh solver over the same
    /// base clauses.
    #[test]
    fn prop_retract_matches_fresh_solvers(
        base in prop::collection::vec(prop::collection::vec(any::<i8>(), 1..4), 0..12),
        goals in prop::collection::vec(prop::collection::vec(any::<i8>(), 1..4), 1..6),
    ) {
        let nvars = 6u32;
        let to_lits = |raw: &[i8], s: &Solver| -> Vec<Lit> {
            raw.iter()
                .map(|&x| {
                    let v = Var((x.unsigned_abs() as u32) % nvars);
                    debug_assert!((v.index() as usize) < s.num_vars());
                    if x < 0 { Lit::neg(v) } else { Lit::pos(v) }
                })
                .collect()
        };

        // Incremental run: one solver, goals guarded + retracted.
        let mut inc = Solver::new();
        for _ in 0..nvars {
            inc.new_var();
        }
        let mut base_ok = true;
        for c in &base {
            let cl = to_lits(c, &inc);
            base_ok &= inc.add_clause(&cl);
        }
        let mut incremental: Vec<bool> = Vec::new();
        for g in &goals {
            let cl = to_lits(g, &inc);
            let act = Lit::pos(inc.new_var());
            let mut guarded = vec![!act];
            guarded.extend(cl);
            inc.add_clause(&guarded);
            let r = inc.solve_assuming(&[act]);
            incremental.push(r == SolveResult::Sat);
            inc.retract(act);
        }

        // Fresh run: one solver per goal.
        for (i, g) in goals.iter().enumerate() {
            let mut fresh = Solver::new();
            for _ in 0..nvars {
                fresh.new_var();
            }
            let mut ok = true;
            for c in &base {
                let cl = to_lits(c, &fresh);
                ok &= fresh.add_clause(&cl);
            }
            let cl = to_lits(g, &fresh);
            ok &= fresh.add_clause(&cl);
            let expect = ok && fresh.solve() == SolveResult::Sat;
            prop_assert_eq!(
                incremental[i],
                expect,
                "goal {} diverged (base_ok={})",
                i,
                base_ok
            );
        }
    }
}

// ---------------------------------------------------------------------
// Inprocessing: variable elimination, model reconstruction
// ---------------------------------------------------------------------

#[test]
fn inprocessing_chain_eliminates_and_reconstructs() {
    // Interior variables of an implication chain have one positive and
    // one negative occurrence each — prime BVE fodder. The Sat model
    // must still satisfy every *original* clause via reconstruction.
    let mut s = Solver::new();
    let v = lits(&mut s, 30);
    let mut orig: Vec<Vec<Lit>> = Vec::new();
    for i in 0..29 {
        orig.push(vec![Lit::neg(v[i]), Lit::pos(v[i + 1])]);
    }
    orig.push(vec![Lit::pos(v[0]), Lit::pos(v[29])]);
    for c in &orig {
        assert!(s.add_clause(c));
    }
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(
        s.stats().eliminated_vars > 0,
        "chain interior variables should be eliminated"
    );
    for c in &orig {
        assert!(
            c.iter().any(|&l| s.value_lit(l) == Some(true)),
            "reconstructed model violates {c:?}"
        );
    }
}

#[test]
fn frozen_vars_survive_elimination() {
    let mut s = Solver::new();
    let v = lits(&mut s, 10);
    for i in 0..9 {
        s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1])]);
    }
    for &x in &v {
        s.freeze_var(x);
    }
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.stats().eliminated_vars, 0);
}

#[test]
fn eliminated_vars_reintroduced_by_later_clauses() {
    // Solve once (eliminating the chain), then constrain eliminated
    // variables directly: unsatisfiability through the chain is only
    // detectable if the deleted defining clauses transitively return.
    let mut s = Solver::new();
    let v = lits(&mut s, 20);
    for i in 0..19 {
        s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1])]);
    }
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(s.stats().eliminated_vars > 0);
    assert!(s.add_clause(&[Lit::pos(v[0])]));
    // The unit x0 re-propagates the reintroduced chain at level 0, so
    // adding !x19 conflicts immediately — add_clause reports it.
    assert!(!s.add_clause(&[Lit::neg(v[19])]));
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn assumptions_reintroduce_eliminated_vars() {
    let mut s = Solver::new();
    let v = lits(&mut s, 12);
    for i in 0..11 {
        s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1])]);
    }
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(
        s.solve_assuming(&[Lit::pos(v[0]), Lit::neg(v[11])]),
        SolveResult::Unsat
    );
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn purge_strands_nothing() {
    use crate::StepKind;
    // Base gate x = a ∧ b, read by goal gate g = x ∨ c behind `act`.
    // Only x may be eliminated, so its stored clauses are its own
    // definition plus the two of g's clauses that mention it. A padding
    // chain keeps the purge below the compaction threshold, so g's
    // clauses are still on the stack when the next models are read.
    let mut s = Solver::new();
    s.set_proof_logging(true);
    let [a, b, c, x, g] = [0; 5].map(|_| Lit::pos(s.new_var()));
    let act = Lit::pos(s.new_var());
    s.freeze_var(act.var());
    let clauses: [&[Lit]; 7] =
        [&[!x, a], &[!x, b], &[x, !a, !b], &[!g, x, c], &[g, !x], &[g, !c], &[!act, g]];
    for cl in clauses {
        s.add_clause(cl);
    }
    let pad = lits(&mut s, 12);
    for w in pad.windows(2) {
        s.add_clause(&[Lit::pos(w[0]), Lit::pos(w[1])]);
    }
    let mut mask = vec![false; s.num_vars()];
    mask[x.var().index()] = true;
    s.set_eliminable(Some(&mask));
    assert_eq!(s.solve_assuming(&[act]), SolveResult::Sat);
    assert!(s.stats().eliminated_vars >= 1, "x must be eliminated");
    assert!(s.elim_stack_mentions().contains(&g.var()), "x's entry holds g's clauses");
    assert!(s.retract(act));
    // g = x ∨ c is forced false here, and keeps that saved phase once
    // purged: a reconstruction still reading g's `g ∨ ¬x` would then
    // force x false whatever a and b are.
    assert_eq!(s.solve_assuming(&[!a, !c]), SolveResult::Sat);
    assert_eq!(s.value_lit(g), Some(false));
    s.take_proof();

    let before = s.stats();
    let mut garbage = vec![false; s.num_vars()];
    garbage[g.var().index()] = true;
    s.purge_vars(&garbage);
    assert_eq!(s.stats().reintroduced_vars, before.reintroduced_vars, "nothing stranded");
    assert_eq!(s.stats().compactions, before.compactions, "the purge crossed the threshold");
    let delta = s.take_proof();
    assert!(!delta.is_empty());
    assert!(delta.iter().all(|st| st.kind == StepKind::Delete), "purge re-logged an input");

    // Models read x through the trimmed entry: x = a ∧ b.
    for assume in [[a, b], [!a, !c], [!b, c]] {
        assert_eq!(s.solve_assuming(&assume), SolveResult::Sat);
        let value = |l: Lit| s.value_lit(l).expect("every non-purged variable has a value");
        assert_eq!(value(x), value(a) && value(b), "x's definition under {assume:?}");
    }
    assert_eq!(s.stats().reintroduced_vars, before.reintroduced_vars);

    assert!(s.elim_stack_mentions().contains(&g.var()), "dead clauses wait for a compaction");
    s.compact_now();
    let left = s.elim_stack_mentions();
    assert!(left.contains(&x.var()), "x is still eliminated");
    assert!(!left.contains(&g.var()), "a purged variable stayed on the stack: {left:?}");
}

#[test]
fn restart_and_rephase_variants_preserve_verdicts() {
    use crate::Rephase;
    for (geom, rephase) in [
        (true, Rephase::Off),
        (false, Rephase::Invert),
        (true, Rephase::Reset),
    ] {
        let mut s = Solver::new();
        s.set_restart_geometric(geom);
        s.set_rephase(rephase);
        s.set_restart_base(8); // many restarts, so rephasing fires
        php(&mut s, 6, 5);
        assert_eq!(
            s.solve(),
            SolveResult::Unsat,
            "geom={geom} rephase={rephase:?}"
        );
        let mut s2 = Solver::new();
        s2.set_restart_geometric(geom);
        s2.set_rephase(rephase);
        let v = lits(&mut s2, 3);
        s2.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        s2.add_clause(&[Lit::neg(v[1]), Lit::pos(v[2])]);
        assert_eq!(s2.solve(), SolveResult::Sat);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The inprocessing solver (level-0 cleanup + BVE) must agree
    /// with the plain solver on random CNF, and its models —
    /// reconstructed over eliminated variables — must satisfy the
    /// *original* clauses.
    #[test]
    fn prop_inprocessed_matches_plain(
        cnf in prop::collection::vec(clause_strategy(10), 1..50)
    ) {
        let nvars = 10;
        let build = |inprocess: bool| -> (Solver, Vec<Var>, bool) {
            let mut s = Solver::new();
            s.set_inprocess(inprocess, inprocess);
            let vars = lits(&mut s, nvars);
            let mut ok = true;
            for clause in &cnf {
                let c: Vec<Lit> = clause
                    .iter()
                    .map(|&(v, neg)| Lit::new(vars[v], neg))
                    .collect();
                ok &= s.add_clause(&c);
            }
            (s, vars, ok)
        };
        let (mut plain, _, ok_p) = build(false);
        let (mut inp, vars, ok_i) = build(true);
        prop_assert_eq!(ok_p, ok_i);
        let rp = if ok_p { plain.solve() } else { SolveResult::Unsat };
        let ri = if ok_i { inp.solve() } else { SolveResult::Unsat };
        prop_assert_eq!(rp, ri);
        if ri == SolveResult::Sat {
            for clause in &cnf {
                let sat = clause
                    .iter()
                    .any(|&(v, neg)| inp.value(vars[v]).unwrap_or(false) != neg);
                prop_assert!(sat, "reconstructed model violates {:?}", clause);
            }
        }
        // A second solve (inprocessing re-runs on the shrunk database)
        // must agree with the first.
        if ok_i {
            prop_assert_eq!(inp.solve(), ri);
        }
    }

    /// Assumptions over eliminated variables must pull them back in
    /// with exactly fresh-solver semantics.
    #[test]
    fn prop_inprocessed_assumptions_match_brute_force(
        cnf in prop::collection::vec(clause_strategy(6), 1..25),
        asm in prop::collection::vec((0..6usize, any::<bool>()), 0..3)
    ) {
        let nvars = 6;
        let mut s = Solver::new();
        s.set_inprocess(true, true);
        let vars = lits(&mut s, nvars);
        let mut ok = true;
        for clause in &cnf {
            let c: Vec<Lit> = clause
                .iter()
                .map(|&(v, neg)| Lit::new(vars[v], neg))
                .collect();
            ok &= s.add_clause(&c);
        }
        // A plain solve first, so BVE has a chance to eliminate the
        // variables the assumptions are about to mention.
        if ok {
            s.solve();
        }
        let mut full = cnf.clone();
        for &(v, neg) in &asm {
            full.push(vec![(v, neg)]);
        }
        let expected = brute_force_sat(nvars, &full);
        let asml: Vec<Lit> = asm.iter().map(|&(v, neg)| Lit::new(vars[v], neg)).collect();
        let got = if ok { s.solve_assuming(&asml) } else { SolveResult::Unsat };
        prop_assert_eq!(got == SolveResult::Sat, expected);
    }
}

#[test]
fn pigeonhole_unsat_exercises_recursive_minimization() {
    // PHP(n+1, n): n+1 pigeons into n holes. Famously unsat with long
    // resolution proofs, so conflict analysis runs hot — a good workload
    // for recursive learnt-clause minimization.
    let n = 5;
    let mut s = Solver::new();
    let var = |p: usize, h: usize| -> usize { p * n + h };
    let vars = lits(&mut s, (n + 1) * n);
    for p in 0..=n {
        let holes: Vec<Lit> = (0..n).map(|h| Lit::pos(vars[var(p, h)])).collect();
        assert!(s.add_clause(&holes));
    }
    for h in 0..n {
        for p1 in 0..=n {
            for p2 in (p1 + 1)..=n {
                assert!(s.add_clause(&[
                    Lit::neg(vars[var(p1, h)]),
                    Lit::neg(vars[var(p2, h)]),
                ]));
            }
        }
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
    let stats = s.stats();
    assert!(stats.conflicts > 0, "PHP must conflict");
    assert!(
        stats.minimized_lits > 0,
        "recursive minimization should drop literals on PHP ({} conflicts)",
        stats.conflicts
    );
}

// -----------------------------------------------------------------
// The flat proof log, the live-clause counter, decision scopes
// -----------------------------------------------------------------

#[test]
fn proof_log_steps_round_trip_and_truncate_whole() {
    use crate::{ProofLog, Step, StepKind};
    let (a, b, c) = (Lit::pos(Var(0)), Lit::neg(Var(1)), Lit::pos(Var(2)));
    let mut log = ProofLog::new();
    log.push(StepKind::Input, &[a, b], &[]);
    log.push(StepKind::Input, &[], &[]);
    log.push(StepKind::Derived, &[c, a, b], &[0, 1]);
    log.push(StepKind::Delete, &[a, b], &[]);
    log.push(StepKind::Derived, &[c], &[]);
    let steps: Vec<Step<'_>> = log.iter().collect();
    assert_eq!(steps.len(), 5);
    assert_eq!(steps[0], Step { kind: StepKind::Input, lits: &[a, b], hints: &[] });
    assert_eq!(steps[1], Step { kind: StepKind::Input, lits: &[], hints: &[] });
    assert_eq!(steps[2], Step { kind: StepKind::Derived, lits: &[c, a, b], hints: &[0, 1] });
    assert_eq!(steps[3], Step { kind: StepKind::Delete, lits: &[a, b], hints: &[] });
    assert_eq!(log.last(), Some(Step { kind: StepKind::Derived, lits: &[c], hints: &[] }));

    // A torn log loses whole steps: the survivors read back unchanged.
    let mut torn = log.clone();
    torn.truncate(3);
    assert_eq!(torn.iter().collect::<Vec<_>>(), steps[..3]);
    torn.truncate(7);
    assert_eq!(torn.len(), 3);
    torn.push(StepKind::Derived, &[b], &[2]);
    assert_eq!(torn.last(), Some(Step { kind: StepKind::Derived, lits: &[b], hints: &[2] }));
    torn.truncate(0);
    assert!(torn.is_empty() && torn.last().is_none());

    let mut unhinted = log.clone();
    unhinted.drop_hints();
    assert!(unhinted.iter().zip(&steps).all(|(u, s)| u.kind == s.kind && u.lits == s.lits));
    assert!(unhinted.iter().all(|u| u.hints.is_empty()));

    let mut twice = log.clone();
    twice.extend(&log);
    assert_eq!(twice.len(), 10);
    assert_eq!(twice.step(7), steps[2]);
}

#[test]
fn num_clauses_counts_live_clauses_through_every_deletion_path() {
    // Pigeonhole behind an activation literal: the rows carry `!act`,
    // the at-most-one clauses do not. Retraction sweeps the rows and
    // every learnt clause (each resolves through a row, so holds `!act`);
    // a purge then takes one column's at-most-one clauses. With
    // inprocessing on, the same walk runs level-0 cleanup and
    // elimination deletions past the counter too (test builds assert it
    // against the clause array at every compaction). The sweeps delete more than
    // half of the arena, so each crosses the compaction threshold.
    let holes = 5;
    let rows = holes + 1;
    let per_column = rows * (rows - 1) / 2;
    for inprocess in [false, true] {
        let mut s = Solver::new();
        s.set_inprocess(inprocess, inprocess);
        let act = Lit::pos(s.new_var());
        let p: Vec<Vec<Var>> = (0..rows).map(|_| lits(&mut s, holes)).collect();
        for row in &p {
            let mut c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            c.push(!act);
            s.add_clause(&c);
        }
        for j in 0..holes {
            for i in 0..rows {
                for k in i + 1..rows {
                    s.add_clause(&[Lit::neg(p[i][j]), Lit::neg(p[k][j])]);
                }
            }
        }
        assert_eq!(s.num_clauses(), rows + holes * per_column);
        assert_eq!(s.solve_assuming(&[act]), SolveResult::Unsat);
        assert!(s.num_clauses() > 0);
        assert!(s.retract(act));
        let mut garbage = vec![false; s.num_vars()];
        for row in &p {
            garbage[row[0].index()] = true;
        }
        if inprocess {
            assert!(s.num_clauses() <= holes * per_column);
            s.purge_vars(&garbage);
        } else {
            assert_eq!(s.num_clauses(), holes * per_column);
            s.purge_vars(&garbage);
            assert_eq!(s.num_clauses(), (holes - 1) * per_column);
        }
        assert!(s.stats().compactions > 0, "no sweep compacted [inprocess={inprocess}]");
        assert_eq!(s.solve(), SolveResult::Sat);
    }
}

#[test]
fn scoped_search_decides_only_in_scope_variables() {
    // 64 unconstrained variables out of scope, 3 in scope: a model needs
    // exactly the in-scope decisions, and out-of-scope variables stay
    // unassigned instead of being offered and discarded.
    let mut s = Solver::new();
    let vs = lits(&mut s, 67);
    s.add_clause(&[Lit::pos(vs[64]), Lit::pos(vs[65]), Lit::pos(vs[66])]);
    let mut scope = vec![false; 67];
    scope[64..].iter_mut().for_each(|b| *b = true);
    s.set_decision_scope(Some(&scope));
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(s.stats().decisions <= 3, "{} decisions", s.stats().decisions);
    assert!(vs[..64].iter().all(|&v| s.value(v).is_none()));
    assert!(vs[64..].iter().any(|&v| s.value(v) == Some(true)));
    // Lifting the scope re-offers everything.
    s.set_decision_scope(None);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(vs.iter().all(|&v| s.value(v).is_some()));
}

// ---------------------------------------------------------------------
// Chronological backtracking: deep backjumps against brute force
// ---------------------------------------------------------------------

/// Core variables of a deep-backjump instance (brute-forced).
const DEEP_CORE_VARS: usize = 12;
/// Padding clauses of a deep-backjump instance: each on two fresh
/// variables of its own, so each costs one decision level and none
/// takes part in a conflict. Far above the chronological cut.
const DEEP_PADDING: usize = 200;
/// Padding of a mid-depth instance: backjumps of ~60 levels, past the
/// chronological cut (20) but below 100, a range a cut of 100 took in
/// full.
const MID_PADDING: usize = 60;

/// A random 3-CNF over the deep-backjump core, 30..70 clauses (both
/// verdicts occur), from a fixed seed.
fn deep_core(seed: u64) -> Vec<Vec<(usize, bool)>> {
    let mut rng = serval_check::rng::Xoshiro256::from_seed(seed);
    let clauses = 30 + rng.next_u64() as usize % 40;
    (0..clauses)
        .map(|_| {
            (0..3)
                .map(|_| {
                    let r = rng.next_u64();
                    ((r % DEEP_CORE_VARS as u64) as usize, r & (1 << 32) != 0)
                })
                .collect()
        })
        .collect()
}

/// Loads `core` plus `padding` padding clauses into a fresh solver with
/// inprocessing off (elimination would remove the padding). The core's
/// variables come first, so with every activity still zero the order
/// heap hands out variable 0, then the padding (highest index first),
/// then the rest of the core: conflicts surface ~`padding` levels above
/// a core literal, and their learnt clauses ask for backjumps of that
/// depth. Returns the core's variables and every clause loaded.
fn load_deep(
    s: &mut Solver,
    core: &[Vec<(usize, bool)>],
    padding: usize,
) -> (Vec<Var>, Vec<Vec<Lit>>) {
    s.set_inprocess(false, false);
    let vars = lits(s, DEEP_CORE_VARS);
    let mut cnf: Vec<Vec<Lit>> = core
        .iter()
        .map(|c| c.iter().map(|&(v, neg)| Lit::new(vars[v], neg)).collect())
        .collect();
    for _ in 0..padding {
        cnf.push(vec![Lit::pos(s.new_var()), Lit::pos(s.new_var())]);
    }
    for c in &cnf {
        s.add_clause(c);
    }
    (vars, cnf)
}

/// Solves `case_count(200)` padded instances, plain and under
/// assumptions over the core, against brute force: every model must
/// satisfy every clause loaded, every assumption core must be refuted
/// by the formula, and some conflict must backtrack chronologically,
/// both plain and under assumptions.
fn padded_instances_agree_with_brute_force(padding: usize) {
    let (mut plain, mut assuming) = (0, 0);
    let (mut sat, mut unsat) = (0, 0);
    for seed in 0..serval_check::runner::case_count(200) as u64 {
        let core = deep_core(seed);
        let mut s = Solver::new();
        let (vars, cnf) = load_deep(&mut s, &core, padding);
        let expected = brute_force_sat(DEEP_CORE_VARS, &core);
        let got = s.solve();
        assert_eq!(got == SolveResult::Sat, expected, "seed {seed}");
        if got == SolveResult::Sat {
            sat += 1;
            for c in &cnf {
                assert!(c.iter().any(|&l| s.value_lit(l) == Some(true)), "seed {seed}: {c:?}");
            }
        } else {
            unsat += 1;
        }
        plain += s.stats().chrono_backtracks;

        // Under assumptions over the core, on a fresh solver so the
        // assumption levels sit below the padding.
        let asm: Vec<(usize, bool)> = (0..1 + seed as usize % 3)
            .map(|i| ((seed as usize * 5 + i * 7) % DEEP_CORE_VARS, (seed >> i) & 1 == 1))
            .collect();
        let asml: Vec<Lit> = asm.iter().map(|&(v, neg)| Lit::new(vars[v], neg)).collect();
        let mut s = Solver::new();
        load_deep(&mut s, &core, padding);
        let mut full = core.clone();
        full.extend(asm.iter().map(|&a| vec![a]));
        let got = s.solve_assuming(&asml);
        assert_eq!(got == SolveResult::Sat, brute_force_sat(DEEP_CORE_VARS, &full), "seed {seed}");
        if got == SolveResult::Sat {
            for c in cnf.iter().map(Vec::as_slice).chain(asml.iter().map(std::slice::from_ref)) {
                assert!(c.iter().any(|&l| s.value_lit(l) == Some(true)), "seed {seed}: {c:?}");
            }
        } else {
            let mut refuted = core.clone();
            for &l in s.unsat_core() {
                let i = asml.iter().position(|&a| a == l).expect("core outside the assumptions");
                refuted.push(vec![asm[i]]);
            }
            assert!(!brute_force_sat(DEEP_CORE_VARS, &refuted), "seed {seed}: core is satisfiable");
        }
        assuming += s.stats().chrono_backtracks;
    }
    assert!(sat > 0 && unsat > 0, "{sat} sat / {unsat} unsat: the set must hold both");
    assert!(plain > 0, "no conflict took a chronological backtrack");
    assert!(assuming > 0, "no conflict under assumptions took a chronological backtrack");
    eprintln!(
        "padding {padding}: {sat} sat, {unsat} unsat, {plain} + {assuming} chronological backtracks"
    );
}

#[test]
fn deep_backjumps_backtrack_chronologically_and_agree_with_brute_force() {
    padded_instances_agree_with_brute_force(DEEP_PADDING);
}

#[test]
fn mid_depth_backjumps_backtrack_chronologically_and_agree_with_brute_force() {
    padded_instances_agree_with_brute_force(MID_PADDING);
}

#[test]
fn an_assumption_refuted_by_a_deep_unit_is_its_own_core() {
    // 120 free assumptions, then `x`, which the formula refutes alone.
    // Placing `x` at level 121 conflicts, the learnt unit `!x` would
    // backjump 121 levels, so it lands at level 0 with the trail kept —
    // and the next placement of `x` fails on a level-0 literal while the
    // decision level is 120.
    let mut s = Solver::new();
    s.set_inprocess(false, false);
    let free = lits(&mut s, 120);
    let x = s.new_var();
    let y = s.new_var();
    s.add_clause(&[Lit::neg(x), Lit::pos(y)]);
    s.add_clause(&[Lit::neg(x), Lit::neg(y)]);
    let mut asm: Vec<Lit> = free.iter().map(|&v| Lit::pos(v)).collect();
    asm.push(Lit::pos(x));
    assert_eq!(s.solve_assuming(&asm), SolveResult::Unsat);
    assert_eq!(s.stats().chrono_backtracks, 1);
    assert_eq!(s.unsat_core(), &[Lit::pos(x)]);
}
