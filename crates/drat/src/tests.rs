//! Checker tests: end-to-end certificates from the real solver, plus an
//! adversarial proof-mutation suite asserting that tampered logs are
//! rejected.

use crate::{check_refutation, conclusion_covers, hash_steps, hash_steps_seeded, CheckError,
            Checker};
use serval_sat::{Lit, ProofLog, SolveResult, Solver, Step, StepKind, Var};

/// Whether `st` is a derived clause of at least `n` literals.
fn derived_of(st: Step<'_>, n: usize) -> bool {
    st.kind == StepKind::Derived && st.lits.len() >= n
}

/// An unhinted step over `lits`.
fn step(kind: StepKind, lits: &[Lit]) -> Step<'_> {
    Step { kind, lits, hints: &[] }
}

/// Whether `log` ends in the derived empty clause.
fn concludes_empty(log: &ProofLog) -> bool {
    log.last().is_some_and(|st| st.kind == StepKind::Derived && st.lits.is_empty())
}

/// Solves the pigeonhole formula PHP(holes+1, holes) with proof logging
/// and inprocessing (elimination included) and returns the certificate.
fn php_certificate(holes: usize) -> ProofLog {
    let pigeons = holes + 1;
    let mut s = Solver::new();
    s.set_proof_logging(true);
    let v: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    for p in &v {
        let c: Vec<Lit> = p.iter().map(|&x| Lit::pos(x)).collect();
        s.add_clause(&c);
    }
    for j in 0..holes {
        for i in 0..pigeons {
            for k in i + 1..pigeons {
                s.add_clause(&[Lit::neg(v[i][j]), Lit::neg(v[k][j])]);
            }
        }
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
    s.take_proof()
}

/// Whether every `Derived` step of `log` carries hints.
fn all_hinted(log: &ProofLog) -> bool {
    log.iter().all(|st| st.kind != StepKind::Derived || !st.hints.is_empty())
}

/// A two-goal incremental gadget: each goal's gate clauses force a
/// contradiction under its activation literal; retracting the first goal
/// sweeps its satisfied gate clauses, producing `Delete` steps.
fn session_gadget() -> (Solver, Lit, Lit) {
    let mut s = Solver::new();
    // This gadget pins down retraction's Delete steps; inprocessing
    // would discharge the tiny two-clause goals by resolution first and
    // move the deletions into the first delta.
    s.set_inprocess(false, false);
    s.set_proof_logging(true);
    let x = s.new_var();
    let y = s.new_var();
    let act1 = Lit::pos(s.new_var());
    let act2 = Lit::pos(s.new_var());
    s.add_clause(&[!act1, Lit::pos(x)]);
    s.add_clause(&[!act1, Lit::neg(x)]);
    s.add_clause(&[!act2, Lit::pos(y)]);
    s.add_clause(&[!act2, Lit::neg(y)]);
    (s, act1, act2)
}

#[test]
fn pigeonhole_certificate_accepted() {
    let proof = php_certificate(4);
    assert!(proof.iter().any(|s| derived_of(s, 1)));
    assert!(concludes_empty(&proof));
    // Elimination elides resolvents; the ones a derivation consults are
    // logged on first use, so every step still carries its hints.
    assert!(all_hinted(&proof), "an unhinted derivation");
    check_refutation(&proof, &[]).unwrap();
}

#[test]
fn empty_input_clause_is_a_refutation() {
    let mut proof = ProofLog::new();
    proof.push(StepKind::Input, &[], &[]);
    proof.push(StepKind::Derived, &[], &[0]);
    check_refutation(&proof, &[]).unwrap();
}

/// With no search to fall back on, a derived clause the database does
/// imply is still rejected when its hints do not walk to a conflict.
#[test]
fn an_unhinted_step_is_rejected_unless_trivial() {
    let [a, b] = [0, 1].map(|v| Lit::pos(Var(v)));
    let mut ck = Checker::new();
    ck.apply(step(StepKind::Input, &[a, b])).unwrap();
    ck.apply(step(StepKind::Input, &[a, !b])).unwrap();
    assert_eq!(
        ck.apply(step(StepKind::Derived, &[a])),
        Err(CheckError::NotImplied { step: 2 })
    );
    ck.apply(Step { kind: StepKind::Derived, lits: &[a], hints: &[0, 1] }).unwrap();
    // Satisfied by a persistent unit: true before any hint is read.
    ck.apply(step(StepKind::Derived, &[a, b])).unwrap();
}

#[test]
fn mutation_dropped_step_rejected() {
    let mut proof = php_certificate(3);
    // Drop the concluding empty clause: the log no longer ends in a
    // refutation.
    proof.truncate(proof.len() - 1);
    assert!(check_refutation(&proof, &[]).is_err());
}

#[test]
fn mutation_flipped_literal_rejected() {
    let mut proof = php_certificate(3);
    // Flip the first literal of every non-empty derived clause; the
    // corrupted lemmas no longer follow by unit propagation.
    for i in 0..proof.len() {
        if derived_of(proof.step(i), 1) {
            let first = &mut proof.lits_mut(i)[0];
            *first = !*first;
        }
    }
    assert!(check_refutation(&proof, &[]).is_err());
}

#[test]
fn mutation_truncated_log_rejected() {
    let mut proof = php_certificate(3);
    proof.truncate(proof.len() / 2);
    assert!(check_refutation(&proof, &[]).is_err());
}

#[test]
fn mutation_reordered_deletion_rejected() {
    let (mut s, act1, act2) = session_gadget();
    assert_eq!(s.solve_assuming(&[act1]), SolveResult::Unsat);
    s.retract(act1);
    assert_eq!(s.solve_assuming(&[act2]), SolveResult::Unsat);
    let proof = s.take_proof();
    let del = proof
        .iter()
        .position(|st| st.kind == StepKind::Delete)
        .expect("retract should sweep satisfied gate clauses");
    // Move the deletion before the clause ever existed.
    let mut moved = ProofLog::new();
    for i in std::iter::once(del).chain((0..proof.len()).filter(|&i| i != del)) {
        let st = proof.step(i);
        moved.push(st.kind, st.lits, st.hints);
    }
    assert!(matches!(
        check_refutation(&moved, &[act2]),
        Err(CheckError::DeleteMissing { step: 0 })
    ));
}

#[test]
fn delete_of_unknown_clause_rejected() {
    let mut ck = Checker::new();
    ck.apply(step(StepKind::Input, &[Lit::pos(Var(0))])).unwrap();
    let err = ck.apply(step(StepKind::Delete, &[Lit::neg(Var(0))]));
    assert!(matches!(err, Err(CheckError::DeleteMissing { step: 1 })));
}

#[test]
fn underived_clause_rejected() {
    // {a, b} alone does not imply {a}.
    let mut ck = Checker::new();
    ck.apply(step(StepKind::Input, &[Lit::pos(Var(0)), Lit::pos(Var(1))]))
        .unwrap();
    let err = ck.apply(step(StepKind::Derived, &[Lit::pos(Var(0))]));
    assert!(matches!(err, Err(CheckError::NotImplied { step: 1 })));
}

#[test]
fn session_deltas_check_incrementally() {
    let (mut s, act1, act2) = session_gadget();
    let mut ck = Checker::new();

    assert_eq!(s.solve_assuming(&[act1]), SolveResult::Unsat);
    for st in s.take_proof().iter() {
        ck.apply(st).unwrap();
    }
    let c1 = ck.take_conclusion().expect("goal 1 conclusion");
    assert!(conclusion_covers(&c1, &[act1]));

    s.retract(act1);
    assert_eq!(s.solve_assuming(&[act2]), SolveResult::Unsat);
    let delta = s.take_proof();
    // The retraction swept goal 1's satisfied gate clauses.
    assert!(delta.iter().any(|st| st.kind == StepKind::Delete));
    for st in delta.iter() {
        ck.apply(st).unwrap();
    }
    let c2 = ck.take_conclusion().expect("goal 2 conclusion");
    assert!(conclusion_covers(&c2, &[act2]));
}

// ---------------------------------------------------------------------
// Inprocessing certificates: elimination resolvents in the proof stream
// ---------------------------------------------------------------------

/// An elimination whose parents share a non-pivot literal: resolving
/// `{v, a, b}` against `{!v, a, c}` on `v` gives `{a, b, c}`. `a`, `b`,
/// `c` are frozen so `v` is the only elimination candidate. The
/// resolvent is elided when it is made; the later contradiction over
/// `{a, b, c}` makes the solver use it, so it is logged then, hinted by
/// its parents, and the combined log is a refutation through it.
/// Returns the log and the index of the logged resolvent.
fn elimination_certificate() -> (ProofLog, usize) {
    let mut s = Solver::new();
    s.set_proof_logging(true);
    let v = s.new_var();
    let shared: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
    let (a, b, c) = (shared[0], shared[1], shared[2]);
    for u in &shared {
        s.freeze_var(*u);
    }
    s.add_clause(&[Lit::pos(v), Lit::pos(a), Lit::pos(b)]);
    s.add_clause(&[Lit::neg(v), Lit::pos(a), Lit::pos(c)]);
    assert_eq!(s.solve(), SolveResult::Sat);
    let mut proof = s.take_proof();
    assert!(!proof.iter().any(|st| derived_of(st, 2)), "the resolvent is elided when made");
    // Refute through the resolvent: with a and b false, c follows from
    // {a, b, c} alone.
    assert!(s.add_clause(&[Lit::neg(a)]));
    assert!(s.add_clause(&[Lit::neg(b)]));
    assert!(!s.add_clause(&[Lit::neg(c)]));
    proof.extend(&s.take_proof());
    assert!(concludes_empty(&proof));
    let resolvent_at = proof
        .iter()
        .position(|st| derived_of(st, 3))
        .expect("the refutation logs the resolvent it uses");
    (proof, resolvent_at)
}

#[test]
fn elimination_certificate_accepted() {
    let (proof, _) = elimination_certificate();
    assert!(
        !proof.iter().any(|st| st.kind == StepKind::Delete),
        "parent deletions must be elided from the proof"
    );
    check_refutation(&proof, &[]).unwrap();
}

/// The complement of `elimination_certificate`: an implication chain
/// whose elimination resolvents all have disjoint parents. None of them
/// is logged when it is made; the cascade ends in the unit `{x15}`,
/// which is, and its hint names the two resolvents it was resolved
/// from — so those are logged first, each once, deepest ancestor
/// first, and the refutation replays.
#[test]
fn elided_elimination_certificate_accepted() {
    let mut s = Solver::new();
    s.set_proof_logging(true);
    let v: Vec<Var> = (0..16).map(|_| s.new_var()).collect();
    for i in 0..15 {
        s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1])]);
    }
    s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[15])]);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(s.stats().eliminated_vars > 0, "the chain must be eliminated");
    let mut proof = s.take_proof();
    let logged: Vec<Vec<Lit>> =
        proof.iter().filter(|&st| derived_of(st, 2)).map(|st| st.lits.to_vec()).collect();
    assert_eq!(logged.len() as u64, s.stats().lazy_resolvents);
    assert!(s.stats().lazy_resolvents < s.stats().resolvents, "some resolvent must stay elided");
    for (i, c) in logged.iter().enumerate() {
        assert!(!logged[..i].contains(c), "resolvent {c:?} logged twice");
    }
    assert!(all_hinted(&proof), "an unhinted derivation");
    // !x15 forces the whole (reintroduced) chain false, conflicting
    // with {x0, x15} at level 0; the conclusion is logged by add_clause.
    assert!(!s.add_clause(&[Lit::neg(v[15])]));
    proof.extend(&s.take_proof());
    assert!(concludes_empty(&proof));
    check_refutation(&proof, &[]).unwrap();
}

#[test]
fn mutation_tampered_resolvent_rejected() {
    let (mut proof, at) = elimination_certificate();
    let l = proof.lits_mut(at);
    l[0] = !l[0];
    // Flipping a literal makes the resolvent satisfiable together with
    // its parents, so RUP at its position finds no conflict.
    assert!(matches!(
        check_refutation(&proof, &[]),
        Err(CheckError::NotImplied { .. } | CheckError::DeleteMissing { .. })
    ));
}

// ---------------------------------------------------------------------
// LRAT hints: acceptance, tamper rejection
// ---------------------------------------------------------------------

/// Index of the first step hinted by three clauses or more, or a panic
/// — the solver must produce such derivations on PHP. (A resolvent's
/// two hints walk in either order: one parent is unit on the pivot.)
fn first_multi_hinted(proof: &ProofLog) -> usize {
    proof
        .iter()
        .position(|st| st.hints.len() >= 3 && st.hints[0] != st.hints[st.hints.len() - 1])
        .expect("PHP certificates must carry multi-hint derivations")
}

/// Replays `proof` on a fresh checker, stopping at the first rejection.
fn replay(proof: &ProofLog) -> Result<(), CheckError> {
    let mut ck = Checker::new();
    proof.iter().try_for_each(|st| ck.apply(st))
}

/// A tampered hint list is a rejected certificate, never a silently
/// slower one: the checker has no search to fall back on.
#[test]
fn tampered_hints_rejected() {
    let mut proof = php_certificate(4);
    let at = first_multi_hinted(&proof);
    let hints = proof.hints_mut(at);
    hints[0] = hints[0].wrapping_add(100_000);
    let err = replay(&proof);
    assert!(
        matches!(err, Err(CheckError::NotImplied { step }) if step == at),
        "must reject at the tampered step, got {err:?}"
    );
}

/// Reordering a hint list breaks the unit-propagation replay (each hint
/// must become unit in order), and so does dropping its last hint (the
/// clause the walk ends on falsified).
#[test]
fn reordered_or_dropped_hints_rejected() {
    let proof = php_certificate(3);
    let at = first_multi_hinted(&proof);
    let mut reordered = proof.clone();
    reordered.hints_mut(at).reverse();
    assert!(matches!(replay(&reordered), Err(CheckError::NotImplied { step }) if step == at));
    let mut dropped = ProofLog::new();
    for (i, st) in proof.iter().enumerate() {
        let hints = if i == at { &st.hints[..st.hints.len() - 1] } else { st.hints };
        dropped.push(st.kind, st.lits, hints);
    }
    assert!(matches!(replay(&dropped), Err(CheckError::NotImplied { step }) if step == at));
}

/// No hint list can force acceptance of a clause that does not follow:
/// every literal the hinted walk enqueues is genuinely implied.
#[test]
fn hints_cannot_launder_an_underived_clause() {
    let a = Lit::pos(Var(0));
    let b = Lit::pos(Var(1));
    let mut ck = Checker::new();
    ck.apply(step(StepKind::Input, &[a, b])).unwrap();
    // {a, b} alone does not imply {a}, whatever the hints claim.
    let err = ck.apply(Step { kind: StepKind::Derived, lits: &[a], hints: &[0] });
    assert!(
        matches!(err, Err(CheckError::NotImplied { step: 1 })),
        "fabricated hints must not launder the step, got {err:?}"
    );
}

/// A hint naming a deleted clause walks that clause's live twin (same
/// literal set), and only a live one: `Delete` matches by literal set,
/// so with two copies live it drops the most recent id even when the
/// solver meant the other.
#[test]
fn a_hint_to_a_deleted_clause_walks_its_live_twin() {
    let [a, b, c] = [0, 1, 2].map(|v| Lit::pos(Var(v)));
    let derive = Step { kind: StepKind::Derived, lits: &[b, c], hints: &[1, 2] };
    for deletes in [1, 2] {
        let mut ck = Checker::new();
        ck.apply(step(StepKind::Input, &[a, b, c])).unwrap(); // id 0
        ck.apply(step(StepKind::Input, &[c, b, a])).unwrap(); // id 1, its twin
        for _ in 0..deletes {
            ck.apply(step(StepKind::Delete, &[a, b, c])).unwrap(); // id 1 first
        }
        ck.apply(step(StepKind::Input, &[!a, b])).unwrap(); // id 2
        let got = ck.apply(derive);
        if deletes == 1 {
            assert_eq!(got, Ok(()));
        } else {
            assert_eq!(got, Err(CheckError::NotImplied { step: 5 }), "no live twin left");
        }
    }
}

/// Hints are part of the certificate fingerprint: the same clause
/// stream with different hints hashes differently, so a cached verdict
/// cannot be replayed under a doctored hint list.
#[test]
fn hint_lists_are_hashed_into_the_fingerprint() {
    let proof = php_certificate(3);
    let at = first_multi_hinted(&proof);
    let mut doctored = proof.clone();
    let hints = doctored.hints_mut(at);
    hints[0] = hints[0].wrapping_add(1);
    assert_ne!(hash_steps(&proof), hash_steps(&doctored));
}

mod inprocessed_replay {
    use super::*;
    use serval_check::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every UNSAT verdict from an inprocessing solver on random
        /// CNF must come with a certificate the checker accepts.
        #[test]
        fn prop_inprocessed_unsat_proofs_replay(
            cnf in prop::collection::vec(
                prop::collection::vec((0..8usize, any::<bool>()), 1..=4),
                1..40
            )
        ) {
            let mut s = Solver::new();
            s.set_proof_logging(true);
            let vars: Vec<Var> = (0..8).map(|_| s.new_var()).collect();
            for clause in &cnf {
                let c: Vec<Lit> = clause
                    .iter()
                    .map(|&(v, neg)| Lit::new(vars[v], neg))
                    .collect();
                s.add_clause(&c);
            }
            if s.solve() == SolveResult::Unsat {
                let proof = s.take_proof();
                prop_assert!(all_hinted(&proof), "an unhinted derivation");
                prop_assert!(
                    check_refutation(&proof, &[]).is_ok(),
                    "inprocessed refutation rejected"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Certificates after chronological backtracking
// ---------------------------------------------------------------------

/// The refutation of a deep-backjump instance, or `None` when it is
/// satisfiable: a random 3-CNF over 12 core variables (30..70 clauses,
/// from `seed`) plus 200 padding clauses on two fresh variables each.
/// The core's variables come first, so the all-zero-activity order heap
/// decides variable 0, then the padding, then the rest of the core:
/// learnt clauses ask for backjumps of ~200 levels and the solver
/// backtracks chronologically. The same construction drives the
/// solver's own brute-force test. With `inprocess` on, the padding is
/// frozen so elimination cannot dissolve it. Also returns the solver's
/// chronological-backtrack count.
fn deep_refutation(seed: u64, inprocess: bool) -> (Option<ProofLog>, u64) {
    let mut rng = serval_check::rng::Xoshiro256::from_seed(seed);
    let mut s = Solver::new();
    s.set_inprocess(inprocess, inprocess);
    s.set_proof_logging(true);
    let core: Vec<Var> = (0..12).map(|_| s.new_var()).collect();
    let clauses = 30 + rng.next_u64() as usize % 40;
    let mut cnf: Vec<Vec<Lit>> = (0..clauses)
        .map(|_| {
            (0..3)
                .map(|_| {
                    let r = rng.next_u64();
                    Lit::new(core[(r % 12) as usize], r & (1 << 32) != 0)
                })
                .collect()
        })
        .collect();
    for _ in 0..200 {
        let (a, b) = (s.new_var(), s.new_var());
        s.freeze_var(a);
        s.freeze_var(b);
        cnf.push(vec![Lit::pos(a), Lit::pos(b)]);
    }
    for c in &cnf {
        s.add_clause(c);
    }
    let unsat = s.solve() == SolveResult::Unsat;
    (unsat.then(|| s.take_proof()), s.stats().chrono_backtracks)
}

#[test]
fn chronological_refutations_check_on_their_hints() {
    let (mut refuted, mut chrono) = (0, 0);
    for seed in 0..200 {
        let (proof, c) = deep_refutation(seed, false);
        chrono += c;
        let Some(proof) = proof else { continue };
        refuted += 1;
        assert!(all_hinted(&proof), "seed {seed}: an unhinted derivation");
        assert!(check_refutation(&proof, &[]).is_ok(), "seed {seed}: refutation rejected");
    }
    assert!(refuted > 0 && chrono > 0, "{refuted} refutations, {chrono} chronological backtracks");
}

#[test]
fn inprocessed_chronological_refutations_check() {
    let (mut refuted, mut chrono) = (0, 0);
    for seed in 0..200 {
        let (proof, c) = deep_refutation(seed, true);
        chrono += c;
        let Some(proof) = proof else { continue };
        refuted += 1;
        assert!(all_hinted(&proof), "seed {seed}: an unhinted derivation");
        assert!(check_refutation(&proof, &[]).is_ok(), "seed {seed}: refutation rejected");
    }
    assert!(refuted > 0 && chrono > 0, "{refuted} refutations, {chrono} chronological backtracks");
}

#[test]
fn conclusion_covers_subset_only() {
    let a = Lit::pos(Var(0));
    let b = Lit::pos(Var(1));
    assert!(conclusion_covers(&[], &[]));
    assert!(conclusion_covers(&[!a], &[a, b]));
    assert!(conclusion_covers(&[!a, !b], &[a, b]));
    assert!(!conclusion_covers(&[a], &[a, b]));
    assert!(!conclusion_covers(&[!a], &[b]));
    assert!(!conclusion_covers(&[!a], &[]));
}

#[test]
fn hashes_are_stable_and_tamper_sensitive() {
    let proof = php_certificate(3);
    let h1 = hash_steps(&proof);
    let h2 = hash_steps(&proof);
    assert_eq!(h1, h2);
    assert_ne!(h1, 0, "0 is reserved for `no certificate`");

    let mut flipped = proof.clone();
    assert_eq!(flipped.step(0).kind, StepKind::Input);
    let l = flipped.lits_mut(0);
    l[0] = !l[0];
    assert_ne!(hash_steps(&flipped), h1);

    // Chaining (session) deltas hashes the whole prefix.
    let mut a = proof.clone();
    a.truncate(proof.len() / 2);
    let mut b = ProofLog::new();
    for st in proof.iter().skip(a.len()) {
        b.push(st.kind, st.lits, st.hints);
    }
    let chained = hash_steps_seeded(hash_steps(&a), &b);
    assert_eq!(chained, h1);
    assert_ne!(chained, hash_steps(&b));
}

// ---------------------------------------------------------------------
// Soak: incremental sessions that eliminate, retract and purge
// ---------------------------------------------------------------------

/// A Tseitin gate `out = a ∧ b`, `a ∨ b` or `a ⊕ b` over earlier signals.
#[derive(Clone, Copy)]
struct Gate {
    out: Var,
    op: u64,
    a: Lit,
    b: Lit,
}

impl Gate {
    fn eval(&self, vals: &[bool]) -> bool {
        let (a, b) = (lit_value(vals, self.a), lit_value(vals, self.b));
        match self.op {
            0 => a && b,
            1 => a || b,
            _ => a != b,
        }
    }

    /// The gate's full definition, both directions.
    fn clauses(&self) -> Vec<Vec<Lit>> {
        let (o, a, b) = (Lit::pos(self.out), self.a, self.b);
        match self.op {
            0 => vec![vec![!o, a], vec![!o, b], vec![o, !a, !b]],
            1 => vec![vec![o, !a], vec![o, !b], vec![!o, a, b]],
            _ => vec![vec![!o, a, b], vec![!o, !a, !b], vec![o, !a, b], vec![o, a, !b]],
        }
    }
}

fn lit_value(vals: &[bool], l: Lit) -> bool {
    vals[l.var().index()] != l.is_neg()
}

/// One goal of a soak session: gates over the base signals (and its
/// own earlier gates), guarded by `act` on the root literal.
struct SoakGoal {
    gates: Vec<Gate>,
    root: Lit,
    act: Lit,
}

/// What the soak saw across all sessions, so it can assert that every
/// path it is meant to cover was taken.
#[derive(Default, Debug)]
struct SoakTally {
    sat: u64,
    unsat: u64,
    eliminated: u64,
    reintroduced: u64,
    compacting_purges: u64,
    quiet_purges: u64,
    /// Elided resolvents logged on first use (`SolverStats`).
    lazy_resolvents: u64,
    /// Purges whose garbage included a variable of a parent of a
    /// resolvent already in the proof.
    retired_parents: u64,
}

/// A mirror of the checker's clause ids, built from the steps alone, that
/// recognizes logged resolvents: `Derived` steps hinted by exactly two
/// clauses that clash on one variable and whose resolvent they are.
/// (That a resolvent is logged at most once the solver asserts itself,
/// in `Solver::hint_id`.)
#[derive(Default)]
struct ResolventWatch {
    /// Literals of every added step, by checker id.
    clauses: Vec<Vec<Lit>>,
    /// Variables of the resolvents' parents.
    parent_vars: Vec<bool>,
}

impl ResolventWatch {
    /// Records `st`.
    fn see(&mut self, st: Step<'_>) {
        if st.kind == StepKind::Delete {
            return;
        }
        if let [h0, h1] = *st.hints {
            let (a, b) = (&self.clauses[h0 as usize], &self.clauses[h1 as usize]);
            let clash: Vec<Lit> = a.iter().copied().filter(|&l| b.contains(&!l)).collect();
            if let [pivot] = clash[..] {
                let mut res: Vec<Lit> =
                    a.iter().chain(b).copied().filter(|l| l.var() != pivot.var()).collect();
                res.sort_unstable();
                res.dedup();
                let mut lits = st.lits.to_vec();
                lits.sort_unstable();
                if res == lits {
                    for l in a.iter().chain(b) {
                        let v = l.var().index();
                        if self.parent_vars.len() <= v {
                            self.parent_vars.resize(v + 1, false);
                        }
                        self.parent_vars[v] = true;
                    }
                }
            }
        }
        self.clauses.push(st.lits.to_vec());
    }

    /// Whether `garbage` marks a variable of a logged resolvent's parent.
    fn retires_a_parent(&self, garbage: &[bool]) -> bool {
        garbage.iter().zip(&self.parent_vars).any(|(&g, &p)| g && p)
    }
}

fn below(rng: &mut serval_check::rng::Xoshiro256, n: u64) -> u64 {
    rng.next_u64() % n
}

/// A random literal over `signals`.
fn any_signal(rng: &mut serval_check::rng::Xoshiro256, signals: &[Lit]) -> Lit {
    let l = signals[below(rng, signals.len() as u64) as usize];
    if below(rng, 2) == 0 {
        l
    } else {
        !l
    }
}

/// Adds a random gate over `signals` to `s`, returning it.
fn soak_gate(rng: &mut serval_check::rng::Xoshiro256, s: &mut Solver, signals: &[Lit]) -> Gate {
    let a = any_signal(rng, signals);
    let mut b = any_signal(rng, signals);
    while b.var() == a.var() {
        b = any_signal(rng, signals);
    }
    let g = Gate { out: s.new_var(), op: below(rng, 3), a, b };
    for c in g.clauses() {
        s.add_clause(&c);
    }
    g
}

/// Whether base ∧ goal is satisfiable, by enumerating the inputs (every
/// other variable is a gate, fixed by them).
fn soak_brute(
    inputs: &[Var],
    base: &[Gate],
    cnf: &[Vec<Lit>],
    goal: &SoakGoal,
    nvars: usize,
) -> bool {
    let mut vals = vec![false; nvars];
    (0u32..1 << inputs.len()).any(|m| {
        for (i, v) in inputs.iter().enumerate() {
            vals[v.index()] = m >> i & 1 == 1;
        }
        for g in base.iter().chain(&goal.gates) {
            vals[g.out.index()] = g.eval(&vals);
        }
        cnf.iter().all(|c| c.iter().any(|&l| lit_value(&vals, l))) && lit_value(&vals, goal.root)
    })
}

/// One random session. A base of 4–6 inputs, 2–4 gates over them and up
/// to three plain clauses; then 4–8 goals, each 1–3 gates over the base
/// behind its own activation literal. A prefix of the goals is encoded
/// before the first solve, whose inprocessing round eliminates under a
/// random mask, so eliminated base gates carry the clauses of goal
/// gates that read them; the rest are encoded as they come, which
/// brings back any eliminated variable they mention. After each answer
/// the goal is retracted, and its gates are purged now or later
/// together with other retired goals' gates. Every `Sat` model must
/// satisfy the base and the goal, eliminated variables included;
/// every verdict must match brute force; every proof delta must carry
/// hints on every derivation and pass the checker, and every `Unsat`
/// conclude its goal.
fn soak_session(seed: u64, tally: &mut SoakTally) {
    let rng = &mut serval_check::rng::Xoshiro256::from_seed(seed);
    let mut s = Solver::new();
    s.set_proof_logging(true);
    s.set_inprocess(true, true);
    let mut ck = Checker::new();
    let mut watch = ResolventWatch::default();
    let apply = |ck: &mut Checker, watch: &mut ResolventWatch, proof: ProofLog, what: &str| {
        for (i, st) in proof.iter().enumerate() {
            if st.kind == StepKind::Derived && st.hints.is_empty() {
                panic!("seed {seed} {what}: delta step {i} is unhinted: {st:?}");
            }
            if let Err(e) = ck.apply(st) {
                panic!("seed {seed} {what}: delta step {i} rejected: {e:?}");
            }
            watch.see(st);
        }
    };

    let inputs: Vec<Var> = (0..4 + below(rng, 3)).map(|_| s.new_var()).collect();
    let mut signals: Vec<Lit> = inputs.iter().map(|&v| Lit::pos(v)).collect();
    let mut base = Vec::new();
    for _ in 0..2 + below(rng, 3) {
        let g = soak_gate(rng, &mut s, &signals);
        signals.push(Lit::pos(g.out));
        base.push(g);
    }
    let cnf: Vec<Vec<Lit>> = (0..below(rng, 4))
        .map(|_| (0..1 + below(rng, 3)).map(|_| any_signal(rng, &signals)).collect())
        .collect();
    for c in &cnf {
        s.add_clause(c);
    }

    let encode = |rng: &mut serval_check::rng::Xoshiro256, s: &mut Solver| {
        let mut own = signals.clone();
        let gates: Vec<Gate> = (0..1 + below(rng, 3))
            .map(|_| {
                let g = soak_gate(rng, s, &own);
                own.push(Lit::pos(g.out));
                g
            })
            .collect();
        let out = Lit::pos(gates[gates.len() - 1].out);
        let root = if below(rng, 2) == 0 { out } else { !out };
        let act = Lit::pos(s.new_var());
        s.freeze_var(act.var());
        s.add_clause(&[!act, root]);
        SoakGoal { gates, root, act }
    };
    let n_goals = 4 + below(rng, 5) as usize;
    let mut goals: Vec<SoakGoal> =
        (0..1 + below(rng, n_goals as u64)).map(|_| encode(rng, &mut s)).collect();
    let mut retired: Vec<Var> = Vec::new();
    for gi in 0..n_goals {
        if gi == goals.len() {
            let g = encode(rng, &mut s);
            goals.push(g);
        }
        if below(rng, 4) == 0 {
            s.set_eliminable(None);
        } else {
            let mask: Vec<bool> = (0..s.num_vars()).map(|_| below(rng, 4) != 0).collect();
            s.set_eliminable(Some(&mask));
        }
        let goal = &goals[gi];
        let verdict = s.solve_assuming(&[goal.act]);
        apply(&mut ck, &mut watch, s.take_proof(), &format!("goal {gi}"));
        let conclusion = ck.take_conclusion();
        let expected = soak_brute(&inputs, &base, &cnf, goal, s.num_vars());
        match verdict {
            SolveResult::Sat => {
                assert!(expected, "seed {seed} goal {gi}: Sat, brute force says Unsat");
                let mut vals = vec![false; s.num_vars()];
                let gates = base.iter().chain(&goal.gates).map(|g| g.out);
                let read = inputs.iter().copied().chain(gates);
                for v in read {
                    vals[v.index()] = s
                        .value(v)
                        .unwrap_or_else(|| panic!("seed {seed} goal {gi}: {v:?} has no value"));
                }
                for g in base.iter().chain(&goal.gates) {
                    assert_eq!(
                        vals[g.out.index()],
                        g.eval(&vals),
                        "seed {seed} goal {gi}: gate {:?} violated",
                        g.out
                    );
                }
                for c in &cnf {
                    assert!(
                        c.iter().any(|&l| lit_value(&vals, l)),
                        "seed {seed} goal {gi}: base clause {c:?} violated"
                    );
                }
                assert!(lit_value(&vals, goal.root), "seed {seed} goal {gi}: root false");
                tally.sat += 1;
            }
            SolveResult::Unsat => {
                assert!(!expected, "seed {seed} goal {gi}: Unsat, brute force says Sat");
                let c =
                    conclusion.unwrap_or_else(|| panic!("seed {seed} goal {gi}: no conclusion"));
                assert!(conclusion_covers(&c, &[goal.act]), "seed {seed} goal {gi}: {c:?}");
                tally.unsat += 1;
            }
            other => panic!("seed {seed} goal {gi}: {other:?}"),
        }
        s.retract(goal.act);
        retired.extend(goal.gates.iter().map(|g| g.out));
        if below(rng, 3) != 0 {
            let mut garbage = vec![false; s.num_vars()];
            for v in retired.drain(..) {
                garbage[v.index()] = true;
            }
            let before = s.stats().compactions;
            // Whatever the solver retires, the checker keeps every
            // clause a logged resolvent was derived from.
            apply(&mut ck, &mut watch, s.take_proof(), "retraction");
            tally.retired_parents += u64::from(watch.retires_a_parent(&garbage));
            s.purge_vars(&garbage);
            if s.stats().compactions > before {
                tally.compacting_purges += 1;
            } else {
                tally.quiet_purges += 1;
            }
        }
    }
    apply(&mut ck, &mut watch, s.take_proof(), "trailing");
    tally.eliminated += s.stats().eliminated_vars;
    tally.reintroduced += s.stats().reintroduced_vars;
    tally.lazy_resolvents += s.stats().lazy_resolvents;
}

/// 400 sessions; `SERVAL_CHECK_CASES` sets another count (`ci.sh`'s
/// certificate-soak leg runs ten times as many).
#[test]
fn soak_incremental_sessions_against_brute_force_and_the_strict_checker() {
    let mut tally = SoakTally::default();
    for seed in 0..u64::from(serval_check::runner::case_count(400)) {
        soak_session(seed, &mut tally);
    }
    let t = &tally;
    assert!(
        t.sat > 0
            && t.unsat > 0
            && t.eliminated > 0
            && t.reintroduced > 0
            && t.compacting_purges > 0
            && t.quiet_purges > 0
            && t.lazy_resolvents > 0
            && t.retired_parents > 0,
        "a path went untested: {t:?}"
    );
}
