//! `check` / `verify` entry points: term-level queries end-to-end.
//!
//! Each call builds a fresh SAT instance, blasts the assertions, finalizes
//! uninterpreted functions, solves, and (for satisfiable queries) extracts
//! a [`Model`] over exactly the symbolic constants appearing in the query.
//!
//! The `*_full` variants additionally surface per-query [`QueryStats`]
//! (conflicts, decisions, propagations, learned clauses, blasted clause
//! count) and accept a cooperative cancellation flag: raising it stops
//! a running search, which then answers `Interrupted`.

use crate::blast::Blaster;
use crate::bv::SBool;
use crate::model::Model;
use crate::term::{with_ctx, Op, Sort, TermId};
use serval_check::sim;
use serval_sat::{ProofLog, Rephase, SolveResult, Solver, StepKind};
use std::collections::HashSet;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for a solver call.
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Abort with `Unknown` after this many SAT conflicts. Serval's
    /// evaluation uses this to demonstrate that proofs without symbolic
    /// optimizations time out (paper §6.4).
    pub conflict_budget: Option<u64>,
    /// Luby restart unit in conflicts (default: [`serval_sat::RESTART_BASE`]).
    pub restart_base: u64,
    /// VSIDS activity decay factor (default: [`serval_sat::VAR_DECAY`]).
    pub var_decay: f64,
    /// Initial saved phase for fresh SAT variables (default: `false`).
    pub default_phase: bool,
    /// Geometric restart series instead of Luby (default: `false`).
    pub restart_geometric: bool,
    /// Restart-boundary rephasing policy (default: [`Rephase::Off`]).
    pub rephase: Rephase,
    /// SatELite-style SAT inprocessing (default: on).
    pub inprocess: bool,
    /// Plaisted–Greenbaum polarity-aware CNF (default: on).
    pub polarity: bool,
    /// Plan-scoped variable elimination inside incremental sessions
    /// (default: on; off restricts sessions' inprocessing to the
    /// level-0 cleanup). Ignored by fresh per-query solves,
    /// which always eliminate when `inprocess` is on.
    pub session_bve: bool,
    /// Retired: every logged proof step carries LRAT-style hints, and
    /// the certificate checker walks them instead of searching, so
    /// hints are not a choice. Ignored, and left out of session-group
    /// keys; the field stays only because `benchmark/` spells out every
    /// field (ROADMAP item 3 deletes it).
    pub lrat: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            conflict_budget: None,
            restart_base: serval_sat::RESTART_BASE,
            var_decay: serval_sat::VAR_DECAY,
            default_phase: false,
            restart_geometric: false,
            rephase: Rephase::Off,
            inprocess: true,
            polarity: true,
            session_bve: true,
            lrat: true,
        }
    }
}

/// Per-query solver statistics, surfaced instead of discarded so the
/// profiler and the proof reports can show where solving time went.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryStats {
    /// SAT conflicts encountered.
    pub conflicts: u64,
    /// SAT decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses in the database at the end of the solve.
    pub learnts: u64,
    /// Clauses produced by bit-blasting (plus learnt, minus deleted).
    /// For session goals this is the *newly encoded* delta for the goal,
    /// not the solver's running total (see `reused_clauses`).
    pub clauses: usize,
    /// SAT variables allocated by bit-blasting. For session goals this
    /// is the delta, like `clauses`.
    pub vars: usize,
    /// Clauses carried over from earlier goals in the same incremental
    /// session (0 for a fresh per-query solve).
    pub reused_clauses: usize,
    /// SAT variables carried over from earlier goals in the same session.
    pub reused_vars: usize,
    /// Learnt clauses retained from earlier goals in the same session.
    pub reused_learnts: u64,
    /// 1-based position of this goal within its session; 0 for a fresh
    /// per-query solve.
    pub session_goals: u64,
    /// Term-DAG nodes in the query before presolve (0 = presolve off).
    pub presolve_terms_in: usize,
    /// Term-DAG nodes in the query after presolve.
    pub presolve_terms_out: usize,
    /// Symbolic constants in the query before presolve.
    pub presolve_vars_in: usize,
    /// Symbolic constants in the query after presolve.
    pub presolve_vars_out: usize,
    /// Variables removed by bounded variable elimination (net of
    /// reintroductions; 0 = inprocessing off or nothing eliminated).
    pub eliminated_vars: u64,
    /// Always 0: the SAT solver no longer runs backward subsumption.
    /// Kept because the benchmark and the `net` wire codec read it.
    pub subsumed: u64,
    /// Always 0: the SAT solver no longer runs self-subsuming
    /// resolution. Kept for the same readers as `subsumed`.
    pub strengthened: u64,
    /// Resolvents added by variable elimination.
    pub resolvents: u64,
    /// Proof-certificate steps checked for this query (0 = uncertified).
    pub cert_steps: u64,
    /// Time the independent certificate checker spent on this query's
    /// proof: the checking thread's own CPU time, so time it spent
    /// descheduled behind the solving workers is not counted (wall time
    /// where the platform has no per-thread CPU clock). The name is
    /// kept because the benchmark reads the field.
    pub cert_wall: Duration,
    /// Wall time of the whole check (blast + solve + model extraction).
    pub wall: Duration,
}

impl QueryStats {
    /// Adds `other`'s counters and wall times onto `self`: the one sum
    /// of this struct. `session_goals` is a position, not a count, and
    /// is left to the caller — the engine keeps the deepest, the reports
    /// count how many queries ran inside a session.
    pub fn absorb(&mut self, other: &QueryStats) {
        // Destructured so a new field cannot be left out silently.
        let QueryStats {
            conflicts,
            decisions,
            propagations,
            restarts,
            learnts,
            clauses,
            vars,
            reused_clauses,
            reused_vars,
            reused_learnts,
            session_goals: _,
            presolve_terms_in,
            presolve_terms_out,
            presolve_vars_in,
            presolve_vars_out,
            eliminated_vars,
            subsumed: _,
            strengthened: _,
            resolvents,
            cert_steps,
            cert_wall,
            wall,
        } = *other;
        self.conflicts += conflicts;
        self.decisions += decisions;
        self.propagations += propagations;
        self.restarts += restarts;
        self.learnts += learnts;
        self.clauses += clauses;
        self.vars += vars;
        self.reused_clauses += reused_clauses;
        self.reused_vars += reused_vars;
        self.reused_learnts += reused_learnts;
        self.presolve_terms_in += presolve_terms_in;
        self.presolve_terms_out += presolve_terms_out;
        self.presolve_vars_in += presolve_vars_in;
        self.presolve_vars_out += presolve_vars_out;
        self.eliminated_vars += eliminated_vars;
        self.resolvents += resolvents;
        self.cert_steps += cert_steps;
        self.cert_wall += cert_wall;
        self.wall += wall;
    }

    /// One-line rendering used by proof reports and the profiler.
    pub fn render(&self) -> String {
        let mut line = format!(
            "conflicts={} decisions={} props={} restarts={} learnts={} clauses={} vars={}",
            self.conflicts,
            self.decisions,
            self.propagations,
            self.restarts,
            self.learnts,
            self.clauses,
            self.vars
        );
        if self.session_goals > 0 {
            line.push_str(&format!(
                " session_goal={} reused_clauses={} reused_vars={} reused_learnts={}",
                self.session_goals, self.reused_clauses, self.reused_vars, self.reused_learnts
            ));
        }
        if self.presolve_terms_in > 0 {
            line.push_str(&format!(
                " presolve_terms={}->{} presolve_vars={}->{}",
                self.presolve_terms_in,
                self.presolve_terms_out,
                self.presolve_vars_in,
                self.presolve_vars_out
            ));
        }
        if self.eliminated_vars + self.resolvents > 0 {
            line.push_str(&format!(
                " elim_vars={} resolvents={}",
                self.eliminated_vars, self.resolvents
            ));
        }
        if self.cert_steps > 0 {
            line.push_str(&format!(
                " cert_steps={} cert_ms={}",
                self.cert_steps,
                self.cert_wall.as_millis()
            ));
        }
        line
    }
}

/// Result of a satisfiability check.
#[derive(Debug)]
pub enum CheckResult {
    /// Satisfiable, with a model.
    Sat(Box<Model>),
    /// Unsatisfiable.
    Unsat,
    /// Budget exhausted.
    Unknown,
    /// Cancelled via the cooperative interrupt flag.
    Interrupted,
}

/// Result of a verification query.
#[derive(Debug)]
pub enum VerifyResult {
    /// The goal holds under the assumptions.
    Proved,
    /// The goal fails; the model is a counterexample.
    Counterexample(Box<Model>),
    /// Budget exhausted.
    Unknown,
    /// Cancelled via the cooperative interrupt flag.
    Interrupted,
}

impl VerifyResult {
    /// Whether the query was proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, VerifyResult::Proved)
    }
}

/// A [`CheckResult`] paired with its solve statistics.
#[derive(Debug)]
pub struct CheckOutcome {
    /// The verdict.
    pub result: CheckResult,
    /// Statistics of the solve that produced it.
    pub stats: QueryStats,
    /// DRAT-style proof log backing an `Unsat` verdict; present only
    /// when the check ran via [`check_full_proof`].
    pub proof: Option<ProofLog>,
}

/// A [`VerifyResult`] paired with its solve statistics.
#[derive(Debug)]
pub struct VerifyOutcome {
    /// The verdict.
    pub result: VerifyResult,
    /// Statistics of the solve that produced it.
    pub stats: QueryStats,
}

/// Checks the conjunction of `assertions` for satisfiability.
pub fn check(assertions: &[SBool]) -> CheckResult {
    check_with(SolverConfig::default(), assertions)
}

/// [`check`] with an explicit configuration.
pub fn check_with(cfg: SolverConfig, assertions: &[SBool]) -> CheckResult {
    check_full(cfg, assertions, None).result
}

/// [`check`] with an explicit configuration, an optional cooperative
/// interrupt flag, and full statistics reporting.
pub fn check_full(
    cfg: SolverConfig,
    assertions: &[SBool],
    interrupt: Option<Arc<AtomicBool>>,
) -> CheckOutcome {
    check_full_impl(cfg, assertions, interrupt, false)
}

/// [`check_full`] with DRAT-style proof logging: an `Unsat` outcome
/// carries the certificate steps (see `serval-drat` for the checker).
pub fn check_full_proof(
    cfg: SolverConfig,
    assertions: &[SBool],
    interrupt: Option<Arc<AtomicBool>>,
) -> CheckOutcome {
    check_full_impl(cfg, assertions, interrupt, true)
}

/// The certificate of a query with a constant-false assertion: the
/// formula contains the empty clause (id 0), which refutes it outright
/// and hints the concluding empty clause.
pub fn trivial_refutation() -> ProofLog {
    let mut steps = ProofLog::new();
    steps.push(StepKind::Input, &[], &[]);
    steps.push(StepKind::Derived, &[], &[0]);
    steps
}

/// Buggify: strip the LRAT hints off every hinted proof step, as a
/// solver version skew or torn hint encoding would. The checker walks
/// hints and never searches, so it must reject such a certificate: the
/// verdict demotes to `Unknown`, never flips; the sim sweep pins that.
pub(crate) fn buggify_drop_hints(steps: &mut ProofLog) {
    if sim::buggify("lrat-drop-hint") {
        steps.drop_hints();
    }
}

fn check_full_impl(
    cfg: SolverConfig,
    assertions: &[SBool],
    interrupt: Option<Arc<AtomicBool>>,
    log_proof: bool,
) -> CheckOutcome {
    let start = Instant::now();
    let mut sat = Solver::new();
    sat.set_proof_logging(log_proof);
    sat.set_conflict_budget(cfg.conflict_budget);
    sat.set_restart_base(cfg.restart_base);
    sat.set_var_decay(cfg.var_decay);
    sat.set_default_phase(cfg.default_phase);
    sat.set_restart_geometric(cfg.restart_geometric);
    sat.set_rephase(cfg.rephase);
    // Buggify: degrade inprocessing to a no-op, as a skipped maintenance
    // round under pressure would. Inprocessing is an equisatisfiable
    // rewrite, so every verdict must be identical with or without it —
    // the sim sweep pins that.
    sat.set_inprocess(cfg.inprocess && !sim::buggify("inprocess-skip"), true);
    sat.set_interrupt(interrupt);
    let mut blaster = Blaster::new();
    blaster.set_polarity(cfg.polarity);
    let mut stats = QueryStats::default();
    for a in assertions {
        // Fast path: a constant-false assertion needs no solving. The
        // synthesized certificate states exactly that: the formula
        // contains the empty clause, which refutes it outright.
        if a.is_false() {
            stats.wall = start.elapsed();
            let proof = log_proof.then(trivial_refutation);
            return CheckOutcome { result: CheckResult::Unsat, stats, proof };
        }
        blaster.assert_true(&mut sat, a.0);
    }
    blaster.finalize(&mut sat);
    let result = match sat.solve() {
        SolveResult::Unsat => CheckResult::Unsat,
        SolveResult::Unknown => CheckResult::Unknown,
        SolveResult::Interrupted => CheckResult::Interrupted,
        SolveResult::Sat => {
            let model = extract_model(&blaster, &sat, assertions.iter().map(|a| a.0));
            CheckResult::Sat(Box::new(model))
        }
    };
    let proof = (log_proof && matches!(result, CheckResult::Unsat)).then(|| {
        let mut steps = sat.take_proof();
        buggify_drop_hints(&mut steps);
        steps
    });
    let s = sat.stats();
    stats.conflicts = s.conflicts;
    stats.decisions = s.decisions;
    stats.propagations = s.propagations;
    stats.restarts = s.restarts;
    stats.learnts = s.learnts;
    stats.clauses = sat.num_clauses();
    stats.vars = sat.num_vars();
    stats.eliminated_vars = s.eliminated_vars;
    stats.resolvents = s.resolvents;
    stats.wall = start.elapsed();
    CheckOutcome { result, stats, proof }
}

/// Proves `goal` under `assumptions`: checks that `assumptions ∧ ¬goal` is
/// unsatisfiable.
pub fn verify(assumptions: &[SBool], goal: SBool) -> VerifyResult {
    verify_with(SolverConfig::default(), assumptions, goal)
}

/// [`verify`] with an explicit configuration.
pub fn verify_with(cfg: SolverConfig, assumptions: &[SBool], goal: SBool) -> VerifyResult {
    verify_full(cfg, assumptions, goal, None).result
}

/// [`verify`] with an explicit configuration, an optional cooperative
/// interrupt flag, and full statistics reporting.
pub fn verify_full(
    cfg: SolverConfig,
    assumptions: &[SBool],
    goal: SBool,
    interrupt: Option<Arc<AtomicBool>>,
) -> VerifyOutcome {
    let mut q: Vec<SBool> = assumptions.to_vec();
    q.push(!goal);
    let out = check_full(cfg, &q, interrupt);
    let result = match out.result {
        CheckResult::Unsat => VerifyResult::Proved,
        CheckResult::Sat(m) => VerifyResult::Counterexample(m),
        CheckResult::Unknown => VerifyResult::Unknown,
        CheckResult::Interrupted => VerifyResult::Interrupted,
    };
    VerifyOutcome { result, stats: out.stats }
}

/// Builds a [`Model`] for the symbolic constants reachable from `roots`.
pub(crate) fn extract_model(
    blaster: &Blaster,
    sat: &Solver,
    roots: impl Iterator<Item = TermId>,
) -> Model {
    let mut model = Model::default();
    // Walk the DAG for variable leaves.
    let mut seen: HashSet<TermId> = HashSet::new();
    let mut stack: Vec<TermId> = roots.collect();
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        let (is_var, children, sort) = with_ctx(|c| {
            let n = c.term(t);
            (matches!(n.op, Op::Var(_)), n.children.clone(), n.sort)
        });
        if is_var {
            match sort {
                Sort::Bool => {
                    if let Some(v) = blaster.read_bool(sat, t) {
                        model.set_bool(t, v);
                    }
                }
                Sort::BitVec(_) => {
                    if let Some(v) = blaster.read_bv(sat, t) {
                        model.set_bv(t, v);
                    }
                }
            }
        }
        stack.extend(children.iter().copied());
    }
    // UF interpretations from the Ackermann expansion (cone apps only —
    // in a session, retired goals' apps may be only partially assigned).
    for (uf, args, result) in blaster.read_uf_apps(sat, &seen) {
        model.uf_tables.entry(uf).or_default().insert(args, result);
    }
    model
}
