//! Proof reports: named theorems, verdicts, counterexamples, timing.
//!
//! Discharge goes through the process-wide [`serval_engine`] instance:
//! queries are normalized, deduplicated against the cache, and solved on
//! the engine's thread pool. [`discharge_batch`] is the preferred entry
//! point — a batch of independent theorems (split-cases handlers, UB
//! obligations, per-register equalities) is discharged concurrently, in
//! deterministic order.

use serval_engine::{Query, QueryOutcome};
use serval_smt::solver::{QueryStats, SolverConfig, VerifyResult};
use serval_smt::{Model, SBool};
use serval_sym::SymCtx;
use std::time::Duration;

/// The verdict for one theorem.
#[derive(Debug)]
pub enum Verdict {
    /// Proved valid.
    Proved,
    /// Disproved; holds the counterexample model and its rendering.
    Counterexample(Box<Model>, String),
    /// Not decided. Without a [`TheoremResult::reason`] the solver's
    /// budget ran out — the paper's "timeout" outcome (§6.4); otherwise
    /// the reason names what failed first: symbolic evaluation, a
    /// rejected certificate, a worker panic or a refused frame.
    Unknown,
    /// Solve cancelled cooperatively: the query's interrupt flag was
    /// raised before it finished.
    Interrupted,
}

impl Verdict {
    /// Whether the theorem was proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, Verdict::Proved)
    }
}

/// One proved (or failed) theorem.
#[derive(Debug)]
pub struct TheoremResult {
    /// Theorem name, e.g. `"refinement: spawn"`.
    pub name: String,
    /// Outcome.
    pub verdict: Verdict,
    /// Wall time of the solver query.
    pub time: Duration,
    /// Solver statistics (absent for cache hits and trivial queries).
    pub stats: Option<QueryStats>,
    /// Whether the verdict came from the engine's query cache.
    pub cache_hit: bool,
    /// Why an [`Verdict::Unknown`] is not a budget timeout, when it is
    /// not: the engine's error for the query, or the symbolic
    /// evaluation that failed before any query was built.
    pub reason: Option<String>,
}

/// A collection of theorem results for one verification run.
#[derive(Debug, Default)]
pub struct ProofReport {
    /// Individual theorem outcomes, in proof order.
    pub theorems: Vec<TheoremResult>,
}

impl ProofReport {
    /// Whether every theorem was proved.
    pub fn all_proved(&self) -> bool {
        self.theorems.iter().all(|t| t.verdict.is_proved())
    }

    /// Whether any theorem came back [`Verdict::Unknown`], for whatever
    /// reason.
    pub fn any_unknown(&self) -> bool {
        self.theorems
            .iter()
            .any(|t| matches!(t.verdict, Verdict::Unknown))
    }

    /// Merges another report into this one.
    pub fn extend(&mut self, other: ProofReport) {
        self.theorems.extend(other.theorems);
    }

    /// Aggregated solver statistics over all theorems that solved.
    pub fn solver_totals(&self) -> QueryStats {
        let mut total = QueryStats::default();
        for t in self.theorems.iter().filter_map(|t| t.stats.as_ref()) {
            total.absorb(t);
            // Count of theorems discharged inside a live session, not a
            // positional sum (per-theorem it is a 1-based position).
            total.session_goals += (t.session_goals > 0) as u64;
        }
        total
    }

    /// Number of theorems answered from the query cache.
    pub fn cache_hits(&self) -> usize {
        self.theorems.iter().filter(|t| t.cache_hit).count()
    }

    /// Renders a human-readable summary, including per-theorem solver
    /// statistics where a solve actually ran.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.theorems {
            let status = match &t.verdict {
                Verdict::Proved if t.cache_hit => "proved (cached)".to_string(),
                Verdict::Proved => "proved".to_string(),
                Verdict::Counterexample(_, cex) => format!("FAILED\n{cex}"),
                Verdict::Unknown => match &t.reason {
                    Some(reason) => format!("UNKNOWN ({reason})"),
                    None => "UNKNOWN (budget exhausted)".to_string(),
                },
                Verdict::Interrupted => "INTERRUPTED".to_string(),
            };
            out.push_str(&format!(
                "  [{:>8.2?}] {:<40} {}\n",
                t.time, t.name, status
            ));
            if let Some(stats) = &t.stats {
                out.push_str(&format!("             {}\n", stats.render()));
            }
        }
        out
    }

    /// The first failing theorem, if any.
    pub fn first_failure(&self) -> Option<&TheoremResult> {
        self.theorems.iter().find(|t| !t.verdict.is_proved())
    }
}

impl From<TheoremResult> for ProofReport {
    /// The report of a one-theorem proof.
    fn from(theorem: TheoremResult) -> ProofReport {
        ProofReport { theorems: vec![theorem] }
    }
}

/// One goal of a batch, proved under the context's assumptions.
pub struct NamedGoal {
    /// Theorem name.
    pub name: String,
    /// The goal.
    pub goal: SBool,
}

impl NamedGoal {
    /// A named goal.
    pub fn new(name: impl Into<String>, goal: SBool) -> NamedGoal {
        NamedGoal { name: name.into(), goal }
    }
}

fn outcome_to_theorem(ctx: Option<&SymCtx>, outcome: QueryOutcome) -> TheoremResult {
    if let (Some(ctx), Some(stats)) = (ctx, outcome.stats.as_ref()) {
        ctx.profiler.record_solver(stats);
    }
    let verdict = match outcome.result {
        VerifyResult::Proved => Verdict::Proved,
        VerifyResult::Counterexample(m) => {
            let rendering = m.render();
            Verdict::Counterexample(m, rendering)
        }
        VerifyResult::Unknown => Verdict::Unknown,
        VerifyResult::Interrupted => Verdict::Interrupted,
    };
    TheoremResult {
        name: outcome.label,
        verdict,
        time: outcome.wall,
        stats: outcome.stats,
        cache_hit: outcome.cache_hit,
        reason: outcome.error,
    }
}

/// Discharges one goal under the context's assumptions.
pub fn discharge(
    ctx: &SymCtx,
    cfg: SolverConfig,
    name: impl Into<String>,
    goal: SBool,
) -> TheoremResult {
    let assumptions = ctx.assumptions().to_vec();
    let outcome =
        serval_engine::discharger().submit(Query { label: name.into(), assumptions, goal, cfg });
    outcome_to_theorem(Some(ctx), outcome)
}

/// Submits `queries` as one batch; the solves feed `ctx`'s profiler,
/// when there is one context.
fn submit(ctx: Option<&SymCtx>, queries: Vec<Query>) -> ProofReport {
    let outcomes = serval_engine::discharger().submit_batch(queries);
    ProofReport { theorems: outcomes.into_iter().map(|o| outcome_to_theorem(ctx, o)).collect() }
}

/// Discharges a batch of independent goals, sharing the context's
/// assumptions, concurrently on the engine. Results come back in the
/// order given.
pub fn discharge_batch(
    ctx: &SymCtx,
    cfg: SolverConfig,
    goals: Vec<NamedGoal>,
) -> ProofReport {
    let base = ctx.assumptions();
    let queries = goals
        .into_iter()
        .map(|g| Query { label: g.name, assumptions: base.to_vec(), goal: g.goal, cfg })
        .collect();
    submit(Some(ctx), queries)
}

/// Discharges a batch of fully explicit queries (each with its own
/// assumption set), for proofs that build several contexts — e.g. the
/// per-operation noninterference lemmas.
pub fn discharge_queries(
    cfg: SolverConfig,
    items: Vec<(String, Vec<SBool>, SBool)>,
) -> ProofReport {
    let queries = items
        .into_iter()
        .map(|(label, assumptions, goal)| Query { label, assumptions, goal, cfg })
        .collect();
    submit(None, queries)
}

/// Discharges every collected obligation (e.g. `bug_on` checks) in `ctx`,
/// consuming them — as one concurrent batch.
pub fn discharge_obligations(
    ctx: &mut SymCtx,
    cfg: SolverConfig,
    prefix: &str,
) -> ProofReport {
    let goals = ctx.take_obligations().into_iter();
    let goals = goals.map(|ob| NamedGoal::new(format!("{prefix}{}", ob.label), ob.condition));
    discharge_batch(ctx, cfg, goals.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serval_smt::{reset_ctx, BV};

    #[test]
    fn discharge_routes_through_engine_and_feeds_the_profiler() {
        reset_ctx();
        let mut ctx = SymCtx::new();
        let x = BV::fresh(8, "x");
        ctx.assume(x.ult(BV::lit(8, 10)));
        // The goal needs the assumption *relationally* (x + 1 cannot
        // wrap because x < 10), so word-level presolve cannot fold it
        // away and a real solve must run.
        let t = discharge(&ctx, SolverConfig::default(), "bounded", x.ult(x + BV::lit(8, 1)));
        assert!(t.verdict.is_proved(), "x < 10 implies x < x + 1");
        assert!(t.stats.is_some(), "a real solve must surface its stats");
        assert!(ctx.profiler.solver_queries() >= 1);
        assert!(
            ctx.profiler.render().contains("solver:"),
            "profiler report must include the solver summary line"
        );
    }

    #[test]
    fn batch_preserves_order_and_reports_totals() {
        reset_ctx();
        let mut ctx = SymCtx::new();
        let x = BV::fresh(8, "x");
        let y = BV::fresh(8, "y");
        ctx.assume(x.ult(BV::lit(8, 4)));
        let report = discharge_batch(
            &ctx,
            SolverConfig::default(),
            vec![
                NamedGoal::new("first", x.ult(BV::lit(8, 8))),
                NamedGoal::new("second", ((x & y) + (x | y)).eq_(x + y)),
                NamedGoal::new("fails", x.eq_(y)),
            ],
        );
        let names: Vec<&str> =
            report.theorems.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["first", "second", "fails"]);
        assert!(report.theorems[0].verdict.is_proved());
        assert!(report.theorems[1].verdict.is_proved());
        assert!(matches!(
            report.theorems[2].verdict,
            Verdict::Counterexample(..)
        ));
        assert!(report.first_failure().unwrap().name == "fails");
        assert!(report.solver_totals().vars > 0);
    }

    #[test]
    fn an_unknown_outcome_keeps_its_reason() {
        let outcome = |error: Option<&str>| QueryOutcome {
            label: "rejected".into(),
            result: VerifyResult::Unknown,
            stats: None,
            wall: Duration::ZERO,
            cache_hit: false,
            cert: None,
            error: error.map(String::from),
        };
        let why = "certificate rejected: step 7 is not implied by its hints";
        let report = ProofReport::from(outcome_to_theorem(None, outcome(Some(why))));
        assert!(report.any_unknown());
        assert_eq!(report.theorems[0].reason.as_deref(), Some(why));
        let rendered = report.render();
        assert!(rendered.contains(&format!("UNKNOWN ({why})")), "{rendered}");
        assert!(!rendered.contains("budget exhausted"), "{rendered}");

        let timeout = ProofReport::from(outcome_to_theorem(None, outcome(None)));
        assert!(timeout.render().contains("UNKNOWN (budget exhausted)"));
    }
}
