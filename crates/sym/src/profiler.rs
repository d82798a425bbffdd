//! The symbolic profiler (paper §3.2).
//!
//! Symbolic evaluation has no useful wall-clock hot spots: the expensive
//! regions are the ones that *split paths*, *merge states*, and *create
//! terms*, because those determine both evaluation time and the difficulty
//! of the final SMT query. The profiler attributes those events to labelled
//! regions and ranks regions by a score, reproducing the workflow the paper
//! uses to find the symbolic-pc bottleneck in the ToyRISC verifier.

use serval_smt::with_ctx;
use serval_smt::QueryStats;
use std::cell::Cell;
use std::collections::HashMap;
use std::time::Instant;

/// Statistics for one labelled region, summed over all its invocations.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegionStats {
    /// Number of times the region was entered.
    pub calls: u64,
    /// Path splits (branches with a symbolic condition) inside the region.
    pub splits: u64,
    /// State merges inside the region.
    pub merges: u64,
    /// Terms interned while inside the region.
    pub terms_created: u64,
    /// Wall time spent inside the region, nanoseconds.
    pub wall_ns: u64,
}

impl RegionStats {
    /// The ranking score: a weighted combination of the signals the paper
    /// reports (splits and merges dominate; term creation tie-breaks).
    pub fn score(&self) -> f64 {
        self.splits as f64 * 100.0 + self.merges as f64 * 10.0 + self.terms_created as f64
    }
}

/// One row of a profiler report.
#[derive(Clone, Debug)]
pub struct RegionReport {
    /// The region label.
    pub label: String,
    /// Aggregated statistics.
    pub stats: RegionStats,
}

struct Frame {
    label: String,
    start_terms: usize,
    start_splits: u64,
    start_merges: u64,
    start_time: Instant,
}

/// Collects per-region statistics; owned by [`crate::SymCtx`].
pub struct Profiler {
    regions: HashMap<String, RegionStats>,
    frames: Vec<Frame>,
    total_splits: u64,
    total_merges: u64,
    // Solver-side totals, recorded through `&self` (discharge only holds
    // a shared borrow of the context), hence the `Cell`s: the sum of the
    // recorded queries' stats, how many there were, and how many of them
    // ran inside a live session.
    solver: Cell<QueryStats>,
    solver_queries: Cell<u64>,
    solver_session_queries: Cell<u64>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Profiler {
        Profiler {
            regions: HashMap::new(),
            frames: Vec::new(),
            total_splits: 0,
            total_merges: 0,
            solver: Cell::new(QueryStats::default()),
            solver_queries: Cell::new(0),
            solver_session_queries: Cell::new(0),
        }
    }

    /// Folds one discharged query's solver statistics into the totals.
    pub fn record_solver(&self, stats: &QueryStats) {
        let mut total = self.solver.get();
        total.absorb(stats);
        self.solver.set(total);
        self.solver_queries.set(self.solver_queries.get() + 1);
        if stats.session_goals > 0 {
            self.solver_session_queries
                .set(self.solver_session_queries.get() + 1);
        }
    }

    /// Number of solver queries recorded via [`Profiler::record_solver`].
    pub fn solver_queries(&self) -> u64 {
        self.solver_queries.get()
    }

    /// Total path splits recorded.
    pub fn total_splits(&self) -> u64 {
        self.total_splits
    }

    /// Total state merges recorded.
    pub fn total_merges(&self) -> u64 {
        self.total_merges
    }

    pub(crate) fn record_split(&mut self) {
        self.record_splits(1);
    }

    pub(crate) fn record_splits(&mut self, n: usize) {
        self.total_splits += n as u64;
        if let Some(f) = self.frames.last() {
            let label = f.label.clone();
            self.regions.entry(label).or_default().splits += n as u64;
        }
    }

    pub(crate) fn record_merge(&mut self) {
        self.total_merges += 1;
        if let Some(f) = self.frames.last() {
            let label = f.label.clone();
            self.regions.entry(label).or_default().merges += 1;
        }
    }

    pub(crate) fn enter(&mut self, label: &str) {
        self.regions.entry(label.to_string()).or_default().calls += 1;
        self.frames.push(Frame {
            label: label.to_string(),
            start_terms: with_ctx(|c| c.num_terms()),
            start_splits: self.total_splits,
            start_merges: self.total_merges,
            start_time: Instant::now(),
        });
    }

    pub(crate) fn exit(&mut self, label: &str) {
        let f = self.frames.pop().expect("profiler exit without enter");
        assert_eq!(f.label, label, "mismatched profiler region nesting");
        let terms = with_ctx(|c| c.num_terms()) - f.start_terms;
        let stats = self.regions.entry(f.label).or_default();
        stats.terms_created += terms as u64;
        stats.wall_ns += f.start_time.elapsed().as_nanos() as u64;
        // Splits/merges are attributed to the innermost frame as they
        // happen; re-attribute the child's counts to the parent too, so
        // outer regions subsume inner ones like a call-tree profile.
        let child_splits = self.total_splits - f.start_splits;
        let child_merges = self.total_merges - f.start_merges;
        if let Some(parent) = self.frames.last() {
            let label = parent.label.clone();
            let p = self.regions.entry(label).or_default();
            p.splits += child_splits;
            p.merges += child_merges;
        }
    }

    /// Regions ranked by score, highest (most suspicious) first.
    pub fn report(&self) -> Vec<RegionReport> {
        let mut rows: Vec<RegionReport> = self
            .regions
            .iter()
            .map(|(label, &stats)| RegionReport {
                label: label.clone(),
                stats,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.stats
                .score()
                .partial_cmp(&a.stats.score())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<28} {:>6} {:>8} {:>8} {:>10} {:>10}\n",
            "region", "calls", "splits", "merges", "terms", "score"
        );
        for row in self.report() {
            out.push_str(&format!(
                "{:<28} {:>6} {:>8} {:>8} {:>10} {:>10.0}\n",
                row.label,
                row.stats.calls,
                row.stats.splits,
                row.stats.merges,
                row.stats.terms_created,
                row.stats.score()
            ));
        }
        if self.solver_queries.get() > 0 {
            let total = self.solver.get();
            out.push_str(&format!(
                "solver: {} queries, {} conflicts, {} decisions, {} propagations, \
                 {} learned, {} clauses blasted, {:.1} ms\n",
                self.solver_queries.get(),
                total.conflicts,
                total.decisions,
                total.propagations,
                total.learnts,
                total.clauses,
                total.wall.as_nanos() as f64 / 1e6,
            ));
            if self.solver_session_queries.get() > 0 {
                out.push_str(&format!(
                    "incremental: {} of {} queries in live sessions, \
                     {} clauses and {} learnts reused\n",
                    self.solver_session_queries.get(),
                    self.solver_queries.get(),
                    total.reused_clauses,
                    total.reused_learnts,
                ));
            }
            if total.presolve_terms_in > 0 {
                let (tin, tout) = (total.presolve_terms_in, total.presolve_terms_out);
                out.push_str(&format!(
                    "presolve: {} terms in -> {} out ({:.0}% shrink)\n",
                    tin,
                    tout,
                    (1.0 - tout as f64 / tin as f64) * 100.0,
                ));
            }
            if total.eliminated_vars + total.resolvents > 0 {
                out.push_str(&format!(
                    "inprocess: {} vars eliminated ({} resolvents)\n",
                    total.eliminated_vars, total.resolvents,
                ));
            }
        }
        out
    }
}
