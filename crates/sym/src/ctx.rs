//! The symbolic evaluation context: path conditions, branching,
//! obligations, and profiling hooks.

use crate::merge::Merge;
use crate::profiler::Profiler;
use serval_smt::SBool;

/// A proof obligation collected during symbolic evaluation.
///
/// `condition` must be *valid* (true in all models satisfying the global
/// assumptions); the path condition at collection time is already folded
/// in. `bug_on` checks, memory-model side conditions (paper §4), and
/// user assertions all become obligations.
#[derive(Clone, Debug)]
pub struct Obligation {
    /// The formula that must be proved valid.
    pub condition: SBool,
    /// Human-readable provenance for counterexample reports.
    pub label: String,
}

/// The evaluation context threaded through lifted interpreters.
pub struct SymCtx {
    /// Stack of branch conditions from enclosing `branch`/`with_path`.
    path: Vec<SBool>,
    /// Background assumptions (e.g. representation invariants).
    assumptions: Vec<SBool>,
    /// Collected proof obligations.
    obligations: Vec<Obligation>,
    /// The symbolic profiler.
    pub profiler: Profiler,
}

impl Default for SymCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl SymCtx {
    /// Creates a fresh context with an empty path condition.
    pub fn new() -> SymCtx {
        SymCtx {
            path: Vec::new(),
            assumptions: Vec::new(),
            obligations: Vec::new(),
            profiler: Profiler::new(),
        }
    }

    /// The current path condition as a single formula.
    pub fn path_condition(&self) -> SBool {
        self.path
            .iter()
            .fold(SBool::lit(true), |acc, &c| acc & c)
    }

    /// Adds a background assumption for all subsequent obligations and
    /// queries (e.g. a representation invariant over the initial state).
    pub fn assume(&mut self, c: SBool) {
        self.assumptions.push(c);
    }

    /// The background assumptions.
    pub fn assumptions(&self) -> &[SBool] {
        &self.assumptions
    }

    /// Records the obligation that `c` holds on the current path.
    pub fn require(&mut self, c: SBool, label: impl Into<String>) {
        let cond = self.path_condition().implies(c);
        self.obligations.push(Obligation {
            condition: cond,
            label: label.into(),
        });
    }

    /// The obligations collected so far.
    pub fn obligations(&self) -> &[Obligation] {
        &self.obligations
    }

    /// Removes and returns all collected obligations.
    pub fn take_obligations(&mut self) -> Vec<Obligation> {
        std::mem::take(&mut self.obligations)
    }

    /// Runs `f` with `c` pushed onto the path condition.
    pub fn with_path<R>(&mut self, c: SBool, f: impl FnOnce(&mut SymCtx) -> R) -> R {
        self.path.push(c);
        let r = f(self);
        self.path.pop();
        r
    }

    /// Whether `c` is definitely false on the current path — a cheap,
    /// purely syntactic feasibility check (no solver call), mirroring
    /// Rosette's evaluation-time pruning.
    pub fn infeasible(&self, c: SBool) -> bool {
        if c.is_false() {
            return true;
        }
        // The same condition (or its negation) already on the path.
        self.path.iter().any(|&p| p == !c)
    }

    /// Evaluates a symbolic branch, merging the resulting states.
    ///
    /// With a concrete condition only one arm runs (partial evaluation);
    /// with a symbolic condition both arms run on clones of `state` under
    /// the refined path conditions and the results are merged with `ite`
    /// terms — Rosette's hybrid strategy (paper §3.2).
    pub fn branch<S: Merge, R: Merge>(
        &mut self,
        cond: SBool,
        state: &mut S,
        then_f: impl FnOnce(&mut SymCtx, &mut S) -> R,
        else_f: impl FnOnce(&mut SymCtx, &mut S) -> R,
    ) -> R {
        if let Some(b) = cond.as_const() {
            return if b {
                then_f(self, state)
            } else {
                else_f(self, state)
            };
        }
        if self.infeasible(cond) {
            return else_f(self, state);
        }
        if self.infeasible(!cond) {
            return then_f(self, state);
        }
        self.profiler.record_split();
        let mut then_state = state.clone();
        let then_r = self.with_path(cond, |ctx| then_f(ctx, &mut then_state));
        let else_r = self.with_path(!cond, |ctx| else_f(ctx, state));
        self.profiler.record_merge();
        *state = S::merge(cond, &then_state, state);
        R::merge(cond, &then_r, &else_r)
    }

    /// Evaluates `f` once per case, cloning the state, and merges all
    /// results. Cases whose guard is infeasible on the current path are
    /// skipped. This is the engine under `split_pc` (paper §4).
    pub fn split<S: Merge, R: Merge, T: Copy>(
        &mut self,
        state: &mut S,
        cases: &[(SBool, T)],
        mut f: impl FnMut(&mut SymCtx, &mut S, T) -> R,
    ) -> R {
        let feasible: Vec<&(SBool, T)> =
            cases.iter().filter(|(g, _)| !self.infeasible(*g)).collect();
        assert!(!feasible.is_empty(), "split with no feasible case");
        if feasible.len() > 1 {
            self.profiler.record_splits(feasible.len() - 1);
        }
        let mut merged: Option<(SBool, S, R)> = None;
        for &&(guard, payload) in feasible.iter().rev() {
            let mut s = state.clone();
            let r = self.with_path(guard, |ctx| f(ctx, &mut s, payload));
            merged = Some(match merged {
                None => (guard, s, r),
                Some((_, ms, mr)) => {
                    self.profiler.record_merge();
                    (guard, S::merge(guard, &s, &ms), R::merge(guard, &r, &mr))
                }
            });
        }
        let (_, s, r) = merged.unwrap();
        *state = s;
        r
    }

    /// Profiles region `label` around `f` (paper §3.2). Splits, merges,
    /// term creation, and wall time inside `f` are attributed to `label`.
    pub fn profile<R>(&mut self, label: &str, f: impl FnOnce(&mut SymCtx) -> R) -> R {
        self.profiler.enter(label);
        let r = f(self);
        self.profiler.exit(label);
        r
    }
}
