//! The traced run's extra stages, all outside the timed window: the
//! stage replay (captured queries re-driven through presolve, normal
//! form, wire codec, blasting, search and certified solve, one public
//! function at a time) and the frontend probe (compile + symbolic
//! evaluation of one monitor call under a `SymCtx` whose profiler the
//! benchmark can read).

use crate::metrics::Rng;
use crate::seam::Sample;
use crate::workloads::Monitor;
use serval_core::OptCfg;
use serval_engine::form::{
    prepare, prepare_wire, rebuild, rebuild_wire, split_goal, wire_bytes, wire_from_bytes, FormCore,
};
use serval_engine::solve::solve_one;
use serval_ir::OptLevel;
use serval_monitors::{certikos, komodo};
use serval_riscv::{reg, Machine};
use serval_sat::Solver;
use serval_smt::blast::Blaster;
use serval_smt::presolve::{measure, presolve_base, simplify_goal_cached, GoalCache};
use serval_smt::solver::SolverConfig;
use serval_smt::{reset_ctx, SBool, BV};
use serval_sym::SymCtx;
use std::time::{Duration, Instant};

/// The engine's own cap on conjuncts per split goal.
const SPLIT_CAP: usize = 512;

#[derive(Default)]
pub struct Replay {
    pub samples: u64,
    pub wire_encode: Duration,
    pub wire_decode: Duration,
    pub wire_bytes: u64,
    pub normalize: Duration,
    pub key_bytes: u64,
    pub keys: u64,
    pub presolve: Duration,
    pub terms_in: u64,
    pub terms_out: u64,
    /// Non-trivial cores the samples split into / how many were solved
    /// before the replay budget ran out.
    pub cores: u64,
    pub cores_replayed: u64,
    pub blast: Duration,
    pub blast_vars: u64,
    pub blast_clauses: u64,
    pub search: Duration,
    /// Σ `solve_one` wall with proof logging on, certificate check excluded.
    pub logged_solve: Duration,
    /// (stage name, start, end) relative to `epoch`, for the trace file.
    pub spans: Vec<(&'static str, u64, u64)>,
}

impl Replay {
    /// Σ (certified solve) − Σ (blast + search without logging), floored
    /// at zero: what writing the proof costs the solver.
    pub fn proof_log(&self) -> Duration {
        self.logged_solve.saturating_sub(self.blast + self.search)
    }
}

struct Stage<'a> {
    out: &'a mut Replay,
    epoch: Instant,
}

impl Stage<'_> {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let start = self.epoch.elapsed();
        let r = f();
        let end = self.epoch.elapsed();
        self.out
            .spans
            .push((name, start.as_nanos() as u64, end.as_nanos() as u64));
        (r, end - start)
    }
}

/// Re-drives `samples` stage by stage. Runs on a scratch thread because
/// `rebuild_wire`/`rebuild`/`solve_one` reset the thread's term context.
/// The cheap stages cover every sample; the solver stages take cores in
/// seed order until `budget` is spent.
pub fn stage_replay(samples: &[Sample], seed: u64, budget: Duration, epoch: Instant) -> Replay {
    let mut out = Replay::default();
    std::thread::scope(|s| {
        let handle = s.spawn(|| {
            let mut st = Stage {
                out: &mut out,
                epoch,
            };
            let mut cores: Vec<(FormCore, SolverConfig)> = Vec::new();
            for sample in samples {
                front_stages(&mut st, sample, &mut cores);
            }
            st.out.cores = cores.len() as u64;
            Rng(seed).shuffle(&mut cores);
            let began = Instant::now();
            for (core, cfg) in &cores {
                if began.elapsed() >= budget {
                    break;
                }
                solver_stages(&mut st, core, *cfg);
            }
        });
        handle.join().expect("the replay thread does not panic");
    });
    out
}

fn front_stages(st: &mut Stage, sample: &Sample, cores: &mut Vec<(FormCore, SolverConfig)>) {
    st.out.samples += 1;
    reset_ctx();
    let (rebuilt, dt) = st.time("replay.wire_decode", || {
        let core = wire_from_bytes(&sample.bytes).expect("bytes the benchmark encoded decode");
        rebuild_wire(&core)
    });
    st.out.wire_decode += dt;
    let (bytes, dt) = st.time("replay.wire_encode", || {
        wire_bytes(&prepare_wire(&rebuilt.assumptions, rebuilt.goal).core)
    });
    st.out.wire_encode += dt;
    st.out.wire_bytes += bytes.len() as u64;
    // The raw-key probe every non-trivial query pays, warm or cold.
    let (raw, dt) = st.time("replay.normalize", || {
        prepare(&rebuilt.assumptions, rebuilt.goal)
    });
    st.out.normalize += dt;
    st.out.key_bytes += raw.key.len() as u64;
    st.out.keys += 1;
    if !sample.solved {
        return;
    }
    let terms = |roots: &[SBool], goal: SBool| {
        measure(roots.iter().map(|a| a.0).chain([goal.0])).terms as u64
    };
    st.out.terms_in += terms(&rebuilt.assumptions, rebuilt.goal);
    let ((base, goal), dt) = st.time("replay.presolve", || {
        let base = presolve_base(&rebuilt.assumptions);
        let goal = simplify_goal_cached(&base, rebuilt.goal, &mut GoalCache::default());
        (base, goal)
    });
    st.out.presolve += dt;
    st.out.terms_out += terms(&base.roots, goal);
    let (_, dt) = st.time("replay.normalize", || {
        for conjunct in split_goal(goal, SPLIT_CAP) {
            let p = prepare(&base.roots, conjunct);
            if !p.core.trivially_unsat {
                cores.push((p.core, sample.cfg));
            }
        }
    });
    st.out.normalize += dt;
}

fn solver_stages(st: &mut Stage, core: &FormCore, cfg: SolverConfig) {
    st.out.cores_replayed += 1;
    reset_ctx();
    let rq = rebuild(core);
    // The same solver set-up `smt::solver::check_full` does, with proof
    // logging off, split so blasting and search are timed apart.
    let mut sat = Solver::new();
    sat.set_conflict_budget(cfg.conflict_budget);
    sat.set_restart_base(cfg.restart_base);
    sat.set_var_decay(cfg.var_decay);
    sat.set_default_phase(cfg.default_phase);
    sat.set_restart_geometric(cfg.restart_geometric);
    sat.set_rephase(cfg.rephase);
    sat.set_inprocess(cfg.inprocess, true);
    let mut blaster = Blaster::new();
    blaster.set_polarity(cfg.polarity);
    let (_, dt) = st.time("replay.blast", || {
        for r in &rq.roots {
            blaster.assert_true(&mut sat, r.0);
        }
        blaster.finalize(&mut sat);
    });
    st.out.blast += dt;
    st.out.blast_vars += sat.num_vars() as u64;
    st.out.blast_clauses += sat.num_clauses() as u64;
    let (_, dt) = st.time("replay.search", || std::hint::black_box(sat.solve()));
    st.out.search += dt;
    let (outcome, _) = st.time("replay.solve_one", || solve_one(core, cfg, None, true));
    st.out.logged_solve += outcome.stats.wall;
}

pub struct FrontendProbe {
    pub compile: Duration,
    pub splits: u64,
    pub merges: u64,
}

/// Compiles the monitor and symbolically evaluates one call, the way
/// `prove_op` starts, but under a `SymCtx` the benchmark owns, so the
/// profiler's split and merge totals are readable.
pub fn frontend_probe(monitor: Monitor, level: OptLevel, op: u64) -> FrontendProbe {
    let opt = OptCfg::default();
    reset_ctx();
    let t0 = Instant::now();
    let interp = match monitor {
        Monitor::Certikos => certikos::build(level, opt),
        Monitor::Komodo => komodo::build(level, opt),
    };
    let compile = t0.elapsed();
    let mut ctx = SymCtx::new();
    let (mut mem, base) = match monitor {
        Monitor::Certikos => (certikos::fresh_mem(), certikos::CODE_BASE),
        Monitor::Komodo => (komodo::fresh_mem(), komodo::CODE_BASE),
    };
    mem.cfg.concretize_offsets = opt.concretize_offsets;
    let mut m = Machine::fresh_at(base, mem, "m");
    ctx.assume(match monitor {
        Monitor::Certikos => certikos::spec::abstraction(&m.mem).invariant(),
        Monitor::Komodo => komodo::spec::abstraction(&m.mem).invariant(),
    });
    m.set_reg(reg::A7, BV::lit(64, op as u128));
    let outcome = interp.run(&mut ctx, &mut m);
    assert!(
        outcome.ok(),
        "frontend probe: symbolic evaluation did not complete"
    );
    FrontendProbe {
        compile,
        splits: ctx.profiler.total_splits(),
        merges: ctx.profiler.total_merges(),
    }
}
