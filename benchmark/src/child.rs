//! One rep of one workload, in this process: clean globals, cold caches,
//! its own `VmHWM`. The parent spawns one child per rep and reads the
//! single JSON line this prints.

use crate::expected::Expected;
use crate::json::Json;
use crate::metrics::{median, percentile, sorted, Rng, Values};
use crate::replay::{frontend_probe, stage_replay, Replay};
use crate::seam::{Counters, Seam, Trace};
use crate::sys;
use crate::workloads::{self, Fresh, Item, Plan};
use serval_engine::{Discharge, DischargeMode, Engine, EngineCfg};
use serval_net::{Client, NetCfg, RemoteEngine, Server};
use serval_smt::solver::SolverConfig;
use serval_smt::Rephase;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    /// Stop after set-up and report only `setup_s`.
    pub setup_only: bool,
    /// When the parent spawned this process ([`sys::epoch_ns`]).
    pub t0_ns: u128,
    pub expected_dir: Option<PathBuf>,
    pub out_dir: PathBuf,
}

// The three configurations, spelled out field by field: the benchmark
// never builds one from the environment or from `Default`, which reads
// the environment.

pub fn solver_cfg() -> SolverConfig {
    SolverConfig {
        conflict_budget: None,
        restart_base: 128,
        var_decay: 0.95,
        default_phase: false,
        restart_geometric: false,
        rephase: Rephase::Off,
        inprocess: true,
        polarity: true,
        session_bve: true,
        lrat: true,
    }
}

pub fn engine_cfg(disk_cache: Option<PathBuf>) -> EngineCfg {
    EngineCfg {
        jobs: sys::jobs(),
        portfolio: false,
        disk_cache,
        split: true,
        mode: DischargeMode::Session,
        presolve: true,
        cert: true,
    }
}

pub fn net_cfg() -> NetCfg {
    NetCfg {
        addr: "127.0.0.1:0".to_string(),
        shards: 2,
        max_inflight: 4,
        hot_threshold: 3,
        max_frame: serval_net::wire::DEFAULT_MAX_FRAME,
        // Divided across the shards: 2 shards x 1 worker.
        engine: engine_cfg(None),
    }
}

/// Cumulative engine counters, summed over every engine a rep used.
#[derive(Clone, Copy, Default)]
struct EngineCounts {
    hits: u64,
    misses: u64,
    queries: u64,
    trivial: u64,
    certs_ok: u64,
    certs_bad: u64,
    sessions: u64,
    fresh: u64,
}

impl EngineCounts {
    fn of(e: &Engine) -> EngineCounts {
        let (hits, misses) = e.cache_stats();
        let (queries, trivial) = e.query_counts();
        let (certs_ok, certs_bad) = e.cert_counts();
        let (sessions, fresh) = e.mode_counts();
        EngineCounts {
            hits,
            misses,
            queries,
            trivial,
            certs_ok,
            certs_bad,
            sessions,
            fresh,
        }
    }

    fn combine(self, o: EngineCounts, f: impl Fn(u64, u64) -> u64) -> EngineCounts {
        EngineCounts {
            hits: f(self.hits, o.hits),
            misses: f(self.misses, o.misses),
            queries: f(self.queries, o.queries),
            trivial: f(self.trivial, o.trivial),
            certs_ok: f(self.certs_ok, o.certs_ok),
            certs_bad: f(self.certs_bad, o.certs_bad),
            sessions: f(self.sessions, o.sessions),
            fresh: f(self.fresh, o.fresh),
        }
    }
}

/// Loopback-service counters (all zero for a local backend).
#[derive(Clone, Default)]
struct NetCounts {
    sent: u64,
    received: u64,
    hot_hits: u64,
    shard_hits: u64,
    shard_queued: Vec<u64>,
}

/// What the seam forwards to: one local engine, or a loopback server
/// with one client connection. Replaced whenever a pass wants cold state.
struct Backend {
    remote: bool,
    local: Option<Arc<Engine>>,
    service: Option<(Server, Arc<RemoteEngine>)>,
    /// Counters of engines already dropped.
    retired: EngineCounts,
}

impl Backend {
    fn fresh(&mut self, seam: &Seam) {
        self.retired = self.counts();
        // Drop the old engine first so its cache does not count towards
        // this process's peak resident set.
        seam.set_inner(None);
        self.local = None;
        if let Some((server, client)) = self.service.take() {
            drop(client);
            server.shutdown();
        }
        if self.remote {
            let server = Server::bind("127.0.0.1:0", net_cfg()).expect("bind a loopback port");
            let client = Arc::new(
                RemoteEngine::connect(&server.local_addr().to_string())
                    .expect("connect to the loopback server"),
            );
            seam.set_inner(Some(Arc::clone(&client) as Arc<dyn Discharge>));
            self.service = Some((server, client));
        } else {
            let engine = Arc::new(Engine::new(engine_cfg(None)));
            seam.set_inner(Some(Arc::clone(&engine) as Arc<dyn Discharge>));
            self.local = Some(engine);
        }
    }

    fn counts(&self) -> EngineCounts {
        let mut total = self.retired;
        let add = |a: u64, b: u64| a + b;
        if let Some(e) = &self.local {
            total = total.combine(EngineCounts::of(e), add);
        }
        if let Some((server, _)) = &self.service {
            for shard in server.core().shards() {
                total = total.combine(EngineCounts::of(shard.engine()), add);
            }
        }
        total
    }

    fn net_counts(&self) -> NetCounts {
        let Some((server, client)) = &self.service else {
            return NetCounts::default();
        };
        let stats = server.core().stats();
        let (sent, received) = client.bytes();
        NetCounts {
            sent,
            received,
            hot_hits: stats.hot_hits,
            shard_hits: stats.shards.iter().map(|r| r.hits).sum(),
            shard_queued: stats.shards.iter().map(|r| r.queued).collect(),
        }
    }
}

fn run_items(seam: &Seam, items: &[Item], mut before_each: impl FnMut()) {
    let cfg = solver_cfg();
    for item in items {
        before_each();
        seam.begin_item(item.name());
        item.run(cfg);
        seam.end_item();
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs the rep and prints its result line. Returns the process exit
/// code: non-zero when a definitive verdict contradicts the expected
/// answers.
pub fn run(args: ChildArgs) -> i32 {
    let scrubbed = sys::scrub_env();
    let Some(plan) = workloads::plan(&args.workload, args.smoke) else {
        eprintln!("unknown workload {:?}", args.workload);
        return 2;
    };
    let expected = match Expected::load(args.expected_dir.as_deref()) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("expected answers: {e}");
            return 2;
        }
    };
    let seam = Arc::new(Seam::new(
        expected,
        args.traced,
        plan.sample_stride,
        args.seed,
    ));
    serval_engine::install_discharger(Arc::clone(&seam) as Arc<dyn Discharge>);
    let mut backend = Backend {
        remote: plan.remote,
        local: None,
        service: None,
        retired: EngineCounts::default(),
    };
    let mut rng = Rng(args.seed);

    // Set-up: for the warm workloads, one cold pass over the items (and
    // the server start); for the cold ones, nothing beyond the above.
    let mut setup_pass = Duration::ZERO;
    if let Some(items) = &plan.setup {
        backend.fresh(&seam);
        let t = Instant::now();
        seam.open("setup_pass");
        run_items(&seam, items, || {});
        seam.close();
        setup_pass = t.elapsed();
    }
    let setup_s = (sys::epoch_ns().saturating_sub(args.t0_ns)) as f64 / 1e9;
    if args.setup_only {
        let metrics = Json::obj(vec![("setup_s", Json::Num(setup_s))]);
        println!("{}", Json::obj(vec![("metrics", metrics)]).render());
        return 0;
    }

    // The timed part: first proof call to last verdict.
    seam.start_timed();
    let engine0 = backend.counts();
    let net0 = backend.net_counts();
    let cpu0 = sys::cpu_seconds();
    // Round times net of sample capture, which only a traced run does.
    let mut round_ms: Vec<f64> = Vec::with_capacity(plan.rounds);
    let t_wall = Instant::now();
    seam.open("timed");
    for _ in 0..plan.rounds {
        let (t_round, captured) = (Instant::now(), seam.capture_time());
        for pass in &plan.passes {
            if pass.fresh == Fresh::PerPass {
                backend.fresh(&seam);
            }
            // Items that share a cold engine run in their written order:
            // which call warms the cache for which changes the work (the
            // warm set-up pass measured 4.1-6.2 s and 56-93 MB across
            // orders). Where the order cannot change the work — a fresh
            // engine per item, or a fully warm one — the seed picks it.
            let mut items = pass.items.clone();
            if pass.fresh != Fresh::PerPass {
                rng.shuffle(&mut items);
            }
            run_items(&seam, &items, || {
                if pass.fresh == Fresh::PerItem {
                    backend.fresh(&seam);
                }
            });
        }
        round_ms.push(secs(t_round.elapsed() - (seam.capture_time() - captured)) * 1e3);
    }
    seam.close();
    let wall = t_wall.elapsed() - seam.capture_time();
    let cpu_s = sys::cpu_seconds() - cpu0;
    let peak_rss_mb = sys::peak_rss_mb();
    let w = Window {
        seam: seam.take_counters(),
        engine: backend.counts().combine(engine0, |a, b| a - b),
        net0,
        net1: backend.net_counts(),
        wall,
        round_ms,
    };

    let mut m = Values::new();
    m.insert("setup_s", setup_s);
    m.insert("wall_s", secs(wall));
    m.insert("cpu_s", cpu_s);
    m.insert(
        "obligations_per_s",
        ratio(w.seam.obligations as f64, secs(wall)),
    );
    m.insert("peak_rss_mb", peak_rss_mb);

    if args.traced {
        let extra = Extras::measure(&args, &plan, &seam, &backend, &w, setup_pass);
        per_layer(&mut m, &plan, &w, &extra);
        let trace = seam.take_trace();
        if let Err(e) = write_trace(&args, &trace, &extra.replay) {
            eprintln!("trace file: {e}");
            return 2;
        }
    }
    seam.set_inner(None);
    drop(backend);
    serval_engine::clear_discharger();

    let v = seam.take_verdicts();
    m.insert("failed_share", ratio(v.failed as f64, v.attempted as f64));
    let line = Json::obj(vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("traced", Json::Bool(args.traced)),
        (
            "metrics",
            Json::Obj(
                m.iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        ("attempted", Json::Num(v.attempted as f64)),
        ("failed", Json::Num(v.failed as f64)),
        ("contradicted", Json::Num(v.contradicted as f64)),
        ("digest", Json::str(format!("{:016x}", v.digest))),
        (
            "scrubbed_env",
            Json::Arr(scrubbed.into_iter().map(Json::Str).collect()),
        ),
        (
            "complaints",
            Json::Arr(v.complaints.iter().map(Json::str).collect()),
        ),
        (
            "sizes",
            Json::Obj(
                v.sizes
                    .iter()
                    .map(|(n, s)| (n.clone(), Json::Num(*s as f64)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.render());
    (v.contradicted > 0) as i32
}

/// What the child read over the timed part.
struct Window {
    seam: Counters,
    engine: EngineCounts,
    net0: NetCounts,
    net1: NetCounts,
    wall: Duration,
    /// Round times in ms, net of sample capture.
    round_ms: Vec<f64>,
}

/// What only a traced run measures, after the timed part is over.
struct Extras {
    replay: Replay,
    compile_s: f64,
    splits: u64,
    merges: u64,
    disk_reopen_s: f64,
    disk_bytes: u64,
    ping_us: f64,
    cold_overhead: f64,
    warm_overhead: f64,
}

impl Extras {
    fn measure(
        args: &ChildArgs,
        plan: &Plan,
        seam: &Seam,
        backend: &Backend,
        w: &Window,
        setup_pass: Duration,
    ) -> Extras {
        // Only what the set-up and timed passes submitted is replayed, not
        // the reference passes below.
        let samples = seam.take_samples();

        // Frontend probe: once per distinct monitor call of the timed
        // passes, scaled by how often the timed part ran it.
        let (mut compile_s, mut splits, mut merges) = (0.0, 0, 0);
        seam.open("frontend_probe");
        for item in plan.passes.iter().flat_map(|p| &p.items) {
            if let Item::Refine(monitor, level, op) = *item {
                let p = frontend_probe(monitor, level, op);
                compile_s += secs(p.compile) * plan.rounds as f64;
                splits += p.splits * plan.rounds as u64;
                merges += p.merges * plan.rounds as u64;
            }
        }
        seam.close();

        // Loopback extras, while the server is still up: ping latency,
        // then the same set-up pass and a few warm rounds on a local
        // engine, for the price of the service.
        let (mut ping_us, mut cold_overhead, mut warm_overhead) = (0.0, 0.0, 0.0);
        if let (Some((server, _)), Some(items)) = (&backend.service, &plan.setup) {
            let mut client =
                Client::connect(&server.local_addr().to_string()).expect("connect the ping client");
            let pings: Vec<f64> = (0..50)
                .filter_map(|_| client.ping().ok())
                .map(|d| secs(d) * 1e6)
                .collect();
            ping_us = median(&sorted(pings));
            drop(client);

            seam.open("local_reference");
            seam.set_inner(Some(Arc::new(Engine::new(engine_cfg(None)))));
            let t = Instant::now();
            run_items(seam, items, || {});
            cold_overhead = ratio(secs(setup_pass), secs(t.elapsed()));
            let local_rounds: Vec<f64> = (0..10)
                .map(|_| {
                    let t = Instant::now();
                    run_items(seam, items, || {});
                    secs(t.elapsed()) * 1e3
                })
                .collect();
            warm_overhead = ratio(
                median(&sorted(w.round_ms.clone())),
                median(&sorted(local_rounds)),
            );
            seam.close();
        }

        // Restart path (reverify_warm only): a second engine on a disk
        // directory the first one filled re-proves certikos -O1 — segment
        // load and checksum, then the proved keys answer from memory. The
        // memory-warm rounds never touch the disk tier.
        let (mut disk_reopen_s, mut disk_bytes) = (0.0, 0);
        if !plan.remote && plan.setup.is_some() {
            let dir = args
                .out_dir
                .join(format!("disk-cache-{}", std::process::id()));
            let items: Vec<Item> = plan
                .passes
                .iter()
                .flat_map(|p| &p.items)
                .filter(|i| {
                    matches!(
                        i,
                        Item::Refine(_, serval_ir::OptLevel::O1, _) | Item::ToySignRefinement
                    )
                })
                .copied()
                .collect();
            seam.open("disk_reopen");
            // The first engine fills the directory (records are appended
            // as they are proved); the second loads it and is timed,
            // construction included.
            for timed in [false, true] {
                let t = Instant::now();
                seam.set_inner(Some(Arc::new(Engine::new(engine_cfg(Some(dir.clone()))))));
                run_items(seam, &items, || {});
                if timed {
                    disk_reopen_s = secs(t.elapsed());
                }
            }
            seam.close();
            disk_bytes = dir_bytes(&dir);
            let _ = std::fs::remove_dir_all(&dir);
        }

        // Stage replay, budgeted so the traced run stays under twice the
        // untraced one.
        let budget = Duration::from_secs_f64((secs(w.wall) * 0.4).clamp(0.2, 6.0));
        seam.open("stage_replay");
        let replay = stage_replay(&samples, args.seed, budget, seam.epoch());
        seam.close();

        Extras {
            replay,
            compile_s,
            splits,
            merges,
            disk_reopen_s,
            disk_bytes,
            ping_us,
            cold_overhead,
            warm_overhead,
        }
    }
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

fn per_layer(m: &mut Values, plan: &Plan, w: &Window, x: &Extras) {
    let (c, e, net0, net1) = (&w.seam, w.engine, &w.net0, &w.net1);
    let (wall_s, submit_s) = (secs(w.wall), secs(c.submit));
    let r = &x.replay;
    let f = |n: u64| n as f64;
    // frontend
    m.insert("ir.compile_s", x.compile_s);
    m.insert(
        "frontend.eval_s",
        (wall_s - submit_s - x.compile_s).max(0.0),
    );
    m.insert("sym.obligations", f(c.obligations));
    m.insert("sym.terms_built", f(c.terms_built));
    m.insert("sym.splits", f(x.splits));
    m.insert("sym.merges", f(x.merges));
    // engine
    m.insert("engine.submit_s", submit_s);
    m.insert("engine.batches", f(c.batches));
    m.insert("engine.queries", f(e.queries));
    m.insert("engine.trivial", f(e.trivial));
    m.insert("engine.trivial_share", ratio(f(e.trivial), f(e.queries)));
    m.insert("engine.cache_hits", f(e.hits));
    m.insert("engine.cache_misses", f(e.misses));
    m.insert("engine.mode_session_groups", f(e.sessions));
    m.insert("engine.mode_fresh_groups", f(e.fresh));
    m.insert("engine.solve_sum_s", secs(c.solve_sum));
    m.insert("engine.pool_overlap", ratio(secs(c.solve_sum), submit_s));
    m.insert("engine.slowest_query_s", secs(c.slowest));
    m.insert("engine.normalize_s", secs(r.normalize));
    m.insert("engine.key_bytes", ratio(f(r.key_bytes), f(r.keys)));
    let warm = plan.setup.is_some();
    let rounds = sorted(w.round_ms.clone());
    let when_warm = |v: f64| if warm { v } else { 0.0 };
    m.insert(
        "engine.warm_us_per_query",
        when_warm(ratio(submit_s * 1e6, f(c.obligations))),
    );
    m.insert("engine.round_p50_ms", when_warm(percentile(&rounds, 50.0)));
    m.insert("engine.round_p90_ms", when_warm(percentile(&rounds, 90.0)));
    m.insert("engine.disk_reopen_s", x.disk_reopen_s);
    m.insert("engine.disk_bytes", f(x.disk_bytes));
    // smt
    m.insert("smt.presolve_s", secs(r.presolve));
    m.insert("smt.presolve_terms_in", f(r.terms_in));
    m.insert("smt.presolve_terms_out", f(r.terms_out));
    m.insert("smt.blast_s", secs(r.blast));
    m.insert("smt.blast_vars", f(r.blast_vars));
    m.insert("smt.blast_clauses", f(r.blast_clauses));
    m.insert("smt.encoded_vars", c.stats.vars as f64);
    m.insert("smt.encoded_clauses", c.stats.clauses as f64);
    m.insert("smt.reused_clauses", c.stats.reused_clauses as f64);
    m.insert("smt.session_goals", f(c.session_goals));
    m.insert("smt.refuted", f(c.refuted));
    m.insert("smt.refuted_solve_s", secs(c.refuted_solve));
    // sat
    m.insert("sat.search_s", secs(r.search));
    m.insert("sat.conflicts", f(c.stats.conflicts));
    m.insert("sat.decisions", f(c.stats.decisions));
    m.insert("sat.propagations", f(c.stats.propagations));
    m.insert("sat.restarts", f(c.stats.restarts));
    m.insert("sat.learnts", f(c.stats.learnts));
    m.insert("sat.eliminated_vars", f(c.stats.eliminated_vars));
    m.insert("sat.subsumed", f(c.stats.subsumed));
    m.insert("sat.strengthened", f(c.stats.strengthened));
    m.insert("sat.resolvents", f(c.stats.resolvents));
    m.insert(
        "sat.props_per_s",
        ratio(f(c.stats.propagations), secs(c.solve_sum)),
    );
    m.insert("sat.proof_log_s", secs(r.proof_log()));
    m.insert("sat.proof_steps", f(c.stats.cert_steps));
    // drat
    m.insert("drat.check_s", secs(c.stats.cert_wall));
    m.insert("drat.certs_checked", f(e.certs_ok));
    m.insert("drat.certs_rejected", f(e.certs_bad));
    m.insert(
        "drat.check_us_per_cert",
        ratio(secs(c.stats.cert_wall) * 1e6, f(e.certs_ok)),
    );
    // net
    let batches = sorted(c.batch_ms.clone());
    let when_remote = |v: f64| if plan.remote { v } else { 0.0 };
    let queued: Vec<f64> = net1
        .shard_queued
        .iter()
        .zip(net0.shard_queued.iter().chain(std::iter::repeat(&0)))
        .map(|(a, b)| f(a - b))
        .collect();
    let mean_queued = ratio(queued.iter().sum(), queued.len() as f64);
    m.insert("net.wire_encode_s", secs(r.wire_encode));
    m.insert("net.wire_decode_s", secs(r.wire_decode));
    m.insert("net.bytes_per_query", ratio(f(r.wire_bytes), f(r.samples)));
    m.insert("net.bytes_sent", f(net1.sent - net0.sent));
    m.insert("net.bytes_received", f(net1.received - net0.received));
    m.insert(
        "net.batch_rtt_p50_ms",
        when_remote(percentile(&batches, 50.0)),
    );
    m.insert(
        "net.batch_rtt_p95_ms",
        when_remote(percentile(&batches, 95.0)),
    );
    m.insert("net.ping_rtt_us", x.ping_us);
    m.insert("net.hot_hits", f(net1.hot_hits - net0.hot_hits));
    m.insert("net.shard_hits", f(net1.shard_hits - net0.shard_hits));
    m.insert("net.shard_queued", queued.iter().sum());
    m.insert(
        "net.shard_imbalance",
        ratio(queued.iter().fold(0.0, |a: f64, b| a.max(*b)), mean_queued),
    );
    m.insert("net.cold_overhead_ratio", x.cold_overhead);
    m.insert("net.warm_overhead_ratio", x.warm_overhead);
    // trace: the parent fills in `trace.overhead_ratio`, which needs the
    // untraced child's wall.
    m.insert(
        "trace.replay_share",
        ratio(f(r.cores_replayed), f(r.cores * plan.sample_stride)),
    );
}

/// Writes `trace-<workload>.json`: every span, plus each span name's
/// self time (its length minus the part its children cover).
fn write_trace(args: &ChildArgs, trace: &Trace, replay: &Replay) -> std::io::Result<()> {
    let mut self_ns: Vec<(&'static str, i128)> = Vec::new();
    let mut add = |name: &'static str, ns: i128| match self_ns.iter_mut().find(|(n, _)| *n == name)
    {
        Some((_, total)) => *total += ns,
        None => self_ns.push((name, ns)),
    };
    for s in &trace.spans {
        add(s.name, (s.end_ns - s.start_ns) as i128);
        // `solve`/`cert` ran on pool workers, concurrently with each
        // other: they do not come out of the submitting thread's batch.
        if s.parent >= 0 && !matches!(s.name, "solve" | "cert") {
            add(
                trace.spans[s.parent as usize].name,
                -((s.end_ns - s.start_ns) as i128),
            );
        }
    }
    let replay_parent = trace
        .spans
        .iter()
        .position(|s| s.name == "stage_replay")
        .map_or(-1, |i| i as i32);
    for (name, start, end) in &replay.spans {
        add(name, (end - start) as i128);
        add("stage_replay", -((end - start) as i128));
    }
    let span = |name: &str, start: u64, end: u64, parent: i32, item: i32| {
        Json::obj(vec![
            ("name", Json::str(name)),
            ("start_ns", Json::Num(start as f64)),
            ("end_ns", Json::Num(end as f64)),
            ("parent", Json::Num(parent as f64)),
            ("item", Json::Num(item as f64)),
        ])
    };
    let spans: Vec<Json> = trace
        .spans
        .iter()
        .map(|s| span(s.name, s.start_ns, s.end_ns, s.parent, s.item))
        .chain(
            replay
                .spans
                .iter()
                .map(|(n, s, e)| span(n, *s, *e, replay_parent, -1)),
        )
        .collect();
    let doc = Json::obj(vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        (
            "items",
            Json::Arr(trace.items.iter().map(Json::str).collect()),
        ),
        (
            "self_time_s",
            Json::Obj(
                self_ns
                    .iter()
                    .map(|(n, ns)| (n.to_string(), Json::Num(*ns as f64 / 1e9)))
                    .collect(),
            ),
        ),
        ("spans", Json::Arr(spans)),
    ]);
    std::fs::create_dir_all(&args.out_dir)?;
    std::fs::write(
        args.out_dir.join(format!("trace-{}.json", args.workload)),
        doc.pretty(),
    )
}
