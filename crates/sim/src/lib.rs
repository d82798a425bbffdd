//! serval-sim: deterministic simulation scenarios for the concurrent
//! engine.
//!
//! FoundationDB-style testing: each scenario exercises one concurrent
//! subsystem — the batch executor, the batch engine, the shared disk
//! cache, the certificate checker, the network service — under a
//! [`sim`] context that owns scheduling, time, and IO failure. A
//! scenario is a pure function of its seed: the schedule trace and the
//! verdict summary are bit-identical across same-seed runs, so any
//! failing schedule is a *replayable seed*, not a heisenbug.
//!
//! Two knobs per run ([`SimConfig`]): `buggify` arms the rare-branch
//! hooks planted in production code (load-repair skips, purge skips,
//! SAT-inprocessing skips, proof corruption, shard misrouting), and
//! `io_faults` arms torn/flipped/crashed disk writes in the verdict
//! cache. The oracles here are
//! written for *both* modes:
//!
//! - **Safety (always)**: never a wrong definitive verdict — a valid
//!   theorem must not come back `Refuted`, an invalid one must not come
//!   back `Proved`, a reloaded cache record must never carry a wrong
//!   certificate, and nothing may panic.
//! - **Liveness (plain runs only)**: with no faults armed, every query
//!   resolves definitively, warm reruns hit on every non-trivial query
//!   with zero misses, and no disk record is lost.
//!
//! The `sim_sweep` binary drives thousands of seeds per scenario;
//! `tests/sim_regressions.rs` pins one named seed per bug this harness
//! has caught, plus the same-seed determinism contract.

use serval_check::runner::panic_message;
use serval_check::sim::{self, SimConfig, TraceEvent};
use serval_engine::cache::{Cache, CachedVerdict};
use serval_engine::pool::Pool;
use serval_engine::{DischargeMode, Engine, EngineCfg, Query};
use serval_smt::solver::{SolverConfig, VerifyResult};
use serval_smt::{reset_ctx, SBool, BV};

/// Every scenario, in sweep order.
pub const SCENARIOS: &[&str] = &[
    "pool_determinism",
    "engine_batch",
    "cache_writers",
    "cert_demotion",
    "net_batch",
];

/// What a completed scenario run observed.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// The seed the run was driven by.
    pub seed: u64,
    /// FNV fingerprint of the schedule trace (the determinism oracle:
    /// same seed ⇒ same hash).
    pub trace_hash: u64,
    /// Final virtual time, nanoseconds.
    pub vtime: u64,
    /// Number of trace events.
    pub events: usize,
    /// Scenario-defined behavior summary (verdict letters, counters);
    /// also covered by the determinism contract.
    pub summary: String,
    /// The full schedule trace, so regression tests can assert that a
    /// pinned seed really exercises the fault it was pinned for.
    pub trace: Vec<TraceEvent>,
}

impl ScenarioReport {
    /// Whether the trace contains a fired buggify point named `point`.
    pub fn fired(&self, point: &str) -> bool {
        self.trace
            .iter()
            .any(|ev| matches!(ev, TraceEvent::Buggify { point: p, .. } if *p == point))
    }

    /// Whether the trace contains an injected IO fault of kind `kind`
    /// (`torn`, `flip`, `crash`, or `lost-rename`).
    pub fn injected(&self, kind: &str) -> bool {
        self.trace
            .iter()
            .any(|ev| matches!(ev, TraceEvent::IoFault { kind: k, .. } if *k == kind))
    }

    /// The order the simulated scheduler ran tasks in, as their
    /// submission indices, batch after batch.
    pub fn task_order(&self) -> Vec<usize> {
        self.trace
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Step { task, .. } => Some(*task),
                _ => None,
            })
            .collect()
    }
}

/// A scenario that panicked: the replayable bug report.
#[derive(Clone, Debug)]
pub struct ScenarioFailure {
    /// Scenario name.
    pub name: String,
    /// The offending seed — rerunning with it replays the failure.
    pub seed: u64,
    /// The panic message (usually an oracle assertion).
    pub message: String,
    /// The tail of the schedule trace leading up to the failure.
    pub trace_tail: Vec<TraceEvent>,
}

impl std::fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "scenario {} FAILED at seed {}: {}",
            self.name, self.seed, self.message
        )?;
        writeln!(f, "  schedule tail:")?;
        for ev in &self.trace_tail {
            writeln!(f, "    {ev:?}")?;
        }
        write!(
            f,
            "  replay: SERVAL_SIM_SEED={} SERVAL_SIM_SCENARIO={} cargo run -p serval-sim --bin sim_sweep",
            self.seed, self.name
        )
    }
}

/// Runs one scenario under a fresh sim context. The context is always
/// torn down, even when the scenario's oracle panics — the panic becomes
/// an [`ScenarioFailure`] carrying the seed and the trace tail.
pub fn run_scenario(name: &str, cfg: SimConfig) -> Result<ScenarioReport, ScenarioFailure> {
    let body: fn(&SimConfig) -> String = match name {
        "pool_determinism" => pool_determinism,
        "engine_batch" => engine_batch,
        "cache_writers" => cache_writers,
        "cert_demotion" => cert_demotion,
        "net_batch" => net_batch,
        _ => panic!("unknown scenario {name:?} (known: {SCENARIOS:?})"),
    };
    let seed = cfg.seed;
    sim::begin(cfg.clone());
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&cfg)));
    let report = sim::end();
    match out {
        Ok(summary) => Ok(ScenarioReport {
            name: name.to_string(),
            seed,
            trace_hash: report.trace_hash(),
            vtime: report.vtime,
            events: report.trace.len(),
            summary,
            trace: report.trace,
        }),
        Err(p) => Err(ScenarioFailure {
            name: name.to_string(),
            seed,
            message: panic_message(p),
            trace_tail: report
                .trace
                .iter()
                .rev()
                .take(12)
                .rev()
                .cloned()
                .collect(),
        }),
    }
}

fn q(label: &str, assumptions: Vec<SBool>, goal: SBool) -> Query {
    Query {
        label: label.to_string(),
        assumptions,
        goal,
        cfg: SolverConfig::default(),
    }
}

/// One letter per verdict, the compact summary alphabet.
fn letter(r: &VerifyResult) -> char {
    match r {
        VerifyResult::Proved => 'P',
        VerifyResult::Counterexample(_) => 'R',
        VerifyResult::Unknown => 'U',
        VerifyResult::Interrupted => 'I',
    }
}

/// The shared verdict oracle: a *wrong* definitive verdict is fatal in
/// every mode; a non-definitive verdict (`Unknown`/`Interrupted`) is
/// fatal only in plain runs, where nothing can legitimately degrade. A
/// reported counterexample must actually refute the caller's query.
fn check_verdicts(
    outcomes: &[serval_engine::QueryOutcome],
    oracle: &[(Vec<SBool>, SBool, bool)],
    cfg: &SimConfig,
) {
    assert_eq!(outcomes.len(), oracle.len());
    let faulty = cfg.buggify || cfg.io_faults;
    for (o, (assumptions, goal, valid)) in outcomes.iter().zip(oracle) {
        match &o.result {
            VerifyResult::Proved => {
                assert!(
                    *valid,
                    "{}: invalid theorem came back Proved — wrong verdict",
                    o.label
                );
            }
            VerifyResult::Counterexample(m) => {
                assert!(
                    !*valid,
                    "{}: valid theorem came back Refuted — wrong verdict",
                    o.label
                );
                assert!(
                    assumptions.iter().all(|a| m.eval_bool(a.0)) && !m.eval_bool(goal.0),
                    "{}: reported countermodel does not refute the query",
                    o.label
                );
            }
            VerifyResult::Unknown | VerifyResult::Interrupted => {
                assert!(
                    faulty,
                    "{}: non-definitive verdict {:?} in a fault-free run",
                    o.label, o.result
                );
            }
        }
    }
}

// -----------------------------------------------------------------
// Scenarios
// -----------------------------------------------------------------

/// The batch executor under a seeded scheduler: whatever order the sim
/// runs the tasks in, results must come back in submission order, twice
/// in a row on the same pool.
fn pool_determinism(_cfg: &SimConfig) -> String {
    let pool = Pool::new(4);
    for (round, n) in [(0usize, 16usize), (1, 5)] {
        sim::mark(format!("pool-batch-{round}"));
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..n)
            .map(|i| {
                let b: Box<dyn FnOnce() -> usize + Send> = Box::new(move || i);
                b
            })
            .collect();
        let results: Vec<usize> = pool
            .run_batch(tasks)
            .into_iter()
            .map(|r| r.expect("no task panics in this scenario"))
            .collect();
        assert_eq!(
            results,
            (0..n).collect::<Vec<_>>(),
            "batch results must arrive in submission order"
        );
    }
    "two batches in submission order".to_string()
}

/// The full engine pipeline (presolve, split, sessions, cache, certs)
/// on a mixed batch with a known verdict oracle, plus the warm-rerun
/// accounting invariant: `hits = submitted - trivial`, `misses = 0`.
fn engine_batch(cfg: &SimConfig) -> String {
    reset_ctx();
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let z = BV::fresh(32, "z");
    let engine = Engine::new(EngineCfg { jobs: 3, ..EngineCfg::default() });
    // (assumptions, goal, is-valid-theorem)
    let oracle: Vec<(Vec<SBool>, SBool, bool)> = vec![
        (vec![], (x & y).ule(x), true),
        (vec![], (x + y).eq_(y + x), true),
        (vec![], x.ule(y), false),
        (vec![x.ult(y), y.ult(z)], x.ult(z), true),
        (vec![], (x & y).ule(x) & ((x & y) + (x | y)).eq_(x + y), true),
    ];
    let make = || -> Vec<Query> {
        oracle
            .iter()
            .enumerate()
            .map(|(i, (a, g, _))| q(&format!("q{i}"), a.clone(), *g))
            .collect()
    };
    sim::mark("cold");
    let cold = engine.submit_batch(make());
    check_verdicts(&cold, &oracle, cfg);
    let (h0, m0) = engine.cache_stats();
    let (s0, t0) = engine.query_counts();
    sim::mark("warm");
    let warm = engine.submit_batch(make());
    check_verdicts(&warm, &oracle, cfg);
    let (h1, m1) = engine.cache_stats();
    let (s1, t1) = engine.query_counts();
    let (wh, wm, ws, wt) = (h1 - h0, m1 - m0, s1 - s0, t1 - t0);
    // Definitive cold and warm verdicts must agree (a degraded Unknown
    // in one run may resolve in the other; that is not a disagreement).
    for (c, w) in cold.iter().zip(&warm) {
        let (lc, lw) = (letter(&c.result), letter(&w.result));
        if "PR".contains(lc) && "PR".contains(lw) {
            assert_eq!(lc, lw, "{}: cold {lc} vs warm {lw}", c.label);
        }
    }
    if !cfg.buggify && !cfg.io_faults {
        // The batch accounting invariant, on a genuinely warm cache.
        assert_eq!(wm, 0, "warm rerun must not miss");
        assert_eq!(wh, ws - wt, "warm hits must cover every non-trivial query");
        for w in &warm {
            assert!(
                w.cache_hit || matches!(w.result, VerifyResult::Proved if w.stats.is_none()),
                "{}: warm outcome neither a cache hit nor trivial",
                w.label
            );
        }
    }
    let cold_s: String = cold.iter().map(|o| letter(&o.result)).collect();
    let warm_s: String = warm.iter().map(|o| letter(&o.result)).collect();
    format!("cold={cold_s} warm={warm_s} acct={wh}h/{wm}m/{ws}q/{wt}t")
}

/// Two cache instances sharing one directory under hostile IO (torn
/// appends, bit flips, crash-kills-IO, lost renames): whatever subset of
/// records survives a reload, none may carry a wrong certificate, the
/// loader must not panic, and with faults off nothing may be lost.
fn cache_writers(cfg: &SimConfig) -> String {
    let dir = std::env::temp_dir().join(format!(
        "serval-sim-cachew-{}-{}",
        std::process::id(),
        cfg.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let a = Cache::new(Some(dir.clone()), false);
    let b = Cache::new(Some(dir.clone()), false);
    let mut expected: Vec<(Vec<u8>, u64)> = Vec::new();
    for i in 0..40u64 {
        let key = format!("sim-key-{i:03}").into_bytes();
        let cert = 0x5157_0000 + i;
        let writer = if sim::choose(2) == 0 { &a } else { &b };
        writer.insert(key.clone(), CachedVerdict::Proved { cert });
        expected.push((key, cert));
    }
    // A simulated crash may have killed this "process"'s IO mid-run;
    // the next generation reboots on the same disk and reloads.
    sim::io::revive();
    sim::mark("reload");
    let reloaded = Cache::new(Some(dir.clone()), false);
    let mut survived = 0usize;
    for (key, cert) in &expected {
        match reloaded.get(key) {
            Some(CachedVerdict::Proved { cert: c }) => {
                assert_eq!(
                    c, *cert,
                    "reloaded record for {:?} carries a wrong certificate",
                    String::from_utf8_lossy(key)
                );
                survived += 1;
            }
            Some(CachedVerdict::Refuted(_)) => {
                panic!("proved-only disk tier produced a Refuted entry")
            }
            None => {}
        }
    }
    assert!(
        reloaded.len() <= expected.len(),
        "reload invented records: {} loaded from {} written",
        reloaded.len(),
        expected.len()
    );
    if !cfg.io_faults {
        assert_eq!(
            survived,
            expected.len(),
            "fault-free run must persist every record"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    format!("wrote={} survived={survived}", expected.len())
}

/// Certificate demotion: with buggify able to corrupt proofs before the
/// checker sees them, a solver `Unsat` must come back `Proved` *with a
/// checked certificate* or demote to `Unknown` with the rejection
/// reason — never an unchecked `Proved`, never a flip to `Refuted`.
/// Two legs: fresh solves (`cert-corrupt-proof`), then one session whose
/// goal deltas stream to its checker (`cert-corrupt-delta`).
fn cert_demotion(cfg: &SimConfig) -> String {
    reset_ctx();
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let z = BV::fresh(32, "z");
    let fresh = cert_demotion_fresh(cfg, x, y, z);
    let session = cert_demotion_session(cfg, x, y, z);
    format!("{fresh} session={session}")
}

/// `cert_demotion`'s fresh leg: a fresh solver per query, each proof
/// checked whole.
fn cert_demotion_fresh(cfg: &SimConfig, x: BV, y: BV, z: BV) -> String {
    let engine = Engine::new(EngineCfg {
        jobs: 2,
        split: false,
        mode: DischargeMode::Fresh, // fresh solver per query: the corrupt-proof path
        ..EngineCfg::default()
    });
    let oracle: Vec<(Vec<SBool>, SBool, bool)> = vec![
        (vec![], (x & y).ule(x), true),
        (vec![], (x | y).ule(x | y), true),
        (vec![], ((x ^ y) ^ y).eq_(x), true),
        (vec![], (x + (y + z)).eq_((x + y) + z), true),
    ];
    let queries: Vec<Query> = oracle
        .iter()
        .enumerate()
        .map(|(i, (a, g, _))| q(&format!("cert{i}"), a.clone(), *g))
        .collect();
    let out = engine.submit_batch(queries);
    check_verdicts(&out, &oracle, cfg);
    let mut proved = 0usize;
    let mut demoted = 0usize;
    for o in &out {
        match &o.result {
            VerifyResult::Proved => {
                assert!(
                    o.cert.is_some(),
                    "{}: certified engine reported Proved without a certificate",
                    o.label
                );
                proved += 1;
            }
            VerifyResult::Unknown => {
                assert!(
                    o.error.is_some(),
                    "{}: demoted verdict must carry the rejection reason",
                    o.label
                );
                demoted += 1;
            }
            _ => {}
        }
    }
    let (_accepted, rejected) = engine.cert_counts();
    assert_eq!(
        rejected as usize, demoted,
        "every rejected certificate is exactly one demoted outcome"
    );
    format!("proved={proved} demoted={demoted}")
}

/// `cert_demotion`'s session leg: six theorems under one base form one
/// group, so they are answered in submission order on one live solver
/// whose checker trails it. A corrupted delta demotes its goal to
/// `Unknown` with the rejection reason and poisons the session: every
/// later goal (all are theorems, so all `Unsat`) demotes with the same
/// error, while every earlier goal keeps its certificate.
fn cert_demotion_session(cfg: &SimConfig, x: BV, y: BV, z: BV) -> String {
    let engine = Engine::new(EngineCfg { jobs: 2, split: false, ..EngineCfg::default() });
    let base = y.ult(x);
    let oracle: Vec<(Vec<SBool>, SBool, bool)> = (0..6u128)
        .map(|i| {
            let k = BV::lit(32, 3 + i);
            let goal = if i % 2 == 0 {
                (x & k).ule(x)
            } else {
                y.ult(x | (z & k))
            };
            (vec![base], goal, true)
        })
        .collect();
    let queries: Vec<Query> = oracle
        .iter()
        .enumerate()
        .map(|(i, (a, g, _))| q(&format!("session{i}"), a.clone(), *g))
        .collect();
    let out = engine.submit_batch(queries);
    check_verdicts(&out, &oracle, cfg);
    assert_eq!(engine.mode_counts(), (1, 0), "the six goals form one session");
    let k = out
        .iter()
        .position(|o| !matches!(o.result, VerifyResult::Proved))
        .unwrap_or(out.len());
    for o in &out[..k] {
        assert!(o.cert.is_some(), "{}: Proved without a certificate", o.label);
    }
    if let Some(first) = out.get(k) {
        assert!(
            matches!(first.result, VerifyResult::Unknown) && first.error.is_some(),
            "{}: a rejected delta demotes to Unknown with the reason, got {:?}",
            first.label,
            first.result
        );
        for o in &out[k + 1..] {
            assert!(
                matches!(o.result, VerifyResult::Unknown) && o.error == first.error,
                "{}: a goal after a rejected delta demotes with the same error, got {:?} / {:?}",
                o.label,
                o.result,
                o.error
            );
        }
    }
    let (_accepted, rejected) = engine.cert_counts();
    assert_eq!(
        rejected as usize,
        out.len() - k,
        "every rejected certificate is exactly one demoted outcome"
    );
    out.iter().map(|o| letter(&o.result)).collect()
}

/// The networked discharge service end to end, minus sockets: three
/// in-memory clients open with `Hello` and stream chunked query batches
/// through the real wire codec (frame writer → `FrameReader` →
/// `ServerCore::handle_payload`, the request state machine `servald`'s
/// TCP reader drives too) against one sharded core. The query set is
/// fixed — only scheduling varies with the seed — so plain-mode routing
/// and admission behavior are invariants, not probabilities:
///
/// - Three forms are submitted verbatim by all three clients. The one
///   that is proved is solved once, by its home shard; its second and
///   third submissions must be answered at admission, from that shard's
///   cache. The refuted one is never answered there: its repeats reach
///   the shard, whose probe re-checks the stored countermodel.
/// - Two forms per client pin `x` to a client-unique constant and claim
///   false, so the only countermodel carries that constant: a lost,
///   duplicated, misrouted, or reordered batch entry is caught by the
///   countermodel oracle, not just by labels.
/// - One of the shared forms, `x + y = y + x`, is already the constant
///   `true` when the term builder hands it over, mid-batch: the
///   client's encode path (`serval_net::client::encode_batch`, the one
///   `Client` uses) folds it, so it is never framed, and its outcome
///   must still come back in its submission slot whatever the schedule
///   does to the rest.
/// - The `net-frame-drop` buggify point makes the transport drop a
///   frame (the client retransmits it, preserving per-connection
///   order); `net-slow-client` stalls client 2 until the others have
///   fully drained — whose completion is then asserted, so a slow
///   client provably never blocks the rest. `net-route-rehash` fires
///   inside the core itself.
fn net_batch(cfg: &SimConfig) -> String {
    use serval_net::client::{encode_batch, Encoded};
    use serval_net::service::{NetCfg, ServerCore};
    use serval_net::wire::{self as nwire, Msg, WireOutcome, WireQuery};
    use std::collections::VecDeque;

    reset_ctx();
    let mut ncfg = NetCfg::default();
    ncfg.shards = 3;
    ncfg.engine.jobs = 2;
    ncfg.engine.disk_cache = None;
    let core = ServerCore::new(ncfg);

    // A hostile frame first: it must earn an Error reply plus a close
    // verdict, and leave the server fit to serve everything below.
    let refused = |reply: Vec<u8>, close: bool, what: &str| {
        assert!(close, "{what} must close the connection");
        assert!(
            matches!(nwire::decode_msg(&reply), Ok(Msg::Error { .. })),
            "{what} must be answered with an Error message"
        );
    };
    let (reply, close) = core.handle_payload(&mut false, b"\x99garbage frame");
    refused(reply, close, "garbage frame");

    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let shared: Vec<(Vec<SBool>, SBool, bool)> = vec![
        (vec![], (x & y).ule(x), true),
        (vec![], (x + y).eq_(y + x), true),
        (vec![], x.ule(y), false),
    ];
    let oracles: Vec<Vec<(Vec<SBool>, SBool, bool)>> = (0..3u32)
        .map(|c| {
            let kc = BV::lit(32, 0xABC0 + u128::from(c));
            vec![
                shared[0].clone(),
                (
                    vec![x.eq_(BV::lit(32, u128::from(1000 + 100 * c)))],
                    SBool::lit(false),
                    false,
                ),
                shared[1].clone(),
                (
                    vec![x.eq_(BV::lit(32, u128::from(7 + 100 * c)))],
                    SBool::lit(false),
                    false,
                ),
                shared[2].clone(),
                (vec![], ((x ^ kc) ^ kc).eq_(x), true),
            ]
        })
        .collect();

    // Encode each client's batch as `Client` would, cut what ships into
    // chunked Batch frames, then push the frames through the byte-stream
    // codec in seed-sized slices (as a TCP reader would see them) before
    // delivery.
    let mut batches: Vec<Encoded> = Vec::new();
    let mut queues: Vec<VecDeque<(u64, Vec<u8>, usize)>> = Vec::new();
    for (c, oracle) in oracles.iter().enumerate() {
        let queries = oracle
            .iter()
            .enumerate()
            .map(|(i, (assumptions, goal, _))| Query {
                label: format!("net-c{c}q{i}"),
                assumptions: assumptions.clone(),
                goal: *goal,
                cfg: SolverConfig::default(),
            })
            .collect();
        let (batch, frames) = encode_batch(queries);
        let wire_queries: Vec<WireQuery> = frames.into_iter().flatten().collect();
        assert_eq!(batch.shipped(), oracle.len() - 1, "the folded query is not shipped");
        let chunk = sim::choose(3) + 1;
        let mut frames: VecDeque<(u64, Vec<u8>, usize)> = VecDeque::new();
        let mut queries = wire_queries.into_iter().peekable();
        let mut id = (c as u64) << 32;
        while queries.peek().is_some() {
            let batch: Vec<WireQuery> = queries.by_ref().take(chunk).collect();
            let n = batch.len();
            id += 1;
            frames.push_back((id, nwire::encode_msg(&Msg::Batch { id, queries: batch }), n));
        }
        let mut stream = Vec::new();
        for (_, payload, _) in &frames {
            nwire::write_frame(&mut stream, payload).expect("in-memory write cannot fail");
        }
        let mut reader = nwire::FrameReader::new(nwire::DEFAULT_MAX_FRAME);
        let mut reassembled = Vec::new();
        let mut at = 0;
        while at < stream.len() {
            let end = (at + sim::choose(9) + 1).min(stream.len());
            reader.push(&stream[at..end]);
            at = end;
            while let Some(f) = reader.next_frame().expect("own frames must reassemble") {
                reassembled.push(f);
            }
        }
        assert_eq!(
            reassembled,
            frames.iter().map(|(_, p, _)| p.clone()).collect::<Vec<_>>(),
            "byte-chunked reassembly must reproduce the frames exactly"
        );
        batches.push(batch);
        queues.push(frames);
    }

    // A connection that skips the handshake is refused before anything
    // is queued; the three real clients open with `Hello`.
    let (reply, close) = core.handle_payload(&mut false, &queues[0][0].1);
    refused(reply, close, "a Batch before Hello");
    let mut greeted = [false; 3];
    let hello = nwire::encode_msg(&Msg::Hello { version: nwire::PROTO_VERSION });
    for g in &mut greeted {
        let (reply, close) = core.handle_payload(g, &hello);
        assert!(!close && *g, "a versioned Hello opens the connection");
        assert!(matches!(nwire::decode_msg(&reply), Ok(Msg::HelloAck { .. })));
    }

    // Deliver frames interleaved under the seeded scheduler. Client 2
    // may be "slow" (stalled until the others drain); a frame may be
    // "dropped" (retransmitted in place, bounded per client so the run
    // terminates).
    let slow = sim::buggify("net-slow-client");
    let mut replies: Vec<Vec<WireOutcome>> = (0..3).map(|_| Vec::new()).collect();
    let mut drops = [0usize; 3];
    let mut slow_checked = false;
    sim::mark("net-deliver");
    loop {
        let mut ready: Vec<usize> = (0..3).filter(|&c| !queues[c].is_empty()).collect();
        if ready.is_empty() {
            break;
        }
        if slow && ready.len() > 1 {
            ready.retain(|&c| c != 2);
        }
        let pick = ready[sim::choose(ready.len())];
        if slow && pick == 2 && !slow_checked {
            // The slow client is only scheduled once everyone else is
            // done — and they must actually be done, every shipped
            // query answered: a stalled connection never blocks other
            // clients.
            slow_checked = true;
            for c in 0..2 {
                assert_eq!(
                    replies[c].len(),
                    batches[c].shipped(),
                    "client {c} incomplete while the slow client stalls"
                );
            }
        }
        if drops[pick] < 2 && sim::buggify("net-frame-drop") {
            drops[pick] += 1;
            continue;
        }
        let (id, payload, expect) = queues[pick].pop_front().expect("ready implies nonempty");
        let (reply, close) = core.handle_payload(&mut greeted[pick], &payload);
        assert!(!close, "a well-formed batch must not close the connection");
        match nwire::decode_msg(&reply).expect("reply must decode") {
            Msg::BatchReply { id: rid, results, stats } => {
                assert_eq!(rid, id, "reply id must echo the batch frame id");
                assert_eq!(results.len(), expect, "one outcome per query, always");
                assert_eq!(stats.shards.len(), 3, "stats must carry every shard's row");
                replies[pick].extend(results);
            }
            other => panic!("expected BatchReply, got {other:?}"),
        }
    }

    // Verdict safety + submission order, per client.
    let mut verdicts = Vec::new();
    for (c, (batch, replies)) in batches.into_iter().zip(replies).enumerate() {
        assert_eq!(replies.len(), batch.shipped(), "client {c} lost outcomes");
        let outcomes = batch.decode(replies);
        assert_eq!(outcomes.len(), oracles[c].len(), "client {c} lost folded outcomes");
        for (i, o) in outcomes.iter().enumerate() {
            let label = format!("net-c{c}q{i}");
            assert_eq!(o.label, label, "client {c} outcomes out of submission order");
        }
        check_verdicts(&outcomes, &oracles[c], cfg);
        verdicts.push(outcomes.iter().map(|o| letter(&o.result)).collect::<String>());
    }

    let stats = core.stats();
    assert!(stats.protocol_errors >= 2, "both refused probes must be counted");
    let exercised = stats.shards.iter().filter(|row| row.queued > 0).count();
    if !cfg.buggify && !cfg.io_faults {
        assert!(
            exercised >= 2,
            "fixed query set must spread across at least 2 of 3 shards, got {exercised}"
        );
        assert_eq!(
            stats.hot_hits, 2,
            "the second and third submissions of the proved shared form must be answered at \
             admission, and nothing else: {stats:?}"
        );
    }
    format!(
        "c0={} c1={} c2={} shards={exercised} admitted={} drops={}",
        verdicts[0],
        verdicts[1],
        verdicts[2],
        stats.hot_hits,
        drops[0] + drops[1] + drops[2],
    )
}
