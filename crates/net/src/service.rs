//! The transport-free server core: admission, shards, routing, stats.
//!
//! [`ServerCore`] is everything `servald` does *except* sockets: it
//! owns N [`Shard`]s (each a private [`serval_engine::Engine`] with its
//! own slice of the worker budget and its own verdict-cache partition),
//! routes each query to its home shard by FNV-64 of the alpha-invariant
//! normal-form bytes, and assembles submission-order outcomes. Those
//! bytes are also the key the home shard's engine caches the query's
//! verdict under, so a repeat that shard already proved is answered at
//! admission ([`ServerCore::place`]) and never queued. The TCP front end
//! ([`crate::server`]) layers connections and backpressure on top; the
//! deterministic simulator (`crates/sim`'s `net_batch` scenario) drives
//! this core directly through [`ServerCore::handle_payload`] with the
//! real codec; both go through the one request state machine,
//! [`ServerCore::on_frame`], so the protocol `servald` speaks is the one
//! exercised under seeded hostile schedules without real sockets.
//!
//! Shard discharge runs on a scratch thread per shard
//! (`std::thread::scope`), never on the caller's thread: materializing a
//! core calls `reset_ctx()`, and the dispatching thread (a
//! connection reader, or a sim scenario holding its own terms) must keep
//! its term context intact.

use crate::wire::{
    self, Msg, ServerStats, ShardStatsRow, WireOutcome, WireQuery, SHARD_HOT,
};
use crate::fnv64;
use serval_check::runner::panic_message;
use serval_check::sim;
use serval_engine::form::{self, Core};
use serval_engine::solve::RawVerdict;
use serval_engine::{Engine, EngineCfg, Query};
use serval_smt::solver::{SolverConfig, VerifyResult};
use serval_smt::term::reset_ctx;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct NetCfg {
    /// Listen / connect address (`SERVAL_ADDR`).
    pub addr: String,
    /// Worker shard count (`SERVAL_SHARDS`, at least 1).
    pub shards: usize,
    /// Per-connection in-flight frame bound (`SERVAL_MAX_INFLIGHT`).
    pub max_inflight: usize,
    /// Retired and ignored: the replicated hot tier is deleted, and a
    /// repeat is answered at admission from its home shard's cache. The
    /// field stays only because the benchmark package spells out every
    /// `NetCfg` field; ROADMAP item 3's benchmark change deletes it.
    pub hot_threshold: u32,
    /// Frame payload bound (`SERVAL_MAX_FRAME`).
    pub max_frame: usize,
    /// Engine template for the shards. `engine.jobs` is the *total*
    /// worker budget, divided evenly across shards; a per-shard disk
    /// cache partition is derived from `engine.disk_cache`.
    pub engine: EngineCfg,
}

impl Default for NetCfg {
    fn default() -> Self {
        NetCfg {
            addr: "127.0.0.1:7557".to_string(),
            shards: 2,
            max_inflight: 4,
            hot_threshold: 0,
            max_frame: wire::DEFAULT_MAX_FRAME,
            engine: EngineCfg::default(),
        }
    }
}

impl NetCfg {
    /// [`NetCfg::default`] overridden by `SERVAL_ADDR`, `SERVAL_SHARDS`,
    /// `SERVAL_MAX_INFLIGHT`, `SERVAL_MAX_FRAME` and the engine variables ([`EngineCfg::from_env`]), parsed
    /// strictly. For `fn main` only.
    pub fn from_env() -> Result<NetCfg, String> {
        use serval_engine::edge::{at_least, parse, POSITIVE};
        let var = |name: &str| std::env::var_os(name);
        let mut cfg = NetCfg { engine: EngineCfg::from_env()?, ..NetCfg::default() };
        if let Some(addr) = parse(var, "SERVAL_ADDR", "HOST:PORT", |v| Some(v.to_string()))? {
            cfg.addr = addr;
        }
        if let Some(n) = parse(var, "SERVAL_SHARDS", POSITIVE, at_least(1))? {
            cfg.shards = n;
        }
        if let Some(n) = parse(var, "SERVAL_MAX_INFLIGHT", POSITIVE, at_least(1))? {
            cfg.max_inflight = n;
        }
        if let Some(n) = parse(var, "SERVAL_MAX_FRAME", "an integer >= 1024", at_least(1024))? {
            cfg.max_frame = n;
        }
        Ok(cfg)
    }
}

/// Why a shard refuses a frame whose bytes differ from their own
/// re-keying.
pub(crate) const NOT_NORMAL: &str =
    "core is not in normal form: re-key it with `form::Keyer::wire` before sending";

/// An admitted query, tagged with its slot in the batch.
pub struct RoutedQuery {
    /// Index into the submitting batch.
    pub slot: usize,
    /// Theorem label, echoed back in reports.
    pub label: String,
    /// Solver configuration.
    pub cfg: SolverConfig,
    /// The frame's bytes as admission validated them, one goal: a shard
    /// never sees bytes that were not validated.
    pub core: Core,
}

#[derive(Default)]
struct ShardCounters {
    queued: AtomicU64,
    solved: AtomicU64,
    hits: AtomicU64,
}

/// One worker shard: a private engine plus its counters.
pub struct Shard {
    /// Shard index (also the routing bucket).
    pub index: usize,
    engine: Arc<Engine>,
    counters: ShardCounters,
}

impl Shard {
    /// This shard's engine (benchmarks inspect cache counters).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Current stats row.
    pub fn stats_row(&self) -> ShardStatsRow {
        let (mode_session, mode_fresh) = self.engine.mode_counts();
        ShardStatsRow {
            shard: self.index as u32,
            queued: self.counters.queued.load(Ordering::Relaxed),
            solved: self.counters.solved.load(Ordering::Relaxed),
            hits: self.counters.hits.load(Ordering::Relaxed),
            cert_checked: self.engine.cert_counts().0,
            mode_session,
            mode_fresh,
        }
    }

    /// Discharges a routed batch, returning `(slot, outcome)` pairs.
    ///
    /// Must run on a thread whose term context is disposable (the cores
    /// are materialized into a fresh context here). Panics anywhere in
    /// the pipeline are caught and reported as error outcomes — a
    /// hostile or buggy batch must never take the server down.
    pub fn discharge(&self, batch: Vec<RoutedQuery>) -> Vec<(usize, WireOutcome)> {
        let slots: Vec<usize> = batch.iter().map(|rq| rq.slot).collect();
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.discharge_inner(batch)
        })) {
            Ok(out) => out,
            Err(panic) => {
                let why = format!("shard panicked: {}", panic_message(panic));
                let shard = self.index as u32;
                slots
                    .into_iter()
                    .map(|slot| (slot, WireOutcome::unknown(shard, why.clone())))
                    .collect()
            }
        }
    }

    fn discharge_inner(&self, batch: Vec<RoutedQuery>) -> Vec<(usize, WireOutcome)> {
        reset_ctx();
        self.counters.queued.fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut ready: Vec<(usize, WireOutcome)> = Vec::with_capacity(batch.len());
        let mut queries: Vec<Query> = Vec::new();
        let mut pending: Vec<(usize, form::BackMap)> = Vec::new();
        let mut keyer = form::Keyer::new();
        for rq in batch {
            let m = rq.core.materialize(false);
            // The engine caches a verdict under the query's re-keyed
            // bytes, and admission looks a repeat up under the frame's:
            // a valid frame that is not in normal form (its assumption
            // roots out of canonical order, say) would reach a shard on
            // every repeat, so it is refused.
            if keyer.wire(&m.assumptions, m.goals[0]) != rq.core.bytes() {
                let why = format!("query {} ({}): {NOT_NORMAL}", rq.slot, rq.label);
                ready.push((rq.slot, WireOutcome::unknown(self.index as u32, why)));
                continue;
            }
            queries.push(Query {
                label: rq.label,
                assumptions: m.assumptions,
                goal: m.goals[0],
                cfg: rq.cfg,
            });
            pending.push((rq.slot, m.backmap));
        }
        let outcomes = self.engine.submit_batch(queries);
        for (outcome, (slot, backmap)) in outcomes.into_iter().zip(pending) {
            if outcome.cache_hit {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
            } else {
                self.counters.solved.fetch_add(1, Ordering::Relaxed);
            }
            let verdict = match outcome.result {
                VerifyResult::Proved => RawVerdict::Proved,
                VerifyResult::Counterexample(m) => RawVerdict::Refuted(
                    serval_engine::portable_of_caller_model(&m, &backmap),
                ),
                VerifyResult::Unknown => RawVerdict::Unknown,
                VerifyResult::Interrupted => RawVerdict::Interrupted,
            };
            ready.push((
                slot,
                WireOutcome {
                    verdict,
                    cert: outcome.cert.unwrap_or(0),
                    cache_hit: outcome.cache_hit,
                    shard: self.index as u32,
                    wall_micros: outcome.wall.as_micros() as u64,
                    stats: outcome.stats,
                    error: outcome.error,
                },
            ));
        }
        ready
    }
}

/// What one client frame asks of the connection that received it.
pub(crate) enum Step {
    /// Write this message.
    Reply(Msg),
    /// Write this message, then close the connection.
    Close(Msg),
    /// A validated batch, each query admitted with its slot: discharge it
    /// and answer with a `BatchReply`.
    Dispatch { id: u64, queries: Vec<RoutedQuery> },
}

/// The sharded discharge service (everything but the sockets).
pub struct ServerCore {
    cfg: NetCfg,
    shards: Vec<Arc<Shard>>,
    shard_jobs: usize,
    /// Queries answered at admission.
    admitted: AtomicU64,
    frames: AtomicU64,
    protocol_errors: AtomicU64,
}

impl ServerCore {
    /// Builds the shards: `cfg.engine.jobs` total workers divided evenly
    /// (ceiling) across `cfg.shards` engines, each with its own disk
    /// cache partition under `cfg.engine.disk_cache` (when set).
    pub fn new(cfg: NetCfg) -> ServerCore {
        let n = cfg.shards.max(1);
        let shard_jobs = cfg.engine.jobs.div_ceil(n).max(1);
        let shards = (0..n)
            .map(|index| {
                let mut ecfg = cfg.engine.clone();
                ecfg.jobs = shard_jobs;
                ecfg.disk_cache = cfg
                    .engine
                    .disk_cache
                    .as_ref()
                    .map(|p| p.join(format!("shard-{index}")));
                Arc::new(Shard {
                    index,
                    engine: Arc::new(Engine::new(ecfg)),
                    counters: ShardCounters::default(),
                })
            })
            .collect();
        ServerCore {
            cfg,
            shards,
            shard_jobs,
            admitted: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        }
    }

    /// The configuration the core was built with.
    pub fn cfg(&self) -> &NetCfg {
        &self.cfg
    }

    /// The shards.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// Workers per shard.
    pub fn shard_jobs(&self) -> usize {
        self.shard_jobs
    }

    /// A query's home shard: FNV-64 of its normal-form bytes mod the
    /// shard count. The `net-route-rehash` buggify point sends a query
    /// to a random shard instead — any shard can solve any query (its
    /// cache partition just misses), so misrouting degrades locality,
    /// never correctness.
    pub fn route(&self, core_bytes: &[u8]) -> usize {
        if sim::buggify("net-route-rehash") {
            return sim::choose(self.shards.len());
        }
        (fnv64(core_bytes) % self.shards.len() as u64) as usize
    }

    /// Admits query `slot` of a batch: its frame is validated into a
    /// [`Core`] — the one validation a frame gets; the core travels with
    /// the query from here on — and must carry exactly one goal.
    fn admit(slot: usize, q: WireQuery) -> Result<RoutedQuery, String> {
        let core = Core::decode(q.core_bytes).and_then(|core| match core.goals() {
            1 => Ok(core),
            _ => Err("a query frame carries exactly one goal root"),
        });
        match core {
            Ok(core) => Ok(RoutedQuery { slot, label: q.label, cfg: q.cfg, core }),
            Err(why) => Err(format!("query {slot} ({}): {why}", q.label)),
        }
    }

    /// Places an admitted batch: a query its home shard's engine has
    /// already proved is answered in place, from that engine's cache
    /// under the query's own frame bytes ([`Engine::proved`]); the rest
    /// are bucketed by home shard. A cached `Refuted` verdict is left to
    /// the shard, whose probe re-checks the countermodel before using it.
    /// An answer goes into the query's slot of `slots`.
    pub fn place(
        &self,
        slots: &mut [Option<WireOutcome>],
        queries: Vec<RoutedQuery>,
    ) -> Vec<Vec<RoutedQuery>> {
        let mut buckets: Vec<Vec<RoutedQuery>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for rq in queries {
            let home = self.route(rq.core.bytes());
            if let Some(cert) = self.shards[home].engine.proved(rq.core.bytes()) {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                slots[rq.slot] = Some(WireOutcome {
                    verdict: RawVerdict::Proved,
                    cert,
                    cache_hit: true,
                    shard: SHARD_HOT,
                    wall_micros: 0,
                    stats: None,
                    error: None,
                });
                continue;
            }
            buckets[home].push(rq);
        }
        buckets
    }

    /// Discharges a batch that did not come through
    /// [`ServerCore::on_frame`] (tests and the simulator call this
    /// directly), so it admits the queries itself: a malformed one is
    /// answered with an error outcome in its slot, the rest go through
    /// [`ServerCore::discharge_admitted`].
    pub fn discharge(&self, queries: Vec<WireQuery>) -> Vec<WireOutcome> {
        let mut slots: Vec<Option<WireOutcome>> = Vec::with_capacity(queries.len());
        let mut admitted = Vec::new();
        for (slot, q) in queries.into_iter().enumerate() {
            match Self::admit(slot, q) {
                Ok(rq) => {
                    admitted.push(rq);
                    slots.push(None);
                }
                Err(why) => {
                    let why = format!("malformed core: {why}");
                    slots.push(Some(WireOutcome::unknown(SHARD_HOT, why)));
                }
            }
        }
        self.discharge_admitted(slots, admitted)
    }

    /// Discharges an admitted batch into `slots` synchronously: shards
    /// run one after another, each on a scratch thread (the caller's
    /// term context survives). The TCP server uses long-lived shard
    /// threads instead; this path serves the simulator (deterministic by
    /// construction), tests, and `handle_payload`.
    fn discharge_admitted(
        &self,
        mut slots: Vec<Option<WireOutcome>>,
        queries: Vec<RoutedQuery>,
    ) -> Vec<WireOutcome> {
        let buckets = self.place(&mut slots, queries);
        for (home, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let shard = &self.shards[home];
            let results = std::thread::scope(|scope| {
                scope
                    .spawn(move || shard.discharge(bucket))
                    .join()
                    .unwrap_or_default()
            });
            for (slot, outcome) in results {
                slots[slot] = Some(outcome);
            }
        }
        slots
            .into_iter()
            .map(|s| {
                s.unwrap_or_else(|| {
                    WireOutcome::unknown(SHARD_HOT, "shard dropped the query".to_string())
                })
            })
            .collect()
    }

    /// Current stats snapshot.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            shards: self.shards.iter().map(|s| s.stats_row()).collect(),
            hot_hits: self.admitted.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }

    /// Counts one decoded frame.
    fn note_frame(&self) {
        self.frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one protocol error (the TCP reader counts framing errors,
    /// which never reach [`ServerCore::on_frame`]).
    pub(crate) fn note_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// The request state machine: what one client frame asks of the
    /// connection it arrived on, whose handshake state is `greeted`.
    /// Every driver — the TCP reader ([`crate::server`]) and
    /// [`ServerCore::handle_payload`] — goes through here, so the rules
    /// (first frame must be a versioned `Hello`, cores validated before
    /// a batch is queued, every frame and protocol error counted) exist
    /// once.
    pub(crate) fn on_frame(&self, greeted: &mut bool, payload: &[u8]) -> Step {
        let refuse = |msg: String| {
            self.note_protocol_error();
            Step::Close(Msg::Error { msg })
        };
        let msg = match wire::decode_msg(payload) {
            Ok(m) => m,
            Err(e) => return refuse(e.to_string()),
        };
        self.note_frame();
        match msg {
            Msg::Hello { version } if version == wire::PROTO_VERSION => {
                *greeted = true;
                Step::Reply(self.hello_ack())
            }
            Msg::Hello { version } => refuse(format!("unsupported protocol version {version}")),
            _ if !*greeted => refuse("first frame must be Hello".to_string()),
            Msg::Ping { token } => Step::Reply(Msg::Pong { token }),
            Msg::StatsReq => Step::Reply(Msg::StatsReply { stats: self.stats() }),
            // Validate before the driver spends an in-flight slot:
            // garbage is a protocol error, not a queued job.
            Msg::Batch { id, queries } => {
                match queries.into_iter().enumerate().map(|(i, q)| Self::admit(i, q)).collect() {
                    Ok(queries) => Step::Dispatch { id, queries },
                    Err(why) => refuse(why),
                }
            }
            Msg::HelloAck { .. }
            | Msg::BatchReply { .. }
            | Msg::Pong { .. }
            | Msg::StatsReply { .. }
            | Msg::Error { .. } => refuse("unexpected message direction".to_string()),
        }
    }

    /// Handles one frame payload end to end — [`ServerCore::on_frame`]
    /// plus the synchronous [`ServerCore::discharge`] — and returns the
    /// reply payload and whether the connection must close. The sim
    /// scenario's in-memory connections drive the service through this.
    pub fn handle_payload(&self, greeted: &mut bool, payload: &[u8]) -> (Vec<u8>, bool) {
        let (reply, close) = match self.on_frame(greeted, payload) {
            Step::Reply(msg) => (msg, false),
            Step::Close(msg) => (msg, true),
            Step::Dispatch { id, queries } => {
                let slots = (0..queries.len()).map(|_| None).collect();
                let results = self.discharge_admitted(slots, queries);
                (Msg::BatchReply { id, results, stats: self.stats() }, false)
            }
        };
        (wire::encode_msg(&reply), close)
    }

    /// The server's `HelloAck`.
    fn hello_ack(&self) -> Msg {
        Msg::HelloAck {
            version: wire::PROTO_VERSION,
            shards: self.shards.len() as u32,
            shard_jobs: self.shard_jobs as u32,
            max_inflight: self.cfg.max_inflight as u32,
        }
    }
}
