//! The servald wire protocol: length-prefixed frames of versioned binary
//! messages.
//!
//! Framing: every message is `[u32 LE payload length][payload]`. The
//! length is bounded by the receiver's `max_frame` — an oversize prefix
//! is a protocol error *before* any allocation, so a hostile client
//! cannot request a 4 GiB buffer with five bytes. Payloads start with a
//! one-byte message tag; a query travels as its wire bytes
//! ([`serval_engine::form::Keyer::wire`]), which the server validates
//! into a [`serval_engine::form::Core`] through the one decoder,
//! [`serval_engine::form::Core::decode`].
//!
//! Everything here is written against *untrusted* input: every read is
//! bounds-checked, every count is validated against the remaining byte
//! budget before allocation, and a decode error poisons only the one
//! connection that sent it. The property suite in `tests.rs` feeds this
//! module truncations, garbage, bit flips, and frames torn across reads.

use serval_engine::solve::{PortableModel, RawVerdict};
use serval_smt::solver::{QueryStats, SolverConfig};
use serval_smt::Rephase;
use std::io::{Read, Write};
use std::time::Duration;

/// Protocol version, exchanged in `Hello`/`HelloAck`. Bump on any
/// incompatible change to the message or core encodings.
///
/// v2: `SolverConfig` gained restart/rephase/inprocess/polarity fields
/// and `QueryStats` gained the four inprocessing counters.
///
/// v3: `SolverConfig` gained `session_bve` and `lrat`; `ShardStatsRow`
/// gained the discharge-mode counters.
///
/// v4: the replicated hot tier is gone: `HelloAck` lost `hot_threshold`
/// and `ServerStats` lost `hot_entries`. `QueryStats` lost its two
/// always-zero slots, `subsumed` and `strengthened` (20 words, was 22).
pub const PROTO_VERSION: u32 = 4;

/// Default bound on a single frame's payload. Large enough for a whole
/// certikos refinement batch chunk, small enough that a hostile length
/// prefix cannot balloon memory.
pub const DEFAULT_MAX_FRAME: usize = 256 << 20;

/// Why a frame or message failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended mid-frame or a payload field overran the frame.
    Truncated,
    /// The length prefix exceeds the receiver's frame bound.
    Oversize {
        /// The advertised payload length.
        len: u64,
        /// The receiver's bound.
        max: u64,
    },
    /// Structurally invalid bytes (bad tag, bad count, bad query core).
    Garbage(&'static str),
    /// Peer speaks a different protocol version.
    BadVersion(u32),
    /// The underlying socket failed.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversize { len, max } => {
                write!(f, "frame length {len} exceeds bound {max}")
            }
            WireError::Garbage(why) => write!(f, "malformed message: {why}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::Io(kind) => write!(f, "io error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

// --------------------------------------------------------------------------
// Messages
// --------------------------------------------------------------------------

/// One query on the wire: a label, solver parameters, and the query's
/// wire bytes — the bytes of a one-goal [`serval_engine::form::Core`].
#[derive(Clone, Debug)]
pub struct WireQuery {
    /// Theorem label, echoed back in reports.
    pub label: String,
    /// Solver configuration (budget + search parameters).
    pub cfg: SolverConfig,
    /// The query's wire bytes ([`serval_engine::form::Keyer::wire`]).
    /// They are alpha-invariant and are the engine's cache key: the
    /// server validates them once at admission, into a one-goal
    /// [`serval_engine::form::Core`], routes on them, answers a repeat
    /// under them, and its shard materializes the query from them.
    pub core_bytes: Vec<u8>,
}

/// Sentinel shard id for outcomes no shard produced: verdicts answered
/// at admission from a home shard's cache, and errors raised before
/// routing.
pub const SHARD_HOT: u32 = u32::MAX;

/// One query's outcome on the wire.
#[derive(Clone, Debug)]
pub struct WireOutcome {
    /// The verdict. A countermodel is phrased over the wire core's
    /// canonical variable numbering, so the client maps it back onto its
    /// own terms with its `BackMap`.
    pub verdict: RawVerdict,
    /// Certificate fingerprint backing a proved verdict (0 = none).
    pub cert: u64,
    /// Whether the verdict came from a shard's verdict cache, at
    /// admission or in the shard.
    pub cache_hit: bool,
    /// Which shard answered ([`SHARD_HOT`] for answers at admission).
    pub shard: u32,
    /// Server-side wall time for this query, in microseconds.
    pub wall_micros: u64,
    /// Solver statistics (absent for cache hits and trivial queries).
    pub stats: Option<QueryStats>,
    /// Worker panic / certificate rejection / malformed-query message.
    pub error: Option<String>,
}

impl WireOutcome {
    /// The outcome of a query the server could not answer — a malformed
    /// core, a panicked or unavailable shard, a shutdown: `Unknown`,
    /// attributed to `shard`, carrying the reason.
    pub fn unknown(shard: u32, why: String) -> WireOutcome {
        WireOutcome {
            verdict: RawVerdict::Unknown,
            cert: 0,
            cache_hit: false,
            shard,
            wall_micros: 0,
            stats: None,
            error: Some(why),
        }
    }
}

/// Per-shard counters, surfaced in every batch reply so clients see how
/// work spread across the shards.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStatsRow {
    /// Shard index.
    pub shard: u32,
    /// Queries routed to this shard (excludes answers at admission).
    pub queued: u64,
    /// Queries the shard resolved by solving (cache misses).
    pub solved: u64,
    /// Queries the shard answered from its verdict-cache partition.
    pub hits: u64,
    /// Proof certificates checked by this shard's engine.
    pub cert_checked: u64,
    /// Assumption groups this shard's engine discharged as live
    /// sessions vs fresh solvers (one side is zero: see
    /// `serval_engine::Engine::mode_counts`).
    pub mode_session: u64,
    /// See [`ShardStatsRow::mode_session`].
    pub mode_fresh: u64,
}

/// Server-wide stats snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// One row per shard.
    pub shards: Vec<ShardStatsRow>,
    /// Queries answered at admission, from their home shard's cache,
    /// without being queued (the name predates the admission path).
    pub hot_hits: u64,
    /// Frames accepted across all connections.
    pub frames: u64,
    /// Protocol errors across all connections.
    pub protocol_errors: u64,
}

/// The protocol's message set.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Client → server greeting; must be the first frame.
    Hello {
        /// The client's [`PROTO_VERSION`].
        version: u32,
    },
    /// Server → client greeting reply, advertising its shape.
    HelloAck {
        /// The server's [`PROTO_VERSION`].
        version: u32,
        /// Worker shard count.
        shards: u32,
        /// Pool workers per shard.
        shard_jobs: u32,
        /// Per-connection in-flight frame bound (clients must not have
        /// more than this many unanswered `Batch` frames).
        max_inflight: u32,
    },
    /// A batch of queries. Replies arrive in frame order per connection;
    /// `id` is echoed so clients can cross-check.
    Batch {
        /// Client-chosen frame id, echoed in the reply.
        id: u64,
        /// The queries, in submission order.
        queries: Vec<WireQuery>,
    },
    /// Submission-order outcomes for a `Batch`.
    BatchReply {
        /// The `Batch` frame's id.
        id: u64,
        /// One outcome per query, in submission order.
        results: Vec<WireOutcome>,
        /// Stats snapshot taken when the reply was assembled.
        stats: ServerStats,
    },
    /// Liveness probe.
    Ping {
        /// Echoed in the `Pong`.
        token: u64,
    },
    /// `Ping` reply.
    Pong {
        /// The `Ping`'s token.
        token: u64,
    },
    /// Stats request.
    StatsReq,
    /// Stats reply.
    StatsReply {
        /// Current server stats.
        stats: ServerStats,
    },
    /// Fatal protocol error; the sender closes the connection after it.
    Error {
        /// Human-readable reason.
        msg: String,
    },
}

const T_HELLO: u8 = 0x01;
const T_BATCH: u8 = 0x02;
const T_PING: u8 = 0x03;
const T_STATS: u8 = 0x04;
const T_HELLO_ACK: u8 = 0x81;
const T_BATCH_REPLY: u8 = 0x82;
const T_PONG: u8 = 0x83;
const T_STATS_REPLY: u8 = 0x84;
const T_ERROR: u8 = 0x7f;

/// Bound on label / error-string lengths (anything longer is hostile).
const MAX_STRING: usize = 1 << 16;

// --------------------------------------------------------------------------
// Framing
// --------------------------------------------------------------------------

/// Writes one frame: length prefix + payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF *between* frames; an EOF
/// mid-frame is [`WireError::Truncated`]. A stream may hand the frame
/// over in pieces of any size: both the prefix and the payload are read
/// until complete.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                return if got == 0 { Ok(None) } else { Err(WireError::Truncated) };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(WireError::Oversize { len: len as u64, max: max_frame as u64 });
    }
    let mut payload = vec![0u8; len];
    let mut at = 0;
    while at < len {
        match r.read(&mut payload[at..]) {
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => at += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    Ok(Some(payload))
}

// --------------------------------------------------------------------------
// Primitive encoding
// --------------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_bytes(out: &mut Vec<u8>, b: &[u8]) {
    push_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_bytes(out, s.as_bytes());
}

/// Bounds-checked little-endian cursor over an untrusted payload.
struct Rd<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Rd<'a> {
        Rd { b, at: 0 }
    }
    fn remaining(&self) -> usize {
        self.b.len() - self.at
    }
    fn done(&self) -> Result<(), WireError> {
        if self.at == self.b.len() {
            Ok(())
        } else {
            Err(WireError::Garbage("trailing bytes after message"))
        }
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        let v = *self.b.get(self.at).ok_or(WireError::Truncated)?;
        self.at += 1;
        Ok(v)
    }
    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Garbage("boolean field not 0/1")),
        }
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.b.get(self.at..self.at + 4).ok_or(WireError::Truncated)?;
        self.at += 4;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.b.get(self.at..self.at + 8).ok_or(WireError::Truncated)?;
        self.at += 8;
        Ok(u64::from_le_bytes(s.try_into().unwrap()))
    }
    fn u128(&mut self) -> Result<u128, WireError> {
        let s = self.b.get(self.at..self.at + 16).ok_or(WireError::Truncated)?;
        self.at += 16;
        Ok(u128::from_le_bytes(s.try_into().unwrap()))
    }
    /// Reads a count whose elements need at least `min_elem` bytes each.
    fn count(&mut self, min_elem: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem) > self.remaining() {
            return Err(WireError::Garbage("count overruns frame"));
        }
        Ok(n)
    }
    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.count(1)?;
        let s = self.b.get(self.at..self.at + n).ok_or(WireError::Truncated)?;
        self.at += n;
        Ok(s.to_vec())
    }
    fn string(&mut self) -> Result<String, WireError> {
        let raw = self.bytes()?;
        if raw.len() > MAX_STRING {
            return Err(WireError::Garbage("string field too long"));
        }
        String::from_utf8(raw).map_err(|_| WireError::Garbage("string field not UTF-8"))
    }
}

// --------------------------------------------------------------------------
// Field-group codecs
// --------------------------------------------------------------------------

fn push_cfg(out: &mut Vec<u8>, cfg: &SolverConfig) {
    match cfg.conflict_budget {
        None => out.push(0),
        Some(b) => {
            out.push(1);
            push_u64(out, b);
        }
    }
    push_u64(out, cfg.restart_base);
    push_u64(out, cfg.var_decay.to_bits());
    out.push(cfg.default_phase as u8);
    out.push(cfg.restart_geometric as u8);
    out.push(match cfg.rephase {
        Rephase::Off => 0,
        Rephase::Invert => 1,
        Rephase::Reset => 2,
    });
    out.push(cfg.inprocess as u8);
    out.push(cfg.polarity as u8);
    out.push(cfg.session_bve as u8);
    // Retired, but still on the wire: the byte keeps every key and
    // frame as it was, and nothing reads it on the other side.
    out.push(cfg.lrat as u8);
}

fn read_cfg(rd: &mut Rd) -> Result<SolverConfig, WireError> {
    let conflict_budget = match rd.u8()? {
        0 => None,
        1 => Some(rd.u64()?),
        _ => return Err(WireError::Garbage("bad conflict-budget tag")),
    };
    let restart_base = rd.u64()?;
    let var_decay = f64::from_bits(rd.u64()?);
    // The solver's own range: a decay of 0 (or -0) would panic a worker.
    if !(var_decay > 0.0 && var_decay <= 1.0) {
        return Err(WireError::Garbage("var_decay out of range"));
    }
    let default_phase = rd.bool()?;
    let restart_geometric = rd.bool()?;
    let rephase = match rd.u8()? {
        0 => Rephase::Off,
        1 => Rephase::Invert,
        2 => Rephase::Reset,
        _ => return Err(WireError::Garbage("bad rephase tag")),
    };
    let inprocess = rd.bool()?;
    let polarity = rd.bool()?;
    let session_bve = rd.bool()?;
    let lrat = rd.bool()?;
    Ok(SolverConfig {
        conflict_budget,
        restart_base,
        var_decay,
        default_phase,
        restart_geometric,
        rephase,
        inprocess,
        polarity,
        session_bve,
        lrat,
    })
}

fn push_stats(out: &mut Vec<u8>, s: &QueryStats) {
    for v in [
        s.conflicts,
        s.decisions,
        s.propagations,
        s.restarts,
        s.learnts,
        s.clauses as u64,
        s.vars as u64,
        s.reused_clauses as u64,
        s.reused_vars as u64,
        s.reused_learnts,
        s.session_goals,
        s.presolve_terms_in as u64,
        s.presolve_terms_out as u64,
        s.presolve_vars_in as u64,
        s.presolve_vars_out as u64,
        s.eliminated_vars,
        s.resolvents,
        s.cert_steps,
        s.cert_wall.as_micros() as u64,
        s.wall.as_micros() as u64,
    ] {
        push_u64(out, v);
    }
}

/// The inverse of [`push_stats`]. `subsumed` and `strengthened` are not
/// on the wire (always 0 since sat lost subsumption) and decode as 0.
fn read_stats(rd: &mut Rd) -> Result<QueryStats, WireError> {
    let mut v = [0u64; 20];
    for slot in &mut v {
        *slot = rd.u64()?;
    }
    Ok(QueryStats {
        conflicts: v[0],
        decisions: v[1],
        propagations: v[2],
        restarts: v[3],
        learnts: v[4],
        clauses: v[5] as usize,
        vars: v[6] as usize,
        reused_clauses: v[7] as usize,
        reused_vars: v[8] as usize,
        reused_learnts: v[9],
        session_goals: v[10],
        presolve_terms_in: v[11] as usize,
        presolve_terms_out: v[12] as usize,
        presolve_vars_in: v[13] as usize,
        presolve_vars_out: v[14] as usize,
        eliminated_vars: v[15],
        resolvents: v[16],
        cert_steps: v[17],
        cert_wall: Duration::from_micros(v[18]),
        wall: Duration::from_micros(v[19]),
        ..QueryStats::default()
    })
}

fn push_model(out: &mut Vec<u8>, pm: &PortableModel) {
    push_u32(out, pm.bvs.len() as u32);
    for &(k, v) in &pm.bvs {
        push_u32(out, k);
        push_u128(out, v);
    }
    push_u32(out, pm.bools.len() as u32);
    for &(k, b) in &pm.bools {
        push_u32(out, k);
        out.push(b as u8);
    }
    push_u32(out, pm.ufs.len() as u32);
    for (k, rows) in &pm.ufs {
        push_u32(out, *k);
        push_u32(out, rows.len() as u32);
        for (args, result) in rows {
            push_u32(out, args.len() as u32);
            for &a in args {
                push_u128(out, a);
            }
            push_u128(out, *result);
        }
    }
}

fn read_model(rd: &mut Rd) -> Result<PortableModel, WireError> {
    let mut pm = PortableModel::default();
    let n_bvs = rd.count(20)?;
    for _ in 0..n_bvs {
        let k = rd.u32()?;
        let v = rd.u128()?;
        pm.bvs.push((k, v));
    }
    let n_bools = rd.count(5)?;
    for _ in 0..n_bools {
        let k = rd.u32()?;
        let b = rd.bool()?;
        pm.bools.push((k, b));
    }
    let n_ufs = rd.count(8)?;
    for _ in 0..n_ufs {
        let k = rd.u32()?;
        let n_rows = rd.count(20)?;
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let n_args = rd.count(16)?;
            let mut args = Vec::with_capacity(n_args);
            for _ in 0..n_args {
                args.push(rd.u128()?);
            }
            let result = rd.u128()?;
            rows.push((args, result));
        }
        pm.ufs.push((k, rows));
    }
    Ok(pm)
}

fn push_outcome(out: &mut Vec<u8>, o: &WireOutcome) {
    match &o.verdict {
        RawVerdict::Proved => out.push(0),
        RawVerdict::Refuted(pm) => {
            out.push(1);
            push_model(out, pm);
        }
        RawVerdict::Unknown => out.push(2),
        RawVerdict::Interrupted => out.push(3),
    }
    push_u64(out, o.cert);
    out.push(o.cache_hit as u8);
    push_u32(out, o.shard);
    push_u64(out, o.wall_micros);
    match &o.stats {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            push_stats(out, s);
        }
    }
    match &o.error {
        None => out.push(0),
        Some(e) => {
            out.push(1);
            push_str(out, e);
        }
    }
}

fn read_outcome(rd: &mut Rd) -> Result<WireOutcome, WireError> {
    let verdict = match rd.u8()? {
        0 => RawVerdict::Proved,
        1 => RawVerdict::Refuted(read_model(rd)?),
        2 => RawVerdict::Unknown,
        3 => RawVerdict::Interrupted,
        _ => return Err(WireError::Garbage("bad verdict tag")),
    };
    let cert = rd.u64()?;
    let cache_hit = rd.bool()?;
    let shard = rd.u32()?;
    let wall_micros = rd.u64()?;
    let stats = match rd.u8()? {
        0 => None,
        1 => Some(read_stats(rd)?),
        _ => return Err(WireError::Garbage("bad stats tag")),
    };
    let error = match rd.u8()? {
        0 => None,
        1 => Some(rd.string()?),
        _ => return Err(WireError::Garbage("bad error tag")),
    };
    Ok(WireOutcome { verdict, cert, cache_hit, shard, wall_micros, stats, error })
}

fn push_server_stats(out: &mut Vec<u8>, s: &ServerStats) {
    push_u32(out, s.shards.len() as u32);
    for row in &s.shards {
        push_u32(out, row.shard);
        push_u64(out, row.queued);
        push_u64(out, row.solved);
        push_u64(out, row.hits);
        push_u64(out, row.cert_checked);
        push_u64(out, row.mode_session);
        push_u64(out, row.mode_fresh);
    }
    push_u64(out, s.hot_hits);
    push_u64(out, s.frames);
    push_u64(out, s.protocol_errors);
}

fn read_server_stats(rd: &mut Rd) -> Result<ServerStats, WireError> {
    let n = rd.count(52)?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(ShardStatsRow {
            shard: rd.u32()?,
            queued: rd.u64()?,
            solved: rd.u64()?,
            hits: rd.u64()?,
            cert_checked: rd.u64()?,
            mode_session: rd.u64()?,
            mode_fresh: rd.u64()?,
        });
    }
    Ok(ServerStats {
        shards,
        hot_hits: rd.u64()?,
        frames: rd.u64()?,
        protocol_errors: rd.u64()?,
    })
}

// --------------------------------------------------------------------------
// Message codec
// --------------------------------------------------------------------------

/// Serializes a message into a frame payload (no length prefix).
pub fn encode_msg(m: &Msg) -> Vec<u8> {
    let mut out = Vec::new();
    match m {
        Msg::Hello { version } => {
            out.push(T_HELLO);
            push_u32(&mut out, *version);
        }
        Msg::HelloAck { version, shards, shard_jobs, max_inflight } => {
            out.push(T_HELLO_ACK);
            push_u32(&mut out, *version);
            push_u32(&mut out, *shards);
            push_u32(&mut out, *shard_jobs);
            push_u32(&mut out, *max_inflight);
        }
        Msg::Batch { id, queries } => {
            out.push(T_BATCH);
            push_u64(&mut out, *id);
            push_u32(&mut out, queries.len() as u32);
            for q in queries {
                push_str(&mut out, &q.label);
                push_cfg(&mut out, &q.cfg);
                push_bytes(&mut out, &q.core_bytes);
            }
        }
        Msg::BatchReply { id, results, stats } => {
            out.push(T_BATCH_REPLY);
            push_u64(&mut out, *id);
            push_u32(&mut out, results.len() as u32);
            for r in results {
                push_outcome(&mut out, r);
            }
            push_server_stats(&mut out, stats);
        }
        Msg::Ping { token } => {
            out.push(T_PING);
            push_u64(&mut out, *token);
        }
        Msg::Pong { token } => {
            out.push(T_PONG);
            push_u64(&mut out, *token);
        }
        Msg::StatsReq => out.push(T_STATS),
        Msg::StatsReply { stats } => {
            out.push(T_STATS_REPLY);
            push_server_stats(&mut out, stats);
        }
        Msg::Error { msg } => {
            out.push(T_ERROR);
            push_str(&mut out, msg);
        }
    }
    out
}

/// Deserializes a frame payload. Every structural violation is reported
/// as an error — never a panic — because payloads come off a socket.
pub fn decode_msg(payload: &[u8]) -> Result<Msg, WireError> {
    let mut rd = Rd::new(payload);
    let msg = match rd.u8()? {
        T_HELLO => Msg::Hello { version: rd.u32()? },
        T_HELLO_ACK => Msg::HelloAck {
            version: rd.u32()?,
            shards: rd.u32()?,
            shard_jobs: rd.u32()?,
            max_inflight: rd.u32()?,
        },
        T_BATCH => {
            let id = rd.u64()?;
            let n = rd.count(13)?;
            let mut queries = Vec::with_capacity(n);
            for _ in 0..n {
                let label = rd.string()?;
                let cfg = read_cfg(&mut rd)?;
                let core_bytes = rd.bytes()?;
                queries.push(WireQuery { label, cfg, core_bytes });
            }
            Msg::Batch { id, queries }
        }
        T_BATCH_REPLY => {
            let id = rd.u64()?;
            let n = rd.count(16)?;
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                results.push(read_outcome(&mut rd)?);
            }
            let stats = read_server_stats(&mut rd)?;
            Msg::BatchReply { id, results, stats }
        }
        T_PING => Msg::Ping { token: rd.u64()? },
        T_PONG => Msg::Pong { token: rd.u64()? },
        T_STATS => Msg::StatsReq,
        T_STATS_REPLY => Msg::StatsReply { stats: read_server_stats(&mut rd)? },
        T_ERROR => Msg::Error { msg: rd.string()? },
        _ => return Err(WireError::Garbage("unknown message tag")),
    };
    rd.done()?;
    Ok(msg)
}
