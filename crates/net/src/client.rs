//! The serval client: serialize obligations, stream them to `servald`,
//! reassemble submission-order verdicts.
//!
//! [`Client`] is a blocking, single-connection client. Batches are cut
//! into bounded chunks (`CHUNK` queries per frame) and
//! pipelined up to the server's advertised in-flight window: the client
//! keeps at most `max_inflight` unanswered frames, interleaving sends
//! and receives so neither side's socket buffers can deadlock the
//! exchange. Replies arrive in frame order; within each reply, outcomes
//! are already in submission order, and countermodels are mapped back
//! onto the caller's terms through the `BackMap` kept from
//! serialization.
//!
//! [`RemoteEngine`] wraps a client in the [`Discharge`] seam, so
//! `serval_engine::install_discharger(Arc::new(remote))` redirects every
//! existing workload — the certikos refinement proof, the JIT checker
//! sweep — through the server without touching proof code.

use crate::wire::{self, Msg, ServerStats, WireOutcome, WireQuery};
use serval_engine::form::{self, BackMap};
use serval_engine::solve::RawVerdict;
use serval_engine::{countermodel_valid, Discharge, Query, QueryOutcome};
use serval_smt::solver::VerifyResult;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer sent bytes that do not decode.
    Wire(wire::WireError),
    /// The peer sent a well-formed but protocol-violating message.
    Protocol(String),
    /// The server reported a fatal error frame.
    Server(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Wire(e) => write!(f, "wire: {e}"),
            NetError::Protocol(why) => write!(f, "protocol: {why}"),
            NetError::Server(why) => write!(f, "server: {why}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<wire::WireError> for NetError {
    fn from(e: wire::WireError) -> Self {
        NetError::Wire(e)
    }
}

/// The server's advertised shape, from its `HelloAck`.
#[derive(Clone, Copy, Debug)]
pub struct ServerInfo {
    /// Worker shard count.
    pub shards: u32,
    /// Pool workers per shard.
    pub shard_jobs: u32,
    /// Per-connection in-flight frame bound.
    pub max_inflight: u32,
}

/// Submitted queries per `Batch` frame (see [`encode_batch`]): bounds
/// per-frame memory while keeping the pipeline full.
const CHUNK: usize = 64;

/// A blocking servald connection.
pub struct Client {
    stream: TcpStream,
    max_frame: usize,
    next_id: u64,
    /// The server's shape.
    pub info: ServerInfo,
    /// Stats snapshot from the most recent reply.
    pub last_stats: Option<ServerStats>,
    /// Payload bytes sent / received (frames included).
    pub bytes_sent: u64,
    /// See `bytes_sent`.
    pub bytes_received: u64,
}

impl Client {
    /// Connects and completes the `Hello`/`HelloAck` handshake.
    pub fn connect(addr: &str) -> Result<Client, NetError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            stream,
            max_frame: wire::DEFAULT_MAX_FRAME,
            next_id: 1,
            info: ServerInfo { shards: 0, shard_jobs: 0, max_inflight: 1 },
            last_stats: None,
            bytes_sent: 0,
            bytes_received: 0,
        };
        client.send(&Msg::Hello { version: wire::PROTO_VERSION })?;
        match client.recv()? {
            Msg::HelloAck { version, shards, shard_jobs, max_inflight } => {
                if version != wire::PROTO_VERSION {
                    return Err(NetError::Wire(wire::WireError::BadVersion(version)));
                }
                client.info = ServerInfo { shards, shard_jobs, max_inflight };
                Ok(client)
            }
            Msg::Error { msg } => Err(NetError::Server(msg)),
            _ => Err(NetError::Protocol("expected HelloAck".to_string())),
        }
    }

    fn send(&mut self, msg: &Msg) -> Result<(), NetError> {
        let payload = wire::encode_msg(msg);
        self.bytes_sent += 4 + payload.len() as u64;
        wire::write_frame(&mut self.stream, &payload)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Msg, NetError> {
        let payload = wire::read_frame(&mut self.stream, self.max_frame)?
            .ok_or(NetError::Protocol("server closed the connection".to_string()))?;
        self.bytes_received += 4 + payload.len() as u64;
        Ok(wire::decode_msg(&payload)?)
    }

    /// Round-trip liveness probe; returns the wall time.
    pub fn ping(&mut self) -> Result<Duration, NetError> {
        let token = 0x5e4a1 ^ self.next_id;
        self.next_id += 1;
        let t0 = Instant::now();
        self.send(&Msg::Ping { token })?;
        match self.recv()? {
            Msg::Pong { token: t } if t == token => Ok(t0.elapsed()),
            Msg::Error { msg } => Err(NetError::Server(msg)),
            _ => Err(NetError::Protocol("expected matching Pong".to_string())),
        }
    }

    /// Fetches the server's stats snapshot.
    pub fn server_stats(&mut self) -> Result<ServerStats, NetError> {
        self.send(&Msg::StatsReq)?;
        match self.recv()? {
            Msg::StatsReply { stats } => {
                self.last_stats = Some(stats.clone());
                Ok(stats)
            }
            Msg::Error { msg } => Err(NetError::Server(msg)),
            _ => Err(NetError::Protocol("expected StatsReply".to_string())),
        }
    }

    fn recv_batch_reply(&mut self, id: u64) -> Result<Vec<WireOutcome>, NetError> {
        match self.recv()? {
            Msg::BatchReply { id: rid, results, stats } => {
                if rid != id {
                    return Err(NetError::Protocol(format!(
                        "reply id {rid} does not match frame id {id}"
                    )));
                }
                self.last_stats = Some(stats);
                Ok(results)
            }
            Msg::Error { msg } => Err(NetError::Server(msg)),
            _ => Err(NetError::Protocol("expected BatchReply".to_string())),
        }
    }

    /// Discharges a batch remotely, returning outcomes in submission
    /// order. Must be called from the thread that owns the queries'
    /// terms (serialization and countermodel mapping both need them).
    pub fn submit_batch(&mut self, queries: Vec<Query>) -> Result<Vec<QueryOutcome>, NetError> {
        let (batch, frames) = encode_batch(queries);
        Ok(batch.decode(self.ship(frames)?))
    }

    /// Ships the frames of a batch and collects their outcomes, in
    /// order. No frames, nothing sent.
    fn ship(&mut self, mut chunks: Vec<Vec<WireQuery>>) -> Result<Vec<WireOutcome>, NetError> {
        // Pipeline the frames, keeping at most the server's advertised
        // window unanswered. Interleaving sends and receives matters: if
        // we wrote every frame before reading any reply, a batch bigger
        // than the combined socket buffers would deadlock against the
        // server's own backpressure.
        let mut results: Vec<WireOutcome> = Vec::new();
        let window = (self.info.max_inflight as usize).max(1);
        let mut pending: Vec<(u64, usize)> = Vec::with_capacity(chunks.len());
        let mut sent = 0;
        let mut received = 0;
        while received < chunks.len() {
            if sent < chunks.len() && sent - received < window {
                let id = self.next_id;
                self.next_id += 1;
                let batch = std::mem::take(&mut chunks[sent]);
                pending.push((id, batch.len()));
                self.send(&Msg::Batch { id, queries: batch })?;
                sent += 1;
            } else {
                let (id, expected) = pending[received];
                let reply = self.recv_batch_reply(id)?;
                if reply.len() != expected {
                    return Err(NetError::Protocol(format!(
                        "reply has {} outcomes for {expected} queries",
                        reply.len()
                    )));
                }
                results.extend(reply);
                received += 1;
            }
        }
        Ok(results)
    }
}

/// What the client keeps of a batch while its queries are away: the
/// outcomes it already has, and how to read the ones it is waiting for.
pub struct Encoded {
    /// One slot per submitted query: the outcome of a query a constant
    /// already proved, `None` for one that was shipped.
    slots: Vec<Option<QueryOutcome>>,
    /// Each shipped query — a countermodel that comes back is checked
    /// against it — and its countermodel translation.
    shipped: Vec<(Query, BackMap)>,
}

/// The client's one encode path (shared by [`Client`] and the sim
/// scenario's in-memory client): fold, then wire-encode. A trivially
/// proved query ([`form::folds`]) never leaves the client — it is
/// answered here, exactly as the server's engine would have answered
/// it, and only the rest are serialized, through one batch-scoped
/// [`form::Keyer`]. Returns what stays behind and what to ship, both in
/// submission order, the latter cut into frames: a frame carries what
/// ships of one window of `CHUNK` submitted queries, so the server's
/// batches — and with them its sessions, its cold wall and its peak
/// memory — are cut where they were when every query shipped. (Cutting
/// every `CHUNK` *shipped* queries instead hands a shard one large
/// group where it had several small ones to overlap: measured +10%
/// set-up wall and +5% peak RSS on `remote_warm`, for 2–10% of a warm
/// round.)
///
/// Must be called from the thread that owns the queries' terms.
pub fn encode_batch(queries: Vec<Query>) -> (Encoded, Vec<Vec<WireQuery>>) {
    let mut keyer = form::Keyer::new();
    let mut slots = Vec::with_capacity(queries.len());
    let mut shipped = Vec::new();
    let mut frames: Vec<Vec<WireQuery>> = Vec::new();
    let mut window = usize::MAX;
    for (i, q) in queries.into_iter().enumerate() {
        if form::folds(&q.assumptions, q.goal) {
            slots.push(Some(serval_engine::folded_outcome(q.label)));
            continue;
        }
        if i / CHUNK != window {
            window = i / CHUNK;
            frames.push(Vec::new());
        }
        frames.last_mut().expect("this window's frame was just opened").push(WireQuery {
            label: q.label.clone(),
            cfg: q.cfg,
            core_bytes: keyer.wire(&q.assumptions, q.goal).to_vec(),
        });
        shipped.push((q, keyer.backmap().clone()));
        slots.push(None);
    }
    (Encoded { slots, shipped }, frames)
}

impl Encoded {
    /// How many queries were shipped: the replies [`Encoded::decode`]
    /// expects.
    pub fn shipped(&self) -> usize {
        self.shipped.len()
    }

    /// Re-interleaves the folded outcomes with one answer per shipped
    /// query, in submission order.
    fn interleave(
        self,
        mut answer: impl FnMut(Query, BackMap) -> QueryOutcome,
    ) -> Vec<QueryOutcome> {
        let mut shipped = self.shipped.into_iter();
        self.slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    let (query, backmap) = shipped.next().expect("one entry per shipped query");
                    answer(query, backmap)
                })
            })
            .collect()
    }

    /// The batch's outcomes in submission order, given the server's
    /// replies to the shipped queries in the order they were shipped.
    pub fn decode(self, replies: Vec<WireOutcome>) -> Vec<QueryOutcome> {
        assert_eq!(replies.len(), self.shipped.len(), "one reply per shipped query");
        let mut replies = replies.into_iter();
        self.interleave(|query, backmap| {
            let out = replies.next().expect("lengths were checked");
            outcome_of_wire(query, out, &backmap)
        })
    }

    /// The batch's outcomes when the exchange failed: what was folded is
    /// still proved, everything shipped is `Unknown` carrying the error.
    fn fail(self, why: &NetError) -> Vec<QueryOutcome> {
        self.interleave(|query, _| QueryOutcome {
            label: query.label,
            result: VerifyResult::Unknown,
            stats: None,
            wall: Duration::ZERO,
            cache_hit: false,
            cert: None,
            error: Some(format!("net: {why}")),
        })
    }
}

/// Translates the server's answer to `query` back into the caller's
/// term context. A countermodel off the wire is a claim, not a fact:
/// one whose indices do not fit the query's own variables, or that fits
/// but does not refute the query when evaluated (the check the engine
/// makes of a cached countermodel, [`serval_engine::countermodel_valid`]),
/// is the server's fault, reported as `Unknown` — never a panic, never
/// a `Counterexample`.
pub fn outcome_of_wire(query: Query, out: WireOutcome, backmap: &BackMap) -> QueryOutcome {
    let mut error = out.error;
    let mut unknown = |why: &str| {
        error = Some(why.to_string());
        VerifyResult::Unknown
    };
    let result = match out.verdict {
        RawVerdict::Proved => VerifyResult::Proved,
        RawVerdict::Refuted(pm) => match serval_engine::portable_to_model(&pm, backmap) {
            None => unknown(
                "net: malformed countermodel (an index or sort outside the query's variables)",
            ),
            Some(_) if !countermodel_valid(&pm, backmap, &query.assumptions, query.goal) => {
                unknown("net: countermodel does not refute the query")
            }
            Some(model) => VerifyResult::Counterexample(Box::new(model)),
        },
        RawVerdict::Unknown => VerifyResult::Unknown,
        RawVerdict::Interrupted => VerifyResult::Interrupted,
    };
    QueryOutcome {
        label: query.label,
        result,
        stats: out.stats,
        wall: Duration::from_micros(out.wall_micros),
        cache_hit: out.cache_hit,
        cert: (out.cert != 0).then_some(out.cert),
        error,
    }
}

/// A [`Discharge`] implementation that forwards batches to a remote
/// servald. Install it with `serval_engine::install_discharger` and
/// every `serval_core::report::discharge*` call in the process goes over
/// the wire.
///
/// Network failures degrade to `Unknown` outcomes carrying the error —
/// a dead server can fail a proof run, never wedge or crash it.
pub struct RemoteEngine {
    client: Mutex<Client>,
}

impl RemoteEngine {
    /// Wraps an established connection.
    pub fn new(client: Client) -> RemoteEngine {
        RemoteEngine { client: Mutex::new(client) }
    }

    /// Connects to `addr` and wraps the client.
    pub fn connect(addr: &str) -> Result<RemoteEngine, NetError> {
        Ok(RemoteEngine::new(Client::connect(addr)?))
    }

    /// Stats snapshot from the most recent reply.
    pub fn last_stats(&self) -> Option<ServerStats> {
        self.client.lock().unwrap_or_else(|p| p.into_inner()).last_stats.clone()
    }

    /// (bytes sent, bytes received) so far.
    pub fn bytes(&self) -> (u64, u64) {
        let c = self.client.lock().unwrap_or_else(|p| p.into_inner());
        (c.bytes_sent, c.bytes_received)
    }

    /// The server's advertised shape.
    pub fn info(&self) -> ServerInfo {
        self.client.lock().unwrap_or_else(|p| p.into_inner()).info
    }
}

impl Discharge for RemoteEngine {
    fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome> {
        let (batch, frames) = encode_batch(queries);
        let mut client = self.client.lock().unwrap_or_else(|p| p.into_inner());
        match client.ship(frames) {
            Ok(replies) => batch.decode(replies),
            Err(e) => batch.fail(&e),
        }
    }
}
