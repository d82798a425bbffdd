//! servald's TCP front end: accept loop, per-connection reader/writer
//! pair, long-lived shard threads, and per-client backpressure.
//!
//! Threading model (all std, no async runtime):
//!
//! - One accept thread. Each connection gets a *reader* thread (owns the
//!   socket's read half, decodes frames, validates and routes batches)
//!   and a *writer* thread (owns the write half, assembles replies in
//!   frame order).
//! - One long-lived thread per shard, consuming [`ShardJob`]s from an
//!   unbounded channel and answering over the job's own reply channel.
//!   Shards never touch client sockets, so a client that stops reading
//!   can only stall its *own* writer — other clients' batches keep
//!   flowing through the shards untouched.
//! - Backpressure: a connection may have at most `max_inflight`
//!   unanswered `Batch` frames (a closable counting gate between reader
//!   and writer). Past that the reader simply stops reading, and TCP's
//!   own flow control pushes back on the client.
//!
//! Replies preserve frame order per connection, and within a batch the
//! outcomes are reassembled into submission order by slot index —
//! whichever order the shards finish in ([`collect_batch`]).

use crate::service::{NetCfg, RoutedQuery, ServerCore, Step};
use crate::wire::{self, Msg, WireOutcome, SHARD_HOT};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop waits after a failed `accept`.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// One routed bucket headed for a shard thread, with the reply channel
/// the connection writer is collecting from.
struct ShardJob {
    batch: Vec<RoutedQuery>,
    reply: Sender<(usize, WireOutcome)>,
}

/// What the reader hands the writer, in frame order.
enum Reply {
    /// Write this message now.
    Now(Msg),
    /// Write this message, then close the connection.
    CloseAfter(Msg),
    /// A dispatched batch: collect the shard results, then write the
    /// `BatchReply` (and release one in-flight slot).
    Batch {
        id: u64,
        slots: Vec<Option<WireOutcome>>,
        rx: Receiver<(usize, WireOutcome)>,
    },
}

/// A closable counting gate: the per-connection in-flight frame bound.
struct Gate {
    max: usize,
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl Gate {
    fn new(max: usize) -> Gate {
        Gate { max: max.max(1), state: Mutex::new((0, false)), cv: Condvar::new() }
    }

    /// Blocks until a slot frees up; false once the gate is closed.
    fn acquire(&self) -> bool {
        let mut g = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if g.1 {
                return false;
            }
            if g.0 < self.max {
                g.0 += 1;
                return true;
            }
            g = self.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn release(&self) {
        let mut g = self.state.lock().unwrap_or_else(|p| p.into_inner());
        g.0 = g.0.saturating_sub(1);
        drop(g);
        self.cv.notify_all();
    }

    fn close(&self) {
        let mut g = self.state.lock().unwrap_or_else(|p| p.into_inner());
        g.1 = true;
        drop(g);
        self.cv.notify_all();
    }
}

/// Reassembles a batch into submission order: slots already answered
/// (at admission) stay put, shard results land by slot index in
/// whatever order the shards finish. Slots still empty when every shard
/// sender is gone (shutdown, shard death) become error outcomes — the
/// client always gets exactly one outcome per query.
fn collect_batch(
    mut slots: Vec<Option<WireOutcome>>,
    rx: &Receiver<(usize, WireOutcome)>,
) -> Vec<WireOutcome> {
    let mut missing = slots.iter().filter(|s| s.is_none()).count();
    while missing > 0 {
        match rx.recv() {
            Ok((slot, outcome)) => {
                if slots[slot].is_none() {
                    missing -= 1;
                }
                slots[slot] = Some(outcome);
            }
            Err(_) => break,
        }
    }
    slots
        .into_iter()
        .map(|s| {
            s.unwrap_or_else(|| WireOutcome::unknown(SHARD_HOT, "server shutting down".to_string()))
        })
        .collect()
}

/// The listening server. Dropping it (or calling [`Server::shutdown`])
/// stops accepting, closes live connections, and drains the shards.
pub struct Server {
    core: Arc<ServerCore>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    shard_txs: Mutex<Option<Vec<Sender<ShardJob>>>>,
    shard_threads: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop and shard threads.
    pub fn bind(addr: &str, cfg: NetCfg) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let core = Arc::new(ServerCore::new(cfg));

        let mut shard_txs = Vec::new();
        let mut shard_threads = Vec::new();
        for shard in core.shards() {
            let (tx, rx) = mpsc::channel::<ShardJob>();
            let shard = Arc::clone(shard);
            shard_txs.push(tx);
            shard_threads.push(
                std::thread::Builder::new()
                    .name(format!("servald-shard-{}", shard.index))
                    .spawn(move || {
                        for job in rx {
                            for item in shard.discharge(job.batch) {
                                let _ = job.reply.send(item);
                            }
                        }
                    })
                    .expect("spawn shard thread"),
            );
        }

        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>> =
            Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let txs = shard_txs.clone();
            std::thread::Builder::new()
                .name("servald-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        // A failing accept (EMFILE, say) keeps failing
                        // until something closes: back off, don't spin.
                        let Ok(stream) = stream else {
                            std::thread::sleep(ACCEPT_BACKOFF);
                            continue;
                        };
                        let watch = match stream.try_clone() {
                            Ok(w) => w,
                            Err(_) => continue,
                        };
                        let core = Arc::clone(&core);
                        let txs = txs.clone();
                        let handle = std::thread::Builder::new()
                            .name("servald-conn".to_string())
                            .spawn(move || connection(stream, core, txs))
                            .expect("spawn connection thread");
                        // Reap on every accept: a finished connection's
                        // entry holds a descriptor (the watch clone), and a
                        // server outlives any number of short-lived clients.
                        let mut conns = conns.lock().unwrap_or_else(|p| p.into_inner());
                        conns.retain(|(_, conn)| !conn.is_finished());
                        conns.push((watch, handle));
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(Server {
            core,
            addr: local,
            stop,
            accept: Some(accept),
            shard_txs: Mutex::new(Some(shard_txs)),
            shard_threads,
            conns,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service core (stats, shards).
    pub fn core(&self) -> &Arc<ServerCore> {
        &self.core
    }

    /// Connections the accept loop still tracks (live, or finished since
    /// the last accept).
    #[cfg(test)]
    pub(crate) fn tracked_connections(&self) -> usize {
        self.conns.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    fn stop_inner(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Force live connections down, then join their threads.
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|p| p.into_inner()));
        for (stream, _) in &conns {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, handle) in conns {
            let _ = handle.join();
        }
        // Closing the job channels lets the shard threads drain and exit.
        self.shard_txs.lock().unwrap_or_else(|p| p.into_inner()).take();
        for handle in self.shard_threads.drain(..) {
            let _ = handle.join();
        }
    }

    /// Stops the server and waits for every thread to exit.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// One connection's reader: handshake, then frames until EOF/error.
fn connection(stream: TcpStream, core: Arc<ServerCore>, shard_txs: Vec<Sender<ShardJob>>) {
    let _ = stream.set_nodelay(true);
    let mut read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let max_frame = core.cfg().max_frame;
    let gate = Arc::new(Gate::new(core.cfg().max_inflight));

    // Writer thread: drains replies in frame order.
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    let writer = {
        let core = Arc::clone(&core);
        let gate = Arc::clone(&gate);
        let mut write_half = stream;
        std::thread::Builder::new()
            .name("servald-conn-writer".to_string())
            .spawn(move || {
                for reply in reply_rx {
                    let (payload, close) = match reply {
                        Reply::Now(msg) => (wire::encode_msg(&msg), false),
                        Reply::CloseAfter(msg) => (wire::encode_msg(&msg), true),
                        Reply::Batch { id, slots, rx } => {
                            let results = collect_batch(slots, &rx);
                            gate.release();
                            let reply =
                                Msg::BatchReply { id, results, stats: core.stats() };
                            (wire::encode_msg(&reply), false)
                        }
                    };
                    if wire::write_frame(&mut write_half, &payload).is_err() || close {
                        break;
                    }
                }
                // Unblock a reader stuck on the gate or on a read.
                gate.close();
                let _ = write_half.flush();
                let _ = write_half.shutdown(Shutdown::Both);
            })
            .expect("spawn connection writer")
    };

    let mut greeted = false;
    loop {
        let payload = match wire::read_frame(&mut read_half, max_frame) {
            Ok(Some(p)) => p,
            Ok(None) => break, // clean EOF
            Err(wire::WireError::Io(_)) => break,
            Err(e) => {
                // Truncated / oversize / garbage framing: report and drop
                // the connection. Only this client is affected.
                core.note_protocol_error();
                let _ = reply_tx.send(Reply::CloseAfter(Msg::Error { msg: e.to_string() }));
                break;
            }
        };
        let reply = match core.on_frame(&mut greeted, &payload) {
            Step::Reply(msg) => Reply::Now(msg),
            Step::Close(msg) => {
                let _ = reply_tx.send(Reply::CloseAfter(msg));
                break;
            }
            Step::Dispatch { id, queries } => {
                if !gate.acquire() {
                    break; // writer is gone
                }
                let mut slots: Vec<Option<WireOutcome>> =
                    (0..queries.len()).map(|_| None).collect();
                let buckets = core.place(&mut slots, queries);
                let (tx, rx) = mpsc::channel::<(usize, WireOutcome)>();
                for (home, batch) in buckets.into_iter().enumerate() {
                    if batch.is_empty() {
                        continue;
                    }
                    if let Err(mpsc::SendError(job)) =
                        shard_txs[home].send(ShardJob { batch, reply: tx.clone() })
                    {
                        // Shard thread is gone (shutdown): answer the
                        // bucket with error outcomes instead of dropping
                        // the queries on the floor.
                        for rq in job.batch {
                            let why = "shard unavailable".to_string();
                            slots[rq.slot] = Some(WireOutcome::unknown(home as u32, why));
                        }
                    }
                }
                drop(tx);
                Reply::Batch { id, slots, rx }
            }
        };
        if reply_tx.send(reply).is_err() {
            break;
        }
    }
    drop(reply_tx);
    let _ = writer.join();
    let _ = read_half.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod reassembly_tests {
    use super::*;
    use serval_engine::solve::RawVerdict;

    fn out(shard: u32) -> WireOutcome {
        WireOutcome {
            verdict: RawVerdict::Proved,
            cert: shard as u64 + 1,
            cache_hit: false,
            shard,
            wall_micros: 0,
            stats: None,
            error: None,
        }
    }

    /// The cross-shard ordering pin: shard results arriving in *any*
    /// completion order land in exact submission order, interleaved with
    /// slots answered at admission.
    #[test]
    fn collect_batch_restores_submission_order() {
        let (tx, rx) = mpsc::channel();
        // Slot 2 was answered at admission, before dispatch.
        let slots = vec![None, None, Some(out(SHARD_HOT)), None, None];
        // Shards finish out of order: 4, 0, 3, 1.
        for slot in [4usize, 0, 3, 1] {
            tx.send((slot, out(slot as u32))).unwrap();
        }
        drop(tx);
        let results = collect_batch(slots, &rx);
        assert_eq!(results.len(), 5);
        for (i, r) in results.iter().enumerate() {
            if i == 2 {
                assert_eq!(r.shard, SHARD_HOT);
            } else {
                assert_eq!(r.shard, i as u32, "slot {i} out of order");
            }
        }
    }

    /// Lost shard senders (shutdown mid-batch) degrade to error
    /// outcomes, never to a short or misaligned reply.
    #[test]
    fn collect_batch_fills_lost_slots_with_errors() {
        let (tx, rx) = mpsc::channel();
        tx.send((1usize, out(1))).unwrap();
        drop(tx);
        let results = collect_batch(vec![None, None, None], &rx);
        assert_eq!(results.len(), 3);
        assert!(results[0].error.is_some());
        assert_eq!(results[1].shard, 1);
        assert!(results[2].error.is_some());
    }
}
