//! serval-net: verification as a service.
//!
//! The engine crate made proof discharge a *data-plane* problem — a
//! query is a portable byte string (alpha-invariant normal form), a
//! verdict is a cacheable, certificate-fingerprinted record. This crate
//! puts a wire on that seam: `servald` is a from-scratch TCP server
//! (std-only, no async runtime) that receives length-prefixed batches of
//! normalized queries, routes each query by normal-form hash across N
//! worker shards (each shard owns an [`serval_engine::Engine`] with its
//! own slice of the worker pool and its own verdict-cache partition),
//! and streams back submission-order verdicts with certificate
//! fingerprints and countermodels on the wire. A query's frame bytes are
//! its engine cache key, so a repeat its home shard already proved is
//! answered at admission, before routing. `serval-cli` is the
//! matching client; [`client::RemoteEngine`] implements
//! [`serval_engine::Discharge`], so any existing workload (the certikos
//! refinement proof, the JIT checker sweep) runs against a remote server
//! by installing it — no proof code changes.
//!
//! Layering, bottom up:
//!
//! - [`wire`] — frame format and message codec over untrusted bytes.
//! - [`service`] — [`service::ServerCore`]: admission, routing, shards,
//!   stats; no sockets, so the deterministic simulator can drive it
//!   directly.
//! - [`server`] — the threaded TCP front end (accept loop, per-client
//!   reader/writer pair, bounded in-flight frames).
//! - [`client`] — blocking client + the [`serval_engine::Discharge`]
//!   adapter.
//!
//! Environment knobs (read by [`service::NetCfg::from_env`]):
//!
//! | Variable              | Meaning                                         |
//! |-----------------------|-------------------------------------------------|
//! | `SERVAL_ADDR`         | servald listen / client connect address (default `127.0.0.1:7557`) |
//! | `SERVAL_SHARDS`       | worker shard count (default 2)                  |
//! | `SERVAL_MAX_INFLIGHT` | per-connection in-flight frame bound (default 4)|
//! | `SERVAL_MAX_FRAME`    | frame payload bound in bytes, at least 1024 (default 256 MiB) |

pub mod client;
pub mod server;
pub mod service;
pub mod wire;

#[cfg(test)]
mod tests;

pub use client::{Client, NetError, RemoteEngine};
pub use server::Server;
pub use service::{NetCfg, ServerCore};
pub use wire::{ServerStats, ShardStatsRow};

/// FNV-1a over `bytes`: the routing hash. Stable across processes and
/// platforms so a query's home shard is a pure function of its normal
/// form.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
