//! Remote probe: the verification service's library API in one file.
//!
//! Starts a sharded `servald` core on an ephemeral loopback port inside
//! this process, connects a [`serval_net::Client`] to it, discharges two
//! hand-built obligations over the wire, and prints the verdicts — the
//! certificate fingerprint backing the proved one, the countermodel
//! refuting the other (mapped back onto this process's terms). Then it
//! installs a [`serval_net::RemoteEngine`] as the process-wide
//! discharger, so an unmodified `serval_core::report::prove` call goes
//! over the wire too.
//!
//! Run with: `cargo run --example remote_probe`

use serval_engine::Query;
use serval_net::service::NetCfg;
use serval_net::{Client, RemoteEngine, Server};
use serval_smt::solver::{SolverConfig, VerifyResult};
use serval_smt::{reset_ctx, BV};
use std::sync::Arc;

fn main() {
    println!("== Serval remote probe: discharge over the wire ==\n");

    // A loopback server: 2 shards, ephemeral port. A repeat its home
    // shard already proved is answered at admission, from that cache.
    let mut cfg = NetCfg::default();
    cfg.shards = 2;
    cfg.engine.disk_cache = None;
    let server = Server::bind("127.0.0.1:0", cfg).expect("loopback bind");
    let addr = server.local_addr().to_string();
    println!(
        "servald on {addr}: {} shards x {} workers",
        server.core().shards().len(),
        server.core().shard_jobs()
    );

    // Two obligations, serialized to alpha-invariant wire bytes and
    // streamed as one batch.
    let mut client = Client::connect(&addr).expect("connect");
    reset_ctx();
    let x = BV::fresh(32, "x");
    let m = BV::fresh(32, "m");
    let queries = vec![
        Query {
            label: "masked-le".to_string(),
            assumptions: vec![],
            goal: (x & m).ule(x),
            cfg: SolverConfig::default(),
        },
        Query {
            label: "bounded".to_string(),
            assumptions: vec![x.uge(BV::lit(32, 3))],
            goal: x.ult(BV::lit(32, 10)),
            cfg: SolverConfig::default(),
        },
    ];
    println!("\n-- batch over the wire --");
    for out in client.submit_batch(queries).expect("batch") {
        match &out.result {
            VerifyResult::Proved => {
                let cert = out.cert.map_or("uncertified".to_string(), |c| format!("{c:#018x}"));
                println!("  {:<10} proved   certificate {cert}", out.label);
            }
            VerifyResult::Counterexample(model) => {
                println!("  {:<10} refuted  countermodel x = {}", out.label, model.eval_bv(x.0));
            }
            other => println!("  {:<10} {other:?}", out.label),
        }
    }
    if let Some(stats) = &client.last_stats {
        for row in &stats.shards {
            println!("  shard {}: queued {}, solved {}", row.shard, row.queued, row.solved);
        }
    }

    // The same wire, reached through the engine seam: install a
    // RemoteEngine and existing proof entry points go remote unchanged.
    println!("\n-- via the process-wide discharger --");
    let remote = RemoteEngine::connect(&addr).expect("connect");
    serval_engine::install_discharger(Arc::new(remote));
    reset_ctx();
    let a = BV::fresh(16, "a");
    let b = BV::fresh(16, "b");
    let ctx = serval_sym::SymCtx::new();
    let thm = serval_core::report::discharge(
        &ctx,
        SolverConfig::default(),
        "xor-roundtrip",
        ((a ^ b) ^ b).eq_(a),
    );
    println!("  xor-roundtrip: {:?} (discharged remotely)", thm.verdict);
    serval_engine::clear_discharger();

    server.shutdown();
    println!("\nremote probe OK");
}
