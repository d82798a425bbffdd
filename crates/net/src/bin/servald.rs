//! servald — the serval verification server.
//!
//! Binds `SERVAL_ADDR` (default `127.0.0.1:7557`; use port 0 for an
//! ephemeral port), builds `SERVAL_SHARDS` worker shards over the
//! engine's `SERVAL_JOBS` worker budget, and serves proof-discharge
//! batches until killed.
//!
//! Flags (each overrides the corresponding environment knob, and
//! accepts exactly what it accepts: `--shards 0` exits 2, naming the
//! flag, as `SERVAL_SHARDS=0` does naming the variable):
//!
//! ```text
//! servald [--addr HOST:PORT] [--addr-file PATH] [--shards N]
//!         [--jobs N] [--max-inflight N]
//! ```
//!
//! `--addr-file` writes the *bound* address (ephemeral port resolved) to
//! a file once the listener is up — scripts start servald on port 0 and
//! read the real address from there (see `ci.sh`).

use serval_engine::edge::{at_least, or_exit, parse, POSITIVE};
use serval_net::service::NetCfg;
use serval_net::Server;
use std::io::Write;

fn main() {
    let mut cfg = or_exit(NetCfg::from_env());
    let mut addr_file: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("servald: {name} needs a value");
                std::process::exit(2);
            })
        };
        // A flag's value goes through the validator its variable uses.
        let mut positive = |flag: &str| {
            let v = value(flag);
            or_exit(parse(|_| Some(v.into()), flag, POSITIVE, at_least(1))).expect("a value is set")
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--addr-file" => addr_file = Some(value("--addr-file").into()),
            "--shards" => cfg.shards = positive("--shards"),
            "--jobs" => cfg.engine.jobs = positive("--jobs"),
            "--max-inflight" => cfg.max_inflight = positive("--max-inflight"),
            "--help" | "-h" => {
                println!(
                    "usage: servald [--addr HOST:PORT] [--addr-file PATH] [--shards N] \
                     [--jobs N] [--max-inflight N]"
                );
                return;
            }
            other => {
                eprintln!("servald: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let addr = cfg.addr.clone();
    let server = match Server::bind(&addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("servald: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let core = server.core();
    println!(
        "servald listening on {} ({} shards x {} workers, max_inflight={})",
        server.local_addr(),
        core.shards().len(),
        core.shard_jobs(),
        core.cfg().max_inflight,
    );
    if let Some(path) = addr_file {
        // Write-then-rename so readers polling the path never observe a
        // half-written address.
        let tmp = path.with_extension("tmp");
        let write = std::fs::File::create(&tmp)
            .and_then(|mut f| writeln!(f, "{}", server.local_addr()))
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = write {
            eprintln!("servald: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    loop {
        std::thread::park();
    }
}
