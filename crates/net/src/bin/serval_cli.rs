//! serval-cli — client for a running `servald`.
//!
//! ```text
//! serval-cli ping              round-trip liveness probe
//! serval-cli stats             print the server's shard/admission stats
//! serval-cli probe             discharge two hand-built queries remotely
//! serval-cli certikos [oN]     run the certikos refinement proof with all
//!                              obligations discharged over the wire
//! serval-cli parity [oN]       certikos remotely, then locally, and
//!                              compare verdicts — exits nonzero on any
//!                              mismatch or if fewer than 2 shards did work
//! ```
//!
//! The server address comes from `SERVAL_ADDR` or `--addr HOST:PORT`.
//! `parity` is the ci.sh loopback gate: it proves that routing a whole
//! workload through the sharded server changes nothing about the
//! verdicts.

use serval_core::report::{ProofReport, Verdict};
use serval_core::OptCfg;
use serval_ir::OptLevel;
use serval_monitors::certikos;
use serval_net::service::NetCfg;
use serval_net::wire::ServerStats;
use serval_net::{Client, RemoteEngine};
use serval_smt::solver::SolverConfig;
use serval_smt::{reset_ctx, BV};
use std::sync::Arc;

fn main() {
    let cfg = serval_engine::edge::or_exit(NetCfg::from_env());
    let mut addr = cfg.addr;
    let mut command: Option<String> = None;
    let mut level = OptLevel::O1;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => {
                addr = args.next().unwrap_or_else(|| {
                    eprintln!("serval-cli: --addr needs a value");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                println!(
                    "usage: serval-cli [--addr HOST:PORT] ping|stats|probe|certikos|parity [o0|o1|o2]"
                );
                return;
            }
            "o0" | "O0" => level = OptLevel::O0,
            "o1" | "O1" => level = OptLevel::O1,
            "o2" | "O2" => level = OptLevel::O2,
            cmd if command.is_none() => command = Some(cmd.to_string()),
            other => {
                eprintln!("serval-cli: unexpected argument {other}");
                std::process::exit(2);
            }
        }
    }

    let code = match command.as_deref() {
        Some("ping") => ping(&addr),
        Some("stats") => stats(&addr),
        Some("probe") => probe(&addr),
        Some("certikos") => certikos_remote(&addr, level),
        Some("parity") => {
            // The one command that also runs the workload locally.
            serval_engine::install(cfg.engine);
            parity(&addr, level)
        }
        _ => {
            eprintln!("serval-cli: expected one of ping|stats|probe|certikos|parity");
            2
        }
    };
    std::process::exit(code);
}

fn connect(addr: &str) -> Client {
    match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serval-cli: cannot reach servald at {addr}: {e}");
            std::process::exit(1);
        }
    }
}

fn ping(addr: &str) -> i32 {
    let mut client = connect(addr);
    match client.ping() {
        Ok(rtt) => {
            let info = client.info;
            println!(
                "pong from {addr} in {rtt:?} ({} shards x {} workers)",
                info.shards, info.shard_jobs
            );
            0
        }
        Err(e) => {
            eprintln!("serval-cli: ping failed: {e}");
            1
        }
    }
}

fn stats(addr: &str) -> i32 {
    let mut client = connect(addr);
    match client.server_stats() {
        Ok(stats) => {
            print_stats(&stats);
            0
        }
        Err(e) => {
            eprintln!("serval-cli: stats failed: {e}");
            1
        }
    }
}

fn print_stats(stats: &ServerStats) {
    println!("  shard    queued    solved      hits  cert-checked  sessions  fresh-groups");
    for row in &stats.shards {
        println!(
            "  {:>5} {:>9} {:>9} {:>9} {:>13} {:>9} {:>13}",
            row.shard,
            row.queued,
            row.solved,
            row.hits,
            row.cert_checked,
            row.mode_session,
            row.mode_fresh
        );
    }
    println!(
        "  answered at admission: {} | {} frames, {} protocol errors",
        stats.hot_hits, stats.frames, stats.protocol_errors
    );
}

/// Two hand-built obligations: a bitvector tautology (proved, with a
/// certificate fingerprint when the server certifies) and a refutable
/// claim (countermodel mapped back onto our terms).
fn probe(addr: &str) -> i32 {
    let mut client = connect(addr);
    reset_ctx();
    let x = BV::fresh(32, "x");
    let m = BV::fresh(32, "m");
    let queries = vec![
        serval_engine::Query {
            label: "probe/and-le".to_string(),
            assumptions: vec![],
            goal: (x & m).ule(x),
            cfg: SolverConfig::default(),
        },
        serval_engine::Query {
            label: "probe/x-lt-10".to_string(),
            assumptions: vec![x.uge(BV::lit(32, 3))],
            goal: x.ult(BV::lit(32, 10)),
            cfg: SolverConfig::default(),
        },
    ];
    let outcomes = match client.submit_batch(queries) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("serval-cli: probe batch failed: {e}");
            return 1;
        }
    };
    for out in &outcomes {
        let verdict = match &out.result {
            serval_smt::solver::VerifyResult::Proved => "proved".to_string(),
            serval_smt::solver::VerifyResult::Counterexample(m) => {
                format!("refuted (x = {:#x})", m.eval_bv(x.0))
            }
            serval_smt::solver::VerifyResult::Unknown => "unknown".to_string(),
            serval_smt::solver::VerifyResult::Interrupted => "interrupted".to_string(),
        };
        let cert = match out.cert {
            Some(c) => format!("cert {c:#018x}"),
            None => "uncertified".to_string(),
        };
        println!("  {:<16} {verdict:<28} {cert}  [{:?}]", out.label, out.wall);
    }
    if let Some(stats) = &client.last_stats {
        print_stats(stats);
    }
    0
}

fn run_certikos(level: OptLevel) -> ProofReport {
    certikos::proofs::prove_refinement(level, OptCfg::default(), SolverConfig::default())
}

fn certikos_remote(addr: &str, level: OptLevel) -> i32 {
    let remote = match RemoteEngine::connect(addr) {
        Ok(r) => Arc::new(r),
        Err(e) => {
            eprintln!("serval-cli: cannot reach servald at {addr}: {e}");
            return 1;
        }
    };
    serval_engine::install_discharger(Arc::clone(&remote) as Arc<dyn serval_engine::Discharge>);
    let report = run_certikos(level);
    serval_engine::clear_discharger();
    print!("{}", report.render());
    let (sent, received) = remote.bytes();
    println!("  wire: {sent} bytes sent, {received} bytes received");
    if let Some(stats) = remote.last_stats() {
        print_stats(&stats);
    }
    i32::from(!report.all_proved())
}

/// One-word verdict kind; countermodels differ across runs legitimately
/// (any satisfying assignment is valid), so parity compares kinds.
fn verdict_kind(v: &Verdict) -> &'static str {
    match v {
        Verdict::Proved => "proved",
        Verdict::Counterexample(..) => "refuted",
        Verdict::Unknown => "unknown",
        Verdict::Interrupted => "interrupted",
    }
}

fn parity(addr: &str, level: OptLevel) -> i32 {
    let remote = match RemoteEngine::connect(addr) {
        Ok(r) => Arc::new(r),
        Err(e) => {
            eprintln!("serval-cli: cannot reach servald at {addr}: {e}");
            return 1;
        }
    };
    println!("parity: certikos -{level:?} via remote servald at {addr}");
    serval_engine::install_discharger(Arc::clone(&remote) as Arc<dyn serval_engine::Discharge>);
    let remote_report = run_certikos(level);
    serval_engine::clear_discharger();
    let stats = remote.last_stats();

    println!("parity: certikos -{level:?} in-process");
    let local_report = run_certikos(level);

    let mut code = 0;
    if remote_report.theorems.len() != local_report.theorems.len() {
        eprintln!(
            "parity: theorem count differs (remote {}, local {})",
            remote_report.theorems.len(),
            local_report.theorems.len()
        );
        code = 1;
    }
    let mut mismatches = 0usize;
    for (r, l) in remote_report.theorems.iter().zip(&local_report.theorems) {
        let (rk, lk) = (verdict_kind(&r.verdict), verdict_kind(&l.verdict));
        if r.name != l.name || rk != lk {
            eprintln!("parity: MISMATCH {:<40} remote={rk} ({}) local={lk} ({})", r.name, r.name, l.name);
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        eprintln!("parity: {mismatches} verdict mismatches");
        code = 1;
    }

    let exercised = match &stats {
        Some(s) => {
            print_stats(s);
            s.shards.iter().filter(|row| row.queued > 0).count()
        }
        None => 0,
    };
    if exercised < 2 {
        eprintln!("parity: only {exercised} shard(s) exercised — need at least 2");
        code = 1;
    }
    println!(
        "parity: {} theorems, verdicts identical: {}, shards exercised: {exercised}",
        local_report.theorems.len(),
        code == 0 && mismatches == 0
    );
    code
}
