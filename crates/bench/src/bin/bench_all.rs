//! Runs every micro/meso benchmark and writes the results as JSON. (The
//! end-to-end workloads and their per-layer counters live in
//! `benchmark/`; see its README.)
//!
//! ```sh
//! cargo run --release -p serval-bench --bin bench_all            # → bench_results.json
//! cargo run --release -p serval-bench --bin bench_all -- --out /tmp/b.json
//! SERVAL_BENCH_SAMPLES=3 cargo run --release -p serval-bench --bin bench_all
//! ```

use std::path::PathBuf;

fn main() {
    serval_engine::install(serval_engine::edge::or_exit(serval_engine::EngineCfg::from_env()));
    let mut out = PathBuf::from("bench_results.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(p) => out = PathBuf::from(p),
                None => {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other} (supported: --out PATH)");
                std::process::exit(2);
            }
        }
    }
    let mut h = serval_check::bench::Harness::new("serval");
    serval_bench::suites::solver(&mut h);
    serval_bench::suites::verification(&mut h);
    h.print_summary();
    if let Err(e) = h.write_json(&out) {
        eprintln!("failed to write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("\nwrote {} ({} benchmarks)", out.display(), h.results.len());
}
