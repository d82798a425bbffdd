//! What the benchmark reads from the operating system: CPU time and peak
//! resident set from `/proc`, the core count, the clock shared between
//! parent and child, and the environment hygiene.

use std::time::{SystemTime, UNIX_EPOCH};

/// Removes every `SERVAL_*` variable: lower crates (`smt::solver`,
/// `smt::presolve`, `net::client`) read them directly, and a benchmark
/// result must not depend on the caller's shell. Returns what was set.
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SERVAL_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads the benchmark gives every engine: at most 2, and 1 on
/// a 1-core machine (the header says which).
pub fn jobs() -> usize {
    cores().min(2)
}

/// Nanoseconds since the Unix epoch: the one clock a parent and its
/// child can both read, used only to time process start-up.
pub fn epoch_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// User + system CPU seconds of this process, all threads, dead ones
/// included (`/proc/self/stat` fields 14 and 15, in 100 Hz ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields count from
    // the closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, or "unknown" outside a git repository (the
/// driver's checkout is not one).
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}
