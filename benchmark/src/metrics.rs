//! The metric table — every name the benchmark prints, with its unit,
//! direction and (end-to-end only) regression bound — and the few
//! statistics the reports need. `BENCHMARK.json` repeats this table; a
//! test keeps the two in step.

use std::collections::BTreeMap;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// End-to-end only: the share of the baseline median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
    /// A count that must repeat bit-for-bit under the same seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound: Some(bound),
        exact: false,
    }
}

const fn time(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: true,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, lower: bool, exact: bool) -> Metric {
    Metric {
        name,
        unit: "count",
        lower_is_better: lower,
        bound: None,
        exact,
    }
}

const fn gauge(name: &'static str, unit: &'static str, lower: bool) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound: None,
        exact: false,
    }
}

/// `failed_share` is printed by `run` beside these and gates the exit
/// code, but is not in `BENCHMARK.json`: it is 0 on a healthy tree and
/// the driver's contract wants metrics that are never 0. The driver sees
/// it as `failed` ÷ `attempted` on the result line.
pub const FAILED_SHARE: Metric = Metric {
    name: "failed_share",
    unit: "ratio",
    lower_is_better: true,
    bound: Some(0.0),
    exact: false,
};

pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("wall_s", "s", true, 0.25),
    e2e("cpu_s", "s", true, 0.25),
    e2e("obligations_per_s", "1/s", false, 0.25),
    e2e("peak_rss_mb", "MB", true, 0.15),
];

pub const PER_LAYER: [Metric; 70] = [
    // frontend: ir, riscv/x86/bpf interpreters, sym, core
    time("ir.compile_s", "s"),
    time("frontend.eval_s", "s"),
    count("sym.obligations", false, true),
    count("sym.terms_built", true, true),
    count("sym.splits", true, true),
    count("sym.merges", true, true),
    // engine
    time("engine.submit_s", "s"),
    count("engine.batches", true, true),
    count("engine.queries", false, true),
    count("engine.trivial", false, true),
    gauge("engine.trivial_share", "ratio", false),
    count("engine.cache_hits", false, true),
    count("engine.cache_misses", true, true),
    count("engine.mode_session_groups", false, true),
    count("engine.mode_fresh_groups", true, true),
    time("engine.solve_sum_s", "s"),
    gauge("engine.pool_overlap", "ratio", false),
    time("engine.slowest_query_s", "s"),
    time("engine.normalize_s", "s"),
    gauge("engine.key_bytes", "B", true),
    time("engine.warm_us_per_query", "us"),
    time("engine.round_p50_ms", "ms"),
    time("engine.round_p90_ms", "ms"),
    time("engine.disk_reopen_s", "s"),
    gauge("engine.disk_bytes", "B", true),
    // smt
    time("smt.presolve_s", "s"),
    count("smt.presolve_terms_in", true, false),
    count("smt.presolve_terms_out", true, false),
    time("smt.blast_s", "s"),
    count("smt.blast_vars", true, false),
    count("smt.blast_clauses", true, false),
    count("smt.encoded_vars", true, true),
    count("smt.encoded_clauses", true, true),
    count("smt.reused_clauses", false, true),
    count("smt.session_goals", false, true),
    count("smt.refuted", false, true),
    time("smt.refuted_solve_s", "s"),
    // sat
    time("sat.search_s", "s"),
    count("sat.conflicts", true, true),
    count("sat.decisions", true, true),
    count("sat.propagations", true, true),
    count("sat.restarts", true, true),
    count("sat.learnts", true, true),
    count("sat.eliminated_vars", false, true),
    count("sat.subsumed", false, true),
    count("sat.strengthened", false, true),
    count("sat.resolvents", true, true),
    gauge("sat.props_per_s", "1/s", false),
    time("sat.proof_log_s", "s"),
    count("sat.proof_steps", true, true),
    // drat
    time("drat.check_s", "s"),
    count("drat.certs_checked", false, true),
    count("drat.certs_rejected", true, true),
    time("drat.check_us_per_cert", "us"),
    // net
    time("net.wire_encode_s", "s"),
    time("net.wire_decode_s", "s"),
    gauge("net.bytes_per_query", "B", true),
    count("net.bytes_sent", true, false),
    count("net.bytes_received", true, false),
    time("net.batch_rtt_p50_ms", "ms"),
    time("net.batch_rtt_p95_ms", "ms"),
    time("net.ping_rtt_us", "us"),
    count("net.hot_hits", false, true),
    count("net.shard_hits", false, true),
    count("net.shard_queued", true, true),
    gauge("net.shard_imbalance", "ratio", true),
    gauge("net.cold_overhead_ratio", "ratio", true),
    gauge("net.warm_overhead_ratio", "ratio", true),
    // trace
    gauge("trace.overhead_ratio", "ratio", true),
    gauge("trace.replay_share", "ratio", false),
];

pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .chain(std::iter::once(&FAILED_SHARE))
        .find(|m| m.name == name)
}

/// One child's measurements, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice, `p` in 0..=100.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

pub fn summarize(samples: Vec<f64>) -> Summary {
    let s = sorted(samples);
    Summary {
        median: median(&s),
        min: s.first().copied().unwrap_or(0.0),
        max: s.last().copied().unwrap_or(0.0),
        n: s.len(),
    }
}

/// SplitMix64: the benchmark's only randomness, driven by `--seed`.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
