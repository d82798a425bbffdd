//! A hand-rolled micro-benchmark harness (criterion's replacement).
//!
//! Each benchmark runs a warmup, then `samples` timed iterations, and
//! reports min / median / p95 / mean wall-clock time. A [`Harness`]
//! collects results for a suite and can emit them as JSON (hand-rolled —
//! no serde) so result files can be generated and diffed across commits.
//!
//! Environment knobs: `SERVAL_BENCH_SAMPLES` and `SERVAL_BENCH_WARMUP`
//! override the per-bench iteration counts (e.g. `SERVAL_BENCH_SAMPLES=3`
//! for a quick CI pass).

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Untimed warmup iterations before sampling.
    pub warmup: u32,
    /// Timed iterations; each one is a sample.
    pub samples: u32,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig { warmup: 1, samples: 10 }
    }
}

impl BenchConfig {
    pub fn from_env() -> Self {
        let d = BenchConfig::default();
        let get = |k: &str, d: u32| {
            std::env::var(k).ok().and_then(|s| s.parse().ok()).unwrap_or(d)
        };
        BenchConfig {
            warmup: get("SERVAL_BENCH_WARMUP", d.warmup),
            samples: get("SERVAL_BENCH_SAMPLES", d.samples).max(1),
        }
    }
}

#[derive(Clone, Debug)]
pub struct BenchResult {
    pub name: String,
    pub samples_ns: Vec<u128>,
    pub min_ns: u128,
    pub median_ns: u128,
    pub p95_ns: u128,
    pub mean_ns: u128,
}

impl BenchResult {
    fn from_samples(name: &str, samples_ns: Vec<u128>) -> Self {
        let mut sorted = samples_ns.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let pct = |p: f64| {
            let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
            sorted[idx]
        };
        BenchResult {
            name: name.to_string(),
            min_ns: sorted[0],
            median_ns: pct(0.50),
            p95_ns: pct(0.95),
            mean_ns: samples_ns.iter().sum::<u128>() / n as u128,
            samples_ns,
        }
    }
}

/// Renders nanoseconds human-readably (ns/µs/ms/s).
pub fn fmt_ns(ns: u128) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

pub struct Harness {
    pub suite: String,
    pub cfg: BenchConfig,
    pub results: Vec<BenchResult>,
}

impl Harness {
    pub fn new(suite: &str) -> Self {
        Harness { suite: suite.to_string(), cfg: BenchConfig::from_env(), results: Vec::new() }
    }

    pub fn with_config(suite: &str, cfg: BenchConfig) -> Self {
        Harness { suite: suite.to_string(), cfg, results: Vec::new() }
    }

    /// Runs one benchmark: warmup, then timed samples. Prints a one-line
    /// summary immediately and records the result.
    pub fn bench(&mut self, name: &str, mut f: impl FnMut()) -> &BenchResult {
        for _ in 0..self.cfg.warmup {
            f();
        }
        let mut samples = Vec::with_capacity(self.cfg.samples as usize);
        for _ in 0..self.cfg.samples {
            let t = Instant::now();
            f();
            samples.push(t.elapsed().as_nanos());
        }
        let r = BenchResult::from_samples(name, samples);
        println!(
            "{}/{}: min {}  median {}  p95 {}  ({} samples)",
            self.suite,
            r.name,
            fmt_ns(r.min_ns),
            fmt_ns(r.median_ns),
            fmt_ns(r.p95_ns),
            r.samples_ns.len()
        );
        self.results.push(r);
        self.results.last().unwrap()
    }

    pub fn print_summary(&self) {
        println!("\n== {} ({} benchmarks) ==", self.suite, self.results.len());
        let w = self.results.iter().map(|r| r.name.len()).max().unwrap_or(0);
        for r in &self.results {
            println!(
                "  {:<w$}  min {:>12}  median {:>12}  p95 {:>12}  mean {:>12}",
                r.name,
                fmt_ns(r.min_ns),
                fmt_ns(r.median_ns),
                fmt_ns(r.p95_ns),
                fmt_ns(r.mean_ns),
            );
        }
    }

    /// The whole suite as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"suite\": \"{}\",\n", json_escape(&self.suite)));
        s.push_str(&format!(
            "  \"config\": {{\"warmup\": {}, \"samples\": {}}},\n",
            self.cfg.warmup, self.cfg.samples
        ));
        s.push_str("  \"benches\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let samples: Vec<String> = r.samples_ns.iter().map(|x| x.to_string()).collect();
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"min_ns\": {}, \"median_ns\": {}, \
                 \"p95_ns\": {}, \"mean_ns\": {}, \"samples_ns\": [{}]}}{}\n",
                json_escape(&r.name),
                r.min_ns,
                r.median_ns,
                r.p95_ns,
                r.mean_ns,
                samples.join(", "),
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_and_json_shape() {
        let mut h = Harness::with_config("t", BenchConfig { warmup: 0, samples: 5 });
        let mut x = 0u64;
        h.bench("spin", || {
            for i in 0..1000 {
                x = x.wrapping_add(i);
            }
        });
        let r = &h.results[0];
        assert_eq!(r.samples_ns.len(), 5);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.p95_ns);
        let j = h.to_json();
        assert!(j.contains("\"suite\": \"t\""));
        assert!(j.contains("\"name\": \"spin\""));
        assert!(j.contains("\"samples_ns\": ["));
    }

    #[test]
    fn percentiles_of_known_samples() {
        let r = BenchResult::from_samples(
            "k",
            vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
        );
        assert_eq!(r.min_ns, 10);
        assert_eq!(r.median_ns, 50);
        assert_eq!(r.p95_ns, 100);
        assert_eq!(r.mean_ns, 55);
    }
}
