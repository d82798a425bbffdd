//! `compare <a.json> <b.json>`: judges every (metric, workload) row of
//! two `run` files by the metric's own bound.
//!
//! - **worse** — b's median is worse than a's by more than the bound;
//! - **better** — better by more than the bound;
//! - **within** — neither;
//! - **unresolved** — either file's own spread (max − min over its reps,
//!   as a share of its median) is wider than the bound, so the two
//!   medians cannot be told apart at that resolution.
//!
//! `failed_share` may not increase at all, and a `setup_s` difference
//! under 0.1 s never counts (the cold workloads set up in a millisecond
//! or two). With `--traces <ta> <tb>` the
//! per-layer metric that moved most is named for each workload.

use crate::json::{self, Json};
use crate::metrics;
use std::collections::BTreeMap;

/// A `setup_s` difference below this never counts: the issue's "10% or
/// 0.1 s, whichever is larger".
const SETUP_SLACK_S: f64 = 0.1;

struct Row {
    median: f64,
    min: f64,
    max: f64,
    n: f64,
}

type Rows = BTreeMap<(String, String), Row>;

fn load(path: &str) -> Result<Rows, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut rows = Rows::new();
    for r in doc.get("rows").map_or(&[][..], Json::as_arr) {
        let text = |k: &str| r.get(k).and_then(Json::as_str).map(str::to_string);
        let num = |k: &str| r.get(k).and_then(Json::as_f64);
        match (
            text("workload"),
            text("metric"),
            num("median"),
            num("min"),
            num("max"),
            num("n"),
        ) {
            (Some(w), Some(m), Some(median), Some(min), Some(max), Some(n)) => {
                rows.insert(
                    (w, m),
                    Row {
                        median,
                        min,
                        max,
                        n,
                    },
                );
            }
            _ => {
                return Err(format!(
                    "{path}: a row lacks workload/metric/median/min/max/n"
                ))
            }
        }
    }
    if rows.is_empty() {
        return Err(format!("{path}: no rows"));
    }
    Ok(rows)
}

/// Returns the process exit code: 1 when any row is worse.
pub fn run(a_path: &str, b_path: &str, traces: Option<(&str, &str)>) -> Result<i32, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    println!(
        "{:<14} {:<18} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "spread", "bound"
    );
    for ((workload, name), ra) in &a {
        let (Some(rb), Some(metric)) = (
            b.get(&(workload.clone(), name.clone())),
            metrics::lookup(name),
        ) else {
            continue;
        };
        let Some(bound) = metric.bound else { continue };
        // Everything in the metric's own unit; positive = b is worse.
        let slack = if name == "setup_s" {
            SETUP_SLACK_S
        } else {
            0.0
        };
        let allowed = (bound * ra.median.abs()).max(slack);
        let worse_by = if metric.lower_is_better {
            rb.median - ra.median
        } else {
            ra.median - rb.median
        };
        let widest = (ra.max - ra.min).max(rb.max - rb.min);
        let verdict = if allowed == 0.0 {
            // failed_share: any increase is a regression.
            if worse_by > 0.0 {
                "worse"
            } else {
                "within"
            }
        } else if widest > allowed {
            "unresolved"
        } else if worse_by > allowed {
            "worse"
        } else if worse_by < -allowed {
            "better"
        } else {
            "within"
        };
        let share = |v: f64| {
            if ra.median == 0.0 {
                0.0
            } else {
                v / ra.median.abs()
            }
        };
        let (worse_by, widest, bound) = (share(worse_by), share(widest), share(allowed));
        *tally.entry(verdict).or_default() += 1;
        let few = if ra.n < 2.0 || rb.n < 2.0 {
            " (single sample: spread unknown)"
        } else {
            ""
        };
        println!(
            "{workload:<14} {name:<18} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {verdict}{few}",
            ra.median,
            rb.median,
            worse_by * 100.0,
            widest * 100.0,
            bound * 100.0
        );
    }
    if tally.is_empty() {
        return Err("the two files share no bounded (metric, workload) row".into());
    }
    println!(
        "\nbetter {}  within {}  worse {}  unresolved {}   (change > 0 means b is worse)",
        tally.get("better").unwrap_or(&0),
        tally.get("within").unwrap_or(&0),
        tally.get("worse").unwrap_or(&0),
        tally.get("unresolved").unwrap_or(&0)
    );
    if let Some((ta, tb)) = traces {
        moved_most(&load(ta)?, &load(tb)?);
    }
    Ok((tally.get("worse").copied().unwrap_or(0) > 0) as i32)
}

/// Per workload, the per-layer metric whose value changed by the largest
/// share of its old value. A trace is one sample, so this points at a
/// layer, it does not prove a gain. Clocks under 10 ms are left out: on
/// the warm workloads the replay stages measure microseconds, and any
/// two such readings differ by large factors.
fn moved_most(a: &Rows, b: &Rows) {
    let mut top: BTreeMap<&str, (f64, &str, f64, f64)> = BTreeMap::new();
    for ((workload, name), ra) in a {
        let Some(rb) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(metric) = metrics::lookup(name).filter(|m| m.bound.is_none()) else {
            continue;
        };
        let floor = if metric.unit == "s" { 0.01 } else { 0.0 };
        if ra.median.abs().min(rb.median.abs()) <= floor {
            continue;
        }
        let change = (rb.median - ra.median) / ra.median.abs();
        let best = top.entry(workload).or_insert((0.0, "", 0.0, 0.0));
        if change.abs() > best.0.abs() {
            *best = (change, name, ra.median, rb.median);
        }
    }
    println!("\nper-layer metric that moved most:");
    for (workload, (change, name, va, vb)) in top {
        println!(
            "  {workload:<14} {name:<26} {va:.6} -> {vb:.6} ({:+.1}%)",
            change * 100.0
        );
    }
}
