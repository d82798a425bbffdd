//! Drives the real binary in `--smoke` mode (ToyRISC sign refinement,
//! three JIT instructions, one loopback round — well under 5 s) and
//! checks the properties every later comparison leans on: the metric
//! table is complete and matches `BENCHMARK.json`, exact counts repeat,
//! verdicts do not depend on the seed, one wrong expectation fails the
//! run, and `compare` applies the bounds.

use serval_benchmark::json::{self, Json};
use serval_benchmark::metrics::{END_TO_END, PER_LAYER};
use serval_benchmark::workloads::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_serval-benchmark");

/// A scratch directory of this test's own (tests run in parallel).
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .arg("--out-dir")
        .arg(dir)
        // Hygiene: a hostile environment must not change anything.
        .env("SERVAL_PRESOLVE", "0")
        .env("SERVAL_JOBS", "7")
        .output()
        .unwrap()
}

fn read(path: &Path) -> Json {
    json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// Runs `run` or `trace` over all workloads in smoke mode; returns the
/// written document.
fn smoke(dir: &Path, kind: &str, seed: &str) -> Json {
    let out = dir.join(format!("{kind}-{seed}.json"));
    let o = bench(
        dir,
        &[
            kind,
            "--all",
            "--smoke",
            "--reps",
            "1",
            "--seed",
            seed,
            "--out",
            out.to_str().unwrap(),
        ],
    );
    assert!(
        o.status.success(),
        "{kind} failed:\n{}",
        String::from_utf8_lossy(&o.stdout)
    );
    read(&out)
}

fn rows(doc: &Json) -> Vec<(String, String, String, bool, f64)> {
    doc.get("rows")
        .unwrap()
        .as_arr()
        .iter()
        .map(|r| {
            let s = |k: &str| r.get(k).unwrap().as_str().unwrap().to_string();
            let exact = r.get("exact") == Some(&Json::Bool(true));
            (
                s("workload"),
                s("metric"),
                s("unit"),
                exact,
                r.get("median").unwrap().as_f64().unwrap(),
            )
        })
        .collect()
}

fn benchmark_json() -> Json {
    read(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
}

fn named(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .unwrap()
        .as_arr()
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_repeats_the_metric_table() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, WORKLOADS.map(|(n, _)| n));
    for (list, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = doc.get(list).unwrap().as_arr();
        assert_eq!(listed.len(), table.len(), "{list}");
        for (j, m) in listed.iter().zip(table) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
            let better = if m.lower_is_better { "lower" } else { "higher" };
            assert_eq!(
                j.get("better").unwrap().as_str(),
                Some(better),
                "{}",
                m.name
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
        }
    }
}

#[test]
fn every_metric_is_emitted_with_its_unit_on_every_workload() {
    let dir = scratch("every_metric");
    let spec = benchmark_json();
    for (kind, list) in [("run", "end_to_end"), ("trace", "per_layer")] {
        let got = rows(&smoke(&dir, kind, "1"));
        for (workload, _) in WORKLOADS {
            for (name, unit) in named(&spec, list) {
                assert!(
                    got.iter()
                        .any(|(w, m, u, _, _)| w == workload && *m == name && *u == unit),
                    "{kind} --smoke did not print {name} [{unit}] for {workload}"
                );
            }
        }
    }
    for (workload, _) in WORKLOADS {
        assert!(
            dir.join(format!("trace-{workload}.json")).is_file(),
            "no span file for {workload}"
        );
    }
}

#[test]
fn exact_counts_repeat_under_the_same_seed() {
    let dir = scratch("exact_counts");
    let (a, b) = (
        rows(&smoke(&dir, "trace", "7")),
        rows(&smoke(&dir, "trace", "7")),
    );
    let exact = |r: &[(String, String, String, bool, f64)]| -> Vec<(String, String, f64)> {
        r.iter()
            .filter(|r| r.3)
            .map(|r| (r.0.clone(), r.1.clone(), r.4))
            .collect()
    };
    assert!(exact(&a).len() >= 30 * WORKLOADS.len());
    assert_eq!(exact(&a), exact(&b));
}

#[test]
fn verdicts_do_not_depend_on_the_seed() {
    let dir = scratch("seed_independence");
    let verdicts = |doc: &Json| doc.get("verdicts").unwrap().render();
    let (a, b) = (smoke(&dir, "run", "1"), smoke(&dir, "run", "2"));
    assert_eq!(verdicts(&a), verdicts(&b));
    assert!(verdicts(&a).contains("\"failed\": 0"));
}

#[test]
fn one_flipped_expectation_fails_the_run() {
    let dir = scratch("flipped");
    let expected = dir.join("expected");
    std::fs::create_dir_all(&expected).unwrap();
    let source = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
    for f in ["monitors.txt", "jit.txt", "smoke.txt"] {
        let text = std::fs::read_to_string(source.join(f)).unwrap();
        // The single flip: rv64 ALU32 add is no longer expected Refuted.
        let flipped: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with("refuted rv64-buggy rv64 Alu32 Add "))
            .collect();
        assert_eq!(
            text.lines().count() - flipped.len(),
            (f == "jit.txt") as usize
        );
        std::fs::write(expected.join(f), flipped.join("\n")).unwrap();
    }
    let out = dir.join("run.json");
    let o = bench(
        &dir,
        &[
            "run",
            "--workload",
            "jit_sweep",
            "--smoke",
            "--reps",
            "1",
            "--seed",
            "1",
        ]
        .into_iter()
        .chain([
            "--expected",
            expected.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
        .collect::<Vec<_>>(),
    );
    assert!(
        !o.status.success(),
        "a contradicted expectation must exit non-zero"
    );
    let failed_share = rows(&read(&out))
        .into_iter()
        .find(|r| r.1 == "failed_share")
        .unwrap()
        .4;
    assert!(failed_share > 0.0);
    // And with the shipped files the same run is clean.
    let o = bench(
        &dir,
        &[
            "run",
            "--workload",
            "jit_sweep",
            "--smoke",
            "--reps",
            "1",
            "--seed",
            "1",
        ],
    );
    assert!(o.status.success());
}

#[test]
fn driver_form_prints_the_contract_line() {
    let dir = scratch("driver");
    let spec = benchmark_json();
    // A warm workload in both forms, and a cold one, whose `setup_s` is
    // the median over extra start-ups.
    for (workload, trace, list) in [
        ("remote_warm", "0", "end_to_end"),
        ("remote_warm", "1", "per_layer"),
        ("refine_cold", "0", "end_to_end"),
    ] {
        let o = bench(
            &dir,
            &[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ],
        );
        assert!(o.status.success());
        let stdout = String::from_utf8(o.stdout).unwrap();
        let line = json::parse(stdout.lines().last().unwrap()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let got: Vec<(String, String)> = line
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.get("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect();
        assert_eq!(got, named(&spec, list));
        if trace == "0" {
            let setup = line.get("metrics").unwrap().get("setup_s").unwrap();
            assert!(setup.get("value").unwrap().as_f64().unwrap() > 0.0);
        }
    }
}

#[test]
fn compare_applies_each_metrics_bound() {
    let dir = scratch("compare");
    let file = |name: &str, wall: [f64; 3], failed: f64| {
        let row = |metric: &str, v: [f64; 3]| {
            format!(
                r#"{{"workload": "ni_cold", "metric": "{metric}", "median": {}, "min": {}, "max": {}, "n": 3}}"#,
                v[1], v[0], v[2]
            )
        };
        let path = dir.join(name);
        let rows = [row("wall_s", wall), row("failed_share", [failed; 3])].join(", ");
        std::fs::write(&path, format!(r#"{{"rows": [{rows}]}}"#)).unwrap();
        path.to_str().unwrap().to_string()
    };
    let base = file("base.json", [9.9, 10.0, 10.1], 0.0);
    let run = |other: &str| {
        let o = bench(&dir, &["compare", &base, other]);
        (o.status.code(), String::from_utf8(o.stdout).unwrap())
    };
    let (code, out) = run(&file("same.json", [10.0, 10.2, 10.3], 0.0));
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("within"));
    let (code, out) = run(&file("slow.json", [13.9, 14.0, 14.1], 0.0));
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("worse"));
    let (code, out) = run(&file("noisy.json", [8.0, 14.0, 20.0], 0.0));
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("unresolved"));
    // failed_share may not rise at all.
    let (code, _) = run(&file("wrong.json", [9.9, 10.0, 10.1], 0.001));
    assert_eq!(code, Some(1));
}
