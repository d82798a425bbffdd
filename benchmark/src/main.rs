//! The repo's benchmark. Measures product code only from outside,
//! through public functions; see `benchmark/README.md`.
//!
//! ```text
//! serval-benchmark run   --all|--workload <w> --seed <n> [--reps 3] [--smoke] [--out <file>]
//! serval-benchmark trace --all|--workload <w> --seed <n> [--smoke] [--out <file>]
//! serval-benchmark compare <a.json> <b.json> [--traces <ta.json> <tb.json>]
//! serval-benchmark --workload <w> --seed <n> --seconds <s> --trace <0|1>     (driver contract)
//! ```

use serval_benchmark::json::{self, Json};
use serval_benchmark::metrics::{summarize, Metric, END_TO_END, FAILED_SHARE, PER_LAYER};
use serval_benchmark::workloads::{self, REP_BUDGET_S, WORKLOADS};
use serval_benchmark::{child, compare, sys};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

struct Opts {
    workloads: Vec<String>,
    seed: u64,
    reps: usize,
    seconds: Option<u64>,
    traced: bool,
    smoke: bool,
    setup_only: bool,
    t0_ns: u128,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    expected_dir: Option<PathBuf>,
    traces: Option<(String, String)>,
    files: Vec<String>,
}

fn default_out_dir() -> PathBuf {
    // The documented way to run is from the repository root; anywhere
    // else, fall back to the source tree this binary was built from.
    if std::path::Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Vec::new(),
        seed: 1,
        reps: 3,
        seconds: None,
        traced: false,
        smoke: false,
        setup_only: false,
        t0_ns: 0,
        out: None,
        out_dir: default_out_dir(),
        expected_dir: None,
        traces: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--all" => o.workloads = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect(),
            "--workload" => o.workloads.push(value("a workload name")?),
            "--seed" => o.seed = value("a number")?.parse().map_err(|_| "bad --seed")?,
            "--reps" => o.reps = value("a number")?.parse().map_err(|_| "bad --reps")?,
            "--seconds" => {
                o.seconds = Some(value("a number")?.parse().map_err(|_| "bad --seconds")?)
            }
            "--trace" => o.traced = value("0 or 1")? == "1",
            "--smoke" => o.smoke = true,
            "--setup-only" => o.setup_only = true,
            "--t0" => o.t0_ns = value("nanoseconds")?.parse().map_err(|_| "bad --t0")?,
            "--out" => o.out = Some(PathBuf::from(value("a file")?)),
            "--out-dir" => o.out_dir = PathBuf::from(value("a directory")?),
            "--expected" => o.expected_dir = Some(PathBuf::from(value("a directory")?)),
            "--traces" => o.traces = Some((value("two files")?, value("two files")?)),
            f if !f.starts_with("--") => o.files.push(f.to_string()),
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    for w in &o.workloads {
        if !WORKLOADS.iter().any(|(n, _)| n == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    if o.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    Ok(o)
}

/// What the parent keeps of one child's result line.
struct ChildResult {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    contradicted: u64,
    digest: String,
    complaints: Vec<String>,
}

fn spawn_child(
    o: &Opts,
    workload: &str,
    seed: u64,
    traced: bool,
    setup_only: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&o.out_dir);
    if o.smoke {
        cmd.arg("--smoke");
    }
    if setup_only {
        cmd.arg("--setup-only");
    }
    if let Some(dir) = &o.expected_dir {
        cmd.arg("--expected").arg(dir);
    }
    // One malloc arena: with glibc's per-thread arenas, memory a session
    // frees on one pool worker cannot serve the next session on the other,
    // so peak RSS measures which worker happened to run what (116-172 MB
    // on ni_cold) instead of what the proofs need (116-124 MB).
    cmd.env("MALLOC_ARENA_MAX", "1");
    // Stamped last: everything up to the child's first timed call is set-up.
    cmd.args(["--t0", &sys::epoch_ns().to_string()]);
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let doc = json::parse(line).map_err(|e| {
        format!(
            "{workload} child (exit {:?}) printed no result: {e}",
            out.status.code()
        )
    })?;
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(ChildResult {
        metrics: doc
            .get("metrics")
            .map_or(&[][..], Json::fields)
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect(),
        attempted: num("attempted") as u64,
        failed: num("failed") as u64,
        contradicted: num("contradicted") as u64,
        digest: doc
            .get("digest")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        complaints: doc
            .get("complaints")
            .map_or(&[][..], Json::as_arr)
            .iter()
            .filter_map(|c| c.as_str().map(str::to_string))
            .collect(),
    })
}

/// Extra start-ups behind one rep's `setup_s` on a cold workload. A cold
/// workload sets up in a millisecond or two (process start, expected-file
/// parsing), and the driver holds the median of ten runs to a quarter of
/// itself: with one start-up per run that median moved by 30% between two
/// identical sets of ten.
const SETUP_SAMPLES: usize = 32;

/// One untraced rep, in `run` and in the driver's form alike. On a cold
/// workload its `setup_s` is the median over the rep's own start-up and
/// `SETUP_SAMPLES` children that stop after set-up, half spawned before the
/// rep and half after; a warm workload's set-up takes seconds and is
/// measured once.
fn spawn_rep(o: &Opts, workload: &str, seed: u64) -> Result<ChildResult, String> {
    let cold = workloads::plan(workload, o.smoke).is_some_and(|p| p.setup.is_none());
    let extra = if cold { SETUP_SAMPLES / 2 } else { 0 };
    let start_ups = || -> Result<Vec<f64>, String> {
        (0..extra)
            .map(|_| spawn_child(o, workload, seed, false, true))
            .map(|c| Ok(c?.metrics.get("setup_s").copied().unwrap_or(0.0)))
            .collect()
    };
    let mut setups = start_ups()?;
    let mut rep = spawn_child(o, workload, seed, false, false)?;
    setups.extend(start_ups()?);
    setups.extend(rep.metrics.get("setup_s"));
    rep.metrics
        .insert("setup_s".into(), summarize(setups).median);
    Ok(rep)
}

/// One seed per child, distinct across reps and across nearby `--seed`s.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(rep as u64)
}

fn header(o: &Opts, kind: &str, scrubbed: &[String]) -> Json {
    let jobs = sys::jobs();
    let mut fields = vec![
        ("benchmark", Json::str("serval-benchmark")),
        ("kind", Json::str(kind)),
        ("commit", Json::str(sys::git_commit())),
        ("seed", Json::Num(o.seed as f64)),
        ("reps", Json::Num(o.reps as f64)),
        ("smoke", Json::Bool(o.smoke)),
        ("cores", Json::Num(sys::cores() as f64)),
        ("jobs", Json::Num(jobs as f64)),
        (
            "engine_cfg",
            Json::str(format!("{:?}", child::engine_cfg(None))),
        ),
        (
            "solver_cfg",
            Json::str(format!("{:?}", child::solver_cfg())),
        ),
        ("net_cfg", Json::str(format!("{:?}", child::net_cfg()))),
        (
            "scrubbed_env",
            Json::Arr(scrubbed.iter().map(Json::str).collect()),
        ),
        ("child_env", Json::str("MALLOC_ARENA_MAX=1")),
    ];
    if jobs == 1 {
        fields.push((
            "note",
            Json::str("1-core machine: every engine runs with jobs = 1"),
        ));
    }
    Json::obj(fields)
}

fn print_header(h: &Json) {
    for (k, v) in h.fields() {
        println!(
            "# {k}: {}",
            v.as_str().map_or_else(|| v.render(), str::to_string)
        );
    }
}

#[derive(Default)]
struct Report {
    rows: Vec<Json>,
    verdicts: Vec<Json>,
    failed: bool,
}

impl Report {
    fn row(&mut self, workload: &str, m: &Metric, layer: &str, samples: Vec<f64>) {
        let s = summarize(samples);
        println!(
            "{workload:<14} {:<26} {:>16.6} {:>16.6} {:>16.6} {:>3}  {}",
            m.name, s.median, s.min, s.max, s.n, m.unit
        );
        self.rows.push(Json::obj(vec![
            ("workload", Json::str(workload)),
            ("metric", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("layer", Json::str(layer)),
            ("exact", Json::Bool(m.exact)),
            ("median", Json::Num(s.median)),
            ("min", Json::Num(s.min)),
            ("max", Json::Num(s.max)),
            ("n", Json::Num(s.n as f64)),
        ]));
    }

    fn verdict(&mut self, workload: &str, children: &[ChildResult]) {
        let (attempted, failed, contradicted) = tally(children);
        for c in children.iter().flat_map(|c| &c.complaints) {
            println!("!! {workload}: {c}");
        }
        self.failed |= failed > 0 || contradicted > 0;
        self.verdicts.push(Json::obj(vec![
            ("workload", Json::str(workload)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("contradicted", Json::Num(contradicted as f64)),
            // Order-independent, so equal across seeds when the verdicts are.
            ("digest", Json::str(&children[0].digest)),
        ]));
    }
}

/// (attempted, failed, contradicted) over a workload's children.
fn tally(children: &[ChildResult]) -> (u64, u64, u64) {
    children.iter().fold((0, 0, 0), |(a, f, c), r| {
        (a + r.attempted, f + r.failed, c + r.contradicted)
    })
}

fn samples(children: &[ChildResult], name: &str) -> Vec<f64> {
    children
        .iter()
        .filter_map(|c| c.metrics.get(name).copied())
        .collect()
}

fn finish(o: &Opts, kind: &str, head: Json, report: Report) -> Result<i32, String> {
    let doc = Json::obj(vec![
        ("header", head),
        ("rows", Json::Arr(report.rows)),
        ("verdicts", Json::Arr(report.verdicts)),
    ]);
    let path = o
        .out
        .clone()
        .unwrap_or_else(|| o.out_dir.join(format!("{kind}-seed{}.json", o.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    if report.failed {
        println!("# FAILED: some verdicts differ from benchmark/expected (lines marked !!)");
    }
    Ok(report.failed as i32)
}

fn table_head() {
    println!(
        "{:<14} {:<26} {:>16} {:>16} {:>16} {:>3}  unit",
        "workload", "metric", "median", "min", "max", "n"
    );
}

/// `run`: every workload, each rep in its own child, untraced.
fn cmd_run(o: &Opts, scrubbed: &[String]) -> Result<i32, String> {
    let head = header(o, "run", scrubbed);
    print_header(&head);
    table_head();
    let mut report = Report::default();
    for w in &o.workloads {
        let children = (0..o.reps)
            .map(|rep| spawn_rep(o, w, rep_seed(o.seed, rep)))
            .collect::<Result<Vec<_>, _>>()?;
        for m in END_TO_END.iter().chain([&FAILED_SHARE]) {
            report.row(w, m, "end_to_end", samples(&children, m.name));
        }
        report.verdict(w, &children);
    }
    finish(o, "run", head, report)
}

/// One untraced reference child, then the traced child: the per-layer
/// numbers, with `trace.overhead_ratio` filled in from the pair.
fn traced_pair(o: &Opts, workload: &str) -> Result<ChildResult, String> {
    let seed = rep_seed(o.seed, 0);
    let plain = spawn_child(o, workload, seed, false, false)?;
    let mut traced = spawn_child(o, workload, seed, true, false)?;
    let wall = |c: &ChildResult| c.metrics.get("wall_s").copied().unwrap_or(0.0);
    // The traced child's wall is already net of the time it spent
    // capturing replay samples.
    let overhead = if wall(&plain) > 0.0 {
        wall(&traced) / wall(&plain)
    } else {
        0.0
    };
    traced
        .metrics
        .insert("trace.overhead_ratio".into(), overhead);
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.contradicted += plain.contradicted;
    Ok(traced)
}

/// `trace`: the separate traced run that yields the per-layer numbers.
fn cmd_trace(o: &Opts, scrubbed: &[String]) -> Result<i32, String> {
    let head = header(o, "trace", scrubbed);
    print_header(&head);
    table_head();
    let mut report = Report::default();
    for w in &o.workloads {
        let children = [traced_pair(o, w)?];
        for m in &PER_LAYER {
            report.row(w, m, "per_layer", samples(&children, m.name));
        }
        report.verdict(w, &children);
    }
    finish(o, "trace", head, report)
}

/// The driver's contract: one workload, one JSON object as the last
/// line of standard output.
fn cmd_driver(o: &Opts) -> Result<i32, String> {
    let [workload] = o.workloads.as_slice() else {
        return Err("the driver form takes exactly one --workload".into());
    };
    let seconds = o.seconds.ok_or("the driver form needs --seconds")?;
    let reps = (seconds / REP_BUDGET_S).max(1) as usize;
    let (children, table): (Vec<ChildResult>, &[Metric]) = if o.traced {
        (vec![traced_pair(o, workload)?], &PER_LAYER)
    } else {
        let children = (0..reps)
            .map(|rep| spawn_rep(o, workload, rep_seed(o.seed, rep)))
            .collect::<Result<Vec<_>, _>>()?;
        (children, &END_TO_END)
    };
    let (attempted, failed, contradicted) = tally(&children);
    for c in children.iter().flat_map(|c| &c.complaints) {
        eprintln!("!! {workload}: {c}");
    }
    let metrics = table
        .iter()
        .map(|m| {
            let value = summarize(samples(&children, m.name)).median;
            let cell = Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::str(m.unit)),
            ]);
            (m.name.to_string(), cell)
        })
        .collect();
    let line = Json::obj(vec![
        ("correct", Json::Bool(failed == 0 && contradicted == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok((contradicted > 0) as i32)
}

fn usage() -> String {
    "usage:\n  run   --all|--workload <w> --seed <n> [--reps 3] [--smoke] [--out <file>]\n  \
     trace --all|--workload <w> --seed <n> [--smoke] [--out <file>]\n  \
     compare <a.json> <b.json> [--traces <ta.json> <tb.json>]\n  \
     --workload <w> --seed <n> --seconds <s> --trace <0|1>\n\
     common: [--out-dir <dir>] [--expected <dir>]"
        .to_string()
}

fn main() {
    let scrubbed = sys::scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare" | "child")) => (c, &args[1..]),
        Some(f) if f.starts_with("--") => ("driver", &args[..]),
        _ => {
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    };
    let result = parse(rest).and_then(|o| match cmd {
        "child" => {
            let [workload] = o.workloads.as_slice() else {
                return Err("child takes exactly one --workload".into());
            };
            Ok(child::run(child::ChildArgs {
                workload: workload.clone(),
                seed: o.seed,
                traced: o.traced,
                smoke: o.smoke,
                setup_only: o.setup_only,
                t0_ns: o.t0_ns,
                expected_dir: o.expected_dir,
                out_dir: o.out_dir,
            }))
        }
        "compare" => match o.files.as_slice() {
            [a, b] => compare::run(
                a,
                b,
                o.traces.as_ref().map(|(x, y)| (x.as_str(), y.as_str())),
            ),
            _ => Err("compare takes two files".into()),
        },
        _ if o.workloads.is_empty() => Err("name a workload with --workload, or --all".into()),
        "run" => cmd_run(&o, &scrubbed),
        "trace" => cmd_trace(&o, &scrubbed),
        _ => cmd_driver(&o),
    });
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("serval-benchmark: {e}\n{}", usage());
            std::process::exit(2);
        }
    }
}
