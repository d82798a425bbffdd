//! The work ledger: small, fixed slices of the benchmark's workloads,
//! driven through the public proof entry points, with every batch they
//! submit and the work it took pinned exactly in `tests/work_ledger.txt`.
//!
//! Per slice the ledger holds each batch's size and, per query, its
//! label, a fingerprint of its wire bytes (`form::Keyer::wire`, the
//! cache key) and its verdict: the query stream, which does not depend
//! on the worker count. Then, once per worker count (`jobs` 1 and 2),
//! the slice's work vector: obligations, folded, cache hits and misses,
//! encoded vars and clauses, decisions, conflicts, propagations, proof
//! steps, and certificates accepted and rejected. Every slice runs on a
//! fresh engine except the last, a warm resubmission of the first on
//! the engine that slice warmed.
//!
//! Each worker count runs twice in-process and must give identical
//! ledgers before either is compared with the file. Walls are never
//! pinned: they do not compare across machines, work counts do.
//!
//! A change that moves a number regenerates the file with
//! `cargo test --test work_ledger -- --ignored` and explains the move.
//!
//! One `#[test]` (plus the ignored rewriter) in a file of its own: the
//! discharger override is process-wide, and every integration-test file
//! is its own process.

use serval_engine::form::Keyer;
use serval_engine::{Discharge, Engine, EngineCfg, Query, QueryOutcome};
use serval_repro::bpf::{AluOp, Insn as Bpf, Src};
use serval_repro::core_fw::OptCfg;
use serval_repro::ir::OptLevel;
use serval_repro::jit::{check_rv64, Rv64Jit};
use serval_repro::monitors::{certikos, komodo};
use serval_repro::smt::solver::{SolverConfig, VerifyResult};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

const LEDGER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/work_ledger.txt");

/// Forwards to its engine, recording each batch's queries and the
/// solver work their outcomes report.
struct Recorder {
    engine: Engine,
    batches: Mutex<Vec<Vec<String>>>,
    /// vars, clauses, decisions, conflicts, propagations, proof steps.
    work: Mutex<[u64; 6]>,
}

impl Recorder {
    fn new(jobs: usize) -> Arc<Recorder> {
        Arc::new(Recorder {
            engine: Engine::new(EngineCfg { jobs, ..EngineCfg::default() }),
            batches: Mutex::new(Vec::new()),
            work: Mutex::new([0; 6]),
        })
    }
}

impl Discharge for Recorder {
    fn submit_batch(&self, queries: Vec<Query>) -> Vec<QueryOutcome> {
        let mut keyer = Keyer::new();
        let keys: Vec<u64> =
            queries.iter().map(|q| fnv(keyer.wire(&q.assumptions, q.goal))).collect();
        let outs = self.engine.submit_batch(queries);
        let mut work = self.work.lock().expect("only the test thread submits");
        let lines = outs
            .iter()
            .zip(keys)
            .map(|(o, key)| {
                if let Some(s) = &o.stats {
                    let add = [
                        s.vars as u64,
                        s.clauses as u64,
                        s.decisions,
                        s.conflicts,
                        s.propagations,
                        s.cert_steps,
                    ];
                    work.iter_mut().zip(add).for_each(|(w, a)| *w += a);
                }
                let verdict = match o.result {
                    VerifyResult::Proved => "proved",
                    VerifyResult::Counterexample(_) => "refuted",
                    VerifyResult::Unknown => "unknown",
                    VerifyResult::Interrupted => "interrupted",
                };
                format!("    {key:016x} {verdict:<7} {}", o.label)
            })
            .collect();
        self.batches.lock().expect("only the test thread submits").push(lines);
        outs
    }
}

/// FNV-1a, 64-bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn alu(op: AluOp, is32: bool) -> Bpf {
    let (src, dst, srcr, imm) = (Src::X, 1, 2, 0);
    if is32 {
        Bpf::Alu32 { op, src, dst, srcr, imm }
    } else {
        Bpf::Alu64 { op, src, dst, srcr, imm }
    }
}

fn rv64_slice(jit: Rv64Jit) {
    for insn in [alu(AluOp::Add, false), alu(AluOp::Add, true), alu(AluOp::Rsh, true)] {
        drop(check_rv64(&jit, insn, SolverConfig::default()));
    }
}

fn certikos_op(op: u64) {
    let cfg = SolverConfig::default();
    drop(certikos::proofs::prove_op(op, OptLevel::O1, OptCfg::default(), cfg));
}

/// A slice's name and what it runs; `None` marks the warm resubmission
/// of the first slice on that slice's engine.
type Slice = (&'static str, Option<fn()>);

/// The slices, in ledger order.
fn slices() -> Vec<Slice> {
    vec![
        ("certikos-O1/get_quota", Some(|| certikos_op(certikos::sys::GET_QUOTA))),
        ("certikos-O1/yield", Some(|| certikos_op(certikos::sys::YIELD))),
        (
            "komodo-ni/construction",
            Some(|| drop(komodo::proofs::prove_construction_consistency(SolverConfig::default()))),
        ),
        ("rv64-fixed/add64,add32,rsh32", Some(|| rv64_slice(Rv64Jit::fixed()))),
        ("rv64-buggy/add64,add32,rsh32", Some(|| rv64_slice(Rv64Jit::buggy()))),
        ("certikos-O1/get_quota warm", None),
    ]
}

/// One pass over every slice at `jobs` workers: per slice, its batches
/// and its work vector.
fn pass(jobs: usize) -> Vec<(String, String)> {
    let mut first: Option<(Arc<Recorder>, fn())> = None;
    let mut out = Vec::new();
    for (name, run) in slices() {
        let (rec, run) = match (run, &first) {
            (Some(run), _) => (Recorder::new(jobs), run),
            (None, Some((rec, run))) => (Arc::clone(rec), *run),
            (None, None) => unreachable!("the warm slice follows the one it rewarms"),
        };
        let before = counts(&rec.engine);
        *rec.work.lock().unwrap() = [0; 6];
        serval_engine::install_discharger(Arc::clone(&rec) as Arc<dyn Discharge>);
        run();
        serval_engine::clear_discharger();
        first.get_or_insert_with(|| (Arc::clone(&rec), run));

        let mut stream = format!("slice {name}\n");
        for batch in std::mem::take(&mut *rec.batches.lock().unwrap()) {
            let _ = writeln!(stream, "  batch {}", batch.len());
            for line in batch {
                let _ = writeln!(stream, "{line}");
            }
        }
        let after = counts(&rec.engine);
        let [queries, folded, hits, misses, accepted, rejected] =
            std::array::from_fn(|i| after[i] - before[i]);
        let [vars, clauses, decisions, conflicts, propagations, steps] = *rec.work.lock().unwrap();
        let work = format!(
            "  work jobs={jobs}: obligations {queries} folded {folded} hits {hits} misses {misses} \
             vars {vars} clauses {clauses} decisions {decisions} conflicts {conflicts} \
             propagations {propagations} proof_steps {steps} certs_accepted {accepted} \
             certs_rejected {rejected}\n"
        );
        out.push((stream, work));
    }
    out
}

/// The engine's counters: queries, folded, cache hits and misses,
/// certificates accepted and rejected.
fn counts(e: &Engine) -> [u64; 6] {
    let ((queries, folded), (hits, misses), (accepted, rejected)) =
        (e.query_counts(), e.cache_stats(), e.cert_counts());
    [queries, folded, hits, misses, accepted, rejected]
}

/// The whole ledger: each slice's query stream, then its work vector at
/// `jobs` 1 and 2. Panics if a pass is not deterministic in-process or
/// the stream depends on the worker count.
fn ledger() -> String {
    let mut per_jobs = Vec::new();
    for jobs in [1, 2] {
        let a = pass(jobs);
        let b = pass(jobs);
        assert_eq!(a, b, "jobs={jobs}: two in-process passes differ");
        per_jobs.push(a);
    }
    let mut text = String::new();
    for (one, two) in per_jobs[0].iter().zip(&per_jobs[1]) {
        assert_eq!(one.0, two.0, "the query stream depends on the worker count");
        text.push_str(&one.0);
        text.push_str(&one.1);
        text.push_str(&two.1);
    }
    text
}

#[test]
fn work_matches_the_ledger() {
    let got = ledger();
    let want = std::fs::read_to_string(LEDGER).expect("tests/work_ledger.txt is checked in");
    if got != want {
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        let at = line.unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "the work ledger moved at line {}:\n  got:  {}\n  want: {}\n\
             (regenerate with `cargo test --test work_ledger -- --ignored` and explain the move)",
            at + 1,
            got.lines().nth(at).unwrap_or("<end>"),
            want.lines().nth(at).unwrap_or("<end>"),
        );
    }
}

#[test]
#[ignore = "rewrites tests/work_ledger.txt"]
fn rewrite_the_ledger() {
    std::fs::write(LEDGER, ledger()).expect("write tests/work_ledger.txt");
}
