//! The five workloads: which public proof entry points one rep calls,
//! in what grouping, and on what engine lifetime. Sizes are frozen here;
//! `--seed` only reorders the items inside a pass.

use serval_bpf::{AluOp, Insn as Bpf, Src};
use serval_core::OptCfg;
use serval_ir::OptLevel;
use serval_jit::{check_rv64, check_x86, sweep_rv64, sweep_x86, Rv64Jit, X86Jit};
use serval_monitors::{certikos, komodo};
use serval_smt::solver::SolverConfig;

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "refine_cold",
        "certikos -O1 then komodo -O1 refinement on fresh engines: 5854 small obligations, ~95% folded in prepare; presolve, keying, sessions and blasting do the work",
    ),
    (
        "ni_cold",
        "komodo noninterference on a fresh engine: 9 theorems split into a few hundred hard solver queries; CDCL search, inprocessing, proof logging and pool overlap do the work",
    ),
    (
        "jit_sweep",
        "rv64 and x86-32 BPF JIT sweeps, fixed and buggy, fresh engine per sweep: independent wide-ALU queries with no shared assumptions; 75 obligations per pass need a countermodel",
    ),
    (
        "reverify_warm",
        "re-proves certikos -O0/-O1/-O2 and both fixed JIT sweeps against a warm engine: frontend plus raw-key cache reads are the whole cost, sat/drat do nothing",
    ),
    (
        "remote_warm",
        "the same warm rounds through an in-process loopback server (2 shards): wire encode/decode, routing, hot tier and framing are most of each round",
    ),
];

/// One rep of the longest workloads takes about this many seconds on the
/// 2-core reference box; `--seconds` buys one rep per multiple of it.
pub const REP_BUDGET_S: u64 = 20;

/// Timed passes of `jit_sweep` and timed rounds of the warm workloads.
/// Each gives a timed window of 8-13 s: the reference box changes speed
/// by up to 40% every second or so, and a shorter window samples too
/// few of those phases to give a steady sum.
const JIT_PASSES: usize = 6;
const REVERIFY_ROUNDS: usize = 100;
const REMOTE_ROUNDS: usize = 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Monitor {
    Certikos,
    Komodo,
}

#[derive(Clone, Copy, Debug)]
pub enum Item {
    /// One monitor call's refinement proof over the compiled binary.
    Refine(Monitor, OptLevel, u64),
    KomodoLocalRespect,
    KomodoConstruction,
    SweepRv64 {
        buggy: bool,
    },
    SweepX86 {
        buggy: bool,
    },
    // Smoke-sized stand-ins.
    ToySignRefinement,
    ToySignStepConsistency,
    InsnRv64 {
        buggy: bool,
        insn: Bpf,
    },
    InsnX86 {
        buggy: bool,
        insn: Bpf,
    },
}

fn level_name(l: OptLevel) -> &'static str {
    match l {
        OptLevel::O0 => "O0",
        OptLevel::O1 => "O1",
        OptLevel::O2 => "O2",
    }
}

fn variant(buggy: bool) -> &'static str {
    if buggy {
        "buggy"
    } else {
        "fixed"
    }
}

impl Item {
    /// The name the expected-answer files use. The part before the first
    /// `/` selects the `refuted` lines that apply, so a single smoke
    /// instruction answers to the same lines as its whole sweep.
    pub fn name(&self) -> String {
        match *self {
            Item::Refine(Monitor::Certikos, l, op) => {
                let call = match op {
                    certikos::sys::GET_QUOTA => "get_quota",
                    certikos::sys::SPAWN => "spawn",
                    _ => "yield",
                };
                format!("certikos-{}/{call}", level_name(l))
            }
            Item::Refine(Monitor::Komodo, l, op) => {
                const CALLS: [&str; 12] = [
                    "init_addrspace",
                    "init_thread",
                    "init_l2pt",
                    "init_l3pt",
                    "map_secure",
                    "map_insecure",
                    "finalise",
                    "enter",
                    "resume",
                    "exit",
                    "stop",
                    "remove",
                ];
                // komodo numbers its calls 1..=12.
                let call = CALLS.get(op as usize - 1).copied().unwrap_or("unknown");
                format!("komodo-{}/{call}", level_name(l))
            }
            Item::KomodoLocalRespect => "komodo-ni/local_respect".into(),
            Item::KomodoConstruction => "komodo-ni/construction".into(),
            Item::SweepRv64 { buggy } => format!("rv64-{}", variant(buggy)),
            Item::SweepX86 { buggy } => format!("x86-{}", variant(buggy)),
            Item::ToySignRefinement => "toyrisc/sign_refinement".into(),
            Item::ToySignStepConsistency => "toyrisc/sign_step_consistency".into(),
            Item::InsnRv64 { buggy, .. } => format!("rv64-{}/one_insn", variant(buggy)),
            Item::InsnX86 { buggy, .. } => format!("x86-{}/one_insn", variant(buggy)),
        }
    }

    /// Runs the proof; verdicts are read at the `Discharge` seam, so the
    /// reports the entry points return are dropped.
    pub fn run(&self, cfg: SolverConfig) {
        let opt = OptCfg::default();
        match *self {
            Item::Refine(Monitor::Certikos, l, op) => {
                drop(certikos::proofs::prove_op(op, l, opt, cfg))
            }
            Item::Refine(Monitor::Komodo, l, op) => drop(komodo::proofs::prove_op(op, l, opt, cfg)),
            Item::KomodoLocalRespect => drop(komodo::proofs::prove_local_respect(cfg)),
            Item::KomodoConstruction => drop(komodo::proofs::prove_construction_consistency(cfg)),
            Item::SweepRv64 { buggy } => drop(sweep_rv64(&rv64(buggy), cfg)),
            Item::SweepX86 { buggy } => drop(sweep_x86(&x86(buggy), cfg)),
            Item::ToySignRefinement => {
                serval_smt::reset_ctx();
                drop(serval_toyrisc::prove_sign_refinement(cfg));
            }
            Item::ToySignStepConsistency => {
                serval_smt::reset_ctx();
                drop(serval_toyrisc::prove_sign_step_consistency(cfg));
            }
            Item::InsnRv64 { buggy, insn } => drop(check_rv64(&rv64(buggy), insn, cfg)),
            Item::InsnX86 { buggy, insn } => drop(check_x86(&x86(buggy), insn, cfg)),
        }
    }
}

fn rv64(buggy: bool) -> Rv64Jit {
    if buggy {
        Rv64Jit::buggy()
    } else {
        Rv64Jit::fixed()
    }
}

fn x86(buggy: bool) -> X86Jit {
    if buggy {
        X86Jit::buggy()
    } else {
        X86Jit::fixed()
    }
}

/// When a pass gets a new, cold engine.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Fresh {
    PerPass,
    PerItem,
    /// Keep the engine the set-up pass warmed.
    Keep,
}

pub struct Pass {
    pub fresh: Fresh,
    pub items: Vec<Item>,
}

pub struct Plan {
    /// Discharge through a loopback `net::Server` instead of a local engine.
    pub remote: bool,
    /// Untimed cold pass on one new engine (counted in `setup_s`).
    pub setup: Option<Vec<Item>>,
    /// How many times the timed passes repeat.
    pub rounds: usize,
    pub passes: Vec<Pass>,
    /// A traced run captures every n-th non-trivial query for the stage
    /// replay; sized so each workload yields roughly a hundred samples.
    pub sample_stride: u64,
}

fn refinement(m: Monitor, l: OptLevel) -> Vec<Item> {
    let ops: Vec<u64> = match m {
        Monitor::Certikos => {
            vec![
                certikos::sys::GET_QUOTA,
                certikos::sys::SPAWN,
                certikos::sys::YIELD,
            ]
        }
        Monitor::Komodo => komodo::proofs::ALL_OPS.to_vec(),
    };
    ops.into_iter().map(|op| Item::Refine(m, l, op)).collect()
}

fn warm_items() -> Vec<Item> {
    let mut items: Vec<Item> = OptLevel::ALL
        .iter()
        .flat_map(|&l| refinement(Monitor::Certikos, l))
        .collect();
    items.push(Item::SweepRv64 { buggy: false });
    items.push(Item::SweepX86 { buggy: false });
    items
}

fn alu(op: AluOp, is32: bool) -> Bpf {
    let (src, dst, srcr, imm) = (Src::X, 1, 2, 0);
    if is32 {
        Bpf::Alu32 {
            op,
            src,
            dst,
            srcr,
            imm,
        }
    } else {
        Bpf::Alu64 {
            op,
            src,
            dst,
            srcr,
            imm,
        }
    }
}

/// The three smoke JIT instructions: one proved per target and one the
/// buggy rv64 JIT gets wrong.
fn smoke_insns() -> Vec<Item> {
    vec![
        Item::InsnRv64 {
            buggy: false,
            insn: alu(AluOp::Add, false),
        },
        Item::InsnRv64 {
            buggy: true,
            insn: alu(AluOp::Add, true),
        },
        Item::InsnX86 {
            buggy: false,
            insn: alu(AluOp::Lsh, false),
        },
    ]
}

fn smoke_warm_items() -> Vec<Item> {
    let mut items = vec![Item::ToySignRefinement];
    items.extend(smoke_insns());
    items
}

pub fn plan(workload: &str, smoke: bool) -> Option<Plan> {
    let cold = |passes: Vec<Pass>, rounds, sample_stride| Plan {
        remote: false,
        setup: None,
        rounds,
        passes,
        sample_stride,
    };
    let warm = |remote, items: Vec<Item>, rounds, sample_stride| Plan {
        remote,
        setup: Some(items.clone()),
        rounds,
        passes: vec![Pass {
            fresh: Fresh::Keep,
            items,
        }],
        sample_stride,
    };
    let per_pass = |items| Pass {
        fresh: Fresh::PerPass,
        items,
    };
    Some(match (workload, smoke) {
        ("refine_cold", false) => cold(
            vec![
                per_pass(refinement(Monitor::Certikos, OptLevel::O1)),
                per_pass(refinement(Monitor::Komodo, OptLevel::O1)),
            ],
            1,
            3,
        ),
        ("refine_cold", true) => cold(vec![per_pass(vec![Item::ToySignRefinement])], 1, 1),
        ("ni_cold", false) => cold(
            vec![per_pass(vec![
                Item::KomodoLocalRespect,
                Item::KomodoConstruction,
            ])],
            1,
            1,
        ),
        ("ni_cold", true) => cold(vec![per_pass(vec![Item::ToySignStepConsistency])], 1, 1),
        ("jit_sweep", false) => cold(
            vec![Pass {
                fresh: Fresh::PerItem,
                items: vec![
                    Item::SweepRv64 { buggy: false },
                    Item::SweepRv64 { buggy: true },
                    Item::SweepX86 { buggy: false },
                    Item::SweepX86 { buggy: true },
                ],
            }],
            JIT_PASSES,
            36,
        ),
        ("jit_sweep", true) => cold(
            vec![Pass {
                fresh: Fresh::PerItem,
                items: smoke_insns(),
            }],
            1,
            1,
        ),
        ("reverify_warm", false) => warm(false, warm_items(), REVERIFY_ROUNDS, 400),
        ("reverify_warm", true) => warm(false, smoke_warm_items(), 3, 1),
        ("remote_warm", false) => warm(true, warm_items(), REMOTE_ROUNDS, 200),
        ("remote_warm", true) => warm(true, smoke_warm_items(), 1, 1),
        _ => return None,
    })
}
