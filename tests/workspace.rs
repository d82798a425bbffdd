//! Workspace smoke test: pulls a cheap public self-check from every
//! member crate, so the tier-1 `cargo test -q` at the root exercises the
//! whole workspace even without `--workspace` (use
//! `cargo test -q --workspace` for every crate's full suite).

use serval_repro::smt::{reset_ctx, verify, BV};

#[test]
fn sat_solves() {
    use serval_repro::sat::{Lit, SolveResult, Solver};
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
    s.add_clause(&[Lit::neg(a)]);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.value(b), Some(true));
}

#[test]
fn smt_verifies() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    assert!(verify(&[], (x ^ x).eq_(BV::lit(16, 0))).is_proved());
}

#[test]
fn sym_tracks_obligations() {
    use serval_repro::sym::SymCtx;
    let mut ctx = SymCtx::new();
    assert!(ctx.take_obligations().is_empty());
    assert_eq!(ctx.profiler.total_splits(), 0);
}

#[test]
fn core_memory_model_roundtrips() {
    use serval_repro::core_fw::{Layout, Mem, MemCfg, PathElem};
    reset_ctx();
    let mut mem = Mem::new(MemCfg::default());
    mem.add_region(
        "cell",
        0x1000,
        Layout::Struct(vec![("v".into(), Layout::Cell(8))]).instantiate_fresh("cell"),
    );
    mem.write_path("cell", &[PathElem::Field("v")], BV::lit(64, 7));
    let v = mem.read_path("cell", &[PathElem::Field("v")]);
    assert_eq!(v.as_const(), Some(7));
}

#[test]
fn toyrisc_walkthrough_proves() {
    use serval_repro::smt::solver::SolverConfig;
    reset_ctx();
    let report = serval_repro::toyrisc::prove_sign_refinement(SolverConfig::default());
    assert!(report.all_proved());
}

#[test]
fn riscv_encoder_decoder_agree() {
    use serval_repro::riscv::{decode, encode, Insn};
    let nop = Insn::OpImm {
        op: serval_repro::riscv::insn::IAluOp::Addi,
        rd: 0,
        rs1: 0,
        imm: 0,
    };
    assert_eq!(encode(nop), 0x0000_0013);
    assert_eq!(decode(0x0000_0013).unwrap(), nop);
}

#[test]
fn x86_encoder_decoder_agree() {
    use serval_repro::x86::{decode_validated, encode, Insn, Reg};
    let insn = Insn::MovRI { dst: Reg::Eax, imm: 0x1234_5678 };
    let bytes = encode(insn);
    let (back, n) = decode_validated(&bytes).unwrap();
    assert_eq!(back, insn);
    assert_eq!(n, bytes.len());
}

#[test]
fn bpf_encoder_decoder_agree() {
    use serval_repro::bpf::{decode_validated, encode, Insn};
    let insn = Insn::LdDw { dst: 3, imm: -1 };
    let slots = encode(insn);
    let (back, used) = decode_validated(&slots).unwrap();
    assert_eq!(back, insn);
    assert_eq!(used, slots.len());
}

#[test]
fn ir_compiles_to_riscv() {
    use serval_repro::ir::ir::{FuncBuilder, Term, Val};
    use serval_repro::ir::{compile, Module, OptLevel};
    use serval_repro::riscv::Asm;
    reset_ctx();
    let mut b = FuncBuilder::new("answer", 0);
    b.block("entry");
    b.term(Term::Ret(Val::Const(42)));
    let module = Module { funcs: vec![b.build()], globals: vec![] };
    let mut asm = Asm::new();
    compile(&module, OptLevel::O0, &mut asm);
    assert!(!asm.assemble(0x8000_0000).is_empty());
}

#[test]
fn monitors_prove_cheapest_call() {
    use serval_repro::core_fw::OptCfg;
    use serval_repro::ir::OptLevel;
    use serval_repro::monitors::certikos;
    use serval_repro::smt::solver::SolverConfig;
    let report = certikos::proofs::prove_op(
        certikos::sys::GET_QUOTA,
        OptLevel::O0,
        OptCfg::default(),
        SolverConfig::default(),
    );
    assert!(report.all_proved());
}

#[test]
fn jit_checker_accepts_fixed_jit() {
    use serval_repro::bpf::{AluOp, Insn, Src};
    use serval_repro::jit::{check_rv64, Rv64Jit};
    use serval_repro::smt::solver::SolverConfig;
    let insn = Insn::Alu64 { op: AluOp::Add, src: Src::X, dst: 1, srcr: 2, imm: 0 };
    let row = check_rv64(&Rv64Jit::fixed(), insn, SolverConfig::default()).unwrap();
    assert!(row.ok);
}

#[test]
fn check_substrate_works() {
    use serval_check::prelude::*;
    use serval_check::runner::run_property;
    let cfg = ProptestConfig::with_cases(64);
    run_property(&cfg, "smoke", &(0u32..100, any::<bool>()), |(x, _b)| {
        prop_assert!(x < 100);
    });
}

/// Lines of `text` outside the body of `pub fn from_env`.
fn outside_from_env(text: &str) -> Vec<&str> {
    let mut closing: Option<String> = None;
    let mut out = Vec::new();
    for line in text.lines() {
        match &closing {
            Some(end) if line == end => closing = None,
            Some(_) => {}
            None if line.trim_start().starts_with("pub fn from_env(") => {
                let indent = &line[..line.len() - line.trim_start().len()];
                closing = Some(format!("{indent}}}"));
            }
            None => out.push(line),
        }
    }
    out
}

/// Configuration is a value: libraries never read the environment. The
/// only readers are the two `from_env` constructors a `main` calls, the
/// property-test runner's inputs in `crates/check`, and the binaries and
/// examples themselves.
#[test]
fn libraries_do_not_read_the_environment() {
    let root = serval_bench::workspace_root();
    let rel = |p: &std::path::Path| p.strip_prefix(&root).unwrap().to_string_lossy().into_owned();
    for (path, text) in serval_bench::rust_sources(&root.join("crates")) {
        let path = rel(&path);
        if !path.contains("/src/") || path.contains("/src/bin/") {
            continue;
        }
        let lines = match path.as_str() {
            "crates/check/src/runner.rs" => continue,
            "crates/engine/src/lib.rs" | "crates/net/src/service.rs" => outside_from_env(&text),
            _ => text.lines().collect(),
        };
        for line in lines {
            assert!(!line.contains("env::var"), "{path} reads the environment: {line}");
        }
    }
}

/// The twelve variables that lost their environment spelling stay gone:
/// algorithm toggles are struct fields (`tests/config_matrix.rs` flips
/// them), not something a shell can change under a proof. So do the
/// identifiers of mechanisms no workload ran.
#[test]
fn retired_variables_stay_retired() {
    let root = serval_bench::workspace_root();
    let retired: Vec<String> = [
        "SPLIT", "INCREMENTAL", "PRESOLVE", "INPROCESS", "POLARITY", "SESSION_INPROCESS", "LRAT",
        "NET_CHUNK", "ENGINE_DEBUG", "DEBUG_PC", "MODE", "PORTFOLIO", "HOT_THRESHOLD",
    ]
    .iter()
    .map(|suffix| format!("SERVAL_{suffix}"))
    .collect();
    let mut texts: Vec<(std::path::PathBuf, String)> = ["crates", "src", "tests", "examples"]
        .iter()
        .flat_map(|dir| serval_bench::rust_sources(&root.join(dir)))
        .collect();
    let ci = root.join("ci.sh");
    texts.push((ci.clone(), std::fs::read_to_string(&ci).expect("ci.sh is checked in")));
    for (path, text) in &texts {
        for name in &retired {
            assert!(!text.contains(name.as_str()), "{} mentions retired {name}", path.display());
        }
    }
    // Mechanisms deleted by measurement stay deleted too: the adaptive
    // discharge score, cone-of-influence dropping and the second
    // scheduling path beside the group planner.
    // ... and the queue ceremony of the old pool, the session's own
    // presolve switch, and the cache's second evict.
    // ... and the whole-goal normal-form key (0 hits in 3 367 probes)
    // with the model renumbering that existed to feed it.
    // ... and, in sat, the hint expansions of elided resolvents, backward
    // subsumption with self-subsuming resolution, and the per-goal
    // learnt-budget reset.
    // ... and portfolio racing: the racing solve, its variant list, its
    // buggify point and its sim scenario.
    // ... and the replicated hot tier with its flag and buggify point,
    // and the second key format it existed to bridge (a repeat is
    // answered at admission, under the one wire-byte key).
    // ... and every portable form of a query but its wire bytes: the
    // node-per-`Vec` array, the session core and its prepare/rebuild
    // pair.
    // ... and the certificate checker's search: the watch-driven RUP
    // check, its lenient fallback with the strict switch and counters,
    // and the solver switch that could turn hints off.
    // ... and the specification-library entries no verifier called, the
    // monitors' own copies of the trap-entry harness, and the wire's
    // copy of the engine's verdict enum.
    let gone = [
        "session_score", "AUTO_SESSION_THRESHOLD", "cone_split", "Work::Fresh",
        "pool-submit-injector", "pool-claim-steal-first", "drain_sim", "set_presolve",
        "evict_uncounted", "whole_key", "fn remap_portable", "elided_hints",
        "fn elided_expansion", "ELIDED_HINT_MAX", "fn subsume_sweep", "fn subsume_check",
        "reset_learnt_budget", "fn solve_portfolio", "portfolio_variants",
        "portfolio-drop-winner", "portfolio_cancel", "--hot-threshold", "net-hot-skip",
        "struct HotTier", "KEY_MAGIC", "fn cache_key(", "struct FormNode", "struct SessionCore",
        "fn prepare_session(", "fn rebuild_session(", "struct Parts", "fn rup(",
        "set_strict_hints", "hint_fallbacks", "hint_stats", "set_lrat_hints",
        "fn prove_one_safety", "struct Policy", "struct EntryState", "enum WireVerdict",
    ];
    let mut panic_messages = 0;
    for (path, text) in serval_bench::rust_sources(&root.join("crates")) {
        for name in gone {
            assert!(!text.contains(name), "{} brings back {name}", path.display());
        }
        panic_messages += text.matches("fn panic_message(").count();
    }
    assert_eq!(panic_messages, 1, "one downcast of a panic payload, in serval-check");
    // The names the benchmark package still imports stay in `form.rs`
    // as retired wrappers for it alone: nothing else uses them.
    let wrappers = [
        "prepare_wire", "rebuild_wire", "wire_from_bytes", "wire_bytes(", "FormCore",
        "form::prepare(", "form::rebuild(",
    ];
    for (path, text) in &texts {
        if path.ends_with("crates/engine/src/form.rs") || path.ends_with("tests/workspace.rs") {
            continue;
        }
        for name in wrappers {
            assert!(!text.contains(name), "{} uses the retired {name}", path.display());
        }
    }
    // ... and the second and third walker of the normal form: the keyer's
    // is the one traversal of the caller's DAG in `form.rs`.
    let form = root.join("crates/engine/src/form.rs");
    let text = std::fs::read_to_string(&form).expect("the engine's form.rs is checked in");
    for name in ["fn fetch(", "fn local_key(", "struct Normalizer"] {
        assert!(!text.contains(name), "{} brings back {name}", form.display());
    }
    // ... and the presolve rules that fired on none of the five
    // workloads: equality substitution and its occurs check, negated
    // facts, the signed range comparisons, the shift-equality rule, the
    // fixpoint loop, the rewriter's root mode and the uncached goal
    // entry point.
    let presolve = root.join("crates/smt/src/presolve.rs");
    let text = std::fs::read_to_string(&presolve).expect("the smt presolve.rs is checked in");
    for name in [
        "fn occurs(", "neg_facts", "rewrite_top_protected", "scmp_abs", "as_shl_const",
        "MAX_ROUNDS", "root_mode", "fn simplify_goal(",
    ] {
        assert!(!text.contains(name), "{} brings back {name}", presolve.display());
    }
}

/// The term store is one arena behind a keyed open-addressing index, and
/// the smart constructors hand it slices: a `HashMap` (a second copy of
/// every node, SipHash on every intern) or a `vec![` in the builder (a
/// heap node per constructor call) would bring the per-term allocation
/// back.
#[test]
fn term_store_stays_flat() {
    let root = serval_bench::workspace_root();
    let read = |rel: &str| {
        let path = root.join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let term = read("crates/smt/src/term.rs");
    for name in ["HashMap", "DefaultHasher", "SipHasher"] {
        assert!(!term.contains(name), "crates/smt/src/term.rs names {name}");
    }
    assert!(
        !read("crates/smt/src/build.rs").contains("vec!["),
        "crates/smt/src/build.rs allocates a vec!"
    );
}

/// DESIGN.md's "Buggify" paragraph is hand-kept: its bullets must name
/// exactly the points planted under `crates/*/src`.
#[test]
fn design_lists_every_buggify_point() {
    use std::collections::BTreeSet;
    let root = serval_bench::workspace_root();
    let mut planted = BTreeSet::new();
    for (path, text) in serval_bench::rust_sources(&root.join("crates")) {
        if !path.to_string_lossy().contains("/src/") {
            continue;
        }
        for (at, call) in text.match_indices("buggify(\"") {
            let name = &text[at + call.len()..];
            planted.insert(name[..name.find('"').expect("a closed literal")].to_string());
        }
    }
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is checked in");
    let paragraph = design.split("**Buggify.**").nth(1).expect("DESIGN.md has a Buggify paragraph");
    let listed: BTreeSet<String> = paragraph
        .split("\n**")
        .next()
        .expect("split yields a first piece")
        .lines()
        .filter_map(|line| line.strip_prefix("- `"))
        .map(|rest| rest[..rest.find('`').expect("a closed code span")].to_string())
        .collect();
    assert_eq!(planted, listed, "planted under crates/*/src vs listed in DESIGN.md");
}

/// (name, line count) of every `fn` in `text` longer than `max` lines,
/// counted on rustfmt's layout: from the `fn` line to the closing brace
/// at the same indent.
fn long_functions(text: &str, max: usize) -> Vec<(String, usize)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut long = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let head = line.trim_start();
        let indent = &line[..line.len() - head.len()];
        let Some(at) = head.find("fn ") else { continue };
        let is_item = head[..at].split(' ').all(|w| w.is_empty() || w.starts_with("pub"));
        if !is_item || head.ends_with('}') || head.ends_with(';') {
            continue;
        }
        let closing = format!("{indent}}}");
        let len = lines[i..].iter().position(|l| *l == closing).map_or(0, |n| n + 1);
        if len > max {
            let name = head[at + 3..].split(|c: char| !c.is_alphanumeric() && c != '_').next();
            long.push((name.unwrap_or("?").to_string(), len));
        }
    }
    long
}

/// `Engine::submit_batch` is a driver over stages a test can drive alone
/// (DESIGN.md, "Engine"); a function on the discharge path that outgrows
/// 120 lines is a stage growing a second job. The keyer every stage keys
/// through is on that path too: its walk, its root ordering and its
/// assembler stay functions of their own. So is presolve, which rewrites
/// every live query before it is keyed: its abstract walk and its
/// transfer functions stay apart, and so do its harvest and its pass.
/// The worker side is on it too: a certified session solves on one
/// thread and checks on another, so `solve_session` hands proof steps to
/// the checking function and never applies one itself.
#[test]
fn discharge_path_functions_stay_small() {
    let src = serval_bench::workspace_root().join("crates/engine/src");
    let lib = std::fs::read_to_string(src.join("lib.rs")).expect("the engine's lib.rs is checked in");
    assert!(lib.contains("fn submit_batch("), "the discharge path moved: point this guard at it");
    assert_eq!(long_functions(&lib, 120), [], "crates/engine/src/lib.rs");
    let form = std::fs::read_to_string(src.join("form.rs")).expect("the engine's form.rs is checked in");
    let keyer = form.split("\nimpl Keyer {\n").nth(1).expect("form.rs has the keyer's impl block");
    let keyer = keyer.split("\n}\n").next().expect("split yields a first piece");
    assert!(keyer.contains("fn walk(") && keyer.contains("fn wire("), "the keyer's functions moved");
    assert_eq!(long_functions(keyer, 120), [], "crates/engine/src/form.rs, impl Keyer");
    let presolve = serval_bench::workspace_root().join("crates/smt/src/presolve.rs");
    let text = std::fs::read_to_string(presolve).expect("the smt presolve.rs is checked in");
    assert!(text.contains("pub fn presolve_base("), "presolve moved: point this guard at it");
    assert_eq!(long_functions(&text, 120), [], "crates/smt/src/presolve.rs");
    let solve = std::fs::read_to_string(src.join("solve.rs")).expect("the engine's solve.rs is checked in");
    assert_eq!(long_functions(&solve, 120), [], "crates/engine/src/solve.rs");
    let body = solve.split("\npub fn solve_session(").nth(1).expect("solve.rs defines solve_session");
    let body = body.split("\n}\n").next().expect("split yields a first piece");
    assert!(body.contains("check_deltas"), "solve_session streams to the checking function");
    assert!(!body.contains(".apply("), "solve_session applies proof steps itself");
}

/// `SolverConfig`'s fields, pinned by name. The CDCL loop's policies
/// (chronological backtracking among them) are constants of
/// `crates/sat`, not switches: a change that makes one switchable has to
/// change this list, and argue for the new field in review.
#[test]
fn solver_config_fields_are_pinned() {
    let path = serval_bench::workspace_root().join("crates/smt/src/solver.rs");
    let text = std::fs::read_to_string(&path).expect("the smt solver.rs is checked in");
    let body = text.split("pub struct SolverConfig {\n").nth(1).expect("SolverConfig is defined there");
    let body = body.split("\n}\n").next().expect("split yields a first piece");
    let fields: Vec<&str> = body
        .lines()
        .filter_map(|line| line.strip_prefix("    pub "))
        .map(|rest| &rest[..rest.find(':').expect("a field has a type")])
        .collect();
    assert_eq!(
        fields,
        [
            "conflict_budget", "restart_base", "var_decay", "default_phase", "restart_geometric",
            "rephase", "inprocess", "polarity", "session_bve", "lrat",
        ],
        "SolverConfig's fields changed",
    );
}
