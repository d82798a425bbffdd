//! The Keystone audit (paper §7): rapid interface analysis with partial
//! specifications, plus UB bug finding with the IR verifier.
//!
//! Run with: `cargo run --release --example keystone_audit`

use serval_monitors::keystone::{
    audit_ub, prove_isolation, prove_no_nested_creation, KeystoneVariant,
};
use serval_smt::solver::SolverConfig;

fn main() {
    serval_engine::install(serval_engine::edge::or_exit(serval_engine::EngineCfg::from_env()));
    let cfg = SolverConfig::default();

    println!("== finding 1: enclave-in-enclave creation ==");
    let r = prove_no_nested_creation(KeystoneVariant::AsImplemented, cfg);
    print!("{}", r.render());
    assert!(!r.all_proved());
    println!("(failure expected: Keystone as implemented allowed it)\n");
    let r = prove_no_nested_creation(KeystoneVariant::Suggested, cfg);
    print!("{}", r.render());
    assert!(r.all_proved());
    println!("(the suggested interface — creation is OS-only — verifies)\n");

    println!("== finding 2: the OS page-table check is unnecessary ==");
    let r = prove_isolation(KeystoneVariant::Suggested, cfg);
    print!("{}", r.render());
    assert!(r.all_proved());
    println!("(PMP disjointness alone carries the isolation proof)\n");

    println!("== findings 3+4: undefined-behaviour bugs ==");
    let r = audit_ub(true, cfg);
    print!("{}", r.render());
    let found = r.theorems.iter().filter(|t| !t.verdict.is_proved()).count();
    println!("UB bugs found in the as-implemented paths: {found}\n");
    let r = audit_ub(false, cfg);
    assert!(r.all_proved());
    println!("fixed paths are clean ({} checks proved)", r.theorems.len());
}
