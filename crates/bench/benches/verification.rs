//! `cargo bench` target for the verification-pipeline benches (ToyRISC,
//! CertiKOS^s, JIT checker), on the hand-rolled harness in
//! `serval_check::bench`. The `bench_all` binary runs the same suite and
//! also emits JSON.

fn main() {
    serval_engine::install(serval_engine::edge::or_exit(serval_engine::EngineCfg::from_env()));
    let mut h = serval_check::bench::Harness::new("verification");
    serval_bench::suites::verification(&mut h);
    h.print_summary();
}
