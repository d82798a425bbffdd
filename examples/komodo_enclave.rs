//! Komodo^s end-to-end (paper §6.3): build, enter, exit, and tear down an
//! enclave concretely, then verify the monitor binary against its
//! specification and prove the noninterference lemmas.
//!
//! Run with: `cargo run --release --example komodo_enclave`

use serval_core::{OptCfg, PathElem};
use serval_ir::OptLevel;
use serval_monitors::komodo::{self, proofs, sys};
use serval_riscv::{reg, Machine};
use serval_smt::solver::SolverConfig;
use serval_smt::{reset_ctx, BV};
use serval_sym::SymCtx;

fn main() {
    serval_engine::install(serval_engine::edge::or_exit(serval_engine::EngineCfg::from_env()));
    let cfg = SolverConfig::default();

    println!("== Komodo^s: enclave lifecycle (concrete) ==");
    reset_ctx();
    let mut mem = komodo::fresh_mem();
    for i in 0..komodo::NPAGES {
        for f in ["type", "owner", "state", "refcount", "extra", "pad0", "pad1", "pad2"] {
            mem.write_path("pagedb", &[PathElem::Index(i), PathElem::Field(f)], BV::lit(64, 0));
        }
    }
    mem.write_path("state", &[PathElem::Field("cur_thread")], BV::lit(64, komodo::NONE as u128));
    mem.write_path("state", &[PathElem::Field("os_resume")], BV::lit(64, 0));
    mem.write_path("state", &[PathElem::Field("pending_mepc")], BV::lit(64, 0));
    let mut m = Machine::reset_at(komodo::CODE_BASE, mem);
    m.csrs.mepc = BV::lit(64, 0x1_0000);
    let interp = komodo::build(OptLevel::O1, OptCfg::default());
    let call = |m: &mut Machine, op: u64, args: [u64; 3]| -> u64 {
        let mut ctx = SymCtx::new();
        m.pc = BV::lit(64, komodo::CODE_BASE as u128);
        m.set_reg(reg::A7, BV::lit(64, op as u128));
        for (i, &a) in args.iter().enumerate() {
            m.set_reg(reg::A0 + i as u8, BV::lit(64, a as u128));
        }
        assert!(interp.run(&mut ctx, m).ok());
        m.reg(reg::A0).as_const().unwrap() as u64
    };
    println!("  InitAddrspace(0, 1)      = {}", call(&mut m, sys::INIT_ADDRSPACE, [0, 1, 0]) as i64);
    println!("  InitThread(0, 2, entry)  = {}", call(&mut m, sys::INIT_THREAD, [0, 2, 0x9000_0000]) as i64);
    println!("  InitL2PTable(0, 3)       = {}", call(&mut m, sys::INIT_L2PT, [0, 3, 0]) as i64);
    println!("  InitL3PTable(0, 4)       = {}", call(&mut m, sys::INIT_L3PT, [0, 4, 0]) as i64);
    println!("  MapSecure(0, 5, l3=4)    = {}", call(&mut m, sys::MAP_SECURE, [0, 5, 4]) as i64);
    println!("  Finalise(0)              = {}", call(&mut m, sys::FINALISE, [0, 0, 0]) as i64);
    println!("  Enter(thread=2)          = {}", call(&mut m, sys::ENTER, [2, 0, 0]) as i64);
    println!("    control at {:#x}, pmpcfg0 = {:#x} (secure window open)",
        m.pc.as_const().unwrap(), m.csrs.pmpcfg0.as_const().unwrap());
    m.csrs.mepc = BV::lit(64, 0x9000_0040);
    println!("  Exit(42)                 = {}", call(&mut m, sys::EXIT, [42, 0, 0]) as i64);
    println!("    control at {:#x}, pmpcfg0 = {:#x} (secure window closed)",
        m.pc.as_const().unwrap(), m.csrs.pmpcfg0.as_const().unwrap());
    println!("  Stop(0)                  = {}", call(&mut m, sys::STOP, [0, 0, 0]) as i64);
    for p in [1u64, 2, 3, 4, 5, 0] {
        println!("  Remove({p})                = {}", call(&mut m, sys::REMOVE, [p, 0, 0]) as i64);
    }

    println!("\n== refinement proof (binary, -O1), all 12 monitor calls ==");
    let report = proofs::prove_refinement(OptLevel::O1, OptCfg::default(), cfg);
    print!("{}", report.render());
    assert!(report.all_proved());

    println!("== noninterference (Nickel-style) ==");
    let report = proofs::prove_noninterference(cfg);
    print!("{}", report.render());
    assert!(report.all_proved());
}
