//! Deterministic simulation context: the substrate under `serval-sim`.
//!
//! FoundationDB-style testing needs three things the OS refuses to give
//! deterministically: time, scheduling, and IO failure. This module owns
//! all three as a process-global, *seeded* context:
//!
//! - a **virtual clock** ([`now`]/[`advance`]) that only moves when the
//!   simulation moves it;
//! - a **seeded decision stream** ([`choose`]/[`next_u64`]) that
//!   schedulers draw from instead of racing real threads;
//! - **buggify points** ([`buggify`]): named hooks in the production
//!   code's rare branches (lock-order edges, fallback paths, purge
//!   skips) that fire with seed-determined probability *only under
//!   simulation* — in a normal process every hook is a branch-not-taken
//!   on a `bool` load;
//! - **IO fault injection** ([`io`]): the disk verdict-cache writes
//!   route through wrappers that can tear an append short, flip a bit,
//!   or kill the "process"'s IO mid-schedule (crash-before-rename).
//!
//! Everything that happens under a sim context is appended to a
//! **schedule trace** ([`TraceEvent`]); the trace plus the scenario's
//! verdicts are the simulation's observable behavior, and the contract
//! is: same seed ⇒ bit-identical trace and verdicts. A failing schedule
//! is therefore a *replayable seed*, not a heisenbug.
//!
//! Concurrency model: the context is a global `Mutex`. Determinism does
//! not come from the mutex — it comes from the engine's batch executor
//! serializing all work under a sim context (the submitting thread
//! chooses the next task and waits for it to run to completion), so the
//! order of draws from the decision stream is a pure function of the
//! seed.

use crate::rng::{hash_name, Xoshiro256};
use std::sync::{Mutex, MutexGuard};

/// Configuration for one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Root seed: every scheduling choice, buggify draw, and IO fault
    /// derives from it.
    pub seed: u64,
    /// Arm the buggify points (off: the sim still owns scheduling and
    /// the clock, but production code takes only its normal branches).
    pub buggify: bool,
    /// Arm disk IO fault injection (torn writes, bit flips, lost
    /// renames) in the wrappers under [`io`].
    pub io_faults: bool,
}

impl SimConfig {
    /// A plain deterministic run: scheduling owned by the seed, no
    /// fault injection.
    pub fn plain(seed: u64) -> SimConfig {
        SimConfig { seed, buggify: false, io_faults: false }
    }

    /// The hostile run: buggify and IO faults armed.
    pub fn hostile(seed: u64) -> SimConfig {
        SimConfig { seed, buggify: true, io_faults: true }
    }
}

/// One observable step of a simulated schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The scheduler ran task `task` (its submission index) of the
    /// current batch to completion.
    Step { task: usize, vtime: u64 },
    /// A buggify point was consulted and fired.
    Buggify { point: &'static str, vtime: u64 },
    /// An IO fault was injected (`kind` ∈ torn/flip/crash/lost-rename).
    IoFault { kind: &'static str, vtime: u64 },
    /// A scenario-level marker (scenarios label phases with these so
    /// two runs' traces align even when they log nothing else).
    Mark { label: String, vtime: u64 },
}

struct SimState {
    cfg: SimConfig,
    rng: Xoshiro256,
    /// Virtual nanoseconds since the context began.
    vclock: u64,
    trace: Vec<TraceEvent>,
    /// Once a simulated crash kills IO, every later write is a no-op.
    io_dead: bool,
}

/// What a finished simulation observed.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// The full schedule trace, in order.
    pub trace: Vec<TraceEvent>,
    /// Final virtual time.
    pub vtime: u64,
}

impl SimReport {
    /// FNV-1a fingerprint of the trace — the cheap thing regression
    /// tests compare across two same-seed runs.
    pub fn trace_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for ev in &self.trace {
            eat(format!("{ev:?}").as_bytes());
        }
        h
    }
}

static SIM: Mutex<Option<SimState>> = Mutex::new(None);

fn slot() -> MutexGuard<'static, Option<SimState>> {
    // The sim context must survive a panicking scenario (the sweep
    // catches the panic, reports the seed, and ends the context), so a
    // poisoned mutex is recovered, never propagated.
    SIM.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs a fresh simulation context. Panics if one is already
/// active: sims do not nest.
pub fn begin(cfg: SimConfig) {
    let mut s = slot();
    assert!(s.is_none(), "a simulation context is already active");
    *s = Some(SimState {
        rng: Xoshiro256::from_seed(cfg.seed),
        cfg,
        vclock: 0,
        trace: Vec::new(),
        io_dead: false,
    });
}

/// Tears the context down, returning everything it observed.
pub fn end() -> SimReport {
    let st = slot().take().expect("no simulation context to end");
    SimReport { trace: st.trace, vtime: st.vclock }
}

/// Whether a simulation context is active on this process.
pub fn active() -> bool {
    slot().is_some()
}

/// Draws the next 64 bits of the decision stream. Panics outside a sim.
pub fn next_u64() -> u64 {
    slot().as_mut().expect("sim::next_u64 outside a simulation").rng.next_u64()
}

/// Draws a choice in `0..n` (n ≥ 1) from the decision stream.
pub fn choose(n: usize) -> usize {
    assert!(n >= 1);
    (next_u64() % n as u64) as usize
}

/// Current virtual time in nanoseconds (0 outside a sim).
pub fn now() -> u64 {
    slot().as_ref().map(|s| s.vclock).unwrap_or(0)
}

/// Advances the virtual clock.
pub fn advance(nanos: u64) {
    if let Some(s) = slot().as_mut() {
        s.vclock += nanos;
    }
}

/// Appends a raw event to the schedule trace (no-op outside a sim).
pub fn trace(ev: TraceEvent) {
    if let Some(s) = slot().as_mut() {
        s.trace.push(ev);
    }
}

/// Marks a scenario phase in the trace.
pub fn mark(label: impl Into<String>) {
    let mut guard = slot();
    if let Some(s) = guard.as_mut() {
        let vtime = s.vclock;
        s.trace.push(TraceEvent::Mark { label: label.into(), vtime });
    }
}

/// Records that the simulated scheduler ran `task` of the current
/// batch, and advances the clock one scheduling quantum.
pub fn trace_step(task: usize) {
    let mut guard = slot();
    if let Some(s) = guard.as_mut() {
        s.vclock += 1_000;
        let vtime = s.vclock;
        s.trace.push(TraceEvent::Step { task, vtime });
    }
}

/// A buggify point: returns `true` (and logs it) with seed-determined
/// probability when a sim context with `buggify` armed is active, and
/// `false` always otherwise — production builds pay one mutex-guarded
/// `Option` check, sims get FoundationDB-style rare-branch injection.
///
/// FDB convention: a point is *enabled* per run (the seed and the point
/// name decide, ~50%), and an enabled point *fires* per visit (~25%),
/// so most runs exercise a different sparse subset of the hooks.
pub fn buggify(point: &'static str) -> bool {
    let mut guard = slot();
    let Some(s) = guard.as_mut() else { return false };
    if !s.cfg.buggify {
        return false;
    }
    // Per-run enablement: pure function of (seed, point), drawn outside
    // the decision stream so consulting a point never perturbs the
    // schedule of a run that has it disabled.
    let gate = hash_name(point) ^ s.cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    if gate & 1 == 0 {
        return false;
    }
    let fired = s.rng.next_u64() % 4 == 0;
    if fired {
        s.vclock += 500;
        let vtime = s.vclock;
        s.trace.push(TraceEvent::Buggify { point, vtime });
    }
    fired
}

/// Fault-injectable IO wrappers. Production code calls these instead of
/// the raw `std::fs`/`Write` operations on the paths a crash or a torn
/// write would corrupt; outside a sim (or with `io_faults` off) they are
/// transparent passthroughs.
pub mod io {
    use super::{slot, TraceEvent};
    use std::io::Write;
    use std::path::Path;

    enum Fault {
        None,
        /// Write only a prefix, then report success (torn append).
        Torn(usize),
        /// Flip one bit of one byte, then write everything.
        Flip(usize),
        /// Write a prefix, then kill this process's IO for good.
        Crash(usize),
    }

    /// Draws the fault plan for one write of `len` bytes. Faults are
    /// deliberately common (~1 in 6 writes) — a sim sweep's job is to
    /// hit the corruption paths, not to model a healthy disk.
    fn plan(len: usize) -> (Fault, bool) {
        let mut guard = slot();
        let Some(s) = guard.as_mut() else { return (Fault::None, false) };
        if !s.cfg.io_faults {
            return (Fault::None, false);
        }
        if s.io_dead {
            return (Fault::Crash(0), false);
        }
        let f = match s.rng.next_u64() % 18 {
            0 => Fault::Torn((s.rng.next_u64() as usize) % len.max(1)),
            1 => Fault::Flip((s.rng.next_u64() as usize) % len.max(1)),
            2 => {
                s.io_dead = true;
                Fault::Crash((s.rng.next_u64() as usize) % len.max(1))
            }
            _ => Fault::None,
        };
        let kind = match &f {
            Fault::None => None,
            Fault::Torn(_) => Some("torn"),
            Fault::Flip(_) => Some("flip"),
            Fault::Crash(_) => Some("crash"),
        };
        if let Some(kind) = kind {
            s.vclock += 250;
            let vtime = s.vclock;
            s.trace.push(TraceEvent::IoFault { kind, vtime });
        }
        (f, true)
    }

    /// `write_all` with fault injection: the return value still reports
    /// success on a torn or crashed write, exactly like a real short
    /// write the process never got to observe.
    pub fn write_all(f: &mut std::fs::File, bytes: &[u8]) -> std::io::Result<()> {
        match plan(bytes.len()) {
            (Fault::None, _) => f.write_all(bytes),
            (Fault::Torn(k), _) => {
                let _ = f.write_all(&bytes[..k]);
                Ok(())
            }
            (Fault::Flip(k), _) => {
                let mut copy = bytes.to_vec();
                if !copy.is_empty() {
                    copy[k] ^= 1;
                }
                f.write_all(&copy)
            }
            (Fault::Crash(k), _) => {
                let _ = f.write_all(&bytes[..k]);
                Ok(())
            }
        }
    }

    /// `fs::rename` with crash-before-rename injection: the temp file
    /// stays on disk, the destination never appears, success is
    /// reported (the "process" died believing it renamed).
    pub fn rename(from: &Path, to: &Path) -> std::io::Result<()> {
        let lost = {
            let mut guard = slot();
            match guard.as_mut() {
                Some(s) if s.io_dead => true,
                Some(s) if s.cfg.io_faults => {
                    if s.rng.next_u64() % 12 == 0 {
                        s.vclock += 250;
                        let vtime = s.vclock;
                        s.trace.push(TraceEvent::IoFault { kind: "lost-rename", vtime });
                        true
                    } else {
                        false
                    }
                }
                _ => false,
            }
        };
        if lost {
            return Ok(());
        }
        std::fs::rename(from, to)
    }

    /// Whether the simulated process's IO has crashed (writes no-op).
    pub fn crashed() -> bool {
        slot().as_ref().map(|s| s.io_dead).unwrap_or(false)
    }

    /// Revives IO after a simulated crash (scenarios use this to model
    /// the next process generation on the same disk).
    pub fn revive() {
        if let Some(s) = slot().as_mut() {
            s.io_dead = false;
        }
    }
}
