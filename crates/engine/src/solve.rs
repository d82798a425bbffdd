//! Worker-side solving: materialize a core in the worker's own term
//! context, discharge it, and translate any model into a portable
//! shape. Every query is solved once, on one solver: a fresh one per
//! query ([`solve_one`]) or one live session per assumption group
//! ([`solve_session`]).

use crate::form::{Core, Materialized};
use crate::portable_of_caller_model;
use serval_check::sim;
use serval_sat::{ProofLog, StepKind};
use serval_smt::session::{Session, SessionProof};
use serval_smt::solver::{check_full, check_full_proof, CheckResult, QueryStats, SolverConfig};
use serval_smt::term::reset_ctx;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread::Builder;
use std::time::{Duration, Instant};

/// A model expressed over canonical var/UF indices — valid on any
/// thread, for any query with the same normal form.
#[derive(Clone, Debug, Default)]
pub struct PortableModel {
    /// Canonical var index → bitvector value.
    pub bvs: Vec<(u32, u128)>,
    /// Canonical var index → boolean value.
    pub bools: Vec<(u32, bool)>,
    /// Canonical UF index → (argument tuple → result) graph.
    pub ufs: Vec<(u32, Vec<(Vec<u128>, u128)>)>,
}

/// Verdict of a worker-side solve, before caller-side translation.
#[derive(Clone, Debug)]
pub enum RawVerdict {
    /// Assertions unsatisfiable: the query's goal is proved.
    Proved,
    /// Assertions satisfiable: the goal is refuted by this model.
    Refuted(PortableModel),
    /// Budget exhausted.
    Unknown,
    /// Cancelled: the solve's interrupt flag was raised.
    Interrupted,
}

/// Worker-side solve result.
#[derive(Clone, Debug)]
pub struct RawOutcome {
    /// The verdict.
    pub verdict: RawVerdict,
    /// Solver statistics of the solve.
    pub stats: QueryStats,
    /// Fingerprint of the checker-accepted proof certificate backing a
    /// `Proved` verdict (0 = uncertified).
    pub cert_hash: u64,
    /// Why certificate checking demoted a solver `Unsat` to `Unknown`,
    /// if it did.
    pub cert_error: Option<String>,
}

/// Solves a one-goal `core` — its assumptions and its negated goal, as
/// one root set — under one configuration in a fresh term context.
///
/// With `cert` on, the solver logs a DRAT-style proof and an `Unsat`
/// answer is upgraded to `Proved` only after the independent checker
/// (`serval-drat`) accepts the certificate; a rejected certificate
/// demotes the verdict to `Unknown` and reports why in `cert_error`.
///
/// A `cancel` flag raised mid-solve stops the search at its next poll
/// (see [`serval_sat::Solver::set_interrupt`]), and the verdict is
/// [`RawVerdict::Interrupted`].
///
/// Must run on a thread whose term context is disposable (a pool
/// worker): the context is reset first.
pub fn solve_one(
    core: &Core,
    cfg: SolverConfig,
    cancel: Option<Arc<AtomicBool>>,
    cert: bool,
) -> RawOutcome {
    reset_ctx();
    let m = core.materialize(true);
    let roots = [&m.assumptions[..], &m.goals[..]].concat();
    let mut out = if cert {
        check_full_proof(cfg, &roots, cancel)
    } else {
        check_full(cfg, &roots, cancel)
    };
    // Buggify: hand the checker a proof missing its last step (as a
    // flaky solver or a torn proof log would). The only acceptable
    // outcome is a rejected certificate demoting the verdict to
    // `Unknown` — never a `Proved` without a checked proof, and never a
    // panic.
    if matches!(out.result, CheckResult::Unsat) && sim::buggify("cert-corrupt-proof") {
        if let Some(proof) = &mut out.proof {
            proof.truncate(proof.len().saturating_sub(1));
        }
    }
    let mut stats = out.stats;
    let mut cert_hash = 0u64;
    let mut cert_error: Option<String> = None;
    if let (CheckResult::Unsat, Some(proof)) = (&out.result, &out.proof) {
        let clock = CheckClock::start();
        match serval_drat::check_refutation(proof, &[]) {
            Ok(()) => cert_hash = serval_drat::hash_steps(proof),
            Err(e) => cert_error = Some(e.to_string()),
        }
        stats.cert_steps = proof.len() as u64;
        stats.cert_wall = clock.elapsed();
    }
    let verdict = match out.result {
        CheckResult::Unsat if cert_error.is_some() => RawVerdict::Unknown,
        CheckResult::Unsat => RawVerdict::Proved,
        CheckResult::Unknown => RawVerdict::Unknown,
        CheckResult::Interrupted => RawVerdict::Interrupted,
        CheckResult::Sat(model) => {
            RawVerdict::Refuted(portable_of_caller_model(&model, &m.backmap))
        }
    };
    RawOutcome { verdict, stats, cert_hash, cert_error }
}

/// Times a certificate check by the checking thread's own CPU time, so
/// a checker descheduled behind the solving workers (which share the
/// cores with it) is not charged for the wait. Where the thread's CPU
/// clock cannot be read, it falls back to wall time.
struct CheckClock {
    cpu: Option<Duration>,
    wall: Instant,
}

impl CheckClock {
    fn start() -> CheckClock {
        CheckClock { cpu: thread_cpu(), wall: Instant::now() }
    }

    fn elapsed(&self) -> Duration {
        match (self.cpu, thread_cpu()) {
            (Some(t0), Some(t1)) => t1.saturating_sub(t0),
            _ => self.wall.elapsed(),
        }
    }
}

/// The calling thread's CPU time so far, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`. (Linux's
/// `/proc/thread-self/schedstat` is no substitute: a running thread's
/// count there can lag by whole scheduler ticks, and on a 2-vCPU VM a
/// busy loop of 400 ms read as 18 ms.) `None` if the call fails.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu() -> Option<Duration> {
    use std::os::raw::{c_int, c_long};
    /// `struct timespec` on 64-bit Linux, where `time_t` is a C `long`.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and `clock_gettime` writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    let secs = u64::try_from(ts.tv_sec).ok()?;
    let nanos = u32::try_from(ts.tv_nsec).ok()?;
    (rc == 0).then(|| Duration::new(secs, nanos))
}

/// Elsewhere the check is timed by the wall clock.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu() -> Option<Duration> {
    None
}

/// Goal deltas a certified session may hand its checker ahead of the
/// check. The solver blocks only when the checker trails it by this many
/// goals, which bounds the proof held in flight.
const CHECK_AHEAD: usize = 4;

/// One goal's certificate check, as [`check_deltas`] reports it.
#[derive(Debug)]
pub(crate) struct GoalCert {
    /// The chained fingerprint backing an accepted `Unsat` (0 otherwise).
    pub(crate) hash: u64,
    /// Why the goal's `Unsat` was rejected, if it was.
    pub(crate) error: Option<String>,
    /// Steps in the goal's delta.
    pub(crate) steps: u64,
    /// The checking thread's CPU time spent checking and hashing the
    /// delta ([`CheckClock`]).
    pub(crate) cpu: Duration,
}

/// Discharges a whole core on one live solver: the shared
/// assumptions are asserted (and blasted) once, then every goal is
/// answered in submission order with per-goal activation literals (see
/// [`serval_smt::Session`]). Returns one outcome per goal, in order.
/// A core is all of an assumption group's goals or, when the engine cut
/// the group across idle workers, one contiguous chunk of them: nothing
/// here depends on which.
///
/// If a goal is interrupted, the remaining goals are reported
/// [`RawVerdict::Interrupted`] without solving: the cancel flag is
/// sticky, so re-asking the dead solver would only burn time.
///
/// With `cert` on, the certificate check trails the solver: a checker
/// thread, scoped to this call, runs [`check_deltas`] over the goal
/// deltas the solving thread streams to it through a bounded channel,
/// so the solver moves on to the next goal while the last one is
/// checked. Verdicts are built after the checker is joined: a goal's
/// `Unsat` becomes `Proved` only if the checker accepted it, and
/// demotes to `Unknown` with the checker's reason otherwise. If the
/// solving thread unwinds, dropping the sender ends the checker's loop
/// and the scope joins it, so a panic fails only its own pool slot.
/// With `cert` off, no thread is spawned.
///
/// Must run on a thread whose term context is disposable (a pool
/// worker): the context is reset first.
pub fn solve_session(
    core: &Core,
    cfg: SolverConfig,
    cancel: Option<Arc<AtomicBool>>,
    cert: bool,
) -> Vec<RawOutcome> {
    let (rq, mut session) = open_session(core, cfg, cancel, cert);
    let (mut out, certs) = if cert {
        std::thread::scope(|s| {
            let (tx, rx) = sync_channel(CHECK_AHEAD);
            let checker = Builder::new()
                .name("serval-engine-check".to_string())
                .spawn_scoped(s, move || check_deltas(rx))
                .expect("spawn certificate checker");
            let out = solve_goals(&mut session, &rq, |delta| {
                // A send fails only if the checker died; its join says so.
                let _ = tx.send(delta);
            });
            drop(tx);
            let certs = checker.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            (out, certs)
        })
    } else {
        (solve_goals(&mut session, &rq, |_| {}), Vec::new())
    };
    // A logging session sends one delta per solved goal, in order; the
    // goals skipped after an interrupt sent none.
    for (o, c) in out.iter_mut().zip(certs) {
        if c.error.is_some() && matches!(o.verdict, RawVerdict::Proved) {
            o.verdict = RawVerdict::Unknown;
        }
        o.cert_hash = c.hash;
        o.cert_error = c.error;
        o.stats.cert_steps = c.steps;
        o.stats.cert_wall = c.cpu;
    }
    out
}

/// Materializes `core` in a fresh term context, its goals negated, and
/// opens its session: the base assumed, the goal stream announced.
pub(crate) fn open_session(
    core: &Core,
    cfg: SolverConfig,
    cancel: Option<Arc<AtomicBool>>,
    cert: bool,
) -> (Materialized, Session) {
    reset_ctx();
    let rq = core.materialize(true);
    let mut session = Session::new(cfg, cancel);
    session.set_proof_logging(cert);
    for &a in &rq.assumptions {
        session.assume(a);
    }
    // Announcing the goal stream up front lets the session *retire*
    // terms after their last use — purging dead goals' gate clauses
    // keeps long sessions' watch lists near the live-cone size.
    session.plan_goals(&rq.goals);
    (rq, session)
}

/// The solving half of [`solve_session`]: answers each goal on the live
/// session and hands its proof delta, if logged, to `on_delta` together
/// with whether the goal came back `Unsat`. An `Unsat` is reported
/// `Proved` here; a certified caller demotes it if the check fails.
pub(crate) fn solve_goals(
    session: &mut Session,
    rq: &Materialized,
    mut on_delta: impl FnMut((SessionProof, bool)),
) -> Vec<RawOutcome> {
    let mut out = Vec::with_capacity(rq.goals.len());
    let mut dead = false;
    for &ng in &rq.goals {
        if dead {
            out.push(RawOutcome {
                verdict: RawVerdict::Interrupted,
                stats: QueryStats::default(),
                cert_hash: 0,
                cert_error: None,
            });
            continue;
        }
        let so = session.solve_negated(ng);
        let unsat = matches!(so.result, CheckResult::Unsat);
        if let Some(mut proof) = so.proof {
            // Buggify: hand the checker a goal delta missing its
            // conclusion, as a torn stream would. Drawn here, not on the
            // checker thread, which runs outside the sim's schedule.
            // The goal must demote to `Unknown`, and so must every later
            // `Unsat` goal of this session — never a `Proved` without a
            // checked proof.
            if unsat && sim::buggify("cert-corrupt-delta") {
                drop_conclusion(&mut proof.steps);
            }
            on_delta((proof, unsat));
        }
        let verdict = match so.result {
            CheckResult::Unsat => RawVerdict::Proved,
            CheckResult::Unknown => RawVerdict::Unknown,
            CheckResult::Interrupted => {
                dead = true;
                RawVerdict::Interrupted
            }
            CheckResult::Sat(model) => {
                RawVerdict::Refuted(portable_of_caller_model(&model, &rq.backmap))
            }
        };
        let stats = so.stats;
        out.push(RawOutcome { verdict, stats, cert_hash: 0, cert_error: None });
    }
    out
}

/// Drops a goal delta's conclusion: its trailing `Derived` steps, since
/// a goal refuted under its activation literal often derives its
/// concluding clause twice (learnt in search, then as the assumption
/// core), and dropping one copy would leave the other to conclude.
pub(crate) fn drop_conclusion(steps: &mut ProofLog) {
    while steps.last().is_some_and(|s| s.kind == StepKind::Derived) {
        steps.truncate(steps.len() - 1);
    }
}

/// The checking half of [`solve_session`]: checks a session's goal
/// deltas, each with whether its goal came back `Unsat`, in order on one
/// live `serval-drat` checker, and returns one [`GoalCert`] per delta.
///
/// The checker's clause database mirrors the session solver's (modulo
/// clauses it keeps longer), so an `Unsat` is accepted only if its delta
/// checks out *and* concludes in a clause over the goal's negated
/// activation literal. The first rejection — a step that does not
/// check, or an `Unsat` goal without its conclusion — poisons the rest
/// of the session (the databases have diverged): every later `Unsat` is
/// rejected with the same error. An accepted goal's hash chains over all
/// deltas of *this* session so far, fingerprinting the whole prefix its
/// proof rests on — so how a group was cut changes its goals'
/// fingerprints, never their verdicts.
pub(crate) fn check_deltas(
    deltas: impl IntoIterator<Item = (SessionProof, bool)>,
) -> Vec<GoalCert> {
    let mut checker = serval_drat::Checker::new();
    let mut poison: Option<String> = None;
    let mut running_hash = serval_drat::hash_steps(&ProofLog::new());
    let mut certs = Vec::new();
    for (proof, unsat) in deltas {
        let clock = CheckClock::start();
        if poison.is_none() {
            for st in proof.steps.iter() {
                if let Err(e) = checker.apply(st) {
                    poison = Some(e.to_string());
                    break;
                }
            }
        }
        // Every goal drains the conclusion, so a goal that derives
        // nothing cannot inherit its predecessor's.
        let conclusion = checker.take_conclusion();
        running_hash = serval_drat::hash_steps_seeded(running_hash, &proof.steps);
        if unsat && poison.is_none() {
            let concluded = match proof.act {
                // Constant-false goal: no derived conclusion needed.
                None => true,
                Some(act) => {
                    conclusion.is_some_and(|c| serval_drat::conclusion_covers(&c, &[act]))
                }
            };
            if !concluded {
                poison = Some("session goal concluded no clause over !act".to_string());
            }
        }
        let (hash, error) = match (unsat, &poison) {
            (false, _) => (0, None),
            (true, Some(e)) => (0, Some(e.clone())),
            (true, None) => (running_hash, None),
        };
        let steps = proof.steps.len() as u64;
        certs.push(GoalCert { hash, error, steps, cpu: clock.elapsed() });
    }
    certs
}
