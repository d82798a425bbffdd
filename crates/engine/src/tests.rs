//! Engine tests: canonicalization, pool determinism and poisoning,
//! cache behavior, end-to-end agreement with direct `smt::verify`, and
//! each stage of `submit_batch` driven alone on hand-built input.

use crate::cache::CachedVerdict;
use crate::form::{split_goal, BackMap, Core, Keyer, Query};
use crate::pool::Pool;
use crate::solve::{PortableModel, RawOutcome, RawVerdict};
use crate::{Chunk, Discharged, Fixup, Live, Pending, Sub};
use crate::{DischargeMode, Engine, EngineCfg};
use serval_check::prelude::*;
use serval_smt::solver::{SolverConfig, VerifyResult};
use serval_smt::{reset_ctx, verify, SBool, BV};

/// A query's key: its wire bytes, from a fresh keyer.
fn key(assumptions: &[SBool], goal: SBool) -> Vec<u8> {
    Keyer::new().wire(assumptions, goal).to_vec()
}

/// A query's one-goal core and back map, from a fresh keyer.
fn keyed(assumptions: &[SBool], goal: SBool) -> (Core, BackMap) {
    Keyer::new().chunk(assumptions, &[goal])
}

fn local_engine(jobs: usize) -> Engine {
    Engine::new(EngineCfg { jobs, ..EngineCfg::default() })
}

/// Like [`local_engine`] but with incremental sessions off: one fresh
/// solver per sub-query, the pre-session behavior.
fn local_engine_fresh(jobs: usize) -> Engine {
    Engine::new(EngineCfg { jobs, mode: DischargeMode::Fresh, ..EngineCfg::default() })
}

fn q(label: &str, assumptions: Vec<SBool>, goal: SBool) -> Query {
    Query {
        label: label.to_string(),
        assumptions,
        goal,
        cfg: SolverConfig::default(),
    }
}

// -----------------------------------------------------------------
// Canonicalization
// -----------------------------------------------------------------

#[test]
fn alpha_renamed_queries_share_a_key() {
    // Same query built twice with different variable creation order and
    // different names must produce the same cache key.
    reset_ctx();
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let k1 = key(&[x.ult(y)], (x + y).eq_((y + x) & BV::lit(32, u128::MAX)));

    reset_ctx();
    let _decoy = BV::fresh(8, "decoy"); // shifts all ordinals
    let b = BV::fresh(32, "banana");
    let a = BV::fresh(32, "apple");
    let k2 = key(&[a.ult(b)], (a + b).eq_((b + a) & BV::lit(32, u128::MAX)));
    assert_eq!(k1, k2);
}

#[test]
fn assumption_order_does_not_change_the_key() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let z = BV::fresh(16, "z");
    // Structurally distinct assumptions in both orders.
    let a1 = x.ult(y);
    let a2 = y.ule(z);
    let goal = x.ult(z);
    let k_fwd = key(&[a1, a2], goal);
    let k_rev = key(&[a2, a1], goal);
    assert_eq!(k_fwd, k_rev);
}

#[test]
fn duplicate_and_trivial_assumptions_normalize_away() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let goal = (x + y).eq_(y + x);
    let plain = key(&[x.ult(y)], goal);
    let noisy = key(&[x.ult(y), SBool::lit(true), x.ult(y)], goal);
    assert_eq!(plain, noisy);
}

#[test]
fn distinct_queries_get_distinct_keys() {
    // A directed corpus of semantically different queries: all keys
    // must be pairwise distinct.
    reset_ctx();
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    // Note: the term builder folds commutative identities like
    // `(x+y) == (y+x)` to `true` at construction, so the corpus sticks
    // to goals that survive as real structure.
    let queries: Vec<(Vec<SBool>, SBool)> = vec![
        (vec![], (x - y).eq_(y - x)),
        (vec![], (x & y).ule(x)),
        (vec![], (x | y).ule(x)),
        (vec![x.ult(y)], (x - y).eq_(y - x)),
        (vec![y.ult(x)], (x - y).eq_(y - x)),
        (vec![], (x + x).eq_(x.shl(BV::lit(32, 1)))),
        (vec![], x.eq_(y)),
        (vec![], x.ule(y)),
    ];
    let keys: Vec<Vec<u8>> = queries
        .iter()
        .map(|(a, g)| key(a, *g))
        .collect();
    for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            assert_ne!(keys[i], keys[j], "queries {i} and {j} collided");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random expression shapes, instantiated twice with shuffled
    /// variable creation order, alpha-renamed names, and reversed
    /// assumption order, always produce identical cache keys.
    #[test]
    fn prop_alpha_invariance_of_cache_keys(
        c0 in any::<u8>(),
        c1 in any::<u8>(),
        pick in any::<u8>(),
    ) {
        let build = |swap_vars: bool, tag: &str| -> Vec<u8> {
            reset_ctx();
            let (x, y) = if swap_vars {
                let y = BV::fresh(32, &format!("{tag}_y"));
                let x = BV::fresh(32, &format!("{tag}_x"));
                (x, y)
            } else {
                let x = BV::fresh(32, "x");
                let y = BV::fresh(32, "y");
                (x, y)
            };
            // Each assumption embeds a distinct constant so local keys
            // never tie (symmetric ties may legitimately change keys).
            let mut assumptions = vec![
                x.ult(y + BV::lit(32, 1 + c0 as u128)),
                (y ^ BV::lit(32, 258 + c1 as u128)).ule(x),
            ];
            if swap_vars {
                assumptions.reverse();
            }
            let goal = match pick % 4 {
                0 => (x + y).eq_(y + x),
                1 => (x & y).ule(x | y),
                2 => ((x | y) - (x & y)).eq_(x ^ y),
                _ => (x ^ y).eq_((x | y) & !(x & y)),
            };
            key(&assumptions, goal)
        };
        let k1 = build(false, "a");
        let k2 = build(true, "b");
        prop_assert_eq!(k1, k2);
    }
}

#[test]
fn cache_key_is_the_full_serialization() {
    // Key equality must imply structural equality of the query: the key
    // is the wire serialization, bit for bit, and a group's one-goal core
    // — what a worker solves — is the conjunct's key itself.
    reset_ctx();
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let base = vec![y.ult(x), x.ult(BV::lit(32, 1000))];
    let (c1, c2) = ((x - y).ult(y - x), (x & y).ule(y));
    let engine = local_engine(1);
    let mut keyer = Keyer::new();
    let crate::Prepared { mut slots, live } =
        engine.prepare_batch(vec![q("c1&c2", base, c1 & c2)], &mut keyer);
    let keyed = engine.key_batch(live, &mut slots, &mut keyer);
    let [g] = &keyed.groups[..] else { panic!("one group") };
    let [p] = &keyed.pending[..] else { panic!("one query pending") };
    assert_eq!(p.subs.len(), 2, "the goal split");
    for (i, sub) in p.subs.iter().enumerate() {
        let Sub::Wait { goal, conjunct: Some((key, _)), .. } = sub else {
            panic!("conjunct {i} waits")
        };
        let (core, _) = keyer.chunk(&g.asms, &g.goals[*goal..*goal + 1]);
        assert_eq!((core.bytes(), core.goals()), (&key[..], 1), "conjunct {i}");
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Hand-built queries covering what the key and wire encoders must not
/// move: one fresh context, so ordinals and term ids are fixed too.
fn golden_queries() -> Vec<(&'static str, Vec<SBool>, SBool)> {
    reset_ctx();
    let _decoy = BV::fresh(8, "decoy");
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let z = BV::fresh(32, "z");
    let w = BV::fresh(32, "w");
    let wide = BV::fresh(128, "wide");
    let p = SBool::fresh("p");
    let f = serval_smt::with_ctx(|c| c.declare_uf("f", vec![32], 32));
    let g = serval_smt::with_ctx(|c| c.declare_uf("g", vec![32, 32], 8));
    let ap = |uf, args: &[BV]| {
        BV(serval_smt::build::uf_apply(uf, &args.iter().map(|a| a.0).collect::<Vec<_>>()))
    };
    vec![
        ("shared-var", vec![x.ult(y), y.ult(z)], x.ult(z)),
        ("uf-base-and-goal", vec![ap(f, &[x]).eq_(y)], ap(f, &[y]).ule(ap(f, &[x]))),
        ("two-ufs", vec![ap(g, &[x, y]).ult(BV::lit(8, 9))], ap(g, &[ap(f, &[y]), x]).eq_(ap(g, &[x, y]))),
        ("dup-and-true", vec![x.ult(y), SBool::lit(true), x.ult(y)], (x & y).ule(y)),
        ("equal-local-keys", vec![x.ult(y), z.ult(w)], (x + z).ule(y + w)),
        ("equal-local-keys-rev", vec![z.ult(w), x.ult(y)], (x + z).ule(y + w)),
        ("goal-sorts-first", vec![x.ult(y), (y ^ z).ule(w)], x.ult(BV::lit(32, 5))),
        ("const-128", vec![], wide.ult(BV::lit(128, u128::MAX - 5)) | wide.eq_(BV::lit(128, 1 << 100))),
        ("extract", vec![p], x.extract(15, 8).eq_(y.extract(7, 0)) | !p),
        ("wide-mix", vec![], p.select(x.extract(31, 16).concat(y.trunc(16)), z.trunc(8).sext(32)).sle(w)),
        ("false-assumption", vec![x.ult(BV::lit(32, 0)), y.ult(z)], x.eq_(y)),
        ("true-goal", vec![x.ult(y)], SBool::lit(true)),
    ]
}

#[test]
fn key_and_wire_bytes_match_the_pinned_digests() {
    // FNV-1a of the key and of a one-goal core's bytes — one normal form
    // now, so one column — taken at the commit before the three walkers
    // in `form.rs` became one keyer: disk caches, admission lookups and
    // shard routing all hang off these bytes.
    let got: Vec<(&str, u64, u64)> = golden_queries()
        .into_iter()
        .map(|(name, asms, goal)| {
            let core = fnv1a(keyed(&asms, goal).0.bytes());
            (name, fnv1a(&key(&asms, goal)), core)
        })
        .collect();
    let pinned: Vec<(&str, u64, u64)> = PINNED_BYTES.iter().map(|&(n, w)| (n, w, w)).collect();
    assert_eq!(got, pinned, "{got:#x?}");
}

const PINNED_BYTES: [(&str, u64); 12] = [
    ("shared-var", 0x1f3389092e45f0e9),
    ("uf-base-and-goal", 0xd02dc67d4b7ca32a),
    ("two-ufs", 0x36f22fbd223c798e),
    ("dup-and-true", 0x76ed1e1af8555c78),
    ("equal-local-keys", 0xeae954461fffa2c2),
    ("equal-local-keys-rev", 0x5597a5770b8d1562),
    ("goal-sorts-first", 0x42896154e30cf2b1),
    ("const-128", 0xc1fc0ede60871fe2),
    ("extract", 0x9e0ea0904c6698ad),
    ("wide-mix", 0xdc4bfade87ca80e6),
    ("false-assumption", 0x707901bd0aa4ced6),
    ("true-goal", 0x86f65abb92d0638d),
];

/// A decoded frame whose goal is one `And` of 10^5 variables
/// materializes into a single spilled node with every child in frame
/// order. The frame is written byte by byte, in the `SW1` layout.
#[test]
fn a_wide_and_decodes_into_one_spilled_node() {
    use serval_smt::term::Op;
    const N: u32 = 100_000;
    let mut frame = b"SW1\0".to_vec();
    frame.extend_from_slice(&N.to_le_bytes());
    frame.extend(std::iter::repeat_n(0u8, N as usize)); // N Bool vars
    frame.extend_from_slice(&0u32.to_le_bytes()); // no UFs
    frame.extend_from_slice(&(N + 1).to_le_bytes()); // nodes
    for k in 0..N {
        frame.push(2); // Var k: Bool, no children
        frame.extend_from_slice(&k.to_le_bytes());
        frame.extend_from_slice(&[0, 0, 0, 0, 0]);
    }
    frame.extend_from_slice(&[4, 0]); // And: Bool, N children
    frame.extend_from_slice(&N.to_le_bytes());
    for k in 0..N {
        frame.extend_from_slice(&k.to_le_bytes());
    }
    frame.extend_from_slice(&0u32.to_le_bytes()); // no assumptions
    frame.extend_from_slice(&N.to_le_bytes()); // the goal
    let core = Core::decode(frame).expect("a wide And is a valid frame");
    reset_ctx();
    let m = core.materialize(false);
    serval_smt::with_ctx(|c| {
        let goal = c.term(m.goals[0].0);
        assert_eq!(goal.op, Op::And);
        let vars: Vec<_> = m.backmap.vars.iter().map(|v| v.term).collect();
        assert_eq!(&goal.children[..], &vars[..]);
        assert_eq!(c.num_terms(), N as usize + 1);
    });
    reset_ctx();
}

#[test]
fn duplicate_roots_cost_one_pass_and_key_like_their_deduplicated_self() {
    // 4 096 distinct assumptions, each submitted twice: the seen-set is
    // the keyer's stamped table, not a scan of the roots kept so far
    // (2 M compares here before the first walk started).
    reset_ctx();
    let once: Vec<SBool> = (0..4096).map(|_| SBool::fresh("p")).collect();
    let twice: Vec<SBool> = once.iter().chain(&once).copied().collect();
    let goal = SBool::fresh("g");
    assert_eq!(key(&twice, goal), key(&once, goal));
}

/// The keyer suite's random queries: one per six picks, all in one
/// fresh context — fresh variables and terms interned between queries,
/// a UF, assumption roots shared across queries, duplicate and constant
/// assumptions, constant goals and a goal that negates an assumption.
/// `each` sees every query as soon as it is built.
fn for_each_random_query(picks: &[u8], mut each: impl FnMut(&[SBool], SBool)) {
    reset_ctx();
    let f = serval_smt::with_ctx(|c| c.declare_uf("f", vec![16], 16));
    let mut pool = vec![BV::fresh(16, "v"), BV::fresh(16, "v")];
    let mut asms = vec![pool[0].ule(pool[1])];
    for p in picks.chunks(6) {
        if p[0] % 3 == 0 {
            pool.push(BV::fresh(16, "v"));
        }
        let at = |i: u8| pool[i as usize % pool.len()];
        let (a, b, k) = (at(p[1]), at(p[2]), BV::lit(16, u128::from(p[3])));
        let t = match p[4] % 6 {
            0 => a + b,
            1 => a & k,
            2 => (a ^ b) | k,
            3 => BV(serval_smt::build::uf_apply(f, &[a.0])),
            4 => a.extract(7, 0).zext(16),
            _ => a - b,
        };
        pool.push(t);
        asms.push(if p[5] % 2 == 0 { t.ule(a) } else { b.ult(t ^ k) });
        let asm = |i: u8| asms[i as usize % asms.len()];
        let assumptions = [asm(p[5]), asm(p[1]), SBool::lit(p[2] % 7 != 0), asm(p[5])];
        let goal = match p[0] % 5 {
            0 => t.ult(b),
            1 => t.eq_(a),
            2 => !asm(p[1]),
            3 => asm(p[3]),
            _ => SBool::lit(p[2] % 2 == 0),
        };
        each(&assumptions, goal);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One keyer over 64 random queries of one context agrees with a
    /// fresh keyer per query on key, backmap and one-goal core, and its
    /// core is its key: a stale stamp, a stale local-key memo or a table
    /// that did not grow would not.
    #[test]
    fn prop_a_reused_keyer_matches_one_shot_prepare(
        picks in prop::collection::vec(any::<u8>(), 64 * 6),
    ) {
        let mut keyer = Keyer::new();
        for_each_random_query(&picks, |assumptions, goal| {
            let (core, backmap) = keyed(assumptions, goal);
            prop_assert_eq!(keyer.wire(assumptions, goal), core.bytes());
            let origins = |m: &BackMap| {
                let vars: Vec<_> = m.vars.iter().map(|v| (v.term, v.sort)).collect();
                (vars, m.ufs.clone())
            };
            prop_assert_eq!(origins(keyer.backmap()), origins(&backmap));
            let (reused, _) = keyer.chunk(assumptions, &[goal]);
            prop_assert_eq!(&reused, &core);
            prop_assert_eq!(core.trivially_unsat, crate::form::folds(assumptions, goal));
        });
    }

    /// What a server's admission relies on: the bytes a client sends are
    /// the key the server's engine stores the query under. Decoding them,
    /// materializing the core as real terms and keying again reproduces
    /// them exactly.
    #[test]
    fn prop_wire_bytes_are_a_fixpoint_and_the_cache_key(
        picks in prop::collection::vec(any::<u8>(), 64 * 6),
    ) {
        let mut keyer = Keyer::new();
        for_each_random_query(&picks, |assumptions, goal| {
            let sent = keyer.wire(assumptions, goal).to_vec();
            let core = Core::decode(sent.clone()).expect("own bytes decode");
            prop_assert_eq!(&core, &keyed(assumptions, goal).0);
            let m = core.materialize(false);
            let mut server = Keyer::new();
            prop_assert_eq!(server.wire(&m.assumptions, m.goals[0]), &sent[..]);
        });
    }
}

// -----------------------------------------------------------------
// Thread pool
// -----------------------------------------------------------------

#[test]
fn pool_returns_results_in_submission_order() {
    // Same batch, different worker counts: byte-identical result order.
    let batch = |jobs: usize| -> Vec<Result<u64, String>> {
        let pool = Pool::new(jobs);
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..64u64)
            .map(|i| {
                Box::new(move || {
                    // Uneven work so completion order scrambles.
                    let mut acc = i;
                    for _ in 0..(i % 7) * 1000 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    acc ^ (acc >> 33)
                }) as Box<dyn FnOnce() -> u64 + Send>
            })
            .collect();
        pool.run_batch(tasks)
    };
    let one = batch(1);
    let four = batch(4);
    let eight = batch(8);
    assert_eq!(one, four);
    assert_eq!(one, eight);
}

#[test]
fn poisoned_worker_fails_alone() {
    let pool = Pool::new(3);
    let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20usize)
        .map(|i| {
            Box::new(move || {
                if i == 7 {
                    panic!("query {i} is poisoned");
                }
                i * 10
            }) as Box<dyn FnOnce() -> usize + Send>
        })
        .collect();
    let results = pool.run_batch(tasks);
    for (i, r) in results.iter().enumerate() {
        if i == 7 {
            let msg = r.as_ref().unwrap_err();
            assert!(msg.contains("poisoned"), "got: {msg}");
        } else {
            assert_eq!(*r.as_ref().unwrap(), i * 10);
        }
    }
    // The pool survives and takes new work.
    let again = pool.run_batch(vec![
        Box::new(|| 1usize) as Box<dyn FnOnce() -> usize + Send>
    ]);
    assert_eq!(*again[0].as_ref().unwrap(), 1);
}

#[test]
fn pool_threads_are_bounded_by_the_batch_not_by_jobs() {
    // A pool that spawned `jobs` threads whatever the batch holds would
    // not come back from this: an empty batch spawns none, three tasks
    // at most three.
    let pool = Pool::new(usize::MAX);
    assert!(pool.run_batch(Vec::<Box<dyn FnOnce() -> u8 + Send>>::new()).is_empty());
    let tasks: Vec<Box<dyn FnOnce() -> u8 + Send>> =
        (0..3u8).map(|i| Box::new(move || i) as Box<dyn FnOnce() -> u8 + Send>).collect();
    assert_eq!(pool.run_batch(tasks), vec![Ok(0), Ok(1), Ok(2)]);
}

#[test]
fn pool_never_runs_a_task_on_the_callers_thread() {
    // Tasks reset their thread's term context; the caller's terms must
    // outlive the batch even when one worker would do.
    reset_ctx();
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let goal = (x + y).eq_(y + x) & x.ule(x | y);
    let before = key(&[x.ult(y)], goal);
    let tasks: Vec<Box<dyn FnOnce() -> bool + Send>> = (0..4u32)
        .map(|i| {
            Box::new(move || {
                reset_ctx();
                let z = BV::fresh(8 + i, "z");
                verify(&[], (z & z).eq_(z)).is_proved()
            }) as Box<dyn FnOnce() -> bool + Send>
        })
        .collect();
    assert_eq!(Pool::new(1).run_batch(tasks), vec![Ok(true); 4]);
    assert_eq!(key(&[x.ult(y)], goal), before, "the caller's terms survived");
    assert!(verify(&[x.ult(y)], goal).is_proved());
}

#[test]
fn pool_runs_at_most_jobs_tasks_at_once() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};
    let running = Arc::new(AtomicUsize::new(0));
    let high_water = Arc::new(AtomicUsize::new(0));
    // Tasks 0 and 1 meet at a barrier, so the two workers provably
    // overlap; a third concurrent task would push the mark past 2.
    let meet = Arc::new(Barrier::new(2));
    let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
        .map(|i| {
            let (running, high_water, meet) =
                (Arc::clone(&running), Arc::clone(&high_water), Arc::clone(&meet));
            Box::new(move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                if i < 2 {
                    meet.wait();
                }
                std::thread::yield_now();
                running.fetch_sub(1, Ordering::SeqCst);
                i
            }) as Box<dyn FnOnce() -> usize + Send>
        })
        .collect();
    let results = Pool::new(2).run_batch(tasks);
    assert_eq!(results, (0..8).map(Ok).collect::<Vec<_>>());
    assert_eq!(high_water.load(Ordering::SeqCst), 2);
}

// -----------------------------------------------------------------
// Engine end-to-end
// -----------------------------------------------------------------

#[test]
fn engine_agrees_with_direct_verify() {
    reset_ctx();
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let proved_goal = (x + y).eq_(y + x);
    let refuted_goal = (x - y).eq_(y - x);
    assert!(verify(&[], proved_goal).is_proved());
    assert!(!verify(&[], refuted_goal).is_proved());

    let engine = local_engine(2);
    let outcomes = engine.submit_batch(vec![
        q("commutes", vec![], proved_goal),
        q("anticommutes", vec![], refuted_goal),
    ]);
    assert!(matches!(outcomes[0].result, VerifyResult::Proved));
    let VerifyResult::Counterexample(model) = &outcomes[1].result else {
        panic!("expected a counterexample, got {:?}", outcomes[1].result);
    };
    // The rehydrated model must be a real counterexample over the
    // *caller's* terms.
    assert!(!model.eval_bool(refuted_goal.0), "model must refute the goal");
    assert!(outcomes[1].stats.is_some());
    assert!(outcomes[1].stats.unwrap().vars > 0);
}

#[test]
fn engine_verdicts_identical_across_worker_counts() {
    let run = |jobs: usize| -> Vec<bool> {
        reset_ctx();
        let x = BV::fresh(16, "x");
        let y = BV::fresh(16, "y");
        let engine = local_engine(jobs);
        let queries = vec![
            q("p1", vec![], (x + y).eq_(y + x)),
            q("r1", vec![], x.eq_(y)),
            q("p2", vec![x.ult(y)], x.ule(y)),
            q("r2", vec![x.ule(y)], x.ult(y)),
            q("p3", vec![], (x ^ y).eq_((x | y) & !(x & y))),
        ];
        engine
            .submit_batch(queries)
            .into_iter()
            .map(|o| o.result.is_proved())
            .collect()
    };
    let expected = vec![true, false, true, false, true];
    assert_eq!(run(1), expected);
    assert_eq!(run(4), expected);
}

#[test]
fn warm_cache_hits_with_unchanged_verdicts() {
    reset_ctx();
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let engine = local_engine(2);
    let make = || {
        vec![
            q("p", vec![], ((x & y) + (x | y)).eq_(x + y)),
            q("r", vec![], x.ule(y)),
        ]
    };
    let cold = engine.submit_batch(make());
    assert!(cold.iter().all(|o| !o.cache_hit));
    let warm = engine.submit_batch(make());
    assert!(warm.iter().all(|o| o.cache_hit), "second run must hit");
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.result.is_proved(), w.result.is_proved());
    }
    let (hits, misses) = engine.cache_stats();
    assert_eq!(hits, 2);
    assert_eq!(misses, 2);
    // The cached counterexample still refutes the caller's goal.
    let VerifyResult::Counterexample(m) = &warm[1].result else {
        panic!("expected counterexample");
    };
    assert!(!m.eval_bool(x.ule(y).0));
}

#[test]
fn disk_cache_survives_engine_restarts() {
    reset_ctx();
    let dir = std::env::temp_dir().join(format!(
        "serval-engine-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let mk_engine = || {
        Engine::new(EngineCfg { jobs: 2, disk_cache: Some(dir.clone()), ..EngineCfg::default() })
    };
    let first = mk_engine();
    let o = first.submit(q("p", vec![], (x & y).ule(x)));
    assert!(matches!(o.result, VerifyResult::Proved));
    assert!(!o.cache_hit);
    drop(first);

    let second = mk_engine();
    let o2 = second.submit(q("p", vec![], (x & y).ule(x)));
    assert!(matches!(o2.result, VerifyResult::Proved));
    assert!(o2.cache_hit, "proved key must be preloaded from disk");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Unique scratch dir for a disk-cache test.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "serval-engine-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The unique segment file currently holding a record (older segments
/// are truncated back to their bare header by corruption recovery).
fn record_segment(dir: &std::path::Path) -> std::path::PathBuf {
    let mut candidates: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir exists")
        .flatten()
        .filter(|e| {
            let n = e.file_name();
            let n = n.to_string_lossy().to_string();
            n.starts_with("seg-")
                && n.ends_with(".bin")
                && e.metadata().map(|m| m.len() > 8).unwrap_or(false)
        })
        .map(|e| e.path())
        .collect();
    assert_eq!(candidates.len(), 1, "exactly one segment holds the record");
    candidates.pop().unwrap()
}

#[test]
fn corrupted_disk_cache_is_a_miss_not_a_panic() {
    reset_ctx();
    let dir = scratch_dir("corrupt");
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let mk_engine = || {
        Engine::new(EngineCfg { jobs: 1, disk_cache: Some(dir.clone()), ..EngineCfg::default() })
    };
    let goal = (x & y).ule(x);
    let o = mk_engine().submit(q("p", vec![], goal));
    assert!(matches!(o.result, VerifyResult::Proved));
    let path = record_segment(&dir);
    let pristine = std::fs::read(&path).expect("proved key persisted");
    assert!(pristine.len() > 8, "file must hold magic + a record");

    // Truncated record (crash mid-append): load must drop it and the
    // query must re-solve to the same verdict — never panic.
    std::fs::write(&path, &pristine[..pristine.len() - 3]).unwrap();
    let engine = mk_engine();
    let o = engine.submit(q("p", vec![], goal));
    assert!(matches!(o.result, VerifyResult::Proved));
    assert!(!o.cache_hit, "truncated record must be a miss");
    drop(engine); // its re-solve appended the record to a fresh segment

    // Bit-flipped record body: the checksum catches it, same outcome.
    let path = record_segment(&dir);
    let mut flipped = std::fs::read(&path).unwrap();
    let mid = 8 + (flipped.len() - 8) / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    let o = mk_engine().submit(q("p", vec![], goal));
    assert!(matches!(o.result, VerifyResult::Proved));
    assert!(!o.cache_hit, "bit-flipped record must be a miss");

    // Garbage header: not our file — deleted and rebuilt from scratch.
    let path = record_segment(&dir);
    std::fs::write(&path, b"not a serval cache file").unwrap();
    let o = mk_engine().submit(q("p", vec![], goal));
    assert!(matches!(o.result, VerifyResult::Proved));
    assert!(!o.cache_hit);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment of the `SRVCACH2` format holds keys of the retired `SQ1`
/// normal form, which no query can hit again: loading counts none of its
/// records and deletes it like any foreign file. The same record under
/// today's header loads.
#[test]
fn an_old_format_segment_loads_nothing_and_is_removed() {
    let dir = scratch_dir("srvcach2");
    std::fs::create_dir_all(&dir).unwrap();
    let segment = |magic: &[u8]| {
        let key = b"SQ1\0an old key";
        let record = [&(key.len() as u32).to_le_bytes()[..], key, &7u64.to_le_bytes()].concat();
        [magic, &record, &fnv1a(&record).to_le_bytes()].concat()
    };
    let old = dir.join("seg-1-0.bin");
    std::fs::write(&old, segment(b"SRVCACH2")).unwrap();
    assert_eq!(crate::cache::Cache::new(Some(dir.clone()), true).len(), 0);
    assert!(!old.exists(), "the old segment is deleted");

    std::fs::write(dir.join("seg-1-1.bin"), segment(b"SRVCACH3")).unwrap();
    assert_eq!(crate::cache::Cache::new(Some(dir.clone()), true).len(), 1, "the control loads");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_cache_lock_fails_alone() {
    // A query that panics while holding the cache's memory-tier lock
    // must not take every later query down with it: the map is intact
    // (at worst missing one insert), so the lock is recovered, not
    // propagated. Before the fix, the `.unwrap()` on the poisoned lock
    // panicked *every* subsequent lookup on *every* worker.
    reset_ctx();
    let engine = local_engine(2);
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let o = engine.submit(q("warm", vec![], (x & y).ule(x)));
    assert!(matches!(o.result, VerifyResult::Proved));

    engine.cache().poison_mem_for_test();

    // Warm hit through the poisoned lock.
    let o = engine.submit(q("warm", vec![], (x & y).ule(x)));
    assert!(matches!(o.result, VerifyResult::Proved));
    assert!(o.cache_hit, "warm hit must survive a poisoned lock");
    // Fresh solve + insert through the poisoned lock.
    let cold = ((x & y) + (x | y)).eq_(x + y);
    let o = engine.submit(q("cold", vec![], cold));
    assert!(matches!(o.result, VerifyResult::Proved));
    let o = engine.submit(q("cold-again", vec![], cold));
    assert!(o.cache_hit, "insert must land despite the poisoned lock");
}

#[test]
fn uncertified_disk_records_are_ignored_by_certified_engines() {
    reset_ctx();
    let dir = scratch_dir("uncert");
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let mk_engine = |cert: bool| {
        Engine::new(EngineCfg {
            jobs: 1,
            disk_cache: Some(dir.clone()),
            cert,
            ..EngineCfg::default()
        })
    };
    let goal = ((x & y) + (x | y)).eq_(x + y);
    let o = mk_engine(false).submit(q("p", vec![], goal));
    assert!(matches!(o.result, VerifyResult::Proved));
    assert!(o.cert.is_none(), "uncertified run carries no fingerprint");

    // A certified engine must not launder the unchecked record into a
    // certified verdict: the warm "hit" is dropped on load, the query
    // re-solves, and the outcome now carries a certificate.
    let o = mk_engine(true).submit(q("p", vec![], goal));
    assert!(matches!(o.result, VerifyResult::Proved));
    assert!(!o.cache_hit, "uncertified record must not hit a certified engine");
    assert!(o.cert.is_some(), "re-solve must produce a certificate");

    // And the certified re-append is visible to the next certified run.
    let o = mk_engine(true).submit(q("p", vec![], goal));
    assert!(o.cache_hit);
    assert!(o.cert.is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_refuted_entry_is_evicted_and_resolved() {
    // A provable goal whose cache slot holds a bogus "countermodel", on
    // each layer the one probe serves: the raw key (presolve on), the
    // normal form (presolve off: the only key), and a conjunct's key.
    for (layer, presolve, conjunct) in
        [("raw key", true, false), ("normal form", false, false), ("conjunct", true, true)]
    {
        reset_ctx();
        let x = BV::fresh(16, "x");
        let y = BV::fresh(16, "y");
        let engine = cert_matrix_engine(true, true, presolve, true);
        let poisoned = (x & y).ule(x);
        let goal = if conjunct { poisoned & (x | y).uge(x) } else { poisoned };
        let (core, backmap) = keyed(&[], poisoned);
        let mut bogus = PortableModel::default();
        for (i, _) in backmap.vars.iter().enumerate() {
            bogus.bvs.push((i as u32, 7));
        }
        engine.cache.insert(core.bytes().to_vec(), CachedVerdict::Refuted(bogus));
        // The hit revalidates the stored model against the term
        // semantics, finds it does not refute the goal, evicts, and
        // re-solves.
        let o = engine.submit(q("p", vec![], goal));
        assert!(
            matches!(o.result, VerifyResult::Proved),
            "[{layer}] poisoned Refuted entry must not surface, got {:?}",
            o.result
        );
        assert!(!o.cache_hit, "[{layer}]");
        assert!(o.cert.is_some(), "[{layer}] the re-solve is certified");
        assert_eq!(engine.cache_stats().0, 0, "[{layer}] the eviction reclassifies the hit");
        // The poisoned entry is gone: the slot now holds the proved verdict.
        assert!(
            matches!(engine.cache.get(core.bytes()), Some(CachedVerdict::Proved { .. })),
            "[{layer}]"
        );
        let o = engine.submit(q("p", vec![], goal));
        assert!(o.cache_hit, "[{layer}]");
        assert!(matches!(o.result, VerifyResult::Proved), "[{layer}]");
    }
}

#[test]
fn genuine_refuted_entries_survive_revalidation() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let engine = local_engine(1);
    let goal = x.ule(y);
    let cold = engine.submit(q("r", vec![], goal));
    assert!(matches!(cold.result, VerifyResult::Counterexample(_)));
    // The genuine countermodel passes revalidation and hits.
    let warm = engine.submit(q("r", vec![], goal));
    assert!(warm.cache_hit, "a valid Refuted entry must still hit");
    let VerifyResult::Counterexample(m) = &warm.result else {
        panic!("expected counterexample, got {:?}", warm.result);
    };
    assert!(!m.eval_bool(goal.0));
}

// -----------------------------------------------------------------
// Proof certificates
// -----------------------------------------------------------------

/// Engine over the full cfg matrix axis used by the cert tests.
fn cert_matrix_engine(incremental: bool, split: bool, presolve: bool, cert: bool) -> Engine {
    Engine::new(EngineCfg {
        jobs: 2,
        split,
        mode: if incremental { DischargeMode::Session } else { DischargeMode::Fresh },
        presolve,
        cert,
        ..EngineCfg::default()
    })
}

#[test]
fn proved_outcomes_carry_certificates() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let engine = local_engine(2);
    // Presolve-resistant identities, so the proofs come from real solves.
    let unit = ((x & y) + (x | y)).eq_(x + y);
    let conj = unit & (x ^ y).eq_((x | y) & !(x & y));
    assert!(split_goal(conj, 512).len() >= 2);
    let out = engine.submit_batch(vec![
        q("unit", vec![], unit),
        q("conj", vec![], conj),
        q("refuted", vec![], x.eq_(y)),
    ]);
    assert!(matches!(out[0].result, VerifyResult::Proved));
    assert!(out[0].cert.is_some(), "unit proof must carry a certificate");
    assert!(matches!(out[1].result, VerifyResult::Proved));
    assert!(out[1].cert.is_some(), "split proof must carry a combined certificate");
    assert!(out[2].cert.is_none(), "refuted outcomes carry none");
    let (checked, rejected) = engine.cert_counts();
    assert!(checked > 0, "certificates must actually have been checked");
    assert_eq!(rejected, 0);
    // Checker work is visible in the stats.
    let s = out[0].stats.expect("solved query has stats");
    assert!(s.cert_steps > 0, "proof log must be non-empty");
}

#[test]
fn cert_on_and_off_verdicts_agree_across_the_matrix() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let asms = vec![x.ult(BV::lit(16, 1000)), y.uge(BV::lit(16, 4))];
    let queries = || {
        vec![
            q("p-unit", asms.clone(), (x & y).ule(x)),
            q("r-unit", asms.clone(), x.ult(y)),
            q(
                "p-conj",
                asms.clone(),
                (x & y).ule(x) & x.ult(BV::lit(16, 1001)) & y.uge(BV::lit(16, 3)),
            ),
            q("r-conj", asms.clone(), (x | y).uge(x) & x.eq_(y)),
            q("p-alone", vec![y.ult(BV::lit(16, 9))], y.ule(BV::lit(16, 8))),
            q("p-trivial", vec![x.ult(BV::lit(16, 0))], x.eq_(y)),
        ]
    };
    for incremental in [false, true] {
        for split in [false, true] {
            for presolve in [false, true] {
                let on = cert_matrix_engine(incremental, split, presolve, true)
                    .submit_batch(queries());
                let off = cert_matrix_engine(incremental, split, presolve, false)
                    .submit_batch(queries());
                for (a, b) in on.iter().zip(&off) {
                    assert_eq!(
                        a.result.is_proved(),
                        b.result.is_proved(),
                        "cert on/off verdict mismatch on {} (incremental={incremental}, \
                         split={split}, presolve={presolve})",
                        a.label
                    );
                    assert!(
                        a.error.is_none(),
                        "certified {} unexpectedly errored: {:?}",
                        a.label,
                        a.error
                    );
                    if a.result.is_proved() {
                        assert!(a.cert.is_some(), "{} lacks a certificate", a.label);
                        assert!(b.cert.is_none(), "{} certified with cert off", b.label);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random query batches across the full discharge-mode matrix
    /// (session/fresh × split/unsplit × presolve on/off): certification
    /// must be invisible in verdicts — `SERVAL_CERT=1` and `=0` agree on
    /// every outcome — and every certified `Proved` must actually carry
    /// a checker-accepted certificate.
    #[test]
    fn prop_cert_on_off_verdicts_agree(
        c0 in any::<u8>(),
        c1 in any::<u8>(),
        picks in prop::collection::vec(any::<u8>(), 1..4),
    ) {
        reset_ctx();
        let x = BV::fresh(16, "x");
        let y = BV::fresh(16, "y");
        let asms = vec![
            x.ult(BV::lit(16, 1 + c0 as u128)),
            y.uge(BV::lit(16, (c1 % 16) as u128)),
        ];
        let menu = |p: u8| -> SBool {
            match p % 6 {
                0 => ((x & y) + (x | y)).eq_(x + y),
                1 => x.ult(y),
                2 => (x ^ y).eq_((x | y) & !(x & y)),
                3 => x.eq_(y),
                4 => (x & y).ule(x) & x.ule(x | y),
                _ => (x + y).uge(x),
            }
        };
        let queries = || -> Vec<Query> {
            picks
                .iter()
                .enumerate()
                .map(|(i, &p)| q(&format!("q{i}"), asms.clone(), menu(p)))
                .collect()
        };
        for incremental in [false, true] {
            for split in [false, true] {
                for presolve in [false, true] {
                    let on = cert_matrix_engine(incremental, split, presolve, true)
                        .submit_batch(queries());
                    let off = cert_matrix_engine(incremental, split, presolve, false)
                        .submit_batch(queries());
                    for (a, b) in on.iter().zip(&off) {
                        prop_assert_eq!(
                            a.result.is_proved(),
                            b.result.is_proved(),
                            "cert on/off mismatch on {} (incremental={}, split={}, presolve={})",
                            &a.label, incremental, split, presolve
                        );
                        prop_assert!(a.error.is_none());
                        if a.result.is_proved() {
                            prop_assert!(a.cert.is_some());
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn external_cancel_interrupts_a_running_solve() {
    use crate::solve::solve_one;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let z = BV::fresh(16, "z");
    // 16-bit multiplicative distributivity is multiplier equivalence
    // checking: far too hard for the CDCL solver to finish within the
    // cancellation window (empirically >200k conflicts / >40s), so any
    // verdict other than Interrupted means the external cancel never
    // reached the running search. (Commutativity identities cannot be
    // used here: the term builder folds them to `true` at construction.)
    let (core, _) = keyed(&[], (x * (y + z)).eq_(x * y + x * z));
    let cancel = Arc::new(AtomicBool::new(false));
    let killer = {
        let cancel = Arc::clone(&cancel);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            cancel.store(true, Ordering::Relaxed);
        })
    };
    let out = solve_one(&core, SolverConfig::default(), Some(cancel), false);
    killer.join().unwrap();
    assert!(
        matches!(out.verdict, RawVerdict::Interrupted),
        "mid-solve cancel must interrupt the solve, got {:?}",
        out.verdict
    );
}

#[test]
fn poisoned_query_surfaces_as_error_not_crash() {
    // A query over a dangling TermId panics on the worker during
    // preparation... preparation happens caller-side, so instead poison
    // via the pool path: an engine query cannot easily be made to
    // panic, which is exactly the point — the pool-level test above
    // covers the panic path. Here we just check the error field stays
    // empty on healthy queries.
    reset_ctx();
    let x = BV::fresh(8, "x");
    let engine = local_engine(1);
    let o = engine.submit(q("healthy", vec![], x.eq_(x)));
    assert!(o.error.is_none());
    assert!(matches!(o.result, VerifyResult::Proved));
}

// -----------------------------------------------------------------
// Goal splitting
// -----------------------------------------------------------------

fn local_engine_unsplit(jobs: usize) -> Engine {
    Engine::new(EngineCfg { jobs, split: false, ..EngineCfg::default() })
}

#[test]
fn split_goal_flattens_nested_conjunctions() {
    reset_ctx();
    let a = SBool::fresh("a");
    let b = SBool::fresh("b");
    let c = SBool::fresh("c");
    let goal = (a & b) & c;
    assert_eq!(split_goal(goal, 512).len(), 3);
    // A goal that is not a conjunction stays whole.
    assert_eq!(split_goal(a, 512).len(), 1);
    // The cap stops expansion entirely when even the first level would
    // exceed it.
    assert_eq!(split_goal(goal, 1).len(), 1);
}

#[test]
fn split_and_unsplit_verdicts_agree() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let proved = (x & y).ule(x) & (x | y).uge(x);
    let refuted = (x & y).ule(x) & x.ult(y);
    // Guard: the builder must not have folded these to non-conjunctions,
    // or the test would not exercise the split path at all.
    assert!(split_goal(proved, 512).len() >= 2);
    assert!(split_goal(refuted, 512).len() >= 2);
    for engine in [local_engine(2), local_engine_unsplit(2)] {
        let out = engine.submit_batch(vec![
            q("conj-proved", vec![], proved),
            q("conj-refuted", vec![], refuted),
        ]);
        assert!(matches!(out[0].result, VerifyResult::Proved));
        let VerifyResult::Counterexample(m) = &out[1].result else {
            panic!("expected counterexample, got {:?}", out[1].result);
        };
        // The model from the refuted conjunct must refute the *whole*
        // conjunction over the caller's terms.
        assert!(!m.eval_bool(refuted.0), "model must refute the conjunction");
    }
}

// -----------------------------------------------------------------
// Incremental discharge sessions
// -----------------------------------------------------------------

#[test]
fn incremental_and_fresh_engines_agree() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let asms = vec![x.ult(BV::lit(16, 1000)), y.uge(BV::lit(16, 4))];
    let queries = || {
        vec![
            q("p-shared-1", asms.clone(), (x & y).ule(x)),
            q("r-shared", asms.clone(), x.ult(y)),
            q("p-shared-2", asms.clone(), x.ule(x | y)),
            q("p-alone", vec![y.ult(BV::lit(16, 9))], y.ule(BV::lit(16, 8))),
            q(
                "conj-shared",
                asms.clone(),
                (x & y).ule(x) & x.ult(BV::lit(16, 1001)) & y.uge(BV::lit(16, 3)),
            ),
            q("r-conj", asms.clone(), (x | y).uge(x) & x.eq_(y)),
        ]
    };
    let inc = local_engine(2).submit_batch(queries());
    let fresh = local_engine_fresh(2).submit_batch(queries());
    for (a, b) in inc.iter().zip(&fresh) {
        assert_eq!(
            a.result.is_proved(),
            b.result.is_proved(),
            "verdict mismatch on {}",
            a.label
        );
    }
    // Session countermodels must be real counterexamples over the
    // *caller's* terms: they refute the goal while satisfying every
    // shared assumption.
    let VerifyResult::Counterexample(m) = &inc[1].result else {
        panic!("expected counterexample, got {:?}", inc[1].result);
    };
    assert!(!m.eval_bool(x.ult(y).0), "model must refute the goal");
    for a in &asms {
        assert!(m.eval_bool(a.0), "model must satisfy the assumptions");
    }
}

#[test]
fn session_countermodel_translation_handles_index_skew() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let z = BV::fresh(16, "z");
    let asms = vec![x.ult(BV::lit(16, 50))];
    // The first goal drags `y` into the session's canonical numbering
    // before `z`; the second goal's own normal form contains only x and
    // z, so its canonical indices differ from the session's — the skew
    // that going through the caller's terms (the session's backmap in,
    // the query's raw backmap out) has to absorb.
    let g1 = (x + y).uge(x); // refuted by wraparound (large y)
    let g2 = x.ult(z); // refuted by z <= x
    let out = local_engine(1).submit_batch(vec![
        q("g1", asms.clone(), g1),
        q("g2", asms.clone(), g2),
    ]);
    let VerifyResult::Counterexample(m) = &out[1].result else {
        panic!("expected counterexample, got {:?}", out[1].result);
    };
    assert!(!m.eval_bool(g2.0), "translated model must refute g2");
    assert!(m.eval_bool(asms[0].0), "translated model must satisfy the base");
    // Both goals shared one session (same assumption set): the second
    // goal must report its position and carry reused encoding.
    let s2 = out[1].stats.expect("solved sub-query has stats");
    assert_eq!(s2.session_goals, 2, "g2 must be the session's second goal");
    assert!(s2.reused_vars > 0, "g2 must reuse the base encoding");
}

#[test]
fn incremental_warm_rerun_hits_cache() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let asms = vec![x.ult(y)];
    let goal = (x & y).ule(x) & x.ule(y);
    assert!(split_goal(goal, 512).len() >= 2);
    let engine = local_engine(2);
    let cold = engine.submit_batch(vec![q("conj", asms.clone(), goal)]);
    assert!(matches!(cold[0].result, VerifyResult::Proved));
    assert!(!cold[0].cache_hit);
    // Each proved sub-query inserted its own key, so the rerun resolves
    // from the cache without building a session at all.
    let warm = engine.submit_batch(vec![q("conj", asms.clone(), goal)]);
    assert!(warm[0].cache_hit, "rerun must hit the cache");
    assert!(matches!(warm[0].result, VerifyResult::Proved));
    let (hits, _) = engine.cache_stats();
    assert!(hits > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random batches of queries over random shared assumption sets:
    /// the incremental engine and the fresh-per-query engine must agree
    /// on every verdict, and every incremental countermodel must refute
    /// its goal while satisfying the shared assumptions.
    #[test]
    fn prop_incremental_matches_fresh_engine(
        c0 in any::<u8>(),
        c1 in any::<u8>(),
        picks in prop::collection::vec(any::<u8>(), 1..5),
    ) {
        reset_ctx();
        let x = BV::fresh(16, "x");
        let y = BV::fresh(16, "y");
        // Always-satisfiable assumption set with random constants.
        let asms = vec![
            x.ult(BV::lit(16, 1 + c0 as u128)),
            y.uge(BV::lit(16, (c1 % 16) as u128)),
        ];
        let menu = |p: u8| -> SBool {
            match p % 6 {
                0 => (x & y).ule(x),
                1 => x.ult(y),
                2 => (x | y).uge(y),
                3 => x.eq_(y),
                4 => (x ^ y).eq_((x | y) & !(x & y)),
                _ => (x + y).uge(x),
            }
        };
        let queries = || -> Vec<Query> {
            picks
                .iter()
                .enumerate()
                .map(|(i, &p)| q(&format!("q{i}"), asms.clone(), menu(p)))
                .collect()
        };
        let inc = local_engine(2).submit_batch(queries());
        let fresh = local_engine_fresh(2).submit_batch(queries());
        for ((a, b), &p) in inc.iter().zip(&fresh).zip(&picks) {
            prop_assert_eq!(a.result.is_proved(), b.result.is_proved());
            if let VerifyResult::Counterexample(m) = &a.result {
                prop_assert!(!m.eval_bool(menu(p).0));
                for asm in &asms {
                    prop_assert!(m.eval_bool(asm.0));
                }
            }
        }
    }
}

#[test]
fn split_conjunction_caches_whole_goal() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let goal = (x & y).ule(x) & (x | y).uge(x);
    // The raw key is unconditional: presolve on or off, the proved
    // conjunction is stored under it, so a rerun is a single cache hit
    // rather than a re-split.
    for engine in [local_engine(2), local_engine_raw(2, true)] {
        let cold = engine.submit_batch(vec![q("conj", vec![], goal)]);
        assert!(matches!(cold[0].result, VerifyResult::Proved));
        assert!(!cold[0].cache_hit);
        let before = engine.cache_stats();
        let warm = engine.submit_batch(vec![q("conj", vec![], goal)]);
        assert!(warm[0].cache_hit, "whole conjunction must hit on rerun");
        assert!(matches!(warm[0].result, VerifyResult::Proved));
        assert_eq!(engine.cache_stats(), (before.0 + 1, before.1), "one probe, one hit");
    }
}

// -----------------------------------------------------------------
// The two kinds of key, each with its one job
// -----------------------------------------------------------------

#[test]
fn an_unsplit_query_is_stored_under_one_key() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let w = BV::fresh(16, "w");
    // Presolve narrows `w` to four bits, so the form that is solved is
    // not the form that was submitted: the whole-goal layer used to
    // store the verdict under both (2 entries at the commit that
    // deleted it).
    let base = || vec![w.ult(BV::lit(16, 16)), x.ult(y)];
    let proved = || q("p", base(), ((x & w) + (x | w)).eq_(x + w));
    let refuted = || q("r", base(), (x + w).uge(x));
    let queries: [&dyn Fn() -> Query; 2] = [&proved, &refuted];
    for query in queries {
        let engine = local_engine(1);
        let cold = engine.submit(query());
        assert!(!cold.cache_hit && cold.stats.is_some(), "solved, not folded");
        assert_eq!(engine.cache().len(), 1, "the raw key is the query's only key");
        let warm = engine.submit(query());
        assert!(warm.cache_hit && warm.result.is_proved() == cold.result.is_proved());
        assert_eq!((warm.cert, engine.cache_stats()), (cold.cert, (1, 1)));
    }
}

#[test]
fn a_split_goal_stores_its_conjuncts_and_its_raw_key() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let w = BV::fresh(16, "w");
    // Presolve narrows `w`: the raw key and the presolved whole goal's
    // are different bytes (`conjuncts + 2` entries when the latter was
    // still stored).
    let base = || vec![w.ult(BV::lit(16, 16)), x.ult(y)];
    let goal = (x & w).ule(x) & (x | y).uge(y) & (x ^ y).ule(x | y);
    let conjuncts = split_goal(goal, 512).len();
    assert_eq!(conjuncts, 3);
    let engine = local_engine(1);
    let cold = engine.submit(q("conj", base(), goal));
    assert!(cold.result.is_proved() && !cold.cache_hit);
    assert_eq!(engine.cache().len(), conjuncts + 1, "one key per conjunct, and the raw key");
    assert_eq!(engine.cache_stats(), (0, 1 + conjuncts as u64));
    // The rerun is one raw-key hit carrying the same chained certificate.
    let warm = engine.submit(q("conj", base(), goal));
    assert!(warm.cache_hit && warm.result.is_proved());
    assert_eq!((warm.cert, engine.cache_stats()), (cold.cert, (1, 1 + conjuncts as u64)));
    assert_eq!(engine.cache().len(), conjuncts + 1);
}

#[test]
fn shared_conjuncts_are_solved_once_across_batches() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let base = vec![x.ult(y)];
    let (c1, c2, c3) = ((x & y).ule(x), (x | y).uge(y), (x ^ y).ule(x | y));
    let engine = local_engine(1);
    let first = engine.submit(q("c1&c2", base.clone(), c1 & c2));
    assert!(first.result.is_proved() && !first.cache_hit);
    assert_eq!(engine.cache_stats(), (0, 3), "the raw key and two conjuncts missed");
    // A different goal under the same base: its raw key misses, `c1` is
    // answered by the first goal's conjunct store, only `c3` is solved.
    let mut keyer = Keyer::new();
    let crate::Prepared { mut slots, live } =
        engine.prepare_batch(vec![q("c1&c3", base.clone(), c1 & c3)], &mut keyer);
    assert!(slots[0].is_none(), "a new goal: no raw-key hit");
    let keyed = engine.key_batch(live, &mut slots, &mut keyer);
    let [p] = &keyed.pending[..] else { panic!("one query pending") };
    assert!(matches!(
        p.subs[..],
        [Sub::Ready { hit: true, .. }, Sub::Wait { conjunct: Some(_), .. }]
    ));
    let goals: Vec<usize> = keyed.groups.iter().map(|g| g.goals.len()).collect();
    assert_eq!(goals, [1], "one goal reaches a session");
    assert_eq!(engine.cache_stats(), (1, 5));
    // The same through the front door: solved stats for one goal, and a
    // partial hit is not reported as a cache hit.
    let second = engine.submit(q("c1&c3", base.clone(), c1 & c3));
    assert!(second.result.is_proved() && !second.cache_hit);
    assert_eq!(second.stats.expect("c3 was solved").session_goals, 1);
    assert_eq!(engine.cache_stats(), (2, 7));
}

// -----------------------------------------------------------------
// Word-level presolve
// -----------------------------------------------------------------

/// Engine with presolve disabled, in either discharge mode.
fn local_engine_raw(jobs: usize, incremental: bool) -> Engine {
    Engine::new(EngineCfg {
        jobs,
        mode: if incremental { DischargeMode::Session } else { DischargeMode::Fresh },
        presolve: false,
        ..EngineCfg::default()
    })
}

#[test]
fn equality_cycles_in_the_base_reach_the_solver_intact() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let one = BV::lit(16, 1);
    // Presolve substitutes no equalities, so `x = y + 1` and
    // `y = x + 1` reach the solver as asserted. The set is
    // contradictory mod 2^16 (subtracting gives 1 = -1), so any goal
    // proves vacuously.
    let asms = vec![x.eq_(y + one), y.eq_(x + one)];
    let out = local_engine(1).submit_batch(vec![q("cycle", asms, x.ult(y))]);
    assert!(matches!(out[0].result, VerifyResult::Proved));

    // A benign cycle: `x = y` and `y = x`. The goal restates one of the
    // assumptions, so it must prove.
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let asms = vec![x.eq_(y), y.eq_(x)];
    let out = local_engine(1).submit_batch(vec![q("benign", asms, x.eq_(y))]);
    assert!(matches!(out[0].result, VerifyResult::Proved));
}

#[test]
fn coi_keeps_uf_linked_assumptions() {
    // The goal needs the assumption through a *function application*,
    // not a shared variable. Every query keeps its whole assumption
    // base, so the link cannot be lost in either discharge mode.
    for engine in [local_engine(1), local_engine_fresh(1)] {
        reset_ctx();
        let f = serval_smt::with_ctx(|c| c.declare_uf("f", vec![8], 8));
        let f0 = BV(serval_smt::build::uf_apply(f, &[BV::lit(8, 0).0]));
        let asms = vec![f0.eq_(BV::lit(8, 5))];
        let goal = f0.ult(BV::lit(8, 6));
        let out = engine.submit_batch(vec![q("uf", asms, goal)]);
        assert!(
            matches!(out[0].result, VerifyResult::Proved),
            "f(0) = 5 must reach f(0) < 6, got {:?}",
            out[0].result
        );
    }
}

#[test]
fn dropped_contradictory_partition_flips_refuted() {
    // `w = w + 1` is unsatisfiable but shares no variables with the
    // goal: the query is vacuously proved although the goal alone, under
    // the assumption it does share variables with, refutes. The solver
    // sees the whole base in both modes, so the verdict is `Proved` and
    // certified like any other — nothing is set aside and side-checked.
    for fresh in [false, true] {
        let engine = || if fresh { local_engine_fresh(1) } else { local_engine(1) };
        reset_ctx();
        let x = BV::fresh(16, "x");
        let w = BV::fresh(16, "w");
        let asms = vec![x.ult(BV::lit(16, 10)), w.eq_(w + BV::lit(16, 1))];
        let goal = x.ult(BV::lit(16, 5));
        let out = engine().submit_batch(vec![q("vacuous", asms.clone(), goal)]);
        assert!(
            matches!(out[0].result, VerifyResult::Proved),
            "[fresh={fresh}] a contradictory base proves any goal, got {:?}",
            out[0].result
        );
        assert!(out[0].cert.is_some(), "[fresh={fresh}] the vacuous proof is certified");
        // Sanity: without the contradiction the same goal really refutes.
        let out = engine().submit_batch(vec![q("refutes", vec![asms[0]], goal)]);
        assert!(matches!(out[0].result, VerifyResult::Counterexample(_)), "[fresh={fresh}]");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Presolve must be invisible in verdicts: for random batches over
    /// random assumption sets, the presolving engine and the raw engine
    /// agree on every outcome in both discharge modes, and every
    /// countermodel from the presolving engine evaluates correctly over
    /// the *original* (unsimplified) terms.
    #[test]
    fn prop_presolve_matches_raw(
        c0 in any::<u8>(),
        c1 in any::<u8>(),
        picks in prop::collection::vec(any::<u8>(), 1..5),
    ) {
        reset_ctx();
        let x = BV::fresh(16, "x");
        let y = BV::fresh(16, "y");
        let z = BV::fresh(16, "z");
        let asms = vec![
            x.ult(BV::lit(16, 1 + c0 as u128)),
            y.eq_(x + BV::lit(16, (c1 % 16) as u128)),
        ];
        // Narrowing rewrites `x` (bounded by the first assumption) to a
        // short variable; the `ite` spines and the `zext` comparison
        // exercise the structural equality splits and the narrowed `ult`.
        let menu = |p: u8| -> SBool {
            match p % 8 {
                0 => (x & y).ule(x),
                1 => x.ult(y),
                2 => y.uge(x),
                3 => x.eq_(z),
                4 => (x ^ y).eq_((x | y) & !(x & y)),
                5 => z.ult(BV::lit(16, 3)),
                6 => x.ult(y).select(x, z).eq_(z.ult(y).select(x, z + BV::lit(16, c1 as u128))),
                _ => x.zext(32).ult(BV::lit(32, c1 as u128)),
            }
        };
        let queries = || -> Vec<Query> {
            picks
                .iter()
                .enumerate()
                .map(|(i, &p)| q(&format!("q{i}"), asms.clone(), menu(p)))
                .collect()
        };
        for incremental in [false, true] {
            let on = if incremental {
                local_engine(2).submit_batch(queries())
            } else {
                local_engine_fresh(2).submit_batch(queries())
            };
            let raw = local_engine_raw(2, incremental).submit_batch(queries());
            for ((a, b), &p) in on.iter().zip(&raw).zip(&picks) {
                prop_assert_eq!(
                    a.result.is_proved(),
                    b.result.is_proved(),
                    "incremental={} goal {}",
                    incremental,
                    p % 8
                );
                if let VerifyResult::Counterexample(m) = &a.result {
                    prop_assert!(!m.eval_bool(menu(p).0));
                    for asm in &asms {
                        prop_assert!(m.eval_bool(asm.0));
                    }
                }
            }
        }
    }
}

// -----------------------------------------------------------------
// Sharding assumption-free session groups
// -----------------------------------------------------------------

#[test]
fn shard_plan_cuts_only_idle_assumption_free_groups() {
    use crate::{shard_plan, MIN_SHARD_GOALS as MIN, SHARDS_PER_JOB as C};
    // An empty base on an otherwise idle pool: min(c·jobs, n / MIN)
    // tasks, contiguous and within one goal of equal size.
    for (goals, jobs) in [(2 * MIN, 2), (113, 2), (113, 4), (10 * MIN + 7, 4), (1000, 3)] {
        let starts = shard_plan(goals, 0, 1, jobs);
        assert_eq!(starts.len(), (C * jobs).min(goals / MIN), "{goals} goals, {jobs} jobs");
        assert_eq!(starts[0], 0);
        let ends = starts[1..].iter().copied().chain([goals]);
        let sizes: Vec<usize> = starts.iter().zip(ends).map(|(s, e)| e - s).collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(*lo >= MIN && hi - lo <= 1, "{goals} goals, {jobs} jobs: {sizes:?}");
    }
    // Everything else plans as one session: a shared base, one worker,
    // a batch that already fills the pool, a group under two minimum
    // chunks — and the empty group.
    assert_eq!(shard_plan(1000, 1, 1, 2), [0]);
    assert_eq!(shard_plan(1000, 0, 1, 1), [0]);
    assert_eq!(shard_plan(1000, 0, 2, 2), [0]);
    assert_eq!(shard_plan(1000, 0, 7, 4), [0]);
    assert_eq!(shard_plan(2 * MIN - 1, 0, 1, 8), [0]);
    assert_eq!(shard_plan(0, 0, 1, 8), [0]);
}

#[test]
fn group_keys_separate_every_solver_config_field_but_the_retired_one() {
    use crate::cfg_key;
    use serval_smt::Rephase;
    let base = SolverConfig::default();
    let flips = [
        SolverConfig { conflict_budget: Some(1), ..base },
        SolverConfig { restart_base: base.restart_base + 1, ..base },
        SolverConfig { var_decay: 0.9500000000000001, ..base },
        SolverConfig { default_phase: !base.default_phase, ..base },
        SolverConfig { restart_geometric: !base.restart_geometric, ..base },
        SolverConfig { rephase: Rephase::Invert, ..base },
        SolverConfig { inprocess: !base.inprocess, ..base },
        SolverConfig { polarity: !base.polarity, ..base },
        SolverConfig { session_bve: !base.session_bve, ..base },
    ];
    assert_eq!(cfg_key(&base), cfg_key(&SolverConfig::default()));
    // The retired `lrat` is ignored, so it never splits a group.
    assert_eq!(cfg_key(&SolverConfig { lrat: !base.lrat, ..base }), cfg_key(&base));
    for (i, a) in flips.iter().enumerate() {
        assert_ne!(cfg_key(a), cfg_key(&base), "flip {i}");
        for b in &flips[i + 1..] {
            assert_ne!(cfg_key(a), cfg_key(b), "flip {i}");
        }
    }
}

/// One assumption-free group, big enough to be cut: goal `i` is the
/// theorem `x & kᵢ ≤ᵤ x` on even `i` and the non-theorem `x + kᵢ ≤ᵤ x`
/// on odd `i`, so chunks mix verdicts and every refutation needs a model
/// renumbered through its own chunk's backmap.
fn shardable_goals(n: usize) -> Vec<SBool> {
    let x = BV::fresh(16, "x");
    (0..n)
        .map(|i| {
            let k = BV::lit(16, 3 + i as u128);
            if i % 2 == 0 {
                (x & k).ule(x)
            } else {
                (x + k).ule(x)
            }
        })
        .collect()
}

fn batch_of(goals: &[SBool], base: &[SBool]) -> Vec<Query> {
    goals.iter().enumerate().map(|(i, &g)| q(&format!("g{i}"), base.to_vec(), g)).collect()
}

#[test]
fn sharded_groups_answer_like_one_session() {
    use crate::MIN_SHARD_GOALS as MIN;
    let n = 4 * MIN + 3;
    let mut baseline: Option<Vec<bool>> = None;
    for jobs in [1, 2, 4] {
        reset_ctx();
        let goals = shardable_goals(n);
        let engine = local_engine(jobs);
        let out = engine.submit_batch(batch_of(&goals, &[]));
        let proved: Vec<bool> = out
            .iter()
            .zip(&goals)
            .map(|(o, g)| match &o.result {
                VerifyResult::Proved => {
                    assert!(o.cert.is_some(), "[jobs={jobs}] {}: no certificate", o.label);
                    true
                }
                VerifyResult::Counterexample(m) => {
                    assert!(!m.eval_bool(g.0), "[jobs={jobs}] {}: not a counterexample", o.label);
                    false
                }
                other => panic!("[jobs={jobs}] {}: {other:?}", o.label),
            })
            .collect();
        assert_eq!(proved, (0..n).map(|i| i % 2 == 0).collect::<Vec<_>>());
        assert_eq!(&proved, baseline.get_or_insert_with(|| proved.clone()));
        // A goal at position 1 opens a session: one per worker, counted
        // as one group either way.
        let sessions =
            out.iter().filter(|o| o.stats.is_some_and(|s| s.session_goals == 1)).count();
        assert_eq!(sessions, jobs.min(n / MIN), "[jobs={jobs}]");
        assert_eq!(engine.mode_counts(), (1, 0), "[jobs={jobs}]");
        assert_eq!(engine.cert_counts().1, 0, "[jobs={jobs}]");
        // The rerun is answered per goal from the cache.
        let (hits, misses) = engine.cache_stats();
        let warm = engine.submit_batch(batch_of(&goals, &[]));
        assert!(warm.iter().all(|o| o.cache_hit), "[jobs={jobs}]");
        assert_eq!(engine.cache_stats(), (hits + n as u64, misses), "[jobs={jobs}]");
    }
}

#[test]
fn groups_with_a_base_stay_one_session() {
    use crate::MIN_SHARD_GOALS as MIN;
    reset_ctx();
    let goals = shardable_goals(4 * MIN);
    let base = BV::fresh(16, "y").ult(BV::lit(16, 9));
    let out = local_engine(4).submit_batch(batch_of(&goals, &[base]));
    let positions: Vec<u64> =
        out.iter().map(|o| o.stats.expect("every goal is solved").session_goals).collect();
    assert_eq!(positions, (1..=4 * MIN as u64).collect::<Vec<_>>());
}

// -----------------------------------------------------------------
// The stages of `submit_batch`, each driven alone on hand-built input
// -----------------------------------------------------------------

fn live(slot: usize, query: Query) -> Live {
    let raw = (vec![b'r', slot as u8], Default::default());
    Live { query, fixup: Fixup { slot, raw, presolve: None } }
}

#[test]
fn prepared_stage_answers_raw_trivial_queries_and_presolves_the_rest() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let engine = local_engine(1);
    let prepared = engine.prepare_batch(vec![
        q("trivial", vec![x.ult(BV::lit(16, 0))], x.eq_(y)),
        q("live", vec![y.ult(BV::lit(16, 16))], (x & y).ule(y)),
    ], &mut Keyer::new());
    let slots: Vec<bool> = prepared.slots.iter().map(Option::is_some).collect();
    assert_eq!(slots, [true, false]);
    assert_eq!(engine.query_counts().1, 1, "only the raw-trivial query counts as trivial");
    assert_eq!(engine.cache_stats(), (0, 1), "the live query spent its one counted lookup");
    let [l] = &prepared.live[..] else { panic!("one query stays live") };
    assert_eq!(l.fixup.slot, 1);
    assert!(!l.fixup.raw.0.is_empty() && l.fixup.presolve.is_some());
    // Presolve narrowed `y` to four bits, which made the bounding
    // assumption `true`, so it was dropped.
    assert!(l.query.assumptions.is_empty());
    let info = l.fixup.presolve.as_ref().expect("presolved");
    let [(v, narrow)] = info.base.bindings[..] else { panic!("one narrowed variable") };
    assert_eq!((v, l.query.goal), (y.0, (x & BV(narrow)).ule(BV(narrow))));
    // With presolve off a query is folded, keyed and probed all the
    // same; only the rewrite is skipped.
    let engine = local_engine_raw(1, true);
    let prepared = engine.prepare_batch(
        vec![
            q("trivial", vec![x.ult(BV::lit(16, 0))], x.eq_(y)),
            q("live", vec![y.ult(BV::lit(16, 16))], (x & y).ule(y)),
        ],
        &mut Keyer::new(),
    );
    assert!(prepared.slots[0].is_some() && prepared.slots[1].is_none());
    assert_eq!((engine.query_counts().1, engine.cache_stats()), (1, (0, 1)));
    let [l] = &prepared.live[..] else { panic!("one query stays live") };
    assert!(!l.fixup.raw.0.is_empty() && l.fixup.presolve.is_none());
    assert_eq!(l.query.assumptions.len(), 1, "as submitted");
}

#[test]
fn folded_queries_touch_neither_the_context_nor_the_cache() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let base: Vec<SBool> = (0..64).map(|i| (x + BV::lit(16, i)).ule(y ^ BV::lit(16, 3 * i))).collect();
    let real = ((x & y) + (x | y)).eq_(x + y);
    let folded = |n: usize| (0..n).map(|i| q(&format!("t{i}"), base.clone(), SBool::lit(true)));
    let engine = local_engine(1);
    let batch: Vec<Query> = folded(32).collect();
    let terms = serval_smt::with_ctx(|c| c.num_terms());
    let out = engine.submit_batch(batch);
    assert_eq!(
        serval_smt::with_ctx(|c| c.num_terms()),
        terms,
        "no `!goal` interned, nothing walked"
    );
    let trivial = crate::folded_outcome(String::new()).cert;
    for o in &out {
        assert!(o.result.is_proved() && !o.cache_hit && o.stats.is_none());
        assert_eq!(o.cert, trivial);
    }
    assert_eq!((engine.query_counts(), engine.cache_stats()), ((32, 32), (0, 0)));
    // Mixed with real queries, cold then warm: the rerun's counted
    // lookups are exactly the queries that did not fold.
    let mixed = || {
        let mut batch: Vec<Query> = folded(8).collect();
        batch.insert(3, q("real", base.clone(), real));
        batch.push(q("refuted", vec![], x.ult(y)));
        batch
    };
    engine.submit_batch(mixed());
    let (cold_counts, cold_stats) = (engine.query_counts(), engine.cache_stats());
    let warm = engine.submit_batch(mixed());
    assert_eq!(warm.iter().filter(|o| o.cache_hit).count(), 2);
    let ((submitted, trivial), (hits, misses)) = (engine.query_counts(), engine.cache_stats());
    assert_eq!(
        (hits - cold_stats.0, misses - cold_stats.1),
        ((submitted - cold_counts.0) - (trivial - cold_counts.1), 0),
        "hits + misses = submitted - trivial on the warm rerun"
    );
}

#[test]
fn a_presolve_fold_is_answered_in_the_keyed_stage_unwalked_and_uncounted() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let engine = local_engine(1);
    // Not a constant as submitted; once presolve narrows `x` to four
    // bits, `x + 3` lies in [3, 18] and the ranges decide the goal.
    let query = || q("p", vec![x.ult(BV::lit(16, 10))], (x + BV::lit(16, 3)).ult(BV::lit(16, 20)));
    let crate::Prepared { mut slots, live } = engine.prepare_batch(vec![query()], &mut Keyer::new());
    assert!(slots[0].is_none() && live[0].query.goal.is_true(), "presolve folded the goal");
    let mut keyer = Keyer::new();
    let keyed = engine.key_batch(live, &mut slots, &mut keyer);
    assert!(keyer.bytes().is_empty(), "answered without a normal-form walk");
    assert!(keyed.pending.is_empty() && keyed.groups.is_empty());
    let o = slots[0].as_ref().expect("answered in the keyed stage");
    assert!(o.result.is_proved() && !o.cache_hit);
    assert_eq!(engine.query_counts().1, 0, "its counted lookup was the raw-key miss");
    // Its raw key is stored at finalization, so the rerun hits.
    engine.finalize(keyed.fixups, &mut slots);
    assert!(engine.submit(query()).cache_hit);
    assert_eq!((engine.query_counts(), engine.cache_stats()), ((1, 0), (1, 1)));
}

#[test]
fn keyed_stage_keeps_submission_order() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let y = BV::fresh(16, "y");
    let (a, b) = (vec![x.ult(y)], vec![y.ult(x)]);
    let budgeted = SolverConfig { conflict_budget: Some(10), ..SolverConfig::default() };
    let (c1, c2) = ((x & y).ule(x), (x | y).uge(y));
    let goals = [(x + y).uge(x), (x - y).ule(x), c1 & c2, x.ule(x ^ y)];
    let engine = local_engine(1);
    let mut slots: Vec<Option<crate::QueryOutcome>> = (0..4).map(|_| None).collect();
    let keyed = engine.key_batch(
        vec![
            live(0, q("a0", a.clone(), goals[0])),
            live(1, q("b0", b.clone(), goals[1])),
            live(2, q("a-conj", a.clone(), goals[2])),
            live(3, Query { cfg: budgeted, ..q("a-budget", a.clone(), goals[3]) }),
        ],
        &mut slots,
        &mut Keyer::new(),
    );
    assert!(slots.iter().all(Option::is_none), "nothing here is trivial or cached");
    // Groups open in order of first use — the budgeted query gets its
    // own — and a group's goals are in submission order, conjuncts
    // left to right.
    let groups: Vec<(&[SBool], &[SBool])> =
        keyed.groups.iter().map(|g| (&g.asms[..], &g.goals[..])).collect();
    assert_eq!(
        groups,
        [(&a[..], &[goals[0], c1, c2][..]), (&b[..], &[goals[1]][..]), (&a[..], &[goals[3]][..])]
    );
    assert_eq!(keyed.groups[2].cfg.conflict_budget, Some(10));
    let waits: Vec<(usize, Vec<(usize, usize)>)> = keyed
        .pending
        .iter()
        .map(|p| {
            let at = |s: &Sub| match s {
                Sub::Wait { group, goal, .. } => (*group, *goal),
                Sub::Ready { .. } => panic!("{}: nothing is resolved", p.label),
            };
            (p.slot, p.subs.iter().map(at).collect())
        })
        .collect();
    assert_eq!(
        waits,
        [(0, vec![(0, 0)]), (1, vec![(1, 0)]), (2, vec![(0, 1), (0, 2)]), (3, vec![(2, 0)])]
    );
    // Only the conjuncts of the split query are keyed.
    let keyed_subs: Vec<Vec<bool>> = keyed
        .pending
        .iter()
        .map(|p| p.subs.iter().map(|s| matches!(s, Sub::Wait { conjunct: Some(_), .. })).collect())
        .collect();
    assert_eq!(keyed_subs, [vec![false], vec![false], vec![true, true], vec![false]]);
    assert_eq!(engine.cache_stats(), (0, 2), "one counted probe per conjunct, no other");
    assert_eq!(keyed.fixups.iter().map(|f| f.slot).collect::<Vec<_>>(), [0, 1, 2, 3]);
}

#[test]
fn planned_stage_makes_one_task_per_session_or_per_goal() {
    use crate::{plan, Group, MIN_SHARD_GOALS as MIN};
    reset_ctx();
    let y = BV::fresh(16, "y");
    let cfg = SolverConfig::default();
    let based = Group { asms: vec![y.ult(BV::lit(16, 9))], goals: shardable_goals(3), cfg };
    let free = || Group { asms: vec![], goals: shardable_goals(2 * MIN), cfg };
    let shape = |p: &crate::Planned| -> Vec<Vec<(usize, usize)>> {
        p.chunks.iter().map(|g| g.iter().map(|c| (c.start, c.task)).collect()).collect()
    };
    // Sessions: one task per group; an assumption-free group alone on an
    // idle pool is cut, tasks numbered group-major.
    let mut keyer = Keyer::new();
    let p = plan(&[based, free()], true, 2, true, &mut keyer);
    assert_eq!((p.tasks.len(), shape(&p)), (2, vec![vec![(0, 0)], vec![(0, 1)]]));
    let p = plan(&[free()], true, 2, true, &mut keyer);
    assert_eq!((p.tasks.len(), shape(&p)), (2, vec![vec![(0, 0), (MIN, 1)]]));
    // Fresh discharge is the degenerate plan: every goal its own chunk.
    let p = plan(&[free(), free()], false, 2, true, &mut keyer);
    let per_goal = |first: usize| (0..2 * MIN).map(|i| (i, first + i)).collect::<Vec<_>>();
    assert_eq!((p.tasks.len(), shape(&p)), (4 * MIN, vec![per_goal(0), per_goal(2 * MIN)]));
}

fn raw(verdict: RawVerdict, cert_hash: u64) -> RawOutcome {
    RawOutcome { verdict, stats: Default::default(), cert_hash, cert_error: None }
}

#[test]
fn recombined_stage_folds_sub_verdicts() {
    use crate::combine_cert_hashes;
    reset_ctx();
    let x = BV::fresh(16, "x");
    let goal = x.ult(BV::lit(16, 9));
    let backmap = keyed(&[], goal).1;
    let x_is = |v: u128| PortableModel { bvs: vec![(0, v)], ..Default::default() };
    // Sub-query `i` waits on goal `i` of the one group, whose one task
    // returned `outs` (or panicked); `ready` sub-queries come first. The
    // conjuncts of a split goal carry a key, an unsplit goal does not.
    let fold = |ready: Vec<CachedVerdict>,
                outs: Result<Vec<RawOutcome>, &str>,
                split: bool|
     -> (crate::QueryOutcome, Engine) {
        let engine = local_engine(1);
        let n = outs.as_ref().map_or(1, Vec::len);
        let mut subs: Vec<Sub> = ready
            .into_iter()
            .map(|verdict| Sub::Ready { verdict, backmap: backmap.clone(), hit: true })
            .collect();
        subs.extend((0..n).map(|goal| Sub::Wait {
            group: 0,
            goal,
            conjunct: split.then(|| (vec![b'k', goal as u8], backmap.clone())),
        }));
        assert_eq!(subs.len() > 1, split, "a goal splits into two or more");
        let p = Pending { slot: 0, label: "p".to_string(), subs };
        let d = Discharged {
            chunks: vec![vec![Chunk { start: 0, task: 0, backmap: backmap.clone() }]],
            raw: vec![outs.map_err(str::to_string)],
        };
        (engine.recombine(p, &d), engine)
    };
    let proved = |h: u64| raw(RawVerdict::Proved, h);
    let model_x = |o: &crate::QueryOutcome| match &o.result {
        VerifyResult::Counterexample(m) => m.eval_bv(x.0),
        other => panic!("expected a counterexample, got {other:?}"),
    };

    // Proved iff all proved; the chained certificate needs every link.
    let (o, e) = fold(vec![], Ok(vec![proved(11), proved(12)]), true);
    assert!(o.result.is_proved() && !o.cache_hit);
    assert_eq!(o.cert, Some(combine_cert_hashes(&[11, 12])));
    assert_eq!((e.cache().len(), e.cert_counts()), (2, (2, 0)), "two conjuncts, nothing else");
    let (o, e) = fold(vec![CachedVerdict::Proved { cert: 0 }], Ok(vec![proved(12)]), true);
    assert!(o.result.is_proved() && o.cert.is_none());
    assert!(matches!(e.cache().get(b"k\0"), Some(CachedVerdict::Proved { cert: 12 })));

    // The first refuted conjunct's model wins, cached or solved.
    let refuted = |v| raw(RawVerdict::Refuted(x_is(v)), 0);
    let (o, e) = fold(vec![CachedVerdict::Refuted(x_is(1))], Ok(vec![refuted(2)]), true);
    assert_eq!(model_x(&o), 1);
    // A solved conjunct's countermodel is stored under the conjunct's
    // key, renumbered through the caller's terms.
    let stored_x = |e: &Engine, key: &[u8]| match e.cache().get(key) {
        Some(CachedVerdict::Refuted(pm)) => pm.bvs.clone(),
        other => panic!("expected a stored countermodel, got {other:?}"),
    };
    assert_eq!((stored_x(&e, b"k\0"), e.cache().len()), (vec![(0, 2)], 1));
    let (o, e) = fold(vec![], Ok(vec![proved(11), refuted(2), refuted(3)]), true);
    assert_eq!(model_x(&o), 2);
    assert_eq!((stored_x(&e, b"k\x01"), stored_x(&e, b"k\x02")), (vec![(0, 2)], vec![(0, 3)]));

    // Unknown beats Interrupted, and carries the rejected certificate's
    // reason; a worker panic is Unknown with the panic message.
    let rejected = RawOutcome {
        cert_error: Some("rejected".to_string()),
        ..raw(RawVerdict::Unknown, 0)
    };
    let interrupted = || raw(RawVerdict::Interrupted, 0);
    let (o, e) = fold(vec![], Ok(vec![interrupted(), rejected, proved(11)]), true);
    assert!(matches!(o.result, VerifyResult::Unknown));
    assert_eq!((o.error.as_deref(), e.cert_counts()), (Some("rejected"), (1, 1)));
    let (o, _) = fold(vec![], Ok(vec![proved(11), interrupted()]), true);
    assert!(matches!(o.result, VerifyResult::Interrupted) && o.error.is_none());
    let (o, e) = fold(vec![], Err("boom"), false);
    assert!(matches!(o.result, VerifyResult::Unknown) && o.stats.is_none());
    assert_eq!((o.error.as_deref(), e.cache().len()), (Some("boom"), 0));

    // One sub-query is the whole goal: its certificate and
    // countermodel pass through, and nothing is stored here — its only
    // key is the raw key, which finalization writes.
    let (o, e) = fold(vec![], Ok(vec![proved(11)]), false);
    assert!(o.result.is_proved() && o.stats.is_some());
    assert_eq!((o.cert, e.cache().len()), (Some(11), 0));
    let (o, e) = fold(vec![], Ok(vec![refuted(4)]), false);
    assert_eq!((model_x(&o), e.cache().len()), (4, 0));
}

#[test]
fn every_probe_is_counted_and_a_presolved_twin_is_solved() {
    reset_ctx();
    let x = BV::fresh(16, "x");
    let z = BV::fresh(16, "z");
    let engine = local_engine(1);
    let goal = (x & z).ule(z);
    let (core, backmap) = keyed(&[], goal);
    let bogus = PortableModel { bvs: vec![(0, 7), (1, 7)], ..Default::default() };
    engine.cache().insert(b"stored".to_vec(), CachedVerdict::Proved { cert: 9 });
    engine.cache().insert(core.bytes().to_vec(), CachedVerdict::Refuted(bogus));
    assert!(engine.probe(b"stored", &backmap, &[], goal).is_some());
    assert!(engine.probe(b"absent", &backmap, &[], goal).is_none());
    assert_eq!(engine.cache_stats(), (1, 1));
    assert!(engine.probe(core.bytes(), &backmap, &[], goal).is_none(), "evicted, not returned");
    assert_eq!((engine.cache_stats(), engine.cache().len()), ((1, 2), 1), "an evicted entry is a miss");

    // End to end: `with` misses under its raw key and presolve narrows
    // its `x` into `bare`'s form up to renaming — but an unsplit query
    // has no key but its raw one, so `with` is solved, not answered
    // from `bare`'s verdict (measured: no query of the benchmark's five
    // workloads was ever answered that way). Every query spent exactly
    // one counted lookup, and the rerun resolves both on their raw
    // keys: hits == submitted − trivial, misses unchanged.
    let engine = local_engine(1);
    let short = BV::fresh(4, "short").zext(16);
    let bare = || q("bare", vec![], ((short & z) + (short | z)).eq_(short + z));
    let with = || q("with", vec![x.ult(BV::lit(16, 16))], ((x & z) + (x | z)).eq_(x + z));
    assert!(!engine.submit(bare()).cache_hit);
    let solved = engine.submit(with());
    assert!(!solved.cache_hit && solved.stats.is_some() && solved.result.is_proved());
    assert_eq!((engine.cache_stats(), engine.cache().len()), ((0, 2), 2));
    let warm = engine.submit_batch(vec![bare(), with()]);
    assert!(warm.iter().all(|o| o.cache_hit && o.result.is_proved()));
    assert_eq!((engine.cache_stats(), engine.query_counts()), ((2, 2), (4, 0)));
}

#[test]
fn finalize_records_raw_keys_and_completes_countermodels() {
    reset_ctx();
    let y = BV::fresh(16, "y");
    let engine = local_engine(1);
    // Presolve narrows `y` to a fresh four-bit variable, so a model of
    // the simplified query says nothing about `y` itself.
    let query = || q("r", vec![y.ult(BV::lit(16, 16))], y.ult(BV::lit(16, 3)));
    let crate::Prepared { mut slots, live } = engine.prepare_batch(vec![query()], &mut Keyer::new());
    let fixups: Vec<Fixup> = live.into_iter().map(|l| l.fixup).collect();
    let info = fixups[0].presolve.as_ref().expect("presolved");
    let [(_, narrow)] = info.base.bindings[..] else { panic!("one narrowed variable") };
    let short = serval_smt::with_ctx(|c| c.term(narrow).children[0]);
    let mut model = serval_smt::model::Model::default();
    model.set_bv(short, 9);
    slots[0] = Some(crate::outcome(
        "r".to_string(),
        VerifyResult::Counterexample(Box::new(model)),
        0,
        false,
    ));
    engine.finalize(fixups, &mut slots);
    let VerifyResult::Counterexample(m) = &slots[0].as_ref().unwrap().result else {
        panic!("finalization keeps the verdict")
    };
    assert_eq!(m.eval_bv(y.0), 9, "y is re-derived from its binding");
    // The completed model is what the raw key now answers with.
    let warm = engine.submit(query());
    assert!(warm.cache_hit && matches!(warm.result, VerifyResult::Counterexample(_)));
}

#[test]
fn session_fingerprints_match_the_pinned_values() {
    // Certificate fingerprints chain over the proof deltas of the
    // session a goal sat in, so they move if groups open in another
    // order, goals reach a session in another order, or a chunk is cut
    // elsewhere. Values taken at the commit before `submit_batch` was
    // staged; entries 2 and 3 re-taken when presolve stopped deriving
    // variable ranges from the base, so `y ≥ 4 ⊢ y ≥ 3` (a conjunct of
    // "p-conj") and "p-alone" reach the solver instead of folding.
    // Entry 2 re-taken when `purge_vars` stopped reintroducing the
    // eliminated variables whose stored clauses mention a purged one:
    // those reintroductions' `Input` steps, and the `Delete` steps of
    // the re-added clauses that mention purged variables, left the
    // proof deltas. Every verdict is unchanged.
    // Entries 0, 2 and 3 re-taken when the solver stopped expanding
    // elided elimination resolvents into hints and dropped backward
    // subsumption: the hint lists of steps that consult an elided
    // resolvent, and the subsumption and strengthening steps, left the
    // proof deltas. Every verdict is unchanged.
    // All re-taken when every derivation became hinted: the elided
    // resolvents a hint names are logged on first use, level-0 facts
    // get unit steps of their own, and the assumption-core and empty
    // clauses carry hints. Every verdict is unchanged.
    use crate::{combine_cert_hashes, MIN_SHARD_GOALS as MIN};
    let fingerprints = |jobs: usize, sweep: usize, monitor: bool| -> Vec<u64> {
        reset_ctx();
        let x = BV::fresh(16, "x");
        let y = BV::fresh(16, "y");
        let asms = vec![x.ult(BV::lit(16, 1000)), y.uge(BV::lit(16, 4))];
        let mut batch = Vec::new();
        if monitor {
            batch = vec![
                q("p-unit", asms.clone(), ((x & y) + (x | y)).eq_(x + y)),
                q("r-unit", asms.clone(), x.ult(y)),
                q(
                    "p-conj",
                    asms.clone(),
                    (x & y).ule(x) & (x ^ y).eq_((x | y) & !(x & y)) & y.uge(BV::lit(16, 3)),
                ),
                q("p-alone", vec![y.ult(BV::lit(16, 9))], (y & x).ule(BV::lit(16, 8))),
                q("p-trivial", vec![x.ult(BV::lit(16, 0))], x.eq_(y)),
            ];
        }
        batch.extend(batch_of(&shardable_goals(sweep), &[]));
        let out = local_engine(jobs).submit_batch(batch);
        out.iter().map(|o| o.cert.unwrap_or(0)).collect()
    };
    let mixed = fingerprints(1, 4, true);
    assert_eq!(mixed, PINNED_MIXED, "{mixed:#x?}");
    for (jobs, pinned) in [(1, PINNED_SWEEP_1), (2, PINNED_SWEEP_2)] {
        let digest = combine_cert_hashes(&fingerprints(jobs, 2 * MIN, false));
        assert_eq!(digest, pinned, "[jobs={jobs}] {digest:#x}");
    }
}

const PINNED_MIXED: [u64; 9] = [
    0x4146fceb7883fb4f,
    0,
    0x994b48e12e64a0cb,
    0x0b8356ed1a55d67a,
    0x7b674ea5e2d79be9,
    0xd0f802793066e2c7,
    0,
    0x20290bab4c3e1741,
    0,
];
const PINNED_SWEEP_1: u64 = 0xf3f8f20b241582df;
const PINNED_SWEEP_2: u64 = 0x6f567fe9611ca364;

// -----------------------------------------------------------------
// The certificate stream: the checking half driven alone
// -----------------------------------------------------------------

/// A session core with a base, so it stays one session whatever the
/// worker count: goal `i` proves on even `i` and refutes on odd `i`.
fn certified_core() -> Core {
    reset_ctx();
    let base = BV::fresh(16, "y").ult(BV::lit(16, 9));
    Keyer::new().chunk(&[base], &shardable_goals(8)).0
}

/// Runs `f` on a scratch thread, as a pool worker would: opening a
/// session resets the thread's term context.
fn on_worker<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("the worker does not panic"))
}

#[test]
fn the_trailing_checker_matches_an_in_thread_check_and_poisons_what_follows() {
    use crate::solve::{check_deltas, open_session, solve_goals, solve_session};
    use serval_sat::{Lit, ProofLog, StepKind, Var};
    use serval_smt::SessionProof;
    let core = certified_core();
    let cfg = SolverConfig::default();
    let deltas = on_worker(|| {
        let (rq, mut session) = open_session(&core, cfg, None, true);
        let mut deltas = Vec::new();
        solve_goals(&mut session, &rq, |d| deltas.push(d));
        deltas
    });
    let unsat: Vec<bool> = deltas.iter().map(|d| d.1).collect();
    assert_eq!(unsat, (0..8).map(|i| i % 2 == 0).collect::<Vec<_>>());
    let copy = || -> Vec<(SessionProof, bool)> {
        let clone = |p: &SessionProof| SessionProof { steps: p.steps.clone(), act: p.act };
        deltas.iter().map(|(p, u)| (clone(p), *u)).collect()
    };

    // In-thread and trailing, the same fingerprints and no error.
    let clean = check_deltas(copy());
    let streamed = on_worker(|| solve_session(&core, cfg, None, true));
    assert_eq!(clean.len(), streamed.len());
    for (i, (c, o)) in clean.iter().zip(&streamed).enumerate() {
        assert_eq!((c.hash, &c.error), (o.cert_hash, &o.cert_error), "goal {i}");
        assert_eq!((c.hash != 0, c.error.is_none()), (unsat[i], true), "goal {i}");
        assert_eq!(matches!(o.verdict, RawVerdict::Proved), unsat[i], "goal {i}");
    }

    // Corrupt delta k: drop its conclusion (what `cert-corrupt-delta`
    // does), or open it with the deletion of a clause never added.
    let k = 2;
    let corruptions: [(&str, fn(&mut ProofLog)); 2] = [
        ("concluded no clause over !act", crate::solve::drop_conclusion),
        ("deleted clause is not in the database", |p| {
            let mut q = ProofLog::new();
            q.push(StepKind::Delete, &[Lit::pos(Var(1 << 20))], &[]);
            q.extend(p);
            *p = q;
        }),
    ];
    for (reason, corrupt) in corruptions {
        let mut bad = copy();
        corrupt(&mut bad[k].0.steps);
        let certs = check_deltas(bad);
        let error = certs[k].error.clone().expect("the corrupted goal is rejected");
        assert!(error.contains(reason), "{error}");
        for (i, c) in certs.iter().enumerate() {
            let expect = match i {
                _ if i < k => (clean[i].hash, clean[i].error.clone()),
                _ if unsat[i] => (0, Some(error.clone())),
                _ => (0, None),
            };
            assert_eq!((c.hash, c.error.clone()), expect, "[{reason}] goal {i}");
        }
    }
}

#[test]
fn a_cancelled_certified_session_neither_hangs_nor_drops_a_goal() {
    use crate::solve::solve_session;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    let core = certified_core();
    let n = core.goals();
    // Not scoped: if the session hung, the test must fail, not wait.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let cancel = Arc::new(AtomicBool::new(true));
        let _ = tx.send(solve_session(&core, SolverConfig::default(), Some(cancel), true));
    });
    // Returning at all means the scope joined the checker thread.
    let out = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a cancelled certified session returns");
    assert_eq!(out.len(), n, "one outcome per goal");
    for (i, o) in out.iter().enumerate() {
        assert!(matches!(o.verdict, RawVerdict::Interrupted), "goal {i}: {:?}", o.verdict);
        assert_eq!((o.cert_hash, &o.cert_error), (0, &None), "goal {i}");
    }
}
