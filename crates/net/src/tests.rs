//! Wire-protocol robustness properties and TCP loopback integration
//! tests.
//!
//! The property half attacks the codec the way a hostile or broken peer
//! would: truncated frames, oversize length prefixes, garbage bytes, and
//! single-bit corruption must all come back as `Err`, never as a panic,
//! a wedge, or an unbounded allocation. The loopback half runs a real
//! `Server` on an ephemeral port and checks the end-to-end contracts:
//! verdict parity with known ground truth, exact submission-order
//! reassembly across shards, repeats answered at admission, and that one
//! misbehaving connection never takes the server down for others.

use crate::client::Client;
use crate::service::NetCfg;
use crate::wire::{
    self, decode_msg, encode_msg, FrameReader, Msg, ServerStats, ShardStatsRow, WireError,
    WireOutcome, WireQuery, SHARD_HOT,
};
use crate::Server;
use serval_check::prelude::*;
use serval_engine::form::{BackMap, Core, Keyer};
use serval_engine::solve::RawVerdict;
use serval_engine::Query;
use serval_smt::solver::{QueryStats, SolverConfig, VerifyResult};
use serval_smt::{reset_ctx, SBool, BV};

// ----------------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------------

/// Deterministically builds one of each message shape from fuzz picks.
fn sample_msg(picks: &[u8]) -> Msg {
    let byte = |i: usize| picks.get(i).copied().unwrap_or(0);
    let word = |i: usize| u64::from_le_bytes([byte(i), byte(i + 1), byte(i + 2), 0, 0, 0, 0, 0]);
    match byte(0) % 7 {
        0 => Msg::Hello { version: wire::PROTO_VERSION },
        1 => Msg::HelloAck {
            version: wire::PROTO_VERSION,
            shards: u32::from(byte(1)) + 1,
            shard_jobs: u32::from(byte(2)) + 1,
            max_inflight: u32::from(byte(3)) + 1,
        },
        2 => Msg::Batch { id: word(1), queries: sample_queries(&picks[1..]) },
        3 => Msg::Ping { token: word(1) },
        4 => Msg::StatsReq,
        5 => sample_reply(&picks[1..]),
        _ => Msg::Error { msg: format!("synthetic error {}", word(1)) },
    }
}

/// A `BatchReply` whose outcomes carry solver stats, every field the
/// wire holds drawn from `picks`: the layout of `QueryStats` and
/// `ServerStats` on the wire.
fn sample_reply(picks: &[u8]) -> Msg {
    let word = |i: usize| u64::from(picks.get(i % picks.len().max(1)).copied().unwrap_or(0)) << (i % 7);
    let outcome = |k: usize| WireOutcome {
        verdict: RawVerdict::Proved,
        cert: word(k),
        cache_hit: k.is_multiple_of(2),
        shard: k as u32,
        wall_micros: word(k + 1),
        stats: (k > 0).then(|| sample_stats(&word)),
        error: None,
    };
    let row = |k: usize| ShardStatsRow {
        shard: k as u32,
        queued: word(k),
        solved: word(k + 1),
        hits: word(k + 2),
        cert_checked: word(k + 3),
        mode_session: word(k + 4),
        mode_fresh: word(k + 5),
    };
    Msg::BatchReply {
        id: word(0),
        results: (0..3).map(outcome).collect(),
        stats: ServerStats {
            shards: (0..2).map(row).collect(),
            hot_hits: word(6),
            frames: word(7),
            protocol_errors: word(8),
        },
    }
}

/// Solver stats with every field the wire carries drawn from `word`, and
/// the two it does not (`subsumed`, `strengthened`) left 0.
fn sample_stats(word: &dyn Fn(usize) -> u64) -> QueryStats {
    QueryStats {
        conflicts: word(10),
        decisions: word(11),
        propagations: word(12),
        restarts: word(13),
        learnts: word(14),
        clauses: word(15) as usize,
        vars: word(16) as usize,
        reused_clauses: word(17) as usize,
        reused_vars: word(18) as usize,
        reused_learnts: word(19),
        session_goals: word(20),
        presolve_terms_in: word(21) as usize,
        presolve_terms_out: word(22) as usize,
        presolve_vars_in: word(23) as usize,
        presolve_vars_out: word(24) as usize,
        eliminated_vars: word(25),
        resolvents: word(26),
        cert_steps: word(27),
        cert_wall: std::time::Duration::from_micros(word(28)),
        wall: std::time::Duration::from_micros(word(29)),
        ..QueryStats::default()
    }
}

/// A query's wire bytes, exactly what a genuine client sends.
fn frame(assumptions: &[SBool], goal: SBool) -> Vec<u8> {
    Keyer::new().wire(assumptions, goal).to_vec()
}

/// The back map a client keeps for a query it sends.
fn backmap(assumptions: &[SBool], goal: SBool) -> BackMap {
    let mut keyer = Keyer::new();
    keyer.wire(assumptions, goal);
    keyer.backmap().clone()
}

/// Real wire queries, exactly what a genuine client would send.
fn sample_queries(picks: &[u8]) -> Vec<WireQuery> {
    reset_ctx();
    let n = (picks.first().copied().unwrap_or(0) % 3) as usize + 1;
    (0..n)
        .map(|i| {
            let (assumptions, goal) =
                sample_obligation(&picks[i.min(picks.len().saturating_sub(1))..]);
            WireQuery {
                label: format!("fuzz/{i}"),
                cfg: SolverConfig::default(),
                core_bytes: frame(&assumptions, goal),
            }
        })
        .collect()
}

/// A small random obligation over two 32-bit variables. Shapes cover
/// all the wire-interesting node kinds: vars, constants, the boolean
/// connectives, comparisons, extracts, and extensions.
fn sample_obligation(picks: &[u8]) -> (Vec<SBool>, SBool) {
    let byte = |i: usize| picks.get(i).copied().unwrap_or(0);
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let k = BV::lit(32, u128::from(byte(1)));
    let mut acc = x;
    for step in 0..(byte(0) % 4) {
        acc = match byte(usize::from(step) + 2) % 6 {
            0 => acc + y,
            1 => acc & k,
            2 => acc | y,
            3 => acc ^ k,
            4 => acc.extract(15, 0).zext(32),
            _ => acc.extract(7, 0).sext(32),
        };
    }
    let goal = match byte(6) % 3 {
        0 => (acc & k).ule(acc),
        1 => acc.ult(k),
        _ => acc.eq_(y).implies(y.eq_(acc)),
    };
    let assumptions = if byte(7) % 2 == 0 { vec![x.ule(y)] } else { vec![] };
    (assumptions, goal)
}

/// A test server config: single-worker shards, no disk cache, so tests
/// stay fast and hermetic.
fn test_cfg(shards: usize) -> NetCfg {
    let mut cfg = NetCfg::default();
    cfg.shards = shards;
    cfg.engine.jobs = 1;
    cfg.engine.disk_cache = None;
    cfg
}

fn query(label: &str, assumptions: Vec<SBool>, goal: SBool) -> Query {
    Query { label: label.to_string(), assumptions, goal, cfg: SolverConfig::default() }
}

// ----------------------------------------------------------------------------
// Codec properties
// ----------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every message survives encode → decode → encode byte-identically.
    #[test]
    fn prop_msg_reencode_fixpoint(picks in prop::collection::vec(any::<u8>(), 1..24)) {
        let payload = encode_msg(&sample_msg(&picks));
        let decoded = decode_msg(&payload).expect("own encoding must decode");
        prop_assert_eq!(encode_msg(&decoded), payload);
    }

    /// Any strict prefix of a valid payload is rejected — truncation can
    /// never produce a different valid message, and never panics.
    #[test]
    fn prop_truncated_payload_rejected(
        picks in prop::collection::vec(any::<u8>(), 1..24),
        cut in any::<u16>(),
    ) {
        let payload = encode_msg(&sample_msg(&picks));
        let cut = usize::from(cut) % payload.len();
        prop_assert!(decode_msg(&payload[..cut]).is_err());
    }

    /// Solver stats survive the wire field for field: 20 words, every
    /// `QueryStats` field but the two always-zero ones, which are not on
    /// the wire and decode as 0.
    #[test]
    fn prop_stats_roundtrip(picks in prop::collection::vec(any::<u8>(), 1..24)) {
        let Msg::BatchReply { results, .. } = sample_reply(&picks) else { unreachable!() };
        let sent = results[1].stats.expect("the sample carries stats");
        let bare = |stats: Option<QueryStats>| encode_msg(&Msg::BatchReply {
            id: 0,
            results: vec![WireOutcome { stats, ..WireOutcome::unknown(0, String::new()) }],
            stats: ServerStats::default(),
        });
        prop_assert_eq!(bare(Some(sent)).len() - bare(None).len(), 20 * 8);
        let forged = QueryStats { subsumed: 7, strengthened: 9, ..sent };
        prop_assert_eq!(bare(Some(forged)), bare(Some(sent)));
        let Ok(Msg::BatchReply { results, .. }) = decode_msg(&bare(Some(forged))) else {
            panic!("own encoding must decode")
        };
        let got = results[0].stats.expect("stats decode");
        prop_assert_eq!(format!("{got:?}"), format!("{sent:?}"));
    }

    /// Arbitrary garbage decodes to `Err`, never a panic — through both
    /// the message codec and the term-core deserializer.
    #[test]
    fn prop_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let _ = decode_msg(&bytes);
        let _ = Core::decode(bytes);
    }

    /// A single flipped bit in a valid payload either still decodes (it
    /// hit a value field) or errors — and whatever decodes re-encodes
    /// without panicking.
    #[test]
    fn prop_bit_flip_never_panics(
        picks in prop::collection::vec(any::<u8>(), 1..24),
        at in any::<u16>(),
        bit in any::<u8>(),
    ) {
        let mut payload = encode_msg(&sample_msg(&picks));
        let at = usize::from(at) % payload.len();
        payload[at] ^= 1 << (bit % 8);
        if let Ok(m) = decode_msg(&payload) {
            let _ = encode_msg(&m);
        }
    }

    /// Frames split at arbitrary byte boundaries reassemble exactly, in
    /// order, through `FrameReader`.
    #[test]
    fn prop_frame_reader_reassembles(
        picks in prop::collection::vec(any::<u8>(), 1..24),
        chunks in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let payloads: Vec<Vec<u8>> = (0..3)
            .map(|i| encode_msg(&sample_msg(&picks[i.min(picks.len() - 1)..])))
            .collect();
        let mut stream = Vec::new();
        for p in &payloads {
            wire::write_frame(&mut stream, p).unwrap();
        }
        let mut reader = FrameReader::new(wire::DEFAULT_MAX_FRAME);
        let mut out = Vec::new();
        let mut at = 0;
        let mut pick = 0;
        while at < stream.len() {
            let step = usize::from(chunks[pick % chunks.len()]) % 7 + 1;
            pick += 1;
            let end = (at + step).min(stream.len());
            reader.push(&stream[at..end]);
            at = end;
            while let Some(frame) = reader.next_frame().unwrap() {
                out.push(frame);
            }
        }
        prop_assert_eq!(out, payloads);
    }

    /// A core of k goals over shared assumptions — what a session chunk
    /// ships to a worker — is a fixpoint: decoding its bytes,
    /// materializing them into a fresh term context and keying the
    /// result again reproduces them byte for byte. With one goal, they
    /// are the query's key.
    #[test]
    fn prop_core_roundtrip_fixpoint(
        picks in prop::collection::vec(any::<u8>(), 1..16),
        k in 1usize..=4,
    ) {
        reset_ctx();
        let (assumptions, first) = sample_obligation(&picks);
        let mut goals = vec![first];
        for i in 1..k {
            let shifted: Vec<u8> = picks.iter().map(|&p| p.wrapping_add(i as u8 * 37)).collect();
            goals.push(sample_obligation(&shifted).1);
        }
        let (core, _) = Keyer::new().chunk(&assumptions, &goals);
        prop_assert_eq!(core.goals(), k);
        if k == 1 {
            prop_assert_eq!(core.bytes(), &frame(&assumptions, first)[..]);
        }
        let decoded = Core::decode(core.bytes().to_vec()).expect("own core bytes must decode");
        prop_assert_eq!(&decoded, &core);

        reset_ctx();
        let m = decoded.materialize(false);
        prop_assert_eq!(m.goals.len(), k);
        let (again, _) = Keyer::new().chunk(&m.assumptions, &m.goals);
        prop_assert_eq!(again.bytes(), core.bytes());
    }

    /// Truncated core bytes are always rejected.
    #[test]
    fn prop_core_truncation_rejected(
        picks in prop::collection::vec(any::<u8>(), 1..16),
        cut in any::<u16>(),
    ) {
        reset_ctx();
        let (assumptions, goal) = sample_obligation(&picks);
        let bytes = frame(&assumptions, goal);
        let cut = usize::from(cut) % bytes.len();
        prop_assert!(Core::decode(bytes[..cut].to_vec()).is_err());
    }

    /// A flipped bit in core bytes either errors or yields a core that
    /// still validates — in which case materializing it must not panic.
    #[test]
    fn prop_core_bit_flip_never_panics(
        picks in prop::collection::vec(any::<u8>(), 1..16),
        at in any::<u16>(),
        bit in any::<u8>(),
    ) {
        reset_ctx();
        let (assumptions, goal) = sample_obligation(&picks);
        let mut bytes = frame(&assumptions, goal);
        let at = usize::from(at) % bytes.len();
        bytes[at] ^= 1 << (bit % 8);
        if let Ok(core) = Core::decode(bytes) {
            reset_ctx();
            let _ = core.materialize(true);
        }
    }

    /// One canonical variable is one node: re-pointing a variable node of
    /// a valid frame at another declared variable of the same sort —
    /// two nodes of one variable, and none of the other — is rejected.
    #[test]
    fn prop_core_var_repointing_rejected(
        picks in prop::collection::vec(any::<u8>(), 1..16),
        pick in any::<u8>(),
        to in any::<u8>(),
    ) {
        reset_ctx();
        let (assumptions, goal) = sample_obligation(&picks);
        let mut bytes = frame(&assumptions, goal);
        let vars = var_nodes(&bytes);
        let k = usize::from(pick) % vars.len().max(1);
        let others: Vec<usize> =
            (0..vars.len()).filter(|&o| o != k && vars[o].1 == vars[k].1).collect();
        if let Some(&other) = others.get(usize::from(to) % others.len().max(1)) {
            let at = vars[k].0;
            bytes[at..at + 4].copy_from_slice(&(other as u32).to_le_bytes());
            prop_assert!(Core::decode(bytes).is_err());
        }
    }
}

/// A frame's variable nodes in node order (so variable k is the k-th),
/// each as (offset of its index payload, its sort bytes): a walk of the
/// `SW1` layout written from its description, apart from the decoder
/// under test.
fn var_nodes(b: &[u8]) -> Vec<(usize, Vec<u8>)> {
    let word = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap()) as usize;
    let sort_len = |at: usize| if b[at] == 0 { 1 } else { 5 };
    let mut at = 4;
    let vars = word(at);
    at += 4;
    for _ in 0..vars {
        at += sort_len(at);
    }
    let ufs = word(at);
    at += 4;
    for _ in 0..ufs {
        at += 4 + 4 * word(at) + 4;
    }
    let nodes = word(at);
    at += 4;
    let mut out = Vec::new();
    for _ in 0..nodes {
        let tag = b[at];
        at += 1;
        let payload = match tag {
            0 => 1,
            1 => 16,
            2 | 32 => 4,
            28 => 8,
            _ => 0,
        };
        let sort_at = at + payload;
        let end = sort_at + sort_len(sort_at);
        if tag == 2 {
            out.push((at, b[sort_at..end].to_vec()));
        }
        at = end + 4 + 4 * word(end);
    }
    out
}

/// The frame `Var0 == Var0` over one 8-bit variable: two nodes of one
/// variable, so no term a client could have built. A shard that
/// interned it would make two distinct variables and answer `Refuted`
/// with a model that does not refute the frame; admission rejects it.
#[test]
fn a_variable_with_two_nodes_is_a_malformed_core() {
    let mut f = b"SW1\0".to_vec();
    f.extend_from_slice(&1u32.to_le_bytes()); // one var: bv8
    f.extend_from_slice(&[1, 8, 0, 0, 0]);
    f.extend_from_slice(&0u32.to_le_bytes()); // no UFs
    f.extend_from_slice(&3u32.to_le_bytes()); // three nodes
    for _ in 0..2 {
        f.extend_from_slice(&[2, 0, 0, 0, 0, 1, 8, 0, 0, 0, 0, 0, 0, 0]); // Var 0: bv8
    }
    f.extend_from_slice(&[9, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]); // Eq(0, 1): Bool
    f.extend_from_slice(&0u32.to_le_bytes()); // no assumptions
    f.extend_from_slice(&2u32.to_le_bytes()); // the goal
    let server = Server::bind("127.0.0.1:0", test_cfg(1)).unwrap();
    let out = server.core().discharge(vec![WireQuery {
        label: "twice".to_string(),
        cfg: SolverConfig::default(),
        core_bytes: f,
    }]);
    assert!(matches!(out[0].verdict, RawVerdict::Unknown), "{:?}", out[0].verdict);
    let why = out[0].error.as_deref().expect("the reason is reported");
    assert!(why.starts_with("malformed core"), "{why}");
    assert_eq!(server.core().stats().shards[0].queued, 0, "nothing reached a shard");
    server.shutdown();
}

/// A frame that declares a variable no node uses is rejected, and so is
/// a frame with more than one goal root at admission: a query is one
/// goal.
#[test]
fn unused_declarations_and_extra_goals_are_rejected() {
    let mut f = b"SW1\0".to_vec();
    f.extend_from_slice(&2u32.to_le_bytes()); // two Bool vars
    f.extend_from_slice(&[0, 0]);
    f.extend_from_slice(&0u32.to_le_bytes()); // no UFs
    f.extend_from_slice(&1u32.to_le_bytes()); // one node: Var 0
    f.extend_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
    f.extend_from_slice(&0u32.to_le_bytes()); // no assumptions
    f.extend_from_slice(&0u32.to_le_bytes()); // the goal
    assert_eq!(Core::decode(f), Err("declared variable has no node"));

    reset_ctx();
    let x = BV::fresh(32, "x");
    let goals = [x.ult(BV::lit(32, 9)), x.ule(BV::lit(32, 4))];
    let (two, _) = Keyer::new().chunk(&[], &goals);
    assert_eq!(Core::decode(two.bytes().to_vec()).map(|c| c.goals()), Ok(2));
    let server = Server::bind("127.0.0.1:0", test_cfg(1)).unwrap();
    let out = server.core().discharge(vec![WireQuery {
        label: "two".to_string(),
        cfg: SolverConfig::default(),
        core_bytes: two.bytes().to_vec(),
    }]);
    let why = out[0].error.as_deref().expect("the reason is reported");
    assert!(why.starts_with("malformed core") && why.contains("one goal root"), "{why}");
    server.shutdown();
}

/// A query's `var_decay` is decoded only inside the solver's own range
/// `(0, 1]`: anything else is garbage at the frame, never a panic on a
/// pool worker.
#[test]
fn var_decay_outside_the_solver_range_is_garbage() {
    let batch = |var_decay: f64| {
        let mut queries = sample_queries(&[0]);
        queries[0].cfg = SolverConfig { var_decay, ..SolverConfig::default() };
        decode_msg(&encode_msg(&Msg::Batch { id: 1, queries }))
    };
    for bad in [0.0, -0.0, f64::NAN, 1.0 + f64::EPSILON] {
        assert_eq!(batch(bad).unwrap_err(), WireError::Garbage("var_decay out of range"), "{bad}");
    }
    assert!(batch(1.0).is_ok());
}

// ----------------------------------------------------------------------------
// Framing edge cases
// ----------------------------------------------------------------------------

/// An oversize length prefix is rejected before any allocation, both in
/// the blocking reader and the incremental one.
#[test]
fn oversize_prefix_rejected_without_allocation() {
    let mut frame = (u32::MAX).to_le_bytes().to_vec();
    frame.extend_from_slice(b"xx");
    let err = wire::read_frame(&mut frame.as_slice(), 1 << 20).unwrap_err();
    assert_eq!(err, WireError::Oversize { len: u64::from(u32::MAX), max: 1 << 20 });

    let mut reader = FrameReader::new(1 << 20);
    reader.push(&frame);
    assert!(reader.next_frame().is_err());
}

/// EOF cleanly between frames is `Ok(None)`; EOF inside a frame is
/// `Truncated`.
#[test]
fn eof_position_distinguishes_clean_close_from_truncation() {
    assert_eq!(wire::read_frame(&mut [].as_slice(), 1 << 20).unwrap(), None);

    let mut stream = Vec::new();
    wire::write_frame(&mut stream, b"hello").unwrap();
    stream.truncate(stream.len() - 2);
    assert_eq!(
        wire::read_frame(&mut stream.as_slice(), 1 << 20).unwrap_err(),
        WireError::Truncated
    );
}

// ----------------------------------------------------------------------------
// Reply translation
// ----------------------------------------------------------------------------

/// A `Refuted` reply whose countermodel does not fit the query's own
/// variables — the frame decoder checks framing, not indices — degrades
/// to `Unknown` with the reason: a broken or hostile server can neither
/// panic the client nor hand it a "counterexample".
#[test]
fn malformed_countermodel_degrades_to_unknown() {
    use crate::client::outcome_of_wire;
    use crate::wire::WireOutcome;
    use serval_engine::solve::PortableModel;

    reset_ctx();
    let x = BV::fresh(32, "x");
    let b = SBool::fresh("b");
    let f = serval_smt::with_ctx(|c| c.declare_uf("f", vec![32], 32));
    let fx = BV(serval_smt::build::uf_apply(f, &[x.0]));
    let goal = b | fx.ult(x);
    let backmap = backmap(&[], goal);
    let bv_var = backmap.vars.iter().position(|v| v.term == x.0).unwrap() as u32;
    let bool_var = backmap.vars.iter().position(|v| v.term == b.0).unwrap() as u32;
    let reply = |pm: PortableModel| {
        let out = WireOutcome {
            verdict: RawVerdict::Refuted(pm),
            cert: 0,
            cache_hit: false,
            shard: 0,
            wall_micros: 0,
            stats: None,
            error: None,
        };
        outcome_of_wire(query("q", vec![], goal), out, &backmap)
    };
    let malformed = [
        PortableModel { bvs: vec![(u32::MAX, 0)], ..Default::default() },
        PortableModel { bools: vec![(backmap.vars.len() as u32, true)], ..Default::default() },
        PortableModel { ufs: vec![(backmap.ufs.len() as u32, vec![])], ..Default::default() },
        PortableModel { bools: vec![(bv_var, true)], ..Default::default() },
        PortableModel { bvs: vec![(bool_var, 1)], ..Default::default() },
    ];
    for pm in malformed {
        let what = format!("{pm:?}");
        let o = reply(pm);
        assert!(matches!(o.result, VerifyResult::Unknown), "{what}: {:?}", o.result);
        let error = o.error.expect("the reason is reported");
        assert!(error.starts_with("net: malformed countermodel"), "{what}: {error}");
    }
    // A model that does fit is still a counterexample on the caller's terms.
    let o = reply(PortableModel {
        bvs: vec![(bv_var, 7)],
        bools: vec![(bool_var, false)],
        ufs: vec![(0, vec![(vec![7], 9)])],
    });
    let VerifyResult::Counterexample(m) = &o.result else { panic!("{:?}", o.result) };
    assert!(!m.eval_bool(goal.0) && o.error.is_none());
}

/// A `Refuted` reply whose countermodel fits the query's variables but
/// does not refute it is a claim that failed its check: the in-process
/// engine re-evaluates a stored countermodel before returning it, and
/// so does the client — a buggy or hostile server cannot hand the caller
/// a "counterexample" that satisfies the goal.
#[test]
fn forged_countermodel_degrades_to_unknown() {
    use crate::client::outcome_of_wire;
    use crate::wire::WireOutcome;
    use serval_engine::solve::PortableModel;

    reset_ctx();
    let x = BV::fresh(32, "x");
    let base = vec![x.ult(BV::lit(32, 100))];
    let goal = x.ult(BV::lit(32, 10));
    let backmap = backmap(&base, goal);
    let x_is = |v: u128| {
        let pm = PortableModel { bvs: vec![(0, v)], ..Default::default() };
        let out = WireOutcome {
            verdict: RawVerdict::Refuted(pm),
            error: None,
            ..WireOutcome::unknown(0, String::new())
        };
        outcome_of_wire(query("q", base.clone(), goal), out, &backmap)
    };
    // In range and well sorted, but x = 3 satisfies the goal, and
    // x = 500 breaks the assumption: neither refutes the query.
    for forged in [3, 500] {
        let o = x_is(forged);
        assert!(matches!(o.result, VerifyResult::Unknown), "x = {forged}: {:?}", o.result);
        assert_eq!(o.error.as_deref(), Some("net: countermodel does not refute the query"));
    }
    let o = x_is(42);
    let VerifyResult::Counterexample(m) = &o.result else { panic!("{:?}", o.result) };
    assert!(m.eval_bool(base[0].0) && !m.eval_bool(goal.0) && o.error.is_none());
}

// ----------------------------------------------------------------------------
// TCP loopback integration
// ----------------------------------------------------------------------------

/// Verdicts through the server match ground truth, and countermodels,
/// mapped back onto the caller's terms, genuinely refute the goal.
#[test]
fn loopback_verdicts_match_ground_truth() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2)).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    reset_ctx();
    let x = BV::fresh(32, "x");
    let m = BV::fresh(32, "m");
    let tauto = (x & m).ule(x);
    let refutable = x.ult(BV::lit(32, 10));
    let asm = x.uge(BV::lit(32, 3));
    let queries = vec![
        query("t/tauto", vec![], tauto),
        query("t/refutable", vec![asm], refutable),
    ];
    let outcomes = client.submit_batch(queries).unwrap();

    assert_eq!(outcomes.len(), 2);
    assert_eq!(outcomes[0].label, "t/tauto");
    assert!(matches!(outcomes[0].result, VerifyResult::Proved), "{:?}", outcomes[0].result);
    match &outcomes[1].result {
        VerifyResult::Counterexample(model) => {
            assert!(model.eval_bool(asm.0), "countermodel must satisfy the assumption");
            assert!(!model.eval_bool(refutable.0), "countermodel must falsify the goal");
        }
        other => panic!("expected a countermodel, got {other:?}"),
    }
    server.shutdown();
}

/// 24 queries across 4 shards: every outcome lands at its submission
/// slot even though shards answer independently, and the forced
/// countermodels prove slot `i` really holds query `i`'s answer.
#[test]
fn loopback_submission_order_across_shards() {
    let server = Server::bind("127.0.0.1:0", test_cfg(4)).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();

    reset_ctx();
    let x = BV::fresh(32, "x");
    // Each query pins x = i and claims false, so its only countermodel
    // has x = i: a misplaced outcome is immediately visible.
    let queries: Vec<Query> = (0..24u128)
        .map(|i| {
            query(&format!("order/{i}"), vec![x.eq_(BV::lit(32, i))], SBool::lit(false))
        })
        .collect();
    let outcomes = client.submit_batch(queries).unwrap();

    assert_eq!(outcomes.len(), 24);
    for (i, out) in outcomes.iter().enumerate() {
        assert_eq!(out.label, format!("order/{i}"));
        match &out.result {
            VerifyResult::Counterexample(model) => {
                assert_eq!(model.eval_bv(x.0), i as u128, "slot {i} holds another query's model");
            }
            other => panic!("order/{i}: expected countermodel, got {other:?}"),
        }
    }
    let stats = client.last_stats.clone().expect("reply carries stats");
    let exercised = stats.shards.iter().filter(|row| row.queued > 0).count();
    assert!(exercised >= 2, "expected at least 2 shards exercised, got {exercised}");
    server.shutdown();
}

/// A repeat is answered at admission, from its home shard's cache under
/// the bytes the client sent: the second submission of a proved query is
/// a cache hit with the first one's certificate, and no shard queues it.
/// A refuted query is never answered there: every repeat reaches its
/// shard, whose probe re-checks the stored countermodel.
#[test]
fn loopback_hot_tier_serves_repeats() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2)).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let queued = |client: &mut Client| -> u64 {
        client.server_stats().unwrap().shards.iter().map(|row| row.queued).sum()
    };
    let submit = |client: &mut Client, refutable: bool| {
        reset_ctx();
        let x = BV::fresh(32, "x");
        let m = BV::fresh(32, "m");
        let q = if refutable {
            query("repeat/refutable", vec![x.uge(BV::lit(32, 3))], x.ult(BV::lit(32, 10)))
        } else {
            query("repeat/tauto", vec![], (x & m).ule(x))
        };
        client.submit_batch(vec![q]).unwrap().pop().expect("one outcome")
    };

    let first = submit(&mut client, false);
    assert!(matches!(first.result, VerifyResult::Proved) && !first.cache_hit);
    assert!(first.cert.is_some(), "the test server certifies");
    let before = queued(&mut client);
    let second = submit(&mut client, false);
    assert!(matches!(second.result, VerifyResult::Proved) && second.cache_hit);
    assert_eq!(second.cert, first.cert, "the cached certificate fingerprint");
    assert_eq!(queued(&mut client), before, "no shard queued the repeat");
    assert_eq!(client.server_stats().unwrap().hot_hits, 1);

    for round in 0..3 {
        let before = queued(&mut client);
        let out = submit(&mut client, true);
        assert!(matches!(out.result, VerifyResult::Counterexample(_)), "round {round}");
        assert_eq!(out.cache_hit, round > 0, "round {round}: the shard's probe answered it");
        assert_eq!(queued(&mut client), before + 1, "round {round}: the query reached its shard");
    }
    assert_eq!(client.server_stats().unwrap().hot_hits, 1, "a refutation is not answered at admission");
    server.shutdown();
}

/// A garbage frame earns an `Error` reply and a close — and the server
/// keeps serving other clients afterwards.
#[test]
fn loopback_garbage_frame_gets_error_then_close() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2)).unwrap();
    let addr = server.local_addr().to_string();

    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    wire::write_frame(&mut raw, b"\xde\xad\xbe\xef not a message").unwrap();
    let reply = wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap().unwrap();
    assert!(matches!(decode_msg(&reply), Ok(Msg::Error { .. })));
    assert_eq!(wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap(), None);

    let mut client = Client::connect(&addr).unwrap();
    assert!(client.ping().is_ok(), "server must survive a hostile connection");
    let stats = client.server_stats().unwrap();
    assert!(stats.protocol_errors >= 1);
    server.shutdown();
}

/// A client that sends a batch and vanishes mid-exchange neither wedges
/// the server nor corrupts another client's concurrent work.
#[test]
fn loopback_mid_batch_disconnect_leaves_server_healthy() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2)).unwrap();
    let addr = server.local_addr().to_string();

    {
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        wire::write_frame(&mut raw, &encode_msg(&Msg::Hello { version: wire::PROTO_VERSION }))
            .unwrap();
        let _ = wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap();
        reset_ctx();
        let x = BV::fresh(32, "x");
        let batch = Msg::Batch {
            id: 7,
            queries: vec![WireQuery {
                label: "doomed".to_string(),
                cfg: SolverConfig::default(),
                core_bytes: frame(&[], x.eq_(x)),
            }],
        };
        wire::write_frame(&mut raw, &encode_msg(&batch)).unwrap();
        // Drop without reading the reply: the write side sees a reset.
    }

    let mut client = Client::connect(&addr).unwrap();
    reset_ctx();
    let x = BV::fresh(32, "x");
    let m = BV::fresh(32, "m");
    let outcomes = client.submit_batch(vec![query("survivor", vec![], (x & m).ule(x))]).unwrap();
    assert!(matches!(outcomes[0].result, VerifyResult::Proved));
    assert!(client.bytes_received > 0 && outcomes[0].stats.is_some(), "the server answered it");
    server.shutdown();
}

/// The first frame must be a versioned `Hello`; anything else (or a
/// version mismatch) is answered with `Error` and a close — over TCP and
/// through `handle_payload` alike, since both drive `on_frame`.
#[test]
fn loopback_handshake_is_mandatory() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2)).unwrap();
    let addr = server.local_addr().to_string();

    reset_ctx();
    let x = BV::fresh(32, "x");
    let batch = encode_msg(&Msg::Batch {
        id: 1,
        queries: vec![WireQuery {
            label: "early".to_string(),
            cfg: SolverConfig::default(),
            core_bytes: frame(&[], x.eq_(x)),
        }],
    });
    let ping = encode_msg(&Msg::Ping { token: 1 });
    let skewed = encode_msg(&Msg::Hello { version: 999 });
    for first in [&batch, &ping, &skewed] {
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        wire::write_frame(&mut raw, first).unwrap();
        let reply = wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert!(matches!(decode_msg(&reply), Ok(Msg::Error { .. })));
        assert_eq!(wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap(), None);

        let mut greeted = false;
        let (reply, close) = server.core().handle_payload(&mut greeted, first);
        assert!(matches!(decode_msg(&reply), Ok(Msg::Error { .. })));
        assert!(close && !greeted);
    }
    let stats = server.core().stats();
    assert_eq!(stats.shards.iter().map(|row| row.queued).sum::<u64>(), 0, "nothing was queued");
    server.shutdown();
}

/// Regression: the accept loop kept a socket clone and a join handle per
/// connection ever accepted — one leaked descriptor each, until
/// `ulimit -n` stopped the server accepting for good. Finished
/// connections are now reaped on every accept.
#[test]
fn loopback_finished_connections_are_reaped() {
    let server = Server::bind("127.0.0.1:0", test_cfg(1)).unwrap();
    let addr = server.local_addr().to_string();
    let cycle = || {
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        wire::write_frame(&mut raw, &encode_msg(&Msg::Hello { version: wire::PROTO_VERSION }))
            .unwrap();
        let reply = wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert!(matches!(decode_msg(&reply), Ok(Msg::HelloAck { .. })));
    };
    for _ in 0..64 {
        cycle();
    }
    // Reaping happens on accept, and a connection's thread outlives its
    // socket by a moment: give the tail a bounded number of further
    // accepts to drain (the parent tracks 64 and counting).
    for _ in 0..50 {
        if server.tracked_connections() <= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        cycle();
    }
    assert!(server.tracked_connections() <= 1, "{} tracked", server.tracked_connections());
    server.shutdown();
}

/// A malformed core inside an otherwise well-formed batch is rejected at
/// admission (`Error` + close), before any shard sees it.
#[test]
fn loopback_malformed_core_rejected_at_admission() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2)).unwrap();
    let addr = server.local_addr().to_string();

    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    wire::write_frame(&mut raw, &encode_msg(&Msg::Hello { version: wire::PROTO_VERSION }))
        .unwrap();
    let _ = wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap();
    let batch = Msg::Batch {
        id: 1,
        queries: vec![WireQuery {
            label: "bogus".to_string(),
            cfg: SolverConfig::default(),
            core_bytes: b"SW1\0garbage".to_vec(),
        }],
    };
    wire::write_frame(&mut raw, &encode_msg(&batch)).unwrap();
    let reply = wire::read_frame(&mut raw, wire::DEFAULT_MAX_FRAME).unwrap().unwrap();
    match decode_msg(&reply) {
        Ok(Msg::Error { msg }) => assert!(msg.contains("bogus"), "error should name the query: {msg}"),
        other => panic!("expected Error frame, got {other:?}"),
    }
    server.shutdown();
}

/// `ServerCore::discharge` is also called without `on_frame` in front
/// of it (tests, the simulator), so it decodes for itself: a malformed
/// core is answered in its slot with an error outcome, and its
/// neighbours are discharged as usual.
#[test]
fn discharge_answers_a_malformed_core_with_an_error_outcome() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2)).unwrap();
    reset_ctx();
    let x = BV::fresh(32, "x");
    let wq = |label: &str, core_bytes: Vec<u8>| WireQuery {
        label: label.to_string(),
        cfg: SolverConfig::default(),
        core_bytes,
    };
    let good = |goal: SBool| frame(&[], goal);
    let out = server.core().discharge(vec![
        wq("proved", good((x & BV::lit(32, 1)).ule(BV::lit(32, 1)))),
        wq("bogus", b"SW1\0garbage".to_vec()),
        wq("refuted", good(x.ult(BV::lit(32, 9)))),
    ]);
    assert!(matches!(out[0].verdict, RawVerdict::Proved) && out[0].error.is_none());
    assert!(matches!(out[1].verdict, RawVerdict::Unknown) && out[1].cert == 0);
    let why = out[1].error.as_deref().expect("the reason is reported");
    assert!(why.starts_with("malformed core"), "{why}");
    assert!(matches!(out[2].verdict, RawVerdict::Refuted(_)));
    assert_eq!(server.core().stats().shards.iter().map(|s| s.queued).sum::<u64>(), 2);
    server.shutdown();
}

/// Answers at admission report the `SHARD_HOT` sentinel so clients can
/// tell them from shard answers.
#[test]
fn loopback_hot_hits_report_sentinel_shard() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2)).unwrap();
    let core = server.core();

    reset_ctx();
    let x = BV::fresh(32, "x");
    let m = BV::fresh(32, "m");
    let bytes = frame(&[], (x & m).ule(x));
    let wq = || WireQuery {
        label: "hot".to_string(),
        cfg: SolverConfig::default(),
        core_bytes: bytes.clone(),
    };
    // The first discharge proves it in its home shard; the second is
    // answered at admission from that shard's cache.
    let first = core.discharge(vec![wq()]);
    assert!(matches!(first[0].verdict, RawVerdict::Proved) && first[0].shard != SHARD_HOT);
    let second = core.discharge(vec![wq()]);
    assert!(matches!(second[0].verdict, RawVerdict::Proved));
    assert_eq!(second[0].shard, SHARD_HOT);
    assert!(second[0].cache_hit);
    server.shutdown();
}

/// A valid frame that is not in normal form — here, its two assumption
/// roots swapped — is refused with an error by its shard, on every
/// repeat, and never solved: the shard would cache its verdict under the
/// re-keyed bytes, so admission, which looks repeats up under the
/// frame's own, could never answer it.
#[test]
fn a_frame_out_of_normal_form_is_refused() {
    let core = crate::service::ServerCore::new(test_cfg(2));
    reset_ctx();
    let x = BV::fresh(32, "x");
    let y = BV::fresh(32, "y");
    let canonical = frame(&[x.ult(y), y.ult(BV::lit(32, 9))], x.ult(BV::lit(32, 8)));
    // The roots section ends `count, a0, a1, goal` (u32 each).
    let n = canonical.len();
    let mut swapped = canonical.clone();
    swapped[n - 12..n - 4].rotate_left(4);
    assert_ne!(swapped, canonical);
    Core::decode(swapped.clone()).expect("the swapped frame is still valid");
    let wq = |bytes: &Vec<u8>| WireQuery {
        label: "swapped".to_string(),
        cfg: SolverConfig::default(),
        core_bytes: bytes.clone(),
    };
    let solved = |core: &crate::service::ServerCore| -> u64 {
        core.stats().shards.iter().map(|row| row.solved + row.hits).sum()
    };
    for round in 0..2 {
        let out = core.discharge(vec![wq(&swapped)]);
        assert!(matches!(out[0].verdict, RawVerdict::Unknown), "round {round}");
        let error = out[0].error.as_deref().unwrap_or("");
        assert!(error.contains(crate::service::NOT_NORMAL), "round {round}: {error}");
        assert_eq!(solved(&core), 0, "round {round}: the swapped frame was solved");
    }
    // The canonical frame of the same query is solved once, then
    // answered at admission.
    let first = core.discharge(vec![wq(&canonical)]);
    assert!(matches!(first[0].verdict, RawVerdict::Proved) && first[0].shard != SHARD_HOT);
    let second = core.discharge(vec![wq(&canonical)]);
    assert!(matches!(second[0].verdict, RawVerdict::Proved) && second[0].shard == SHARD_HOT);
    assert_eq!(core.stats().hot_hits, 1);
}

// ----------------------------------------------------------------------------
// The client-side fold
// ----------------------------------------------------------------------------

/// A query a constant already proves never leaves the client: it is
/// answered as a local engine would answer it, in its submission slot,
/// and a batch of nothing else sends no frame at all.
#[test]
fn loopback_folded_queries_never_leave_the_client() {
    use serval_engine::Discharge;
    let server = Server::bind("127.0.0.1:0", test_cfg(2)).unwrap();
    let remote = crate::RemoteEngine::connect(&server.local_addr().to_string()).unwrap();

    reset_ctx();
    let x = BV::fresh(32, "x");
    let m = BV::fresh(32, "m");
    let never = x.ult(BV::lit(32, 0));
    assert!(never.is_false());
    let refutable = x.ult(BV::lit(32, 10));
    let asm = x.uge(BV::lit(32, 3));
    let trivial = |label: &str, by_goal: bool| {
        if by_goal {
            query(label, vec![asm], SBool::lit(true))
        } else {
            query(label, vec![asm, never], refutable)
        }
    };
    let local = serval_engine::Engine::new(test_cfg(1).engine).submit(trivial("ref", true));
    let folded = |o: &serval_engine::QueryOutcome| {
        assert!(matches!(o.result, VerifyResult::Proved), "{}: {:?}", o.label, o.result);
        assert!(!o.cache_hit && o.stats.is_none() && o.error.is_none(), "{}", o.label);
        assert_eq!(o.cert, local.cert, "{}: the trivial fingerprint", o.label);
        assert!(o.cert.is_some());
    };

    let before = remote.bytes();
    let out = remote.submit_batch(vec![trivial("a0", true), trivial("a1", false)]);
    assert_eq!(remote.bytes(), before, "an all-trivial batch sends no frame");
    assert_eq!(out.iter().map(|o| &o.label[..]).collect::<Vec<_>>(), ["a0", "a1"]);
    out.iter().for_each(folded);

    let out = remote.submit_batch(vec![
        trivial("m0", false),
        query("m1", vec![], (x & m).ule(x)),
        trivial("m2", true),
        query("m3", vec![asm], refutable),
        trivial("m4", false),
    ]);
    assert_eq!(out.iter().map(|o| &o.label[..]).collect::<Vec<_>>(), ["m0", "m1", "m2", "m3", "m4"]);
    for i in [0, 2, 4] {
        folded(&out[i]);
    }
    assert!(matches!(out[1].result, VerifyResult::Proved) && out[1].stats.is_some());
    let VerifyResult::Counterexample(model) = &out[3].result else {
        panic!("m3: expected a countermodel, got {:?}", out[3].result)
    };
    assert!(model.eval_bool(asm.0) && !model.eval_bool(refutable.0));
    assert!(remote.bytes().0 > before.0);
    let queued: u64 = server.core().stats().shards.iter().map(|row| row.queued).sum();
    assert_eq!(queued, 2, "only the two real queries reached a shard");
    server.shutdown();

    // With the server gone, what needed it is `Unknown` with the reason;
    // what was folded never needed it.
    let out = remote.submit_batch(vec![trivial("d0", true), query("d1", vec![asm], refutable)]);
    folded(&out[0]);
    assert!(matches!(out[1].result, VerifyResult::Unknown), "{:?}", out[1].result);
    assert!(out[1].error.as_deref().is_some_and(|e| e.starts_with("net: ")), "{:?}", out[1].error);
}

/// A frame carries what ships of one window of 64 submitted queries, so
/// the server's batches are cut where they were before the fold; a
/// window that folds entirely has no frame.
#[test]
fn frames_are_cut_by_submission_window() {
    reset_ctx();
    let x = BV::fresh(32, "x");
    let queries: Vec<Query> = (0..200u128)
        .map(|i| {
            let real = i % 2 == 0 && !(64..128).contains(&i);
            let goal = if real { x.ult(BV::lit(32, i + 1)) } else { SBool::lit(true) };
            query(&format!("w/{i}"), vec![], goal)
        })
        .collect();
    let (batch, frames) = crate::client::encode_batch(queries);
    assert_eq!(frames.iter().map(Vec::len).collect::<Vec<_>>(), [32, 32, 4]);
    assert_eq!(batch.shipped(), 68);
    assert_eq!(frames[1][0].label, "w/128");
}

/// The fold is also where it always was: a frame from a client that
/// ships everything — trivially proved queries included — is answered
/// by the server's own engine, with the same trivial certificate.
#[test]
fn unfolded_frames_from_an_old_client_are_still_answered() {
    let server = Server::bind("127.0.0.1:0", test_cfg(2)).unwrap();
    reset_ctx();
    let x = BV::fresh(32, "x");
    let never = x.ult(BV::lit(32, 0));
    let wq = |label: &str, assumptions: &[SBool], goal: SBool| WireQuery {
        label: label.to_string(),
        cfg: SolverConfig::default(),
        core_bytes: frame(assumptions, goal),
    };
    let out = server.core().discharge(vec![
        wq("by-goal", &[x.uge(BV::lit(32, 3))], SBool::lit(true)),
        wq("by-assumption", &[never], x.ult(BV::lit(32, 10))),
    ]);
    let trivial = serval_engine::folded_outcome(String::new()).cert.expect("certified");
    for o in &out {
        assert!(matches!(o.verdict, RawVerdict::Proved) && !o.cache_hit && o.stats.is_none());
        assert_eq!(o.cert, trivial);
    }
    server.shutdown();
}
