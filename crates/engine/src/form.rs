//! Query normal form: the portable, alpha-invariant serialization of a
//! verification query.
//!
//! Terms live in a *thread-local* hash-consed context (`smt::term`), so a
//! `TermId` means nothing on another thread. A query therefore travels
//! as its *wire bytes*: the term DAG reachable from its roots, nodes in
//! deterministic postorder, symbolic constants renumbered by first
//! encounter, uninterpreted functions likewise. Those bytes are the one
//! portable form of a query — the **cache key**, the frame a client
//! ships, and, as a [`Core`], what a pool worker or a server shard
//! interns and solves. Two queries that differ only in variable creation
//! order, variable names, or assumption order produce identical bytes,
//! while any structural difference changes them.
//!
//! A core carries k ≥ 1 goal roots, stored un-negated. A one-shot query
//! is a core with one goal, so its core is its key; a session chunk is
//! the same layout with each of its goals. A worker negates every goal
//! as it interns the core ([`Core::materialize`]).
//!
//! Soundness: the key *is* the full serialization, so key equality
//! implies the queries are alpha-equivalent (same proof obligation). The
//! converse does not quite hold — assumption roots are ordered by a
//! per-root local key, and two distinct roots with identical local keys
//! keep their submission order, so symmetric queries may occasionally
//! miss the cache. A miss is only a wasted solve, never a wrong verdict.
//!
//! There is one traversal of the caller's term DAG in this file,
//! [`Keyer::walk`], and one owner of its scratch, the [`Keyer`]: a
//! batch-scoped value (`Engine::submit_batch` and the network client
//! each make one per batch) that keys query after query without
//! touching the allocator once its buffers are warm. A warm batch is
//! then *fold → key → probe*: [`folds`] answers a query a constant
//! already proves before any of this runs, the keyer walks the rest
//! once per root under one context borrow and leaves the wire bytes in
//! its own buffer, and a [`Core`] is copied out only for what is
//! planned ([`Keyer::chunk`]). There is one reader of the bytes too,
//! `Decoder`: [`Core::decode`] validates untrusted bytes through it,
//! and [`Core::materialize`] interns through it.

use serval_smt::bv::SBool;
use serval_smt::solver::SolverConfig;
use serval_smt::term::{with_ctx, Ctx, Op, Sort, TermId, UfId};

/// A verification query: prove `goal` under `assumptions`.
///
/// Build it on the thread that owns the terms, then hand it to
/// [`crate::Engine::submit_batch`].
pub struct Query {
    /// Human-readable label (becomes the theorem name in reports).
    pub label: String,
    /// Assumptions (path conditions, invariants, ...).
    pub assumptions: Vec<SBool>,
    /// The goal to prove.
    pub goal: SBool,
    /// Solver configuration (budget + search parameters).
    pub cfg: SolverConfig,
}

/// Where a canonical symbolic constant lives in some thread's term
/// context: the caller's (a keyer's back map) or a worker's (a
/// materialized core's).
#[derive(Clone, Debug)]
pub struct VarOrigin {
    /// The constant's term id (valid only on that thread).
    pub term: TermId,
    /// Sort of the constant.
    pub sort: Sort,
}

/// Translation table from canonical indices to one thread's term
/// context, so models can cross between threads.
#[derive(Clone, Debug, Default)]
pub struct BackMap {
    /// Canonical var index → constant.
    pub vars: Vec<VarOrigin>,
    /// Canonical UF index → UF id.
    pub ufs: Vec<UfId>,
}

/// Whether a constant already proves the query: some assumption is the
/// constant `false`, or the goal is the constant `true`. Read off the
/// roots alone — nothing is interned, nothing is walked, and a caller
/// that folds on it never needs the query's key.
pub fn folds(assumptions: &[SBool], goal: SBool) -> bool {
    goal.is_true() || assumptions.iter().any(|a| a.is_false())
}

/// A dense map from small ids (term ids, var ordinals, UF ids) to `u32`
/// that empties in O(1): an entry counts only while it carries the
/// current stamp (0 is a slot never written). Grows on insert; reads
/// past the end are misses, so terms interned since the last walk need
/// no special care.
struct Stamped {
    slots: Vec<(u32, u32)>,
    stamp: u32,
}

impl Default for Stamped {
    fn default() -> Stamped {
        Stamped { slots: Vec::new(), stamp: 1 }
    }
}

impl Stamped {
    /// Forgets every entry.
    fn clear(&mut self) {
        if self.stamp == u32::MAX {
            self.slots.fill((0, 0));
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    fn get(&self, id: u32) -> Option<u32> {
        match self.slots.get(id as usize) {
            Some(&(stamp, v)) if stamp == self.stamp => Some(v),
            _ => None,
        }
    }

    fn insert(&mut self, id: u32, v: u32) {
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, (0, 0));
        }
        self.slots[i] = (self.stamp, v);
    }
}

/// The one normalizer: keys and wire-encodes query after query over one
/// set of scratch buffers, and copies out a [`Core`] on request.
///
/// Lifetime: one batch on one thread. The memo of per-root local keys
/// is indexed by `TermId`, so a keyer must not outlive a `reset_ctx`,
/// and nothing of it is kept between batches. After [`Keyer::wire`] or
/// [`Keyer::chunk`], [`Keyer::bytes`] and [`Keyer::backmap`] describe
/// that query until the next one is keyed.
#[derive(Default)]
pub struct Keyer {
    // Numbering of the walk in progress: term → node index, var ordinal
    // → canonical var, UF id → canonical UF.
    node_of: Stamped,
    var_of: Stamped,
    uf_of: Stamped,
    stack: Vec<TermId>,
    kids: Vec<u32>,
    // The walk's flat output: the node count, the encoded nodes, the
    // encoded declarations, and the way back to the caller's terms.
    nodes: u32,
    node_bytes: Vec<u8>,
    sort_bytes: Vec<u8>,
    sig_bytes: Vec<u8>,
    backmap: BackMap,
    // Root ordering: the query's distinct roots with the span of each
    // one's local key in `local`, and the batch's memo of assumption
    // roots' spans (root → index into `spans`).
    roots: Vec<(TermId, u32, u32)>,
    local: Vec<u8>,
    local_of: Stamped,
    spans: Vec<(u32, u32)>,
    // The keyed query: node index of every root (the canonically
    // ordered assumptions, then the goals) and the assembled wire bytes.
    root_ids: Vec<u32>,
    ordered: usize,
    bytes: Vec<u8>,
}

impl Keyer {
    /// A keyer with empty scratch.
    pub fn new() -> Keyer {
        Keyer::default()
    }

    /// Starts a walk: a fresh numbering and empty output.
    fn begin(&mut self) {
        self.node_of.clear();
        self.var_of.clear();
        self.uf_of.clear();
        self.nodes = 0;
        self.node_bytes.clear();
        self.sort_bytes.clear();
        self.sig_bytes.clear();
        self.backmap.vars.clear();
        self.backmap.ufs.clear();
    }

    /// Numbers the DAG under `root`, skipping what this walk has already
    /// numbered, and appends each new node's encoding; returns the
    /// root's node index. Children come before parents and a node's last
    /// child is visited first — the order every stored key was written
    /// in. Vars and UFs are renumbered by first encounter.
    fn walk(&mut self, c: &Ctx, root: TermId) -> u32 {
        self.stack.push(root);
        while let Some(&t) = self.stack.last() {
            if self.node_of.get(t.0).is_some() {
                self.stack.pop();
                continue;
            }
            let term = c.term(t);
            let open = self.stack.len();
            for ch in &term.children {
                if self.node_of.get(ch.0).is_none() {
                    self.stack.push(*ch);
                }
            }
            if self.stack.len() > open {
                continue;
            }
            self.stack.pop();
            let canonical;
            let op = match term.op {
                Op::Var(ord) => {
                    let k = self.var_of.get(ord).unwrap_or_else(|| {
                        let k = self.backmap.vars.len() as u32;
                        self.backmap.vars.push(VarOrigin { term: t, sort: term.sort });
                        encode_sort(term.sort, &mut self.sort_bytes);
                        self.var_of.insert(ord, k);
                        k
                    });
                    canonical = Op::Var(k);
                    &canonical
                }
                Op::UfApply(uf) => {
                    let k = self.uf_of.get(uf.0).unwrap_or_else(|| {
                        let k = self.backmap.ufs.len() as u32;
                        self.backmap.ufs.push(uf);
                        let sig = c.uf_sig(uf);
                        encode_sig(&sig.args, sig.result, &mut self.sig_bytes);
                        self.uf_of.insert(uf.0, k);
                        k
                    });
                    canonical = Op::UfApply(UfId(k));
                    &canonical
                }
                ref other => other,
            };
            self.kids.clear();
            for ch in &term.children {
                self.kids.push(self.node_of.get(ch.0).expect("children are numbered first"));
            }
            encode_node(op, &self.kids, term.sort, &mut self.node_bytes);
            self.node_of.insert(t.0, self.nodes);
            self.nodes += 1;
        }
        self.node_of.get(root.0).expect("the walk numbers its root")
    }

    /// Fills `roots` with the distinct non-trivial `assumptions`,
    /// ordered by their per-root alpha-invariant local key (each root
    /// walked alone under a numbering of its own), so submission order
    /// cannot influence the normal form; equal keys keep submission
    /// order. A root's local key is computed once per batch: a discharge
    /// batch phrases hundreds of queries over one base.
    fn order_roots(&mut self, c: &Ctx, assumptions: &[SBool]) {
        self.roots.clear();
        // The node table is free until the walk begins: it is the
        // seen-set here.
        self.node_of.clear();
        for t in assumptions.iter().map(|a| a.0) {
            // Constant-true roots constrain nothing; drop them so queries
            // differing only in vacuous assumptions normalize identically.
            if c.term(t).op == Op::BoolConst(true) {
                continue;
            }
            if self.node_of.get(t.0).is_none() {
                self.node_of.insert(t.0, 0);
                self.roots.push((t, 0, 0));
            }
        }
        if self.roots.len() < 2 {
            return;
        }
        for i in 0..self.roots.len() {
            let root = self.roots[i].0;
            let span = match self.local_of.get(root.0) {
                Some(k) => self.spans[k as usize],
                None => {
                    self.begin();
                    self.walk(c, root);
                    let start = self.local.len() as u32;
                    self.local.extend_from_slice(&self.node_bytes);
                    let span = (start, self.local.len() as u32);
                    self.local_of.insert(root.0, self.spans.len() as u32);
                    self.spans.push(span);
                    span
                }
            };
            self.roots[i] = (root, span.0, span.1);
        }
        let local = &self.local;
        self.roots
            .sort_by(|a, b| local[a.1 as usize..a.2 as usize].cmp(&local[b.1 as usize..b.2 as usize]));
    }

    /// The one query walk: canonically ordered assumption roots, then
    /// `goals` in the order given, under one numbering.
    fn walk_query(&mut self, c: &Ctx, assumptions: &[SBool], goals: &[SBool]) {
        self.order_roots(c, assumptions);
        self.begin();
        self.root_ids.clear();
        self.ordered = self.roots.len();
        for i in 0..self.ordered {
            let id = self.walk(c, self.roots[i].0);
            self.root_ids.push(id);
        }
        for g in goals {
            let id = self.walk(c, g.0);
            self.root_ids.push(id);
        }
    }

    /// Walks `assumptions` under `goals` and assembles the wire bytes in
    /// the keyer's buffer, in [`WIRE_MAGIC`]'s layout.
    fn encode(&mut self, assumptions: &[SBool], goals: &[SBool]) {
        with_ctx(|c| self.walk_query(c, assumptions, goals));
        let mut out = std::mem::take(&mut self.bytes);
        out.clear();
        out.extend_from_slice(WIRE_MAGIC);
        push_u32(&mut out, self.backmap.vars.len() as u32);
        out.extend_from_slice(&self.sort_bytes);
        push_u32(&mut out, self.backmap.ufs.len() as u32);
        out.extend_from_slice(&self.sig_bytes);
        push_u32(&mut out, self.nodes);
        out.extend_from_slice(&self.node_bytes);
        push_u32s(&mut out, &self.root_ids[..self.ordered]);
        for &goal in &self.root_ids[self.ordered..] {
            push_u32(&mut out, goal);
        }
        self.bytes = out;
    }

    /// Wire-encodes `(assumptions, goal)`, left in the keyer's buffer:
    /// the query's cache key and the frame a client ships.
    ///
    /// Must run on the thread that owns the terms.
    pub fn wire(&mut self, assumptions: &[SBool], goal: SBool) -> &[u8] {
        self.encode(assumptions, &[goal]);
        &self.bytes
    }

    /// The core of `goals` (at least one) under the shared `assumptions`,
    /// and its back map: what a pool worker solves. With one goal its
    /// bytes are the query's key.
    ///
    /// Must run on the thread that owns the terms.
    pub fn chunk(&mut self, assumptions: &[SBool], goals: &[SBool]) -> (Core, BackMap) {
        self.encode(assumptions, goals);
        let core = Core {
            roots_at: self.bytes.len() - 4 * (1 + self.root_ids.len()),
            bytes: self.bytes.clone(),
            trivially_unsat: goals.iter().all(|&g| folds(assumptions, g)),
        };
        (core, self.backmap.clone())
    }

    /// The bytes the last [`Keyer::wire`] or [`Keyer::chunk`] assembled.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Canonical-index → caller-term translation of the last query.
    pub fn backmap(&self) -> &BackMap {
        &self.backmap
    }
}

/// Flattens the top-level `And` structure of `goal` into its conjuncts,
/// in left-to-right order; returns `[goal]` when the goal is not a
/// conjunction. Splitting is the engine-side counterpart of the paper's
/// split-cases: proving every conjunct under the same assumptions proves
/// the conjunction, and a countermodel of any conjunct (which satisfies
/// the assumptions) refutes it, so the engine can discharge conjuncts as
/// independent parallel queries and recombine the verdicts.
///
/// `cap` bounds the number of conjuncts: once reached, remaining
/// subtrees are kept whole instead of being descended into.
///
/// Must run on the thread that owns the terms.
pub fn split_goal(goal: SBool, cap: usize) -> Vec<SBool> {
    with_ctx(|c| {
        let mut out: Vec<SBool> = Vec::new();
        let mut stack = vec![goal.0];
        while let Some(t) = stack.pop() {
            let term = c.term(t);
            if term.op == Op::And && out.len() + stack.len() + term.children.len() <= cap {
                // Reversed push keeps the conjuncts in left-to-right order.
                stack.extend(term.children.iter().rev());
            } else {
                out.push(SBool(t));
            }
        }
        out
    })
}

// ---------------------------------------------------------------------------
// The core: a query's wire bytes, validated. It sits behind a TCP socket
// too, so every structural invariant the keyer establishes (arities,
// sorts, widths, postorder child indices, one node per declared variable
// in declaration order, UF consistency) is re-checked before a single
// term is interned.
// ---------------------------------------------------------------------------

/// Wire encoding version tag. Layout (all integers little-endian):
/// magic, var sorts, UF signatures, nodes, the assumption roots, then
/// one goal root per goal up to the end of the buffer — each section but
/// the last length-prefixed, declarations before nodes so one pass
/// validates. Bump it, with the disk tier's `SRVCACH3`, when the layout
/// or the node encoding changes.
const WIRE_MAGIC: &[u8; 4] = b"SW1\0";

/// The portable form of a query: its wire bytes, with k ≥ 1 un-negated
/// goal roots over the shared assumption roots. Made only by a
/// [`Keyer`] or by [`Core::decode`], so a core always holds bytes the
/// decoder accepts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Core {
    bytes: Vec<u8>,
    /// Where the root section starts: the nodes end here.
    roots_at: usize,
    /// Retired: whether a constant proves every goal — some assumption
    /// root is `false`, or every goal root is `true` ([`folds`], read
    /// off the core). Only the benchmark package reads it; ROADMAP item
    /// 3 deletes it.
    pub trivially_unsat: bool,
}

/// A [`Core`] interned into the current thread's term context.
pub struct Materialized {
    /// The assumption roots.
    pub assumptions: Vec<SBool>,
    /// The goals in core order: negated when asked to be, ready for
    /// [`serval_smt::Session::solve_negated`].
    pub goals: Vec<SBool>,
    /// Canonical index → this thread's terms, so a model found here can
    /// be projected back onto the core's numbering.
    pub backmap: BackMap,
}

impl Core {
    /// Validates untrusted bytes as a core. On any violation the whole
    /// core is rejected — no partial decode.
    pub fn decode(bytes: Vec<u8>) -> Result<Core, &'static str> {
        let mut d = Decoder::open(&bytes)?;
        let mut value: Vec<Option<bool>> = Vec::new();
        d.nodes(|op, _, _| {
            value.push(match *op {
                Op::BoolConst(b) => Some(b),
                _ => None,
            })
        })?;
        let roots_at = d.rd.at;
        let (asms, goals) = read_roots(&mut d.rd)?;
        if asms.iter().chain(&goals).any(|&r| d.sorts.get(r as usize) != Some(&Sort::Bool)) {
            return Err("root must be an in-range Bool node");
        }
        let is = |&r: &u32, b: bool| value[r as usize] == Some(b);
        let trivially_unsat =
            asms.iter().any(|r| is(r, false)) || goals.iter().all(|r| is(r, true));
        Ok(Core { bytes, roots_at, trivially_unsat })
    }

    /// The wire bytes: a one-goal core's are its query's key and frame.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The root section: assumption roots, then goal roots.
    fn roots(&self) -> (Vec<u32>, Vec<u32>) {
        read_roots(&mut Rd { b: &self.bytes, at: self.roots_at }).expect(VALID)
    }

    /// How many goals the core carries.
    pub fn goals(&self) -> usize {
        self.roots().1.len()
    }

    /// Interns the core into the current thread's term context: UFs and
    /// variables declared fresh, nodes in byte order. With `negate`,
    /// each goal is replaced by its negation under the smart `!`,
    /// interned right after the goal's last new node — where a walk of
    /// the negated goal would have put it — so the interning order, and
    /// with it a session's CNF, is that of the negated query.
    pub fn materialize(&self, negate: bool) -> Materialized {
        let (asm_roots, goal_roots) = self.roots();
        let mut d = Decoder::open(&self.bytes).expect(VALID);
        let sig = |(i, (args, result)): (usize, &(Vec<u32>, u32))| {
            with_ctx(|c| c.declare_uf(&format!("uf{i}"), args.clone(), *result))
        };
        let ufs: Vec<UfId> = d.uf_sigs.iter().enumerate().map(sig).collect();
        let mut ids: Vec<TermId> = Vec::new();
        let mut vars: Vec<VarOrigin> = Vec::with_capacity(d.var_sorts.len());
        let mut goals: Vec<SBool> = Vec::with_capacity(goal_roots.len());
        let mut children: Vec<TermId> = Vec::new();
        // A goal's nodes end at its root or, if an earlier root already
        // numbered it, where the previous goal's ended.
        let mut end = asm_roots.iter().map(|&r| r as usize + 1).max().unwrap_or(0);
        d.nodes(|op, kids, sort| {
            children.clear();
            children.extend(kids.iter().map(|&k| ids[k as usize]));
            let id = with_ctx(|c| match *op {
                Op::Var(k) => {
                    let term = c.fresh_var(sort, &format!("q{k}"));
                    vars.push(VarOrigin { term, sort });
                    term
                }
                Op::UfApply(UfId(k)) => c.intern(Op::UfApply(ufs[k as usize]), &children, sort),
                ref op => c.intern(op.clone(), &children, sort),
            });
            ids.push(id);
            while let Some(&g) = goal_roots.get(goals.len()).filter(|_| negate) {
                let at = end.max(g as usize + 1);
                if at != ids.len() {
                    break;
                }
                end = at;
                goals.push(!SBool(ids[g as usize]));
            }
        })
        .expect(VALID);
        if !negate {
            goals.extend(goal_roots.iter().map(|&g| SBool(ids[g as usize])));
        }
        Materialized {
            assumptions: asm_roots.iter().map(|&r| SBool(ids[r as usize])).collect(),
            goals,
            backmap: BackMap { vars, ufs },
        }
    }
}

/// Why a [`Core`]'s bytes must decode.
const VALID: &str = "a core holds bytes the decoder accepts";

/// Reads a root section: the length-prefixed assumption roots, then goal
/// roots to the end of the buffer, at least one.
fn read_roots(rd: &mut Rd) -> Result<(Vec<u32>, Vec<u32>), &'static str> {
    let n_asm = rd.count(4)?;
    let asms = (0..n_asm).map(|_| rd.u32()).collect::<Result<Vec<u32>, _>>()?;
    let rest = rd.b.len() - rd.at;
    if rest == 0 || !rest.is_multiple_of(4) {
        return Err("goal roots must fill the rest of the core, at least one");
    }
    let goals = (0..rest / 4).map(|_| rd.u32()).collect::<Result<Vec<u32>, _>>()?;
    Ok((asms, goals))
}

/// The one reader of a core's bytes: declarations first, then every node
/// handed to the caller in postorder, each checked against the
/// invariants the term builders and the keyer establish.
struct Decoder<'a> {
    rd: Rd<'a>,
    var_sorts: Vec<Sort>,
    uf_sigs: Vec<(Vec<u32>, u32)>,
    /// Sort of each node read so far.
    sorts: Vec<Sort>,
}

impl<'a> Decoder<'a> {
    /// Checks the magic and reads the declarations.
    fn open(bytes: &'a [u8]) -> Result<Decoder<'a>, &'static str> {
        if bytes.get(..4) != Some(&WIRE_MAGIC[..]) {
            return Err("bad wire magic");
        }
        let mut rd = Rd { b: bytes, at: 4 };
        let n_vars = rd.count(1)?;
        let mut var_sorts = Vec::with_capacity(n_vars);
        for _ in 0..n_vars {
            var_sorts.push(rd.sort()?);
        }
        let n_ufs = rd.count(8)?;
        let mut uf_sigs = Vec::with_capacity(n_ufs);
        for _ in 0..n_ufs {
            let n_args = rd.count(4)?;
            let mut args = Vec::with_capacity(n_args);
            for _ in 0..n_args {
                args.push(rd.width("UF argument width out of range")?);
            }
            let result = rd.width("UF result width out of range")?;
            uf_sigs.push((args, result));
        }
        Ok(Decoder { rd, var_sorts, uf_sigs, sorts: Vec::new() })
    }

    /// Reads the node section, handing `each` every node's operator,
    /// children and sort. The k-th variable node must declare variable
    /// k, and every declared variable must have its node: one canonical
    /// variable is one term, wherever it came from.
    fn nodes(&mut self, mut each: impl FnMut(&Op, &[u32], Sort)) -> Result<(), &'static str> {
        let n_nodes = self.rd.count(6)?;
        self.sorts.reserve(n_nodes);
        let mut kids: Vec<u32> = Vec::new();
        let mut vars = 0;
        for idx in 0..n_nodes {
            let op = self.rd.op()?;
            let sort = self.rd.sort()?;
            let n_children = self.rd.count(4)?;
            kids.clear();
            for _ in 0..n_children {
                let c = self.rd.u32()?;
                if c as usize >= idx {
                    return Err("child index breaks postorder");
                }
                kids.push(c);
            }
            if let Op::Var(k) = op {
                if k != vars {
                    return Err("variable node out of declaration order");
                }
                vars += 1;
            }
            check_node(&op, &kids, sort, &self.sorts, &self.var_sorts, &self.uf_sigs)?;
            self.sorts.push(sort);
            each(&op, &kids, sort);
        }
        if vars as usize != self.var_sorts.len() {
            return Err("declared variable has no node");
        }
        Ok(())
    }
}

/// Little-endian cursor over untrusted bytes. Every read is
/// bounds-checked; element counts are validated against the remaining
/// byte budget before any allocation, so a hostile length field cannot
/// force an oversized reservation.
struct Rd<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Rd<'a> {
    fn u8(&mut self) -> Result<u8, &'static str> {
        let v = *self.b.get(self.at).ok_or("truncated")?;
        self.at += 1;
        Ok(v)
    }
    fn u32(&mut self) -> Result<u32, &'static str> {
        let s = self.b.get(self.at..self.at + 4).ok_or("truncated")?;
        self.at += 4;
        Ok(u32::from_le_bytes(s.try_into().unwrap()))
    }
    fn u128(&mut self) -> Result<u128, &'static str> {
        let s = self.b.get(self.at..self.at + 16).ok_or("truncated")?;
        self.at += 16;
        Ok(u128::from_le_bytes(s.try_into().unwrap()))
    }
    /// Reads a count whose elements occupy at least `min_elem` bytes
    /// each, rejecting counts the remaining buffer cannot possibly hold.
    fn count(&mut self, min_elem: usize) -> Result<usize, &'static str> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem) > self.b.len() - self.at {
            return Err("count overruns buffer");
        }
        Ok(n)
    }
    fn sort(&mut self) -> Result<Sort, &'static str> {
        match self.u8()? {
            0 => Ok(Sort::Bool),
            1 => Ok(Sort::BitVec(self.width("bitvector width out of range")?)),
            _ => Err("unknown sort tag"),
        }
    }
    /// Reads a bitvector width, rejecting one outside `1..=128`.
    fn width(&mut self, why: &'static str) -> Result<u32, &'static str> {
        let w = self.u32()?;
        if (1..=128).contains(&w) {
            Ok(w)
        } else {
            Err(why)
        }
    }
    /// Reads an operator: its stable tag, then any payload.
    fn op(&mut self) -> Result<Op, &'static str> {
        Ok(match self.u8()? {
            0 => match self.u8()? {
                0 => Op::BoolConst(false),
                1 => Op::BoolConst(true),
                _ => return Err("bool constant payload invalid"),
            },
            1 => Op::BvConst(self.u128()?),
            2 => Op::Var(self.u32()?),
            3 => Op::Not,
            4 => Op::And,
            5 => Op::Or,
            6 => Op::Xor,
            7 => Op::Iff,
            8 => Op::IteBool,
            9 => Op::Eq,
            10 => Op::Ult,
            11 => Op::Ule,
            12 => Op::Slt,
            13 => Op::Sle,
            14 => Op::BvNot,
            15 => Op::BvNeg,
            16 => Op::BvAnd,
            17 => Op::BvOr,
            18 => Op::BvXor,
            19 => Op::BvAdd,
            20 => Op::BvSub,
            21 => Op::BvMul,
            22 => Op::BvUdiv,
            23 => Op::BvUrem,
            24 => Op::BvShl,
            25 => Op::BvLshr,
            26 => Op::BvAshr,
            27 => Op::Concat,
            28 => {
                let hi = self.u32()?;
                let lo = self.u32()?;
                Op::Extract(hi, lo)
            }
            29 => Op::ZeroExt,
            30 => Op::SignExt,
            31 => Op::IteBv,
            32 => Op::UfApply(UfId(self.u32()?)),
            _ => return Err("unknown operator tag"),
        })
    }
}

fn bv_width(s: Sort) -> Result<u32, &'static str> {
    match s {
        Sort::BitVec(w) => Ok(w),
        Sort::Bool => Err("expected bitvector sort"),
    }
}

/// Checks one decoded node against the invariants the term builders
/// establish: arity, child sorts, and result sort per operator.
fn check_node(
    op: &Op,
    children: &[u32],
    sort: Sort,
    sorts: &[Sort],
    var_sorts: &[Sort],
    uf_sigs: &[(Vec<u32>, u32)],
) -> Result<(), &'static str> {
    let child = |i: usize| -> Sort { sorts[children[i] as usize] };
    let arity = |n: usize| -> Result<(), &'static str> {
        if children.len() == n {
            Ok(())
        } else {
            Err("operator arity mismatch")
        }
    };
    match op {
        Op::BoolConst(_) => {
            arity(0)?;
            if sort != Sort::Bool {
                return Err("bool constant must have Bool sort");
            }
        }
        Op::BvConst(v) => {
            arity(0)?;
            let w = bv_width(sort)?;
            if w < 128 && *v >> w != 0 {
                return Err("bitvector constant exceeds its width");
            }
        }
        Op::Var(k) => {
            arity(0)?;
            let vs = var_sorts.get(*k as usize).ok_or("var index out of range")?;
            if *vs != sort {
                return Err("var sort mismatch");
            }
        }
        Op::Not => {
            arity(1)?;
            if sort != Sort::Bool || child(0) != Sort::Bool {
                return Err("Not must be Bool over Bool");
            }
        }
        Op::And | Op::Or => {
            if children.len() < 2 {
                return Err("And/Or needs at least two children");
            }
            if sort != Sort::Bool || (0..children.len()).any(|i| child(i) != Sort::Bool) {
                return Err("And/Or must be Bool over Bools");
            }
        }
        Op::Xor | Op::Iff => {
            arity(2)?;
            if sort != Sort::Bool || child(0) != Sort::Bool || child(1) != Sort::Bool {
                return Err("Xor/Iff must be Bool over Bools");
            }
        }
        Op::IteBool => {
            arity(3)?;
            if sort != Sort::Bool
                || child(0) != Sort::Bool
                || child(1) != Sort::Bool
                || child(2) != Sort::Bool
            {
                return Err("IteBool must be Bool over Bools");
            }
        }
        Op::Eq | Op::Ult | Op::Ule | Op::Slt | Op::Sle => {
            arity(2)?;
            let w0 = bv_width(child(0))?;
            let w1 = bv_width(child(1))?;
            if sort != Sort::Bool || w0 != w1 {
                return Err("predicate needs same-width bitvector children");
            }
        }
        Op::BvNot | Op::BvNeg => {
            arity(1)?;
            if bv_width(sort)? != bv_width(child(0))? {
                return Err("unary bitvector op width mismatch");
            }
        }
        Op::BvAnd
        | Op::BvOr
        | Op::BvXor
        | Op::BvAdd
        | Op::BvSub
        | Op::BvMul
        | Op::BvUdiv
        | Op::BvUrem
        | Op::BvShl
        | Op::BvLshr
        | Op::BvAshr => {
            arity(2)?;
            let w = bv_width(sort)?;
            if bv_width(child(0))? != w || bv_width(child(1))? != w {
                return Err("binary bitvector op width mismatch");
            }
        }
        Op::Concat => {
            arity(2)?;
            let w = bv_width(child(0))?
                .checked_add(bv_width(child(1))?)
                .ok_or("concat width overflow")?;
            if w > 128 || bv_width(sort)? != w {
                return Err("concat width mismatch");
            }
        }
        Op::Extract(hi, lo) => {
            arity(1)?;
            let w = bv_width(child(0))?;
            if lo > hi || *hi >= w || bv_width(sort)? != hi - lo + 1 {
                return Err("extract range invalid");
            }
        }
        Op::ZeroExt | Op::SignExt => {
            arity(1)?;
            if bv_width(sort)? < bv_width(child(0))? {
                return Err("extension narrows its operand");
            }
        }
        Op::IteBv => {
            arity(3)?;
            let w = bv_width(sort)?;
            if child(0) != Sort::Bool || bv_width(child(1))? != w || bv_width(child(2))? != w {
                return Err("IteBv must be Bool-guarded same-width bitvectors");
            }
        }
        Op::UfApply(UfId(k)) => {
            let (args, result) =
                uf_sigs.get(*k as usize).ok_or("UF index out of range")?;
            if children.len() != args.len() {
                return Err("UF arity mismatch");
            }
            for (i, &aw) in args.iter().enumerate() {
                if bv_width(child(i))? != aw {
                    return Err("UF argument width mismatch");
                }
            }
            if bv_width(sort)? != *result {
                return Err("UF result width mismatch");
            }
        }
    }
    Ok(())
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A length-prefixed run of indices.
fn push_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    push_u32(out, vs.len() as u32);
    for &v in vs {
        push_u32(out, v);
    }
}

fn push_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Stable operator tags. Appending new operators is fine; renumbering
/// existing ones changes every key, so it bumps [`WIRE_MAGIC`] (`SW1\0`)
/// and the disk tier's `MAGIC` (`SRVCACH3`) together.
fn encode_node(op: &Op, children: &[u32], sort: Sort, out: &mut Vec<u8>) {
    match op {
        Op::BoolConst(b) => {
            out.push(0);
            out.push(*b as u8);
        }
        Op::BvConst(v) => {
            out.push(1);
            push_u128(out, *v);
        }
        Op::Var(k) => {
            out.push(2);
            push_u32(out, *k);
        }
        Op::Not => out.push(3),
        Op::And => out.push(4),
        Op::Or => out.push(5),
        Op::Xor => out.push(6),
        Op::Iff => out.push(7),
        Op::IteBool => out.push(8),
        Op::Eq => out.push(9),
        Op::Ult => out.push(10),
        Op::Ule => out.push(11),
        Op::Slt => out.push(12),
        Op::Sle => out.push(13),
        Op::BvNot => out.push(14),
        Op::BvNeg => out.push(15),
        Op::BvAnd => out.push(16),
        Op::BvOr => out.push(17),
        Op::BvXor => out.push(18),
        Op::BvAdd => out.push(19),
        Op::BvSub => out.push(20),
        Op::BvMul => out.push(21),
        Op::BvUdiv => out.push(22),
        Op::BvUrem => out.push(23),
        Op::BvShl => out.push(24),
        Op::BvLshr => out.push(25),
        Op::BvAshr => out.push(26),
        Op::Concat => out.push(27),
        Op::Extract(hi, lo) => {
            out.push(28);
            push_u32(out, *hi);
            push_u32(out, *lo);
        }
        Op::ZeroExt => out.push(29),
        Op::SignExt => out.push(30),
        Op::IteBv => out.push(31),
        Op::UfApply(UfId(k)) => {
            out.push(32);
            push_u32(out, *k);
        }
    }
    encode_sort(sort, out);
    push_u32s(out, children);
}

fn encode_sig(args: &[u32], result: u32, out: &mut Vec<u8>) {
    push_u32s(out, args);
    push_u32(out, result);
}

fn encode_sort(s: Sort, out: &mut Vec<u8>) {
    match s {
        Sort::Bool => out.push(0),
        Sort::BitVec(w) => {
            out.push(1);
            push_u32(out, w);
        }
    }
}

// ---------------------------------------------------------------------------
// Retired names. The benchmark package imports these, and only a
// benchmark round may change it: ROADMAP item 3 deletes every item below.
// Nothing outside that package uses them.
// ---------------------------------------------------------------------------

/// Retired: [`Core`] under its old name. ROADMAP item 3 deletes it.
pub type FormCore = Core;

/// Retired: [`prepare`]'s result. ROADMAP item 3 deletes it.
pub struct Prepared {
    /// The query's one-goal core.
    pub core: Core,
    /// Canonical-index → caller-term translation.
    pub backmap: BackMap,
    /// The core's bytes: the query's cache key.
    pub key: Vec<u8>,
}

/// Retired: [`Keyer::chunk`] of one goal on a fresh keyer. ROADMAP item
/// 3 deletes it.
pub fn prepare(assumptions: &[SBool], goal: SBool) -> Prepared {
    let (core, backmap) = Keyer::new().chunk(assumptions, &[goal]);
    Prepared { key: core.bytes().to_vec(), core, backmap }
}

/// Retired: [`prepare`] under its wire name. ROADMAP item 3 deletes it.
pub fn prepare_wire(assumptions: &[SBool], goal: SBool) -> Prepared {
    prepare(assumptions, goal)
}

/// Retired: [`Core::bytes`], copied. ROADMAP item 3 deletes it.
pub fn wire_bytes(core: &Core) -> Vec<u8> {
    core.bytes().to_vec()
}

/// Retired: [`Core::decode`] of a copy. ROADMAP item 3 deletes it.
pub fn wire_from_bytes(bytes: &[u8]) -> Result<Core, &'static str> {
    Core::decode(bytes.to_vec())
}

/// Retired: [`rebuild`]'s result. ROADMAP item 3 deletes it.
pub struct Rebuilt {
    /// The assumptions, then the negated goals.
    pub roots: Vec<SBool>,
}

/// Retired: [`Core::materialize`] with the goals negated, as one root
/// list. ROADMAP item 3 deletes it.
pub fn rebuild(core: &Core) -> Rebuilt {
    let m = core.materialize(true);
    Rebuilt { roots: [m.assumptions, m.goals].concat() }
}

/// Retired: [`rebuild_wire`]'s result. ROADMAP item 3 deletes it.
pub struct WireRebuilt {
    /// The assumptions.
    pub assumptions: Vec<SBool>,
    /// The first goal, un-negated.
    pub goal: SBool,
}

/// Retired: [`Core::materialize`] with the goals as they are. ROADMAP
/// item 3 deletes it.
pub fn rebuild_wire(core: &Core) -> WireRebuilt {
    let m = core.materialize(false);
    WireRebuilt { assumptions: m.assumptions, goal: m.goals[0] }
}
