//! Query normal form: the portable, alpha-invariant serialization of a
//! verification query.
//!
//! Terms live in a *thread-local* hash-consed context (`smt::term`), so a
//! `TermId` means nothing on another thread. To discharge queries on pool
//! workers the engine re-serializes the term DAG reachable from the
//! query's assertion roots into a self-contained [`FormCore`]: nodes in
//! deterministic postorder, symbolic constants renumbered by first
//! encounter, uninterpreted functions likewise. The byte serialization of
//! the query — its *wire bytes* ([`Keyer::wire`], [`wire_bytes`]) — is the
//! **cache key** and the frame a client ships, one normal form for both:
//! two queries that differ only in variable creation order, variable
//! names, or assumption order produce identical bytes, while any
//! structural difference changes them.
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
//! its own buffer, and a [`FormCore`] is built only for a caller that
//! asks ([`Keyer::core`]). [`prepare`], [`prepare_session`] and
//! [`prepare_wire`] are one-shot wrappers over the same keyer.

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

/// One node of the portable term DAG. `children` index into
/// [`FormCore::nodes`]; `Op::Var`/`Op::UfApply` payloads are *canonical*
/// indices, not thread-local ordinals.
#[derive(Clone, Debug, PartialEq)]
pub struct FormNode {
    /// The operator (with canonicalized payload for vars and UFs).
    pub op: Op,
    /// Children as indices into the node array (always smaller than the
    /// node's own index: the array is in postorder).
    pub children: Vec<u32>,
    /// The node's sort.
    pub sort: Sort,
}

/// The portable normal form of a query: everything a worker thread needs
/// to rebuild and solve it in a fresh term context.
#[derive(Clone, Debug)]
pub struct FormCore {
    /// Term DAG in deterministic postorder.
    pub nodes: Vec<FormNode>,
    /// Assertion roots as indices into `nodes`: the assumptions,
    /// deduplicated and canonically ordered, then the negated goal.
    pub roots: Vec<u32>,
    /// Sort of each canonical symbolic constant.
    pub var_sorts: Vec<Sort>,
    /// Signature (argument widths, result width) of each canonical UF.
    pub uf_sigs: Vec<(Vec<u32>, u32)>,
    /// True when some root is the constant `false`: the query is proved
    /// without solving (mirrors the `check` fast path).
    pub trivially_unsat: bool,
}

/// Where a canonical symbolic constant came from in the submitting
/// thread, so counterexample models can be translated back.
#[derive(Clone, Debug)]
pub struct VarOrigin {
    /// The original term id (valid only on the submitting thread).
    pub term: TermId,
    /// Sort of the constant.
    pub sort: Sort,
}

/// Caller-side translation table from canonical indices back to the
/// submitting thread's term context.
#[derive(Clone, Debug, Default)]
pub struct BackMap {
    /// Canonical var index → original constant.
    pub vars: Vec<VarOrigin>,
    /// Canonical UF index → original UF id.
    pub ufs: Vec<UfId>,
}

/// A query reduced to its normal form plus the caller-side back map.
pub struct Prepared {
    /// The portable core (shared with workers).
    pub core: FormCore,
    /// Canonical-index → caller-term translation.
    pub backmap: BackMap,
    /// Cache key: the query's wire bytes ([`Keyer::wire`]).
    pub key: Vec<u8>,
}

/// Whether a constant already proves the query: some assumption is the
/// constant `false`, or the goal is the constant `true` (so its negation
/// is a constant-false root). Exactly [`FormCore::trivially_unsat`], read
/// off the roots alone — nothing is interned, nothing is walked, and a
/// caller that folds on it never needs the query's key.
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

/// What the three portable cores share: the node array and the
/// declarations its canonical indices refer to.
struct Parts {
    nodes: Vec<FormNode>,
    var_sorts: Vec<Sort>,
    uf_sigs: Vec<(Vec<u32>, u32)>,
}

/// The one normalizer: keys, wire-encodes and (on request) builds the
/// portable core of query after query over one set of scratch buffers.
///
/// Lifetime: one batch on one thread. The memo of per-root local keys
/// is indexed by `TermId`, so a keyer must not outlive a `reset_ctx`,
/// and nothing of it is kept between batches. After [`Keyer::wire`],
/// [`Keyer::bytes`], [`Keyer::backmap`] and [`Keyer::core`] describe that
/// query until the next one is keyed.
#[derive(Default)]
pub struct Keyer {
    // Numbering of the walk in progress: term → node index, var ordinal
    // → canonical var, UF id → canonical UF.
    node_of: Stamped,
    var_of: Stamped,
    uf_of: Stamped,
    stack: Vec<TermId>,
    kids: Vec<u32>,
    // The walk's flat output: node index → term, the encoded nodes, the
    // encoded declarations, and the way back to the caller's terms.
    order: Vec<TermId>,
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
    // ordered ones, then the appended ones), whether a constant-false
    // root was seen, and the assembled wire bytes.
    root_ids: Vec<u32>,
    ordered: usize,
    trivially_unsat: bool,
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
        self.order.clear();
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
            self.node_of.insert(t.0, self.order.len() as u32);
            self.order.push(t);
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
        self.trivially_unsat = false;
        // The node table is free until the walk begins: it is the
        // seen-set here.
        self.node_of.clear();
        for t in assumptions.iter().map(|a| a.0) {
            match c.term(t).op {
                // Constant-true roots constrain nothing; drop them so
                // queries differing only in vacuous assumptions
                // normalize identically.
                Op::BoolConst(true) => continue,
                Op::BoolConst(false) => self.trivially_unsat = true,
                _ => {}
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

    /// The one query walk: canonically ordered roots, then `appended`
    /// ones in the order given, under one numbering.
    fn walk_query(&mut self, c: &Ctx, assumptions: &[SBool], appended: &[TermId]) {
        self.order_roots(c, assumptions);
        self.begin();
        self.root_ids.clear();
        self.ordered = self.roots.len();
        for i in 0..self.ordered {
            let id = self.walk(c, self.roots[i].0);
            self.root_ids.push(id);
        }
        for &t in appended {
            let id = self.walk(c, t);
            self.root_ids.push(id);
        }
    }

    /// The encoded declarations: var sorts, then UF signatures.
    fn decls(&self, out: &mut Vec<u8>) {
        push_u32(out, self.backmap.vars.len() as u32);
        out.extend_from_slice(&self.sort_bytes);
        push_u32(out, self.backmap.ufs.len() as u32);
        out.extend_from_slice(&self.sig_bytes);
    }

    /// Wire-encodes `(assumptions, goal)`: the bytes of [`wire_bytes`]
    /// over [`prepare_wire`]'s core, left in the keyer's buffer. They are
    /// the query's cache key and the frame a client ships.
    ///
    /// Must run on the thread that owns the terms.
    pub fn wire(&mut self, assumptions: &[SBool], goal: SBool) -> &[u8] {
        with_ctx(|c| self.walk_query(c, assumptions, &[goal.0]));
        let mut out = std::mem::take(&mut self.bytes);
        out.clear();
        out.extend_from_slice(WIRE_MAGIC);
        self.decls(&mut out);
        push_u32(&mut out, self.order.len() as u32);
        out.extend_from_slice(&self.node_bytes);
        push_u32s(&mut out, &self.root_ids[..self.ordered]);
        push_u32(&mut out, self.root_ids[self.ordered]);
        self.bytes = out;
        &self.bytes
    }

    /// The bytes the last [`Keyer::wire`] assembled.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Canonical-index → caller-term translation of the last query.
    pub fn backmap(&self) -> &BackMap {
        &self.backmap
    }

    /// The last query's walk as owned nodes and declarations. The flat
    /// scratch holds everything but the operators, which are read back
    /// from the context.
    fn parts(&self) -> Parts {
        let numbered = "the walk numbered everything it emitted";
        with_ctx(|c| {
            let node = |&t: &TermId| {
                let term = c.term(t);
                let op = match term.op {
                    Op::Var(ord) => Op::Var(self.var_of.get(ord).expect(numbered)),
                    Op::UfApply(uf) => Op::UfApply(UfId(self.uf_of.get(uf.0).expect(numbered))),
                    ref other => other.clone(),
                };
                let child = |ch: &TermId| self.node_of.get(ch.0).expect(numbered);
                FormNode { op, children: term.children.iter().map(child).collect(), sort: term.sort }
            };
            let sig = |&uf: &UfId| (c.uf_sig(uf).args.clone(), c.uf_sig(uf).result);
            Parts {
                nodes: self.order.iter().map(node).collect(),
                var_sorts: self.backmap.vars.iter().map(|v| v.sort).collect(),
                uf_sigs: self.backmap.ufs.iter().map(sig).collect(),
            }
        })
    }

    /// The solver's core of the query [`Keyer::wire`] last encoded: the
    /// wire walk's nodes plus one `Not` over the goal, asserted after the
    /// assumption roots. Only a caller about to solve it (or ship it to a
    /// worker) needs one.
    pub fn core(&self) -> FormCore {
        let Parts { mut nodes, var_sorts, uf_sigs } = self.parts();
        let goal = self.root_ids[self.ordered];
        let goal_true = nodes[goal as usize].op == Op::BoolConst(true);
        let mut roots = self.root_ids[..self.ordered].to_vec();
        roots.push(nodes.len() as u32);
        nodes.push(FormNode { op: Op::Not, children: vec![goal], sort: Sort::Bool });
        FormCore {
            nodes,
            roots,
            var_sorts,
            uf_sigs,
            trivially_unsat: self.trivially_unsat || goal_true,
        }
    }
}

/// Extracts the solver's core of `assumptions ∧ ¬goal`, keyed by the
/// query's wire bytes.
///
/// Must run on the thread that owns the terms.
pub fn prepare(assumptions: &[SBool], goal: SBool) -> Prepared {
    let mut keyer = Keyer::new();
    let key = keyer.wire(assumptions, goal).to_vec();
    Prepared { core: keyer.core(), backmap: keyer.backmap, key }
}

/// The portable normal form of an incremental discharge session: the
/// shared assumption set (as canonically ordered base roots) plus one
/// *negated-goal* root per goal, all sharing a single node array so the
/// worker materializes every term exactly once.
#[derive(Clone, Debug)]
pub struct SessionCore {
    /// Term DAG in deterministic postorder (base roots first).
    pub nodes: Vec<FormNode>,
    /// Shared assumption roots, deduplicated and canonically ordered.
    pub base_roots: Vec<u32>,
    /// One entry per goal, in submission order: the node index of the
    /// goal's *negation* (what the session solver asserts behind the
    /// goal's activation literal).
    pub goal_roots: Vec<u32>,
    /// Sort of each canonical symbolic constant.
    pub var_sorts: Vec<Sort>,
    /// Signature (argument widths, result width) of each canonical UF.
    pub uf_sigs: Vec<(Vec<u32>, u32)>,
}

/// A session reduced to its portable core plus the caller-side back map.
///
/// There is deliberately no cache key here: sessions are never cached as
/// a unit — the engine consults the cache per sub-query (using
/// each sub-query's own [`Prepared::key`]) before deciding what reaches
/// a session at all.
pub struct SessionPrepared {
    /// The portable core (shared with the worker).
    pub core: SessionCore,
    /// Canonical-index → caller-term translation, covering every var and
    /// UF reachable from the base *or any* goal.
    pub backmap: BackMap,
}

/// Extracts the portable form of a session: `assumptions` shared by all
/// of `goals` (each goal is negated here, on the caller thread, so the
/// worker can assert it directly).
///
/// Must run on the thread that owns the terms.
pub fn prepare_session(assumptions: &[SBool], goals: &[SBool]) -> SessionPrepared {
    let negated: Vec<TermId> = goals.iter().map(|&g| (!g).0).collect();
    let mut keyer = Keyer::new();
    with_ctx(|c| keyer.walk_query(c, assumptions, &negated));
    let Parts { nodes, var_sorts, uf_sigs } = keyer.parts();
    let goal_roots = keyer.root_ids.split_off(keyer.ordered);
    SessionPrepared {
        core: SessionCore { nodes, base_roots: keyer.root_ids, goal_roots, var_sorts, uf_sigs },
        backmap: keyer.backmap,
    }
}

/// Rebuilds a [`FormCore`] inside the *current* thread's term context.
pub struct Rebuilt {
    /// The assertion roots, ready for `smt::check_full`.
    pub roots: Vec<SBool>,
    /// Canonical var index → term in this thread's context.
    pub var_terms: Vec<TermId>,
    /// Canonical UF index → UF id in this thread's context.
    pub uf_ids: Vec<UfId>,
}

/// Interns a portable node array into `c`, declaring canonical UFs and
/// vars along the way. Returns (node index → term, var terms, UF ids).
fn materialize(
    c: &mut Ctx,
    nodes: &[FormNode],
    var_sorts: &[Sort],
    uf_sigs: &[(Vec<u32>, u32)],
) -> (Vec<TermId>, Vec<TermId>, Vec<UfId>) {
    let uf_ids: Vec<UfId> = uf_sigs
        .iter()
        .enumerate()
        .map(|(i, (args, result))| c.declare_uf(&format!("uf{i}"), args.clone(), *result))
        .collect();
    let mut var_terms: Vec<TermId> = vec![TermId(0); var_sorts.len()];
    let mut ids: Vec<TermId> = Vec::with_capacity(nodes.len());
    let mut children: Vec<TermId> = Vec::new();
    for node in nodes {
        children.clear();
        children.extend(node.children.iter().map(|&i| ids[i as usize]));
        let id = match node.op {
            // Each canonical var appears as exactly one node, so this
            // assigns every `var_terms` slot exactly once.
            Op::Var(k) => {
                let t = c.fresh_var(node.sort, &format!("q{k}"));
                var_terms[k as usize] = t;
                t
            }
            Op::UfApply(UfId(k)) => c.intern(Op::UfApply(uf_ids[k as usize]), &children, node.sort),
            ref op => c.intern(op.clone(), &children, node.sort),
        };
        ids.push(id);
    }
    (ids, var_terms, uf_ids)
}

/// Materializes the portable form as real terms on the current thread.
pub fn rebuild(core: &FormCore) -> Rebuilt {
    with_ctx(|c| {
        let (ids, var_terms, uf_ids) =
            materialize(c, &core.nodes, &core.var_sorts, &core.uf_sigs);
        Rebuilt {
            roots: core.roots.iter().map(|&r| SBool(ids[r as usize])).collect(),
            var_terms,
            uf_ids,
        }
    })
}

/// A [`SessionCore`] rebuilt inside the current thread's term context.
pub struct SessionRebuilt {
    /// The shared assumptions, ready for [`serval_smt::Session::assume`].
    pub base: Vec<SBool>,
    /// The *negated* goals, in submission order, ready for
    /// [`serval_smt::Session::solve_negated`].
    pub neg_goals: Vec<SBool>,
    /// Canonical var index → term in this thread's context.
    pub var_terms: Vec<TermId>,
    /// Canonical UF index → UF id in this thread's context.
    pub uf_ids: Vec<UfId>,
}

/// Materializes a session core as real terms on the current thread.
pub fn rebuild_session(core: &SessionCore) -> SessionRebuilt {
    with_ctx(|c| {
        let (ids, var_terms, uf_ids) =
            materialize(c, &core.nodes, &core.var_sorts, &core.uf_sigs);
        SessionRebuilt {
            base: core.base_roots.iter().map(|&r| SBool(ids[r as usize])).collect(),
            neg_goals: core
                .goal_roots
                .iter()
                .map(|&r| SBool(ids[r as usize]))
                .collect(),
            var_terms,
            uf_ids,
        }
    })
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
// Wire form: the one serialization of a query, for the cache and the
// network alike.
//
// A solver wants `assumptions ∧ ¬goal` as one root set ([`FormCore`]),
// but the pipeline in front of it — presolve, splitting, sessions —
// treats the goal specially, and so does a server re-running it. The
// wire core therefore keeps assumption roots and the (un-negated) goal
// root separate, and `wire_bytes`/`wire_from_bytes` give it a
// versioned, *validated* byte encoding — the decoder must
// survive arbitrary adversarial bytes, because it sits behind a TCP
// socket, so every structural invariant the builders establish
// (arities, sorts, widths, postorder child indices, var/UF consistency)
// is re-checked before a single term is interned.
// ---------------------------------------------------------------------------

/// The network-portable form of a query: assumption roots plus the
/// un-negated goal root over one shared postorder node array. The byte
/// encoding ([`wire_bytes`]) is alpha-invariant and is the engine's
/// cache key, so a server routes on the raw frame bytes and answers a
/// repeat from its home shard's cache under them.
#[derive(Clone, Debug, PartialEq)]
pub struct WireCore {
    /// Term DAG in deterministic postorder.
    pub nodes: Vec<FormNode>,
    /// Assumption roots (deduplicated, canonically ordered).
    pub asm_roots: Vec<u32>,
    /// The goal root (NOT negated — the server's engine negates it).
    pub goal_root: u32,
    /// Sort of each canonical symbolic constant.
    pub var_sorts: Vec<Sort>,
    /// Signature (argument widths, result width) of each canonical UF.
    pub uf_sigs: Vec<(Vec<u32>, u32)>,
}

/// A query reduced to wire form plus the client-side back map.
pub struct WirePrepared {
    /// The portable core.
    pub core: WireCore,
    /// Canonical-index → caller-term translation (for countermodels).
    pub backmap: BackMap,
}

/// Extracts the wire form of `(assumptions, goal)`.
///
/// Must run on the thread that owns the terms.
pub fn prepare_wire(assumptions: &[SBool], goal: SBool) -> WirePrepared {
    let mut keyer = Keyer::new();
    keyer.wire(assumptions, goal);
    let Parts { nodes, var_sorts, uf_sigs } = keyer.parts();
    let goal_root = keyer.root_ids.pop().expect("the goal is the last root walked");
    WirePrepared {
        core: WireCore { nodes, asm_roots: keyer.root_ids, goal_root, var_sorts, uf_sigs },
        backmap: keyer.backmap,
    }
}

/// A [`WireCore`] rebuilt inside the current thread's term context.
pub struct WireRebuilt {
    /// The assumptions, as real terms.
    pub assumptions: Vec<SBool>,
    /// The goal, as a real term.
    pub goal: SBool,
    /// Canonical-index → this-thread translation, so a server can
    /// project solver models back onto the *wire* numbering before
    /// shipping them to the client.
    pub backmap: BackMap,
}

/// Materializes a wire core as real terms on the current thread.
pub fn rebuild_wire(core: &WireCore) -> WireRebuilt {
    with_ctx(|c| {
        let (ids, var_terms, uf_ids) =
            materialize(c, &core.nodes, &core.var_sorts, &core.uf_sigs);
        let backmap = BackMap {
            vars: var_terms
                .iter()
                .zip(&core.var_sorts)
                .map(|(&term, &sort)| VarOrigin { term, sort })
                .collect(),
            ufs: uf_ids,
        };
        WireRebuilt {
            assumptions: core.asm_roots.iter().map(|&r| SBool(ids[r as usize])).collect(),
            goal: SBool(ids[core.goal_root as usize]),
            backmap,
        }
    })
}

/// Wire encoding version tag. Bump when the node encoding changes.
const WIRE_MAGIC: &[u8; 4] = b"SW1\0";

/// Serializes a wire core. Layout (all integers little-endian):
/// magic, var sorts, UF signatures, nodes, assumption roots, goal root —
/// declarations before nodes so [`wire_from_bytes`] validates in one
/// pass.
pub fn wire_bytes(core: &WireCore) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(WIRE_MAGIC);
    encode_decls(&core.var_sorts, &core.uf_sigs, &mut out);
    encode_nodes(&core.nodes, &mut out);
    push_u32s(&mut out, &core.asm_roots);
    push_u32(&mut out, core.goal_root);
    out
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
            1 => {
                let w = self.u32()?;
                if !(1..=128).contains(&w) {
                    return Err("bitvector width out of range");
                }
                Ok(Sort::BitVec(w))
            }
            _ => Err("unknown sort tag"),
        }
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

/// Decodes and fully validates a wire core from untrusted bytes.
///
/// Success means the core satisfies every invariant `materialize`
/// assumes: postorder child indices, in-range var/UF references with
/// consistent sorts, builder-legal arities and widths, Bool roots. On
/// any violation the *whole* core is rejected — no partial decode.
pub fn wire_from_bytes(bytes: &[u8]) -> Result<WireCore, &'static str> {
    if bytes.len() < 4 || &bytes[..4] != WIRE_MAGIC {
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
            let w = rd.u32()?;
            if !(1..=128).contains(&w) {
                return Err("UF argument width out of range");
            }
            args.push(w);
        }
        let result = rd.u32()?;
        if !(1..=128).contains(&result) {
            return Err("UF result width out of range");
        }
        uf_sigs.push((args, result));
    }
    let n_nodes = rd.count(6)?;
    let mut nodes: Vec<FormNode> = Vec::with_capacity(n_nodes);
    let mut sorts: Vec<Sort> = Vec::with_capacity(n_nodes);
    for idx in 0..n_nodes {
        let op = match rd.u8()? {
            0 => match rd.u8()? {
                0 => Op::BoolConst(false),
                1 => Op::BoolConst(true),
                _ => return Err("bool constant payload invalid"),
            },
            1 => Op::BvConst(rd.u128()?),
            2 => Op::Var(rd.u32()?),
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
                let hi = rd.u32()?;
                let lo = rd.u32()?;
                Op::Extract(hi, lo)
            }
            29 => Op::ZeroExt,
            30 => Op::SignExt,
            31 => Op::IteBv,
            32 => Op::UfApply(UfId(rd.u32()?)),
            _ => return Err("unknown operator tag"),
        };
        let sort = rd.sort()?;
        let n_children = rd.count(4)?;
        let mut children = Vec::with_capacity(n_children);
        for _ in 0..n_children {
            let c = rd.u32()?;
            if c as usize >= idx {
                return Err("child index breaks postorder");
            }
            children.push(c);
        }
        check_node(&op, &children, sort, &sorts, &var_sorts, &uf_sigs)?;
        sorts.push(sort);
        nodes.push(FormNode { op, children, sort });
    }
    let n_asm = rd.count(4)?;
    let mut asm_roots = Vec::with_capacity(n_asm);
    for _ in 0..n_asm {
        let r = rd.u32()?;
        if sorts.get(r as usize) != Some(&Sort::Bool) {
            return Err("assumption root must be an in-range Bool node");
        }
        asm_roots.push(r);
    }
    let goal_root = rd.u32()?;
    if sorts.get(goal_root as usize) != Some(&Sort::Bool) {
        return Err("goal root must be an in-range Bool node");
    }
    if rd.at != bytes.len() {
        return Err("trailing garbage after wire core");
    }
    Ok(WireCore { nodes, asm_roots, goal_root, var_sorts, uf_sigs })
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
/// existing ones invalidates on-disk caches (bump the `SQ` version).
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

/// A length-prefixed node array, as both encodings carry it.
fn encode_nodes(nodes: &[FormNode], out: &mut Vec<u8>) {
    push_u32(out, nodes.len() as u32);
    for n in nodes {
        encode_node(&n.op, &n.children, n.sort, out);
    }
}

/// Var sorts, then UF signatures: the declarations of a core.
fn encode_decls(var_sorts: &[Sort], uf_sigs: &[(Vec<u32>, u32)], out: &mut Vec<u8>) {
    push_u32(out, var_sorts.len() as u32);
    for &s in var_sorts {
        encode_sort(s, out);
    }
    push_u32(out, uf_sigs.len() as u32);
    for (args, result) in uf_sigs {
        encode_sig(args, *result, out);
    }
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
