//! Query normal form: the portable, alpha-invariant serialization of a
//! verification query.
//!
//! Terms live in a *thread-local* hash-consed context (`smt::term`), so a
//! `TermId` means nothing on another thread. To discharge queries on pool
//! workers the engine re-serializes the term DAG reachable from the
//! query's assertion roots into a self-contained [`FormCore`]: nodes in
//! deterministic postorder, symbolic constants renumbered by first
//! encounter, uninterpreted functions likewise. The byte serialization of
//! that core is the **cache key** — two queries that differ only in
//! variable creation order, variable names, or assumption order produce
//! identical keys, while any structural difference changes the bytes.
//!
//! Soundness: the key *is* the full serialization, so key equality
//! implies the queries are alpha-equivalent (same proof obligation). The
//! converse does not quite hold — assumption roots are ordered by a
//! per-root local key, and two distinct roots with identical local keys
//! keep their submission order, so symmetric queries may occasionally
//! miss the cache. A miss is only a wasted solve, never a wrong verdict.

use serval_smt::bv::SBool;
use serval_smt::solver::SolverConfig;
use serval_smt::term::{with_ctx, Ctx, Op, Sort, Term, TermId, UfId};
use std::collections::HashMap;

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
    /// Assertion roots (assumptions plus negated goal), deduplicated and
    /// canonically ordered, as indices into `nodes`.
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
    /// Cache key: the byte serialization of `core`.
    pub key: Vec<u8>,
}

/// Postorder-normalization state shared by [`prepare`] (one root set) and
/// [`prepare_session`] (base roots plus a stream of negated-goal roots):
/// one global numbering across every root fed in, with vars and UFs
/// renumbered by first encounter.
#[derive(Default)]
struct Normalizer {
    node_of: HashMap<TermId, u32>,
    nodes: Vec<FormNode>,
    var_of: HashMap<u32, u32>,
    uf_of: HashMap<u32, u32>,
    backmap: BackMap,
    var_sorts: Vec<Sort>,
    uf_sigs: Vec<(Vec<u32>, u32)>,
}

impl Normalizer {
    /// Serializes the DAG under `root` (skipping already-numbered nodes)
    /// and returns the root's node index.
    fn add_root(&mut self, root: TermId) -> u32 {
        let mut stack = vec![root];
        while let Some(&t) = stack.last() {
            if self.node_of.contains_key(&t) {
                stack.pop();
                continue;
            }
            let (op, children, sort) = fetch(t);
            let pending: Vec<TermId> = children
                .iter()
                .copied()
                .filter(|c| !self.node_of.contains_key(c))
                .collect();
            if !pending.is_empty() {
                stack.extend(pending);
                continue;
            }
            let op = match op {
                Op::Var(ord) => {
                    let k = match self.var_of.get(&ord) {
                        Some(&k) => k,
                        None => {
                            let k = self.var_sorts.len() as u32;
                            self.backmap.vars.push(VarOrigin { term: t, sort });
                            self.var_sorts.push(sort);
                            self.var_of.insert(ord, k);
                            k
                        }
                    };
                    Op::Var(k)
                }
                Op::UfApply(uf) => {
                    let k = match self.uf_of.get(&uf.0) {
                        Some(&k) => k,
                        None => {
                            let k = self.uf_sigs.len() as u32;
                            let (args, result) =
                                with_ctx(|c| (c.uf_sig(uf).args.clone(), c.uf_sig(uf).result));
                            self.backmap.ufs.push(uf);
                            self.uf_sigs.push((args, result));
                            self.uf_of.insert(uf.0, k);
                            k
                        }
                    };
                    Op::UfApply(UfId(k))
                }
                other => other,
            };
            let children: Vec<u32> = children.iter().map(|c| self.node_of[c]).collect();
            self.node_of.insert(t, self.nodes.len() as u32);
            self.nodes.push(FormNode { op, children, sort });
            stack.pop();
        }
        self.node_of[&root]
    }
}

/// Deduplicates the non-trivial roots in `roots` and orders them by their
/// per-root alpha-invariant key, so submission order cannot influence the
/// normal form.
fn canonical_roots(roots: impl Iterator<Item = SBool>) -> Vec<TermId> {
    let mut uniq: Vec<TermId> = Vec::new();
    for a in roots {
        // Constant-true roots constrain nothing; drop them so queries
        // differing only in vacuous assumptions normalize identically.
        if !a.is_true() && !uniq.contains(&a.0) {
            uniq.push(a.0);
        }
    }
    let mut keyed: Vec<(Vec<u8>, TermId)> =
        uniq.into_iter().map(|r| (local_key(r), r)).collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// Extracts the normal form of `assumptions ∧ ¬goal`.
///
/// Must run on the thread that owns the terms.
pub fn prepare(assumptions: &[SBool], goal: SBool) -> Prepared {
    let negated_goal = !goal;
    let all = || assumptions.iter().copied().chain([negated_goal]);
    let trivially_unsat = all().any(|a| a.is_false());
    let mut nz = Normalizer::default();
    let root_ids: Vec<u32> = canonical_roots(all())
        .into_iter()
        .map(|r| nz.add_root(r))
        .collect();
    let core = FormCore {
        nodes: nz.nodes,
        roots: root_ids,
        var_sorts: nz.var_sorts,
        uf_sigs: nz.uf_sigs,
        trivially_unsat,
    };
    let key = cache_key(&core);
    Prepared { core, backmap: nz.backmap, key }
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
    let mut nz = Normalizer::default();
    let base_roots: Vec<u32> = canonical_roots(assumptions.iter().copied())
        .into_iter()
        .map(|r| nz.add_root(r))
        .collect();
    let goal_roots: Vec<u32> = goals.iter().map(|&g| nz.add_root((!g).0)).collect();
    SessionPrepared {
        core: SessionCore {
            nodes: nz.nodes,
            base_roots,
            goal_roots,
            var_sorts: nz.var_sorts,
            uf_sigs: nz.uf_sigs,
        },
        backmap: nz.backmap,
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
    for node in nodes {
        let children: Vec<TermId> = node.children.iter().map(|&i| ids[i as usize]).collect();
        let id = match node.op {
            // Each canonical var appears as exactly one node, so this
            // assigns every `var_terms` slot exactly once.
            Op::Var(k) => {
                let t = c.fresh_var(node.sort, &format!("q{k}"));
                var_terms[k as usize] = t;
                t
            }
            Op::UfApply(UfId(k)) => c.intern(Term {
                op: Op::UfApply(uf_ids[k as usize]),
                children,
                sort: node.sort,
            }),
            ref op => c.intern(Term {
                op: op.clone(),
                children,
                sort: node.sort,
            }),
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

/// Per-root alpha-invariant key, used only to order assertion roots.
fn local_key(root: TermId) -> Vec<u8> {
    let mut local: HashMap<TermId, u32> = HashMap::new();
    let mut var_of: HashMap<u32, u32> = HashMap::new();
    let mut uf_of: HashMap<u32, u32> = HashMap::new();
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(&t) = stack.last() {
        if local.contains_key(&t) {
            stack.pop();
            continue;
        }
        let (op, children, sort) = fetch(t);
        let pending: Vec<TermId> = children
            .iter()
            .copied()
            .filter(|c| !local.contains_key(c))
            .collect();
        if !pending.is_empty() {
            stack.extend(pending);
            continue;
        }
        let op = match op {
            Op::Var(ord) => {
                let n = var_of.len() as u32;
                Op::Var(*var_of.entry(ord).or_insert(n))
            }
            Op::UfApply(uf) => {
                let n = uf_of.len() as u32;
                Op::UfApply(UfId(*uf_of.entry(uf.0).or_insert(n)))
            }
            other => other,
        };
        let ids: Vec<u32> = children.iter().map(|c| local[c]).collect();
        encode_node(&op, &ids, sort, &mut out);
        local.insert(t, local.len() as u32);
        stack.pop();
    }
    out
}

/// The cache key: a versioned, deterministic byte serialization of the
/// whole core. The solver configuration is deliberately *not* part of
/// the key — only definitive verdicts (proved / refuted) are cached, and
/// those are independent of search parameters.
pub fn cache_key(core: &FormCore) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"SQ1\0");
    push_u32(&mut out, core.nodes.len() as u32);
    for n in &core.nodes {
        encode_node(&n.op, &n.children, n.sort, &mut out);
    }
    push_u32(&mut out, core.roots.len() as u32);
    for &r in &core.roots {
        push_u32(&mut out, r);
    }
    push_u32(&mut out, core.var_sorts.len() as u32);
    for &s in &core.var_sorts {
        encode_sort(s, &mut out);
    }
    push_u32(&mut out, core.uf_sigs.len() as u32);
    for (args, result) in &core.uf_sigs {
        push_u32(&mut out, args.len() as u32);
        for &a in args {
            push_u32(&mut out, a);
        }
        push_u32(&mut out, *result);
    }
    out.push(core.trivially_unsat as u8);
    out
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
    let mut out: Vec<SBool> = Vec::new();
    let mut stack = vec![goal.0];
    while let Some(t) = stack.pop() {
        let (op, children, _) = fetch(t);
        if matches!(op, Op::And) && out.len() + stack.len() + children.len() <= cap {
            // Reversed push keeps the conjuncts in left-to-right order.
            for &ch in children.iter().rev() {
                stack.push(ch);
            }
        } else {
            out.push(SBool(t));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Wire form: the network-portable serialization of a query.
//
// The cache form above merges `assumptions ∧ ¬goal` into one root set,
// which is exactly what a solver wants but loses the assumption/goal
// distinction a *server* needs: the receiving engine re-runs the full
// presolve/split/session pipeline, and those stages treat the goal
// specially. The wire core therefore keeps assumption roots and the
// (un-negated) goal root separate, and `wire_bytes`/`wire_from_bytes`
// give it a versioned, *validated* byte encoding — the decoder must
// survive arbitrary adversarial bytes, because it sits behind a TCP
// socket, so every structural invariant the builders establish
// (arities, sorts, widths, postorder child indices, var/UF consistency)
// is re-checked before a single term is interned.
// ---------------------------------------------------------------------------

/// The network-portable form of a query: assumption roots plus the
/// un-negated goal root over one shared postorder node array. The byte
/// encoding ([`wire_bytes`]) is alpha-invariant for the same reason the
/// cache key is, so servers can key routing and hot-query detection on
/// the raw frame bytes.
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
    let mut nz = Normalizer::default();
    let asm_roots: Vec<u32> = canonical_roots(assumptions.iter().copied())
        .into_iter()
        .map(|r| nz.add_root(r))
        .collect();
    let goal_root = nz.add_root(goal.0);
    WirePrepared {
        core: WireCore {
            nodes: nz.nodes,
            asm_roots,
            goal_root,
            var_sorts: nz.var_sorts,
            uf_sigs: nz.uf_sigs,
        },
        backmap: nz.backmap,
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
    push_u32(&mut out, core.var_sorts.len() as u32);
    for &s in &core.var_sorts {
        encode_sort(s, &mut out);
    }
    push_u32(&mut out, core.uf_sigs.len() as u32);
    for (args, result) in &core.uf_sigs {
        push_u32(&mut out, args.len() as u32);
        for &a in args {
            push_u32(&mut out, a);
        }
        push_u32(&mut out, *result);
    }
    push_u32(&mut out, core.nodes.len() as u32);
    for n in &core.nodes {
        encode_node(&n.op, &n.children, n.sort, &mut out);
    }
    push_u32(&mut out, core.asm_roots.len() as u32);
    for &r in &core.asm_roots {
        push_u32(&mut out, r);
    }
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

fn fetch(t: TermId) -> (Op, Vec<TermId>, Sort) {
    with_ctx(|c| {
        let n = c.term(t);
        (n.op.clone(), n.children.clone(), n.sort)
    })
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
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
    push_u32(out, children.len() as u32);
    for &c in children {
        push_u32(out, c);
    }
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
