//! Tseitin bit-blasting of the term DAG to CNF.
//!
//! Each bitvector term becomes a vector of SAT literals (LSB first); each
//! boolean term becomes a single literal. The traversal is iterative and
//! memoized, so shared subterms are encoded once and arbitrarily deep DAGs
//! (long straight-line machine-code runs) do not overflow the stack.
//!
//! Uninterpreted functions are eliminated by Ackermann expansion: each
//! syntactically distinct application gets fresh result literals, and for
//! every pair of applications of the same function a congruence constraint
//! `args equal → results equal` is added in [`Blaster::finalize`].
//!
//! # Polarity-aware encoding (Plaisted–Greenbaum)
//!
//! With [`Blaster::set_polarity`] enabled, gate definition clauses are not
//! written to the solver eagerly. Each gate registers two clause buckets:
//! *forward* (clauses containing the negated output, constraining the
//! definition when the output is true) and *backward* (clauses containing
//! the positive output). A use of the output literal in some emitted
//! clause pulls in only the bucket for that polarity, and the literals of
//! the emitted clauses are themselves uses, so exactly the reachable
//! polarity cone materializes. Single-polarity gates — the common case in
//! verification-condition CNF, where the root is asserted one way — emit
//! half their clauses, and gates of unreachable polarity emit nothing.
//!
//! Satisfying assignments of the reduced CNF still extend to the full
//! Tseitin encoding: an unemitted direction only ever relaxes a gate
//! output, which can be fixed by evaluating the gate's semantics over its
//! (fully constrained) inputs.

use crate::term::{mask, Op, Sort, TermId, UfId};
use crate::with_ctx;
use serval_sat::{Lit, Solver, Var};
use std::collections::{HashMap, HashSet};

/// Most clauses any gate primitive defines itself by (`xor`, `mux`).
const GATE_CLAUSES: usize = 4;
/// Most literals in one of them.
const GATE_WIDTH: usize = 3;

/// Pending definition clauses of one Tseitin gate, bucketed by the output
/// polarity that needs them (see the module docs). Stored inline — every
/// gate variable gets one of these, and a vector per bucket and per
/// clause made gate registration the blaster's dominant allocation cost.
#[derive(Clone, Copy)]
struct Gate {
    clauses: [[Lit; GATE_WIDTH]; GATE_CLAUSES],
    /// Literals used in each clause; 0 past the last clause.
    lens: [u8; GATE_CLAUSES],
    /// Bit `i`: clause `i` contains the *negated* output (`out →
    /// definition`, the forward bucket); otherwise it contains the
    /// positive output (`definition → out`, the backward bucket).
    fwd: u8,
    /// Bit 1: fwd emitted; bit 2: bwd emitted.
    emitted: u8,
}

/// Incremental bit-blaster writing clauses into a [`serval_sat::Solver`].
pub struct Blaster {
    bool_map: HashMap<TermId, Lit>,
    bv_map: HashMap<TermId, Vec<Lit>>,
    lit_true: Option<Lit>,
    /// Per-UF list of `(argument bits, result bits)` for Ackermann.
    uf_apps: HashMap<UfId, Vec<(TermId, Vec<Vec<Lit>>, Vec<Lit>)>>,
    /// Number of congruence pairs already emitted per UF (supports
    /// incremental finalize).
    uf_done: HashMap<UfId, usize>,
    /// Memoized restoring-division circuits, keyed by the operand term
    /// pair: `udiv` and `urem` of the same operands (the ubiquitous
    /// `q*b + r == a` pattern) share one gate instead of blasting two.
    divrem: HashMap<(TermId, TermId), (Vec<Lit>, Vec<Lit>)>,
    /// Per-term SAT-variable range `[lo, hi)` allocated while encoding
    /// that term (children excluded — they are encoded first). Feeds
    /// [`Blaster::mark_cone_vars`], the decision-scope computation for
    /// incremental sessions.
    var_range: HashMap<TermId, (u32, u32)>,
    /// Terms whose encodings share SAT variables: `bvudiv`/`bvurem` of
    /// the same operands share one divider circuit, allocated inside the
    /// *first* encoder's variable range. A session must not purge one
    /// partner's variables while another is still live.
    coupled: HashMap<TermId, Vec<TermId>>,
    /// First term to encode each `divrem` circuit (the range owner).
    divrem_owner: HashMap<(TermId, TermId), TermId>,
    /// Plaisted–Greenbaum registry: gate output var → pending definition
    /// clauses. Only populated when `polarity` is on.
    gates: HashMap<Var, Gate>,
    /// Whether to defer gate clauses by polarity (see the module docs).
    polarity: bool,
    /// Worklist of [`Blaster::use_lit`], kept for its buffer.
    use_work: Vec<Lit>,
}

impl Default for Blaster {
    fn default() -> Self {
        Self::new()
    }
}

impl Blaster {
    /// Creates an empty blaster.
    pub fn new() -> Blaster {
        Blaster {
            bool_map: HashMap::new(),
            bv_map: HashMap::new(),
            lit_true: None,
            uf_apps: HashMap::new(),
            uf_done: HashMap::new(),
            divrem: HashMap::new(),
            var_range: HashMap::new(),
            coupled: HashMap::new(),
            divrem_owner: HashMap::new(),
            gates: HashMap::new(),
            polarity: false,
            use_work: Vec::new(),
        }
    }

    /// Enables or disables Plaisted–Greenbaum polarity-aware encoding.
    /// Must be called before the first term is blasted; toggling
    /// mid-encoding would strand already-registered gate buckets.
    pub fn set_polarity(&mut self, on: bool) {
        debug_assert!(
            self.bool_map.is_empty() && self.bv_map.is_empty(),
            "set_polarity after encoding started"
        );
        self.polarity = on;
    }

    /// Registers (or, with polarity analysis off, immediately emits) the
    /// definition clauses of a gate with output variable `out`.
    fn define_gate(&mut self, sat: &mut Solver, out: Var, clauses: &[&[Lit]]) {
        if !self.polarity {
            for c in clauses {
                sat.add_clause(c);
            }
            return;
        }
        let mut gate = Gate {
            clauses: [[Lit(0); GATE_WIDTH]; GATE_CLAUSES],
            lens: [0; GATE_CLAUSES],
            fwd: 0,
            emitted: 0,
        };
        for (i, c) in clauses.iter().enumerate() {
            gate.clauses[i][..c.len()].copy_from_slice(c);
            gate.lens[i] = c.len() as u8;
            if c.iter().any(|l| l.var() == out && l.is_neg()) {
                gate.fwd |= 1 << i;
            }
        }
        self.gates.insert(out, gate);
    }

    /// Records that literal `l` occurs in an emitted clause, flushing the
    /// matching definition bucket of its gate (and, transitively, of every
    /// gate whose output appears in those clauses). A no-op for input
    /// variables and with polarity analysis off.
    pub fn use_lit(&mut self, sat: &mut Solver, l: Lit) {
        if !self.polarity {
            return;
        }
        let mut work = std::mem::take(&mut self.use_work);
        work.clear();
        work.push(l);
        while let Some(l) = work.pop() {
            let v = l.var();
            let Some(gate) = self.gates.get_mut(&v) else {
                continue;
            };
            let bit = if l.is_neg() { 2 } else { 1 };
            if gate.emitted & bit != 0 {
                continue;
            }
            gate.emitted |= bit;
            let gate = *gate;
            // A positive use needs the forward bucket, a negative use
            // the backward one.
            let want_fwd = !l.is_neg();
            for i in 0..GATE_CLAUSES {
                let c = &gate.clauses[i][..gate.lens[i] as usize];
                if c.is_empty() || (gate.fwd >> i & 1 == 1) != want_fwd {
                    continue;
                }
                sat.add_clause(c);
                work.extend(c.iter().filter(|x| x.var() != v));
            }
        }
        self.use_work = work;
    }

    /// Adds a non-definition clause (an assertion, guard, or congruence
    /// constraint), first flushing the gate directions its literals need.
    fn emit_clause(&mut self, sat: &mut Solver, lits: &[Lit]) {
        for &l in lits {
            self.use_lit(sat, l);
        }
        sat.add_clause(lits);
    }

    /// Terms that share allocated SAT variables with `t` (see
    /// [`Blaster::coupled`]); empty for almost every term.
    pub fn coupled_terms(&self, t: TermId) -> &[TermId] {
        self.coupled.get(&t).map_or(&[], Vec::as_slice)
    }

    /// Forgets a purged term's encoding: the memoized literals, the
    /// variable range, and any division circuit the term owns are
    /// dropped, so a later re-mention re-encodes the term with fresh
    /// variables instead of handing out gate literals whose defining
    /// clauses were purged (which would leave the goal unconstrained).
    /// Ackermann application records and polarity gate buckets are
    /// deliberately kept: re-emitting them only ever adds conservative
    /// constraints over now-unconstrained variables.
    pub fn forget_term(&mut self, t: TermId) {
        self.bool_map.remove(&t);
        self.bv_map.remove(&t);
        self.var_range.remove(&t);
        self.coupled.remove(&t);
        let owned: Vec<(TermId, TermId)> = self
            .divrem_owner
            .iter()
            .filter_map(|(&k, &o)| (o == t).then_some(k))
            .collect();
        for k in owned {
            self.divrem.remove(&k);
            self.divrem_owner.remove(&k);
        }
    }

    /// Marks the SAT variables allocated while encoding exactly `t`
    /// (children excluded). Returns whether anything was marked.
    pub fn mark_term_vars(&self, t: TermId, mask: &mut [bool]) -> bool {
        let Some(&(lo, hi)) = self.var_range.get(&t) else {
            return false;
        };
        let hi = (hi as usize).min(mask.len());
        for m in &mut mask[(lo as usize).min(hi)..hi] {
            *m = true;
        }
        hi > lo as usize
    }

    /// Marks in `mask` every SAT variable allocated while encoding a
    /// term reachable from `roots`; `visited` carries the walk's memo so
    /// a session can seed it with the base cone once and extend it per
    /// goal. Variables past `mask.len()` are ignored.
    ///
    /// Auxiliary variables not tied to a term (Ackermann congruence
    /// circuits, the constant-true literal, activation literals) are
    /// deliberately left unmarked: they are either assigned at level 0
    /// or functionally determined by unit propagation once their inputs
    /// are, so the decision scope never needs to branch on them.
    pub fn mark_cone_vars(
        &self,
        roots: impl Iterator<Item = TermId>,
        visited: &mut HashSet<TermId>,
        mask: &mut [bool],
    ) {
        self.mark_cone_vars_skipping(roots, visited, &HashSet::new(), mask)
    }

    /// [`Blaster::mark_cone_vars`] with a read-only `skip` set: terms in
    /// `skip` are treated as already visited without mutating it. Lets a
    /// session walk each goal's cone against the (large, fixed) base
    /// cone without cloning the base memo per goal.
    pub fn mark_cone_vars_skipping(
        &self,
        roots: impl Iterator<Item = TermId>,
        visited: &mut HashSet<TermId>,
        skip: &HashSet<TermId>,
        mask: &mut [bool],
    ) {
        let mut stack: Vec<TermId> = roots
            .filter(|&t| !skip.contains(&t) && visited.insert(t))
            .collect();
        while let Some(t) = stack.pop() {
            if let Some(&(lo, hi)) = self.var_range.get(&t) {
                for i in (lo as usize)..(hi as usize).min(mask.len()) {
                    mask[i] = true;
                }
            }
            with_ctx(|c| {
                for &ch in &c.term(t).children {
                    if !skip.contains(&ch) && visited.insert(ch) {
                        stack.push(ch);
                    }
                }
            });
        }
    }

    /// Asserts boolean term `t` (adds clauses making it true).
    pub fn assert_true(&mut self, sat: &mut Solver, t: TermId) {
        let l = self.lit_of(sat, t);
        self.emit_clause(sat, &[l]);
    }

    /// The literal encoding boolean term `t`.
    pub fn lit_of(&mut self, sat: &mut Solver, t: TermId) -> Lit {
        self.ensure(sat, t);
        self.bool_map[&t]
    }

    /// The literal vector (LSB first) encoding bitvector term `t`.
    pub fn bits_of(&mut self, sat: &mut Solver, t: TermId) -> Vec<Lit> {
        self.ensure(sat, t);
        self.bv_map[&t].clone()
    }

    /// Emits pending Ackermann congruence constraints. Must be called after
    /// the last `assert_true` and before solving.
    pub fn finalize(&mut self, sat: &mut Solver) {
        let ufs: Vec<UfId> = self.uf_apps.keys().copied().collect();
        for uf in ufs {
            let apps = self.uf_apps[&uf].clone();
            let start = *self.uf_done.get(&uf).unwrap_or(&0);
            for i in 0..apps.len() {
                // Only emit pairs involving at least one new application.
                for j in (i + 1).max(start)..apps.len() {
                    self.congruence(sat, &apps[i], &apps[j]);
                }
            }
            self.uf_done.insert(uf, apps.len());
        }
    }

    /// `args_i == args_j → result_i == result_j`.
    fn congruence(
        &mut self,
        sat: &mut Solver,
        a: &(TermId, Vec<Vec<Lit>>, Vec<Lit>),
        b: &(TermId, Vec<Vec<Lit>>, Vec<Lit>),
    ) {
        // all_eq literal: conjunction of per-argument equalities.
        let mut arg_eqs = Vec::new();
        for (x, y) in a.1.iter().zip(&b.1) {
            arg_eqs.push(self.eq_gate(sat, x, y));
        }
        let all_eq = self.and_many(sat, &arg_eqs);
        // all_eq → result bits equal.
        for (&r1, &r2) in a.2.iter().zip(&b.2) {
            self.emit_clause(sat, &[!all_eq, !r1, r2]);
            self.emit_clause(sat, &[!all_eq, r1, !r2]);
        }
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    fn done(&self, t: TermId) -> bool {
        self.bool_map.contains_key(&t) || self.bv_map.contains_key(&t)
    }

    fn ensure(&mut self, sat: &mut Solver, root: TermId) {
        if self.done(root) {
            return;
        }
        let mut stack = vec![root];
        while let Some(&t) = stack.last() {
            if self.done(t) {
                stack.pop();
                continue;
            }
            let children = with_ctx(|c| c.term(t).children.clone());
            let pending: Vec<TermId> =
                children.iter().copied().filter(|&c| !self.done(c)).collect();
            if pending.is_empty() {
                self.encode(sat, t);
                stack.pop();
            } else {
                stack.extend(pending);
            }
        }
    }

    fn encode(&mut self, sat: &mut Solver, t: TermId) {
        let (op, children, sort) = with_ctx(|c| {
            let n = c.term(t);
            (n.op.clone(), n.children.clone(), n.sort)
        });
        let lo = sat.num_vars() as u32;
        match sort {
            Sort::Bool => {
                let l = self.encode_bool(sat, &op, &children);
                self.bool_map.insert(t, l);
            }
            Sort::BitVec(w) => {
                let bits = self.encode_bv(sat, t, &op, &children, w);
                debug_assert_eq!(bits.len(), w as usize);
                self.bv_map.insert(t, bits);
            }
        }
        let hi = sat.num_vars() as u32;
        if hi > lo {
            self.var_range.insert(t, (lo, hi));
        }
    }

    fn encode_bool(&mut self, sat: &mut Solver, op: &Op, ch: &[TermId]) -> Lit {
        match op {
            Op::BoolConst(b) => {
                let tl = self.true_lit(sat);
                if *b {
                    tl
                } else {
                    !tl
                }
            }
            Op::Var(_) => Lit::pos(sat.new_var()),
            Op::Not => !self.bool_map[&ch[0]],
            Op::And => {
                let (a, b) = (self.bool_map[&ch[0]], self.bool_map[&ch[1]]);
                self.and_gate(sat, a, b)
            }
            Op::Or => {
                let (a, b) = (self.bool_map[&ch[0]], self.bool_map[&ch[1]]);
                self.or_gate(sat, a, b)
            }
            Op::Xor => {
                let (a, b) = (self.bool_map[&ch[0]], self.bool_map[&ch[1]]);
                self.xor_gate(sat, a, b)
            }
            Op::Iff => {
                let (a, b) = (self.bool_map[&ch[0]], self.bool_map[&ch[1]]);
                !self.xor_gate(sat, a, b)
            }
            Op::IteBool => {
                let (c, a, b) = (
                    self.bool_map[&ch[0]],
                    self.bool_map[&ch[1]],
                    self.bool_map[&ch[2]],
                );
                self.mux_gate(sat, c, a, b)
            }
            Op::Eq => {
                let a = self.bv_map[&ch[0]].clone();
                let b = self.bv_map[&ch[1]].clone();
                self.eq_gate(sat, &a, &b)
            }
            Op::Ult => {
                let a = self.bv_map[&ch[0]].clone();
                let b = self.bv_map[&ch[1]].clone();
                self.ult_gate(sat, &a, &b)
            }
            Op::Ule => {
                let a = self.bv_map[&ch[0]].clone();
                let b = self.bv_map[&ch[1]].clone();
                let gt = self.ult_gate(sat, &b, &a);
                !gt
            }
            Op::Slt => {
                let a = self.flip_msb(self.bv_map[&ch[0]].clone());
                let b = self.flip_msb(self.bv_map[&ch[1]].clone());
                self.ult_gate(sat, &a, &b)
            }
            Op::Sle => {
                let a = self.flip_msb(self.bv_map[&ch[0]].clone());
                let b = self.flip_msb(self.bv_map[&ch[1]].clone());
                let gt = self.ult_gate(sat, &b, &a);
                !gt
            }
            _ => unreachable!("not a bool op: {op:?}"),
        }
    }

    fn encode_bv(
        &mut self,
        sat: &mut Solver,
        t: TermId,
        op: &Op,
        ch: &[TermId],
        w: u32,
    ) -> Vec<Lit> {
        let w = w as usize;
        match op {
            Op::BvConst(v) => {
                let tl = self.true_lit(sat);
                (0..w)
                    .map(|i| if v >> i & 1 == 1 { tl } else { !tl })
                    .collect()
            }
            Op::Var(_) => (0..w).map(|_| Lit::pos(sat.new_var())).collect(),
            Op::BvNot => self.bv_map[&ch[0]].iter().map(|&l| !l).collect(),
            Op::BvNeg => {
                let a: Vec<Lit> = self.bv_map[&ch[0]].iter().map(|&l| !l).collect();
                let one = self.const_bits(sat, w, 1);
                self.add_gate(sat, &a, &one, None)
            }
            Op::BvAdd => {
                let a = self.bv_map[&ch[0]].clone();
                let b = self.bv_map[&ch[1]].clone();
                self.add_gate(sat, &a, &b, None)
            }
            Op::BvSub => {
                let a = self.bv_map[&ch[0]].clone();
                let b: Vec<Lit> = self.bv_map[&ch[1]].iter().map(|&l| !l).collect();
                let tl = self.true_lit(sat);
                self.add_gate(sat, &a, &b, Some(tl))
            }
            Op::BvMul => {
                let a = self.bv_map[&ch[0]].clone();
                let b = self.bv_map[&ch[1]].clone();
                self.mul_gate(sat, &a, &b)
            }
            Op::BvUdiv => {
                let b = self.bv_map[&ch[1]].clone();
                let (q, _r) = self.divrem_of(sat, t, ch[0], ch[1]);
                // Division by zero yields all ones.
                let bz = self.is_zero_gate(sat, &b);
                let tl = self.true_lit(sat);
                let ones = vec![tl; w];
                self.mux_bits(sat, bz, &ones, &q)
            }
            Op::BvUrem => {
                let a = self.bv_map[&ch[0]].clone();
                let b = self.bv_map[&ch[1]].clone();
                let (_q, r) = self.divrem_of(sat, t, ch[0], ch[1]);
                // Remainder by zero yields the dividend.
                let bz = self.is_zero_gate(sat, &b);
                self.mux_bits(sat, bz, &a, &r)
            }
            Op::BvAnd => self.bitwise(sat, ch, |s, me, a, b| me.and_gate(s, a, b)),
            Op::BvOr => self.bitwise(sat, ch, |s, me, a, b| me.or_gate(s, a, b)),
            Op::BvXor => self.bitwise(sat, ch, |s, me, a, b| me.xor_gate(s, a, b)),
            Op::BvShl => self.shift_gate(sat, ch, ShiftKind::Left),
            Op::BvLshr => self.shift_gate(sat, ch, ShiftKind::LogicalRight),
            Op::BvAshr => self.shift_gate(sat, ch, ShiftKind::ArithRight),
            Op::Concat => {
                let hi = self.bv_map[&ch[0]].clone();
                let lo = self.bv_map[&ch[1]].clone();
                let mut bits = lo;
                bits.extend(hi);
                bits
            }
            Op::Extract(hi, lo) => {
                let a = &self.bv_map[&ch[0]];
                a[*lo as usize..=*hi as usize].to_vec()
            }
            Op::ZeroExt => {
                let a = self.bv_map[&ch[0]].clone();
                let tl = self.true_lit(sat);
                let mut bits = a;
                while bits.len() < w {
                    bits.push(!tl);
                }
                bits
            }
            Op::SignExt => {
                let a = self.bv_map[&ch[0]].clone();
                let sign = *a.last().expect("sext of empty bv");
                let mut bits = a;
                while bits.len() < w {
                    bits.push(sign);
                }
                bits
            }
            Op::IteBv => {
                let c = self.bool_map[&ch[0]];
                let a = self.bv_map[&ch[1]].clone();
                let b = self.bv_map[&ch[2]].clone();
                self.mux_bits(sat, c, &a, &b)
            }
            Op::UfApply(uf) => {
                let args: Vec<Vec<Lit>> = ch.iter().map(|c| self.bv_map[c].clone()).collect();
                let result: Vec<Lit> = (0..w).map(|_| Lit::pos(sat.new_var())).collect();
                self.uf_apps
                    .entry(*uf)
                    .or_default()
                    .push((t, args, result.clone()));
                result
            }
            _ => unreachable!("not a bv op: {op:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Gate primitives
    // ------------------------------------------------------------------

    fn true_lit(&mut self, sat: &mut Solver) -> Lit {
        if let Some(l) = self.lit_true {
            return l;
        }
        let l = Lit::pos(sat.new_var());
        sat.add_clause(&[l]);
        self.lit_true = Some(l);
        l
    }

    fn is_const(&self, l: Lit) -> Option<bool> {
        self.lit_true.map(|t| {
            if l == t {
                Some(true)
            } else if l == !t {
                Some(false)
            } else {
                None
            }
        })?
    }

    fn and_gate(&mut self, sat: &mut Solver, a: Lit, b: Lit) -> Lit {
        match (self.is_const(a), self.is_const(b)) {
            (Some(false), _) | (_, Some(false)) => return !self.true_lit(sat),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        if a == !b {
            return !self.true_lit(sat);
        }
        let c = Lit::pos(sat.new_var());
        self.define_gate(sat, c.var(), &[&[!c, a], &[!c, b], &[c, !a, !b]]);
        c
    }

    fn or_gate(&mut self, sat: &mut Solver, a: Lit, b: Lit) -> Lit {
        let c = self.and_gate(sat, !a, !b);
        !c
    }

    fn xor_gate(&mut self, sat: &mut Solver, a: Lit, b: Lit) -> Lit {
        match (self.is_const(a), self.is_const(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return !b,
            (_, Some(true)) => return !a,
            _ => {}
        }
        if a == b {
            return !self.true_lit(sat);
        }
        if a == !b {
            return self.true_lit(sat);
        }
        let c = Lit::pos(sat.new_var());
        self.define_gate(
            sat,
            c.var(),
            &[&[!c, a, b], &[!c, !a, !b], &[c, !a, b], &[c, a, !b]],
        );
        c
    }

    fn mux_gate(&mut self, sat: &mut Solver, c: Lit, t: Lit, e: Lit) -> Lit {
        match self.is_const(c) {
            Some(true) => return t,
            Some(false) => return e,
            None => {}
        }
        if t == e {
            return t;
        }
        let o = Lit::pos(sat.new_var());
        self.define_gate(
            sat,
            o.var(),
            &[&[!c, !t, o], &[!c, t, !o], &[c, !e, o], &[c, e, !o]],
        );
        o
    }

    fn and_many(&mut self, sat: &mut Solver, ls: &[Lit]) -> Lit {
        let mut acc = self.true_lit(sat);
        for &l in ls {
            acc = self.and_gate(sat, acc, l);
        }
        acc
    }

    fn eq_gate(&mut self, sat: &mut Solver, a: &[Lit], b: &[Lit]) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        let mut eqs = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let ne = self.xor_gate(sat, x, y);
            eqs.push(!ne);
        }
        self.and_many(sat, &eqs)
    }

    fn is_zero_gate(&mut self, sat: &mut Solver, a: &[Lit]) -> Lit {
        let neg: Vec<Lit> = a.iter().map(|&l| !l).collect();
        self.and_many(sat, &neg)
    }

    /// `a < b` unsigned: borrow chain from LSB.
    fn ult_gate(&mut self, sat: &mut Solver, a: &[Lit], b: &[Lit]) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        let mut lt = !self.true_lit(sat);
        for (&x, &y) in a.iter().zip(b) {
            // lt' = (¬x ∧ y) ∨ ((x ↔ y) ∧ lt).
            let xltb = {
                let nx = !x;
                self.and_gate(sat, nx, y)
            };
            let same = {
                let ne = self.xor_gate(sat, x, y);
                !ne
            };
            let keep = self.and_gate(sat, same, lt);
            lt = self.or_gate(sat, xltb, keep);
        }
        lt
    }

    fn flip_msb(&self, mut bits: Vec<Lit>) -> Vec<Lit> {
        let n = bits.len();
        bits[n - 1] = !bits[n - 1];
        bits
    }

    fn add_gate(
        &mut self,
        sat: &mut Solver,
        a: &[Lit],
        b: &[Lit],
        carry_in: Option<Lit>,
    ) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        let mut carry = carry_in.unwrap_or_else(|| !self.true_lit(sat));
        let mut out = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let xy = self.xor_gate(sat, x, y);
            let s = self.xor_gate(sat, xy, carry);
            // carry' = (x ∧ y) ∨ (carry ∧ (x ⊕ y)).
            let c1 = self.and_gate(sat, x, y);
            let c2 = self.and_gate(sat, carry, xy);
            carry = self.or_gate(sat, c1, c2);
            out.push(s);
        }
        out
    }

    fn mul_gate(&mut self, sat: &mut Solver, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let fl = !self.true_lit(sat);
        let mut acc = vec![fl; w];
        for i in 0..w {
            // Partial product: (a << i) AND b[i].
            let mut pp = vec![fl; w];
            for j in 0..w - i {
                pp[i + j] = self.and_gate(sat, a[j], b[i]);
            }
            acc = self.add_gate(sat, &acc, &pp, None);
        }
        acc
    }

    fn mux_bits(&mut self, sat: &mut Solver, c: Lit, t: &[Lit], e: &[Lit]) -> Vec<Lit> {
        t.iter()
            .zip(e)
            .map(|(&x, &y)| self.mux_gate(sat, c, x, y))
            .collect()
    }

    /// The memoized division circuit for operand terms `(ta, tb)`: the
    /// quotient and remainder of `bvudiv`/`bvurem` are two outputs of
    /// one [`Blaster::divrem_gate`], so encoding both of the same
    /// operand pair costs one circuit, not two.
    fn divrem_of(
        &mut self,
        sat: &mut Solver,
        t: TermId,
        ta: TermId,
        tb: TermId,
    ) -> (Vec<Lit>, Vec<Lit>) {
        if let Some(qr) = self.divrem.get(&(ta, tb)) {
            // `t` reuses the circuit allocated inside the owner's range:
            // record the coupling so retirement waits for both.
            let owner = self.divrem_owner[&(ta, tb)];
            if owner != t {
                self.coupled.entry(owner).or_default().push(t);
                self.coupled.entry(t).or_default().push(owner);
            }
            return qr.clone();
        }
        let a = self.bv_map[&ta].clone();
        let b = self.bv_map[&tb].clone();
        let qr = self.divrem_gate(sat, &a, &b);
        self.divrem.insert((ta, tb), qr.clone());
        self.divrem_owner.insert((ta, tb), t);
        qr
    }

    /// Restoring division: returns `(quotient, remainder)` for `b != 0`;
    /// the caller muxes in the division-by-zero semantics.
    fn divrem_gate(&mut self, sat: &mut Solver, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let fl = !self.true_lit(sat);
        // Accumulator has w+1 bits; b is zero-extended to w+1.
        let mut bx: Vec<Lit> = b.to_vec();
        bx.push(fl);
        let mut r: Vec<Lit> = vec![fl; w + 1];
        let mut q: Vec<Lit> = vec![fl; w];
        for i in (0..w).rev() {
            // r = (r << 1) | a[i], still within w+1 bits because the
            // running remainder is < b <= 2^w - 1.
            let mut shifted = Vec::with_capacity(w + 1);
            shifted.push(a[i]);
            shifted.extend_from_slice(&r[..w]);
            r = shifted;
            // ge = r >= b.
            let lt = self.ult_gate(sat, &r, &bx);
            let ge = !lt;
            q[i] = ge;
            // r = ge ? r - b : r.
            let nb: Vec<Lit> = bx.iter().map(|&l| !l).collect();
            let tl = self.true_lit(sat);
            let sub = self.add_gate(sat, &r, &nb, Some(tl));
            r = self.mux_bits(sat, ge, &sub, &r);
        }
        (q, r[..w].to_vec())
    }

    fn bitwise(
        &mut self,
        sat: &mut Solver,
        ch: &[TermId],
        f: impl Fn(&mut Solver, &mut Self, Lit, Lit) -> Lit,
    ) -> Vec<Lit> {
        let a = self.bv_map[&ch[0]].clone();
        let b = self.bv_map[&ch[1]].clone();
        a.iter()
            .zip(&b)
            .map(|(&x, &y)| f(sat, self, x, y))
            .collect()
    }

    fn shift_gate(&mut self, sat: &mut Solver, ch: &[TermId], kind: ShiftKind) -> Vec<Lit> {
        let a = self.bv_map[&ch[0]].clone();
        let amt = self.bv_map[&ch[1]].clone();
        let w = a.len();
        let fl = !self.true_lit(sat);
        let fill = |bits: &[Lit]| match kind {
            ShiftKind::ArithRight => *bits.last().unwrap(),
            _ => fl,
        };
        // Barrel stages for amount bits k with 2^k < w cover all in-range
        // shifts; any higher amount bit forces the "big shift" result.
        let mut cur = a.clone();
        let mut stages = 0;
        while (1usize << stages) < w {
            stages += 1;
        }
        for k in 0..stages.min(amt.len()) {
            let dist = 1usize << k;
            let f = fill(&cur);
            let shifted: Vec<Lit> = match kind {
                ShiftKind::Left => (0..w)
                    .map(|i| if i >= dist { cur[i - dist] } else { fl })
                    .collect(),
                ShiftKind::LogicalRight | ShiftKind::ArithRight => (0..w)
                    .map(|i| if i + dist < w { cur[i + dist] } else { f })
                    .collect(),
            };
            cur = self.mux_bits(sat, amt[k], &shifted, &cur);
        }
        // big = any amount bit at position >= stages.
        let mut big = fl;
        for &l in amt.iter().skip(stages) {
            big = self.or_gate(sat, big, l);
        }
        let f = fill(&a);
        let big_result = vec![f; w];
        self.mux_bits(sat, big, &big_result, &cur)
    }

    fn const_bits(&mut self, sat: &mut Solver, w: usize, v: u128) -> Vec<Lit> {
        let tl = self.true_lit(sat);
        (0..w)
            .map(|i| if mask(w as u32, v) >> i & 1 == 1 { tl } else { !tl })
            .collect()
    }

    /// Reads the model value of bitvector term `t` after a Sat answer.
    /// Returns `None` if `t` was never blasted.
    pub fn read_bv(&self, sat: &Solver, t: TermId) -> Option<u128> {
        let bits = self.bv_map.get(&t)?;
        let mut v = 0u128;
        for (i, &l) in bits.iter().enumerate() {
            if sat.value_lit(l).unwrap_or(false) {
                v |= 1 << i;
            }
        }
        Some(v)
    }

    /// Reads the model value of boolean term `t` after a Sat answer.
    pub fn read_bool(&self, sat: &Solver, t: TermId) -> Option<bool> {
        let l = self.bool_map.get(&t)?;
        Some(sat.value_lit(*l).unwrap_or(false))
    }

    /// The UF applications among `live` terms, with their current model
    /// values: `(uf, arg values, result value)`. Used to build model UF
    /// tables; restricting to the extraction cone matters for sessions,
    /// where a retired goal's application can be left partially assigned
    /// by the decision scope and must not contribute a phantom table row.
    pub fn read_uf_apps(
        &self,
        sat: &Solver,
        live: &HashSet<TermId>,
    ) -> Vec<(UfId, Vec<u128>, u128)> {
        let read = |bits: &[Lit]| {
            let mut v = 0u128;
            for (i, &l) in bits.iter().enumerate() {
                if sat.value_lit(l).unwrap_or(false) {
                    v |= 1 << i;
                }
            }
            v
        };
        let mut out = Vec::new();
        for (&uf, apps) in &self.uf_apps {
            for (t, args, result) in apps {
                if live.contains(t) {
                    out.push((uf, args.iter().map(|a| read(a)).collect(), read(result)));
                }
            }
        }
        out
    }
}

#[derive(Clone, Copy)]
enum ShiftKind {
    Left,
    LogicalRight,
    ArithRight,
}
