//! Symbolic optimizations (paper §4).
//!
//! These are the domain-knowledge rewrites that make automated verification
//! scale; the paper reports that none of the monitor refinement proofs
//! terminate without them. Each optimization inspects the *structure* of
//! symbolic values (Rosette's "symbolic reflection") and reshapes the
//! evaluation strategy or the residual terms:
//!
//! - [`split_pc`]: concretizes a symbolic program counter by enumerating
//!   the constant leaves of its `ite` tree and evaluating each separately,
//!   maximizing partial evaluation of instruction fetch.
//! - Offset concretization lives in [`crate::mem`] and is controlled by
//!   [`MemCfg`](crate::mem::MemCfg); [`OptCfg`] gathers the switches for
//!   the §6.4 ablation.
//!
//! Split-cases has no function here: the monitors' trap harness pins the
//! system-call number per call, and their monolithic proof is its
//! ablation.

use serval_smt::build;
use serval_smt::{SBool, BV};
use serval_sym::{Merge, SymCtx};

/// Master switchboard for the symbolic optimizations; the ablation
/// benchmark (experiment E4) toggles these individually.
#[derive(Clone, Copy, Debug)]
pub struct OptCfg {
    /// Enable [`split_pc`]; when off, callers fall back to merged-pc
    /// evaluation, which diverges on real systems (paper §6.4).
    pub split_pc: bool,
    /// Enable in-struct offset concretization in the memory model.
    pub concretize_offsets: bool,
}

impl Default for OptCfg {
    fn default() -> Self {
        OptCfg {
            split_pc: true,
            concretize_offsets: true,
        }
    }
}

impl OptCfg {
    /// All optimizations disabled (the ablation baseline).
    pub fn none() -> OptCfg {
        OptCfg {
            split_pc: false,
            concretize_offsets: false,
        }
    }
}

/// The outcome of enumerating a symbolic program counter.
#[derive(Clone, Debug)]
pub enum PcCases {
    /// The pc takes one of these concrete values (guards are `pc == v`).
    Concrete(Vec<u128>),
    /// The pc contains an opaque symbolic leaf — usually a security bug in
    /// the system under verification (paper §4: an unconstrained jump).
    Opaque,
}

/// Enumerates the concrete values a pc-shaped term can take by walking the
/// leaves of its `ite` tree. Returns [`PcCases::Opaque`] if any leaf is
/// non-constant, and deduplicates values reachable along several paths.
pub fn enumerate_pc(pc: BV) -> PcCases {
    let w = pc.width();
    let mut values: Vec<u128> = Vec::new();
    // Each work item is (term, additive constant): computed jump targets
    // often have the shape `ite(...) + base`, which canonicalizes to an
    // addition with the constant on the right.
    let mut stack = vec![(pc.0, 0u128)];
    while let Some((t, add)) = stack.pop() {
        if let Some((_c, a, b)) = build::as_ite(t) {
            stack.push((a, add));
            stack.push((b, add));
        } else if let Some(v) = build::as_bv_const(t) {
            let v = serval_smt::term::mask(w, v.wrapping_add(add));
            if !values.contains(&v) {
                values.push(v);
            }
        } else if let Some((x, c)) = build::as_add(t) {
            if let Some(cv) = build::as_bv_const(c) {
                stack.push((x, add.wrapping_add(cv)));
            } else {
                return PcCases::Opaque;
            }
        } else {
            return PcCases::Opaque;
        }
    }
    values.sort_unstable();
    PcCases::Concrete(values)
}

/// The `split-pc` symbolic optimization (paper §3.2, §4).
///
/// Enumerates the feasible concrete values of `pc`, clones the state for
/// each, runs `f` with the concrete value under the path condition
/// `pc == v`, and merges the results. Returns `Err(())` when the pc is
/// opaque (unconstrained), in which case verification must fail — the
/// paper notes this usually indicates a security bug.
#[allow(clippy::result_unit_err)]
pub fn split_pc<S: Merge, R: Merge>(
    ctx: &mut SymCtx,
    state: &mut S,
    pc: BV,
    mut f: impl FnMut(&mut SymCtx, &mut S, u128) -> R,
) -> Result<R, ()> {
    let values = match enumerate_pc(pc) {
        PcCases::Concrete(vs) => vs,
        PcCases::Opaque => return Err(()),
    };
    let w = pc.width();
    let cases: Vec<(SBool, u128)> = values
        .into_iter()
        .map(|v| (pc.eq_(BV::lit(w, v)), v))
        .collect();
    // Guards can be concretely false on this path (the ite collapsed);
    // `split` skips infeasible cases syntactically.
    Ok(ctx.split(state, &cases, |ctx, s, v| f(ctx, s, v)))
}

/// Matches the "in-struct offset" pattern `i*C0 + C1` (or `i*C0`, or `C1`)
/// against a byte-offset term, returning `(index, intra)` such that
/// `offset = index*C0 + intra` *syntactically*. Used by the memory model's
/// offset concretization; the caller emits the soundness side condition.
pub fn match_scaled_offset(offset: BV, elem_size: u128) -> Option<(BV, u128)> {
    let w = offset.width();
    // Fully concrete offset.
    if let Some(c) = offset.as_const() {
        return Some((BV::lit(w, c / elem_size), c % elem_size));
    }
    // offset = mul + C1 (canonical constant-right form).
    let (mul_part, c1) = match build::as_add(offset.0) {
        Some((a, b)) => match build::as_bv_const(b) {
            Some(c1) => (BV(a), c1),
            None => (offset, 0),
        },
        None => (offset, 0),
    };
    if c1 >= elem_size {
        // A large constant may embed whole elements: i*C0 + (k*C0 + r)
        // → (i + k)*C0 + r.
        let k = c1 / elem_size;
        let r = c1 % elem_size;
        if let Some((i, c0)) = match_mul_by(mul_part, elem_size) {
            let _ = c0;
            return Some((i + BV::lit(w, k), r));
        }
        return None;
    }
    let (i, _c0) = match_mul_by(mul_part, elem_size)?;
    Some((i, c1))
}

/// Matches `i * C0` where `C0 == elem_size` (either operand order after
/// canonicalization; also accepts shifts by a constant when the element
/// size is a power of two).
fn match_mul_by(t: BV, elem_size: u128) -> Option<(BV, u128)> {
    if let Some((a, b)) = build::as_mul(t.0) {
        if build::as_bv_const(b) == Some(elem_size) {
            return Some((BV(a), elem_size));
        }
        if build::as_bv_const(a) == Some(elem_size) {
            return Some((BV(b), elem_size));
        }
    }
    // i << k with 2^k == elem_size.
    if elem_size.is_power_of_two() {
        let k = elem_size.trailing_zeros();
        let shl = serval_smt::with_ctx(|c| {
            let n = c.term(t.0);
            if n.op == serval_smt::term::Op::BvShl {
                Some((n.children[0], n.children[1]))
            } else {
                None
            }
        });
        if let Some((x, amt)) = shl {
            if build::as_bv_const(amt) == Some(k as u128) {
                return Some((BV(x), elem_size));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use serval_smt::{reset_ctx, verify};

    #[test]
    fn enumerate_simple_ite() {
        reset_ctx();
        let c = SBool::fresh("c");
        let d = SBool::fresh("d");
        let pc = c.select(
            BV::lit(64, 4),
            d.select(BV::lit(64, 8), BV::lit(64, 4)),
        );
        match enumerate_pc(pc) {
            PcCases::Concrete(vs) => assert_eq!(vs, vec![4, 8]),
            PcCases::Opaque => panic!("expected concrete cases"),
        }
    }

    #[test]
    fn enumerate_opaque() {
        reset_ctx();
        let c = SBool::fresh("c");
        let x = BV::fresh(64, "x");
        let pc = c.select(BV::lit(64, 4), x);
        assert!(matches!(enumerate_pc(pc), PcCases::Opaque));
    }

    #[test]
    fn split_pc_merges_results() {
        reset_ctx();
        let mut ctx = SymCtx::new();
        let c = SBool::fresh("c");
        let pc = c.select(BV::lit(64, 10), BV::lit(64, 20));
        let mut state = BV::lit(8, 0);
        let r = split_pc(&mut ctx, &mut state, pc, |_, s, v| {
            *s = BV::lit(8, (v / 10) as u128);
            BV::lit(8, v as u128 + 1)
        })
        .unwrap();
        assert!(verify(&[c], r.eq_(BV::lit(8, 11))).is_proved());
        assert!(verify(&[!c], r.eq_(BV::lit(8, 21))).is_proved());
        assert!(verify(&[c], state.eq_(BV::lit(8, 1))).is_proved());
    }

    #[test]
    fn scaled_offset_patterns() {
        reset_ctx();
        let pid = BV::fresh(64, "pid");
        // pid*32 + 8.
        let off = pid * BV::lit(64, 32) + BV::lit(64, 8);
        let (i, intra) = match_scaled_offset(off, 32).unwrap();
        assert_eq!(i, pid);
        assert_eq!(intra, 8);
        // pid*32 + 72 = (pid + 2)*32 + 8.
        let off = pid * BV::lit(64, 32) + BV::lit(64, 72);
        let (i, intra) = match_scaled_offset(off, 32).unwrap();
        assert!(verify(&[], i.eq_(pid + BV::lit(64, 2))).is_proved());
        assert_eq!(intra, 8);
        // Shift form: pid << 5.
        let off = pid.shl(BV::lit(64, 5)) + BV::lit(64, 16);
        let (i, intra) = match_scaled_offset(off, 32).unwrap();
        assert_eq!(i, pid);
        assert_eq!(intra, 16);
        // Concrete.
        let (i, intra) = match_scaled_offset(BV::lit(64, 100), 32).unwrap();
        assert_eq!(i.as_const(), Some(3));
        assert_eq!(intra, 4);
    }
}
