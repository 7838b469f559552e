//! Boolean operations on (boolean-valued) ROMDDs.
//!
//! These are used to build ROMDDs *directly* from a multiple-valued gate
//! description — the cross-check path for the coded-ROBDD route the paper
//! recommends — and by tests.
//!
//! Like the ROBDD connectives, the apply kernels are **iterative**: an
//! explicit work-stack machine drives NOT and the binary connectives,
//! with the n-ary cofactor results accumulated on a result stack held in
//! a scratch arena owned by the manager (no allocation per operation).

use crate::manager::{MddId, MddManager, TERMINAL_LEVEL};
use socy_dd::{DdKernel, ONE, ZERO};

pub(crate) const OP_AND: u8 = 0;
pub(crate) const OP_OR: u8 = 1;
pub(crate) const OP_XOR: u8 = 2;
pub(crate) const OP_NOT: u8 = 3;

/// One unit of work of the iterative apply machine. `Eval` asks for
/// `op(a, b)` (NOT carries the operand twice); `Combine` fires once the
/// level's `arity(top)` cofactor results are on the result stack.
#[derive(Debug, Clone, Copy)]
enum Frame {
    Eval { op: u8, a: u32, b: u32 },
    Combine { op: u8, a: u32, b: u32, top: u32 },
}

/// Reusable buffers of the apply machine.
#[derive(Debug, Clone, Default)]
pub(crate) struct ApplyScratch {
    frames: Vec<Frame>,
    results: Vec<u32>,
}

impl MddManager {
    /// Logical negation of a boolean-valued ROMDD.
    pub fn not(&mut self, f: MddId) -> MddId {
        self.apply_root(OP_NOT, f.0, f.0)
    }

    /// Conjunction `f ∧ g`.
    pub fn and(&mut self, f: MddId, g: MddId) -> MddId {
        self.binary(OP_AND, f, g)
    }

    /// Disjunction `f ∨ g`.
    pub fn or(&mut self, f: MddId, g: MddId) -> MddId {
        self.binary(OP_OR, f, g)
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: MddId, g: MddId) -> MddId {
        self.binary(OP_XOR, f, g)
    }

    /// Conjunction of many operands.
    pub fn and_many(&mut self, operands: impl IntoIterator<Item = MddId>) -> MddId {
        let mut acc = MddId::ONE;
        for op in operands {
            acc = self.and(acc, op);
            if acc.is_zero() {
                break;
            }
        }
        acc
    }

    /// Disjunction of many operands.
    pub fn or_many(&mut self, operands: impl IntoIterator<Item = MddId>) -> MddId {
        let mut acc = MddId::ZERO;
        for op in operands {
            acc = self.or(acc, op);
            if acc.is_one() {
                break;
            }
        }
        acc
    }

    /// "At least `k` of the operands are true".
    pub fn at_least(&mut self, k: usize, operands: &[MddId]) -> MddId {
        let n = operands.len();
        if k == 0 {
            return MddId::ONE;
        }
        if k > n {
            return MddId::ZERO;
        }
        let mut state = vec![MddId::ZERO; k + 1];
        state[0] = MddId::ONE;
        for &op in operands {
            for j in (1..=k).rev() {
                let with_op = self.and(state[j - 1], op);
                state[j] = self.or(state[j], with_op);
            }
        }
        state[k]
    }

    fn binary(&mut self, op: u8, f: MddId, g: MddId) -> MddId {
        self.apply_root(op, f.0, g.0)
    }

    /// Runs the apply machine on the kernel, reusing the manager's
    /// scratch arena.
    fn apply_root(&mut self, op: u8, a: u32, b: u32) -> MddId {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = run_apply(&mut self.dd, &mut scratch, op, a, b);
        self.scratch = scratch;
        MddId(result)
    }
}

/// The explicit-stack apply machine serving NOT, AND, OR and XOR over
/// n-ary nodes. Cofactor `Eval`s are pushed in reverse domain order, so
/// their results accumulate on the result stack in value order and
/// `Combine` consumes exactly the tail `arity(top)` slots.
fn run_apply(dd: &mut DdKernel, scratch: &mut ApplyScratch, op: u8, a: u32, b: u32) -> u32 {
    debug_assert!(scratch.frames.is_empty() && scratch.results.is_empty());
    scratch.frames.push(Frame::Eval { op, a, b });
    while let Some(frame) = scratch.frames.pop() {
        match frame {
            Frame::Eval { op, a, b } => eval_step(dd, op, a, b, scratch),
            Frame::Combine { op, a, b, top } => {
                let domain = dd.arity(top as usize);
                let start = scratch.results.len() - domain;
                let r = dd.mk(top, &scratch.results[start..]);
                scratch.results.truncate(start);
                dd.cache_insert((op, a, b, 0), r);
                scratch.results.push(r);
            }
        }
    }
    let result = scratch.results.pop().expect("the root frame pushed a result");
    debug_assert!(scratch.results.is_empty());
    result
}

/// One `Eval` step: terminal rules, cache probe, or expansion.
fn eval_step(dd: &mut DdKernel, op: u8, a: u32, b: u32, scratch: &mut ApplyScratch) {
    if op == OP_NOT {
        if a == ZERO {
            scratch.results.push(ONE);
            return;
        }
        if a == ONE {
            scratch.results.push(ZERO);
            return;
        }
        if let Some(r) = dd.cache_get((OP_NOT, a, a, 0)) {
            scratch.results.push(r);
            return;
        }
        let top = dd.raw_level(a);
        scratch.frames.push(Frame::Combine { op, a, b: a, top });
        for v in (0..dd.arity(top as usize)).rev() {
            let child = dd.child(a, v);
            scratch.frames.push(Frame::Eval { op, a: child, b: child });
        }
        return;
    }
    match op {
        OP_AND => {
            if a == ZERO || b == ZERO {
                scratch.results.push(ZERO);
                return;
            }
            if a == ONE {
                scratch.results.push(b);
                return;
            }
            if b == ONE || a == b {
                scratch.results.push(a);
                return;
            }
        }
        OP_OR => {
            if a == ONE || b == ONE {
                scratch.results.push(ONE);
                return;
            }
            if a == ZERO {
                scratch.results.push(b);
                return;
            }
            if b == ZERO || a == b {
                scratch.results.push(a);
                return;
            }
        }
        OP_XOR => {
            if a == ZERO {
                scratch.results.push(b);
                return;
            }
            if b == ZERO {
                scratch.results.push(a);
                return;
            }
            if a == b {
                scratch.results.push(ZERO);
                return;
            }
            if a == ONE {
                scratch.frames.push(Frame::Eval { op: OP_NOT, a: b, b });
                return;
            }
            if b == ONE {
                scratch.frames.push(Frame::Eval { op: OP_NOT, a, b: a });
                return;
            }
        }
        _ => unreachable!("unknown op"),
    }
    let (x, y) = if a <= b { (a, b) } else { (b, a) };
    if let Some(r) = dd.cache_get((op, x, y, 0)) {
        scratch.results.push(r);
        return;
    }
    let la = dd.raw_level(x);
    let lb = dd.raw_level(y);
    let top = la.min(lb);
    debug_assert_ne!(top, TERMINAL_LEVEL);
    scratch.frames.push(Frame::Combine { op, a: x, b: y, top });
    for v in (0..dd.arity(top as usize)).rev() {
        let ca = if la == top { dd.child(x, v) } else { x };
        let cb = if lb == top { dd.child(y, v) } else { y };
        scratch.frames.push(Frame::Eval { op, a: ca, b: cb });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive comparison over all assignments of the manager's variables.
    fn check<F: Fn(&[usize]) -> bool>(mgr: &MddManager, f: MddId, reference: F) {
        let domains = mgr.domains().to_vec();
        let mut assignment = vec![0usize; domains.len()];
        loop {
            assert_eq!(mgr.eval(f, &assignment), reference(&assignment), "{assignment:?}");
            // Advance mixed-radix counter.
            let mut i = 0;
            loop {
                if i == domains.len() {
                    return;
                }
                assignment[i] += 1;
                if assignment[i] < domains[i] {
                    break;
                }
                assignment[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn connectives_on_multivalued_variables() {
        let mut mgr = MddManager::new(vec![3, 4, 2]);
        let a = mgr.value_is(0, 2);
        let b = mgr.value_at_least(1, 2);
        let c = mgr.value_is(2, 1);
        let and = mgr.and(a, b);
        check(&mgr, and, |x| x[0] == 2 && x[1] >= 2);
        let or = mgr.or(and, c);
        check(&mgr, or, |x| (x[0] == 2 && x[1] >= 2) || x[2] == 1);
        let xor = mgr.xor(a, c);
        check(&mgr, xor, |x| (x[0] == 2) ^ (x[2] == 1));
        let not = mgr.not(or);
        check(&mgr, not, |x| !((x[0] == 2 && x[1] >= 2) || x[2] == 1));
    }

    #[test]
    fn de_morgan_canonicity() {
        let mut mgr = MddManager::new(vec![3, 3]);
        let a = mgr.value_at_least(0, 1);
        let b = mgr.value_is(1, 0);
        let and = mgr.and(a, b);
        let lhs = mgr.not(and);
        let na = mgr.not(a);
        let nb = mgr.not(b);
        let rhs = mgr.or(na, nb);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn many_and_threshold() {
        let mut mgr = MddManager::new(vec![2, 2, 2, 2]);
        let lits: Vec<MddId> = (0..4).map(|i| mgr.value_is(i, 1)).collect();
        let all = mgr.and_many(lits.iter().copied());
        check(&mgr, all, |x| x.iter().all(|&v| v == 1));
        let any = mgr.or_many(lits.iter().copied());
        check(&mgr, any, |x| x.contains(&1));
        let two = mgr.at_least(2, &lits);
        check(&mgr, two, |x| x.iter().filter(|&&v| v == 1).count() >= 2);
        assert_eq!(mgr.at_least(0, &lits), mgr.one());
        assert_eq!(mgr.at_least(5, &lits), mgr.zero());
        assert_eq!(mgr.and_many(std::iter::empty()), mgr.one());
        assert_eq!(mgr.or_many(std::iter::empty()), mgr.zero());
    }

    #[test]
    fn xor_terminal_cases() {
        let mut mgr = MddManager::new(vec![3]);
        let a = mgr.value_is(0, 1);
        assert_eq!(mgr.xor(a, mgr.zero()), a);
        assert_eq!(mgr.xor(mgr.zero(), a), a);
        assert_eq!(mgr.xor(a, a), mgr.zero());
        let na = mgr.not(a);
        assert_eq!(mgr.xor(a, mgr.one()), na);
    }
}
