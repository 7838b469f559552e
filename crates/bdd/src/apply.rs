//! Boolean operations on ROBDDs: NOT, AND, OR, XOR, ITE and thresholds.
//!
//! All binary operations use the classic Shannon-expansion `apply`
//! algorithm with memoization keyed on the operand node pair, so the cost
//! of an operation is bounded by the product of the operand sizes.
//!
//! The apply kernels are **iterative**: one explicit work-stack machine
//! (see the private `Frame` type) drives NOT, the binary connectives and
//! ITE, with the stack and result buffers living in a scratch arena owned by the
//! manager — a netlist compilation issuing millions of operations reuses
//! the same two allocations instead of paying call-frame and allocation
//! churn per recursion.

use crate::manager::{BddId, BddManager, TERMINAL_LEVEL};
use socy_dd::{DdKernel, ONE, ZERO};

/// Operation tags used as keys in the kernel's operation cache.
pub(crate) const OP_AND: u8 = 0;
pub(crate) const OP_OR: u8 = 1;
pub(crate) const OP_XOR: u8 = 2;
pub(crate) const OP_NOT: u8 = 3;
pub(crate) const OP_ITE: u8 = 4;

/// One unit of work of the iterative apply machine.
///
/// `Eval` asks for the result of `op(a, b, c)` (unary and binary
/// operations ignore the unused operands); `Combine` fires once both
/// cofactor results are on the result stack and builds the node at
/// `top`, memoizing it under the frame's key.
#[derive(Debug, Clone, Copy)]
enum Frame {
    Eval {
        op: u8,
        a: u32,
        b: u32,
        c: u32,
    },
    /// Like `Eval`, but the terminal rules and the cache were already
    /// probed (by the inline child resolution) — go straight to the
    /// Shannon expansion without a second cache probe.
    Expand {
        op: u8,
        a: u32,
        b: u32,
    },
    Combine {
        op: u8,
        a: u32,
        b: u32,
        c: u32,
        top: u32,
    },
    /// `Combine` whose high cofactor resolved inline at expansion time;
    /// only the low result is pending on the result stack.
    CombineHigh {
        op: u8,
        a: u32,
        b: u32,
        top: u32,
        high: u32,
    },
}

/// Outcome of trying to resolve a binary subproblem without a frame.
enum Immediate {
    /// Terminal rule or cache hit: the result is known.
    Resolved(u32),
    /// Genuinely new subproblem (cache already probed): expand it.
    Expand,
    /// Needs the full `Eval` treatment (XOR's redirection to NOT).
    Defer,
}

/// Reusable buffers of the apply machine (held by the manager so
/// consecutive operations allocate nothing).
#[derive(Debug, Clone, Default)]
pub(crate) struct ApplyScratch {
    frames: Vec<Frame>,
    results: Vec<u32>,
}

impl BddManager {
    /// Logical negation.
    pub fn not(&mut self, f: BddId) -> BddId {
        self.apply_root(OP_NOT, f.0, f.0, 0)
    }

    /// Logical conjunction `f ∧ g`.
    pub fn and(&mut self, f: BddId, g: BddId) -> BddId {
        self.binary(OP_AND, f, g)
    }

    /// Logical disjunction `f ∨ g`.
    pub fn or(&mut self, f: BddId, g: BddId) -> BddId {
        self.binary(OP_OR, f, g)
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: BddId, g: BddId) -> BddId {
        self.binary(OP_XOR, f, g)
    }

    /// Implication `f → g` (derived operation).
    pub fn implies(&mut self, f: BddId, g: BddId) -> BddId {
        let nf = self.not(f);
        self.or(nf, g)
    }

    /// Conjunction of an arbitrary number of operands.
    pub fn and_many(&mut self, operands: impl IntoIterator<Item = BddId>) -> BddId {
        let mut acc = BddId::ONE;
        for op in operands {
            acc = self.and(acc, op);
            if acc.is_zero() {
                break;
            }
        }
        acc
    }

    /// Disjunction of an arbitrary number of operands.
    pub fn or_many(&mut self, operands: impl IntoIterator<Item = BddId>) -> BddId {
        let mut acc = BddId::ZERO;
        for op in operands {
            acc = self.or(acc, op);
            if acc.is_one() {
                break;
            }
        }
        acc
    }

    /// Parity (multi-operand XOR).
    pub fn xor_many(&mut self, operands: impl IntoIterator<Item = BddId>) -> BddId {
        let mut acc = BddId::ZERO;
        for op in operands {
            acc = self.xor(acc, op);
        }
        acc
    }

    /// If-then-else `ite(f, g, h) = f·g + f̄·h`.
    pub fn ite(&mut self, f: BddId, g: BddId, h: BddId) -> BddId {
        self.apply_root(OP_ITE, f.0, g.0, h.0)
    }

    /// "At least `k` of the operands are true" (threshold / voter function).
    ///
    /// Built with a dynamic program over partial counts, which keeps the
    /// construction polynomial in `k · n` BDD operations.
    pub fn at_least(&mut self, k: usize, operands: &[BddId]) -> BddId {
        let n = operands.len();
        if k == 0 {
            return BddId::ONE;
        }
        if k > n {
            return BddId::ZERO;
        }
        // state[j] = BDD of "at least j of the operands processed so far are true", j = 0..=k
        let mut state = vec![BddId::ZERO; k + 1];
        state[0] = BddId::ONE;
        for &op in operands {
            // Process from high j to low j so that each round uses the previous round's values.
            for j in (1..=k).rev() {
                let with_op = self.and(state[j - 1], op);
                state[j] = self.or(state[j], with_op);
            }
        }
        state[k]
    }

    /// "Exactly `k` of the operands are true".
    pub fn exactly(&mut self, k: usize, operands: &[BddId]) -> BddId {
        let at_least_k = self.at_least(k, operands);
        let at_least_k1 = self.at_least(k + 1, operands);
        let not_more = self.not(at_least_k1);
        self.and(at_least_k, not_more)
    }

    /// Existential quantification of the variable at `level`:
    /// `∃x_level . f = f|x=0 ∨ f|x=1`.
    pub fn exists(&mut self, f: BddId, level: usize) -> BddId {
        let f0 = self.restrict(f, level, false);
        let f1 = self.restrict(f, level, true);
        self.or(f0, f1)
    }

    /// Cofactor of `f` with the variable at `level` fixed to `value`.
    pub fn restrict(&mut self, f: BddId, level: usize, value: bool) -> BddId {
        if f.is_terminal() {
            return f;
        }
        let node_level = self.raw_level(f);
        if node_level > level as u32 {
            // f does not depend on the variable (it only tests lower variables).
            return f;
        }
        if node_level == level as u32 {
            return if value { self.high(f) } else { self.low(f) };
        }
        // node_level < level: rebuild with restricted children (memoized via mk's unique table only;
        // an explicit cache is unnecessary for the shallow uses in this crate).
        let low = self.low(f);
        let high = self.high(f);
        let rl = self.restrict(low, level, value);
        let rh = self.restrict(high, level, value);
        self.mk(node_level as usize, rl, rh)
    }

    fn binary(&mut self, op: u8, f: BddId, g: BddId) -> BddId {
        self.apply_root(op, f.0, g.0, 0)
    }

    /// Runs the apply machine on the kernel, reusing the manager's
    /// scratch arena.
    fn apply_root(&mut self, op: u8, a: u32, b: u32, c: u32) -> BddId {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = run_apply(&mut self.dd, &mut scratch, op, a, b, c);
        self.scratch = scratch;
        BddId(result)
    }
}

/// The explicit-stack apply machine serving NOT, AND, OR, XOR and ITE.
///
/// The work stack holds [`Frame`]s; every `Eval` either resolves
/// immediately (terminal rule or cache hit) by pushing onto the result
/// stack, or expands into its two cofactor `Eval`s below a `Combine`
/// that later builds and memoizes the node. Both stacks live in a
/// caller-owned scratch arena and are reused across calls.
fn run_apply(dd: &mut DdKernel, scratch: &mut ApplyScratch, op: u8, a: u32, b: u32, c: u32) -> u32 {
    debug_assert!(scratch.frames.is_empty() && scratch.results.is_empty());
    scratch.frames.push(Frame::Eval { op, a, b, c });
    while let Some(frame) = scratch.frames.pop() {
        match frame {
            Frame::Eval { op, a, b, c } => eval_step(dd, op, a, b, c, scratch),
            Frame::Expand { op, a, b } => expand_binary(dd, op, a, b, scratch),
            Frame::Combine { op, a, b, c, top } => {
                let high = scratch.results.pop().expect("high cofactor result");
                let low = scratch.results.pop().expect("low cofactor result");
                let r = dd.mk(top, &[low, high]);
                dd.cache_insert((op, a, b, c), r);
                scratch.results.push(r);
            }
            Frame::CombineHigh { op, a, b, top, high } => {
                let low = scratch.results.pop().expect("low cofactor result");
                let r = dd.mk(top, &[low, high]);
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
fn eval_step(dd: &mut DdKernel, op: u8, a: u32, b: u32, c: u32, scratch: &mut ApplyScratch) {
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
        let (lo, hi) = (dd.child(a, 0), dd.child(a, 1));
        // NOT keys carry the operand twice, matching its cache key.
        scratch.frames.push(Frame::Combine { op, a, b: a, c: 0, top });
        scratch.frames.push(Frame::Eval { op, a: hi, b: hi, c: 0 });
        scratch.frames.push(Frame::Eval { op, a: lo, b: lo, c: 0 });
        return;
    }
    if op == OP_ITE {
        if a == ONE {
            scratch.results.push(b);
            return;
        }
        if a == ZERO {
            scratch.results.push(c);
            return;
        }
        if b == c {
            scratch.results.push(b);
            return;
        }
        if b == ONE && c == ZERO {
            scratch.results.push(a);
            return;
        }
        if let Some(r) = dd.cache_get((OP_ITE, a, b, c)) {
            scratch.results.push(r);
            return;
        }
        let top = dd.raw_level(a).min(dd.raw_level(b)).min(dd.raw_level(c));
        debug_assert_ne!(top, TERMINAL_LEVEL);
        let (f0, f1) = cofactors_at(dd, a, top);
        let (g0, g1) = cofactors_at(dd, b, top);
        let (h0, h1) = cofactors_at(dd, c, top);
        scratch.frames.push(Frame::Combine { op, a, b, c, top });
        scratch.frames.push(Frame::Eval { op, a: f1, b: g1, c: h1 });
        scratch.frames.push(Frame::Eval { op, a: f0, b: g0, c: h0 });
        return;
    }
    // Binary connectives: terminal / trivial rules first.
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
            if b == ONE {
                scratch.results.push(a);
                return;
            }
            if a == b {
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
            if b == ZERO {
                scratch.results.push(a);
                return;
            }
            if a == b {
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
                // ¬g, evaluated by the same machine.
                scratch.frames.push(Frame::Eval { op: OP_NOT, a: b, b, c: 0 });
                return;
            }
            if b == ONE {
                scratch.frames.push(Frame::Eval { op: OP_NOT, a, b: a, c: 0 });
                return;
            }
        }
        _ => unreachable!("unknown binary op"),
    }
    // Commutative operations: normalise the operand order for better
    // cache hit rates.
    let (x, y) = if a <= b { (a, b) } else { (b, a) };
    if let Some(r) = dd.cache_get((op, x, y, 0)) {
        scratch.results.push(r);
        return;
    }
    expand_binary(dd, op, x, y, scratch);
}

/// Shannon expansion of a binary subproblem whose terminal rules and
/// cache probe already ran. Children that resolve immediately — by a
/// terminal rule or a cache hit — never become frames, so the common
/// mixed case costs one frame round-trip instead of three.
fn expand_binary(dd: &mut DdKernel, op: u8, x: u32, y: u32, scratch: &mut ApplyScratch) {
    // The connectives are commutative and keyed on the normalised
    // pair; child subproblems arrive here unnormalised via
    // `Frame::Expand`, so normalise again before keying the result.
    let (x, y) = if x <= y { (x, y) } else { (y, x) };
    let top = dd.raw_level(x).min(dd.raw_level(y));
    let (f0, f1) = cofactors_at(dd, x, top);
    let (g0, g1) = cofactors_at(dd, y, top);
    let low = immediate_binary(dd, op, f0, g0);
    let high = immediate_binary(dd, op, f1, g1);
    match (low, high) {
        (Immediate::Resolved(lo), Immediate::Resolved(hi)) => {
            let r = dd.mk(top, &[lo, hi]);
            dd.cache_insert((op, x, y, 0), r);
            scratch.results.push(r);
        }
        (Immediate::Resolved(lo), high) => {
            scratch.frames.push(Frame::Combine { op, a: x, b: y, c: 0, top });
            scratch.results.push(lo);
            scratch.frames.push(match high {
                Immediate::Expand => Frame::Expand { op, a: f1, b: g1 },
                _ => Frame::Eval { op, a: f1, b: g1, c: 0 },
            });
        }
        (low, Immediate::Resolved(hi)) => {
            scratch.frames.push(Frame::CombineHigh { op, a: x, b: y, top, high: hi });
            scratch.frames.push(match low {
                Immediate::Expand => Frame::Expand { op, a: f0, b: g0 },
                _ => Frame::Eval { op, a: f0, b: g0, c: 0 },
            });
        }
        (low, high) => {
            scratch.frames.push(Frame::Combine { op, a: x, b: y, c: 0, top });
            scratch.frames.push(match high {
                Immediate::Expand => Frame::Expand { op, a: f1, b: g1 },
                _ => Frame::Eval { op, a: f1, b: g1, c: 0 },
            });
            scratch.frames.push(match low {
                Immediate::Expand => Frame::Expand { op, a: f0, b: g0 },
                _ => Frame::Eval { op, a: f0, b: g0, c: 0 },
            });
        }
    }
}

/// Tries to resolve a binary subproblem without a frame: terminal /
/// trivial rules, then (operands normalised) one cache probe. The
/// `Expand` outcome means the probe missed — the caller must push an
/// [`Frame::Expand`], not an `Eval`, so the probe is not repeated.
fn immediate_binary(dd: &mut DdKernel, op: u8, a: u32, b: u32) -> Immediate {
    match op {
        OP_AND => {
            if a == ZERO || b == ZERO {
                return Immediate::Resolved(ZERO);
            }
            if a == ONE {
                return Immediate::Resolved(b);
            }
            if b == ONE || a == b {
                return Immediate::Resolved(a);
            }
        }
        OP_OR => {
            if a == ONE || b == ONE {
                return Immediate::Resolved(ONE);
            }
            if a == ZERO {
                return Immediate::Resolved(b);
            }
            if b == ZERO || a == b {
                return Immediate::Resolved(a);
            }
        }
        OP_XOR => {
            if a == ZERO {
                return Immediate::Resolved(b);
            }
            if b == ZERO {
                return Immediate::Resolved(a);
            }
            if a == b {
                return Immediate::Resolved(ZERO);
            }
            if a == ONE || b == ONE {
                // Redirects to NOT: needs the full Eval treatment.
                return Immediate::Defer;
            }
        }
        _ => unreachable!("unknown binary op"),
    }
    let (x, y) = if a <= b { (a, b) } else { (b, a) };
    match dd.cache_get((op, x, y, 0)) {
        Some(r) => Immediate::Resolved(r),
        None => Immediate::Expand,
    }
}

/// The cofactors of `f` with respect to the variable at raw level `top`
/// (which must be ≤ the level of `f`'s top variable).
fn cofactors_at(dd: &DdKernel, f: u32, top: u32) -> (u32, u32) {
    if f <= ONE || dd.raw_level(f) != top {
        (f, f)
    } else {
        (dd.child(f, 0), dd.child(f, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively compares a BDD against a reference closure over all
    /// assignments of `n` variables.
    fn check<F: Fn(&[bool]) -> bool>(mgr: &BddManager, f: BddId, n: usize, reference: F) {
        for row in 0u32..(1 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| (row >> i) & 1 == 1).collect();
            assert_eq!(
                mgr.eval(f, &assignment),
                reference(&assignment),
                "assignment {assignment:?}"
            );
        }
    }

    #[test]
    fn basic_connectives() {
        let mut mgr = BddManager::new(3);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let z = mgr.var(2);
        let and = mgr.and(x, y);
        check(&mgr, and, 3, |a| a[0] && a[1]);
        let or = mgr.or(and, z);
        check(&mgr, or, 3, |a| (a[0] && a[1]) || a[2]);
        let xor = mgr.xor(x, z);
        check(&mgr, xor, 3, |a| a[0] ^ a[2]);
        let not = mgr.not(or);
        check(&mgr, not, 3, |a| !((a[0] && a[1]) || a[2]));
        let imp = mgr.implies(x, y);
        check(&mgr, imp, 3, |a| !a[0] || a[1]);
    }

    #[test]
    fn double_negation_is_identity() {
        let mut mgr = BddManager::new(4);
        let x = mgr.var(0);
        let y = mgr.var(2);
        let f = mgr.xor(x, y);
        let nf = mgr.not(f);
        let nnf = mgr.not(nf);
        assert_eq!(f, nnf);
    }

    #[test]
    fn de_morgan() {
        let mut mgr = BddManager::new(2);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let and = mgr.and(x, y);
        let lhs = mgr.not(and);
        let nx = mgr.not(x);
        let ny = mgr.not(y);
        let rhs = mgr.or(nx, ny);
        assert_eq!(lhs, rhs, "¬(x∧y) must equal ¬x∨¬y by canonicity");
    }

    #[test]
    fn ite_matches_definition() {
        let mut mgr = BddManager::new(3);
        let f = mgr.var(0);
        let g = mgr.var(1);
        let h = mgr.var(2);
        let ite = mgr.ite(f, g, h);
        check(&mgr, ite, 3, |a| if a[0] { a[1] } else { a[2] });
        // ite(f, 1, 0) = f
        assert_eq!(mgr.ite(f, BddId::ONE, BddId::ZERO), f);
        // ite with equal branches
        assert_eq!(mgr.ite(f, g, g), g);
        // terminal guards
        assert_eq!(mgr.ite(BddId::ONE, g, h), g);
        assert_eq!(mgr.ite(BddId::ZERO, g, h), h);
    }

    #[test]
    fn many_operand_helpers() {
        let mut mgr = BddManager::new(4);
        let vars: Vec<BddId> = (0..4).map(|i| mgr.var(i)).collect();
        let all = mgr.and_many(vars.iter().copied());
        check(&mgr, all, 4, |a| a.iter().all(|&v| v));
        let any = mgr.or_many(vars.iter().copied());
        check(&mgr, any, 4, |a| a.iter().any(|&v| v));
        let parity = mgr.xor_many(vars.iter().copied());
        check(&mgr, parity, 4, |a| a.iter().filter(|&&v| v).count() % 2 == 1);
        assert_eq!(mgr.and_many(std::iter::empty()), mgr.one());
        assert_eq!(mgr.or_many(std::iter::empty()), mgr.zero());
    }

    #[test]
    fn thresholds() {
        let mut mgr = BddManager::new(5);
        let vars: Vec<BddId> = (0..5).map(|i| mgr.var(i)).collect();
        for k in 0..=6 {
            let f = mgr.at_least(k, &vars);
            check(&mgr, f, 5, |a| a.iter().filter(|&&v| v).count() >= k);
        }
        let exactly2 = mgr.exactly(2, &vars);
        check(&mgr, exactly2, 5, |a| a.iter().filter(|&&v| v).count() == 2);
        // 2-of-3 equals the majority function.
        let maj_vars = &vars[0..3];
        let maj = mgr.at_least(2, maj_vars);
        check(&mgr, maj, 3, |a| (a[0] as u8 + a[1] as u8 + a[2] as u8) >= 2);
    }

    #[test]
    fn restrict_and_exists() {
        let mut mgr = BddManager::new(3);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let z = mgr.var(2);
        let yz = mgr.and(y, z);
        let f = mgr.or(x, yz); // f = x + y z
        let f_x1 = mgr.restrict(f, 0, true);
        assert_eq!(f_x1, mgr.one());
        let f_x0 = mgr.restrict(f, 0, false);
        assert_eq!(f_x0, yz);
        // Restrict on a variable not in the support is the identity.
        assert_eq!(mgr.restrict(yz, 0, true), yz);
        // Restrict below the root.
        let f_z0 = mgr.restrict(f, 2, false);
        assert_eq!(f_z0, x);
        // ∃x . f = 1 (taking x = 1 satisfies it).
        assert_eq!(mgr.exists(f, 0), mgr.one());
        // ∃z . yz = y
        assert_eq!(mgr.exists(yz, 2), y);
    }

    #[test]
    fn cache_effectiveness_same_result() {
        // Repeating an operation must give the identical node id (canonical + cached).
        let mut mgr = BddManager::new(8);
        let vars: Vec<BddId> = (0..8).map(|i| mgr.var(i)).collect();
        let f1 = mgr.at_least(3, &vars);
        let before = mgr.peak_nodes();
        let f2 = mgr.at_least(3, &vars);
        assert_eq!(f1, f2);
        assert_eq!(mgr.peak_nodes(), before, "no new nodes should be created");
        mgr.clear_op_caches();
        let f3 = mgr.at_least(3, &vars);
        assert_eq!(f1, f3);
    }
}
