//! Boolean operations on ROBDDs: NOT, AND, OR, XOR, ITE and thresholds.
//!
//! All connectives use Shannon expansion: a subproblem `op(a, b[, c])`
//! whose operands are not settled by a terminal rule splits at its top
//! level ℓ (the smallest level among its operands) into the two cofactor
//! subproblems, and its result is the node `mk(ℓ, low, high)`. The cost
//! of an operation is bounded by the product of the operand sizes.
//!
//! # One level at a time
//!
//! The engine is **level-synchronous** (breadth-first), after Ochi,
//! Yasuoka and Yajima, "Breadth-first manipulation of very large
//! binary-decision diagrams" (ICCAD 1993) and Sanghavi et al., "High
//! performance BDD package by exploiting memory hierarchy" (DAC 1996).
//! Every call makes two passes over a request table of its own, in
//! which each distinct subproblem appears once, filed under its top
//! level:
//!
//! * **Top-down.** Levels are visited from the root's level downwards.
//!   Each request at level ℓ reads its operands' nodes and expands into
//!   its two cofactor subproblems. A terminal rule settles a child at
//!   once; any other child is deduplicated into the table of its own,
//!   strictly deeper, level. The request keeps only the two child
//!   references; a level's operands and its dedupe table are released
//!   as soon as the level is expanded.
//! * **Bottom-up.** Levels are visited from the deepest one upwards,
//!   and every request is built with `mk` from its children's results.
//!
//! A depth-first apply chains its memory loads: it reads a node, picks
//! the next subproblem from what it read, probes the cache for it and
//! only then reads the next node. On large diagrams each of those loads
//! misses the processor caches, and a dependent miss costs an order of
//! magnitude more than one the core can overlap with others. Within one
//! level of this engine no request depends on another, so the loads of
//! neighbouring requests overlap. On a 2-core host the critical
//! ESEN4x2 λ'=2 build runs 2.3–3.4× faster than it did depth-first
//! (README, "Level-synchronous apply").
//!
//! # The operation cache holds whole operations only
//!
//! The kernel's lossy operation cache is probed once per call, with the
//! root subproblem, and filled once with its result. Inner subproblems
//! are deduplicated exactly inside the call instead: probing the cache
//! for every child puts a dependent miss back on every expansion (the
//! critical build took about three times as long that way). Root
//! entries keep a repeated whole operation O(1); the price is that
//! separate calls no longer share inner results, which costs the
//! `at_least` dynamic program, whose calls overlap, a little.
//!
//! The set of nodes an operation allocates is the same as under
//! depth-first evaluation — every reachable subproblem's result, minus
//! those that already exist — so node counts and peaks do not depend on
//! the engine; only the order in which nodes are allocated, and with it
//! their ids, does.

use crate::manager::{BddId, BddManager};
use socy_dd::{DdKernel, ONE, ZERO};

/// Operation tags used as keys in the kernel's operation cache.
const OP_AND: u8 = 0;
const OP_OR: u8 = 1;
const OP_XOR: u8 = 2;
const OP_NOT: u8 = 3;
const OP_ITE: u8 = 4;

/// Tags a child reference that names a request of the running call (by
/// request id) rather than a finished node. Node ids stay below it: the
/// engine asserts that the arena holds fewer than 2^31 nodes.
const PENDING: u32 = 1 << 31;

/// Buffers at most this long keep their capacity for the next call;
/// longer ones are freed as soon as their contents are dead, so one
/// large operation does not leave its peak allocated for the rest of a
/// compilation.
const KEEP_CAPACITY: usize = 1 << 8;

/// What the terminal rules make of a subproblem.
enum Reduced<const N: usize> {
    /// The result is this node.
    Node(u32),
    /// A genuine subproblem, with its operands normalised.
    Request([u32; N]),
}

/// `a ∧ b`.
fn and_rule([a, b]: [u32; 2]) -> Reduced<2> {
    if a == ZERO || b == ZERO {
        Reduced::Node(ZERO)
    } else if a == ONE || a == b {
        Reduced::Node(b)
    } else if b == ONE {
        Reduced::Node(a)
    } else {
        Reduced::Request(if a < b { [a, b] } else { [b, a] })
    }
}

/// `a ∨ b`.
fn or_rule([a, b]: [u32; 2]) -> Reduced<2> {
    if a == ONE || b == ONE {
        Reduced::Node(ONE)
    } else if a == ZERO || a == b {
        Reduced::Node(b)
    } else if b == ZERO {
        Reduced::Node(a)
    } else {
        Reduced::Request(if a < b { [a, b] } else { [b, a] })
    }
}

/// `a ⊕ b`. A request with a `ONE` operand is the negation of the other
/// operand: its cofactors are again `ONE ⊕ ·`, so NOT needs no rules of
/// its own.
fn xor_rule([a, b]: [u32; 2]) -> Reduced<2> {
    if a == b {
        Reduced::Node(ZERO)
    } else if a == ZERO {
        Reduced::Node(b)
    } else if b == ZERO {
        Reduced::Node(a)
    } else {
        Reduced::Request(if a < b { [a, b] } else { [b, a] })
    }
}

/// `ite(f, g, h) = f·g + f̄·h`.
fn ite_rule([f, g, h]: [u32; 3]) -> Reduced<3> {
    if f == ONE || g == h {
        Reduced::Node(g)
    } else if f == ZERO {
        Reduced::Node(h)
    } else if g == ONE && h == ZERO {
        Reduced::Node(f)
    } else {
        Reduced::Request([f, g, h])
    }
}

/// A request: its operands and its id.
#[derive(Debug, Clone, Copy)]
struct Entry<const N: usize> {
    key: [u32; N],
    id: u32,
}

/// The requests of one level in creation order, deduplicated through an
/// open-addressed index with linear probing, kept at most three
/// quarters full.
///
/// Creation order is breadth-first discovery order: a level's requests
/// follow their parents' order, high child before low child. The
/// bottom-up pass allocates the level's new nodes in that order, so a
/// later depth-first walk of the result that takes high branches first
/// (the ROMDD conversion) reads each level's nodes roughly front to back,
/// and the next operation on the result reads its operands the same way.
#[derive(Debug, Clone, Default)]
struct LevelTable<const N: usize> {
    entries: Vec<Entry<N>>,
    /// Per slot: the low 32 bits of the key's hash, to skip most
    /// mismatches without reading the entry, above the entry's position
    /// plus one (`0` marks a free slot).
    index: Vec<u64>,
    /// `64 - log2(index.len())`: the home slot is the hash's top bits.
    shift: u32,
}

impl<const N: usize> LevelTable<N> {
    /// The id of the request `key`, filed under `id` if it is new.
    fn intern(&mut self, key: [u32; N], id: u32) -> u32 {
        if (self.entries.len() + 1) * 4 > self.index.len() * 3 {
            self.grow();
        }
        let h = hash(&key);
        let tag = h << 32;
        let mask = self.index.len() - 1;
        let mut i = (h >> self.shift) as usize;
        loop {
            let slot = self.index[i];
            if slot == 0 {
                self.entries.push(Entry { key, id });
                self.index[i] = tag | self.entries.len() as u64;
                return id;
            }
            if slot & !0xffff_ffff == tag {
                let entry = &self.entries[(slot as u32 - 1) as usize];
                if entry.key == key {
                    return entry.id;
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the index and re-places every entry in it.
    fn grow(&mut self) {
        let capacity = (self.index.len() * 2).max(16);
        self.index.clear();
        self.index.resize(capacity, 0);
        self.shift = 64 - capacity.trailing_zeros();
        let mask = capacity - 1;
        for (position, entry) in self.entries.iter().enumerate() {
            let h = hash(&entry.key);
            let mut i = (h >> self.shift) as usize;
            while self.index[i] != 0 {
                i = (i + 1) & mask;
            }
            self.index[i] = h << 32 | (position as u64 + 1);
        }
    }

    /// Empties the table once its level is expanded. A small table keeps
    /// its buffers for the next call; a large or sparse one is freed.
    fn reset(&mut self) {
        if self.index.len() > KEEP_CAPACITY || self.index.len() > 8 * self.entries.len().max(8) {
            *self = Self::default();
        } else {
            self.entries.clear();
            self.index.fill(0);
        }
    }
}

/// Hash of a request's operands: multiply-xorshift rounds, whose top
/// bits address the home slot. (A single FxHash-style multiply left the
/// top bits so poorly mixed that an insert probed twelve slots on
/// average, against three with this mixer.)
#[inline]
fn hash<const N: usize>(key: &[u32; N]) -> u64 {
    let mut h = 0u64;
    for &word in key {
        h = (h ^ u64::from(word)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
    }
    h.wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

/// The level-synchronous engine for operations on `N` operands, with
/// the buffers it reuses from one call to the next.
#[derive(Debug, Clone, Default)]
pub(crate) struct LevelSync<const N: usize> {
    /// The not-yet-expanded requests of each level.
    tables: Vec<LevelTable<N>>,
    /// Per request id: its two child references (a node id, or a request
    /// id tagged with [`PENDING`]). The bottom-up pass overwrites the
    /// first one with the request's result.
    kids: Vec<[u32; 2]>,
    /// Request ids in expansion order: level by level, top-down.
    order: Vec<u32>,
    /// `(level, start)` of each expanded level's run in `order`.
    spans: Vec<(u32, usize)>,
    /// The level being expanded: two cofactor subproblems per request,
    /// high then low.
    children: Vec<[u32; N]>,
    /// Top-down, per entry of `children`: the settled node, or the
    /// child's level tagged with [`PENDING`], then the child reference.
    /// Bottom-up, the children's results of the level being built.
    refs: Vec<u32>,
}

impl<const N: usize> LevelSync<N> {
    /// Computes the normalised, non-terminal subproblem `root` under the
    /// terminal rules `reduce`, and returns its result node.
    fn run(
        &mut self,
        dd: &mut DdKernel,
        reduce: impl Fn([u32; N]) -> Reduced<N>,
        root: [u32; N],
    ) -> u32 {
        assert!(
            dd.allocated_nodes() <= PENDING as usize,
            "the apply engine tags request references with bit 31, so the arena must hold fewer than 2^31 nodes"
        );
        debug_assert!(self.kids.is_empty() && self.order.is_empty() && self.spans.is_empty());
        if self.tables.len() < dd.num_levels() {
            self.tables.resize_with(dd.num_levels(), LevelTable::default);
        }

        // Top-down: expand every level's requests into their children.
        let top = top_level(dd, &root);
        let mut deepest = top;
        self.request(top, root);
        let mut level = top;
        while level <= deepest {
            let mut table = std::mem::take(&mut self.tables[level as usize]);
            if !table.entries.is_empty() {
                let start = self.order.len();
                self.spans.push((level, start));
                // Three short loops rather than one: the loads of a loop
                // do not depend on what it computed for earlier requests,
                // so the core overlaps their misses.
                // 1. The requests' operand nodes give the cofactors. High
                //    before low: the ROMDD conversion walks a diagram high
                //    branch first, so children filed in this order lay out
                //    each level of the result in the order it reads them.
                for &Entry { key, id } in &table.entries {
                    let (mut low, mut high) = (key, key);
                    for i in 0..N {
                        (low[i], high[i]) = cofactors_at(dd, key[i], level);
                    }
                    self.order.push(id);
                    self.children.push(high);
                    self.children.push(low);
                }
                table.reset();
                self.tables[level as usize] = table;
                // 2. Terminal rules settle children; the others' operand
                //    nodes give the level they are filed under.
                for child in &mut self.children {
                    self.refs.push(match reduce(*child) {
                        Reduced::Node(node) => node,
                        Reduced::Request(key) => {
                            *child = key;
                            top_level(dd, &key) | PENDING
                        }
                    });
                }
                // 3. File the open children in their levels' tables.
                for i in 0..self.children.len() {
                    let r = self.refs[i];
                    if r & PENDING != 0 {
                        let at = r ^ PENDING;
                        deepest = deepest.max(at);
                        self.refs[i] = self.request(at, self.children[i]) | PENDING;
                    }
                }
                for (&id, high_low) in self.order[start..].iter().zip(self.refs.chunks_exact(2)) {
                    self.kids[id as usize] = [high_low[1], high_low[0]];
                }
                self.children.clear();
                self.refs.clear();
            }
            level += 1;
        }

        // Bottom-up: build each level from the results below it.
        let kids = &mut self.kids;
        let mut end = self.order.len();
        while let Some((level, start)) = self.spans.pop() {
            let ids = &self.order[start..end];
            // 1. The children's results. A settled reference reads slot
            //    0 and discards it, so no branch waits on a loaded value.
            for &id in ids {
                for r in kids[id as usize] {
                    let pending = r & PENDING != 0;
                    let below = kids[if pending { (r ^ PENDING) as usize } else { 0 }][0];
                    self.refs.push(if pending { below } else { r });
                }
            }
            // 2. The nodes.
            for (&id, pair) in ids.iter().zip(self.refs.chunks_exact(2)) {
                kids[id as usize][0] = dd.mk(level, pair);
            }
            self.refs.clear();
            end = start;
        }
        let result = kids[0][0];
        reuse(&mut self.kids);
        reuse(&mut self.order);
        reuse(&mut self.children);
        reuse(&mut self.refs);
        result
    }

    /// Files the new subproblem `key` at `level` and returns its id, or
    /// returns the id of the equal request already there.
    fn request(&mut self, level: u32, key: [u32; N]) -> u32 {
        let fresh = self.kids.len() as u32;
        let id = self.tables[level as usize].intern(key, fresh);
        if id == fresh {
            assert!(fresh < PENDING, "more than 2^31 requests in one operation");
            self.kids.push([ZERO; 2]);
        }
        id
    }
}

/// Empties a buffer at the end of a call. It keeps its capacity for
/// the next call unless it grew past [`KEEP_CAPACITY`].
fn reuse<T>(buffer: &mut Vec<T>) {
    if buffer.capacity() > KEEP_CAPACITY {
        *buffer = Vec::new();
    } else {
        buffer.clear();
    }
}

/// Reusable state of the apply engines (held by the manager so that
/// small consecutive operations allocate nothing).
#[derive(Debug, Clone, Default)]
pub(crate) struct ApplyScratch {
    binary: LevelSync<2>,
    ternary: LevelSync<3>,
}

impl BddManager {
    /// Logical negation.
    pub fn not(&mut self, f: BddId) -> BddId {
        self.apply(OP_NOT, xor_rule, [ONE, f.0], |s| &mut s.binary)
    }

    /// Logical conjunction `f ∧ g`.
    pub fn and(&mut self, f: BddId, g: BddId) -> BddId {
        self.apply(OP_AND, and_rule, [f.0, g.0], |s| &mut s.binary)
    }

    /// Logical disjunction `f ∨ g`.
    pub fn or(&mut self, f: BddId, g: BddId) -> BddId {
        self.apply(OP_OR, or_rule, [f.0, g.0], |s| &mut s.binary)
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: BddId, g: BddId) -> BddId {
        self.apply(OP_XOR, xor_rule, [f.0, g.0], |s| &mut s.binary)
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
        self.apply(OP_ITE, ite_rule, [f.0, g.0, h.0], |s| &mut s.ternary)
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

    /// Runs one operation: the terminal rules, then the operation cache,
    /// then the level-synchronous engine `engine` picks from the
    /// manager's scratch. `op` tags the cache entry.
    ///
    /// The engine is taken out of the manager for the call, so a governor
    /// trip unwinding from the middle of a pass drops its half-filled
    /// tables, and the next call starts from empty ones.
    fn apply<const N: usize>(
        &mut self,
        op: u8,
        reduce: impl Fn([u32; N]) -> Reduced<N>,
        operands: [u32; N],
        engine: fn(&mut ApplyScratch) -> &mut LevelSync<N>,
    ) -> BddId {
        let key = match reduce(operands) {
            Reduced::Node(node) => return BddId(node),
            Reduced::Request(key) => key,
        };
        let mut cache_key = [ZERO; 3];
        cache_key[..N].copy_from_slice(&key);
        let cache_key = (op, cache_key[0], cache_key[1], cache_key[2]);
        if let Some(result) = self.dd.cache_get(cache_key) {
            return BddId(result);
        }
        let mut sync = std::mem::take(engine(&mut self.scratch));
        let result = sync.run(&mut self.dd, reduce, key);
        *engine(&mut self.scratch) = sync;
        self.dd.cache_insert(cache_key, result);
        BddId(result)
    }
}

/// The top level of a subproblem: the smallest level among its operands.
#[inline]
fn top_level<const N: usize>(dd: &DdKernel, key: &[u32; N]) -> u32 {
    key.iter().map(|&f| dd.raw_level(f)).min().expect("operations have operands")
}

/// The cofactors of `f` with respect to the variable at raw level `top`
/// (which must be ≤ the level of `f`'s top variable).
#[inline]
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
    fn operands_whose_top_levels_are_far_apart() {
        // Each operand skips several levels below its root, so a request
        // expanded at level 0 files its children three to six levels
        // down, and the bottom-up pass builds across the gaps.
        let mut mgr = BddManager::new(8);
        let x: Vec<BddId> = (0..8).map(|i| mgr.var(i)).collect();
        let f = mgr.xor(x[0], x[6]);
        let g = mgr.and(x[3], x[7]);
        let h = mgr.or(x[1], x[5]);
        let or = mgr.or(f, g);
        check(&mgr, or, 8, |a| (a[0] ^ a[6]) || (a[3] && a[7]));
        let and = mgr.and(f, g);
        check(&mgr, and, 8, |a| (a[0] ^ a[6]) && a[3] && a[7]);
        let xor = mgr.xor(or, h);
        check(&mgr, xor, 8, |a| ((a[0] ^ a[6]) || (a[3] && a[7])) ^ (a[1] || a[5]));
        let ite = mgr.ite(x[0], g, h);
        check(&mgr, ite, 8, |a| if a[0] { a[3] && a[7] } else { a[1] || a[5] });
        let deep = mgr.ite(x[7], f, x[2]);
        check(&mgr, deep, 8, |a| if a[7] { a[0] ^ a[6] } else { a[2] });
    }

    #[test]
    fn xor_with_one_inside_a_call_is_a_negation() {
        // f = x0 ∨ x2 has the high cofactor ONE at level 0, so xor(f, g)
        // files ONE ⊕ g — the negation of g — as a request of the same
        // call.
        let mut mgr = BddManager::new(3);
        let x0 = mgr.var(0);
        let x1 = mgr.var(1);
        let x2 = mgr.var(2);
        let f = mgr.or(x0, x2);
        let g = mgr.and(x1, x2);
        let r = mgr.xor(f, g);
        check(&mgr, r, 3, |a| (a[0] || a[2]) ^ (a[1] && a[2]));
        let not_g = mgr.not(g);
        assert_eq!(mgr.high(r), not_g, "the high cofactor is ¬g");
        assert_eq!(mgr.xor(BddId::ONE, g), not_g);
        assert_eq!(mgr.xor(g, BddId::ONE), not_g);
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
