//! The [`BddManager`]: a thin boolean-logic layer over the shared
//! [`socy_dd`] kernel (arena, unique table, operation cache).

use std::fmt;

use socy_dd::kernel::{DdKernel, DdStats, GcStats, Ref};
use socy_dd::reorder::{SiftConfig, SiftOutcome};

/// Identifier of a BDD node within a [`BddManager`].
///
/// The identifiers `0` and `1` are reserved for the terminal nodes FALSE
/// and TRUE respectively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddId(pub(crate) u32);

impl BddId {
    /// The FALSE terminal.
    pub const ZERO: BddId = BddId(socy_dd::ZERO);
    /// The TRUE terminal.
    pub const ONE: BddId = BddId(socy_dd::ONE);

    /// Raw index of this node in the manager's arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// True if this is one of the two terminal nodes.
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    /// True if this is the TRUE terminal.
    pub fn is_one(self) -> bool {
        self.0 == 1
    }

    /// True if this is the FALSE terminal.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for BddId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "FALSE"),
            1 => write!(f, "TRUE"),
            i => write!(f, "b{i}"),
        }
    }
}

/// Level used internally for terminal nodes (greater than every variable
/// level, so terminals sort below all variables).
pub(crate) const TERMINAL_LEVEL: u32 = socy_dd::TERMINAL_LEVEL;

/// A manager owning a forest of ROBDD nodes over a fixed number of
/// variable levels.
///
/// All functions created through one manager share structure via the
/// kernel's unique table, which is what makes the representation
/// canonical: two [`BddId`]s are equal **iff** they denote the same
/// boolean function under the manager's variable order.
#[derive(Debug, Clone)]
pub struct BddManager {
    pub(crate) dd: DdKernel,
    /// Reusable stacks of the iterative apply machine (see
    /// [`crate::apply`]).
    pub(crate) scratch: crate::apply::ApplyScratch,
}

impl BddManager {
    /// Creates a manager over `num_levels` boolean variable levels.
    ///
    /// Every edge is plain: a node id denotes exactly the function of
    /// that node, and negation ([`BddManager::not`]) builds the negated
    /// diagram through the memoized apply machine.
    pub fn new(num_levels: usize) -> Self {
        Self { dd: DdKernel::new(vec![2; num_levels]), scratch: Default::default() }
    }

    /// Creates a manager whose operation cache starts with `capacity`
    /// slots and may grow up to `max_capacity` (both rounded to powers of
    /// two; equal bounds pin the size). The cache is lossy, so any
    /// capacity — even 1 — produces identical diagrams; smaller caches
    /// only recompute more.
    pub fn with_cache_capacity(num_levels: usize, capacity: usize, max_capacity: usize) -> Self {
        Self {
            dd: DdKernel::with_cache_capacity(vec![2; num_levels], capacity, max_capacity),
            scratch: Default::default(),
        }
    }

    /// The FALSE terminal.
    pub fn zero(&self) -> BddId {
        BddId::ZERO
    }

    /// The TRUE terminal.
    pub fn one(&self) -> BddId {
        BddId::ONE
    }

    /// Number of variable levels this manager was created with.
    pub fn num_levels(&self) -> usize {
        self.dd.num_levels()
    }

    /// Extends the manager with additional variable levels (appended after
    /// the existing ones). Existing nodes are unaffected.
    pub fn add_levels(&mut self, extra: usize) {
        self.dd.add_levels(std::iter::repeat_n(2, extra));
    }

    /// The level tested by `id`, or `None` for terminals.
    pub fn level(&self, id: BddId) -> Option<usize> {
        self.dd.level(id.0)
    }

    /// The low (variable = 0) child of a non-terminal node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a terminal.
    pub fn low(&self, id: BddId) -> BddId {
        assert!(!id.is_terminal(), "terminals have no children");
        BddId(self.dd.child(id.0, 0))
    }

    /// The high (variable = 1) child of a non-terminal node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a terminal.
    pub fn high(&self, id: BddId) -> BddId {
        assert!(!id.is_terminal(), "terminals have no children");
        BddId(self.dd.child(id.0, 1))
    }

    pub(crate) fn raw_level(&self, id: BddId) -> u32 {
        self.dd.raw_level(id.0)
    }

    /// Returns (creating if necessary) the canonical node `(level, low, high)`.
    ///
    /// Applies the ROBDD reduction rule: if `low == high` the node is
    /// redundant and `low` is returned directly.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range or if either child tests a level
    /// not strictly below `level` (which would violate the ordering
    /// invariant).
    pub fn mk(&mut self, level: usize, low: BddId, high: BddId) -> BddId {
        assert!(level < self.dd.num_levels(), "level {level} out of range");
        debug_assert!(
            self.raw_level(low) > level as u32 && self.raw_level(high) > level as u32,
            "children must test strictly lower levels"
        );
        BddId(self.dd.mk(level as u32, &[low.0, high.0]))
    }

    /// The positive literal of the variable at `level`.
    pub fn var(&mut self, level: usize) -> BddId {
        self.mk(level, BddId::ZERO, BddId::ONE)
    }

    /// The negative literal of the variable at `level`.
    pub fn nvar(&mut self, level: usize) -> BddId {
        self.mk(level, BddId::ONE, BddId::ZERO)
    }

    /// A literal: positive when `positive` is true, negated otherwise.
    pub fn literal(&mut self, level: usize, positive: bool) -> BddId {
        if positive {
            self.var(level)
        } else {
            self.nvar(level)
        }
    }

    /// Constant node for a boolean value.
    pub fn constant(&self, value: bool) -> BddId {
        if value {
            BddId::ONE
        } else {
            BddId::ZERO
        }
    }

    /// Largest number of simultaneously allocated nodes observed so far,
    /// including the two terminals — the metric the paper reports as
    /// "ROBDD peak" (it determines peak memory consumption). Until the
    /// first [`BddManager::gc`] this equals the total nodes ever created.
    pub fn peak_nodes(&self) -> usize {
        self.dd.peak_nodes()
    }

    /// Nodes currently allocated, including the two terminals (live
    /// closures of all roots plus any garbage not yet collected).
    pub fn allocated_nodes(&self) -> usize {
        self.dd.allocated_nodes()
    }

    /// Kernel statistics: peak/live nodes, unique-table entries,
    /// operation-cache hit/miss counts and collection totals.
    pub fn stats(&self) -> DdStats {
        self.dd.stats()
    }

    /// Arms (or, with `None`, disarms) the kernel's resource governor:
    /// every subsequent node materialisation reports to it. See
    /// [`DdKernel::set_governor`](socy_dd::DdKernel::set_governor).
    pub fn set_governor(&mut self, governor: Option<socy_dd::Governor>) {
        self.dd.set_governor(governor);
    }

    /// Clears the operation caches (the unique table is kept, so canonicity
    /// is unaffected). Useful between large independent builds to bound
    /// cache memory.
    pub fn clear_op_caches(&mut self) {
        self.dd.clear_op_cache();
    }

    // ---- garbage collection and reordering ---------------------------------

    /// Registers `id` as an external root surviving every
    /// [`BddManager::gc`] until the handle is passed to
    /// [`BddManager::unprotect`].
    pub fn protect(&mut self, id: BddId) -> Ref {
        self.dd.protect(id.0)
    }

    /// Releases a protection and returns the root's current id.
    pub fn unprotect(&mut self, handle: Ref) -> BddId {
        BddId(self.dd.unprotect(handle))
    }

    /// Current id of a protected root (collections renumber node ids).
    pub fn resolve(&self, handle: Ref) -> BddId {
        BddId(self.dd.resolve(handle))
    }

    /// Mark-and-sweep garbage collection over the protected roots.
    ///
    /// Every [`BddId`] obtained before the collection is invalidated;
    /// carry roots across with [`BddManager::protect`] /
    /// [`BddManager::resolve`]. The recorded peak is unaffected.
    pub fn gc(&mut self) -> GcStats {
        self.dd.gc()
    }

    /// Dynamic variable reordering by sifting, minimising the node count
    /// of the union of `roots` (each entry is updated to the root's id
    /// after the run). Equivalent to
    /// [`reorder_sift_grouped`](BddManager::reorder_sift_grouped) with
    /// every level in its own block.
    pub fn reorder_sift(&mut self, roots: &mut [BddId], config: &SiftConfig) -> SiftOutcome {
        let ones = vec![1; self.num_levels()];
        self.reorder_sift_grouped(roots, &ones, config)
    }

    /// Grouped sifting: contiguous blocks of levels (e.g. the bit groups
    /// of a coded ROBDD) move as indivisible units, so group contiguity
    /// invariants survive the reordering.
    ///
    /// After the run, level `l` tests the variable previously tested at
    /// level `SiftOutcome::level_origin[l]`; callers evaluating by level
    /// (e.g. [`BddManager::eval`]) must remap their assignments
    /// accordingly. The swap garbage is collected before returning:
    /// anything not reachable from `roots` or a separately protected root
    /// is reclaimed and all prior [`BddId`]s are invalidated — `roots` is
    /// updated in place with the post-collection ids.
    pub fn reorder_sift_grouped(
        &mut self,
        roots: &mut [BddId],
        block_sizes: &[usize],
        config: &SiftConfig,
    ) -> SiftOutcome {
        let mut raw: Vec<u32> = roots.iter().map(|r| r.0).collect();
        let outcome = self.dd.sift_blocks(&mut raw, block_sizes, config);
        for (slot, &id) in roots.iter_mut().zip(&raw) {
            *slot = BddId(id);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals() {
        let mgr = BddManager::new(2);
        assert!(mgr.zero().is_zero());
        assert!(mgr.one().is_one());
        assert!(mgr.zero().is_terminal());
        assert_eq!(mgr.level(mgr.one()), None);
        assert_eq!(mgr.constant(true), mgr.one());
        assert_eq!(mgr.constant(false), mgr.zero());
        assert_eq!(format!("{}", mgr.one()), "TRUE");
        assert_eq!(format!("{}", mgr.zero()), "FALSE");
        assert_eq!(format!("{}", BddId(5)), "b5");
        assert_eq!(mgr.peak_nodes(), 2);
    }

    #[test]
    fn hash_consing_is_canonical() {
        let mut mgr = BddManager::new(3);
        let a = mgr.var(1);
        let b = mgr.var(1);
        assert_eq!(a, b);
        assert_eq!(mgr.peak_nodes(), 3);
        let n1 = mgr.mk(0, a, mgr.one());
        let n2 = mgr.mk(0, a, mgr.one());
        assert_eq!(n1, n2);
    }

    #[test]
    fn redundant_nodes_are_eliminated() {
        let mut mgr = BddManager::new(2);
        let x = mgr.var(1);
        let r = mgr.mk(0, x, x);
        assert_eq!(r, x, "node with equal children must collapse");
    }

    #[test]
    fn literals() {
        let mut mgr = BddManager::new(2);
        let pos = mgr.literal(0, true);
        let neg = mgr.literal(0, false);
        assert_eq!(mgr.low(pos), mgr.zero());
        assert_eq!(mgr.high(pos), mgr.one());
        assert_eq!(mgr.low(neg), mgr.one());
        assert_eq!(mgr.high(neg), mgr.zero());
        assert_eq!(mgr.level(pos), Some(0));
    }

    #[test]
    #[should_panic]
    fn out_of_range_level_panics() {
        let mut mgr = BddManager::new(1);
        let _ = mgr.var(1);
    }

    #[test]
    #[should_panic]
    fn children_of_terminals_panic() {
        let mgr = BddManager::new(1);
        let _ = mgr.low(mgr.one());
    }

    #[test]
    fn add_levels_extends_range() {
        let mut mgr = BddManager::new(1);
        mgr.add_levels(2);
        assert_eq!(mgr.num_levels(), 3);
        let _ = mgr.var(2);
    }

    #[test]
    fn stats_track_the_kernel() {
        let mut mgr = BddManager::new(3);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let _ = mgr.and(x, y);
        let stats = mgr.stats();
        assert_eq!(stats.peak_nodes, mgr.peak_nodes());
        assert_eq!(stats.unique_entries, mgr.peak_nodes() - 2);
        assert!(stats.op_cache_misses > 0);
    }

    #[test]
    fn gc_keeps_protected_functions() {
        let mut mgr = BddManager::new(4);
        let vars: Vec<BddId> = (0..4).map(|i| mgr.var(i)).collect();
        let keep = mgr.at_least(2, &vars);
        let _drop = mgr.at_least(3, &vars); // garbage after the collection
        let before = mgr.allocated_nodes();
        let handle = mgr.protect(keep);
        let gc = mgr.gc();
        assert!(gc.reclaimed_nodes > 0);
        assert!(mgr.allocated_nodes() < before);
        assert_eq!(mgr.peak_nodes(), before, "peak survives the collection");
        let keep = mgr.unprotect(handle);
        for row in 0..16u32 {
            let a: Vec<bool> = (0..4).map(|i| (row >> i) & 1 == 1).collect();
            assert_eq!(mgr.eval(keep, &a), a.iter().filter(|&&v| v).count() >= 2);
        }
    }

    #[test]
    fn reorder_sift_shrinks_a_separated_order() {
        // x0·x3 + x1·x4 + x2·x5 with the pair-separating order is the
        // classic blow-up; sifting must interleave the pairs again.
        let mut mgr = BddManager::new(6);
        let mut f = mgr.zero();
        for i in 0..3 {
            let a = mgr.var(i);
            let b = mgr.var(i + 3);
            let pair = mgr.and(a, b);
            f = mgr.or(f, pair);
        }
        let truth: Vec<bool> = (0..64u32)
            .map(|row| {
                let a: Vec<bool> = (0..6).map(|i| (row >> i) & 1 == 1).collect();
                mgr.eval(f, &a)
            })
            .collect();
        let before = mgr.node_count(f);
        let mut roots = [f];
        let outcome = mgr.reorder_sift(&mut roots, &SiftConfig { max_growth: 2.0, max_rounds: 4 });
        let f = roots[0];
        assert!(outcome.final_size < before, "{} -> {}", before, outcome.final_size);
        assert_eq!(mgr.node_count(f), outcome.final_size);
        assert_eq!(mgr.allocated_nodes(), outcome.final_size, "sift garbage was collected");
        // Unchanged function modulo the reported level permutation.
        for (row, &want) in truth.iter().enumerate() {
            let by_var: Vec<bool> = (0..6).map(|i| (row >> i) & 1 == 1).collect();
            let by_level: Vec<bool> = outcome.level_origin.iter().map(|&o| by_var[o]).collect();
            assert_eq!(mgr.eval(f, &by_level), want);
        }
    }
}
