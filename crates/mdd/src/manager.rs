//! The [`MddManager`]: a thin multiple-valued layer (variable domains,
//! indicator constructors, evaluation) over the shared [`socy_dd`] kernel.

use std::fmt;

use socy_dd::kernel::{DdKernel, DdStats, GcStats, Ref};
use socy_dd::reorder::{SiftConfig, SiftOutcome};

/// Identifier of an ROMDD node within an [`MddManager`].
///
/// Identifiers `0` and `1` denote the boolean terminal nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MddId(pub(crate) u32);

impl MddId {
    /// The FALSE terminal.
    pub const ZERO: MddId = MddId(socy_dd::ZERO);
    /// The TRUE terminal.
    pub const ONE: MddId = MddId(socy_dd::ONE);

    /// Raw index of this node in the manager's arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// True if this is one of the two terminals.
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

impl fmt::Display for MddId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "FALSE"),
            1 => write!(f, "TRUE"),
            i => write!(f, "m{i}"),
        }
    }
}

pub(crate) const TERMINAL_LEVEL: u32 = socy_dd::TERMINAL_LEVEL;

/// A manager owning a forest of ROMDD nodes over a fixed sequence of
/// multiple-valued variables (one per level, each with its own finite
/// domain size).
#[derive(Debug, Clone)]
pub struct MddManager {
    pub(crate) dd: DdKernel,
    pub(crate) domains: Vec<usize>,
    /// Reusable stacks of the iterative apply machine (see
    /// [`crate::apply`]).
    pub(crate) scratch: crate::apply::ApplyScratch,
    /// Reusable buffers of the iterative coded-ROBDD converter (see
    /// [`crate::from_bdd`]).
    pub(crate) conv: crate::from_bdd::ConvScratch,
}

impl MddManager {
    /// Creates a manager for multiple-valued variables with the given
    /// domain sizes: the variable at level `i` ranges over
    /// `0 .. domains[i]`.
    ///
    /// # Panics
    ///
    /// Panics if any domain size is zero.
    pub fn new(domains: Vec<usize>) -> Self {
        assert!(domains.iter().all(|&d| d >= 1), "every domain must have at least one value");
        let dd = DdKernel::new(domains.iter().map(|&d| d as u32).collect());
        Self { dd, domains, scratch: Default::default(), conv: Default::default() }
    }

    /// The FALSE terminal.
    pub fn zero(&self) -> MddId {
        MddId::ZERO
    }

    /// The TRUE terminal.
    pub fn one(&self) -> MddId {
        MddId::ONE
    }

    /// Boolean constant terminal.
    pub fn constant(&self, value: bool) -> MddId {
        if value {
            MddId::ONE
        } else {
            MddId::ZERO
        }
    }

    /// Number of multiple-valued variable levels.
    pub fn num_levels(&self) -> usize {
        self.domains.len()
    }

    /// Domain size of the variable at `level`.
    pub fn domain(&self, level: usize) -> usize {
        self.domains[level]
    }

    /// All domain sizes, indexed by level.
    pub fn domains(&self) -> &[usize] {
        &self.domains
    }

    /// The level tested by `id`, or `None` for terminals.
    pub fn level(&self, id: MddId) -> Option<usize> {
        self.dd.level(id.0)
    }

    pub(crate) fn raw_level(&self, id: MddId) -> u32 {
        self.dd.raw_level(id.0)
    }

    /// The child followed when the variable at the node's level takes
    /// `value`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a terminal or `value` is outside the variable's
    /// domain.
    pub fn child(&self, id: MddId, value: usize) -> MddId {
        assert!(!id.is_terminal(), "terminals have no children");
        MddId(self.dd.child(id.0, value))
    }

    /// All children of a non-terminal node, indexed by domain value.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a terminal.
    pub fn children(&self, id: MddId) -> Vec<MddId> {
        assert!(!id.is_terminal(), "terminals have no children");
        self.dd.children(id.0).iter().map(|&c| MddId(c)).collect()
    }

    /// Returns (creating if necessary) the canonical node at `level` with
    /// the given children (one per domain value).
    ///
    /// Applies the ROMDD reduction rule: if all children are identical the
    /// node is redundant and the child is returned directly.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range, the child count does not match
    /// the domain size, or a child tests a level that is not strictly
    /// greater than `level`.
    pub fn mk(&mut self, level: usize, children: Vec<MddId>) -> MddId {
        assert!(level < self.domains.len(), "level {level} out of range");
        assert_eq!(
            children.len(),
            self.domains[level],
            "child count must equal the domain size of level {level}"
        );
        debug_assert!(
            children.iter().all(|c| self.raw_level(*c) > level as u32),
            "children must test strictly lower levels"
        );
        let raw: Vec<u32> = children.iter().map(|c| c.0).collect();
        MddId(self.dd.mk(level as u32, &raw))
    }

    /// Indicator of `x_level == value` (the paper's "filter gate" `= i`).
    pub fn value_is(&mut self, level: usize, value: usize) -> MddId {
        let d = self.domains[level];
        assert!(value < d, "value {value} outside domain of level {level}");
        let children = (0..d).map(|v| if v == value { MddId::ONE } else { MddId::ZERO }).collect();
        self.mk(level, children)
    }

    /// Indicator of `x_level >= value` (the paper's "filter gate" `≥ l`).
    pub fn value_at_least(&mut self, level: usize, value: usize) -> MddId {
        let d = self.domains[level];
        let children = (0..d).map(|v| if v >= value { MddId::ONE } else { MddId::ZERO }).collect();
        self.mk(level, children)
    }

    /// Indicator of an arbitrary predicate on the value of `x_level`.
    pub fn value_pred<P: FnMut(usize) -> bool>(&mut self, level: usize, mut pred: P) -> MddId {
        let d = self.domains[level];
        let children = (0..d).map(|v| if pred(v) { MddId::ONE } else { MddId::ZERO }).collect();
        self.mk(level, children)
    }

    /// Evaluates the boolean function rooted at `f` under the assignment
    /// `assignment[level] = value`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than a level tested on the
    /// followed path or contains an out-of-domain value at such a level.
    pub fn eval(&self, f: MddId, assignment: &[usize]) -> bool {
        self.dd.eval(f.0, |level| assignment[level])
    }

    /// Number of nodes reachable from `f`, including terminals.
    pub fn node_count(&self, f: MddId) -> usize {
        self.dd.node_count(f.0)
    }

    /// Number of non-terminal nodes reachable from `f`.
    pub fn inner_node_count(&self, f: MddId) -> usize {
        self.dd.inner_node_count(f.0)
    }

    /// All nodes reachable from `f` (each exactly once), root first.
    pub fn reachable(&self, f: MddId) -> Vec<MddId> {
        self.dd.reachable(f.0).into_iter().map(MddId).collect()
    }

    /// Largest number of simultaneously allocated nodes observed so far,
    /// including the two terminals. Until the first [`MddManager::gc`]
    /// this equals the total nodes ever created.
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

    /// The set of levels appearing in `f`, in increasing order.
    pub fn support(&self, f: MddId) -> Vec<usize> {
        self.dd.support(f.0)
    }

    // ---- garbage collection and reordering ---------------------------------

    /// Registers `id` as an external root surviving every
    /// [`MddManager::gc`] until the handle is passed to
    /// [`MddManager::unprotect`].
    pub fn protect(&mut self, id: MddId) -> Ref {
        self.dd.protect(id.0)
    }

    /// Releases a protection and returns the root's current id.
    pub fn unprotect(&mut self, handle: Ref) -> MddId {
        MddId(self.dd.unprotect(handle))
    }

    /// Current id of a protected root (collections renumber node ids).
    pub fn resolve(&self, handle: Ref) -> MddId {
        MddId(self.dd.resolve(handle))
    }

    /// Mark-and-sweep garbage collection over the protected roots.
    ///
    /// Every [`MddId`] obtained before the collection is invalidated;
    /// carry roots across with [`MddManager::protect`] /
    /// [`MddManager::resolve`]. The recorded peak is unaffected.
    pub fn gc(&mut self) -> GcStats {
        self.dd.gc()
    }

    /// Dynamic variable reordering by sifting, minimising the node count
    /// of the union of `roots` (each entry is updated in place).
    ///
    /// Every multiple-valued variable moves as a unit, carrying its
    /// domain along: after the run, level `l` holds the variable (and
    /// domain) previously at level `SiftOutcome::level_origin[l]`, and
    /// level-indexed inputs to [`MddManager::eval`] /
    /// [`MddManager::probability`] must be permuted the same way. The
    /// swap garbage is collected before returning: anything not reachable
    /// from `roots` or a separately protected root is reclaimed and all
    /// prior [`MddId`]s are invalidated.
    pub fn reorder_sift(&mut self, roots: &mut [MddId], config: &SiftConfig) -> SiftOutcome {
        let mut raw: Vec<u32> = roots.iter().map(|r| r.0).collect();
        let outcome = self.dd.sift(&mut raw, config);
        self.domains = outcome.level_origin.iter().map(|&o| self.domains[o]).collect();
        for (slot, &id) in roots.iter_mut().zip(&raw) {
            *slot = MddId(id);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_and_domains() {
        let mgr = MddManager::new(vec![2, 3, 4]);
        assert_eq!(mgr.num_levels(), 3);
        assert_eq!(mgr.domain(1), 3);
        assert_eq!(mgr.domains(), &[2, 3, 4]);
        assert!(mgr.one().is_one());
        assert!(mgr.zero().is_zero());
        assert_eq!(mgr.constant(true), mgr.one());
        assert_eq!(mgr.level(mgr.one()), None);
        assert_eq!(mgr.peak_nodes(), 2);
        assert_eq!(format!("{}", MddId(7)), "m7");
        assert_eq!(format!("{}", MddId::ONE), "TRUE");
    }

    #[test]
    #[should_panic]
    fn zero_domain_rejected() {
        let _ = MddManager::new(vec![2, 0]);
    }

    #[test]
    fn mk_reduces_redundant_nodes() {
        let mut mgr = MddManager::new(vec![3]);
        let r = mgr.mk(0, vec![MddId::ONE, MddId::ONE, MddId::ONE]);
        assert_eq!(r, MddId::ONE);
        let n = mgr.mk(0, vec![MddId::ZERO, MddId::ONE, MddId::ONE]);
        assert!(!n.is_terminal());
        let again = mgr.mk(0, vec![MddId::ZERO, MddId::ONE, MddId::ONE]);
        assert_eq!(n, again, "hash consing must return the same node");
        assert_eq!(mgr.children(n), &[MddId::ZERO, MddId::ONE, MddId::ONE]);
        assert_eq!(mgr.child(n, 2), MddId::ONE);
        assert_eq!(mgr.level(n), Some(0));
    }

    #[test]
    #[should_panic]
    fn mk_checks_child_count() {
        let mut mgr = MddManager::new(vec![3]);
        let _ = mgr.mk(0, vec![MddId::ZERO, MddId::ONE]);
    }

    #[test]
    fn indicators() {
        let mut mgr = MddManager::new(vec![4]);
        let is2 = mgr.value_is(0, 2);
        for v in 0..4 {
            assert_eq!(mgr.eval(is2, &[v]), v == 2);
        }
        let ge1 = mgr.value_at_least(0, 1);
        for v in 0..4 {
            assert_eq!(mgr.eval(ge1, &[v]), v >= 1);
        }
        let even = mgr.value_pred(0, |v| v % 2 == 0);
        for v in 0..4 {
            assert_eq!(mgr.eval(even, &[v]), v % 2 == 0);
        }
        let ge0 = mgr.value_at_least(0, 0);
        assert_eq!(ge0, mgr.one(), "x >= 0 is a tautology and must reduce to TRUE");
    }

    #[test]
    fn counting_and_support() {
        let mut mgr = MddManager::new(vec![2, 3]);
        let a = mgr.value_is(1, 2);
        let n = mgr.mk(0, vec![MddId::ZERO, a]);
        assert_eq!(mgr.inner_node_count(n), 2);
        assert_eq!(mgr.node_count(n), 4);
        assert_eq!(mgr.support(n), vec![0, 1]);
        assert_eq!(mgr.support(mgr.one()), Vec::<usize>::new());
        assert_eq!(mgr.inner_node_count(mgr.zero()), 0);
    }

    #[test]
    fn eval_skips_untested_levels() {
        let mut mgr = MddManager::new(vec![5, 2]);
        // Function depends only on level 1.
        let f = mgr.value_is(1, 1);
        assert!(mgr.eval(f, &[4, 1]));
        assert!(!mgr.eval(f, &[0, 0]));
    }

    #[test]
    fn stats_track_the_kernel() {
        let mut mgr = MddManager::new(vec![3, 3]);
        let a = mgr.value_is(0, 1);
        let b = mgr.value_is(1, 2);
        let _ = mgr.and(a, b);
        let stats = mgr.stats();
        assert_eq!(stats.peak_nodes, mgr.peak_nodes());
        assert_eq!(stats.unique_entries, mgr.peak_nodes() - 2);
        assert!(stats.op_cache_misses > 0);
    }

    #[test]
    fn gc_keeps_protected_functions() {
        let mut mgr = MddManager::new(vec![3, 4]);
        let a = mgr.value_at_least(0, 1);
        let b = mgr.value_is(1, 2);
        let keep = mgr.and(a, b);
        let waste = mgr.value_pred(1, |v| v % 2 == 1);
        let _ = mgr.or(waste, a);
        let handle = mgr.protect(keep);
        let gc = mgr.gc();
        assert!(gc.reclaimed_nodes > 0);
        let keep = mgr.unprotect(handle);
        for x0 in 0..3 {
            for x1 in 0..4 {
                assert_eq!(mgr.eval(keep, &[x0, x1]), x0 >= 1 && x1 == 2);
            }
        }
    }

    #[test]
    fn reorder_sift_permutes_domains_with_the_levels() {
        // Three variables with distinct domains; the function couples
        // levels 0 and 2, so sifting may move them together.
        let mut mgr = MddManager::new(vec![2, 3, 4]);
        let a = mgr.value_is(0, 1);
        let c = mgr.value_is(2, 3);
        let ac = mgr.and(a, c);
        let b = mgr.value_at_least(1, 2);
        let f = mgr.or(ac, b);
        let mut truth = Vec::new();
        for x0 in 0..2 {
            for x1 in 0..3 {
                for x2 in 0..4 {
                    truth.push(((x0, x1, x2), mgr.eval(f, &[x0, x1, x2])));
                }
            }
        }
        let mut roots = [f];
        let outcome = mgr.reorder_sift(&mut roots, &SiftConfig { max_growth: 3.0, max_rounds: 2 });
        let f = roots[0];
        // Domains follow their variables.
        let original = [2usize, 3, 4];
        for (level, &o) in outcome.level_origin.iter().enumerate() {
            assert_eq!(mgr.domain(level), original[o]);
        }
        for ((x0, x1, x2), want) in truth {
            let by_var = [x0, x1, x2];
            let by_level: Vec<usize> = outcome.level_origin.iter().map(|&o| by_var[o]).collect();
            assert_eq!(mgr.eval(f, &by_level), want);
        }
        assert_eq!(mgr.allocated_nodes(), mgr.node_count(f), "garbage was collected");
    }
}
