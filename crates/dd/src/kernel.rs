//! The [`DdKernel`]: arena + unique table + op cache behind the
//! canonicalising `mk` constructor, plus the shared memoized traversals,
//! external root protection and the mark-and-sweep collector.

use crate::arena::{NodeArena, TERMINAL_LEVEL};
use crate::cache::{OpCache, OpKey, OpTagStats, NUM_OP_TAGS};
use crate::edge::{is_complemented, negate, negate_if, strip, CPL_BIT};
use crate::govern::Governor;
use crate::unique::UniqueTable;

/// Node id of the FALSE terminal.
pub const ZERO: u32 = 0;
/// Node id of the TRUE terminal.
pub const ONE: u32 = 1;

/// Aggregate statistics of a kernel, reported by the analysis layer
/// alongside the paper's Table-4 size metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DdStats {
    /// Largest number of simultaneously allocated nodes observed so far,
    /// including the two terminals — the memory-limiting quantity of the
    /// method. Until the first [`DdKernel::gc`] this equals the total
    /// nodes ever allocated.
    pub peak_nodes: usize,
    /// Nodes currently allocated (live roots' closures plus any garbage
    /// not yet collected), including the two terminals.
    pub live_nodes: usize,
    /// Entries in the unique table (= non-terminal nodes).
    pub unique_entries: usize,
    /// Operation-cache lookups that found a memoized result.
    pub op_cache_hits: u64,
    /// Operation-cache lookups that missed.
    pub op_cache_misses: u64,
    /// Operation-cache insertions (each completed miss inserts once).
    pub op_cache_insertions: u64,
    /// Operation-cache insertions that displaced a live entry of a
    /// different key (the cache is lossy and direct-mapped; evicted
    /// results are recomputed on demand, never wrong).
    pub op_cache_evictions: u64,
    /// Hit/miss/eviction counters broken down by operation tag (the
    /// engines' `op` bytes index this array).
    pub per_op: [OpTagStats; NUM_OP_TAGS],
    /// Number of garbage collections run so far.
    pub gc_runs: u64,
    /// Total nodes reclaimed across all collections.
    pub gc_reclaimed: u64,
    /// Operation-cache hits obtained through complemented-edge negation
    /// normalization (the memoized result answered the negated form of
    /// the query and was flipped for free). Zero whenever complement
    /// mode is off (see [`DdKernel::set_complement`]).
    pub complement_hits: u64,
}

impl DdStats {
    /// Fraction of operation-cache lookups that hit, as a percentage in
    /// `[0, 100]` (`0` when no lookups happened).
    pub fn op_cache_hit_rate_percent(&self) -> f64 {
        let total = self.op_cache_hits + self.op_cache_misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.op_cache_hits as f64 / total as f64
        }
    }

    /// Fraction of operation-cache insertions that evicted a live entry,
    /// as a percentage in `[0, 100]` (`0` when nothing was inserted).
    pub fn op_cache_evict_rate_percent(&self) -> f64 {
        if self.op_cache_insertions == 0 {
            0.0
        } else {
            100.0 * self.op_cache_evictions as f64 / self.op_cache_insertions as f64
        }
    }
}

/// Outcome of one [`DdKernel::gc`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Nodes surviving the sweep (including the two terminals).
    pub live_nodes: usize,
    /// Nodes reclaimed by the sweep.
    pub reclaimed_nodes: usize,
    /// Operation-cache entries invalidated by the collection's generation
    /// bump (the sweep renumbers node ids, so every memoized result keyed
    /// on old ids must die; the bump retires them all in O(1)).
    pub cache_entries_dropped: usize,
}

/// A stable handle to a protected root, issued by [`DdKernel::protect`].
///
/// Handles survive garbage collection: a collection renumbers node ids,
/// but [`DdKernel::resolve`] always returns the root's *current* id.
/// Handles are `Copy` for convenience; releasing the same handle twice
/// panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ref {
    slot: u32,
}

/// RAII guard protecting one root for the guard's lifetime.
///
/// Dereferences to the kernel, so operations — including [`DdKernel::gc`]
/// — can run while the guard is alive; [`Protect::root`] always yields the
/// root's current id. Dropping the guard releases the protection.
#[derive(Debug)]
pub struct Protect<'k> {
    kernel: &'k mut DdKernel,
    handle: Ref,
}

impl Protect<'_> {
    /// The underlying slot handle (valid while the guard is alive; do not
    /// release it manually — the guard does so on drop).
    pub fn handle(&self) -> Ref {
        self.handle
    }

    /// Current id of the protected root (tracks collections).
    pub fn root(&self) -> u32 {
        self.kernel.resolve(self.handle)
    }
}

impl std::ops::Deref for Protect<'_> {
    type Target = DdKernel;

    fn deref(&self) -> &DdKernel {
        self.kernel
    }
}

impl std::ops::DerefMut for Protect<'_> {
    fn deref_mut(&mut self) -> &mut DdKernel {
        self.kernel
    }
}

impl Drop for Protect<'_> {
    fn drop(&mut self) {
        self.kernel.unprotect(self.handle);
    }
}

/// A hash-consed decision-diagram kernel.
///
/// The kernel knows nothing about boolean connectives or multi-valued
/// semantics; it provides canonical node construction ([`DdKernel::mk`]),
/// memoization storage ([`DdKernel::cache_get`] /
/// [`DdKernel::cache_insert`]) and the structural traversals shared by
/// the ROBDD and ROMDD engines.
#[derive(Debug, Clone)]
pub struct DdKernel {
    pub(crate) arena: NodeArena,
    pub(crate) unique: UniqueTable,
    op_cache: OpCache,
    /// Protected external roots (`None` marks a free slot).
    roots: Vec<Option<u32>>,
    free_root_slots: Vec<u32>,
    /// Largest arena length observed at a collection (the arena only
    /// shrinks at collections, so the overall peak is the maximum of this
    /// and the current length).
    peak_snapshot: usize,
    gc_runs: u64,
    gc_reclaimed: u64,
    /// Complement-normalized cache hits (see [`DdStats::complement_hits`]).
    complement_hits: u64,
    /// Complemented-edge mode: when on, [`DdKernel::mk`] enforces the
    /// regular-high canonical form of [`crate::edge`] and returns
    /// complemented edges where that halves the diagram. Only meaningful
    /// for all-binary kernels (the ROBDD engine); the ROMDD engine leaves
    /// it off.
    complement: bool,
    /// Reusable buffers of the memoized probability traversal, so a
    /// design-space sweep evaluating thousands of points on one diagram
    /// allocates nothing per point.
    prob: ProbScratch,
    /// Resource governor checked at every node materialisation (`None` —
    /// the default — means unbounded). Clones of a kernel share the
    /// governor's counters, matching the budget's per-compilation scope.
    pub(crate) governor: Option<Governor>,
}

/// Scratch of [`DdKernel::probability`]: a dense per-node value array
/// validated by epoch stamps (no clearing between evaluations) plus the
/// explicit traversal stack.
#[derive(Debug, Clone, Default)]
struct ProbScratch {
    values: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl DdKernel {
    /// Creates a kernel over levels with the given arities (2 for every
    /// binary level, the domain size for multi-valued levels).
    ///
    /// # Panics
    ///
    /// Panics if any arity is zero.
    pub fn new(arities: Vec<u32>) -> Self {
        Self::with_op_cache(arities, OpCache::default())
    }

    /// Creates a kernel whose operation cache starts with `capacity`
    /// slots and may grow up to `max_capacity` under sustained conflict
    /// pressure (both rounded to powers of two; pass `capacity ==
    /// max_capacity` to pin the size). See [`OpCache::with_capacity`].
    ///
    /// # Panics
    ///
    /// Panics if any arity is zero.
    pub fn with_cache_capacity(arities: Vec<u32>, capacity: usize, max_capacity: usize) -> Self {
        Self::with_op_cache(arities, OpCache::with_capacity(capacity, max_capacity))
    }

    fn with_op_cache(arities: Vec<u32>, op_cache: OpCache) -> Self {
        Self {
            arena: NodeArena::new(arities),
            unique: UniqueTable::default(),
            op_cache,
            roots: Vec::new(),
            free_root_slots: Vec::new(),
            peak_snapshot: 0,
            gc_runs: 0,
            gc_reclaimed: 0,
            complement_hits: 0,
            complement: false,
            prob: ProbScratch::default(),
            governor: None,
        }
    }

    /// Arms (or, with `None`, disarms) the resource governor every
    /// subsequent node materialisation reports to. Arm clones of one
    /// [`Governor`] on every manager of a logical compilation so one
    /// budget bounds their combined growth; disarm before reusing a
    /// manager outside the governed run.
    pub fn set_governor(&mut self, governor: Option<Governor>) {
        self.governor = governor;
    }

    /// The currently armed resource governor, if any.
    pub fn governor(&self) -> Option<&Governor> {
        self.governor.as_ref()
    }

    /// Switches complemented-edge mode on or off. Must be called before
    /// any non-terminal node exists: flipping the canonical form under
    /// live nodes would silently break id-equality-is-function-equality.
    ///
    /// # Panics
    ///
    /// Panics if the arena already holds non-terminal nodes, or if any
    /// level has arity other than 2 while enabling (complement edges are
    /// a binary-diagram notion).
    pub fn set_complement(&mut self, on: bool) {
        assert!(self.arena.len() == 2, "complement mode must be chosen before nodes are created");
        if on {
            assert!(
                (0..self.num_levels()).all(|l| self.arity(l) == 2),
                "complement edges require an all-binary kernel"
            );
        }
        self.complement = on;
    }

    /// Whether complemented-edge mode is on (see
    /// [`DdKernel::set_complement`]).
    pub fn complement_enabled(&self) -> bool {
        self.complement
    }

    /// Returns (creating if necessary) the canonical node
    /// `(level, children)`.
    ///
    /// Applies the shared reduction rule: a node whose children are all
    /// identical is redundant and the child is returned directly. The
    /// caller is responsible for the ordering invariant (children must
    /// test strictly greater levels).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the child count does not match the
    /// level's arity.
    pub fn mk(&mut self, level: u32, children: &[u32]) -> u32 {
        debug_assert_eq!(
            children.len(),
            self.arena.arity(level as usize),
            "child count must equal the arity of level {level}"
        );
        if children.iter().all(|&c| c == children[0]) {
            return children[0];
        }
        self.cons(level, children)
    }

    /// Hash-conses `(level, children)` after the redundancy check,
    /// enforcing the complemented-edge canonical form when the mode is
    /// on: a node whose high child is complemented or `ZERO` is stored
    /// with both children negated and returned as a complemented edge
    /// (see [`crate::edge`]).
    pub(crate) fn cons(&mut self, level: u32, children: &[u32]) -> u32 {
        let before = self.arena.len();
        let id = if self.complement
            && children.len() == 2
            && (is_complemented(children[1]) || children[1] == ZERO)
        {
            let flipped = [negate(children[0]), negate(children[1])];
            self.unique.get_or_insert(&mut self.arena, level, &flipped) | CPL_BIT
        } else {
            self.unique.get_or_insert(&mut self.arena, level, children)
        };
        // Report to the governor only after the node is fully inserted:
        // an abort unwinding from here leaves the arena and unique table
        // consistent (the node is ordinary garbage for the next gc).
        if let Some(governor) = &self.governor {
            let grown = self.arena.len() - before;
            if grown > 0 {
                governor.on_alloc(grown as u64);
            }
        }
        id
    }

    /// Number of variable levels.
    pub fn num_levels(&self) -> usize {
        self.arena.num_levels()
    }

    /// Arity (number of children) of nodes at `level`.
    pub fn arity(&self, level: usize) -> usize {
        self.arena.arity(level)
    }

    /// Appends additional levels with the given arities.
    pub fn add_levels(&mut self, arities: impl IntoIterator<Item = u32>) {
        self.arena.add_levels(arities);
    }

    /// Largest number of simultaneously allocated nodes observed so far,
    /// including the two terminals. Without collections this equals the
    /// total nodes ever created; [`DdKernel::gc`] reclaims nodes but never
    /// lowers the recorded peak.
    pub fn peak_nodes(&self) -> usize {
        self.peak_snapshot.max(self.arena.len())
    }

    /// Nodes currently allocated, including the two terminals (live
    /// closures of all roots plus any garbage not yet collected).
    pub fn allocated_nodes(&self) -> usize {
        self.arena.len()
    }

    /// Raw level of a node (`TERMINAL_LEVEL` for terminals).
    pub fn raw_level(&self, id: u32) -> u32 {
        self.arena.raw_level(id)
    }

    /// The level tested by a node, or `None` for terminals.
    pub fn level(&self, id: u32) -> Option<usize> {
        self.arena.level(id)
    }

    /// The *stored* children of a node (empty for terminals) — raw edge
    /// values as they sit in the arena, without the complement parity of
    /// `id` applied. Structural traversals (marking, counting) want this
    /// view; semantic cofactors want [`DdKernel::child`].
    pub fn children(&self, id: u32) -> &[u32] {
        self.arena.children(id)
    }

    /// The child followed when the node's variable takes `value`, with
    /// the complement parity of `id` propagated: the returned edge
    /// denotes the cofactor of the *function* `id` denotes.
    pub fn child(&self, id: u32, value: usize) -> u32 {
        negate_if(is_complemented(id), self.arena.child(id, value))
    }

    /// Looks up a memoized operation result (counted in the statistics).
    pub fn cache_get(&mut self, key: OpKey) -> Option<u32> {
        self.op_cache.get(key)
    }

    /// Memoizes an operation result.
    pub fn cache_insert(&mut self, key: OpKey, result: u32) {
        self.op_cache.insert(key, result);
    }

    /// Records one op-cache hit obtained through negation normalization
    /// (counted into [`DdStats::complement_hits`]).
    pub fn note_complement_hit(&mut self) {
        self.complement_hits += 1;
    }

    /// Drops all memoized operation results (the unique table is kept, so
    /// canonicity is unaffected). With the generation-tagged cache this is
    /// a single tag bump, not a table walk.
    pub fn clear_op_cache(&mut self) {
        self.op_cache.clear();
    }

    /// Current slot count of the operation cache (it may have grown from
    /// its initial capacity under conflict pressure).
    pub fn op_cache_capacity(&self) -> usize {
        self.op_cache.capacity()
    }

    /// Current kernel statistics.
    pub fn stats(&self) -> DdStats {
        DdStats {
            peak_nodes: self.peak_nodes(),
            live_nodes: self.arena.len(),
            unique_entries: self.unique.len(),
            op_cache_hits: self.op_cache.hits(),
            op_cache_misses: self.op_cache.misses(),
            op_cache_insertions: self.op_cache.insertions(),
            op_cache_evictions: self.op_cache.evictions(),
            per_op: *self.op_cache.per_op_stats(),
            gc_runs: self.gc_runs,
            gc_reclaimed: self.gc_reclaimed,
            complement_hits: self.complement_hits,
        }
    }

    // ---- garbage collection ------------------------------------------------

    /// Registers `id` as an external root: it (and everything reachable
    /// from it) survives every [`DdKernel::gc`] until the returned handle
    /// is passed to [`DdKernel::unprotect`].
    pub fn protect(&mut self, id: u32) -> Ref {
        assert!((strip(id) as usize) < self.arena.len(), "cannot protect unknown node {id}");
        match self.free_root_slots.pop() {
            Some(slot) => {
                self.roots[slot as usize] = Some(id);
                Ref { slot }
            }
            None => {
                self.roots.push(Some(id));
                Ref { slot: (self.roots.len() - 1) as u32 }
            }
        }
    }

    /// Protects `id` for the lifetime of the returned guard (RAII form of
    /// [`DdKernel::protect`]). The guard dereferences to the kernel.
    pub fn protect_scoped(&mut self, id: u32) -> Protect<'_> {
        let handle = self.protect(id);
        Protect { kernel: self, handle }
    }

    /// Releases a protection and returns the root's current id.
    ///
    /// # Panics
    ///
    /// Panics if the handle was already released.
    pub fn unprotect(&mut self, handle: Ref) -> u32 {
        let id = self.roots[handle.slot as usize].take().expect("root handle was already released");
        self.free_root_slots.push(handle.slot);
        id
    }

    /// Current id of a protected root. Collections renumber node ids; this
    /// always reflects the latest numbering.
    ///
    /// # Panics
    ///
    /// Panics if the handle was already released.
    pub fn resolve(&self, handle: Ref) -> u32 {
        self.roots[handle.slot as usize].expect("root handle was already released")
    }

    /// Currently protected root ids.
    pub fn protected_roots(&self) -> Vec<u32> {
        self.roots.iter().flatten().copied().collect()
    }

    /// Marks every node reachable from the given roots (terminals are
    /// always marked) and returns the mark vector.
    pub(crate) fn mark(&self, roots: &[u32]) -> Vec<bool> {
        let mut live = vec![false; self.arena.len()];
        live[ZERO as usize] = true;
        live[ONE as usize] = true;
        let mut stack: Vec<u32> = roots.to_vec();
        while let Some(id) = stack.pop() {
            let id = strip(id);
            if std::mem::replace(&mut live[id as usize], true) {
                continue;
            }
            stack.extend_from_slice(self.arena.children(id));
        }
        live
    }

    /// Number of distinct nodes (terminals included) reachable from the
    /// union of `roots` — the size metric the sifting driver minimises.
    pub fn live_size(&self, roots: &[u32]) -> usize {
        let mut seen = vec![false; self.arena.len()];
        let mut stack: Vec<u32> = roots.to_vec();
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            let id = strip(id);
            if std::mem::replace(&mut seen[id as usize], true) {
                continue;
            }
            count += 1;
            stack.extend_from_slice(self.arena.children(id));
        }
        count
    }

    /// Mark-and-sweep garbage collection over the protected roots.
    ///
    /// Marks everything reachable from the roots registered via
    /// [`DdKernel::protect`], sweeps the arena (compacting the surviving
    /// ids downward while preserving their relative order), rebuilds the
    /// unique table, and invalidates the operation cache with a single
    /// generation bump — the sweep renumbers node ids, so every memoized
    /// result keyed on old ids is retired at once (a later lookup misses
    /// and recomputes, which reproduces the identical canonical node).
    ///
    /// **All node ids obtained before the collection are invalidated**;
    /// use root handles ([`DdKernel::resolve`]) to carry diagrams across a
    /// collection. The recorded peak ([`DdKernel::peak_nodes`]) is
    /// unaffected.
    pub fn gc(&mut self) -> GcStats {
        self.peak_snapshot = self.peak_snapshot.max(self.arena.len());
        let live = self.mark(&self.protected_roots());
        let before = self.arena.len();
        let remap = self.arena.compact(&live);
        let after = self.arena.len();
        self.unique.rebuild(&self.arena);
        let dropped = self.op_cache.invalidate_all();
        for slot in self.roots.iter_mut().flatten() {
            let phys = remap[strip(*slot) as usize];
            debug_assert_ne!(phys, u32::MAX, "protected roots survive the sweep");
            *slot = phys | (*slot & CPL_BIT);
        }
        self.gc_runs += 1;
        self.gc_reclaimed += (before - after) as u64;
        GcStats {
            live_nodes: after,
            reclaimed_nodes: before - after,
            cache_entries_dropped: dropped,
        }
    }

    // ---- shared traversals -------------------------------------------------

    /// All *physical* nodes reachable from `root` (each exactly once,
    /// complement bits stripped), root first. With complement edges a
    /// node and its negation share one physical entry, so this is the
    /// stored-size view — the metric the paper's node counts report.
    pub fn reachable(&self, root: u32) -> Vec<u32> {
        // Dense visited bitmap: node ids are arena indices, so a flat
        // Vec<bool> beats any hash set on these traversals.
        let mut seen = vec![false; self.arena.len()];
        let mut order = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let id = strip(id);
            if std::mem::replace(&mut seen[id as usize], true) {
                continue;
            }
            order.push(id);
            stack.extend_from_slice(self.arena.children(id));
        }
        order
    }

    /// Number of nodes reachable from `root`, including terminals (the
    /// usual "decision-diagram size" metric).
    pub fn node_count(&self, root: u32) -> usize {
        self.reachable(root).len()
    }

    /// Number of non-terminal nodes reachable from `root`.
    pub fn inner_node_count(&self, root: u32) -> usize {
        self.reachable(root).iter().filter(|&&id| id > ONE).count()
    }

    /// The set of variable levels appearing in `root`, in increasing
    /// order.
    pub fn support(&self, root: u32) -> Vec<usize> {
        let mut levels: Vec<usize> =
            self.reachable(root).iter().filter_map(|&id| self.arena.level(id)).collect();
        levels.sort_unstable();
        levels.dedup();
        levels
    }

    /// Follows one path from `root` to a terminal, choosing the branch
    /// `pick(level)` at every decision node, and returns whether the TRUE
    /// terminal was reached.
    pub fn eval<P: FnMut(usize) -> usize>(&self, root: u32, mut pick: P) -> bool {
        let mut cur = root;
        while cur > ONE {
            let level = self.arena.raw_level(cur) as usize;
            debug_assert_ne!(self.arena.raw_level(cur), TERMINAL_LEVEL);
            // Propagate the edge's complement parity into the cofactor;
            // terminals normalize exactly, so the loop test stays `> ONE`.
            cur = negate_if(is_complemented(cur), self.arena.child(cur, pick(level)));
        }
        cur == ONE
    }

    /// Probability that the function rooted at `root` evaluates to 1 when
    /// the variable at each level `l` independently takes value `v` with
    /// probability `weight(l, v)`.
    ///
    /// This is the computation at the heart of the yield method: one
    /// memoized depth-first traversal, linear in the number of nodes.
    /// Levels skipped by the diagram contribute a factor of 1 provided
    /// each level's weights sum to 1; zero-weight branches are never
    /// descended into.
    ///
    /// The traversal is iterative (explicit stack) and memoizes into a
    /// dense epoch-stamped scratch array owned by the kernel, so repeated
    /// evaluations allocate nothing per call. It evaluates ROBDDs, and it
    /// is the reference the ROMDD engine's frozen level-major plan
    /// (`socy_mdd::FrozenMdd`) is tested against; the analysis pipeline
    /// re-weights compiled ROMDDs through that plan instead.
    pub fn probability<W: Fn(usize, usize) -> f64>(&mut self, root: u32, weight: W) -> f64 {
        if root == ONE {
            return 1.0;
        }
        if root == ZERO {
            return 0.0;
        }
        let scratch = &mut self.prob;
        if scratch.epoch == u32::MAX {
            scratch.stamp.fill(0);
            scratch.epoch = 0;
        }
        scratch.epoch += 1;
        let epoch = scratch.epoch;
        let n = self.arena.len();
        if scratch.values.len() < n {
            scratch.values.resize(n, 0.0);
            scratch.stamp.resize(n, 0);
        }
        // Memoization is per *physical* node: the value stored is the
        // probability of the stored (uncomplemented) function, and each
        // complemented edge crossed contributes `1 - p` on the way out.
        scratch.stack.clear();
        scratch.stack.push(strip(root));
        while let Some(&node) = scratch.stack.last() {
            if scratch.stamp[node as usize] == epoch {
                scratch.stack.pop();
                continue;
            }
            let level = self.arena.raw_level(node) as usize;
            let children = self.arena.children(node);
            let before = scratch.stack.len();
            for (value, &child) in children.iter().enumerate() {
                let phys = strip(child);
                if phys > ONE
                    && scratch.stamp[phys as usize] != epoch
                    && weight(level, value) != 0.0
                {
                    scratch.stack.push(phys);
                }
            }
            if scratch.stack.len() > before {
                continue; // resolve the pending children first
            }
            scratch.stack.pop();
            let mut p = 0.0;
            for (value, &child) in children.iter().enumerate() {
                let w = weight(level, value);
                if w == 0.0 {
                    continue;
                }
                let pv = match child {
                    ONE => 1.0,
                    ZERO => 0.0,
                    _ => {
                        let stored = scratch.values[strip(child) as usize];
                        if is_complemented(child) {
                            1.0 - stored
                        } else {
                            stored
                        }
                    }
                };
                p += w * pv;
            }
            scratch.values[node as usize] = p;
            scratch.stamp[node as usize] = epoch;
        }
        let p = scratch.values[strip(root) as usize];
        if is_complemented(root) {
            1.0 - p
        } else {
            p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mk_is_canonical_and_reducing() {
        let mut dd = DdKernel::new(vec![2, 3]);
        let a = dd.mk(1, &[ZERO, ONE, ONE]);
        let b = dd.mk(1, &[ZERO, ONE, ONE]);
        assert_eq!(a, b);
        assert_eq!(dd.peak_nodes(), 3);
        assert_eq!(dd.mk(1, &[ONE, ONE, ONE]), ONE, "redundant node must reduce");
        assert_eq!(dd.mk(0, &[a, a]), a);
        assert_eq!(dd.level(a), Some(1));
        assert_eq!(dd.raw_level(ONE), TERMINAL_LEVEL);
        assert_eq!(dd.children(a), &[ZERO, ONE, ONE]);
        assert_eq!(dd.child(a, 2), ONE);
        assert_eq!(dd.arity(1), 3);
        assert_eq!(dd.num_levels(), 2);
    }

    #[test]
    fn traversals() {
        let mut dd = DdKernel::new(vec![2, 3]);
        let a = dd.mk(1, &[ZERO, ONE, ONE]);
        let f = dd.mk(0, &[ZERO, a]);
        assert_eq!(dd.node_count(f), 4);
        assert_eq!(dd.inner_node_count(f), 2);
        assert_eq!(dd.node_count(ONE), 1);
        assert_eq!(dd.inner_node_count(ZERO), 0);
        assert_eq!(dd.support(f), vec![0, 1]);
        assert!(dd.support(ONE).is_empty());
        let reach = dd.reachable(f);
        assert_eq!(reach[0], f);
        assert_eq!(reach.len(), 4);
        assert!(dd.eval(f, |l| if l == 0 { 1 } else { 2 }));
        assert!(!dd.eval(f, |_| 0));
    }

    #[test]
    fn probability_matches_enumeration() {
        let mut dd = DdKernel::new(vec![2, 3]);
        let a = dd.mk(1, &[ZERO, ONE, ONE]); // x1 >= 1
        let f = dd.mk(0, &[ZERO, a]); // x0 == 1 && x1 >= 1
        let w = [vec![0.4, 0.6], vec![0.2, 0.3, 0.5]];
        let p = dd.probability(f, |l, v| w[l][v]);
        assert!((p - 0.6 * 0.8).abs() < 1e-12);
        assert_eq!(dd.probability(ONE, |_, _| 0.0), 1.0);
        assert_eq!(dd.probability(ZERO, |_, _| 1.0), 0.0);
    }

    #[test]
    fn zero_weight_branches_are_skipped() {
        let mut dd = DdKernel::new(vec![3]);
        let f = dd.mk(0, &[ZERO, ONE, ZERO]);
        // Value 2 has weight 0; its branch must not contribute.
        let p = dd.probability(f, |_, v| [0.5, 0.5, 0.0][v]);
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_and_stats() {
        let mut dd = DdKernel::new(vec![2]);
        assert_eq!(dd.cache_get((0, 2, 3, 0)), None);
        dd.cache_insert((0, 2, 3, 0), 5);
        assert_eq!(dd.cache_get((0, 2, 3, 0)), Some(5));
        let n = dd.mk(0, &[ZERO, ONE]);
        let stats = dd.stats();
        assert_eq!(stats.peak_nodes, 3);
        assert_eq!(stats.unique_entries, 1);
        assert_eq!(stats.op_cache_hits, 1);
        assert_eq!(stats.op_cache_misses, 1);
        assert_eq!(stats.op_cache_insertions, 1);
        assert_eq!(stats.op_cache_evictions, 0);
        assert_eq!(stats.per_op[0].hits, 1);
        assert_eq!(stats.per_op[0].misses, 1);
        assert!((stats.op_cache_hit_rate_percent() - 50.0).abs() < 1e-12);
        assert_eq!(stats.op_cache_evict_rate_percent(), 0.0);
        dd.clear_op_cache();
        assert_eq!(dd.cache_get((0, 2, 3, 0)), None);
        assert_eq!(dd.mk(0, &[ZERO, ONE]), n);
        // add_levels makes room for more variables.
        dd.add_levels([4]);
        assert_eq!(dd.num_levels(), 2);
        let _ = dd.mk(1, &[ZERO, ONE, ONE, ZERO]);
    }

    #[test]
    fn gc_reclaims_unprotected_nodes_and_keeps_roots_valid() {
        let mut dd = DdKernel::new(vec![2, 2, 2]);
        let c = dd.mk(2, &[ZERO, ONE]);
        let b = dd.mk(1, &[c, ONE]);
        let f = dd.mk(0, &[b, c]);
        // Garbage: a second diagram that is never protected.
        let g1 = dd.mk(2, &[ONE, ZERO]);
        let _g2 = dd.mk(0, &[g1, ONE]);
        assert_eq!(dd.allocated_nodes(), 7);
        let expected: Vec<bool> = (0..8).map(|row| dd.eval(f, |l| (row >> l) & 1)).collect();

        let handle = dd.protect(f);
        let stats = dd.gc();
        assert_eq!(stats.reclaimed_nodes, 2);
        assert_eq!(stats.live_nodes, 5);
        assert_eq!(dd.allocated_nodes(), 5);
        assert_eq!(dd.peak_nodes(), 7, "collections never lower the peak");
        let f = dd.unprotect(handle);
        for (row, &want) in expected.iter().enumerate() {
            assert_eq!(dd.eval(f, |l| (row >> l) & 1), want);
        }
        // The unique table was rebuilt consistently: re-making the live
        // nodes allocates nothing new.
        let before = dd.allocated_nodes();
        let c2 = dd.mk(2, &[ZERO, ONE]);
        let b2 = dd.mk(1, &[c2, ONE]);
        assert_eq!(dd.mk(0, &[b2, c2]), f);
        assert_eq!(dd.allocated_nodes(), before);
        let stats = dd.stats();
        assert_eq!(stats.gc_runs, 1);
        assert_eq!(stats.gc_reclaimed, 2);
        assert_eq!(stats.live_nodes, 5);
        assert_eq!(stats.peak_nodes, 7);
    }

    #[test]
    fn gc_generation_bump_invalidates_op_cache() {
        let mut dd = DdKernel::new(vec![2, 2]);
        let a = dd.mk(1, &[ZERO, ONE]);
        let dead = dd.mk(1, &[ONE, ZERO]);
        let f = dd.mk(0, &[a, ONE]);
        dd.cache_insert((7, f, a, 0), a);
        dd.cache_insert((7, dead, a, 0), a);
        let handle = dd.protect(f);
        let stats = dd.gc();
        assert_eq!(stats.reclaimed_nodes, 1);
        // The sweep renumbers ids, so the generation bump retires every
        // memoized entry — the stale results must be unreachable under
        // both the old and the refreshed keys.
        assert_eq!(stats.cache_entries_dropped, 2);
        let f = dd.resolve(handle);
        let a = dd.child(f, 0);
        assert_eq!(dd.cache_get((7, f, a, 0)), None, "generation bump drops all entries");
        // The cache works normally under the new generation.
        dd.cache_insert((7, f, a, 0), a);
        assert_eq!(dd.cache_get((7, f, a, 0)), Some(a));
        dd.unprotect(handle);
    }

    #[test]
    fn protect_scoped_guard_tracks_collections() {
        let mut dd = DdKernel::new(vec![2]);
        let f = dd.mk(0, &[ZERO, ONE]);
        {
            let mut guard = dd.protect_scoped(f);
            let _ = guard.gc();
            assert_eq!(guard.children(guard.root()), &[ZERO, ONE]);
            assert_eq!(guard.protected_roots().len(), 1);
        }
        assert!(dd.protected_roots().is_empty(), "guard releases on drop");
    }

    #[test]
    #[should_panic]
    fn double_unprotect_panics() {
        let mut dd = DdKernel::new(vec![2]);
        let f = dd.mk(0, &[ZERO, ONE]);
        let handle = dd.protect(f);
        dd.unprotect(handle);
        dd.unprotect(handle);
    }

    #[test]
    fn live_size_counts_the_union() {
        let mut dd = DdKernel::new(vec![2, 2]);
        let a = dd.mk(1, &[ZERO, ONE]);
        let f = dd.mk(0, &[a, ONE]);
        let g = dd.mk(0, &[ONE, a]);
        assert_eq!(dd.live_size(&[f]), 4);
        assert_eq!(dd.live_size(&[f, g]), 5, "shared structure is counted once");
        assert_eq!(dd.live_size(&[]), 0);
    }
}
