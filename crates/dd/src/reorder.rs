//! Dynamic variable reordering by sifting (Rudell-style).
//!
//! The building block is [`DdKernel::swap_adjacent_levels`], the classic
//! in-place exchange of two adjacent levels: every node keeps its id (so
//! parent references and memoized operation results stay valid — both are
//! properties of the *function* a node denotes, which the swap preserves)
//! while the nodes of the two levels are relabeled or rewritten and the
//! unique table is updated incrementally.
//!
//! [`DdKernel::sift`] moves every variable through all positions via
//! adjacent swaps and leaves it at the position minimising the live node
//! count, bounded by a growth factor and a configurable number of rounds.
//! [`DdKernel::sift_blocks`] is the grouped form used for *coded* ROBDDs,
//! where the bits encoding one multiple-valued variable must stay
//! contiguous: whole blocks of levels are moved as units, so the layering
//! requirement of the ROBDD → ROMDD conversion is preserved.
//!
//! Swaps turn the nodes of the old lower level that lose their last parent
//! into garbage. The sift driver protects its roots, runs
//! [`DdKernel::gc`] opportunistically whenever the garbage outweighs the
//! live diagram, and collects once more before returning — so sifting
//! renumbers node ids, and the driver hands the refreshed root ids back.

use crate::kernel::{DdKernel, Ref};

/// Driver-internal root tracking: ids plus the protection handles used to
/// refresh them across opportunistic collections.
struct SiftState {
    roots: Vec<u32>,
    handles: Vec<Ref>,
}

/// Tuning knobs of the sifting driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiftConfig {
    /// A variable's walk through the order is abandoned in the current
    /// direction as soon as the live size exceeds `max_growth` times the
    /// size at the start of that variable's sift (the offending swap is
    /// undone immediately). Must be ≥ 1.
    pub max_growth: f64,
    /// Maximum number of full rounds (every variable sifted once per
    /// round). The driver stops early after a round with no improvement.
    /// Must be ≥ 1.
    pub max_rounds: usize,
}

impl Default for SiftConfig {
    fn default() -> Self {
        Self { max_growth: 1.2, max_rounds: 2 }
    }
}

/// Result of a [`DdKernel::sift`] / [`DdKernel::sift_blocks`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiftOutcome {
    /// Live node count (union over the given roots) before sifting.
    pub initial_size: usize,
    /// Live node count after sifting (≤ `initial_size`: every variable
    /// settles at the best position seen, which includes its start).
    pub final_size: usize,
    /// Largest live size among the *committed* intermediate orders (swaps
    /// exceeding the growth bound are undone and not counted).
    pub max_live_size: usize,
    /// Rounds actually run.
    pub rounds: usize,
    /// Adjacent-level swaps performed (including reverts and the final
    /// walk back to each variable's best position).
    pub swaps: u64,
    /// `level_origin[new_level]` is the level (at call time) of the
    /// variable now at `new_level` — the permutation callers need to
    /// remap level-indexed data such as probability vectors.
    pub level_origin: Vec<usize>,
    /// `block_origin[new_pos]` is the input block index now at position
    /// `new_pos` (for [`DdKernel::sift`] this equals `level_origin`).
    pub block_origin: Vec<usize>,
}

impl DdKernel {
    /// Exchanges adjacent levels `l` and `l + 1` in place.
    ///
    /// Afterwards the variable previously tested at `l` is tested at
    /// `l + 1` and vice versa (their arities move with them). Node ids are
    /// preserved: nodes at `l + 1` are relabeled, nodes at `l` that do not
    /// depend on the swapped-in variable move down, and nodes at `l` that
    /// do are rewritten in place over fresh (hash-consed) children at the
    /// new `l + 1`. Old lower-level nodes whose last parent disappears
    /// become garbage for the next [`DdKernel::gc`].
    ///
    /// # Panics
    ///
    /// Panics if `l + 1` is not a valid level.
    pub fn swap_adjacent_levels(&mut self, l: usize) {
        assert!(l + 1 < self.num_levels(), "level {} cannot be swapped down", l);
        let lu = l as u32;
        let ll = lu + 1;
        // Split the upper level against the *old* labeling: nodes with a
        // child at the old lower level must be rewritten, the rest only
        // change position. The per-level unique table enumerates the
        // level directly — no arena scan.
        let upper: Vec<u32> = self.unique.level_ids(l).collect();
        let mut moved = Vec::new();
        let mut interacting: Vec<(u32, Vec<u32>, Vec<bool>)> = Vec::new();
        for id in upper {
            let children = self.arena.children(id);
            // Only interacting nodes need their children copied out (the
            // rewrite below mutates the arena); the common `moved` case
            // stays allocation-free.
            if children.iter().any(|&c| self.arena.raw_level(c) == ll) {
                let children = children.to_vec();
                let was_lower: Vec<bool> =
                    children.iter().map(|&c| self.arena.raw_level(c) == ll).collect();
                // Drop the stale key while the arena still matches it.
                self.unique.remove(&self.arena, id);
                interacting.push((id, children, was_lower));
            } else {
                moved.push(id);
            }
        }
        let a_up = self.arena.arity(l);
        let a_low = self.arena.arity(l + 1);
        // Structural half of the swap, O(1): subtable keys are
        // children-only, so nodes whose children are untouched — all of
        // the old lower level and the non-interacting (`moved`) upper
        // nodes — simply follow their subtable to the other level. Only
        // the arena labels still need the per-node update.
        self.unique.swap_levels(l);
        self.arena.swap_arities(l);
        for id in self.unique.level_ids(l) {
            self.arena.set_level(id, lu);
        }
        for &id in &moved {
            self.arena.set_level(id, ll);
        }
        // Rewrite each interacting node f = case(x_up; c_0, …): for every
        // value j of the swapped-in variable, the new child is
        // g_j = case(x_up; c_i |_{x_low = j}), hash-consed at the new
        // lower level (which may resurrect a moved node or share g's
        // between parents).
        let mut cofactor = vec![0u32; a_up];
        let mut new_children = vec![0u32; a_low];
        for (id, children, was_lower) in interacting {
            for (j, slot) in new_children.iter_mut().enumerate() {
                for (cof, (&child, &lower)) in
                    cofactor.iter_mut().zip(children.iter().zip(&was_lower))
                {
                    *cof = if lower { self.arena.child(child, j) } else { child };
                }
                *slot = if cofactor.iter().all(|&c| c == cofactor[0]) {
                    cofactor[0]
                } else {
                    self.cons(ll, &cofactor)
                };
            }
            debug_assert!(
                !new_children.iter().all(|&c| c == new_children[0]),
                "a node with a child at the swapped level depends on that level"
            );
            self.arena.set_node(id, lu, &new_children);
            self.unique.insert_new(&self.arena, id);
        }
    }

    /// Sifts every variable individually (all blocks of size 1).
    ///
    /// See [`DdKernel::sift_blocks`] for the driver's contract.
    pub fn sift(&mut self, roots: &mut [u32], config: &SiftConfig) -> SiftOutcome {
        self.sift_blocks(roots, &vec![1; self.num_levels()], config)
    }

    /// Sifts contiguous blocks of levels as indivisible units.
    ///
    /// `block_sizes` partitions the levels top-down into blocks (sizes
    /// must sum to the level count); blocks keep their internal level
    /// order, which preserves any grouping invariant such as the coded
    /// ROBDD's bit groups. Per round, blocks are processed in decreasing
    /// order of their current live node contribution; each block walks to
    /// the bottom, then to the top, and settles at the position with the
    /// smallest live size (over the union of `roots`), subject to
    /// [`SiftConfig::max_growth`].
    ///
    /// The run protects `roots` internally, collects the swap garbage
    /// opportunistically whenever it dwarfs the live diagram, and runs a
    /// final [`DdKernel::gc`] before returning, so node ids are
    /// renumbered: `roots` is updated in place with the ids valid after
    /// the run (anything not reachable from them or a separately
    /// protected root is reclaimed).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `block_sizes` does not
    /// partition the levels.
    pub fn sift_blocks(
        &mut self,
        roots: &mut [u32],
        block_sizes: &[usize],
        config: &SiftConfig,
    ) -> SiftOutcome {
        assert!(config.max_growth >= 1.0, "max_growth must be at least 1");
        assert!(config.max_rounds >= 1, "at least one round is required");
        // Sifting is paused under the governor: swaps rewrite existing
        // nodes through `cons` without growing the live diagram beyond
        // the bounded `max_growth`, and a trip mid-swap would leave a
        // level half-rewritten. The budget governs *construction*; the
        // reorderer is already self-bounding.
        let governor = self.governor.take();
        let outcome = self.sift_blocks_inner(roots, block_sizes, config);
        self.governor = governor;
        outcome
    }

    fn sift_blocks_inner(
        &mut self,
        roots: &mut [u32],
        block_sizes: &[usize],
        config: &SiftConfig,
    ) -> SiftOutcome {
        assert!(block_sizes.iter().all(|&s| s >= 1), "blocks must be non-empty");
        assert_eq!(
            block_sizes.iter().sum::<usize>(),
            self.num_levels(),
            "block sizes must partition the levels"
        );
        let mut state = SiftState {
            roots: roots.to_vec(),
            handles: roots.iter().map(|&r| self.protect(r)).collect(),
        };
        let mut origin: Vec<usize> = (0..self.num_levels()).collect();
        let mut order: Vec<usize> = (0..block_sizes.len()).collect();
        let mut swaps = 0u64;
        let initial_size = self.live_size(&state.roots);
        let mut max_live = initial_size;
        let mut current = initial_size;
        let mut rounds = 0usize;
        for _ in 0..config.max_rounds {
            rounds += 1;
            let round_start = current;
            for b in self.block_agenda(&state.roots, &order, block_sizes) {
                current = self.sift_one_block(
                    &mut state,
                    b,
                    &mut order,
                    block_sizes,
                    &mut origin,
                    &mut swaps,
                    &mut max_live,
                    config,
                    current,
                );
            }
            if current >= round_start {
                break;
            }
        }
        self.gc();
        for (slot, handle) in roots.iter_mut().zip(state.handles) {
            *slot = self.unprotect(handle);
        }
        SiftOutcome {
            initial_size,
            final_size: current,
            max_live_size: max_live,
            rounds,
            swaps,
            level_origin: origin,
            block_origin: order,
        }
    }

    /// Collects the swap garbage when it outweighs the live diagram,
    /// refreshing the driver's root ids through their handles.
    fn maybe_collect(&mut self, state: &mut SiftState, live: usize) {
        if self.allocated_nodes() > 4 * live + 4096 {
            self.gc();
            for (slot, &handle) in state.roots.iter_mut().zip(&state.handles) {
                *slot = self.resolve(handle);
            }
        }
    }

    /// Blocks in decreasing order of their current live node count (ties
    /// broken by input index, for determinism).
    fn block_agenda(&self, roots: &[u32], order: &[usize], block_sizes: &[usize]) -> Vec<usize> {
        let per_level = self.live_per_level(roots);
        let mut start = 0usize;
        let mut agenda: Vec<(usize, usize)> = order
            .iter()
            .map(|&b| {
                let count: usize = per_level[start..start + block_sizes[b]].iter().sum();
                start += block_sizes[b];
                (count, b)
            })
            .collect();
        agenda.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
        agenda.into_iter().map(|(_, b)| b).collect()
    }

    /// Live (reachable from `roots`) non-terminal nodes per level.
    fn live_per_level(&self, roots: &[u32]) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_levels()];
        for (id, &reachable) in self.mark(roots).iter().enumerate() {
            if reachable {
                if let Some(level) = self.level(id as u32) {
                    counts[level] += 1;
                }
            }
        }
        counts
    }

    /// Sifts one block to its best position; returns the live size there.
    #[allow(clippy::too_many_arguments)]
    fn sift_one_block(
        &mut self,
        state: &mut SiftState,
        block: usize,
        order: &mut [usize],
        block_sizes: &[usize],
        origin: &mut [usize],
        swaps: &mut u64,
        max_live: &mut usize,
        config: &SiftConfig,
        start_size: usize,
    ) -> usize {
        let num_blocks = order.len();
        let mut pos = order.iter().position(|&b| b == block).expect("block is in the order");
        let bound = (start_size as f64 * config.max_growth).ceil() as usize;
        let mut best_size = start_size;
        let mut best_pos = pos;
        // Walk down to the bottom.
        while pos + 1 < num_blocks {
            self.swap_block_down(pos, order, block_sizes, origin, swaps);
            pos += 1;
            let size = self.live_size(&state.roots);
            self.maybe_collect(state, size);
            if size > bound {
                self.swap_block_down(pos - 1, order, block_sizes, origin, swaps);
                pos -= 1;
                break;
            }
            *max_live = (*max_live).max(size);
            if size < best_size {
                best_size = size;
                best_pos = pos;
            }
        }
        // Walk up to the top from wherever the downward pass stopped.
        while pos > 0 {
            self.swap_block_down(pos - 1, order, block_sizes, origin, swaps);
            pos -= 1;
            let size = self.live_size(&state.roots);
            self.maybe_collect(state, size);
            if size > bound {
                self.swap_block_down(pos, order, block_sizes, origin, swaps);
                pos += 1;
                break;
            }
            *max_live = (*max_live).max(size);
            if size < best_size {
                best_size = size;
                best_pos = pos;
            }
        }
        // Settle at the best position seen.
        while pos < best_pos {
            self.swap_block_down(pos, order, block_sizes, origin, swaps);
            pos += 1;
        }
        while pos > best_pos {
            self.swap_block_down(pos - 1, order, block_sizes, origin, swaps);
            pos -= 1;
        }
        self.maybe_collect(state, best_size);
        debug_assert_eq!(
            self.live_size(&state.roots),
            best_size,
            "the canonical diagram size is a function of the order alone"
        );
        best_size
    }

    /// Swaps the blocks at positions `p` and `p + 1` (each level of the
    /// lower block bubbles over the whole upper block, preserving both
    /// blocks' internal order).
    fn swap_block_down(
        &mut self,
        p: usize,
        order: &mut [usize],
        block_sizes: &[usize],
        origin: &mut [usize],
        swaps: &mut u64,
    ) {
        let start: usize = order[..p].iter().map(|&b| block_sizes[b]).sum();
        let g = block_sizes[order[p]];
        let h = block_sizes[order[p + 1]];
        for i in 0..h {
            let mut l = start + g + i;
            while l > start + i {
                self.swap_adjacent_levels(l - 1);
                origin.swap(l - 1, l);
                *swaps += 1;
                l -= 1;
            }
        }
        order.swap(p, p + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ONE, ZERO};

    /// Builds the conjunction-of-pairs function x0·xk + x1·x(k+1) + … with
    /// the pairs separated in the order — the classic sifting testcase
    /// (linear when interleaved, exponential when separated).
    fn separated_pairs(pairs: usize) -> (DdKernel, u32) {
        let n = 2 * pairs;
        let mut dd = DdKernel::new(vec![2; n]);
        // Build bottom-up with explicit Shannon expansion over the fixed
        // order: f = OR_i (x_i AND x_{i+pairs}).
        fn build(
            dd: &mut DdKernel,
            level: usize,
            n: usize,
            pairs: usize,
            fixed: &mut Vec<Option<bool>>,
        ) -> u32 {
            if level == n {
                let any =
                    (0..pairs).any(|i| fixed[i] == Some(true) && fixed[i + pairs] == Some(true));
                return if any { ONE } else { ZERO };
            }
            fixed[level] = Some(false);
            let low = build(dd, level + 1, n, pairs, fixed);
            fixed[level] = Some(true);
            let high = build(dd, level + 1, n, pairs, fixed);
            fixed[level] = None;
            dd.mk(level as u32, &[low, high])
        }
        let mut fixed = vec![None; n];
        let root = build(&mut dd, 0, n, pairs, &mut fixed);
        (dd, root)
    }

    fn eval_permuted(dd: &DdKernel, root: u32, origin: &[usize], assignment: &[usize]) -> bool {
        dd.eval(root, |level| assignment[origin[level]])
    }

    #[test]
    fn adjacent_swap_preserves_the_function() {
        let (mut dd, root) = separated_pairs(2);
        let truth: Vec<bool> = (0..16).map(|row| dd.eval(root, |l| (row >> l) & 1)).collect();
        let mut origin: Vec<usize> = (0..4).collect();
        // Swap every adjacent pair once, checking the function each time.
        for l in [0usize, 1, 2, 1, 0, 2] {
            dd.swap_adjacent_levels(l);
            origin.swap(l, l + 1);
            for (row, &want) in truth.iter().enumerate() {
                let assignment: Vec<usize> = (0..4).map(|i| (row >> i) & 1).collect();
                assert_eq!(eval_permuted(&dd, root, &origin, &assignment), want, "swap {l}");
            }
        }
    }

    #[test]
    fn adjacent_swap_handles_mixed_arities() {
        // A binary level above a ternary level.
        let mut dd = DdKernel::new(vec![2, 3]);
        let t = dd.mk(1, &[ZERO, ONE, ZERO]); // x1 == 1
        let root = dd.mk(0, &[t, ONE]); // x0 == 1 OR x1 == 1
        let truth: Vec<Vec<bool>> =
            (0..2).map(|a| (0..3).map(|b| dd.eval(root, |l| [a, b][l])).collect()).collect();
        dd.swap_adjacent_levels(0);
        assert_eq!(dd.arity(0), 3);
        assert_eq!(dd.arity(1), 2);
        for (a, row) in truth.iter().enumerate() {
            for (b, &want) in row.iter().enumerate() {
                // Level 0 now tests the old x1, level 1 the old x0.
                assert_eq!(dd.eval(root, |l| if l == 0 { b } else { a }), want);
            }
        }
        // Swapping back restores the original canonical structure.
        let size_before = dd.live_size(&[root]);
        dd.swap_adjacent_levels(0);
        assert_eq!(dd.children(root), &[t, ONE]);
        let _ = size_before;
    }

    #[test]
    fn sifting_recovers_the_interleaved_order() {
        let (mut dd, root) = separated_pairs(3);
        let truth: Vec<bool> = (0..64).map(|row| dd.eval(root, |l| (row >> l) & 1)).collect();
        let before = dd.live_size(&[root]);
        let mut roots = [root];
        let outcome = dd.sift(&mut roots, &SiftConfig { max_growth: 2.0, max_rounds: 4 });
        let root = roots[0];
        assert_eq!(outcome.initial_size, before);
        assert!(
            outcome.final_size < before,
            "sifting must shrink the separated-pairs diagram ({} -> {})",
            before,
            outcome.final_size
        );
        assert_eq!(outcome.final_size, dd.live_size(&[root]));
        assert_eq!(outcome.block_origin, outcome.level_origin);
        // The function is unchanged under the reported permutation.
        for (row, &want) in truth.iter().enumerate() {
            let assignment: Vec<usize> = (0..6).map(|i| (row >> i) & 1).collect();
            assert_eq!(eval_permuted(&dd, root, &outcome.level_origin, &assignment), want);
        }
        // Collecting afterwards reclaims the swap garbage and keeps the root.
        let mut guard = dd.protect_scoped(root);
        let gc = guard.gc();
        assert_eq!(gc.live_nodes, outcome.final_size);
        let root = guard.root();
        drop(guard);
        assert_eq!(dd.live_size(&[root]), outcome.final_size);
    }

    #[test]
    fn sift_respects_the_growth_bound() {
        let (mut dd, root) = separated_pairs(3);
        let mut roots = [root];
        for growth in [1.0, 1.05, 1.2] {
            let initial = dd.live_size(&roots);
            let outcome = dd.sift(&mut roots, &SiftConfig { max_growth: growth, max_rounds: 1 });
            let bound = (initial as f64 * growth).ceil() as usize;
            assert!(
                outcome.max_live_size <= bound,
                "growth {growth}: committed size {} exceeded bound {bound}",
                outcome.max_live_size
            );
            assert!(outcome.final_size <= initial, "sifting never ends worse than it started");
        }
    }

    #[test]
    fn block_sifting_keeps_blocks_contiguous() {
        // Two 2-level blocks encoding "the same pair" interleaved badly:
        // f depends on (0,3) and (1,2); blocks {0,1} and {2,3}.
        let (mut dd, root) = separated_pairs(2);
        let truth: Vec<bool> = (0..16).map(|row| dd.eval(root, |l| (row >> l) & 1)).collect();
        let mut roots = [root];
        let outcome =
            dd.sift_blocks(&mut roots, &[2, 2], &SiftConfig { max_growth: 3.0, max_rounds: 2 });
        let root = roots[0];
        // Blocks move as units: the level permutation maps {0,1} and {2,3}
        // to contiguous, order-preserving ranges.
        let lo: Vec<usize> = outcome.level_origin.clone();
        assert!(lo == vec![0, 1, 2, 3] || lo == vec![2, 3, 0, 1], "unexpected permutation {lo:?}");
        for (row, &want) in truth.iter().enumerate() {
            let assignment: Vec<usize> = (0..4).map(|i| (row >> i) & 1).collect();
            assert_eq!(eval_permuted(&dd, root, &outcome.level_origin, &assignment), want);
        }
    }

    #[test]
    #[should_panic]
    fn bad_block_partition_is_rejected() {
        let mut dd = DdKernel::new(vec![2, 2, 2]);
        let mut roots = [dd.mk(0, &[ZERO, ONE])];
        let _ = dd.sift_blocks(&mut roots, &[2, 2], &SiftConfig::default());
    }

    #[test]
    #[should_panic]
    fn growth_below_one_is_rejected() {
        let mut dd = DdKernel::new(vec![2, 2]);
        let mut roots = [dd.mk(0, &[ZERO, ONE])];
        let _ = dd.sift(&mut roots, &SiftConfig { max_growth: 0.5, max_rounds: 1 });
    }
}
