//! Probability evaluation on ROMDDs.
//!
//! This is the computation at the heart of the yield method: given the
//! ROMDD of `G(W, V_1, …, V_M)` and the (independent) distributions of the
//! multiple-valued random variables, a single depth-first traversal
//! computes `P(G = 1)` — exactly the procedure illustrated with the
//! paper's Figure 2 example.
//!
//! [`MddManager::probability`] runs that traversal on the live manager.
//! A diagram evaluated many times is better [frozen](MddManager::freeze)
//! into a [`FrozenMdd`] first: a flat, level-major plan whose evaluation
//! is one forward loop, bit-identical to the traversal.

use crate::manager::{MddId, MddManager};

impl MddManager {
    /// Probability that the boolean function rooted at `f` evaluates to 1
    /// when the variable at every level `l` independently takes value `v`
    /// with probability `probabilities[l][v]`.
    ///
    /// Every `probabilities[l]` must have exactly `domain(l)` entries and
    /// (for a meaningful result) sum to 1; levels skipped by the diagram
    /// then contribute a factor of 1 automatically.
    ///
    /// This memoized depth-first traversal is the reference
    /// implementation: [`FrozenMdd::probability`], which the analysis
    /// pipeline evaluates with, is tested against it bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `probabilities` is shorter than a level appearing in `f`
    /// or an entry has the wrong arity.
    pub fn probability(&mut self, f: MddId, probabilities: &[Vec<f64>]) -> f64 {
        let domains = &self.domains;
        self.dd.probability(f.0, |level, value| {
            let dist = &probabilities[level];
            assert_eq!(
                dist.len(),
                domains[level],
                "probability vector arity mismatch at level {level}"
            );
            dist[value]
        })
    }

    /// Freezes the diagram rooted at `f` into a [`FrozenMdd`]: an
    /// evaluation plan that no longer needs this manager.
    ///
    /// One reachable walk numbers the nodes level-major, deepest level
    /// first, after the two terminals (slot 0 is FALSE, slot 1 TRUE).
    /// Every edge points to a strictly deeper level, so this numbering is
    /// topological: each node's children get smaller slots than the node
    /// itself.
    pub fn freeze(&self, f: MddId) -> FrozenMdd {
        let reachable = self.dd.reachable(f.0);
        let num_levels = self.domains.len();
        let mut per_level = vec![0usize; num_levels];
        for &id in &reachable {
            if let Some(level) = self.dd.level(id) {
                per_level[level] += 1;
            }
        }
        // Counting sort by level: the first slot of every level.
        let mut next_slot = vec![0usize; num_levels];
        let mut slots = 2;
        for level in (0..num_levels).rev() {
            next_slot[level] = slots;
            slots += per_level[level];
        }
        let mut slot_of = vec![0u32; self.dd.allocated_nodes()];
        slot_of[socy_dd::ONE as usize] = 1;
        let mut node_at = vec![0u32; slots];
        for &id in &reachable {
            if let Some(level) = self.dd.level(id) {
                slot_of[id as usize] = next_slot[level] as u32;
                node_at[next_slot[level]] = id;
                next_slot[level] += 1;
            }
        }
        let blocks = (0..num_levels)
            .rev()
            .filter(|&level| per_level[level] > 0)
            .map(|level| LevelBlock { level, arity: self.domains[level], nodes: per_level[level] })
            .collect();
        let children = node_at[2..]
            .iter()
            .flat_map(|&id| self.dd.children(id).iter().map(|&c| slot_of[c as usize]))
            .collect();
        let mut values = vec![0.0; slots];
        values[1] = 1.0;
        FrozenMdd {
            blocks,
            children,
            root: slot_of[f.0 as usize],
            node_count: reachable.len(),
            values,
        }
    }
}

/// The nodes of one level of a [`FrozenMdd`]: `nodes` consecutive slots,
/// each with `arity` consecutive entries in the child-slot array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LevelBlock {
    level: usize,
    arity: usize,
    nodes: usize,
}

/// A read-only ROMDD laid out for repeated probability evaluation,
/// created by [`MddManager::freeze`].
///
/// The nodes sit level-major, deepest level first, after the two
/// terminal slots, and their children are one flat array of slots in the
/// same order. [`FrozenMdd::probability`] is therefore a single forward
/// loop: every child's value is final before its parents read it, so
/// there is no stack, no visited stamp and no memo lookup.
#[derive(Debug, Clone)]
pub struct FrozenMdd {
    /// Populated levels, deepest first.
    blocks: Vec<LevelBlock>,
    /// Child slots of every non-terminal node, in slot order.
    children: Vec<u32>,
    /// Slot of the root (0 or 1 when the root is a terminal).
    root: u32,
    /// Nodes reachable from the root, terminals included.
    node_count: usize,
    /// Value of every slot, reused across evaluations; slots 0 and 1 hold
    /// the terminals' constant 0 and 1.
    values: Vec<f64>,
}

impl FrozenMdd {
    /// Number of nodes reachable from the root, including terminals —
    /// the same count as [`MddManager::node_count`] on the manager the
    /// plan was frozen from.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Probability that the frozen function evaluates to 1 under the
    /// per-level distributions `probabilities`, with the contract of
    /// [`MddManager::probability`].
    ///
    /// Each node sums `weight × child value` over its children in domain
    /// order, exactly like the reference traversal. The traversal skips
    /// zero-weight branches and this loop does not, but with finite,
    /// non-negative weights a skipped term is `+0.0 × v = +0.0`, and
    /// adding `+0.0` to a sum that starts at `+0.0` changes no bit. The
    /// two implementations therefore agree bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `probabilities` is shorter than a level appearing in the
    /// diagram or an entry has the wrong arity.
    pub fn probability(&mut self, probabilities: &[Vec<f64>]) -> f64 {
        let mut slot = 2;
        let mut edges = self.children.as_slice();
        for block in &self.blocks {
            let dist = probabilities[block.level].as_slice();
            assert_eq!(
                dist.len(),
                block.arity,
                "probability vector arity mismatch at level {}",
                block.level
            );
            let (level_edges, rest) = edges.split_at(block.nodes * block.arity);
            edges = rest;
            for node in level_edges.chunks_exact(block.arity) {
                let mut p = 0.0;
                for (&w, &child) in dist.iter().zip(node) {
                    p += w * self.values[child as usize];
                }
                self.values[slot] = p;
                slot += 1;
            }
        }
        self.values[self.root as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_of_indicators() {
        let mut mgr = MddManager::new(vec![3]);
        let dist = vec![vec![0.2, 0.3, 0.5]];
        let is1 = mgr.value_is(0, 1);
        assert!((mgr.probability(is1, &dist) - 0.3).abs() < 1e-12);
        let ge1 = mgr.value_at_least(0, 1);
        assert!((mgr.probability(ge1, &dist) - 0.8).abs() < 1e-12);
        assert_eq!(mgr.probability(mgr.one(), &dist), 1.0);
        assert_eq!(mgr.probability(mgr.zero(), &dist), 0.0);
    }

    #[test]
    fn probability_of_composite_function() {
        // Two variables; f = (x0 >= 1) AND (x1 == 2), independent.
        let mut mgr = MddManager::new(vec![2, 3]);
        let a = mgr.value_at_least(0, 1);
        let b = mgr.value_is(1, 2);
        let f = mgr.and(a, b);
        let dist = vec![vec![0.4, 0.6], vec![0.1, 0.2, 0.7]];
        assert!((mgr.probability(f, &dist) - 0.6 * 0.7).abs() < 1e-12);
        let g = mgr.or(a, b);
        // P(a or b) = 1 - P(!a)P(!b) by independence.
        assert!((mgr.probability(g, &dist) - (1.0 - 0.4 * 0.3)).abs() < 1e-12);
    }

    #[test]
    fn probability_matches_enumeration() {
        let mut mgr = MddManager::new(vec![3, 2, 4]);
        let a = mgr.value_is(0, 2);
        let b = mgr.value_is(1, 1);
        let c = mgr.value_at_least(2, 3);
        let ab = mgr.and(a, b);
        let f = mgr.or(ab, c);
        let dist = vec![vec![0.5, 0.25, 0.25], vec![0.9, 0.1], vec![0.4, 0.3, 0.2, 0.1]];
        // Brute-force enumeration.
        let mut expect = 0.0;
        for x0 in 0..3 {
            for x1 in 0..2 {
                for x2 in 0..4 {
                    if mgr.eval(f, &[x0, x1, x2]) {
                        expect += dist[0][x0] * dist[1][x1] * dist[2][x2];
                    }
                }
            }
        }
        assert!((mgr.probability(f, &dist) - expect).abs() < 1e-12);
    }

    #[test]
    fn paper_figure_2_structure() {
        // The paper's Figure 2: F(x1,x2,x3) = x1·x2 + x3 with M = 2 defects and
        // C = 3 components. Variables of G in the order v1, v2, w with domains
        // {1,2,3} (coded 0..2) for v's and {0,1,2,3} for w.
        //
        // Here we build G directly with MDD operations and check the probability
        // against a hand enumeration; the end-to-end pipeline test in the core
        // crate reproduces the same number through the coded-ROBDD route.
        let m = 2usize;
        let domains = vec![3, 3, m + 2]; // v1, v2, w
        let mut mgr = MddManager::new(domains);
        let w_level = 2;
        // x_i = OR_l ( I_{>= l}(w) AND I_i(v_l) )
        let mut x = Vec::new();
        for comp in 0..3usize {
            let mut terms = Vec::new();
            for l in 1..=m {
                let ge = mgr.value_at_least(w_level, l);
                let hit = mgr.value_is(l - 1, comp);
                terms.push(mgr.and(ge, hit));
            }
            x.push(mgr.or_many(terms));
        }
        // F = x1 x2 + x3, G = I_{M+1}(w) OR F(...)
        let x12 = mgr.and(x[0], x[1]);
        let f_sub = mgr.or(x12, x[2]);
        let clamp = mgr.value_is(w_level, m + 1);
        let g = mgr.or(clamp, f_sub);

        let q = vec![0.5, 0.3, 0.15, 0.05]; // Q'_0, Q'_1, Q'_2, P(W = M+1)
        let p = vec![0.2, 0.3, 0.5]; // P'_1..P'_3
        let dist = vec![p.clone(), p.clone(), q.clone()];
        let p_g = mgr.probability(g, &dist);

        // Hand enumeration of 1 - Y_M = P(G = 1).
        let mut expect = q[3]; // W = M+1 always makes G = 1
        for (w, &qw) in q.iter().enumerate().take(m + 1) {
            // enumerate v1, v2 (only the first w defects matter)
            for v1 in 0..3 {
                for v2 in 0..3 {
                    let mut failed = [false; 3];
                    if w >= 1 {
                        failed[v1] = true;
                    }
                    if w >= 2 {
                        failed[v2] = true;
                    }
                    let f_val = (failed[0] && failed[1]) || failed[2];
                    if f_val {
                        expect += qw * p[v1] * p[v2];
                    }
                }
            }
        }
        assert!((p_g - expect).abs() < 1e-12, "got {p_g}, expected {expect}");
    }

    #[test]
    fn frozen_plan_matches_the_traversal_bit_for_bit() {
        let mut mgr = MddManager::new(vec![3, 2, 4]);
        let a = mgr.value_is(0, 2);
        let b = mgr.value_is(1, 1);
        let c = mgr.value_at_least(2, 3);
        let ab = mgr.and(a, b);
        let f = mgr.or(ab, c);
        let mut plan = mgr.freeze(f);
        assert_eq!(plan.node_count(), mgr.node_count(f));
        for dist in [
            vec![vec![0.5, 0.25, 0.25], vec![0.9, 0.1], vec![0.4, 0.3, 0.2, 0.1]],
            // Zero weights: the traversal skips these branches, the plan adds +0.0.
            vec![vec![0.0, 0.7, 0.3], vec![1.0, 0.0], vec![0.0, 0.5, 0.5, 0.0]],
        ] {
            let reference = mgr.probability(f, &dist);
            assert_eq!(plan.probability(&dist).to_bits(), reference.to_bits());
            assert_eq!(plan.probability(&dist).to_bits(), reference.to_bits(), "reused values");
        }
    }

    #[test]
    #[should_panic(expected = "arity mismatch at level 0")]
    fn frozen_plan_checks_arity() {
        let mut mgr = MddManager::new(vec![3]);
        let f = mgr.value_is(0, 1);
        mgr.freeze(f).probability(&[vec![0.5, 0.5]]);
    }
}
