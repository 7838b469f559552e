//! The paper's bottom-up, layer-by-layer coded-ROBDD → ROMDD conversion.
//!
//! The coded ROBDD is viewed as a stack of *layers*, one per
//! multiple-valued variable, each layer containing the ROBDD nodes whose
//! binary variable encodes that multiple-valued variable. *Entry nodes* of
//! a layer are the nodes with incoming edges from other layers (plus the
//! root). Layers are processed bottom-up: for every entry node and every
//! domain value the group's codeword is "simulated" downwards until a node
//! of a lower layer (or a terminal) is reached, and the corresponding
//! already-converted ROMDD node becomes the child for that value.
//!
//! The top-down converter in [`crate::from_bdd`] produces the same
//! canonical ROMDD; both are kept because the layered procedure is the one
//! described in the paper (and it exercises the algorithm the way the
//! original implementation did), while the top-down version is the one the
//! analysis pipeline uses by default.

use socy_bdd::{BddId, BddManager};
use socy_dd::hash::FxHashMap;

use crate::coded::CodedLayout;
use crate::from_bdd::follow_code;
use crate::manager::{MddId, MddManager};

impl MddManager {
    /// Converts the coded ROBDD rooted at `root` into an ROMDD using the
    /// paper's bottom-up layer algorithm.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`MddManager::from_coded_bdd`]: mismatched domains or ROBDD levels
    /// not covered by the layout.
    pub fn from_coded_bdd_layered(
        &mut self,
        bdd: &BddManager,
        root: BddId,
        layout: &CodedLayout,
    ) -> MddId {
        assert_eq!(
            self.domains(),
            layout.domains().as_slice(),
            "MddManager domains must match the coded layout"
        );
        if root.is_zero() {
            return MddId::ZERO;
        }
        if root.is_one() {
            return MddId::ONE;
        }
        let mv_of_bit = layout.mv_of_bit();
        let layer_of = |id: BddId| -> usize {
            let level = bdd.level(id).expect("non-terminal");
            mv_of_bit
                .get(level)
                .copied()
                .flatten()
                .unwrap_or_else(|| panic!("ROBDD level {level} is not mapped by the layout"))
        };

        // Collect the entry nodes of every layer: the root plus every node whose
        // incoming edge crosses a layer boundary.
        let mut entries: Vec<Vec<BddId>> = vec![Vec::new(); layout.num_vars()];
        let mut seen_entry: FxHashMap<BddId, ()> = FxHashMap::default();
        entries[layer_of(root)].push(root);
        seen_entry.insert(root, ());
        let mut visited: FxHashMap<BddId, ()> = FxHashMap::default();
        let mut stack = vec![root];
        visited.insert(root, ());
        while let Some(node) = stack.pop() {
            let node_layer = layer_of(node);
            for child in [bdd.low(node), bdd.high(node)] {
                if child.is_terminal() {
                    continue;
                }
                if layer_of(child) != node_layer && seen_entry.insert(child, ()).is_none() {
                    entries[layer_of(child)].push(child);
                }
                if visited.insert(child, ()).is_none() {
                    stack.push(child);
                }
            }
        }

        // Process layers bottom-up.
        let mut mapping: FxHashMap<BddId, MddId> = FxHashMap::default();
        mapping.insert(BddId::ZERO, MddId::ZERO);
        mapping.insert(BddId::ONE, MddId::ONE);
        for layer in (0..layout.num_vars()).rev() {
            // Clone the entry list to avoid holding a borrow across `mk`.
            let layer_entries = entries[layer].clone();
            for entry in layer_entries {
                let domain = layout.vars[layer].domain;
                let mut children = Vec::with_capacity(domain);
                for value in 0..domain {
                    let below = follow_code(bdd, entry, &layout.assignment_for(layer, value));
                    let mapped = *mapping.get(&below).unwrap_or_else(|| {
                        panic!("simulation reached an unprocessed node {below}")
                    });
                    children.push(mapped);
                }
                let node = self.mk(layer, children);
                mapping.insert(entry, node);
            }
        }
        mapping[&root]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coded::MvVarLayout;

    /// Builds a coded ROBDD of `f` by summing minterms (small inputs only).
    fn coded_bdd_of<F: Fn(&[usize]) -> bool>(layout: &CodedLayout, f: &F) -> (BddManager, BddId) {
        let mut bdd = BddManager::new(layout.num_bits());
        let domains = layout.domains();
        let mut root = bdd.zero();
        let mut assignment = vec![0usize; domains.len()];
        loop {
            if f(&assignment) {
                let mut term = bdd.one();
                for (var, &value) in assignment.iter().enumerate() {
                    for (level, bit) in layout.assignment_for(var, value) {
                        let lit = bdd.literal(level, bit);
                        term = bdd.and(term, lit);
                    }
                }
                root = bdd.or(root, term);
            }
            let mut i = 0;
            loop {
                if i == domains.len() {
                    return (bdd, root);
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

    fn agree_with_top_down<F: Fn(&[usize]) -> bool>(layout: &CodedLayout, f: F) {
        let (bdd, root) = coded_bdd_of(layout, &f);
        let mut mdd = MddManager::new(layout.domains());
        let top_down = mdd.from_coded_bdd(&bdd, root, layout);
        let layered = mdd.from_coded_bdd_layered(&bdd, root, layout);
        assert_eq!(
            top_down, layered,
            "both conversions must produce the identical canonical ROMDD"
        );
    }

    #[test]
    fn agrees_on_indicators_and_composites() {
        let layout = CodedLayout::binary_msb_first(&[3, 4, 2]);
        agree_with_top_down(&layout, |a| a[0] == 2);
        agree_with_top_down(&layout, |a| (a[0] == 2 && a[1] >= 2) || a[2] == 1);
        agree_with_top_down(&layout, |a| a[0] + a[1] + a[2] >= 4);
    }

    #[test]
    fn agrees_on_constants() {
        let layout = CodedLayout::binary_msb_first(&[3, 3]);
        agree_with_top_down(&layout, |_| true);
        agree_with_top_down(&layout, |_| false);
    }

    #[test]
    fn agrees_with_dont_care_codes() {
        let layout = CodedLayout::binary_msb_first(&[5, 3]);
        agree_with_top_down(&layout, |a| a[0] == 4 || (a[0] == 0 && a[1] == 2));
        agree_with_top_down(&layout, |a| a[0] % 3 == a[1]);
    }

    #[test]
    fn agrees_with_lsb_first_groups() {
        let domain = 4usize;
        let codes_lsb: Vec<Vec<bool>> =
            (0..domain).map(|v| vec![v & 1 == 1, v >> 1 & 1 == 1]).collect();
        let layout = CodedLayout::new(vec![
            MvVarLayout { domain, bit_levels: vec![0, 1], codes: codes_lsb.clone() },
            MvVarLayout { domain, bit_levels: vec![2, 3], codes: codes_lsb },
        ])
        .unwrap();
        agree_with_top_down(&layout, |a| a[0] > a[1]);
        agree_with_top_down(&layout, |a| a[0] == a[1]);
    }

    #[test]
    fn evaluates_correctly_standalone() {
        // Also verify the layered result against the reference function directly.
        let layout = CodedLayout::binary_msb_first(&[3, 3]);
        let f = |a: &[usize]| a[0] != a[1];
        let (bdd, root) = coded_bdd_of(&layout, &f);
        let mut mdd = MddManager::new(layout.domains());
        let converted = mdd.from_coded_bdd_layered(&bdd, root, &layout);
        for x in 0..3 {
            for y in 0..3 {
                assert_eq!(mdd.eval(converted, &[x, y]), f(&[x, y]));
            }
        }
    }
}
