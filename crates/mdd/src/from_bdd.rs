//! Top-down conversion of a coded ROBDD into the ROMDD.
//!
//! The paper builds the ROMDD from the coded ROBDD bottom-up, layer by
//! layer (implemented in [`crate::layered`]). This module provides an
//! equivalent *top-down, memoized* converter which is simpler to reason
//! about and never materialises nodes that end up unreachable; the two
//! implementations are cross-checked against each other in the test suites
//! (they must produce the identical canonical ROMDD).
//!
//! The key observation making the conversion possible is the layering
//! requirement: because all bits encoding multiple-valued variable `x_k`
//! sit above all bits of `x_{k+1}, …` in the ROBDD order, every ROBDD node
//! reached after assigning a full group of bits represents a function of
//! the *remaining* multiple-valued variables only, so it maps to a unique
//! ROMDD node — the memoization key is just the ROBDD node id.

use socy_bdd::{BddId, BddManager};
use socy_dd::DdKernel;

use crate::coded::CodedLayout;
use crate::manager::{MddId, MddManager};

/// Sentinel of the dense conversion memo ("not converted yet"). Node ids
/// are arena indices, so `u32::MAX` can never be a real ROMDD id.
const UNSET: u32 = u32::MAX;

/// Precomputed codeword assignments: `assignments[mv][value]` is the
/// sorted `(bit_level, bit)` list encoding `value` for group `mv`.
type GroupAssignments = Vec<Vec<Vec<(usize, bool)>>>;

/// One unit of work of the iterative converter: `Visit` resolves a coded
/// ROBDD node into the memo; `Build` fires once every node reached below
/// the group's codewords is converted and hash-conses the ROMDD node.
#[derive(Debug, Clone, Copy)]
enum ConvFrame {
    Visit(BddId),
    Build {
        node: BddId,
        mv: u32,
        /// Start of this node's per-value "below" ids in the scratch.
        start: u32,
    },
}

/// Reusable buffers of the iterative converter (held by the manager).
#[derive(Debug, Clone, Default)]
pub(crate) struct ConvScratch {
    /// ROMDD id per ROBDD node id (`UNSET` until converted).
    memo: Vec<u32>,
    frames: Vec<ConvFrame>,
    /// Flattened per-value codeword-simulation targets of the pending
    /// `Build` frames.
    below: Vec<u32>,
    /// Staging for one `mk` call.
    children: Vec<u32>,
}

impl MddManager {
    /// Converts the coded ROBDD rooted at `root` (owned by `bdd`) into an
    /// ROMDD in this manager.
    ///
    /// The manager's domains must match `layout.domains()`, and the ROBDD
    /// variable order must respect the layout's grouping (which
    /// [`CodedLayout::new`] validates).
    ///
    /// The converter is iterative (explicit work stack, reusable scratch
    /// held by the manager) and memoizes through a dense per-ROBDD-node
    /// array — the memo key is just the ROBDD node id, which the layering
    /// requirement makes sound (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the manager's domains do not match the layout, or if the
    /// ROBDD tests a level that the layout does not assign to any
    /// multiple-valued variable.
    pub fn from_coded_bdd(&mut self, bdd: &BddManager, root: BddId, layout: &CodedLayout) -> MddId {
        assert_eq!(
            self.domains(),
            layout.domains().as_slice(),
            "MddManager domains must match the coded layout"
        );
        let mv_of_bit = layout.mv_of_bit();
        // Precompute every group's codeword assignments once; the
        // simulation below follows them per (node, value).
        let assignments: GroupAssignments = (0..layout.num_vars())
            .map(|mv| (0..layout.vars[mv].domain).map(|v| layout.assignment_for(mv, v)).collect())
            .collect();
        let mut scratch = std::mem::take(&mut self.conv);
        scratch.prepare(bdd);
        let result = convert(&mut self.dd, bdd, root, &assignments, &mv_of_bit, &mut scratch);
        self.conv = scratch;
        MddId(result)
    }
}

impl ConvScratch {
    /// Resets the memo for a fresh conversion out of `bdd` (terminals
    /// pre-seeded, everything else unconverted): one slot per ROBDD node.
    fn prepare(&mut self, bdd: &BddManager) {
        self.memo.clear();
        self.memo.resize(bdd.allocated_nodes(), UNSET);
        self.memo[BddId::ZERO.index()] = socy_dd::ZERO;
        self.memo[BddId::ONE.index()] = socy_dd::ONE;
    }
}

/// The iterative top-down converter. `scratch.memo` must be prepared
/// for `bdd` (see [`ConvScratch::prepare`]).
fn convert(
    dd: &mut DdKernel,
    bdd: &BddManager,
    root: BddId,
    assignments: &GroupAssignments,
    mv_of_bit: &[Option<usize>],
    scratch: &mut ConvScratch,
) -> u32 {
    debug_assert!(scratch.frames.is_empty() && scratch.below.is_empty());
    scratch.frames.push(ConvFrame::Visit(root));
    while let Some(frame) = scratch.frames.pop() {
        match frame {
            ConvFrame::Visit(node) => {
                if scratch.memo[node.index()] != UNSET {
                    continue;
                }
                let bit_level = bdd.level(node).expect("non-terminal");
                let mv = mv_of_bit.get(bit_level).copied().flatten().unwrap_or_else(|| {
                    panic!("ROBDD level {bit_level} is not mapped by the layout")
                });
                let start = scratch.below.len() as u32;
                scratch.frames.push(ConvFrame::Build { node, mv: mv as u32, start });
                for assignment in &assignments[mv] {
                    let below = follow_code(bdd, node, assignment);
                    scratch.below.push(below.index() as u32);
                    if scratch.memo[below.index()] == UNSET {
                        scratch.frames.push(ConvFrame::Visit(below));
                    }
                }
            }
            ConvFrame::Build { node, mv, start } => {
                scratch.children.clear();
                for &below in &scratch.below[start as usize..] {
                    let converted = scratch.memo[below as usize];
                    debug_assert_ne!(converted, UNSET, "children are converted before parents");
                    scratch.children.push(converted);
                }
                scratch.below.truncate(start as usize);
                let result = dd.mk(mv, &scratch.children);
                scratch.memo[node.index()] = result;
            }
        }
    }
    scratch.memo[root.index()]
}

/// Walks down from `node` assigning the group bits given by `assignment`
/// (sorted by increasing ROBDD level) and returns the node reached below
/// the group. Bits that the ROBDD does not test are simply skipped.
pub(crate) fn follow_code(bdd: &BddManager, node: BddId, assignment: &[(usize, bool)]) -> BddId {
    let mut cur = node;
    for &(level, value) in assignment {
        if cur.is_terminal() {
            break;
        }
        match bdd.level(cur) {
            Some(l) if l == level => {
                cur = if value { bdd.high(cur) } else { bdd.low(cur) };
            }
            // The ROBDD skips this bit (function does not depend on it), or the
            // current node already lies below this group.
            _ => {}
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coded::MvVarLayout;

    /// Builds the coded ROBDD of a function of multiple-valued variables by
    /// explicit case analysis on all assignments (small inputs only), then
    /// converts it and compares against direct evaluation.
    fn coded_bdd_of<F: Fn(&[usize]) -> bool>(layout: &CodedLayout, f: &F) -> (BddManager, BddId) {
        let mut bdd = BddManager::new(layout.num_bits());
        let domains = layout.domains();
        let mut root = bdd.zero();
        let mut assignment = vec![0usize; domains.len()];
        loop {
            if f(&assignment) {
                // minterm over the coded bits
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

    fn exhaustive_check<F: Fn(&[usize]) -> bool>(layout: &CodedLayout, f: F) {
        let (bdd, root) = coded_bdd_of(layout, &f);
        let mut mdd = MddManager::new(layout.domains());
        let converted = mdd.from_coded_bdd(&bdd, root, layout);
        let domains = layout.domains();
        let mut assignment = vec![0usize; domains.len()];
        loop {
            assert_eq!(
                mdd.eval(converted, &assignment),
                f(&assignment),
                "assignment {assignment:?}"
            );
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
    fn converts_simple_indicator() {
        let layout = CodedLayout::binary_msb_first(&[3]);
        exhaustive_check(&layout, |a| a[0] == 2);
        exhaustive_check(&layout, |a| a[0] >= 1);
    }

    #[test]
    fn converts_multi_variable_functions() {
        let layout = CodedLayout::binary_msb_first(&[3, 4, 2]);
        exhaustive_check(&layout, |a| (a[0] == 2 && a[1] >= 2) || a[2] == 1);
        exhaustive_check(&layout, |a| a[0] + a[1] + a[2] >= 4);
        exhaustive_check(&layout, |a| (a[0] ^ a[1]) % 2 == 1);
    }

    #[test]
    fn converts_functions_with_dont_care_codes() {
        // Domain 5 uses 3 bits, so codes 5..7 are don't-cares that must never be followed.
        let layout = CodedLayout::binary_msb_first(&[5, 3]);
        exhaustive_check(&layout, |a| a[0] == 4 || (a[0] == 0 && a[1] == 2));
        exhaustive_check(&layout, |a| a[0] % 2 == a[1] % 2);
    }

    #[test]
    fn converts_constants() {
        let layout = CodedLayout::binary_msb_first(&[3, 3]);
        exhaustive_check(&layout, |_| true);
        exhaustive_check(&layout, |_| false);
    }

    #[test]
    fn lsb_first_group_order() {
        // Same function, bits within the group ordered least-significant-first.
        let domain = 4usize;
        let codes_lsb: Vec<Vec<bool>> =
            (0..domain).map(|v| vec![v & 1 == 1, v >> 1 & 1 == 1]).collect();
        let layout = CodedLayout::new(vec![
            MvVarLayout { domain, bit_levels: vec![0, 1], codes: codes_lsb.clone() },
            MvVarLayout { domain, bit_levels: vec![2, 3], codes: codes_lsb },
        ])
        .unwrap();
        exhaustive_check(&layout, |a| a[0] > a[1]);
    }

    #[test]
    fn conversion_is_canonical() {
        // Converting the same coded ROBDD twice yields the identical root id.
        let layout = CodedLayout::binary_msb_first(&[3, 3]);
        let (bdd, root) = coded_bdd_of(&layout, &|a: &[usize]| a[0] == a[1]);
        let mut mdd = MddManager::new(layout.domains());
        let a = mdd.from_coded_bdd(&bdd, root, &layout);
        let b = mdd.from_coded_bdd(&bdd, root, &layout);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn domain_mismatch_panics() {
        let layout = CodedLayout::binary_msb_first(&[3]);
        let (bdd, root) = coded_bdd_of(&layout, &|a: &[usize]| a[0] == 1);
        let mut mdd = MddManager::new(vec![4]);
        let _ = mdd.from_coded_bdd(&bdd, root, &layout);
    }
}
