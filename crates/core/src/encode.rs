//! Construction of the generalized fault tree `G(w, v_1, …, v_M)` in
//! binary logic, together with the bookkeeping (bit groups, codes, layout,
//! probability vectors) needed by the rest of the pipeline.
//!
//! `G` is the boolean function of Theorem 1:
//!
//! ```text
//! G = I_{M+1}(w)  ∨  F( x_1, …, x_C )
//! x_i = ⋁_{l=1}^{M}  I_{≥l}(w) · I_i(v_l)
//! ```
//!
//! The multiple-valued variables are encoded in binary exactly as the
//! paper prescribes: `w ∈ {0, …, M+1}` on `⌈log2(M+2)⌉` bits, and every
//! `v_l ∈ {1, …, C}` as `v_l − 1` on `⌈log2 C⌉` bits. The "filter" gates
//! `I_{≥k}(w)`, `I_{M+1}(w)` and `I_i(v_l)` are expanded into the literal
//! products / incremental OR chains given in Section 2 of the paper.

use socy_defect::{ComponentProbabilities, Truncation};
use socy_faulttree::{Netlist, NodeId};
use socy_mdd::coded::{bits_for, MvVarLayout};
use socy_mdd::CodedLayout;
use socy_ordering::{ComputedOrdering, MvGroups};

use crate::error::CoreError;

/// The generalized fault tree `G` in binary logic plus the structure
/// describing which binary variables encode which multiple-valued variable.
#[derive(Debug, Clone)]
pub struct GeneralizedFaultTree {
    netlist: Netlist,
    groups: MvGroups,
    num_components: usize,
    truncation: usize,
}

impl GeneralizedFaultTree {
    /// Builds `G` for the fault tree `fault_tree` (whose inputs are the
    /// component failed-state variables `x_1, …, x_C` in
    /// [`VarId`](socy_faulttree::VarId) order)
    /// and a truncation point of `truncation` lethal defects.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FaultTree`] if the fault tree has no designated
    /// output and [`CoreError::EmptySystem`] if it has no inputs.
    pub fn build(fault_tree: &Netlist, truncation: usize) -> Result<Self, CoreError> {
        fault_tree.output()?;
        let num_components = fault_tree.num_inputs();
        if num_components == 0 {
            return Err(CoreError::EmptySystem);
        }
        let m = truncation;
        let w_width = bits_for(m + 2);
        let v_width = bits_for(num_components);

        let mut netlist = Netlist::new();
        // Primary inputs: the w bits (most significant first), then the bits of
        // every v_l (most significant first). This declaration order is also the
        // left-to-right order used when the filter logic is emitted, which is what
        // the ordering heuristics see.
        let w_bits: Vec<NodeId> =
            (0..w_width).map(|j| netlist.input(format!("w.b{}", w_width - 1 - j))).collect();
        let v_bits: Vec<Vec<NodeId>> = (1..=m)
            .map(|l| {
                (0..v_width).map(|j| netlist.input(format!("v{l}.b{}", v_width - 1 - j))).collect()
            })
            .collect();

        // Pre-build the complement of every input bit once, so literals share gates.
        let w_neg: Vec<NodeId> = w_bits.iter().map(|&b| netlist.not(b)).collect();
        let v_neg: Vec<Vec<NodeId>> =
            v_bits.iter().map(|bits| bits.iter().map(|&b| netlist.not(b)).collect()).collect();

        // Literal of bit j (MSB first) of a value: the bit itself when the code bit
        // is 1, its complement otherwise.
        let minterm = |netlist: &mut Netlist,
                       bits: &[NodeId],
                       negs: &[NodeId],
                       width: usize,
                       value: usize|
         -> NodeId {
            let literals: Vec<NodeId> = (0..width)
                .map(|j| {
                    let bit_is_one = (value >> (width - 1 - j)) & 1 == 1;
                    if bit_is_one {
                        bits[j]
                    } else {
                        negs[j]
                    }
                })
                .collect();
            netlist.and(literals)
        };

        // z_{M+1} and the incremental chain z_{>=k} = z_{>=k+1} OR minterm(k).
        let z_top = minterm(&mut netlist, &w_bits, &w_neg, w_width, m + 1);
        let mut z_ge = vec![z_top; m + 2]; // index k, valid for 1..=m+1
        z_ge[m + 1] = z_top;
        for k in (1..=m).rev() {
            let mk = minterm(&mut netlist, &w_bits, &w_neg, w_width, k);
            z_ge[k] = netlist.or([z_ge[k + 1], mk]);
        }

        // x_i = OR_l ( z_{>=l} AND z^i_l ), where z^i_l is the minterm of code i-1 on v_l.
        let mut x = Vec::with_capacity(num_components);
        for component in 0..num_components {
            let mut terms = Vec::with_capacity(m);
            for l in 1..=m {
                let hit = minterm(&mut netlist, &v_bits[l - 1], &v_neg[l - 1], v_width, component);
                terms.push(netlist.and([z_ge[l], hit]));
            }
            x.push(netlist.or(terms));
        }

        // G = z_{M+1} OR F(x_1, ..., x_C).
        let f_instance = netlist.import(fault_tree, &x);
        let g = netlist.or([z_ge[m + 1], f_instance]);
        netlist.set_output(g);

        let groups = MvGroups {
            w: w_bits.iter().map(|&b| netlist.var_of(b).expect("w bit is an input")).collect(),
            v: v_bits
                .iter()
                .map(|bits| {
                    bits.iter().map(|&b| netlist.var_of(b).expect("v bit is an input")).collect()
                })
                .collect(),
        };
        Ok(Self { netlist, groups, num_components, truncation: m })
    }

    /// The binary-logic netlist of `G`.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The bit groups encoding `w` and `v_1, …, v_M`.
    pub fn groups(&self) -> &MvGroups {
        &self.groups
    }

    /// Number of components `C` of the underlying system.
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Truncation point `M`.
    pub fn truncation(&self) -> usize {
        self.truncation
    }

    /// Domain size of `w` (`M + 2`: the values `0..=M` plus the clamp value
    /// `M + 1` meaning "more than M lethal defects").
    pub fn w_domain(&self) -> usize {
        self.truncation + 2
    }

    /// Domain size of every `v_l` (`C`: domain value `j` stands for
    /// component `j + 1` in the paper's 1-based numbering).
    pub fn v_domain(&self) -> usize {
        self.num_components
    }

    /// Domain sizes of the multiple-valued variables in the diagram order
    /// prescribed by `ordering`.
    pub fn mdd_domains(&self, ordering: &ComputedOrdering) -> Vec<usize> {
        ordering
            .mv_order
            .iter()
            .map(|&mv| if mv == 0 { self.w_domain() } else { self.v_domain() })
            .collect()
    }

    /// The coded-ROBDD layout (bit levels and codewords per multiple-valued
    /// variable) induced by `ordering`.
    pub fn layout(&self, ordering: &ComputedOrdering) -> CodedLayout {
        let vars = ordering
            .mv_order
            .iter()
            .map(|&mv| {
                let group = self.groups.group(mv);
                let width = group.len();
                let domain = if mv == 0 { self.w_domain() } else { self.v_domain() };
                let bit_levels: Vec<usize> =
                    group.iter().map(|v| ordering.var_level[v.index()]).collect();
                let codes: Vec<Vec<bool>> = (0..domain)
                    .map(|value| (0..width).map(|j| (value >> (width - 1 - j)) & 1 == 1).collect())
                    .collect();
                MvVarLayout { domain, bit_levels, codes }
            })
            .collect();
        CodedLayout::new(vars).expect("generated layout is structurally valid")
    }

    /// The per-level value distributions of the multiple-valued random
    /// variables, in the diagram order prescribed by `ordering`:
    /// the `w` level receives `(Q'_0, …, Q'_M, 1 − ΣQ'_k)` and every `v_l`
    /// level receives the conditional component probabilities `P'_i`
    /// (see [`probability_vectors`]).
    pub fn probability_vectors(
        &self,
        ordering: &ComputedOrdering,
        truncation: &Truncation,
        components: &ComponentProbabilities,
    ) -> Vec<Vec<f64>> {
        probability_vectors(self.truncation, &ordering.mv_order, truncation, components)
    }

    /// Human-readable names of the multiple-valued variables in diagram
    /// order (`w`, `v1`, `v2`, …), useful for DOT export.
    pub fn mv_names(&self, ordering: &ComputedOrdering) -> Vec<String> {
        ordering
            .mv_order
            .iter()
            .map(|&mv| if mv == 0 { "w".to_string() } else { format!("v{mv}") })
            .collect()
    }
}

/// The per-level value distributions of a diagram of `G` compiled at
/// truncation `compiled_m` with multiple-valued order `mv_order`
/// (0 = `w`), evaluated at `truncation`.
///
/// The `w` level receives `(Q'_0, …, Q'_M)` zero-padded to the compiled
/// domain, then the error-bound mass `1 − ΣQ'_k` on the clamp value
/// `compiled_m + 1`. A diagram compiled at `compiled_m` thereby answers
/// every truncation `M ≤ compiled_m`: the padded defect counts carry
/// probability 0. Every `v_l` level receives the conditional component
/// probabilities `P'_i`.
///
/// # Panics
///
/// Panics if `truncation` is deeper than `compiled_m`.
pub fn probability_vectors(
    compiled_m: usize,
    mv_order: &[usize],
    truncation: &Truncation,
    components: &ComponentProbabilities,
) -> Vec<Vec<f64>> {
    assert!(
        truncation.truncation() <= compiled_m,
        "truncation {} exceeds the compiled truncation {compiled_m}",
        truncation.truncation()
    );
    let mut w = truncation.masses().to_vec();
    w.resize(compiled_m + 1, 0.0);
    w.push(truncation.error_bound());
    mv_order
        .iter()
        .map(|&mv| if mv == 0 { w.clone() } else { components.conditional_slice().to_vec() })
        .collect()
}

/// Reference (non-BDD) evaluation of `G` directly from its definition,
/// used by tests: given the number of lethal defects `w` and the components
/// hit by each of the first `M` defects (`v[l]`, 0-based component ids),
/// evaluates `G`.
pub fn reference_g(
    fault_tree: &Netlist,
    truncation: usize,
    w: usize,
    v: &[usize],
) -> Result<bool, CoreError> {
    let c = fault_tree.num_inputs();
    if w > truncation {
        return Ok(true);
    }
    let mut failed = vec![false; c];
    for l in 0..truncation.min(w) {
        failed[v[l]] = true;
    }
    Ok(fault_tree.try_eval_output(&failed)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use socy_bdd::BddManager;
    use socy_ordering::{compute_ordering, OrderingSpec};

    /// F = x1·x2 + x3 (the paper's Figure 2 fault tree).
    fn figure2_fault_tree() -> Netlist {
        let mut nl = Netlist::new();
        let x1 = nl.input("x1");
        let x2 = nl.input("x2");
        let x3 = nl.input("x3");
        let a = nl.and([x1, x2]);
        let f = nl.or([a, x3]);
        nl.set_output(f);
        nl
    }

    #[test]
    fn build_shapes() {
        let f = figure2_fault_tree();
        let g = GeneralizedFaultTree::build(&f, 2).unwrap();
        // w needs 2 bits (domain 4), each v needs 2 bits (C = 3).
        assert_eq!(g.groups().w.len(), 2);
        assert_eq!(g.groups().v.len(), 2);
        assert_eq!(g.groups().v[0].len(), 2);
        assert_eq!(g.netlist().num_inputs(), 6);
        assert_eq!(g.w_domain(), 4);
        assert_eq!(g.v_domain(), 3);
        assert_eq!(g.num_components(), 3);
        assert_eq!(g.truncation(), 2);
        assert!(g.netlist().num_gates() > 0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let empty = Netlist::new();
        assert!(matches!(GeneralizedFaultTree::build(&empty, 2), Err(CoreError::FaultTree(_))));
        let mut constant_only = Netlist::new();
        let c = constant_only.constant(false);
        constant_only.set_output(c);
        assert!(matches!(
            GeneralizedFaultTree::build(&constant_only, 2),
            Err(CoreError::EmptySystem)
        ));
    }

    /// Evaluates the binary netlist of G on the encoding of (w, v_1..v_M) and
    /// compares against the reference definition, for every assignment.
    fn check_g_against_reference(fault_tree: &Netlist, m: usize) {
        let g = GeneralizedFaultTree::build(fault_tree, m).unwrap();
        let c = fault_tree.num_inputs();
        let w_width = g.groups().w.len();
        let v_width = if m > 0 { g.groups().v[0].len() } else { 0 };
        let num_inputs = g.netlist().num_inputs();
        let combos = c.pow(m as u32);
        for w in 0..=(m + 1) {
            for combo in 0..combos {
                // Decode the combination index into the component hit by each defect.
                let mut v = vec![0usize; m];
                let mut rest = combo;
                for slot in v.iter_mut() {
                    *slot = rest % c;
                    rest /= c;
                }
                // Build the binary assignment.
                let mut assignment = vec![false; num_inputs];
                for (j, var) in g.groups().w.iter().enumerate() {
                    assignment[var.index()] = (w >> (w_width - 1 - j)) & 1 == 1;
                }
                for (&vl, group) in v.iter().zip(&g.groups().v) {
                    for (j, var) in group.iter().enumerate() {
                        assignment[var.index()] = (vl >> (v_width - 1 - j)) & 1 == 1;
                    }
                }
                let got = g.netlist().eval_output(&assignment);
                let expect = reference_g(fault_tree, m, w, &v).unwrap();
                assert_eq!(got, expect, "w={w} v={v:?}");
            }
        }
    }

    #[test]
    fn g_matches_reference_for_figure2() {
        let f = figure2_fault_tree();
        check_g_against_reference(&f, 2);
        check_g_against_reference(&f, 1);
        check_g_against_reference(&f, 3);
    }

    #[test]
    fn g_matches_reference_for_voter() {
        // 2-of-3 majority voter fault tree: system fails when >= 2 components fail.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let c = nl.input("c");
        let f = nl.at_least(2, [a, b, c]);
        nl.set_output(f);
        check_g_against_reference(&nl, 2);
    }

    #[test]
    fn layout_and_probability_vectors_follow_the_ordering() {
        let f = figure2_fault_tree();
        let g = GeneralizedFaultTree::build(&f, 2).unwrap();
        let spec = OrderingSpec::paper_default();
        let ordering = compute_ordering(g.netlist(), g.groups(), &spec).unwrap();
        let layout = g.layout(&ordering);
        assert_eq!(layout.num_vars(), 3);
        assert_eq!(layout.domains(), g.mdd_domains(&ordering));
        // The layout's bit levels must be exactly the levels assigned by the ordering.
        for (pos, &mv) in ordering.mv_order.iter().enumerate() {
            for (j, var) in g.groups().group(mv).iter().enumerate() {
                assert_eq!(layout.vars[pos].bit_levels[j], ordering.var_level[var.index()]);
            }
        }
        // Probability vectors: the w level gets M+2 entries, the v levels C entries.
        let comps = ComponentProbabilities::new(vec![0.2, 0.3, 0.5]).unwrap();
        let lethal = socy_defect::Empirical::new(vec![0.6, 0.3, 0.05]).unwrap();
        let trunc = socy_defect::truncation::truncate_at(&lethal, 2).unwrap();
        let probs = g.probability_vectors(&ordering, &trunc, &comps);
        for (pos, &mv) in ordering.mv_order.iter().enumerate() {
            if mv == 0 {
                assert_eq!(probs[pos].len(), 4);
                assert!((probs[pos].iter().sum::<f64>() - 1.0).abs() < 1e-12);
            } else {
                assert_eq!(probs[pos], vec![0.2, 0.3, 0.5]);
            }
        }
        let names = g.mv_names(&ordering);
        assert_eq!(names.len(), 3);
        assert!(names.contains(&"w".to_string()));
        assert!(names.contains(&"v1".to_string()));
    }

    #[test]
    fn coded_robdd_of_g_evaluates_like_g() {
        // Sanity end-to-end at the BDD layer: compile G with an ordering and
        // compare a few random-ish assignments.
        let f = figure2_fault_tree();
        let g = GeneralizedFaultTree::build(&f, 2).unwrap();
        let spec = OrderingSpec::paper_default();
        let ordering = compute_ordering(g.netlist(), g.groups(), &spec).unwrap();
        let mut mgr = BddManager::new(g.netlist().num_inputs());
        let build = mgr.build_netlist(g.netlist(), &ordering.var_level);
        for seed in 0..64u32 {
            let assignment: Vec<bool> =
                (0..g.netlist().num_inputs()).map(|i| (seed >> (i % 6)) & 1 == 1).collect();
            let by_level: Vec<bool> = {
                let mut v = vec![false; assignment.len()];
                for (var, &lvl) in ordering.var_level.iter().enumerate() {
                    v[lvl] = assignment[var];
                }
                v
            };
            assert_eq!(mgr.eval(build.root, &by_level), g.netlist().eval_output(&assignment));
        }
    }
}
