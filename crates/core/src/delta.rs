//! What-if variants described relative to a base system.
//!
//! A design-space exploration rarely compares unrelated systems: it asks
//! what happens when *one* component's defect probability changes, when a
//! component stops being lethal, or when one redundant module is swapped
//! for a different implementation. [`SystemDelta`] captures exactly that
//! relationship — a named variant expressed as a small change against a
//! base `(fault tree, component model)` pair — so
//! [`Pipeline::sweep_deltas`](crate::Pipeline::sweep_deltas) can keep the
//! base compiled diagram resident and answer the whole family
//! incrementally:
//!
//! * **swap-only** deltas (component-probability overrides and lethality
//!   flips) change only the probability vectors attached to the diagram
//!   levels — they are evaluated on the resident ROMDD with zero kernel
//!   work;
//! * **structural** deltas (a fault-tree variant, e.g. one module
//!   subtree swapped via [`swap_subtree`]) recompile only the affected
//!   cofactor: the variant netlist is rebuilt against the retained ROBDD
//!   unique table and op cache, so every gate function shared with the
//!   base is a cache hit and only the changed cone costs apply/ITE work.
//!
//! Every delta can also be [`materialize`](SystemDelta::materialize)d
//! into a standalone `(fault tree, component model)` pair; the delta
//! evaluation path is required (and CI-gated) to reproduce the
//! from-scratch analysis of that materialized variant bit for bit.

use socy_defect::ComponentProbabilities;
use socy_faulttree::{GateKind, Netlist, NodeId, VarId};

use crate::error::CoreError;

/// A named what-if variant of a base system.
///
/// Built with builder-style `with_*` constructors; parts that are not
/// overridden fall through to the base system at evaluation time.
///
/// ```
/// use soc_yield_core::SystemDelta;
///
/// // Component 2 becomes twice as defect-prone; component 0 stops
/// // being lethal at all (the "lethality bit" flipped off).
/// let delta = SystemDelta::named("ip2-hot")
///     .with_component_probability(2, 0.2)
///     .with_component_probability(0, 0.0);
/// assert!(delta.is_swap_only());
/// ```
#[derive(Debug, Clone)]
pub struct SystemDelta {
    name: String,
    component_overrides: Vec<(usize, f64)>,
    fault_tree: Option<Netlist>,
}

impl SystemDelta {
    /// Starts an empty delta (evaluates identically to the base system)
    /// with a human-readable name used in reports and sweep labels.
    pub fn named(name: impl Into<String>) -> Self {
        Self { name: name.into(), component_overrides: Vec::new(), fault_tree: None }
    }

    /// The variant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Overrides the raw lethal-hit probability `P_i` of one component
    /// (the base model's remaining components keep their probabilities;
    /// the conditionals `P'_i` are re-derived). A probability of `0.0`
    /// expresses the lethality-bit flip: the component exists in the
    /// structure but can no longer be hit by a lethal defect.
    #[must_use]
    pub fn with_component_probability(mut self, component: usize, probability: f64) -> Self {
        self.component_overrides.push((component, probability));
        self
    }

    /// Replaces the fault tree by a structural variant. The variant must
    /// have the same number of inputs (components) as the base.
    #[must_use]
    pub fn with_fault_tree(mut self, fault_tree: Netlist) -> Self {
        self.fault_tree = Some(fault_tree);
        self
    }

    /// Convenience for the module-swap form of a structural delta: the
    /// variant's fault tree is the base tree with the subtree rooted at
    /// `target` replaced by `replacement` (a netlist over the same
    /// component inputs as the base). See [`swap_subtree`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidDelta`] when `target` is not a gate of
    /// `base` or the replacement's inputs disagree with the base.
    pub fn with_subtree_swap(
        self,
        base: &Netlist,
        target: NodeId,
        replacement: &Netlist,
    ) -> Result<Self, CoreError> {
        Ok(self.with_fault_tree(swap_subtree(base, target, replacement)?))
    }

    /// `true` when the delta changes only probabilities, never structure —
    /// evaluating it against a compiled base costs one linear-time
    /// probability traversal and no kernel work.
    pub fn is_swap_only(&self) -> bool {
        self.fault_tree.is_none()
    }

    /// The structural part of the delta, if any.
    pub fn fault_tree(&self) -> Option<&Netlist> {
        self.fault_tree.as_ref()
    }

    /// Resolves the delta's component model against the base model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidDelta`] when an override names a
    /// component the model does not have, and [`CoreError::Defect`] when
    /// the resulting probabilities are invalid (e.g. every component
    /// overridden to zero).
    pub fn materialize_components(
        &self,
        base: &ComponentProbabilities,
    ) -> Result<ComponentProbabilities, CoreError> {
        if self.component_overrides.is_empty() {
            return Ok(base.clone());
        }
        let mut raw = base.raw_slice().to_vec();
        for &(component, probability) in &self.component_overrides {
            if component >= raw.len() {
                return Err(CoreError::InvalidDelta(format!(
                    "delta `{}` overrides component {component}, but the model has only {} components",
                    self.name,
                    raw.len()
                )));
            }
            raw[component] = probability;
        }
        Ok(ComponentProbabilities::new(raw)?)
    }

    /// Materializes the variant as a standalone `(fault tree, component
    /// model)` pair — the system a from-scratch analysis of this what-if
    /// point would compile. The delta evaluation path is required to
    /// reproduce that analysis bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidDelta`] when the variant's fault tree
    /// and the component model disagree on the number of components, plus
    /// the errors of [`SystemDelta::materialize_components`].
    pub fn materialize(
        &self,
        base_fault_tree: &Netlist,
        base_components: &ComponentProbabilities,
    ) -> Result<(Netlist, ComponentProbabilities), CoreError> {
        let components = self.materialize_components(base_components)?;
        let fault_tree = self.fault_tree.clone().unwrap_or_else(|| base_fault_tree.clone());
        if fault_tree.num_inputs() != components.len() {
            return Err(CoreError::InvalidDelta(format!(
                "delta `{}`: variant fault tree has {} components but the model has {}",
                self.name,
                fault_tree.num_inputs(),
                components.len()
            )));
        }
        Ok((fault_tree, components))
    }
}

/// Builds the variant netlist obtained from `base` by replacing the
/// subtree rooted at the gate `target` with `replacement`, a netlist over
/// the same primary inputs as `base` (input `i` of the replacement is
/// substituted by input `i` of the base). The result keeps the base's
/// input set and order — only the gate structure changes — and contains
/// exactly the gates reachable from the (new) output.
///
/// # Errors
///
/// Returns [`CoreError::InvalidDelta`] when `target` is not a gate of
/// `base`, or when `replacement` has no output or a different input
/// count, and [`CoreError::FaultTree`] when `base` has no output.
pub fn swap_subtree(
    base: &Netlist,
    target: NodeId,
    replacement: &Netlist,
) -> Result<Netlist, CoreError> {
    let output = base.output()?;
    replacement.output().map_err(|_| {
        CoreError::InvalidDelta("subtree replacement netlist has no output".to_string())
    })?;
    if replacement.num_inputs() != base.num_inputs() {
        return Err(CoreError::InvalidDelta(format!(
            "subtree replacement has {} inputs but the base fault tree has {}",
            replacement.num_inputs(),
            base.num_inputs()
        )));
    }
    if target.index() >= base.len() || matches!(base.gate(target).kind, GateKind::Input) {
        return Err(CoreError::InvalidDelta(
            "subtree swap target must be a gate of the base fault tree".to_string(),
        ));
    }

    // Gates still needed in the variant: the output cone, with the swap
    // target contributing no fan-in (its old cone is only kept if some
    // gate outside the swapped subtree still references it).
    let mut needed = vec![false; base.len()];
    let mut stack = vec![output];
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut needed[id.index()], true) || id == target {
            continue;
        }
        stack.extend(base.gate(id).fanin.iter().copied());
    }

    let mut out = Netlist::new();
    // Recreate every primary input in base variable order, so component
    // `i` remains input variable `i` of the variant.
    let inputs: Vec<NodeId> =
        (0..base.num_inputs()).map(|i| out.input(base.var_name(VarId::new(i)))).collect();
    let mut mapped: Vec<Option<NodeId>> = vec![None; base.len()];
    for (i, &input) in inputs.iter().enumerate() {
        mapped[base.node_of(VarId::new(i)).index()] = Some(input);
    }
    for (id, gate) in base.iter() {
        if !needed[id.index()] || mapped[id.index()].is_some() {
            continue;
        }
        let new_id = if id == target {
            out.import(replacement, &inputs)
        } else {
            let fanin: Vec<NodeId> = gate
                .fanin
                .iter()
                .map(|f| mapped[f.index()].expect("fan-ins precede their gate"))
                .collect();
            match gate.kind {
                GateKind::Input => unreachable!("inputs are pre-mapped"),
                GateKind::Const(c) => out.constant(c),
                GateKind::Not => out.not(fanin[0]),
                GateKind::And => out.and(fanin),
                GateKind::Or => out.or(fanin),
                GateKind::Xor => out.xor(fanin),
                GateKind::AtLeast(k) => out.at_least(k as usize, fanin),
            }
        };
        mapped[id.index()] = Some(new_id);
    }
    let new_output = mapped[output.index()].expect("output is needed by construction");
    out.set_output(new_output);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// F = (x0 AND x1) OR x2.
    fn base() -> Netlist {
        let mut nl = Netlist::new();
        let x0 = nl.input("x0");
        let x1 = nl.input("x1");
        let x2 = nl.input("x2");
        let a = nl.and([x0, x1]);
        let f = nl.or([a, x2]);
        nl.set_output(f);
        nl
    }

    /// The 2-of-3 voter over the same three inputs.
    fn voter() -> Netlist {
        let mut nl = Netlist::new();
        let x0 = nl.input("x0");
        let x1 = nl.input("x1");
        let x2 = nl.input("x2");
        let v = nl.at_least(2, [x0, x1, x2]);
        nl.set_output(v);
        nl
    }

    fn assignments(c: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..1usize << c).map(move |bits| (0..c).map(|i| (bits >> i) & 1 == 1).collect())
    }

    #[test]
    fn swap_of_the_root_replaces_the_whole_function() {
        let base = base();
        let target = base.output().unwrap();
        let swapped = swap_subtree(&base, target, &voter()).unwrap();
        assert_eq!(swapped.num_inputs(), 3);
        for a in assignments(3) {
            assert_eq!(swapped.eval_output(&a), voter().eval_output(&a), "{a:?}");
        }
    }

    #[test]
    fn swap_of_an_inner_module_keeps_the_surrounding_logic() {
        // Replace the (x0 AND x1) module by the 2-of-3 voter: the OR with
        // x2 above it must survive.
        let base = base();
        let (and_gate, _) = base
            .iter()
            .find(|(_, g)| matches!(g.kind, GateKind::And))
            .expect("base has an AND gate");
        let swapped = swap_subtree(&base, and_gate, &voter()).unwrap();
        for a in assignments(3) {
            let votes = a.iter().filter(|&&b| b).count();
            let expect = votes >= 2 || a[2];
            assert_eq!(swapped.eval_output(&a), expect, "{a:?}");
        }
    }

    #[test]
    fn swap_rejects_malformed_requests() {
        let base = base();
        let target = base.output().unwrap();
        // Wrong input count.
        let mut small = Netlist::new();
        let a = small.input("a");
        small.set_output(a);
        assert!(matches!(swap_subtree(&base, target, &small), Err(CoreError::InvalidDelta(_))));
        // No output.
        let mut headless = Netlist::new();
        headless.input("a");
        headless.input("b");
        headless.input("c");
        assert!(matches!(swap_subtree(&base, target, &headless), Err(CoreError::InvalidDelta(_))));
        // Target is an input.
        let input0 = base.node_of(VarId::new(0));
        assert!(matches!(swap_subtree(&base, input0, &voter()), Err(CoreError::InvalidDelta(_))));
    }

    #[test]
    fn component_overrides_rederive_the_conditionals() {
        let base_model = ComponentProbabilities::new(vec![0.1, 0.2, 0.2]).unwrap();
        let delta = SystemDelta::named("hot").with_component_probability(0, 0.3);
        let variant = delta.materialize_components(&base_model).unwrap();
        assert!((variant.lethality() - 0.7).abs() < 1e-12);
        assert!((variant.conditional(0) - 0.3 / 0.7).abs() < 1e-12);
        // Lethality flip: component 1 can no longer be hit.
        let flipped = SystemDelta::named("off")
            .with_component_probability(1, 0.0)
            .materialize_components(&base_model)
            .unwrap();
        assert_eq!(flipped.conditional(1), 0.0);
        assert!((flipped.lethality() - 0.3).abs() < 1e-12);
        // Out-of-range component.
        let bad = SystemDelta::named("bad").with_component_probability(7, 0.1);
        assert!(matches!(bad.materialize_components(&base_model), Err(CoreError::InvalidDelta(_))));
    }

    #[test]
    fn materialize_checks_the_component_count() {
        let model = ComponentProbabilities::new(vec![0.5, 0.5]).unwrap();
        let delta = SystemDelta::named("structural").with_fault_tree(voter());
        assert!(matches!(delta.materialize(&voter(), &model), Err(CoreError::InvalidDelta(_))));
        let empty = SystemDelta::named("noop");
        let (ft, comps) = empty
            .materialize(&base(), &ComponentProbabilities::new(vec![0.2; 3]).unwrap())
            .unwrap();
        assert_eq!(ft.num_inputs(), 3);
        assert_eq!(comps.len(), 3);
        assert!(empty.is_swap_only());
    }
}
