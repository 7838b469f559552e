//! The frozen level-major evaluation plan (`MddManager::freeze`) against
//! the reference depth-first traversal (`MddManager::probability`): random
//! fault trees through every multiple-valued ordering and both
//! conversions, evaluated below the compiled truncation and with
//! zero-probability components, must agree bit for bit — and so must the
//! `Pipeline`, which evaluates through the plan and keeps only a snapshot
//! of the manager's statistics.

use proptest::prelude::*;

use soc_yield::core::encode::probability_vectors;
use soc_yield::defect::truncation::truncate_at;
use soc_yield::defect::{ComponentProbabilities, Poisson};
use soc_yield::{
    analyze, AnalysisOptions, ConversionAlgorithm, GroupOrdering, MvOrdering, Netlist,
    OrderingSpec, Pipeline,
};

const CONVERSIONS: [ConversionAlgorithm; 2] =
    [ConversionAlgorithm::TopDown, ConversionAlgorithm::Layered];

/// A random fault tree over `2..=max_components` components built from
/// AND, OR, XOR, NOT and at-least-k gates.
fn arb_fault_tree(max_components: usize) -> impl Strategy<Value = (Netlist, usize)> {
    (2..=max_components, 1usize..6, any::<u64>()).prop_map(|(c, gates, seed)| {
        let mut nl = Netlist::new();
        let mut nodes: Vec<_> = (0..c).map(|i| nl.input(format!("x{i}"))).collect();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..gates {
            let arity = 2 + (next() % 2) as usize;
            let fanin: Vec<_> =
                (0..arity).map(|_| nodes[(next() % nodes.len() as u64) as usize]).collect();
            let gate = match next() % 5 {
                0 => nl.and(fanin),
                1 => nl.or(fanin),
                2 => nl.xor(fanin),
                3 => nl.not(fanin[0]),
                _ => nl.at_least(1 + (next() % arity as u64) as usize, fanin),
            };
            nodes.push(gate);
        }
        let out = *nodes.last().expect("non-empty");
        nl.set_output(out);
        (nl, c)
    })
}

/// Component probabilities from integer weights in `0..4`, so that some
/// components are never hit (their `P'_i` is exactly zero).
fn components_with_zeros(weights: &[u32], c: usize) -> ComponentProbabilities {
    let mut weights: Vec<f64> = weights[..c].iter().map(|&w| f64::from(w)).collect();
    if weights.iter().all(|&w| w == 0.0) {
        weights[0] = 1.0;
    }
    ComponentProbabilities::from_weights(&weights, 0.8).expect("valid weights")
}

/// Compiles `fault_tree` at `compiled_m` under `(spec, conversion)` and
/// checks, at the smaller truncation `m`, that the plan frozen from the
/// compiled manager reproduces the reference traversal bit for bit, and
/// that a `Pipeline` compiled the same way answers the same bits with the
/// same sizes and statistics.
fn check_plan(
    fault_tree: &Netlist,
    components: &ComponentProbabilities,
    lambda: f64,
    compiled_m: usize,
    m: usize,
    spec: OrderingSpec,
    conversion: ConversionAlgorithm,
) {
    let lethal = Poisson::new(lambda).expect("positive λ");
    let compiled = AnalysisOptions {
        spec,
        conversion,
        fixed_truncation: Some(compiled_m),
        ..AnalysisOptions::default()
    };
    let analysis = analyze(fault_tree, components, &lethal, &compiled).expect("compiles");
    let mut mdd = analysis.mdd;
    let root = analysis.romdd_root;
    let mut plan = mdd.freeze(root);
    assert_eq!(plan.node_count(), mdd.node_count(root), "{spec:?} {conversion:?}");
    assert_eq!(analysis.report.romdd_size, mdd.node_count(root));
    assert_eq!(
        analysis.report.yield_lower_bound.to_bits(),
        (1.0 - mdd.probability(root, &analysis.probabilities)).to_bits(),
        "{spec:?} {conversion:?}: analyze at the compiled truncation"
    );

    let truncation = truncate_at(&lethal, m).expect("truncates");
    let vectors = probability_vectors(compiled_m, &analysis.mv_order, &truncation, components);
    let reference = mdd.probability(root, &vectors);
    assert_eq!(
        plan.probability(&vectors).to_bits(),
        reference.to_bits(),
        "{spec:?} {conversion:?}: M={m} below the compiled {compiled_m}"
    );

    let mut pipeline = Pipeline::new(fault_tree, components).expect("valid system");
    pipeline.evaluate(&lethal, &compiled).expect("compiles");
    let smaller = AnalysisOptions { fixed_truncation: Some(m), ..compiled };
    let report = pipeline.evaluate(&lethal, &smaller).expect("reuses the compiled plan");
    assert_eq!(pipeline.compiles(), 1);
    assert_eq!(report.truncation, m);
    assert_eq!(report.compiled_truncation, compiled_m);
    assert_eq!(report.yield_lower_bound.to_bits(), (1.0 - reference).to_bits());
    assert_eq!(report.romdd_size, mdd.node_count(root));
    assert_eq!(report.romdd_stats, mdd.stats(), "the snapshot is the manager's statistics");
    assert_eq!(pipeline.live_nodes(), mdd.stats().live_nodes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every ordering and conversion, below the compiled truncation and
    /// with zero-probability components.
    #[test]
    fn plan_matches_the_reference_traversal(
        (netlist, c) in arb_fault_tree(5),
        weights in proptest::collection::vec(0u32..4, 5),
        lambda in 0.2f64..2.0,
        compiled_m in 1usize..4,
        below in 1usize..4,
    ) {
        let components = components_with_zeros(&weights, c);
        let m = compiled_m - below.min(compiled_m);
        for mv in MvOrdering::ALL {
            let spec = OrderingSpec::new(mv, GroupOrdering::MsbFirst).expect("valid spec");
            for conversion in CONVERSIONS {
                check_plan(&netlist, &components, lambda, compiled_m, m, spec, conversion);
            }
        }
    }
}

/// A fault tree whose output is the constant `value`, over two unused
/// components.
fn constant_tree(value: bool) -> Netlist {
    let mut nl = Netlist::new();
    nl.input("a");
    nl.input("b");
    let out = nl.constant(value);
    nl.set_output(out);
    nl
}

#[test]
fn constant_fault_trees() {
    let components = ComponentProbabilities::new(vec![0.5, 0.0]).expect("valid");
    let lethal = Poisson::new(1.0).expect("positive λ");
    let options = AnalysisOptions { fixed_truncation: Some(2), ..AnalysisOptions::default() };

    // F ≡ 1 makes G ≡ 1: the ROMDD is the TRUE terminal, and its plan
    // reaches that one terminal only.
    let always = analyze(&constant_tree(true), &components, &lethal, &options).expect("compiles");
    assert!(always.romdd_root.is_one());
    let mut plan = always.mdd.freeze(always.romdd_root);
    assert_eq!(plan.node_count(), 1);
    assert_eq!(plan.probability(&always.probabilities), 1.0);
    assert_eq!(always.report.romdd_size, 1);
    assert_eq!(always.report.yield_lower_bound, 0.0);

    // F ≡ 0 leaves G = I_{M+1}(w): a single w node whose only TRUE branch
    // is the clamp value, so the yield is exactly 1 − error bound.
    let never = analyze(&constant_tree(false), &components, &lethal, &options).expect("compiles");
    assert!(!never.romdd_root.is_terminal());
    assert_eq!(never.report.romdd_size, 3);
    assert_eq!(never.report.yield_lower_bound, 1.0 - never.report.error_bound);

    for (tree, analysis) in [(constant_tree(true), always), (constant_tree(false), never)] {
        for conversion in CONVERSIONS {
            let spec = OrderingSpec::paper_default();
            check_plan(&tree, &components, 1.0, 2, 1, spec, conversion);
        }
        let mut pipeline = Pipeline::new(&tree, &components).expect("valid system");
        let report = pipeline.evaluate(&lethal, &options).expect("compiles");
        assert_eq!(report.yield_lower_bound.to_bits(), analysis.report.yield_lower_bound.to_bits());
        assert_eq!(report.romdd_stats, analysis.mdd.stats());
        assert_eq!(pipeline.live_nodes(), analysis.mdd.stats().live_nodes);
    }
}

#[test]
fn terminal_plans_reach_one_terminal() {
    // In a reduced diagram every non-terminal root reaches both terminals
    // (its deepest nodes have distinct terminal children), so the plans
    // that reach only one terminal are exactly the constant ones.
    let mdd = soc_yield::mdd::MddManager::new(vec![3, 2]);
    let vectors = vec![vec![0.2, 0.3, 0.5], vec![0.0, 1.0]];
    for (root, p) in [(mdd.zero(), 0.0), (mdd.one(), 1.0)] {
        let mut plan = mdd.freeze(root);
        assert_eq!(plan.node_count(), 1);
        assert_eq!(plan.node_count(), mdd.node_count(root));
        assert_eq!(plan.probability(&vectors), p);
        // A terminal plan reads no level, so any vectors do.
        assert_eq!(plan.probability(&[]), p);
    }
}
