//! Cross-validation of the combinatorial method against independent
//! oracles on the paper's benchmark generators and on randomly generated
//! fault trees.

use soc_yield::benchmarks::{esen, ms};
use soc_yield::core::exact::exact_yield;
use soc_yield::defect::truncation::truncate_at;
use soc_yield::defect::{ComponentProbabilities, NegativeBinomial};
use soc_yield::faulttree::GateKind;
use soc_yield::sim::{MonteCarloYield, SimulationOptions};
use soc_yield::{
    analyze, analyze_direct, AnalysisOptions, ConversionAlgorithm, GroupOrdering, MvOrdering,
    Netlist, OrderingSpec,
};

fn nb(lambda: f64) -> NegativeBinomial {
    NegativeBinomial::new(lambda, 4.0).unwrap()
}

#[test]
fn ms2_matches_exact_baseline_and_simulation() {
    let system = ms(2);
    let components = system.component_probabilities(1.0).unwrap();
    let lethal = nb(1.0).thinned(components.lethality()).unwrap();
    let options = AnalysisOptions { epsilon: 1e-3, ..AnalysisOptions::default() };
    let analysis = analyze(&system.fault_tree, &components, &lethal, &options).unwrap();

    // Exact subset-lattice oracle (18 components is still tractable).
    let truncation = truncate_at(&lethal, analysis.report.truncation).unwrap();
    let exact = exact_yield(&system.fault_tree, &components, &truncation).unwrap();
    assert!(
        (analysis.report.yield_lower_bound - exact).abs() < 1e-9,
        "combinatorial {} vs exact {exact}",
        analysis.report.yield_lower_bound
    );

    // Monte-Carlo oracle within a few standard errors plus the truncation error.
    let sim = MonteCarloYield::new(
        &system.fault_tree,
        &components,
        &lethal,
        SimulationOptions::default(),
    )
    .unwrap();
    let estimate = sim.run(150_000, 11);
    let slack = 4.0 * estimate.standard_error + analysis.report.error_bound + 1e-3;
    assert!((estimate.yield_estimate - analysis.report.yield_lower_bound).abs() < slack);
}

#[test]
fn esen4x1_all_ordering_specs_agree_on_the_yield() {
    let system = esen(4, 1);
    let components = system.component_probabilities(1.0).unwrap();
    let lethal = nb(1.0).thinned(components.lethality()).unwrap();
    let mut yields: Vec<f64> = Vec::new();
    for mv in MvOrdering::ALL {
        for group in [GroupOrdering::MsbFirst, GroupOrdering::LsbFirst] {
            let spec = OrderingSpec::new(mv, group).unwrap();
            let options = AnalysisOptions { epsilon: 1e-3, spec, ..AnalysisOptions::default() };
            let analysis = analyze(&system.fault_tree, &components, &lethal, &options).unwrap();
            yields.push(analysis.report.yield_lower_bound);
        }
    }
    for y in &yields {
        assert!((y - yields[0]).abs() < 1e-10);
    }
}

#[test]
fn esen4x2_layered_and_top_down_conversions_agree() {
    let system = esen(4, 2);
    let components = system.component_probabilities(1.0).unwrap();
    let lethal = nb(1.0).thinned(components.lethality()).unwrap();
    let base = AnalysisOptions { epsilon: 1e-3, ..AnalysisOptions::default() };
    let top_down = analyze(&system.fault_tree, &components, &lethal, &base).unwrap();
    let layered = analyze(
        &system.fault_tree,
        &components,
        &lethal,
        &AnalysisOptions { conversion: ConversionAlgorithm::Layered, ..base },
    )
    .unwrap();
    assert_eq!(top_down.report.romdd_size, layered.report.romdd_size);
    assert!((top_down.report.yield_lower_bound - layered.report.yield_lower_bound).abs() < 1e-12);
}

#[test]
fn ms2_direct_romdd_construction_agrees_with_coded_robdd_route() {
    let system = ms(2);
    let components = system.component_probabilities(1.0).unwrap();
    let lethal = nb(1.0).thinned(components.lethality()).unwrap();
    let options = AnalysisOptions { epsilon: 1e-2, ..AnalysisOptions::default() };
    let coded = analyze(&system.fault_tree, &components, &lethal, &options).unwrap();
    let direct = analyze_direct(&system.fault_tree, &components, &lethal, &options).unwrap();
    assert_eq!(coded.report.romdd_size, direct.report.romdd_size);
    assert!((coded.report.yield_lower_bound - direct.report.yield_lower_bound).abs() < 1e-12);
}

/// Deterministic pseudo-random fault-tree generator (AND/OR/NOT/XOR/AtLeast
/// DAG). XOR gates take the ROBDD apply machine through its XOR-with-ONE
/// redirect to NOT, so the exact-baseline comparison below covers it end
/// to end.
fn random_fault_tree(components: usize, gates: usize, seed: u64) -> Netlist {
    let mut nl = Netlist::new();
    let mut nodes: Vec<_> = (0..components).map(|i| nl.input(format!("x{i}"))).collect();
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..gates {
        let arity = 2 + (next() % 3) as usize;
        let fanin: Vec<_> =
            (0..arity).map(|_| nodes[(next() % nodes.len() as u64) as usize]).collect();
        let gate = match next() % 5 {
            0 => nl.and(fanin),
            1 => nl.or(fanin),
            2 => {
                let inner = nl.or(fanin);
                nl.not(inner)
            }
            3 => nl.xor(fanin),
            _ => nl.at_least(2, fanin),
        };
        nodes.push(gate);
    }
    let output = *nodes.last().expect("at least one node exists");
    nl.set_output(output);
    nl
}

#[test]
fn random_small_systems_match_the_exact_baseline() {
    let mut xor_gates = 0;
    for seed in 0..8u64 {
        let c = 4 + (seed as usize % 4);
        let fault_tree = random_fault_tree(c, 6, seed + 1);
        xor_gates += fault_tree.iter().filter(|(_, gate)| gate.kind == GateKind::Xor).count();
        let weights: Vec<f64> = (0..c).map(|i| 1.0 + (i % 3) as f64).collect();
        let components = ComponentProbabilities::from_weights(&weights, 1.0).unwrap();
        let lethal = nb(1.0);
        let options = AnalysisOptions { epsilon: 1e-3, ..AnalysisOptions::default() };
        let analysis = analyze(&fault_tree, &components, &lethal, &options).unwrap();
        let truncation = truncate_at(&lethal, analysis.report.truncation).unwrap();
        let exact = exact_yield(&fault_tree, &components, &truncation).unwrap();
        assert!(
            (analysis.report.yield_lower_bound - exact).abs() < 1e-9,
            "seed {seed}: combinatorial {} vs exact {exact}",
            analysis.report.yield_lower_bound
        );
    }
    assert!(xor_gates > 0, "the generated systems must include XOR gates");
}

#[test]
fn yield_decreases_with_defect_density_and_system_size() {
    // Monotonicity sanity checks that mirror the paper's qualitative findings.
    let system = ms(2);
    let components = system.component_probabilities(1.0).unwrap();
    let options = AnalysisOptions { epsilon: 1e-3, ..AnalysisOptions::default() };
    let y1 = analyze(&system.fault_tree, &components, &nb(1.0), &options)
        .unwrap()
        .report
        .yield_lower_bound;
    let y2 = analyze(&system.fault_tree, &components, &nb(2.0), &options)
        .unwrap()
        .report
        .yield_lower_bound;
    assert!(y2 < y1, "higher defect density must lower the yield");

    // A larger ESEN instance (more single points of failure per port) yields less
    // than a smaller one at the same defect density.
    let small = esen(4, 1);
    let small_probs = small.component_probabilities(1.0).unwrap();
    let ys = analyze(&small.fault_tree, &small_probs, &nb(1.0), &options)
        .unwrap()
        .report
        .yield_lower_bound;
    let large = esen(8, 1);
    let large_probs = large.component_probabilities(1.0).unwrap();
    let yl = analyze(&large.fault_tree, &large_probs, &nb(1.0), &options)
        .unwrap()
        .report
        .yield_lower_bound;
    assert!(yl < ys, "larger network should yield less ({yl} vs {ys})");
}
