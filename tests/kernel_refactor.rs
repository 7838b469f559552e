//! Regression anchors for the shared decision-diagram kernel.
//!
//! The `socy-dd` kernel replaced the two per-engine arenas / unique
//! tables / op caches; these tests pin the Table-4 anchor points (M = 6
//! at λ' = 1 and M = 10 at λ' = 2, with α = 4 and ε = 1e-3) to the node
//! counts and yields produced by the pre-refactor engines, so any change
//! to hash-consing, reduction or conversion that alters the diagrams is
//! caught bit-for-bit.

use soc_yield::benchmarks::{esen, ms};
use soc_yield::defect::NegativeBinomial;
use soc_yield::ordering::{GroupOrdering, MvOrdering};
use soc_yield::{analyze, analyze_direct, AnalysisOptions, OrderingSpec, Pipeline, SweepPoint};

struct Anchor {
    lambda: f64,
    truncation: usize,
    /// Coded-ROBDD size (reachable nodes).
    robdd_size: usize,
    /// Peak ROBDD nodes during construction.
    robdd_peak: usize,
    romdd_size: usize,
    yield_lower_bound: f64,
}

fn check_anchor(system: &soc_yield::benchmarks::BenchmarkSystem, anchor: &Anchor) {
    let comps = system.component_probabilities(1.0).unwrap();
    let lethal =
        NegativeBinomial::new(anchor.lambda, 4.0).unwrap().thinned(comps.lethality()).unwrap();
    let options = AnalysisOptions { epsilon: 1e-3, ..AnalysisOptions::default() };
    let analysis = analyze(&system.fault_tree, &comps, &lethal, &options).unwrap();
    let report = &analysis.report;
    let label = format!("{} λ'={}", system.name, anchor.lambda);
    assert_eq!(report.truncation, anchor.truncation, "{label}: truncation");
    assert_eq!(report.coded_robdd_size, anchor.robdd_size, "{label}: ROBDD size");
    assert_eq!(report.robdd_peak, anchor.robdd_peak, "{label}: ROBDD peak");
    assert_eq!(report.romdd_size, anchor.romdd_size, "{label}: ROMDD size");
    assert_eq!(
        report.yield_lower_bound, anchor.yield_lower_bound,
        "{label}: yield must be bit-identical"
    );
    // The kernel statistics must agree with the sizes the report carries.
    assert_eq!(report.robdd_stats.peak_nodes, anchor.robdd_peak);
    assert_eq!(report.robdd_stats.unique_entries, anchor.robdd_peak - 2);
    assert_eq!(report.robdd_stats.complement_hits, 0, "every edge is plain");
    assert_eq!(analysis.report.romdd_stats.peak_nodes, analysis.mdd.peak_nodes());
}

#[test]
fn esen4x1_table4_anchors_are_bit_identical() {
    // Recorded from the pre-kernel-refactor engines (seed state).
    let system = esen(4, 1);
    check_anchor(
        &system,
        &Anchor {
            lambda: 1.0,
            truncation: 6,
            robdd_size: 9897,
            robdd_peak: 15736,
            romdd_size: 1461,
            yield_lower_bound: 0.8528030506125002,
        },
    );
    check_anchor(
        &system,
        &Anchor {
            lambda: 2.0,
            truncation: 10,
            robdd_size: 39532,
            robdd_peak: 59434,
            romdd_size: 4377,
            yield_lower_bound: 0.6962524531167209,
        },
    );
}

#[test]
fn ms2_table4_anchor_is_bit_identical() {
    let system = ms(2);
    check_anchor(
        &system,
        &Anchor {
            lambda: 1.0,
            truncation: 6,
            robdd_size: 22229,
            robdd_peak: 44605,
            romdd_size: 2034,
            yield_lower_bound: 0.9456492858806436,
        },
    );
}

#[test]
fn cross_engine_node_counts_are_identical() {
    // The coded-ROBDD route and the direct multi-valued construction build
    // the same canonical ROMDD on the shared kernel: node counts must be
    // exactly equal, not merely close.
    let system = esen(4, 1);
    let comps = system.component_probabilities(1.0).unwrap();
    let lethal = NegativeBinomial::new(1.0, 4.0).unwrap().thinned(comps.lethality()).unwrap();
    let options = AnalysisOptions { epsilon: 1e-3, ..AnalysisOptions::default() };
    let coded = analyze(&system.fault_tree, &comps, &lethal, &options).unwrap();
    let direct = analyze_direct(&system.fault_tree, &comps, &lethal, &options).unwrap();
    assert_eq!(coded.report.romdd_size, direct.report.romdd_size);
    assert_eq!(coded.report.romdd_size, 1461);
}

#[test]
fn group_sifting_reduces_a_mediocre_order_to_the_heuristic_quality() {
    // Anchor for the managed kernel: compiling ESEN4x1 under the mediocre
    // `wv/ml` order and letting group sifting improve it must (a) leave the
    // yield bit-identical to the static run, (b) record the pre-sift size
    // of exactly the static compile, and (c) strictly shrink the coded
    // ROBDD — on this instance all the way down to the size the weight
    // heuristic achieves up front.
    let system = esen(4, 1);
    let comps = system.component_probabilities(1.0).unwrap();
    let lethal = NegativeBinomial::new(1.0, 4.0).unwrap().thinned(comps.lethality()).unwrap();
    let base = OrderingSpec::new(MvOrdering::Wv, GroupOrdering::MsbFirst).unwrap();
    let options = AnalysisOptions { epsilon: 1e-3, spec: base, ..AnalysisOptions::default() };
    let fixed = analyze(&system.fault_tree, &comps, &lethal, &options).unwrap();
    assert_eq!(fixed.report.presift_robdd_size, None);

    let sifted_options = AnalysisOptions { spec: base.with_sifting(120), ..options };
    let sifted = analyze(&system.fault_tree, &comps, &lethal, &sifted_options).unwrap();
    let presift = sifted.report.presift_robdd_size.expect("sifted run records the pre-sift size");
    assert_eq!(presift, fixed.report.coded_robdd_size, "same static compile as the base run");
    assert!(
        sifted.report.coded_robdd_size < presift,
        "sifting must shrink the wv/ml coded ROBDD ({presift} -> {})",
        sifted.report.coded_robdd_size
    );
    assert!(
        (sifted.report.yield_lower_bound - fixed.report.yield_lower_bound).abs() < 1e-12,
        "reordering is a representation change, never a semantic one"
    );
    // On this instance sifting recovers exactly the weight-heuristic order
    // quality (the Table-4 anchor sizes).
    let heuristic = analyze(
        &system.fault_tree,
        &comps,
        &lethal,
        &AnalysisOptions { spec: OrderingSpec::paper_default(), ..options },
    )
    .unwrap();
    assert_eq!(sifted.report.coded_robdd_size, heuristic.report.coded_robdd_size);
    assert_eq!(sifted.report.romdd_size, heuristic.report.romdd_size);
    // The kernel reports its collections through the same stats plumbing.
    assert!(sifted.report.robdd_stats.gc_runs >= 1);
    assert!(sifted.report.robdd_stats.gc_reclaimed > 0);
    assert_eq!(fixed.report.robdd_stats.gc_runs, 0, "static runs never collect");
}

#[test]
fn pipeline_sweep_agrees_with_independent_analyses() {
    let system = esen(4, 1);
    let comps = system.component_probabilities(1.0).unwrap();
    let lethal = NegativeBinomial::new(1.0, 4.0).unwrap().thinned(comps.lethality()).unwrap();
    let base = AnalysisOptions::default();
    let epsilons = [1e-2, 1e-3, 1e-4];
    let mut pipeline = Pipeline::new(&system.fault_tree, &comps).unwrap();
    let swept = pipeline.sweep_epsilons(&lethal, &epsilons, &base).unwrap();
    assert_eq!(pipeline.compiled_models(), 1, "the ε sweep must compile exactly once");
    for (report, &epsilon) in swept.iter().zip(&epsilons) {
        let exact =
            analyze(&system.fault_tree, &comps, &lethal, &AnalysisOptions { epsilon, ..base })
                .unwrap();
        assert_eq!(report.truncation, exact.report.truncation, "ε={epsilon}");
        assert!(
            (report.yield_lower_bound - exact.report.yield_lower_bound).abs() < 1e-12,
            "ε={epsilon}: swept {} vs independent {}",
            report.yield_lower_bound,
            exact.report.yield_lower_bound
        );
    }
}

#[test]
fn sweep_points_with_mixed_options_reuse_models() {
    let system = esen(4, 1);
    let comps = system.component_probabilities(1.0).unwrap();
    let lethal_1 = NegativeBinomial::new(0.5, 4.0).unwrap().thinned(comps.lethality()).unwrap();
    let lethal_2 = NegativeBinomial::new(1.0, 4.0).unwrap().thinned(comps.lethality()).unwrap();
    let base = AnalysisOptions { epsilon: 1e-3, ..AnalysisOptions::default() };
    let mut pipeline = Pipeline::new(&system.fault_tree, &comps).unwrap();
    let reports = pipeline
        .sweep([
            SweepPoint { lethal: &lethal_1, options: base },
            SweepPoint { lethal: &lethal_2, options: base },
            SweepPoint { lethal: &lethal_2, options: AnalysisOptions { epsilon: 1e-2, ..base } },
        ])
        .unwrap();
    assert_eq!(reports.len(), 3);
    assert_eq!(pipeline.compiled_models(), 1);
    let max_m = reports.iter().map(|r| r.truncation).max().unwrap();
    assert!(reports.iter().all(|r| r.compiled_truncation == max_m));
    assert!(reports[0].yield_lower_bound > reports[1].yield_lower_bound);
}
