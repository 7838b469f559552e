//! Abort-path and degradation-ladder tests for resource-governed
//! compilation.
//!
//! The fail-point proptests inject deterministic governor trips
//! ([`GovernorLimits::fail_after`]) at random materialisation counts and
//! assert the cleanup contract of `socy_dd::govern`: the manager
//! survives the abort, garbage collection reports no leaked nodes, and
//! an immediate recompile on the surviving manager is bit-identical to
//! an undisturbed build.
//!
//! The ladder tests drive [`Pipeline::evaluate_governed`] through every
//! rung of a [`DegradeLadder`] by measuring, per option set, the minimal
//! node budget the exact method needs, then pinching the budget into the
//! window where the original request fails but the degraded rung fits.
//!
//! Under `SOCY_TEST_FAILPOINT=1` (the CI smoke step) the proptests run a
//! denser grid of injected abort points.

use proptest::prelude::*;

use soc_yield::bdd::BddManager;
use soc_yield::core::{CoreError, DegradeLadder, DegradeStep, Fidelity};
use soc_yield::dd::{catch_governed, CancelToken, DdError, Governor, GovernorLimits};
use soc_yield::defect::{ComponentProbabilities, NegativeBinomial};
use soc_yield::{
    AnalysisOptions, CompileOptions, GroupOrdering, MvOrdering, Netlist, OrderingSpec, Pipeline,
};

/// Denser fail-point grid under `SOCY_TEST_FAILPOINT=1`.
fn failpoint_cases(default: u32, dense: u32) -> ProptestConfig {
    let dense_mode = std::env::var("SOCY_TEST_FAILPOINT").is_ok_and(|v| v == "1");
    ProptestConfig::with_cases(if dense_mode { dense } else { default })
}

/// Strategy for a small random fault tree over `c` components (same
/// construction as `tests/property_based.rs`).
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
            let gate = match next() % 3 {
                0 => nl.and(fanin),
                1 => nl.or(fanin),
                _ => {
                    let inner = nl.or(fanin);
                    nl.not(inner)
                }
            };
            nodes.push(gate);
        }
        let out = *nodes.last().expect("non-empty");
        nl.set_output(out);
        (nl, c)
    })
}

proptest! {
    #![proptest_config(failpoint_cases(32, 128))]

    /// A governor trip injected at a random materialisation count leaves
    /// the manager consistent: no panic escapes, GC reclaims every node
    /// of the aborted build, and recompiling on the surviving manager
    /// reproduces the undisturbed build bit for bit.
    #[test]
    fn aborted_builds_leave_the_manager_consistent_and_recompilable(
        (netlist, c) in arb_fault_tree(6),
        cut in any::<u64>(),
    ) {
        let order: Vec<usize> = (0..c).collect();
        let probs: Vec<f64> = (0..c).map(|i| (i as f64 + 1.0) / (c as f64 + 2.0)).collect();

        // Reference: an undisturbed build on a fresh manager.
        let mut reference = BddManager::new(c);
        let ref_build = reference.build_netlist(&netlist, &order);
        let ref_prob = reference.probability(ref_build.root, &probs);

        // Meter the build with a pure counting governor (all limits zero
        // never trip) to learn how many materialisations it costs.
        let mut counting = BddManager::new(c);
        let meter = Governor::new(GovernorLimits::default(), None);
        counting.set_governor(Some(meter.clone()));
        let _ = counting.build_netlist(&netlist, &order);
        let total = meter.allocated();
        prop_assert!(total > 0, "building {c} variables must materialise nodes");

        // Victim: the same build with a fail point at a random 1..=total
        // materialisation.
        let fail_after = 1 + cut % total;
        let mut victim = BddManager::new(c);
        let baseline_live = victim.stats().live_nodes;
        let governor =
            Governor::new(GovernorLimits { fail_after, ..GovernorLimits::default() }, None);
        victim.set_governor(Some(governor.clone()));
        let aborted =
            catch_governed(Some(&governor), || victim.build_netlist(&netlist, &order));

        // The build is deterministic, so it materialises exactly the
        // metered count and the fail point always trips.
        prop_assert_eq!(
            aborted.err(),
            Some(DdError::BudgetExceeded { budget: fail_after, allocated: fail_after }),
            "fail point must trip as a budget error at exactly its count"
        );
        // Cleanup contract: disarm, collect, and nothing leaks.
        victim.set_governor(None);
        let gc = victim.gc();
        prop_assert_eq!(
            gc.live_nodes, baseline_live,
            "aborted build must leave no live nodes behind"
        );
        // Immediate recompile on the survivor is bit-identical.
        let rebuilt = victim.build_netlist(&netlist, &order);
        prop_assert_eq!(rebuilt.size, ref_build.size);
        for row in 0..(1u32 << c) {
            let a: Vec<bool> = (0..c).map(|i| (row >> i) & 1 == 1).collect();
            prop_assert_eq!(
                victim.eval(rebuilt.root, &a),
                reference.eval(ref_build.root, &a),
                "assignment {:?}", a
            );
        }
        prop_assert_eq!(
            victim.probability(rebuilt.root, &probs).to_bits(),
            ref_prob.to_bits(),
            "recompiled probability must be bit-identical"
        );
    }

    /// The same contract end to end through the yield pipeline: an
    /// evaluation aborted by a fail point reports a typed resource error,
    /// and the same pipeline value evaluates bit-identically to a fresh
    /// one once the fail point is removed.
    #[test]
    fn aborted_pipeline_evaluations_recover_bit_identically(
        (netlist, c) in arb_fault_tree(5),
        cut in 1u64..400,
    ) {
        let weights: Vec<f64> = (0..c).map(|i| 1.0 + i as f64).collect();
        let components = ComponentProbabilities::from_weights(&weights, 1.0).unwrap();
        let lethal = NegativeBinomial::new(1.0, 4.0).unwrap();
        let analysis = AnalysisOptions::default();

        let mut reference = Pipeline::new(&netlist, &components).unwrap();
        let expect = reference.evaluate(&lethal, &analysis).unwrap();

        let mut governed = Pipeline::with_options(
            &netlist,
            &components,
            CompileOptions::new().with_fail_after(cut),
        )
        .unwrap();
        match governed.evaluate(&lethal, &analysis) {
            // The fail point sat beyond what this compilation allocates
            // (timings are wall-clock, so compare the stable fields).
            Ok(report) => {
                prop_assert_eq!(
                    report.yield_lower_bound.to_bits(),
                    expect.yield_lower_bound.to_bits()
                );
                prop_assert_eq!(report.romdd_size, expect.romdd_size);
            }
            Err(CoreError::Resource(DdError::BudgetExceeded { budget, .. })) => {
                prop_assert_eq!(budget, cut);
                // Same pipeline, fail point disarmed: bit-identical.
                governed.set_options(CompileOptions::new());
                let recovered = governed.evaluate(&lethal, &analysis).unwrap();
                prop_assert_eq!(
                    recovered.yield_lower_bound.to_bits(),
                    expect.yield_lower_bound.to_bits()
                );
                prop_assert_eq!(recovered.error_bound.to_bits(), expect.error_bound.to_bits());
                prop_assert_eq!(recovered.romdd_size, expect.romdd_size);
                prop_assert_eq!(recovered.coded_robdd_size, expect.coded_robdd_size);
                prop_assert_eq!(recovered.truncation, expect.truncation);
            }
            Err(other) => prop_assert!(false, "unexpected error: {}", other),
        }
    }
}

// ---- degradation-ladder tests ---------------------------------------------

/// F = x1·x2 + x3 (Figure 2 of the paper) with moderately spread
/// probabilities — small enough that budget scans stay cheap, large
/// enough that the truncation point still drives diagram sizes.
fn figure2() -> (Netlist, ComponentProbabilities) {
    let mut nl = Netlist::new();
    let x1 = nl.input("x1");
    let x2 = nl.input("x2");
    let x3 = nl.input("x3");
    let a = nl.and([x1, x2]);
    let f = nl.or([a, x3]);
    nl.set_output(f);
    (nl, ComponentProbabilities::new(vec![0.2, 0.3, 0.5]).unwrap())
}

/// Brackets the minimal node budget under which `evaluate` succeeds for
/// `options` by doubling + binary search to within `tol` nodes: returns
/// `(fails, fits)` with `fits - fails <= tol` (budget 0 means unlimited,
/// so the known-failing floor starts at 1). Failing probes trip early
/// and are cheap; `tol` bounds how many full compiles the search pays.
fn budget_bracket(
    netlist: &Netlist,
    components: &ComponentProbabilities,
    lethal: &NegativeBinomial,
    options: &AnalysisOptions,
    tol: usize,
) -> (usize, usize) {
    let fits = |budget: usize| -> bool {
        let kernel = CompileOptions::new().with_node_budget(budget);
        let mut pipeline = Pipeline::with_options(netlist, components, kernel).unwrap();
        match pipeline.evaluate(lethal, options) {
            Ok(_) => true,
            Err(CoreError::Resource(_)) => false,
            Err(e) => panic!("budget scan hit a non-resource error: {e}"),
        }
    };
    let mut hi = 64;
    while !fits(hi) {
        hi *= 2;
        assert!(hi < 1 << 28, "budget scan did not converge");
    }
    let mut lo = 1;
    while hi - lo > tol {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    (lo, hi)
}

fn min_budget(
    netlist: &Netlist,
    components: &ComponentProbabilities,
    lethal: &NegativeBinomial,
    options: &AnalysisOptions,
) -> usize {
    budget_bracket(netlist, components, lethal, options, 1).1
}

/// Pins the budget just below what the requested options need (so the
/// original attempt trips) and asserts `evaluate_governed` answers
/// through exactly `step`, bit-identical to an ungoverned run of the
/// degraded options — which also proves the rung fits where the exact
/// method does not. `tol` trades search precision for scan time; it
/// must stay below the rung's budget advantage.
fn assert_rung_reached(
    netlist: &Netlist,
    components: &ComponentProbabilities,
    lethal: &NegativeBinomial,
    base: &AnalysisOptions,
    step: DegradeStep,
    tol: usize,
) {
    let degraded_options = step.apply(base);
    let (budget, _) = budget_bracket(netlist, components, lethal, base, tol);
    let kernel = CompileOptions::new().with_node_budget(budget);
    let ladder = DegradeLadder { steps: vec![step], ..DegradeLadder::default() };
    let mut governed = Pipeline::with_options(netlist, components, kernel).unwrap();
    let report = governed.evaluate_governed(lethal, base, &ladder).unwrap();
    assert_eq!(report.fidelity, Fidelity::Degraded { step }, "rung {step:?} must answer");

    let mut ungoverned = Pipeline::new(netlist, components).unwrap();
    let expect = ungoverned.evaluate(lethal, &degraded_options).unwrap();
    assert_eq!(report.yield_lower_bound.to_bits(), expect.yield_lower_bound.to_bits());
    assert_eq!(report.error_bound.to_bits(), expect.error_bound.to_bits());
    assert_eq!(report.romdd_size, expect.romdd_size);
}

#[test]
fn coarsen_epsilon_rung_is_reached_in_its_budget_window() {
    let (netlist, components) = figure2();
    let lethal = NegativeBinomial::new(1.0, 4.0).unwrap();
    let base = AnalysisOptions { epsilon: 1e-9, ..AnalysisOptions::default() };
    assert_rung_reached(
        &netlist,
        &components,
        &lethal,
        &base,
        DegradeStep::CoarsenEpsilon { factor: 1e6 },
        1,
    );
}

#[test]
fn reduce_truncation_rung_is_reached_in_its_budget_window() {
    let (netlist, components) = figure2();
    let lethal = NegativeBinomial::new(1.0, 4.0).unwrap();
    let base = AnalysisOptions { epsilon: 1e-9, ..AnalysisOptions::default() };
    assert_rung_reached(
        &netlist,
        &components,
        &lethal,
        &base,
        DegradeStep::ReduceTruncation { max: 1 },
        1,
    );
}

#[test]
fn sift_rung_is_reached_in_its_budget_window() {
    // Under the reversed `vrw` static order the coded ROBDD converts
    // into a needlessly large ROMDD (1672 vs 199 nodes sifted on MS1);
    // sifting before conversion shrinks the allocation footprint by
    // ~1.5k nodes, opening the budget window the rung needs. The coarse
    // search tolerance (64 nodes, well under the window) keeps the
    // number of full compiles the scan pays small.
    let system = soc_yield::benchmarks::ms(1);
    let components = system.component_probabilities(1.0).unwrap();
    let lethal = NegativeBinomial::new(1.0, 4.0).unwrap();
    let base = AnalysisOptions {
        epsilon: 1e-2,
        spec: OrderingSpec::new(MvOrdering::Vrw, GroupOrdering::MsbFirst).unwrap(),
        ..AnalysisOptions::default()
    };
    assert_rung_reached(
        &system.fault_tree,
        &components,
        &lethal,
        &base,
        DegradeStep::Sift { max_growth: 120 },
        64,
    );
}

#[test]
fn ladder_rungs_are_tried_in_order_and_skipped_on_failure() {
    let (netlist, components) = figure2();
    let lethal = NegativeBinomial::new(1.0, 4.0).unwrap();
    let base = AnalysisOptions { epsilon: 1e-9, ..AnalysisOptions::default() };
    let first = DegradeStep::CoarsenEpsilon { factor: 1e3 };
    let second = DegradeStep::ReduceTruncation { max: 1 };
    let need_exact = min_budget(&netlist, &components, &lethal, &base);
    let need_first = min_budget(&netlist, &components, &lethal, &first.apply(&base));
    let need_second = min_budget(&netlist, &components, &lethal, &second.apply(&base));
    assert!(
        need_second < need_first && need_first < need_exact,
        "rung costs must be strictly ordered to pinch budgets between them \
         (exact {need_exact}, mild {need_first}, drastic {need_second})"
    );

    let ladder = DegradeLadder { steps: vec![first, second], ..DegradeLadder::default() };
    // Budget below the exact method's need: the mild first rung answers.
    let kernel = CompileOptions::new().with_node_budget(need_exact - 1);
    let mut pipeline = Pipeline::with_options(&netlist, &components, kernel).unwrap();
    let report = pipeline.evaluate_governed(&lethal, &base, &ladder).unwrap();
    assert_eq!(report.fidelity, Fidelity::Degraded { step: first });

    // Pinched budget: the first rung trips too, the second answers.
    let kernel = CompileOptions::new().with_node_budget(need_first - 1);
    let mut pipeline = Pipeline::with_options(&netlist, &components, kernel).unwrap();
    let report = pipeline.evaluate_governed(&lethal, &base, &ladder).unwrap();
    assert_eq!(report.fidelity, Fidelity::Degraded { step: second });
}

#[test]
fn exhausted_ladders_fall_back_to_bounds_that_bracket_the_exact_yield() {
    let (netlist, components) = figure2();
    let lethal = NegativeBinomial::new(1.0, 4.0).unwrap();
    let options = AnalysisOptions::default();

    let mut exact = Pipeline::new(&netlist, &components).unwrap();
    let truth = exact.evaluate(&lethal, &options).unwrap();
    assert!(truth.fidelity.is_exact());

    // A one-node budget fails the request and every exact-method rung.
    let kernel = CompileOptions::new().with_node_budget(1);
    let mut governed = Pipeline::with_options(&netlist, &components, kernel).unwrap();
    let ladder = DegradeLadder::default();
    let report = governed.evaluate_governed(&lethal, &options, &ladder).unwrap();
    let Fidelity::Bounds { lower, upper } = report.fidelity else {
        panic!("expected Monte-Carlo bounds, got {:?}", report.fidelity);
    };
    assert_eq!(report.yield_lower_bound, lower);
    assert_eq!(report.error_bound, upper - lower);
    assert_eq!(report.romdd_size, 0, "no diagram is built on the bounds rung");
    // The exact yield lies in [truth.yield_lower_bound, + error_bound];
    // a z = 3 interval over 20k samples must bracket it.
    assert!(lower <= truth.yield_lower_bound + truth.error_bound, "lower bound too high");
    assert!(upper >= truth.yield_lower_bound, "upper bound too low");

    // Determinism: a second governed run reproduces the bounds bit for bit.
    let kernel = CompileOptions::new().with_node_budget(1);
    let mut again = Pipeline::with_options(&netlist, &components, kernel).unwrap();
    let replay = again.evaluate_governed(&lethal, &options, &ladder).unwrap();
    assert_eq!(replay.yield_lower_bound.to_bits(), report.yield_lower_bound.to_bits());
    assert_eq!(replay.error_bound.to_bits(), report.error_bound.to_bits());
}

#[test]
fn cancellation_is_never_degraded_around() {
    let (netlist, components) = figure2();
    let lethal = NegativeBinomial::new(1.0, 4.0).unwrap();
    let options = AnalysisOptions::default();
    let token = CancelToken::new();
    token.cancel();

    let mut pipeline = Pipeline::new(&netlist, &components).unwrap();
    pipeline.set_cancel_token(Some(token));
    let err = pipeline.evaluate_governed(&lethal, &options, &DegradeLadder::default()).unwrap_err();
    assert!(
        matches!(err, CoreError::Resource(DdError::Cancelled)),
        "a cancelled request must not fall down the ladder: {err}"
    );
}
