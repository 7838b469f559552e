//! Dual-mode equivalence of the complemented-edge ROBDD kernel.
//!
//! Complemented edges are a *representation* change: one physical node
//! serves both a function and its negation, `not()` becomes an O(1) bit
//! flip, and the coded ROBDD shrinks — but every quantity the paper
//! reports (yields, error bounds, truncations, ROMDD node counts) must
//! be bit-identical with the feature on or off, at every sweep thread
//! count. These tests sweep the same matrix in both modes and compare
//! the results field by field.
//!
//! The CI check matrix runs the suite under `SOCY_TEST_COMPLEMENT ∈
//! {0, 1}` (mirroring `SOCY_TEST_THREADS`); the env var selects which
//! mode the *other* integration suites exercise where they honor it,
//! while this file always compares the two modes directly.

use proptest::prelude::*;

use soc_yield::bdd::BddManager;
use soc_yield::benchmarks::{esen, ms};
use soc_yield::defect::NegativeBinomial;
use soc_yield::ordering::{GroupOrdering, MvOrdering};
use soc_yield::{
    NamedDistribution, Netlist, OrderingSpec, SweepBlock, SweepMatrix, SweepOutcome, SystemSpec,
    TruncationRule,
};

/// A paper benchmark as a sweep system (lethality 1, like the tables).
fn benchmark(system: &soc_yield::benchmarks::BenchmarkSystem) -> SystemSpec {
    let components = system.component_probabilities(1.0).expect("valid weights");
    SystemSpec::new(system.name.clone(), system.fault_tree.clone(), components)
}

/// The benchmark matrix both modes run: two systems, two orderings
/// (static and sifted), both conversion algorithms, two ε rules.
fn matrix(complement_edges: bool) -> SweepMatrix {
    let mut m = SweepMatrix::new();
    m.options = m.options.with_complement_edges(complement_edges);
    let mut block = SweepBlock::new();
    block.systems.push(benchmark(&esen(4, 1)));
    block.systems.push(benchmark(&ms(2)));
    let raw = NegativeBinomial::new(1.0, 4.0).expect("valid");
    block.distributions.push(NamedDistribution::new("λ'=1".to_string(), raw));
    block.specs.push(OrderingSpec::paper_default());
    block.rules.push(TruncationRule::Epsilon(1e-2));
    block.rules.push(TruncationRule::Epsilon(1e-3));
    m.add(block);
    // The sifted mediocre order exercises the complement-aware swap; one
    // small system keeps it cheap.
    let mut sifted = SweepBlock::new();
    sifted.systems.push(benchmark(&esen(4, 1)));
    let raw = NegativeBinomial::new(1.0, 4.0).expect("valid");
    sifted.distributions.push(NamedDistribution::new("λ'=1".to_string(), raw));
    sifted.specs.push(
        OrderingSpec::new(MvOrdering::Wv, GroupOrdering::MsbFirst)
            .expect("valid")
            .with_sifting(120),
    );
    sifted.rules.push(TruncationRule::Epsilon(1e-3));
    m.add(sifted);
    m
}

/// Compares everything that must not depend on the complement-edge
/// mode: yields and error bounds bit-for-bit, truncations, and the
/// ROMDD node counts. ROBDD-side node counts are compared by *order*
/// instead — the complemented diagram must never be larger.
fn assert_complement_invariant(plain: &SweepOutcome, complemented: &SweepOutcome, context: &str) {
    assert_eq!(plain.points.len(), complemented.points.len(), "{context}: point counts");
    let mut shrunk = false;
    for (p, c) in plain.points.iter().zip(&complemented.points) {
        assert_eq!(p.labels, c.labels, "{context}: report order must not depend on the mode");
        let (p, c) = match (&p.result, &c.result) {
            (Ok(p), Ok(c)) => (p, c),
            other => panic!("{context}: mixed outcomes {other:?}"),
        };
        assert_eq!(
            p.yield_lower_bound.to_bits(),
            c.yield_lower_bound.to_bits(),
            "{context}: yield must be bit-identical"
        );
        assert_eq!(p.error_bound.to_bits(), c.error_bound.to_bits(), "{context}: error bound");
        assert_eq!(p.truncation, c.truncation, "{context}: truncation");
        assert_eq!(p.compiled_truncation, c.compiled_truncation, "{context}");
        assert_eq!(p.romdd_size, c.romdd_size, "{context}: ROMDD size");
        assert_eq!(
            p.romdd_stats.live_nodes, c.romdd_stats.live_nodes,
            "{context}: ROMDD live nodes"
        );
        assert!(
            c.coded_robdd_size <= p.coded_robdd_size,
            "{context}: complemented coded ROBDD must never be larger \
             ({} vs plain {})",
            c.coded_robdd_size,
            p.coded_robdd_size
        );
        shrunk |= c.coded_robdd_size < p.coded_robdd_size;
    }
    assert!(shrunk, "{context}: at least one benchmark diagram must actually shrink");
}

#[test]
fn yields_are_bit_identical_with_and_without_complement_edges() {
    let plain = matrix(false).run(2);
    let complemented = matrix(true).run(2);
    assert_complement_invariant(&plain, &complemented, "two sweep workers");
}

#[test]
fn complement_equivalence_holds_across_sweep_thread_counts() {
    // The complemented sweep on four workers against the plain-edge
    // reference on one: neither the representation nor the worker count
    // may move a result.
    let reference = matrix(false).run(1);
    let complemented = matrix(true).run(4);
    assert_complement_invariant(&reference, &complemented, "1 vs 4 sweep workers");
    // The plain-edge sweep agrees with itself across worker counts on
    // the ROBDD side too (same field set).
    let plain_parallel = matrix(false).run(4);
    for (s, p) in reference.points.iter().zip(&plain_parallel.points) {
        let (s, p) = match (&s.result, &p.result) {
            (Ok(s), Ok(p)) => (s, p),
            other => panic!("plain parallel: mixed outcomes {other:?}"),
        };
        assert_eq!(s.yield_lower_bound.to_bits(), p.yield_lower_bound.to_bits());
        assert_eq!(s.coded_robdd_size, p.coded_robdd_size);
        assert_eq!(s.romdd_size, p.romdd_size);
    }
}

/// CI's `SOCY_TEST_COMPLEMENT` (0 or 1; default on) — the mode the
/// environment asks integration runs to exercise.
fn env_complement() -> bool {
    std::env::var("SOCY_TEST_COMPLEMENT").map_or(true, |v| v.trim() != "0")
}

#[test]
fn env_selected_mode_matches_the_plain_sequential_reference() {
    let reference = matrix(false).run(2);
    let env_mode = matrix(env_complement()).run(2);
    for (s, p) in reference.points.iter().zip(&env_mode.points) {
        let (s, p) = match (&s.result, &p.result) {
            (Ok(s), Ok(p)) => (s, p),
            other => panic!("env mode: mixed outcomes {other:?}"),
        };
        assert_eq!(s.yield_lower_bound.to_bits(), p.yield_lower_bound.to_bits());
        assert_eq!(s.error_bound.to_bits(), p.error_bound.to_bits());
        assert_eq!(s.truncation, p.truncation);
        assert_eq!(s.romdd_size, p.romdd_size);
    }
}

/// Strategy for a small random fault tree over `c` components (same
/// generator shape as `property_based.rs`, with inverters guaranteed in
/// the mix so complement edges actually appear).
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With complemented edges, `not` is an O(1) edge-bit flip:
    /// `not(not(f)) == f` and neither negation may allocate a single
    /// node.
    #[test]
    fn double_negation_is_free((netlist, c) in arb_fault_tree(6)) {
        let mut mgr = BddManager::new(c);
        prop_assert!(mgr.complement_enabled());
        let order: Vec<usize> = (0..c).collect();
        let build = mgr.build_netlist(&netlist, &order);
        let before = mgr.allocated_nodes();
        let nf = mgr.not(build.root);
        let nnf = mgr.not(nf);
        prop_assert_eq!(nnf, build.root, "¬¬f must be f, bit for bit");
        prop_assert_eq!(
            mgr.allocated_nodes(), before,
            "negation with complement edges must allocate zero nodes"
        );
        // And the negation really is the complement function.
        for row in 0u32..(1 << c) {
            let assignment: Vec<bool> = (0..c).map(|i| (row >> i) & 1 == 1).collect();
            prop_assert_eq!(mgr.eval(nf, &assignment), !mgr.eval(build.root, &assignment));
        }
    }

    /// Canonical form: no stored node may carry a complemented (or
    /// constant-0) high edge, whatever mix of connectives built the
    /// manager — and with the feature off, no complement bit may appear
    /// anywhere at all.
    #[test]
    fn no_canonical_node_has_a_complemented_high_edge((netlist, c) in arb_fault_tree(6)) {
        for complement in [true, false] {
            let mut mgr = BddManager::new(c);
            mgr.set_complement(complement);
            let order: Vec<usize> = (0..c).collect();
            let build = mgr.build_netlist(&netlist, &order);
            let _ = mgr.not(build.root);
            prop_assert!(
                mgr.check_complement_invariant(),
                "complement={} manager violated the canonical edge form", complement
            );
        }
    }

    /// The two modes agree on the probability of the root function.
    /// ROBDD-side probabilities are allowed ulp-level drift: a
    /// complemented edge evaluates as `P(¬f) = 1 − P(f)`, which rounds
    /// differently from walking the plain diagram. (The *yields* the
    /// pipeline reports are evaluated on the ROMDD — identical in both
    /// modes — and are gated bit-for-bit by the sweep tests above.)
    #[test]
    fn probability_is_mode_independent((netlist, c) in arb_fault_tree(5), probs in proptest::collection::vec(0.05f64..0.95, 5)) {
        let order: Vec<usize> = (0..c).collect();
        let mut on = BddManager::new(c);
        let root_on = on.build_netlist(&netlist, &order).root;
        let p_on = on.probability(root_on, &probs[..c]);
        let mut off = BddManager::new(c);
        off.set_complement(false);
        let root_off = off.build_netlist(&netlist, &order).root;
        let p_off = off.probability(root_off, &probs[..c]);
        prop_assert!(
            (p_on - p_off).abs() <= 1e-12 * p_off.abs().max(1.0),
            "P(f) across modes: complemented {} vs plain {}", p_on, p_off
        );
    }
}
