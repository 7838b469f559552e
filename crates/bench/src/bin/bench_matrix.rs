//! The repository's perf harness: runs a **pinned** medium-size design
//! matrix through the parallel sweep engine and emits the
//! machine-readable `BENCH_sweep.json` artifact (per-point wall clocks,
//! totals, node/cache statistics) that seeds the repo's performance
//! trajectory.
//!
//! * `--threads N` — worker pool size (`0` = all cores). All
//!   deterministic fields are bit-identical for every value.
//! * `--json <path>` — write the artifact (CI's `perf-smoke` job passes
//!   `BENCH_sweep.json` and gates the deterministic fields against
//!   `tests/fixtures/bench_sweep.json` with `anchor_check`).
//! * `--baseline <path>` — additionally print a per-point
//!   speedup/regression table against a previously saved artifact.
//! * `--scratch-deltas` — materialize the what-if block's variants as
//!   standalone systems (one full compilation each) instead of the
//!   incremental delta path; used by CI's delta-equivalence gate.
//!
//! The matrix is fixed on purpose, in five blocks sized for a CI smoke
//! job (a few seconds single-threaded, 16 compilation chunks with no
//! chunk dominating, so the speedup is visible at 2–4 threads):
//!
//! 1. **static λ'=1** — all five pinned benchmarks × {w/ml, wv/ml} ×
//!    ε ∈ {1e-2, 1e-3};
//! 2. **dense λ'=2** — the two small benchmarks (the larger ones take
//!    minutes at M = 10, as Table 4 of the paper shows) × the same
//!    specs/ε values;
//! 3. **sifted** — ESEN4x1 under `w/ml+sift` (dynamic sifting is the
//!    costly managed-kernel path; one small instance keeps it honest and
//!    exercises GC accounting without dominating the wall clock);
//! 4. **high-M single chunk** — ESEN4x2 dense (λ'=2, ε=1e-3): one big
//!    compilation that the sweep-level pool cannot parallelise; it is
//!    the critical path of the whole matrix.
//! 5. **what-if deltas** — ESEN4x1 plus a family of nine one-component
//!    what-if variants (the unchanged base, four half-probability and
//!    four immune components), evaluated through the incremental
//!    [`Pipeline::sweep_deltas`](soc_yield_core::Pipeline::sweep_deltas)
//!    path: the base compiles once and every variant re-evaluates on the
//!    resident diagram. `--scratch-deltas` materializes each variant as
//!    its own standalone system instead (one full compile per variant,
//!    identical folded point labels); CI gates the two runs against each
//!    other with `anchor_check --delta-equivalence`, proving the delta
//!    path bit-identical to from-scratch compilation — and the recorded
//!    wall-clock ratio of the block is the measured what-if speedup.

use soc_yield_bench::{
    baseline_comparison, parse_cli, summary_line, system_spec, workload_distribution,
    write_json_doc, BenchSweepDoc, CliArgs, Workload, EPSILON,
};
use soc_yield_core::SystemDelta;
use socy_exec::{NamedDistribution, SweepBlock, SweepMatrix, SystemSpec, TruncationRule};
use socy_ordering::{GroupOrdering, MvOrdering, OrderingSpec};

fn systems(names: &[&str]) -> Vec<socy_exec::SystemSpec> {
    socy_benchmarks::paper_benchmarks()
        .iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .map(|s| system_spec(s).expect("benchmark weights are valid"))
        .collect()
}

/// The same thinned distribution the table binaries use. All pinned
/// benchmarks share the overall lethality `P_L`, so any representative
/// system yields the block's distribution.
fn lethal(lambda: f64) -> NamedDistribution {
    let system = socy_benchmarks::paper_benchmarks().into_iter().next().expect("non-empty");
    workload_distribution(&Workload { system, lambda }).expect("valid parameters")
}

/// The pinned what-if family: the unchanged base plus eight
/// one-component variants (four halved probabilities, four immune
/// components). Overrides only ever *lower* `P_i`, so the total raw
/// mass stays valid for every variant.
fn delta_family(base: &SystemSpec) -> Vec<SystemDelta> {
    let mut deltas = vec![SystemDelta::named("base")];
    for i in 0..4 {
        deltas.push(
            SystemDelta::named(format!("x{i}-half"))
                .with_component_probability(i, base.components.raw(i) / 2.0),
        );
    }
    for i in 4..8 {
        deltas.push(SystemDelta::named(format!("x{i}-immune")).with_component_probability(i, 0.0));
    }
    deltas
}

/// Builds the pinned matrix. Every axis value is part of the fixture
/// contract — changing any of them requires regenerating
/// `tests/fixtures/bench_sweep.json`.
///
/// With `scratch_deltas` the what-if block is replaced by one holding a
/// standalone materialized system per variant — identical folded point
/// labels, one full compilation each instead of one shared base.
fn pinned_matrix(scratch_deltas: bool) -> SweepMatrix {
    let static_specs = [
        OrderingSpec::paper_default(),
        OrderingSpec::new(MvOrdering::Wv, GroupOrdering::MsbFirst).expect("valid pair"),
    ];
    let epsilons = [TruncationRule::Epsilon(1e-2), TruncationRule::Epsilon(1e-3)];
    let mut matrix = SweepMatrix::new();

    let mut sparse = SweepBlock::new();
    sparse.systems = systems(&["MS2", "MS4", "ESEN4x1", "ESEN4x2", "ESEN4x4"]);
    sparse.distributions.push(lethal(1.0));
    sparse.specs.extend(static_specs);
    sparse.rules.extend(epsilons);
    matrix.add(sparse);

    let mut dense = SweepBlock::new();
    dense.systems = systems(&["MS2", "ESEN4x1"]);
    dense.distributions.push(lethal(2.0));
    dense.specs.extend(static_specs);
    dense.rules.extend(epsilons);
    matrix.add(dense);

    let mut sifted = SweepBlock::new();
    sifted.systems = systems(&["ESEN4x1"]);
    sifted.distributions.push(lethal(1.0));
    sifted.specs.push(OrderingSpec::paper_default().with_sifting(120));
    sifted.rules.push(TruncationRule::Epsilon(1e-3));
    matrix.add(sifted);

    let mut high_m = SweepBlock::new();
    high_m.systems = systems(&["ESEN4x2"]);
    high_m.distributions.push(lethal(2.0));
    high_m.specs.push(OrderingSpec::paper_default());
    high_m.rules.push(TruncationRule::Epsilon(1e-3));
    matrix.add(high_m);

    let mut what_if = SweepBlock::new();
    let base = systems(&["ESEN4x1"]).pop().expect("pinned benchmark exists");
    let deltas = delta_family(&base);
    if scratch_deltas {
        what_if.systems = deltas
            .iter()
            .map(|delta| {
                let (fault_tree, components) = delta
                    .materialize(&base.fault_tree, &base.components)
                    .expect("pinned deltas are valid");
                // Named like the folded delta points so `anchor_check
                // --delta-equivalence` can line the two runs up.
                SystemSpec::new(format!("{}·Δ{}", base.name, delta.name()), fault_tree, components)
            })
            .collect();
    } else {
        what_if.systems.push(base);
        what_if.deltas = deltas;
    }
    what_if.distributions.push(lethal(1.0));
    what_if.specs.push(OrderingSpec::paper_default());
    what_if.rules.push(TruncationRule::Epsilon(EPSILON));
    matrix.add(what_if);

    matrix
}

fn main() {
    let CliArgs { json, threads, options, baseline, scratch_deltas, .. } = parse_cli(usize::MAX);
    let mut matrix = pinned_matrix(scratch_deltas);
    matrix.options = options;
    println!("bench_matrix: pinned perf sweep ({} design points)", matrix.len());
    let outcome = matrix.run(threads);
    let doc = BenchSweepDoc::from_outcome(&outcome);

    println!(
        "{:<10} {:>6} {:>6} {:>10} {:>4} {:>12} {:>10} {:>10} {:>10}",
        "benchmark", "dist", "spec", "rule", "M", "ROBDD peak", "ROMDD", "yield", "seconds"
    );
    for point in &doc.points {
        println!(
            "{:<10} {:>6} {:>6} {:>10} {:>4} {:>12} {:>10} {:>10.6} {:>10.6}",
            point.benchmark,
            point.distribution,
            point.ordering,
            point.rule,
            point.truncation,
            point.robdd_peak,
            point.romdd_size,
            point.yield_lower_bound,
            point.seconds,
        );
    }
    for worker in &outcome.summary.workers {
        eprintln!(
            "worker {}: {} chunks, {} points, busy {:.3} s",
            worker.worker,
            worker.chunks,
            worker.points,
            worker.busy.as_secs_f64()
        );
    }
    println!(
        "{} · compile {:.3} s · robdd cache hit {:.1}% evict {:.1}% · gc runs {}",
        summary_line(&outcome.summary),
        outcome.summary.compile_time.as_secs_f64(),
        outcome.summary.robdd.cache_hit_percent(),
        outcome.summary.robdd.cache_evict_percent(),
        outcome.summary.robdd.gc_runs,
    );
    // Write the artifact even when points failed: CI's `if: always()`
    // upload step and local debugging both want the partial results.
    if let Some(path) = &json {
        match write_json_doc(path, &doc) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if outcome.summary.failed_points > 0 {
        for point in &outcome.points {
            if let Err(e) = &point.result {
                eprintln!("FAILED {e}");
            }
        }
        eprintln!("{} design point(s) failed", outcome.summary.failed_points);
        std::process::exit(1);
    }

    if let Some(path) = &baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        match baseline_comparison(&text, &doc) {
            Ok(table) => print!("{table}"),
            Err(e) => {
                eprintln!("baseline comparison failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
