//! design_sweep: the pinned 39-point / 17-chunk matrix of `bench_matrix`,
//! evaluated by `SweepMatrix::run(1)` with `CompileOptions::default()`.
//! It needs no seed: the matrix is the fixture contract.

use std::time::Instant;

use serde::Value;
use soc_yield_bench::{system_spec, ALPHA, EPSILON, LETHALITY};
use soc_yield_core::{Pipeline, SweepPoint, SystemDelta, YieldReport};
use socy_defect::{DefectDistribution, NegativeBinomial};
use socy_exec::{
    NamedDistribution, PointOutcome, SweepBlock, SweepMatrix, SystemSpec, TruncationRule,
};
use socy_ordering::{GroupOrdering, MvOrdering, OrderingSpec};

use crate::common::{median, min, peak_rss_mb, quantile, timed, Args, Checks, Outcome};
use crate::layers::{truncation_of, Layers, Probe, ProbePoint};

/// Yields, error bounds, truncations and ROMDD sizes of every point,
/// copied from `tests/fixtures/bench_sweep.json`.
const REFERENCE: &str = include_str!("../refs/design_sweep.json");

/// One block of the pinned matrix.
struct BlockDef {
    systems: &'static [&'static str],
    lambda: f64,
    specs: Vec<OrderingSpec>,
    rules: Vec<TruncationRule>,
    what_if: bool,
}

/// The blocks of `bench_matrix`'s pinned matrix, in order.
fn block_defs() -> Vec<BlockDef> {
    let statics = vec![
        OrderingSpec::paper_default(),
        OrderingSpec::new(MvOrdering::Wv, GroupOrdering::MsbFirst).expect("valid pair"),
    ];
    let epsilons = vec![TruncationRule::Epsilon(1e-2), TruncationRule::Epsilon(1e-3)];
    let default = vec![OrderingSpec::paper_default()];
    let eps3 = vec![TruncationRule::Epsilon(1e-3)];
    vec![
        BlockDef {
            systems: &["MS2", "MS4", "ESEN4x1", "ESEN4x2", "ESEN4x4"],
            lambda: 1.0,
            specs: statics.clone(),
            rules: epsilons.clone(),
            what_if: false,
        },
        BlockDef {
            systems: &["MS2", "ESEN4x1"],
            lambda: 2.0,
            specs: statics,
            rules: epsilons,
            what_if: false,
        },
        BlockDef {
            systems: &["ESEN4x1"],
            lambda: 1.0,
            specs: vec![OrderingSpec::paper_default().with_sifting(120)],
            rules: eps3.clone(),
            what_if: false,
        },
        BlockDef {
            systems: &["ESEN4x2"],
            lambda: 2.0,
            specs: default.clone(),
            rules: eps3,
            what_if: false,
        },
        BlockDef {
            systems: &["ESEN4x1"],
            lambda: 1.0,
            specs: default,
            rules: vec![TruncationRule::Epsilon(EPSILON)],
            what_if: true,
        },
    ]
}

fn system(name: &str) -> SystemSpec {
    let found = socy_benchmarks::paper_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .expect("pinned benchmark exists");
    system_spec(&found).expect("benchmark weights are valid")
}

/// The thinned distribution the table binaries use (every pinned
/// benchmark shares the overall lethality).
fn lethal(lambda: f64) -> NegativeBinomial {
    let lethality = system("MS2").components.lethality();
    NegativeBinomial::new(lambda / LETHALITY, ALPHA)
        .and_then(|raw| raw.thinned(lethality))
        .expect("valid parameters")
}

/// `bench_matrix`'s what-if family: the unchanged base, four halved and
/// four immune components.
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

/// One compilation chunk of the matrix, in matrix order.
struct Chunk {
    system: SystemSpec,
    lethal: NegativeBinomial,
    spec: OrderingSpec,
    rules: Vec<TruncationRule>,
    deltas: Vec<SystemDelta>,
}

impl Chunk {
    fn points(&self) -> usize {
        self.rules.len() * self.deltas.len().max(1)
    }

    /// The chunk's `Pipeline` calls, as the executor makes them.
    fn run(&self) -> Result<(Vec<YieldReport>, Pipeline), String> {
        let mut pipeline = Pipeline::new(&self.system.fault_tree, &self.system.components)
            .map_err(|e| e.to_string())?;
        let lethal: &dyn DefectDistribution = &self.lethal;
        let reports = if self.deltas.is_empty() {
            let points = self.rules.iter().map(|rule| SweepPoint {
                lethal,
                options: rule.options(self.spec, Default::default()),
            });
            pipeline.sweep(points).map_err(|e| e.to_string())?
        } else {
            let mut reports = Vec::new();
            for rule in &self.rules {
                let options = rule.options(self.spec, Default::default());
                reports.extend(
                    pipeline
                        .sweep_deltas(lethal, &options, &self.deltas)
                        .map_err(|e| e.to_string())?,
                );
            }
            reports
        };
        Ok((reports, pipeline))
    }
}

/// Everything the workload sets up before timing.
struct Setup {
    matrix: SweepMatrix,
    chunks: Vec<Chunk>,
    reference: Vec<Value>,
}

fn setup() -> Setup {
    let mut matrix = SweepMatrix::new();
    let mut chunks = Vec::new();
    for def in block_defs() {
        let mut block = SweepBlock::new();
        block.systems = def.systems.iter().map(|name| system(name)).collect();
        block
            .distributions
            .push(NamedDistribution::new(format!("λ'={}", def.lambda), lethal(def.lambda)));
        block.specs.clone_from(&def.specs);
        block.rules.clone_from(&def.rules);
        if def.what_if {
            block.deltas = delta_family(&block.systems[0]);
        }
        for system in &block.systems {
            for &spec in &def.specs {
                chunks.push(Chunk {
                    system: system.clone(),
                    lethal: lethal(def.lambda),
                    spec,
                    rules: def.rules.clone(),
                    deltas: block.deltas.clone(),
                });
            }
        }
        matrix.add(block);
    }
    let reference = serde_json::from_str(REFERENCE)
        .ok()
        .and_then(|doc| doc.get("points").and_then(Value::as_array).map(<[Value]>::to_vec))
        .expect("the reference file parses");
    Setup { matrix, chunks, reference }
}

/// Checks every point of one sweep bit for bit against the reference.
fn check_points(points: &[PointOutcome], reference: &[Value], checks: &mut Checks) {
    checks.expect(points.len() == reference.len(), || {
        format!("{} points, reference has {}", points.len(), reference.len())
    });
    for (point, want) in points.iter().zip(reference) {
        checks.attempted += 1;
        let labels = &point.labels;
        let mut name = labels.system.clone();
        if let Some(delta) = &labels.delta {
            name = format!("{name}·Δ{delta}");
        }
        let Ok(report) = &point.result else {
            checks.fail(format!("{}: {:?}", labels.label(), point.result));
            continue;
        };
        let text =
            |key: &str| want.get(key).and_then(Value::as_str).unwrap_or_default().to_string();
        let number = |key: &str| want.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        let same = text("benchmark") == name
            && text("ordering") == labels.spec.label()
            && text("rule") == labels.rule.label()
            && text("distribution") == labels.distribution
            && text("fidelity") == report.fidelity.tag()
            && number("yield_lower_bound").to_bits() == report.yield_lower_bound.to_bits()
            && number("error_bound").to_bits() == report.error_bound.to_bits()
            && number("truncation") == report.truncation as f64
            && number("compiled_truncation") == report.compiled_truncation as f64
            && number("romdd_size") == report.romdd_size as f64;
        checks.expect(same, || format!("{}: differs from the reference {want:?}", labels.label()));
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    // Set-up takes milliseconds: the median of many is steady.
    let mut setups = Vec::new();
    let mut setup_state = None;
    for _ in 0..21 {
        let (state, seconds) = timed(setup);
        setups.push(seconds);
        setup_state = Some(state);
    }
    let state = setup_state.expect("set up at least once");
    out.set("setup_s", median(&setups));
    if args.trace {
        return trace(&state, out);
    }

    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (outcome, seconds) = timed(|| state.matrix.run(1));
        passes.push(seconds);
        check_points(&outcome.points, &state.reference, &mut out.checks);
    }
    // The user of a design study waits for the whole sweep: here one
    // operation is one sweep.
    let sweeps_ms: Vec<f64> = passes.iter().map(|s| 1e3 * s).collect();
    let points = out.checks.attempted as f64;
    out.set("pass_s", median(&passes));
    out.set("ops_per_s", points / passes.iter().sum::<f64>());
    out.set("op_p50_ms", quantile(&sweeps_ms, 0.5));
    out.set("op_p99_ms", quantile(&sweeps_ms, 0.99));
    out.set("peak_rss_mb", peak_rss_mb(None));
    let sweeps: Vec<String> = passes.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "design_sweep: sweep_wall_s {:.4} (median of {} sweeps: {}) · {} points",
        median(&passes),
        passes.len(),
        sweeps.join(" "),
        points
    );
}

fn trace(state: &Setup, out: &mut Outcome) {
    let checks = &mut out.checks;
    let (outcome, untraced_s) = timed(|| state.matrix.run(1));
    check_points(&outcome.points, &state.reference, checks);
    let mut layers = Layers::default();
    let mut chunk_s = Vec::new();
    let mut offset = 0;
    for chunk in &state.chunks {
        let untraced = &outcome.points[offset..offset + chunk.points()];
        offset += chunk.points();
        let label = untraced[0].labels.label();
        let ((reports, mut pipeline), seconds) = match timed(|| chunk.run()) {
            (Ok(ran), seconds) => (ran, seconds),
            (Err(e), _) => {
                checks.fail(format!("{label}: {e}"));
                continue;
            }
        };
        chunk_s.push(seconds);
        let Ok(untraced) = untraced.iter().map(|p| p.result.clone()).collect::<Result<Vec<_>, _>>()
        else {
            checks.fail(format!("{label}: the untraced sweep failed"));
            continue;
        };
        for (a, b) in reports.iter().zip(&untraced) {
            checks.expect(a.yield_lower_bound.to_bits() == b.yield_lower_bound.to_bits(), || {
                format!("{label}: chunk-by-chunk yield differs from the sweep's")
            });
        }

        let mut points = Vec::new();
        let deltas: Vec<Option<&SystemDelta>> = if chunk.deltas.is_empty() {
            vec![None]
        } else {
            chunk.deltas.iter().map(Some).collect()
        };
        for rule in &chunk.rules {
            for delta in &deltas {
                let components = match delta {
                    Some(d) => d
                        .materialize_components(&chunk.system.components)
                        .expect("pinned deltas are valid"),
                    None => chunk.system.components.clone(),
                };
                points.push((rule.options(chunk.spec, Default::default()), components));
            }
        }
        let compile_m = points
            .iter()
            .filter_map(|(options, _)| truncation_of(&chunk.lethal, options).ok())
            .map(|t| t.truncation())
            .max()
            .unwrap_or(0);
        let probe = Probe {
            label: label.clone(),
            fault_tree: &chunk.system.fault_tree,
            components: &chunk.system.components,
            spec: chunk.spec,
            compile_m,
            points: points
                .into_iter()
                .zip(untraced)
                .map(|((options, components), untraced)| ProbePoint {
                    lethal: &chunk.lethal,
                    options,
                    components,
                    untraced: (&untraced).into(),
                })
                .collect(),
        };
        layers.trace(&probe, checks);

        for delta in &chunk.deltas {
            let options = chunk.rules[0].options(chunk.spec, Default::default());
            let times: Vec<f64> = (0..3)
                .map(|_| {
                    timed(|| {
                        pipeline.sweep_deltas(&chunk.lethal, &options, std::slice::from_ref(delta))
                    })
                    .1
                })
                .collect();
            layers.delta_eval_us.push(1e6 * min(&times));
        }
    }
    layers.export(out);
    let (max, sum) = (chunk_s.iter().copied().fold(0.0, f64::max), chunk_s.iter().sum::<f64>());
    out.set("exec.chunk_s_max", max);
    out.set("exec.chunk_s_sum", sum);
    out.set("exec.critical_share", max / sum);
    out.set("exec.overhead_s", untraced_s - sum);
    out.set("trace.overhead_pct", 100.0 * (sum - untraced_s) / untraced_s);
    println!(
        "design_sweep traced: sweep {untraced_s:.4} s untraced · {} chunks {sum:.4} s one by one · critical chunk {max:.4} s",
        chunk_s.len()
    );
}
