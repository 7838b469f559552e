//! reeval_sweep: what-if questions against resident diagrams. Set-up
//! compiles two pipelines whose ROMDDs straddle the L2 cache (ESEN4x4
//! λ'=1 w/ml, 70,537 nodes; MS2 λ'=1 w/ml, 2,034 nodes); the timed region
//! then re-evaluates them with no kernel work at all.

use std::collections::BTreeMap;
use std::time::Instant;

use soc_yield_bench::{system_spec, ALPHA, EPSILON, LETHALITY};
use soc_yield_core::{analyze, AnalysisOptions, Pipeline, SystemDelta, YieldAnalysis, YieldReport};
use socy_defect::{ComponentProbabilities, NegativeBinomial};
use socy_exec::SystemSpec;

use crate::common::{median, min, peak_rss_mb, quantile, timed, Args, Checks, Outcome};
use crate::gen::{reeval_inputs, ReevalInputs};
use crate::layers::{probability_vectors, truncation_of, Layers, Probe, ProbePoint};

/// The resident systems and how often a pass evaluates each one's grid.
/// The large diagram's grid runs twice, so both the median and the p99
/// latency fall among its walks: on a shared host the cache-resident walk
/// of the small diagram swings by a quarter between runs, too much for a
/// bounded metric; its latency is printed per resident instead.
const RESIDENTS: [(&str, usize); 2] = [("ESEN4x4", 2), ("MS2", 1)];

fn thinned(lambda: f64, alpha: f64, lethality: f64) -> NegativeBinomial {
    NegativeBinomial::new(lambda / LETHALITY, alpha)
        .and_then(|raw| raw.thinned(lethality))
        .expect("generated parameters are valid")
}

struct Resident {
    system: SystemSpec,
    pipeline: Pipeline,
    rounds: usize,
    lethal: NegativeBinomial,
    options: AnalysisOptions,
    compile_m: usize,
    grid: Vec<NegativeBinomial>,
    epsilons: Vec<f64>,
    families: Vec<Vec<SystemDelta>>,
}

/// One answered point: its report and the components it was asked
/// under.
struct Answer {
    report: YieldReport,
    lethal: NegativeBinomial,
    options: AnalysisOptions,
    components: ComponentProbabilities,
}

fn setup(seed: u64) -> Result<Vec<Resident>, String> {
    let all = socy_benchmarks::paper_benchmarks();
    RESIDENTS
        .iter()
        .enumerate()
        .map(|(stream, &(name, rounds))| {
            let found = all.iter().find(|b| b.name == name).ok_or("registry system missing")?;
            let system = system_spec(found).map_err(|e| e.to_string())?;
            let lethality = system.components.lethality();
            let lethal = thinned(1.0, ALPHA, lethality);
            let options = AnalysisOptions { epsilon: EPSILON, ..AnalysisOptions::default() };
            let mut pipeline =
                Pipeline::new(&system.fault_tree, &system.components).map_err(|e| e.to_string())?;
            let compiled = pipeline.evaluate(&lethal, &options).map_err(|e| e.to_string())?;
            let raw: Vec<f64> =
                (0..system.components.len()).map(|i| system.components.raw(i)).collect();
            let ReevalInputs { grid, epsilons, families } = reeval_inputs(
                seed,
                stream as u64,
                &raw,
                (1.0, ALPHA),
                EPSILON,
                compiled.truncation,
            );
            let families = families
                .iter()
                .map(|family| {
                    std::iter::once(SystemDelta::named("base"))
                        .chain(family.iter().enumerate().map(|(v, overrides)| {
                            overrides
                                .iter()
                                .fold(SystemDelta::named(format!("v{v}")), |d, &(c, p)| {
                                    d.with_component_probability(c, p)
                                })
                        }))
                        .collect()
                })
                .collect();
            Ok(Resident {
                grid: grid.iter().map(|&(l, a)| thinned(l, a, lethality)).collect(),
                compile_m: compiled.truncation,
                system,
                pipeline,
                rounds,
                lethal,
                options,
                epsilons,
                families,
            })
        })
        .collect()
}

/// One pass over a resident's points: the grid point by point (`rounds`
/// times), one `sweep_epsilons` call and the delta families. With
/// `latencies`, each point's latency (a batched call's time divided over
/// its points) is recorded; without, the calls run untimed.
fn pass(
    res: &mut Resident,
    mut latencies: Option<&mut Vec<f64>>,
    answers: &mut Vec<Answer>,
) -> Result<(), String> {
    let base = res.system.components.clone();
    let timing = latencies.is_some();
    let clock = || timing.then(Instant::now);
    let mut record = |start: Option<Instant>, points: usize| {
        if let (Some(start), Some(latencies)) = (start, latencies.as_deref_mut()) {
            let seconds = start.elapsed().as_secs_f64() / points as f64;
            latencies.extend(std::iter::repeat_n(seconds, points));
        }
    };
    for _ in 0..res.rounds {
        for lethal in &res.grid {
            let start = clock();
            let report = res.pipeline.evaluate(lethal, &res.options);
            record(start, 1);
            let report = report.map_err(|e| e.to_string())?;
            answers.push(Answer {
                report,
                lethal: *lethal,
                options: res.options,
                components: base.clone(),
            });
        }
    }
    let start = clock();
    let reports = res.pipeline.sweep_epsilons(&res.lethal, &res.epsilons, &res.options);
    record(start, res.epsilons.len());
    for (report, &epsilon) in reports.map_err(|e| e.to_string())?.into_iter().zip(&res.epsilons) {
        let options = AnalysisOptions { epsilon, ..res.options };
        answers.push(Answer { report, lethal: res.lethal, options, components: base.clone() });
    }
    for family in &res.families {
        let start = clock();
        let reports = res.pipeline.sweep_deltas(&res.lethal, &res.options, family);
        record(start, family.len());
        for (report, delta) in reports.map_err(|e| e.to_string())?.into_iter().zip(family) {
            let components = delta.materialize_components(&base).map_err(|e| e.to_string())?;
            answers.push(Answer { report, lethal: res.lethal, options: res.options, components });
        }
    }
    Ok(())
}

/// Checks one resident's answers against fresh analyses at the same
/// options. The first point of each truncation `M` runs `analyze`; the
/// other points with that `M` evaluate their own probability vectors on
/// the same fresh diagram (which is what `analyze` would rebuild for
/// them). Resident answers come from a diagram compiled at a larger `M`
/// and zero-padded, so they agree up to summation order.
fn check_fresh(res: &Resident, answers: &[Answer], checks: &mut Checks) {
    let mut fresh: BTreeMap<usize, YieldAnalysis> = BTreeMap::new();
    for answer in answers {
        let Ok(truncation) = truncation_of(&answer.lethal, &answer.options) else {
            checks.fail("reeval: truncation failed".to_string());
            continue;
        };
        let m = truncation.truncation();
        if let std::collections::btree_map::Entry::Vacant(slot) = fresh.entry(m) {
            match analyze(
                &res.system.fault_tree,
                &res.system.components,
                &answer.lethal,
                &answer.options,
            ) {
                Ok(analysis) => {
                    slot.insert(analysis);
                }
                Err(e) => {
                    checks.fail(format!("reeval: fresh analyze failed: {e}"));
                    continue;
                }
            }
        }
        let analysis = fresh.get_mut(&m).expect("inserted above");
        let vectors = probability_vectors(m, &analysis.mv_order, &truncation, &answer.components);
        let expected = 1.0 - analysis.mdd.probability(analysis.romdd_root, &vectors);
        let report = &answer.report;
        checks.expect(
            (report.yield_lower_bound - expected).abs() <= 1e-12
                && report.truncation == m
                && report.error_bound.to_bits() == truncation.error_bound().to_bits(),
            || {
                format!(
                    "reeval {}: resident yield {:e} (M={}) but a fresh analysis gives {expected:e} (M={m})",
                    res.system.name, report.yield_lower_bound, report.truncation
                )
            },
        );
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    let mut setups = Vec::new();
    let mut residents = None;
    for _ in 0..3 {
        let (state, seconds) = timed(|| setup(args.seed));
        setups.push(seconds);
        residents = Some(state);
    }
    out.set("setup_s", median(&setups));
    let mut residents = match residents.expect("set up at least once") {
        Ok(residents) => residents,
        Err(e) => return out.checks.fail(format!("reeval set-up failed: {e}")),
    };
    if args.trace {
        return trace(&mut residents, out);
    }

    let compiles_before: Vec<usize> = residents.iter().map(|r| r.pipeline.compiles()).collect();
    let mut passes = Vec::new();
    let mut per_resident: Vec<Vec<f64>> = residents.iter().map(|_| Vec::new()).collect();
    let mut first_answers: Vec<Vec<Answer>> = residents.iter().map(|_| Vec::new()).collect();
    let mut failed = None;
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let pass_start = Instant::now();
        for (i, res) in residents.iter_mut().enumerate() {
            let mut answers = Vec::new();
            if let Err(e) = pass(res, Some(&mut per_resident[i]), &mut answers) {
                failed = Some(e);
            }
            if first_answers[i].is_empty() {
                first_answers[i] = answers;
            } else {
                // Later passes must repeat the first bit for bit.
                let same = answers.len() == first_answers[i].len()
                    && answers.iter().zip(&first_answers[i]).all(|(a, b)| {
                        a.report.yield_lower_bound.to_bits() == b.report.yield_lower_bound.to_bits()
                    });
                out.checks.expect(same, || {
                    format!("reeval {}: a pass changed its answers", res.system.name)
                });
            }
        }
        passes.push(pass_start.elapsed().as_secs_f64());
        if failed.is_some() {
            break;
        }
    }
    let timed_s = start.elapsed().as_secs_f64();
    if let Some(e) = failed {
        out.checks.fail(format!("reeval: {e}"));
    }
    let compiles_after: Vec<usize> = residents.iter().map(|r| r.pipeline.compiles()).collect();
    out.checks.expect(compiles_before == compiles_after, || {
        format!("reeval: the timed region compiled ({compiles_before:?} -> {compiles_after:?})")
    });
    let latencies = per_resident.concat();
    out.checks.attempted += latencies.len() as u64;
    for (res, answers) in residents.iter().zip(&first_answers) {
        check_fresh(res, answers, &mut out.checks);
    }

    let latencies_ms: Vec<f64> = latencies.iter().map(|s| 1e3 * s).collect();
    out.set("pass_s", median(&passes));
    out.set("ops_per_s", latencies.len() as f64 / timed_s);
    out.set("op_p50_ms", quantile(&latencies_ms, 0.5));
    out.set("op_p99_ms", quantile(&latencies_ms, 0.99));
    out.set("peak_rss_mb", peak_rss_mb(None));
    println!(
        "reeval_sweep: points_per_s {:.2} · point_p50_us {:.2} · point_p99_us {:.2} · {} points in {} passes",
        latencies.len() as f64 / timed_s,
        1e3 * quantile(&latencies_ms, 0.5),
        1e3 * quantile(&latencies_ms, 0.99),
        latencies.len(),
        passes.len()
    );
    for (res, own) in residents.iter().zip(&per_resident) {
        println!(
            "reeval_sweep: {} point_p50_us {:.2} · point_p99_us {:.2}",
            res.system.name,
            1e6 * quantile(own, 0.5),
            1e6 * quantile(own, 0.99)
        );
    }
}

fn trace(residents: &mut [Resident], out: &mut Outcome) {
    let checks = &mut out.checks;
    let mut layers = Layers::default();
    let (mut untimed_s, mut timed_s) = (0.0, 0.0);
    for res in residents.iter_mut() {
        // The pass once untimed and once with the per-point clocks of the
        // untraced run: their difference is what the clocks cost.
        let (result, seconds) = timed(|| pass(res, None, &mut Vec::new()));
        untimed_s += seconds;
        let mut answers = Vec::new();
        let (result, seconds) =
            timed(|| result.and_then(|()| pass(res, Some(&mut Vec::new()), &mut answers)));
        timed_s += seconds;
        if let Err(e) = result {
            return checks.fail(format!("reeval {}: {e}", res.system.name));
        }
        checks.attempted += answers.len() as u64;
        // Each distinct point once: the first round of the grid, then the
        // batched calls.
        let grid = res.grid.len();
        let points: Vec<ProbePoint<'_>> = answers[..grid]
            .iter()
            .chain(&answers[grid * res.rounds..])
            .map(|a| ProbePoint {
                lethal: &a.lethal,
                options: a.options,
                components: a.components.clone(),
                untraced: (&a.report).into(),
            })
            .collect();
        let probe = Probe {
            label: format!("{} λ'=1 w/ml", res.system.name),
            fault_tree: &res.system.fault_tree,
            components: &res.system.components,
            spec: res.options.spec,
            compile_m: res.compile_m,
            points,
        };
        layers.trace(&probe, checks);
        for delta in res.families.iter().flatten() {
            let times: Vec<f64> = (0..3)
                .map(|_| {
                    let one = std::slice::from_ref(delta);
                    timed(|| res.pipeline.sweep_deltas(&res.lethal, &res.options, one)).1
                })
                .collect();
            layers.delta_eval_us.push(1e6 * min(&times));
        }
        check_fresh(res, &answers, checks);
    }
    layers.export(out);
    out.set("trace.overhead_pct", 100.0 * (timed_s - untimed_s) / untimed_s);
    println!(
        "reeval_sweep traced: pass {untimed_s:.4} s untimed, {timed_s:.4} s with per-point clocks"
    );
}
