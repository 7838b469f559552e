//! Per-layer measurement from outside the program: one compile is
//! recomposed from the public functions of each crate, in the order
//! `CompiledModel::compile` and `Pipeline::evaluate` call them, with each
//! call timed. The composition must reproduce the untraced answers bit for
//! bit, and its phases must add up to the pipeline's own compile time.

use std::time::Instant;

use soc_yield_core::{AnalysisOptions, GeneralizedFaultTree, Pipeline, YieldReport};
use socy_bdd::BddManager;
use socy_dd::{DdStats, SiftConfig};
use socy_defect::truncation::{select_truncation, truncate_at, Truncation};
use socy_defect::{ComponentProbabilities, DefectDistribution};
use socy_faulttree::Netlist;
use socy_mdd::{MddId, MddManager};
use socy_ordering::{compute_ordering, OrderingSpec};

use crate::common::{median, min, timed, Checks, Outcome};

/// Largest allowed gap between the summed phases of a compile and the
/// pipeline's own compile time, as a share of the latter. On a host whose
/// repeated measurements of one compile spread wider than this, the gate
/// allows the two sides' spreads added up instead: a gap inside them is
/// noise, not an unmeasured phase.
const PHASE_GAP: f64 = 0.05;

/// `(max − min) / min` of repeated timings of the same work.
fn spread(values: &[f64]) -> f64 {
    let low = min(values);
    (values.iter().copied().fold(low, f64::max) - low) / low
}

/// The truncation a point is evaluated at, as `Pipeline` selects it.
pub fn truncation_of(
    lethal: &dyn DefectDistribution,
    options: &AnalysisOptions,
) -> Result<Truncation, String> {
    match options.fixed_truncation {
        Some(m) => truncate_at(lethal, m),
        None => select_truncation(lethal, options.epsilon),
    }
    .map_err(|e| e.to_string())
}

/// What the untraced workload answered for one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Untraced {
    pub yield_lower_bound: f64,
    pub robdd_peak: usize,
    pub coded_robdd_size: usize,
    pub romdd_size: usize,
}

impl From<&YieldReport> for Untraced {
    fn from(r: &YieldReport) -> Self {
        Untraced {
            yield_lower_bound: r.yield_lower_bound,
            robdd_peak: r.robdd_peak,
            coded_robdd_size: r.coded_robdd_size,
            romdd_size: r.romdd_size,
        }
    }
}

/// One point answered by the compile, with the answer the untraced
/// workload gave for it.
pub struct ProbePoint<'a> {
    pub lethal: &'a dyn DefectDistribution,
    pub options: AnalysisOptions,
    /// Components the point is evaluated under (a what-if variant's
    /// differ from the system's).
    pub components: ComponentProbabilities,
    pub untraced: Untraced,
}

/// One distinct compile of a workload.
pub struct Probe<'a> {
    pub label: String,
    pub fault_tree: &'a Netlist,
    pub components: &'a ComponentProbabilities,
    pub spec: OrderingSpec,
    /// The truncation the diagram is compiled at (at least every point's).
    pub compile_m: usize,
    pub points: Vec<ProbePoint<'a>>,
}

/// A compile recomposed from the layer functions, with its phase times.
struct Composed {
    m: usize,
    mdd: MddManager,
    root: MddId,
    mv_order: Vec<usize>,
    robdd_peak: usize,
    coded_size: usize,
    romdd_size: usize,
    presift_size: Option<usize>,
    g_gates: usize,
    bdd_stats: DdStats,
    mdd_peak: usize,
    encode_s: f64,
    order_s: f64,
    build_s: f64,
    sift_s: f64,
    convert_s: f64,
}

impl Composed {
    fn phases_s(&self) -> f64 {
        self.encode_s + self.order_s + self.build_s + self.sift_s + self.convert_s
    }

    /// The probability vectors of one point, built the way
    /// `CompiledModel::evaluate` builds them (the `w` distribution
    /// zero-padded to the compiled truncation).
    fn vectors(
        &self,
        truncation: &Truncation,
        components: &ComponentProbabilities,
    ) -> Vec<Vec<f64>> {
        probability_vectors(self.m, &self.mv_order, truncation, components)
    }

    /// `P(G = 1)` on the composed ROMDD.
    fn probability(&mut self, vectors: &[Vec<f64>]) -> f64 {
        self.mdd.probability(self.root, vectors)
    }
}

/// The per-level value distributions of a diagram compiled at `m` with
/// multiple-valued order `mv_order` (0 = `w`).
pub fn probability_vectors(
    m: usize,
    mv_order: &[usize],
    truncation: &Truncation,
    components: &ComponentProbabilities,
) -> Vec<Vec<f64>> {
    let mut w = truncation.masses().to_vec();
    w.resize(m + 1, 0.0);
    w.push(truncation.error_bound());
    mv_order
        .iter()
        .map(|&mv| if mv == 0 { w.clone() } else { components.conditional_slice().to_vec() })
        .collect()
}

fn compose(probe: &Probe<'_>) -> Result<Composed, String> {
    let m = probe.compile_m;
    let (g, encode_s) = timed(|| GeneralizedFaultTree::build(probe.fault_tree, m));
    let g = g.map_err(|e| e.to_string())?;
    let (ordering, order_s) = timed(|| compute_ordering(g.netlist(), g.groups(), &probe.spec));
    let mut ordering = ordering.map_err(|e| e.to_string())?;

    let start = Instant::now();
    let mut bdd = BddManager::new(g.netlist().num_inputs());
    let mut build = bdd.build_netlist(g.netlist(), &ordering.var_level);
    let build_s = start.elapsed().as_secs_f64();

    let mut presift_size = None;
    let mut sift_s = 0.0;
    if let Some(max_growth) = probe.spec.sift_max_growth() {
        let start = Instant::now();
        presift_size = Some(build.size);
        let block_sizes: Vec<usize> =
            ordering.mv_order.iter().map(|&mv| g.groups().group(mv).len()).collect();
        let config =
            SiftConfig { max_growth: f64::from(max_growth) / 100.0, ..SiftConfig::default() };
        let mut roots = [build.root];
        let outcome = bdd.reorder_sift_grouped(&mut roots, &block_sizes, &config);
        build.root = roots[0];
        let mut new_of_old = vec![0usize; outcome.level_origin.len()];
        for (new, &old) in outcome.level_origin.iter().enumerate() {
            new_of_old[old] = new;
        }
        for level in ordering.var_level.iter_mut() {
            *level = new_of_old[*level];
        }
        ordering.mv_order = outcome.block_origin.iter().map(|&b| ordering.mv_order[b]).collect();
        build.size = outcome.final_size;
        build.peak = bdd.peak_nodes();
        sift_s = start.elapsed().as_secs_f64();
    }

    // The conversion phase also pays for releasing the ROBDD manager, as
    // the pipeline's compile does before it returns.
    let start = Instant::now();
    let layout = g.layout(&ordering);
    let mut mdd = MddManager::new(g.mdd_domains(&ordering));
    let root = mdd.from_coded_bdd(&bdd, build.root, &layout);
    let mut convert_s = start.elapsed().as_secs_f64();
    let bdd_stats = bdd.stats();
    let (_, drop_s) = timed(|| drop(bdd));
    convert_s += drop_s;

    Ok(Composed {
        m,
        romdd_size: mdd.node_count(root),
        mdd_peak: mdd.peak_nodes(),
        mdd,
        root,
        mv_order: ordering.mv_order,
        robdd_peak: build.peak,
        coded_size: build.size,
        presift_size,
        g_gates: g.netlist().num_gates(),
        bdd_stats,
        encode_s,
        order_s,
        build_s,
        sift_s,
        convert_s,
    })
}

/// The pipeline's own compile time: its first `evaluate` (which compiles)
/// minus its second (which only evaluates). Both select the truncation,
/// so that cost cancels. Returns the compiled pipeline too.
fn compile_seconds(probe: &Probe<'_>) -> Result<(f64, Pipeline), String> {
    let point = &probe.points[0];
    let options = AnalysisOptions { fixed_truncation: Some(probe.compile_m), ..point.options };
    let mut pipeline =
        Pipeline::new(probe.fault_tree, probe.components).map_err(|e| e.to_string())?;
    let (first, with_compile) = timed(|| pipeline.evaluate(point.lethal, &options));
    first.map_err(|e| e.to_string())?;
    let (second, evaluate_only) = timed(|| pipeline.evaluate(point.lethal, &options));
    second.map_err(|e| e.to_string())?;
    Ok(((with_compile - evaluate_only).max(0.0), pipeline))
}

/// Repetitions of a compile measurement: more for short compiles, whose
/// timings are dominated by noise.
fn repetitions(first_compile_s: f64) -> usize {
    match first_compile_s {
        s if s < 0.02 => 9,
        s if s < 0.5 => 5,
        _ => 3,
    }
}

/// Per-layer totals over the distinct compiles of one workload.
#[derive(Debug, Default)]
pub struct Layers {
    compiles: usize,
    truncate_us: Vec<f64>,
    encode_us: Vec<f64>,
    order_us: Vec<f64>,
    build_s: f64,
    sift_s: f64,
    convert_s: f64,
    compile_s: f64,
    g_gates: usize,
    peak_nodes: usize,
    peak_sum: f64,
    size_nodes: usize,
    cache_hits: u64,
    cache_misses: u64,
    cache_insertions: u64,
    cache_evictions: u64,
    unique_entries: u64,
    complement_hits: u64,
    gc_runs: u64,
    gc_reclaimed: u64,
    presift_nodes: usize,
    sifted_nodes: usize,
    romdd_nodes: usize,
    mdd_peak: usize,
    probability_us: Vec<f64>,
    ns_per_romdd_node: Vec<f64>,
    evaluate_us: Vec<f64>,
    overhead_us: Vec<f64>,
    pub delta_eval_us: Vec<f64>,
    pub delta_rebuild_ms: Vec<f64>,
    max_gap_pct: f64,
}

impl Layers {
    /// Measures one compile and the evaluation of its points, checking
    /// the composition against the untraced answers and the phase sum
    /// against the pipeline's compile time.
    pub fn trace(&mut self, probe: &Probe<'_>, checks: &mut Checks) {
        let label = &probe.label;
        let mut composed = match compose(probe) {
            Ok(c) => c,
            Err(e) => return checks.fail(format!("{label}: composition failed: {e}")),
        };
        let (mut compile_s, mut pipeline) = match compile_seconds(probe) {
            Ok(c) => c,
            Err(e) => return checks.fail(format!("{label}: compile failed: {e}")),
        };
        // Repetitions alternate which side runs first; the gate compares
        // the fastest of each, since interference on a shared host only
        // ever adds time.
        let mut phases = vec![composed.phases_s()];
        let mut compiles = vec![compile_s];
        let mut best = [
            composed.encode_s,
            composed.order_s,
            composed.build_s,
            composed.sift_s,
            composed.convert_s,
        ];
        for rep in 1..repetitions(compile_s) {
            let (again, seconds) = if rep % 2 == 1 {
                let seconds = compile_seconds(probe).map(|(s, _)| s);
                (compose(probe), seconds)
            } else {
                let again = compose(probe);
                (again, compile_seconds(probe).map(|(s, _)| s))
            };
            let (Ok(again), Ok(seconds)) = (again, seconds) else {
                return checks.fail(format!("{label}: repeated compile failed"));
            };
            phases.push(again.phases_s());
            compiles.push(seconds);
            let times =
                [again.encode_s, again.order_s, again.build_s, again.sift_s, again.convert_s];
            for (b, t) in best.iter_mut().zip(times) {
                *b = b.min(t);
            }
        }
        compile_s = min(&compiles);
        let gap = (min(&phases) - compile_s) / compile_s;
        let allowed = PHASE_GAP.max(spread(&compiles) + spread(&phases));
        self.max_gap_pct = self.max_gap_pct.max(100.0 * gap.abs());
        checks.expect(gap.abs() <= allowed, || {
            format!(
                "{label}: phases sum to {:.6} s but the compile took {compile_s:.6} s ({:+.1} %, \
                 fastest of {}, allowed {:.1} %)",
                min(&phases),
                100.0 * gap,
                compiles.len(),
                100.0 * allowed
            )
        });

        for point in &probe.points {
            let Ok(truncation) = truncation_of(point.lethal, &point.options) else {
                checks.fail(format!("{label}: truncation failed"));
                continue;
            };
            let vectors = composed.vectors(&truncation, &point.components);
            let composed_yield = 1.0 - composed.probability(&vectors);
            let untraced = &point.untraced;
            checks.expect(
                composed_yield.to_bits() == untraced.yield_lower_bound.to_bits()
                    && composed.robdd_peak == untraced.robdd_peak
                    && composed.coded_size == untraced.coded_robdd_size
                    && composed.romdd_size == untraced.romdd_size,
                || {
                    format!(
                        "{label}: composed (yield {composed_yield:e}, peak {}, coded {}, romdd {}) \
                         differs from untraced (yield {:e}, peak {}, coded {}, romdd {})",
                        composed.robdd_peak,
                        composed.coded_size,
                        composed.romdd_size,
                        untraced.yield_lower_bound,
                        untraced.robdd_peak,
                        untraced.coded_robdd_size,
                        untraced.romdd_size
                    )
                },
            );
        }

        // Evaluation of the base-system points on the compiled pipeline:
        // the whole `Pipeline::evaluate` against its ROMDD walk.
        for point in probe.points.iter().filter(|p| p.components == *probe.components) {
            let mut evaluate = Vec::new();
            let mut probability = Vec::new();
            let mut truncate = Vec::new();
            for _ in 0..5 {
                let (truncation, t) = timed(|| truncation_of(point.lethal, &point.options));
                truncate.push(t);
                let Ok(truncation) = truncation else { break };
                let vectors = composed.vectors(&truncation, &point.components);
                let (_, t) = timed(|| composed.probability(&vectors));
                probability.push(t);
                let (report, t) = timed(|| pipeline.evaluate(point.lethal, &point.options));
                evaluate.push(t);
                checks.expect(
                    report.is_ok_and(|r| {
                        r.yield_lower_bound.to_bits() == point.untraced.yield_lower_bound.to_bits()
                    }),
                    || format!("{label}: re-evaluation differs from the untraced answer"),
                );
            }
            let (e, p, t) = (min(&evaluate), min(&probability), min(&truncate));
            self.evaluate_us.push(1e6 * e);
            self.probability_us.push(1e6 * p);
            self.truncate_us.push(1e6 * t);
            self.overhead_us.push(1e6 * (e - p - t));
            self.ns_per_romdd_node.push(1e9 * p / composed.romdd_size.max(1) as f64);
        }

        self.compiles += 1;
        self.encode_us.push(1e6 * best[0]);
        self.order_us.push(1e6 * best[1]);
        self.build_s += best[2];
        self.sift_s += best[3];
        self.convert_s += best[4];
        self.compile_s += compile_s;
        self.g_gates = self.g_gates.max(composed.g_gates);
        self.peak_nodes = self.peak_nodes.max(composed.robdd_peak);
        self.peak_sum += composed.robdd_peak as f64;
        self.size_nodes = self.size_nodes.max(composed.coded_size);
        let stats = &composed.bdd_stats;
        self.cache_hits += stats.op_cache_hits;
        self.cache_misses += stats.op_cache_misses;
        self.cache_insertions += stats.op_cache_insertions;
        self.cache_evictions += stats.op_cache_evictions;
        self.unique_entries += stats.unique_entries as u64;
        self.complement_hits += stats.complement_hits;
        self.gc_runs += stats.gc_runs;
        self.gc_reclaimed += stats.gc_reclaimed;
        if let Some(presift) = composed.presift_size {
            self.presift_nodes += presift;
            self.sifted_nodes += composed.coded_size;
        }
        self.romdd_nodes = self.romdd_nodes.max(composed.romdd_size);
        self.mdd_peak = self.mdd_peak.max(composed.mdd_peak);
    }

    /// Writes the layer metrics into `out`. Per-call timings are medians
    /// over the workload's compiles or points; phase times are sums over
    /// its distinct compiles; node counts are maxima.
    pub fn export(&self, out: &mut Outcome) {
        let lookups = self.cache_hits + self.cache_misses;
        let share = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                100.0 * part as f64 / whole as f64
            }
        };
        out.set("defect.truncate_us", median(&self.truncate_us));
        out.set("core.encode_us", median(&self.encode_us));
        out.set("core.g_gates", self.g_gates as f64);
        out.set("ordering.order_us", median(&self.order_us));
        out.set("bdd.build_s", self.build_s);
        out.set("bdd.peak_nodes", self.peak_nodes as f64);
        out.set("bdd.size_nodes", self.size_nodes as f64);
        out.set("bdd.ns_per_peak_node", 1e9 * self.build_s / self.peak_sum.max(1.0));
        out.set("dd.cache_hit_pct", share(self.cache_hits, lookups));
        out.set("dd.cache_evict_pct", share(self.cache_evictions, self.cache_insertions));
        out.set("dd.cache_lookups", lookups as f64);
        out.set("dd.unique_entries", self.unique_entries as f64);
        out.set("dd.complement_hits", self.complement_hits as f64);
        out.set("bdd.sift_s", self.sift_s);
        out.set("bdd.presift_nodes", self.presift_nodes as f64);
        out.set("bdd.sifted_nodes", self.sifted_nodes as f64);
        out.set("dd.gc_runs", self.gc_runs as f64);
        out.set("dd.gc_reclaimed", self.gc_reclaimed as f64);
        out.set("mdd.convert_s", self.convert_s);
        out.set("mdd.romdd_nodes", self.romdd_nodes as f64);
        out.set("mdd.peak_nodes", self.mdd_peak as f64);
        out.set("mdd.probability_us", median(&self.probability_us));
        out.set("mdd.ns_per_romdd_node", median(&self.ns_per_romdd_node));
        out.set("core.evaluate_us", median(&self.evaluate_us));
        out.set("core.eval_overhead_us", median(&self.overhead_us));
        out.set("core.compile_s", self.compile_s);
        out.set("core.delta_eval_us", median(&self.delta_eval_us));
        out.set("core.delta_rebuild_ms", median(&self.delta_rebuild_ms));
        out.set("trace.phase_gap_pct", self.max_gap_pct);
        eprintln!(
            "traced {} compiles: largest gap between summed phases and compile time {:.2} %",
            self.compiles, self.max_gap_pct
        );
    }
}
