//! The end-to-end yield analysis pipeline.
//!
//! [`analyze`] runs the method exactly as published: select `M`, build the
//! generalized fault tree `G` in binary logic, order the variables, build
//! the coded ROBDD, convert it to the ROMDD, and evaluate `P(G = 1)` to
//! obtain the yield lower bound `Y_M = 1 − P(G = 1)`.
//!
//! [`Pipeline`] is the reusable form of the same computation for
//! design-space studies: it compiles the fault tree / coded ROBDD /
//! ROMDD once per `(ordering, conversion)` configuration, freezes the
//! ROMDD into a flat evaluation plan ([`socy_mdd::FrozenMdd`]) and then
//! [`sweep`](Pipeline::sweep)s over defect distributions and `ε` values
//! by re-evaluating probabilities on that plan — one forward pass linear
//! in the ROMDD size instead of a full recompilation per point.
//!
//! [`analyze_direct`] is an alternative pipeline that skips the coded
//! ROBDD and builds the ROMDD directly with multiple-valued operations; it
//! is used for cross-validation and as an ablation of the paper's design
//! decision that "coded ROBDDs are the most efficient way of handling
//! ROMDDs".

use std::time::{Duration, Instant};

use socy_bdd::{BddId, BddManager};
use socy_dd::{
    catch_governed, CancelToken, CompileOptions, DdError, DdStats, Governor, SiftConfig,
};
use socy_defect::truncation::{select_truncation, truncate_at, Truncation};
use socy_defect::{ComponentProbabilities, DefectDistribution};
use socy_faulttree::Netlist;
use socy_mdd::{FrozenMdd, MddId, MddManager};
use socy_ordering::{compute_ordering, ComputedOrdering, OrderingSpec};
use socy_sim::{MonteCarloYield, SimError, SimulationOptions};

use crate::degrade::{DegradeLadder, Fidelity};
use crate::delta::SystemDelta;
use crate::encode::{probability_vectors, GeneralizedFaultTree};
use crate::error::CoreError;

/// Maps a Monte-Carlo setup error onto the equivalent [`CoreError`]
/// (the two crates validate the same preconditions).
fn sim_error(e: SimError) -> CoreError {
    match e {
        SimError::FaultTree(e) => CoreError::FaultTree(e),
        SimError::Defect(e) => CoreError::Defect(e),
        SimError::ComponentCountMismatch { fault_tree, components } => {
            CoreError::ComponentCountMismatch { fault_tree, components }
        }
    }
}

/// Which coded-ROBDD → ROMDD conversion algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConversionAlgorithm {
    /// Top-down memoized conversion (default).
    #[default]
    TopDown,
    /// The paper's bottom-up layer-by-layer procedure.
    Layered,
}

/// Options controlling the yield analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisOptions {
    /// Absolute error requirement `ε` used to select the truncation `M`.
    pub epsilon: f64,
    /// Variable-ordering specification (multiple-valued ordering + bit-group
    /// ordering).
    pub spec: OrderingSpec,
    /// Conversion algorithm for the coded ROBDD → ROMDD step.
    pub conversion: ConversionAlgorithm,
    /// If set, use this truncation point instead of deriving it from
    /// `epsilon` (the reported error bound is still computed).
    pub fixed_truncation: Option<usize>,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self {
            epsilon: 1e-4,
            spec: OrderingSpec::paper_default(),
            conversion: ConversionAlgorithm::TopDown,
            fixed_truncation: None,
        }
    }
}

/// Measurements and results reported by the analysis — the columns of the
/// paper's Table 4 plus a few extras.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldReport {
    /// The yield lower bound `Y_M`.
    pub yield_lower_bound: f64,
    /// Guaranteed absolute error `1 − Σ_{k ≤ M} Q'_k`.
    pub error_bound: f64,
    /// Truncation point `M` (number of lethal defects analysed).
    pub truncation: usize,
    /// Truncation point the evaluated decision diagram was compiled at.
    /// Equal to `truncation` for [`analyze`]; during a
    /// [`Pipeline::sweep`] it can be larger, because a diagram compiled
    /// at `M` answers every truncation `≤ M` by zero-padding the `w`
    /// distribution (the size metrics below describe this diagram).
    pub compiled_truncation: usize,
    /// Number of components `C`.
    pub num_components: usize,
    /// Number of gates in the binary-logic description of `G`.
    pub g_gates: usize,
    /// Number of binary variables of the coded ROBDD.
    pub binary_variables: usize,
    /// Size (reachable nodes) of the final coded ROBDD. When the
    /// specification requests sifting this is the *post-sift* size — the
    /// pre-sift size is kept in
    /// [`presift_robdd_size`](YieldReport::presift_robdd_size).
    pub coded_robdd_size: usize,
    /// Size of the coded ROBDD as compiled under the static base
    /// ordering, before dynamic sifting improved it. `None` when the
    /// specification did not request sifting.
    pub presift_robdd_size: Option<usize>,
    /// Peak number of ROBDD nodes allocated while compiling `G`
    /// (including any transient growth during sifting).
    pub robdd_peak: usize,
    /// Size (reachable nodes) of the ROMDD.
    pub romdd_size: usize,
    /// Kernel statistics of the ROBDD manager that compiled `G`
    /// (zeros for [`analyze_direct`], which never builds a coded ROBDD).
    pub robdd_stats: DdStats,
    /// Kernel statistics of the ROMDD manager, as they stood when the
    /// conversion finished. A [`Pipeline`] releases the manager once it
    /// has frozen the diagram into its evaluation plan, so this is a
    /// compile-time snapshot; evaluation never changes these counts.
    pub romdd_stats: DdStats,
    /// Ordering specification that was used.
    pub spec: OrderingSpec,
    /// Wall-clock time spent building the coded ROBDD (of the compile
    /// that produced the evaluated diagram, whenever that compile ran).
    pub robdd_time: Duration,
    /// Wall-clock time spent converting to the ROMDD.
    pub conversion_time: Duration,
    /// Wall-clock time of this evaluation. For [`analyze`] and a
    /// [`Pipeline::evaluate`] that had to compile, this includes the
    /// compilation; points of a [`Pipeline::sweep`] never do, because the
    /// sweep compiles every configuration up front — there the compile
    /// cost is carried by `robdd_time` and `conversion_time` alone, so
    /// `total_time` can be far smaller than either.
    pub total_time: Duration,
    /// How this report was obtained: the exact method under the
    /// requested options, a degraded rung of a [`DegradeLadder`], or
    /// Monte-Carlo confidence bounds (then `yield_lower_bound` is the
    /// lower confidence limit and `error_bound` the interval width).
    pub fidelity: Fidelity,
}

/// Result of [`analyze`]: the report plus the artifacts (ROMDD manager,
/// root, probability vectors) for further inspection.
#[derive(Debug)]
pub struct YieldAnalysis {
    /// Summary measurements (Table 4 columns).
    pub report: YieldReport,
    /// The ROMDD manager holding the diagram of `G`.
    pub mdd: MddManager,
    /// Root of the ROMDD of `G`.
    pub romdd_root: MddId,
    /// Per-level value distributions used for the probability evaluation.
    pub probabilities: Vec<Vec<f64>>,
    /// Multiple-valued variable order (0 = `w`, `l` = `v_l`).
    pub mv_order: Vec<usize>,
    /// Human-readable names of the diagram levels.
    pub mv_names: Vec<String>,
}

/// The base compilation's ROBDD manager, kept alive for incremental
/// what-if recompilation: rebuilding a structurally-close variant in this
/// manager turns every gate function shared with the base into a unique
/// table / op-cache hit, so only the changed cofactor pays apply/ITE
/// work. The root handle keeps the base diagram protected against any
/// future garbage collection.
#[derive(Debug)]
struct RetainedRobdd {
    bdd: BddManager,
    _root: socy_dd::Ref,
}

/// One compiled configuration: the generalized fault tree, its ordering
/// and the converted ROMDD frozen into its evaluation plan, plus the
/// metrics of the two managers that produced it. Neither manager is
/// normally kept: the ROBDD manager is dropped after the conversion
/// (freeing the typically much larger ROBDD arena) unless it was retained
/// for incremental delta recompilation, and the ROMDD manager once the
/// plan is frozen.
#[derive(Debug)]
struct CompiledModel {
    spec: OrderingSpec,
    conversion: ConversionAlgorithm,
    truncation: usize,
    g: GeneralizedFaultTree,
    ordering: ComputedOrdering,
    plan: FrozenMdd,
    /// Statistics of the ROMDD manager the plan was frozen from.
    romdd_stats: DdStats,
    coded_robdd_size: usize,
    presift_robdd_size: Option<usize>,
    robdd_peak: usize,
    robdd_stats: DdStats,
    robdd_time: Duration,
    conversion_time: Duration,
    retained: Option<RetainedRobdd>,
}

fn new_bdd_manager(num_levels: usize, options: &CompileOptions) -> BddManager {
    let mut bdd = match options.op_cache_capacity() {
        0 => BddManager::new(num_levels),
        cap => BddManager::with_cache_capacity(num_levels, cap, cap),
    };
    if !options.complement_edges() {
        bdd.set_complement(false);
    }
    bdd
}

fn new_mdd_manager(domains: Vec<usize>, options: &CompileOptions) -> MddManager {
    match options.op_cache_capacity() {
        0 => MddManager::new(domains),
        cap => MddManager::with_cache_capacity(domains, cap, cap),
    }
}

/// Converts the coded ROBDD `root` of `g` into a fresh ROMDD manager.
/// The governor, if any, is armed on that manager for the conversion
/// only. Returns the manager, the ROMDD root and the conversion time.
fn convert(
    g: &GeneralizedFaultTree,
    ordering: &ComputedOrdering,
    bdd: &BddManager,
    root: BddId,
    conversion: ConversionAlgorithm,
    options: &CompileOptions,
    governor: Option<&Governor>,
) -> (MddManager, MddId, Duration) {
    let layout = g.layout(ordering);
    let start = Instant::now();
    let mut mdd = new_mdd_manager(g.mdd_domains(ordering), options);
    mdd.set_governor(governor.cloned());
    let romdd_root = match conversion {
        ConversionAlgorithm::TopDown => mdd.from_coded_bdd(bdd, root, &layout),
        ConversionAlgorithm::Layered => mdd.from_coded_bdd_layered(bdd, root, &layout),
    };
    let conversion_time = start.elapsed();
    mdd.set_governor(None);
    (mdd, romdd_root, conversion_time)
}

impl CompiledModel {
    /// Compiles one configuration under the resource limits of
    /// `options`: a governor (when any limit is set, or a cancellation
    /// token supplied) is armed on both managers, so one node budget and
    /// one deadline bound the ROBDD build *and* the ROMDD conversion
    /// combined. A trip aborts with [`CoreError::Resource`]; the
    /// half-built managers are local to this call and dropped, so the
    /// caller observes no state change — an immediate retry compiles
    /// bit-identically to an undisturbed run.
    ///
    /// The model holds the ROMDD frozen into its evaluation plan; the
    /// ROMDD manager and root are returned beside it, for a caller that
    /// wants to inspect the diagram. A [`Pipeline`] drops them at once.
    fn compile(
        fault_tree: &Netlist,
        truncation: usize,
        spec: OrderingSpec,
        conversion: ConversionAlgorithm,
        options: &CompileOptions,
        retain_robdd: bool,
        cancel: Option<&CancelToken>,
    ) -> Result<(Self, MddManager, MddId), CoreError> {
        let governor = Governor::from_options(options, cancel.cloned());
        match catch_governed(governor.as_ref(), || {
            Self::compile_inner(
                fault_tree,
                truncation,
                spec,
                conversion,
                options,
                retain_robdd,
                governor.as_ref(),
            )
        }) {
            Ok(result) => result,
            Err(trip) => Err(CoreError::Resource(trip)),
        }
    }

    fn compile_inner(
        fault_tree: &Netlist,
        truncation: usize,
        spec: OrderingSpec,
        conversion: ConversionAlgorithm,
        options: &CompileOptions,
        retain_robdd: bool,
        governor: Option<&Governor>,
    ) -> Result<(Self, MddManager, MddId), CoreError> {
        let g = GeneralizedFaultTree::build(fault_tree, truncation)?;
        let mut ordering = compute_ordering(g.netlist(), g.groups(), &spec)?;

        // Coded ROBDD of G.
        let robdd_start = Instant::now();
        let mut bdd = new_bdd_manager(g.netlist().num_inputs(), options);
        bdd.set_governor(governor.cloned());
        let mut build = bdd.build_netlist(g.netlist(), &ordering.var_level);

        // Dynamic sifting: move whole bit groups (so the layering
        // requirement of the ROBDD → ROMDD conversion is preserved), then
        // rewrite the computed ordering to the sifted arrangement — the
        // layout, domains and probability vectors all derive from it.
        let mut presift_robdd_size = None;
        if let Some(max_growth) = spec.sift_max_growth() {
            presift_robdd_size = Some(build.size);
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
            ordering.mv_order =
                outcome.block_origin.iter().map(|&b| ordering.mv_order[b]).collect();
            build.size = outcome.final_size;
            build.peak = bdd.peak_nodes();
        }
        let robdd_time = robdd_start.elapsed();

        let (mdd, romdd_root, conversion_time) =
            convert(&g, &ordering, &bdd, build.root, conversion, options, governor);

        // The compile completed within its limits: disarm before the
        // manager outlives this governed run (a retained manager must not
        // carry a spent budget into later delta rebuilds).
        bdd.set_governor(None);
        let robdd_stats = bdd.stats();
        // Unless retained for incremental delta recompilation, the ROBDD
        // manager is released before the plan is frozen, so the (typically
        // much larger) ROBDD arena and the plan are never resident
        // together.
        let retained = if retain_robdd {
            let root = bdd.protect(build.root);
            Some(RetainedRobdd { bdd, _root: root })
        } else {
            drop(bdd);
            None
        };
        let model = Self {
            spec,
            conversion,
            truncation,
            ordering,
            plan: mdd.freeze(romdd_root),
            romdd_stats: mdd.stats(),
            coded_robdd_size: build.size,
            presift_robdd_size,
            robdd_peak: build.peak,
            robdd_stats,
            robdd_time,
            conversion_time,
            g,
            retained,
        };
        Ok((model, mdd, romdd_root))
    }

    /// Evaluates the compiled diagram for one `(distribution, ε)` point,
    /// returning the report and the per-level probability vectors it was
    /// evaluated under.
    ///
    /// The requested truncation may be smaller than the compiled one: the
    /// `w` distribution is zero-padded, which makes the extra defect
    /// levels unreachable with probability 1 and reproduces `Y_M` of the
    /// smaller truncation exactly (up to summation order).
    fn evaluate(
        &mut self,
        truncation: &Truncation,
        components: &ComponentProbabilities,
        start: Instant,
    ) -> (YieldReport, Vec<Vec<f64>>) {
        let probabilities =
            probability_vectors(self.truncation, &self.ordering.mv_order, truncation, components);
        let p_g = self.plan.probability(&probabilities);
        let report = YieldReport {
            yield_lower_bound: 1.0 - p_g,
            error_bound: truncation.error_bound(),
            truncation: truncation.truncation(),
            compiled_truncation: self.truncation,
            num_components: self.g.num_components(),
            g_gates: self.g.netlist().num_gates(),
            binary_variables: self.g.netlist().num_inputs(),
            coded_robdd_size: self.coded_robdd_size,
            presift_robdd_size: self.presift_robdd_size,
            robdd_peak: self.robdd_peak,
            romdd_size: self.plan.node_count(),
            robdd_stats: self.robdd_stats,
            romdd_stats: self.romdd_stats,
            spec: self.spec,
            robdd_time: self.robdd_time,
            conversion_time: self.conversion_time,
            total_time: start.elapsed(),
            fidelity: Fidelity::Exact,
        };
        (report, probabilities)
    }

    /// Evaluates a *structural* delta incrementally: the variant fault
    /// tree's generalized `G` is rebuilt inside the retained ROBDD
    /// manager, where hash-consing and the retained op cache make every
    /// subfunction shared with the base an O(1) hit — only the swapped
    /// cofactor pays apply/ITE work. The rebuilt coded ROBDD is then
    /// converted into a fresh ROMDD, frozen and evaluated like any
    /// compiled model, which reproduces a from-scratch compile of the
    /// variant bit for bit (same canonical diagram, same per-node float
    /// operations).
    ///
    /// Returns `Ok(None)` when the incremental path cannot be taken
    /// soundly and the caller must fall back to a full fresh compile:
    /// when no ROBDD manager was retained, when the specification sifts
    /// dynamically (the base's sifted order reflects the base structure,
    /// so a from-scratch variant compile could legitimately sift
    /// differently), or when the variant's own computed static ordering
    /// differs from the base's (structure-dependent heuristics such as
    /// the paper-default weight heuristic can order a variant
    /// differently, and the retained manager's levels are fixed).
    fn evaluate_structural_delta(
        &mut self,
        variant: &Netlist,
        truncation: &Truncation,
        components: &ComponentProbabilities,
        options: &CompileOptions,
        cancel: Option<&CancelToken>,
        start: Instant,
    ) -> Result<Option<YieldReport>, CoreError> {
        if self.spec.sift_max_growth().is_some() {
            return Ok(None);
        }
        let Some(retained) = self.retained.as_mut() else { return Ok(None) };
        let g = GeneralizedFaultTree::build(variant, self.truncation)?;
        let ordering = compute_ordering(g.netlist(), g.groups(), &self.spec)?;
        if ordering.var_level != self.ordering.var_level
            || ordering.mv_order != self.ordering.mv_order
        {
            return Ok(None);
        }

        let conversion = self.conversion;
        let governor = Governor::from_options(options, cancel.cloned());
        retained.bdd.set_governor(governor.clone());
        let outcome = catch_governed(governor.as_ref(), || {
            let robdd_start = Instant::now();
            let build = retained.bdd.build_netlist(g.netlist(), &ordering.var_level);
            let robdd_time = robdd_start.elapsed();
            let converted = convert(
                &g,
                &ordering,
                &retained.bdd,
                build.root,
                conversion,
                options,
                governor.as_ref(),
            );
            (build, robdd_time, converted)
        });
        retained.bdd.set_governor(None);
        let (build, robdd_time, (mdd, romdd_root, conversion_time)) = match outcome {
            Ok(parts) => parts,
            Err(trip) => {
                // The aborted rebuild left garbage in the retained
                // manager; collect it so only the (root-protected) base
                // diagram remains and the manager is reusable — a later
                // rebuild of the same variant is bit-identical to one in
                // an undisturbed manager.
                retained.bdd.gc();
                return Err(CoreError::Resource(trip));
            }
        };

        let mut variant_model = CompiledModel {
            spec: self.spec,
            conversion,
            truncation: self.truncation,
            g,
            ordering,
            plan: mdd.freeze(romdd_root),
            romdd_stats: mdd.stats(),
            coded_robdd_size: build.size,
            presift_robdd_size: None,
            robdd_peak: build.peak,
            robdd_stats: retained.bdd.stats(),
            robdd_time,
            conversion_time,
            retained: None,
        };
        Ok(Some(variant_model.evaluate(truncation, components, start).0))
    }
}

/// One point of a [`Pipeline::sweep`]: a lethal-defect distribution plus
/// the analysis options to evaluate it under.
#[derive(Clone, Copy)]
pub struct SweepPoint<'a> {
    /// Distribution of the number of lethal defects.
    pub lethal: &'a dyn DefectDistribution,
    /// Options (ε, ordering spec, conversion, fixed truncation).
    pub options: AnalysisOptions,
}

impl std::fmt::Debug for SweepPoint<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepPoint").field("options", &self.options).finish_non_exhaustive()
    }
}

/// A reusable, sweepable yield-analysis pipeline for one system.
///
/// A [`Pipeline`] owns the fault tree and component model and caches one
/// compiled decision diagram per `(ordering spec, conversion)`
/// configuration. Because a diagram compiled at truncation `M` answers
/// every truncation `≤ M` (see [`YieldReport::compiled_truncation`]),
/// sweeping a design-space grid costs one compilation per configuration
/// plus one linear-time probability evaluation per point — instead of
/// the full truncate/encode/order/compile/convert chain per point that
/// repeated [`analyze`] calls pay.
///
/// Each compiled ROMDD is kept only as a [`FrozenMdd`]: a flat,
/// level-major evaluation plan whose evaluation is one forward loop,
/// bit-identical to the manager's depth-first traversal. The ROMDD
/// manager is released once the plan is frozen; its statistics survive
/// as a snapshot ([`YieldReport::romdd_stats`],
/// [`Pipeline::live_nodes`]).
///
/// # Example
///
/// ```
/// use soc_yield_core::{AnalysisOptions, Pipeline};
/// use socy_defect::{ComponentProbabilities, NegativeBinomial};
/// use socy_faulttree::Netlist;
///
/// // 1-out-of-2 system: it fails only when both components fail.
/// let mut f = Netlist::new();
/// let a = f.input("a");
/// let b = f.input("b");
/// let both = f.and([a, b]);
/// f.set_output(both);
/// let comps = ComponentProbabilities::new(vec![0.5, 0.5])?;
///
/// let mut pipeline = Pipeline::new(&f, &comps)?;
/// let lethal = NegativeBinomial::new(1.0, 4.0)?;
/// let reports =
///     pipeline.sweep_epsilons(&lethal, &[1e-2, 1e-3, 1e-4], &AnalysisOptions::default())?;
/// assert_eq!(reports.len(), 3);
/// assert_eq!(pipeline.compiled_models(), 1, "one compile serves all three ε values");
/// assert!(reports.windows(2).all(|w| w[0].truncation <= w[1].truncation));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Pipeline {
    fault_tree: Netlist,
    components: ComponentProbabilities,
    models: Vec<CompiledModel>,
    compiles: usize,
    delta_rebuilds: usize,
    /// Kernel knobs every compilation of this pipeline runs under
    /// (see [`Pipeline::set_options`]).
    options: CompileOptions,
    /// Cooperative cancellation token checked by every governed
    /// compilation (see [`Pipeline::set_cancel_token`]).
    cancel: Option<CancelToken>,
}

// Parallel sweep workers (socy-exec) each own a Pipeline and ship the
// reports over a channel; everything here is plain owned data, so the
// thread bounds hold structurally. Asserted so a future regression fails
// to compile here rather than in the executor.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Pipeline>();
    assert_send_sync::<YieldReport>();
};

impl Pipeline {
    /// Creates a pipeline for `fault_tree` under the per-component
    /// lethal-hit probabilities `components`.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] when the fault tree has no designated
    /// output or its input count disagrees with the component model.
    pub fn new(
        fault_tree: &Netlist,
        components: &ComponentProbabilities,
    ) -> Result<Self, CoreError> {
        check_system(fault_tree, components)?;
        Ok(Self {
            fault_tree: fault_tree.clone(),
            components: components.clone(),
            models: Vec::new(),
            compiles: 0,
            delta_rebuilds: 0,
            options: CompileOptions::default(),
            cancel: None,
        })
    }

    /// Creates a pipeline that compiles under the given kernel
    /// [`CompileOptions`] (see [`Pipeline::new`] for the errors).
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::new`].
    pub fn with_options(
        fault_tree: &Netlist,
        components: &ComponentProbabilities,
        options: CompileOptions,
    ) -> Result<Self, CoreError> {
        let mut pipeline = Self::new(fault_tree, components)?;
        pipeline.options = options;
        Ok(pipeline)
    }

    /// Sets the kernel knobs (complemented edges, op-cache capacity,
    /// resource limits) every subsequent compilation runs under. These
    /// are resource/representation knobs, not analysis options: every
    /// yield, error bound, truncation and ROMDD node count is
    /// bit-identical at every setting, so they deliberately live outside
    /// [`AnalysisOptions`] and never participate in model reuse keys.
    pub fn set_options(&mut self, options: CompileOptions) {
        self.options = options;
    }

    /// The kernel knobs compilations run under.
    pub fn options(&self) -> CompileOptions {
        self.options
    }

    /// Installs a cooperative cancellation token checked by every
    /// subsequent governed compilation. Cancelling the token makes
    /// in-flight and future compilations fail with
    /// [`CoreError::Resource`]`(`[`DdError::Cancelled`]`)`; evaluations
    /// served from already-compiled diagrams are unaffected. Pass `None`
    /// to detach.
    pub fn set_cancel_token(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    /// The fault tree this pipeline analyses.
    pub fn fault_tree(&self) -> &Netlist {
        &self.fault_tree
    }

    /// The component probability model.
    pub fn components(&self) -> &ComponentProbabilities {
        &self.components
    }

    /// Number of decision diagrams currently compiled (one per
    /// `(ordering spec, conversion)` configuration used so far).
    pub fn compiled_models(&self) -> usize {
        self.models.len()
    }

    /// Total compilations this pipeline has performed over its lifetime,
    /// including recompilations at a larger truncation. Stays constant
    /// across evaluations served entirely from compiled diagrams —
    /// callers (caches, tests) use the delta to prove an evaluation paid
    /// no compilation.
    pub fn compiles(&self) -> usize {
        self.compiles
    }

    /// Live (post-GC) ROMDD nodes across all compiled models, as their
    /// managers counted them when each compile finished — the
    /// steady-state size of keeping this pipeline resident, as opposed
    /// to the transient `peak_nodes` high-water mark. Cache eviction
    /// budgets are charged against this.
    pub fn live_nodes(&self) -> usize {
        self.models.iter().map(|m| m.romdd_stats.live_nodes).sum()
    }

    /// Drops all compiled diagrams, releasing their memory.
    pub fn clear(&mut self) {
        self.models.clear();
    }

    /// Index of a model usable for truncation `m` under `(spec,
    /// conversion)`, compiling (or recompiling at the larger `m`) when
    /// necessary. With `retain_robdd` the model must additionally hold
    /// its ROBDD manager for incremental delta recompilation; a resident
    /// model that dropped its manager is recompiled once with retention.
    fn ensure_model_inner(
        &mut self,
        m: usize,
        spec: OrderingSpec,
        conversion: ConversionAlgorithm,
        retain_robdd: bool,
    ) -> Result<usize, CoreError> {
        let same_config = |c: &CompiledModel| c.spec == spec && c.conversion == conversion;
        if let Some(i) = self.models.iter().position(|c| {
            same_config(c) && c.truncation >= m && (!retain_robdd || c.retained.is_some())
        }) {
            return Ok(i);
        }
        // Never shrink: a deeper resident diagram keeps serving every
        // smaller truncation, so recompiles (for depth or retention)
        // happen at the largest truncation seen for this configuration.
        let m = self
            .models
            .iter()
            .filter(|c| same_config(c))
            .map(|c| c.truncation)
            .max()
            .unwrap_or(0)
            .max(m);
        let (model, _, _) = CompiledModel::compile(
            &self.fault_tree,
            m,
            spec,
            conversion,
            &self.options,
            retain_robdd,
            self.cancel.as_ref(),
        )?;
        self.compiles += 1;
        match self.models.iter().position(same_config) {
            Some(i) => {
                self.models[i] = model;
                Ok(i)
            }
            None => {
                self.models.push(model);
                Ok(self.models.len() - 1)
            }
        }
    }

    /// Index of a model usable for truncation `m` under `(spec,
    /// conversion)`, compiling (or recompiling at the larger `m`) when
    /// necessary.
    fn ensure_model(
        &mut self,
        m: usize,
        spec: OrderingSpec,
        conversion: ConversionAlgorithm,
    ) -> Result<usize, CoreError> {
        self.ensure_model_inner(m, spec, conversion, false)
    }

    /// Evaluates one `(distribution, options)` point, reusing a compiled
    /// diagram when one covers the required truncation.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] when the truncation point cannot be
    /// reached or the ordering specification is invalid.
    pub fn evaluate(
        &mut self,
        lethal: &dyn DefectDistribution,
        options: &AnalysisOptions,
    ) -> Result<YieldReport, CoreError> {
        let start = Instant::now();
        let truncation = truncation_for(lethal, options)?;
        let idx = self.ensure_model(truncation.truncation(), options.spec, options.conversion)?;
        Ok(self.models[idx].evaluate(&truncation, &self.components, start).0)
    }

    /// Evaluates every point of a design-space sweep with artifact reuse:
    /// each `(ordering spec, conversion)` configuration is compiled once,
    /// at the largest truncation any of its points needs, and every point
    /// then costs one probability evaluation.
    ///
    /// # Errors
    ///
    /// Fails on the first point whose truncation selection or compilation
    /// fails; reports of earlier points are discarded.
    pub fn sweep<'a, I>(&mut self, points: I) -> Result<Vec<YieldReport>, CoreError>
    where
        I: IntoIterator<Item = SweepPoint<'a>>,
    {
        let points: Vec<SweepPoint<'a>> = points.into_iter().collect();
        let mut truncations = Vec::with_capacity(points.len());
        for point in &points {
            truncations.push(truncation_for(point.lethal, &point.options)?);
        }
        // Compile each configuration once, at the largest truncation it needs.
        let mut maxima: Vec<(OrderingSpec, ConversionAlgorithm, usize)> = Vec::new();
        for (point, trunc) in points.iter().zip(&truncations) {
            let (spec, conversion) = (point.options.spec, point.options.conversion);
            match maxima.iter_mut().find(|(s, c, _)| *s == spec && *c == conversion) {
                Some((_, _, m)) => *m = (*m).max(trunc.truncation()),
                None => maxima.push((spec, conversion, trunc.truncation())),
            }
        }
        for (spec, conversion, m) in maxima {
            self.ensure_model(m, spec, conversion)?;
        }
        points
            .iter()
            .zip(&truncations)
            .map(|(point, trunc)| {
                let start = Instant::now();
                let idx = self.ensure_model(
                    trunc.truncation(),
                    point.options.spec,
                    point.options.conversion,
                )?;
                Ok(self.models[idx].evaluate(trunc, &self.components, start).0)
            })
            .collect()
    }

    /// Sweeps the error requirement `ε` for one distribution, keeping the
    /// other options fixed.
    ///
    /// # Errors
    ///
    /// See [`Pipeline::sweep`].
    pub fn sweep_epsilons(
        &mut self,
        lethal: &dyn DefectDistribution,
        epsilons: &[f64],
        options: &AnalysisOptions,
    ) -> Result<Vec<YieldReport>, CoreError> {
        self.sweep(epsilons.iter().map(|&epsilon| SweepPoint {
            lethal,
            options: AnalysisOptions { epsilon, fixed_truncation: None, ..*options },
        }))
    }

    /// Sweeps a set of lethal-defect distributions (e.g. a λ or α grid)
    /// under fixed options.
    ///
    /// # Errors
    ///
    /// See [`Pipeline::sweep`].
    pub fn sweep_distributions<'a, I>(
        &mut self,
        lethals: I,
        options: &AnalysisOptions,
    ) -> Result<Vec<YieldReport>, CoreError>
    where
        I: IntoIterator<Item = &'a dyn DefectDistribution>,
    {
        self.sweep(lethals.into_iter().map(|lethal| SweepPoint { lethal, options: *options }))
    }

    /// Incremental recompilations performed by
    /// [`sweep_deltas`](Pipeline::sweep_deltas): structural variants
    /// rebuilt inside a retained ROBDD manager instead of compiled from
    /// scratch. Like [`compiles`](Pipeline::compiles), callers use the
    /// delta of this counter to prove which path an evaluation took.
    pub fn delta_rebuilds(&self) -> usize {
        self.delta_rebuilds
    }

    /// Evaluates a family of what-if [`SystemDelta`]s against the base
    /// system, under one `(distribution, options)` point so the whole
    /// family shares one truncation `M`.
    ///
    /// The base configuration is compiled (or reused) once; each delta is
    /// then served by the cheapest sound path:
    ///
    /// * **swap-only deltas** (distribution overrides, lethality flips,
    ///   whole-model replacements — no structural change) re-evaluate the
    ///   resident ROMDD with the materialized component probabilities:
    ///   zero kernel work, a traversal linear in the ROMDD size.
    /// * **structural deltas** (subtree swaps) are rebuilt inside the
    ///   retained base ROBDD manager, where hash-consing turns every
    ///   subfunction shared with the base into a cache hit — only the
    ///   changed cofactor pays apply/ITE work
    ///   ([`delta_rebuilds`](Pipeline::delta_rebuilds) counts these).
    /// * when the incremental path is unsound for a structural delta
    ///   (sifted specification, or the variant's own computed ordering
    ///   differs from the base's), it falls back to a full fresh compile
    ///   of the materialized variant, counted by
    ///   [`compiles`](Pipeline::compiles).
    ///
    /// Every path reproduces a from-scratch compile of the materialized
    /// variant bit for bit — same yields, error bounds, truncations and
    /// ROMDD node counts — provided the base was compiled at exactly the
    /// family's truncation (always true for a pipeline whose first use is
    /// the delta sweep; a deeper resident diagram answers with the usual
    /// zero-padded evaluation instead, exact up to summation order).
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] when the truncation selection or a
    /// compilation fails, or a delta is inconsistent with the base system
    /// ([`CoreError::InvalidDelta`]).
    pub fn sweep_deltas(
        &mut self,
        lethal: &dyn DefectDistribution,
        options: &AnalysisOptions,
        deltas: &[SystemDelta],
    ) -> Result<Vec<YieldReport>, CoreError> {
        let truncation = truncation_for(lethal, options)?;
        // Retaining the base ROBDD manager only pays off when a
        // structural delta can actually use it (sifted bases never can).
        let needs_retained =
            options.spec.sift_max_growth().is_none() && deltas.iter().any(|d| !d.is_swap_only());
        let idx = self.ensure_model_inner(
            truncation.truncation(),
            options.spec,
            options.conversion,
            needs_retained,
        )?;
        let mut reports = Vec::with_capacity(deltas.len());
        for delta in deltas {
            let start = Instant::now();
            if delta.is_swap_only() {
                let components = delta.materialize_components(&self.components)?;
                reports.push(self.models[idx].evaluate(&truncation, &components, start).0);
                continue;
            }
            let (variant, components) = delta.materialize(&self.fault_tree, &self.components)?;
            if let Some(report) = self.models[idx].evaluate_structural_delta(
                &variant,
                &truncation,
                &components,
                &self.options,
                self.cancel.as_ref(),
                start,
            )? {
                self.delta_rebuilds += 1;
                reports.push(report);
                continue;
            }
            // Unsound to recompile incrementally: compile the variant
            // from scratch. The variant model is deliberately not cached
            // in `models` — it describes a different system.
            let (mut model, _, _) = CompiledModel::compile(
                &variant,
                truncation.truncation(),
                options.spec,
                options.conversion,
                &self.options,
                false,
                self.cancel.as_ref(),
            )?;
            self.compiles += 1;
            reports.push(model.evaluate(&truncation, &components, start).0);
        }
        Ok(reports)
    }

    /// Evaluates one point like [`Pipeline::evaluate`], but retreats down
    /// `ladder` instead of failing when the governed compilation exceeds
    /// its resource limits ([`CompileOptions::node_budget`] /
    /// [`CompileOptions::deadline_ms`]).
    ///
    /// Each exact-method rung recompiles under the same limits (fresh
    /// governor per attempt) with the rung's cheaper
    /// [`AnalysisOptions`]; when every rung is over budget the analysis
    /// falls back to [`Pipeline::evaluate_bounds`]. The returned report's
    /// [`fidelity`](YieldReport::fidelity) says which rung answered.
    ///
    /// Cancellation is never degraded around: a cancelled compilation
    /// returns [`CoreError::Resource`]`(`[`DdError::Cancelled`]`)`
    /// immediately — the caller asked for the work to stop, not for a
    /// cheaper version of it.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] on cancellation or when the analysis fails
    /// for a non-resource reason (malformed inputs, unreachable
    /// truncation, invalid ordering) — resource exhaustion itself is
    /// always absorbed by the Monte-Carlo fallback.
    pub fn evaluate_governed(
        &mut self,
        lethal: &dyn DefectDistribution,
        options: &AnalysisOptions,
        ladder: &DegradeLadder,
    ) -> Result<YieldReport, CoreError> {
        match self.evaluate(lethal, options) {
            Ok(report) => return Ok(report),
            Err(CoreError::Resource(DdError::Cancelled)) => {
                return Err(CoreError::Resource(DdError::Cancelled));
            }
            Err(CoreError::Resource(_)) => {}
            Err(e) => return Err(e),
        }
        for step in &ladder.steps {
            let degraded = step.apply(options);
            match self.evaluate(lethal, &degraded) {
                Ok(mut report) => {
                    report.fidelity = Fidelity::Degraded { step: *step };
                    return Ok(report);
                }
                Err(CoreError::Resource(DdError::Cancelled)) => {
                    return Err(CoreError::Resource(DdError::Cancelled));
                }
                Err(CoreError::Resource(_)) => {}
                Err(e) => return Err(e),
            }
        }
        self.evaluate_bounds(lethal, options, ladder)
    }

    /// Estimates the yield by `socy-sim` Monte-Carlo sampling — the final
    /// rung of the degradation ladder, and directly useful when a caller
    /// wants statistical bounds without attempting a compile at all
    /// (e.g. a request with a zero time budget).
    ///
    /// The returned report carries [`Fidelity::Bounds`]:
    /// `yield_lower_bound` is the lower confidence limit at `ladder.z`
    /// standard errors and `error_bound` the interval width. Diagram-side
    /// fields (sizes, stats, times) are zero — no diagram was built. For
    /// a fixed `(samples, seed)` the bounds are deterministic and
    /// independent of thread counts.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] when the fault tree or defect model is
    /// malformed.
    pub fn evaluate_bounds(
        &self,
        lethal: &dyn DefectDistribution,
        options: &AnalysisOptions,
        ladder: &DegradeLadder,
    ) -> Result<YieldReport, CoreError> {
        let start = Instant::now();
        let sim = MonteCarloYield::new(
            &self.fault_tree,
            &self.components,
            lethal,
            SimulationOptions::default(),
        )
        .map_err(sim_error)?;
        let estimate = sim.run(ladder.samples, ladder.seed);
        let (lower, upper) = estimate.confidence_interval(ladder.z);
        Ok(YieldReport {
            yield_lower_bound: lower,
            error_bound: upper - lower,
            truncation: 0,
            compiled_truncation: 0,
            num_components: self.components.len(),
            g_gates: 0,
            binary_variables: 0,
            coded_robdd_size: 0,
            presift_robdd_size: None,
            robdd_peak: 0,
            romdd_size: 0,
            robdd_stats: DdStats::default(),
            romdd_stats: DdStats::default(),
            spec: options.spec,
            robdd_time: Duration::ZERO,
            conversion_time: Duration::ZERO,
            total_time: start.elapsed(),
            fidelity: Fidelity::Bounds { lower, upper },
        })
    }
}

/// Runs the combinatorial yield method (coded ROBDD → ROMDD pipeline).
///
/// `fault_tree` is the gate-level fault tree `F` over the component failed
/// states (input variable `i` ⇔ component `i`), `components` the lethal-hit
/// probabilities `P_i`, and `lethal` the distribution of the number of
/// **lethal** defects `Q'` (use
/// [`socy_defect::NegativeBinomial::thinned`] or
/// [`socy_defect::lethal::thin_empirical`] to obtain it from a raw defect
/// distribution).
///
/// This is the one-shot form of a [`Pipeline`] evaluation — the same
/// compile, evaluated through the same frozen plan — that also hands back
/// the ROMDD manager; design-space studies evaluating several
/// `(distribution, ε, ordering)` points should build a [`Pipeline`] and
/// [`sweep`](Pipeline::sweep) it instead.
///
/// # Errors
///
/// Returns a [`CoreError`] when the fault tree is malformed, the component
/// count disagrees with the probability model, the truncation point cannot
/// be reached, or the ordering specification is invalid.
pub fn analyze(
    fault_tree: &Netlist,
    components: &ComponentProbabilities,
    lethal: &dyn DefectDistribution,
    options: &AnalysisOptions,
) -> Result<YieldAnalysis, CoreError> {
    let start = Instant::now();
    check_system(fault_tree, components)?;
    let truncation = truncation_for(lethal, options)?;
    let (mut model, mdd, romdd_root) = CompiledModel::compile(
        fault_tree,
        truncation.truncation(),
        options.spec,
        options.conversion,
        &CompileOptions::default(),
        false,
        None,
    )?;
    let (report, probabilities) = model.evaluate(&truncation, components, start);
    let mv_names = model.g.mv_names(&model.ordering);
    Ok(YieldAnalysis {
        report,
        mdd,
        romdd_root,
        probabilities,
        mv_order: model.ordering.mv_order,
        mv_names,
    })
}

/// Checks that `fault_tree` has a designated output and one input per
/// component of `components`.
fn check_system(
    fault_tree: &Netlist,
    components: &ComponentProbabilities,
) -> Result<(), CoreError> {
    fault_tree.output()?;
    if fault_tree.num_inputs() != components.len() {
        return Err(CoreError::ComponentCountMismatch {
            fault_tree: fault_tree.num_inputs(),
            components: components.len(),
        });
    }
    Ok(())
}

/// The truncation a point is evaluated at: `options.fixed_truncation`
/// when set, otherwise the smallest `M` meeting `options.epsilon`.
fn truncation_for(
    lethal: &dyn DefectDistribution,
    options: &AnalysisOptions,
) -> Result<Truncation, CoreError> {
    Ok(match options.fixed_truncation {
        Some(m) => truncate_at(lethal, m)?,
        None => select_truncation(lethal, options.epsilon)?,
    })
}

fn prepare(
    fault_tree: &Netlist,
    components: &ComponentProbabilities,
    lethal: &dyn DefectDistribution,
    options: &AnalysisOptions,
) -> Result<(GeneralizedFaultTree, ComputedOrdering, Truncation), CoreError> {
    check_system(fault_tree, components)?;
    let truncation = truncation_for(lethal, options)?;
    let g = GeneralizedFaultTree::build(fault_tree, truncation.truncation())?;
    let ordering = compute_ordering(g.netlist(), g.groups(), &options.spec)?;
    Ok((g, ordering, truncation))
}

/// Runs the yield analysis building the ROMDD *directly* with
/// multiple-valued operations (no coded ROBDD). The report's
/// `coded_robdd_size`, `robdd_peak` and `robdd_stats` fields are zero in
/// this mode; the `romdd_size` and the yield must agree with [`analyze`].
/// A [`OrderingSpec::Sifted`] specification contributes only its static
/// base here — dynamic sifting is a feature of the compiled
/// coded-ROBDD pipeline.
///
/// # Errors
///
/// Same as [`analyze`].
pub fn analyze_direct(
    fault_tree: &Netlist,
    components: &ComponentProbabilities,
    lethal: &dyn DefectDistribution,
    options: &AnalysisOptions,
) -> Result<YieldAnalysis, CoreError> {
    let start = Instant::now();
    let (g, ordering, truncation) = prepare(fault_tree, components, lethal, options)?;
    let m = g.truncation();

    // Position of each multiple-valued variable in the diagram order.
    let mut position = vec![0usize; ordering.mv_order.len()];
    for (pos, &mv) in ordering.mv_order.iter().enumerate() {
        position[mv] = pos;
    }

    let conversion_start = Instant::now();
    let mut mdd = MddManager::new(g.mdd_domains(&ordering));
    let w_level = position[0];
    // x_i = OR_l ( I_{>=l}(w) AND I_{i}(v_l) )   (domain value i-1 encodes component i)
    let mut x = Vec::with_capacity(g.num_components());
    for component in 0..g.num_components() {
        let mut terms = Vec::with_capacity(m);
        for (l, &pos) in position.iter().enumerate().skip(1).take(m) {
            let ge = mdd.value_at_least(w_level, l);
            let hit = mdd.value_is(pos, component);
            terms.push(mdd.and(ge, hit));
        }
        x.push(mdd.or_many(terms));
    }
    // F over the x_i, evaluated gate by gate with MDD operations.
    let f_root = build_fault_tree_mdd(&mut mdd, fault_tree, &x)?;
    let clamp = mdd.value_is(w_level, m + 1);
    let romdd_root = mdd.or(clamp, f_root);
    let conversion_time = conversion_start.elapsed();

    // Evaluated with the reference traversal rather than a frozen plan, so
    // that cross-checking this engine against `analyze` also checks the
    // plan against the traversal.
    let probabilities = g.probability_vectors(&ordering, &truncation, components);
    let p_g = mdd.probability(romdd_root, &probabilities);
    let report = YieldReport {
        yield_lower_bound: 1.0 - p_g,
        error_bound: truncation.error_bound(),
        truncation: truncation.truncation(),
        compiled_truncation: truncation.truncation(),
        num_components: g.num_components(),
        g_gates: g.netlist().num_gates(),
        binary_variables: g.netlist().num_inputs(),
        coded_robdd_size: 0,
        presift_robdd_size: None,
        robdd_peak: 0,
        romdd_size: mdd.node_count(romdd_root),
        robdd_stats: DdStats::default(),
        romdd_stats: mdd.stats(),
        spec: options.spec,
        robdd_time: Duration::ZERO,
        conversion_time,
        total_time: start.elapsed(),
        fidelity: Fidelity::Exact,
    };
    let mv_names = g.mv_names(&ordering);
    Ok(YieldAnalysis {
        report,
        mdd,
        romdd_root,
        probabilities,
        mv_order: ordering.mv_order,
        mv_names,
    })
}

/// Evaluates the fault tree `F` gate by gate over MDD operands (one per
/// component / input variable).
fn build_fault_tree_mdd(
    mdd: &mut MddManager,
    fault_tree: &Netlist,
    inputs: &[MddId],
) -> Result<MddId, CoreError> {
    use socy_faulttree::GateKind;
    let output = fault_tree.output()?;
    let mut results: Vec<MddId> = Vec::with_capacity(fault_tree.len());
    for (id, gate) in fault_tree.iter() {
        let value = match gate.kind {
            GateKind::Input => inputs[fault_tree.var_of(id).expect("input has a variable").index()],
            GateKind::Const(c) => mdd.constant(c),
            GateKind::Not => {
                let a = results[gate.fanin[0].index()];
                mdd.not(a)
            }
            GateKind::And => {
                let ops: Vec<MddId> = gate.fanin.iter().map(|f| results[f.index()]).collect();
                mdd.and_many(ops)
            }
            GateKind::Or => {
                let ops: Vec<MddId> = gate.fanin.iter().map(|f| results[f.index()]).collect();
                mdd.or_many(ops)
            }
            GateKind::Xor => {
                let ops: Vec<MddId> = gate.fanin.iter().map(|f| results[f.index()]).collect();
                let mut acc = mdd.zero();
                for op in ops {
                    acc = mdd.xor(acc, op);
                }
                acc
            }
            GateKind::AtLeast(k) => {
                let ops: Vec<MddId> = gate.fanin.iter().map(|f| results[f.index()]).collect();
                mdd.at_least(k as usize, &ops)
            }
        };
        results.push(value);
    }
    Ok(results[output.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use socy_defect::{Empirical, NegativeBinomial};
    use socy_ordering::{GroupOrdering, MvOrdering};

    /// F = x1·x2 + x3 (Figure 2).
    fn figure2() -> Netlist {
        let mut nl = Netlist::new();
        let x1 = nl.input("x1");
        let x2 = nl.input("x2");
        let x3 = nl.input("x3");
        let a = nl.and([x1, x2]);
        let f = nl.or([a, x3]);
        nl.set_output(f);
        nl
    }

    fn hand_yield(q: &[f64], p: &[f64], m: usize) -> f64 {
        // Direct enumeration of Y_M = Σ_k Q'_k Y_k for F = x1 x2 + x3.
        let c = p.len();
        let mut total = 0.0;
        for (k, &qk) in q.iter().enumerate().take(m + 1) {
            // enumerate component choices for k defects
            let combos = c.pow(k as u32);
            let mut yk = 0.0;
            for combo in 0..combos {
                let mut rest = combo;
                let mut failed = vec![false; c];
                let mut weight = 1.0;
                for _ in 0..k {
                    let comp = rest % c;
                    rest /= c;
                    failed[comp] = true;
                    weight *= p[comp];
                }
                let f_val = (failed[0] && failed[1]) || failed[2];
                if !f_val {
                    yk += weight;
                }
            }
            total += qk * yk;
        }
        total
    }

    #[test]
    fn pipeline_matches_hand_enumeration() {
        let f = figure2();
        let comps = ComponentProbabilities::new(vec![0.2, 0.3, 0.5]).unwrap();
        let lethal = Empirical::new(vec![0.5, 0.3, 0.15, 0.05]).unwrap();
        let options = AnalysisOptions { fixed_truncation: Some(2), ..AnalysisOptions::default() };
        let analysis = analyze(&f, &comps, &lethal, &options).unwrap();
        let expect = hand_yield(&[0.5, 0.3, 0.15], &[0.2, 0.3, 0.5], 2);
        assert!(
            (analysis.report.yield_lower_bound - expect).abs() < 1e-12,
            "got {}, expected {expect}",
            analysis.report.yield_lower_bound
        );
        assert_eq!(analysis.report.truncation, 2);
        assert_eq!(analysis.report.compiled_truncation, 2);
        assert!((analysis.report.error_bound - 0.05).abs() < 1e-12);
        assert!(analysis.report.coded_robdd_size > 0);
        assert!(analysis.report.robdd_peak >= analysis.report.coded_robdd_size);
        assert!(analysis.report.romdd_size > 0);
        assert_eq!(analysis.report.num_components, 3);
        assert_eq!(analysis.mv_order.len(), 3);
        assert_eq!(analysis.mv_names.len(), 3);
        assert_eq!(analysis.probabilities.len(), 3);
        // Kernel statistics are populated for both managers.
        assert_eq!(analysis.report.robdd_stats.peak_nodes, analysis.report.robdd_peak);
        assert!(analysis.report.robdd_stats.op_cache_misses > 0);
        assert_eq!(analysis.report.romdd_stats.peak_nodes, analysis.mdd.peak_nodes());
    }

    #[test]
    fn direct_mdd_agrees_with_coded_robdd_pipeline() {
        let f = figure2();
        let comps = ComponentProbabilities::new(vec![0.2, 0.3, 0.5]).unwrap();
        let lethal = NegativeBinomial::new(1.0, 0.25).unwrap();
        let options = AnalysisOptions::default();
        let coded = analyze(&f, &comps, &lethal, &options).unwrap();
        let direct = analyze_direct(&f, &comps, &lethal, &options).unwrap();
        assert!((coded.report.yield_lower_bound - direct.report.yield_lower_bound).abs() < 1e-12);
        // Both construct the same canonical ROMDD, so the sizes must agree too.
        assert_eq!(coded.report.romdd_size, direct.report.romdd_size);
        assert_eq!(direct.report.robdd_stats, DdStats::default());
    }

    #[test]
    fn layered_conversion_agrees_with_top_down() {
        let f = figure2();
        let comps = ComponentProbabilities::new(vec![0.4, 0.4, 0.2]).unwrap();
        let lethal = NegativeBinomial::new(2.0, 0.25).unwrap();
        let top_down = analyze(&f, &comps, &lethal, &AnalysisOptions::default()).unwrap();
        let layered = analyze(
            &f,
            &comps,
            &lethal,
            &AnalysisOptions {
                conversion: ConversionAlgorithm::Layered,
                ..AnalysisOptions::default()
            },
        )
        .unwrap();
        assert_eq!(top_down.report.romdd_size, layered.report.romdd_size);
        assert!(
            (top_down.report.yield_lower_bound - layered.report.yield_lower_bound).abs() < 1e-15
        );
    }

    #[test]
    fn all_orderings_give_the_same_yield() {
        // The yield is a property of the function, not of the variable order.
        let f = figure2();
        let comps = ComponentProbabilities::new(vec![0.25, 0.25, 0.5]).unwrap();
        let lethal = NegativeBinomial::new(1.0, 0.5).unwrap();
        let mut yields = Vec::new();
        for mv in MvOrdering::ALL {
            for group in [GroupOrdering::MsbFirst, GroupOrdering::LsbFirst] {
                let spec = OrderingSpec::new(mv, group).unwrap();
                let options = AnalysisOptions { spec, ..AnalysisOptions::default() };
                let analysis = analyze(&f, &comps, &lethal, &options).unwrap();
                yields.push(analysis.report.yield_lower_bound);
            }
        }
        for y in &yields {
            assert!((y - yields[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn sifted_spec_preserves_the_yield_and_reports_both_sizes() {
        let f = figure2();
        let comps = ComponentProbabilities::new(vec![0.2, 0.3, 0.5]).unwrap();
        let lethal = NegativeBinomial::new(1.0, 4.0).unwrap();
        let options = AnalysisOptions::default();
        let fixed = analyze(&f, &comps, &lethal, &options).unwrap();
        assert_eq!(fixed.report.presift_robdd_size, None, "static runs do not sift");
        let sifted_options =
            AnalysisOptions { spec: OrderingSpec::paper_default().with_sifting(300), ..options };
        let sifted = analyze(&f, &comps, &lethal, &sifted_options).unwrap();
        // Sifting permutes variables, never the function: the yield is a
        // property of G and the distributions alone.
        assert!(
            (fixed.report.yield_lower_bound - sifted.report.yield_lower_bound).abs() < 1e-12,
            "static {} vs sifted {}",
            fixed.report.yield_lower_bound,
            sifted.report.yield_lower_bound
        );
        let presift = sifted.report.presift_robdd_size.expect("sifted runs record both sizes");
        assert_eq!(presift, fixed.report.coded_robdd_size);
        assert!(sifted.report.coded_robdd_size <= presift, "sifting never ends worse");
        assert!(sifted.report.spec.label().ends_with("+sift"));
        // The sifted ROMDD still answers every evaluation consistently.
        assert!(sifted.report.romdd_size > 0);
        // A sweep through a pipeline with a sifted spec compiles once and
        // agrees with static evaluations of the same ε points.
        let epsilons = [1e-2, 1e-4];
        let mut pipeline = Pipeline::new(&f, &comps).unwrap();
        let reports = pipeline.sweep_epsilons(&lethal, &epsilons, &sifted_options).unwrap();
        assert_eq!(pipeline.compiled_models(), 1);
        for (report, &epsilon) in reports.iter().zip(&epsilons) {
            assert!(report.presift_robdd_size.is_some());
            let exact =
                analyze(&f, &comps, &lethal, &AnalysisOptions { epsilon, ..options }).unwrap();
            assert_eq!(report.truncation, exact.report.truncation);
            assert!(
                (report.yield_lower_bound - exact.report.yield_lower_bound).abs() < 1e-12,
                "ε={epsilon}: sifted sweep {} vs static {}",
                report.yield_lower_bound,
                exact.report.yield_lower_bound
            );
        }
    }

    #[test]
    fn error_bound_meets_epsilon() {
        let f = figure2();
        let comps = ComponentProbabilities::new(vec![1.0 / 3.0; 3]).unwrap();
        let lethal = NegativeBinomial::new(2.0, 0.25).unwrap();
        for &eps in &[1e-2, 1e-4, 1e-6] {
            let options = AnalysisOptions { epsilon: eps, ..AnalysisOptions::default() };
            let analysis = analyze(&f, &comps, &lethal, &options).unwrap();
            assert!(analysis.report.error_bound <= eps);
        }
        // A tighter epsilon never decreases the truncation point.
        let loose = analyze(
            &f,
            &comps,
            &lethal,
            &AnalysisOptions { epsilon: 1e-2, ..AnalysisOptions::default() },
        )
        .unwrap();
        let tight = analyze(
            &f,
            &comps,
            &lethal,
            &AnalysisOptions { epsilon: 1e-6, ..AnalysisOptions::default() },
        )
        .unwrap();
        assert!(tight.report.truncation >= loose.report.truncation);
    }

    #[test]
    fn component_count_mismatch_is_detected() {
        let f = figure2();
        let comps = ComponentProbabilities::new(vec![0.5, 0.5]).unwrap();
        let lethal = NegativeBinomial::new(1.0, 0.25).unwrap();
        let err = analyze(&f, &comps, &lethal, &AnalysisOptions::default()).unwrap_err();
        assert!(matches!(err, CoreError::ComponentCountMismatch { .. }));
        let err = Pipeline::new(&f, &comps).unwrap_err();
        assert!(matches!(err, CoreError::ComponentCountMismatch { .. }));
    }

    #[test]
    fn lethality_below_one_uses_thinned_distribution() {
        // With P_L = 0.5 the lethal distribution is thinner, so the same epsilon
        // needs a smaller truncation point than with P_L = 1.
        let f = figure2();
        let raw = NegativeBinomial::new(2.0, 0.25).unwrap();
        let comps_full = ComponentProbabilities::from_weights(&[1.0, 1.0, 1.0], 1.0).unwrap();
        let comps_half = ComponentProbabilities::from_weights(&[1.0, 1.0, 1.0], 0.5).unwrap();
        let lethal_full = raw.thinned(comps_full.lethality()).unwrap();
        let lethal_half = raw.thinned(comps_half.lethality()).unwrap();
        let a_full = analyze(&f, &comps_full, &lethal_full, &AnalysisOptions::default()).unwrap();
        let a_half = analyze(&f, &comps_half, &lethal_half, &AnalysisOptions::default()).unwrap();
        assert!(a_half.report.truncation < a_full.report.truncation);
        assert!(a_half.report.yield_lower_bound > a_full.report.yield_lower_bound);
    }

    #[test]
    fn pipeline_evaluate_matches_analyze() {
        let f = figure2();
        let comps = ComponentProbabilities::new(vec![0.2, 0.3, 0.5]).unwrap();
        let lethal = NegativeBinomial::new(1.0, 4.0).unwrap();
        let options = AnalysisOptions { epsilon: 1e-3, ..AnalysisOptions::default() };
        let one_shot = analyze(&f, &comps, &lethal, &options).unwrap();
        let mut pipeline = Pipeline::new(&f, &comps).unwrap();
        let report = pipeline.evaluate(&lethal, &options).unwrap();
        assert_eq!(report.yield_lower_bound, one_shot.report.yield_lower_bound);
        assert_eq!(report.romdd_size, one_shot.report.romdd_size);
        assert_eq!(report.coded_robdd_size, one_shot.report.coded_robdd_size);
        assert_eq!(report.robdd_peak, one_shot.report.robdd_peak);
        // A second evaluation at the same point reuses the compiled model.
        let again = pipeline.evaluate(&lethal, &options).unwrap();
        assert_eq!(pipeline.compiled_models(), 1);
        assert_eq!(again.yield_lower_bound, report.yield_lower_bound);
    }

    #[test]
    fn sweep_reuses_one_compile_per_configuration() {
        let f = figure2();
        let comps = ComponentProbabilities::new(vec![0.2, 0.3, 0.5]).unwrap();
        let lethal = NegativeBinomial::new(1.0, 4.0).unwrap();
        let options = AnalysisOptions::default();
        let epsilons = [1e-2, 1e-3, 1e-5];
        let mut pipeline = Pipeline::new(&f, &comps).unwrap();
        let reports = pipeline.sweep_epsilons(&lethal, &epsilons, &options).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(pipeline.compiled_models(), 1, "one diagram must serve all ε values");
        let max_m = reports.iter().map(|r| r.truncation).max().unwrap();
        for (report, &epsilon) in reports.iter().zip(&epsilons) {
            assert!(report.error_bound <= epsilon);
            assert_eq!(report.compiled_truncation, max_m);
            // The padded evaluation must agree with a fresh exact-truncation run.
            let exact =
                analyze(&f, &comps, &lethal, &AnalysisOptions { epsilon, ..options }).unwrap();
            assert_eq!(report.truncation, exact.report.truncation);
            assert!(
                (report.yield_lower_bound - exact.report.yield_lower_bound).abs() < 1e-12,
                "ε={epsilon}: swept {} vs exact {}",
                report.yield_lower_bound,
                exact.report.yield_lower_bound
            );
        }
    }

    #[test]
    fn sweep_distributions_and_specs() {
        let f = figure2();
        let comps = ComponentProbabilities::new(vec![0.25, 0.35, 0.4]).unwrap();
        let nb1 = NegativeBinomial::new(0.5, 4.0).unwrap();
        let nb2 = NegativeBinomial::new(1.5, 4.0).unwrap();
        let options = AnalysisOptions { epsilon: 1e-3, ..AnalysisOptions::default() };
        let mut pipeline = Pipeline::new(&f, &comps).unwrap();
        let reports = pipeline
            .sweep_distributions(
                [&nb1 as &dyn DefectDistribution, &nb2 as &dyn DefectDistribution],
                &options,
            )
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(pipeline.compiled_models(), 1);
        assert!(reports[0].yield_lower_bound > reports[1].yield_lower_bound);
        // A second ordering spec compiles its own model but reuses it across points.
        let other_spec = OrderingSpec::new(MvOrdering::Wv, GroupOrdering::MsbFirst).unwrap();
        let points = [&nb1, &nb2].map(|lethal| SweepPoint {
            lethal: lethal as &dyn DefectDistribution,
            options: AnalysisOptions { spec: other_spec, ..options },
        });
        let other = pipeline.sweep(points).unwrap();
        assert_eq!(pipeline.compiled_models(), 2);
        for (a, b) in reports.iter().zip(&other) {
            assert!((a.yield_lower_bound - b.yield_lower_bound).abs() < 1e-12);
        }
    }

    /// The OR of the same three inputs as [`figure2`] — a replacement
    /// module for its x1·x2 subtree.
    fn or_module() -> Netlist {
        let mut nl = Netlist::new();
        let x1 = nl.input("x1");
        let x2 = nl.input("x2");
        nl.input("x3");
        let or = nl.or([x1, x2]);
        nl.set_output(or);
        nl
    }

    fn and_gate_of(f: &Netlist) -> socy_faulttree::NodeId {
        use socy_faulttree::GateKind;
        f.iter().find(|(_, g)| matches!(g.kind, GateKind::And)).expect("has an AND gate").0
    }

    #[test]
    fn delta_sweep_matches_from_scratch_compiles() {
        use crate::delta::SystemDelta;

        let f = figure2();
        let comps = ComponentProbabilities::new(vec![0.2, 0.3, 0.5]).unwrap();
        let lethal = NegativeBinomial::new(1.0, 4.0).unwrap();
        let options = AnalysisOptions { epsilon: 1e-3, ..AnalysisOptions::default() };

        let deltas = [
            SystemDelta::named("base"),
            SystemDelta::named("x2-weak").with_component_probability(1, 0.25),
            SystemDelta::named("x3-immune").with_component_probability(2, 0.0),
            SystemDelta::named("and-becomes-or")
                .with_subtree_swap(&f, and_gate_of(&f), &or_module())
                .unwrap(),
        ];

        let mut pipeline = Pipeline::new(&f, &comps).unwrap();
        let reports = pipeline.sweep_deltas(&lethal, &options, &deltas).unwrap();
        assert_eq!(reports.len(), deltas.len());
        assert_eq!(pipeline.compiles(), 1, "the family shares one base compile");
        assert_eq!(pipeline.delta_rebuilds(), 1, "the structural delta rebuilt incrementally");

        for (report, delta) in reports.iter().zip(&deltas) {
            let (variant, components) = delta.materialize(&f, &comps).unwrap();
            let scratch = analyze(&variant, &components, &lethal, &options).unwrap();
            assert_eq!(
                report.yield_lower_bound,
                scratch.report.yield_lower_bound,
                "{}: delta path must be bit-identical to a from-scratch compile",
                delta.name()
            );
            assert_eq!(report.truncation, scratch.report.truncation, "{}", delta.name());
            assert_eq!(report.error_bound, scratch.report.error_bound, "{}", delta.name());
            assert_eq!(report.romdd_size, scratch.report.romdd_size, "{}", delta.name());
        }
        // The base point reproduces the plain evaluation.
        let plain = analyze(&f, &comps, &lethal, &options).unwrap();
        assert_eq!(reports[0].yield_lower_bound, plain.report.yield_lower_bound);
        // Swap-only deltas move the yield in the expected direction.
        assert!(reports[2].yield_lower_bound > reports[0].yield_lower_bound);
    }

    #[test]
    fn sifted_delta_sweep_falls_back_to_fresh_compiles() {
        use crate::delta::SystemDelta;

        let f = figure2();
        let comps = ComponentProbabilities::new(vec![0.2, 0.3, 0.5]).unwrap();
        let lethal = NegativeBinomial::new(1.0, 4.0).unwrap();
        let options = AnalysisOptions {
            epsilon: 1e-2,
            spec: OrderingSpec::paper_default().with_sifting(300),
            ..AnalysisOptions::default()
        };
        let deltas = [SystemDelta::named("or-swap")
            .with_subtree_swap(&f, and_gate_of(&f), &or_module())
            .unwrap()];

        let mut pipeline = Pipeline::new(&f, &comps).unwrap();
        let reports = pipeline.sweep_deltas(&lethal, &options, &deltas).unwrap();
        assert_eq!(pipeline.delta_rebuilds(), 0, "sifted bases never rebuild incrementally");
        assert_eq!(pipeline.compiles(), 2, "base compile plus the fallback variant compile");
        let (variant, components) = deltas[0].materialize(&f, &comps).unwrap();
        let scratch = analyze(&variant, &components, &lethal, &options).unwrap();
        assert_eq!(reports[0].yield_lower_bound, scratch.report.yield_lower_bound);
        assert_eq!(reports[0].romdd_size, scratch.report.romdd_size);
    }

    #[test]
    fn fixed_truncation_points_sweep_without_recompiling_downward() {
        let f = figure2();
        let comps = ComponentProbabilities::new(vec![0.2, 0.3, 0.5]).unwrap();
        let lethal = Empirical::new(vec![0.4, 0.3, 0.2, 0.05, 0.05]).unwrap();
        let mut pipeline = Pipeline::new(&f, &comps).unwrap();
        let base = AnalysisOptions::default();
        let points = [4usize, 2, 3].map(|m| SweepPoint {
            lethal: &lethal as &dyn DefectDistribution,
            options: AnalysisOptions { fixed_truncation: Some(m), ..base },
        });
        let reports = pipeline.sweep(points).unwrap();
        assert_eq!(pipeline.compiled_models(), 1);
        assert_eq!(reports[0].compiled_truncation, 4);
        assert_eq!(reports[1].truncation, 2);
        for (report, m) in reports.iter().zip([4usize, 2, 3]) {
            let exact = analyze(
                &f,
                &comps,
                &lethal,
                &AnalysisOptions { fixed_truncation: Some(m), ..base },
            )
            .unwrap();
            assert!((report.yield_lower_bound - exact.report.yield_lower_bound).abs() < 1e-12);
        }
    }
}
