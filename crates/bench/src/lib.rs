//! Experiment harness reproducing the paper's tables.
//!
//! The binaries in `src/bin/` regenerate the evaluation section:
//!
//! * `table1` — benchmark inventory (components, gates);
//! * `table2` — ROMDD sizes under the seven multiple-valued variable
//!   orderings;
//! * `table3` — coded-ROBDD sizes under the `ml` / `lm` / `w` bit-group
//!   orderings;
//! * `table4` — full pipeline metrics (CPU time, ROBDD peak, ROBDD size,
//!   ROMDD size, yield) with the `w` + `ml` heuristics, cross-checked
//!   against the Monte-Carlo simulator on the smaller instances;
//! * `sift_compare` — static orderings vs dynamic group sifting;
//! * `bench_matrix` — the pinned perf matrix behind the repo's
//!   `BENCH_sweep.json` trajectory artifact ([`BenchSweepDoc`]);
//! * `anchor_check` — the CI gate diffing fresh JSON dumps against the
//!   pinned fixtures ([`diff_anchors`]).
//!
//! Every binary accepts `--max-components <C>` to bound the instance sizes
//! (the larger paper instances need several minutes and a few GiB of RAM,
//! exactly as the original did on a Sun-Blade-1000), `--json <path>`
//! to additionally dump machine-readable rows, and `--threads <N>` to
//! size the parallel sweep engine's worker pool ([`run_table`]; results
//! are bit-identical for every thread count).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use serde::Serialize;

use soc_yield_core::{
    AnalysisOptions, CompileOptions, CoreError, DegradeLadder, Pipeline, YieldReport,
};
use socy_benchmarks::BenchmarkSystem;
use socy_defect::{DefectError, NegativeBinomial};
use socy_exec::{
    NamedDistribution, PipelineLru, SweepBlock, SweepError, SweepMatrix, SweepOutcome,
    SweepSummary, SystemSpec, TruncationRule,
};
use socy_ordering::OrderingSpec;

/// Clustering parameter `α` used by all experiments. The paper's value is
/// unreadable in the scanned text; `α = 4` together with `ε = 1e-3`
/// reproduces the truncation points it reports (M = 6 for λ' = 1 and
/// M = 10 for λ' = 2) — see DESIGN.md.
pub const ALPHA: f64 = 4.0;
/// Error requirement `ε` used by all experiments (see [`ALPHA`]).
pub const EPSILON: f64 = 1e-3;
/// Overall lethality `P_L` (the paper uses 1, so `λ' = λ`).
pub const LETHALITY: f64 = 1.0;
/// The two expected lethal-defect counts evaluated by the paper.
pub const LAMBDAS: [f64; 2] = [1.0, 2.0];

/// One experiment configuration: a benchmark instance and an expected
/// number of lethal defects.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The benchmark system.
    pub system: BenchmarkSystem,
    /// Expected number of lethal defects `λ'`.
    pub lambda: f64,
}

impl Workload {
    /// Label used by the tables, e.g. `MS4, λ'=1`.
    pub fn label(&self) -> String {
        format!("{}, λ'={}", self.system.name, self.lambda)
    }
}

/// The workload list of Tables 2–4: every benchmark at `λ' = 1`, plus the
/// smaller instances at `λ' = 2` (the paper, too, only reports the larger
/// instances for the moderate defect density).
pub fn paper_workloads(max_components: usize) -> Vec<Workload> {
    let mut workloads = Vec::new();
    for system in socy_benchmarks::paper_benchmarks() {
        if system.num_components() <= max_components {
            workloads.push(Workload { system: system.clone(), lambda: 1.0 });
        }
    }
    for system in socy_benchmarks::paper_benchmarks() {
        let small_enough =
            matches!(system.name.as_str(), "MS2" | "MS4" | "ESEN4x1" | "ESEN4x2" | "ESEN4x4");
        if small_enough && system.num_components() <= max_components {
            workloads.push(Workload { system, lambda: 2.0 });
        }
    }
    workloads
}

/// A machine-readable result row (serialised by `--json`).
#[derive(Debug, Clone, Serialize)]
pub struct ResultRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Expected number of lethal defects.
    pub lambda: f64,
    /// Ordering specification label (`mv/group`).
    pub ordering: String,
    /// Truncation point `M`.
    pub truncation: usize,
    /// Number of components.
    pub components: usize,
    /// Gates in the fault tree `F`.
    pub fault_tree_gates: usize,
    /// Gates in the binary-logic description of `G`.
    pub g_gates: usize,
    /// Coded-ROBDD size (reachable nodes).
    pub robdd_size: usize,
    /// Peak ROBDD nodes during construction.
    pub robdd_peak: usize,
    /// ROMDD size (reachable nodes).
    pub romdd_size: usize,
    /// Yield lower bound `Y_M`.
    pub yield_lower_bound: f64,
    /// Guaranteed absolute error bound.
    pub error_bound: f64,
    /// Fidelity of this row's answer: `exact` for a compiled evaluation,
    /// `bounds` for a Monte-Carlo confidence interval produced when the
    /// governed compilation tripped its resource budget (then
    /// `yield_lower_bound` is the lower CI bound, `error_bound` the CI
    /// width, and the diagram-size fields are zero).
    pub fidelity: String,
    /// Entries in the ROBDD manager's unique table after the build.
    pub robdd_unique_entries: usize,
    /// ROBDD operation-cache hits during the build.
    pub robdd_cache_hits: u64,
    /// ROBDD operation-cache misses during the build.
    pub robdd_cache_misses: u64,
    /// ROBDD operation-cache evictions (lossy direct-mapped conflicts)
    /// during the build.
    pub robdd_cache_evictions: u64,
    /// ROBDD operation-cache hit rate of the build, in percent.
    pub robdd_cache_hit_percent: f64,
    /// ROBDD operation-cache evict rate (evictions per insertion) of the
    /// build, in percent.
    pub robdd_cache_evict_percent: f64,
    /// ROBDD operation-cache hits obtained through a complemented-edge
    /// negation normalization (`0` when complemented edges are off).
    /// Counts cache behaviour, so the anchors treat it as volatile.
    pub robdd_complement_hits: u64,
    /// Wall-clock seconds of this row's evaluation. For rows produced by
    /// a sweep this **excludes** the compile, which
    /// [`compile_seconds`](ResultRow::compile_seconds) carries; for rows
    /// produced by a one-shot [`Pipeline::evaluate`] that had to compile,
    /// it includes it (see [`YieldReport::total_time`]).
    pub seconds: f64,
    /// Wall-clock seconds of the compile that produced the evaluated
    /// diagram (coded-ROBDD build + ROMDD conversion).
    pub compile_seconds: f64,
}

impl ResultRow {
    /// Builds a row from a workload and a finished report.
    pub fn from_report(workload: &Workload, report: &YieldReport) -> Self {
        Self {
            benchmark: workload.system.name.clone(),
            lambda: workload.lambda,
            ordering: report.spec.label(),
            truncation: report.truncation,
            components: report.num_components,
            fault_tree_gates: workload.system.num_gates(),
            g_gates: report.g_gates,
            robdd_size: report.coded_robdd_size,
            robdd_peak: report.robdd_peak,
            romdd_size: report.romdd_size,
            yield_lower_bound: report.yield_lower_bound,
            error_bound: report.error_bound,
            fidelity: report.fidelity.tag(),
            robdd_unique_entries: report.robdd_stats.unique_entries,
            robdd_cache_hits: report.robdd_stats.op_cache_hits,
            robdd_cache_misses: report.robdd_stats.op_cache_misses,
            robdd_cache_evictions: report.robdd_stats.op_cache_evictions,
            robdd_cache_hit_percent: report.robdd_stats.op_cache_hit_rate_percent(),
            robdd_cache_evict_percent: report.robdd_stats.op_cache_evict_rate_percent(),
            robdd_complement_hits: report.robdd_stats.complement_hits,
            seconds: report.total_time.as_secs_f64(),
            compile_seconds: (report.robdd_time + report.conversion_time).as_secs_f64(),
        }
    }
}

/// Errors surfaced by the harness.
#[derive(Debug)]
pub enum HarnessError {
    /// The analysis itself failed.
    Core(CoreError),
    /// The defect model could not be constructed.
    Defect(DefectError),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Core(e) => write!(f, "{e}"),
            HarnessError::Defect(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<CoreError> for HarnessError {
    fn from(e: CoreError) -> Self {
        HarnessError::Core(e)
    }
}

impl From<DefectError> for HarnessError {
    fn from(e: DefectError) -> Self {
        HarnessError::Defect(e)
    }
}

/// Default live-node budget of a [`Runner`]'s pipeline cache: enough to
/// keep a handful of the paper's systems resident (their ROMDDs are
/// hundreds to a few thousand nodes each) while bounding a long table
/// run that touches every benchmark.
pub const RUNNER_LIVE_NODE_BUDGET: usize = 1 << 16;

/// A harness that keeps the [`Pipeline`]s of the benchmark systems it
/// recently worked on in an LRU cache ([`PipelineLru`]), so consecutive
/// evaluations of the same system (another ordering spec, another λ'
/// whose truncation a compiled diagram already covers) skip the
/// truncate/encode/order/compile/convert chain.
///
/// A diagram is reused only when it covers the requested truncation at
/// the same ordering spec; the shipped tables iterate λ' in ascending
/// order, so every printed row reports the sizes of a diagram compiled
/// at exactly that row's truncation, as the paper's tables do. Eviction
/// is charged against **live** (post-GC) ROMDD nodes —
/// [`Pipeline::live_nodes`], the same cost definition the `socy-serve`
/// cache uses — never against the transient `peak_nodes` high-water
/// mark, so a long-lived pipeline is not evicted for construction
/// pressure it has already garbage-collected.
pub struct Runner {
    cache: PipelineLru<String>,
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

impl Runner {
    /// Creates an empty runner with the default live-node budget
    /// [`RUNNER_LIVE_NODE_BUDGET`].
    pub fn new() -> Self {
        Self::with_budget(Some(RUNNER_LIVE_NODE_BUDGET))
    }

    /// Creates an empty runner evicting down to `budget` summed live
    /// nodes (`None` disables eviction).
    pub fn with_budget(budget: Option<usize>) -> Self {
        Self { cache: PipelineLru::new(budget) }
    }

    /// The underlying pipeline cache (for inspecting hit/miss/eviction
    /// counters or residency).
    pub fn cache(&self) -> &PipelineLru<String> {
        &self.cache
    }

    /// Runs one workload under one ordering spec, reusing a cached
    /// pipeline when one is resident for the same system, and returns
    /// the full [`YieldReport`].
    ///
    /// # Errors
    ///
    /// Propagates analysis or defect-model construction failures.
    pub fn run_report(
        &mut self,
        workload: &Workload,
        spec: OrderingSpec,
    ) -> Result<YieldReport, HarnessError> {
        let components = workload.system.component_probabilities(LETHALITY)?;
        let raw = NegativeBinomial::new(workload.lambda / LETHALITY, ALPHA)?;
        let lethal = raw.thinned(components.lethality())?;
        let options = AnalysisOptions { epsilon: EPSILON, spec, ..AnalysisOptions::default() };
        let name = &workload.system.name;
        let pipeline = self.cache.get_or_try_insert_with(name, || {
            Pipeline::new(&workload.system.fault_tree, &components).map_err(HarnessError::from)
        })?;
        Ok(pipeline.evaluate(&lethal, &options)?)
    }

    /// Like [`Runner::run_report`], condensed into a table [`ResultRow`].
    ///
    /// # Errors
    ///
    /// Propagates analysis or defect-model construction failures.
    pub fn run(
        &mut self,
        workload: &Workload,
        spec: OrderingSpec,
    ) -> Result<ResultRow, HarnessError> {
        let report = self.run_report(workload, spec)?;
        Ok(ResultRow::from_report(workload, &report))
    }
}

/// Runs the full pipeline for one workload under one ordering spec
/// (one-shot; tables iterating many points should share a [`Runner`]
/// or, better, batch everything into one [`run_table`] call).
///
/// # Errors
///
/// Propagates analysis or defect-model construction failures.
pub fn run_workload(workload: &Workload, spec: OrderingSpec) -> Result<ResultRow, HarnessError> {
    Runner::new().run(workload, spec)
}

/// Answers one table cell with deterministic Monte-Carlo confidence
/// bounds (`fidelity: "bounds"`) instead of a compiled evaluation — the
/// graceful-degradation fallback the tables use when a governed
/// compilation trips its resource budget (the exploding `vw` / `vrw`
/// orderings under a pinned `--node-budget`). The bounds depend only on
/// the fault tree and the defect model, never on the diagrams, so the
/// row is bit-identical at every thread count and complement mode and
/// can be pinned as an anchor fixture.
///
/// # Errors
///
/// Propagates simulation or defect-model construction failures.
pub fn bounds_row(workload: &Workload, spec: OrderingSpec) -> Result<ResultRow, HarnessError> {
    let components = workload.system.component_probabilities(LETHALITY)?;
    let raw = NegativeBinomial::new(workload.lambda / LETHALITY, ALPHA)?;
    let lethal = raw.thinned(components.lethality())?;
    let options = AnalysisOptions { epsilon: EPSILON, spec, ..AnalysisOptions::default() };
    let pipeline = Pipeline::new(&workload.system.fault_tree, &components)?;
    let report = pipeline.evaluate_bounds(&lethal, &options, &DegradeLadder::bounds_only())?;
    Ok(ResultRow::from_report(workload, &report))
}

/// The [`SystemSpec`] of a benchmark workload (shared lethality
/// [`LETHALITY`], like the tables).
///
/// # Errors
///
/// Propagates defect-model construction failures.
pub fn system_spec(system: &BenchmarkSystem) -> Result<SystemSpec, HarnessError> {
    let components = system.component_probabilities(LETHALITY)?;
    Ok(SystemSpec::new(system.name.clone(), system.fault_tree.clone(), components))
}

/// The thinned lethal-defect distribution of a workload, named like the
/// table rows (`λ'=1`).
///
/// # Errors
///
/// Propagates defect-model construction failures.
pub fn workload_distribution(workload: &Workload) -> Result<NamedDistribution, HarnessError> {
    let components = workload.system.component_probabilities(LETHALITY)?;
    let raw = NegativeBinomial::new(workload.lambda / LETHALITY, ALPHA)?;
    let lethal = raw.thinned(components.lethality())?;
    Ok(NamedDistribution::new(format!("λ'={}", workload.lambda), lethal))
}

/// Result of [`run_table`]: per-cell reports in the same shape as the
/// request, plus the engine's aggregate statistics.
#[derive(Debug)]
pub struct TableOutcome {
    /// One entry per requested `(workload, specs)` cell, holding one
    /// result per spec, in order.
    pub cells: Vec<Vec<Result<YieldReport, SweepError>>>,
    /// Aggregate execution statistics of the underlying sweep.
    pub summary: SweepSummary,
}

/// Evaluates a whole table — a list of `(workload, ordering specs)`
/// cells — through the parallel sweep engine ([`SweepMatrix::run`]) and
/// regroups the reports per cell.
///
/// Each cell becomes its own [`SweepBlock`], so every printed row
/// reports the metrics of a decision diagram compiled at exactly that
/// row's truncation (the behaviour of the serial [`Runner`] tables, and
/// of the paper's). The engine guarantees results are bit-identical for
/// every `threads` value.
///
/// # Errors
///
/// Fails up front on defect-model construction errors; per-point
/// analysis failures are reported inside the affected cell instead, so
/// one exploding configuration does not take down the whole table.
pub fn run_table(
    cells: &[(Workload, Vec<OrderingSpec>)],
    threads: usize,
    options: CompileOptions,
) -> Result<TableOutcome, HarnessError> {
    let mut matrix = SweepMatrix::new();
    matrix.options = options;
    for (workload, specs) in cells {
        let mut block = SweepBlock::new();
        block.systems.push(system_spec(&workload.system)?);
        block.distributions.push(workload_distribution(workload)?);
        block.specs = specs.clone();
        block.rules.push(TruncationRule::Epsilon(EPSILON));
        matrix.add(block);
    }
    let outcome = matrix.run(threads);
    let summary = outcome.summary;
    let mut points = outcome.points.into_iter();
    let cells = cells
        .iter()
        .map(|(_, specs)| {
            specs
                .iter()
                .map(|_| points.next().expect("one point per requested spec").result)
                .collect()
        })
        .collect();
    Ok(TableOutcome { cells, summary })
}

/// One-line execution summary printed by the table binaries, e.g.
/// `12 points · 12 chunks · 4 threads · 1.23 s`.
pub fn summary_line(summary: &SweepSummary) -> String {
    format!(
        "{} points · {} chunks · {} thread{} · {} s",
        summary.points,
        summary.chunks,
        summary.threads,
        if summary.threads == 1 { "" } else { "s" },
        fmt_seconds(summary.wall_time),
    )
}

/// Formats a duration as seconds with two decimals (Table 4 style).
pub fn fmt_seconds(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Common CLI options of the table binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliArgs {
    /// Skip instances with more components than this.
    pub max_components: usize,
    /// Optional path for a machine-readable JSON dump of the rows.
    pub json: Option<String>,
    /// Worker threads for the parallel sweep engine (`0` = all available
    /// cores). Any value produces bit-identical tables; it only changes
    /// the wall-clock time.
    pub threads: usize,
    /// The shared kernel knobs and resource limits
    /// (`--no-complement-edges`, `--op-cache-capacity`, `--node-budget`,
    /// `--deadline-ms`): one [`CompileOptions`] value parsed through
    /// [`CompileOptions::parse_cli_flag`] — the same helper the `serve`
    /// binary uses, so both CLIs expose exactly one flag surface.
    pub options: CompileOptions,
    /// Optional baseline `BENCH_sweep.json` to compare wall-clock times
    /// against (`bench_matrix` only).
    pub baseline: Option<String>,
    /// Compile every what-if delta of the pinned matrix from scratch as
    /// its own materialized system instead of taking the incremental
    /// delta path (`bench_matrix --scratch-deltas`; the CI gate diffs
    /// the two modes).
    pub scratch_deltas: bool,
}

/// Usage text of the table binaries' shared flags (followed by
/// [`CompileOptions::CLI_HELP`]).
const CLI_USAGE: &str = "\
Usage: {bin} [--max-components C] [--json PATH] [--threads N]
             [--baseline PATH] [--scratch-deltas] [compile options]

  --max-components C   skip instances with more than C components
  --json PATH          also write the results as JSON to PATH
  --threads N          sweep worker threads (0 = all cores; default 0)
  --baseline PATH      compare wall clocks against a saved
                       BENCH_sweep.json (bench_matrix only)
  --scratch-deltas     compile every what-if variant from scratch
                       (bench_matrix only)";

/// The usage text of the table binary `bin`.
fn cli_usage(bin: &str) -> String {
    format!("{}\n{}", CLI_USAGE.replace("{bin}", bin), CompileOptions::CLI_HELP)
}

/// Parses the common CLI flags of the table binaries:
/// `--max-components <C>`, `--json <path>`, `--threads <N>`,
/// `--baseline <path>`, `--scratch-deltas`, plus the shared
/// [`CompileOptions`] surface (see [`CompileOptions::CLI_HELP`]).
///
/// # Errors
///
/// Returns a one-line message naming the offending argument when a flag
/// is unknown or its value is missing or malformed.
pub fn parse_cli_from(
    default_max: usize,
    args: impl IntoIterator<Item = String>,
) -> Result<CliArgs, String> {
    let mut parsed = CliArgs {
        max_components: default_max,
        json: None,
        threads: 0,
        options: CompileOptions::default(),
        baseline: None,
        scratch_deltas: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if parsed.options.parse_cli_flag(&arg, &mut args)? {
            continue;
        }
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} requires {what}"));
        match arg.as_str() {
            "--max-components" => {
                parsed.max_components = value("an integer")?
                    .parse()
                    .map_err(|_| format!("{arg} requires an integer"))?;
            }
            "--json" => parsed.json = Some(value("a path")?),
            "--threads" => {
                parsed.threads = value("an integer")?
                    .parse()
                    .map_err(|_| format!("{arg} requires an integer"))?;
            }
            "--baseline" => parsed.baseline = Some(value("a path")?),
            "--scratch-deltas" => parsed.scratch_deltas = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Parses the process arguments with [`parse_cli_from`]. A bad argument
/// prints the error and the usage and exits 2, like the `serve` binary.
pub fn parse_cli(default_max: usize) -> CliArgs {
    let mut argv = std::env::args();
    let path = argv.next().unwrap_or_default();
    let bin = path.rsplit('/').next().unwrap_or(&path);
    parse_cli_from(default_max, argv).unwrap_or_else(|message| {
        eprintln!("{bin}: {message}\n{}", cli_usage(bin));
        std::process::exit(2)
    })
}

/// Whether an anchor JSON field is volatile — wall-clock measurements
/// and execution-environment knobs that legitimately differ from run to
/// run and machine to machine. Everything else (node counts, peaks,
/// truncations, cache statistics including `*complement_hits`, yields) is
/// gated bit-for-bit.
pub fn is_volatile_anchor_field(name: &str) -> bool {
    name == "seconds" || name == "threads" || name.ends_with("_seconds")
}

/// Whether an anchor JSON field legitimately *changes* when complemented
/// edges are toggled: the ROBDD-side node counts (`robdd_size`,
/// `robdd_peak`, `robdd_unique_entries`, the `robdd_peak_*` aggregates)
/// — complemented edges share one node between each function and its
/// negation, so the physical diagram shrinks — plus every cache counter
/// (`*_cache_*`; the two modes probe different keys). Everything the
/// paper reports — yields, error bounds, truncations, ROMDD node counts —
/// is complement-invariant.
pub fn is_complement_variant_anchor_field(name: &str) -> bool {
    name.starts_with("robdd_") || name.contains("_cache_")
}

/// Field-exemption policy of one anchor comparison.
/// [Volatile](is_volatile_anchor_field) fields are exempt under every
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffPolicy {
    /// Gate every other field bit-for-bit (the default).
    Strict,
    /// Exempt the [complement-variant](is_complement_variant_anchor_field)
    /// fields too, while yields, error bounds, truncations and ROMDD node
    /// counts stay gated bit-for-bit. CI gates a `--no-complement-edges`
    /// regeneration against the complement-enabled fixture this way,
    /// proving the toggle a pure representation knob.
    ComplementInvariant,
    /// [`DiffPolicy::ComplementInvariant`] plus the execution-shape field
    /// `chunks`: a delta family runs as one chunk (on a retained base
    /// manager, so ROBDD peaks and cache tallies differ too) while its
    /// from-scratch materialization runs one chunk per variant. CI gates
    /// a `bench_matrix --scratch-deltas` regeneration against the
    /// delta-path fixture this way.
    DeltaEquivalence,
}

/// The `anchor_check` flags and the policies they select. The argument
/// loop and the usage text both read this table; no flag means
/// [`DiffPolicy::Strict`].
pub const DIFF_POLICY_FLAGS: [(&str, DiffPolicy); 2] = [
    ("--complement-invariant", DiffPolicy::ComplementInvariant),
    ("--delta-equivalence", DiffPolicy::DeltaEquivalence),
];

impl DiffPolicy {
    fn exempt(self, name: &str) -> bool {
        is_volatile_anchor_field(name)
            || (self != DiffPolicy::Strict && is_complement_variant_anchor_field(name))
            || (self == DiffPolicy::DeltaEquivalence && name == "chunks")
    }
}

/// Maximum number of per-field divergences reported by
/// [`diff_anchor_values`] before the tail is summarised.
const MAX_REPORTED_DIVERGENCES: usize = 20;

/// Structurally compares two anchor JSON documents, ignoring the fields
/// `policy` exempts, and returns one readable line per divergent field
/// (`path: fixture … actual …`). Numbers must match bit-for-bit (floats
/// are compared by their bit patterns, so even last-ulp yield drift is
/// caught).
///
/// # Errors
///
/// Returns a readable message when either document is not valid JSON.
pub fn diff_anchor_values(
    fixture: &str,
    actual: &str,
    policy: DiffPolicy,
) -> Result<Vec<String>, String> {
    let fixture =
        serde_json::from_str(fixture).map_err(|e| format!("fixture is malformed: {e}"))?;
    let actual = serde_json::from_str(actual).map_err(|e| format!("actual is malformed: {e}"))?;
    let mut diffs = Vec::new();
    diff_values(&fixture, &actual, "$", policy, &mut diffs);
    if diffs.len() > MAX_REPORTED_DIVERGENCES {
        let more = diffs.len() - MAX_REPORTED_DIVERGENCES;
        diffs.truncate(MAX_REPORTED_DIVERGENCES);
        diffs.push(format!("… and {more} more divergent fields"));
    }
    Ok(diffs)
}

fn describe(value: &serde::Value) -> String {
    match value {
        serde::Value::Array(items) => format!("an array of {} items", items.len()),
        serde::Value::Object(fields) => format!("an object with {} fields", fields.len()),
        other => other.to_pretty_string(),
    }
}

fn diff_values(
    fixture: &serde::Value,
    actual: &serde::Value,
    path: &str,
    policy: DiffPolicy,
    out: &mut Vec<String>,
) {
    use serde::Value;
    match (fixture, actual) {
        (Value::Array(f), Value::Array(a)) => {
            if f.len() != a.len() {
                out.push(format!("{path}: fixture has {} rows, actual has {}", f.len(), a.len()));
            }
            for (i, (fv, av)) in f.iter().zip(a).enumerate() {
                diff_values(fv, av, &format!("{path}[{i}]"), policy, out);
            }
        }
        (Value::Object(f), Value::Object(a)) => {
            for (name, fv) in f {
                if policy.exempt(name) {
                    continue;
                }
                match a.iter().find(|(n, _)| n == name) {
                    Some((_, av)) => diff_values(fv, av, &format!("{path}.{name}"), policy, out),
                    None => out.push(format!("{path}.{name}: missing from actual")),
                }
            }
            for (name, _) in a {
                if !policy.exempt(name) && !f.iter().any(|(n, _)| n == name) {
                    out.push(format!("{path}.{name}: not in fixture"));
                }
            }
        }
        // Floats are gated on exact bit patterns: the anchors pin the
        // pipeline's arithmetic, not a tolerance band.
        (Value::Float(f), Value::Float(a)) if f.to_bits() == a.to_bits() => {}
        (Value::Float(_), Value::Float(_)) => {
            out.push(format!("{path}: fixture {} actual {}", describe(fixture), describe(actual)));
        }
        (f, a) if f == a => {}
        _ => {
            out.push(format!("{path}: fixture {} actual {}", describe(fixture), describe(actual)));
        }
    }
}

/// Diffs two anchor JSON dumps under [`DiffPolicy::Strict`]. Returns
/// `None` when they agree and a human-readable per-field report otherwise
/// (including when either document is malformed).
pub fn diff_anchors(fixture: &str, actual: &str) -> Option<String> {
    match diff_anchor_values(fixture, actual, DiffPolicy::Strict) {
        Err(message) => Some(message),
        Ok(diffs) if diffs.is_empty() => None,
        Ok(diffs) => Some(diffs.join("\n")),
    }
}

/// Schema tag of the `BENCH_sweep.json` perf artifact.
pub const BENCH_SWEEP_SCHEMA: &str = "socy-bench-sweep/v1";

/// One design point of the `BENCH_sweep.json` perf artifact. Every field
/// except `seconds` is deterministic and gated by the `perf-smoke` CI
/// job; `seconds` is the point's wall-clock evaluation time (for sweep
/// points this excludes the shared compile, which `compile_seconds` of
/// [`BenchSweepTotals`] accounts for).
#[derive(Debug, Clone, Serialize)]
pub struct BenchSweepPoint {
    /// Benchmark name. Points produced by a what-if delta fold the delta
    /// name into the label (`ESEN4x1·Δx0-half`), so the point key
    /// `benchmark|distribution|ordering|rule` stays unique and a
    /// from-scratch regeneration of the same variant (a standalone
    /// system carrying the identical folded name) lines up with it.
    pub benchmark: String,
    /// Lethal-defect distribution label (`λ'=1`).
    pub distribution: String,
    /// Ordering-spec label (`w/ml`).
    pub ordering: String,
    /// Truncation rule label (`ε=1e-3`).
    pub rule: String,
    /// Truncation point `M` of this point.
    pub truncation: usize,
    /// Truncation the evaluated diagram was compiled at.
    pub compiled_truncation: usize,
    /// Yield lower bound `Y_M`.
    pub yield_lower_bound: f64,
    /// Guaranteed absolute error bound.
    pub error_bound: f64,
    /// Fidelity of this point's answer (`exact`, `degraded:<rung>` or
    /// `bounds` — see [`soc_yield_core::Fidelity::tag`]).
    pub fidelity: String,
    /// Coded-ROBDD size (reachable nodes).
    pub robdd_size: usize,
    /// Peak ROBDD nodes during construction.
    pub robdd_peak: usize,
    /// ROMDD size (reachable nodes).
    pub romdd_size: usize,
    /// ROBDD operation-cache hits of the compile.
    pub robdd_cache_hits: u64,
    /// ROBDD operation-cache misses of the compile.
    pub robdd_cache_misses: u64,
    /// ROBDD operation-cache evictions of the compile (the cache is
    /// lossy and direct-mapped; evictions cost recomputation, never
    /// correctness).
    pub robdd_cache_evictions: u64,
    /// ROBDD operation-cache hit rate of the compile, in percent.
    pub robdd_cache_hit_percent: f64,
    /// ROBDD operation-cache evict rate (evictions per insertion) of the
    /// compile, in percent.
    pub robdd_cache_evict_percent: f64,
    /// ROBDD operation-cache hits obtained through a complemented-edge
    /// negation normalization (volatile — `0` with complemented edges
    /// off).
    pub robdd_complement_hits: u64,
    /// Wall-clock seconds of this point's evaluation (volatile).
    pub seconds: f64,
}

/// Aggregate section of the `BENCH_sweep.json` perf artifact. The
/// `*_seconds` fields are wall-clock measurements (volatile); the rest
/// is deterministic.
#[derive(Debug, Clone, Serialize)]
pub struct BenchSweepTotals {
    /// Design points evaluated.
    pub points: usize,
    /// Compilation chunks the matrix was partitioned into.
    pub chunks: usize,
    /// Points whose chunk failed.
    pub failed_points: usize,
    /// Largest single-manager ROBDD peak (memory high-water mark).
    pub robdd_peak_max: usize,
    /// Sum of per-manager ROBDD peaks.
    pub robdd_peak_sum: u64,
    /// ROBDD operation-cache hits across all compiles.
    pub robdd_cache_hits: u64,
    /// ROBDD operation-cache misses across all compiles.
    pub robdd_cache_misses: u64,
    /// ROBDD operation-cache evictions across all compiles.
    pub robdd_cache_evictions: u64,
    /// ROBDD operation-cache hit rate across all compiles, in percent.
    pub robdd_cache_hit_percent: f64,
    /// ROBDD operation-cache evict rate across all compiles, in percent.
    pub robdd_cache_evict_percent: f64,
    /// ROBDD operation-cache hits obtained through a complemented-edge
    /// negation normalization across all compiles (volatile).
    pub robdd_complement_hits: u64,
    /// ROBDD garbage collections across all compiles.
    pub robdd_gc_runs: u64,
    /// ROMDD operation-cache hits across all managers.
    pub romdd_cache_hits: u64,
    /// ROMDD operation-cache misses across all managers.
    pub romdd_cache_misses: u64,
    /// ROMDD operation-cache evictions across all managers.
    pub romdd_cache_evictions: u64,
    /// Wall-clock seconds of the whole run (volatile).
    pub wall_seconds: f64,
    /// Sum of the workers' busy seconds (volatile).
    pub busy_seconds: f64,
    /// Sum of the chunks' compile seconds — ROBDD build + ROMDD
    /// conversion (volatile).
    pub compile_seconds: f64,
}

/// The machine-readable `BENCH_sweep.json` document emitted by the
/// `bench_matrix` binary: the repo's recorded perf trajectory. CI's
/// `perf-smoke` job regenerates it on every PR and gates the
/// deterministic fields against `tests/fixtures/bench_sweep.json` while
/// uploading the measured wall-clock numbers as an artifact.
#[derive(Debug, Clone, Serialize)]
pub struct BenchSweepDoc {
    /// Schema tag ([`BENCH_SWEEP_SCHEMA`]).
    pub schema: String,
    /// Worker threads used (volatile).
    pub threads: usize,
    /// Per-point measurements, in matrix order.
    pub points: Vec<BenchSweepPoint>,
    /// Aggregates.
    pub totals: BenchSweepTotals,
}

impl BenchSweepDoc {
    /// Condenses a finished sweep into the artifact document. Failed
    /// points are skipped (they are visible in `totals.failed_points`).
    pub fn from_outcome(outcome: &SweepOutcome) -> Self {
        let summary = &outcome.summary;
        let points = outcome
            .points
            .iter()
            .filter_map(|point| {
                let report = point.result.as_ref().ok()?;
                let benchmark = match &point.labels.delta {
                    None => point.labels.system.clone(),
                    Some(delta) => format!("{}·Δ{delta}", point.labels.system),
                };
                Some(BenchSweepPoint {
                    benchmark,
                    distribution: point.labels.distribution.clone(),
                    ordering: point.labels.spec.label(),
                    rule: point.labels.rule.label(),
                    truncation: report.truncation,
                    compiled_truncation: report.compiled_truncation,
                    yield_lower_bound: report.yield_lower_bound,
                    error_bound: report.error_bound,
                    fidelity: report.fidelity.tag(),
                    robdd_size: report.coded_robdd_size,
                    robdd_peak: report.robdd_peak,
                    romdd_size: report.romdd_size,
                    robdd_cache_hits: report.robdd_stats.op_cache_hits,
                    robdd_cache_misses: report.robdd_stats.op_cache_misses,
                    robdd_cache_evictions: report.robdd_stats.op_cache_evictions,
                    robdd_cache_hit_percent: report.robdd_stats.op_cache_hit_rate_percent(),
                    robdd_cache_evict_percent: report.robdd_stats.op_cache_evict_rate_percent(),
                    robdd_complement_hits: report.robdd_stats.complement_hits,
                    seconds: report.total_time.as_secs_f64(),
                })
            })
            .collect();
        Self {
            schema: BENCH_SWEEP_SCHEMA.to_string(),
            threads: summary.threads,
            points,
            totals: BenchSweepTotals {
                points: summary.points,
                chunks: summary.chunks,
                failed_points: summary.failed_points,
                robdd_peak_max: summary.robdd.peak_nodes_max,
                robdd_peak_sum: summary.robdd.peak_nodes_sum,
                robdd_cache_hits: summary.robdd.op_cache_hits,
                robdd_cache_misses: summary.robdd.op_cache_misses,
                robdd_cache_evictions: summary.robdd.op_cache_evictions,
                robdd_cache_hit_percent: summary.robdd.cache_hit_percent(),
                robdd_cache_evict_percent: summary.robdd.cache_evict_percent(),
                robdd_complement_hits: summary.robdd.complement_hits,
                robdd_gc_runs: summary.robdd.gc_runs,
                romdd_cache_hits: summary.romdd.op_cache_hits,
                romdd_cache_misses: summary.romdd.op_cache_misses,
                romdd_cache_evictions: summary.romdd.op_cache_evictions,
                wall_seconds: summary.wall_time.as_secs_f64(),
                busy_seconds: summary.busy_time.as_secs_f64(),
                compile_seconds: summary.compile_time.as_secs_f64(),
            },
        }
    }
}

/// Compares a freshly measured sweep against a baseline
/// `BENCH_sweep.json` and renders a per-point speedup/regression table
/// (wall-clock only; yield or size drift is reported loudly, since a
/// perf comparison across different results is meaningless).
///
/// # Errors
///
/// Returns a readable message when the baseline is malformed or its
/// schema tag is unknown.
pub fn baseline_comparison(baseline: &str, current: &BenchSweepDoc) -> Result<String, String> {
    let baseline =
        serde_json::from_str(baseline).map_err(|e| format!("baseline is malformed: {e}"))?;
    let schema = baseline.get("schema").and_then(serde::Value::as_str).unwrap_or("<missing>");
    if schema != BENCH_SWEEP_SCHEMA {
        return Err(format!(
            "baseline schema is `{schema}`, this binary understands `{BENCH_SWEEP_SCHEMA}`"
        ));
    }
    let baseline_threads = baseline.get("threads").and_then(serde::Value::as_u64).unwrap_or(0);
    let empty = Vec::new();
    let rows = baseline.get("points").and_then(serde::Value::as_array).unwrap_or(&empty);
    let key = |benchmark: &str, distribution: &str, ordering: &str, rule: &str| {
        format!("{benchmark}|{distribution}|{ordering}|{rule}")
    };
    let mut out = String::new();
    out.push_str(&format!(
        "baseline: {} points at {} threads — current: {} points at {} threads\n",
        rows.len(),
        baseline_threads,
        current.points.len(),
        current.threads
    ));
    out.push_str(&format!(
        "{:<44} {:>12} {:>12} {:>9}\n",
        "point", "baseline s", "current s", "speedup"
    ));
    let mut matched = 0usize;
    for point in &current.points {
        let id = key(&point.benchmark, &point.distribution, &point.ordering, &point.rule);
        let base = rows.iter().find(|row| {
            let field = |name: &str| {
                row.get(name).and_then(serde::Value::as_str).unwrap_or_default().to_string()
            };
            key(&field("benchmark"), &field("distribution"), &field("ordering"), &field("rule"))
                == id
        });
        let Some(base) = base else {
            out.push_str(&format!("{:<44} {:>12} {:>12} {:>9}\n", id, "-", "-", "new"));
            continue;
        };
        matched += 1;
        let base_yield = base.get("yield_lower_bound").and_then(serde::Value::as_f64);
        if base_yield.map(f64::to_bits) != Some(point.yield_lower_bound.to_bits()) {
            out.push_str(&format!(
                "{id}: RESULT DRIFT — baseline yield {:?} vs current {} (timing comparison \
                 suppressed)\n",
                base_yield, point.yield_lower_bound
            ));
            continue;
        }
        let base_seconds = base.get("seconds").and_then(serde::Value::as_f64).unwrap_or(0.0);
        let speedup =
            if point.seconds > 0.0 { base_seconds / point.seconds } else { f64::INFINITY };
        out.push_str(&format!(
            "{:<44} {:>12.6} {:>12.6} {:>8.2}x\n",
            id, base_seconds, point.seconds, speedup
        ));
    }
    let base_wall = baseline
        .get("totals")
        .and_then(|t| t.get("wall_seconds"))
        .and_then(serde::Value::as_f64)
        .unwrap_or(0.0);
    let wall_speedup = if current.totals.wall_seconds > 0.0 {
        base_wall / current.totals.wall_seconds
    } else {
        f64::INFINITY
    };
    out.push_str(&format!(
        "matched {matched}/{} points · wall clock {:.3} s → {:.3} s ({:.2}x)\n",
        current.points.len(),
        base_wall,
        current.totals.wall_seconds,
        wall_speedup
    ));
    Ok(out)
}

/// Writes rows as pretty-printed JSON to `path` when requested.
pub fn maybe_write_json<T: Serialize>(path: &Option<String>, rows: &[T]) {
    if let Some(path) = path {
        match serde_json::to_string_pretty(rows) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("could not write {path}: {e}");
                }
            }
            Err(e) => eprintln!("could not serialise results: {e}"),
        }
    }
}

/// Writes one serialisable document as pretty-printed JSON to `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json_doc(path: &str, doc: &impl Serialize) -> std::io::Result<()> {
    let json =
        serde_json::to_string_pretty(doc).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_list_respects_component_bound() {
        let all = paper_workloads(usize::MAX);
        assert!(all.len() >= 11);
        let small = paper_workloads(20);
        assert!(small.iter().all(|w| w.system.num_components() <= 20));
        assert!(small.iter().any(|w| w.lambda == 2.0));
        assert!(!small.is_empty());
        assert!(small[0].label().contains("λ'"));
    }

    #[test]
    fn run_workload_on_smallest_instance() {
        let workload = Workload { system: socy_benchmarks::esen(4, 1), lambda: 1.0 };
        let row = run_workload(&workload, OrderingSpec::paper_default()).unwrap();
        assert_eq!(row.components, 14);
        assert!(row.yield_lower_bound > 0.5 && row.yield_lower_bound < 1.0);
        assert!(row.error_bound <= EPSILON);
        assert!(row.robdd_size > row.romdd_size);
        assert!(row.robdd_unique_entries > 0);
        assert!(row.robdd_cache_misses > 0);
        assert!(row.seconds >= 0.0);
    }

    #[test]
    fn runner_reuses_pipelines_across_lambdas() {
        let mut runner = Runner::new();
        let system = socy_benchmarks::esen(4, 1);
        let spec = OrderingSpec::paper_default();
        let one = runner.run(&Workload { system: system.clone(), lambda: 2.0 }, spec).unwrap();
        let two = runner.run(&Workload { system: system.clone(), lambda: 1.0 }, spec).unwrap();
        // λ' = 2 compiled at M = 10; the λ' = 1 point reuses that diagram.
        assert!(one.truncation > two.truncation);
        assert!(two.yield_lower_bound > one.yield_lower_bound);
        assert_eq!(runner.cache().stats().hits, 1, "the λ'=1 point hit the resident pipeline");
        // Switching systems keeps both resident — the budget is charged
        // against live nodes, and these diagrams are small.
        let other = socy_benchmarks::ms(2);
        let _ = runner.run(&Workload { system: other, lambda: 1.0 }, spec).unwrap();
        assert!(runner.cache().contains(&"MS2".to_string()));
        assert!(runner.cache().contains(&"ESEN4x1".to_string()));
        assert!(runner.cache().live_nodes() <= RUNNER_LIVE_NODE_BUDGET);
        // Coming back to the first system reuses its diagrams and agrees.
        let again = runner.run(&Workload { system, lambda: 1.0 }, spec).unwrap();
        assert_eq!(again.yield_lower_bound, two.yield_lower_bound);
        assert_eq!(runner.cache().stats().evictions, 0);
    }

    #[test]
    fn runner_budget_evicts_least_recently_used_system() {
        // A budget of one node cannot hold two systems: the older one is
        // evicted as soon as the next arrives.
        let mut runner = Runner::with_budget(Some(1));
        let spec = OrderingSpec::paper_default();
        let first = socy_benchmarks::esen(4, 1);
        let _ = runner.run(&Workload { system: first.clone(), lambda: 1.0 }, spec).unwrap();
        let _ =
            runner.run(&Workload { system: socy_benchmarks::ms(2), lambda: 1.0 }, spec).unwrap();
        assert!(!runner.cache().contains(&first.name));
        assert!(runner.cache().contains(&"MS2".to_string()));
        assert_eq!(runner.cache().stats().evictions, 1);
    }

    #[test]
    fn cli_helpers() {
        assert_eq!(fmt_seconds(Duration::from_millis(1234)), "1.23");
        // maybe_write_json with None is a no-op.
        maybe_write_json::<ResultRow>(&None, &[]);
    }

    #[test]
    fn run_table_matches_the_serial_runner() {
        let esen = socy_benchmarks::esen(4, 1);
        let cells = vec![
            (
                Workload { system: esen.clone(), lambda: 1.0 },
                vec![
                    OrderingSpec::paper_default(),
                    OrderingSpec::new(
                        socy_ordering::MvOrdering::Wv,
                        socy_ordering::GroupOrdering::MsbFirst,
                    )
                    .unwrap(),
                ],
            ),
            (Workload { system: esen.clone(), lambda: 2.0 }, vec![OrderingSpec::paper_default()]),
        ];
        let outcome = run_table(&cells, 2, CompileOptions::default()).unwrap();
        assert_eq!(outcome.cells.len(), 2);
        assert_eq!(outcome.cells[0].len(), 2);
        assert_eq!(outcome.cells[1].len(), 1);
        assert_eq!(outcome.summary.points, 3);
        assert_eq!(outcome.summary.chunks, 3);
        // Cell-by-cell the parallel engine reproduces the serial Runner
        // bit for bit (each cell compiles at its own truncation).
        let mut runner = Runner::new();
        for ((workload, specs), results) in cells.iter().zip(&outcome.cells) {
            for (spec, result) in specs.iter().zip(results) {
                let parallel = result.as_ref().unwrap();
                let serial = runner.run_report(workload, *spec).unwrap();
                assert_eq!(
                    parallel.yield_lower_bound.to_bits(),
                    serial.yield_lower_bound.to_bits()
                );
                assert_eq!(parallel.truncation, serial.truncation);
                assert_eq!(parallel.compiled_truncation, serial.compiled_truncation);
                assert_eq!(parallel.coded_robdd_size, serial.coded_robdd_size);
                assert_eq!(parallel.robdd_peak, serial.robdd_peak);
                assert_eq!(parallel.romdd_size, serial.romdd_size);
            }
        }
        assert!(summary_line(&outcome.summary).contains("3 points · 3 chunks"));
    }

    #[test]
    fn volatile_anchor_fields() {
        assert!(is_volatile_anchor_field("seconds"));
        assert!(is_volatile_anchor_field("threads"));
        assert!(is_volatile_anchor_field("wall_seconds"));
        assert!(is_volatile_anchor_field("compile_seconds"));
        assert!(!is_volatile_anchor_field("points"));
        assert!(!is_volatile_anchor_field("yield_lower_bound"));
        assert!(!is_volatile_anchor_field("robdd_peak"));
        assert!(!is_volatile_anchor_field("robdd_cache_hits"));
        // Compilation is sequential, so the complement tally is
        // deterministic and pinned like every other cache counter.
        assert!(!is_volatile_anchor_field("robdd_complement_hits"));
        // Fields of the removed intra-compilation pool are no longer
        // exempt, so a stale fixture carrying them fails the gate.
        assert!(!is_volatile_anchor_field("compile_threads"));
        assert!(!is_volatile_anchor_field("par_tasks"));
        let stale = "{\n  \"par_tasks\": 0,\n  \"robdd_size\": 9897\n}";
        let fresh = "{\n  \"robdd_size\": 9897\n}";
        assert!(diff_anchors(stale, fresh).is_some_and(|r| r.contains("$.par_tasks")));
        // The structural diff applies the same volatile set.
        let fixture = "{\n  \"threads\": 4,\n  \"robdd_size\": 9897,\n  \"busy_seconds\": 0.5\n}";
        let rerun = "{\n  \"threads\": 1,\n  \"robdd_size\": 9897,\n  \"busy_seconds\": 9.5\n}";
        assert_eq!(diff_anchors(fixture, rerun), None);
    }

    #[test]
    fn diff_policies_exempt_only_their_fields() {
        let fixture = "{\n  \"chunks\": 9,\n  \"robdd_size\": 9897,\n  \"romdd_cache_hits\": 5,\n  \"romdd_size\": 40\n}";
        let other_mode = fixture
            .replace("9897", "9001")
            .replace("\"romdd_cache_hits\": 5", "\"romdd_cache_hits\": 7");
        let other_shape = other_mode.replace("\"chunks\": 9", "\"chunks\": 1");
        let count =
            |actual: &str, policy| diff_anchor_values(fixture, actual, policy).unwrap().len();
        assert_eq!(count(&other_mode, DiffPolicy::Strict), 2);
        assert_eq!(count(&other_mode, DiffPolicy::ComplementInvariant), 0);
        assert_eq!(count(&other_shape, DiffPolicy::ComplementInvariant), 1, "chunks stay gated");
        assert_eq!(count(&other_shape, DiffPolicy::DeltaEquivalence), 0);
        // Result fields stay gated under every policy.
        let drifted = other_mode.replace("\"romdd_size\": 40", "\"romdd_size\": 41");
        for (_, policy) in DIFF_POLICY_FLAGS {
            assert_eq!(count(&drifted, policy), 1, "{policy:?}");
        }
    }

    #[test]
    fn cli_arguments_parse_strictly() {
        let parse = |argv: &[&str]| parse_cli_from(30, argv.iter().map(ToString::to_string));
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.max_components, 30);
        assert_eq!(defaults.threads, 0);
        assert_eq!(defaults.options, CompileOptions::default());
        let full = parse(&[
            "--max-components",
            "20",
            "--json",
            "out.json",
            "--threads",
            "2",
            "--baseline",
            "base.json",
            "--scratch-deltas",
            "--no-complement-edges",
            "--node-budget",
            "4000000",
        ])
        .unwrap();
        assert_eq!(full.max_components, 20);
        assert_eq!(full.json.as_deref(), Some("out.json"));
        assert_eq!(full.threads, 2);
        assert_eq!(full.baseline.as_deref(), Some("base.json"));
        assert!(full.scratch_deltas);
        assert_eq!(
            full.options,
            CompileOptions::new().with_complement_edges(false).with_node_budget(4_000_000)
        );
        // Unknown flags — including the removed compile-thread knobs —
        // and missing or malformed values are errors, not warnings.
        for (argv, expected) in [
            (&["--bogus"][..], "unknown argument `--bogus`"),
            (&["--compile-threads", "4"][..], "unknown argument `--compile-threads`"),
            (&["--threads", "abc"][..], "--threads requires an integer"),
            (&["--threads"][..], "--threads requires an integer"),
            (&["--max-components", "-1"][..], "--max-components requires an integer"),
            (&["--json"][..], "--json requires a path"),
            (&["--node-budget", "oops"][..], "--node-budget requires an integer"),
        ] {
            assert_eq!(parse(argv).unwrap_err(), expected, "{argv:?}");
        }
        assert!(cli_usage("table4").starts_with("Usage: table4 "));
        assert!(cli_usage("table4").contains("--node-budget"));
    }

    #[test]
    fn semantic_anchor_diff_reports_every_divergent_field() {
        let fixture = r#"[
  {
    "benchmark": "MS2",
    "robdd_size": 100,
    "seconds": 0.1,
    "yield_lower_bound": 0.5
  },
  {
    "benchmark": "MS4",
    "robdd_size": 200,
    "seconds": 0.2,
    "yield_lower_bound": 0.25
  }
]"#;
        let actual = fixture.replace("100", "101").replace("0.25", "0.26").replace("0.2,", "9.9,");
        let diffs = diff_anchor_values(fixture, &actual, DiffPolicy::Strict).unwrap();
        // Both real divergences are listed, the wall-clock one is not.
        assert_eq!(diffs.len(), 2, "{diffs:?}");
        assert!(diffs[0].contains("$[0].robdd_size") && diffs[0].contains("101"), "{diffs:?}");
        assert!(diffs[1].contains("$[1].yield_lower_bound"), "{diffs:?}");
        // Missing and extra fields are named.
        let missing = fixture.replace("    \"robdd_size\": 100,\n", "");
        let diffs = diff_anchor_values(fixture, &missing, DiffPolicy::Strict).unwrap();
        assert!(diffs.iter().any(|d| d.contains("$[0].robdd_size") && d.contains("missing")));
        let diffs = diff_anchor_values(&missing, fixture, DiffPolicy::Strict).unwrap();
        assert!(diffs.iter().any(|d| d.contains("not in fixture")));
    }

    #[test]
    fn anchor_diff_surfaces_malformed_documents_readably() {
        let good = "[]";
        let err = diff_anchor_values("{ not json", good, DiffPolicy::Strict).unwrap_err();
        assert!(err.contains("fixture is malformed"), "{err}");
        let err = diff_anchor_values(good, "[1, 2", DiffPolicy::Strict).unwrap_err();
        assert!(err.contains("actual is malformed"), "{err}");
        // diff_anchors (the binary's entry point) reports instead of panicking.
        let report = diff_anchors("{ not json", good).unwrap();
        assert!(report.contains("malformed"));
    }

    #[test]
    fn bench_sweep_doc_and_baseline_comparison() {
        use socy_exec::{NamedDistribution, SweepBlock, SweepMatrix, TruncationRule};
        let mut block = SweepBlock::new();
        block.systems.push(system_spec(&socy_benchmarks::esen(4, 1)).unwrap());
        block
            .distributions
            .push(NamedDistribution::new("λ'=1", NegativeBinomial::new(1.0, ALPHA).unwrap()));
        block.specs.push(OrderingSpec::paper_default());
        block.rules.push(TruncationRule::Epsilon(1e-2));
        block.rules.push(TruncationRule::Epsilon(1e-3));
        let mut matrix = SweepMatrix::new();
        matrix.add(block);
        let outcome = matrix.run(2);
        let doc = BenchSweepDoc::from_outcome(&outcome);
        assert_eq!(doc.schema, BENCH_SWEEP_SCHEMA);
        assert_eq!(doc.points.len(), 2);
        assert_eq!(doc.totals.points, 2);
        assert_eq!(doc.totals.chunks, 1);
        assert!(doc.totals.robdd_peak_max > 0);
        let json = serde_json::to_string_pretty(&doc).unwrap();
        // The artifact gates itself cleanly (round trip, wall clock ignored).
        assert_eq!(diff_anchors(&json, &json), None);
        // A re-run differs only in volatile fields → still gates clean.
        let rerun =
            serde_json::to_string_pretty(&BenchSweepDoc::from_outcome(&matrix.run(1))).unwrap();
        assert_eq!(diff_anchors(&json, &rerun), None, "thread count must not gate");
        // Baseline comparison prints a speedup row per matched point.
        let table = baseline_comparison(&json, &doc).unwrap();
        assert!(table.contains("matched 2/2 points"), "{table}");
        assert!(table.contains("ESEN4x1"));
        // Malformed or wrong-schema baselines fail readably.
        assert!(baseline_comparison("{", &doc).unwrap_err().contains("malformed"));
        assert!(baseline_comparison("{\"schema\": \"other/v9\"}", &doc)
            .unwrap_err()
            .contains("other/v9"));
    }

    #[test]
    fn anchor_diff_ignores_wall_clock_but_nothing_else() {
        let fixture = "[\n  {\n    \"robdd_size\": 9897,\n    \"seconds\": 0.004,\n    \"yield_lower_bound\": 0.8528030506125002\n  }\n]";
        let same_but_slower = "[\n  {\n    \"robdd_size\": 9897,\n    \"seconds\": 7.5,\n    \"yield_lower_bound\": 0.8528030506125002\n  }\n]";
        assert_eq!(diff_anchors(fixture, same_but_slower), None);
        let drifted = same_but_slower.replace("9897", "9898");
        let report = diff_anchors(fixture, &drifted).expect("size drift must be caught");
        assert!(report.contains("9897") && report.contains("9898"));
        let truncated = "[\n  {\n    \"robdd_size\": 9897\n  }\n]";
        let report = diff_anchors(fixture, truncated).expect("missing rows must be caught");
        assert!(!report.is_empty());
        // The last-ulp of the yield is part of the contract.
        let ulp = same_but_slower.replace("0.8528030506125002", "0.8528030506125001");
        assert!(diff_anchors(fixture, &ulp).is_some());
    }
}
