//! The yield service: resolves wire requests against the benchmark
//! registry, batches uncached requests into one [`SweepMatrix`] run, and
//! serves repeated configurations from a compiled-pipeline LRU cache.
//!
//! # Caching
//!
//! Pipelines are keyed by [`PipelineKey`] — the system identity, the
//! variable-ordering specification and the conversion algorithm; exactly
//! the coordinates that determine the compiled diagrams. The defect
//! distribution and the truncation rule are *not* part of the key: a
//! diagram compiled at truncation `M` answers every request with `M' ≤ M`
//! by zero-padding, and larger `M'` extend the resident diagram in place
//! (reported as `recompiled`). Eviction charges each resident its live
//! (post-GC) ROMDD nodes against a configurable budget, least recently
//! used first.
//!
//! # Fault containment
//!
//! Uncached requests run through the executor, which already catches
//! unwinds per chunk; a panicking request yields an `error` response with
//! `panicked: true` while concurrent requests in the same batch complete
//! normally. Cache hits evaluate on the daemon thread inside
//! [`std::panic::catch_unwind`]; a panicked hit additionally drops the
//! resident pipeline, since its diagrams may be half-updated.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use serde::{Deserialize, Value};
use soc_yield_core::{
    AnalysisOptions, CancelToken, CompileOptions, ConversionAlgorithm, CoreError, DdError,
    DegradeLadder, Pipeline, SystemDelta, YieldReport,
};
use socy_benchmarks::{paper_benchmark, PAPER_BENCHMARK_NAMES};
use socy_defect::{
    ComponentProbabilities, DefectDistribution, Empirical, NegativeBinomial, Poisson,
};
use socy_exec::{
    panic_message, NamedDistribution, PipelineLru, SharedDistribution, SweepBlock, SweepMatrix,
    SystemSpec, TruncationRule,
};
use socy_faulttree::Netlist;
use socy_ordering::OrderingSpec;

use crate::protocol::{
    CacheBody, DistributionSpec, EvalRequest, GovernorBody, ReportBody, Request, Response,
};

/// Default live-node budget of the pipeline cache.
pub const DEFAULT_NODE_BUDGET: usize = 1 << 16;

/// Longest request line, in bytes, the service parses: 16 MiB, far above
/// any real request (an inline 2,000-input tree is tens of KiB). A longer
/// line is answered with one `invalid request` error naming the limit.
/// The `serve` binary keeps at most this many bytes of a line (plus its
/// terminator) and skips the rest unread.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Construction parameters of a [`YieldService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads for uncached requests (`0` = available parallelism).
    pub threads: usize,
    /// Live-node budget of the pipeline cache (`None` = unbounded).
    pub node_budget: Option<usize>,
    /// The resource limits every compilation runs under, as one
    /// [`CompileOptions`] value. Never part of the cache key: compiled
    /// diagrams and yields are bit-identical at every setting (see
    /// [`SweepMatrix::options`]).
    pub options: CompileOptions,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            node_budget: Some(DEFAULT_NODE_BUDGET),
            options: CompileOptions::default(),
        }
    }
}

/// The coordinates that determine a compiled pipeline — the cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PipelineKey {
    /// Canonical system identity: `benchmark:<name>:pl=<bits>` for
    /// registry systems, `inline:<name>:<component bits>:<canonical
    /// netlist>` for inline ones (probabilities enter as exact `f64` bit
    /// patterns, so "the same system" means bit-identical inputs).
    pub system: String,
    /// Variable-ordering specification the pipeline compiles under.
    pub spec: OrderingSpec,
    /// Coded-ROBDD → ROMDD conversion algorithm.
    pub conversion: ConversionAlgorithm,
}

/// A fault-injection distribution whose `pmf` unwinds. Requests naming
/// `{"kind": "panic"}` exercise the daemon's panic containment end to
/// end: the request fails with `panicked: true`, everything else keeps
/// working.
#[derive(Debug, Clone, Copy)]
pub struct PanicDistribution;

impl DefectDistribution for PanicDistribution {
    fn pmf(&self, _k: usize) -> f64 {
        panic!("deliberate fault injection: the `panic` distribution unwound")
    }

    fn mean(&self) -> Option<f64> {
        None
    }
}

/// Resolves the `conversion` wire label.
///
/// # Errors
///
/// Returns a readable message for unknown labels.
pub fn parse_conversion(label: &str) -> Result<ConversionAlgorithm, String> {
    match label {
        "top_down" => Ok(ConversionAlgorithm::TopDown),
        "layered" => Ok(ConversionAlgorithm::Layered),
        other => Err(format!("unknown conversion `{other}` (expected `top_down` or `layered`)")),
    }
}

/// The wire label of a conversion algorithm (inverse of
/// [`parse_conversion`]).
pub fn conversion_label(conversion: ConversionAlgorithm) -> &'static str {
    match conversion {
        ConversionAlgorithm::TopDown => "top_down",
        ConversionAlgorithm::Layered => "layered",
    }
}

/// Resolves a request's `system` object into a [`SystemSpec`] plus its
/// canonical identity string (the system part of the [`PipelineKey`]).
///
/// Accepted shapes: `{"benchmark": "MS2"}` with an optional `"lethality"`
/// (default `1.0`), or an inline `{"name", "netlist", "components"}`
/// object whose netlist uses the `socy-faulttree` textual format.
///
/// # Errors
///
/// Returns a readable message for unknown benchmarks, malformed netlists
/// and invalid probabilities.
pub fn resolve_system(system: &Value) -> Result<(SystemSpec, String), String> {
    if let Some(benchmark) = system.get("benchmark") {
        let name =
            benchmark.as_str().ok_or_else(|| "field `benchmark` must be a string".to_string())?;
        let lethality = match system.get("lethality") {
            None => 1.0,
            Some(v) => {
                v.as_f64().ok_or_else(|| "field `lethality` must be a number".to_string())?
            }
        };
        let found = paper_benchmark(name).ok_or_else(|| {
            format!(
                "unknown benchmark `{name}` (expected one of {})",
                PAPER_BENCHMARK_NAMES.join(", ")
            )
        })?;
        let components = found.component_probabilities(lethality).map_err(|e| e.to_string())?;
        let identity = format!("benchmark:{name}:pl={:016x}", lethality.to_bits());
        Ok((SystemSpec::new(found.name.clone(), found.fault_tree, components), identity))
    } else if system.get("netlist").is_some() {
        let name = system.get("name").and_then(Value::as_str).unwrap_or("inline");
        let text = system
            .get("netlist")
            .and_then(Value::as_str)
            .ok_or_else(|| "field `netlist` must be a string".to_string())?;
        let netlist = Netlist::from_text(text).map_err(|e| format!("invalid netlist: {e}"))?;
        let raw: Vec<f64> = match system.get("components") {
            None => return Err("inline systems require a `components` array".to_string()),
            Some(v) => Deserialize::from_json(v).map_err(|e| format!("field `components`: {e}"))?,
        };
        // The identity uses the *re-serialized* netlist, so formatting
        // variations of the same structure share one cache entry.
        let canonical = netlist.to_text().map_err(|e| format!("invalid netlist: {e}"))?;
        let bits: String = raw.iter().map(|p| format!("{:016x}", p.to_bits())).collect();
        let components = ComponentProbabilities::new(raw).map_err(|e| e.to_string())?;
        let identity = format!("inline:{name}:{bits}:{canonical}");
        Ok((SystemSpec::new(name, netlist, components), identity))
    } else {
        Err("field `system` must be {\"benchmark\": <name>} or \
             {\"name\", \"netlist\", \"components\"}"
            .to_string())
    }
}

/// Resolves a wire [`DistributionSpec`] into a boxed distribution plus a
/// display label.
///
/// # Errors
///
/// Returns a readable message for unknown kinds, missing parameters and
/// invalid parameter values.
pub fn resolve_distribution(
    spec: &DistributionSpec,
) -> Result<(Box<dyn SharedDistribution>, String), String> {
    let need = |field: &str, v: Option<f64>| {
        v.ok_or_else(|| format!("distribution `{}` requires `{field}`", spec.kind))
    };
    match spec.kind.as_str() {
        "negative_binomial" => {
            let lambda = need("lambda", spec.lambda)?;
            let alpha = need("alpha", spec.alpha)?;
            let dist = NegativeBinomial::new(lambda, alpha).map_err(|e| e.to_string())?;
            Ok((Box::new(dist), format!("nb(λ'={lambda},α={alpha})")))
        }
        "poisson" => {
            let lambda = need("lambda", spec.lambda)?;
            let dist = Poisson::new(lambda).map_err(|e| e.to_string())?;
            Ok((Box::new(dist), format!("poisson(λ'={lambda})")))
        }
        "empirical" => {
            let masses = spec
                .masses
                .clone()
                .ok_or_else(|| "distribution `empirical` requires `masses`".to_string())?;
            let dist = Empirical::new(masses).map_err(|e| e.to_string())?;
            Ok((Box::new(dist), "empirical".to_string()))
        }
        "panic" => Ok((Box::new(PanicDistribution), "panic".to_string())),
        other => Err(format!(
            "unknown distribution kind `{other}` (expected `negative_binomial`, `poisson`, \
             `empirical` or `panic`)"
        )),
    }
}

/// Resolves one entry of a request's `deltas` array into a
/// [`SystemDelta`] against the base system's fault tree.
///
/// Accepted shape: `{"name": <label>, "overrides": [{"component":
/// <index or input name>, "probability": P}], "netlist": <variant
/// netlist text>}` — `overrides` and `netlist` are both optional (an
/// entry with neither re-evaluates the unmodified base system).
///
/// # Errors
///
/// Returns a readable message for missing names, unknown component
/// names, out-of-range probabilities and malformed variant netlists.
pub fn resolve_delta(value: &Value, base: &Netlist) -> Result<SystemDelta, String> {
    let name = value
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| "each delta requires a string `name`".to_string())?;
    let mut delta = SystemDelta::named(name);
    if let Some(overrides) = value.get("overrides") {
        let entries = overrides
            .as_array()
            .ok_or_else(|| "delta field `overrides` must be an array".to_string())?;
        for entry in entries {
            let probability = entry
                .get("probability")
                .and_then(Value::as_f64)
                .ok_or_else(|| "each override requires a numeric `probability`".to_string())?;
            let component = entry
                .get("component")
                .ok_or_else(|| "each override requires a `component`".to_string())?;
            let index = if let Some(i) = component.as_u64() {
                i as usize
            } else if let Some(input) = component.as_str() {
                base.var_by_name(input)
                    .ok_or_else(|| format!("delta `{name}`: unknown component `{input}`"))?
                    .index()
            } else {
                return Err(
                    "override field `component` must be an index or an input name".to_string()
                );
            };
            delta = delta.with_component_probability(index, probability);
        }
    }
    if let Some(netlist) = value.get("netlist") {
        let text =
            netlist.as_str().ok_or_else(|| "delta field `netlist` must be a string".to_string())?;
        let variant = Netlist::from_text(text)
            .map_err(|e| format!("delta `{name}`: invalid netlist: {e}"))?;
        delta = delta.with_fault_tree(variant);
    }
    Ok(delta)
}

/// A fully resolved evaluation request, ready to hit the cache or the
/// executor.
struct EvalPlan {
    id: Option<String>,
    kind: &'static str,
    key: PipelineKey,
    system: SystemSpec,
    distribution: Box<dyn SharedDistribution>,
    dist_label: String,
    /// The wire distribution the request named, kept so a resource-failed
    /// evaluation can re-resolve it for the Monte-Carlo bounds fallback.
    dist_spec: DistributionSpec,
    rules: Vec<TruncationRule>,
    deltas: Vec<SystemDelta>,
    /// Per-request wall-clock budget (`Some(0)` = answer with bounds
    /// without compiling at all).
    timeout_ms: Option<u64>,
    /// Per-request node budget for the triggered compilation.
    node_budget: Option<u64>,
}

impl EvalPlan {
    /// Whether the request carries per-request resource limits and must
    /// take the governed direct path instead of the shared batch matrix.
    fn governed(&self) -> bool {
        self.timeout_ms.is_some() || self.node_budget.is_some()
    }
}

fn resolve(kind: &'static str, req: EvalRequest) -> Result<EvalPlan, String> {
    let (system, identity) = resolve_system(&req.system)?;
    if (req.timeout_ms.is_some() || req.node_budget.is_some()) && kind == "analyze_delta" {
        return Err("per-request `timeout_ms`/`node_budget` are not supported on `analyze_delta` \
             (the Monte-Carlo fallback cannot answer what-if families)"
            .to_string());
    }
    let deltas = match (kind, &req.deltas) {
        ("analyze_delta", Some(entries)) if !entries.is_empty() => entries
            .iter()
            .map(|v| resolve_delta(v, &system.fault_tree))
            .collect::<Result<Vec<_>, String>>()?,
        ("analyze_delta", _) => {
            return Err("analyze_delta requests require a non-empty `deltas` array".to_string())
        }
        (_, Some(_)) => {
            return Err("field `deltas` is only valid on type `analyze_delta`".to_string())
        }
        (_, None) => Vec::new(),
    };
    let (distribution, dist_label) = resolve_distribution(&req.distribution)?;
    let mut spec = OrderingSpec::parse(req.ordering.as_deref().unwrap_or("w/ml"))
        .map_err(|e| e.to_string())?;
    if let Some(growth) = req.sift_max_growth {
        if growth < 100 {
            return Err(format!("sift_max_growth must be at least 100 percent, got {growth}"));
        }
        spec = spec.with_sifting(growth);
    }
    let conversion = match req.conversion.as_deref() {
        None => ConversionAlgorithm::TopDown,
        Some(label) => parse_conversion(label)?,
    };
    let rules = match kind {
        "sweep" => {
            if req.epsilon.is_some() || req.fixed_truncation.is_some() {
                return Err(
                    "sweep requests take `epsilons`, not `epsilon`/`fixed_truncation`".to_string()
                );
            }
            match req.epsilons {
                Some(epsilons) if !epsilons.is_empty() => {
                    epsilons.into_iter().map(TruncationRule::Epsilon).collect()
                }
                _ => return Err("sweep requests require a non-empty `epsilons` array".to_string()),
            }
        }
        _analyze => {
            if req.epsilons.is_some() {
                return Err(
                    "analyze requests take `epsilon`; use type `sweep` for `epsilons`".to_string()
                );
            }
            match (req.fixed_truncation, req.epsilon) {
                (Some(_), Some(_)) => {
                    return Err("specify `epsilon` or `fixed_truncation`, not both".to_string())
                }
                (Some(m), None) => vec![TruncationRule::Fixed(m)],
                (None, epsilon) => vec![TruncationRule::Epsilon(
                    epsilon.unwrap_or(AnalysisOptions::default().epsilon),
                )],
            }
        }
    };
    Ok(EvalPlan {
        id: req.id,
        kind,
        key: PipelineKey { system: identity, spec, conversion },
        system,
        distribution,
        dist_label,
        dist_spec: req.distribution,
        rules,
        deltas,
        timeout_ms: req.timeout_ms,
        node_budget: req.node_budget,
    })
}

fn report_body(
    report: &YieldReport,
    conversion: ConversionAlgorithm,
    rule: &TruncationRule,
    delta: Option<String>,
) -> ReportBody {
    ReportBody {
        yield_lower_bound: report.yield_lower_bound,
        error_bound: report.error_bound,
        truncation: report.truncation,
        compiled_truncation: report.compiled_truncation,
        num_components: report.num_components,
        g_gates: report.g_gates,
        binary_variables: report.binary_variables,
        coded_robdd_size: report.coded_robdd_size,
        presift_robdd_size: report.presift_robdd_size,
        robdd_peak: report.robdd_peak,
        romdd_size: report.romdd_size,
        romdd_live_nodes: report.romdd_stats.live_nodes,
        ordering: report.spec.label(),
        conversion: conversion_label(conversion).to_string(),
        rule: rule.label(),
        delta,
        fidelity: report.fidelity.tag(),
    }
}

/// Bookkeeping for one uncached request while its block runs through the
/// executor. Carries enough of the resolved request (system, wire
/// distribution, rules) to retry a resource-failed evaluation as a
/// Monte-Carlo bounds fallback without the consumed plan.
struct MissMeta {
    at: usize,
    id: Option<String>,
    kind: &'static str,
    key: PipelineKey,
    points: usize,
    system: SystemSpec,
    dist_spec: DistributionSpec,
    rules: Vec<TruncationRule>,
    has_deltas: bool,
}

/// The long-running yield-analysis service behind the `serve` binary: a
/// [`PipelineLru`] of compiled pipelines plus the batching logic that
/// turns concurrent uncached requests into one parallel
/// [`SweepMatrix`] run.
pub struct YieldService {
    cache: PipelineLru<PipelineKey>,
    threads: usize,
    options: CompileOptions,
    requests_served: u64,
    governor: GovernorBody,
    /// Cancellation token of the batch currently being served; a `cancel`
    /// request cancels it, failing the batch's in-flight and pending
    /// governed compilations fast. Re-armed at the start of every batch.
    batch_cancel: CancelToken,
}

impl YieldService {
    /// Creates a service with the given configuration.
    pub fn new(config: ServiceConfig) -> Self {
        Self {
            cache: PipelineLru::new(config.node_budget),
            threads: config.threads,
            options: config.options,
            requests_served: 0,
            governor: GovernorBody::default(),
            batch_cancel: CancelToken::new(),
        }
    }

    /// The pipeline cache (for inspection; the service owns mutation).
    pub fn cache(&self) -> &PipelineLru<PipelineKey> {
        &self.cache
    }

    /// Total requests accepted so far, including malformed ones.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Serves one request line (a single-request batch).
    pub fn handle_line(&mut self, line: &str) -> Response {
        self.handle_batch(&[line]).pop().expect("one response per request")
    }

    /// Serves a batch of request lines, returning one response per line
    /// in request order. Lines are bytes: one that is not valid UTF-8, or
    /// is longer than [`MAX_LINE_BYTES`], answers an `invalid request`
    /// error with a null `id`.
    ///
    /// Within a batch: cache hits are answered on the calling thread;
    /// all misses are gathered into one [`SweepMatrix`] (one block per
    /// request, so a failing request cannot affect the others) and
    /// executed on the worker pool; `stats` requests are answered last,
    /// so their counters reflect the whole batch.
    pub fn handle_batch<L: AsRef<[u8]>>(&mut self, lines: &[L]) -> Vec<Response> {
        // Fresh token per batch: a cancelled batch must not poison the
        // next one.
        self.batch_cancel = CancelToken::new();
        let mut responses: Vec<Option<Response>> = Vec::new();
        responses.resize_with(lines.len(), || None);
        let mut misses: Vec<(usize, EvalPlan)> = Vec::new();
        let mut stats_requests: Vec<(usize, Option<String>, Instant)> = Vec::new();
        for (at, line) in lines.iter().enumerate() {
            let started = Instant::now();
            self.requests_served += 1;
            // A line that parses as JSON but fails the schema still
            // echoes its string `id`; a line that is too long, not UTF-8
            // or not JSON has none.
            let line = line.as_ref();
            let request = (line.len() <= MAX_LINE_BYTES)
                .then_some(line)
                .ok_or_else(|| {
                    let limit = format!("{} MiB ({MAX_LINE_BYTES} bytes)", MAX_LINE_BYTES >> 20);
                    (None, format!("invalid request: line longer than the {limit} limit"))
                })
                .and_then(|line| {
                    std::str::from_utf8(line).map_err(|e| (None, format!("invalid request: {e}")))
                })
                .and_then(|line| {
                    serde_json::from_str(line).map_err(|e| (None, format!("invalid request: {e}")))
                })
                .and_then(|value| {
                    Request::from_json(&value).map_err(|e| {
                        let id = value.get("id").and_then(Value::as_str).map(str::to_string);
                        (id, format!("invalid request: {e}"))
                    })
                });
            match request {
                Err((id, message)) => {
                    responses[at] = Some(Response::failure(
                        id,
                        message,
                        false,
                        Some(self.cache_body()),
                        started.elapsed(),
                    ));
                }
                Ok(Request::Stats { id }) => stats_requests.push((at, id, started)),
                Ok(Request::Cancel { id }) => {
                    self.batch_cancel.cancel();
                    responses[at] =
                        Some(Response::cancelled(id, self.cache_body(), started.elapsed()));
                }
                Ok(Request::Analyze(req)) => {
                    self.route(at, "analyze", req, started, &mut responses, &mut misses);
                }
                Ok(Request::Sweep(req)) => {
                    self.route(at, "sweep", req, started, &mut responses, &mut misses);
                }
                Ok(Request::AnalyzeDelta(req)) => {
                    self.route(at, "analyze_delta", req, started, &mut responses, &mut misses);
                }
            }
        }
        self.run_misses(misses, &mut responses);
        for (at, id, started) in stats_requests {
            responses[at] = Some(Response::stats(
                id,
                self.requests_served,
                self.governor,
                self.cache_body(),
                started.elapsed(),
            ));
        }
        responses.into_iter().map(|r| r.expect("every request receives a response")).collect()
    }

    fn cache_body(&self) -> CacheBody {
        let stats = self.cache.stats();
        CacheBody {
            hits: stats.hits,
            misses: stats.misses,
            insertions: stats.insertions,
            evictions: stats.evictions,
            resident: self.cache.len(),
            live_nodes: self.cache.live_nodes(),
            budget: self.cache.budget(),
        }
    }

    fn route(
        &mut self,
        at: usize,
        kind: &'static str,
        req: EvalRequest,
        started: Instant,
        responses: &mut [Option<Response>],
        misses: &mut Vec<(usize, EvalPlan)>,
    ) {
        let id = req.id.clone();
        match resolve(kind, req) {
            Err(message) => {
                responses[at] = Some(Response::failure(
                    id,
                    message,
                    false,
                    Some(self.cache_body()),
                    started.elapsed(),
                ));
            }
            // A zero time budget asks for statistical bounds without
            // touching the diagrams at all — not even a cache hit.
            Ok(plan) if plan.timeout_ms == Some(0) => {
                responses[at] = Some(self.evaluate_governed(&plan, started));
            }
            // `get` counts the request's one hit or miss and refreshes
            // the LRU position; later accesses go through the uncounted
            // `peek` path.
            Ok(plan) => {
                if self.cache.get(&plan.key).is_some() {
                    responses[at] = Some(self.evaluate_hit(&plan, started));
                } else if plan.governed() {
                    // Per-request limits cannot ride the shared batch
                    // matrix (its compilations share one CompileOptions);
                    // compile under the request's own governor instead.
                    responses[at] = Some(self.evaluate_governed(&plan, started));
                } else {
                    misses.push((at, plan));
                }
            }
        }
    }

    /// Evaluates a request under its own resource limits, degrading to
    /// Monte-Carlo confidence bounds when the governed compilation
    /// exceeds them (`timeout_ms: 0` goes straight to bounds). The
    /// compiled pipeline is deliberately not cached: a budget-truncated
    /// compile is not representative of the configuration.
    fn evaluate_governed(&mut self, plan: &EvalPlan, started: Instant) -> Response {
        let mut options = self.options;
        if let Some(budget) = plan.node_budget {
            options = options.with_node_budget(budget as usize);
        }
        if let Some(deadline) = plan.timeout_ms {
            options = options.with_deadline_ms(deadline);
        }
        // Bounds-only ladder: whether an intermediate exact rung fits a
        // budget depends on thread count and machine speed, but the
        // Monte-Carlo bounds are deterministic — so governed responses
        // can be pinned as fixtures.
        let ladder = DegradeLadder::bounds_only();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut pipeline =
                Pipeline::with_options(&plan.system.fault_tree, &plan.system.components, options)?;
            pipeline.set_cancel_token(Some(self.batch_cancel.clone()));
            let lethal: &dyn DefectDistribution = &*plan.distribution;
            let mut reports = Vec::with_capacity(plan.rules.len());
            for rule in &plan.rules {
                let analysis = rule.options(plan.key.spec, plan.key.conversion);
                let report = if plan.timeout_ms == Some(0) {
                    pipeline.evaluate_bounds(lethal, &analysis, &ladder)?
                } else {
                    pipeline.evaluate_governed(lethal, &analysis, &ladder)?
                };
                reports.push(report_body(&report, plan.key.conversion, rule, None));
            }
            Ok::<Vec<ReportBody>, CoreError>(reports)
        }));
        match outcome {
            Ok(Ok(reports)) => {
                let degraded = reports.iter().filter(|r| r.fidelity != "exact").count() as u64;
                self.governor.degraded += degraded;
                if degraded > 0 && plan.timeout_ms != Some(0) {
                    // A non-exact answer under a positive budget means a
                    // governed compile tripped its limit.
                    self.governor.budget_exceeded += 1;
                }
                Response::eval(
                    plan.kind,
                    plan.id.clone(),
                    "governed",
                    reports,
                    self.cache_body(),
                    started.elapsed(),
                )
            }
            Ok(Err(error)) => {
                if matches!(error, CoreError::Resource(DdError::Cancelled)) {
                    self.governor.cancelled += 1;
                }
                Response::failure(
                    plan.id.clone(),
                    error.to_string(),
                    false,
                    Some(self.cache_body()),
                    started.elapsed(),
                )
            }
            Err(payload) => Response::failure(
                plan.id.clone(),
                panic_message(payload.as_ref()),
                true,
                Some(self.cache_body()),
                started.elapsed(),
            ),
        }
    }

    /// Evaluates a request on the resident pipeline — no compilation
    /// unless the request's truncation exceeds what the diagram was
    /// compiled at (then the extension is reported as `recompiled`).
    /// Delta requests that resolve entirely against the resident diagram
    /// (incremental rebuilds and swap-only re-evaluations) are reported
    /// as `delta`.
    fn evaluate_hit(&mut self, plan: &EvalPlan, started: Instant) -> Response {
        let compiles_before = self.cache.peek(&plan.key).map_or(0, Pipeline::compiles);
        let outcome = {
            let pipeline = self.cache.peek_mut(&plan.key).expect("hit: the key was just found");
            let lethal: &dyn DefectDistribution = &*plan.distribution;
            catch_unwind(AssertUnwindSafe(|| {
                plan.rules
                    .iter()
                    .map(|rule| {
                        let options = rule.options(plan.key.spec, plan.key.conversion);
                        if plan.deltas.is_empty() {
                            pipeline
                                .evaluate(lethal, &options)
                                .map(|report| {
                                    vec![report_body(&report, plan.key.conversion, rule, None)]
                                })
                                .map_err(|e| e.to_string())
                        } else {
                            pipeline
                                .sweep_deltas(lethal, &options, &plan.deltas)
                                .map(|reports| {
                                    reports
                                        .iter()
                                        .zip(&plan.deltas)
                                        .map(|(report, delta)| {
                                            report_body(
                                                report,
                                                plan.key.conversion,
                                                rule,
                                                Some(delta.name().to_string()),
                                            )
                                        })
                                        .collect()
                                })
                                .map_err(|e| e.to_string())
                        }
                    })
                    .collect::<Result<Vec<Vec<_>>, String>>()
                    .map(|nested| nested.into_iter().flatten().collect::<Vec<_>>())
            }))
        };
        match outcome {
            Ok(Ok(reports)) => {
                let compiles_after = self.cache.peek(&plan.key).map_or(0, Pipeline::compiles);
                let compiled = if compiles_after != compiles_before {
                    "recompiled"
                } else if plan.deltas.is_empty() {
                    "cached"
                } else {
                    "delta"
                };
                Response::eval(
                    plan.kind,
                    plan.id.clone(),
                    compiled,
                    reports,
                    self.cache_body(),
                    started.elapsed(),
                )
            }
            Ok(Err(message)) => Response::failure(
                plan.id.clone(),
                message,
                false,
                Some(self.cache_body()),
                started.elapsed(),
            ),
            Err(payload) => {
                // A panicked evaluation may leave the resident diagrams
                // half-updated; drop the pipeline rather than trust it.
                self.cache.remove(&plan.key);
                Response::failure(
                    plan.id.clone(),
                    panic_message(payload.as_ref()),
                    true,
                    Some(self.cache_body()),
                    started.elapsed(),
                )
            }
        }
    }

    /// Runs every uncached request of the batch as one [`SweepMatrix`] —
    /// one block per request, so the executor's per-chunk containment
    /// maps failures back to exactly one response — and inserts the kept
    /// pipelines into the cache.
    fn run_misses(&mut self, misses: Vec<(usize, EvalPlan)>, responses: &mut [Option<Response>]) {
        if misses.is_empty() {
            return;
        }
        let started = Instant::now();
        let mut matrix = SweepMatrix::new();
        matrix.options = self.options;
        matrix.cancel = Some(self.batch_cancel.clone());
        let mut metas: Vec<MissMeta> = Vec::with_capacity(misses.len());
        for (at, plan) in misses {
            let EvalPlan {
                id,
                kind,
                key,
                system,
                distribution,
                dist_label,
                dist_spec,
                rules,
                deltas,
                ..
            } = plan;
            let mut block = SweepBlock::new();
            block.systems.push(system.clone());
            block.distributions.push(NamedDistribution { name: dist_label, distribution });
            block.specs.push(key.spec);
            block.conversions.push(key.conversion);
            metas.push(MissMeta {
                at,
                id,
                kind,
                key,
                points: rules.len() * deltas.len().max(1),
                system,
                dist_spec,
                rules: rules.clone(),
                has_deltas: !deltas.is_empty(),
            });
            block.rules = rules;
            block.deltas = deltas;
            matrix.add(block);
        }
        let (outcome, pipelines) = matrix.run_keeping_pipelines(self.threads);
        let elapsed = started.elapsed();
        for kept in pipelines {
            // Blocks are 1:1 with misses, so the block index recovers the
            // request's key.
            self.cache.insert(metas[kept.block].key.clone(), kept.pipeline);
        }
        let mut offset = 0;
        for (block, meta) in metas.iter().enumerate() {
            let points = &outcome.points[offset..offset + meta.points];
            offset += meta.points;
            let chunk_error = outcome.summary.chunk_errors.iter().find(|c| c.block == block);
            let response = if let Some(chunk) = chunk_error {
                if chunk.resource && self.batch_cancel.is_cancelled() {
                    self.governor.cancelled += 1;
                } else if chunk.resource {
                    self.governor.budget_exceeded += 1;
                }
                // An over-budget (but not cancelled) compilation degrades
                // to Monte-Carlo bounds instead of failing the request.
                let fallback = if chunk.resource && !self.batch_cancel.is_cancelled() {
                    self.bounds_fallback(meta, elapsed)
                } else {
                    None
                };
                fallback.unwrap_or_else(|| {
                    Response::failure(
                        meta.id.clone(),
                        chunk.message.clone(),
                        chunk.panicked,
                        Some(self.cache_body()),
                        elapsed,
                    )
                })
            } else {
                match points.iter().map(|p| p.result.as_ref()).collect::<Result<Vec<_>, _>>() {
                    Ok(reports) => Response::eval(
                        meta.kind,
                        meta.id.clone(),
                        "cold",
                        reports
                            .iter()
                            .zip(points)
                            .map(|(r, p)| {
                                report_body(
                                    r,
                                    meta.key.conversion,
                                    &p.labels.rule,
                                    p.labels.delta.clone(),
                                )
                            })
                            .collect(),
                        self.cache_body(),
                        elapsed,
                    ),
                    Err(error) => Response::failure(
                        meta.id.clone(),
                        error.message.clone(),
                        false,
                        Some(self.cache_body()),
                        elapsed,
                    ),
                }
            };
            responses[meta.at] = Some(response);
        }
    }

    /// Answers a resource-failed uncached request with Monte-Carlo
    /// confidence bounds (`"fidelity":"bounds"`). Returns `None` when the
    /// fallback itself cannot apply — what-if families have no
    /// simulation equivalent, and a distribution that no longer resolves
    /// should surface the original resource error.
    fn bounds_fallback(
        &mut self,
        meta: &MissMeta,
        elapsed: std::time::Duration,
    ) -> Option<Response> {
        if meta.has_deltas {
            return None;
        }
        let (distribution, _) = resolve_distribution(&meta.dist_spec).ok()?;
        let pipeline = Pipeline::new(&meta.system.fault_tree, &meta.system.components).ok()?;
        let ladder = DegradeLadder::bounds_only();
        let lethal: &dyn DefectDistribution = &*distribution;
        let mut reports = Vec::with_capacity(meta.rules.len());
        for rule in &meta.rules {
            let analysis = rule.options(meta.key.spec, meta.key.conversion);
            let report = pipeline.evaluate_bounds(lethal, &analysis, &ladder).ok()?;
            reports.push(report_body(&report, meta.key.conversion, rule, None));
        }
        self.governor.degraded += reports.len() as u64;
        Some(Response::eval(
            meta.kind,
            meta.id.clone(),
            "bounds",
            reports,
            self.cache_body(),
            elapsed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_labels_round_trip() {
        for conversion in [ConversionAlgorithm::TopDown, ConversionAlgorithm::Layered] {
            assert_eq!(parse_conversion(conversion_label(conversion)).unwrap(), conversion);
        }
        assert!(parse_conversion("sideways").unwrap_err().contains("unknown conversion"));
    }

    #[test]
    fn system_resolution_builds_canonical_identities() {
        let bench = serde_json::from_str(r#"{"benchmark":"MS2"}"#).unwrap();
        let (spec, identity) = resolve_system(&bench).unwrap();
        assert_eq!(spec.name, "MS2");
        assert_eq!(identity, format!("benchmark:MS2:pl={:016x}", 1.0f64.to_bits()));

        let inline = serde_json::from_str(
            r#"{"name":"pair","netlist":"input a\ninput b\nf = and a b\noutput f",
                "components":[0.5,0.5]}"#,
        )
        .unwrap();
        let (spec, identity) = resolve_system(&inline).unwrap();
        assert_eq!(spec.name, "pair");
        assert_eq!(spec.fault_tree.num_inputs(), 2);
        assert!(identity.starts_with("inline:pair:"), "{identity}");

        let unknown = serde_json::from_str(r#"{"benchmark":"MS99"}"#).unwrap();
        assert!(resolve_system(&unknown).unwrap_err().contains("unknown benchmark"));
        let empty = serde_json::from_str("{}").unwrap();
        assert!(resolve_system(&empty).unwrap_err().contains("field `system`"));
    }

    #[test]
    fn distribution_resolution_validates_parameters() {
        let ok = DistributionSpec {
            kind: "negative_binomial".to_string(),
            lambda: Some(1.0),
            alpha: Some(4.0),
            masses: None,
        };
        let (_, label) = resolve_distribution(&ok).unwrap();
        assert!(label.contains("λ'=1"), "{label}");
        let missing = DistributionSpec { alpha: None, ..ok.clone() };
        let err = resolve_distribution(&missing).map(|_| ()).unwrap_err();
        assert!(err.contains("requires `alpha`"), "{err}");
        let unknown = DistributionSpec { kind: "zeta".to_string(), ..ok };
        let err = resolve_distribution(&unknown).map(|_| ()).unwrap_err();
        assert!(err.contains("unknown distribution"), "{err}");
    }
}
