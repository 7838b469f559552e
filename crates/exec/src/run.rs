//! The parallel executor: partitions a [`SweepMatrix`] into compilation
//! chunks, evaluates them on a scoped worker pool, and reassembles the
//! reports deterministically in matrix order.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use soc_yield_core::{
    CancelToken, CompileOptions, ConversionAlgorithm, CoreError, DdStats, Pipeline, SweepPoint,
    SystemDelta, YieldReport,
};
use socy_defect::DefectDistribution;
use socy_ordering::OrderingSpec;

use crate::matrix::{PointLabels, SharedDistribution, SweepMatrix, SystemSpec, TruncationRule};

/// One unit of parallel work: every point of one block that shares a
/// `(system, ordering spec, conversion)` configuration — i.e. exactly one
/// decision-diagram compilation, however many `(distribution, rule)`
/// evaluations (times the block's delta axis, if any) ride on it.
struct Chunk<'m> {
    /// Index of the [`SweepBlock`](crate::SweepBlock) the chunk came from.
    block: usize,
    system: &'m SystemSpec,
    spec: OrderingSpec,
    conversion: ConversionAlgorithm,
    /// Global matrix indices of the chunk's points, in matrix order —
    /// one per `(eval, delta)` combination when the block has deltas.
    indices: Vec<usize>,
    /// The distinct `(distribution, rule)` evaluations of the chunk.
    evals: Vec<(&'m dyn SharedDistribution, TruncationRule)>,
    /// The block's what-if delta family (empty = plain sweep).
    deltas: &'m [SystemDelta],
    /// Kernel knobs of this chunk's compilations (from
    /// [`SweepMatrix::options`]). The resource limits apply per
    /// compilation, i.e. per chunk — an over-budget chunk fails alone.
    options: CompileOptions,
    /// Cancellation token of the matrix (from [`SweepMatrix::cancel`]),
    /// observed by this chunk's governed compilations.
    cancel: Option<CancelToken>,
}

impl Chunk<'_> {
    fn run(&self) -> Result<(Vec<YieldReport>, Pipeline), ChunkFailure> {
        let mut pipeline =
            Pipeline::with_options(&self.system.fault_tree, &self.system.components, self.options)
                .map_err(ChunkFailure::from_core)?;
        pipeline.set_cancel_token(self.cancel.clone());
        if self.deltas.is_empty() {
            let points = self.evals.iter().map(|&(dist, rule)| SweepPoint {
                lethal: dist as &dyn DefectDistribution,
                options: rule.options(self.spec, self.conversion),
            });
            let reports = pipeline.sweep(points).map_err(ChunkFailure::from_core)?;
            return Ok((reports, pipeline));
        }
        // Delta families: the base system compiles once (kept resident in
        // the pipeline across evals), every variant rides on it.
        let mut reports = Vec::with_capacity(self.indices.len());
        for &(dist, rule) in &self.evals {
            let options = rule.options(self.spec, self.conversion);
            reports.extend(
                pipeline
                    .sweep_deltas(dist as &dyn DefectDistribution, &options, self.deltas)
                    .map_err(ChunkFailure::from_core)?,
            );
        }
        Ok((reports, pipeline))
    }

    /// Runs the chunk with unwinds contained: a panic anywhere inside
    /// compilation or evaluation (e.g. a faulty user-supplied
    /// distribution) becomes a [`ChunkFailure`] instead of poisoning the
    /// worker pool. `AssertUnwindSafe` is sound here because a failed
    /// chunk's pipeline is discarded wholesale — no state observed after
    /// the catch can be half-updated.
    fn run_contained(&self, keep_pipeline: bool) -> ChunkResult {
        match catch_unwind(AssertUnwindSafe(|| self.run())) {
            Ok(Ok((reports, pipeline))) => {
                Ok((reports, if keep_pipeline { Some(pipeline) } else { None }))
            }
            Ok(Err(failure)) => Err(failure),
            Err(payload) => Err(ChunkFailure {
                message: panic_message(payload.as_ref()),
                panicked: true,
                resource: false,
            }),
        }
    }
}

type ChunkResult = Result<(Vec<YieldReport>, Option<Pipeline>), ChunkFailure>;

/// Extracts the human-readable message of a panic payload: `panic: <text>`
/// for string payloads.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// How one chunk failed (internal: carried over the result channel, then
/// expanded into a [`ChunkError`] with the chunk's coordinates).
struct ChunkFailure {
    message: String,
    panicked: bool,
    resource: bool,
}

impl ChunkFailure {
    /// A failure from a returned pipeline error, preserving whether it
    /// was resource exhaustion (budget/deadline/cancel) so callers can
    /// degrade instead of treating the chunk as broken.
    fn from_core(e: CoreError) -> Self {
        ChunkFailure {
            message: e.to_string(),
            panicked: false,
            resource: matches!(e, CoreError::Resource(_)),
        }
    }
}

/// Splits the matrix into chunks, in matrix order of their first point.
fn chunks(matrix: &SweepMatrix) -> Vec<Chunk<'_>> {
    let mut out: Vec<Chunk<'_>> = Vec::new();
    let mut index = 0usize;
    for (block_at, block) in matrix.blocks.iter().enumerate() {
        let conversions = block.conversions_or_default();
        let first_chunk_of_block = out.len();
        for system in &block.systems {
            let first_chunk_of_system = out.len();
            for dist in &block.distributions {
                for (spec_at, &spec) in block.specs.iter().enumerate() {
                    for (conv_at, &conversion) in conversions.iter().enumerate() {
                        let chunk_at =
                            first_chunk_of_system + spec_at * conversions.len() + conv_at;
                        for &rule in &block.rules {
                            if out.len() <= chunk_at {
                                out.push(Chunk {
                                    block: block_at,
                                    system,
                                    spec,
                                    conversion,
                                    indices: Vec::new(),
                                    evals: Vec::new(),
                                    deltas: &block.deltas,
                                    options: matrix.options,
                                    cancel: matrix.cancel.clone(),
                                });
                            }
                            out[chunk_at].evals.push((&*dist.distribution, rule));
                            for _ in 0..block.deltas.len().max(1) {
                                out[chunk_at].indices.push(index);
                                index += 1;
                            }
                        }
                    }
                }
            }
        }
        debug_assert!(out[first_chunk_of_block..].iter().all(|c| !c.indices.is_empty()));
    }
    out
}

/// Failure of one design point (all points of a failed chunk share the
/// message of the underlying compilation or evaluation error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Label of the failed point.
    pub point: String,
    /// The underlying error, stringified.
    pub message: String,
    /// Whether the failure was resource exhaustion (budget, deadline or
    /// cancellation) — see [`ChunkError::resource`]. Resource-failed
    /// points are safe to answer with Monte-Carlo bounds instead.
    pub resource: bool,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.point, self.message)
    }
}

impl std::error::Error for SweepError {}

/// Failure of one compilation chunk, with the chunk's coordinates in the
/// matrix. One entry per failed chunk lands in
/// [`SweepSummary::chunk_errors`]; the chunk's points additionally carry
/// per-point [`SweepError`]s. A `panicked` error means the failure was an
/// unwind caught inside the worker — the rest of the sweep completed
/// normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkError {
    /// Index of the [`SweepBlock`](crate::SweepBlock) within the matrix.
    pub block: usize,
    /// Name of the system the chunk was compiling.
    pub system: String,
    /// Variable-ordering specification of the chunk.
    pub spec: OrderingSpec,
    /// ROBDD→ROMDD conversion algorithm of the chunk.
    pub conversion: ConversionAlgorithm,
    /// The underlying error, stringified (panic message for unwinds).
    pub message: String,
    /// Whether the failure was a caught panic rather than a returned
    /// error.
    pub panicked: bool,
    /// Whether the failure was resource exhaustion — a governed
    /// compilation exceeding its node budget or deadline, or a
    /// cancellation ([`CoreError::Resource`]). Resource failures leave
    /// the chunk's manager consistent; callers may retry with a larger
    /// budget or degrade to Monte-Carlo bounds.
    pub resource: bool,
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chunk (block {}, {}, {}, {:?}) {}: {}",
            self.block,
            self.system,
            self.spec.label(),
            self.conversion,
            if self.panicked { "panicked" } else { "failed" },
            self.message
        )
    }
}

impl std::error::Error for ChunkError {}

/// A compiled [`Pipeline`] retained from a successful chunk of a
/// [`SweepMatrix::run_keeping_pipelines`] call, keyed by the chunk's
/// coordinates so callers (e.g. a serving cache) can reuse the diagrams
/// for later evaluations without recompiling.
pub struct CompiledPipeline {
    /// Index of the [`SweepBlock`](crate::SweepBlock) within the matrix.
    pub block: usize,
    /// Name of the system the pipeline was compiled for.
    pub system: String,
    /// Variable-ordering specification the pipeline was compiled with.
    pub spec: OrderingSpec,
    /// ROBDD→ROMDD conversion algorithm the pipeline was compiled with.
    pub conversion: ConversionAlgorithm,
    /// The compiled pipeline, ready for linear-time re-evaluation.
    pub pipeline: Pipeline,
}

/// Result of one design point: its labels plus the report (or the error
/// of its chunk).
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// Which point of the matrix this is.
    pub labels: PointLabels,
    /// The yield report, or the failure of the chunk that owned the
    /// point.
    pub result: Result<YieldReport, SweepError>,
}

/// Kernel statistics aggregated across every compiled decision diagram
/// of a sweep (one entry absorbed per chunk).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DdAggregate {
    /// Largest per-manager peak node count seen — the memory high-water
    /// mark of the busiest single compilation.
    pub peak_nodes_max: usize,
    /// Sum of the per-manager peak node counts (total transient
    /// allocation pressure of the sweep).
    pub peak_nodes_sum: u64,
    /// Sum of the per-manager unique-table entry counts.
    pub unique_entries_sum: u64,
    /// Operation-cache hits across all managers.
    pub op_cache_hits: u64,
    /// Operation-cache misses across all managers.
    pub op_cache_misses: u64,
    /// Operation-cache insertions across all managers.
    pub op_cache_insertions: u64,
    /// Operation-cache evictions (lossy direct-mapped conflicts) across
    /// all managers.
    pub op_cache_evictions: u64,
    /// Garbage collections run across all managers.
    pub gc_runs: u64,
    /// Nodes reclaimed by garbage collection across all managers.
    pub gc_reclaimed: u64,
}

impl DdAggregate {
    /// Folds one manager's statistics into the aggregate.
    pub fn absorb(&mut self, stats: &DdStats) {
        self.peak_nodes_max = self.peak_nodes_max.max(stats.peak_nodes);
        self.peak_nodes_sum += stats.peak_nodes as u64;
        self.unique_entries_sum += stats.unique_entries as u64;
        self.op_cache_hits += stats.op_cache_hits;
        self.op_cache_misses += stats.op_cache_misses;
        self.op_cache_insertions += stats.op_cache_insertions;
        self.op_cache_evictions += stats.op_cache_evictions;
        self.gc_runs += stats.gc_runs;
        self.gc_reclaimed += stats.gc_reclaimed;
    }

    /// Fraction of operation-cache lookups that hit, in `[0, 1]`
    /// (`0` when no lookups happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.op_cache_hits + self.op_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.op_cache_hits as f64 / total as f64
        }
    }

    /// Operation-cache hit rate as a percentage in `[0, 100]`.
    pub fn cache_hit_percent(&self) -> f64 {
        100.0 * self.cache_hit_rate()
    }

    /// Fraction of operation-cache insertions that evicted a live entry,
    /// as a percentage in `[0, 100]` (`0` when nothing was inserted).
    pub fn cache_evict_percent(&self) -> f64 {
        if self.op_cache_insertions == 0 {
            0.0
        } else {
            100.0 * self.op_cache_evictions as f64 / self.op_cache_insertions as f64
        }
    }
}

/// Per-worker execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Worker index, `0 .. threads`.
    pub worker: usize,
    /// Chunks this worker executed.
    pub chunks: usize,
    /// Design points this worker evaluated.
    pub points: usize,
    /// Wall-clock time the worker spent from spawn to exhaustion of the
    /// chunk queue.
    pub busy: Duration,
}

/// Aggregate statistics of one [`SweepMatrix::run`]: thread/chunk/point
/// counts, wall-clock and per-worker times, and the kernel statistics of
/// every ROBDD and ROMDD manager the sweep created, folded into one
/// [`DdAggregate`] each.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Number of worker threads used.
    pub threads: usize,
    /// Total design points (successful or failed).
    pub points: usize,
    /// Number of compilation chunks the matrix was partitioned into.
    pub chunks: usize,
    /// Points whose chunk failed.
    pub failed_points: usize,
    /// One entry per failed chunk, in chunk (= matrix) order — including
    /// chunks that *panicked* rather than returned an error. Empty for a
    /// fully successful run.
    pub chunk_errors: Vec<ChunkError>,
    /// Wall-clock time of the whole run.
    pub wall_time: Duration,
    /// Sum of the workers' busy times (≈ `wall_time × threads` when the
    /// partition balances well).
    pub busy_time: Duration,
    /// Sum over chunks of the compile time (coded-ROBDD build + ROMDD
    /// conversion) their reports carry.
    pub compile_time: Duration,
    /// Aggregated coded-ROBDD manager statistics.
    pub robdd: DdAggregate,
    /// Aggregated ROMDD manager statistics.
    pub romdd: DdAggregate,
    /// Per-worker breakdown, indexed by worker.
    pub workers: Vec<WorkerSummary>,
}

/// Everything a [`SweepMatrix::run`] produced: per-point outcomes in
/// matrix order plus the [`SweepSummary`].
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One outcome per design point, in matrix order.
    pub points: Vec<PointOutcome>,
    /// Aggregate statistics.
    pub summary: SweepSummary,
}

impl SweepOutcome {
    /// All reports in matrix order, or the failure of the *earliest*
    /// failed point (deterministic regardless of worker scheduling).
    ///
    /// # Errors
    ///
    /// Returns the [`SweepError`] of the first failed point in matrix
    /// order.
    pub fn reports(&self) -> Result<Vec<&YieldReport>, SweepError> {
        self.points.iter().map(|p| p.result.as_ref().map_err(SweepError::clone)).collect()
    }

    /// Like [`SweepOutcome::reports`], but by value.
    ///
    /// # Errors
    ///
    /// Returns the [`SweepError`] of the first failed point in matrix
    /// order.
    pub fn into_reports(self) -> Result<Vec<YieldReport>, SweepError> {
        self.points.into_iter().map(|p| p.result).collect()
    }
}

enum Message {
    Chunk { at: usize, result: Box<ChunkResult> },
    Worker(WorkerSummary),
}

impl SweepMatrix {
    /// Evaluates every design point of the matrix on `threads` workers
    /// (`0` = the machine's available parallelism) and returns the
    /// reports in matrix order plus a [`SweepSummary`].
    ///
    /// The matrix is partitioned into chunks of points sharing a
    /// `(system, ordering spec, conversion)` configuration within one
    /// block; each worker owns a private [`Pipeline`] (and hence private
    /// ROBDD/ROMDD managers) per chunk and the chunks communicate only
    /// through the result channel, so the outcome is **bit-identical for
    /// every thread count** — including `1` — and identical to evaluating
    /// each chunk with a serial [`Pipeline::sweep`].
    pub fn run(&self, threads: usize) -> SweepOutcome {
        self.run_inner(threads, false).0
    }

    /// Like [`SweepMatrix::run`], but additionally returns the compiled
    /// [`Pipeline`] of every *successful* chunk (in chunk order), so a
    /// caller-side cache can serve later evaluations of the same
    /// `(system, ordering spec, conversion)` configuration without
    /// recompiling — the paper's compile-once / evaluate-many economics.
    pub fn run_keeping_pipelines(&self, threads: usize) -> (SweepOutcome, Vec<CompiledPipeline>) {
        self.run_inner(threads, true)
    }

    fn run_inner(
        &self,
        threads: usize,
        keep_pipelines: bool,
    ) -> (SweepOutcome, Vec<CompiledPipeline>) {
        let started = Instant::now();
        let chunks = chunks(self);
        let threads = effective_threads(threads, chunks.len());
        let mut results: Vec<Option<ChunkResult>> = Vec::new();
        results.resize_with(chunks.len(), || None);
        let mut workers: Vec<WorkerSummary> = Vec::with_capacity(threads);

        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<Message>();
        thread::scope(|scope| {
            for worker in 0..threads {
                let tx = tx.clone();
                let next = &next;
                let chunks = &chunks;
                scope.spawn(move || {
                    let spawned = Instant::now();
                    let mut done_chunks = 0usize;
                    let mut done_points = 0usize;
                    loop {
                        let at = next.fetch_add(1, Ordering::Relaxed);
                        let Some(chunk) = chunks.get(at) else { break };
                        // Unwinds are caught per chunk: one faulty chunk
                        // must not take down the worker (or, transitively,
                        // a daemon running the sweep).
                        let result = chunk.run_contained(keep_pipelines);
                        done_chunks += 1;
                        done_points += chunk.indices.len();
                        if tx.send(Message::Chunk { at, result: Box::new(result) }).is_err() {
                            return; // collector gone; nothing left to report to
                        }
                    }
                    let _ = tx.send(Message::Worker(WorkerSummary {
                        worker,
                        chunks: done_chunks,
                        points: done_points,
                        busy: spawned.elapsed(),
                    }));
                });
            }
            drop(tx);
            // Deterministic reassembly: placement is keyed by chunk index,
            // so arrival order (worker scheduling) cannot influence it.
            for message in rx {
                match message {
                    Message::Chunk { at, result } => results[at] = Some(*result),
                    Message::Worker(summary) => workers.push(summary),
                }
            }
        });
        workers.sort_by_key(|w| w.worker);

        self.assemble(chunks, results, started.elapsed(), threads, workers)
    }

    fn assemble(
        &self,
        chunks: Vec<Chunk<'_>>,
        results: Vec<Option<ChunkResult>>,
        wall_time: Duration,
        threads: usize,
        workers: Vec<WorkerSummary>,
    ) -> (SweepOutcome, Vec<CompiledPipeline>) {
        let labels = self.labels();
        let mut points: Vec<Option<PointOutcome>> = Vec::new();
        points.resize_with(labels.len(), || None);
        let mut pipelines: Vec<CompiledPipeline> = Vec::new();
        let mut summary = SweepSummary {
            threads,
            points: labels.len(),
            chunks: chunks.len(),
            failed_points: 0,
            chunk_errors: Vec::new(),
            wall_time,
            busy_time: workers.iter().map(|w| w.busy).sum(),
            compile_time: Duration::ZERO,
            robdd: DdAggregate::default(),
            romdd: DdAggregate::default(),
            workers,
        };
        for (chunk, result) in chunks.iter().zip(results) {
            // A missing result means the chunk's worker died before
            // reporting (it cannot happen while `run_contained` catches
            // unwinds, but a daemon must not die on "cannot happen").
            let result = result.unwrap_or_else(|| {
                Err(ChunkFailure {
                    message: "chunk worker terminated without sending a result".to_string(),
                    panicked: true,
                    resource: false,
                })
            });
            match result {
                Ok((reports, pipeline)) => {
                    debug_assert_eq!(reports.len(), chunk.indices.len());
                    // One compiled model per chunk: fold its statistics in
                    // once, from the last report (the ROMDD statistics are
                    // cumulative across the chunk's evaluations).
                    if let Some(last) = reports.last() {
                        summary.robdd.absorb(&last.robdd_stats);
                        summary.romdd.absorb(&last.romdd_stats);
                        summary.compile_time += last.robdd_time + last.conversion_time;
                    }
                    for (&index, report) in chunk.indices.iter().zip(reports) {
                        points[index] = Some(PointOutcome {
                            labels: labels[index].clone(),
                            result: Ok(report),
                        });
                    }
                    if let Some(pipeline) = pipeline {
                        pipelines.push(CompiledPipeline {
                            block: chunk.block,
                            system: chunk.system.name.clone(),
                            spec: chunk.spec,
                            conversion: chunk.conversion,
                            pipeline,
                        });
                    }
                }
                Err(failure) => {
                    summary.failed_points += chunk.indices.len();
                    summary.chunk_errors.push(ChunkError {
                        block: chunk.block,
                        system: chunk.system.name.clone(),
                        spec: chunk.spec,
                        conversion: chunk.conversion,
                        message: failure.message.clone(),
                        panicked: failure.panicked,
                        resource: failure.resource,
                    });
                    for &index in &chunk.indices {
                        points[index] = Some(PointOutcome {
                            labels: labels[index].clone(),
                            result: Err(SweepError {
                                point: labels[index].label(),
                                message: failure.message.clone(),
                                resource: failure.resource,
                            }),
                        });
                    }
                }
            }
        }
        let points = points
            .into_iter()
            .enumerate()
            .map(|(index, point)| {
                // By construction every point belongs to exactly one
                // chunk; degrade to a per-point error rather than
                // aborting if that invariant ever breaks.
                point.unwrap_or_else(|| {
                    summary.failed_points += 1;
                    PointOutcome {
                        labels: labels[index].clone(),
                        result: Err(SweepError {
                            point: labels[index].label(),
                            message: "point was not covered by any chunk".to_string(),
                            resource: false,
                        }),
                    }
                })
            })
            .collect();
        (SweepOutcome { points, summary }, pipelines)
    }
}

/// Resolves the requested worker count: `0` means the machine's available
/// parallelism, and more workers than chunks are never spawned.
pub fn effective_threads(requested: usize, chunks: usize) -> usize {
    let requested = if requested == 0 {
        thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    } else {
        requested
    };
    requested.clamp(1, chunks.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{NamedDistribution, SweepBlock};
    use socy_defect::{ComponentProbabilities, NegativeBinomial};
    use socy_faulttree::Netlist;

    fn figure2(name: &str) -> SystemSpec {
        let mut nl = Netlist::new();
        let x1 = nl.input("x1");
        let x2 = nl.input("x2");
        let x3 = nl.input("x3");
        let a = nl.and([x1, x2]);
        let f = nl.or([a, x3]);
        nl.set_output(f);
        SystemSpec::new(name, nl, ComponentProbabilities::new(vec![0.2, 0.3, 0.5]).unwrap())
    }

    fn small_matrix() -> SweepMatrix {
        let mut block = SweepBlock::new();
        block.systems.push(figure2("F2a"));
        block.systems.push(figure2("F2b"));
        block
            .distributions
            .push(NamedDistribution::new("λ'=1", NegativeBinomial::new(1.0, 4.0).unwrap()));
        block
            .distributions
            .push(NamedDistribution::new("λ'=2", NegativeBinomial::new(2.0, 4.0).unwrap()));
        block.specs.push(OrderingSpec::paper_default());
        block.rules.push(TruncationRule::Epsilon(1e-2));
        block.rules.push(TruncationRule::Epsilon(1e-4));
        let mut matrix = SweepMatrix::new();
        matrix.add(block);
        matrix
    }

    #[test]
    fn chunking_groups_points_by_configuration() {
        let matrix = small_matrix();
        let chunks = chunks(&matrix);
        // 2 systems × 1 spec × 1 conversion.
        assert_eq!(chunks.len(), 2);
        // Each chunk carries 2 distributions × 2 rules = 4 points.
        assert_eq!(chunks[0].indices, vec![0, 1, 2, 3]);
        assert_eq!(chunks[1].indices, vec![4, 5, 6, 7]);
        assert_eq!(chunks[0].system.name, "F2a");
        assert_eq!(chunks[1].system.name, "F2b");
    }

    #[test]
    fn parallel_run_matches_single_worker_bit_for_bit() {
        let matrix = small_matrix();
        let serial = matrix.run(1);
        assert_eq!(serial.summary.threads, 1);
        assert_eq!(serial.summary.points, 8);
        assert_eq!(serial.summary.chunks, 2);
        assert_eq!(serial.summary.failed_points, 0);
        for threads in [2, 4] {
            let parallel = matrix.run(threads);
            assert_eq!(parallel.summary.threads, 2, "clamped to the chunk count");
            for (a, b) in serial.points.iter().zip(&parallel.points) {
                assert_eq!(a.labels, b.labels);
                let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
                assert_eq!(
                    ra.yield_lower_bound.to_bits(),
                    rb.yield_lower_bound.to_bits(),
                    "{}",
                    a.labels
                );
                assert_eq!(ra.truncation, rb.truncation);
                assert_eq!(ra.compiled_truncation, rb.compiled_truncation);
                assert_eq!(ra.coded_robdd_size, rb.coded_robdd_size);
                assert_eq!(ra.romdd_size, rb.romdd_size);
            }
            // The aggregate kernel statistics are deterministic too.
            assert_eq!(serial.summary.robdd, parallel.summary.robdd);
            assert_eq!(serial.summary.romdd, parallel.summary.romdd);
        }
    }

    #[test]
    fn run_matches_a_serial_pipeline_sweep() {
        let matrix = small_matrix();
        let outcome = matrix.run(2);
        let reports = outcome.reports().unwrap();
        // Reference: one serial Pipeline::sweep per (system, spec) chunk.
        let lethal1 = NegativeBinomial::new(1.0, 4.0).unwrap();
        let lethal2 = NegativeBinomial::new(2.0, 4.0).unwrap();
        let spec = OrderingSpec::paper_default();
        let system = figure2("F2a");
        let mut pipeline = Pipeline::new(&system.fault_tree, &system.components).unwrap();
        let points = [(1e-2, &lethal1), (1e-4, &lethal1), (1e-2, &lethal2), (1e-4, &lethal2)].map(
            |(epsilon, lethal)| SweepPoint {
                lethal: lethal as &dyn DefectDistribution,
                options: TruncationRule::Epsilon(epsilon)
                    .options(spec, ConversionAlgorithm::TopDown),
            },
        );
        let reference = pipeline.sweep(points).unwrap();
        for (swept, reference) in reports.iter().zip(&reference) {
            assert_eq!(swept.yield_lower_bound.to_bits(), reference.yield_lower_bound.to_bits());
            assert_eq!(swept.truncation, reference.truncation);
            assert_eq!(swept.compiled_truncation, reference.compiled_truncation);
            assert_eq!(swept.coded_robdd_size, reference.coded_robdd_size);
            assert_eq!(swept.robdd_peak, reference.robdd_peak);
            assert_eq!(swept.romdd_size, reference.romdd_size);
        }
    }

    #[test]
    fn failed_chunks_surface_per_point_errors_deterministically() {
        let mut matrix = small_matrix();
        // A block whose rule is unreachable: the sub-stochastic empirical
        // distribution can never accumulate 1 − 1e-12 of mass, so the
        // truncation selection fails.
        let mut bad = SweepBlock::new();
        bad.systems.push(figure2("BAD"));
        bad.distributions.push(NamedDistribution::new(
            "sub-stochastic",
            socy_defect::Empirical::new(vec![0.5, 0.3]).unwrap(),
        ));
        bad.specs.push(OrderingSpec::paper_default());
        bad.rules.push(TruncationRule::Epsilon(1e-12));
        matrix.add(bad);
        let outcome = matrix.run(3);
        assert_eq!(outcome.summary.failed_points, 1);
        assert_eq!(outcome.summary.points, 9);
        // The failed chunk is reported with its coordinates, as a
        // returned error rather than a caught panic.
        assert_eq!(outcome.summary.chunk_errors.len(), 1);
        let chunk_error = &outcome.summary.chunk_errors[0];
        assert_eq!(chunk_error.block, 1);
        assert_eq!(chunk_error.system, "BAD");
        assert!(!chunk_error.panicked);
        let failed = &outcome.points[8];
        let err = failed.result.as_ref().unwrap_err();
        assert!(err.point.contains("BAD"), "{err}");
        // reports()/into_reports() surface the earliest failure.
        assert_eq!(outcome.reports().unwrap_err(), *err);
        assert_eq!(outcome.clone().into_reports().unwrap_err(), *err);
        // The healthy points are unaffected.
        assert!(outcome.points[..8].iter().all(|p| p.result.is_ok()));
    }

    /// A defect distribution whose pmf unwinds — stands in for faulty
    /// user-supplied code reaching the executor.
    #[derive(Debug)]
    struct PanicDist;

    impl DefectDistribution for PanicDist {
        fn pmf(&self, _k: usize) -> f64 {
            panic!("deliberate test panic in pmf")
        }

        fn mean(&self) -> Option<f64> {
            None
        }
    }

    #[test]
    fn panicking_chunk_is_contained_and_reported() {
        let mut matrix = small_matrix();
        let mut bad = SweepBlock::new();
        bad.systems.push(figure2("PANIC"));
        bad.distributions.push(NamedDistribution::new("boom", PanicDist));
        bad.specs.push(OrderingSpec::paper_default());
        bad.rules.push(TruncationRule::Epsilon(1e-3));
        matrix.add(bad);
        let outcome = matrix.run(2);
        assert_eq!(outcome.summary.points, 9);
        assert_eq!(outcome.summary.failed_points, 1);
        assert_eq!(outcome.summary.chunk_errors.len(), 1);
        let chunk_error = &outcome.summary.chunk_errors[0];
        assert!(chunk_error.panicked, "{chunk_error}");
        assert_eq!(chunk_error.block, 1);
        assert_eq!(chunk_error.system, "PANIC");
        assert!(chunk_error.message.contains("deliberate test panic"), "{chunk_error}");
        // The panicking point carries a per-point error …
        let failed = outcome.points[8].result.as_ref().unwrap_err();
        assert!(failed.message.contains("deliberate test panic"), "{failed}");
        // … while every healthy point matches a clean run bit for bit.
        let clean = small_matrix().run(1);
        for (a, b) in clean.points.iter().zip(&outcome.points) {
            assert_eq!(
                a.result.as_ref().unwrap().yield_lower_bound.to_bits(),
                b.result.as_ref().unwrap().yield_lower_bound.to_bits(),
                "{}",
                a.labels
            );
        }
    }

    #[test]
    fn kept_pipelines_reevaluate_bit_identically() {
        let matrix = small_matrix();
        let (outcome, pipelines) = matrix.run_keeping_pipelines(2);
        assert_eq!(pipelines.len(), 2);
        assert_eq!(pipelines[0].system, "F2a");
        assert_eq!(pipelines[1].system, "F2b");
        // Re-evaluating on a kept pipeline reuses the compiled diagrams
        // and reproduces the sweep's result bit for bit.
        let mut kept = pipelines.into_iter().next().unwrap();
        let compiles_after_sweep = kept.pipeline.compiles();
        let lethal = NegativeBinomial::new(1.0, 4.0).unwrap();
        let options = TruncationRule::Epsilon(1e-2).options(kept.spec, kept.conversion);
        let report = kept.pipeline.evaluate(&lethal, &options).unwrap();
        let reference = outcome.points[0].result.as_ref().unwrap();
        assert_eq!(report.yield_lower_bound.to_bits(), reference.yield_lower_bound.to_bits());
        assert_eq!(kept.pipeline.compiles(), compiles_after_sweep, "no recompilation");
        assert!(kept.pipeline.live_nodes() > 0);
    }

    #[test]
    fn delta_blocks_expand_and_match_materialized_systems() {
        let base = figure2("F2");
        let mut block = SweepBlock::new();
        block.systems.push(base.clone());
        block
            .distributions
            .push(NamedDistribution::new("λ'=1", NegativeBinomial::new(1.0, 4.0).unwrap()));
        block.specs.push(OrderingSpec::paper_default());
        block.rules.push(TruncationRule::Epsilon(1e-3));
        block.deltas.extend([
            SystemDelta::named("base"),
            SystemDelta::named("x1-hot").with_component_probability(0, 0.1),
            SystemDelta::named("x3-immune").with_component_probability(2, 0.0),
        ]);
        let mut matrix = SweepMatrix::new();
        matrix.add(block);
        assert_eq!(matrix.len(), 3, "one point per delta");
        let labels = matrix.labels();
        assert_eq!(labels[1].delta.as_deref(), Some("x1-hot"));
        assert!(labels[1].label().contains("Δx1-hot"));

        let outcome = matrix.run(1);
        assert_eq!(outcome.summary.chunks, 1, "the family shares one chunk");
        let reports = outcome.reports().unwrap();
        // Each point is bit-identical to sweeping the materialized
        // standalone system.
        let deltas = &matrix.blocks[0].deltas;
        let lethal = NegativeBinomial::new(1.0, 4.0).unwrap();
        for (report, delta) in reports.iter().zip(deltas) {
            let (ft, comps) = delta.materialize(&base.fault_tree, &base.components).unwrap();
            let mut pipeline = Pipeline::new(&ft, &comps).unwrap();
            let options = TruncationRule::Epsilon(1e-3)
                .options(OrderingSpec::paper_default(), ConversionAlgorithm::TopDown);
            let scratch = pipeline.evaluate(&lethal, &options).unwrap();
            assert_eq!(
                report.yield_lower_bound.to_bits(),
                scratch.yield_lower_bound.to_bits(),
                "Δ{}",
                delta.name()
            );
            assert_eq!(report.romdd_size, scratch.romdd_size);
        }
        // Worker scheduling cannot perturb delta families either.
        let parallel = matrix.run(2);
        for (a, b) in outcome.points.iter().zip(&parallel.points) {
            assert_eq!(
                a.result.as_ref().unwrap().yield_lower_bound.to_bits(),
                b.result.as_ref().unwrap().yield_lower_bound.to_bits()
            );
        }
    }

    #[test]
    fn over_budget_chunks_fail_with_resource_flagged_errors() {
        let mut matrix = small_matrix();
        // 2 nodes cannot hold any compiled diagram of the test systems.
        matrix.options = matrix.options.with_node_budget(2);
        let outcome = matrix.run(2);
        assert_eq!(outcome.summary.failed_points, 8);
        assert_eq!(outcome.summary.chunk_errors.len(), 2);
        for chunk_error in &outcome.summary.chunk_errors {
            assert!(chunk_error.resource, "{chunk_error}");
            assert!(!chunk_error.panicked, "{chunk_error}");
            assert!(chunk_error.message.contains("node budget"), "{chunk_error}");
        }
        // Ordinary (non-resource) failures keep resource = false.
        let mut bad = small_matrix();
        bad.blocks[0].rules = vec![TruncationRule::Epsilon(1e-12)];
        bad.blocks[0].distributions =
            vec![NamedDistribution::new("sub", socy_defect::Empirical::new(vec![0.5]).unwrap())];
        let outcome = bad.run(1);
        assert!(outcome.summary.chunk_errors.iter().all(|e| !e.resource));
    }

    #[test]
    fn cancelled_matrix_fails_every_chunk_as_a_resource_error() {
        let mut matrix = small_matrix();
        let cancel = CancelToken::new();
        cancel.cancel();
        matrix.cancel = Some(cancel);
        let outcome = matrix.run(2);
        assert_eq!(outcome.summary.failed_points, outcome.summary.points);
        assert!(!outcome.summary.chunk_errors.is_empty());
        for chunk_error in &outcome.summary.chunk_errors {
            assert!(chunk_error.resource, "{chunk_error}");
            assert!(chunk_error.message.contains("cancelled"), "{chunk_error}");
        }
        // An untouched token changes nothing: bit-identical to no token.
        let mut live = small_matrix();
        live.cancel = Some(CancelToken::new());
        let clean = small_matrix().run(1);
        for (a, b) in live.run(1).points.iter().zip(&clean.points) {
            assert_eq!(
                a.result.as_ref().unwrap().yield_lower_bound.to_bits(),
                b.result.as_ref().unwrap().yield_lower_bound.to_bits()
            );
        }
    }

    #[test]
    fn worker_accounting_covers_all_chunks() {
        let matrix = small_matrix();
        let outcome = matrix.run(2);
        let workers = &outcome.summary.workers;
        assert_eq!(workers.len(), 2);
        assert_eq!(workers.iter().map(|w| w.chunks).sum::<usize>(), 2);
        assert_eq!(workers.iter().map(|w| w.points).sum::<usize>(), 8);
        assert!(outcome.summary.busy_time >= workers[0].busy.max(workers[1].busy));
        assert!(outcome.summary.robdd.peak_nodes_max > 0);
        assert!(outcome.summary.robdd.cache_hit_rate() > 0.0);
        assert!(outcome.summary.compile_time > Duration::ZERO);
    }

    #[test]
    fn effective_thread_resolution() {
        assert_eq!(effective_threads(3, 10), 3);
        assert_eq!(effective_threads(16, 4), 4);
        assert_eq!(effective_threads(5, 0), 1);
        assert!(effective_threads(0, usize::MAX) >= 1);
    }

    #[test]
    fn empty_matrix_runs_to_an_empty_outcome() {
        let matrix = SweepMatrix::new();
        let outcome = matrix.run(4);
        assert!(outcome.points.is_empty());
        assert_eq!(outcome.summary.points, 0);
        assert_eq!(outcome.summary.chunks, 0);
        assert_eq!(outcome.summary.threads, 1);
    }
}
