//! Parallel design-space sweep execution for the yield pipeline.
//!
//! The paper's evaluation is a design-space exploration: every table is a
//! matrix of `(benchmark × variable ordering × ε × M × distribution)`
//! points. This crate turns that matrix into a first-class value — the
//! [`SweepMatrix`] — and evaluates it on a pool of scoped worker threads
//! ([`SweepMatrix::run`]):
//!
//! * the matrix is partitioned into **chunks** of points sharing one
//!   `(system, ordering spec, conversion)` configuration, i.e. one
//!   decision-diagram compilation each;
//! * each worker evaluates whole chunks with a private
//!   [`soc_yield_core::Pipeline`] — the ROBDD/ROMDD managers are
//!   per-thread by construction, nothing is shared but the immutable
//!   matrix and the result channel;
//! * reports are reassembled **in matrix order** keyed by point index, so
//!   the outcome is bit-identical for every worker count, and identical
//!   to evaluating each chunk with a serial
//!   [`Pipeline::sweep`](soc_yield_core::Pipeline::sweep);
//! * per-manager kernel statistics (peak nodes, cache hit rates, GC runs)
//!   are folded into a [`SweepSummary`].
//!
//! The `bench_matrix` binary of `socy-bench` drives a pinned instance of
//! this executor to produce the repository's `BENCH_sweep.json` perf
//! artifact; the table binaries and the `design_space` example accept
//! `--threads N` and route through it too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod matrix;
mod run;

pub use cache::{CacheStats, PipelineLru};
pub use matrix::{
    NamedDistribution, PointLabels, SharedDistribution, SweepBlock, SweepMatrix, SystemSpec,
    TruncationRule,
};
pub use run::{
    effective_threads, panic_message, ChunkError, CompiledPipeline, DdAggregate, PointOutcome,
    SweepError, SweepOutcome, SweepSummary, WorkerSummary,
};

// The executor moves pipelines and reports across threads and shares the
// matrix immutably; the whole stack is plain owned data (no
// Rc/RefCell/raw pointers anywhere in the kernel — the dd/bdd/mdd crates
// carry matching assertions for their managers), so these bounds hold
// structurally. The assertions turn any future regression (e.g. an
// Rc-backed cache sneaking into the pipeline) into a compile error right
// here.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<soc_yield_core::Pipeline>();
    assert_send_sync::<soc_yield_core::YieldReport>();
    assert_send_sync::<SystemSpec>();
    assert_send_sync::<SweepMatrix>();
    assert_send_sync::<SweepOutcome>();
};
