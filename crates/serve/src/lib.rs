//! A long-running yield-analysis service over line-delimited JSON.
//!
//! The paper's central economic argument is *compile once, evaluate
//! many*: building the coded ROBDD and converting it to an ROMDD is the
//! expensive step, after which every yield evaluation is a linear-time
//! walk. A batch tool realizes that only within one invocation; this
//! crate turns it into a daemon. The `serve` binary reads JSON requests
//! from stdin (one per line; a blank line flushes a batch, EOF flushes
//! and exits) and answers each on stdout, keeping compiled
//! [`Pipeline`](soc_yield_core::Pipeline)s in an LRU cache keyed by
//! `(system, ordering spec, conversion)` and bounded by the residents'
//! summed live ROMDD nodes.
//!
//! * [`protocol`] — the wire types ([`Request`], [`Response`], …).
//! * [`service`] — [`YieldService`]: resolution, batching, caching and
//!   fault containment (a panicking request yields an `error` response;
//!   the daemon and all concurrent requests keep going).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod service;

pub use protocol::{
    CacheBody, DistributionSpec, EvalRequest, GovernorBody, ReportBody, Request, Response,
};
pub use service::{
    conversion_label, parse_conversion, resolve_delta, resolve_distribution, resolve_system,
    PanicDistribution, PipelineKey, ServiceConfig, YieldService, DEFAULT_NODE_BUDGET,
    MAX_LINE_BYTES,
};
pub use soc_yield_core::{CancelToken, CompileOptions};
