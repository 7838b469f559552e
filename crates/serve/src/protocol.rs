//! The line-delimited JSON wire protocol of the yield service.
//!
//! Each request is one JSON object on one line; each response is one JSON
//! object on one line, in request order. The request's `type` field
//! selects the operation (`analyze`, `sweep` or `stats`; `analyze` when
//! absent); the response's `kind` field echoes it (`error` for failures).
//!
//! Everything here is pure wire shape — resolving a request against the
//! benchmark registry and the decision-diagram pipeline lives in
//! [`crate::service`].

use std::time::Duration;

use serde::{DeError, Value};

/// One parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Evaluate one system under one truncation rule.
    Analyze(EvalRequest),
    /// Evaluate one system under a list of `ε` values (one compilation,
    /// many linear-time evaluations — the paper's compile-once economics).
    Sweep(EvalRequest),
    /// Evaluate a family of what-if deltas against one base system (one
    /// report per delta). Against a resident base pipeline the family
    /// needs no compilation at all (`"compiled":"delta"`).
    AnalyzeDelta(EvalRequest),
    /// Report service counters and cache statistics.
    Stats {
        /// Client-chosen identifier echoed back in the response.
        id: Option<String>,
    },
    /// Abort the current batch: every uncached evaluation of the batch
    /// fails fast with a `cancelled` error instead of compiling to
    /// completion (answers already produced are unaffected).
    Cancel {
        /// Client-chosen identifier echoed back in the response.
        id: Option<String>,
    },
}

impl serde::Deserialize for Request {
    fn from_json(value: &Value) -> Result<Self, DeError> {
        let kind = match value.get("type") {
            None => "analyze",
            Some(v) => {
                v.as_str().ok_or_else(|| DeError::expected("a string", v).in_field("type"))?
            }
        };
        match kind {
            "analyze" => Ok(Request::Analyze(EvalRequest::from_json(value)?)),
            "sweep" => Ok(Request::Sweep(EvalRequest::from_json(value)?)),
            "analyze_delta" => Ok(Request::AnalyzeDelta(EvalRequest::from_json(value)?)),
            "stats" | "cancel" => {
                let id = match value.get("id") {
                    None => None,
                    Some(v) => Option::<String>::from_json(v).map_err(|e| e.in_field("id"))?,
                };
                Ok(if kind == "stats" { Request::Stats { id } } else { Request::Cancel { id } })
            }
            other => Err(DeError(format!(
                "unknown request type `{other}` (expected `analyze`, `sweep`, `analyze_delta`, \
                 `stats` or `cancel`)"
            ))),
        }
    }
}

/// Body shared by `analyze` and `sweep` requests.
#[derive(Debug, Clone, serde::Deserialize)]
pub struct EvalRequest {
    /// Client-chosen identifier echoed back in the response.
    pub id: Option<String>,
    /// The system under analysis: `{"benchmark": "MS2"}` (optionally with
    /// `"lethality"`) or an inline `{"name", "netlist", "components"}`
    /// object — see [`crate::service::resolve_system`].
    pub system: Value,
    /// The lethal-defect distribution.
    pub distribution: DistributionSpec,
    /// Absolute error requirement `ε` (analyze; default `1e-4`).
    pub epsilon: Option<f64>,
    /// The `ε` values of a sweep (required for `sweep`, one compilation
    /// serves them all).
    pub epsilons: Option<Vec<f64>>,
    /// Analyze exactly `M` lethal defects instead of deriving `M` from
    /// `ε` (analyze only).
    pub fixed_truncation: Option<usize>,
    /// Variable-ordering label, e.g. `w/ml` (default) or `wv/lm+sift` —
    /// the format of [`socy_ordering::OrderingSpec::label`].
    pub ordering: Option<String>,
    /// Sifting growth bound in percent (≥ 100); implies sifting on top of
    /// `ordering`.
    pub sift_max_growth: Option<u32>,
    /// Coded-ROBDD → ROMDD conversion: `top_down` (default) or `layered`.
    pub conversion: Option<String>,
    /// What-if variants of the base system (`analyze_delta` only, one
    /// report per entry). Each entry is
    /// `{"name", "overrides": [{"component": <index|input name>,
    /// "probability": P}], "netlist": <variant fault tree>}` with
    /// `overrides` and `netlist` both optional — see
    /// [`crate::service::resolve_delta`].
    pub deltas: Option<Vec<Value>>,
    /// Per-request wall-clock budget in milliseconds for the compilation
    /// this request may trigger. `0` skips compilation entirely and
    /// answers with Monte-Carlo confidence bounds
    /// (`"fidelity":"bounds"`); a positive budget compiles under a
    /// deadline and degrades to bounds when it expires.
    pub timeout_ms: Option<u64>,
    /// Per-request node budget for the compilation this request may
    /// trigger; over-budget requests degrade to Monte-Carlo bounds.
    pub node_budget: Option<u64>,
}

/// Wire description of a lethal-defect distribution.
#[derive(Debug, Clone, serde::Deserialize)]
pub struct DistributionSpec {
    /// `negative_binomial`, `poisson`, `empirical` or `panic` (a
    /// fault-injection distribution whose `pmf` unwinds, for testing the
    /// daemon's containment).
    pub kind: String,
    /// Mean number of lethal defects (`negative_binomial`, `poisson`).
    pub lambda: Option<f64>,
    /// Clustering parameter `α` (`negative_binomial`).
    pub alpha: Option<f64>,
    /// Explicit probability masses `P[K = k]` (`empirical`).
    pub masses: Option<Vec<f64>>,
}

/// One response line. Every field is always present (absent values are
/// `null`), so replayed sessions diff cleanly against pinned fixtures;
/// `latency_seconds` is volatile by the `*_seconds` convention of the
/// anchor checker.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Response {
    /// The request's `id`, echoed whenever the line is a JSON object with
    /// a string `id` (null for lines that are not JSON).
    pub id: Option<String>,
    /// `analyze`, `sweep`, `stats` or `error`.
    pub kind: String,
    /// Whether the request succeeded.
    pub ok: bool,
    /// How the evaluation obtained its compiled pipeline: `cold` (compiled
    /// by this request), `cached` (served from the LRU with zero
    /// compilation), `recompiled` (cached pipeline had to extend its
    /// truncation or retain its ROBDD manager) or `delta` (a what-if
    /// family answered entirely on the resident base — zero
    /// compilations). Null for stats/error responses.
    pub compiled: Option<String>,
    /// One report per evaluated design point (one for `analyze`, one per
    /// `ε` for `sweep`).
    pub reports: Option<Vec<ReportBody>>,
    /// The error message of a failed request.
    pub error: Option<String>,
    /// Whether the failure was a caught panic (the daemon survived it).
    pub panicked: Option<bool>,
    /// Total requests the service has accepted (stats responses).
    pub requests_served: Option<u64>,
    /// Resource-governor counters (stats responses).
    pub governor: Option<GovernorBody>,
    /// Pipeline-cache counters at response time.
    pub cache: Option<CacheBody>,
    /// Wall-clock time spent serving this request (volatile).
    pub latency_seconds: f64,
}

/// Resource-governance counters carried on stats responses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct GovernorBody {
    /// Governed compilations that exceeded a node budget or deadline.
    pub budget_exceeded: u64,
    /// Requests answered at non-exact fidelity (degraded rungs or
    /// Monte-Carlo bounds).
    pub degraded: u64,
    /// Evaluations aborted by a batch cancellation.
    pub cancelled: u64,
}

impl Response {
    /// A successful evaluation response.
    pub fn eval(
        kind: &str,
        id: Option<String>,
        compiled: &str,
        reports: Vec<ReportBody>,
        cache: CacheBody,
        latency: Duration,
    ) -> Self {
        Response {
            id,
            kind: kind.to_string(),
            ok: true,
            compiled: Some(compiled.to_string()),
            reports: Some(reports),
            error: None,
            panicked: None,
            requests_served: None,
            governor: None,
            cache: Some(cache),
            latency_seconds: latency.as_secs_f64(),
        }
    }

    /// A failure response (parse errors, resolution errors, failed or
    /// panicked evaluations).
    pub fn failure(
        id: Option<String>,
        message: String,
        panicked: bool,
        cache: Option<CacheBody>,
        latency: Duration,
    ) -> Self {
        Response {
            id,
            kind: "error".to_string(),
            ok: false,
            compiled: None,
            reports: None,
            error: Some(message),
            panicked: Some(panicked),
            requests_served: None,
            governor: None,
            cache,
            latency_seconds: latency.as_secs_f64(),
        }
    }

    /// A stats response.
    pub fn stats(
        id: Option<String>,
        requests_served: u64,
        governor: GovernorBody,
        cache: CacheBody,
        latency: Duration,
    ) -> Self {
        Response {
            id,
            kind: "stats".to_string(),
            ok: true,
            compiled: None,
            reports: None,
            error: None,
            panicked: None,
            requests_served: Some(requests_served),
            governor: Some(governor),
            cache: Some(cache),
            latency_seconds: latency.as_secs_f64(),
        }
    }

    /// The acknowledgement of a `cancel` request.
    pub fn cancelled(id: Option<String>, cache: CacheBody, latency: Duration) -> Self {
        Response {
            id,
            kind: "cancel".to_string(),
            ok: true,
            compiled: None,
            reports: None,
            error: None,
            panicked: None,
            requests_served: None,
            governor: None,
            cache: Some(cache),
            latency_seconds: latency.as_secs_f64(),
        }
    }

    /// Renders the response as one compact JSON line (no newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("responses serialize infallibly")
    }
}

/// The deterministic subset of a [`soc_yield_core::YieldReport`] carried
/// on the wire (timing fields are omitted — latency is reported at the
/// response level, where the anchor checker knows to ignore it).
#[derive(Debug, Clone, serde::Serialize)]
pub struct ReportBody {
    /// Lower bound on the yield, `Σ_{k≤M} P[K=k]·P[system works | k]`.
    pub yield_lower_bound: f64,
    /// Upper bound on the truncation error, `1 − Σ_{k≤M} P[K=k]`.
    pub error_bound: f64,
    /// Truncation point `M` used for this evaluation.
    pub truncation: usize,
    /// Truncation point the resident diagram is compiled at (`≥ M`:
    /// evaluations below it are answered by zero-padding).
    pub compiled_truncation: usize,
    /// Number of components `C`.
    pub num_components: usize,
    /// Gates in the generalized fault tree `G`.
    pub g_gates: usize,
    /// Binary variables of the coded ROBDD.
    pub binary_variables: usize,
    /// Nodes of the coded ROBDD.
    pub coded_robdd_size: usize,
    /// Coded-ROBDD size before dynamic sifting (sifted specs only).
    pub presift_robdd_size: Option<usize>,
    /// Peak node count of the ROBDD manager.
    pub robdd_peak: usize,
    /// Nodes of the ROMDD.
    pub romdd_size: usize,
    /// Live (post-GC) nodes of the ROMDD manager — the quantity the
    /// cache budget charges for.
    pub romdd_live_nodes: usize,
    /// Variable-ordering label (e.g. `w/ml+sift`).
    pub ordering: String,
    /// Conversion algorithm label (`top_down` or `layered`).
    pub conversion: String,
    /// Truncation-rule label (e.g. `ε=1e-3` or `M=6`).
    pub rule: String,
    /// Name of the what-if delta this report evaluates (`analyze_delta`
    /// responses; null otherwise).
    pub delta: Option<String>,
    /// How the answer was obtained: `exact` (the requested options),
    /// `degraded:<rung>` (a cheaper exact variant) or `bounds`
    /// (Monte-Carlo confidence interval — `yield_lower_bound` is the
    /// lower confidence limit and `error_bound` the interval width).
    pub fidelity: String,
}

/// Pipeline-cache and service counters carried on stats (and every
/// evaluation) response.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CacheBody {
    /// Lookups served from a resident pipeline.
    pub hits: u64,
    /// Lookups that required compilation.
    pub misses: u64,
    /// Pipelines inserted.
    pub insertions: u64,
    /// Pipelines evicted by the live-node budget.
    pub evictions: u64,
    /// Pipelines currently resident.
    pub resident: usize,
    /// Summed live (post-GC) ROMDD nodes of the residents.
    pub live_nodes: usize,
    /// The configured live-node budget (null = unbounded).
    pub budget: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    fn parse(text: &str) -> Result<Request, String> {
        let value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        Request::from_json(&value).map_err(|e| e.to_string())
    }

    #[test]
    fn requests_parse_by_type_with_analyze_default() {
        let body = r#""system":{"benchmark":"MS2"},"distribution":{"kind":"poisson","lambda":1.0}"#;
        assert!(matches!(parse(&format!("{{{body}}}")).unwrap(), Request::Analyze(_)));
        assert!(matches!(
            parse(&format!(r#"{{"type":"analyze",{body}}}"#)).unwrap(),
            Request::Analyze(_)
        ));
        let sweep =
            parse(&format!(r#"{{"type":"sweep","id":"s1","epsilons":[1e-2,1e-3],{body}}}"#))
                .unwrap();
        match sweep {
            Request::Sweep(req) => {
                assert_eq!(req.id.as_deref(), Some("s1"));
                assert_eq!(req.epsilons, Some(vec![1e-2, 1e-3]));
                assert_eq!(req.distribution.kind, "poisson");
                assert_eq!(req.distribution.lambda, Some(1.0));
            }
            other => panic!("expected sweep, got {other:?}"),
        }
        match parse(r#"{"type":"stats","id":"z"}"#).unwrap() {
            Request::Stats { id } => assert_eq!(id.as_deref(), Some("z")),
            other => panic!("expected stats, got {other:?}"),
        }
        match parse(r#"{"type":"cancel","id":"c"}"#).unwrap() {
            Request::Cancel { id } => assert_eq!(id.as_deref(), Some("c")),
            other => panic!("expected cancel, got {other:?}"),
        }
    }

    #[test]
    fn resource_overrides_parse_on_eval_requests() {
        let body = r#""system":{"benchmark":"MS2"},"distribution":{"kind":"poisson","lambda":1.0}"#;
        let governed =
            parse(&format!(r#"{{"id":"g","timeout_ms":250,"node_budget":4096,{body}}}"#)).unwrap();
        match governed {
            Request::Analyze(req) => {
                assert_eq!(req.timeout_ms, Some(250));
                assert_eq!(req.node_budget, Some(4096));
            }
            other => panic!("expected analyze, got {other:?}"),
        }
        match parse(&format!("{{{body}}}")).unwrap() {
            Request::Analyze(req) => {
                assert_eq!(req.timeout_ms, None);
                assert_eq!(req.node_budget, None);
            }
            other => panic!("expected analyze, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_report_readable_errors() {
        let err = parse(r#"{"type":"frobnicate"}"#).unwrap_err();
        assert!(err.contains("unknown request type"), "{err}");
        let err = parse(r#"{"type":7}"#).unwrap_err();
        assert!(err.contains("field `type`"), "{err}");
        let err = parse(r#"{"type":"analyze","system":{"benchmark":"MS2"}}"#).unwrap_err();
        assert!(err.contains("distribution"), "{err}");
        assert!(parse("not json").is_err());
    }

    #[test]
    fn responses_render_as_single_compact_lines() {
        let cache = CacheBody {
            hits: 1,
            misses: 2,
            insertions: 2,
            evictions: 0,
            resident: 2,
            live_nodes: 64,
            budget: Some(65536),
        };
        let line = Response::eval(
            "analyze",
            Some("r1".to_string()),
            "cached",
            Vec::new(),
            cache,
            Duration::from_millis(3),
        )
        .to_json_line();
        assert!(!line.contains('\n'));
        assert!(line.contains(r#""kind":"analyze""#));
        assert!(line.contains(r#""compiled":"cached""#));
        assert!(line.contains(r#""hits":1"#));
        let err =
            Response::failure(None, "boom".to_string(), true, None, Duration::ZERO).to_json_line();
        assert!(err.contains(r#""ok":false"#));
        assert!(err.contains(r#""panicked":true"#));
        assert!(err.contains(r#""id":null"#));
    }
}
