//! Integration tests of the `socy-serve` yield service: protocol
//! round-trips, the compiled-pipeline cache (repeat = hit, bit-identical
//! yield, zero compilation), and fault containment (a panicking request
//! answers with an error while the daemon and concurrent requests keep
//! working).

use socy_serve::{Response, ServiceConfig, YieldService};

fn service() -> YieldService {
    let threads = std::env::var("SOCY_TEST_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(2);
    YieldService::new(ServiceConfig { threads, ..ServiceConfig::default() })
}

const NB: &str = r#"{"kind":"negative_binomial","lambda":1.0,"alpha":4.0}"#;

fn analyze_ms2(id: &str) -> String {
    format!(
        r#"{{"type":"analyze","id":"{id}","system":{{"benchmark":"MS2"}},"distribution":{NB},"epsilon":0.001}}"#
    )
}

#[test]
fn every_request_type_round_trips() {
    let mut service = service();

    // analyze — a benchmark system, cold compilation.
    let analyze = service.handle_line(&analyze_ms2("a1"));
    assert_eq!(analyze.id.as_deref(), Some("a1"));
    assert_eq!(analyze.kind, "analyze");
    assert!(analyze.ok, "{:?}", analyze.error);
    assert_eq!(analyze.compiled.as_deref(), Some("cold"));
    let reports = analyze.reports.as_ref().unwrap();
    assert_eq!(reports.len(), 1);
    assert!(reports[0].yield_lower_bound > 0.0 && reports[0].yield_lower_bound < 1.0);
    assert!(reports[0].error_bound <= 0.001);
    assert_eq!(reports[0].ordering, "w/ml");
    assert_eq!(reports[0].conversion, "top_down");
    assert!(reports[0].romdd_live_nodes > 0);

    // sweep — one compilation serves every ε; truncation grows with the
    // accuracy requirement.
    let sweep = service.handle_line(
        r#"{"type":"sweep","id":"s1","system":{"benchmark":"ESEN4x1"},
            "distribution":{"kind":"poisson","lambda":2.0},"epsilons":[0.01,0.001,0.0001]}"#,
    );
    assert!(sweep.ok, "{:?}", sweep.error);
    assert_eq!(sweep.kind, "sweep");
    let reports = sweep.reports.as_ref().unwrap();
    assert_eq!(reports.len(), 3);
    assert!(reports[0].truncation <= reports[1].truncation);
    assert!(reports[1].truncation <= reports[2].truncation);
    assert_eq!(reports[0].rule, "ε=1e-2");

    // analyze — an inline system with a fixed truncation.
    let inline = service.handle_line(
        r#"{"id":"tmr","system":{"name":"tmr","netlist":
            "input a\ninput b\ninput c\nf = atleast2 a b c\noutput f",
            "components":[0.3,0.3,0.4]},
            "distribution":{"kind":"empirical","masses":[0.5,0.3,0.2]},"fixed_truncation":2}"#,
    );
    assert!(inline.ok, "{:?}", inline.error);
    assert_eq!(inline.reports.as_ref().unwrap()[0].truncation, 2);
    assert_eq!(inline.reports.as_ref().unwrap()[0].rule, "M=2");

    // stats — counters cover everything above.
    let stats = service.handle_line(r#"{"type":"stats","id":"z"}"#);
    assert!(stats.ok);
    assert_eq!(stats.kind, "stats");
    assert_eq!(stats.requests_served, Some(4));
    let cache = stats.cache.as_ref().unwrap();
    assert_eq!(cache.misses, 3);
    assert_eq!(cache.insertions, 3);
    assert_eq!(cache.resident, 3);
    assert!(cache.live_nodes > 0);
}

#[test]
fn repeated_request_is_served_from_the_cache_bit_identically() {
    let mut service = service();
    let first = service.handle_line(&analyze_ms2("r1"));
    let second = service.handle_line(&analyze_ms2("r2"));
    assert_eq!(first.compiled.as_deref(), Some("cold"));
    // The repeat skips compilation entirely …
    assert_eq!(second.compiled.as_deref(), Some("cached"));
    let stats = service.cache().stats();
    assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    // … and reproduces the yield bit for bit.
    let (a, b) = (&first.reports.unwrap()[0], &second.reports.unwrap()[0]);
    assert_eq!(a.yield_lower_bound.to_bits(), b.yield_lower_bound.to_bits());
    assert_eq!(a.error_bound.to_bits(), b.error_bound.to_bits());
    assert_eq!(a.truncation, b.truncation);
    assert_eq!(a.romdd_size, b.romdd_size);
}

#[test]
fn deeper_truncation_on_a_hit_is_reported_as_recompiled() {
    let mut service = service();
    let shallow = service.handle_line(
        r#"{"id":"lo","system":{"benchmark":"MS2"},"distribution":{"kind":"poisson","lambda":0.5},"epsilon":0.01}"#,
    );
    let deep = service.handle_line(
        r#"{"id":"hi","system":{"benchmark":"MS2"},"distribution":{"kind":"poisson","lambda":0.5},"epsilon":1e-9}"#,
    );
    assert_eq!(shallow.compiled.as_deref(), Some("cold"));
    // Same pipeline (a cache hit), but the tighter ε needs a larger M
    // than the diagram was compiled at — the extension is surfaced.
    assert_eq!(deep.compiled.as_deref(), Some("recompiled"));
    assert_eq!(service.cache().stats().hits, 1);
    let (a, b) = (&shallow.reports.unwrap()[0], &deep.reports.unwrap()[0]);
    assert!(b.truncation > a.truncation);
    assert!(b.compiled_truncation >= b.truncation);
}

const PAIR_NETLIST: &str = r"input a\ninput b\nf = and a b\noutput f";

fn pair_analyze(id: &str, components: &str) -> String {
    format!(
        r#"{{"type":"analyze","id":"{id}","system":{{"name":"pair","netlist":"{PAIR_NETLIST}","components":{components}}},"distribution":{NB},"epsilon":0.001}}"#
    )
}

fn pair_delta_family(id: &str) -> String {
    format!(
        r#"{{"type":"analyze_delta","id":"{id}","system":{{"name":"pair","netlist":"{PAIR_NETLIST}","components":[0.3,0.4]}},"distribution":{NB},"epsilon":0.001,"deltas":[{{"name":"base"}},{{"name":"a-weak","overrides":[{{"component":0,"probability":0.1}}]}},{{"name":"b-strong","overrides":[{{"component":"b","probability":0.2}}]}}]}}"#
    )
}

#[test]
fn analyze_delta_matches_materialized_variants_bit_for_bit() {
    let mut service = service();
    let family = service.handle_line(&pair_delta_family("d1"));
    assert!(family.ok, "{:?}", family.error);
    assert_eq!(family.kind, "analyze_delta");
    // The whole family compiles the base system exactly once.
    assert_eq!(family.compiled.as_deref(), Some("cold"));
    let reports = family.reports.as_ref().unwrap();
    assert_eq!(reports.len(), 3);
    let names: Vec<_> = reports.iter().map(|r| r.delta.as_deref()).collect();
    assert_eq!(names, [Some("base"), Some("a-weak"), Some("b-strong")]);

    // Every delta report is bit-identical to analyzing the materialized
    // variant from scratch.
    for (report, components) in reports.iter().zip(["[0.3,0.4]", "[0.1,0.4]", "[0.3,0.2]"]) {
        let scratch = service.handle_line(&pair_analyze("scratch", components));
        assert!(scratch.ok, "{:?}", scratch.error);
        let fresh = &scratch.reports.as_ref().unwrap()[0];
        assert_eq!(report.yield_lower_bound.to_bits(), fresh.yield_lower_bound.to_bits());
        assert_eq!(report.error_bound.to_bits(), fresh.error_bound.to_bits());
        assert_eq!(report.truncation, fresh.truncation);
        assert_eq!(report.romdd_size, fresh.romdd_size);
    }
}

#[test]
fn delta_family_on_a_resident_base_needs_no_compilation() {
    let mut service = service();
    let cold = service.handle_line(&pair_delta_family("warm"));
    assert_eq!(cold.compiled.as_deref(), Some("cold"));
    // Same base key: the family resolves entirely on the resident
    // pipeline — swap-only deltas are pure re-evaluations.
    let hit = service.handle_line(&pair_delta_family("hot"));
    assert!(hit.ok, "{:?}", hit.error);
    assert_eq!(hit.compiled.as_deref(), Some("delta"));
    assert_eq!(service.cache().stats().hits, 1);
    let (a, b) = (cold.reports.unwrap(), hit.reports.unwrap());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.yield_lower_bound.to_bits(), y.yield_lower_bound.to_bits());
        assert_eq!(x.romdd_size, y.romdd_size);
    }
}

#[test]
fn structural_delta_requests_swap_subtrees_against_the_resident_base() {
    let mut service = service();
    // A structural delta replaces the whole fault tree of the variant.
    let structural = format!(
        r#"{{"type":"analyze_delta","id":"sw","system":{{"name":"pair","netlist":"{PAIR_NETLIST}","components":[0.3,0.4]}},"distribution":{NB},"epsilon":0.001,"deltas":[{{"name":"or-variant","netlist":"input a\ninput b\nf = or a b\noutput f"}}]}}"#
    );
    let cold = service.handle_line(&structural);
    assert!(cold.ok, "{:?}", cold.error);
    assert_eq!(cold.compiled.as_deref(), Some("cold"));
    let report = &cold.reports.as_ref().unwrap()[0];
    assert_eq!(report.delta.as_deref(), Some("or-variant"));
    // Bit-identical to compiling the or-variant from scratch.
    let scratch = service.handle_line(&format!(
        r#"{{"type":"analyze","id":"s","system":{{"name":"orpair","netlist":"input a\ninput b\nf = or a b\noutput f","components":[0.3,0.4]}},"distribution":{NB},"epsilon":0.001}}"#
    ));
    let fresh = &scratch.reports.as_ref().unwrap()[0];
    assert_eq!(report.yield_lower_bound.to_bits(), fresh.yield_lower_bound.to_bits());
    assert_eq!(report.truncation, fresh.truncation);
    assert_eq!(report.romdd_size, fresh.romdd_size);
    // Replays against the now-resident base stay incremental: either a
    // delta rebuild on the retained manager or a contained recompile.
    let again = service.handle_line(&structural);
    assert!(again.ok, "{:?}", again.error);
    let label = again.compiled.as_deref().unwrap();
    assert!(label == "delta" || label == "recompiled", "{label}");
    assert_eq!(
        again.reports.as_ref().unwrap()[0].yield_lower_bound.to_bits(),
        fresh.yield_lower_bound.to_bits()
    );
}

#[test]
fn delta_requests_validate_their_shape() {
    let mut service = service();
    // `deltas` is exclusive to analyze_delta …
    let misplaced = service.handle_line(&format!(
        r#"{{"type":"analyze","id":"m","system":{{"benchmark":"MS2"}},"distribution":{NB},"deltas":[{{"name":"x"}}]}}"#
    ));
    assert!(!misplaced.ok);
    assert!(misplaced.error.as_ref().unwrap().contains("analyze_delta"), "{:?}", misplaced.error);
    // … and analyze_delta requires a non-empty family.
    let empty = service.handle_line(&format!(
        r#"{{"type":"analyze_delta","id":"e","system":{{"benchmark":"MS2"}},"distribution":{NB}}}"#
    ));
    assert!(!empty.ok);
    assert!(empty.error.as_ref().unwrap().contains("non-empty"), "{:?}", empty.error);
    // Component names resolve against the base netlist.
    let unknown = service.handle_line(&format!(
        r#"{{"type":"analyze_delta","id":"u","system":{{"name":"pair","netlist":"{PAIR_NETLIST}","components":[0.3,0.4]}},"distribution":{NB},"deltas":[{{"name":"bad","overrides":[{{"component":"zz","probability":0.1}}]}}]}}"#
    ));
    assert!(!unknown.ok);
    assert!(unknown.error.as_ref().unwrap().contains("unknown component"), "{:?}", unknown.error);
    // Errors never touch the cache.
    assert_eq!(service.cache().len(), 0);
}

#[test]
fn panicking_request_fails_alone_while_the_batch_and_daemon_survive() {
    let mut service = service();
    // One batch: a panicking (uncached) request next to a healthy one.
    let boom = r#"{"id":"boom","system":{"benchmark":"MS4"},"distribution":{"kind":"panic"}}"#;
    let good = format!(
        r#"{{"id":"good","system":{{"benchmark":"MS6"}},"distribution":{NB},"epsilon":0.001}}"#
    );
    let responses = service.handle_batch(&[boom, &good]);
    assert_eq!(responses.len(), 2);
    let (boomed, good) = (&responses[0], &responses[1]);
    assert!(!boomed.ok);
    assert_eq!(boomed.kind, "error");
    assert_eq!(boomed.panicked, Some(true));
    assert!(
        boomed.error.as_ref().unwrap().contains("deliberate fault injection"),
        "{:?}",
        boomed.error
    );
    assert!(good.ok, "{:?}", good.error);
    assert_eq!(good.compiled.as_deref(), Some("cold"));
    // Nothing half-compiled was cached for the failed request …
    assert_eq!(service.cache().len(), 1);
    // … and the daemon keeps serving afterwards.
    let after = service.handle_line(&analyze_ms2("after"));
    assert!(after.ok, "{:?}", after.error);
}

#[test]
fn a_panicked_cache_hit_evicts_the_resident_pipeline() {
    let mut service = service();
    assert!(service.handle_line(&analyze_ms2("warm")).ok);
    assert_eq!(service.cache().len(), 1);
    // Same (system, spec, conversion) key, so this evaluates on the
    // *resident* pipeline — and unwinds on the daemon thread.
    let boomed = service.handle_line(
        r#"{"id":"boom","system":{"benchmark":"MS2"},"distribution":{"kind":"panic"}}"#,
    );
    assert!(!boomed.ok);
    assert_eq!(boomed.panicked, Some(true));
    // The possibly half-updated pipeline was dropped, not trusted.
    assert_eq!(service.cache().len(), 0);
    let recovered = service.handle_line(&analyze_ms2("again"));
    assert!(recovered.ok, "{:?}", recovered.error);
    assert_eq!(recovered.compiled.as_deref(), Some("cold"));
}

#[test]
fn malformed_and_unresolvable_requests_answer_with_errors() {
    let mut service = service();
    let garbage = service.handle_line("not json at all");
    assert!(!garbage.ok);
    assert_eq!(garbage.kind, "error");
    assert_eq!(garbage.panicked, Some(false));
    assert!(garbage.error.as_ref().unwrap().contains("invalid request"));

    let unknown = service.handle_line(
        r#"{"id":"u","system":{"benchmark":"MS99"},"distribution":{"kind":"poisson","lambda":1.0}}"#,
    );
    assert!(!unknown.ok);
    assert_eq!(unknown.id.as_deref(), Some("u"));
    assert_eq!(
        unknown.error.as_deref(),
        Some(
            "unknown benchmark `MS99` (expected one of MS2, MS4, MS6, MS8, MS10, ESEN4x1, \
             ESEN4x2, ESEN4x4, ESEN8x1, ESEN8x2, ESEN8x4)"
        )
    );

    let bad_ordering = service.handle_line(
        r#"{"id":"o","system":{"benchmark":"MS2"},"distribution":{"kind":"poisson","lambda":1.0},"ordering":"q/zz"}"#,
    );
    assert!(!bad_ordering.ok);
    assert!(bad_ordering.error.as_ref().unwrap().contains("unknown ordering label"));

    // Schema errors on a JSON object echo its string `id`; a line that
    // is not JSON cannot.
    for (line, id) in [
        (r#"{"type":"analyze","id":"e1","system":{"benchmark":"MS2"}}"#, Some("e1")),
        (
            r#"{"type":"analyze","id":"e2","system":{"benchmark":"MS2"},"distribution":{"kind":"poisson","lambda":1.0},"epsilon":"x"}"#,
            Some("e2"),
        ),
        (r#"{"type":"analyze","id":"e3","system":"#, None),
    ] {
        let schema = service.handle_line(line);
        assert!(!schema.ok);
        assert_eq!(schema.id.as_deref(), id, "{line}");
        assert!(schema.error.as_ref().unwrap().starts_with("invalid request"), "{line}");
    }

    // Errors count as served requests but never touch the cache.
    assert_eq!(service.requests_served(), 6);
    assert_eq!(service.cache().len(), 0);

    // Responses always serialize to a single line.
    assert!(!garbage.to_json_line().contains('\n'));
}

#[test]
fn a_deeply_nested_line_gets_one_error_and_the_next_request_is_answered() {
    let mut service = service();
    // 200,000 unclosed brackets: past the parser's nesting limit, which
    // keeps the recursive-descent parser from overflowing the stack.
    let hostile = "[".repeat(200_000);
    let good = analyze_ms2("after-deep");
    let responses = service.handle_batch(&[&hostile, &good]);
    assert_eq!(responses.len(), 2, "exactly one response per line");
    let deep = &responses[0];
    assert!(!deep.ok);
    assert_eq!(deep.kind, "error");
    assert_eq!(deep.panicked, Some(false));
    let error = deep.error.as_deref().unwrap();
    assert!(error.starts_with("invalid request") && error.contains("limit of 128"), "{error}");
    assert!(responses[1].ok, "{:?}", responses[1].error);
    assert_eq!(responses[1].id.as_deref(), Some("after-deep"));
}

#[test]
fn a_tiny_per_request_node_budget_degrades_to_bounds() {
    let mut service = service();
    let line = format!(
        r#"{{"type":"analyze","id":"g1","system":{{"benchmark":"MS2"}},"distribution":{NB},"epsilon":0.001,"node_budget":1}}"#
    );
    let response = service.handle_line(&line);
    assert!(response.ok, "{:?}", response.error);
    assert_eq!(response.compiled.as_deref(), Some("governed"));
    let report = &response.reports.as_ref().unwrap()[0];
    assert_eq!(report.fidelity, "bounds");
    assert!(report.yield_lower_bound > 0.0 && report.yield_lower_bound < 1.0);
    assert!(report.error_bound > 0.0);
    // A budget-truncated compile is not representative — never cached.
    assert_eq!(service.cache().len(), 0);
    let stats = service.handle_line(r#"{"type":"stats","id":"z"}"#);
    let governor = stats.governor.unwrap();
    assert_eq!(governor.budget_exceeded, 1);
    assert_eq!(governor.degraded, 1);
    assert_eq!(governor.cancelled, 0);
}

#[test]
fn a_generous_per_request_budget_answers_exactly_on_the_governed_path() {
    let mut service = service();
    let line = format!(
        r#"{{"type":"analyze","id":"g2","system":{{"benchmark":"MS2"}},"distribution":{NB},"epsilon":0.001,"node_budget":10000000}}"#
    );
    let governed = service.handle_line(&line);
    assert!(governed.ok, "{:?}", governed.error);
    assert_eq!(governed.compiled.as_deref(), Some("governed"));
    assert_eq!(governed.reports.as_ref().unwrap()[0].fidelity, "exact");
    // A budget that never trips matches the ungoverned answer bit for bit.
    let plain = service.handle_line(&analyze_ms2("p"));
    let (a, b) = (&governed.reports.unwrap()[0], &plain.reports.unwrap()[0]);
    assert_eq!(a.yield_lower_bound.to_bits(), b.yield_lower_bound.to_bits());
    assert_eq!(a.error_bound.to_bits(), b.error_bound.to_bits());
    assert_eq!(a.romdd_size, b.romdd_size);
    let stats = service.handle_line(r#"{"type":"stats","id":"z"}"#);
    let governor = stats.governor.unwrap();
    assert_eq!((governor.budget_exceeded, governor.degraded, governor.cancelled), (0, 0, 0));
}

#[test]
fn a_zero_timeout_answers_with_deterministic_monte_carlo_bounds() {
    let mut service = service();
    let line = format!(
        r#"{{"type":"analyze","id":"t0","system":{{"benchmark":"MS2"}},"distribution":{NB},"epsilon":0.001,"timeout_ms":0}}"#
    );
    let first = service.handle_line(&line);
    assert!(first.ok, "{:?}", first.error);
    assert_eq!(first.compiled.as_deref(), Some("governed"));
    let bounds = &first.reports.as_ref().unwrap()[0];
    assert_eq!(bounds.fidelity, "bounds");
    // `timeout_ms: 0` never compiles — no diagrams, no cache entry …
    assert_eq!(bounds.romdd_size, 0);
    assert_eq!(service.cache().len(), 0);
    // … and the fixed-seed simulation makes the replay bit-identical.
    let second = service.handle_line(&line);
    let again = &second.reports.as_ref().unwrap()[0];
    assert_eq!(bounds.yield_lower_bound.to_bits(), again.yield_lower_bound.to_bits());
    assert_eq!(bounds.error_bound.to_bits(), again.error_bound.to_bits());
    // The interval brackets the exact (compiled) yield.
    let exact = service.handle_line(&analyze_ms2("x"));
    let y = exact.reports.as_ref().unwrap()[0].yield_lower_bound;
    assert!(
        bounds.yield_lower_bound <= y && y <= bounds.yield_lower_bound + bounds.error_bound,
        "exact {y} outside [{}, {}]",
        bounds.yield_lower_bound,
        bounds.yield_lower_bound + bounds.error_bound
    );
}

#[test]
fn a_cancel_line_fails_the_batchs_misses_and_the_next_batch_recovers() {
    let mut service = service();
    let analyze = analyze_ms2("v1");
    let cancel = r#"{"type":"cancel","id":"c1"}"#;
    let responses = service.handle_batch(&[&analyze, cancel]);
    // The cancel request itself acknowledges …
    assert!(responses[1].ok);
    assert_eq!(responses[1].kind, "cancel");
    assert_eq!(responses[1].id.as_deref(), Some("c1"));
    // … and the uncached analyze in the same batch fails as cancelled
    // (misses run after the parse loop, so the cancel reaches them).
    let failed = &responses[0];
    assert!(!failed.ok);
    assert!(failed.error.as_ref().unwrap().contains("cancelled"), "{:?}", failed.error);
    assert_eq!(service.cache().len(), 0);
    let stats = service.handle_line(r#"{"type":"stats","id":"z"}"#);
    assert!(stats.governor.unwrap().cancelled >= 1);
    // The token is re-armed per batch: the next request is unaffected.
    let after = service.handle_line(&analyze_ms2("v2"));
    assert!(after.ok, "{:?}", after.error);
    assert_eq!(after.compiled.as_deref(), Some("cold"));
}

#[test]
fn service_level_budgets_fall_back_to_bounds_on_cold_misses() {
    let threads = std::env::var("SOCY_TEST_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(2);
    let mut service = YieldService::new(ServiceConfig {
        threads,
        options: socy_serve::CompileOptions::new().with_node_budget(2),
        ..ServiceConfig::default()
    });
    let response = service.handle_line(&analyze_ms2("b1"));
    assert!(response.ok, "{:?}", response.error);
    // The executor chunk tripped its budget; the service answered with
    // Monte-Carlo bounds instead of failing the request.
    assert_eq!(response.compiled.as_deref(), Some("bounds"));
    assert_eq!(response.reports.as_ref().unwrap()[0].fidelity, "bounds");
    assert_eq!(service.cache().len(), 0);
    let stats = service.handle_line(r#"{"type":"stats","id":"z"}"#);
    let governor = stats.governor.unwrap();
    assert_eq!(governor.budget_exceeded, 1);
    assert_eq!(governor.degraded, 1);
}

#[test]
fn resource_overrides_are_rejected_on_delta_families() {
    let mut service = service();
    let line = format!(
        r#"{{"type":"analyze_delta","id":"rd","system":{{"name":"pair","netlist":"{PAIR_NETLIST}","components":[0.3,0.4]}},"distribution":{NB},"timeout_ms":5,"deltas":[{{"name":"base"}}]}}"#
    );
    let rejected = service.handle_line(&line);
    assert!(!rejected.ok);
    assert!(rejected.error.as_ref().unwrap().contains("analyze_delta"), "{:?}", rejected.error);
    assert_eq!(service.cache().len(), 0);
}

#[test]
fn responses_serialize_with_stable_field_names() {
    let mut service = service();
    let response: Response = service.handle_line(&analyze_ms2("wire"));
    let line = response.to_json_line();
    for field in [
        "\"id\":\"wire\"",
        "\"kind\":\"analyze\"",
        "\"compiled\":\"cold\"",
        "\"reports\":[",
        "\"yield_lower_bound\":",
        "\"cache\":{",
        "\"latency_seconds\":",
    ] {
        assert!(line.contains(field), "missing {field} in {line}");
    }
    // The wire line round-trips through the JSON parser.
    let value = serde_json::from_str(&line).unwrap();
    assert_eq!(value.get("ok").and_then(serde_json::Value::as_bool), Some(true));
}
