//! serve_mix: one closed-loop client drives the release `serve` binary
//! (`--threads 1`, default cache budget) over stdin/stdout. It sends the
//! seeded stream in batches of 1–3 lines, each followed by a blank line,
//! and waits for every response before sending more. Each pass starts a
//! fresh `serve`, so every pass sees the same cache history.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use serde::Value;
use soc_yield_core::exact::exact_conditional_yields;
use soc_yield_core::{
    analyze, AnalysisOptions, DegradeLadder, Pipeline, SystemDelta, YieldAnalysis,
};
use socy_defect::{ComponentProbabilities, NegativeBinomial};
use socy_faulttree::Netlist;
use socy_ordering::OrderingSpec;
use socy_serve::{ServiceConfig, YieldService};
use socy_sim::{MonteCarloYield, SimulationOptions};

use crate::common::{median, min, peak_rss_mb, quantile, timed, Args, Checks, Outcome};
use crate::gen::{serve_stream, Expect, Governed, ServeStream, Sys, REGISTRY};
use crate::layers::{probability_vectors, truncation_of, Layers, Probe, ProbePoint, Untraced};

/// Requests of one pass: enough that the p99 of a run has well over ten
/// samples beyond it.
const REQUESTS: usize = 1000;
/// Inline systems in the stream's pool: enough that their diagrams and
/// the registry's overflow the cache's default live-node budget.
const INLINE_SYSTEMS: usize = 64;
/// The first line of every session: it proves the process is up.
const HELLO: &str = r#"{"type":"stats","id":"hello"}"#;

/// A running `serve` process. Dropping it ends the process and waits for
/// it.
struct Serve {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Serve {
    fn spawn(bin: &str) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--threads", "1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {bin}: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("serve has no stdout")?;
        Ok(Serve { child, stdin, stdout: BufReader::new(stdout) })
    }

    /// Sends one batch and reads one response line per request.
    fn batch(&mut self, lines: &[&str]) -> Result<Vec<String>, String> {
        let mut text = lines.join("\n");
        text.push_str("\n\n");
        let stdin = self.stdin.as_mut().ok_or("serve's input is closed")?;
        stdin.write_all(text.as_bytes()).and_then(|()| stdin.flush()).map_err(|e| e.to_string())?;
        let mut responses = Vec::with_capacity(lines.len());
        for _ in lines {
            let mut line = String::new();
            match self.stdout.read_line(&mut line) {
                Ok(0) => return Err("serve closed its output".to_string()),
                Ok(_) => responses.push(line.trim_end().to_string()),
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(responses)
    }

    /// Ends the session at EOF; returns the process's peak RSS in MiB.
    fn finish(mut self) -> Result<f64, String> {
        let rss = peak_rss_mb(Some(self.child.id()));
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        status.success().then_some(rss).ok_or_else(|| format!("serve exited with {status}"))
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // A no-op after `finish`; otherwise the session failed part way
        // and the process must not outlive it.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One pass: a fresh `serve` answers the whole stream.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    /// Client-side latency of every request, in stream order.
    latencies: Vec<f64>,
    responses: Vec<String>,
    rss_mb: f64,
}

fn run_pass(bin: &str, seed: u64) -> Result<(Pass, ServeStream), String> {
    let setup_start = Instant::now();
    let stream = serve_stream(seed, REQUESTS, INLINE_SYSTEMS);
    let mut serve = Serve::spawn(bin)?;
    serve.batch(&[HELLO])?;
    let setup_s = setup_start.elapsed().as_secs_f64();

    let mut latencies = Vec::with_capacity(REQUESTS);
    let mut responses = Vec::with_capacity(REQUESTS);
    let start = Instant::now();
    for batch in &stream.batches {
        let lines: Vec<&str> = batch.iter().map(|r| r.line.as_str()).collect();
        let (answers, seconds) = timed(|| serve.batch(&lines));
        latencies.extend(std::iter::repeat_n(seconds, lines.len()));
        responses.extend(answers?);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let rss_mb = serve.finish()?;
    Ok((Pass { setup_s, wall_s, latencies, responses, rss_mb }, stream))
}

/// The class a response's latency is reported under.
fn class(response: &Value) -> &'static str {
    let bounds = response.get("reports").and_then(Value::as_array).is_some_and(|r| {
        r.iter().any(|r| r.get("fidelity").and_then(Value::as_str) == Some("bounds"))
    });
    match response.get("compiled").and_then(Value::as_str) {
        _ if bounds => "bounds",
        Some("cached") => "cached",
        Some("cold" | "recompiled") => "cold",
        Some("delta") => "delta",
        _ => "other",
    }
}

/// References the responses are checked against, built once per key.
#[derive(Default)]
struct References {
    /// Fresh analyses of registry systems, by (system, ordering, compiled `M`).
    romdd: HashMap<(usize, &'static str, usize), YieldAnalysis>,
    /// Exact conditional yields `Y_k`, by (netlist text, component bits, `M`).
    exact: HashMap<(String, Vec<u64>, usize), Vec<f64>>,
    /// Monte-Carlo bounds, by (system, ordering, λ', truncation rule).
    bounds: HashMap<String, (f64, f64)>,
}

/// A resolved system: its netlist and raw probabilities.
struct System {
    netlist: Netlist,
    components: ComponentProbabilities,
}

fn resolve(sys: Sys, stream: &ServeStream) -> System {
    match sys {
        Sys::Registry(i) => {
            let all = socy_benchmarks::paper_benchmarks();
            let found =
                all.into_iter().find(|b| b.name == REGISTRY[i]).expect("registry system exists");
            let components =
                found.component_probabilities(1.0).expect("registry weights are valid");
            System { netlist: found.fault_tree, components }
        }
        Sys::Inline(i) => {
            let inline = &stream.inline[i];
            System {
                netlist: Netlist::from_text(&inline.text).expect("generated netlists parse"),
                components: ComponentProbabilities::new(inline.raw.clone())
                    .expect("valid probabilities"),
            }
        }
    }
}

fn delta_of(spec: &crate::gen::DeltaSpec) -> SystemDelta {
    let mut delta = SystemDelta::named(spec.name.clone());
    for &(component, probability) in &spec.overrides {
        delta = delta.with_component_probability(component, probability);
    }
    if let Some(text) = &spec.netlist {
        delta = delta.with_fault_tree(Netlist::from_text(text).expect("generated variants parse"));
    }
    delta
}

impl References {
    /// The exact yield of `(netlist, components)` for one point: the
    /// ROMDD of a fresh analysis for registry systems (bit for bit), the
    /// brute-force baseline for inline ones (within 1e-9).
    #[allow(clippy::too_many_arguments)]
    fn exact_yield(
        &mut self,
        sys: Sys,
        spec: &'static str,
        netlist: &Netlist,
        components: &ComponentProbabilities,
        lethal: &NegativeBinomial,
        epsilon: f64,
        compiled_m: usize,
    ) -> Result<(f64, bool), String> {
        let options = AnalysisOptions { epsilon, ..AnalysisOptions::default() };
        let truncation = truncation_of(lethal, &options)?;
        match sys {
            Sys::Registry(i) => {
                let analysis = match self.romdd.entry((i, spec, compiled_m)) {
                    Entry::Occupied(slot) => slot.into_mut(),
                    Entry::Vacant(slot) => {
                        let options = AnalysisOptions {
                            spec: OrderingSpec::parse(spec).map_err(|e| e.to_string())?,
                            fixed_truncation: Some(compiled_m),
                            ..options
                        };
                        slot.insert(
                            analyze(netlist, components, lethal, &options)
                                .map_err(|e| e.to_string())?,
                        )
                    }
                };
                let vectors =
                    probability_vectors(compiled_m, &analysis.mv_order, &truncation, components);
                Ok((1.0 - analysis.mdd.probability(analysis.romdd_root, &vectors), true))
            }
            Sys::Inline(_) => {
                let m = truncation.truncation();
                let bits = components.raw_slice().iter().map(|p| p.to_bits()).collect();
                let key = (netlist.to_text().map_err(|e| e.to_string())?, bits, m);
                let yields = match self.exact.entry(key) {
                    Entry::Occupied(slot) => slot.into_mut(),
                    Entry::Vacant(slot) => slot.insert(
                        exact_conditional_yields(netlist, components, m)
                            .map_err(|e| e.to_string())?,
                    ),
                };
                Ok((truncation.masses().iter().zip(yields.iter()).map(|(q, y)| q * y).sum(), false))
            }
        }
    }

    fn bounds(
        &mut self,
        system: &System,
        spec: &'static str,
        lethal: &NegativeBinomial,
        epsilon: f64,
        key: String,
    ) -> Result<(f64, f64), String> {
        if let Some(&b) = self.bounds.get(&key) {
            return Ok(b);
        }
        let pipeline =
            Pipeline::new(&system.netlist, &system.components).map_err(|e| e.to_string())?;
        let options = AnalysisOptions {
            epsilon,
            spec: OrderingSpec::parse(spec).map_err(|e| e.to_string())?,
            ..AnalysisOptions::default()
        };
        let report = pipeline
            .evaluate_bounds(lethal, &options, &DegradeLadder::bounds_only())
            .map_err(|e| e.to_string())?;
        let b = (report.yield_lower_bound, report.error_bound);
        self.bounds.insert(key, b);
        Ok(b)
    }
}

/// Checks one pass's responses: one per request, ids echoed, every
/// answer equal to its reference, every invalid line a typed error.
fn check_responses(
    stream: &ServeStream,
    responses: &[String],
    refs: &mut References,
    checks: &mut Checks,
) {
    let requests: Vec<_> = stream.requests().collect();
    checks.attempted += requests.len() as u64;
    let missing = requests.len().saturating_sub(responses.len());
    for _ in 0..missing {
        checks.fail("serve: a request got no response".to_string());
    }
    let mut systems: HashMap<String, System> = HashMap::new();
    for (request, line) in requests.iter().zip(responses) {
        let label = request.id.clone().unwrap_or_else(|| "unparseable line".to_string());
        let Ok(response) = serde_json::from_str(line) else {
            checks.fail(format!("{label}: response is not JSON: {line}"));
            continue;
        };
        let ok = response.get("ok").and_then(Value::as_bool);
        let kind = response.get("kind").and_then(Value::as_str).unwrap_or_default();
        let id = response.get("id").and_then(Value::as_str).map(str::to_string);
        if id != request.id {
            checks.fail(format!("{label}: response carries id {id:?}"));
            continue;
        }
        let result = match &request.expect {
            Expect::Stats => {
                (ok == Some(true) && kind == "stats" && response.get("cache").is_some())
                    .then_some(())
                    .ok_or_else(|| format!("expected stats, got {line}"))
            }
            Expect::Invalid(fragment) => {
                let error = response.get("error").and_then(Value::as_str).unwrap_or_default();
                (ok == Some(false) && kind == "error" && error.contains(fragment))
                    .then_some(())
                    .ok_or_else(|| format!("expected a typed error about `{fragment}`, got {line}"))
            }
            Expect::Eval { .. } if ok != Some(true) => Err(format!("unexpected error: {line}")),
            Expect::Eval { kind: want, sys, spec, lambda, alpha, epsilons, deltas, governed } => {
                let key = format!("{sys:?}");
                let system = systems.entry(key).or_insert_with(|| resolve(*sys, stream));
                let reports = response.get("reports").and_then(Value::as_array).unwrap_or_default();
                let lethal =
                    NegativeBinomial::new(*lambda, *alpha).expect("generated parameters are valid");
                let compiled = response.get("compiled").and_then(Value::as_str).unwrap_or_default();
                let mut expected_points = Vec::new();
                for &epsilon in epsilons {
                    if deltas.is_empty() {
                        expected_points.push((epsilon, None));
                    } else {
                        expected_points.extend(deltas.iter().map(|d| (epsilon, Some(d))));
                    }
                }
                let outcome = if kind != *want || reports.len() != expected_points.len() {
                    Err(format!("expected {} {want} report(s), got {line}", expected_points.len()))
                } else {
                    reports.iter().zip(&expected_points).try_for_each(
                        |(report, &(epsilon, delta))| {
                            let number =
                                |k: &str| report.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                            let fidelity =
                                report.get("fidelity").and_then(Value::as_str).unwrap_or_default();
                            // A one-node budget trips only when the request
                            // compiles under its own governor; a resident key
                            // answers it exactly.
                            let bounds_expected = match governed {
                                Some(Governed::Timeout0) => true,
                                Some(Governed::NodeBudget1) => compiled == "governed",
                                None => false,
                            };
                            if bounds_expected {
                                let key = format!("{sys:?}|{spec}|{lambda}|{epsilon}");
                                let (lower, width) =
                                    refs.bounds(system, spec, &lethal, epsilon, key)?;
                                return (fidelity == "bounds"
                                    && number("yield_lower_bound").to_bits() == lower.to_bits()
                                    && number("error_bound").to_bits() == width.to_bits())
                                .then_some(())
                                .ok_or_else(|| {
                                    format!("bounds differ from [{lower}, +{width}]: {line}")
                                });
                            }
                            let (netlist, components) = match delta {
                                Some(d) => {
                                    let name = report.get("delta").and_then(Value::as_str);
                                    if name != Some(d.name.as_str()) {
                                        return Err(format!("expected delta {}: {line}", d.name));
                                    }
                                    delta_of(d)
                                        .materialize(&system.netlist, &system.components)
                                        .map_err(|e| e.to_string())?
                                }
                                None => (system.netlist.clone(), system.components.clone()),
                            };
                            let compiled_m = number("compiled_truncation") as usize;
                            let (want_yield, bitwise) = refs.exact_yield(
                                *sys,
                                spec,
                                &netlist,
                                &components,
                                &lethal,
                                epsilon,
                                compiled_m,
                            )?;
                            let options = AnalysisOptions { epsilon, ..AnalysisOptions::default() };
                            let truncation = truncation_of(&lethal, &options)?;
                            let got = number("yield_lower_bound");
                            let yield_ok = if bitwise {
                                got.to_bits() == want_yield.to_bits()
                            } else {
                                (got - want_yield).abs() <= 1e-9
                            };
                            (yield_ok
                                && fidelity == "exact"
                                && number("truncation") == truncation.truncation() as f64
                                && number("error_bound").to_bits()
                                    == truncation.error_bound().to_bits()
                                && report.get("ordering").and_then(Value::as_str) == Some(spec))
                            .then_some(())
                            .ok_or_else(|| {
                                format!(
                                    "expected yield {want_yield:e} at M={}: {line}",
                                    truncation.truncation()
                                )
                            })
                        },
                    )
                };
                outcome
            }
        };
        if let Err(message) = result {
            checks.fail(format!("{label}: {message}"));
        }
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    let Some(bin) = args.serve_bin.clone() else {
        return out.checks.fail("serve_mix needs --serve-bin".to_string());
    };
    if args.trace {
        return trace(&bin, args.seed, out);
    }
    let mut passes = Vec::new();
    let mut stream = None;
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        match run_pass(&bin, args.seed) {
            Ok((pass, s)) => {
                passes.push(pass);
                stream = Some(s);
            }
            Err(e) => {
                out.checks.attempted += REQUESTS as u64;
                return out.checks.fail(format!("serve_mix: {e}"));
            }
        }
    }
    let stream = stream.expect("at least one pass");
    let mut refs = References::default();
    let mut latencies = Vec::new();
    let mut by_class: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for pass in &passes {
        check_responses(&stream, &pass.responses, &mut refs, &mut out.checks);
        latencies.extend(pass.latencies.iter().map(|s| 1e3 * s));
        // Per-class latency only from batches whose requests all share
        // the class, so a cached read is never charged a batch-mate's
        // compile.
        let mut at = 0;
        for batch in &stream.batches {
            let classes: Vec<&str> = pass.responses[at..at + batch.len()]
                .iter()
                .map(|line| serde_json::from_str(line).map_or("other", |v| class(&v)))
                .collect();
            if classes.iter().all(|c| *c == classes[0]) {
                by_class.entry(classes[0]).or_default().push(1e3 * pass.latencies[at]);
            }
            at += batch.len();
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    out.set("setup_s", median(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>()));
    out.set("pass_s", median(&walls));
    out.set("ops_per_s", latencies.len() as f64 / walls.iter().sum::<f64>());
    out.set("op_p50_ms", quantile(&latencies, 0.5));
    out.set("op_p99_ms", quantile(&latencies, 0.99));
    out.set("peak_rss_mb", median(&passes.iter().map(|p| p.rss_mb).collect::<Vec<_>>()));
    let p50 = |c: &str| by_class.get(c).map_or(0.0, |v| median(v));
    let count = |c: &str| by_class.get(c).map_or(0, Vec::len);
    println!(
        "serve_mix: req_per_s {:.2} · req_p50_ms {:.4} · req_p99_ms {:.4} · {} requests in {} passes",
        latencies.len() as f64 / walls.iter().sum::<f64>(),
        quantile(&latencies, 0.5),
        quantile(&latencies, 0.99),
        latencies.len(),
        passes.len()
    );
    println!(
        "serve_mix: cached_p50_ms {:.4} (n={}) · cold_p50_ms {:.4} (n={}) · delta_p50_ms {:.4} (n={}) · bounds_p50_ms {:.4} (n={})",
        p50("cached"),
        count("cached"),
        p50("cold"),
        count("cold"),
        p50("delta"),
        count("delta"),
        p50("bounds"),
        count("bounds")
    );
}

/// Strips the volatile latency from a response so the wire and the
/// in-process replay can be compared.
fn without_latency(line: &str) -> String {
    match serde_json::from_str(line) {
        Ok(Value::Object(fields)) => {
            let kept: Vec<(String, Value)> =
                fields.into_iter().filter(|(k, _)| k != "latency_seconds").collect();
            serde_json::to_string(&Value::Object(kept)).unwrap_or_default()
        }
        _ => line.to_string(),
    }
}

fn trace(bin: &str, seed: u64, out: &mut Outcome) {
    let (pass, stream) = match run_pass(bin, seed) {
        Ok(ran) => ran,
        Err(e) => return out.checks.fail(format!("serve_mix: {e}")),
    };
    let mut refs = References::default();
    check_responses(&stream, &pass.responses, &mut refs, &mut out.checks);
    let checks = &mut out.checks;

    // The same stream through the service in process.
    let config = ServiceConfig { threads: 1, ..ServiceConfig::default() };
    let mut service = YieldService::new(config);
    service.handle_line(HELLO);
    let mut replay_latencies = Vec::new();
    let replay_start = Instant::now();
    let mut at = 0;
    for batch in &stream.batches {
        let lines: Vec<&str> = batch.iter().map(|r| r.line.as_str()).collect();
        let (responses, seconds) = timed(|| service.handle_batch(&lines));
        replay_latencies.push(seconds);
        for (response, wire) in responses.iter().zip(&pass.responses[at..]) {
            checks
                .expect(without_latency(&response.to_json_line()) == without_latency(wire), || {
                    format!("in-process replay differs from the wire: {wire}")
                });
        }
        at += lines.len();
    }
    let replay_s = replay_start.elapsed().as_secs_f64();
    let stats = service.handle_line(r#"{"type":"stats"}"#);
    let cache = stats.cache.expect("stats responses carry the cache block");
    let governor = stats.governor.expect("stats responses carry the governor block");
    out.set("serve.hit_ratio", cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64);
    out.set("serve.insertions", cache.insertions as f64);
    out.set("serve.evictions", cache.evictions as f64);
    out.set("serve.resident_live_nodes", cache.live_nodes as f64);
    out.set("serve.governor_trips", governor.budget_exceeded as f64);
    out.set("serve.degraded", governor.degraded as f64);
    out.set("trace.overhead_pct", 100.0 * (replay_s - pass.wall_s) / pass.wall_s);

    // Parse errors, on a scratch service so the replay's counters stay
    // untouched.
    let mut scratch = YieldService::new(config);
    let parse_us: Vec<f64> = stream
        .requests()
        .filter(|r| matches!(r.expect, Expect::Invalid("invalid request")))
        .map(|r| {
            1e6 * min(&(0..3)
                .map(|_| timed(|| scratch.handle_batch(&[&r.line])).1)
                .collect::<Vec<_>>())
        })
        .collect();
    out.set("serve.parse_error_us", median(&parse_us));

    let checks = &mut out.checks;
    let mut layers = Layers::default();
    let mut systems: HashMap<String, System> = HashMap::new();
    let mut seen: HashSet<String> = HashSet::new();
    let mut overhead_us = Vec::new();
    let (mut sim_ms, mut sim_rate) = (Vec::new(), Vec::new());
    let mut batch_of = Vec::new();
    for (b, batch) in stream.batches.iter().enumerate() {
        batch_of.extend(std::iter::repeat_n(b, batch.len()));
    }
    for (index, request) in stream.requests().enumerate() {
        let Expect::Eval { kind, sys, spec, lambda, alpha, epsilons, deltas, governed } =
            &request.expect
        else {
            continue;
        };
        let Ok(response) = serde_json::from_str(&pass.responses[index]) else { continue };
        let system = systems.entry(format!("{sys:?}")).or_insert_with(|| resolve(*sys, &stream));
        let lethal =
            NegativeBinomial::new(*lambda, *alpha).expect("generated parameters are valid");
        let Ok(ordering) = OrderingSpec::parse(spec) else { continue };
        let reports = response.get("reports").and_then(Value::as_array).unwrap_or_default();
        let class = class(&response);

        if governed.is_some() && class == "bounds" {
            if seen.insert(format!("sim|{sys:?}|{lambda}")) {
                let samples = DegradeLadder::default().samples;
                let seed = DegradeLadder::default().seed;
                let (sim, build_s) = timed(|| {
                    MonteCarloYield::new(
                        &system.netlist,
                        &system.components,
                        &lethal,
                        SimulationOptions::default(),
                    )
                });
                if let Ok(sim) = sim {
                    let (_, run_s) = timed(|| sim.run(samples, seed));
                    sim_ms.push(1e3 * (build_s + run_s));
                    sim_rate.push(samples as f64 / run_s);
                }
            }
            continue;
        }
        if class == "bounds" || class == "other" {
            continue;
        }
        if *kind == "analyze_delta" {
            if !seen.insert(format!("delta|{sys:?}|{spec}|{lambda}|{}", epsilons[0])) {
                continue;
            }
            trace_deltas(system, &lethal, ordering, epsilons[0], deltas, &mut layers, checks);
            continue;
        }

        let options =
            |epsilon| AnalysisOptions { epsilon, spec: ordering, ..AnalysisOptions::default() };
        // Each report names the diagram that answered it: a sweep on a
        // resident key can extend the diagram between its points.
        for (report, &epsilon) in reports.iter().zip(epsilons) {
            let n = |k: &str| report.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
            let report_m = n("compiled_truncation") as usize;
            if !seen.insert(format!("compile|{sys:?}|{spec}|{report_m}")) {
                continue;
            }
            let point = ProbePoint {
                lethal: &lethal,
                options: options(epsilon),
                components: system.components.clone(),
                untraced: Untraced {
                    yield_lower_bound: n("yield_lower_bound"),
                    robdd_peak: n("robdd_peak") as usize,
                    coded_robdd_size: n("coded_robdd_size") as usize,
                    romdd_size: n("romdd_size") as usize,
                },
            };
            let probe = Probe {
                label: format!(
                    "serve {} {sys:?} {spec} M={report_m}",
                    request.id.as_deref().unwrap_or("")
                ),
                fault_tree: &system.netlist,
                components: &system.components,
                spec: ordering,
                compile_m: report_m,
                points: vec![point],
            };
            layers.trace(&probe, checks);
        }

        // Service overhead of a cached read answered alone: in-process
        // latency minus the evaluation it wraps.
        let alone = stream.batches[batch_of[index]].len() == 1;
        if class == "cached" && *kind == "analyze" && alone && overhead_us.len() < 100 {
            let Some(compiled_m) =
                reports.first().and_then(|r| r.get("compiled_truncation")).and_then(Value::as_u64)
            else {
                continue;
            };
            let mut pipeline = match Pipeline::new(&system.netlist, &system.components) {
                Ok(p) => p,
                Err(_) => continue,
            };
            let compile = AnalysisOptions {
                fixed_truncation: Some(compiled_m as usize),
                ..options(epsilons[0])
            };
            if pipeline.evaluate(&lethal, &compile).is_err() {
                continue;
            }
            let evaluate = min(&(0..3)
                .map(|_| timed(|| pipeline.evaluate(&lethal, &options(epsilons[0]))).1)
                .collect::<Vec<_>>());
            overhead_us.push(1e6 * (replay_latencies[batch_of[index]] - evaluate));
        }
    }
    layers.export(out);
    out.set("serve.overhead_us", median(&overhead_us));
    out.set("sim.bounds_ms", median(&sim_ms));
    out.set("sim.samples_per_s", median(&sim_rate));
    println!(
        "serve_mix traced: wire pass {:.4} s · in-process replay {replay_s:.4} s · {} cached reads timed",
        pass.wall_s,
        overhead_us.len()
    );
}

/// Times each delta of one `analyze_delta` family on a resident base:
/// swap-only deltas re-evaluate, structural ones rebuild in the retained
/// ROBDD manager (or recompile when the variant orders differently).
fn trace_deltas(
    system: &System,
    lethal: &NegativeBinomial,
    spec: OrderingSpec,
    epsilon: f64,
    deltas: &[crate::gen::DeltaSpec],
    layers: &mut Layers,
    checks: &mut Checks,
) {
    let options = AnalysisOptions { epsilon, spec, ..AnalysisOptions::default() };
    let mut pipeline = match Pipeline::new(&system.netlist, &system.components) {
        Ok(p) => p,
        Err(e) => return checks.fail(format!("delta base: {e}")),
    };
    // Compile the base with its ROBDD manager retained: a structural
    // "variant" identical to the base makes the pipeline keep it, and
    // rebuilds nothing new.
    let keep = SystemDelta::named("keep").with_fault_tree(system.netlist.clone());
    if let Err(e) = pipeline.sweep_deltas(lethal, &options, &[keep]) {
        return checks.fail(format!("delta base: {e}"));
    }
    for spec in deltas {
        let delta = delta_of(spec);
        let structural = !delta.is_swap_only();
        let (result, seconds) =
            timed(|| pipeline.sweep_deltas(lethal, &options, std::slice::from_ref(&delta)));
        if let Err(e) = result {
            checks.fail(format!("delta {}: {e}", spec.name));
        } else if structural {
            layers.delta_rebuild_ms.push(1e3 * seconds);
        } else {
            layers.delta_eval_us.push(1e6 * seconds);
        }
    }
}
