//! Command line, statistics, process measurements and the result line
//! shared by every workload.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

/// End-to-end metrics, reported by every workload of an untraced run
/// (name, unit). `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload of a traced run (name,
/// unit). A layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("defect.truncate_us", "us"),
    ("core.encode_us", "us"),
    ("core.g_gates", "count"),
    ("ordering.order_us", "us"),
    ("bdd.build_s", "s"),
    ("bdd.peak_nodes", "count"),
    ("bdd.size_nodes", "count"),
    ("bdd.ns_per_peak_node", "ns"),
    ("dd.cache_hit_pct", "%"),
    ("dd.cache_evict_pct", "%"),
    ("dd.cache_lookups", "count"),
    ("dd.unique_entries", "count"),
    ("dd.complement_hits", "count"),
    ("bdd.sift_s", "s"),
    ("bdd.presift_nodes", "count"),
    ("bdd.sifted_nodes", "count"),
    ("dd.gc_runs", "count"),
    ("dd.gc_reclaimed", "count"),
    ("mdd.convert_s", "s"),
    ("mdd.romdd_nodes", "count"),
    ("mdd.peak_nodes", "count"),
    ("mdd.probability_us", "us"),
    ("mdd.ns_per_romdd_node", "ns"),
    ("core.evaluate_us", "us"),
    ("core.eval_overhead_us", "us"),
    ("core.compile_s", "s"),
    ("core.delta_eval_us", "us"),
    ("core.delta_rebuild_ms", "ms"),
    ("exec.chunk_s_max", "s"),
    ("exec.chunk_s_sum", "s"),
    ("exec.critical_share", "ratio"),
    ("exec.overhead_s", "s"),
    ("serve.hit_ratio", "ratio"),
    ("serve.insertions", "count"),
    ("serve.evictions", "count"),
    ("serve.resident_live_nodes", "count"),
    ("serve.governor_trips", "count"),
    ("serve.degraded", "count"),
    ("serve.parse_error_us", "us"),
    ("serve.overhead_us", "us"),
    ("sim.bounds_ms", "ms"),
    ("sim.samples_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.phase_gap_pct", "%"),
];

/// The command line the benchmark is run with.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The release `serve` binary (serve_mix only).
    pub serve_bin: Option<String>,
}

impl Args {
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut serve_bin = None;
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                    }
                }
                "--serve-bin" => serve_bin = Some(value()?),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let seconds: f64 = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds must lie in (0, 120], got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            serve_bin,
        })
    }
}

/// Counts attempted operations and failed checks; every failure message
/// is printed to stderr once the run ends.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one failed check.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 50 {
            self.messages.push(message);
        }
    }

    /// Records a failed check unless `ok`.
    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }
}

/// The outcome of one run: checks plus the metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The final result line: exactly the metrics of `names`, each with its
    /// unit (a name without a value reads 0).
    pub fn result_line(&self, names: &[(&str, &str)]) -> String {
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(value)),
                        ("unit".to_string(), Value::String(unit.to_string())),
                    ]),
                )
            })
            .collect();
        let doc = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.checks.failed == 0)),
            ("attempted".to_string(), Value::UInt(self.checks.attempted.max(1))),
            ("failed".to_string(), Value::UInt(self.checks.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&doc).expect("a metric document serializes")
    }
}

/// Runs `f` and returns its result with the elapsed wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Peak resident set size (`VmHWM`) of a process in MiB: `None` reads this
/// process. Returns 0 where `/proc` is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let Ok(status) = std::fs::read_to_string(path) else { return 0.0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&values), 3.0);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 5.0);
        assert_eq!(quantile(&values, 0.125), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = doc.get(key).and_then(Value::as_array).expect("metric list");
            let named: Vec<(&str, &str)> = entries
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Value::as_str).expect("name"),
                        m.get("unit").and_then(Value::as_str).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(named, list.to_vec(), "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::default();
        outcome.checks.attempted = 3;
        outcome.set("setup_s", 0.25);
        let line = outcome.result_line(END_TO_END);
        let doc = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }
}
