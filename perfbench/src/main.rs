//! The soc-yield benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload <design_sweep|reeval_sweep|serve_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--serve-bin <path>]
//! ```
//!
//! An untraced run (`--trace 0`) times the workload end to end and
//! prints the end-to-end metrics; a traced run (`--trace 1`) times each
//! layer's public functions from outside and prints the per-layer
//! metrics. Both check every answer. The last line of standard output is
//! the JSON result; the process exits non-zero when any check fails.
//! `perfbench/run.py` builds this package and the `serve` binary and runs
//! it; `perfbench/METRICS.md` explains the workloads and metrics.

mod common;
mod design;
mod gen;
mod layers;
mod reeval;
mod serve_mix;

use std::process::ExitCode;

use common::{Args, Outcome, END_TO_END, PER_LAYER};
use soc_yield_core::CompileOptions;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "design_sweep" => design::run(&args, &mut out),
        "reeval_sweep" => reeval::run(&args, &mut out),
        "serve_mix" => serve_mix::run(&args, &mut out),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    }
    print_host(&args);
    for message in &out.checks.messages {
        eprintln!("CHECK FAILED: {message}");
    }
    println!(
        "fail_share {} ({} failed of {} attempted)",
        out.checks.failed as f64 / out.checks.attempted.max(1) as f64,
        out.checks.failed,
        out.checks.attempted
    );
    println!("{}", out.result_line(if args.trace { PER_LAYER } else { END_TO_END }));
    if out.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The host record every result carries: processors, worker and compile
/// threads, seed, commit and compiler.
fn print_host(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let host = serde::Value::Object(
        [
            ("nproc", serde::Value::UInt(nproc as u64)),
            ("workers", serde::Value::UInt(1)),
            (
                "compile_threads",
                serde::Value::UInt(CompileOptions::default().compile_threads() as u64),
            ),
            ("workload", serde::Value::String(args.workload.clone())),
            ("seed", serde::Value::UInt(args.seed)),
            ("seconds", serde::Value::Float(args.seconds)),
            ("trace", serde::Value::Bool(args.trace)),
            ("commit", serde::Value::String(env("PERFBENCH_COMMIT"))),
            ("rustc", serde::Value::String(env("PERFBENCH_RUSTC"))),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    );
    println!("host {}", serde_json::to_string(&host).expect("host record serializes"));
}
