//! CI gate for the paper anchors and the perf-smoke sweep: compares a
//! freshly produced JSON dump against its pinned fixture under
//! `tests/fixtures/`, ignoring only the volatile wall-clock/environment
//! fields (`seconds`, `*_seconds` and `threads`). Any drift in node
//! counts, peaks, truncations, cache statistics or yields — or a field
//! present on only one side — fails
//! the build with a per-field report; missing or malformed files fail
//! with a readable message instead of a panic.
//!
//! `--delta-equivalence` selects [`DiffPolicy::DeltaEquivalence`]: it
//! additionally exempts the ROBDD-side fields, all cache counters and
//! the execution-shape total `chunks`. An incremental `sweep_deltas` run
//! compiles a delta family as **one** chunk on a retained base manager,
//! while the `--scratch-deltas` materialized run compiles one chunk per
//! variant, yet every reported yield, error bound, truncation and ROMDD
//! node count must be bit-identical. Any other flag exits 2.
//!
//! Usage: `anchor_check [--delta-equivalence] <fixture.json>
//! <actual.json> [...more pairs]`

use soc_yield_bench::{diff_anchor_values, DiffPolicy};

const USAGE: &str =
    "usage: anchor_check [--delta-equivalence] <fixture.json> <actual.json> [...more pairs]";

fn read(path: &str, role: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {role} {path}: {e}"))
}

fn check_pair(fixture_path: &str, actual_path: &str, policy: DiffPolicy) -> Result<(), String> {
    let fixture = read(fixture_path, "fixture")?;
    let actual = read(actual_path, "file")?;
    match diff_anchor_values(&fixture, &actual, policy) {
        Err(message) => Err(message),
        Ok(diffs) if diffs.is_empty() => Ok(()),
        Ok(diffs) => Err(format!("{} divergent field(s):\n  {}", diffs.len(), diffs.join("\n  "))),
    }
}

fn main() {
    let mut policy = DiffPolicy::Strict;
    let mut args = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--delta-equivalence" {
            policy = DiffPolicy::DeltaEquivalence;
        } else if arg.starts_with("--") {
            eprintln!("anchor_check: unknown argument `{arg}`\n{USAGE}");
            std::process::exit(2);
        } else {
            args.push(arg);
        }
    }
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let mut failed = false;
    for pair in args.chunks(2) {
        let (fixture_path, actual_path) = (&pair[0], &pair[1]);
        match check_pair(fixture_path, actual_path, policy) {
            Ok(()) => println!("OK   {actual_path} matches {fixture_path}"),
            Err(report) => {
                eprintln!("FAIL {actual_path} vs {fixture_path}\n{report}");
                failed = true;
            }
        }
    }
    if failed {
        eprintln!(
            "anchors drifted — if the change is intentional, regenerate the fixtures \
             with the table binaries / bench_matrix (see .github/workflows/ci.yml, jobs \
             `paper-anchors` and `perf-smoke`)"
        );
        std::process::exit(1);
    }
}
