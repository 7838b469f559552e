//! CI gate for the paper anchors and the perf-smoke sweep: compares a
//! freshly produced JSON dump against its pinned fixture under
//! `tests/fixtures/`, ignoring only the volatile wall-clock/environment
//! fields (`seconds`, `*_seconds` and `threads`). Any drift in node
//! counts, peaks, truncations, cache statistics or yields — or a field
//! present on only one side — fails
//! the build with a per-field report; missing or malformed files fail
//! with a readable message instead of a panic.
//!
//! A flag selects a laxer [`DiffPolicy`] (see [`DIFF_POLICY_FLAGS`]):
//!
//! * `--complement-invariant` additionally exempts the ROBDD-side node
//!   counts and all cache counters, while yields, error bounds,
//!   truncations and ROMDD node counts must still match bit-for-bit.
//!   CI gates a `--no-complement-edges` regeneration against the
//!   complement-enabled fixture this way, proving the complemented-edge
//!   toggle a pure representation knob.
//! * `--delta-equivalence` additionally exempts the execution-shape
//!   total `chunks`: an incremental `sweep_deltas` run compiles a delta
//!   family as **one** chunk while the `--scratch-deltas` materialized
//!   run compiles one chunk per variant, yet every reported yield,
//!   truncation and ROMDD node count must be bit-identical.
//!
//! Usage: `anchor_check [--complement-invariant | --delta-equivalence]
//! <fixture.json> <actual.json> [...more pairs]`

use soc_yield_bench::{diff_anchor_values, DiffPolicy, DIFF_POLICY_FLAGS};

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
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut policy = DiffPolicy::Strict;
    let mut conflicting = false;
    args.retain(|arg| {
        let Some(&(_, selected)) = DIFF_POLICY_FLAGS.iter().find(|(flag, _)| flag == arg) else {
            return true;
        };
        conflicting |= policy != DiffPolicy::Strict && policy != selected;
        policy = selected;
        false
    });
    if conflicting || args.is_empty() || !args.len().is_multiple_of(2) {
        let flags: Vec<&str> = DIFF_POLICY_FLAGS.iter().map(|(flag, _)| *flag).collect();
        eprintln!(
            "usage: anchor_check [{}] <fixture.json> <actual.json> [...more pairs]",
            flags.join(" | ")
        );
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
