#!/usr/bin/env python3
"""Builds the soc-yield benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the release `serve` binary with
the root workspace's profile and the `perfbench` package (a workspace of
its own with the same profile) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs perfbench. The last line perfbench prints is the
JSON result; its exit code is non-zero when a check fails. Build output
goes to stderr so that stdout carries only the benchmark's report.
"""

import os
import subprocess
import sys

# perfbench measures for --seconds and must end well within three minutes;
# this bound only catches a hang.
RUN_TIMEOUT_S = 175


def first_line(cmd, **kwargs):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, **kwargs).stdout
        return out.strip().splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        return "unknown"


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not (os.path.isfile(os.path.join(root, "Cargo.toml")) and os.path.isdir(os.path.join(root, "crates"))):
        print("run.py: the workspace sources are not next to perfbench/", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    release = ["cargo", "build", "--release", "--offline", "--quiet"]
    builds = [
        release + ["--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "socy-serve", "--bin", "serve"],
        release + ["--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    # Stop git at the checkout: a copy without .git has no commit to name.
    git_env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    env["PERFBENCH_COMMIT"] = first_line(["git", "-C", root, "rev-parse", "HEAD"], env=git_env)
    env["PERFBENCH_RUSTC"] = first_line(["rustc", "--version"], env=env)
    release_dir = os.path.join(target, "release")
    cmd = [os.path.join(release_dir, "perfbench"), *sys.argv[1:], "--serve-bin", os.path.join(release_dir, "serve")]
    try:
        return subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: perfbench did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
