//! `serve` — the yield-analysis daemon.
//!
//! Reads line-delimited JSON requests on stdin and writes one JSON
//! response per line on stdout, in request order. A blank input line
//! flushes the pending batch (all uncached requests of a batch run as one
//! parallel sweep); EOF flushes and exits. See the `socy_serve` crate
//! docs and the repository README for the request schema.

use std::io::{self, BufRead, Read, Write};
use std::process::ExitCode;

use serde::Serialize;
use socy_serve::{CompileOptions, ServiceConfig, YieldService, MAX_LINE_BYTES};

const USAGE_HEAD: &str = "\
Usage: serve [--threads N] [--cache-node-budget NODES] [--record PATH]
             [compile options]

Reads line-delimited JSON requests on stdin; a blank line flushes the
pending batch, EOF flushes and exits. Writes one JSON response per line
on stdout, in request order. A line longer than 16 MiB (16777216 bytes)
is answered with one `invalid request` error; the rest of it is skipped
unread.

  --threads N            worker threads for uncached requests (0 = all cores; default 0)
  --cache-node-budget N  live-node budget of the pipeline cache (0 = unbounded);
                         distinct from --node-budget, which caps each governed
                         compilation
  --record PATH          additionally write every response into PATH as one
                         pretty-printed JSON array (for anchor_check replays)";

fn usage() -> String {
    format!("{USAGE_HEAD}\n{}", CompileOptions::CLI_HELP)
}

fn main() -> ExitCode {
    let mut config = ServiceConfig::default();
    let mut record: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match config.options.parse_cli_flag(&arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(message) => return usage_error(&message),
        }
        match arg.as_str() {
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.threads = n,
                None => return usage_error("--threads requires an integer"),
            },
            "--cache-node-budget" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(0) => config.node_budget = None,
                Some(n) => config.node_budget = Some(n),
                None => return usage_error("--cache-node-budget requires an integer"),
            },
            "--record" => match args.next() {
                Some(path) => record = Some(path),
                None => return usage_error("--record requires a path"),
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let mut service = YieldService::new(config);
    let mut recorded: Vec<serde::Value> = Vec::new();
    let mut batch: Vec<Vec<u8>> = Vec::new();
    // Lines are read as bytes: a line that is not UTF-8 is a request like
    // any other, answered with an `invalid request` error, and does not
    // end the session. At most MAX_LINE_BYTES of a line plus its "\r\n"
    // are kept; the service answers a longer line with an error, and the
    // rest of it is skipped without being buffered.
    let mut stdin = io::stdin().lock();
    let kept = MAX_LINE_BYTES as u64 + 2;
    loop {
        let mut line = Vec::new();
        match (&mut stdin).take(kept).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.len() as u64 == kept && !line.ends_with(b"\n") {
            // A read error here surfaces again at the next read.
            let _ = stdin.skip_until(b'\n');
        }
        if line.ends_with(b"\n") {
            line.pop();
            if line.ends_with(b"\r") {
                line.pop();
            }
        }
        if std::str::from_utf8(&line).is_ok_and(|text| text.trim().is_empty()) {
            flush(&mut service, &mut batch, &mut recorded, record.is_some());
        } else {
            batch.push(line);
        }
    }
    flush(&mut service, &mut batch, &mut recorded, record.is_some());

    if let Some(path) = record {
        let text = serde::Value::Array(recorded).to_pretty_string();
        if let Err(error) = std::fs::write(&path, text + "\n") {
            eprintln!("serve: cannot write {path}: {error}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("serve: {message}\n{}", usage());
    ExitCode::from(2)
}

/// Serves the pending batch: one response line per request, flushed so a
/// pipe-connected client can read the answers before sending more.
fn flush(
    service: &mut YieldService,
    batch: &mut Vec<Vec<u8>>,
    recorded: &mut Vec<serde::Value>,
    record: bool,
) {
    if batch.is_empty() {
        return;
    }
    let responses = service.handle_batch(batch);
    batch.clear();
    let stdout = io::stdout();
    let mut out = stdout.lock();
    for response in &responses {
        let _ = writeln!(out, "{}", response.to_json_line());
    }
    let _ = out.flush();
    if record {
        recorded.extend(responses.iter().map(Serialize::to_json));
    }
}
