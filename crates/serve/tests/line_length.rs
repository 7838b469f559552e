//! The `serve` binary caps the length of a request line: a longer line
//! gets one `invalid request` error naming the limit, in request order,
//! and the session goes on. Long real requests stay well below the cap
//! and still reach the parser.

use std::fmt::Write as _;
use std::io::Write;
use std::process::{Command, Stdio};

use serde::Value;
use socy_serve::MAX_LINE_BYTES;

/// Runs `serve` on `input` and returns one parsed response per output line.
fn serve(input: &[u8]) -> Vec<Value> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--threads", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve starts");
    child.stdin.take().expect("piped stdin").write_all(input).expect("serve reads its input");
    let output = child.wait_with_output().expect("serve exits");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("responses are UTF-8");
    stdout
        .lines()
        .map(|line| serde_json::from_str(line).expect("one JSON response per line"))
        .collect()
}

fn error(response: &Value) -> &str {
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    response.get("error").and_then(Value::as_str).expect("an error message")
}

#[test]
fn an_overlong_line_gets_one_error_and_the_session_continues() {
    // A 2,000-input inline tree whose request fails the schema only after
    // parsing (a string epsilon), so it is answered without a compile.
    let mut netlist = String::new();
    for i in 0..2_000 {
        write!(netlist, "input x{i}\\n").expect("writes to a string");
    }
    netlist.push_str("f = atleast2");
    for i in 0..2_000 {
        write!(netlist, " x{i}").expect("writes to a string");
    }
    netlist.push_str("\\noutput f");
    let inline = format!(
        r#"{{"type":"analyze","id":"wide","system":{{"name":"wide","netlist":"{netlist}"}},"distribution":{{"kind":"poisson","lambda":1.0}},"epsilon":"x"}}"#
    );

    let mut input = Vec::new();
    input.extend_from_slice(b"{\"type\":\"stats\",\"id\":\"a\"}\n");
    input.resize(input.len() + MAX_LINE_BYTES + 1, b'x');
    input.extend_from_slice(b"\n");
    input.extend_from_slice(inline.as_bytes());
    input.extend_from_slice(b"\n");
    input.resize(input.len() + 200_000, b'[');
    input.extend_from_slice(b"\n{\"type\":\"stats\",\"id\":\"b\"}\n\n");
    // A line of exactly the limit, CRLF-terminated, is not over it.
    input.extend_from_slice(b"\"");
    input.resize(input.len() + MAX_LINE_BYTES - 2, b' ');
    input.extend_from_slice(b"\"\r\n");
    // An overlong last line without a terminator.
    input.resize(input.len() + MAX_LINE_BYTES + 7, b'{');

    let responses = serve(&input);
    assert_eq!(responses.len(), 7, "one response per request line");
    assert_eq!(responses[0].get("id").and_then(Value::as_str), Some("a"));
    for overlong in [&responses[1], &responses[6]] {
        assert_eq!(overlong.get("id"), Some(&Value::Null));
        let message = error(overlong);
        assert!(
            message.starts_with("invalid request") && message.contains("16777216 bytes"),
            "{message}"
        );
    }
    assert_eq!(responses[2].get("id").and_then(Value::as_str), Some("wide"), "reached the parser");
    assert!(error(&responses[2]).starts_with("invalid request"));
    assert!(error(&responses[3]).contains("limit of 128"), "reached the parser");
    assert_eq!(responses[4].get("id").and_then(Value::as_str), Some("b"));
    let at_limit = error(&responses[5]);
    assert!(!at_limit.contains("16777216"), "a line at the limit is parsed: {at_limit}");
}

#[test]
fn the_usage_text_names_the_limit() {
    let output = Command::new(env!("CARGO_BIN_EXE_serve")).arg("--help").output().expect("runs");
    let usage = String::from_utf8(output.stdout).expect("UTF-8");
    assert!(usage.contains(&format!("{MAX_LINE_BYTES} bytes")), "{usage}");
}
