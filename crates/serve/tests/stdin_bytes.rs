//! The `serve` binary reads stdin as bytes: a line that is not UTF-8 is
//! answered like any other malformed request, and the session goes on.

use std::io::Write;
use std::process::{Command, Stdio};

use serde::Value;

#[test]
fn a_line_that_is_not_utf8_gets_one_error_and_reading_continues() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--threads", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve starts");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"{\"type\":\"stats\",\"id\":\"a\"}\n\n\xff\xfe bad\n\n{\"type\":\"stats\",\"id\":\"b\"}\n\n")
        .expect("serve reads its input");
    let output = child.wait_with_output().expect("serve exits");
    assert!(output.status.success());

    let stdout = String::from_utf8(output.stdout).expect("responses are UTF-8");
    let responses: Vec<Value> = stdout
        .lines()
        .map(|line| serde_json::from_str(line).expect("one JSON response per line"))
        .collect();
    assert_eq!(responses.len(), 3, "one response per request line: {stdout}");
    assert_eq!(responses[0].get("id").and_then(Value::as_str), Some("a"));
    assert_eq!(responses[1].get("id"), Some(&Value::Null));
    assert_eq!(responses[1].get("ok").and_then(Value::as_bool), Some(false));
    let error = responses[1].get("error").and_then(Value::as_str).expect("an error message");
    assert!(error.starts_with("invalid request") && error.contains("utf-8"), "{error}");
    assert_eq!(responses[2].get("id").and_then(Value::as_str), Some("b"));
}
