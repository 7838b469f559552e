//! Minimal offline stand-in for `serde_json`: pretty/compact printing of
//! values implementing the serde shim's `Serialize` trait, plus a small
//! recursive-descent parser ([`from_str`]) producing [`Value`] trees.

#![forbid(unsafe_code)]

pub use serde::Value;

/// Serialisation/parse error.
#[derive(Debug)]
pub struct Error(String);

impl Error {
    fn parse(offset: usize, message: impl Into<String>) -> Self {
        Error(format!("JSON parse error at byte {offset}: {}", message.into()))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Renders `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_json().to_pretty_string())
}

/// Renders `value` as compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let pretty = value.to_json().to_pretty_string();
    // The shim keeps this simple: strip the indentation produced by the
    // pretty printer. Strings never span lines, so joining is safe.
    Ok(pretty.lines().map(str::trim_start).collect::<Vec<_>>().join("").replace("\": ", "\":"))
}

/// Deepest nesting of arrays and objects [`from_str`] accepts — the
/// default recursion limit of the real `serde_json`. The parser recurses
/// once per level, so this bounds its stack use on hostile input.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document into a [`Value`] tree.
///
/// Supports the full JSON data model the shim's printer emits (objects,
/// arrays, strings with escapes, numbers, booleans, `null`). Numbers
/// containing `.`, `e` or `E` parse as [`Value::Float`]; other numbers
/// parse as [`Value::Int`] / [`Value::UInt`], mirroring the printer.
///
/// # Errors
///
/// Returns a readable [`Error`] naming the byte offset of the first
/// malformed construct, including trailing garbage after the document
/// and arrays or objects nested more than [`MAX_DEPTH`] levels deep.
pub fn from_str(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::parse(pos, "trailing characters after the document"));
    }
    Ok(value)
}

/// Converts an already-parsed [`Value`] into a typed `T`.
pub fn from_value<T: serde::Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_json(value).map_err(|e| Error(e.to_string()))
}

/// Parses a JSON document straight into a typed `T` ([`from_str`] then
/// [`from_value`]).
pub fn from_str_typed<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    from_value(&from_str(text)?)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), Error> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(Error::parse(*pos, format!("expected `{}`", byte as char)))
    }
}

/// Parses one value; `depth` counts the arrays and objects enclosing it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error::parse(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(Error::parse(
            *pos,
            format!("arrays and objects nest deeper than the limit of {MAX_DEPTH} levels"),
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&b) => Err(Error::parse(*pos, format!("unexpected byte `{}`", b as char))),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &str,
    value: Value,
) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(Error::parse(*pos, format!("expected `{keyword}`")))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            _ => return Err(Error::parse(*pos, "expected `,` or `}` in object")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(Error::parse(*pos, "expected `,` or `]` in array")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error::parse(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let unit = parse_hex4(bytes, *pos + 1)
                            .ok_or_else(|| Error::parse(*pos, "invalid \\u escape"))?;
                        match unit {
                            // A high surrogate must be immediately followed
                            // by an escaped low surrogate; together they
                            // encode one supplementary-plane scalar.
                            0xd800..=0xdbff => {
                                if bytes.get(*pos + 5) != Some(&b'\\')
                                    || bytes.get(*pos + 6) != Some(&b'u')
                                {
                                    return Err(Error::parse(
                                        *pos,
                                        "unpaired high surrogate in \\u escape",
                                    ));
                                }
                                let low = parse_hex4(bytes, *pos + 7)
                                    .ok_or_else(|| Error::parse(*pos + 6, "invalid \\u escape"))?;
                                if !(0xdc00..=0xdfff).contains(&low) {
                                    return Err(Error::parse(
                                        *pos,
                                        "high surrogate not followed by a low surrogate",
                                    ));
                                }
                                let scalar = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                out.push(
                                    char::from_u32(scalar).expect("paired surrogates are scalar"),
                                );
                                *pos += 10;
                            }
                            0xdc00..=0xdfff => {
                                return Err(Error::parse(
                                    *pos,
                                    "unpaired low surrogate in \\u escape",
                                ));
                            }
                            _ => {
                                let c = char::from_u32(unit).ok_or_else(|| {
                                    Error::parse(*pos, "\\u escape is not a scalar")
                                })?;
                                out.push(c);
                                *pos += 4;
                            }
                        }
                    }
                    _ => return Err(Error::parse(*pos, "invalid escape sequence")),
                }
                *pos += 1;
            }
            Some(&b) => {
                // Consume one UTF-8 scalar (the input is a &str, so the
                // byte stream is valid UTF-8 by construction); decoding
                // only the next few bytes keeps string parsing linear.
                if b < 0x20 {
                    return Err(Error::parse(*pos, "unescaped control character"));
                }
                let len = match b {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let slice = bytes
                    .get(*pos..*pos + len)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .ok_or_else(|| Error::parse(*pos, "invalid UTF-8"))?;
                out.push_str(slice);
                *pos += len;
            }
        }
    }
}

/// Reads exactly four hex digits starting at `at`. `from_str_radix`
/// would accept a leading sign; JSON requires exactly four hex digits.
fn parse_hex4(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)
        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
        .and_then(|h| std::str::from_utf8(h).ok())
        .and_then(|h| u32::from_str_radix(h, 16).ok())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| Error::parse(start, "invalid number"))?;
    if is_float {
        // `f64::from_str` silently saturates overflowing literals such as
        // `1e999` to infinity; a wire protocol must reject them instead.
        text.parse::<f64>()
            .ok()
            .filter(|f| f.is_finite())
            .map(Value::Float)
            .ok_or_else(|| Error::parse(start, format!("invalid number `{text}`")))
    } else if text.starts_with('-') {
        text.parse::<i64>()
            .map(Value::Int)
            .map_err(|_| Error::parse(start, format!("invalid number `{text}`")))
    } else {
        text.parse::<u64>()
            .map(Value::UInt)
            .map_err(|_| Error::parse(start, format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::MAX_DEPTH;
    use serde::Serialize;

    #[derive(Serialize)]
    struct Row {
        benchmark: String,
        lambda: f64,
        truncation: usize,
        monte_carlo_yield: Option<f64>,
    }

    #[test]
    fn derive_and_pretty_print_round_trip() {
        let rows = vec![
            Row {
                benchmark: "MS2".to_string(),
                lambda: 1.0,
                truncation: 6,
                monte_carlo_yield: Some(0.25),
            },
            Row {
                benchmark: "ESEN4x1".to_string(),
                lambda: 2.0,
                truncation: 10,
                monte_carlo_yield: None,
            },
        ];
        let text = super::to_string_pretty(rows.as_slice()).unwrap();
        assert!(text.contains("\"benchmark\": \"MS2\""));
        assert!(text.contains("\"lambda\": 1.0"));
        assert!(text.contains("\"truncation\": 6"));
        assert!(text.contains("\"monte_carlo_yield\": null"));
        // Field order follows declaration order.
        let b = text.find("\"benchmark\"").unwrap();
        let l = text.find("\"lambda\"").unwrap();
        assert!(b < l);
    }

    #[test]
    fn compact_form_has_no_newlines() {
        let text = super::to_string(&vec![1u32, 2, 3]).unwrap();
        assert_eq!(text, "[1,2,3]");
    }

    #[test]
    fn parse_round_trips_printer_output() {
        let rows = vec![
            Row {
                benchmark: "MS2, λ'=1".to_string(),
                lambda: 1.0,
                truncation: 6,
                monte_carlo_yield: Some(0.8528030506125002),
            },
            Row {
                benchmark: "quote\"and\\slash".to_string(),
                lambda: -2.5e-3,
                truncation: 10,
                monte_carlo_yield: None,
            },
        ];
        let text = super::to_string_pretty(rows.as_slice()).unwrap();
        let parsed = super::from_str(&text).unwrap();
        let items = parsed.as_array().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("benchmark").and_then(serde::Value::as_str), Some("MS2, λ'=1"));
        assert_eq!(items[0].get("truncation").and_then(serde::Value::as_u64), Some(6));
        // Floats survive bit-exactly through print → parse.
        assert_eq!(
            items[0].get("monte_carlo_yield").and_then(serde::Value::as_f64).map(f64::to_bits),
            Some(0.8528030506125002f64.to_bits())
        );
        assert_eq!(items[1].get("lambda").and_then(serde::Value::as_f64), Some(-2.5e-3));
        assert_eq!(items[1].get("monte_carlo_yield"), Some(&serde::Value::Null));
        assert_eq!(
            items[1].get("benchmark").and_then(serde::Value::as_str),
            Some("quote\"and\\slash")
        );
    }

    #[test]
    fn parse_literals_and_structures() {
        assert_eq!(super::from_str("null").unwrap(), serde::Value::Null);
        assert_eq!(super::from_str(" true ").unwrap(), serde::Value::Bool(true));
        assert_eq!(super::from_str("false").unwrap(), serde::Value::Bool(false));
        assert_eq!(super::from_str("-42").unwrap(), serde::Value::Int(-42));
        assert_eq!(super::from_str("42").unwrap(), serde::Value::UInt(42));
        assert_eq!(super::from_str("{}").unwrap(), serde::Value::Object(vec![]));
        assert_eq!(super::from_str("[]").unwrap(), serde::Value::Array(vec![]));
        assert_eq!(
            super::from_str("[1, 2.5, \"a\\u0041\"]").unwrap(),
            serde::Value::Array(vec![
                serde::Value::UInt(1),
                serde::Value::Float(2.5),
                serde::Value::String("aA".to_string()),
            ])
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "[1] garbage",
            "\"unterminated",
            "{1: 2}",
            "nan",
            "\"\\u+0AB\"",
            "\"\\u00\"",
            // Lone surrogates, in either order, are not scalar values.
            "\"\\ud83d\"",
            "\"\\ude00\"",
            "\"\\ude00\\ud83d\"",
            "\"\\ud83d x\"",
            "\"\\ud83d\\u0041\"",
            // Overflowing floats must not silently become infinity.
            "1e999",
            "-1e999",
            "1e-999e",
            // Bare control characters must be escaped on the wire.
            "\"a\u{01}b\"",
            "\"line\nbreak\"",
        ] {
            let err = super::from_str(bad).unwrap_err();
            assert!(err.to_string().contains("JSON parse error"), "{bad}: {err}");
        }
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(super::from_str(&nested(MAX_DEPTH, "[", "]")).is_ok());
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(super::from_str(&objects).is_ok());
        let limit = format!("limit of {MAX_DEPTH} levels");
        for too_deep in [
            nested(MAX_DEPTH + 1, "[", "]"),
            format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1)),
            format!("[{{\"k\":{}", nested(MAX_DEPTH - 1, "[", "]") + "}]"),
        ] {
            let err = super::from_str(&too_deep).unwrap_err().to_string();
            assert!(err.contains("JSON parse error") && err.contains(&limit), "{err}");
        }
        // Far past the limit the parser stops at the first excess level
        // instead of recursing until the stack overflows.
        let hostile = "[".repeat(200_000);
        let err = super::from_str(&hostile).unwrap_err().to_string();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}:")) && err.contains(&limit), "{err}");
    }

    #[test]
    fn parse_accepts_surrogate_pair_escapes() {
        let parsed = super::from_str("\"\\ud83d\\ude00 + \\uD83E\\uDD16\"").unwrap();
        assert_eq!(parsed.as_str(), Some("😀 + 🤖"));
    }

    #[test]
    fn underflowing_floats_round_to_zero() {
        // Underflow is not overflow: tiny magnitudes legitimately round
        // to zero, matching every mainstream JSON parser.
        assert_eq!(super::from_str("1e-999").unwrap(), serde::Value::Float(0.0));
    }

    #[derive(serde::Deserialize, Debug, PartialEq)]
    struct TypedRow {
        benchmark: String,
        lambda: f64,
        truncation: usize,
        monte_carlo_yield: Option<f64>,
    }

    #[test]
    fn typed_deserialization_round_trips() {
        let row: TypedRow =
            super::from_str_typed("{\"benchmark\": \"MS2\", \"lambda\": 1.5, \"truncation\": 6}")
                .unwrap();
        assert_eq!(
            row,
            TypedRow {
                benchmark: "MS2".to_string(),
                lambda: 1.5,
                truncation: 6,
                monte_carlo_yield: None,
            }
        );
        let err = super::from_str_typed::<TypedRow>("{\"benchmark\": \"MS2\"}").unwrap_err();
        assert!(err.to_string().contains("missing field `lambda`"), "{err}");
        let err = super::from_str_typed::<TypedRow>(
            "{\"benchmark\": 3, \"lambda\": 1, \"truncation\": 6}",
        )
        .unwrap_err();
        assert!(err.to_string().contains("benchmark"), "{err}");
    }
}
