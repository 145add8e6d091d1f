//! The one JSON reader of the workspace, and the writer of its bench
//! artifacts and reports, with no external dependency.
//!
//! [`parse_document`] reads a whole JSON document into a [`Json`] tree
//! (objects, arrays and scalars), and [`Json::render`] writes one back
//! with the trace lines' escaping and number policy; the bench binaries
//! build and read their nested `BENCH_*.json` artifacts through them.
//! [`parse_line`] and [`parse_trace`] read the JSONL traces
//! [`crate::JsonlSink`] writes: each line must be one flat object whose
//! first key is `"event"`, with string, number, boolean and `null`
//! values — a schema check on top of the same grammar.
//!
//! One policy covers every input: malformed input is rejected loudly
//! with a classified [`ParseErrorKind`] — a truncated line, a bad escape
//! or lone surrogate, a duplicated key — never skipped or repaired,
//! because a trace (or ledger, or artifact) that half-parses is worse
//! than one that fails.

use crate::event::{write_json_str, write_owned_json_value, OwnedEvent, OwnedValue, Value};

/// What class of malformation a [`ParseError`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The line ended mid-token: unterminated string, missing `}`,
    /// or a value cut off by end of input.
    Truncated,
    /// A malformed `\` escape: unknown escape character, a short or
    /// non-hex `\u` sequence, or a `\u` code point that is not a valid
    /// character (lone surrogates).
    BadEscape,
    /// Raw bytes that are not valid UTF-8, or a raw control character
    /// inside a string.
    BadUtf8,
    /// A malformed numeric literal.
    BadNumber,
    /// The same key appears more than once in one object.
    DuplicateKey,
    /// A nested object or array value (trace events are flat).
    Nested,
    /// Bytes after the closing `}`.
    TrailingGarbage,
    /// Any other schema violation: wrong first key, missing `:`/`,`,
    /// an unknown literal.
    Schema,
}

/// A parse failure: the byte offset where it happened, its
/// classification and a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the line.
    pub at: usize,
    /// Classified failure mode.
    pub kind: ParseErrorKind,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

/// A parsed JSON value. Scalars use the trace representation: integers
/// read as [`OwnedValue::U64`] or [`OwnedValue::I64`], other numbers as
/// [`OwnedValue::F64`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string, number, boolean or `null`.
    Scalar(OwnedValue),
    /// An array.
    Array(Vec<Json>),
    /// An object, members in source order (keys are unique).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object; `None` for a missing key or a
    /// non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The scalar members of an object as event fields, in order;
    /// array and object members are left out.
    pub fn into_fields(self) -> Vec<(String, OwnedValue)> {
        match self {
            Json::Object(members) => members
                .into_iter()
                .filter_map(|(k, v)| match v {
                    Json::Scalar(v) => Some((k, v)),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// An object with `members` in order.
    pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The document as JSON text ending in a newline, which
    /// [`parse_document`] reads back. An object or array that holds only
    /// scalars takes one line; any other container puts one member per
    /// line, indented two spaces per level. Strings are escaped, floats
    /// take Rust's shortest round-trip form (an integral float reads
    /// back as an integer) and non-finite floats are written as `null`,
    /// as in trace lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Scalar(v) => return write_owned_json_value(out, v),
            Json::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Object(members) => (
                '{',
                '}',
                members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let flat = members.iter().all(|(_, v)| matches!(v, Json::Scalar(_)));
        let indent = |depth: usize| format!("\n{}", "  ".repeat(depth));
        let gap = if flat {
            " ".to_string()
        } else {
            indent(depth + 1)
        };
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if i > 0 || !flat {
                out.push_str(&gap);
            }
            if let Some(key) = key {
                write_json_str(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if !flat {
            out.push_str(&indent(depth));
        }
        out.push(close);
    }
}

/// A scalar from any value a trace field holds.
impl<'a, T: Into<Value<'a>>> From<T> for Json {
    fn from(v: T) -> Self {
        Json::Scalar(OwnedValue::from(v.into()))
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Whether values below the top level may be objects or arrays
    /// (false for trace lines).
    nested: bool,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, kind: ParseErrorKind, message: &str) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.pos,
            kind,
            message: message.to_string(),
        })
    }

    /// Schema error — or [`ParseErrorKind::Truncated`] when the real
    /// problem is that the line simply ended.
    fn schema_err<T>(&self, message: &str) -> Result<T, ParseError> {
        let kind = if self.pos >= self.bytes.len() {
            ParseErrorKind::Truncated
        } else {
            ParseErrorKind::Schema
        };
        self.err(kind, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), ParseError> {
        self.skip_ws();
        match self.bump() {
            Some(b) if b == want => Ok(()),
            Some(_) => {
                self.pos = self.pos.saturating_sub(1);
                self.err(
                    ParseErrorKind::Schema,
                    &format!("expected '{}'", want as char),
                )
            }
            None => self.err(
                ParseErrorKind::Truncated,
                &format!("expected '{}'", want as char),
            ),
        }
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(h) = self.bump().and_then(|b| (b as char).to_digit(16)) else {
                return self.err(ParseErrorKind::BadEscape, "bad \\u escape");
            };
            code = code * 16 + h;
        }
        Ok(code)
    }

    /// The character of a `\u` escape whose `\u` was just read: a
    /// scalar value, or a high surrogate followed by an escaped low
    /// one. A lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return self.err(ParseErrorKind::BadEscape, "bad \\u code point");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        match char::from_u32(code) {
            Some(c) => Ok(c),
            None => self.err(ParseErrorKind::BadEscape, "bad \\u code point"),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.err(ParseErrorKind::Truncated, "unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    None => return self.err(ParseErrorKind::Truncated, "unterminated escape"),
                    _ => return self.err(ParseErrorKind::BadEscape, "bad escape"),
                },
                Some(b) if b < 0x20 => {
                    return self.err(ParseErrorKind::BadUtf8, "raw control char in string")
                }
                Some(b) => {
                    // Re-assemble multi-byte UTF-8 sequences byte-wise.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    if len == 0 || end > self.bytes.len() {
                        return self.err(ParseErrorKind::BadUtf8, "invalid utf-8");
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = end;
                        }
                        Err(_) => return self.err(ParseErrorKind::BadUtf8, "invalid utf-8"),
                    }
                }
            }
        }
    }

    /// One value; `top` marks the document's outermost value, which is
    /// the only one a trace line may open as an object.
    fn value(&mut self, top: bool) -> Result<Json, ParseError> {
        self.skip_ws();
        let scalar = |v| Ok(Json::Scalar(v));
        match self.peek() {
            Some(b'{' | b'[') if !top && !self.nested => self.err(
                ParseErrorKind::Nested,
                "nested values not allowed in trace events",
            ),
            Some(b) if top && !self.nested && b != b'{' => {
                self.err(ParseErrorKind::Schema, "expected '{'")
            }
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => scalar(OwnedValue::Str(self.string()?)),
            Some(b't') => self.literal("true", OwnedValue::Bool(true)),
            Some(b'f') => self.literal("false", OwnedValue::Bool(false)),
            Some(b'n') => self.literal("null", OwnedValue::Null),
            Some(b'-' | b'0'..=b'9') => scalar(self.number()?),
            _ => self.schema_err("expected a value"),
        }
    }

    /// The separator after an element: `true` after a `,`, `false`
    /// after the closing byte.
    fn next_element(&mut self, close: u8) -> Result<bool, ParseError> {
        self.skip_ws();
        let kind = match self.bump() {
            Some(b',') => return Ok(true),
            Some(b) if b == close => return Ok(false),
            Some(_) => {
                self.pos -= 1;
                ParseErrorKind::Schema
            }
            None => ParseErrorKind::Truncated,
        };
        self.err(kind, &format!("expected ',' or '{}'", close as char))
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value(false)?;
            if members.iter().any(|(k, _)| *k == key) {
                return self.err(
                    ParseErrorKind::DuplicateKey,
                    &format!("duplicate key \"{key}\""),
                );
            }
            members.push((key, value));
            if !self.next_element(b'}')? {
                return Ok(Json::Object(members));
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value(false)?);
            if !self.next_element(b']')? {
                return Ok(Json::Array(items));
            }
        }
    }

    fn literal(&mut self, lit: &str, value: OwnedValue) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(Json::Scalar(value))
        } else {
            self.schema_err(&format!("expected '{lit}'"))
        }
    }

    fn number(&mut self) -> Result<OwnedValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(OwnedValue::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(OwnedValue::I64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(OwnedValue::F64(v)),
            _ => {
                self.pos = start;
                self.err(ParseErrorKind::BadNumber, "malformed number")
            }
        }
    }

    /// The whole input as one value, with nothing but whitespace after
    /// it.
    fn document(mut self) -> Result<Json, ParseError> {
        let value = self.value(true)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return self.err(
                ParseErrorKind::TrailingGarbage,
                "trailing garbage after value",
            );
        }
        Ok(value)
    }
}

/// Length of a UTF-8 sequence from its first byte (0 = invalid start).
fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc2..=0xdf => 2,
        0xe0..=0xef => 3,
        0xf0..=0xf4 => 4,
        _ => 0,
    }
}

/// Parse a complete JSON document (any nesting) into a [`Json`] tree.
///
/// # Errors
///
/// Returns a [`ParseError`] for malformed JSON, a duplicated key in any
/// object, a lone surrogate escape or trailing non-whitespace.
pub fn parse_document(text: &str) -> Result<Json, ParseError> {
    Parser {
        bytes: text.as_bytes(),
        pos: 0,
        nested: true,
    }
    .document()
}

/// Parse one JSONL trace line into an [`OwnedEvent`].
///
/// # Errors
///
/// Returns a [`ParseError`] when the line is not a flat JSON object
/// whose first key is `"event"` with a string value, or when a key is
/// duplicated within the object.
pub fn parse_line(line: &str) -> Result<OwnedEvent, ParseError> {
    let doc = Parser {
        bytes: line.as_bytes(),
        pos: 0,
        nested: false,
    }
    .document()?;
    // The flat parser only returns an object whose members are scalars.
    let mut fields = doc.into_fields().into_iter();
    match fields.next() {
        Some((key, OwnedValue::Str(name))) if key == "event" => Ok(OwnedEvent {
            name,
            fields: fields.collect(),
        }),
        _ => Err(ParseError {
            at: 0,
            kind: ParseErrorKind::Schema,
            message: "first key must be \"event\" with a string value".into(),
        }),
    }
}

/// Parse a whole JSONL trace, reporting the first failing line (1-based).
/// Blank lines are tolerated (an interrupted writer leaves one); every
/// non-blank line must parse — malformed lines error, never skip.
///
/// # Errors
///
/// Returns `(line_number, error)` for the first malformed line.
pub fn parse_trace(text: &str) -> Result<Vec<OwnedEvent>, (usize, ParseError)> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_line(line).map_err(|e| (i + 1, e))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{to_jsonl, Event, Value};

    #[test]
    fn round_trips_sink_output() {
        let fields = [
            ("n", Value::U64(42)),
            ("rate", Value::F64(12.5)),
            ("neg", Value::I64(-3)),
            ("ok", Value::Bool(true)),
            ("label", Value::Str("a b\"c\\d")),
            ("bad", Value::F64(f64::NAN)),
        ];
        let line = to_jsonl(&Event::new("snap", &fields));
        let parsed = parse_line(&line).unwrap();
        assert_eq!(parsed.name, "snap");
        assert_eq!(parsed.u64("n"), Some(42));
        assert_eq!(parsed.f64("rate"), Some(12.5));
        assert_eq!(parsed.get("neg"), Some(&OwnedValue::I64(-3)));
        assert_eq!(parsed.get("ok"), Some(&OwnedValue::Bool(true)));
        assert_eq!(parsed.str("label"), Some("a b\"c\\d"));
        assert_eq!(parsed.get("bad"), Some(&OwnedValue::Null));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{}",
            r#"{"event":}"#,
            r#"{"name":"x"}"#,
            r#"{"event":"x","k":{"nested":1}}"#,
            r#"{"event":"x","k":[1]}"#,
            r#"{"event":"x"} extra"#,
            r#"{"event":"x","k":tru}"#,
            r#"{"event":"x","k":1.2.3}"#,
        ] {
            assert!(parse_line(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn truncated_lines_classify_as_truncated() {
        for bad in [
            r#"{"event":"x""#,             // object never closes
            r#"{"event":"x","k":"unterm"#, // string never closes
            r#"{"event":"x","k":"#,        // value cut off
            r#"{"event":"x","k":"a\"#,     // escape cut off
        ] {
            let err = parse_line(bad).unwrap_err();
            assert_eq!(
                err.kind,
                ParseErrorKind::Truncated,
                "{bad}: {err} ({:?})",
                err.kind
            );
        }
    }

    #[test]
    fn bad_escapes_classify_as_bad_escape() {
        for bad in [
            r#"{"event":"x","k":"\q"}"#,     // unknown escape
            r#"{"event":"x","k":"\u12zz"}"#, // non-hex \u
            r#"{"event":"x","k":"\ud800"}"#, // lone surrogate
        ] {
            let err = parse_line(bad).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::BadEscape, "{bad}: {err}");
        }
    }

    #[test]
    fn invalid_utf8_bytes_classify_as_bad_utf8() {
        // `parse_line` takes `&str`, so truly invalid byte sequences
        // cannot reach it; the BadUtf8 class surfaces through the raw
        // control characters JSON forbids inside strings.
        let ctrl = "{\"event\":\"x\",\"k\":\"a\u{1}b\"}";
        let err = parse_line(ctrl).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::BadUtf8, "{err}");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        for bad in [
            r#"{"event":"x","k":1,"k":2}"#,
            r#"{"event":"x","k":1,"j":2,"k":3}"#,
            r#"{"event":"x","event":"y"}"#,
        ] {
            let err = parse_line(bad).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::DuplicateKey, "{bad}: {err}");
        }
        // Distinct keys still parse.
        assert!(parse_line(r#"{"event":"x","k":1,"j":2}"#).is_ok());
    }

    #[test]
    fn kinds_cover_nested_trailing_and_numbers() {
        let nested = parse_line(r#"{"event":"x","k":{"a":1}}"#).unwrap_err();
        assert_eq!(nested.kind, ParseErrorKind::Nested);
        let trailing = parse_line(r#"{"event":"x"} extra"#).unwrap_err();
        assert_eq!(trailing.kind, ParseErrorKind::TrailingGarbage);
        let number = parse_line(r#"{"event":"x","k":1.2.3}"#).unwrap_err();
        assert_eq!(number.kind, ParseErrorKind::BadNumber);
        let schema = parse_line(r#"{"name":"x"}"#).unwrap_err();
        assert_eq!(schema.kind, ParseErrorKind::Schema);
    }

    #[test]
    fn parses_unicode_and_escapes() {
        let parsed = parse_line(r#"{"event":"é","k":"A\nλ"}"#).unwrap();
        assert_eq!(parsed.name, "é");
        assert_eq!(parsed.str("k"), Some("A\nλ"));
    }

    #[test]
    fn parse_trace_reports_line_numbers() {
        let text = "{\"event\":\"a\"}\n\n{\"event\":\"b\",\"n\":1}\nnot json\n";
        let err = parse_trace(text).unwrap_err();
        assert_eq!(err.0, 4);
        let ok = parse_trace("{\"event\":\"a\"}\n{\"event\":\"b\"}\n").unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[1].name, "b");
    }

    #[test]
    fn numbers_parse_to_natural_types() {
        let parsed =
            parse_line(r#"{"event":"n","a":7,"b":-7,"c":7.5,"d":1e3,"e":18446744073709551615}"#)
                .unwrap();
        assert_eq!(parsed.get("a"), Some(&OwnedValue::U64(7)));
        assert_eq!(parsed.get("b"), Some(&OwnedValue::I64(-7)));
        assert_eq!(parsed.get("c"), Some(&OwnedValue::F64(7.5)));
        assert_eq!(parsed.get("d"), Some(&OwnedValue::F64(1000.0)));
        assert_eq!(parsed.get("e"), Some(&OwnedValue::U64(u64::MAX)));
    }

    #[test]
    fn documents_parse_nested_bench_artifact_shape() {
        let doc = "{\n  \"bench\": \"campaign_throughput\",\r\n  \"runs_per_sec_on\": 123.456,\n\t\"overhead\": {\"p50\": 0.01, \"ok\": true},\n  \"thread_sweep\": [\n    {\"threads\": 1, \"identical\": true},\n    {\"threads\": 4, \"identical\": true}\n  ],\n  \"note\": null\n}\n";
        let v = parse_document(doc).unwrap();
        let scalar = |j: Option<&Json>| match j {
            Some(Json::Scalar(v)) => v.clone(),
            other => panic!("not a scalar: {other:?}"),
        };
        assert_eq!(
            scalar(v.get("bench")),
            OwnedValue::Str("campaign_throughput".into())
        );
        assert_eq!(scalar(v.get("runs_per_sec_on")), OwnedValue::F64(123.456));
        let overhead = v.get("overhead").unwrap();
        assert_eq!(scalar(overhead.get("ok")), OwnedValue::Bool(true));
        let Some(Json::Array(sweep)) = v.get("thread_sweep") else {
            panic!("thread_sweep is an array");
        };
        assert_eq!(sweep.len(), 2);
        assert_eq!(scalar(sweep[1].get("threads")), OwnedValue::U64(4));
        assert_eq!(scalar(v.get("note")), OwnedValue::Null);
        // The scalar members alone read as event fields.
        let fields = v.into_fields();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["bench", "runs_per_sec_on", "note"]);
    }

    #[test]
    fn documents_resolve_escapes_and_reject_garbage() {
        let v = parse_document(r#"{"s": "a\nbA\\\b\f😀"}"#).unwrap();
        assert_eq!(
            v.get("s"),
            Some(&Json::Scalar(OwnedValue::Str(
                "a\nbA\\\u{8}\u{c}\u{1F600}".into()
            )))
        );
        assert!(parse_document("{\"a\": 1} extra").is_err());
        assert!(parse_document("{\"a\": }").is_err());
        assert!(parse_document("[1, 2").is_err());
        assert!(parse_document("\"unterminated").is_err());
        assert!(
            parse_document("1e999").is_err(),
            "non-finite numbers rejected"
        );
    }

    #[test]
    fn documents_reject_duplicate_keys_and_lone_surrogates() {
        for bad in [
            r#"{"a": 1, "a": 2}"#,
            r#"[{"k": {"a": 1, "b": 2, "a": 3}}]"#,
        ] {
            let err = parse_document(bad).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::DuplicateKey, "{bad}: {err}");
        }
        for bad in [r#""\ud800""#, r#""\udc00""#, r#""\ud800A""#] {
            let err = parse_document(bad).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::BadEscape, "{bad}: {err}");
        }
    }

    #[test]
    fn document_integers_guard_fractions_and_negatives() {
        let u64_of = |text: &str| match parse_document(text).unwrap() {
            Json::Scalar(v) => v.as_u64(),
            other => panic!("not a scalar: {other:?}"),
        };
        assert_eq!(u64_of("7"), Some(7));
        assert_eq!(u64_of("7.5"), None);
        assert_eq!(u64_of("-7"), None);
    }

    #[test]
    fn rendered_documents_round_trip_through_the_reader() {
        let doc = Json::object([
            ("name", "quote\" backslash\\ bell\u{7} λ😀".into()),
            ("n", 7u64.into()),
            ("neg", (-3i64).into()),
            ("x", 0.1f64.into()),
            ("tiny", 1e-300f64.into()),
            ("ok", true.into()),
            ("none", Json::Array(Vec::new())),
            ("empty", Json::object([])),
            (
                "rows",
                vec![
                    Json::object([("z", 1u64.into()), ("a", 2.5f64.into())]),
                    Json::object([("nested", vec![1u64, 2].into())]),
                ]
                .into(),
            ),
        ]);
        let text = doc.render();
        assert!(text.ends_with("}\n"), "{text}");
        // Members compare in order, so this also pins key order.
        assert_eq!(parse_document(&text).unwrap(), doc, "{text}");
    }

    #[test]
    fn rendered_non_finite_floats_are_null() {
        let doc = Json::object([
            ("nan", f64::NAN.into()),
            ("inf", vec![f64::INFINITY, f64::NEG_INFINITY, 1.5].into()),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"nan\": null,\n  \"inf\": [null, null, 1.5]\n}\n"
        );
        assert_eq!(
            parse_document(&doc.render()).unwrap().get("nan"),
            Some(&Json::Scalar(OwnedValue::Null))
        );
    }

    #[test]
    fn containers_of_scalars_stay_on_one_line() {
        let row = Json::object([("k", "v".into()), ("n", 1u64.into())]);
        let doc = Json::object([
            ("size", vec![640u64, 360].into()),
            ("rows", vec![row.clone(), row].into()),
            ("empty", Json::Array(Vec::new())),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"size\": [640, 360],\n  \"rows\": [\n    {\"k\": \"v\", \"n\": 1},\n    {\"k\": \"v\", \"n\": 1}\n  ],\n  \"empty\": []\n}\n"
        );
        assert_eq!(Json::from(3u64).render(), "3\n");
    }

    #[test]
    fn trace_lines_accept_all_json_whitespace() {
        let parsed = parse_line("{ \"event\" :\t\"x\" ,\r\"k\" : 1 }").unwrap();
        assert_eq!(parsed.name, "x");
        assert_eq!(parsed.u64("k"), Some(1));
        let err = parse_line("[1]").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::Schema, "{err}");
    }
}
