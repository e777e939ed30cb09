//! Hand-rolled JSON writer and minimal parser (no serde, per the
//! workspace dependency policy).
//!
//! The writer is a small streaming builder with correct string
//! escaping; the parser is a recursive-descent reader used by tests
//! and tooling to validate snapshots round-trip.

/// Streaming JSON builder. Commas are inserted automatically.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    // One entry per open container: `true` once a value has been
    // written (so the next value needs a comma).
    stack: Vec<bool>,
}

impl JsonWriter {
    /// Fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn pre_value(&mut self) {
        if let Some(used) = self.stack.last_mut() {
            if *used {
                self.buf.push(',');
            }
            *used = true;
        }
    }

    /// Open an object (as a value).
    pub fn begin_obj(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('{');
        self.stack.push(false);
        self
    }

    /// Close the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.stack.pop();
        self.buf.push('}');
        self
    }

    /// Open an array (as a value).
    pub fn begin_arr(&mut self) -> &mut Self {
        self.pre_value();
        self.buf.push('[');
        self.stack.push(false);
        self
    }

    /// Close the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.stack.pop();
        self.buf.push(']');
        self
    }

    /// Write an object key (caller then writes exactly one value).
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.pre_value();
        write_escaped(&mut self.buf, k);
        self.buf.push(':');
        // The key consumed the comma slot; the following value's
        // pre_value() must not insert another comma.
        if let Some(used) = self.stack.last_mut() {
            *used = false;
        }
        self
    }

    /// String value.
    pub fn str_val(&mut self, v: &str) -> &mut Self {
        self.pre_value();
        write_escaped(&mut self.buf, v);
        self
    }

    /// Unsigned integer value.
    pub fn u64_val(&mut self, v: u64) -> &mut Self {
        self.pre_value();
        use std::fmt::Write;
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Signed integer value.
    pub fn i64_val(&mut self, v: i64) -> &mut Self {
        self.pre_value();
        use std::fmt::Write;
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Float value; non-finite values become `null` (JSON has no NaN).
    pub fn f64_val(&mut self, v: f64) -> &mut Self {
        self.pre_value();
        use std::fmt::Write;
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Boolean value.
    pub fn bool_val(&mut self, v: bool) -> &mut Self {
        self.pre_value();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// `key: "string"` shorthand.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).str_val(v)
    }

    /// `key: uint` shorthand.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k).u64_val(v)
    }

    /// `key: float` shorthand.
    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k).f64_val(v)
    }

    /// `key: bool` shorthand.
    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k).bool_val(v)
    }

    /// Finish and return the JSON text.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        self.buf
    }
}

/// Append `s` as a JSON string literal (with quotes) to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Escape a string, returning the quoted literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s);
    out
}

/// A parsed JSON value (used by tests/CI to validate snapshots).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer value (exact), if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a JSON document. Returns an error message with byte offset on
/// malformed input.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth would let a hostile document
/// overflow the stack; committed snapshots nest fewer than 10 levels.
const MAX_DEPTH: usize = 512;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    JsonValue::Str(s) => s,
                    _ => return Err(format!("object key must be a string at byte {pos}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos, depth + 1)?;
                members.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(JsonValue::Str),
        Some(b't') => expect_lit(b, pos, "true").map(|_| JsonValue::Bool(true)),
        Some(b'f') => expect_lit(b, pos, "false").map(|_| JsonValue::Bool(false)),
        Some(b'n') => expect_lit(b, pos, "null").map(|_| JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid utf-8")?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid utf-8")?;
    s.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("bad number `{s}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslash\\",
            "newline\nand\ttab",
            "control\u{1}char",
            "unicode: héllo → 世界",
            "",
        ] {
            let lit = escape(s);
            let back = parse(&lit).unwrap();
            assert_eq!(back.as_str(), Some(s), "round trip of {s:?} via {lit}");
        }
    }

    #[test]
    fn escape_exact_forms() {
        assert_eq!(escape("a\"b"), r#""a\"b""#);
        assert_eq!(escape("a\\b"), r#""a\\b""#);
        assert_eq!(escape("a\nb"), r#""a\nb""#);
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn writer_builds_valid_documents() {
        let mut w = JsonWriter::new();
        w.begin_obj()
            .field_str("name", "smoke")
            .field_u64("cycles", 12345)
            .field_f64("ipc", 1.5)
            .field_bool("ok", true)
            .key("hist");
        w.begin_arr();
        for i in 0..3u64 {
            w.begin_arr().u64_val(i).u64_val(i * 2).end_arr();
        }
        w.end_arr();
        w.key("nothing").f64_val(f64::NAN);
        w.end_obj();
        let text = w.finish();
        let v = parse(&text).expect("writer output parses");
        assert_eq!(v.get("name").unwrap().as_str(), Some("smoke"));
        assert_eq!(v.get("cycles").unwrap().as_u64(), Some(12345));
        assert_eq!(v.get("ipc").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("nothing"), Some(&JsonValue::Null));
        let hist = v.get("hist").unwrap().as_arr().unwrap();
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[2].as_arr().unwrap()[1].as_u64(), Some(4));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("truth").is_err());
    }

    #[test]
    fn parser_accepts_nested() {
        let v = parse(r#" { "a": [1, 2.5, {"b": null}], "c": "d" } "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].get("b"),
            Some(&JsonValue::Null)
        );
        assert_eq!(v.get("c").unwrap().as_str(), Some("d"));
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)),
            Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"
            ))
        );
        // Far past the limit: an error, not a stack overflow.
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("at byte 512"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().starts_with("nesting deeper"));
    }
}
