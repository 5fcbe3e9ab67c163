//! Minimal JSON support for the structured renderers.
//!
//! The build container has no network access, so `serde`/`serde_json`
//! cannot be vendored. This module provides the two halves the
//! workspace needs instead:
//!
//! - [`escape_into`] / [`escaped`] — RFC 8259 string escaping, used by
//!   the JSONL and SARIF renderers in [`crate::render`];
//! - [`Json`] / [`Json::parse`] — a small recursive-descent JSON reader,
//!   used by the format-parity tests and the differential fuzzer's
//!   round-trip oracle to read the renderers' output back.
//!
//! The parser accepts exactly the JSON grammar (objects, arrays,
//! strings with escapes, numbers, booleans, null) and rejects trailing
//! garbage. It keeps numbers as `f64`, which is lossless for every
//! line/column/code the renderers emit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Append `s` to `out` with JSON string escaping (no surrounding
/// quotes).
///
/// # Examples
///
/// ```
/// let mut out = String::new();
/// cundef_ub::json::escape_into(&mut out, "a \"b\"\n");
/// assert_eq!(out, r#"a \"b\"\n"#);
/// ```
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// `s` as a quoted, escaped JSON string literal.
///
/// # Examples
///
/// ```
/// assert_eq!(cundef_ub::json::escaped("x\ty"), "\"x\\ty\"");
/// ```
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// A parsed JSON value.
///
/// Object keys are kept in a [`BTreeMap`], so re-rendering (or
/// comparing) parsed values is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers included).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse one complete JSON document; `None` on any syntax error or
    /// trailing garbage.
    ///
    /// # Examples
    ///
    /// ```
    /// use cundef_ub::json::Json;
    ///
    /// let v = Json::parse(r#"{"line": 3, "ok": true}"#).unwrap();
    /// assert_eq!(v.get("line").and_then(Json::as_u32), Some(3));
    /// assert_eq!(Json::parse("{oops"), None);
    /// ```
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Member `key` of an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `u32`, if it is one exactly.
    pub fn as_u32(&self) -> Option<u32> {
        let n = self.as_f64()?;
        (n >= 0.0 && n <= u32::MAX as f64 && n.fract() == 0.0).then_some(n as u32)
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, lit: &str) -> Option<()> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(())
    } else {
        None
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'n' => eat(b, pos, "null").map(|()| Json::Null),
        b't' => eat(b, pos, "true").map(|()| Json::Bool(true)),
        b'f' => eat(b, pos, "false").map(|()| Json::Bool(false)),
        b'"' => parse_string(b, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Json::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return None;
                }
                *pos += 1;
                map.insert(key, parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Json::Obj(map));
                    }
                    _ => return None,
                }
            }
        }
        _ => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if b.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        // Surrogate pairs are outside what the renderers
                        // ever emit; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Copy the whole run up to the next delimiter at once.
                // Both delimiters are ASCII, so the run ends on a char
                // boundary and validating it costs only its own length.
                let end = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |n| *pos + n);
                out.push_str(std::str::from_utf8(&b[*pos..end]).ok()?);
                *pos = end;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(Json::Num)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_round_trip_through_the_parser() {
        let nasty = "a \"quoted\" line\nwith\ttabs, \\slashes\\ and \u{1} control";
        let doc = format!("{{\"s\": {}}}", escaped(nasty));
        let parsed = Json::parse(&doc).expect("parses");
        assert_eq!(parsed.get("s").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn large_strings_round_trip() {
        // ~256 KiB of multibyte text interleaved with every escape the
        // parser accepts; parsing must stay linear in the input.
        let chunk = "ascii, ünïcödé, 漢字, 🦀 \" \\ / \u{8} \u{c} \n \r \t \u{1} ";
        let big = chunk.repeat(256 * 1024 / chunk.len());
        let doc = format!("{{\"s\": {}}}", escaped(&big));
        let parsed = Json::parse(&doc).expect("parses");
        assert_eq!(parsed.get("s").and_then(Json::as_str), Some(big.as_str()));
        let hand = Json::parse(r#"["\/\b\f\u00e9\u6f22"]"#).expect("parses");
        assert_eq!(
            hand.as_arr().unwrap()[0],
            Json::Str("/\u{8}\u{c}é漢".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}, true], "c": -2.5}"#).unwrap();
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b"), Some(&Json::Null));
        assert_eq!(v.get("c").and_then(Json::as_f64), Some(-2.5));
    }

    #[test]
    fn rejects_trailing_garbage_and_syntax_errors() {
        assert_eq!(Json::parse("{} extra"), None);
        assert_eq!(Json::parse("{\"a\":}"), None);
        assert_eq!(Json::parse("[1,]"), None);
        assert_eq!(Json::parse("\"unterminated"), None);
    }

    #[test]
    fn numbers_keep_integer_precision_for_u32() {
        let v = Json::parse("[0, 16, 4294967295]").unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[1].as_u32(), Some(16));
        assert_eq!(a[2].as_u32(), Some(u32::MAX));
        assert_eq!(Json::parse("1.5").unwrap().as_u32(), None);
    }

    #[test]
    fn unicode_text_survives() {
        let v = Json::parse("\"héllo — §6.5:2\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo — §6.5:2"));
    }
}
