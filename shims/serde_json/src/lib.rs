//! Offline drop-in subset of `serde_json`.
//!
//! Provides exactly the functions this workspace calls — `to_string`,
//! `to_string_pretty`, `from_str` — over the shim `serde::Value` data
//! model. Output matches serde_json's formatting conventions: compact
//! form without spaces, pretty form with two-space indentation, floats
//! rendered with `{:?}` so they round-trip.

#![forbid(unsafe_code)]

use serde::Value;
use std::fmt;

/// Error produced by serialization or parsing.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

/// Serializes a value to compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let v = serde::to_value(value)?;
    let mut out = String::new();
    write_value(&v, &mut out, None, 0);
    Ok(out)
}

/// Serializes a value to pretty JSON (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let v = serde::to_value(value)?;
    let mut out = String::new();
    write_value(&v, &mut out, Some("  "), 0);
    Ok(out)
}

/// Parses JSON text into a typed value.
pub fn from_str<T>(s: &str) -> Result<T, Error>
where
    T: for<'de> serde::Deserialize<'de>,
{
    let value = Parser::new(s).parse_document()?;
    serde::from_value(value).map_err(Error::from)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn write_value(value: &Value, out: &mut String, indent: Option<&str>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(n) => {
            if n.is_finite() {
                out.push_str(&format!("{n:?}"));
            } else {
                // serde_json emits null for non-finite floats.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(unit) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(unit);
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// The deepest nesting of arrays and objects the parser accepts, as in
/// serde_json. The parser recurses once per level, so the cap bounds its
/// stack use whatever the input.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { bytes: s.as_bytes(), pos: 0, depth: 0 }
    }

    fn parse_document(mut self) -> Result<Value, Error> {
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| self.err("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal, expected `{word}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.eat_keyword("null", Value::Null),
            b't' => self.eat_keyword("true", Value::Bool(true)),
            b'f' => self.eat_keyword("false", Value::Bool(false)),
            b'"' => self.parse_string().map(Value::Str),
            b'[' => self.nested(Self::parse_array),
            b'{' => self.nested(Self::parse_object),
            b'-' | b'0'..=b'9' => self.parse_number(),
            other => Err(self.err(&format!("unexpected character `{}`", other as char))),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting exceeds the limit of {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            if self.peek()? != b'"' {
                return Err(self.err("expected string key in object"));
            }
            let key = self.parse_string()?;
            self.expect(b':')?;
            entries.push((key, self.parse_value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        // Caller guarantees the opening quote is next (after ws).
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let first = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair.
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let second = self.parse_hex4()?;
                                    0x10000
                                        + ((first - 0xD800) << 10)
                                        + (second.wrapping_sub(0xDC00) & 0x3FF)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                }
                _ => {
                    // Re-decode UTF-8 starting at the byte we just consumed.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits and number punctuation are ASCII");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err(&format!("invalid number `{text}`")))
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(to_string(&1u64).unwrap(), "1");
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string("hi").unwrap(), "\"hi\"");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("4000000.0").unwrap(), 4_000_000.0);
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<Vec<u64>> = vec![vec![1, 2], vec![], vec![3]];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[[1,2],[],[3]]");
        assert_eq!(from_str::<Vec<Vec<u64>>>(&s).unwrap(), v);

        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u32);
        m.insert("b".to_string(), 2u32);
        assert_eq!(to_string(&m).unwrap(), "{\"a\":1,\"b\":2}");
        assert_eq!(from_str::<BTreeMap<String, u32>>("{\"b\":2,\"a\":1}").unwrap(), m);
    }

    #[test]
    fn pretty_format_matches_serde_json_shape() {
        let v: Vec<u64> = vec![1, 2];
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1,\n  2\n]");
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), vec![1u8]);
        assert_eq!(to_string_pretty(&m).unwrap(), "{\n  \"k\": [\n    1\n  ]\n}");
    }

    #[test]
    fn parses_whitespace_escapes_and_unicode() {
        let v = from_str::<Vec<String>>(" [ \"\\u0041\", \"\\ud83d\\ude00\" ] ").unwrap();
        assert_eq!(v, vec!["A".to_string(), "😀".to_string()]);
        assert!(from_str::<u64>("1 2").is_err());
        assert!(from_str::<u64>("").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let parse = |s: &str| Parser::new(s).parse_document();
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.to_string(), "nesting exceeds the limit of 128 levels at byte 128");
        // Objects count too, and an unterminated line fails the same way.
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(parse(&objects).unwrap_err().to_string().contains("limit of 128"));
        assert!(parse(&"[".repeat(10_000)).unwrap_err().to_string().contains("limit of 128"));
        assert_eq!(from_str::<Vec<Vec<u64>>>("[[1],[2,3]]").unwrap(), vec![vec![1], vec![2, 3]]);
    }

    #[test]
    fn negative_integers_parse_as_i64() {
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert_eq!(from_str::<i32>("-2147483648").unwrap(), i32::MIN);
    }
}
