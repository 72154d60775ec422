//! Offline drop-in subset of `serde_json`.
//!
//! Provides exactly the functions this workspace calls — `to_string`,
//! `to_string_pretty`, `from_str` — over the shim `serde::Value` data
//! model. Output matches serde_json's formatting conventions: compact
//! form without spaces, pretty form with two-space indentation, floats
//! rendered with `{:?}` so they round-trip.
//!
//! Strings are read and written in runs: the parser copies everything
//! up to the next `"` or `\` in one piece, and the writer copies
//! everything between two bytes that need an escape in one piece. Both
//! stop only at ASCII bytes, so every run ends on a char boundary of
//! the `&str` it is cut from.

#![forbid(unsafe_code)]

use serde::Value;
use std::fmt::{self, Write as _};

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
    Ok(render(&serde::to_value(value)?, None))
}

/// Serializes a value to pretty JSON (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(render(&serde::to_value(value)?, Some("  ")))
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

/// Writes `value` into a buffer allocated once, at [`rendered_len`].
fn render(value: &Value, indent: Option<&str>) -> String {
    let mut out = String::with_capacity(rendered_len(value, indent, 0));
    write_value(value, &mut out, indent, 0);
    out
}

/// The longest `{:?}` form of a finite `f64`, as in
/// `-1.2345678901234567e-300`.
const MAX_F64_LEN: usize = 24;

/// What [`write_value`] writes for `value`, in bytes, counting each
/// float at [`MAX_F64_LEN`] and each string without its escapes: exact
/// for everything else, so the buffer grows only for a string that
/// needs escaping.
fn rendered_len(value: &Value, indent: Option<&str>, depth: usize) -> usize {
    let newline = |depth: usize| indent.map_or(0, |unit| 1 + unit.len() * depth);
    // A non-empty array or object: the members, the brackets, the commas
    // between members, and a line break before each member and before
    // the closing bracket.
    let container = |members: usize, inner: usize| {
        inner + 2 + (members - 1) + members * newline(depth + 1) + newline(depth)
    };
    match value {
        Value::Null => 4,
        Value::Bool(true) => 4,
        Value::Bool(false) => 5,
        Value::U64(n) => decimal_len(*n),
        Value::I64(n) => decimal_len(n.unsigned_abs()) + usize::from(*n < 0),
        Value::F64(_) => MAX_F64_LEN,
        Value::Str(s) => s.len() + 2,
        Value::Seq(items) if items.is_empty() => 2,
        Value::Seq(items) => container(
            items.len(),
            items.iter().map(|item| rendered_len(item, indent, depth + 1)).sum(),
        ),
        Value::Map(entries) if entries.is_empty() => 2,
        Value::Map(entries) => container(
            entries.len(),
            entries
                .iter()
                .map(|(key, item)| {
                    // The quoted key, the colon and the pretty form's space.
                    key.len()
                        + 3
                        + usize::from(indent.is_some())
                        + rendered_len(item, indent, depth + 1)
                })
                .sum(),
        ),
    }
}

/// Digits of `n` in decimal.
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

fn write_value(value: &Value, out: &mut String, indent: Option<&str>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Writing into a `String` cannot fail.
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(n) => {
            if n.is_finite() {
                let _ = write!(out, "{n:?}");
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

/// The escape of each C0 control character: the short form where JSON
/// has one, `\u00xx` otherwise.
#[rustfmt::skip]
const CONTROL_ESCAPES: [&str; 32] = [
    "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
    "\\b", "\\t", "\\n", "\\u000b", "\\f", "\\r", "\\u000e", "\\u000f",
    "\\u0010", "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
    "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
];

/// Writes `s` quoted: `"`, `\` and the C0 controls escaped, every other
/// character (DEL and multi-byte UTF-8 included) as it is, each run
/// between two escapes copied in one piece.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            0x00..=0x1f => CONTROL_ESCAPES[usize::from(b)],
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        run = i + 1;
    }
    out.push_str(&s[run..]);
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
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser { src, bytes: src.as_bytes(), pos: 0, depth: 0 }
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
            // The run of plain content up to the next `"` or `\`, copied
            // in one piece: it starts on a char boundary (after an ASCII
            // quote or escape) and ends on one.
            let run = self.pos;
            self.pos += self.bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - run);
            out.push_str(&self.src[run..self.pos]);
            let b = *self.bytes.get(self.pos).ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let esc = *self.bytes.get(self.pos).ok_or_else(|| self.err("unterminated escape"))?;
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
                        self.low_surrogate(first)?
                    } else {
                        first
                    };
                    out.push(
                        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?,
                    );
                }
                _ => return Err(self.err("invalid escape sequence")),
            }
        }
    }

    /// The code point of the surrogate pair `high` opens: the next
    /// escape must be a low surrogate (DC00–DFFF). Anything else is an
    /// unpaired surrogate, reported where the low one should start.
    fn low_surrogate(&mut self, high: u32) -> Result<u32, Error> {
        let at = self.pos;
        if self.bytes[at..].starts_with(b"\\u") {
            self.pos += 2;
            let low = self.parse_hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                return Ok(0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00));
            }
            self.pos = at;
        }
        Err(self.err("unpaired surrogate"))
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

    #[test]
    fn every_escape_class_has_its_golden_encoding() {
        let enc = |s: &str| to_string(s).unwrap();
        assert_eq!(enc(""), r#""""#);
        assert_eq!(enc("plain run"), r#""plain run""#);
        assert_eq!(enc("\""), r#""\"""#);
        assert_eq!(enc("\\"), r#""\\""#);
        assert_eq!(enc("\n\r\t\u{8}\u{c}"), r#""\n\r\t\b\f""#);
        // Every other C0 control as `\u00xx`, in lower-case hex.
        for c in (0u8..0x20).filter(|c| !b"\n\r\t\x08\x0c".contains(c)) {
            assert_eq!(enc(&char::from(c).to_string()), format!("\"\\u{c:04x}\""));
        }
        assert_eq!(enc("\u{1b}"), r#""\u001b""#);
        // DEL, `/` and multi-byte UTF-8 as they are.
        assert_eq!(enc("\u{7f}/é中😀\u{2028}"), "\"\u{7f}/é中😀\u{2028}\"");
        // Escapes next to runs, at both ends and back to back.
        assert_eq!(enc("\"ab\\\n\u{1}cd\""), r#""\"ab\\\n\u0001cd\"""#);
        assert_eq!(enc("é\"中"), "\"é\\\"中\"");
        // Map keys take the same escapes; non-finite floats are null.
        let mut m = BTreeMap::new();
        m.insert("k\"\n".to_string(), f64::NAN);
        assert_eq!(to_string(&m).unwrap(), r#"{"k\"\n":null}"#);
    }

    #[test]
    fn rendered_len_is_exact_without_floats_or_escapes() {
        let doc = Value::Map(vec![
            ("ok".into(), Value::Bool(true)),
            ("epoch".into(), Value::U64(1_000)),
            ("delta".into(), Value::I64(-42)),
            ("roles".into(), Value::Seq(vec![Value::Str("contract".into()), Value::Null])),
            ("empty".into(), Value::Seq(Vec::new())),
            ("nested".into(), Value::Map(vec![("a".into(), Value::Map(Vec::new()))])),
            ("no".into(), Value::Bool(false)),
            ("zero".into(), Value::U64(0)),
            ("max".into(), Value::U64(u64::MAX)),
            ("min".into(), Value::I64(i64::MIN)),
        ]);
        for indent in [None, Some("  ")] {
            assert_eq!(render(&doc, indent).len(), rendered_len(&doc, indent, 0));
        }
        for n in [0.0, -1.2345678901234567e-300, f64::MIN, 1e-5, -1.2345678901234567e-4] {
            assert!(render(&Value::F64(n), None).len() <= MAX_F64_LEN);
        }
    }

    /// A xorshift64 stream: a deterministic corpus with no dev-dependency.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Pieces the corpus strings are made of: plain runs, every escape
    /// class, and characters of every UTF-8 length.
    #[rustfmt::skip]
    const PIECES: [&str; 22] = [
        "a", "Z", " ", "0x5a3f", "\"", "\\", "/", "\n", "\r", "\t", "\u{8}", "\u{c}", "\u{0}",
        "\u{1b}", "\u{1f}", "\u{7f}", "é", "中", "😀", "\u{ffff}", "\u{2028}", "plain run",
    ];

    fn corpus_string(rng: &mut XorShift) -> String {
        (0..rng.below(12)).map(|_| PIECES[rng.below(PIECES.len())]).collect()
    }

    fn corpus_value(rng: &mut XorShift, depth: usize) -> Value {
        match rng.below(if depth < 4 { 8 } else { 6 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 0),
            2 => Value::U64([0, 7, 1 << 40, u64::MAX][rng.below(4)]),
            // Only negative integers parse back as `I64`.
            3 => Value::I64(-(rng.below(1 << 40) as i64) - 1),
            4 => Value::F64([0.5, -1e-300, 1.0 / 3.0, 1e16, -0.0][rng.below(5)]),
            5 => Value::Str(corpus_string(rng)),
            6 => Value::Seq((0..rng.below(5)).map(|_| corpus_value(rng, depth + 1)).collect()),
            _ => Value::Map(
                (0..rng.below(5))
                    .map(|_| (corpus_string(rng), corpus_value(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn strings_and_documents_round_trip() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for _ in 0..2_000 {
            let s = corpus_string(&mut rng);
            assert_eq!(from_str::<String>(&to_string(&s).unwrap()).unwrap(), s);
            let doc = corpus_value(&mut rng, 0);
            for indent in [None, Some("  ")] {
                let text = render(&doc, indent);
                assert_eq!(Parser::new(&text).parse_document().unwrap(), doc, "{text}");
                // Only an escape (each starts with a backslash) outgrows the size.
                assert!(text.contains('\\') || text.len() <= rendered_len(&doc, indent, 0));
            }
        }
    }

    #[test]
    fn parse_errors_name_the_byte() {
        let err = |s: &str| from_str::<String>(s).unwrap_err().to_string();
        assert_eq!(err(r#""abc"#), "unterminated string at byte 4");
        assert_eq!(err(r#""a\x""#), "invalid escape sequence at byte 4");
        assert_eq!(err(r#""a\"#), "unterminated escape at byte 3");
        assert_eq!(err(r#""\u12""#), "truncated \\u escape at byte 3");
        assert_eq!(err(r#""\u12g4""#), "invalid \\u escape at byte 3");
        assert_eq!(err(r#""\ude00""#), "invalid unicode escape at byte 7");
        assert_eq!(err(r#""\ud83d""#), "unpaired surrogate at byte 7");
        assert_eq!(err(r#""\ud83dx""#), "unpaired surrogate at byte 7");
        assert_eq!(err(r#"["a" "b"]"#), "expected `,` or `]` in array at byte 5");
    }

    #[test]
    fn a_high_surrogate_takes_only_a_low_one() {
        let err = |s: &str| from_str::<String>(s).unwrap_err().to_string();
        // A second high surrogate, or any escape outside DC00–DFFF, is
        // refused where the low surrogate should start.
        assert_eq!(err(r#""\ud83d\ud83d""#), "unpaired surrogate at byte 7");
        assert_eq!(err(r#""\ud83d\u0041""#), "unpaired surrogate at byte 7");
        assert_eq!(err(r#""ab\udbff\ue000""#), "unpaired surrogate at byte 9");
        // A truncated second escape keeps its own error.
        assert_eq!(err(r#""\ud83d\u12""#), "truncated \\u escape at byte 9");
        assert_eq!(from_str::<String>(r#""\ud83d\ude00""#).unwrap(), "😀");
        assert_eq!(
            from_str::<String>(r#""\ud800\udc00\udbff\udfff""#).unwrap(),
            "\u{10000}\u{10ffff}"
        );
    }
}
