//! A minimal hand-rolled JSON value: writer *and* parser, no external
//! dependencies.
//!
//! The repro crate's summary layer writes JSON with plain `format!` calls
//! — fine for one-way output, but learner checkpoints (PR 4) must be read
//! back bit-exactly. [`JsonValue`] closes the loop:
//!
//! * Numbers are stored as their **raw decimal text**, so a `u64` RNG
//!   state round-trips exactly (never through an `f64`, which would lose
//!   low bits past 2^53), and finite `f64`s use Rust's shortest
//!   round-trip formatting (`format!("{v}")` re-parses to the identical
//!   bits).
//! * The parser is a strict recursive-descent over the JSON grammar with
//!   position-annotated errors, so a truncated or corrupted checkpoint is
//!   *rejected* — the caller falls back to a cold start instead of
//!   resuming from garbage.
//!
//! Checkpoints are *written* without a tree: [`JsonWriter`] streams the
//! same bytes a [`JsonValue`] would print straight into a caller's
//! `String`, so a fleet node re-serializes its learner into one reused
//! buffer with no per-number allocation.

use std::fmt::{self, Write as _};

/// One JSON value. Numbers keep their source text (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number as raw decimal text (validated on parse, exact on write).
    Num(String),
    /// A string (unescaped content).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object as ordered `(key, value)` pairs — insertion order is
    /// preserved so writes are deterministic.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// A finite `f64` as a shortest-round-trip number; non-finite values
    /// (which JSON cannot represent) become `null`.
    pub fn f64(v: f64) -> JsonValue {
        if v.is_finite() {
            JsonValue::Num(format!("{v}"))
        } else {
            JsonValue::Null
        }
    }

    /// A `u64` as an exact decimal number.
    pub fn u64(v: u64) -> JsonValue {
        JsonValue::Num(v.to_string())
    }

    /// A `usize` as an exact decimal number.
    pub fn usize(v: usize) -> JsonValue {
        JsonValue::Num(v.to_string())
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> JsonValue {
        JsonValue::Str(v.into())
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(s) => s.parse::<f64>().ok().filter(|v| v.is_finite()),
            _ => None,
        }
    }

    /// The value as a `u64`, exact (rejects signs, fractions, exponents).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(s) => s.parse::<u64>().ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, exact.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(s) => s.parse::<i64>().ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, exact.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Num(s) => s.parse::<usize>().ok(),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(vs) => Some(vs),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Parses a JSON document. Strict: exactly one value, fully consumed;
    /// errors carry the byte offset of the problem.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(s) => f.write_str(s),
            JsonValue::Str(s) => write_escaped(f, s),
            JsonValue::Arr(vs) => {
                f.write_str("[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Streams JSON text into a `String`, byte for byte what printing the
/// equivalent [`JsonValue`] produces: the same number text (shortest
/// round-trip `f64`s, `null` for non-finite ones, exact integers), the
/// same string escapes, no whitespace.
///
/// Containers take a closure for their contents, so every `{` and `[`
/// is closed; commas between siblings are inserted automatically.
///
/// ```
/// use greengpu_sim::{JsonValue, JsonWriter};
///
/// let mut out = String::new();
/// JsonWriter::new(&mut out).obj(|w| {
///     w.key("weights").f64s(&[1.0, 0.5]);
///     w.key("current").null();
/// });
/// assert_eq!(out, r#"{"weights":[1,0.5],"current":null}"#);
/// assert_eq!(JsonValue::parse(&out).unwrap().to_string(), out);
/// ```
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// Whether the next key or value follows a sibling (needs a comma).
    comma: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending one JSON value to `out`.
    pub fn new(out: &'a mut String) -> Self {
        JsonWriter { out, comma: false }
    }

    /// The text `write` streams, as a fresh `String`.
    pub fn render(write: impl FnOnce(&mut JsonWriter<'_>)) -> String {
        let mut out = String::new();
        write(&mut JsonWriter::new(&mut out));
        out
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
    }

    /// Appends a scalar's text (writing into a `String` cannot fail).
    fn scalar(&mut self, v: impl fmt::Display) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{v}");
        self.comma = true;
        self
    }

    /// An object; `body` writes its `key(..)`/value pairs.
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('{', '}', body)
    }

    /// An array; `body` writes its elements.
    pub fn arr(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('[', ']', body)
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.separate();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
        self
    }

    /// An object key; the next value written is its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.separate();
        let _ = write_escaped(self.out, k);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.scalar("null")
    }

    /// A finite `f64` as its shortest round-trip text; `null` otherwise
    /// (as [`JsonValue::f64`]).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            self.scalar(v)
        } else {
            self.null()
        }
    }

    /// A `u64`, exact.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.scalar(v)
    }

    /// An `i64`, exact.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.scalar(v)
    }

    /// A `usize`, exact.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.scalar(v)
    }

    /// A string, escaped.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.separate();
        let _ = write_escaped(self.out, v);
        self.comma = true;
        self
    }

    /// An array of `f64`s (each as [`JsonWriter::f64`]).
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.arr(|w| {
            for &v in vs {
                w.f64(v);
            }
        })
    }

    /// An array of `u64`s.
    pub fn u64s(&mut self, vs: &[u64]) -> &mut Self {
        self.arr(|w| {
            for &v in vs {
                w.u64(v);
            }
        })
    }
}

fn write_escaped(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected {:?} at byte {}", b as char, self.pos)),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        // Validate with Rust's float parser (integers also pass); keep
        // the raw text so integer values stay exact.
        text.parse::<f64>()
            .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
        Ok(JsonValue::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(format!("unterminated string at byte {}", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4()?;
                            let c =
                                char::from_u32(code).ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(c);
                            self.pos -= 1; // hex4 leaves pos past the digits
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8 by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).expect("valid utf8");
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        // Called with pos on the 'u'; reads the four digits after it.
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err(format!("truncated \\u escape at byte {}", self.pos));
        }
        let digits =
            std::str::from_utf8(&self.bytes[start..end]).map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        let code = u32::from_str_radix(digits, 16).map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(code)
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut vs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(vs));
        }
        loop {
            self.skip_ws();
            vs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(vs));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_exactly() {
        for v in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 60, 0x9E37_79B9_7F4A_7C15] {
            let j = JsonValue::u64(v);
            let text = j.to_string();
            let back = JsonValue::parse(&text).unwrap();
            assert_eq!(back.as_u64(), Some(v), "{text}");
        }
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for v in [
            0.0,
            1.0,
            -1.5,
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -2.2250738585072014e-308,
        ] {
            let text = JsonValue::f64(v).to_string();
            let back = JsonValue::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert!(JsonValue::f64(f64::NAN).is_null());
        assert!(JsonValue::f64(f64::INFINITY).is_null());
        assert_eq!(JsonValue::f64(f64::NAN).as_f64(), None);
    }

    #[test]
    fn objects_and_arrays_round_trip() {
        let v = JsonValue::Obj(vec![
            ("name".to_string(), JsonValue::str("exp3")),
            (
                "weights".to_string(),
                JsonValue::Arr(vec![JsonValue::f64(1.0), JsonValue::f64(0.5), JsonValue::f64(0.25)]),
            ),
            ("current".to_string(), JsonValue::Null),
            ("ok".to_string(), JsonValue::Bool(true)),
            (
                "nested".to_string(),
                JsonValue::Obj(vec![("t".to_string(), JsonValue::u64(7))]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("exp3"));
        assert_eq!(
            v.get("nested").and_then(|n| n.get("t")).and_then(JsonValue::as_u64),
            Some(7)
        );
        assert_eq!(
            v.get("weights").and_then(JsonValue::as_arr).map(<[JsonValue]>::len),
            Some(3)
        );
    }

    #[test]
    fn writer_streams_what_the_tree_prints() {
        let tree = JsonValue::Obj(vec![
            ("n\"a\tme".to_string(), JsonValue::str("ctx-exp3 — π\u{1}")),
            (
                "xs".to_string(),
                JsonValue::Arr(vec![
                    JsonValue::f64(0.1),
                    JsonValue::f64(-2.5e-300),
                    JsonValue::f64(f64::NAN),
                    JsonValue::f64(1e21),
                ]),
            ),
            ("empty".to_string(), JsonValue::Arr(vec![])),
            (
                "nested".to_string(),
                JsonValue::Arr(vec![
                    JsonValue::Obj(vec![]),
                    JsonValue::Obj(vec![("k".to_string(), JsonValue::Num("-3".to_string()))]),
                ]),
            ),
            ("u".to_string(), JsonValue::u64(u64::MAX)),
            ("z".to_string(), JsonValue::usize(0)),
            ("none".to_string(), JsonValue::Null),
        ]);
        let mut out = String::from("kept:");
        JsonWriter::new(&mut out).obj(|w| {
            w.key("n\"a\tme").str("ctx-exp3 — π\u{1}");
            w.key("xs").f64s(&[0.1, -2.5e-300, f64::NAN, 1e21]);
            w.key("empty").u64s(&[]);
            w.key("nested").arr(|w| {
                w.obj(|_| {});
                w.obj(|w| {
                    w.key("k").i64(-3);
                });
            });
            w.key("u").u64(u64::MAX);
            w.key("z").usize(0);
            w.key("none").null();
        });
        assert_eq!(out, format!("kept:{tree}"), "the writer appends after existing text");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}f — π";
        let text = JsonValue::str(s).to_string();
        assert_eq!(JsonValue::parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(JsonValue::parse(r#""π""#).unwrap().as_str(), Some("π"));
    }

    #[test]
    fn truncated_and_corrupted_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "{\"a\":",
            "{\"a\":1",
            "[1,2",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
            "1.2.3",
            "{} trailing",
            "{\"a\":1}}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn typed_accessors_reject_mismatches() {
        let v = JsonValue::parse("{\"k\":-3,\"f\":1.5}").unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_i64), Some(-3));
        assert_eq!(v.get("k").and_then(JsonValue::as_u64), None, "negative is not u64");
        assert_eq!(v.get("f").and_then(JsonValue::as_u64), None, "fraction is not u64");
        assert_eq!(v.get("f").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(v.get("missing"), None);
    }
}
