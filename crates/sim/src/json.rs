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
//! Checkpoints are *written* without a tree: [`JsonWriter`] records
//! tokens into a [`JsonTape`], which prints the same bytes a [`JsonValue`]
//! would. A fleet node re-records its learner into one reused tape every
//! checkpoint period, with no allocation and no number formatting, and
//! prints it only when a restart reads it.

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

/// A recorded JSON document: the tokens a [`JsonWriter`] wrote, kept in
/// one byte buffer and printed to text only when the text is needed.
///
/// Each token is a tag byte. Numbers follow as their raw 8 little-endian
/// bytes (an `f64` as its bits, so even a non-finite one records, and
/// prints as `null`); keys and strings follow as a LEB128 byte length
/// and their unescaped UTF-8. The printer adds quotes, escapes, colons
/// and commas. Each number takes nine bytes however it prints, so a
/// recording's size depends only on its shape and its strings, never on
/// its numbers' values.
///
/// ```
/// use greengpu_sim::{JsonTape, JsonValue};
///
/// let mut tape = JsonTape::new();
/// tape.record(|w| {
///     w.obj(|w| {
///         w.key("weights").f64s(&[1.0, 0.5]);
///         w.key("current").null();
///     });
/// });
/// let text = tape.print();
/// assert_eq!(text, r#"{"weights":[1,0.5],"current":null}"#);
/// assert_eq!(JsonValue::parse(&text).unwrap().to_string(), text);
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonTape {
    bytes: Vec<u8>,
}

/// Token tags. The container tags are the brackets they print as.
const OBJ_OPEN: u8 = b'{';
const OBJ_CLOSE: u8 = b'}';
const ARR_OPEN: u8 = b'[';
const ARR_CLOSE: u8 = b']';
const KEY: u8 = b':';
const STR: u8 = b'"';
const NULL: u8 = b'n';
const F64: u8 = b'f';
const U64: u8 = b'u';
const I64: u8 = b'i';

impl JsonTape {
    /// An empty tape.
    pub fn new() -> Self {
        JsonTape::default()
    }

    /// Replaces the recording with the one value `write` writes, then
    /// fits the buffer to it. A re-record of the same size reuses the
    /// buffer without allocating.
    pub fn record(&mut self, write: impl FnOnce(&mut JsonWriter<'_>)) {
        self.bytes.clear();
        write(&mut JsonWriter::new(self));
        self.bytes.shrink_to_fit();
    }

    /// Bytes the recording holds (not the length of its text).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The recording as JSON text: byte for byte what printing the
    /// equivalent [`JsonValue`] produces (shortest round-trip `f64`s,
    /// `null` for non-finite ones, exact integers, the same string
    /// escapes, no whitespace).
    pub fn print(&self) -> String {
        let mut out = String::with_capacity(2 * self.bytes.len());
        let tokens = Tokens { bytes: &self.bytes };
        // Whether the next key or value follows a sibling (needs a comma).
        let mut comma = false;
        for token in tokens {
            if comma && !matches!(token, Token::Close(_)) {
                out.push(',');
            }
            comma = !matches!(token, Token::Open(_) | Token::Key(_));
            // Writing into a `String` cannot fail.
            let _ = match token {
                Token::Open(c) | Token::Close(c) => out.write_char(c),
                Token::Key(k) => write_escaped(&mut out, k).and_then(|()| out.write_char(':')),
                Token::Str(s) => write_escaped(&mut out, s),
                Token::F64(v) if v.is_finite() => write!(out, "{v}"),
                Token::Null | Token::F64(_) => out.write_str("null"),
                Token::U64(v) => write!(out, "{v}"),
                Token::I64(v) => write!(out, "{v}"),
            };
        }
        out
    }
}

/// One decoded tape token.
#[derive(Clone, Copy)]
enum Token<'a> {
    Open(char),
    Close(char),
    Key(&'a str),
    Str(&'a str),
    Null,
    F64(f64),
    U64(u64),
    I64(i64),
}

/// Decodes a tape front to back. Only [`JsonWriter`] fills a tape, so
/// every token is whole; a malformed one would end the stream rather
/// than panic.
struct Tokens<'a> {
    bytes: &'a [u8],
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        let (&tag, rest) = self.bytes.split_first()?;
        self.bytes = rest;
        Some(match tag {
            OBJ_OPEN | ARR_OPEN => Token::Open(char::from(tag)),
            OBJ_CLOSE | ARR_CLOSE => Token::Close(char::from(tag)),
            KEY => Token::Key(self.text()?),
            STR => Token::Str(self.text()?),
            NULL => Token::Null,
            F64 => Token::F64(f64::from_bits(self.word()?)),
            U64 => Token::U64(self.word()?),
            I64 => Token::I64(self.word()?.cast_signed()),
            _ => return None,
        })
    }
}

impl<'a> Tokens<'a> {
    fn word(&mut self) -> Option<u64> {
        let (word, rest) = self.bytes.split_first_chunk::<8>()?;
        self.bytes = rest;
        Some(u64::from_le_bytes(*word))
    }

    fn text(&mut self) -> Option<&'a str> {
        let mut len = 0usize;
        for shift in (0..usize::BITS).step_by(7) {
            let (&b, rest) = self.bytes.split_first()?;
            self.bytes = rest;
            len |= usize::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                let (text, rest) = self.bytes.split_at_checked(len)?;
                self.bytes = rest;
                return std::str::from_utf8(text).ok();
            }
        }
        None
    }
}

/// Records one JSON value into a [`JsonTape`]; [`JsonTape::print`] then
/// gives the text printing the equivalent [`JsonValue`] would.
///
/// Containers take a closure for their contents, so every `{` and `[`
/// is closed; the printer puts the commas between siblings.
///
/// ```
/// use greengpu_sim::{JsonValue, JsonWriter};
///
/// let out = JsonWriter::render(|w| {
///     w.obj(|w| {
///         w.key("weights").f64s(&[1.0, 0.5]);
///         w.key("current").null();
///     });
/// });
/// assert_eq!(out, r#"{"weights":[1,0.5],"current":null}"#);
/// assert_eq!(JsonValue::parse(&out).unwrap().to_string(), out);
/// ```
pub struct JsonWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending tokens to `tape`.
    fn new(tape: &'a mut JsonTape) -> Self {
        JsonWriter { out: &mut tape.bytes }
    }

    /// The text of the value `write` writes: recorded, then printed.
    pub fn render(write: impl FnOnce(&mut JsonWriter<'_>)) -> String {
        let mut tape = JsonTape::new();
        write(&mut JsonWriter::new(&mut tape));
        tape.print()
    }

    fn tag(&mut self, tag: u8) -> &mut Self {
        self.out.push(tag);
        self
    }

    fn word(&mut self, tag: u8, word: u64) -> &mut Self {
        self.out.push(tag);
        self.out.extend_from_slice(&word.to_le_bytes());
        self
    }

    fn text(&mut self, tag: u8, s: &str) -> &mut Self {
        self.out.push(tag);
        let mut len = s.len();
        while len >= 0x80 {
            self.out.push(len as u8 | 0x80);
            len >>= 7;
        }
        self.out.push(len as u8);
        self.out.extend_from_slice(s.as_bytes());
        self
    }

    /// An object; `body` writes its `key(..)`/value pairs.
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        body(self.tag(OBJ_OPEN));
        self.tag(OBJ_CLOSE)
    }

    /// An array; `body` writes its elements.
    pub fn arr(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        body(self.tag(ARR_OPEN));
        self.tag(ARR_CLOSE)
    }

    /// An object key; the next value written is its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.text(KEY, k)
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.tag(NULL)
    }

    /// An `f64`: its shortest round-trip text when finite, `null`
    /// otherwise (as [`JsonValue::f64`]).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.word(F64, v.to_bits())
    }

    /// A `u64`, exact.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.word(U64, v)
    }

    /// An `i64`, exact.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.word(I64, v.cast_unsigned())
    }

    /// A `usize`, exact.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.word(U64, v as u64)
    }

    /// A string, escaped.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.text(STR, v)
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

    /// Prints one value recorded on its own.
    fn printed(write: impl FnOnce(&mut JsonWriter<'_>)) -> String {
        let mut tape = JsonTape::new();
        tape.record(write);
        tape.print()
    }

    #[test]
    fn every_token_kind_prints_as_the_tree() {
        let odd = "a\"\\\n\r\t\u{1}b — π";
        let floats = [
            0.1,
            -2.5e-300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            5e-324,
            1e21,
        ];
        let text = printed(|w| {
            w.obj(|w| {
                w.key("empty_obj").obj(|_| {});
                w.key("empty_arr").u64s(&[]);
                w.key("nested").arr(|w| {
                    w.arr(|w| {
                        w.obj(|_| {});
                    });
                    w.obj(|w| {
                        w.key(odd).str(odd);
                        w.key("k").i64(-3);
                    });
                });
                w.key("").str("");
                w.key("floats").f64s(&floats);
                w.key("u").u64(u64::MAX);
                w.key("i").i64(i64::MIN);
                w.key("z").usize(0).key("zmax").usize(usize::MAX);
                w.key("none").null();
            });
        });
        let tree = JsonValue::Obj(vec![
            ("empty_obj".to_string(), JsonValue::Obj(vec![])),
            ("empty_arr".to_string(), JsonValue::Arr(vec![])),
            (
                "nested".to_string(),
                JsonValue::Arr(vec![
                    JsonValue::Arr(vec![JsonValue::Obj(vec![])]),
                    JsonValue::Obj(vec![
                        (odd.to_string(), JsonValue::str(odd)),
                        ("k".to_string(), JsonValue::Num("-3".to_string())),
                    ]),
                ]),
            ),
            (String::new(), JsonValue::str("")),
            (
                "floats".to_string(),
                JsonValue::Arr(floats.iter().map(|&v| JsonValue::f64(v)).collect()),
            ),
            ("u".to_string(), JsonValue::u64(u64::MAX)),
            ("i".to_string(), JsonValue::Num(i64::MIN.to_string())),
            ("z".to_string(), JsonValue::usize(0)),
            ("zmax".to_string(), JsonValue::usize(usize::MAX)),
            ("none".to_string(), JsonValue::Null),
        ]);
        assert_eq!(text, tree.to_string());
        assert_eq!(JsonValue::parse(&text), Ok(tree));
    }

    #[test]
    fn long_strings_take_multi_byte_lengths() {
        for len in [127, 128, 300, 20_000] {
            let key = "k".repeat(len);
            let text = printed(|w| {
                w.obj(|w| {
                    w.key(&key).str(&key);
                });
            });
            assert_eq!(text, format!("{{\"{key}\":\"{key}\"}}"));
        }
    }

    #[test]
    fn a_recording_is_sized_by_its_shape_not_its_numbers() {
        let record = |x: f64, n: u64| {
            let mut tape = JsonTape::new();
            tape.record(|w| {
                w.obj(|w| {
                    w.key("x").f64(x);
                    w.key("n").u64(n);
                    w.key("k").i64(n.cast_signed());
                });
            });
            tape
        };
        let small = record(1.0, 0);
        for (x, n) in [(0.1, u64::MAX), (f64::NAN, 1 << 40), (-1e-300, 9)] {
            assert_eq!(record(x, n).len(), small.len());
        }
        // Re-recording replaces the old recording.
        let mut tape = record(0.5, 3);
        tape.record(|w| {
            w.null();
        });
        assert_eq!(tape.print(), "null");
        assert_eq!(tape.len(), 1);
        assert!(JsonTape::new().is_empty());
        assert_eq!(JsonTape::new().print(), "");
    }

    #[test]
    fn a_cut_tape_prints_a_prefix_without_panicking() {
        let mut tape = JsonTape::new();
        tape.record(|w| {
            w.obj(|w| {
                w.key("k").str("vé");
                w.key("xs").f64s(&[0.25, 1.0]);
                w.key("i").i64(-7);
            });
        });
        let full = tape.print();
        for cut in 0..tape.len() {
            let cut_tape = JsonTape {
                bytes: tape.bytes[..cut].to_vec(),
            };
            let text = cut_tape.print();
            assert!(full.starts_with(&text), "cut at {cut}: {text:?}");
        }
        // An unknown tag ends the stream.
        let garbage = JsonTape {
            bytes: vec![ARR_OPEN, 0xff, U64, 1],
        };
        assert_eq!(garbage.print(), "[");
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
