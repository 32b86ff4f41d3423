//! The one JSON reader and the one JSON writer behind every document
//! the toolchain emits or reads back: trace JSONL lines
//! ([`crate::trace`], [`crate::analyze`]), timeline documents
//! ([`crate::timeline`]), `BENCH_*.json` snapshots and `--perf`
//! reports ([`crate::perf`]), run manifests and scenario report
//! goldens.
//!
//! **Writing.** Emitters lay out their own keys and whitespace (each
//! format is byte-pinned by a golden or a round-trip test) and render
//! every value through two adapters:
//!
//! * [`Quoted`] — a string literal, quotes included: `"` and `\`
//!   backslash-escaped, `\n`/`\r`/`\t` by name, every other control
//!   character as `\u00XX`;
//! * [`Number`] — a float as its shortest round-trip `Display`, or
//!   `null` when it is not finite (JSON has no inf/nan).
//!
//! **Reading.** A small std-only recursive-descent parser over the
//! `&str` input:
//!
//! * integer lexemes (`-?[0-9]+` that fit in an `i64`) stay exact as
//!   [`Json::Int`]; every other number is a [`Json::Num`];
//! * objects keep their keys in source order;
//! * nesting is capped at [`MAX_DEPTH`], so hostile input cannot
//!   exhaust the stack;
//! * every error carries the byte offset it was detected at.
//!
//! [`Json::parse`] reads one document; the crate-internal `Reader`
//! reads a stream of them (one per trace line) and reuses its buffers
//! between documents.

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value. Objects preserve key order.
///
/// Parsed documents are read-only, so arrays and objects are boxed
/// slices: every container is exactly sized and a `Json` is three
/// words, which keeps long-lived trace records small.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer lexeme that fits in an `i64`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Box<[Json]>),
    /// An object, in source order.
    Obj(Box<[(String, Json)]>),
}

/// A JSON parse error: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.msg)
    }
}

impl Json {
    /// Parses one JSON document (surrounding whitespace allowed).
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        Reader::default().parse(s)
    }

    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// Numeric view of the value, if it has one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer lexeme.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `u64` (rejects negatives and fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A string rendered as a JSON string literal, quotes included.
///
/// `format!("{}", Quoted("a\"b"))` is `"a\"b"`. Unescaped runs are
/// written in one slice each.
#[derive(Debug, Clone, Copy)]
pub struct Quoted<'a>(pub &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        let mut rest = self.0;
        while let Some(i) = rest.bytes().position(|c| c == b'"' || c == b'\\' || c < 0x20) {
            // The byte at `i` is ASCII, so both cuts are char
            // boundaries.
            let (run, tail) = rest.split_at(i);
            f.write_str(run)?;
            let mut tail = tail.chars();
            match tail.next() {
                Some('"') => f.write_str("\\\"")?,
                Some('\\') => f.write_str("\\\\")?,
                Some('\n') => f.write_str("\\n")?,
                Some('\r') => f.write_str("\\r")?,
                Some('\t') => f.write_str("\\t")?,
                Some(c) => write!(f, "\\u{:04x}", u32::from(c))?,
                None => {}
            }
            rest = tail.as_str();
        }
        f.write_str(rest)?;
        f.write_char('"')
    }
}

/// A float rendered as a JSON number: the shortest round-trip
/// `Display` when finite, `null` otherwise.
#[derive(Debug, Clone, Copy)]
pub struct Number(pub f64);

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// A parser that keeps its working buffers between documents, for
/// reading many small ones (trace lines): once warm, a document
/// allocates only what its value keeps.
#[derive(Debug, Default)]
pub(crate) struct Reader {
    /// Fields of the objects being parsed, innermost last. Each object
    /// moves its own run out into an exactly sized slice on close.
    fields: Vec<(String, Json)>,
    /// Elements of the arrays being parsed, likewise.
    items: Vec<Json>,
}

impl Reader {
    /// Parses one JSON document (surrounding whitespace allowed).
    pub(crate) fn parse(&mut self, s: &str) -> Result<Json, JsonError> {
        // Entries a failed parse left behind sit below every new
        // container's start, so they are harmless; drop them so they
        // cannot pile up.
        self.fields.clear();
        self.items.clear();
        let mut p = Parser { s, i: 0, r: self };
        let v = p.value(0)?;
        p.skip_ws();
        if p.i < s.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
    r: &'a mut Reader,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { pos: self.i, msg: msg.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", char::from(c))))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.s.as_bytes().get(self.i..self.i + word.len()) == Some(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.i += 1;
        }
        // The lexeme is ASCII, so both ends are char boundaries.
        let text = self.s.get(start..self.i).unwrap_or_default();
        if text.bytes().all(|c| c == b'-' || c.is_ascii_digit()) {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { pos: start, msg: format!("malformed number `{text}`") })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one
            // slice: both are ASCII, so the cut is a char boundary
            // and multi-byte characters pass through untouched.
            let run = self.s.get(self.i..).unwrap_or_default();
            let end = run
                .bytes()
                .position(|c| c == b'"' || c == b'\\')
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(run.get(..end).unwrap_or_default());
            self.i += end;
            if self.peek() == Some(b'"') {
                self.i += 1;
                return Ok(out);
            }
            self.i += 1; // the backslash
            let e = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
            self.i += 1;
            match e {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => out.push(self.unicode_escape()?),
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    /// The code point of a `\uXXXX` escape (the `\u` already eaten),
    /// joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            self.eat(b'\\')?;
            self.eat(b'u')?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = char::from(c).to_digit(16).ok_or_else(|| self.err("non-hex in \\u escape"))?;
            v = v * 16 + d;
            self.i += 1;
        }
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(Box::default()));
        }
        let base = self.r.items.len();
        loop {
            let item = self.value(depth + 1)?;
            self.r.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(self.r.items.drain(base..).collect()));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(Box::default()));
        }
        let base = self.r.fields.len();
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value(depth + 1)?;
            self.r.fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(self.r.fields.drain(base..).collect()));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\"y\n", "d": null}, "e": true}"#)
            .expect("parse");
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str), Some("x\"y\n"));
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Json::Null));
        assert_eq!(v.get("e").and_then(Json::as_bool), Some(true));
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2] trailing").is_err());
    }

    #[test]
    fn integer_lexemes_stay_exact() {
        assert_eq!(Json::parse("9007199254740993"), Ok(Json::Int(9_007_199_254_740_993)));
        assert_eq!(Json::parse("-7"), Ok(Json::Int(-7)));
        assert_eq!(Json::parse("1.0"), Ok(Json::Num(1.0)));
        assert_eq!(Json::parse("1e3"), Ok(Json::Num(1000.0)));
        // Past i64, an integer lexeme degrades to a float.
        assert_eq!(
            Json::parse("18446744073709551616"),
            Ok(Json::Num(18_446_744_073_709_551_616.0))
        );
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::Int(3).as_f64(), Some(3.0));
        assert_eq!(Json::Num(3.0).as_i64(), None);
    }

    #[test]
    fn multibyte_text_and_escapes_decode() {
        let v = Json::parse(r#""aéb 😀 é\r😀""#).expect("parse");
        assert_eq!(v.as_str(), Some("aéb 😀 é\r😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate must fail");
        assert!(Json::parse(r#""\q""#).is_err());
    }

    #[test]
    fn a_reused_reader_matches_fresh_parses() {
        let mut r = Reader::default();
        for doc in ["{\"a\": [1, {\"b\": 2}", "[[1, 2], {\"c\": [3]}]", "{\"d\": {}}", "[]"] {
            assert_eq!(r.parse(doc), Json::parse(doc), "{doc}");
        }
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let e = Json::parse("[1, x]").expect_err("bad value");
        assert_eq!(e.pos, 4);
        assert_eq!(e.to_string(), "json error at byte 4: expected a JSON value");
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert_eq!(Json::parse(&deep).expect_err("too deep").msg, "nesting too deep");
    }

    #[test]
    fn writer_escapes_and_round_trips() {
        let nasty = "a\"b\\c\n\r\t\u{1}\u{1f} é 😀/";
        let text = Quoted(nasty).to_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f é 😀/\"");
        assert!(text.bytes().all(|b| b >= 0x20), "{text:?}");
        assert_eq!(Json::parse(&text), Ok(Json::Str(nasty.to_string())));
        assert_eq!(Quoted("").to_string(), "\"\"");
        assert_eq!(Quoted("plain").to_string(), "\"plain\"");
    }
}
