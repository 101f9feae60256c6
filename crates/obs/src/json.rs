//! Minimal JSON emit/parse for the flight-recorder wire format.
//!
//! Hand-rolled on purpose: the workspace's `serde` facade is a no-op
//! shim, and the recorder's contract is a *bit-exact* round trip —
//! every `f64` must come back with the same bit pattern it went out
//! with. Finite floats rely on Rust's shortest-round-trip formatting
//! (`{:?}` always prints a `.` or an exponent, so the parser can tell
//! floats from integers by lexical form alone); non-finite floats are
//! encoded as tagged strings carrying the raw bit pattern, because JSON
//! has no literal for them.

use std::fmt::Write as _;

/// A parsed JSON value. Objects keep their field order (the emitter
/// writes fields in insertion order, and order is part of the recorder's
/// determinism contract).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number whose literal had no sign, point, or exponent.
    Int(u64),
    /// Any other number.
    Float(f64),
    /// A string (escapes already resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, field order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is an [`Json::Int`].
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric value as `f64` (ints widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(v) => Some(v as f64),
            Json::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The string value, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Append a JSON string literal (with escapes) to `out`.
pub fn emit_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Append a finite `f64` in shortest-round-trip form. `{:?}` always
/// includes a `.` or an exponent, which is what lets the parser keep
/// floats and integers apart. Callers must handle non-finite values
/// themselves (the recorder tags them as strings).
pub fn emit_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite(), "non-finite floats are string-encoded upstream");
    let _ = write!(out, "{v:?}");
}

/// How deeply arrays and objects may nest. A recording nests two deep;
/// the parser recurses once per level, so an unbounded depth would let a
/// line of `[`s overflow the stack.
const MAX_DEPTH: usize = 64;

/// Parse one JSON document, requiring nothing but whitespace after it.
/// Nesting deeper than 64 arrays or objects is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { at: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nested deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, JsonError>) -> Result<Json, JsonError> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else { return Err(self.err("unterminated string")) };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else { return Err(self.err("dangling escape")) };
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: recombine, or reject a
                            // lone half (the emitter never writes one).
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume the full UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid UTF-8 in string")),
                    };
                    if start + len > self.bytes.len() {
                        return Err(self.err("truncated UTF-8 in string"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let lit =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number literals are ASCII");
        if lit.is_empty() || lit == "-" {
            return Err(self.err("malformed number"));
        }
        // Lexical form decides the variant: the emitter writes integers
        // bare and floats always with '.' or an exponent, so the round
        // trip is type-faithful.
        if !fractional && !lit.starts_with('-') {
            lit.parse::<u64>().map(Json::Int).map_err(|_| self.err("integer out of range"))
        } else {
            lit.parse::<f64>().map(Json::Float).map_err(|_| self.err("malformed number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_emitted_subset() {
        let doc = r#"{"t":1.5,"cycle":3,"kind":"rung","fields":{"a":7,"b":-2.0e-3,
            "s":"x\"\\\n\u0041","flag":true,"none":null,"arr":[1,2.5,"z"]}}"#;
        let v = parse(doc).expect("valid document");
        assert_eq!(v.get("cycle").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("t").and_then(Json::as_f64), Some(1.5));
        let fields = v.get("fields").expect("object");
        assert_eq!(fields.get("a"), Some(&Json::Int(7)));
        assert_eq!(fields.get("b"), Some(&Json::Float(-2.0e-3)));
        assert_eq!(fields.get("s").and_then(Json::as_str), Some("x\"\\\nA"));
        assert_eq!(fields.get("flag"), Some(&Json::Bool(true)));
        assert_eq!(fields.get("none"), Some(&Json::Null));
        assert_eq!(
            fields.get("arr"),
            Some(&Json::Arr(vec![Json::Int(1), Json::Float(2.5), Json::Str("z".into())]))
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in ["", "plain", "q\"b\\s\n\r\t", "unicode: žluťoučký 🐎", "\u{1}\u{1f}"] {
            let mut out = String::new();
            emit_str(&mut out, s);
            assert_eq!(parse(&out).expect("valid"), Json::Str(s.to_string()), "input {s:?}");
        }
    }

    #[test]
    fn finite_floats_round_trip_bit_exactly() {
        for v in [0.0, -0.0, 1.0, -1.5, 0.1, 1e300, 5e-324, f64::MAX, f64::MIN_POSITIVE] {
            let mut out = String::new();
            emit_f64(&mut out, v);
            match parse(&out).expect("valid") {
                Json::Float(back) => assert_eq!(back.to_bits(), v.to_bits(), "literal {out}"),
                other => panic!("float {v} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse(r#""\ud83d\ude00""#).expect("valid"), Json::Str("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err(), "lone surrogate must be rejected");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).unwrap_err().message.contains("nested deeper"));
        let at = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&at(MAX_DEPTH)).is_ok());
        assert!(parse(&at(MAX_DEPTH + 1)).is_err());
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for doc in ["{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\x\"", "-"] {
            assert!(parse(doc).is_err(), "{doc:?} must not parse");
        }
    }
}
