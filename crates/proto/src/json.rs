//! JSON encoding and decoding of [`Value`].
//!
//! This is the marshaling layer of the REST baseline. It is a complete
//! RFC 8259 implementation: string escapes (including `\uXXXX` surrogate
//! pairs), integer/float distinction, nesting-depth limits, and precise
//! error positions. [`Value::Bytes`] encodes as a base64url string — the
//! textual inflation this forces on binary payloads is one of the concrete
//! overheads the paper's Table 1 calls "object marshaling".

use std::collections::BTreeMap;
use std::fmt;

use crate::value::Value;

/// Maximum nesting depth accepted by the parser (stack-safety guard).
pub const MAX_DEPTH: usize = 128;

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Encodes `value` as compact JSON.
///
/// # Examples
///
/// ```
/// use pcsi_proto::{json, Value};
///
/// let v = Value::object([("a", Value::from(1i64)), ("b", Value::from("x\n"))]);
/// assert_eq!(json::encode(&v), r#"{"a":1,"b":"x\n"}"#);
/// ```
pub fn encode(value: &Value) -> String {
    let mut out = String::with_capacity(64);
    encode_into(value, &mut out);
    out
}

/// Encodes `value` into an existing buffer (saves allocation on hot paths).
pub fn encode_into(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(v) => {
            let mut buf = itoa_buf();
            out.push_str(format_i64(*v, &mut buf));
        }
        Value::F64(v) => encode_f64(*v, out),
        Value::Str(s) => encode_string(s, out),
        Value::Bytes(b) => {
            out.push('"');
            base64_encode_into(b, out);
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_into(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_string(k, out);
                out.push(':');
                encode_into(v, out);
            }
            out.push('}');
        }
    }
}

fn itoa_buf() -> [u8; 20] {
    [0u8; 20]
}

/// Minimal integer formatter (avoids `format!` allocation inside the loop).
fn format_i64(mut v: i64, buf: &mut [u8; 20]) -> &str {
    if v == 0 {
        return "0";
    }
    let negative = v < 0;
    let mut i = buf.len();
    // Work in negative space so i64::MIN does not overflow on negation.
    if !negative {
        v = -v;
    }
    while v != 0 {
        i -= 1;
        buf[i] = b'0' + (-(v % 10)) as u8;
        v /= 10;
    }
    if negative {
        i -= 1;
        buf[i] = b'-';
    }
    // SAFETY-free: all bytes written are ASCII digits or '-'.
    std::str::from_utf8(&buf[i..]).expect("ascii digits")
}

fn encode_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // `{v}` gives the shortest roundtrippable representation in Rust.
        let s = format!("{v}");
        out.push_str(&s);
        // Ensure floats stay floats across a roundtrip.
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Inf; encode as null like most web stacks.
        out.push_str("null");
    }
}

/// Whether `b` must be escaped inside a JSON string: the quote, the
/// backslash and the control characters.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Length of the leading run of `bytes` that needs no escape. Each
/// 16-byte chunk is tested with a fold that has no early exit, which
/// compiles to vector compares; only the chunk holding the run's end is
/// searched byte by byte.
fn plain_prefix_len(bytes: &[u8]) -> usize {
    let mut n = 0;
    for chunk in bytes.chunks(16) {
        if chunk.iter().fold(false, |any, &b| any | needs_escape(b)) {
            return n + chunk
                .iter()
                .position(|&b| needs_escape(b))
                .expect("the fold found an escape");
        }
        n += chunk.len();
    }
    n
}

/// Writes `s` as a quoted JSON string, copying each run of bytes that
/// needs no escape whole. Escaped bytes are ASCII, so every run ends on
/// a character boundary.
fn encode_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut rest = s;
    loop {
        let run = plain_prefix_len(rest.as_bytes());
        out.push_str(&rest[..run]);
        let Some(&b) = rest.as_bytes().get(run) else {
            break;
        };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xF)]));
            }
        }
        rest = &rest[run + 1..];
    }
    out.push('"');
}

/// Parses a JSON document into a [`Value`].
///
/// Trailing whitespace is allowed; trailing garbage is an error.
///
/// # Examples
///
/// ```
/// use pcsi_proto::{json, Value};
///
/// let v = json::decode(r#"{"n": [1, 2.5, "three", null, true]}"#).unwrap();
/// assert_eq!(v.get("n").unwrap().at(2).unwrap().as_str(), Some("three"));
/// ```
pub fn decode(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("invalid literal, expected '{lit}'")))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(map)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            self.pos += plain_prefix_len(&self.bytes[start..]);
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            // High surrogate: require the low half.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                        } else if (0xDC00..0xE000).contains(&cp) {
                            return Err(self.err("unpaired low surrogate"));
                        } else {
                            char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                        };
                        out.push(c);
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if text.is_empty() || text == "-" {
            return Err(self.err("invalid number"));
        }
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| self.err("invalid float"))
        } else {
            // Integers that overflow i64 degrade to f64 (web-stack behaviour).
            match text.parse::<i64>() {
                Ok(v) => Ok(Value::I64(v)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::F64)
                    .map_err(|_| self.err("invalid integer")),
            }
        }
    }
}

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Marks bytes outside the alphabet in [`B64_DECODE`].
const B64_INVALID: u8 = 0xFF;

/// Each byte's 6-bit value in the base64url alphabet, or [`B64_INVALID`].
const B64_DECODE: [u8; 256] = {
    let mut table = [B64_INVALID; 256];
    let mut i = 0;
    while i < B64_ALPHABET.len() {
        table[B64_ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Encodes bytes as unpadded base64url.
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    base64_encode_into(data, &mut out);
    out
}

fn base64_encode_into(data: &[u8], out: &mut String) {
    // Input bytes per stack batch; a multiple of 3, so only the last
    // batch has a partial group.
    const BATCH: usize = 192;
    let sextet = |n: u32, shift: u32| B64_ALPHABET[(n >> shift) as usize & 63];
    out.reserve(data.len().div_ceil(3) * 4);
    for batch in data.chunks(BATCH) {
        let mut buf = [0u8; BATCH / 3 * 4];
        let groups = batch.chunks_exact(3);
        let tail = groups.remainder();
        for (g, o) in groups.zip(buf.chunks_exact_mut(4)) {
            let n = (u32::from(g[0]) << 16) | (u32::from(g[1]) << 8) | u32::from(g[2]);
            o.copy_from_slice(&[sextet(n, 18), sextet(n, 12), sextet(n, 6), sextet(n, 0)]);
        }
        let mut len = batch.len() / 3 * 4;
        if let Some(&first) = tail.first() {
            let second = tail.get(1).copied().unwrap_or(0);
            let n = (u32::from(first) << 16) | (u32::from(second) << 8);
            let sextets = [sextet(n, 18), sextet(n, 12), sextet(n, 6)];
            buf[len..len + tail.len() + 1].copy_from_slice(&sextets[..tail.len() + 1]);
            len += tail.len() + 1;
        }
        out.push_str(std::str::from_utf8(&buf[..len]).expect("the base64url alphabet is ASCII"));
    }
}

/// Decodes unpadded base64url; `None` on invalid input.
pub fn base64_decode(text: &str) -> Option<Vec<u8>> {
    let bytes = text.as_bytes();
    if bytes.len() % 4 == 1 {
        return None;
    }
    let quads = bytes.chunks_exact(4);
    let tail = quads.remainder();
    // A tail of 2 or 3 sextets carries 1 or 2 bytes.
    let mut out = vec![0u8; bytes.len() / 4 * 3 + tail.len().saturating_sub(1)];
    let sextets = |chunk: &[u8]| -> Option<u32> {
        let (mut n, mut seen) = (0u32, 0u8);
        for &x in chunk {
            let v = B64_DECODE[usize::from(x)];
            seen |= v;
            n = (n << 6) | u32::from(v);
        }
        // Valid values fit in 6 bits; an invalid one sets all 8.
        (seen < 64).then_some(n)
    };
    let (body, last) = out.split_at_mut(bytes.len() / 4 * 3);
    for (q, o) in quads.zip(body.chunks_exact_mut(3)) {
        o.copy_from_slice(&sextets(q)?.to_be_bytes()[1..]);
    }
    if !tail.is_empty() {
        let n = sextets(tail)? << (6 * (4 - tail.len()));
        last.copy_from_slice(&n.to_be_bytes()[1..tail.len()]);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn roundtrip(v: &Value) -> Value {
        decode(&encode(v)).expect("roundtrip decode")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::I64(0),
            Value::I64(i64::MIN),
            Value::I64(i64::MAX),
            Value::F64(1.5),
            Value::F64(-0.25),
            Value::Str(String::new()),
            Value::Str("héllo \"world\"\n\t\\ 🦀".into()),
        ] {
            assert_eq!(roundtrip(&v), v, "value {v:?}");
        }
    }

    #[test]
    fn floats_stay_floats() {
        assert_eq!(roundtrip(&Value::F64(2.0)), Value::F64(2.0));
        assert_eq!(encode(&Value::F64(2.0)), "2.0");
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(encode(&Value::F64(f64::NAN)), "null");
        assert_eq!(encode(&Value::F64(f64::INFINITY)), "null");
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Value::object([
            (
                "list",
                Value::array([Value::I64(1), Value::Str("two".into())]),
            ),
            (
                "inner",
                Value::object([("deep", Value::array([Value::Null]))]),
            ),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn bytes_encode_as_base64_strings() {
        let v = Value::Bytes(Bytes::from_static(b"\x00\x01\xFFhello"));
        let enc = encode(&v);
        let dec = decode(&enc).unwrap();
        let b64 = dec.as_str().expect("decoded as string");
        assert_eq!(base64_decode(b64).unwrap(), b"\x00\x01\xFFhello");
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(decode(r#""Aé🦀""#).unwrap(), Value::Str("Aé🦀".into()));
    }

    #[test]
    fn surrogate_errors_rejected() {
        assert!(decode(r#""\ud83e""#).is_err());
        assert!(decode(r#""\udd80""#).is_err());
        assert!(decode(r#""\ud83eA""#).is_err());
    }

    #[test]
    fn error_positions_reported() {
        let err = decode("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(decode("[1, 2").is_err());
        assert!(decode("").is_err());
        assert!(decode("12 34").unwrap_err().message.contains("trailing"));
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = decode(&deep).unwrap_err();
        assert!(err.message.contains("depth"));
    }

    #[test]
    fn whitespace_tolerated() {
        let v = decode(" \t\n{ \"a\" : [ 1 , 2 ] }\r\n ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn integer_overflow_degrades_to_float() {
        let v = decode("99999999999999999999").unwrap();
        assert!(matches!(v, Value::F64(_)));
    }

    #[test]
    fn base64_roundtrips_all_lengths() {
        for len in 0..32 {
            let data: Vec<u8> = (0..len as u8).collect();
            let enc = base64_encode(&data);
            assert_eq!(base64_decode(&enc).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn base64_rejects_garbage() {
        assert!(base64_decode("!!!").is_none());
        assert!(base64_decode("A").is_none());
        // Every byte outside the alphabet is rejected, first or last in a
        // quad. These chars' UTF-8 encodings hold every byte a `str` can.
        let chars = (0..0x800)
            .chain((0x800..0x1_0000).step_by(0x800))
            .chain((0x1_0000..0x11_0000).step_by(0x3_0000))
            .filter_map(char::from_u32);
        let mut seen = [false; 256];
        for c in chars {
            let mut buf = [0; 4];
            let enc = c.encode_utf8(&mut buf);
            for &b in enc.as_bytes() {
                seen[usize::from(b)] = true;
            }
            let valid = c.is_ascii() && B64_ALPHABET.contains(&(c as u8));
            // Two whole quads with `c` first, then last.
            let filler = &"QUJDQUJD"[enc.len()..];
            for text in [format!("{c}{filler}"), format!("{filler}{c}")] {
                assert_eq!(base64_decode(&text).is_some(), valid, "{c:?} in {text:?}");
            }
        }
        let never_in_utf8 = |b: usize| matches!(b, 0xC0 | 0xC1 | 0xF5..=0xFF);
        assert!((0..256).all(|b| seen[b] || never_in_utf8(b)));
    }

    #[test]
    fn control_chars_escaped() {
        for b in 0u8..0x20 {
            let s = format!("a{}é", char::from(b));
            let want = match b {
                0x08 => "\\b".to_owned(),
                0x09 => "\\t".to_owned(),
                0x0A => "\\n".to_owned(),
                0x0C => "\\f".to_owned(),
                0x0D => "\\r".to_owned(),
                _ => format!("\\u{b:04x}"),
            };
            let enc = encode(&Value::Str(s.clone()));
            assert_eq!(enc, format!("\"a{want}é\""));
            assert_eq!(decode(&enc).unwrap(), Value::Str(s));
        }
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = decode(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(2));
    }
}
