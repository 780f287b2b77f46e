//! Minimal JSON for the wire protocol, model persistence and the
//! experiment artifacts: one parser, one [`Writer`].
//!
//! The workspace is dependency-free by construction, so this is the whole
//! stack: a recursive-descent parser with a hard depth cap (panic-free on
//! arbitrary input — `tests` feed it garbage) and a value tree whose
//! numbers are kept as **raw source text** ([`JsonValue::Num`]). Parsing a
//! number into `f64` or `u64` happens at the accessor, so `u64` bit
//! patterns round-trip exactly — the property `persist` relies on to make
//! a reloaded forest bit-identical. [`Writer`] is the inverse: every JSON
//! text the workspace emits is written through it, so commas, quoting and
//! escaping are decided in one place.

use std::fmt::Write as _;

/// A parsed JSON value. Object fields keep their source order (rendering
/// is deterministic) and duplicate keys resolve to the first occurrence.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source text (see module docs).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Field lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse a number as `f64` (accepts any JSON number).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Parse a number as `u64` — integer text only, so 64-bit bit patterns
    /// survive without a lossy trip through `f64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// [`JsonValue::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing stopped.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Nesting cap: deeper input is rejected, not recursed into, so a
/// `[[[[…` bomb cannot blow the stack of a serving daemon.
const MAX_DEPTH: usize = 64;

/// Parse one complete JSON document (trailing garbage is an error).
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

/// Append `s` to `out` with JSON string escaping (no surrounding quotes).
/// Everything escaped is ASCII, so the scan is over bytes and the stretches
/// between escapes are copied whole.
pub fn escape_into(out: &mut String, s: &str) {
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        out.push_str(escape);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
}

/// Compact JSON writer into one `String`: the inverse of [`parse`]. It
/// places the commas; keys and strings go through [`escape_into`]; a finite
/// `f64` is its shortest-round-trip `{:?}` text (which [`parse`] reads back
/// to the same bits) and a non-finite one is `null`.
#[derive(Debug, Default)]
pub struct Writer(String);

impl Writer {
    /// The text written so far.
    pub fn finish(self) -> String {
        self.0
    }

    /// Start a key or a value: a comma first, unless it opens its container
    /// or follows its key. The document's first byte reserves a reply
    /// line's worth, so rendering one never regrows the buffer.
    fn begin(&mut self) -> &mut String {
        match self.0.as_bytes().last() {
            None => self.0.reserve(512),
            Some(b'{' | b'[' | b':') => {}
            Some(_) => self.0.push(','),
        }
        &mut self.0
    }

    /// An object key; the member's value is the next thing written.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key);
        self.0.push(':');
        self
    }

    /// A string value.
    pub fn str(&mut self, text: &str) {
        self.begin().push('"');
        escape_into(&mut self.0, text);
        self.0.push('"');
    }

    /// An integer value, verbatim (64-bit patterns survive).
    pub fn u64(&mut self, v: u64) {
        let _ = write!(self.begin(), "{v}");
    }

    /// A float value: shortest round-trip text, `null` when non-finite.
    pub fn f64(&mut self, v: f64) {
        if v.is_finite() {
            let _ = write!(self.begin(), "{v:?}");
        } else {
            self.begin().push_str("null");
        }
    }

    /// `true` / `false`.
    pub fn bool(&mut self, v: bool) {
        self.begin().push_str(if v { "true" } else { "false" });
    }

    /// An object whose members `body` writes; returns what `body` returns.
    pub fn obj<R>(&mut self, body: impl FnOnce(&mut Self) -> R) -> R {
        self.begin().push('{');
        let result = body(self);
        self.0.push('}');
        result
    }

    /// An array with one element per item, each written by `element`.
    pub fn arr<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut element: impl FnMut(&mut Self, T),
    ) {
        self.begin().push('[');
        items.into_iter().for_each(|item| element(self, item));
        self.0.push(']');
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
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

    fn expect_byte(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'{', "expected '{'")?;
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
            self.expect_byte(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Obj(fields)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Arr(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogates are rejected rather than paired; the
                        // protocol never emits them.
                        match char::from_u32(cp) {
                            Some(c) => out.push(c),
                            None => return Err(self.err("invalid \\u escape")),
                        }
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-for-byte:
                    // the input is a &str, so the bytes are already valid.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    for _ in 1..len {
                        self.bump();
                    }
                    match std::str::from_utf8(self.bytes.get(start..self.pos).unwrap_or(b"")) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid utf-8")),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            cp = cp * 16 + d;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        let raw = std::str::from_utf8(self.bytes.get(start..self.pos).unwrap_or(b""))
            .map_err(|_| self.err("invalid number"))?;
        Ok(JsonValue::Num(raw.to_string()))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xF0..=0xF7 => 4,
        0xE0..=0xEF => 3,
        0xC0..=0xDF => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_plan::SplitMix64;

    #[test]
    fn parses_the_usual_shapes() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":"x\ny","c":true,"d":null}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(v.get("b").and_then(JsonValue::as_str), Some("x\ny"));
        assert_eq!(v.get("c").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
    }

    #[test]
    fn u64_bit_patterns_round_trip_exactly() {
        for bits in [0u64, 1, u64::MAX, 0x7ff8_dead_beef_0001, f64::to_bits(0.1)] {
            let v = parse(&format!("{{\"x\":{bits}}}")).unwrap();
            assert_eq!(v.get("x").and_then(JsonValue::as_u64), Some(bits));
        }
    }

    #[test]
    fn malformed_inputs_error_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1.",
            "1e",
            "-",
            "\"\\q\"",
            "\"\\u12\"",
            "\"unterminated",
            "[1] junk",
            "\u{1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_recursed() {
        let bomb = "[".repeat(100_000);
        assert!(parse(&bomb).is_err());
    }

    fn random_string(rng: &mut SplitMix64) -> String {
        const ALPHABET: [char; 16] = [
            'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', 'π',
            '日', '😀',
        ];
        let len = rng.gen_range(9);
        (0..len)
            .map(|_| ALPHABET[rng.gen_range(ALPHABET.len())])
            .collect()
    }

    /// Write one random value and return what [`parse`] must read back.
    fn write_random(rng: &mut SplitMix64, w: &mut Writer, depth: usize) -> JsonValue {
        const FLOATS: [f64; 12] = [
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE / 2.0,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1 + 0.2,
            1e21,
            1.5e-7,
        ];
        // Containers only above a floor, so documents stay finite.
        match rng.gen_range(if depth < 5 { 8 } else { 6 }) {
            0 => {
                let b = rng.gen_range(2) == 1;
                w.bool(b);
                JsonValue::Bool(b)
            }
            1 | 2 => {
                let n = [0, 1, u64::MAX, rng.next_u64()][rng.gen_range(4)];
                w.u64(n);
                let read = JsonValue::Num(n.to_string());
                assert_eq!(read.as_u64(), Some(n));
                read
            }
            3 | 4 => {
                let x =
                    [FLOATS[rng.gen_range(12)], f64::from_bits(rng.next_u64())][rng.gen_range(2)];
                w.f64(x);
                if !x.is_finite() {
                    return JsonValue::Null;
                }
                // The text `parse` keeps must decode to the same bits.
                let read = JsonValue::Num(format!("{x:?}"));
                assert_eq!(read.as_f64().map(f64::to_bits), Some(x.to_bits()));
                read
            }
            5 => {
                let s = random_string(rng);
                w.str(&s);
                JsonValue::Str(s)
            }
            6 => {
                let mut items = Vec::new();
                w.arr(0..rng.gen_range(5), |w, _| {
                    items.push(write_random(rng, w, depth + 1));
                });
                JsonValue::Arr(items)
            }
            _ => JsonValue::Obj(w.obj(|w| {
                let fields = (0..rng.gen_range(5)).map(|_| {
                    let key = random_string(rng);
                    let value = write_random(rng, w.key(&key), depth + 1);
                    (key, value)
                });
                fields.collect()
            })),
        }
    }

    /// `depth` containers, arrays and objects by turns, around an empty array.
    fn write_nest(w: &mut Writer, depth: usize) -> JsonValue {
        if depth.is_multiple_of(2) {
            let mut inner = Vec::new();
            w.arr(0..depth.min(1), |w, _| inner.push(write_nest(w, depth - 1)));
            JsonValue::Arr(inner)
        } else {
            JsonValue::Obj(w.obj(|w| vec![(String::new(), write_nest(w.key(""), depth - 1))]))
        }
    }

    #[test]
    fn written_documents_read_back_value_for_value() {
        let read_back = |write: &mut dyn FnMut(&mut Writer) -> JsonValue| {
            let mut w = Writer::default();
            let wrote = write(&mut w);
            let text = w.finish();
            assert_eq!(parse(&text), Ok(wrote), "{text}");
        };
        let mut rng = SplitMix64::new(0x0019_d0c5);
        for _ in 0..400 {
            read_back(&mut |w| write_random(&mut rng, w, 0));
        }
        // The corners by hand: empty containers, and a nest as deep as the
        // parser admits (root at depth 0, innermost at `MAX_DEPTH`).
        read_back(&mut |w| write_nest(w, 0));
        read_back(&mut |w| JsonValue::Obj(w.obj(|_| Vec::new())));
        read_back(&mut |w| write_nest(w, MAX_DEPTH));
    }
}
