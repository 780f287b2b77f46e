//! Minimal JSON for the wire protocol, model persistence and the
//! experiment artifacts: one parser, one [`Writer`].
//!
//! The workspace is dependency-free by construction, so this is the whole
//! stack: a recursive-descent parser with a hard depth cap (panic-free on
//! arbitrary input — `tests` feed it mutated wire lines, replies and model
//! files) and the [`Writer`] every JSON text the workspace emits goes
//! through, so commas, quoting and escaping are decided in one place.
//!
//! **The parser reads a document where it lies.** [`parse_borrowed`] returns
//! a [`JsonValue`] that borrows from its input: a key or string is the
//! source text between its quotes ([`Cow::Borrowed`]) unless that text holds
//! an escape, and only then is it unescaped into an owned `String`; a number
//! is always its borrowed **raw source text** ([`JsonValue::Num`]). Parsing
//! a number into `f64` or `u64` happens at the accessor, so `u64` bit
//! patterns round-trip exactly — the property `persist` relies on to make a
//! reloaded forest bit-identical. What a parse allocates is the `Vec` of
//! each array and object, and the strings that had escapes: an optimize
//! request line is two `Vec`s, where copying every key, string and number
//! out cost about fourteen heap strings before `parse_request` read four
//! fields. `wire::parse_request` and `persist::forest_from_json` read
//! through it.
//!
//! [`parse`] is the same parser returning the same tree detached from its
//! input (`JsonValue<'static>`, by [`JsonValue::into_owned`]), for callers
//! whose text is a temporary — `json::parse(&result.to_json())` has nothing
//! to borrow from once the statement ends.
//!
//! **The writer** prints an integer with a digit loop into a stack buffer,
//! copies a key or string that needs no escape whole after a word-at-a-time
//! check (which folds away for the renderers' literal keys), and writes a
//! finite `f64` as its `{:?}` text and a non-finite one as `null`. `{:?}` is the
//! shortest text that reads back to the same bits; the writer produces it
//! without `fmt`, through a port of core's Grisu shortest mode (the private
//! `grisu` module) that falls back to `{:?}` itself on the ≈ 0.5 % of
//! values Grisu cannot settle, so every byte is what `{:?}` writes. Through
//! `fmt` the four floats of an optimize reply were its render's largest
//! part; the port prints a 17-digit cost in about half the time and a zero
//! in next to none.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::grisu::PAIRS;

/// A parsed JSON value, borrowing from the text it was parsed from (see
/// module docs). Object fields keep their source order (rendering is
/// deterministic) and duplicate keys resolve to the first occurrence.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source text (see module docs).
    Num(Cow<'a, str>),
    /// A string, unescaped: borrowed unless its source text has an escape.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<JsonValue<'a>>),
    /// An object, as ordered key/value pairs (keys unescaped like strings).
    Obj(Vec<(Cow<'a, str>, JsonValue<'a>)>),
}

impl<'a> JsonValue<'a> {
    /// Field lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue<'a>> {
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
    pub fn as_arr(&self) -> Option<&[JsonValue<'a>]> {
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

    /// The same tree with every borrowed key, string and number copied, so
    /// it outlives the text it was parsed from.
    pub fn into_owned(self) -> JsonValue<'static> {
        let owned = |text: Cow<'_, str>| Cow::Owned(text.into_owned());
        match self {
            JsonValue::Null => JsonValue::Null,
            JsonValue::Bool(b) => JsonValue::Bool(b),
            JsonValue::Num(raw) => JsonValue::Num(owned(raw)),
            JsonValue::Str(s) => JsonValue::Str(owned(s)),
            JsonValue::Arr(items) => {
                JsonValue::Arr(items.into_iter().map(JsonValue::into_owned).collect())
            }
            JsonValue::Obj(fields) => JsonValue::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (owned(k), v.into_owned()))
                    .collect(),
            ),
        }
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

/// Parse one complete JSON document (trailing garbage is an error) into a
/// tree that borrows from `text` (see module docs).
pub fn parse_borrowed(text: &str) -> Result<JsonValue<'_>, JsonError> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

/// [`parse_borrowed`], detached from `text` (see module docs).
pub fn parse(text: &str) -> Result<JsonValue<'static>, JsonError> {
    parse_borrowed(text).map(JsonValue::into_owned)
}

/// Whether any byte of `bytes` is `"`, `\` or a control byte (below
/// `0x20`) — what [`escape_into`] escapes — eight bytes per step. For
/// `n <= 0x80`, `(y - n·ONES) & !y & HIGH` is non-zero exactly when some
/// byte of `y` is below `n`: below `0x20` is a control byte, and below 1
/// after an XOR that zeroes every `"` (or `\`) is that delimiter. The
/// words are fixed-size loads that may overlap: the whole words, then the
/// last eight bytes; under eight bytes, the first four and the last four
/// share a word, and under four the bytes are checked one by one. Keys,
/// platform names and labels are 2–24 bytes, so each check is one or two
/// words with no variable-length copy and no loop whose exit depends on
/// the length: a reply rendered 10–13 % slower with a byte loop under 16
/// bytes, and ≈ 15 % slower with the last word padded by a copy.
#[inline(always)]
fn has_escape(bytes: &[u8]) -> bool {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = ONES << 7;
    let any_below = |y: u64, n: u8| y.wrapping_sub(ONES * u64::from(n)) & !y & HIGH != 0;
    let special = |x: u64| {
        any_below(x, 0x20)
            || any_below(x ^ (ONES * u64::from(b'"')), 1)
            || any_below(x ^ (ONES * u64::from(b'\\')), 1)
    };
    let word = |at: usize| {
        let mut word = [0; 8];
        word.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(word)
    };
    let half = |at: usize| {
        let mut half = [0; 4];
        half.copy_from_slice(&bytes[at..at + 4]);
        u64::from(u32::from_le_bytes(half))
    };
    match bytes.len() {
        0..=3 => bytes.iter().any(|&b| matches!(b, b'"' | b'\\' | 0..=0x1f)),
        n @ 4..=7 => special(half(0) | half(n - 4) << 32),
        n => (0..n / 8).any(|i| special(word(8 * i))) || special(word(n - 8)),
    }
}

/// Append `s` to `out` with JSON string escaping (no surrounding quotes).
/// Everything escaped is ASCII, so the scan is over bytes: a string with
/// nothing to escape — every key and platform name the workspace writes —
/// is copied whole after one `has_escape` check, and otherwise the
/// stretches between escapes are.
#[inline(always)]
fn escape_into(out: &mut String, s: &str) {
    if has_escape(s.as_bytes()) {
        escape_each(out, s);
    } else {
        out.push_str(s);
    }
}

/// The stretches of `s` between escapes, and each escaped byte.
#[cold]
fn escape_each(out: &mut String, s: &str) {
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
/// places the commas; keys and strings go through `escape_into`; a finite
/// `f64` is its shortest-round-trip `{:?}` text (which [`parse`] reads back
/// to the same bits), written without `fmt` (see module docs), and a
/// non-finite one is `null`.
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
    #[inline(always)]
    fn begin(&mut self) -> &mut String {
        match self.0.as_bytes().last() {
            None => self.0.reserve(512),
            Some(b'{' | b'[' | b':') => {}
            Some(_) => self.0.push(','),
        }
        &mut self.0
    }

    /// An object key; the member's value is the next thing written.
    ///
    /// The key path (`key`, `str`, `begin`, `escape_into`, `has_escape`)
    /// is `#[inline(always)]`: the renderers' keys are literals, and
    /// inlined, a literal key's escape check folds away at compile time.
    /// Plain `#[inline]` left those calls in place, and a reply rendered
    /// ≈ 20 % slower.
    #[inline(always)]
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key);
        self.0.push(':');
        self
    }

    /// A string value.
    #[inline(always)]
    pub fn str(&mut self, text: &str) {
        self.begin().push('"');
        escape_into(&mut self.0, text);
        self.0.push('"');
    }

    /// An integer value, verbatim (64-bit patterns survive): its digits are
    /// written back to front into a stack buffer, two per division, with no
    /// `fmt` call. While more than eight digits are left, the last eight
    /// are split off and printed in 32-bit arithmetic, so a 20-digit
    /// signature runs three short chains of divisions instead of one long
    /// one.
    pub fn u64(&mut self, v: u64) {
        const CHUNK: u64 = 100_000_000;
        let mut digits = [b'0'; 20];
        let mut at = digits.len();
        let mut rest = v;
        while rest >= CHUNK {
            let mut chunk = (rest % CHUNK) as u32;
            rest /= CHUNK;
            for _ in 0..4 {
                let pair = (chunk % 100) as usize * 2;
                chunk /= 100;
                at -= 2;
                digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
            }
        }
        while rest >= 10 {
            let pair = (rest % 100) as usize * 2;
            rest /= 100;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        }
        // `rest` is the leading digit, or 0 after an even count of them.
        if rest > 0 || at == digits.len() {
            at -= 1;
            digits[at] = b'0' + rest as u8;
        }
        // ASCII digits: the check cannot fail, and costs a 20-byte scan.
        if let Ok(text) = std::str::from_utf8(&digits[at..]) {
            self.begin().push_str(text);
        }
    }

    /// A float value: shortest round-trip text, byte for byte `{:?}`'s,
    /// `null` when non-finite.
    pub fn f64(&mut self, v: f64) {
        if v.is_finite() {
            crate::grisu::push_debug(self.begin(), v);
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
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// The input between byte offsets `start` and `end`. Every offset the
    /// parser cuts at is next to an ASCII delimiter, hence a char boundary.
    fn source(&self, start: usize, end: usize) -> Result<&'a str, JsonError> {
        self.text
            .get(start..end)
            .ok_or_else(|| self.err("invalid utf-8"))
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

    fn literal(&mut self, lit: &str, value: JsonValue<'a>) -> Result<JsonValue<'a>, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue<'a>, JsonError> {
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

    fn object(&mut self, depth: usize) -> Result<JsonValue<'a>, JsonError> {
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

    fn array(&mut self, depth: usize) -> Result<JsonValue<'a>, JsonError> {
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

    /// A string: its source text when no escape comes before the closing
    /// quote, otherwise the stretches between escapes and the escaped
    /// characters copied into one `String`.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect_byte(b'"', "expected '\"'")?;
        let start = self.pos;
        let (end, closed) = self.plain_run()?;
        let head = self.source(start, end)?;
        if closed {
            return Ok(Cow::Borrowed(head));
        }
        let mut out = head.to_owned();
        loop {
            self.escape(&mut out)?;
            let start = self.pos;
            let (end, closed) = self.plain_run()?;
            out.push_str(self.source(start, end)?);
            if closed {
                return Ok(Cow::Owned(out));
            }
        }
    }

    /// Step over string bytes that need no unescaping, then over the `"` or
    /// `\` that ends them: where they end, and whether it was the closing
    /// quote. The input is a `&str`, so a multi-byte character is passed
    /// over whole — none of its bytes is ASCII.
    fn plain_run(&mut self) -> Result<(usize, bool), JsonError> {
        let rest = &self.text.as_bytes()[self.pos..];
        let plain = rest
            .iter()
            .position(|&b| matches!(b, b'"' | b'\\' | 0..=0x1f))
            .unwrap_or(rest.len());
        let end = self.pos + plain;
        self.pos = end;
        match self.bump() {
            Some(b'"') => Ok((end, true)),
            Some(b'\\') => Ok((end, false)),
            Some(_) => Err(self.err("control character in string")),
            None => Err(self.err("unterminated string")),
        }
    }

    /// Append the character of the escape whose `\` was just read.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let cp = self.hex4()?;
                // Surrogates are rejected rather than paired; the protocol
                // never emits them.
                char::from_u32(cp).ok_or_else(|| self.err("invalid \\u escape"))?
            }
            _ => return Err(self.err("invalid escape")),
        };
        out.push(c);
        Ok(())
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

    fn number(&mut self) -> Result<JsonValue<'a>, JsonError> {
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
        self.source(start, self.pos)
            .map(|raw| JsonValue::Num(Cow::Borrowed(raw)))
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
        // Duplicate keys: the first occurrence wins.
        let dup = parse_borrowed(r#"{"op":"stats","op":"quit"}"#).unwrap();
        assert_eq!(dup.get("op").and_then(JsonValue::as_str), Some("stats"));
    }

    #[test]
    fn u64_bit_patterns_round_trip_exactly() {
        for bits in [
            0u64,
            1,
            9,
            10,
            u64::MAX,
            0x7ff8_dead_beef_0001,
            f64::to_bits(0.1),
        ] {
            let mut w = Writer::default();
            w.obj(|w| w.key("x").u64(bits));
            let text = w.finish();
            assert_eq!(text, format!("{{\"x\":{bits}}}"));
            let v = parse_borrowed(&text).unwrap();
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
    fn write_random(rng: &mut SplitMix64, w: &mut Writer, depth: usize) -> JsonValue<'static> {
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
                let read = JsonValue::Num(n.to_string().into());
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
                let read = JsonValue::Num(format!("{x:?}").into());
                assert_eq!(read.as_f64().map(f64::to_bits), Some(x.to_bits()));
                read
            }
            5 => {
                let s = random_string(rng);
                w.str(&s);
                JsonValue::Str(s.into())
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
                    (key.into(), value)
                });
                fields.collect()
            })),
        }
    }

    /// `depth` containers, arrays and objects by turns, around an empty array.
    fn write_nest(w: &mut Writer, depth: usize) -> JsonValue<'static> {
        if depth.is_multiple_of(2) {
            let mut inner = Vec::new();
            w.arr(0..depth.min(1), |w, _| inner.push(write_nest(w, depth - 1)));
            JsonValue::Arr(inner)
        } else {
            JsonValue::Obj(w.obj(|w| vec![("".into(), write_nest(w.key(""), depth - 1))]))
        }
    }

    #[test]
    fn written_documents_read_back_value_for_value() {
        let read_back = |write: &mut dyn FnMut(&mut Writer) -> JsonValue<'static>| {
            let mut w = Writer::default();
            let wrote = write(&mut w);
            let text = w.finish();
            assert_eq!(parse_borrowed(&text).as_ref(), Ok(&wrote), "{text}");
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

    /// Whether byte `b` of a string must be written escaped.
    fn needs_escape(b: u8) -> bool {
        matches!(b, b'"' | b'\\' | 0..=0x1f)
    }

    #[test]
    fn the_word_at_a_time_check_is_the_byte_predicate() {
        // Every byte value at every position of every length up to three
        // words and a tail, in a string that is otherwise clean: bytes one
        // by one, two halves in a word, whole words and an overlapping last.
        for len in 1..=25 {
            for at in 0..len {
                for b in 0..=u8::MAX {
                    let mut bytes = vec![b'a'; len];
                    bytes[at] = b;
                    assert_eq!(has_escape(&bytes), needs_escape(b), "{bytes:?}");
                }
            }
        }
        assert!(!has_escape(b""));
        assert!(!has_escape("é日😀\u{7f}".as_bytes()));
    }

    #[test]
    fn integers_are_written_as_display_writes_them() {
        let mut rng = SplitMix64::new(0x00d1_6175);
        let mut edges = vec![0, u64::MAX];
        let mut power = 1u64;
        while let Some(next) = power.checked_mul(10) {
            edges.extend([power - 1, power, power + 1]);
            power = next;
        }
        let random = (0..2000).map(|_| rng.next_u64() >> rng.gen_range(64));
        for v in edges.into_iter().chain(random) {
            let mut w = Writer::default();
            w.u64(v);
            assert_eq!(w.finish(), v.to_string());
        }
    }

    /// `serve_cached`'s request lines, as the repo benchmark writes them
    /// (`{:?}` scales), one per workload kind, plus an `execute` line with
    /// escapes in a key, a value and an array element.
    const REQUEST_LINES: [&str; 7] = [
        r#"{"op":"optimize","workload":{"kind":"wordcount","scale":100000.0}}"#,
        r#"{"op":"optimize","workload":{"kind":"tpch_q3","scale":20000000.0}}"#,
        r#"{"op":"optimize","workload":{"kind":"pipeline","ops":24,"scale":500000.0}}"#,
        r#"{"op":"optimize","workload":{"kind":"random_dag","seed":10027,"ops":10,"density":0.2}}"#,
        r#"{"op":"optimize","workload":{"kind":"pagerank","scale":1000000.0,"iterations":10}}"#,
        r#"{"op":"optimize","workload":{"kind":"kmeans","scale":50000000.0,"iterations":10}}"#,
        r#"{"op":"execute","workload":{"kind":"wordcount","scale":1e4},"backend":"simulator","assignments":["java","sp\/ark","fl\"ink"]}"#,
    ];

    /// Whether `new` is `old`, value for value.
    fn same(new: &JsonValue<'_>, old: &reference::Value) -> bool {
        use reference::Value as Old;
        match (new, old) {
            (JsonValue::Null, Old::Null) => true,
            (JsonValue::Bool(a), Old::Bool(b)) => a == b,
            (JsonValue::Num(a), Old::Num(b)) | (JsonValue::Str(a), Old::Str(b)) => a == b,
            (JsonValue::Arr(a), Old::Arr(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
            }
            (JsonValue::Obj(a), Old::Obj(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|((k, x), (l, y))| k == l && same(x, y))
            }
            _ => false,
        }
    }

    /// Every key and string of `v` in document order, and every number.
    fn leaves<'v, 'a>(
        v: &'v JsonValue<'a>,
        strings: &mut Vec<&'v Cow<'a, str>>,
        numbers: &mut Vec<&'v Cow<'a, str>>,
    ) {
        match v {
            JsonValue::Null | JsonValue::Bool(_) => {}
            JsonValue::Num(raw) => numbers.push(raw),
            JsonValue::Str(s) => strings.push(s),
            JsonValue::Arr(items) => items.iter().for_each(|x| leaves(x, strings, numbers)),
            JsonValue::Obj(fields) => {
                for (k, x) in fields {
                    strings.push(k);
                    leaves(x, strings, numbers);
                }
            }
        }
    }

    /// Each string of a well-formed document, keys included, in source
    /// order: the span between its quotes, and whether it holds an escape.
    fn string_spans(text: &str) -> Vec<(std::ops::Range<usize>, bool)> {
        let bytes = text.as_bytes();
        let mut spans = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            if bytes[at] == b'"' {
                let start = at + 1;
                let mut escaped = false;
                at = start;
                while bytes[at] != b'"' {
                    escaped |= bytes[at] == b'\\';
                    at += if bytes[at] == b'\\' { 2 } else { 1 };
                }
                spans.push((start..at, escaped));
            }
            at += 1;
        }
        spans
    }

    /// The zero-copy path is the one taken: a string is borrowed — and is
    /// then exactly its source span — precisely when that span has no
    /// escape, and every number is borrowed from the input.
    fn assert_borrows_where_it_can(text: &str, doc: &JsonValue<'_>) {
        let (mut strings, mut numbers) = (Vec::new(), Vec::new());
        leaves(doc, &mut strings, &mut numbers);
        let spans = string_spans(text);
        assert_eq!(strings.len(), spans.len(), "{text:?}");
        for (s, (span, escaped)) in strings.into_iter().zip(spans) {
            match s {
                Cow::Borrowed(b) => {
                    assert!(!escaped, "{text:?}: {b:?} borrowed an escape");
                    assert!(std::ptr::eq(*b, &text[span]), "{text:?}: {b:?}");
                }
                Cow::Owned(o) => assert!(escaped, "{text:?}: {o:?} copied without an escape"),
            }
        }
        let input = text.as_bytes().as_ptr_range();
        for raw in numbers {
            assert!(
                matches!(raw, Cow::Borrowed(b) if input.contains(&b.as_ptr())),
                "{text:?}: {raw:?} is not borrowed"
            );
        }
    }

    /// One input through both entry points, the reference and the two
    /// consumers of the borrowing one; whether it parsed.
    fn check(text: &str) -> bool {
        let expected = reference::parse(text);
        let borrowed = parse_borrowed(text);
        let detached = parse(text);
        match (&expected, &borrowed, &detached) {
            (Ok(old), Ok(new), Ok(owned)) => {
                assert!(same(new, old) && same(owned, old), "{text:?}");
                assert_borrows_where_it_can(text, new);
            }
            (Err(old), Err(new), Err(owned)) => {
                assert!(
                    old == new && old == owned,
                    "{text:?}: {old} / {new} / {owned}"
                );
            }
            _ => panic!("{text:?}: {expected:?} / {borrowed:?} / {detached:?}"),
        }
        // Both consumers answer with a typed error, never a panic, and a
        // JSON error reaches them as the parser's, position and message.
        let request = crate::wire::parse_request(text);
        let forest = crate::persist::forest_from_json(text).map(|_| ());
        let Err(e) = expected else {
            return true;
        };
        assert_eq!(request, Err(crate::ServiceError::Parse(e.to_string())));
        assert_eq!(forest, Err(crate::PersistError::Json(e)));
        false
    }

    /// One byte-level mutation of `text`; an invalid UTF-8 result is read
    /// lossily, as a `&str` front door would have to.
    fn mutate(rng: &mut SplitMix64, text: &str) -> String {
        const SPLICES: [&str; 12] = [
            "\\\"", "\\\\", "é", "日", "😀", "\"", "\\", "\\u00e9", "\\ud83d", "\\u", ",", "}",
        ];
        const NUMBERS: [&str; 9] = [
            "18446744073709551616",
            "18446744073709551615",
            "1e400",
            "-1e400",
            "1e-400",
            "-0",
            "-0.0",
            "4294967296",
            "01",
        ];
        let mut bytes = text.as_bytes().to_vec();
        let at = rng.gen_range(bytes.len() + 1);
        let pick = |rng: &mut SplitMix64, marks: Vec<usize>| {
            (!marks.is_empty()).then(|| marks[rng.gen_range(marks.len())])
        };
        match rng.gen_range(6) {
            0 => {
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= 1 << rng.gen_range(8);
                }
            }
            1 => bytes.insert(at, rng.next_u64() as u8),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => {
                // Next to a quote or an escape.
                let marks = (0..bytes.len()).filter(|&i| matches!(bytes[i], b'"' | b'\\'));
                if let Some(mark) = pick(rng, marks.collect()) {
                    let splice = SPLICES[rng.gen_range(SPLICES.len())].bytes();
                    let at = mark + rng.gen_range(2);
                    bytes.splice(at..at, splice);
                }
            }
            4 => {
                // A number replaced whole.
                let starts = (1..bytes.len()).filter(|&i| {
                    matches!(bytes[i], b'-' | b'0'..=b'9')
                        && matches!(bytes[i - 1], b':' | b',' | b'[')
                });
                if let Some(start) = pick(rng, starts.collect()) {
                    let len = bytes[start..]
                        .iter()
                        .position(|b| !matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                        .unwrap_or(bytes.len() - start);
                    let number = NUMBERS[rng.gen_range(NUMBERS.len())].bytes();
                    bytes.splice(start..start + len, number);
                }
            }
            _ => {
                // A member repeated in front of itself: a duplicate key.
                let opens = (0..bytes.len()).filter(|&i| bytes[i] == b'{');
                if let Some(open) = pick(rng, opens.collect()) {
                    let end = bytes[open..].iter().position(|&b| b == b',');
                    if let Some(end) = end {
                        let member = bytes[open + 1..=open + end].to_vec();
                        bytes.splice(open + 1..open + 1, member);
                    }
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Generated inputs at the parser boundary: serve_cached request lines, the
    /// golden response lines of `wire.rs` and a saved 2-tree forest,
    /// truncated at every byte, mutated, and nested around the depth cap.
    #[test]
    fn generated_inputs_parse_as_the_reference_does() {
        let replies = crate::wire::tests::golden_responses();
        let seeds: Vec<&str> = REQUEST_LINES
            .into_iter()
            .chain(replies.iter().map(|(_, line)| line.as_str()))
            .chain([crate::persist::tests::TWO_TREE_FOREST])
            .collect();
        // The seeds themselves are what they claim to be.
        for line in &REQUEST_LINES[..6] {
            assert!(matches!(
                crate::wire::parse_request(line),
                Ok(crate::Request::Optimize(_))
            ));
        }
        assert!(crate::persist::forest_from_json(crate::persist::tests::TWO_TREE_FOREST).is_ok());

        let mut rng = SplitMix64::new(0x0005_eed5);
        let (mut cases, mut parsed) = (0, 0);
        let mut count = |ok: bool| {
            cases += 1;
            parsed += usize::from(ok);
        };
        for seed in &seeds {
            for cut in 0..=seed.len() {
                count(check(&String::from_utf8_lossy(&seed.as_bytes()[..cut])));
            }
            for _ in 0..1000 {
                let mut text = seed.to_string();
                for _ in 0..1 + rng.gen_range(3) {
                    text = mutate(&mut rng, &text);
                }
                count(check(&text));
            }
            for depth in MAX_DEPTH - 2..=MAX_DEPTH + 1 {
                count(check(&format!(
                    "{}{seed}{}",
                    "[".repeat(depth),
                    "]".repeat(depth)
                )));
            }
        }
        // Around the cap: the innermost value at depth `MAX_DEPTH` parses,
        // one deeper is refused, and truncations of both are errors.
        for depth in MAX_DEPTH - 1..=MAX_DEPTH + 2 {
            let arrays = format!("{}{}", "[".repeat(depth + 1), "]".repeat(depth + 1));
            let objects = format!("{}null{}", "{\"a\":".repeat(depth), "}".repeat(depth));
            for text in [&arrays, &objects] {
                let result = parse_borrowed(text);
                assert_eq!(result.is_ok(), depth <= MAX_DEPTH, "{text}");
                if let Err(e) = result {
                    assert_eq!(e.msg, "nesting too deep");
                }
                assert_eq!(check(text), depth <= MAX_DEPTH);
                assert!(!check(&text[..text.len() / 2]));
            }
        }
        // Enough of both outcomes that each comparison above has teeth.
        assert!(
            cases > 15_000 && parsed > 2_000,
            "{parsed} of {cases} parsed"
        );
    }

    /// The parser this one replaced, kept as the reference for the
    /// generated-input test below: every key, string and number copied into
    /// its own `String`, a string unescaped one byte at a time.
    mod reference {
        use super::super::{JsonError, MAX_DEPTH};

        fn utf8_len(first: u8) -> usize {
            match first {
                0xF0..=0xF7 => 4,
                0xE0..=0xEF => 3,
                0xC0..=0xDF => 2,
                _ => 1,
            }
        }

        #[derive(Debug, Clone, PartialEq)]
        pub enum Value {
            Null,
            Bool(bool),
            Num(String),
            Str(String),
            Arr(Vec<Value>),
            Obj(Vec<(String, Value)>),
        }

        pub fn parse(text: &str) -> Result<Value, JsonError> {
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

            fn literal(&mut self, lit: &str, value: Value) -> Result<Value, JsonError> {
                if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                    self.pos += lit.len();
                    Ok(value)
                } else {
                    Err(self.err("invalid literal"))
                }
            }

            fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
                if depth > MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                match self.peek() {
                    Some(b'{') => self.object(depth),
                    Some(b'[') => self.array(depth),
                    Some(b'"') => self.string().map(Value::Str),
                    Some(b't') => self.literal("true", Value::Bool(true)),
                    Some(b'f') => self.literal("false", Value::Bool(false)),
                    Some(b'n') => self.literal("null", Value::Null),
                    Some(b'-' | b'0'..=b'9') => self.number(),
                    Some(_) => Err(self.err("unexpected character")),
                    None => Err(self.err("unexpected end of input")),
                }
            }

            fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
                self.expect_byte(b'{', "expected '{'")?;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
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
                        Some(b'}') => return Ok(Value::Obj(fields)),
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }

            fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
                self.expect_byte(b'[', "expected '['")?;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Value::Arr(items)),
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
                                match char::from_u32(cp) {
                                    Some(c) => out.push(c),
                                    None => return Err(self.err("invalid \\u escape")),
                                }
                            }
                            _ => return Err(self.err("invalid escape")),
                        },
                        Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                        Some(b) => {
                            let start = self.pos - 1;
                            let len = utf8_len(b);
                            for _ in 1..len {
                                self.bump();
                            }
                            match std::str::from_utf8(
                                self.bytes.get(start..self.pos).unwrap_or(b""),
                            ) {
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

            fn number(&mut self) -> Result<Value, JsonError> {
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
                Ok(Value::Num(raw.to_string()))
            }
        }
    }
}
