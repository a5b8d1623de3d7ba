//! A minimal JSON value, writer, pull reader and parser.
//!
//! The workspace is dependency-free by policy, so the telemetry layer
//! carries its own JSON support: enough of RFC 8259 to round-trip metrics
//! snapshots, emit Chrome `trace_events` files and carry campaign wire
//! lines. Integers are kept exact (`u64`/`i64` variants) rather than
//! coerced through `f64`, so counter values survive a round-trip
//! bit-for-bit.
//!
//! There is one tokenizer, [`JsonReader`]: a pull reader over a
//! document's text that a decoder walks field by field, reading numbers
//! and strings in place and skipping what it does not know, with no tree
//! in between. [`Json::parse`] is that reader building a [`Json`] value,
//! so a malformed document fails with the same message at the same byte
//! whichever way it is read. On the way out, [`write_u64`] and
//! [`write_string`] append straight to a `String`; [`Json::write`] is
//! built on them.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// The deepest array/object nesting a [`JsonReader`] (and so
/// [`Json::parse`]) accepts. Every document this workspace writes nests
/// at most about seven levels; the cap keeps the recursive tree builder's
/// stack bounded on hostile input.
const MAX_DEPTH: usize = 128;

/// A JSON value.
///
/// Objects preserve insertion order (they are association lists, not maps)
/// so emitted documents are stable and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, kept exact.
    Uint(u64),
    /// A negative integer, kept exact.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Uint(n) => Some(n),
            _ => None,
        }
    }

    /// The value as an `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Uint(n) => Some(n as f64),
            Json::Int(n) => Some(n as f64),
            Json::Float(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object's fields, in document order.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset on malformed input,
    /// arrays and objects nested more than 128 deep, or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut reader = JsonReader::new(text);
        let value = reader.value()?;
        reader.finish()?;
        Ok(value)
    }

    /// Appends the value as compact JSON to `out`: what `Display` writes.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Uint(n) => write_u64(out, *n),
            Json::Int(n) => {
                if *n < 0 {
                    out.push('-');
                }
                write_u64(out, n.unsigned_abs());
            }
            Json::Float(x) => write_f64(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    item.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Serializes the value as compact JSON.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// `"00"`, `"01"`, ..., `"99"`: two digits per table lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Appends `n` in decimal to `out`. The digits are formatted in a stack
/// buffer, so nothing is allocated beyond `out`'s own growth.
pub fn write_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    out.extend(buf[at..].iter().map(|&digit| char::from(digit)));
}

/// Appends `x` to `out` as a JSON number: Rust's shortest round-trip
/// formatting with a decimal point forced, so the value parses back as a
/// float; `null` if it is not finite.
pub(crate) fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let start = out.len();
        let _ = write!(out, "{x}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Appends `s` to `out` as a quoted JSON string, escaping quotes,
/// backslashes and control characters.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, c) in s.char_indices() {
        let escape = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            c if (c as u32) < 0x20 => None,
            _ => continue,
        };
        // Copy the run of characters that need no escaping in one go.
        out.push_str(&s[plain..i]);
        plain = i + c.len_utf8();
        match escape {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A pull reader over one JSON document: the workspace's one tokenizer.
///
/// A decoder walks the document in order. [`begin_object`] and
/// [`next_key`] step through an object's fields, [`begin_array`] and
/// [`next_item`] through an array's elements, [`u64`] and [`str`] read
/// a value in place, [`skip_value`] passes over one it does not need, and
/// [`read_once`] lets the first of repeated keys win. Every read validates what it passes, skipped values included, so a
/// document is accepted exactly when [`Json::parse`] accepts it, and the
/// first syntax error is reported with the same offset and message. The
/// typed reads never fail on a value of another type: they consume it and
/// return `None`, and the decoder names the field at fault.
///
/// Nesting is capped at 128 levels, skipped values included; skipping
/// holds no stack frame per level.
///
/// [`begin_object`]: JsonReader::begin_object
/// [`next_key`]: JsonReader::next_key
/// [`begin_array`]: JsonReader::begin_array
/// [`next_item`]: JsonReader::next_item
/// [`u64`]: JsonReader::u64
/// [`str`]: JsonReader::str
/// [`skip_value`]: JsonReader::skip_value
/// [`read_once`]: JsonReader::read_once
#[derive(Debug, Clone)]
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
    /// Bit `d` is set when the container at depth `d + 1` is an object.
    objects: u128,
    /// The innermost container already holds a member, so a `,` or its
    /// close comes next.
    filled: bool,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        JsonReader {
            text,
            pos: 0,
            depth: 0,
            objects: 0,
            filled: false,
        }
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
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

    /// Enters the array or object whose bracket is at `pos`, at most
    /// [`MAX_DEPTH`] levels deep.
    fn open(&mut self, object: bool) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        let bit = 1u128 << self.depth;
        if object {
            self.objects |= bit;
        } else {
            self.objects &= !bit;
        }
        self.depth += 1;
        self.pos += 1;
        self.filled = false;
        Ok(())
    }

    /// Leaves the innermost container at its closing bracket; the
    /// container is now a member of the one around it.
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
        self.filled = true;
    }

    /// Opens the next value if it is an object and returns `true`;
    /// otherwise skips it and returns `false`.
    ///
    /// # Errors
    ///
    /// A syntax error in the value, or nesting past 128 levels.
    pub fn begin_object(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.peek() == Some(b'{') {
            self.open(true)?;
            Ok(true)
        } else {
            self.skip_value()?;
            Ok(false)
        }
    }

    /// The next key of the object open innermost, with its `:` consumed
    /// so its value comes next, or `None` once the object closes.
    ///
    /// # Errors
    ///
    /// A syntax error between or in the members.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        if self.filled {
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.close();
                    return Ok(None);
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        } else if self.peek() == Some(b'}') {
            self.close();
            return Ok(None);
        }
        let key = self.string()?;
        // The common case first: the colon straight after the key.
        if self.peek() == Some(b':') {
            self.pos += 1;
        } else {
            self.skip_ws();
            self.expect(b':')?;
        }
        Ok(Some(key))
    }

    /// Opens the next value if it is an array and returns `true`;
    /// otherwise skips it and returns `false`.
    ///
    /// # Errors
    ///
    /// A syntax error in the value, or nesting past 128 levels.
    pub fn begin_array(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.peek() == Some(b'[') {
            self.open(false)?;
            Ok(true)
        } else {
            self.skip_value()?;
            Ok(false)
        }
    }

    /// `true` when another element of the array open innermost comes
    /// next, `false` once the array closes.
    ///
    /// # Errors
    ///
    /// A syntax error between the elements.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        // The common case first: a comma straight after an element.
        if self.filled && self.peek() == Some(b',') {
            self.pos += 1;
            return Ok(true);
        }
        self.skip_ws();
        if self.filled {
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    Ok(true)
                }
                Some(b']') => {
                    self.close();
                    Ok(false)
                }
                _ => Err(self.err("expected ',' or ']'")),
            }
        } else if self.peek() == Some(b']') {
            self.close();
            Ok(false)
        } else {
            Ok(true)
        }
    }

    /// Reads the next value: `Some` if it is an integer that fits a
    /// `u64`, `None` (the value consumed) if it is anything else —
    /// `2.5`, `-1`, `"7"` and 2^64 included.
    ///
    /// # Errors
    ///
    /// A syntax error in the value.
    #[inline]
    pub fn u64(&mut self) -> Result<Option<u64>, JsonError> {
        self.skip_ws();
        // Fast path: up to 19 digits, which no u64 overflows, and no
        // fraction or exponent after them.
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut end = start;
        let mut n = 0u64;
        while let Some(digit) = bytes.get(end).map(|b| b.wrapping_sub(b'0')) {
            if digit > 9 {
                break;
            }
            n = n.wrapping_mul(10).wrapping_add(u64::from(digit));
            end += 1;
        }
        if (1..20).contains(&(end - start)) && !matches!(bytes.get(end), Some(b'.' | b'e' | b'E')) {
            self.pos = end;
            self.filled = true;
            return Ok(Some(n));
        }
        self.other_u64()
    }

    /// [`u64`](Self::u64) off its fast path: a value read whole, which is
    /// a `u64` exactly when [`Json::parse`] reads it as [`Json::Uint`].
    #[cold]
    fn other_u64(&mut self) -> Result<Option<u64>, JsonError> {
        if matches!(self.peek(), Some(b'{' | b'[')) {
            self.skip_value()?;
            return Ok(None);
        }
        Ok(self.scalar()?.as_u64())
    }

    /// Reads the next value: `Some` if it is a string (borrowed from the
    /// document unless it holds escapes), `None` (the value consumed)
    /// otherwise.
    ///
    /// # Errors
    ///
    /// A syntax error in the value.
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            self.skip_value()?;
            return Ok(None);
        }
        let s = self.string()?;
        self.filled = true;
        Ok(Some(s))
    }

    /// Reads the next value into `slot` with `read`, unless an earlier
    /// key of the same name filled it: then the value is skipped, so the
    /// first of repeated keys wins, as with [`Json::get`].
    ///
    /// # Errors
    ///
    /// `read`'s error, or a syntax error in a skipped value.
    pub fn read_once<T>(
        &mut self,
        slot: &mut Option<T>,
        read: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<(), JsonError> {
        if slot.is_some() {
            return self.skip_value();
        }
        *slot = Some(read(self)?);
        Ok(())
    }

    /// Passes over the next value, validating it. Containers are walked
    /// in a loop, not by recursion.
    ///
    /// # Errors
    ///
    /// A syntax error in the value, or nesting past 128 levels.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        let base = self.depth;
        loop {
            self.skip_ws();
            let member_next = match self.peek() {
                Some(b'{') => {
                    self.open(true)?;
                    self.next_key()?.is_some()
                }
                Some(b'[') => {
                    self.open(false)?;
                    self.next_item()?
                }
                Some(b'"') => {
                    self.string()?;
                    self.filled = true;
                    false
                }
                _ => {
                    self.scalar()?;
                    false
                }
            };
            if member_next {
                continue;
            }
            // A value just ended: step to the next member of the
            // innermost container, closing those that end here.
            loop {
                if self.depth == base {
                    return Ok(());
                }
                let in_object = (self.objects >> (self.depth - 1)) & 1 == 1;
                let more = if in_object {
                    self.next_key()?.is_some()
                } else {
                    self.next_item()?
                };
                if more {
                    break;
                }
            }
        }
    }

    /// Reads the next value as a [`Json`] tree.
    ///
    /// # Errors
    ///
    /// A syntax error in the value, or nesting past 128 levels.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.open(true)?;
                let mut fields = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    fields.push((key.into_owned(), value));
                }
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.open(false)?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            _ => self.scalar(),
        }
    }

    /// Skips whitespace and returns the offset where the next value
    /// starts, for [`since`](Self::since).
    #[inline]
    pub fn mark(&mut self) -> usize {
        self.skip_ws();
        self.pos
    }

    /// The document's text from `mark` (a [`mark`](Self::mark)) to the
    /// reader's position: the values read since.
    pub fn since(&self, mark: usize) -> &'a str {
        self.text.get(mark..self.pos).unwrap_or_default()
    }

    /// Checks that nothing but whitespace follows the value read.
    ///
    /// # Errors
    ///
    /// Trailing characters after the document.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after document"))
        }
    }

    /// Reads a string, number or literal at `pos`.
    fn scalar(&mut self) -> Result<Json, JsonError> {
        let value = match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(|s| Json::Str(s.into_owned())),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }?;
        self.filled = true;
        Ok(value)
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// The text from `start` to `pos`: a run of a string's bytes that
    /// starts and ends next to ASCII, so on character boundaries.
    fn run(&self, start: usize) -> Result<&'a str, JsonError> {
        self.text
            .get(start..self.pos)
            .ok_or_else(|| self.err("invalid utf-8 in string"))
    }

    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let plain = |b: u8| b != b'"' && b != b'\\';
        let start = self.pos;
        let bytes = self.text.as_bytes();
        self.pos += bytes[start..].iter().take_while(|&&b| plain(b)).count();
        // Fast path: no escapes, so the string is a slice of the text.
        if self.peek() == Some(b'"') {
            let s = self.run(start)?;
            self.pos += 1;
            return Ok(Cow::Borrowed(s));
        }
        let mut out = String::from(self.run(start)?);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let simple = match self.peek() {
                        Some(b'"') => Some('"'),
                        Some(b'\\') => Some('\\'),
                        Some(b'/') => Some('/'),
                        Some(b'b') => Some('\u{8}'),
                        Some(b'f') => Some('\u{c}'),
                        Some(b'n') => Some('\n'),
                        Some(b'r') => Some('\r'),
                        Some(b't') => Some('\t'),
                        Some(b'u') => None,
                        _ => return Err(self.err("invalid escape")),
                    };
                    self.pos += 1;
                    let c = match simple {
                        Some(c) => c,
                        None => self
                            .unicode_escape()?
                            .ok_or_else(|| self.err("invalid \\u escape"))?,
                    };
                    out.push(c);
                }
                _ => return Err(self.err("unterminated string")),
            }
            let run = self.pos;
            while matches!(self.peek(), Some(b) if plain(b)) {
                self.pos += 1;
            }
            out.push_str(self.run(run)?);
        }
    }

    /// The character of a `\u` escape whose hex digits start at `pos`,
    /// joining a surrogate pair; `None` for a lone or mismatched
    /// surrogate.
    fn unicode_escape(&mut self) -> Result<Option<char>, JsonError> {
        let cp = self.hex4()?;
        if !(0xd800..0xdc00).contains(&cp) {
            return Ok(char::from_u32(cp));
        }
        if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
            return Ok(None);
        }
        self.pos += 2;
        let lo = self.hex4()?;
        if !(0xdc00..0xe000).contains(&lo) {
            return Ok(None);
        }
        Ok(char::from_u32(
            0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00),
        ))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let slice = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Every byte scanned is ASCII, so this slice cannot fail.
        let text = self.text.get(start..self.pos).unwrap_or_default();
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Uint(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| JsonError {
            at: start,
            message: format!("invalid number '{text}'"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for doc in ["null", "true", "false", "0", "18446744073709551615", "-7"] {
            let v = Json::parse(doc).unwrap();
            assert_eq!(v.to_string(), doc);
        }
    }

    #[test]
    fn large_u64_survives_exactly() {
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        let v = Json::Float(2.0);
        assert_eq!(v.to_string(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn objects_preserve_order() {
        let doc = r#"{"z":1,"a":[2,3],"m":{"k":"v"}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.to_string(), doc);
        assert_eq!(v.get("z").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("a\"b\\c\nd\te\u{1}π\r".to_string());
        assert_eq!(original.to_string(), r#""a\"b\\c\nd\te\u0001π\r""#);
        let parsed = Json::parse(&original.to_string()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn nesting_is_capped_with_the_offset_of_the_first_bracket_too_deep() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        // `{"v":` then far more brackets than any stack holds frames for.
        let hostile = format!("{{\"v\":{}", "[".repeat(200_000));
        let err = Json::parse(&hostile).unwrap_err();
        assert_eq!(err.at, 5 + MAX_DEPTH - 1, "{err}");
        assert!(err.message.contains("nesting deeper than"), "{err}");
    }

    /// Skipping a document validates it exactly as parsing it does: the
    /// same verdict, and for a malformed one the same offset and message.
    #[test]
    fn skipping_reports_what_parsing_reports() {
        for doc in [
            r#"{"a":[1,2.5,-3,1e9,"s\u00e9\n",true,false,null],"b":{}}"#,
            "[]",
            " 7 ",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{,}",
            "[1 2]",
            "[1,]",
            "[-]",
            "[tru]",
            "{\"a\":\"\\q\"}",
            "\"\\ud800\\u0041\"",
            "\"\\ud83d\\ude00\"",
            "\"\\u12\"",
            "\"open",
            "{} x",
            "",
        ] {
            let mut reader = JsonReader::new(doc);
            let skipped = reader.skip_value().and_then(|()| reader.finish());
            assert_eq!(skipped, Json::parse(doc).map(|_| ()), "{doc}");
        }
    }

    #[test]
    fn a_mismatched_surrogate_pair_is_an_invalid_escape() {
        let err = Json::parse(r#""\ud800\u0041""#).unwrap_err();
        assert_eq!(err.message, "invalid \\u escape");
        let pair = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(pair.as_str(), Some("\u{1f600}"));
    }

    /// A skipped value nested far past the cap fails at the cap's bracket
    /// and holds no stack frame per level.
    #[test]
    fn skipping_caps_nesting_without_recursion() {
        let ok = format!(
            "{}0{}",
            "[{\"k\":".repeat(MAX_DEPTH / 2),
            "}]".repeat(MAX_DEPTH / 2)
        );
        assert!(JsonReader::new(&ok).skip_value().is_ok());
        let hostile = format!("{{\"v\":{}", "[".repeat(100_000));
        let mut reader = JsonReader::new(&hostile);
        assert!(reader.begin_object().unwrap());
        assert_eq!(reader.next_key().unwrap().as_deref(), Some("v"));
        let err = reader.skip_value().unwrap_err();
        assert_eq!(err.at, 5 + MAX_DEPTH - 1, "{err}");
        assert!(err.message.contains("nesting deeper than"), "{err}");
    }

    /// Typed reads take what they expect and consume anything else,
    /// keys in any order and unknown ones skipped.
    #[test]
    fn typed_reads_walk_an_object() {
        let doc = r#" { "n" : 18446744073709551615 , "s":"a\"b", "x":{"y":[1,{}]},
            "bad":[2.5,-1,"7",18446744073709551616,1e3,007] } "#;
        let mut reader = JsonReader::new(doc);
        assert!(reader.begin_object().unwrap());
        let mut seen = Vec::new();
        while let Some(key) = reader.next_key().unwrap() {
            match &*key {
                "n" => assert_eq!(reader.u64().unwrap(), Some(u64::MAX)),
                "s" => assert_eq!(reader.str().unwrap().as_deref(), Some("a\"b")),
                "bad" => {
                    assert!(reader.begin_array().unwrap());
                    let mut read = Vec::new();
                    while reader.next_item().unwrap() {
                        read.push(reader.u64().unwrap());
                    }
                    assert_eq!(read, [None, None, None, None, None, Some(7)]);
                }
                _ => {
                    let mark = reader.mark();
                    assert_eq!(reader.str().unwrap(), None);
                    assert_eq!(reader.since(mark), r#"{"y":[1,{}]}"#);
                }
            }
            seen.push(key.into_owned());
        }
        reader.finish().unwrap();
        assert_eq!(seen, ["n", "s", "x", "bad"]);
    }

    #[test]
    fn integers_format_as_display_does() {
        for n in [0, 7, 10, 99, 100, 12345, u64::MAX / 3, u64::MAX] {
            let mut out = String::from("x");
            write_u64(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
        assert_eq!(Json::Int(i64::MIN).to_string(), i64::MIN.to_string());
        assert_eq!(Json::Int(5).to_string(), "5");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }
}
