//! The pull parser [`Deserialize`] impls read from, its error type, and
//! the helpers the derive output and the hand-written impls share.
//!
//! A [`Deserializer`] walks JSON text one token at a time: [`peek`]
//! names the kind of the next value, the scalar readers consume one, and
//! [`open_object`]/[`next_key`] and [`open_array`]/[`next_element`] step
//! through containers. Keys and escape-free strings are borrowed from the
//! input, so matching a field name allocates nothing.
//!
//! Errors keep the shape a parse-then-convert pipeline gives:
//!
//! - A syntax error anywhere in the document wins over any type error.
//!   [`from_str`] re-scans the text for one whenever a typed read fails,
//!   and a syntax error carries its line and column.
//! - A struct reports its first failing field in declaration order, with
//!   the field name as a breadcrumb (`device.max_res: ...`). [`Field`]
//!   holds each field's outcome until the object ends, so a type error in
//!   a duplicate key that a later one overrides is not an error.
//! - Fixed-length arrays check their length before their elements.
//!
//! [`peek`]: Deserializer::peek
//! [`open_object`]: Deserializer::open_object
//! [`next_key`]: Deserializer::next_key
//! [`open_array`]: Deserializer::open_array
//! [`next_element`]: Deserializer::next_element

use std::borrow::Cow;
use std::fmt;

use crate::value::Number;
use crate::Deserialize;

/// Deepest nesting of arrays and objects a document may have. Deeper
/// input is a typed error, not a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Why JSON text could not be read as the requested type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }

    /// Prefixes the message with the field/variant that failed, producing
    /// breadcrumbs like `architecture.device.max_res: expected array`.
    pub fn contextualize(self, context: &str) -> Self {
        Error {
            message: format!("{context}: {}", self.message),
        }
    }

    /// "expected X for `Ty`, found Y" — type mismatch at a derive site.
    pub fn expected(what: &str, ty: &str, found: Kind) -> Self {
        Error::new(format!("expected {what} for `{ty}`, found {found}"))
    }

    /// A required field was absent from the object.
    pub fn missing_field(field: &str, ty: &str) -> Self {
        Error::new(format!("missing field `{field}` in `{ty}`"))
    }

    /// An enum tag did not match any variant.
    pub fn unknown_variant(variant: &str, ty: &str) -> Self {
        Error::new(format!("unknown variant `{variant}` for `{ty}`"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// The kind of a JSON value, named in type errors ("found string").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` / `false`
    Bool,
    /// Any number.
    Number,
    /// A string.
    String,
    /// An array.
    Array,
    /// An object.
    Object,
}

impl Kind {
    /// A short noun for error messages ("string", "array", ...).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "boolean",
            Kind::Number => "number",
            Kind::String => "string",
            Kind::Array => "array",
            Kind::Object => "object",
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// `b` in every byte of a word.
const fn broadcast(b: u8) -> u64 {
    u64::from_le_bytes([b; 8])
}

/// True for a byte that ends a plain string run: `"`, `\`, or one of the
/// control characters U+0000–U+001F, which JSON allows only escaped.
#[inline]
fn ends_run(b: u8) -> bool {
    matches!(b, b'"' | b'\\' | 0x00..=0x1f)
}

/// The bytes of `w` (little-endian) for which [`ends_run`] holds, as
/// their high bits. Only the lowest set bit is exact: a match can set
/// spurious bits above it.
#[inline]
fn run_ends(w: u64) -> u64 {
    const HIGH: u64 = broadcast(0x80);
    let zero_bytes = |v: u64| v.wrapping_sub(broadcast(0x01)) & !v & HIGH;
    let below_space = w.wrapping_sub(broadcast(0x20)) & !w & HIGH;
    below_space | zero_bytes(w ^ broadcast(b'"')) | zero_bytes(w ^ broadcast(b'\\'))
}

/// Reads one complete JSON document as a `T`.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    let mut de = Deserializer::new(input);
    match T::deserialize(&mut de).and_then(|v| de.end().map(|()| v)) {
        Ok(v) => Ok(v),
        // The typed read stopped at its first problem, which need not be
        // the first syntax error: scan the whole text for one.
        Err(e) => Err(Deserializer::new(input).validate().err().unwrap_or(e)),
    }
}

/// A pull parser over JSON text.
pub struct Deserializer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// Set by `open_*` until the container's first `next_*` call.
    after_open: bool,
}

impl<'a> Deserializer<'a> {
    /// A parser at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Deserializer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
            after_open: false,
        }
    }

    /// A syntax error at the current position (1-based line and column,
    /// like serde_json).
    #[cold]
    fn err(&self, msg: &str) -> Error {
        let consumed = &self.bytes[..self.pos.min(self.bytes.len())];
        let line = 1 + consumed.iter().filter(|&&b| b == b'\n').count();
        let column = 1 + consumed.iter().rev().take_while(|&&b| b != b'\n').count();
        Error::new(format!("{msg} at line {line} column {column}"))
    }

    #[inline]
    fn peek_byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        let bytes = self.bytes;
        let mut pos = self.pos;
        while matches!(bytes.get(pos), Some(b' ' | b'\n' | b'\t' | b'\r')) {
            pos += 1;
            // Pretty JSON indents with runs of spaces: find the end of one
            // eight bytes at a time.
            while let Some(chunk) = bytes[pos..].first_chunk::<8>() {
                let other = u64::from_le_bytes(*chunk) ^ broadcast(b' ');
                if other != 0 {
                    pos += other.trailing_zeros() as usize / 8;
                    break;
                }
                pos += 8;
            }
        }
        self.pos = pos;
    }

    #[inline]
    fn eat(&mut self, b: u8) -> bool {
        if self.peek_byte() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    /// Skips whitespace and names the kind of the next value, or fails
    /// when no value can start here.
    #[inline]
    pub fn peek(&mut self) -> Result<Kind, Error> {
        self.skip_ws();
        match self.peek_byte() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::String),
            Some(b'[') => Ok(Kind::Array),
            Some(b'{') => Ok(Kind::Object),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Kind::Number),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Reads `null`.
    #[inline]
    pub fn null(&mut self) -> Result<(), Error> {
        self.skip_ws();
        self.expect_keyword("null")
    }

    /// Reads `true` or `false`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, Error> {
        self.skip_ws();
        if self.peek_byte() == Some(b't') {
            self.expect_keyword("true").map(|()| true)
        } else {
            self.expect_keyword("false").map(|()| false)
        }
    }

    /// Reads a number. Integers keep their exact value; a float literal
    /// whose value overflows `f64` is an error, and so is any form JSON
    /// does not allow (`01`, `1.`, `-.5`, `1e`).
    #[inline]
    pub fn number(&mut self) -> Result<Number, Error> {
        self.skip_ws();
        let start = self.pos;
        let negative = self.eat(b'-');
        let digits = self.pos;
        // The integer part's value, accumulated while scanning it; `None`
        // once it overflows.
        let mut magnitude = Some(0u64);
        while let Some(d) = self
            .peek_byte()
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d < 10)
        {
            magnitude = magnitude.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(d)));
            self.pos += 1;
        }
        // One or more integer digits, and no leading zero before another.
        let int_digits = self.pos - digits;
        if int_digits == 0 || (int_digits > 1 && self.bytes[digits] == b'0') {
            return Err(self.err("invalid number"));
        }
        if !matches!(self.peek_byte(), Some(b'.' | b'e' | b'E')) {
            return match (negative, magnitude) {
                (false, Some(n)) => Ok(Number::from_u64(n)),
                (true, Some(n)) if n <= i64::MIN.unsigned_abs() => {
                    Ok(Number::from_i64(0i64.wrapping_sub_unsigned(n)))
                }
                _ => Err(self.err("integer out of range")),
            };
        }
        // A fraction and an exponent each need at least one digit.
        if self.eat(b'.') && !self.skip_digits() {
            return Err(self.err("invalid number"));
        }
        if matches!(self.peek_byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek_byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.skip_digits() {
                return Err(self.err("invalid number"));
            }
        }
        let f: f64 = self.src[start..self.pos]
            .parse()
            .map_err(|_| self.err("invalid number"))?;
        if f.is_finite() {
            Ok(Number::from_f64(f))
        } else {
            Err(self.err("number out of range"))
        }
    }

    /// Skips a run of digits; false when there was none.
    #[inline]
    fn skip_digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek_byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// Reads a string, borrowed from the input unless it has escapes.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.skip_ws();
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let end = self.scan_run()?;
            let run = &self.src[self.pos..end];
            self.pos = end;
            match self.peek_byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(_) => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.escape(out)?;
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The end of the run of plain string bytes at the current position
    /// (the next `"`, `\` or end of input). A control character in the
    /// run (U+0000–U+001F; JSON allows every other character raw) is an
    /// error at the run's start.
    #[inline]
    fn scan_run(&self) -> Result<usize, Error> {
        let bytes = self.bytes;
        let mut end = self.pos;
        // Eight bytes at a time up to the first byte that ends the run;
        // byte by byte in the last seven bytes of the input.
        loop {
            let Some(chunk) = bytes[end..].first_chunk::<8>() else {
                while end < bytes.len() && !ends_run(bytes[end]) {
                    end += 1;
                }
                break;
            };
            let ends = run_ends(u64::from_le_bytes(*chunk));
            if ends != 0 {
                end += ends.trailing_zeros() as usize / 8;
                break;
            }
            end += 8;
        }
        match bytes.get(end) {
            Some(b'"' | b'\\') | None => Ok(end),
            Some(_) => Err(self.err("control character in string")),
        }
    }

    /// Decodes the escape sequence at the current `\` into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        self.pos += 1;
        let esc = self
            .peek_byte()
            .ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect \uXXXX low half.
                    self.expect(b'\\')?;
                    self.expect(b'u')?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?);
            }
            _ => return Err(self.err("invalid escape character")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self.src.get(self.pos..self.pos + 4).ok_or_else(|| {
            if self.pos + 4 > self.bytes.len() {
                self.err("truncated unicode escape")
            } else {
                self.err("invalid unicode escape")
            }
        })?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    #[inline]
    fn enter(&mut self, open: u8) -> Result<(), Error> {
        self.skip_ws();
        self.expect(open)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.after_open = true;
        Ok(())
    }

    /// Consumes the `{` of an object; [`Deserializer::next_key`] then
    /// walks its entries.
    #[inline]
    pub fn open_object(&mut self) -> Result<(), Error> {
        self.enter(b'{')
    }

    /// The next key of the object being read, with its `:` consumed (the
    /// caller reads or skips the value), or `None` once its `}` is.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        self.skip_ws();
        if std::mem::take(&mut self.after_open) {
            if self.eat(b'}') {
                self.depth -= 1;
                return Ok(None);
            }
        } else if !self.eat(b',') {
            self.expect(b'}')?;
            self.depth -= 1;
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Consumes the `[` of an array; [`Deserializer::next_element`] then
    /// walks its elements.
    #[inline]
    pub fn open_array(&mut self) -> Result<(), Error> {
        self.enter(b'[')
    }

    /// True when another element follows (the caller reads or skips it),
    /// false once the array's `]` is consumed.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.skip_ws();
        if std::mem::take(&mut self.after_open) {
            if self.eat(b']') {
                self.depth -= 1;
                return Ok(false);
            }
            return Ok(true);
        }
        if self.eat(b',') {
            return Ok(true);
        }
        self.expect(b']')?;
        self.depth -= 1;
        Ok(false)
    }

    /// Reads one value of any kind and discards it, checking it as fully
    /// as reading it would.
    pub fn skip(&mut self) -> Result<(), Error> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::String => self.string().map(drop),
            Kind::Array => {
                self.open_array()?;
                while self.next_element()? {
                    self.skip()?;
                }
                Ok(())
            }
            Kind::Object => {
                self.open_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
        }
    }

    /// Reads a `T`, deferring a type error: the outer `Err` is a syntax
    /// error that ends the parse; on the inner one the value has been
    /// skipped, so the enclosing container can go on.
    #[inline]
    pub(crate) fn deferred<T: Deserialize>(&mut self) -> Result<Result<T, Error>, Error> {
        self.skip_ws();
        let (pos, depth) = (self.pos, self.depth);
        match T::deserialize(self) {
            Ok(v) => Ok(Ok(v)),
            Err(e) => {
                self.pos = pos;
                self.depth = depth;
                self.after_open = false;
                self.skip()?;
                Ok(Err(e))
            }
        }
    }

    /// Reads an array, calling `read(i, self)` once per element (which
    /// must consume it); returns the element count.
    pub(crate) fn elements(
        &mut self,
        mut read: impl FnMut(usize, &mut Self) -> Result<(), Error>,
    ) -> Result<usize, Error> {
        self.open_array()?;
        let mut n = 0;
        while self.next_element()? {
            read(n, self)?;
            n += 1;
        }
        Ok(n)
    }

    /// Reads an object into an [`Object`] index of its keys, so a
    /// hand-written impl can look fields up in any order. Each value is
    /// checked while indexed and read again on lookup: use this where
    /// the validation order matters more than one pass does.
    pub fn object(&mut self, ty: &str) -> Result<Object<'a>, Error> {
        match self.peek()? {
            Kind::Object => {}
            other => return Err(Error::expected("object", ty, other)),
        }
        self.open_object()?;
        let depth = self.depth;
        let mut entries: Vec<(Cow<'a, str>, usize)> = Vec::new();
        while let Some(key) = self.next_key()? {
            self.skip_ws();
            let at = self.pos;
            self.skip()?;
            match entries.iter_mut().find(|(k, _)| *k == key) {
                Some(entry) => entry.1 = at,
                None => entries.push((key, at)),
            }
        }
        Ok(Object {
            src: self.src,
            depth,
            entries,
        })
    }

    /// Consumes trailing whitespace; anything else left is an error.
    fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after JSON value"))
        }
    }

    /// Checks that the rest of the input is exactly one JSON value.
    fn validate(&mut self) -> Result<(), Error> {
        self.skip()?;
        self.end()
    }
}

/// An object read by [`Deserializer::object`]: keys in first-seen order,
/// each pointing at its last value.
pub struct Object<'a> {
    src: &'a str,
    depth: usize,
    entries: Vec<(Cow<'a, str>, usize)>,
}

impl<'a> Object<'a> {
    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the object has no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Keys in first-seen order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_ref())
    }

    /// The first key and a parser at its value.
    pub fn first(&self) -> Option<(&str, Deserializer<'a>)> {
        let (key, at) = self.entries.first()?;
        Some((key, self.at(*at)))
    }

    /// A parser at the value of `key`.
    pub fn value(&self, key: &str) -> Option<Deserializer<'a>> {
        let &(_, at) = self.entries.iter().find(|(k, _)| k == key)?;
        Some(self.at(at))
    }

    /// Reads the value of `key` as a `T`; `None` when the key is absent.
    pub fn get<T: Deserialize>(&self, key: &str) -> Option<Result<T, Error>> {
        self.value(key).map(|mut de| T::deserialize(&mut de))
    }

    fn at(&self, pos: usize) -> Deserializer<'a> {
        Deserializer {
            pos,
            depth: self.depth,
            ..Deserializer::new(self.src)
        }
    }
}

/// One field's outcome while its object is read: absent, read, or a
/// deferred type error. Reading the key again replaces it, so the last
/// duplicate wins.
pub struct Field<T>(Option<Result<T, Error>>);

impl<T: Deserialize> Field<T> {
    /// A field not seen yet.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Field(None)
    }

    /// Reads the field's value at the parser's position.
    pub fn read(&mut self, de: &mut Deserializer<'_>) -> Result<(), Error> {
        self.0 = Some(de.deferred()?);
        Ok(())
    }

    /// Reads the payload of an externally tagged variant whose key `tag`
    /// was just read, then the rest of its object, where a repeat of
    /// `tag` replaces the payload and any other key is skipped.
    pub fn variant(de: &mut Deserializer<'_>, tag: &str) -> Result<Self, Error> {
        let mut field = Field::new();
        field.read(de)?;
        while let Some(key) = de.next_key()? {
            if key == tag {
                field.read(de)?;
            } else {
                de.skip()?;
            }
        }
        Ok(field)
    }

    /// The value; a deferred error gains `name` as its breadcrumb, and an
    /// absent field takes `missing()`.
    pub fn finish(
        self,
        name: &str,
        missing: impl FnOnce() -> Result<T, Error>,
    ) -> Result<T, Error> {
        match self.0 {
            Some(Ok(v)) => Ok(v),
            Some(Err(e)) => Err(e.contextualize(name)),
            None => missing(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn keys_without_escapes_are_borrowed() {
        let mut de = Deserializer::new(r#"{"plain": 1, "esc\naped": 2}"#);
        de.open_object().unwrap();
        assert!(matches!(
            de.next_key().unwrap(),
            Some(Cow::Borrowed("plain"))
        ));
        de.skip().unwrap();
        let key = de.next_key().unwrap().unwrap();
        assert!(matches!(key, Cow::Owned(_)));
        assert_eq!(key, "esc\naped");
        de.skip().unwrap();
        assert_eq!(de.next_key().unwrap(), None);
    }

    #[test]
    fn nesting_beyond_the_limit_is_a_typed_error() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(from_str::<Value>(&ok).is_ok());
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let e = from_str::<Value>(&deep).unwrap_err().to_string();
        assert!(e.starts_with("recursion limit exceeded at line 1"), "{e}");
        // A million unclosed brackets fail the same way, without
        // recursing past the limit.
        let e = from_str::<Vec<u8>>(&"[".repeat(1_000_000)).unwrap_err();
        assert!(e.to_string().starts_with("recursion limit exceeded"), "{e}");
    }

    #[test]
    fn control_characters_in_strings_are_errors_at_the_run_start() {
        for bad in ["\t", "\n", "\r", "\u{1}", "\u{1f}"] {
            let e = from_str::<String>(&format!("\"ab\\\"c{bad}d\"")).unwrap_err();
            assert_eq!(
                e.to_string(),
                "control character in string at line 1 column 6",
                "{bad:?}"
            );
        }
        // JSON forbids only U+0000–U+001F raw: DEL and the C1 controls
        // U+0080–U+009F read back as written.
        for fine in [
            " ", "\u{7f}", "\u{80}", "\u{85}", "\u{9f}", "\u{a0}", "\u{c2}", "é", "😀",
        ] {
            let text = format!("\"a{fine}b\"");
            assert_eq!(from_str::<String>(&text).unwrap(), format!("a{fine}b"));
        }
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for bad in [
            "01", "-01", "00", "1.", "-.5", "1.e5", "1e", "1e+", "-", "-x",
        ] {
            let e = from_str::<Value>(&format!("[{bad}]")).unwrap_err();
            assert!(
                e.to_string().starts_with("invalid number at line 1"),
                "{bad}: {e}"
            );
        }
        for (good, value) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.5", -0.5),
        ]
        .into_iter()
        .chain([("1e3", 1e3), ("1E+3", 1e3), ("2.5e-1", 0.25), ("-0e0", 0.0)])
        {
            let n = Deserializer::new(good)
                .number()
                .unwrap_or_else(|e| panic!("{good}: {e}"));
            assert_eq!(n.as_f64(), Some(value), "{good}");
        }
    }

    #[test]
    fn run_ends_finds_the_first_byte_that_ends_a_run() {
        let first = |w: [u8; 8]| w.iter().position(|&b| ends_run(b));
        let found = |w: [u8; 8]| {
            let ends = run_ends(u64::from_le_bytes(w));
            (ends != 0).then(|| ends.trailing_zeros() as usize / 8)
        };
        // Every byte value at every position, after plain bytes and
        // before bytes that end a run.
        for b in 0..=255u8 {
            for at in 0..8 {
                let mut w = [b'a'; 8];
                w[at] = b;
                w[at + 1..].fill(0);
                assert_eq!(found(w), first(w), "{b:#x} at {at}");
            }
        }
        // Seeded words of mixed bytes.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let w = x.to_le_bytes();
            assert_eq!(found(w), first(w), "{w:?}");
        }
    }

    #[test]
    fn a_syntax_error_anywhere_wins_over_a_type_error() {
        let e = from_str::<Vec<u8>>(r#"["x", 1, ]"#).unwrap_err();
        assert_eq!(e.to_string(), "unexpected character at line 1 column 10");
        let e = from_str::<Vec<u8>>(r#"["x", 1]"#).unwrap_err();
        assert_eq!(e.to_string(), "expected unsigned integer, found string");
    }
}
