//! The JSON writer [`Serialize`] impls write into.
//!
//! One [`Serializer`] produces either compact JSON (`{"a":1}`) or
//! serde_json's pretty form (2-space indent, `"key": value`, empty
//! containers as `{}`/`[]`) straight into a `String`.
//!
//! [`Serialize`]: crate::Serialize

use std::fmt::Write as _;

use crate::Serialize;

/// Writes JSON text into a `String`.
pub struct Serializer {
    out: String,
    pretty: bool,
    depth: usize,
}

impl Serializer {
    /// Bytes reserved up front: the size of a small document (a schedule
    /// event is ~40 bytes), which would otherwise grow through 8, 16 and
    /// 32 bytes first.
    const INITIAL_CAPACITY: usize = 64;

    /// A writer of compact JSON.
    pub fn compact() -> Self {
        Serializer {
            out: String::with_capacity(Self::INITIAL_CAPACITY),
            pretty: false,
            depth: 0,
        }
    }

    /// A writer of 2-space-indented JSON.
    pub fn pretty() -> Self {
        Serializer {
            pretty: true,
            ..Serializer::compact()
        }
    }

    /// The text written so far, its buffer shrunk to fit: callers often
    /// keep encoded documents, and growth by doubling can leave up to
    /// half of a buffer unused. A document that fit the first buffer is
    /// copied out instead: shrinking in place would leave the buffer's
    /// tail as a hole too small for the next document's first buffer,
    /// one per document kept.
    pub fn into_string(mut self) -> String {
        if self.out.capacity() <= Self::INITIAL_CAPACITY {
            return self.out.as_str().to_owned();
        }
        self.out.shrink_to_fit();
        self.out
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, n: u64) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        let mut n = n;
        loop {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        // Only ASCII digits were written.
        self.out
            .push_str(std::str::from_utf8(&buf[at..]).unwrap_or_default());
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, n: i64) {
        if n < 0 {
            self.out.push('-');
        }
        self.u64(n.unsigned_abs());
    }

    /// Writes a float so that it reads back as a float (`1.0`, not `1`).
    /// JSON has no infinities or NaN: those are written as `null`, as
    /// serde_json does.
    pub fn f64(&mut self, x: f64) {
        if x.is_finite() {
            let _ = write!(self.out, "{x:?}");
        } else {
            self.null();
        }
    }

    /// Writes a string literal, escaping `"`, `\` and control characters
    /// below U+0020.
    pub fn str(&mut self, s: &str) {
        let out = &mut self.out;
        out.push('"');
        let mut plain = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0x08 => "\\b",
                0x0c => "\\f",
                0..=0x1f => "",
                _ => continue,
            };
            out.push_str(&s[plain..i]);
            if esc.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.push_str(esc);
            }
            plain = i + 1;
        }
        out.push_str(&s[plain..]);
        out.push('"');
    }

    /// Starts an object; write its entries through the returned
    /// [`Compound`] and close it with [`Compound::end`].
    pub fn object(&mut self) -> Compound<'_> {
        self.open('{', '}')
    }

    /// Starts an array; write its elements through the returned
    /// [`Compound`] and close it with [`Compound::end`].
    pub fn array(&mut self) -> Compound<'_> {
        self.open('[', ']')
    }

    fn open(&mut self, open: char, close: char) -> Compound<'_> {
        self.out.push(open);
        self.depth += 1;
        Compound {
            ser: self,
            close,
            empty: true,
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }
}

/// An object or array being written.
pub struct Compound<'s> {
    ser: &'s mut Serializer,
    close: char,
    empty: bool,
}

impl Compound<'_> {
    /// Writes the entry `"key": value`.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        value.serialize(self.key(key));
    }

    /// Writes `"key":` and returns the writer for exactly one value.
    pub fn key(&mut self, key: &str) -> &mut Serializer {
        self.separate();
        self.ser.str(key);
        self.ser
            .out
            .push_str(if self.ser.pretty { ": " } else { ":" });
        self.ser
    }

    /// Writes one array element.
    pub fn element<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.separate();
        value.serialize(self.ser);
    }

    /// Closes the object or array.
    pub fn end(self) {
        self.ser.depth -= 1;
        if self.ser.pretty && !self.empty {
            self.ser.newline();
        }
        self.ser.out.push(self.close);
    }

    fn separate(&mut self) {
        if !std::mem::take(&mut self.empty) {
            self.ser.out.push(',');
        }
        if self.ser.pretty {
            self.ser.newline();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_like_serde_json() {
        let mut s = Serializer::compact();
        s.str("a\"b\\c\nd\u{1}é\u{7f}");
        assert_eq!(
            s.into_string(),
            r#""a\"b\\c\nd\u0001é"#.to_owned() + "\u{7f}\""
        );
    }

    #[test]
    fn integers_and_floats() {
        let mut s = Serializer::compact();
        let mut a = s.array();
        for x in [0u64, 7, u64::MAX] {
            a.element(&x);
        }
        a.element(&i64::MIN);
        a.element(&1.0f64);
        a.element(&f64::INFINITY);
        a.element(&f64::NAN);
        a.end();
        assert_eq!(
            s.into_string(),
            "[0,7,18446744073709551615,-9223372036854775808,1.0,null,null]"
        );
    }
}
