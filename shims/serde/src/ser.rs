//! The JSON writer [`Serialize`] impls write into.
//!
//! One [`Serializer`] produces either compact JSON (`{"a":1}`) or
//! serde_json's pretty form (2-space indent, `"key": value`, empty
//! containers as `{}`/`[]`) straight into a byte buffer, which only ever
//! receives whole UTF-8 strings.
//!
//! [`Serialize`]: crate::Serialize

use std::io::Write as _;

use crate::Serialize;

/// Writes JSON text into a byte buffer.
pub struct Serializer {
    out: Vec<u8>,
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
            out: Vec::with_capacity(Self::INITIAL_CAPACITY),
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
            self.out = self.out.as_slice().to_owned();
        } else {
            self.out.shrink_to_fit();
        }
        String::from_utf8(self.out).expect("only whole strings are written")
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// Writes an unsigned integer, two digits per division.
    pub fn u64(&mut self, n: u64) {
        const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
            2021222324252627282930313233343536373839\
            4041424344454647484950515253545556575859\
            6061626364656667686970717273747576777879\
            8081828384858687888990919293949596979899";
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        let mut n = n;
        while n >= 10 {
            let d = (n % 100) as usize * 2;
            n /= 100;
            at -= 2;
            buf[at..at + 2].copy_from_slice(&PAIRS[d..d + 2]);
        }
        if n > 0 || at == buf.len() {
            at -= 1;
            buf[at] = b'0' + n as u8;
        }
        self.out.extend_from_slice(&buf[at..]);
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, n: i64) {
        if n < 0 {
            self.out.push(b'-');
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
        out.push(b'"');
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
            out.extend_from_slice(&s.as_bytes()[plain..i]);
            if esc.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.extend_from_slice(esc.as_bytes());
            }
            plain = i + 1;
        }
        out.extend_from_slice(&s.as_bytes()[plain..]);
        out.push(b'"');
    }

    /// Starts an object; write its entries through the returned
    /// [`Compound`] and close it with [`Compound::end`].
    pub fn object(&mut self) -> Compound<'_> {
        self.open(b'{', b'}')
    }

    /// Starts an array; write its elements through the returned
    /// [`Compound`] and close it with [`Compound::end`].
    pub fn array(&mut self) -> Compound<'_> {
        self.open(b'[', b']')
    }

    fn open(&mut self, open: u8, close: u8) -> Compound<'_> {
        self.out.push(open);
        self.depth += 1;
        Compound {
            ser: self,
            close,
            empty: true,
        }
    }

    fn newline(&mut self) {
        self.out.push(b'\n');
        for _ in 0..self.depth {
            self.out.extend_from_slice(b"  ");
        }
    }
}

/// An object or array being written.
pub struct Compound<'s> {
    ser: &'s mut Serializer,
    close: u8,
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
            .extend_from_slice(if self.ser.pretty { b": " } else { b":" });
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
            self.ser.out.push(b',');
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
        for x in [0u64, 7, 10, 99, 100, 1000, 12_345, u64::MAX] {
            a.element(&x);
        }
        a.element(&i64::MIN);
        a.element(&1.0f64);
        a.element(&f64::INFINITY);
        a.element(&f64::NAN);
        a.end();
        assert_eq!(
            s.into_string(),
            "[0,7,10,99,100,1000,12345,18446744073709551615,-9223372036854775808,1.0,null,null]"
        );
    }
}
