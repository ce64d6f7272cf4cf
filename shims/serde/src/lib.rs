//! Offline stand-in for the `serde` crate.
//!
//! crates.io is unreachable in this build environment, so the workspace
//! vendors a JSON-only serialization framework with the same derive
//! *surface* (`#[derive(Serialize, Deserialize)]`, `#[serde(default)]`,
//! `#[serde(default = "path")]`) and the same JSON wire format as real
//! serde for the shapes this workspace uses: named structs as objects
//! (fields in declaration order), newtype structs as their inner value,
//! unit enum variants as strings, and newtype variants as single-key
//! objects.
//!
//! The traits are not real serde's visitor-based data model. JSON is the
//! only format in the workspace, so both stream JSON text directly:
//! [`Serialize`] writes into a [`ser::Serializer`] and [`Deserialize`]
//! reads from a [`de::Deserializer`] pull parser, with no intermediate
//! tree. [`value::Value`] is an ordinary type implementing both. Derived
//! impls port to real serde unchanged; the hand-written impls in the
//! workspace name these two types and would need rewriting.

pub mod de;
pub mod ser;
pub mod value;

pub use serde_derive::{Deserialize, Serialize};

use de::{Deserializer, Error, Kind};
use ser::Serializer;

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Writes `self` as exactly one JSON value.
    fn serialize(&self, s: &mut Serializer);
}

/// Types that can be read from JSON.
pub trait Deserialize: Sized {
    /// Reads exactly one JSON value as `Self`, or explains why it cannot.
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, s: &mut Serializer) {
        (**self).serialize(s)
    }
}

/// Reads a number, or fails with "expected {what}, found {kind}".
#[inline]
fn number(de: &mut Deserializer<'_>, what: &str) -> Result<value::Number, Error> {
    match de.peek()? {
        Kind::Number => de.number(),
        other => Err(Error::new(format!("expected {what}, found {other}"))),
    }
}

macro_rules! impl_serde_int {
    ($write:ident, $as:ident, $what:literal, $($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer) {
                s.$write(*self as _)
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                let n = number(de, $what)?
                    .$as()
                    .ok_or_else(|| Error::new(concat!("expected ", $what, ", found number")))?;
                <$t>::try_from(n).map_err(|_| {
                    Error::new(format!("integer {n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
impl_serde_int!(u64, as_u64, "unsigned integer", u8, u16, u32, u64, usize);
impl_serde_int!(i64, as_i64, "integer", i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, s: &mut Serializer) {
        s.f64(*self)
    }
}
impl Deserialize for f64 {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        // Every `Number` converts to `f64`.
        number(de, "number").map(|n| n.as_f64().unwrap_or_default())
    }
}

impl Serialize for f32 {
    fn serialize(&self, s: &mut Serializer) {
        s.f64(f64::from(*self))
    }
}
impl Deserialize for f32 {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        f64::deserialize(de).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, s: &mut Serializer) {
        s.bool(*self)
    }
}
impl Deserialize for bool {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        match de.peek()? {
            Kind::Bool => de.bool(),
            other => Err(Error::new(format!("expected boolean, found {other}"))),
        }
    }
}

impl Serialize for str {
    fn serialize(&self, s: &mut Serializer) {
        s.str(self)
    }
}

impl Serialize for String {
    fn serialize(&self, s: &mut Serializer) {
        s.str(self)
    }
}
impl Deserialize for String {
    #[inline]
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        match de.peek()? {
            Kind::String => de.string().map(|s| s.into_owned()),
            other => Err(Error::new(format!("expected string, found {other}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, s: &mut Serializer) {
        match self {
            Some(x) => x.serialize(s),
            None => s.null(),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        match de.peek()? {
            Kind::Null => de.null().map(|()| None),
            _ => T::deserialize(de).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, s: &mut Serializer) {
        let mut a = s.array();
        for x in self {
            a.element(x);
        }
        a.end();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, s: &mut Serializer) {
        self.as_slice().serialize(s)
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        expect_array(de)?;
        let mut items = Vec::new();
        de.elements(|_, de| T::deserialize(de).map(|x| items.push(x)))?;
        Ok(items)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, s: &mut Serializer) {
        self.as_slice().serialize(s)
    }
}
impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        expect_array(de)?;
        let mut items = Vec::with_capacity(N);
        let mut first_err = None;
        let len = de.elements(|i, de| {
            if i >= N || first_err.is_some() {
                return de.skip();
            }
            match de.deferred::<T>()? {
                Ok(x) => items.push(x),
                Err(e) => first_err = Some(e),
            }
            Ok(())
        })?;
        if len != N {
            return Err(Error::new(format!(
                "expected array of length {N}, found length {len}"
            )));
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        <[T; N]>::try_from(items).map_err(|_| Error::new("array length changed while reading"))
    }
}

/// Fails unless an array comes next.
#[inline]
fn expect_array(de: &mut Deserializer<'_>) -> Result<(), Error> {
    match de.peek()? {
        Kind::Array => Ok(()),
        other => Err(Error::new(format!("expected array, found {other}"))),
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+) of $len:literal),* $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, s: &mut Serializer) {
                let mut a = s.array();
                $(a.element(&self.$idx);)+
                a.end();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            #[allow(non_snake_case)]
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
                expect_array(de)?;
                $(let mut $name: Option<Result<$name, Error>> = None;)+
                let len = de.elements(|i, de| {
                    match i {
                        $($idx => $name = Some(de.deferred()?),)+
                        _ => de.skip()?,
                    }
                    Ok(())
                })?;
                if len != $len {
                    return Err(Error::new(format!(
                        "expected {}-tuple, found array of length {len}",
                        $len
                    )));
                }
                let missing = || Error::new("tuple element missing");
                Ok(($($name.ok_or_else(missing)??,)+))
            }
        }
    )*};
}
impl_serde_tuple!(
    (A: 0) of 1,
    (A: 0, B: 1) of 2,
    (A: 0, B: 1, C: 2) of 3,
    (A: 0, B: 1, C: 2, D: 3) of 4,
);

#[cfg(test)]
mod tests {
    use super::*;

    fn json<T: Serialize + ?Sized>(v: &T) -> String {
        let mut s = Serializer::compact();
        v.serialize(&mut s);
        s.into_string()
    }

    fn read<T: Deserialize>(text: &str) -> Result<T, Error> {
        de::from_str(text)
    }

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(read::<u32>(&json(&42u32)).unwrap(), 42);
        assert_eq!(read::<i64>(&json(&-3i64)).unwrap(), -3);
        assert_eq!(read::<String>(&json("hi")).unwrap(), "hi");
        assert_eq!(read::<Option<u8>>(&json(&None::<u8>)).unwrap(), None);
        assert_eq!(read::<[u64; 3]>(&json(&[1u64, 2, 3])).unwrap(), [1, 2, 3]);
        assert_eq!(read::<(u64, u64)>(&json(&(7u64, 9u64))).unwrap(), (7, 9));
    }

    #[test]
    fn type_errors_are_reported() {
        fn msg<T>(r: Result<T, Error>) -> String {
            r.err().map(|e| e.to_string()).unwrap_or_default()
        }
        assert_eq!(
            msg(read::<u8>("\"x\"")),
            "expected unsigned integer, found string"
        );
        assert_eq!(msg(read::<u8>("300")), "integer 300 out of range for u8");
        assert_eq!(
            msg(read::<u8>("-1")),
            "expected unsigned integer, found number"
        );
        assert_eq!(
            msg(read::<[u64; 3]>("[1, 2]")),
            "expected array of length 3, found length 2"
        );
        // The length is checked before the elements.
        assert_eq!(
            msg(read::<(u8, u8)>("[\"a\", 1, 2]")),
            "expected 2-tuple, found array of length 3"
        );
        assert_eq!(
            msg(read::<(u8, u8)>("[1, \"b\"]")),
            "expected unsigned integer, found string"
        );
    }
}
