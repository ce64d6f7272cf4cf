//! The JSON value tree: [`Value`], [`Number`] and the insertion-ordered
//! [`Map`].
//!
//! `Value` is an ordinary [`Serialize`]/[`Deserialize`] type: derived
//! types never pass through it. `Map` preserves insertion order, and a
//! repeated key keeps its first position with its last value.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::de::{Deserializer, Error, Kind};
use crate::ser::Serializer;
use crate::{Deserialize, Serialize};

/// A JSON number: unsigned, signed or floating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    PosInt(u64),
    /// Negative integer.
    NegInt(i64),
    /// Floating point.
    Float(f64),
}

impl Number {
    /// Number from a `u64`.
    pub fn from_u64(n: u64) -> Self {
        Number::PosInt(n)
    }

    /// Number from an `i64`, normalized so non-negative values compare
    /// equal to their `PosInt` form.
    pub fn from_i64(n: i64) -> Self {
        if n >= 0 {
            Number::PosInt(n as u64)
        } else {
            Number::NegInt(n)
        }
    }

    /// Number from an `f64`.
    pub fn from_f64(f: f64) -> Self {
        Number::Float(f)
    }

    /// As `u64` if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(n) => Some(n),
            Number::NegInt(_) | Number::Float(_) => None,
        }
    }

    /// As `i64` if representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(n) => i64::try_from(n).ok(),
            Number::NegInt(n) => Some(n),
            Number::Float(_) => None,
        }
    }

    /// As `f64` (integers convert losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Number::PosInt(n) => Some(n as f64),
            Number::NegInt(n) => Some(n as f64),
            Number::Float(f) => Some(f),
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Value::Number(*self).fmt(f)
    }
}

/// A JSON object preserving insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Empty map.
    pub fn new() -> Self {
        Map::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks up a key mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// True when `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Inserts a key, replacing in place (position preserved) when present.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        let key = key.into();
        match self.get_mut(&key) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => {
                self.entries.push((key, value));
                None
            }
        }
    }

    /// Removes a key, preserving the order of the remaining entries.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }
}

/// Any JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`
    #[default]
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

impl Value {
    /// True for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// As a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// As a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// As an `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// As an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// As a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// As an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// As a mutable array.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// As an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// As a mutable object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Non-panicking lookup: object key or array index, `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

static NULL: Value = Value::Null;

impl Index<&str> for Value {
    type Output = Value;
    /// Objects yield the entry or `Null` when missing; anything else
    /// yields `Null`, matching `serde_json`'s forgiving `Index`.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl IndexMut<&str> for Value {
    /// Inserts `Null` under `key` first when missing; panics when `self`
    /// is not an object (same contract as `serde_json`).
    fn index_mut(&mut self, key: &str) -> &mut Value {
        let map = self
            .as_object_mut()
            .unwrap_or_else(|| panic!("cannot index non-object value with \"{key}\""));
        if !map.contains_key(key) {
            map.insert(key, Value::Null);
        }
        map.get_mut(key).expect("just inserted")
    }
}

impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

impl IndexMut<usize> for Value {
    fn index_mut(&mut self, idx: usize) -> &mut Value {
        self.as_array_mut()
            .and_then(|a| a.get_mut(idx))
            .unwrap_or_else(|| panic!("array index {idx} out of bounds"))
    }
}

impl fmt::Display for Value {
    /// Compact JSON rendering (`{"a":1}`), like `serde_json`'s `Display`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = Serializer::compact();
        self.serialize(&mut s);
        f.write_str(&s.into_string())
    }
}

impl Serialize for Value {
    fn serialize(&self, s: &mut Serializer) {
        match self {
            Value::Null => s.null(),
            Value::Bool(b) => s.bool(*b),
            Value::Number(Number::PosInt(n)) => s.u64(*n),
            Value::Number(Number::NegInt(n)) => s.i64(*n),
            Value::Number(Number::Float(x)) => s.f64(*x),
            Value::String(text) => s.str(text),
            Value::Array(items) => items.serialize(s),
            Value::Object(map) => {
                let mut o = s.object();
                for (k, v) in map.iter() {
                    o.field(k, v);
                }
                o.end();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        Ok(match de.peek()? {
            Kind::Null => de.null().map(|()| Value::Null)?,
            Kind::Bool => Value::Bool(de.bool()?),
            Kind::Number => Value::Number(de.number()?),
            Kind::String => Value::String(de.string()?.into_owned()),
            Kind::Array => Value::Array(Vec::deserialize(de)?),
            Kind::Object => {
                de.open_object()?;
                let mut map = Map::new();
                while let Some(key) = de.next_key()? {
                    let value = Value::deserialize(de)?;
                    map.insert(key, value);
                }
                Value::Object(map)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_insertion_order_across_remove() {
        let mut m = Map::new();
        m.insert("b", Value::Bool(true));
        m.insert("a", Value::Null);
        m.insert("c", Value::Number(Number::from_u64(1)));
        m.remove("a");
        let keys: Vec<_> = m.keys().cloned().collect();
        assert_eq!(keys, ["b", "c"]);
    }

    #[test]
    fn display_is_compact_json() {
        let mut m = Map::new();
        m.insert("name", Value::String("a\"b".into()));
        m.insert(
            "xs",
            Value::Array(vec![Value::Number(Number::from_u64(1)), Value::Null]),
        );
        let v = Value::Object(m);
        assert_eq!(v.to_string(), r#"{"name":"a\"b","xs":[1,null]}"#);
    }

    #[test]
    fn index_on_missing_key_yields_null() {
        let v = Value::Object(Map::new());
        assert!(v["nope"].is_null());
        assert!(v["nope"]["deeper"].is_null());
    }
}
