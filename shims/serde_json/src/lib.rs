//! Offline stand-in for the `serde_json` crate.
//!
//! Provides the workspace's actual usage surface: [`to_string`],
//! [`to_string_pretty`] (2-space indent, matching real serde_json),
//! [`from_str`], and [`Value`]/[`Map`]/[`Number`] re-exported from the
//! local `serde` shim. Text goes straight to and from the target type
//! through the shim's writer and pull parser; no [`Value`] is built
//! unless `Value` is the type asked for. As in serde_json, non-finite
//! floats are written as `null`, float literals beyond `f64` range are
//! rejected, and nesting deeper than [`serde::de::MAX_DEPTH`] levels is
//! an error rather than a stack overflow.

pub use serde::value::{Map, Number, Value};

use std::fmt;

use serde::ser::Serializer;

/// Serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::de::Error> for Error {
    fn from(e: serde::de::Error) -> Self {
        Error {
            message: e.to_string(),
        }
    }
}

/// Serializes `value` to compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut s = Serializer::compact();
    value.serialize(&mut s);
    Ok(s.into_string())
}

/// Serializes `value` to pretty JSON with 2-space indentation.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut s = Serializer::pretty();
    value.serialize(&mut s);
    Ok(s.into_string())
}

/// Parses JSON text into any deserializable type.
pub fn from_str<T: serde::Deserialize>(input: &str) -> Result<T, Error> {
    Ok(serde::de::from_str(input)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v: Value = from_str(r#" {"a": [1, -2, 3.5, true, null], "b": "x\ny"} "#).unwrap();
        assert_eq!(v["a"][0].as_u64(), Some(1));
        assert_eq!(v["a"][1].as_i64(), Some(-2));
        assert_eq!(v["a"][2].as_f64(), Some(3.5));
        assert_eq!(v["a"][3].as_bool(), Some(true));
        assert!(v["a"][4].is_null());
        assert_eq!(v["b"].as_str(), Some("x\ny"));
    }

    #[test]
    fn compact_roundtrip_is_stable() {
        let text = r#"{"name":"zéd","xs":[1,2],"geo":null}"#;
        let v: Value = from_str(text).unwrap();
        let round: Value = from_str(&v.to_string()).unwrap();
        assert_eq!(v, round);
        assert_eq!(v["name"].as_str(), Some("zéd"));
    }

    #[test]
    fn pretty_format_matches_serde_json_shape() {
        let v: Value = from_str(r#"{"a":1,"b":[true],"c":{},"d":[]}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(
            pretty,
            "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ],\n  \"c\": {},\n  \"d\": []\n}"
        );
    }

    #[test]
    fn errors_carry_positions() {
        let e = from_str::<Value>("{\"a\": \n nope}").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("{\"a\":}").is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v: Value = from_str("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        let lit: Value = from_str(r#""😀""#).unwrap();
        assert_eq!(lit.as_str(), Some("😀"));
    }

    #[test]
    fn non_finite_floats_are_written_as_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(
            to_string(&[f64::INFINITY, -f64::INFINITY, 1.5]).unwrap(),
            "[null,null,1.5]"
        );
        assert_eq!(to_string_pretty(&f32::NAN).unwrap(), "null");
        // Every written float reads back.
        let text = to_string(&[f64::MAX, f64::MIN_POSITIVE, -0.0, 1e300]).unwrap();
        assert_eq!(
            from_str::<Vec<f64>>(&text).unwrap(),
            [f64::MAX, f64::MIN_POSITIVE, -0.0, 1e300]
        );
    }

    #[test]
    fn out_of_range_float_literals_are_rejected() {
        let e = from_str::<Value>("[1e400, -1e400, 1.5]").unwrap_err();
        assert_eq!(e.to_string(), "number out of range at line 1 column 7");
        let e = from_str::<f64>("-1e400").unwrap_err();
        assert_eq!(e.to_string(), "number out of range at line 1 column 7");
        // Underflow is not an error: it reads as zero, as in serde_json.
        assert_eq!(from_str::<f64>("1e-400").unwrap(), 0.0);
        assert_eq!(from_str::<f64>("1.7976931348623157e308").unwrap(), f64::MAX);
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_an_error() {
        let depth = serde::de::MAX_DEPTH;
        let ok = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert_eq!(to_string(&from_str::<Value>(&ok).unwrap()).unwrap(), ok);
        let deep = format!("{}1{}", "[".repeat(depth + 1), "]".repeat(depth + 1));
        let e = from_str::<Value>(&deep).unwrap_err();
        assert_eq!(
            e.to_string(),
            format!("recursion limit exceeded at line 1 column {}", depth + 2)
        );
        let objects = "{\"a\":".repeat(depth + 1);
        assert!(from_str::<Value>(&objects)
            .unwrap_err()
            .to_string()
            .starts_with("recursion limit"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // The string scanner consumes plain-byte runs wholesale; a
        // per-character re-validation of the remaining input regresses
        // parsing to O(n^2) (minutes for the multi-MB instance files the
        // scaling study feeds through `ProblemInstance::load`). 4 MB of
        // string content finishes instantly when linear and blows the
        // 10-second guard when quadratic.
        let body = "x".repeat(1 << 20);
        let doc = format!("[\"{body}\", \"{body}\", \"{body}\", \"{body}\"]");
        let t0 = std::time::Instant::now();
        let v: Value = from_str(&doc).unwrap();
        assert!(t0.elapsed().as_secs() < 10, "string parsing is quadratic");
        let arr = v.as_array().unwrap();
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[0].as_str().map(str::len), Some(1 << 20));
        // Runs still honour escapes, multi-byte chars, and control bytes.
        let mixed: Value = from_str("\"héllo \\n wörld 😀\"").unwrap();
        assert_eq!(mixed.as_str(), Some("héllo \n wörld 😀"));
        assert!(from_str::<Value>("\"bad \u{1} ctrl\"").is_err());
    }
}
