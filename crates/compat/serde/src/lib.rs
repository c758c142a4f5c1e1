//! Offline stand-in for the `serde` crate.
//!
//! The build environment of this repository has no access to a crate
//! registry, so the real serde cannot be vendored. This crate provides
//! the subset the workspace needs behind the same surface syntax
//! (`use serde::{Serialize, Deserialize}` + `#[derive(...)]`):
//!
//! * a self-describing [`Value`] data model (null / bool / integers /
//!   floats / strings / sequences / maps),
//! * [`Serialize`] / [`Deserialize`] traits converting to and from
//!   [`Value`],
//! * derive macros for structs (named, tuple, newtype) and enums (unit,
//!   newtype, tuple and struct variants, externally tagged exactly like
//!   real serde),
//! * impls for the primitive types, `String`, `Vec<T>`, `Option<T>` and
//!   small tuples.
//!
//! Format crates (`serde_json`, `toml` — also offline stand-ins in this
//! workspace) render a [`Value`] to text and parse it back. Conventions
//! shared with real serde: newtype structs are transparent, enums are
//! externally tagged, `Option::None` maps to [`Value::Null`] and absent
//! map keys deserialize to `None`.
//!
//! The derives accept two container attributes, in upstream syntax:
//! `default` fills absent keys from `Default`, and
//! `deny_unknown_fields` rejects unknown keys (which the stand-in does
//! for every struct regardless):
//!
//! ```
//! use serde::{Deserialize, Serialize, Value};
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! #[serde(default, deny_unknown_fields)]
//! struct Knobs {
//!     rounds: u32,
//!     cap: Option<f64>,
//! }
//!
//! impl Default for Knobs {
//!     fn default() -> Self {
//!         Knobs { rounds: 30, cap: Some(1.0) }
//!     }
//! }
//!
//! let one = Value::Map(vec![("cap".into(), Value::Null)]);
//! assert_eq!(Knobs::from_value(&one).unwrap(), Knobs { rounds: 30, cap: None });
//! let typo = Value::Map(vec![("round".into(), Value::U64(3))]);
//! let err = Knobs::from_value(&typo).unwrap_err().to_string();
//! assert!(err.starts_with("unknown Knobs field `round` (expected one of: rounds, cap)"));
//! ```
//!
//! Any other attribute is a compile error rather than silently ignored:
//!
//! ```compile_fail
//! #[derive(serde::Deserialize)]
//! #[serde(rename_all = "kebab-case")]
//! struct Knobs {
//!     rounds: u32,
//! }
//! ```
//!
//! ```compile_fail
//! #[derive(serde::Deserialize)]
//! struct Knobs {
//!     #[serde(default)]
//!     rounds: u32,
//! }
//! ```

use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing value: the intermediate representation every
/// serialized type passes through.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Absence of a value (`Option::None`, JSON `null`).
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer (negative values land here).
    I64(i64),
    /// An unsigned integer.
    U64(u64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered map with string keys (field order is preserved).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in a map value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A short description of the value's kind (for error messages).
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) => "integer",
            Value::U64(_) => "integer",
            Value::F64(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

/// Serialization/deserialization error.
#[derive(Clone, Debug, PartialEq)]
pub struct Error(String);

impl Error {
    /// Create an error from a message.
    pub fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }

    /// Prefix the error with location context (e.g. a field path).
    pub fn ctx(self, what: &str) -> Self {
        Error(format!("{what}: {}", self.0))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can be converted into a [`Value`].
pub trait Serialize {
    /// Convert `self` into the data model.
    fn to_value(&self) -> Value;
}

/// Types that can be reconstructed from a [`Value`].
pub trait Deserialize: Sized {
    /// Reconstruct from the data model.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// Called when a map field is absent. `Option<T>` yields `None`;
    /// everything else reports a missing field.
    fn absent(field: &str) -> Result<Self, Error> {
        Err(Error::new(format!("missing field `{field}`")))
    }
}

// ---------------- primitive impls ----------------

// `Value` is already the data model, so serializing it is the identity.
// This lets callers parse a document, splice extra fields into the
// parsed tree, and re-serialize it (e.g. `lsm run --json` adding its
// `lint` preflight field to the report).
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::new(format!("expected bool, found {}", other.kind()))),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let raw = match v {
                    Value::U64(u) => *u,
                    Value::I64(i) if *i >= 0 => *i as u64,
                    other => {
                        return Err(Error::new(format!(
                            "expected unsigned integer, found {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::new(format!("integer {raw} out of range")))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let i = *self as i64;
                if i >= 0 { Value::U64(i as u64) } else { Value::I64(i) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let raw = match v {
                    Value::I64(i) => *i,
                    Value::U64(u) => i64::try_from(*u)
                        .map_err(|_| Error::new(format!("integer {u} out of range")))?,
                    other => {
                        return Err(Error::new(format!(
                            "expected integer, found {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::new(format!("integer {raw} out of range")))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::F64(x) => Ok(*x),
            Value::I64(i) => Ok(*i as f64),
            Value::U64(u) => Ok(*u as f64),
            // Non-finite floats have no JSON representation; formats emit
            // null for them and we restore NaN.
            Value::Null => Ok(f64::NAN),
            other => Err(Error::new(format!(
                "expected float, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::new(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(|x| x.to_value()).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::new(format!(
                "expected sequence, found {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn absent(_field: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

macro_rules! impl_tuple {
    ($n:expr => $($t:ident . $idx:tt),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Seq(items) if items.len() == $n => Ok((
                        $($t::from_value(&items[$idx])?,)+
                    )),
                    Value::Seq(items) => Err(Error::new(format!(
                        "expected {}-tuple, found sequence of {}",
                        $n,
                        items.len()
                    ))),
                    other => Err(Error::new(format!(
                        "expected sequence, found {}",
                        other.kind()
                    ))),
                }
            }
        }
    };
}
impl_tuple!(2 => A.0, B.1);
impl_tuple!(3 => A.0, B.1, C.2);
impl_tuple!(4 => A.0, B.1, C.2, D.3);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-9i64).to_value()).unwrap(), -9);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(f64::from_value(&Value::Null).unwrap().is_nan());
        let v: Vec<u32> = Deserialize::from_value(&vec![1u32, 2, 3].to_value()).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn options_and_absent_fields() {
        assert_eq!(Some(7u32).to_value(), Value::U64(7));
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u32>::absent("x").unwrap(), None);
        assert!(u32::absent("x").is_err());
    }

    #[test]
    fn tuples_roundtrip() {
        let t = (1u32, "hi".to_string());
        let v = t.to_value();
        let back: (u32, String) = Deserialize::from_value(&v).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn map_lookup() {
        let m = Value::Map(vec![("a".into(), Value::U64(1))]);
        assert_eq!(m.get("a"), Some(&Value::U64(1)));
        assert_eq!(m.get("b"), None);
    }
}
