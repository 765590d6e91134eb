//! A from-scratch JSON value model, parser and writer.
//!
//! Used in two places the paper's pipeline needs it:
//!
//! 1. **Flow persistence** — Panoptes stores intercepted requests "in
//!    different local databases" (§2.3); our flow stores serialize to
//!    JSONL through this module.
//! 2. **Ad-SDK body inspection** — the PII analysis of §3.3 parses JSON
//!    request bodies like the Opera `sdk_fetch` call in Listing 1 to
//!    extract leaked fields (`latitude`, `deviceModel`, `operaId`, ...).
//!
//! The object representation preserves insertion order so serialized flows
//! are deterministic and diffable.

mod parse;
mod write;

pub use parse::{parse, JsonError};
pub use write::{to_string, to_string_pretty, write_string};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64; integers round-trip up to 2^53).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object value from key/value pairs.
    pub fn object(pairs: Vec<(&str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::String(s.into())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `f64` if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) if n.fract() == 0.0 && n.abs() < 9.0e18 => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a slice if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Object entries if the value is an object.
    pub fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Recursively visits every `(path, leaf)` pair; paths use dot
    /// notation with `[i]` for array indices. This is what the PII
    /// scanner walks.
    pub fn walk_leaves<'a>(&'a self, f: &mut impl FnMut(&str, &'a Value)) {
        fn inner<'a>(v: &'a Value, path: &mut String, f: &mut impl FnMut(&str, &'a Value)) {
            match v {
                Value::Object(pairs) => {
                    for (k, child) in pairs {
                        let saved = path.len();
                        if !path.is_empty() {
                            path.push('.');
                        }
                        path.push_str(k);
                        inner(child, path, f);
                        path.truncate(saved);
                    }
                }
                Value::Array(items) => {
                    for (i, child) in items.iter().enumerate() {
                        let saved = path.len();
                        path.push_str(&format!("[{i}]"));
                        inner(child, path, f);
                        path.truncate(saved);
                    }
                }
                leaf => f(path, leaf),
            }
        }
        let mut path = String::new();
        inner(self, &mut path, f);
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Number(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_get_and_accessors() {
        let v = Value::object(vec![
            ("name", Value::str("opera")),
            ("lat", Value::Number(48.85)),
            ("count", Value::Number(3.0)),
            ("ok", Value::Bool(true)),
            ("tags", Value::Array(vec![Value::str("a")])),
        ]);
        assert_eq!(v.get("name").unwrap().as_str(), Some("opera"));
        assert_eq!(v.get("lat").unwrap().as_f64(), Some(48.85));
        assert_eq!(v.get("count").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("lat").unwrap().as_i64(), None);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("tags").unwrap().as_array().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn walk_leaves_paths() {
        let v = Value::object(vec![
            ("a", Value::object(vec![("b", Value::Number(1.0))])),
            ("list", Value::Array(vec![Value::str("x"), Value::str("y")])),
        ]);
        let mut seen = Vec::new();
        v.walk_leaves(&mut |path, leaf| seen.push((path.to_string(), leaf.clone())));
        assert_eq!(seen[0].0, "a.b");
        assert_eq!(seen[1].0, "list[0]");
        assert_eq!(seen[2].0, "list[1]");
    }
}
