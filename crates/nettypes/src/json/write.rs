//! JSON serialization (compact and pretty).

use super::Value;

/// Serializes `value` compactly (no whitespace) — the JSONL flow-store
/// format.
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(value, None, 0, &mut out);
    out
}

/// Serializes `value` with two-space indentation, for human-readable
/// reports.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(value, Some(2), 0, &mut out);
    out
}

fn write_value(value: &Value, indent: Option<usize>, level: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(*n, out),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, level + 1, out);
                write_value(item, indent, level + 1, out);
            }
            newline_indent(indent, level, out);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, level + 1, out);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(v, indent, level + 1, out);
            }
            newline_indent(indent, level, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, level: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no Inf/NaN; degrade safely.
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

/// Appends `s` to `out` as a quoted JSON string literal, escaped as
/// [`to_string`] escapes every string it writes.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use super::*;

    #[test]
    fn compact_output() {
        let v = Value::object(vec![
            ("a", Value::Number(1.0)),
            ("b", Value::Array(vec![Value::str("x"), Value::Null])),
        ]);
        assert_eq!(to_string(&v), r#"{"a":1,"b":["x",null]}"#);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(to_string(&Value::Number(42.0)), "42");
        assert_eq!(to_string(&Value::Number(-7.0)), "-7");
        assert_eq!(to_string(&Value::Number(1.5)), "1.5");
    }

    #[test]
    fn escapes_roundtrip_through_parser() {
        let v = Value::str("line\nquote\"back\\slash\ttab\u{1}");
        let text = to_string(&v);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn pretty_has_indentation() {
        let v = Value::object(vec![("k", Value::Array(vec![Value::Number(1.0)]))]);
        let pretty = to_string_pretty(&v);
        assert!(pretty.contains("\n  \"k\": [\n    1\n  ]\n"));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(to_string(&Value::Array(vec![])), "[]");
        assert_eq!(to_string(&Value::Object(vec![])), "{}");
        assert_eq!(to_string_pretty(&Value::Object(vec![])), "{}");
    }

    #[test]
    fn nonfinite_degrades_to_null() {
        assert_eq!(to_string(&Value::Number(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Number(f64::INFINITY)), "null");
    }

    #[test]
    fn roundtrip_structured() {
        let v = Value::object(vec![
            ("url", Value::str("https://e.com/p?a=b")),
            ("bytes", Value::Number(8192.0)),
            ("native", Value::Bool(true)),
            ("nested", Value::object(vec![("deep", Value::Null)])),
        ]);
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
        assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v);
    }
}
