//! A minimal JSON document model: enough to write the `BENCH_<suite>.json`
//! goldens without pulling a serialization dependency into the workspace.
//! Write-only: a golden is compared as text, so nothing ever parses one.
//!
//! Numbers are stored as `f64`; the bench writes only integers (ns, byte
//! and blob counts) and short floats (hit rates, speedups), both well
//! inside `f64`'s exact range.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object keys are sorted (BTreeMap) so rendering is deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_document_with_sorted_keys() {
        let doc = Json::obj([
            ("name", Json::Str("pipeline".into())),
            ("count", Json::Num(42.0)),
            ("rate", Json::Num(0.5)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::Num(1.0), Json::Arr(vec![]), Json::obj([])]),
            ),
        ]);
        let expected = r#"{
  "count": 42,
  "items": [
    1,
    [],
    {}
  ],
  "name": "pipeline",
  "none": null,
  "ok": true,
  "rate": 0.5
}
"#;
        assert_eq!(doc.render(), expected);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(123456789.0).render(), "123456789\n");
        assert_eq!(Json::Num(-3.0).render(), "-3\n");
        assert_eq!(Json::Num(0.0).render(), "0\n");
        assert_eq!(Json::Num(0.9375).render(), "0.9375\n");
        // Nanosecond makespans of the 10k-node storm: exact in an f64.
        assert_eq!(Json::Num(2_500_009_156_315.0).render(), "2500009156315\n");
    }

    fn rendered(s: &str) -> String {
        Json::Str(s.into()).render()
    }

    #[test]
    fn quotes_and_backslashes_are_escaped() {
        assert_eq!(rendered("plain"), "\"plain\"\n");
        assert_eq!(rendered("say \"hi\""), "\"say \\\"hi\\\"\"\n");
        assert_eq!(rendered("a\\b/c"), "\"a\\\\b/c\"\n");
    }

    #[test]
    fn control_bytes_are_escaped() {
        assert_eq!(rendered("l1\nl2\r\tend"), "\"l1\\nl2\\r\\tend\"\n");
        assert_eq!(rendered("\u{1}\u{1f}"), "\"\\u0001\\u001f\"\n");
        assert_eq!(rendered("\u{7f}"), "\"\u{7f}\"\n");
    }

    #[test]
    fn multibyte_text_is_written_as_is() {
        assert_eq!(rendered("é ✓ 容器"), "\"é ✓ 容器\"\n");
    }

    #[test]
    fn keys_are_escaped_like_strings() {
        let keyed = Json::obj([("a\"b", Json::Null), ("tab\t", Json::Bool(false))]);
        let expected = "{\n  \"a\\\"b\": null,\n  \"tab\\t\": false\n}\n";
        assert_eq!(keyed.render(), expected);
    }
}
