//! A minimal JSON document model: enough to write `BENCH_pipeline.json`
//! and read the checked-in baseline back for the regression gate, without
//! pulling a serialization dependency into the workspace.
//!
//! Numbers are stored as `f64`; the bench writes only integers (ns, byte
//! and blob counts) and short floats (hit rates, speedups), both well
//! inside `f64`'s exact range.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
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

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
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

/// Deepest array/object nesting [`parse`] accepts. The bench documents
/// nest four deep; the cap turns a hostile `[[[[…` into an error instead
/// of a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// Parse a JSON document. Supports the full value grammar the renderer
/// emits (and standard escapes); errors carry a byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut pos = 0usize;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", b as char))
    }
}

/// `pos` only ever advances past whole characters, so it is always on a
/// char boundary of `text`.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    expect(text.as_bytes(), pos, b'"')?;
    let mut out = String::new();
    // `text` is already valid UTF-8: walk its chars, never re-validate.
    let mut chars = text[*pos..].chars();
    loop {
        let Some(c) = chars.next() else {
            return Err("unterminated string".into());
        };
        *pos += c.len_utf8();
        match c {
            '"' => return Ok(out),
            '\\' => {
                let Some(esc) = chars.next() else {
                    return Err(format!("bad escape at byte {pos}"));
                };
                *pos += esc.len_utf8();
                match esc {
                    '"' | '\\' | '/' => out.push(esc),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let hex = chars.as_str().get(..4);
                        let code = hex
                            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        chars = chars.as_str()[4..].chars();
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape before byte {pos}")),
                }
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrips_nested_document() {
        let doc = Json::obj([
            ("name", Json::Str("bench \"pipeline\"\n".into())),
            ("count", Json::Num(42.0)),
            ("rate", Json::Num(0.5)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::Num(1.0), Json::Num(2.0), Json::Arr(vec![])]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn parses_hand_written_json() {
        let v = parse("  {\"a\": [1, 2.5, -3e2], \"b\": {\"c\": \"\\u0041\"}} ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} extra").is_err());
    }

    #[test]
    fn integers_render_without_fraction() {
        let text = Json::Num(123456789.0).render();
        assert_eq!(text.trim(), "123456789");
    }

    #[test]
    fn nesting_is_capped_with_an_offset() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(
            err.contains("nesting deeper") && err.contains("byte"),
            "{err}"
        );
        let err = parse(&"{\"k\":".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn long_multibyte_strings_parse_in_one_pass() {
        // Quadratic re-validation made this take minutes; linear is instant.
        let body = "é\\n".repeat(400_000);
        let parsed = parse(&format!("\"{body}\"")).unwrap();
        assert_eq!(parsed.as_str().map(str::len), Some(400_000 * 3));
    }

    /// A document from raw bytes: every value kind, bounded depth.
    fn doc_from(bytes: &mut std::slice::Iter<u8>, depth: usize) -> Json {
        let mut next = || bytes.next().copied().unwrap_or(0);
        match (next() % 7, depth) {
            (0, _) => Json::Null,
            (1, _) => Json::Bool(next() % 2 == 0),
            (2, _) => Json::Num(next() as f64 * 0.25 - 8.0),
            (3, _) | (_, 0) => {
                let picks = ['a', '"', '\\', '\n', '\u{1}', 'é', '✓', '/'];
                let n = next() % 6;
                Json::Str((0..n).map(|_| picks[next() as usize % 8]).collect())
            }
            (4 | 5, _) => Json::Arr(
                (0..next() % 4)
                    .map(|_| doc_from(bytes, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..next() % 4)
                    .map(|i| (format!("k{i}"), doc_from(bytes, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Tokens that steer random text into the parser's deeper branches.
    const NOISE: &[&str] = &[
        "[", "]", "{", "}", "\"", ",", ":", "\\", "\\u", "00e9", "n", "é", "✓", " ", "1", "-", ".",
        "e", "true", "false", "null",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_never_panics_on_arbitrary_bytes(bytes in collection::vec(any::<u8>(), 0..256)) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn parse_never_panics_on_json_shaped_noise(picks in collection::vec(0..NOISE.len(), 0..64)) {
            let text: String = picks.iter().map(|&i| NOISE[i]).collect();
            let _ = parse(&text);
        }

        #[test]
        fn parse_survives_any_bracket_depth(depth in 0usize..200_000, object in any::<bool>()) {
            let unit = if object { "{\"k\":" } else { "[" };
            let _ = parse(&unit.repeat(depth));
        }

        #[test]
        fn render_then_parse_is_identity(bytes in collection::vec(any::<u8>(), 0..128)) {
            let doc = doc_from(&mut bytes.iter(), 4);
            prop_assert_eq!(parse(&doc.render()), Ok(doc));
        }
    }
}
