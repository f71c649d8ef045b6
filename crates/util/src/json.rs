//! Minimal JSON writing and reading for the hand-assembled documents the
//! workspace emits.
//!
//! Every JSON artifact here is assembled by hand (provenance manifests,
//! probe JSONL, serve frames and event logs, `BENCH_*.json`), so readers
//! only need a few things: pull one string or number field out of an
//! object, slice out one balanced `{...}` sub-value, and flatten a whole
//! document's numeric leaves into dotted paths. No tree is ever built.
//!
//! Field lookup skips key lookalikes inside string values (a real key is in
//! object position: after `{` or `,`), tolerates whitespace around the
//! colon (`BENCH_*.json` snapshots are pretty-printed), and reads integers
//! exactly rather than through `f64` — seeds use all 64 bits.

/// Escapes `s` for inclusion inside a JSON string literal (quotes,
/// backslashes, and control characters; everything else passes through).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The raw value text after `"key":` (leading whitespace skipped), or
/// `None` when the key is absent.
fn raw_value<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let mut from = 0;
    loop {
        let at = json[from..].find(&needle)? + from;
        // Reject matches inside string values: a key sits in object
        // position, after `{` or `,` (possibly with whitespace between).
        let before = json[..at].trim_end();
        if before.ends_with('{') || before.ends_with(',') || before.is_empty() {
            return Some(json[at + needle.len()..].trim_start());
        }
        from = at + needle.len();
    }
}

/// Decodes a string literal whose opening quote has already been consumed,
/// undoing the escapes [`json_escape`] produces (`\"`, `\\`, `\n`, `\r`,
/// `\t`, `\uXXXX`). Returns the string and the byte length consumed,
/// closing quote included; `None` if unterminated or malformed.
fn unescape(rest: &str) -> Option<(String, usize)> {
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((at, c)) = chars.next() {
        match c {
            '"' => return Some((out, at + 1)),
            '\\' => match chars.next()?.1 {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).map(|(_, c)| c).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            other => out.push(other),
        }
    }
    None
}

/// Reads the string field `key`, unescaped.
pub fn str_field(json: &str, key: &str) -> Option<String> {
    let rest = raw_value(json, key)?.strip_prefix('"')?;
    unescape(rest).map(|(s, _)| s)
}

/// Reads the unsigned integer field `key`, exactly (no `f64` rounding).
/// Fractions, exponents, signs and `null` yield `None`.
pub fn u64_field(json: &str, key: &str) -> Option<u64> {
    let rest = raw_value(json, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    if rest[end..].starts_with(['.', 'e', 'E']) {
        return None;
    }
    rest[..end].parse().ok()
}

/// Reads the number field `key` (integer literals too). `null` and
/// non-numeric values yield `None`.
pub fn f64_field(json: &str, key: &str) -> Option<f64> {
    let rest = raw_value(json, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The balanced `{...}` (or `[...]`) value of `key`, brackets included.
/// String-aware: brackets inside quoted values do not count.
pub fn object_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let value = raw_value(json, key)?;
    let bytes = value.as_bytes();
    let open = *bytes.first()?;
    let close = match open {
        b'{' => b'}',
        b'[' => b']',
        _ => return None,
    };
    let mut depth = 0usize;
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if in_str {
            match b {
                b'\\' => i += 1,
                b'"' => in_str = false,
                _ => {}
            }
        } else if b == b'"' {
            in_str = true;
        } else if b == open {
            depth += 1;
        } else if b == close {
            depth -= 1;
            if depth == 0 {
                return Some(&value[..=i]);
            }
        }
        i += 1;
    }
    None
}

/// Flattens every numeric leaf of a JSON document into `(dotted.path,
/// value)` pairs, in document order. Array elements get their index as a
/// path segment (`fig5_threads_sweep_sec.0`). Strings, booleans and
/// nulls are skipped. This is how `BENCH_*.json` snapshots become rows.
pub fn flatten_numbers(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut pos = 0;
    walk_value(text, &mut pos, &mut String::new(), &mut out)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes after JSON value at offset {pos}"));
    }
    Ok(out)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Appends `.segment` (or just `segment` at the root) to `path`.
fn push_segment(path: &mut String, segment: &str) {
    if !path.is_empty() {
        path.push('.');
    }
    path.push_str(segment);
}

fn walk_value(
    text: &str,
    pos: &mut usize,
    path: &mut String,
    out: &mut Vec<(String, f64)>,
) -> Result<(), String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            loop {
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    Some(b',') => *pos += 1,
                    Some(b'"') => {
                        let key = parse_string(text, pos)?;
                        skip_ws(bytes, pos);
                        if bytes.get(*pos) != Some(&b':') {
                            return Err(format!("expected ':' at offset {pos}"));
                        }
                        *pos += 1;
                        let saved = path.len();
                        push_segment(path, &key);
                        walk_value(text, pos, path, out)?;
                        path.truncate(saved);
                    }
                    _ => return Err(format!("malformed object at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut idx = 0usize;
            loop {
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    Some(b',') => *pos += 1,
                    Some(_) => {
                        let saved = path.len();
                        push_segment(path, &idx.to_string());
                        walk_value(text, pos, path, out)?;
                        path.truncate(saved);
                        idx += 1;
                    }
                    None => return Err("unterminated array".to_string()),
                }
            }
        }
        Some(b'"') => parse_string(text, pos).map(drop),
        Some(b't') => expect_lit(bytes, pos, "true"),
        Some(b'f') => expect_lit(bytes, pos, "false"),
        Some(b'n') => expect_lit(bytes, pos, "null"),
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let num = &text[start..*pos];
            let v: f64 = num
                .parse()
                .map_err(|_| format!("malformed number {num:?} at offset {start}"))?;
            out.push((path.clone(), v));
            Ok(())
        }
        None => Err("unexpected end of JSON".to_string()),
    }
}

/// Parses the string literal at `*pos` (which must be its opening quote).
fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let rest = text[*pos..]
        .strip_prefix('"')
        .ok_or_else(|| format!("expected string at offset {pos}"))?;
    let (s, used) = unescape(rest)
        .ok_or_else(|| format!("unterminated or malformed string at offset {pos}"))?;
    *pos += 1 + used;
    Ok(s)
}

fn expect_lit(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("malformed literal at offset {pos}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t\u{1}"), "x\\n\\t\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn fields_extract_and_unescape() {
        let spec = "n=10 p=4 name=\"quoted\"\ttab\u{2}";
        let line = format!(
            r#"{{"event":"submitted","job":7,"spec":"{}","predicted":12.5,"none":null}}"#,
            json_escape(spec)
        );
        assert_eq!(str_field(&line, "event").unwrap(), "submitted");
        assert_eq!(str_field(&line, "spec").unwrap(), spec);
        assert_eq!(u64_field(&line, "job"), Some(7));
        assert_eq!(f64_field(&line, "predicted"), Some(12.5));
        assert_eq!(f64_field(&line, "job"), Some(7.0));
        assert_eq!(u64_field(&line, "predicted"), None, "not an integer");
        assert_eq!(f64_field(&line, "none"), None);
        assert_eq!(u64_field(&line, "none"), None);
        assert_eq!(str_field(&line, "missing"), None);
        assert_eq!(str_field(r#"{"bad":"\uZZZZ"}"#, "bad"), None);
        assert_eq!(str_field(r#"{"open":"never closed"#, "open"), None);
        // Pretty-printed documents put whitespace around the colon.
        let pretty = "{\n  \"date\": \"2026-08-08\",\n  \"threads\": 4\n}";
        assert_eq!(str_field(pretty, "date").as_deref(), Some("2026-08-08"));
        assert_eq!(u64_field(pretty, "threads"), Some(4));
    }

    #[test]
    fn integers_are_read_exactly() {
        // 2^53 + 1 and u64::MAX have no exact f64.
        let line = r#"{"seed":9007199254740993,"max":18446744073709551615,"neg":-1}"#;
        assert_eq!(u64_field(line, "seed"), Some(9_007_199_254_740_993));
        assert_eq!(u64_field(line, "max"), Some(u64::MAX));
        assert_eq!(u64_field(line, "neg"), None);
    }

    #[test]
    fn key_lookalikes_inside_strings_are_skipped() {
        let line = r#"{"note":"fake \"job\": 9 here","job":3}"#;
        assert_eq!(u64_field(line, "job"), Some(3));
        assert_eq!(
            str_field(r#"{"a":"x, \"b\":\"no\"","b":"yes"}"#, "b").unwrap(),
            "yes"
        );
    }

    #[test]
    fn balanced_object_extraction() {
        let line = r#"{"seed":7,"config":{"kernel":"outer","nested":{"a":"}"},"n":10},"tail":1}"#;
        let obj = object_field(line, "config").unwrap();
        assert_eq!(obj, r#"{"kernel":"outer","nested":{"a":"}"},"n":10}"#);
        assert_eq!(str_field(obj, "kernel").as_deref(), Some("outer"));
        let arr_line = r#"{"xs":[1,[2,3]],"y":0}"#;
        assert_eq!(object_field(arr_line, "xs").unwrap(), "[1,[2,3]]");
        assert_eq!(object_field(line, "seed"), None);
        assert_eq!(object_field(r#"{"open":{"a":1"#, "open"), None);
    }

    #[test]
    fn flatten_walks_nested_structures() {
        let text = r#"{"date":"2026-08-08","a":{"b":1,"c":[2,3.5,{"d":-4e1}]},"skip":true,"z":null,"e":0}"#;
        let flat = flatten_numbers(text).unwrap();
        assert_eq!(
            flat,
            vec![
                ("a.b".to_string(), 1.0),
                ("a.c.0".to_string(), 2.0),
                ("a.c.1".to_string(), 3.5),
                ("a.c.2.d".to_string(), -40.0),
                ("e".to_string(), 0.0),
            ]
        );
        let escaped = flatten_numbers(r#"{"k\"ey":{"x":1}}"#).unwrap();
        assert_eq!(escaped, vec![("k\"ey.x".to_string(), 1.0)]);
    }

    #[test]
    fn flatten_rejects_malformed_documents() {
        assert!(flatten_numbers("{\"a\":").is_err());
        assert!(flatten_numbers("{\"a\":1} extra").is_err());
        assert!(flatten_numbers("{\"a\":bogus}").is_err());
        assert!(flatten_numbers("{\"a").is_err());
    }
}
