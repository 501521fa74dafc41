//! Shared plumbing for the paper-reproduction harnesses.
//!
//! Each binary under `bin/` regenerates one table or figure of the VectorH
//! paper (see DESIGN.md's experiment index); this crate holds the timing and
//! table-formatting helpers they share. Performance numbers do not come from
//! here: `perfbench/` is the repository's only benchmark.

use std::time::Instant;

/// Time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Time a closure after one untimed warm-up run (the paper reports hot
/// times).
pub fn timed_hot<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let _ = f();
    timed(f)
}

/// Render a simple aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Scale factor from `VH_SF` (default tuned for quick runs).
pub fn env_sf(default: f64) -> f64 {
    std::env::var("VH_SF")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A minimal JSON reader (the workspace has no external dependencies).
///
/// `perfbench/tests/schema.rs` reads `BENCHMARK.json` and the runner's result
/// line through it; nothing in the workspace writes JSON through this module.
pub mod report {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }
        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(a) => Some(a),
                _ => None,
            }
        }
    }

    /// Parse a JSON document (recursive descent, rejects trailing garbage).
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                *pos += 1;
                let mut kv = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    expect(b, pos, b':')?;
                    kv.push((key, parse_value(b, pos)?));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Obj(kv));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
            Some(b't') if b[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if b[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                std::str::from_utf8(&b[start..*pos])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *b.get(*pos).ok_or("unterminated escape")?;
                    *pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = b
                                .get(*pos..*pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            *pos += 4;
                            out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                        }
                        _ => return Err(format!("bad escape '\\{}'", e as char)),
                    }
                }
                c => {
                    // Re-sync to a char boundary for multibyte UTF-8.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = *pos - 1;
                        let width = match c {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let chunk = b.get(start..start + width).ok_or("truncated UTF-8")?;
                        let s = std::str::from_utf8(chunk).map_err(|_| "bad UTF-8")?;
                        out.push_str(s);
                        *pos = start + width;
                    }
                }
            }
        }
        Err("unterminated string".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures() {
        let (v, secs) = timed(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(secs >= 0.004);
    }

    #[test]
    fn table_renders() {
        print_table(&["a", "bb"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn env_sf_default() {
        assert_eq!(env_sf(0.01), 0.01);
    }

    #[test]
    fn parser_accepts_general_json_and_rejects_garbage() {
        use report::{parse, Json};
        let v = parse(r#" {"a": [1, -2.5, true, false, null, "xA", 1.5e-3], "b": {}} "#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[1], Json::Num(-2.5));
        assert_eq!(arr[5], Json::Str("xA".into()));
        assert_eq!(arr[6].as_f64(), Some(1.5e-3));
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
        assert!(parse("{").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse(r#"{"a": "\q"}"#).is_err());
        assert!(parse(r#"{"a": "open"#).is_err());
    }

    #[test]
    fn report_utf8_and_control_chars_survive() {
        // Raw multibyte UTF-8, a \u escape below 0x20 and the short escapes,
        // in a key and in a value.
        let doc = report::parse(
            r#"{"meta": {"note": "médï🎉\u0001", "quote\"and\\slash": "line\nbreak\ttab"}}"#,
        )
        .unwrap();
        let meta = doc.get("meta").unwrap();
        assert_eq!(meta.get("note").unwrap().as_str(), Some("médï🎉\u{1}"));
        assert_eq!(
            meta.get("quote\"and\\slash").unwrap().as_str(),
            Some("line\nbreak\ttab")
        );
    }
}
