//! A minimal JSON parser for benchmark artifacts.
//!
//! The workspace deliberately carries no serialization dependency; the
//! exporters in `obs` hand-format their JSON, and this module is the
//! matching reader used by the `report` binary and the artifact
//! schema-validation tests. It implements the full JSON grammar (objects,
//! arrays, strings with escapes, numbers, booleans, null) with byte
//! offsets in error messages; numbers are parsed as `f64`, which is exact
//! for every count the exporters emit below 2^53.
//!
//! Artifact readers go through [`load`] and the typed getters of
//! [`Field`], whose errors name the file and the key.

use crate::{BenchError, BenchResult};
use std::collections::BTreeMap;
use std::fmt;

/// Reads and parses the artifact at `path`. With `kind`, the document's
/// `kind` key must name it.
///
/// # Errors
///
/// Fails if the file cannot be read, is not JSON, or is of another kind.
pub fn load(path: &str, kind: Option<&str>) -> BenchResult<Json> {
    let text = std::fs::read_to_string(path)?;
    let doc = Json::parse(&text).map_err(|e| fail(path, format!("invalid JSON: {e}")))?;
    if let Some(kind) = kind {
        if doc.at(path).str("kind")? != kind {
            return Err(fail(path, format!("kind is not {kind:?}")));
        }
    }
    Ok(doc)
}

fn fail(path: &str, what: impl fmt::Display) -> BenchError {
    BenchError::Gate(format!("{path}: {what}"))
}

/// A value of the artifact at `path`. Each getter reads a required key of
/// one type and fails, naming the file and the key, when the key is
/// missing or of another type.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a> {
    /// The artifact's path.
    pub path: &'a str,
    /// The value itself, for keys a reader defaults.
    pub value: &'a Json,
}

impl<'a> Field<'a> {
    /// The key `key`, of any type.
    pub fn get(self, key: &str) -> BenchResult<Field<'a>> {
        let value = self.value.get(key);
        let value = value.ok_or_else(|| fail(self.path, format!("missing key {key:?}")))?;
        Ok(Field { value, ..self })
    }

    fn typed<T>(self, key: &str, what: &str, cast: fn(&'a Json) -> Option<T>) -> BenchResult<T> {
        cast(self.get(key)?.value).ok_or_else(|| fail(self.path, format!("{key} is not {what}")))
    }

    /// The non-negative integer `key`.
    pub fn u64(self, key: &str) -> BenchResult<u64> {
        self.typed(key, "an integer", Json::as_u64)
    }

    /// The number `key`.
    pub fn f64(self, key: &str) -> BenchResult<f64> {
        self.typed(key, "a number", Json::as_f64)
    }

    /// The string `key`.
    pub fn str(self, key: &str) -> BenchResult<&'a str> {
        self.typed(key, "a string", Json::as_str)
    }

    /// The object `key`.
    pub fn obj(self, key: &str) -> BenchResult<Field<'a>> {
        self.typed(key, "an object", Json::as_obj)?;
        self.get(key)
    }

    /// The elements of the array `key`.
    pub fn arr(self, key: &str) -> BenchResult<impl Iterator<Item = Field<'a>>> {
        let items = self.typed(key, "an array", Json::as_arr)?;
        Ok(items.iter().map(move |value| Field { value, ..self }))
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integer or float).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps key order deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// This value as read from the artifact at `path`, for [`Field`]'s
    /// getters.
    pub fn at<'a>(&'a self, path: &'a str) -> Field<'a> {
        Field { path, value: self }
    }

    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write!(f, "{s:?}"),
            Json::Arr(v) => write!(f, "[{} items]", v.len()),
            Json::Obj(m) => write!(f, "{{{} keys}}", m.len()),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid utf-8 in number at byte {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| {
                                    format!("truncated \\u escape at byte {}", self.pos)
                                })?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| format!("invalid utf-8 at byte {}", self.pos))?;
                    let ch = s.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y", "d": null}, "e": true}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn round_trips_exporter_output() {
        let rec = obs::Recorder::new(16, 1);
        rec.enable_windows(sim::SimDuration::from_millis(10), 8);
        let tracer = obs::Tracer::new();
        tracer.attach(rec.clone(), obs::NONE);
        let (start, end) = (sim::SimTime::ZERO, sim::SimTime::from_micros(50));
        tracer
            .leaf(obs::Span::new(obs::OpClass::Write, obs::Stage::WholeOp, start, end).sectors(8));
        let breakdown = Json::parse(&rec.breakdown_json("x")).unwrap();
        assert!(breakdown.get("stages").unwrap().get("whole_op").is_some());
        let timeline = Json::parse(&obs::timeline_json("x", &rec, 4096)).unwrap();
        assert_eq!(timeline.get("kind").unwrap().as_str(), Some("timeline"));
        assert!(!timeline
            .get("windows")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn rejects_malformed() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn as_u64_is_strict() {
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Num(5.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("5".into()).as_u64(), None);
    }
}
