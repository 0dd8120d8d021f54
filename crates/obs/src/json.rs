//! A minimal JSON parser and structural schema checker.
//!
//! The workspace bans external dependencies, but the observability
//! plane needs two JSON consumers: golden tests that want to assert
//! on parsed snapshot structure rather than raw bytes, and the CI
//! `metrics-golden` job that validates a snapshot against a
//! checked-in schema (`inspect metrics-check`). This module is the
//! smallest implementation that serves both — a recursive-descent
//! parser over the full JSON grammar and a checker for the JSON
//! Schema subset the snapshot schema uses (`type`, `properties`,
//! `required`, `items`, `additionalProperties`, `enum`).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value. Object member order is preserved (snapshot
/// key order is part of the format).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`; snapshot values are integers well
    /// within `f64`'s exact range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The object members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Member `key` of this object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The JSON type name used in schema errors.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// A parse failure with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The documents this
/// plane writes nest five levels; the cap keeps a hostile `[[[[…` from
/// overflowing the stack of the recursive descent.
const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage and nesting beyond 64 levels rejected).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(value)
}

fn err(offset: usize, message: impl Into<String>) -> ParseError {
    ParseError { offset, message: message.into() }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err(*pos, "nesting too deep")),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected `{lit}`")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
    text.parse::<f64>().map(Json::Num).map_err(|_| err(start, format!("bad number `{text}`")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Snapshot strings never contain surrogate
                        // pairs; map unpaired surrogates to the
                        // replacement character rather than erroring.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: copy the whole scalar.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| err(*pos, "invalid utf-8"))?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]`")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected member name"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected `:`"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(err(*pos, "expected `,` or `}`")),
        }
    }
}

/// Checks `value` against a JSON-Schema-subset `schema`.
///
/// Supported keywords: `type` (including `"integer"`), `properties`,
/// `required`, `items`, `additionalProperties` (boolean or schema),
/// `enum` (strings). Errors carry a `$`-rooted path to the offending
/// node. Unknown keywords are ignored, as JSON Schema specifies.
pub fn check_schema(value: &Json, schema: &Json) -> Result<(), String> {
    check_at(value, schema, "$")
}

fn check_at(value: &Json, schema: &Json, path: &str) -> Result<(), String> {
    if let Some(ty) = schema.get("type").and_then(Json::as_str) {
        let ok = match ty {
            "integer" => {
                matches!(value, Json::Num(n) if n.fract() == 0.0)
            }
            other => value.type_name() == other,
        };
        if !ok {
            return Err(format!("{path}: expected {ty}, found {}", value.type_name()));
        }
    }
    if let Some(allowed) = schema.get("enum").and_then(Json::as_array) {
        if !allowed.iter().any(|a| a == value) {
            return Err(format!("{path}: value not in enum"));
        }
    }
    if let Some(required) = schema.get("required").and_then(Json::as_array) {
        for name in required.iter().filter_map(Json::as_str) {
            if value.get(name).is_none() {
                return Err(format!("{path}: missing required member `{name}`"));
            }
        }
    }
    let properties: BTreeMap<&str, &Json> = schema
        .get("properties")
        .and_then(Json::as_object)
        .map(|members| members.iter().map(|(k, v)| (k.as_str(), v)).collect())
        .unwrap_or_default();
    if let Some(members) = value.as_object() {
        for (key, member) in members {
            let child_path = format!("{path}.{key}");
            match properties.get(key.as_str()) {
                Some(sub) => check_at(member, sub, &child_path)?,
                None => match schema.get("additionalProperties") {
                    Some(Json::Bool(false)) => {
                        return Err(format!("{path}: unexpected member `{key}`"));
                    }
                    Some(sub @ Json::Obj(_)) => check_at(member, sub, &child_path)?,
                    _ => {}
                },
            }
        }
    }
    if let (Some(items), Some(sub)) = (value.as_array(), schema.get("items")) {
        for (i, item) in items.iter().enumerate() {
            check_at(item, sub, &format!("{path}[{i}]"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3], "b": {"c": null, "d": "x\ny"}, "e": true}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-3.0));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(parse("{} x").is_err());
        assert!(parse("{,}").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_not_recursed_into() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).unwrap_err().message.contains("too deep"));
        // Far past any stack a recursive descent could survive.
        assert!(parse(&"[{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["z", "a"]);
    }

    #[test]
    fn schema_checks_types_required_and_items() {
        let schema = parse(
            r#"{
                "type": "object",
                "required": ["mode", "counters"],
                "properties": {
                    "mode": {"type": "string", "enum": ["deterministic", "timed"]},
                    "counters": {"type": "object", "additionalProperties": {"type": "integer"}},
                    "events": {"type": "array", "items": {"type": "object", "required": ["kind"]}}
                },
                "additionalProperties": false
            }"#,
        )
        .unwrap();
        let good = parse(
            r#"{"mode": "deterministic", "counters": {"a.b": 3}, "events": [{"kind": "retry"}]}"#,
        )
        .unwrap();
        check_schema(&good, &schema).unwrap();

        let bad_mode = parse(r#"{"mode": "wrong", "counters": {}}"#).unwrap();
        assert!(check_schema(&bad_mode, &schema).unwrap_err().contains("enum"));

        let missing = parse(r#"{"mode": "timed"}"#).unwrap();
        assert!(check_schema(&missing, &schema).unwrap_err().contains("counters"));

        let fractional = parse(r#"{"mode": "timed", "counters": {"x": 1.5}}"#).unwrap();
        assert!(check_schema(&fractional, &schema).unwrap_err().contains("integer"));

        let extra = parse(r#"{"mode": "timed", "counters": {}, "zzz": 1}"#).unwrap();
        assert!(check_schema(&extra, &schema).unwrap_err().contains("zzz"));

        let bad_item = parse(r#"{"mode": "timed", "counters": {}, "events": [{}]}"#).unwrap();
        assert!(check_schema(&bad_item, &schema).unwrap_err().contains("kind"));
    }
}
