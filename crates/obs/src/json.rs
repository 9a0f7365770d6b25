//! A minimal hand-rolled JSON value, parser and writer (the workspace vendors
//! no serde). The parser validates emitted Chrome trace artifacts and reads
//! `BENCH_results.json` back; [`write()`] and [`escape`] are the workspace's
//! only JSON serialisation, so no caller formats or escapes by hand.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Value::Arr(_) | Value::Obj(_))
    }
}

impl From<bool> for Value {
    fn from(value: bool) -> Value {
        Value::Bool(value)
    }
}

impl From<f64> for Value {
    fn from(value: f64) -> Value {
        Value::Num(value)
    }
}

/// Counters are stored as `f64`: exact below 2^53, far above any count the
/// workspace produces.
impl From<u64> for Value {
    fn from(value: u64) -> Value {
        Value::Num(value as f64)
    }
}

impl From<usize> for Value {
    fn from(value: usize) -> Value {
        Value::Num(value as f64)
    }
}

impl From<&str> for Value {
    fn from(value: &str) -> Value {
        Value::Str(value.to_string())
    }
}

impl From<String> for Value {
    fn from(value: String) -> Value {
        Value::Str(value)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
}

/// `None` is `null`: not measured.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(value: Option<T>) -> Value {
        value.map_or(Value::Null, Into::into)
    }
}

/// An array of whatever converts to a value.
impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// An object literal: `obj! { "name" => name, "count" => 3usize }`, each
/// value through its `From` conversion.
#[macro_export]
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::json::Value::Obj(::std::collections::BTreeMap::from([
            $(($key.to_string(), $crate::json::Value::from($value))),*
        ]))
    };
}

/// Appends `text` to `out` with the escapes a JSON string body needs.
pub fn escape(text: &str, out: &mut String) {
    for ch in text.chars() {
        match ch {
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
}

/// Renders `value` as a JSON document that [`parse`] reads back to an equal
/// value. A container of scalars takes one line, any other container one
/// line per child (two-space indent), so a committed file diffs by record.
/// JSON has no non-finite numbers: they are written as `null`.
pub fn write(value: &Value) -> String {
    let mut out = String::new();
    write_value(value, 0, &mut out);
    out.push('\n');
    out
}

fn write_value(value: &Value, depth: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
        Value::Num(_) => out.push_str("null"),
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            let inline = items.iter().all(Value::is_scalar);
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                separate(i, inline, depth + 1, out);
                write_value(item, depth + 1, out);
            }
            close(items.is_empty(), inline, depth, ']', out);
        }
        Value::Obj(map) => {
            let inline = map.values().all(Value::is_scalar);
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                separate(i, inline, depth + 1, out);
                write_str(key, out);
                out.push_str(": ");
                write_value(item, depth + 1, out);
            }
            close(map.is_empty(), inline, depth, '}', out);
        }
    }
}

fn write_str(text: &str, out: &mut String) {
    out.push('"');
    escape(text, out);
    out.push('"');
}

fn newline(depth: usize, out: &mut String) {
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
}

fn separate(index: usize, inline: bool, depth: usize, out: &mut String) {
    if index > 0 {
        out.push(',');
    }
    if !inline {
        newline(depth, out);
    } else if index > 0 {
        out.push(' ');
    }
}

fn close(empty: bool, inline: bool, depth: usize, bracket: char, out: &mut String) {
    if !inline && !empty {
        newline(depth, out);
    }
    out.push(bracket);
}

/// Parse a complete JSON document. Errors carry the byte offset and a short
/// description.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            // Combine UTF-16 surrogate pairs when present.
                            let ch = if (0xD800..0xDC00).contains(&unit) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((unit as u32 - 0xD800) << 10)
                                        + (low as u32 - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(unit as u32)
                            };
                            out.push(ch.ok_or_else(|| self.err("bad \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str, so
                    // byte boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let unit = u16::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let value = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#)
            .expect("parse");
        assert_eq!(value.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            value.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(value.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(value.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let value = parse(r#""Aé😀\t\\""#).expect("parse");
        assert_eq!(value.as_str(), Some("Aé😀\t\\"));
    }

    #[test]
    fn written_documents_parse_back_equal() {
        let value = crate::obj! {
            "text" => "quote \" backslash \\ bell \u{7} tab \t é",
            "empty" => crate::obj! {},
            "rows" => vec![
                crate::obj! { "n" => 1u64, "x" => 0.1 },
                vec![Value::Null, true.into(), (-2.5e-7).into()].into(),
                Value::Arr(Vec::new()),
            ],
        };
        let text = write(&value);
        assert_eq!(parse(&text).expect("written JSON parses"), value);
        assert!(text.contains(r#"{"n": 1, "x": 0.1}"#), "{text}");

        let non_finite: Value = [f64::NAN, f64::INFINITY].into_iter().collect();
        assert_eq!(write(&non_finite), "[null, null]\n");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("[1] trailing").is_err());
        assert!(parse("01a").is_err());
    }
}
