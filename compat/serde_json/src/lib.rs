//! Offline stand-in for `serde_json`: prints and parses the vendored serde
//! [`Value`] model as real JSON text. Map/field order is preserved on both
//! paths, so output is deterministic — a property the serving experiments'
//! byte-identical-report tests rely on. Non-finite floats serialize as
//! `null` (upstream serde_json convention).

use serde::{Deserialize, Serialize};
pub use serde::{Error, Value};

/// Serialize to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize to human-readable JSON (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Deserialize any supported type from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::from_value(&value)
}

/// Convert a typed value into the generic [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Convert a generic [`Value`] tree into a typed value.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T, Error> {
    T::from_value(&value)
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::F64(f) => {
            if f.is_finite() {
                // Rust's shortest round-trip float formatting; mark integral
                // values with `.0` so they read back as floats.
                let s = f.to_string();
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_json_string(out, s),
        Value::Seq(items) => {
            write_delimited(out, '[', ']', items.len(), indent, level, |out, i| {
                write_value(out, &items[i], indent, level + 1)
            })
        }
        Value::Map(entries) => {
            write_delimited(out, '{', '}', entries.len(), indent, level, |out, i| {
                write_json_string(out, &entries[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, &entries[i].1, indent, level + 1)
            })
        }
    }
}

fn write_delimited(
    out: &mut String,
    open: char,
    close: char,
    len: usize,
    indent: Option<usize>,
    level: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (level + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * level));
    }
    out.push(close);
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest nesting of values the parser follows (upstream serde_json's
/// recursion limit): deeper input is an error, not a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::custom("unexpected end of JSON input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!("expected `{}` at byte {}", b as char, self.pos)))
        }
    }

    fn eat_keyword(&mut self, kw: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(Error::custom(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = self.value_at_depth();
        self.depth -= 1;
        v
    }

    fn value_at_depth(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.eat_keyword("null", Value::Null),
            b't' => self.eat_keyword("true", Value::Bool(true)),
            b'f' => self.eat_keyword("false", Value::Bool(false)),
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        c => {
                            return Err(Error::custom(format!(
                                "expected `,` or `]`, found `{}`",
                                c as char
                            )))
                        }
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut entries = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    entries.push((key, self.value()?));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        c => {
                            return Err(Error::custom(format!(
                                "expected `,` or `}}`, found `{}`",
                                c as char
                            )))
                        }
                    }
                }
            }
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.pos < self.bytes.len() && !matches!(self.bytes[self.pos], b'"' | b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::custom("invalid UTF-8 in string"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| Error::custom("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::custom("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::custom("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by this
                            // workspace's identifiers; map them to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        c => {
                            return Err(Error::custom(format!("invalid escape `\\{}`", c as char)))
                        }
                    }
                }
                _ => return Err(Error::custom("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if matches!(self.bytes.get(self.pos), Some(b'-')) {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&c) = self.bytes.get(self.pos) {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(Error::custom(format!("invalid JSON value at byte {start}")));
        }
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("x\n\"y\"".into())),
            ("nums".into(), Value::Seq(vec![Value::U64(3), Value::I64(-4), Value::F64(2.5)])),
            ("flag".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
        ]);
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back: Value = from_str(&text).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn floats_keep_roundtrip_precision() {
        let v = Value::F64(0.1 + 0.2);
        let back: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
        // Integral floats stay floats.
        assert_eq!(to_string(&Value::F64(2.0)).unwrap(), "2.0");
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&nested(MAX_DEPTH + 1)).is_err());
        // Deep enough to overflow the stack without the bound.
        assert!(from_str::<Value>(&"[".repeat(1 << 20)).is_err());
    }
}
