//! Offline stand-in for `serde_json`: prints and parses the vendored serde
//! [`Value`] model as real JSON text. Map/field order is preserved on both
//! paths, so output is deterministic — a property the serving experiments'
//! byte-identical-report tests rely on. Non-finite floats serialize as
//! `null` (upstream serde_json convention).

use serde::{Deserialize, Serialize};
pub use serde::{Error, Value};
use std::borrow::Cow;

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
pub const MAX_DEPTH: usize = 128;

/// The one JSON lexer. [`from_str`] builds a [`Value`] tree with it;
/// readers that want typed rows instead walk the text themselves with
/// [`peek`](Self::peek), [`seq`](Self::seq), [`map`](Self::map),
/// [`string`](Self::string), [`number`](Self::number) and
/// [`skip`](Self::skip), borrowing strings from the input and never
/// building a tree. Every value the parser reads counts one level of
/// nesting; a reader that opens a container itself brackets it with
/// [`enter`](Self::enter) / [`leave`](Self::leave), so both walks share
/// one depth limit and one set of error strings.
pub struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.end()?;
    Ok(v)
}

impl<'a> Parser<'a> {
    /// A parser at the start of `text`, at depth 0.
    pub fn new(text: &'a str) -> Parser<'a> {
        Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 }
    }

    /// Byte offset of the next unread input.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Only whitespace may follow the value just read.
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Error::custom(format!("trailing characters at byte {}", self.pos)));
        }
        Ok(())
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    #[inline]
    pub fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::custom("unexpected end of JSON input"))
    }

    /// Consume the next non-whitespace byte, which must be `b`.
    #[inline]
    pub fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!("expected `{}` at byte {}", b as char, self.pos)))
        }
    }

    /// Count one level of nesting for the value about to be read; an
    /// error past [`MAX_DEPTH`].
    #[inline]
    pub fn enter(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        Ok(())
    }

    /// Close the level opened by [`enter`](Self::enter).
    #[inline]
    pub fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Read one value into a [`Value`] tree.
    pub fn value(&mut self) -> Result<Value, Error> {
        self.enter()?;
        let v = self.peek().and_then(|c| match c {
            b'n' => self.keyword("null").map(|_| Value::Null),
            b't' => self.keyword("true").map(|_| Value::Bool(true)),
            b'f' => self.keyword("false").map(|_| Value::Bool(false)),
            b'"' => self.string().map(|s| Value::Str(s.into_owned())),
            b'[' => {
                let mut items = Vec::new();
                self.seq(|p| {
                    items.push(p.value()?);
                    Ok(())
                })
                .map(|_| Value::Seq(items))
            }
            b'{' => {
                let mut entries = Vec::new();
                self.map(|p, key| {
                    entries.push((key.into_owned(), p.value()?));
                    Ok(())
                })
                .map(|_| Value::Map(entries))
            }
            _ => self.number(),
        });
        self.leave();
        v
    }

    /// Read and check one value without building it: the same grammar,
    /// depth limit and errors as [`value`](Self::value), and no
    /// allocation on valid input.
    #[inline]
    pub fn skip(&mut self) -> Result<(), Error> {
        self.enter()?;
        let r = self.peek().and_then(|c| match c {
            b'n' => self.keyword("null"),
            b't' => self.keyword("true"),
            b'f' => self.keyword("false"),
            b'"' => self.lex_string(false).map(drop),
            b'[' => self.seq(Parser::skip),
            b'{' => self.map(|p, _| p.skip()),
            _ => self.number().map(drop),
        });
        self.leave();
        r
    }

    #[inline]
    fn keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(Error::custom(format!("invalid literal at byte {}", self.pos)))
        }
    }

    /// An array, `each` reading every element in order. The caller
    /// counts the array's own level (see [`enter`](Self::enter)).
    pub fn seq(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.expect(b'[')?;
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(());
        }
        loop {
            each(self)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(());
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

    /// An object, `each` reading every value in order after its key.
    /// The caller counts the object's own level.
    pub fn map(
        &mut self,
        mut each: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.expect(b'{')?;
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            each(self, key)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(());
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

    /// A string, borrowed from the input unless it holds an escape.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.lex_string(true)
    }

    /// The string grammar; `decode` false checks escapes without
    /// building the decoded text.
    #[inline]
    fn lex_string(&mut self, decode: bool) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut out: Option<String> = None;
        loop {
            let run = self.pos;
            let rest = &self.bytes[run..];
            self.pos += rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            // Runs end at ASCII bytes, so they are `str` boundaries.
            let text = &self.text[run..self.pos];
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        Some(mut out) => {
                            out.push_str(text);
                            Cow::Owned(out)
                        }
                        None => Cow::Borrowed(&self.text[start..self.pos - 1]),
                    });
                }
                Some(b'\\') => {
                    if decode {
                        out.get_or_insert_with(String::new).push_str(text);
                    }
                    self.pos += 1;
                    let c = self.escape()?;
                    if let Some(out) = &mut out {
                        out.push(c);
                    }
                }
                _ => return Err(Error::custom("unterminated string")),
            }
        }
    }

    /// The character of the escape after a backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let esc = self
            .bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::custom("unterminated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                self.pos += 4;
                let code = u32::from_str_radix(
                    std::str::from_utf8(hex).map_err(|_| Error::custom("invalid \\u escape"))?,
                    16,
                )
                .map_err(|_| Error::custom("invalid \\u escape"))?;
                // Surrogate pairs are not needed by this workspace's
                // identifiers; map them to U+FFFD.
                char::from_u32(code).unwrap_or('\u{FFFD}')
            }
            c => return Err(Error::custom(format!("invalid escape `\\{}`", c as char))),
        })
    }

    /// A number: [`Value::U64`], [`Value::I64`] when negative, or
    /// [`Value::F64`] when it has a fraction or exponent.
    #[inline]
    pub fn number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
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
        let text = &self.text[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(Error::custom(format!("invalid JSON value at byte {start}")));
        }
        let v = if is_float {
            text.parse::<f64>().ok().map(Value::F64)
        } else if text.starts_with('-') {
            text.parse::<i64>().ok().map(Value::I64)
        } else {
            text.parse::<u64>().ok().map(Value::U64)
        };
        v.ok_or_else(|| Error::custom(format!("invalid number `{text}`")))
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
    fn skip_checks_what_value_reads() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let texts = [
            "{\"a\": [1, -2, 3.5e1, \"x\\ny\", null, true], \"b\": {}}".to_string(),
            "{\"a\": }".into(),
            "[1, 2".into(),
            "nul".into(),
            "1 2".into(),
            "\"\\x\"".into(),
            "\"\\u12\"".into(),
            "-".into(),
            "18446744073709551616".into(),
            "[1,]".into(),
            "{\"a\" 1}".into(),
            "{1: 2}".into(),
            nested(MAX_DEPTH),
            nested(MAX_DEPTH + 1),
        ];
        for text in &texts {
            let read = parse_value(text).map(drop);
            let mut p = Parser::new(text);
            let skipped = p.skip().and_then(|()| p.end());
            assert_eq!(format!("{read:?}"), format!("{skipped:?}"), "{text}");
        }
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut p = Parser::new("\"plain\"");
        assert!(matches!(p.string().unwrap(), Cow::Borrowed("plain")));
        let mut p = Parser::new("\"a\\\"b\\u0041\"");
        assert!(matches!(p.string().unwrap(), Cow::Owned(s) if s == "a\"bA"));
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
