//! JSON, the one way the workspace writes and reads its artifacts.
//!
//! Traces travel as CSV ([`crate::io`]); everything else a run leaves
//! for other tools — sweep and bench artifacts, analyzer reports, SARIF
//! logs — is a [`Value`] tree, pretty-printed by its `Display` (two-space
//! indentation, fields in insertion order) and read back by the strict
//! [`parse`]. Numbers keep their literal text both ways, so a `u64` seed
//! above 2^53 or a `{:.3}` timing round-trips unchanged.
//!
//! ```
//! use simple::json::{self, Value};
//!
//! let run = Value::object([("label", Value::from("V1")), ("seed", Value::from(u64::MAX))]);
//! let text = run.to_string();
//! assert_eq!(text, "{\n  \"label\": \"V1\",\n  \"seed\": 18446744073709551615\n}");
//! assert_eq!(json::parse(&text).unwrap().get("seed").and_then(Value::as_u64), Some(u64::MAX));
//! assert!(json::parse("{\"a\": 1, \"a\": 2}").is_err());
//! ```

use std::collections::HashSet;
use std::fmt::{self, Write as _};

/// Containers nested deeper than this are refused by [`parse`], so a
/// hostile `[[[[…` returns an error instead of overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number as its literal text: from a `From` conversion, or a
    /// formatted finite float such as `format!("{ms:.3}")`.
    Number(String),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; fields keep insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs, in order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value of `key`, when this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The items, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number, when this is a non-negative integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number, when this is one whose value is a finite `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.parse().ok().filter(|v: &f64| v.is_finite()),
            _ => None,
        }
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let (open, close, items): (_, _, Vec<(Option<&str>, &Value)>) = match self {
            Value::Null => return f.write_str("null"),
            Value::Bool(b) => return write!(f, "{b}"),
            Value::Number(n) => return f.write_str(n),
            Value::String(s) => return escape(f, s),
            Value::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Value::Object(fields) => {
                let fields = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                ('{', '}', fields.collect())
            }
        };
        f.write_char(open)?;
        for (i, (key, value)) in items.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            write!(f, "{comma}\n{:1$}", "", 2 * depth + 2)?;
            if let Some(key) = key {
                escape(f, key)?;
                f.write_str(": ")?;
            }
            value.write(f, depth + 1)?;
        }
        if !items.is_empty() {
            write!(f, "\n{:1$}", "", 2 * depth)?;
        }
        f.write_char(close)
    }
}

/// Pretty-prints the value: two-space indentation, one array item or
/// object field per line, `[]`/`{}` when empty, no trailing newline.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

/// Writes `s` as a JSON string literal, quotes included.
fn escape(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

macro_rules! from_integer {
    ($($t:ty)*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Number(n.to_string())
            }
        }
    )*};
}
from_integer!(u16 u32 u64 usize);

/// Shortest round-trip text for finite floats; `null` for NaN and the
/// infinities, which JSON cannot spell.
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        if v.is_finite() {
            Value::Number(format!("{v}"))
        } else {
            Value::Null
        }
    }
}

/// `null` when absent.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// Collects into an array.
impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Why [`parse`] refused a text, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending character.
    pub line: usize,
    /// 1-based column (in characters) of the offending character.
    pub column: usize,
    /// What is wrong there.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (line, column, message) = (self.line, self.column, &self.message);
        write!(f, "not JSON: line {line}, column {column}: {message}")
    }
}

impl std::error::Error for ParseError {}

/// Parses one RFC 8259 JSON text.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the line, column and problem for
/// anything that is not exactly one JSON value: trailing data,
/// duplicate object keys, raw control characters in strings, bad
/// escapes, unpaired surrogates, malformed numbers or literals, and
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_whitespace();
    if p.pos < text.len() {
        return Err(p.error("trailing data after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        let before = &self.text[..self.pos];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        ParseError {
            line: before.matches('\n').count() + 1,
            column: before[line_start..].chars().count() + 1,
            message: message.into(),
        }
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        match self.text[self.pos..].chars().next() {
            Some(c) => self.error(format!("unexpected {c:?}, expected {expected}")),
            None => self.error(format!("unexpected end of input, expected {expected}")),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Advances past the longest run of bytes matching `keep`.
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
    }

    fn skip_whitespace(&mut self) {
        self.skip_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_whitespace();
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn expect(&mut self, byte: u8, expected: &str) -> Result<(), ParseError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.unexpected(expected))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.skip_whitespace();
        let literal = |p: &mut Self, word: &str, value| {
            let found = p.text[p.pos..].starts_with(word);
            p.pos += if found { word.len() } else { 0 };
            found
                .then_some(value)
                .ok_or_else(|| p.unexpected("a value"))
        };
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => literal(self, "true", Value::Bool(true)),
            Some(b'f') => literal(self, "false", Value::Bool(false)),
            Some(b'n') => literal(self, "null", Value::Null),
            _ => Err(self.unexpected("a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1;
        let mut items = Vec::new();
        if !self.eat(b']') {
            loop {
                items.push(self.value(depth)?);
                if self.eat(b']') {
                    break;
                }
                self.expect(b',', "',' or ']'")?;
            }
        }
        Ok(Value::Array(items))
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1;
        let (mut fields, mut keys) = (Vec::new(), HashSet::new());
        if !self.eat(b'}') {
            loop {
                let key_at = self.pos;
                if self.peek() != Some(b'"') {
                    return Err(self.unexpected("a string key"));
                }
                let key = self.string()?;
                if !keys.insert(key.clone()) {
                    self.pos = key_at;
                    return Err(self.error(format!("duplicate key {key:?}")));
                }
                self.expect(b':', "':'")?;
                fields.push((key, self.value(depth)?));
                if self.eat(b'}') {
                    break;
                }
                self.expect(b',', "',' or '}'")?;
                self.skip_whitespace();
            }
        }
        Ok(Value::Object(fields))
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let digits = |p: &mut Self, expected: &str| {
            let from = p.pos;
            p.skip_while(|b| b.is_ascii_digit());
            (p.pos > from)
                .then_some(())
                .ok_or_else(|| p.unexpected(expected))
        };
        self.pos += usize::from(self.peek() == Some(b'-'));
        let int_start = self.pos;
        digits(self, "a digit")?;
        if self.text.as_bytes()[int_start] == b'0' && self.pos - int_start > 1 {
            self.pos = int_start;
            return Err(self.error("number has a leading zero"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self, "a digit after the decimal point")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            digits(self, "a digit in the exponent")?;
        }
        Ok(Value::Number(self.text[start..self.pos].to_owned()))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            self.skip_while(|b| b != b'"' && b != b'\\' && b >= 0x20);
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.unescape()?);
                }
                Some(b) => return Err(self.error(format!("raw control character U+{b:04X}"))),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The character an escape stands for; `pos` is past its backslash.
    fn unescape(&mut self) -> Result<char, ParseError> {
        const SIMPLE: [(u8, char); 8] = [
            (b'"', '"'),
            (b'\\', '\\'),
            (b'/', '/'),
            (b'b', '\u{8}'),
            (b'f', '\u{c}'),
            (b'n', '\n'),
            (b'r', '\r'),
            (b't', '\t'),
        ];
        if let Some(&(_, c)) = SIMPLE.iter().find(|(e, _)| Some(*e) == self.peek()) {
            self.pos += 1;
            return Ok(c);
        }
        if self.peek() != Some(b'u') {
            return Err(self.unexpected("an escape (one of \"\\/bfnrtu)"));
        }
        let at = self.pos - 1;
        let hex4 = |p: &mut Self| {
            p.pos += 1; // past the `u`
            let digits = p.text.get(p.pos..p.pos + 4).unwrap_or("");
            if digits.len() == 4 && digits.bytes().all(|b| b.is_ascii_hexdigit()) {
                p.pos += 4;
                Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
            } else {
                Err(p.error("bad \\u escape (want four hex digits)"))
            }
        };
        let high = hex4(self)?;
        let mut code = Some(high);
        if (0xD800..0xDC00).contains(&high) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 1;
            let low = hex4(self)?;
            code = (0xDC00..0xE000)
                .contains(&low)
                .then(|| 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00));
        }
        // `from_u32` refuses exactly the surrogates left unpaired.
        code.and_then(char::from_u32).ok_or_else(|| {
            self.pos = at;
            self.error(format!("unpaired surrogate \\u{high:04x}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escapes_control_characters() {
        let text = Value::from("a\"b\\c\nd\u{01}").to_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&text).unwrap(), Value::from("a\"b\\c\nd\u{01}"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::from(f64::NAN), Value::Null);
        assert_eq!(Value::from(f64::INFINITY), Value::Null);
        assert_eq!(Value::from(1.5).to_string(), "1.5");
        assert_eq!(Value::from(None::<f64>), Value::Null);
    }

    #[test]
    fn object_renders_nested() {
        let inner = Value::object([("n", Value::from(3u64)), ("ok", Value::from(true))]);
        let outer = Value::object([
            ("name", Value::from("x")),
            ("inner", inner),
            ("list", ["a", "b"].into_iter().collect()),
            ("empty", Value::Array(Vec::new())),
        ]);
        let expected = "{\n  \"name\": \"x\",\n  \"inner\": {\n    \"n\": 3,\n    \"ok\": true\n  \
                        },\n  \"list\": [\n    \"a\",\n    \"b\"\n  ],\n  \"empty\": []\n}";
        assert_eq!(outer.to_string(), expected);
        assert_eq!(parse(expected).unwrap(), outer);
        // Whitespace is not structure: the minified text reads the same.
        assert_eq!(
            parse(&expected.split_whitespace().collect::<String>()).unwrap(),
            outer
        );
    }

    #[test]
    fn numbers_and_escapes_keep_their_meaning() {
        let items = parse("[18446744073709551615, 0.250, -1e-7, 2.5E+3, \"\\ud83d\\ude00\\/\"]");
        let items = items.unwrap();
        let items = items.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1], Value::Number("0.250".to_owned()));
        assert_eq!(items[2].as_u64(), None);
        assert_eq!(items[3].as_f64(), Some(2500.0));
        assert_eq!(items[4], Value::from("\u{1F600}/"));
        assert_eq!(Value::Number("1e400".to_owned()).as_f64(), None);
    }

    #[test]
    fn refusals_name_the_problem_and_place() {
        for (text, line, column, problem) in [
            ("\"label\": \"a\"", 1, 8, "trailing data"),
            ("{\"a\": 1,\n \"a\": 2}", 2, 2, "duplicate key \"a\""),
            ("[\"a\tb\"]", 1, 4, "raw control character U+0009"),
            ("\"\\x\"", 1, 3, "expected an escape"),
            ("\"\\ud800\"", 1, 2, "unpaired surrogate"),
            ("\"\\udc00\\u0041\"", 1, 2, "unpaired surrogate"),
            ("\"\\ud800\\u0041\"", 1, 2, "unpaired surrogate"),
            ("\"\\u12g4\"", 1, 4, "four hex digits"),
            ("{\"wall_ms\": 2.5.1}", 1, 16, "expected ',' or '}'"),
            ("[01]", 1, 2, "leading zero"),
            ("[1.]", 1, 4, "digit after the decimal point"),
            ("[1e+]", 1, 5, "digit in the exponent"),
            ("[-]", 1, 3, "expected a digit"),
            ("[1,]", 1, 4, "expected a value"),
            ("[1 2]", 1, 4, "expected ',' or ']'"),
            ("{\"a\" 1}", 1, 6, "expected ':'"),
            ("{1: 2}", 1, 2, "expected a string key"),
            ("[tru]", 1, 2, "expected a value"),
            ("\"abc", 1, 5, "unterminated string"),
            ("", 1, 1, "unexpected end of input"),
            ("[NaN]", 1, 2, "unexpected 'N'"),
            ("\u{c}1", 1, 1, "unexpected '\\u{c}'"),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!((err.line, err.column), (line, column), "{text:?}: {err}");
            assert!(err.message.contains(problem), "{text:?}: {err}");
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.message.contains("nesting deeper than 128"), "{err}");
        assert_eq!(err.column, MAX_DEPTH + 1);
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
    }

    proptest! {
        #[test]
        fn written_values_read_back(
            items in proptest::collection::vec(
                (any::<u64>(), any::<u64>(), proptest::collection::vec(any::<u32>(), 0..12)),
                0..8,
            )
        ) {
            // Half the characters ASCII (controls included), half anywhere
            // in Unicode; float bits cover NaN and the infinities.
            let ascii_or_any = |c: u32| if c & 1 == 0 { (c >> 1) & 0x7F } else { (c >> 1) % 0x11_0000 };
            let value: Value = items
                .iter()
                .map(|(n, bits, codes)| Value::object([
                    ("n", Value::from(*n)),
                    ("x", Value::from(f64::from_bits(*bits))),
                    ("s", codes.iter().filter_map(|&c| char::from_u32(ascii_or_any(c))).collect::<String>().into()),
                ]))
                .collect();
            prop_assert_eq!(parse(&value.to_string()).unwrap(), value);
        }
    }
}
