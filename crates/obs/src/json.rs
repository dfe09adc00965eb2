//! Minimal JSON encoding and decoding helpers (the workspace is std-only,
//! so structured run logs are written by hand, and artifacts that must be
//! read back — witness files, snapshots — are parsed with the small
//! [`Json`] reader below).

use std::ops::Range;

/// Appends `s` to `out` as a JSON string escape body (no surrounding
/// quotes): `"` and `\` are backslash-escaped, control characters use the
/// short forms where JSON has them and `\u00XX` otherwise.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Returns `s` as a quoted JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Renders an `f64` as a JSON value (`null` for non-finite values, which
/// JSON cannot represent).
pub fn number_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a dot; keep them valid but
        // recognizably floating-point for schema stability.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_owned()
    }
}

/// A parsed JSON value.
///
/// Numbers keep their source lexeme (see [`Json::Num`]) so integer values
/// outside the exact-`f64` range survive a parse → re-render round trip,
/// and object members preserve their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its source lexeme (e.g. `"42"`, `"-1.5e3"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an ordered member list.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Nesting deeper than this is rejected rather than risking a stack
/// overflow on adversarial (or corrupted) input.
const MAX_DEPTH: usize = 128;

impl Json {
    /// Parses one JSON document. Trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] carrying the byte offset of the first
    /// problem: truncated input, stray characters, bad escapes, nesting
    /// deeper than 128 levels, or garbage after the document.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        Parser::new(input, None).document()
    }

    /// Parses one JSON document like [`Json::parse`], and also returns
    /// the source byte range of the value of the top-level object's
    /// first member named `key`: the member [`Json::get`] finds. The
    /// range is `None` when the document is not an object or has no
    /// such member.
    ///
    /// # Errors
    ///
    /// As [`Json::parse`].
    pub fn parse_with_span(
        input: &str,
        key: &str,
    ) -> Result<(Json, Option<Range<usize>>), JsonError> {
        let mut p = Parser::new(input, Some(key));
        let value = p.document()?;
        Ok((value, p.span))
    }

    /// Looks up an object member by key (`None` for non-objects too).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(lex) => lex.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(lex) => lex.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(lex) => lex.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The top-level member whose value's source range to record.
    span_key: Option<&'a str>,
    span: Option<Range<usize>>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, span_key: Option<&'a str>) -> Parser<'a> {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            span_key,
            span: None,
        }
    }

    fn document(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let value = self.value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON document"));
        }
        Ok(value)
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(format!("unexpected character '{}'", b as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek().is_none() {
                return Err(self.err("unexpected end of input in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let start = self.pos;
            let value = self.value(depth + 1)?;
            if depth == 0 && self.span.is_none() && self.span_key == Some(key.as_str()) {
                self.span = Some(start..self.pos);
            }
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Reads a string. Each run up to the next quote, backslash or
    /// control byte is copied in one piece; those bytes are ASCII, so
    /// every run is whole UTF-8. A string without escapes is one run,
    /// returned as a single allocation of its final size.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            self.pos += self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - start);
            let run = &self.input[start..self.pos];
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    if out.is_empty() {
                        return Ok(run.to_owned());
                    }
                    out.push_str(run);
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(run);
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: require the paired low
                                // surrogate escape.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let second = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&second) {
                                        return Err(self.err("unpaired surrogate"));
                                    }
                                    let cp = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                    char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                char::from_u32(first).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("bad \\u escape digits"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
        }
        Ok(Json::Num(self.input[start..self.pos].to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_and_backslashes() {
        assert_eq!(quote(r#"a"b\c"#), r#""a\"b\\c""#);
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(quote("a\nb\tc"), "\"a\\nb\\tc\"");
        assert_eq!(quote("\u{01}"), "\"\\u0001\"");
        assert_eq!(quote("\u{08}\u{0c}\r"), "\"\\b\\f\\r\"");
    }

    #[test]
    fn passes_unicode_through() {
        assert_eq!(quote("µs → done"), "\"µs → done\"");
    }

    #[test]
    fn float_rendering() {
        assert_eq!(number_f64(1.5), "1.5");
        assert_eq!(number_f64(2.0), "2.0");
        assert_eq!(number_f64(f64::NAN), "null");
        assert_eq!(number_f64(f64::INFINITY), "null");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(Json::parse("1.5e2").unwrap().as_f64(), Some(150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn numbers_keep_their_lexeme() {
        // A u64 above 2^53 is not exactly representable as f64; the
        // lexeme-preserving representation keeps it exact.
        let big = u64::MAX.to_string();
        assert_eq!(Json::parse(&big).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_nested_structures_preserving_order() {
        let doc = r#"{"b": [1, 2, {"c": null}], "a": "x"}"#;
        let v = Json::parse(doc).unwrap();
        let Json::Obj(members) = &v else { panic!() };
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert_eq!(v.get("a").and_then(Json::as_str), Some("x"));
        let arr = v.get("b").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("c"), Some(&Json::Null));
    }

    #[test]
    fn unescapes_strings() {
        let v = Json::parse(r#""a\nb\t\"c\"\u0041\u00b5""#).unwrap();
        assert_eq!(v.as_str(), Some("a\nb\t\"c\"Aµ"));
        // Surrogate pair: U+1F600.
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn quote_round_trips_through_parse() {
        for s in [
            "plain",
            "with \"quotes\"",
            "new\nline",
            "µs → done",
            "\u{01}",
        ] {
            let parsed = Json::parse(&quote(s)).unwrap();
            assert_eq!(parsed.as_str(), Some(s), "{s:?}");
        }
    }

    #[test]
    fn errors_carry_offsets_not_panics() {
        for (doc, needle) in [
            ("", "end of input"),
            ("{", "end of input"),
            ("[1, 2", "',' or ']'"),
            ("{\"a\" 1}", "':'"),
            ("tru", "'true'"),
            ("1x", "trailing"),
            ("\"abc", "unterminated"),
            ("\"\\q\"", "escape"),
            ("\"\\ud800\"", "surrogate"),
            ("01x", "trailing"),
            ("-", "digits"),
        ] {
            let err = Json::parse(doc).expect_err(doc);
            assert!(err.message.contains(needle), "{doc:?}: {err}");
            assert!(err.offset <= doc.len());
            // Display mentions the offset for diagnostics.
            assert!(err.to_string().contains("at byte"), "{err}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let doc = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        let err = Json::parse(&doc).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn every_prefix_of_a_document_errors_cleanly() {
        let doc = r#"{"schema":"lfm-trace/v1","n":[1,2,3],"s":"x\n\u0041"}"#;
        for cut in 1..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            // Truncations must produce an error, never a panic or a
            // silently-accepted value.
            assert!(Json::parse(&doc[..cut]).is_err(), "cut at {cut}");
        }
    }
}
