//! A minimal hand-rolled JSON value tree, serializer and parser.
//!
//! The workspace is dependency-free, so structured artifacts (bench JSON,
//! sweep-server job specs and record streams) ride through this small tree
//! type instead of serde. Only what the workspace needs is implemented:
//! construction from Rust primitives, object/array composition, rendering
//! to a valid RFC 8259 document (pretty-printed, two-space indent), and a
//! strict parser for reading documents back. Non-finite floats serialize
//! as `null` — JSON has no encoding for them and a crash in a report
//! writer would lose the run.

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers ride as f64 (the JSON number model); u64 counters in
    /// practice stay far below 2^53 so the conversion is exact.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(v as f64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json> + Clone> From<&[T]> for Json {
    fn from(v: &[T]) -> Self {
        Json::Arr(v.iter().cloned().map(Into::into).collect())
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// Parse an RFC 8259 document (the inverse of [`Json::render`]).
    ///
    /// Needed by the benchmark-regression gate, which reads back the
    /// committed baseline artifact. Numbers parse as f64 (the JSON number
    /// model); any trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (`None` on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Exact non-negative integer value: a finite, integral number in
    /// `0..=2^53` (past that an f64 no longer holds every integer, so the
    /// value read would not be the value written). Parsers of outside input
    /// use this instead of an `as` cast, which silently saturates.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Json::Num(n) if n.fract() == 0.0 && (0.0..=MAX_EXACT).contains(n) => Some(*n as u64),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Append a field to an object (panics on non-objects: builder misuse).
    pub fn push<K: Into<String>, V: Into<Json>>(&mut self, key: K, value: V) {
        match self {
            Json::Obj(pairs) => pairs.push((key.into(), value.into())),
            other => panic!("Json::push on non-object {other:?}"),
        }
    }

    /// Serialize to a pretty-printed document (two-space indent, `\n`
    /// separators, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Render as a single line with no insignificant whitespace — the shape
    /// JSON-lines record streams want. No trailing newline.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
            // Scalars render identically in both modes.
            scalar => scalar.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 1e15 {
                        // Integral values print without a fraction.
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    out.push_str("null");
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
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Recursive-descent parser over the raw bytes. JSON structure is ASCII, so
/// byte-level scanning is safe; multi-byte UTF-8 only appears inside strings
/// and is passed through verbatim.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
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

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs never appear in our own artifacts;
                            // map lone surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (1-4 bytes) verbatim.
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| (b & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
        }) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::from(true).render(), "true\n");
        assert_eq!(Json::from(42u64).render(), "42\n");
        assert_eq!(Json::from(1.5).render(), "1.5\n");
        assert_eq!(Json::from("hi").render(), "\"hi\"\n");
    }

    #[test]
    fn escapes_strings() {
        let s = Json::from("a\"b\\c\nd\te\u{1}").render();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"\n");
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(Json::from(f64::NAN).render(), "null\n");
        assert_eq!(Json::from(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn renders_nested_structures() {
        let mut doc = Json::obj([("name", Json::from("run"))]);
        doc.push(
            "points",
            Json::Arr(vec![Json::from(1u64), Json::from(2u64)]),
        );
        doc.push("empty", Json::Arr(vec![]));
        doc.push("nested", Json::obj([("ok", Json::from(true))]));
        let text = doc.render();
        assert_eq!(
            text,
            "{\n  \"name\": \"run\",\n  \"points\": [\n    1,\n    2\n  ],\n  \
             \"empty\": [],\n  \"nested\": {\n    \"ok\": true\n  }\n}\n"
        );
    }

    #[test]
    fn parse_round_trips_render() {
        let mut doc = Json::obj([("suite", Json::from("perf_gate"))]);
        doc.push("tolerance", 0.25);
        doc.push(
            "kernels",
            Json::Arr(vec![
                Json::obj([
                    ("name", Json::from("diffusion/stencil")),
                    ("median_ns", Json::from(1234u64)),
                ]),
                Json::obj([("name", Json::from("exact_sum")), ("median_ns", 9.5.into())]),
            ]),
        );
        doc.push("empty", Json::Arr(vec![]));
        doc.push("none", Json::Null);
        doc.push("ok", true);
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parse_accessors_walk_the_tree() {
        let doc =
            Json::parse(r#"{"kernels": [{"name": "a", "median_ns": 42}], "x": "y"}"#).unwrap();
        let kernels = doc.get("kernels").unwrap().as_arr().unwrap();
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0].get("name").unwrap().as_str(), Some("a"));
        assert_eq!(kernels[0].get("median_ns").unwrap().as_f64(), Some(42.0));
        assert_eq!(doc.get("x").unwrap().as_str(), Some("y"));
        assert!(doc.get("missing").is_none());
        assert!(doc.get("x").unwrap().as_f64().is_none());
    }

    #[test]
    fn as_u64_accepts_only_exact_non_negative_integers() {
        let num = |text: &str| Json::parse(text).unwrap().as_u64();
        assert_eq!(num("0"), Some(0));
        assert_eq!(num("42"), Some(42));
        assert_eq!(num("4.0e1"), Some(40));
        assert_eq!(num("9007199254740992"), Some(1 << 53));
        for hostile in [
            "-5",
            "-0.5",
            "2.7",
            "1e30",
            "9007199254740994",
            "\"7\"",
            "null",
        ] {
            assert_eq!(num(hostile), None, "{hostile}");
        }
        assert_eq!(Json::Num(f64::NAN).as_u64(), None);
        assert_eq!(Json::Num(f64::INFINITY).as_u64(), None);
    }

    #[test]
    fn parse_handles_escapes_and_numbers() {
        let doc = Json::parse(r#"["a\"b\\c\ndA", -1.5e3, 0.125, true, false, null]"#).unwrap();
        let items = doc.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(items[1].as_f64(), Some(-1500.0));
        assert_eq!(items[2].as_f64(), Some(0.125));
        assert_eq!(items[3], Json::Bool(true));
        assert_eq!(items[4], Json::Bool(false));
        assert_eq!(items[5], Json::Null);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("42 tail").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn integral_floats_have_no_fraction() {
        assert_eq!(Json::from(3.0).render(), "3\n");
        assert_eq!(Json::from(0.25).render(), "0.25\n");
        // Big counters still within exact-f64 range keep full precision.
        assert_eq!(
            Json::from(9_007_199_254_740_992u64).render(),
            "9007199254740992\n"
        );
    }
}
