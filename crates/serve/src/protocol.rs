//! The request grammar of the JSONL wire protocol, in one place for the
//! server and the router, and the writer the server's replies go
//! through.
//!
//! **Parser.** [`parse_request`] reads a request line in one pass into a
//! typed [`Request`]. With a [`FeatureBuf`] it writes the `features`
//! numbers straight into it (the server's worker scratch); without one
//! it only validates the field (the router).
//!
//! The parser accepts exactly the documents the vendored
//! `serde_json::from_str::<Value>` accepts and reports the same first
//! error with the same message, [`MAX_PARSE_DEPTH`] included: it is the
//! same recursive descent over the same grammar, with a number taking
//! the same token span (`-`, then any run of `0-9 . e E + -`) through
//! `str::parse::<f64>`. So every feature keeps its bits, and `null`
//! reads as NaN, as the vendored `f64` deserializer has it.
//!
//! Field semantics follow `Value::get` on the parsed object:
//! - the first occurrence of a key wins, whatever its type;
//! - a field of the wrong type reads as absent (`"model":5` is no
//!   model), except `features`, whose shape errors are reported;
//! - unknown keys are validated and ignored;
//! - a top-level value that is not an object has no fields.
//!
//! **Writer.** [`push_f64`], [`push_string`] and [`Escaped`] write reply
//! text into a caller-owned `String` with the vendored writer's number
//! (`{}`, non-finite as `null`) and string escaping, so a reply is the
//! bytes a `Value` tree would have rendered, without building one.

use std::fmt::{self, Write as _};
use std::ops::Range;

pub use serde_json::MAX_PARSE_DEPTH;

/// The kind of a JSON value, named as the vendored deserializer names
/// it in its type errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Null,
    Bool,
    Number,
    String,
    Array,
    Object,
}

impl Kind {
    /// The name used in `expected …, got {name}` messages.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Number => "number",
            Kind::String => "string",
            Kind::Array => "array",
            Kind::Object => "object",
        }
    }
}

/// Why a line is not JSON. Displays exactly as the vendored parser's
/// error for the same line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError<'a> {
    kind: ParseErrorKind<'a>,
    pos: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParseErrorKind<'a> {
    UnexpectedEnd,
    InvalidLiteral,
    InvalidNumber(&'a str),
    UnterminatedString,
    UnterminatedEscape,
    TruncatedUnicode,
    InvalidUnicode,
    TruncatedSurrogate,
    InvalidSurrogate,
    InvalidCodePoint,
    InvalidEscape(u8),
    Expected { want: u8, found: Option<u8> },
    Unexpected(u8),
    TooDeep,
    ExpectedCommaOrBracket,
    ExpectedCommaOrBrace,
    Trailing,
}

impl ParseError<'_> {
    /// Is this the nesting-depth refusal?
    pub fn is_too_deep(&self) -> bool {
        self.kind == ParseErrorKind::TooDeep
    }
}

impl fmt::Display for ParseError<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ParseErrorKind as K;
        let pos = self.pos;
        match self.kind {
            K::UnexpectedEnd => f.write_str("unexpected end of input"),
            K::InvalidLiteral => write!(f, "invalid literal at byte {pos}"),
            K::InvalidNumber(text) => match text.parse::<f64>() {
                Err(e) => write!(f, "invalid number {text:?}: {e}"),
                Ok(_) => write!(f, "invalid number {text:?}"),
            },
            K::UnterminatedString => f.write_str("unterminated string"),
            K::UnterminatedEscape => f.write_str("unterminated escape"),
            K::TruncatedUnicode => f.write_str("truncated \\u escape"),
            K::InvalidUnicode => f.write_str("invalid \\u escape"),
            K::TruncatedSurrogate => f.write_str("truncated surrogate"),
            K::InvalidSurrogate => f.write_str("invalid surrogate"),
            K::InvalidCodePoint => f.write_str("invalid unicode escape"),
            K::InvalidEscape(b) => write!(f, "invalid escape '\\{}'", b as char),
            K::Expected { want, found } => write!(
                f,
                "expected '{}' at byte {pos}, found {:?}",
                want as char,
                found.map(|c| c as char)
            ),
            K::Unexpected(b) => write!(f, "unexpected '{}' at byte {pos}", b as char),
            K::TooDeep => write!(f, "nesting deeper than {MAX_PARSE_DEPTH} levels at byte {pos}"),
            K::ExpectedCommaOrBracket => write!(f, "expected ',' or ']' at byte {pos}"),
            K::ExpectedCommaOrBrace => write!(f, "expected ',' or '}}' at byte {pos}"),
            K::Trailing => write!(f, "trailing characters at byte {pos}"),
        }
    }
}

/// A JSON string as it appears on the line, between its quotes, already
/// validated. Decoding is lazy, so comparing or displaying a string
/// without escapes costs no copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonStr<'a> {
    raw: &'a str,
    escaped: bool,
}

impl<'a> JsonStr<'a> {
    /// The decoded characters.
    pub fn chars(self) -> impl Iterator<Item = char> + 'a {
        let raw = self.raw;
        let mut pos = 0;
        std::iter::from_fn(move || {
            if raw.as_bytes().get(pos) == Some(&b'\\') {
                let (c, next) = unescape(raw.as_bytes(), pos).ok()?;
                pos = next;
                return Some(c);
            }
            let c = raw.get(pos..)?.chars().next()?;
            pos += c.len_utf8();
            Some(c)
        })
    }

    /// Does the decoded string equal `s`?
    pub fn eq_str(self, s: &str) -> bool {
        if self.escaped {
            self.chars().eq(s.chars())
        } else {
            self.raw == s
        }
    }

    /// The decoded string, borrowed from the line unless it has
    /// escapes.
    pub fn decode(self) -> std::borrow::Cow<'a, str> {
        if self.escaped {
            std::borrow::Cow::Owned(self.chars().collect())
        } else {
            std::borrow::Cow::Borrowed(self.raw)
        }
    }
}

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.escaped {
            return f.write_str(self.raw);
        }
        self.chars().try_for_each(|c| f.write_char(c))
    }
}

/// Decode the escape whose backslash is at `bytes[at]`, exactly as the
/// vendored parser does: the character and the position after the
/// escape. A high surrogate followed by any `\u` escape combines with
/// wrapping arithmetic (the vendored release build's semantics).
fn unescape(bytes: &[u8], at: usize) -> Result<(char, usize), ParseErrorKind<'static>> {
    use ParseErrorKind as K;
    let esc = *bytes.get(at + 1).ok_or(K::UnterminatedEscape)?;
    let mut pos = at + 2;
    let c = match esc {
        b'"' => '"',
        b'\\' => '\\',
        b'/' => '/',
        b'n' => '\n',
        b'r' => '\r',
        b't' => '\t',
        b'b' => '\u{08}',
        b'f' => '\u{0c}',
        b'u' => {
            let hex = hex4(bytes, pos).ok_or(K::TruncatedUnicode)?;
            let code = u32::from_str_radix(hex, 16).map_err(|_| K::InvalidUnicode)?;
            pos += 4;
            let c = if (0xD800..0xDC00).contains(&code) {
                if bytes.get(pos) == Some(&b'\\') && bytes.get(pos + 1) == Some(&b'u') {
                    let hex = hex4(bytes, pos + 2).ok_or(K::TruncatedSurrogate)?;
                    let low = u32::from_str_radix(hex, 16).map_err(|_| K::InvalidSurrogate)?;
                    pos += 6;
                    let high = (code - 0xD800) << 10;
                    char::from_u32(
                        0x10000u32.wrapping_add(high).wrapping_add(low.wrapping_sub(0xDC00)),
                    )
                } else {
                    None
                }
            } else {
                char::from_u32(code)
            };
            c.ok_or(K::InvalidCodePoint)?
        }
        other => return Err(K::InvalidEscape(other)),
    };
    Ok((c, pos))
}

/// The four bytes after `at` as text, if there are four and they are
/// UTF-8 on their own.
fn hex4(bytes: &[u8], at: usize) -> Option<&str> {
    bytes.get(at..at + 4).and_then(|h| std::str::from_utf8(h).ok())
}

/// A request field read as a scalar. A number keeps its token text
/// next to its value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scalar<'a> {
    Str(JsonStr<'a>),
    Num {
        text: &'a str,
        value: f64,
    },
    Bool(bool),
    /// `null`, an array or an object.
    Other(Kind),
}

impl<'a> Scalar<'a> {
    fn as_str(self) -> Option<JsonStr<'a>> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(self) -> Option<f64> {
        match self {
            Scalar::Num { value, .. } => Some(value),
            _ => None,
        }
    }

    fn as_bool(self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// Where the parser writes `features` numbers: the values in document
/// order, and for each element that is itself an array, the end of that
/// row in `values` (relative to the field's first value).
#[derive(Debug, Default)]
pub struct FeatureBuf {
    pub values: Vec<f64>,
    pub rows: Vec<usize>,
}

impl FeatureBuf {
    /// Empty both buffers, keeping their capacity.
    pub fn clear(&mut self) {
        self.values.clear();
        self.rows.clear();
    }
}

/// Why `features` does not deserialize as the shape a request needs.
/// Displays as the vendored deserializer's message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureError {
    ExpectedArray(Kind),
    ExpectedNumber(Kind),
}

impl fmt::Display for FeatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureError::ExpectedArray(k) => write!(f, "expected array, got {}", k.name()),
            FeatureError::ExpectedNumber(k) => write!(f, "expected number, got {}", k.name()),
        }
    }
}

/// A read `features` field: where its numbers landed in the
/// [`FeatureBuf`], and the first error under each of the two shapes a
/// request can ask for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Features {
    NotArray(Kind),
    Array {
        values: Range<usize>,
        rows: Range<usize>,
        /// The first element that is not a number or `null`.
        not_number: Option<Kind>,
        /// The first failure reading the elements as rows of numbers.
        bad_row: Option<FeatureError>,
    },
}

impl Features {
    /// The field as one row (`Vec<f64>`): its values' range.
    pub fn flat(&self) -> Result<Range<usize>, FeatureError> {
        match self {
            Features::NotArray(k) => Err(FeatureError::ExpectedArray(*k)),
            Features::Array { not_number: Some(k), .. } => Err(FeatureError::ExpectedNumber(*k)),
            Features::Array { values, .. } => Ok(values.clone()),
        }
    }

    /// The field as rows (`Vec<Vec<f64>>`): the values' range and the
    /// range of row ends in [`FeatureBuf::rows`].
    pub fn rows(&self) -> Result<(Range<usize>, Range<usize>), FeatureError> {
        match self {
            Features::NotArray(k) => Err(FeatureError::ExpectedArray(*k)),
            Features::Array { bad_row: Some(e), .. } => Err(*e),
            Features::Array { values, rows, .. } => Ok((values.clone(), rows.clone())),
        }
    }
}

/// The request types of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestType<'a> {
    Predict,
    MultiPredict,
    BatchPredict,
    SlaveWeights,
    Health,
    Stats,
    /// A `type` string that names no request.
    Unknown(JsonStr<'a>),
    /// No `type` string.
    Missing,
}

impl RequestType<'_> {
    const NAMED: [(&'static str, RequestType<'static>); 6] = [
        ("predict", RequestType::Predict),
        ("multi_predict", RequestType::MultiPredict),
        ("batch_predict", RequestType::BatchPredict),
        ("slave_weights", RequestType::SlaveWeights),
        ("health", RequestType::Health),
        ("stats", RequestType::Stats),
    ];

    /// The wire name of a known type; `"unknown"` and `"missing"`
    /// otherwise.
    pub fn name(self) -> &'static str {
        match self {
            RequestType::Unknown(_) => "unknown",
            RequestType::Missing => "missing",
            known => Self::NAMED.iter().find(|(_, t)| *t == known).map_or("unknown", |(n, _)| n),
        }
    }
}

/// The fields the protocol reads, in the order [`Request`] keeps them.
#[derive(Clone, Copy)]
enum Field {
    Type,
    Model,
    Version,
    Company,
    Raw,
    DeadlineMs,
    Features,
    Requests,
}

const FIELDS: [(&str, Field); 8] = [
    ("type", Field::Type),
    ("model", Field::Model),
    ("version", Field::Version),
    ("company", Field::Company),
    ("raw", Field::Raw),
    ("deadline_ms", Field::DeadlineMs),
    ("features", Field::Features),
    ("requests", Field::Requests),
];

/// One parsed request line. Each field is its key's first occurrence;
/// a document that is not an object has none.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Request<'a> {
    ty: Option<Scalar<'a>>,
    model: Option<Scalar<'a>>,
    version: Option<Scalar<'a>>,
    company: Option<Scalar<'a>>,
    raw: Option<Scalar<'a>>,
    deadline_ms: Option<Scalar<'a>>,
    /// Read only when parsing into a [`FeatureBuf`].
    features: Option<Features>,
    requests: Option<(Kind, &'a str)>,
}

impl<'a> Request<'a> {
    pub fn kind(&self) -> RequestType<'a> {
        match self.ty.and_then(Scalar::as_str) {
            None => RequestType::Missing,
            Some(s) => RequestType::NAMED
                .iter()
                .find(|(name, _)| s.eq_str(name))
                .map_or(RequestType::Unknown(s), |(_, t)| *t),
        }
    }

    pub fn model(&self) -> Option<JsonStr<'a>> {
        self.model.and_then(Scalar::as_str)
    }

    pub fn version(&self) -> Option<f64> {
        self.version.and_then(Scalar::as_f64)
    }

    pub fn company(&self) -> Option<f64> {
        self.company.and_then(Scalar::as_f64)
    }

    /// The `company` field as written, for callers that treat a plain
    /// digit run differently from other numbers.
    pub fn company_token(&self) -> Option<&'a str> {
        match self.company {
            Some(Scalar::Num { text, .. }) => Some(text),
            _ => None,
        }
    }

    pub fn raw(&self) -> Option<bool> {
        self.raw.and_then(Scalar::as_bool)
    }

    pub fn deadline_ms(&self) -> Option<f64> {
        self.deadline_ms.and_then(Scalar::as_f64)
    }

    /// The `deadline_ms` field as written (see [`Request::company_token`]).
    pub fn deadline_token(&self) -> Option<&'a str> {
        match self.deadline_ms {
            Some(Scalar::Num { text, .. }) => Some(text),
            _ => None,
        }
    }

    /// `None` when absent, or when the line was only validated.
    pub fn features(&self) -> Option<&Features> {
        self.features.as_ref()
    }

    /// The text of the `requests` array; `None` when absent or not an
    /// array.
    pub fn requests(&self) -> Option<&'a str> {
        match self.requests {
            Some((Kind::Array, text)) => Some(text),
            _ => None,
        }
    }
}

/// Parse one request line. With `buf`, the first `features` field's
/// numbers are appended to it; without, the line is only validated and
/// [`Request::features`] is `None`.
pub fn parse_request<'a>(
    line: &'a str,
    buf: Option<&mut FeatureBuf>,
) -> Result<Request<'a>, ParseError<'a>> {
    let mut s = Scanner::new(line);
    s.skip_ws();
    let request = if s.peek() == Some(b'{') {
        s.request(buf)?
    } else {
        s.skip_value()?;
        Request::default()
    };
    s.finish()?;
    Ok(request)
}

/// Call `each` with the text of every element of `array` (the text of a
/// JSON array, e.g. [`Request::requests`]), in order.
pub fn for_each_element<'a>(
    array: &'a str,
    mut each: impl FnMut(&'a str),
) -> Result<(), ParseError<'a>> {
    let mut s = Scanner::new(array);
    s.skip_ws();
    s.array(|s| {
        s.skip_ws();
        let start = s.pos;
        s.skip_value()?;
        each(s.slice(start, s.pos));
        Ok(())
    })?;
    s.finish()
}

/// A shard reply's verdict, read from its top-level fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyStatus {
    /// `"ok":true`.
    pub ok: bool,
    /// `"degraded":true`.
    pub degraded: bool,
}

/// Read a reply line's top-level `ok` and `degraded` flags (first
/// occurrence wins, as for requests). With `items = (key, spans)`, also
/// push the byte range of each element of the top-level `key` array
/// into `spans`. `None` when the reply is not a JSON object.
pub fn scan_reply(
    reply: &str,
    mut items: Option<(&str, &mut Vec<(usize, usize)>)>,
) -> Option<ReplyStatus> {
    let mut s = Scanner::new(reply);
    s.skip_ws();
    if s.peek() != Some(b'{') {
        return None;
    }
    let (mut ok, mut degraded, mut seen_items) = (None, None, false);
    s.object(|s, key| {
        if ok.is_none() && key.eq_str("ok") {
            ok = Some(s.scalar()?.as_bool());
            return Ok(());
        }
        if degraded.is_none() && key.eq_str("degraded") {
            degraded = Some(s.scalar()?.as_bool());
            return Ok(());
        }
        s.skip_ws();
        match items.as_mut() {
            Some((name, spans)) if !seen_items && key.eq_str(name) => {
                seen_items = true;
                if s.peek() != Some(b'[') {
                    return s.skip_value().map(drop);
                }
                s.array(|s| {
                    s.skip_ws();
                    let start = s.pos;
                    s.skip_value()?;
                    spans.push((start, s.pos));
                    Ok(())
                })
            }
            _ => s.skip_value().map(drop),
        }
    })
    .ok()?;
    s.finish().ok()?;
    Some(ReplyStatus { ok: ok.flatten() == Some(true), degraded: degraded.flatten() == Some(true) })
}

/// The recursive descent. Each step mirrors one of the vendored
/// parser's (`eat` is its `expect`, `skip_value` its `parse_value`), so
/// errors arise at the same byte.
struct Scanner<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

type Step<'a, T = ()> = Result<T, ParseError<'a>>;

impl<'a> Scanner<'a> {
    fn new(src: &'a str) -> Self {
        Self { src, bytes: src.as_bytes(), pos: 0, depth: 0 }
    }

    fn error(&self, kind: ParseErrorKind<'a>) -> ParseError<'a> {
        ParseError { kind, pos: self.pos }
    }

    fn slice(&self, start: usize, end: usize) -> &'a str {
        self.src.get(start..end).unwrap_or("")
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, want: u8) -> Step<'a> {
        let found = self.peek();
        if found == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(ParseErrorKind::Expected { want, found }))
        }
    }

    /// The end of the document: only whitespace may follow.
    fn finish(&mut self) -> Step<'a> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.error(ParseErrorKind::Trailing))
        }
    }

    /// One more level of nesting, refused past [`MAX_PARSE_DEPTH`].
    fn enter(&mut self) -> Step<'a> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.error(ParseErrorKind::TooDeep));
        }
        Ok(())
    }

    fn keyword(&mut self, kw: &[u8]) -> Step<'a> {
        if self.bytes.get(self.pos..).is_some_and(|rest| rest.starts_with(kw)) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.error(ParseErrorKind::InvalidLiteral))
        }
    }

    /// The number token at the cursor, unchecked.
    fn number_token(&mut self) -> &'a str {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        self.slice(start, self.pos)
    }

    /// A number: its token and the token through `str::parse::<f64>`.
    fn number(&mut self) -> Step<'a, (&'a str, f64)> {
        let text = self.number_token();
        match text.parse() {
            Ok(value) => Ok((text, value)),
            Err(_) => Err(self.error(ParseErrorKind::InvalidNumber(text))),
        }
    }

    fn string(&mut self) -> Step<'a, JsonStr<'a>> {
        self.eat(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            match self.peek() {
                None => return Err(self.error(ParseErrorKind::UnterminatedString)),
                Some(b'"') => {
                    let raw = self.slice(start, self.pos);
                    self.pos += 1;
                    return Ok(JsonStr { raw, escaped });
                }
                Some(b'\\') => {
                    escaped = true;
                    match unescape(self.bytes, self.pos) {
                        Ok((_, next)) => self.pos = next,
                        Err(kind) => return Err(self.error(kind)),
                    }
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// `[ item (, item)* ]`; `item` parses one element, leading
    /// whitespace included.
    fn array(&mut self, mut item: impl FnMut(&mut Self) -> Step<'a>) -> Step<'a> {
        self.enter()?;
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.error(ParseErrorKind::ExpectedCommaOrBracket)),
            }
        }
    }

    /// `{ key : value (, key : value)* }`; `field` parses the value of
    /// `key`, leading whitespace included.
    fn object(&mut self, mut field: impl FnMut(&mut Self, JsonStr<'a>) -> Step<'a>) -> Step<'a> {
        self.enter()?;
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            field(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.error(ParseErrorKind::ExpectedCommaOrBrace)),
            }
        }
    }

    /// Validate one value and return its kind.
    fn skip_value(&mut self) -> Step<'a, Kind> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.error(ParseErrorKind::UnexpectedEnd)),
            Some(b'n') => self.keyword(b"null").map(|()| Kind::Null),
            Some(b't') => self.keyword(b"true").map(|()| Kind::Bool),
            Some(b'f') => self.keyword(b"false").map(|()| Kind::Bool),
            Some(b'"') => self.string().map(|_| Kind::String),
            Some(b'[') => self.array(|s| s.skip_value().map(drop)).map(|()| Kind::Array),
            Some(b'{') => self.object(|s, _| s.skip_value().map(drop)).map(|()| Kind::Object),
            Some(b'-' | b'0'..=b'9') => self.number().map(|_| Kind::Number),
            Some(other) => Err(self.error(ParseErrorKind::Unexpected(other))),
        }
    }

    fn scalar(&mut self) -> Step<'a, Scalar<'a>> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b'-' | b'0'..=b'9') => {
                self.number().map(|(text, value)| Scalar::Num { text, value })
            }
            Some(b't') => self.keyword(b"true").map(|()| Scalar::Bool(true)),
            Some(b'f') => self.keyword(b"false").map(|()| Scalar::Bool(false)),
            _ => self.skip_value().map(Scalar::Other),
        }
    }

    /// One array element as a feature value: a number or `null` (read
    /// as NaN) is appended to `out`; anything else is validated and
    /// skipped. Returns the element's kind.
    fn feature(&mut self, out: &mut Vec<f64>) -> Step<'a, Kind> {
        self.skip_ws();
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => {
                let (_, value) = self.number()?;
                // ams-audit: allow(alloc): worker feature buffer, cleared not freed per request; it grows only while warming up (pinned by handler_allocs)
                out.push(value);
                Ok(Kind::Number)
            }
            Some(b'n') => {
                self.keyword(b"null")?;
                // ams-audit: allow(alloc): worker feature buffer, cleared not freed per request; it grows only while warming up (pinned by handler_allocs)
                out.push(f64::NAN);
                Ok(Kind::Null)
            }
            _ => self.skip_value(),
        }
    }

    /// The `features` field, read for both shapes at once (see
    /// [`Features`]).
    fn features(&mut self, buf: &mut FeatureBuf) -> Step<'a, Features> {
        self.skip_ws();
        if self.peek() != Some(b'[') {
            return self.skip_value().map(Features::NotArray);
        }
        let (v0, r0) = (buf.values.len(), buf.rows.len());
        let (mut not_number, mut bad_row) = (None, None);
        let is_number = |k: Kind| matches!(k, Kind::Number | Kind::Null);
        self.array(|s| {
            s.skip_ws();
            if s.peek() != Some(b'[') {
                let kind = s.feature(&mut buf.values)?;
                if !is_number(kind) {
                    not_number.get_or_insert(kind);
                }
                bad_row.get_or_insert(FeatureError::ExpectedArray(kind));
                return Ok(());
            }
            not_number.get_or_insert(Kind::Array);
            let mut bad = None;
            s.array(|s| {
                let kind = s.feature(&mut buf.values)?;
                if !is_number(kind) {
                    bad.get_or_insert(kind);
                }
                Ok(())
            })?;
            // ams-audit: allow(alloc): worker feature buffer, cleared not freed per request; it grows only while warming up (pinned by handler_allocs)
            buf.rows.push(buf.values.len() - v0);
            if let Some(kind) = bad {
                bad_row.get_or_insert(FeatureError::ExpectedNumber(kind));
            }
            Ok(())
        })?;
        Ok(Features::Array {
            values: v0..buf.values.len(),
            rows: r0..buf.rows.len(),
            not_number,
            bad_row,
        })
    }

    fn request(&mut self, mut buf: Option<&mut FeatureBuf>) -> Step<'a, Request<'a>> {
        let mut req = Request::default();
        self.object(|s, key| {
            let field = FIELDS.iter().find(|(name, _)| key.eq_str(name)).map(|(_, f)| *f);
            let slot = match field {
                Some(Field::Type) => &mut req.ty,
                Some(Field::Model) => &mut req.model,
                Some(Field::Version) => &mut req.version,
                Some(Field::Company) => &mut req.company,
                Some(Field::Raw) => &mut req.raw,
                Some(Field::DeadlineMs) => &mut req.deadline_ms,
                Some(Field::Features) => {
                    match buf.as_deref_mut() {
                        Some(b) if req.features.is_none() => req.features = Some(s.features(b)?),
                        _ => drop(s.skip_value()?),
                    }
                    return Ok(());
                }
                Some(Field::Requests) => {
                    s.skip_ws();
                    let start = s.pos;
                    let kind = s.skip_value()?;
                    req.requests.get_or_insert((kind, s.slice(start, s.pos)));
                    return Ok(());
                }
                None => return s.skip_value().map(drop),
            };
            let value = s.scalar()?;
            slot.get_or_insert(value);
            Ok(())
        })?;
        Ok(req)
    }
}

/// Append `v` as the vendored writer renders a number: Rust's shortest
/// round-trip `{}` display, `null` when not finite.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Append `items` as a JSON array, each element written by
/// `push_item`.
pub fn push_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut push_item: impl FnMut(&mut String, T),
) {
    // ams-audit: allow(alloc): reply buffer, reused by the worker; it grows only while warming up (zero per warm request, pinned by handler_allocs)
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            // ams-lint: allow(no-unbounded-queue-in-serve) — one separator per element of a reply the caller bounds
            out.push(','); // ams-audit: allow(alloc): reply buffer, warm after the first request
        }
        push_item(out, item);
    }
    // ams-audit: allow(alloc): reply buffer, reused by the worker; it grows only while warming up (zero per warm request, pinned by handler_allocs)
    out.push(']');
}

/// Append `s` as a quoted, escaped JSON string.
pub fn push_string(out: &mut String, s: &str) {
    // ams-audit: allow(alloc): reply buffer, reused by the worker; it grows only while warming up (zero per warm request, pinned by handler_allocs)
    out.push('"');
    let _ = Escaped(out).write_str(s);
    // ams-audit: allow(alloc): reply buffer, reused by the worker; it grows only while warming up (zero per warm request, pinned by handler_allocs)
    out.push('"');
}

/// Append the error reply `{"ok":false,"error":"<message>"}`, the
/// message escaped as it is displayed.
pub fn push_error(out: &mut String, message: impl fmt::Display) {
    out.push_str("{\"ok\":false,\"error\":\"");
    let _ = write!(Escaped(out), "{message}");
    out.push_str("\"}");
}

/// A `fmt::Write` sink that escapes what it is given as JSON string
/// content, exactly as the vendored writer does, so a `Display` value
/// (an error message) goes into a reply without an intermediate
/// `String`.
pub struct Escaped<'a>(pub &'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        // Runs of plain characters go out in one copy.
        let mut plain = 0;
        for (i, c) in s.char_indices() {
            let escape = match c {
                '"' => "\\\"",
                '\\' => "\\\\",
                '\n' => "\\n",
                '\r' => "\\r",
                '\t' => "\\t",
                '\u{08}' => "\\b",
                '\u{0c}' => "\\f",
                c if (c as u32) < 0x20 => "",
                _ => continue,
            };
            self.0.push_str(s.get(plain..i).unwrap_or_default());
            if escape.is_empty() {
                write!(self.0, "\\u{:04x}", c as u32)?;
            } else {
                self.0.push_str(escape);
            }
            plain = i + c.len_utf8();
        }
        self.0.push_str(s.get(plain..).unwrap_or_default());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> (Request<'_>, FeatureBuf) {
        let mut buf = FeatureBuf::default();
        let req = parse_request(line, Some(&mut buf)).expect("parses");
        (req, buf)
    }

    #[test]
    fn reads_the_typed_fields() {
        let (req, buf) = parse(
            r#"{"type":"predict","model":"m","version":2,"company":3,"raw":true,"deadline_ms":50,"features":[1.5,null,-0]}"#,
        );
        assert_eq!(req.kind(), RequestType::Predict);
        assert!(req.model().unwrap().eq_str("m"));
        assert_eq!((req.version(), req.company(), req.raw()), (Some(2.0), Some(3.0), Some(true)));
        assert_eq!(req.deadline_ms(), Some(50.0));
        let range = req.features().unwrap().flat().unwrap();
        let values = &buf.values[range];
        assert_eq!(values[0], 1.5);
        assert!(values[1].is_nan());
        assert_eq!(values[2].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn first_key_wins_and_wrong_types_read_as_absent() {
        let (req, _) = parse(r#"{"model":5,"model":"m","company":3,"company":4,"type":"x"}"#);
        assert_eq!(req.model(), None);
        assert_eq!(req.company(), Some(3.0));
        assert!(matches!(req.kind(), RequestType::Unknown(t) if t.eq_str("x")));
    }

    #[test]
    fn escaped_keys_and_values_decode() {
        let (req, _) = parse(r#"{"typ\u0065":"pr\u0065dict","model":"a\"b\u00e9"}"#);
        assert_eq!(req.kind(), RequestType::Predict);
        assert_eq!(req.model().unwrap().decode(), "a\"bé");
        assert_eq!(req.model().unwrap().to_string(), "a\"bé");
    }

    #[test]
    fn features_read_as_both_shapes() {
        let (req, buf) = parse(r#"{"features":[[1,2],[3]]}"#);
        let f = req.features().unwrap();
        assert_eq!(f.flat(), Err(FeatureError::ExpectedNumber(Kind::Array)));
        let (values, rows) = f.rows().unwrap();
        assert_eq!(&buf.values[values], &[1.0, 2.0, 3.0]);
        assert_eq!(&buf.rows[rows], &[2, 3]);
        let (req, _) = parse(r#"{"features":[[1,"a"],"b"]}"#);
        let f = req.features().unwrap();
        assert_eq!(f.rows(), Err(FeatureError::ExpectedNumber(Kind::String)));
        let (req, _) = parse(r#"{"features":{"a":1}}"#);
        assert_eq!(req.features().unwrap().flat(), Err(FeatureError::ExpectedArray(Kind::Object)));
    }

    #[test]
    fn validate_only_mode_reads_no_features() {
        let req = parse_request(r#"{"type":"health","features":[1,2]}"#, None).unwrap();
        assert_eq!(req.features(), None);
        assert!(parse_request(r#"{"features":[1,2.3.4]}"#, None).is_err());
    }

    #[test]
    fn errors_match_the_vendored_parser() {
        for line in [
            "",
            "{",
            "{\"a\":1,}",
            "[1,]",
            "nul",
            "{\"a\" 1}",
            "1 2",
            "{\"a\":\"\\x\"}",
            "{\"a\":\"\\u12\"}",
            "{\"a\":\"\\ud800\"}",
            "{\"a\":[1.2.3]}",
            "-",
            "[01,.5]",
            "\"open",
        ] {
            let want = serde_json::from_str::<serde::Value>(line).unwrap_err().to_string();
            let got = parse_request(line, None).unwrap_err().to_string();
            assert_eq!(got, want, "{line:?}");
        }
        let bomb = "[".repeat(MAX_PARSE_DEPTH + 1);
        let e = parse_request(&bomb, None).unwrap_err();
        assert!(e.is_too_deep());
        assert_eq!(
            e.to_string(),
            serde_json::from_str::<serde::Value>(&bomb).unwrap_err().to_string()
        );
    }

    #[test]
    fn scan_reply_reads_top_level_flags_and_items() {
        let mut items = Vec::new();
        let reply = r#"{"ok":true,"x":{"degraded":true},"results":[{"ok":false},1, "s"]}"#;
        let status = scan_reply(reply, Some(("results", &mut items))).unwrap();
        assert_eq!(status, ReplyStatus { ok: true, degraded: false });
        let texts: Vec<&str> = items.iter().map(|&(a, b)| &reply[a..b]).collect();
        assert_eq!(texts, [r#"{"ok":false}"#, "1", "\"s\""]);
        items.clear();
        let status = scan_reply(r#"{"ok":"true","degraded":true}"#, None).unwrap();
        assert_eq!(status, ReplyStatus { ok: false, degraded: true });
        assert_eq!(scan_reply("{\"ok\":true", None), None);
    }

    #[test]
    fn writer_matches_the_vendored_writer() {
        let mut out = String::new();
        for v in [0.1, -0.0, 1e300, 12345.6789, f64::NAN, f64::INFINITY] {
            out.clear();
            push_f64(&mut out, v);
            assert_eq!(out, serde_json::to_string(&v).unwrap());
        }
        let s = "a\"b\\c\nd\u{1}é\u{0c}";
        out.clear();
        push_string(&mut out, s);
        assert_eq!(out, serde_json::to_string(&serde::Value::String(s.into())).unwrap());
    }
}
