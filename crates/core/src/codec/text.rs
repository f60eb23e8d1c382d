//! The self-describing text transfer syntax.
//!
//! Values render as readable text:
//!
//! ```text
//! null  true  42  3.5  "hi\n"  b"00ff"  [1, 2]  {a: 1, b: "x"}  ref(7)
//! ```
//!
//! Floats always carry a `.` or exponent so they are distinguishable from
//! ints. Record keys that are valid identifiers render bare; others quoted.
//!
//! [`TextSyntax`] maps whole [`Value`]s to and from that notation;
//! [`Writer`] is the rendering half a piece at a time, as
//! [`binary::Writer`](super::binary::Writer) is for the binary layout.
//!
//! The notation is read in one place, `TextParser`, a parser folded over
//! a `Builder` (see the [module above](super)): with the `Value` builder
//! it is `decode`, with a `Writer` it is [`transcode`](super::transcode).

use std::borrow::Cow;
use std::io::Write as _;

use super::{
    too_deep, Builder, CodecError, LastKey, SyntaxId, TransferSyntax, ValueBuilder, MAX_NESTING,
    TYPICAL_ENCODING,
};
use crate::value::Value;

/// The self-describing text transfer syntax (see module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TextSyntax;

impl TransferSyntax for TextSyntax {
    fn id(&self) -> SyntaxId {
        SyntaxId::Text
    }

    fn encode(&self, value: &Value) -> Vec<u8> {
        let mut out = Vec::with_capacity(TYPICAL_ENCODING);
        Writer::new(&mut out).value(value);
        out
    }

    fn encode_into(&self, value: &Value, out: &mut Vec<u8>) {
        Writer::new(out).value(value);
    }

    fn decode(&self, bytes: &[u8]) -> Result<Value, CodecError> {
        parse(bytes, &mut ValueBuilder)
    }
}

/// Folds the one value `bytes` spell into `builder`.
pub(super) fn parse<'a, B: Builder<'a>>(
    bytes: &'a [u8],
    builder: &mut B,
) -> Result<B::Value, CodecError> {
    let src = std::str::from_utf8(bytes).map_err(|e| CodecError {
        syntax: SyntaxId::Text,
        offset: e.valid_up_to(),
        message: "encoding is not utf-8".into(),
    })?;
    let mut p = TextParser { src, pos: 0 };
    let v = p.value(builder, 0)?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.error("trailing characters after value"));
    }
    Ok(v)
}

/// Renders the notation straight into a caller's buffer, a piece at a
/// time: a document whose shape is known (the invocation wire records)
/// goes to its bytes without first being built as a [`Value`].
///
/// A record is [`record_open`](Self::record_open), then for each field
/// [`key`](Self::key) and its value, keys in ascending order, then
/// [`record_close`](Self::record_close); the writer puts the `, ` between
/// fields. Written that way the bytes are what [`TextSyntax::encode`]
/// gives for the same document — which is itself written through here.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    /// A record was opened and has no field yet.
    first_field: bool,
    /// As a `Builder`: no record so far had a key out of order.
    pub(super) canonical: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Self {
            out,
            first_field: false,
            canonical: true,
        }
    }

    /// Opens a record.
    pub fn record_open(&mut self) {
        self.out.push(b'{');
        self.first_field = true;
    }

    /// A record key (its value comes next): bare if it is an identifier,
    /// quoted otherwise.
    pub fn key(&mut self, key: &str) {
        self.key_bytes(key.as_bytes());
    }

    /// [`key`](Self::key) of a name's UTF-8 bytes.
    fn key_bytes(&mut self, key: &[u8]) {
        if !std::mem::take(&mut self.first_field) {
            self.out.extend_from_slice(b", ");
        }
        if is_ident(key) {
            self.out.extend_from_slice(key);
        } else {
            self.quoted(key);
        }
        self.out.extend_from_slice(b": ");
    }

    /// Closes the record opened last.
    pub fn record_close(&mut self) {
        self.out.push(b'}');
        self.first_field = false;
    }

    /// A text value: quoted, with `"`, `\` and the three control
    /// characters escaped and everything between copied as it is.
    pub fn text(&mut self, text: &str) {
        self.quoted(text.as_bytes());
    }

    /// [`text`](Self::text) of UTF-8 bytes: every byte escaped is ASCII,
    /// so the runs between escapes are copied whole.
    fn quoted(&mut self, text: &[u8]) {
        self.out.push(b'"');
        let mut rest = text;
        while let Some(at) = rest
            .iter()
            .position(|b| matches!(b, b'"' | b'\\' | b'\n' | b'\t' | b'\r'))
        {
            self.out.extend_from_slice(&rest[..at]);
            self.out.extend_from_slice(match rest[at] {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\t' => b"\\t",
                _ => b"\\r",
            });
            rest = &rest[at + 1..];
        }
        self.out.extend_from_slice(rest);
        self.out.push(b'"');
    }

    fn blob(&mut self, bytes: &[u8]) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.out.extend_from_slice(b"b\"");
        for byte in bytes {
            self.out.push(HEX[usize::from(byte >> 4)]);
            self.out.push(HEX[usize::from(byte & 0xf)]);
        }
        self.out.push(b'"');
    }

    /// Any value.
    pub fn value(&mut self, value: &Value) {
        // Writing to a `Vec` cannot fail.
        match value {
            Value::Null => self.out.extend_from_slice(b"null"),
            Value::Bool(b) => self
                .out
                .extend_from_slice(if *b { b"true" } else { b"false" }),
            Value::Int(i) => {
                let _ = write!(self.out, "{i}");
            }
            Value::Float(x) => {
                if x.is_nan() {
                    self.out.extend_from_slice(b"nan");
                } else if x.is_infinite() {
                    self.out
                        .extend_from_slice(if *x > 0.0 { b"inf" } else { b"-inf" });
                } else {
                    // Debug formatting prints the shortest round-trippable form
                    // and always marks floats (".0" or an exponent).
                    let _ = write!(self.out, "{x:?}");
                }
            }
            Value::Text(s) => self.text(s),
            Value::Blob(b) => self.blob(b),
            Value::Seq(items) => {
                self.out.push(b'[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.extend_from_slice(b", ");
                    }
                    self.value(v);
                }
                self.out.push(b']');
            }
            Value::Record(fields) => {
                self.record_open();
                for (name, v) in fields.fields() {
                    self.key_bytes(name.as_bytes());
                    self.value(v);
                }
                self.record_close();
            }
            Value::Ref(id) => {
                let _ = write!(self.out, "ref({id})");
            }
        }
    }
}

/// The writer as what another encoding is parsed into: the pieces are
/// rendered as they are read.
impl<'a> Builder<'a> for Writer<'_> {
    type Value = ();
    /// No element written yet.
    type Seq = bool;
    type Record = LastKey<'a>;

    fn scalar(&mut self, value: Value) {
        self.value(&value);
    }

    fn text(&mut self, text: Cow<'a, str>) {
        Writer::text(self, &text);
    }

    fn blob(&mut self, bytes: Cow<'a, [u8]>) {
        Writer::blob(self, &bytes);
    }

    fn seq_open(&mut self, _hint: usize) -> bool {
        self.out.push(b'[');
        true
    }

    fn item(
        &mut self,
        first: &mut bool,
        item: impl FnOnce(&mut Self) -> Result<(), CodecError>,
    ) -> Result<(), CodecError> {
        if !std::mem::take(first) {
            self.out.extend_from_slice(b", ");
        }
        item(self)
    }

    fn seq_close(&mut self, _first: bool) {
        self.out.push(b']');
    }

    fn record_open(&mut self, _hint: usize) -> LastKey<'a> {
        Writer::record_open(self);
        LastKey::default()
    }

    fn field(
        &mut self,
        last: &mut LastKey<'a>,
        key: Cow<'a, [u8]>,
        value: impl FnOnce(&mut Self) -> Result<(), CodecError>,
    ) -> Result<(), CodecError> {
        self.key_bytes(&key);
        self.canonical &= last.ascends_to(key);
        value(self)
    }

    fn record_close(&mut self, _last: LastKey<'a>) {
        Writer::record_close(self);
    }
}

fn is_ident(bytes: &[u8]) -> bool {
    bytes
        .first()
        .is_some_and(|b| b.is_ascii_alphabetic() || *b == b'_')
        && bytes
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || *b == b'_')
        && !matches!(
            bytes,
            b"null" | b"true" | b"false" | b"nan" | b"inf" | b"ref"
        )
}

struct TextParser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> TextParser<'a> {
    fn error(&self, message: impl Into<String>) -> CodecError {
        CodecError {
            syntax: SyntaxId::Text,
            offset: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    /// The byte at the cursor. The cursor only ever stops on a character
    /// boundary, so an ASCII match here is a whole character.
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Moves the cursor over every leading byte `wanted` accepts.
    fn skip_while(&mut self, wanted: impl Fn(u8) -> bool) {
        while self.peek().is_some_and(&wanted) {
            self.pos += 1;
        }
    }

    fn skip_ws(&mut self) {
        self.skip_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    fn eat(&mut self, prefix: &str) -> bool {
        if self.rest().starts_with(prefix) {
            self.pos += prefix.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, prefix: &str) -> Result<(), CodecError> {
        if self.eat(prefix) {
            Ok(())
        } else {
            Err(self.error(format!("expected {prefix:?}")))
        }
    }

    /// Folds a value inside `depth` enclosing containers into `b`. The
    /// first byte says which kind it can be; the keywords are then
    /// matched whole.
    fn value<B: Builder<'a>>(&mut self, b: &mut B, depth: usize) -> Result<B::Value, CodecError> {
        self.skip_ws();
        let scalar = match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                return Ok(b.text(self.string_body()?));
            }
            Some(b'[' | b'{') if depth == MAX_NESTING => return Err(self.error(too_deep())),
            Some(b'[') => {
                self.pos += 1;
                return self.seq_body(b, depth + 1);
            }
            Some(b'{') => {
                self.pos += 1;
                return self.record_body(b, depth + 1);
            }
            Some(b'0'..=b'9') => self.number()?,
            Some(b'-') if self.eat("-inf") => Value::Float(f64::NEG_INFINITY),
            Some(b'-') => self.number()?,
            Some(b'n') if self.eat("null") => Value::Null,
            Some(b'n') if self.eat("nan") => Value::Float(f64::NAN),
            Some(b't') if self.eat("true") => Value::Bool(true),
            Some(b'f') if self.eat("false") => Value::Bool(false),
            Some(b'i') if self.eat("inf") => Value::Float(f64::INFINITY),
            Some(b'r') if self.eat("ref(") => {
                let n = self.unsigned()?;
                self.expect(")")?;
                Value::Ref(n)
            }
            Some(b'b') if self.eat("b\"") => return Ok(b.blob(Cow::Owned(self.blob_body()?))),
            Some(_) => {
                let c = self.rest().chars().next().expect("a byte is left");
                return Err(self.error(format!("unexpected character {c:?}")));
            }
            None => return Err(self.error("unexpected end of input")),
        };
        Ok(b.scalar(scalar))
    }

    fn unsigned(&mut self) -> Result<u64, CodecError> {
        let start = self.pos;
        self.skip_while(|b| b.is_ascii_digit());
        self.src[start..self.pos]
            .parse()
            .map_err(|_| self.error("expected unsigned integer"))
    }

    fn number(&mut self) -> Result<Value, CodecError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' => is_float = true,
                b'-' if is_float => {}
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse()
                .map(Value::Float)
                .map_err(|_| self.error(format!("malformed float {text:?}")))
        } else {
            text.parse()
                .map(Value::Int)
                .map_err(|_| self.error(format!("malformed int {text:?}")))
        }
    }

    /// The rest of a string whose opening quote has been read: borrowed
    /// from the input if it holds no escape, else the runs between
    /// escapes copied whole (both delimiters are ASCII, so every run is
    /// cut on character boundaries).
    fn string_body(&mut self) -> Result<Cow<'a, str>, CodecError> {
        // Every escape pushes a character, so empty means none was met.
        let mut s = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    let tail = &self.src[run..self.pos];
                    self.pos += 1;
                    if s.is_empty() {
                        return Ok(Cow::Borrowed(tail));
                    }
                    s.push_str(tail);
                    return Ok(Cow::Owned(s));
                }
                Some(b'\\') => {
                    s.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    let esc = self
                        .rest()
                        .chars()
                        .next()
                        .ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += esc.len_utf8();
                    s.push(match esc {
                        '"' => '"',
                        '\\' => '\\',
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        other => return Err(self.error(format!("unknown escape \\{other}"))),
                    });
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn blob_body(&mut self) -> Result<Vec<u8>, CodecError> {
        let mut bytes = Vec::new();
        loop {
            self.skip_ws();
            if self.eat("\"") {
                return Ok(bytes);
            }
            let hex = self
                .rest()
                .get(..2)
                .ok_or_else(|| self.error("unterminated blob"))?;
            let byte = u8::from_str_radix(hex, 16)
                .map_err(|_| self.error(format!("bad hex pair {hex:?}")))?;
            bytes.push(byte);
            self.pos += 2;
        }
    }

    fn seq_body<B: Builder<'a>>(
        &mut self,
        b: &mut B,
        depth: usize,
    ) -> Result<B::Value, CodecError> {
        let mut seq = b.seq_open(0);
        self.skip_ws();
        if self.eat("]") {
            return Ok(b.seq_close(seq));
        }
        loop {
            b.item(&mut seq, |b| self.value(b, depth))?;
            self.skip_ws();
            if self.eat(",") {
                continue;
            }
            self.expect("]")?;
            return Ok(b.seq_close(seq));
        }
    }

    fn record_body<B: Builder<'a>>(
        &mut self,
        b: &mut B,
        depth: usize,
    ) -> Result<B::Value, CodecError> {
        let mut record = b.record_open(0);
        self.skip_ws();
        if self.eat("}") {
            return Ok(b.record_close(record));
        }
        loop {
            self.skip_ws();
            let key = if self.eat("\"") {
                self.string_body()?
            } else {
                let start = self.pos;
                self.skip_while(|b| b.is_ascii_alphanumeric() || b == b'_');
                if start == self.pos {
                    return Err(self.error("expected record key"));
                }
                Cow::Borrowed(&self.src[start..self.pos])
            };
            // The whole input was checked as UTF-8 before parsing began.
            let key = match key {
                Cow::Borrowed(key) => Cow::Borrowed(key.as_bytes()),
                Cow::Owned(key) => Cow::Owned(key.into_bytes()),
            };
            self.skip_ws();
            self.expect(":")?;
            b.field(&mut record, key, |b| self.value(b, depth))?;
            self.skip_ws();
            if self.eat(",") {
                continue;
            }
            self.expect("}")?;
            return Ok(b.record_close(record));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let bytes = TextSyntax.encode(v);
        TextSyntax.decode(&bytes).unwrap()
    }

    #[test]
    fn renders_readably() {
        let v = Value::record([
            ("name", Value::text("alice")),
            ("age", Value::Int(30)),
            ("rate", Value::Float(2.0)),
        ]);
        let s = String::from_utf8(TextSyntax.encode(&v)).unwrap();
        assert_eq!(s, "{age: 30, name: \"alice\", rate: 2.0}");
    }

    #[test]
    fn floats_stay_floats() {
        // 2.0 must not come back as Int(2).
        assert_eq!(round_trip(&Value::Float(2.0)), Value::Float(2.0));
        assert_eq!(round_trip(&Value::Float(1e300)), Value::Float(1e300));
        assert_eq!(round_trip(&Value::Float(-2.5e-10)), Value::Float(-2.5e-10));
    }

    #[test]
    fn special_floats() {
        assert_eq!(
            round_trip(&Value::Float(f64::INFINITY)),
            Value::Float(f64::INFINITY)
        );
        assert_eq!(
            round_trip(&Value::Float(f64::NEG_INFINITY)),
            Value::Float(f64::NEG_INFINITY)
        );
        match round_trip(&Value::Float(f64::NAN)) {
            Value::Float(x) => assert!(x.is_nan()),
            other => panic!("expected nan, got {other:?}"),
        }
    }

    #[test]
    fn non_identifier_keys_are_quoted() {
        let v = Value::record([("has space", Value::Int(1)), ("true", Value::Int(2))]);
        let s = String::from_utf8(TextSyntax.encode(&v)).unwrap();
        assert_eq!(s, "{\"has space\": 1, \"true\": 2}");
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn blobs_render_as_hex() {
        let v = Value::Blob(vec![0x00, 0xff, 0x10]);
        let s = String::from_utf8(TextSyntax.encode(&v)).unwrap();
        assert_eq!(s, "b\"00ff10\"");
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = TextSyntax.decode(b" { a : [ 1 , 2 ] , b : ref( 7 ) } "[..].as_ref());
        // `ref( 7 )` contains inner spaces which we do not allow; check strict form.
        assert!(v.is_err());
        let v = TextSyntax.decode(b" { a : [ 1 , 2 ] } ").unwrap();
        assert_eq!(
            v,
            Value::record([("a", Value::seq([Value::Int(1), Value::Int(2)]))])
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "\"open", "b\"0", "b\"0g\"", "{a 1}", "1 2", "tru",
        ] {
            assert!(
                TextSyntax.decode(bad.as_bytes()).is_err(),
                "{bad:?} should fail"
            );
        }
    }

    #[test]
    fn rejects_non_utf8() {
        let err = TextSyntax.decode(&[0xff, 0xfe]).unwrap_err();
        assert!(err.message.contains("utf-8"));
    }
}
