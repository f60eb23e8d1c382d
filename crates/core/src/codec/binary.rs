//! The compact binary transfer syntax.
//!
//! Layout: one tag byte followed by a fixed- or length-prefixed payload.
//! All integers are little-endian. Lengths are `u32`.
//!
//! ```text
//! 0x00 null
//! 0x01 bool     (1 byte: 0 or 1)
//! 0x02 int      (8 bytes, i64 LE)
//! 0x03 float    (8 bytes, f64 LE bits)
//! 0x04 text     (u32 len + utf-8 bytes)
//! 0x05 blob     (u32 len + bytes)
//! 0x06 seq      (u32 count + encoded items)
//! 0x07 record   (u32 count + (text key, value) pairs, keys sorted)
//! 0x08 ref      (8 bytes, u64 LE)
//! ```
//!
//! [`BinarySyntax`] maps whole [`Value`]s to and from that layout.
//! [`Writer`] and [`Reader`] are the same layout a piece at a time, for a
//! caller whose document has a fixed shape and who would otherwise build
//! a `Value` tree only to encode it and drop it (the write-ahead log and
//! the store's snapshots).
//!
//! The layout is read in one place, `Reader::value_at`, a parser folded
//! over a `Builder` (see the [module above](super)): with the `Value`
//! builder it is `decode`, with a `Writer` it is
//! [`transcode`](super::transcode), and with the builder that builds
//! nothing it is [`Reader::value_span`], which checks a value and hands
//! back its bytes.

use std::borrow::Cow;

use bytes::{Buf, BufMut};

use super::{
    too_deep, Builder, Check, CodecError, LastKey, SyntaxId, TransferSyntax, ValueBuilder,
    MAX_NESTING, TYPICAL_ENCODING,
};
use crate::value::Value;

const TAG_NULL: u8 = 0x00;
const TAG_BOOL: u8 = 0x01;
const TAG_INT: u8 = 0x02;
const TAG_FLOAT: u8 = 0x03;
const TAG_TEXT: u8 = 0x04;
const TAG_BLOB: u8 = 0x05;
const TAG_SEQ: u8 = 0x06;
const TAG_RECORD: u8 = 0x07;
const TAG_REF: u8 = 0x08;

/// The compact binary transfer syntax (see module docs for the layout).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinarySyntax;

impl TransferSyntax for BinarySyntax {
    fn id(&self) -> SyntaxId {
        SyntaxId::Binary
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

/// Folds the one value `bytes` hold into `builder`.
pub(super) fn parse<'a, B: Builder<'a>>(
    bytes: &'a [u8],
    builder: &mut B,
) -> Result<B::Value, CodecError> {
    let mut reader = Reader::new(bytes);
    let v = reader.value_at(builder, 0)?;
    if !reader.at_end() {
        return Err(reader.error("trailing bytes after value"));
    }
    Ok(v)
}

/// The writing half of the streaming pair: appends the syntax's pieces to
/// a caller's buffer, so a document whose shape is known (a log record, a
/// snapshot) goes to its bytes without first being built as a [`Value`].
///
/// The caller owes the layout its rules: a record header is followed by
/// exactly that many `key`, value pairs with the keys in ascending order,
/// a sequence header by exactly that many values. Written that way the
/// bytes are what [`BinarySyntax::encode`] gives for the same document.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    /// As a `Builder`: no record so far had a key out of order.
    pub(super) canonical: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Self {
            out,
            canonical: true,
        }
    }

    /// Opens a record of `fields` key/value pairs.
    pub fn record_header(&mut self, fields: usize) {
        self.out.put_u8(TAG_RECORD);
        self.out.put_u32_le(fields as u32);
    }

    /// Opens a sequence of `count` values.
    pub fn seq_header(&mut self, count: usize) {
        self.out.put_u8(TAG_SEQ);
        self.out.put_u32_le(count as u32);
    }

    /// Length-prefixed bytes: a record key, or a text or blob behind its
    /// tag.
    fn counted(&mut self, bytes: &[u8]) {
        self.out.put_u32_le(bytes.len() as u32);
        self.out.put_slice(bytes);
    }

    /// A record key (its value comes next).
    pub fn key(&mut self, key: &str) {
        self.counted(key.as_bytes());
    }

    /// A text value.
    pub fn text(&mut self, text: &str) {
        self.out.put_u8(TAG_TEXT);
        self.counted(text.as_bytes());
    }

    /// A value already encoded, copied as it is. The caller owes the
    /// bytes the layout: what [`BinarySyntax::encode`] gave, or a span
    /// [`Reader::value_span`] found canonical.
    pub fn raw(&mut self, encoded: &[u8]) {
        self.out.put_slice(encoded);
    }

    fn blob(&mut self, bytes: &[u8]) {
        self.out.put_u8(TAG_BLOB);
        self.counted(bytes);
    }

    /// Any value.
    pub fn value(&mut self, value: &Value) {
        match value {
            Value::Null => self.out.put_u8(TAG_NULL),
            Value::Bool(b) => {
                self.out.put_u8(TAG_BOOL);
                self.out.put_u8(u8::from(*b));
            }
            Value::Int(i) => {
                self.out.put_u8(TAG_INT);
                self.out.put_i64_le(*i);
            }
            Value::Float(x) => {
                self.out.put_u8(TAG_FLOAT);
                self.out.put_f64_le(*x);
            }
            Value::Text(s) => self.text(s),
            Value::Blob(b) => self.blob(b),
            Value::Seq(items) => {
                self.seq_header(items.len());
                for item in items {
                    self.value(item);
                }
            }
            Value::Record(fields) => {
                self.record_header(fields.len());
                for (name, v) in fields.fields() {
                    self.counted(name.as_bytes());
                    self.value(v);
                }
            }
            Value::Ref(id) => {
                self.out.put_u8(TAG_REF);
                self.out.put_u64_le(*id);
            }
        }
    }
}

/// A container whose header was written before its elements were
/// counted: where the count sits in the output, and the count so far.
pub(super) struct Open {
    count_at: usize,
    count: usize,
}

impl Writer<'_> {
    fn open(&mut self, tag: u8) -> Open {
        self.out.put_u8(tag);
        let count_at = self.out.len();
        self.out.put_u32_le(0);
        Open { count_at, count: 0 }
    }

    fn close(&mut self, open: Open) {
        let count = (open.count as u32).to_le_bytes();
        self.out[open.count_at..open.count_at + 4].copy_from_slice(&count);
    }
}

/// The writer as what another encoding is parsed into: the pieces go to
/// the output as they are read, and a container's count — which the text
/// syntax states nowhere — is patched into its header at the close.
impl<'a> Builder<'a> for Writer<'_> {
    type Value = ();
    type Seq = Open;
    type Record = (Open, LastKey<'a>);

    fn scalar(&mut self, value: Value) {
        self.value(&value);
    }

    fn text(&mut self, text: Cow<'a, str>) {
        Writer::text(self, &text);
    }

    fn blob(&mut self, bytes: Cow<'a, [u8]>) {
        Writer::blob(self, &bytes);
    }

    fn seq_open(&mut self, _hint: usize) -> Open {
        self.open(TAG_SEQ)
    }

    fn item(
        &mut self,
        seq: &mut Open,
        item: impl FnOnce(&mut Self) -> Result<(), CodecError>,
    ) -> Result<(), CodecError> {
        seq.count += 1;
        item(self)
    }

    fn seq_close(&mut self, seq: Open) {
        self.close(seq);
    }

    fn record_open(&mut self, _hint: usize) -> Self::Record {
        (self.open(TAG_RECORD), LastKey::default())
    }

    fn field(
        &mut self,
        (open, last): &mut Self::Record,
        key: Cow<'a, [u8]>,
        value: impl FnOnce(&mut Self) -> Result<(), CodecError>,
    ) -> Result<(), CodecError> {
        open.count += 1;
        self.counted(&key);
        self.canonical &= last.ascends_to(key);
        value(self)
    }

    fn record_close(&mut self, (open, _): Self::Record) {
        self.close(open);
    }
}

fn not_utf8(offset: usize) -> CodecError {
    CodecError {
        syntax: SyntaxId::Binary,
        offset,
        message: "invalid utf-8 in text".into(),
    }
}

/// The reading half of the streaming pair: a cursor over encoded bytes.
///
/// [`value`](Self::value) reads anything the syntax can carry. The other
/// methods read one expected piece each and fail on anything else, so a
/// reader written against a fixed shape accepts exactly what the matching
/// [`Writer`] calls produce — no missing, extra, repeated or reordered
/// field. Counts come back as numbers to loop over; nothing here
/// allocates for a length the bytes have not yet backed.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { buf: bytes, pos: 0 }
    }

    /// An error at the reader's position.
    pub fn error(&self, message: impl Into<String>) -> CodecError {
        CodecError {
            syntax: SyntaxId::Binary,
            offset: self.pos,
            message: message.into(),
        }
    }

    /// Whether every byte has been read.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() - self.pos < n {
            return Err(self.error(format!(
                "need {n} bytes, only {} remain",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let mut b = self.take(4)?;
        Ok(b.get_u32_le())
    }

    fn i64(&mut self) -> Result<i64, CodecError> {
        let mut b = self.take(8)?;
        Ok(b.get_i64_le())
    }

    /// Length-prefixed UTF-8: a text behind its tag.
    fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        let at = self.pos;
        std::str::from_utf8(self.take(len)?).map_err(|_| not_utf8(at))
    }

    /// A length-prefixed record key, checked as UTF-8 and handed out as
    /// its bytes: an ASCII key, which is nearly every one, is checked a
    /// word at a time by `is_ascii`, and only another is given to
    /// `from_utf8`. The refusal is the one [`str`](Self::str) gives.
    fn key(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        let at = self.pos;
        let key = self.take(len)?;
        if !key.is_ascii() {
            std::str::from_utf8(key).map_err(|_| not_utf8(at))?;
        }
        Ok(key)
    }

    fn expect_tag(&mut self, tag: u8, what: &str) -> Result<(), CodecError> {
        match self.u8()? {
            found if found == tag => Ok(()),
            found => Err(self.error(format!("expected {what}, found tag 0x{found:02x}"))),
        }
    }

    /// Reads a record header: how many key/value pairs follow.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] if the next value is not a record.
    pub fn record_header(&mut self) -> Result<usize, CodecError> {
        self.expect_tag(TAG_RECORD, "a record")?;
        Ok(self.u32()? as usize)
    }

    /// Reads a sequence header: how many values follow.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] if the next value is not a sequence.
    pub fn seq_header(&mut self) -> Result<usize, CodecError> {
        self.expect_tag(TAG_SEQ, "a sequence")?;
        Ok(self.u32()? as usize)
    }

    /// Reads a record key that must be `key`.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] if the next key is any other.
    pub fn expect_key(&mut self, key: &str) -> Result<(), CodecError> {
        match self.key()? {
            found if found == key.as_bytes() => Ok(()),
            found => {
                let found = String::from_utf8_lossy(found);
                Err(self.error(format!("expected key `{key}`, found `{found}`")))
            }
        }
    }

    /// Reads a text value, borrowed from the bytes.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] if the next value is not a text.
    pub fn text(&mut self) -> Result<&'a str, CodecError> {
        self.expect_tag(TAG_TEXT, "a text")?;
        self.str()
    }

    /// Reads an integer value.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] if the next value is not an integer.
    pub fn int(&mut self) -> Result<i64, CodecError> {
        self.expect_tag(TAG_INT, "an int")?;
        self.i64()
    }

    /// Reads any value.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] if the bytes do not continue with a whole value,
    /// or nest containers deeper than [`MAX_NESTING`] levels.
    pub fn value(&mut self) -> Result<Value, CodecError> {
        self.value_at(&mut ValueBuilder, 0)
    }

    /// Reads any value without building it: the bytes it spans, and
    /// whether they are canonical — every record's keys strictly
    /// ascending, so that they are what [`BinarySyntax::encode`] gives
    /// for the value [`value`](Self::value) would read. The bytes are
    /// checked exactly as `value` checks them, with the same refusals.
    ///
    /// # Errors
    ///
    /// The [`CodecError`] [`value`](Self::value) gives at this position.
    pub fn value_span(&mut self) -> Result<(&'a [u8], bool), CodecError> {
        let start = self.pos;
        let mut check = Check { canonical: true };
        self.value_at(&mut check, 0)?;
        Ok((&self.buf[start..self.pos], check.canonical))
    }

    /// Folds the next value, which sits inside `depth` enclosing
    /// containers, into `b`: the layout's one reading.
    fn value_at<B: Builder<'a>>(
        &mut self,
        b: &mut B,
        depth: usize,
    ) -> Result<B::Value, CodecError> {
        let tag = self.u8()?;
        Ok(match tag {
            TAG_NULL => b.scalar(Value::Null),
            TAG_BOOL => match self.u8()? {
                0 => b.scalar(Value::Bool(false)),
                1 => b.scalar(Value::Bool(true)),
                other => return Err(self.error(format!("bad bool byte {other}"))),
            },
            TAG_INT => b.scalar(Value::Int(self.i64()?)),
            TAG_FLOAT => {
                let mut bits = self.take(8)?;
                b.scalar(Value::Float(bits.get_f64_le()))
            }
            TAG_TEXT => b.text(Cow::Borrowed(self.str()?)),
            TAG_BLOB => {
                let len = self.u32()? as usize;
                b.blob(Cow::Borrowed(self.take(len)?))
            }
            TAG_SEQ | TAG_RECORD if depth == MAX_NESTING => {
                return Err(CodecError {
                    syntax: SyntaxId::Binary,
                    offset: self.pos - 1,
                    message: too_deep(),
                })
            }
            TAG_SEQ => {
                let count = self.u32()? as usize;
                let mut seq = b.seq_open(count);
                for _ in 0..count {
                    b.item(&mut seq, |b| self.value_at(b, depth + 1))?;
                }
                b.seq_close(seq)
            }
            TAG_RECORD => {
                let count = self.u32()? as usize;
                let mut record = b.record_open(count);
                for _ in 0..count {
                    let key = Cow::Borrowed(self.key()?);
                    b.field(&mut record, key, |b| self.value_at(b, depth + 1))?;
                }
                b.record_close(record)
            }
            TAG_REF => {
                let mut id = self.take(8)?;
                b.scalar(Value::Ref(id.get_u64_le()))
            }
            other => return Err(self.error(format!("unknown tag 0x{other:02x}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_is_compact() {
        // null is one byte; an int is nine.
        assert_eq!(BinarySyntax.encode(&Value::Null).len(), 1);
        assert_eq!(BinarySyntax.encode(&Value::Int(7)).len(), 9);
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let v = Value::record([("key", Value::seq([Value::Int(1), Value::text("x")]))]);
        let full = BinarySyntax.encode(&v);
        for cut in 0..full.len() {
            assert!(
                BinarySyntax.decode(&full[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        assert!(BinarySyntax.decode(&full).is_ok());
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = BinarySyntax.encode(&Value::Int(1));
        bytes.push(0);
        let err = BinarySyntax.decode(&bytes).unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn decode_rejects_unknown_tag_and_bad_bool() {
        let err = BinarySyntax.decode(&[0xff]).unwrap_err();
        assert!(err.message.contains("unknown tag"));
        let err = BinarySyntax.decode(&[TAG_BOOL, 7]).unwrap_err();
        assert!(err.message.contains("bad bool"));
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        let bytes = vec![TAG_TEXT, 1, 0, 0, 0, 0xff];
        let err = BinarySyntax.decode(&bytes).unwrap_err();
        assert!(err.message.contains("utf-8"));
    }

    #[test]
    fn record_keys_are_sorted_on_the_wire() {
        let a = Value::record([("b", Value::Int(2)), ("a", Value::Int(1))]);
        let b = Value::record([("a", Value::Int(1)), ("b", Value::Int(2))]);
        assert_eq!(BinarySyntax.encode(&a), BinarySyntax.encode(&b));
    }

    /// `{a: [1, "x"], b: "t"}` written a piece at a time.
    fn pieces() -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = Writer::new(&mut out);
        w.record_header(2);
        w.key("a");
        w.seq_header(2);
        w.value(&Value::Int(1));
        w.text("x");
        w.key("b");
        w.text("t");
        out
    }

    #[test]
    fn writer_pieces_spell_what_encode_gives() {
        let v = Value::record([
            ("a", Value::seq([Value::Int(1), Value::text("x")])),
            ("b", Value::text("t")),
        ]);
        assert_eq!(pieces(), BinarySyntax.encode(&v));
        assert_eq!(BinarySyntax.decode(&pieces()).unwrap(), v);
    }

    #[test]
    fn reader_reads_the_expected_pieces_and_nothing_else() {
        let bytes = pieces();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.record_header().unwrap(), 2);
        r.expect_key("a").unwrap();
        assert_eq!(r.seq_header().unwrap(), 2);
        assert_eq!(r.int().unwrap(), 1);
        assert_eq!(r.text().unwrap(), "x");
        r.expect_key("b").unwrap();
        assert!(!r.at_end());
        assert_eq!(r.value().unwrap(), Value::text("t"));
        assert!(r.at_end());
        assert!(r.value().is_err(), "nothing is left");

        let at_first_key = || {
            let mut r = Reader::new(&bytes);
            r.record_header().unwrap();
            r
        };
        assert!(at_first_key().expect_key("b").is_err(), "another key");
        let at_seq = || {
            let mut r = at_first_key();
            r.expect_key("a").unwrap();
            r
        };
        assert!(at_seq().record_header().is_err(), "a seq, not a record");
        assert!(at_seq().text().is_err(), "a seq, not a text");
        assert!(at_seq().int().is_err(), "a seq, not an int");
        assert!(Reader::new(&[TAG_RECORD]).record_header().is_err());
        assert!(Reader::new(&[TAG_TEXT, 1, 0, 0, 0, 0xff]).text().is_err());
    }

    #[test]
    fn float_bit_patterns_survive() {
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, -0.0] {
            let bytes = BinarySyntax.encode(&Value::Float(x));
            match BinarySyntax.decode(&bytes).unwrap() {
                Value::Float(y) => assert_eq!(x.to_bits(), y.to_bits()),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }
}
