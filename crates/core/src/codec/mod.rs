//! Transfer syntaxes for marshalling [`Value`]s.
//!
//! Access transparency (§9.1) "hides the differences in data representation
//! … the stubs must marshal and unmarshal any data used in the interaction
//! in order to convert between different representations". To make that
//! conversion real rather than notional, this module provides **two**
//! genuinely different transfer syntaxes:
//!
//! - [`BinarySyntax`] — a compact, tagged, little-endian binary encoding;
//! - [`TextSyntax`] — a self-describing human-readable encoding.
//!
//! Both round-trip every [`Value`]; a stub on a node whose native syntax is
//! binary can interwork with a node whose native syntax is text because the
//! channel negotiates a common transfer syntax.
//!
//! Each syntax's grammar is written once, as a parser folded over a
//! `Builder`: the builder that makes [`Value`]s is
//! [`decode`](TransferSyntax::decode), the other syntax's `Writer` as the
//! builder is [`transcode`], which takes a payload from one syntax to the
//! other without the document in between.

pub mod binary;
pub mod text;

use std::borrow::Cow;
use std::fmt;

pub use binary::BinarySyntax;
pub use text::TextSyntax;

use crate::value::{Name, Record, Value};

/// Identifies a transfer syntax on the wire.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum SyntaxId {
    /// The compact binary syntax.
    Binary,
    /// The self-describing text syntax.
    Text,
}

impl fmt::Display for SyntaxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyntaxId::Binary => write!(f, "binary"),
            SyntaxId::Text => write!(f, "text"),
        }
    }
}

/// A decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Which syntax failed.
    pub syntax: SyntaxId,
    /// Byte offset where decoding failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} decode error at byte {}: {}",
            self.syntax, self.offset, self.message
        )
    }
}

impl std::error::Error for CodecError {}

/// How many containers (sequences, records) may enclose a value in bytes
/// a decoder accepts. Both decoders descend one call per level, so what
/// bounds the nesting bounds their stack: deeper input is a
/// [`CodecError`] at the container that goes too far, whatever its size.
pub const MAX_NESTING: usize = 128;

/// Room for a typical invocation or termination record in either syntax:
/// what `encode`, a stand-alone wire record and a frame's payload start
/// their buffer at, so that writing one does not grow it a doubling at a
/// time.
pub const TYPICAL_ENCODING: usize = 96;

fn too_deep() -> String {
    format!("nesting deeper than {MAX_NESTING} levels")
}

/// The most elements a container gets room for before any of them has
/// been read: a binary header is four bytes and may claim 2³² elements.
const MAX_PREALLOCATED: usize = 1024;

/// What a parser folds a document into, piece by piece in document order.
/// A parser owns its syntax's grammar and every refusal; a builder cannot
/// fail, and decides only what the pieces become: a [`Value`]
/// ([`ValueBuilder`]), or the same document's bytes in a syntax (the two
/// `Writer`s), in which case [`Value`](Self::Value) is `()`.
///
/// `'a` is the input's lifetime: texts, keys and blobs arrive borrowed
/// from it unless the parser had to rewrite them (an escape, hex pairs).
/// A record key arrives as bytes the parser has already checked as
/// UTF-8, so a builder that only copies or compares it checks nothing.
trait Builder<'a> {
    /// A finished value.
    type Value;
    /// An open sequence.
    type Seq;
    /// An open record.
    type Record;

    /// `Null`, `Bool`, `Int`, `Float` or `Ref`: a value that owns no heap.
    fn scalar(&mut self, value: Value) -> Self::Value;

    fn text(&mut self, text: Cow<'a, str>) -> Self::Value;

    fn blob(&mut self, bytes: Cow<'a, [u8]>) -> Self::Value;

    /// Opens a sequence; `hint` is the element count if the syntax states
    /// one up front (unchecked: room for it is the builder's to bound).
    fn seq_open(&mut self, hint: usize) -> Self::Seq;

    /// The sequence's next element is whatever `item` parses.
    fn item(
        &mut self,
        seq: &mut Self::Seq,
        item: impl FnOnce(&mut Self) -> Result<Self::Value, CodecError>,
    ) -> Result<(), CodecError>;

    fn seq_close(&mut self, seq: Self::Seq) -> Self::Value;

    /// Opens a record; `hint` as for [`seq_open`](Self::seq_open).
    fn record_open(&mut self, hint: usize) -> Self::Record;

    /// The record's next field is `key` (checked UTF-8) with whatever
    /// `value` parses. Keys come as the input has them: in any order,
    /// possibly repeated.
    fn field(
        &mut self,
        record: &mut Self::Record,
        key: Cow<'a, [u8]>,
        value: impl FnOnce(&mut Self) -> Result<Self::Value, CodecError>,
    ) -> Result<(), CodecError>;

    fn record_close(&mut self, record: Self::Record) -> Self::Value;
}

/// The builder that makes a parser a decoder. Fields are pushed in
/// arrival order — canonical input has them sorted — and the record sorts
/// them at the close only if they are not. A name is copied from the
/// borrowed key's bytes into its entry: one of up to 22 bytes allocates
/// nothing.
struct ValueBuilder;

impl<'a> Builder<'a> for ValueBuilder {
    type Value = Value;
    type Seq = Vec<Value>;
    type Record = Vec<(Name, Value)>;

    fn scalar(&mut self, value: Value) -> Value {
        value
    }

    fn text(&mut self, text: Cow<'a, str>) -> Value {
        Value::Text(text.into_owned())
    }

    fn blob(&mut self, bytes: Cow<'a, [u8]>) -> Value {
        Value::Blob(bytes.into_owned())
    }

    fn seq_open(&mut self, hint: usize) -> Vec<Value> {
        Vec::with_capacity(hint.min(MAX_PREALLOCATED))
    }

    fn item(
        &mut self,
        seq: &mut Vec<Value>,
        item: impl FnOnce(&mut Self) -> Result<Value, CodecError>,
    ) -> Result<(), CodecError> {
        seq.push(item(self)?);
        Ok(())
    }

    fn seq_close(&mut self, seq: Vec<Value>) -> Value {
        Value::Seq(seq)
    }

    fn record_open(&mut self, hint: usize) -> Vec<(Name, Value)> {
        Vec::with_capacity(hint.min(MAX_PREALLOCATED))
    }

    fn field(
        &mut self,
        record: &mut Vec<(Name, Value)>,
        key: Cow<'a, [u8]>,
        value: impl FnOnce(&mut Self) -> Result<Value, CodecError>,
    ) -> Result<(), CodecError> {
        let name = Name::from_checked(&key);
        record.push((name, value(self)?));
        Ok(())
    }

    fn record_close(&mut self, record: Vec<(Name, Value)>) -> Value {
        Value::Record(Record::from_fields(record))
    }
}

/// The last key written to a record being transcoded. Canonical bytes
/// carry a record's keys strictly ascending; a writer can only copy the
/// order it is given, so each key is held against the one before it.
/// Keys are compared as bytes, which is `str` order.
#[derive(Default)]
struct LastKey<'a>(Option<Cow<'a, [u8]>>);

impl<'a> LastKey<'a> {
    /// Whether `key` sorts after every key before it; remembers `key`.
    fn ascends_to(&mut self, key: Cow<'a, [u8]>) -> bool {
        let ascends = self.0.as_deref().is_none_or(|last| last < &*key);
        self.0 = Some(key);
        ascends
    }
}

/// The builder that builds nothing: it only records whether the input is
/// canonical, every record's keys strictly ascending. Folded over binary
/// bytes it is [`Reader::value_span`](binary::Reader::value_span), which
/// checks a value as `decode` would and keeps its bytes.
struct Check {
    canonical: bool,
}

impl<'a> Builder<'a> for Check {
    type Value = ();
    type Seq = ();
    type Record = LastKey<'a>;

    fn scalar(&mut self, _value: Value) {}

    fn text(&mut self, _text: Cow<'a, str>) {}

    fn blob(&mut self, _bytes: Cow<'a, [u8]>) {}

    fn seq_open(&mut self, _hint: usize) {}

    fn item(
        &mut self,
        _seq: &mut (),
        item: impl FnOnce(&mut Self) -> Result<(), CodecError>,
    ) -> Result<(), CodecError> {
        item(self)
    }

    fn seq_close(&mut self, _seq: ()) {}

    fn record_open(&mut self, _hint: usize) -> LastKey<'a> {
        LastKey::default()
    }

    fn field(
        &mut self,
        last: &mut LastKey<'a>,
        key: Cow<'a, [u8]>,
        value: impl FnOnce(&mut Self) -> Result<(), CodecError>,
    ) -> Result<(), CodecError> {
        self.canonical &= last.ascends_to(key);
        value(self)
    }

    fn record_close(&mut self, _last: LastKey<'a>) {}
}

/// Folds the one value `bytes` hold in `from` into `builder`.
fn parse<'a, B: Builder<'a>>(
    from: SyntaxId,
    bytes: &'a [u8],
    builder: &mut B,
) -> Result<B::Value, CodecError> {
    match from {
        SyntaxId::Binary => binary::parse(bytes, builder),
        SyntaxId::Text => text::parse(bytes, builder),
    }
}

/// Appends to `out` the `to` encoding of the document `bytes` hold in
/// `from`, in one pass and without building the document: `out` gains
/// exactly what `syntax_for(to).encode(&syntax_for(from).decode(bytes)?)`
/// returns. Text and keys that need no rewriting are copied from `bytes`
/// straight to `out`.
///
/// Input whose records do not carry their keys strictly ascending (which
/// `decode` accepts and sorts, keeping the last of equal names) is taken
/// through the [`Value`] it stands for instead, so the output is
/// canonical either way.
///
/// # Errors
///
/// The [`CodecError`] `decode` gives for the same bytes, and `out` as it
/// was.
pub fn transcode(
    from: SyntaxId,
    to: SyntaxId,
    bytes: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let start = out.len();
    let canonical = match to {
        SyntaxId::Binary => {
            let mut writer = binary::Writer::new(out);
            parse(from, bytes, &mut writer).map(|()| writer.canonical)
        }
        SyntaxId::Text => {
            let mut writer = text::Writer::new(out);
            parse(from, bytes, &mut writer).map(|()| writer.canonical)
        }
    };
    if canonical == Ok(true) {
        return Ok(());
    }
    out.truncate(start);
    canonical?;
    syntax_for(to).encode_into(&syntax_for(from).decode(bytes)?, out);
    Ok(())
}

/// A transfer syntax: a bidirectional mapping between [`Value`]s and bytes.
///
/// Object-safe so channels can hold `Box<dyn TransferSyntax>` chosen at
/// binding time.
pub trait TransferSyntax: fmt::Debug + Send + Sync {
    /// This syntax's wire identifier.
    fn id(&self) -> SyntaxId;

    /// Encodes a value.
    fn encode(&self, value: &Value) -> Vec<u8>;

    /// Appends the encoding of a value to `out`, so a frame's header and
    /// payload can share one buffer.
    fn encode_into(&self, value: &Value, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.encode(value));
    }

    /// Decodes a value.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the bytes are not a valid encoding.
    fn decode(&self, bytes: &[u8]) -> Result<Value, CodecError>;
}

/// Returns the syntax implementation for an identifier.
pub fn syntax_for(id: SyntaxId) -> Box<dyn TransferSyntax> {
    match id {
        SyntaxId::Binary => Box::new(BinarySyntax),
        SyntaxId::Text => Box::new(TextSyntax),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    pub(crate) fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(3.25),
            Value::Float(-0.0),
            Value::text(""),
            Value::text("héllo \"world\"\n"),
            Value::Blob(vec![]),
            Value::Blob(vec![0, 255, 1, 2]),
            Value::seq([]),
            Value::seq([Value::Int(1), Value::text("two"), Value::Null]),
            Value::record::<&str, _>([]),
            Value::record([
                (
                    "nested",
                    Value::record([("x", Value::seq([Value::Bool(true)]))]),
                ),
                ("ref", Value::Ref(42)),
            ]),
        ]
    }

    #[test]
    fn both_syntaxes_round_trip_samples() {
        for id in [SyntaxId::Binary, SyntaxId::Text] {
            let syntax = syntax_for(id);
            for v in sample_values() {
                let bytes = syntax.encode(&v);
                let back = syntax
                    .decode(&bytes)
                    .unwrap_or_else(|e| panic!("{id}: failed to decode {v}: {e}"));
                assert_eq!(back, v, "{id}: {v}");
            }
        }
    }

    #[test]
    fn encode_into_appends_what_encode_returns() {
        for id in [SyntaxId::Binary, SyntaxId::Text] {
            let syntax = syntax_for(id);
            for v in sample_values() {
                let mut out = b"hdr".to_vec();
                syntax.encode_into(&v, &mut out);
                assert_eq!(out, [b"hdr".as_slice(), &syntax.encode(&v)].concat());
            }
        }
    }

    #[test]
    fn syntaxes_differ_on_the_wire() {
        let v = Value::record([("x", Value::Int(1))]);
        assert_ne!(BinarySyntax.encode(&v), TextSyntax.encode(&v));
    }

    #[test]
    fn syntax_for_returns_matching_id() {
        assert_eq!(syntax_for(SyntaxId::Binary).id(), SyntaxId::Binary);
        assert_eq!(syntax_for(SyntaxId::Text).id(), SyntaxId::Text);
    }
}
