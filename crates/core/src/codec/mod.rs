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

pub mod binary;
pub mod text;

use std::fmt;

pub use binary::BinarySyntax;
pub use text::TextSyntax;

use crate::value::Value;

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
