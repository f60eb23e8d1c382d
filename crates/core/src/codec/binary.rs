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

use bytes::{Buf, BufMut};

use super::{CodecError, SyntaxId, TransferSyntax};
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
        let mut out = Vec::with_capacity(16);
        encode_into(value, &mut out);
        out
    }

    fn encode_into(&self, value: &Value, out: &mut Vec<u8>) {
        encode_into(value, out);
    }

    fn decode(&self, bytes: &[u8]) -> Result<Value, CodecError> {
        let mut cursor = Cursor { buf: bytes, pos: 0 };
        let v = cursor.value()?;
        if cursor.pos != bytes.len() {
            return Err(cursor.error("trailing bytes after value"));
        }
        Ok(v)
    }
}

fn encode_into(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.put_u8(TAG_NULL),
        Value::Bool(b) => {
            out.put_u8(TAG_BOOL);
            out.put_u8(u8::from(*b));
        }
        Value::Int(i) => {
            out.put_u8(TAG_INT);
            out.put_i64_le(*i);
        }
        Value::Float(x) => {
            out.put_u8(TAG_FLOAT);
            out.put_f64_le(*x);
        }
        Value::Text(s) => {
            out.put_u8(TAG_TEXT);
            out.put_u32_le(s.len() as u32);
            out.put_slice(s.as_bytes());
        }
        Value::Blob(b) => {
            out.put_u8(TAG_BLOB);
            out.put_u32_le(b.len() as u32);
            out.put_slice(b);
        }
        Value::Seq(items) => {
            out.put_u8(TAG_SEQ);
            out.put_u32_le(items.len() as u32);
            for item in items {
                encode_into(item, out);
            }
        }
        Value::Record(fields) => {
            out.put_u8(TAG_RECORD);
            out.put_u32_le(fields.len() as u32);
            for (k, v) in fields {
                out.put_u32_le(k.len() as u32);
                out.put_slice(k.as_bytes());
                encode_into(v, out);
            }
        }
        Value::Ref(id) => {
            out.put_u8(TAG_REF);
            out.put_u64_le(*id);
        }
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn error(&self, message: impl Into<String>) -> CodecError {
        CodecError {
            syntax: SyntaxId::Binary,
            offset: self.pos,
            message: message.into(),
        }
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

    fn text(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let at = self.pos;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError {
            syntax: SyntaxId::Binary,
            offset: at,
            message: "invalid utf-8 in text".into(),
        })
    }

    fn value(&mut self) -> Result<Value, CodecError> {
        let tag = self.u8()?;
        match tag {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                other => Err(self.error(format!("bad bool byte {other}"))),
            },
            TAG_INT => {
                let mut b = self.take(8)?;
                Ok(Value::Int(b.get_i64_le()))
            }
            TAG_FLOAT => {
                let mut b = self.take(8)?;
                Ok(Value::Float(b.get_f64_le()))
            }
            TAG_TEXT => Ok(Value::Text(self.text()?)),
            TAG_BLOB => {
                let len = self.u32()? as usize;
                Ok(Value::Blob(self.take(len)?.to_vec()))
            }
            TAG_SEQ => {
                let count = self.u32()? as usize;
                let mut items = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    items.push(self.value()?);
                }
                Ok(Value::Seq(items))
            }
            TAG_RECORD => {
                let count = self.u32()? as usize;
                let mut fields = std::collections::BTreeMap::new();
                for _ in 0..count {
                    let key = self.text()?;
                    let value = self.value()?;
                    fields.insert(key, value);
                }
                Ok(Value::Record(fields))
            }
            TAG_REF => {
                let mut b = self.take(8)?;
                Ok(Value::Ref(b.get_u64_le()))
            }
            other => Err(self.error(format!("unknown tag 0x{other:02x}"))),
        }
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
