//! Snapshot codec: the full committed state as one checksummed blob.
//!
//! A snapshot is the compaction point — everything the WAL had applied
//! when it was taken — plus the batch-id high-water mark, so identifiers
//! stay monotone across restarts. It goes through the same
//! [`frame`] / [`unframe`] pair as a WAL record, and installation is
//! atomic at the media layer, so recovery sees either the old or the new
//! snapshot in full, never a torn one.

use std::collections::BTreeMap;

use rmodp_core::codec::{syntax_for, SyntaxId};
use rmodp_core::value::Value;
use rmodp_transactions::log::frame::{frame, unframe};

/// A decoded snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// The committed keyspace at the compaction point.
    pub state: BTreeMap<String, Value>,
    /// The next batch id the engine should hand out.
    pub next_batch: u64,
}

/// Encodes a snapshot as one checksummed frame. Takes the live state by
/// reference so compaction never clones the whole keyspace (values are
/// cloned entry-wise into the transfer form only).
pub fn encode_snapshot(state: &BTreeMap<String, Value>, next_batch: u64) -> Vec<u8> {
    let entries = Value::Seq(
        state
            .iter()
            .map(|(k, v)| Value::record([("k", Value::text(k.clone())), ("v", v.clone())]))
            .collect(),
    );
    let doc = Value::record([
        ("entries", entries),
        ("next_batch", Value::Int(next_batch as i64)),
    ]);
    frame(&syntax_for(SyntaxId::Binary).encode(&doc))
}

/// Decodes a snapshot frame.
///
/// # Errors
///
/// A description of the first structural problem (truncation, checksum
/// mismatch, bad payload).
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, String> {
    let (payload, _) = unframe(bytes).map_err(|e| format!("snapshot {e}"))?;
    let doc = syntax_for(SyntaxId::Binary)
        .decode(payload)
        .map_err(|e| e.to_string())?;
    let mut state = BTreeMap::new();
    for entry in doc
        .field("entries")
        .and_then(Value::as_seq)
        .ok_or("snapshot without entries")?
    {
        let k = entry
            .field("k")
            .and_then(Value::as_text)
            .ok_or("entry without key")?
            .to_owned();
        let v = entry.field("v").cloned().ok_or("entry without value")?;
        state.insert(k, v);
    }
    let next_batch = doc
        .field("next_batch")
        .and_then(Value::as_int)
        .ok_or("snapshot without next_batch")? as u64;
    Ok(Snapshot { state, next_batch })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips() {
        let mut state = BTreeMap::new();
        state.insert("a".to_owned(), Value::Int(1));
        state.insert(
            "b".to_owned(),
            Value::record([("nested", Value::text("x"))]),
        );
        let snap = Snapshot {
            state,
            next_batch: 42,
        };
        let bytes = encode_snapshot(&snap.state, snap.next_batch);
        assert_eq!(decode_snapshot(&bytes).unwrap(), snap);
    }

    #[test]
    fn damage_is_detected() {
        let mut bytes = encode_snapshot(&BTreeMap::new(), 0);
        assert!(decode_snapshot(&bytes[..bytes.len() - 1]).is_err());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(decode_snapshot(&bytes).is_err());
        assert!(decode_snapshot(&[]).is_err());
    }
}
