//! Snapshot codec: the full committed state as one checksummed blob.
//!
//! A snapshot is the compaction point — everything the WAL had applied
//! when it was taken — plus the batch-id high-water mark, so identifiers
//! stay monotone across restarts. It goes through the same
//! [`frame_into`] / [`unframe`] pair as a WAL record, and installation is
//! atomic at the media layer, so recovery sees either the old or the new
//! snapshot in full, never a torn one. Like a WAL record it is written
//! and read a piece at a time ([`Writer`] / [`Reader`]): the keyspace is
//! never copied into a document to be encoded, nor a document decoded to
//! be copied into the keyspace.

use std::collections::BTreeMap;

use rmodp_core::codec::binary::{Reader, Writer};
use rmodp_core::codec::CodecError;
use rmodp_core::value::Value;
use rmodp_transactions::log::frame::{frame_into, unframe};

/// A decoded snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// The committed keyspace at the compaction point.
    pub state: BTreeMap<String, Value>,
    /// The next batch id the engine should hand out.
    pub next_batch: u64,
}

/// Encodes a snapshot as one checksummed frame, streamed entry by entry
/// from the live state into the one buffer returned.
///
/// The payload is the binary transfer syntax's encoding of
/// `{entries: [{k: <key>, v: <value>}, …], next_batch: <id>}`, entries in
/// key order; [`decode_snapshot`] reads exactly that back.
pub fn encode_snapshot(state: &BTreeMap<String, Value>, next_batch: u64) -> Vec<u8> {
    let mut out = Vec::new();
    frame_into(&mut out, |payload| {
        let mut w = Writer::new(payload);
        w.record_header(2);
        w.key("entries");
        w.seq_header(state.len());
        for (key, value) in state {
            w.record_header(2);
            w.key("k");
            w.text(key);
            w.key("v");
            w.value(value);
        }
        w.key("next_batch");
        w.value(&Value::Int(next_batch as i64));
    });
    out
}

/// Decodes a snapshot frame: the entries are read into one vector, and
/// the map is built from it in one pass.
///
/// # Errors
///
/// A description of the first structural problem (truncation, checksum
/// mismatch, bad payload).
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, String> {
    let (payload, _) = unframe(bytes).map_err(|e| format!("snapshot {e}"))?;
    read_snapshot(payload).map_err(|e| e.to_string())
}

fn read_snapshot(payload: &[u8]) -> Result<Snapshot, CodecError> {
    let mut r = Reader::new(payload);
    expect_fields(&mut r, 2)?;
    r.expect_key("entries")?;
    let mut entries = Vec::new();
    // The count only bounds the loop: a claim the bytes cannot back runs
    // out of bytes at the first entry that is not there.
    for _ in 0..r.seq_header()? {
        expect_fields(&mut r, 2)?;
        r.expect_key("k")?;
        let key = r.text()?.to_owned();
        r.expect_key("v")?;
        entries.push((key, r.value()?));
    }
    r.expect_key("next_batch")?;
    let next_batch = r.int()? as u64;
    if !r.at_end() {
        return Err(r.error("trailing bytes after snapshot"));
    }
    // One bulk build from the entries, which the writer put in key order;
    // of equal keys the last wins, as repeated inserts would have it.
    let state = BTreeMap::from_iter(entries);
    Ok(Snapshot { state, next_batch })
}

fn expect_fields(r: &mut Reader<'_>, fields: usize) -> Result<(), CodecError> {
    match r.record_header()? {
        n if n == fields => Ok(()),
        n => Err(r.error(format!("a record of {n} fields where {fields} belong"))),
    }
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
    fn of_equal_keys_the_last_wins() {
        let entry = |w: &mut Writer<'_>, v: i64| {
            w.record_header(2);
            w.key("k");
            w.text("key");
            w.key("v");
            w.value(&Value::Int(v));
        };
        let mut payload = Vec::new();
        let mut w = Writer::new(&mut payload);
        w.record_header(2);
        w.key("entries");
        w.seq_header(2);
        entry(&mut w, 1);
        entry(&mut w, 2);
        w.key("next_batch");
        w.value(&Value::Int(3));
        let snapshot = read_snapshot(&payload).unwrap();
        assert_eq!(
            snapshot.state,
            BTreeMap::from([("key".to_owned(), Value::Int(2))])
        );
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
