//! Snapshot codec: the full committed state as one checksummed blob.
//!
//! A snapshot is the compaction point — everything the WAL had applied
//! when it was taken — plus the batch-id high-water mark, so identifiers
//! stay monotone across restarts. It goes through the same
//! [`frame_into`] / [`unframe`] pair as a WAL record, and installation is
//! atomic at the media layer, so recovery sees either the old or the new
//! snapshot in full, never a torn one. Like a WAL record it is written
//! and read a piece at a time ([`Writer`] / [`Reader`]).
//!
//! The keyspace holds each value as its canonical binary encoding, which
//! is exactly what a snapshot entry carries: writing one copies the
//! stored bytes, and reading one checks the value's bytes with the
//! decoder's own parser, building nothing ([`Reader::value_span`]), and
//! copies them into the keyspace. Only a value whose records carry their
//! keys out of order or repeated — bytes no writer here produces — is
//! decoded and re-encoded, to the value `decode` gives for it.

use std::collections::BTreeMap;

use rmodp_core::codec::binary::{Reader, Writer};
use rmodp_core::codec::{BinarySyntax, CodecError, TransferSyntax};
use rmodp_core::value::Value;
use rmodp_transactions::log::frame::{frame_into, unframe};

/// The committed keyspace: each key's value as its canonical binary
/// encoding, the bytes [`BinarySyntax::encode`] gives for it.
pub type Keyspace = BTreeMap<String, Box<[u8]>>;

/// A decoded snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// The committed keyspace at the compaction point.
    pub state: Keyspace,
    /// The next batch id the engine should hand out.
    pub next_batch: u64,
}

/// Encodes a snapshot as one checksummed frame, streamed entry by entry
/// from the live state into the one buffer returned.
///
/// The payload is the binary transfer syntax's encoding of
/// `{entries: [{k: <key>, v: <value>}, …], next_batch: <id>}`, entries in
/// key order; [`decode_snapshot`] reads exactly that back.
pub fn encode_snapshot(state: &Keyspace, next_batch: u64) -> Vec<u8> {
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
            w.raw(value);
        }
        w.key("next_batch");
        w.value(&Value::Int(next_batch as i64));
    });
    out
}

/// Decodes a snapshot frame: every value is checked as `decode` checks
/// it, the entries are read into one vector, and the map is built from
/// it in one pass.
///
/// # Errors
///
/// A description of the first structural problem (truncation, checksum
/// mismatch, bad payload, a value `decode` refuses).
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
        let (value, canonical) = r.value_span()?;
        let value = if canonical {
            Box::from(value)
        } else {
            let decoded = BinarySyntax.decode(value).expect("the span was checked");
            BinarySyntax.encode(&decoded).into_boxed_slice()
        };
        entries.push((key, value));
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

    fn encoded(value: &Value) -> Box<[u8]> {
        BinarySyntax.encode(value).into_boxed_slice()
    }

    #[test]
    fn snapshot_round_trips() {
        let mut state = Keyspace::new();
        state.insert("a".to_owned(), encoded(&Value::Int(1)));
        state.insert(
            "b".to_owned(),
            encoded(&Value::record([("nested", Value::text("x"))])),
        );
        let snap = Snapshot {
            state,
            next_batch: 42,
        };
        let bytes = encode_snapshot(&snap.state, snap.next_batch);
        assert_eq!(decode_snapshot(&bytes).unwrap(), snap);
    }

    /// A payload of one entry per `(key, value bytes)`.
    fn payload(entries: &[(&str, &[u8])]) -> Vec<u8> {
        let mut payload = Vec::new();
        let mut w = Writer::new(&mut payload);
        w.record_header(2);
        w.key("entries");
        w.seq_header(entries.len());
        for (key, value) in entries {
            w.record_header(2);
            w.key("k");
            w.text(key);
            w.key("v");
            w.raw(value);
        }
        w.key("next_batch");
        w.value(&Value::Int(3));
        payload
    }

    #[test]
    fn of_equal_keys_the_last_wins() {
        let (one, two) = (encoded(&Value::Int(1)), encoded(&Value::Int(2)));
        let snapshot = read_snapshot(&payload(&[("key", &one), ("key", &two)])).unwrap();
        assert_eq!(snapshot.state, Keyspace::from([("key".to_owned(), two)]));
    }

    #[test]
    fn a_value_with_its_keys_out_of_order_is_stored_canonical() {
        // `{b: 1, a: 2}`, as no writer here writes it.
        let mut value = Vec::new();
        let mut w = Writer::new(&mut value);
        w.record_header(2);
        w.key("b");
        w.value(&Value::Int(1));
        w.key("a");
        w.value(&Value::Int(2));
        let snapshot = read_snapshot(&payload(&[("key", &value)])).unwrap();
        let canonical = encoded(&Value::record([("a", Value::Int(2)), ("b", Value::Int(1))]));
        assert_eq!(snapshot.state["key"], canonical);
        assert_ne!(&*canonical, &value[..]);
    }

    #[test]
    fn damage_is_detected() {
        let mut bytes = encode_snapshot(&Keyspace::new(), 0);
        assert!(decode_snapshot(&bytes[..bytes.len() - 1]).is_err());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(decode_snapshot(&bytes).is_err());
        assert!(decode_snapshot(&[]).is_err());
    }
}
