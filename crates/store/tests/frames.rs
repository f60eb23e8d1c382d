//! The byte form of what the store leaves on its medium: pinned images
//! of one fixed history, and hostile frames through the one `unframe`
//! both the WAL and the snapshot read with.

use std::collections::BTreeMap;

use rmodp_core::id::TxId;
use rmodp_core::value::Value;
use rmodp_observe::hash::fnv1a;
use rmodp_store::snapshot::{decode_snapshot, encode_snapshot};
use rmodp_store::wal::{decode_frames, encode_frame};
use rmodp_store::{MemMedia, StableMedia, StoreConfig, StoreEngine, StoreError};
use rmodp_transactions::log::LogRecord;

/// One fixed history: overwrites, a delete, an abort, an explicit
/// compaction with a batch open across it, and a tail after it.
fn fixed_history() -> MemMedia {
    let mut engine = StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap();
    engine.begin().unwrap();
    engine.put("item/a", Value::Int(1)).unwrap();
    engine
        .put("item/b", Value::record([("x", Value::Int(-7))]))
        .unwrap();
    engine.commit().unwrap();
    engine.begin().unwrap();
    engine.put("item/a", Value::text("rewritten")).unwrap();
    engine.abort().unwrap();
    engine.begin().unwrap();
    engine.delete("item/b").unwrap();
    engine
        .put("item/c", Value::Blob(vec![0, 1, 2, 255]))
        .unwrap();
    engine.commit().unwrap();
    engine.begin().unwrap();
    engine
        .put("item/d", Value::seq([Value::Int(3), Value::Null]))
        .unwrap();
    engine.compact();
    engine.put("item/a", Value::Int(2)).unwrap();
    engine.commit().unwrap();
    engine.begin().unwrap();
    engine.put("item/e", Value::Bool(true)).unwrap();
    engine.into_media()
}

/// The lengths and FNV-1a hashes were read off the commit before the
/// frame codec, the log and the media moved into `rmodp_transactions`:
/// a medium written then is read back unchanged now.
#[test]
fn wal_and_snapshot_images_are_pinned() {
    let media = fixed_history();
    assert_eq!(media.wal_len(), 459);
    assert_eq!(fnv1a(media.wal_bytes()), 0x0d8c_3f4e_afec_09e6);
    let snapshot = media.snapshot_bytes().expect("compaction installed one");
    assert_eq!(snapshot.len(), 126);
    assert_eq!(fnv1a(snapshot), 0x8961_2042_581e_1e46);
}

/// A frame whose header is `len` / `checksum` over `payload`, however
/// wrong they are.
fn raw_frame(len: u32, checksum: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = len.to_le_bytes().to_vec();
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

#[test]
fn hostile_frames_stop_the_wal_scan_and_fail_the_snapshot_with_its_error() {
    let payload = b"not a record, not a snapshot";
    let good_record = encode_frame(&LogRecord::Begin { tx: TxId::new(1) });
    let good_snapshot = encode_snapshot(&BTreeMap::new(), 1);
    assert!(decode_snapshot(&good_snapshot).is_ok());

    let hostile: [(&str, Vec<u8>, &str); 5] = [
        (
            "length past the end",
            raw_frame(payload.len() as u32 + 1, fnv1a(payload), payload),
            "snapshot payload truncated",
        ),
        (
            "u32::MAX length",
            raw_frame(u32::MAX, fnv1a(payload), payload),
            "snapshot payload truncated",
        ),
        (
            "bad checksum",
            raw_frame(payload.len() as u32, !fnv1a(payload), payload),
            "snapshot checksum mismatch",
        ),
        (
            "header cut short",
            good_record[..7].to_vec(),
            "snapshot shorter than its header",
        ),
        (
            "valid frame, undecodable payload",
            raw_frame(payload.len() as u32, fnv1a(payload), payload),
            "",
        ),
    ];
    for (what, bytes, snapshot_error) in &hostile {
        // WAL: the scan stops at the hostile frame and keeps what came
        // before it.
        let mut image = good_record.clone();
        image.extend_from_slice(bytes);
        image.extend_from_slice(&good_record);
        let decoded = decode_frames(&image);
        assert_eq!(decoded.records.len(), 1, "{what}");
        assert_eq!(decoded.valid_len, good_record.len(), "{what}");
        assert!(decoded.truncated_tail, "{what}");
        assert!(decode_frames(bytes).records.is_empty(), "{what}");

        // Snapshot: the typed error, with the text it has always had.
        let err = decode_snapshot(bytes).expect_err(what);
        if !snapshot_error.is_empty() {
            assert_eq!(&err, snapshot_error, "{what}");
        }
        let mut media = MemMedia::new();
        media.snapshot_write(bytes);
        media.sync();
        match StoreEngine::open(media, StoreConfig::default()) {
            Err(StoreError::CorruptSnapshot(why)) => assert_eq!(why, err, "{what}"),
            other => panic!("{what}: expected CorruptSnapshot, got {other:?}"),
        }
    }
}
