//! The byte form of what the store leaves on its medium: pinned images
//! of one fixed history, in the current and the legacy frame form, the
//! streamed encoders held byte for byte to the `Value` documents they
//! replaced, and hostile bytes — damaged frames of either form through
//! the one `unframe` both the WAL and the snapshot read with, and
//! well-checksummed frames whose payload is not what the writers write.

mod legacy;

use std::collections::BTreeMap;

use proptest::prelude::*;

use rmodp_core::codec::binary::Writer;
use rmodp_core::codec::{BinarySyntax, CodecError, SyntaxId, TransferSyntax, MAX_NESTING};
use rmodp_core::id::TxId;
use rmodp_core::value::Value;
use rmodp_observe::hash::{fnv1a, word_checksum};
use rmodp_store::snapshot::{decode_snapshot, encode_snapshot, Keyspace, Snapshot};
use rmodp_store::wal::{decode_frames, encode_frame};
use rmodp_store::{MemMedia, StableMedia, StoreConfig, StoreEngine, StoreError};
use rmodp_transactions::log::frame::{unframe, HEADER_LEN, WORD_CHECKSUM_FLAG};
use rmodp_transactions::log::LogRecord;

use legacy::to_legacy;

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

/// The legacy lengths and FNV-1a hashes were read off the commit before
/// the frame codec, the log and the media moved into
/// `rmodp_transactions`, and the legacy images still hash to them once
/// their headers are put back in the unflagged form: a medium written
/// then is read back unchanged now. The flagged images beside them are
/// what the store writes today, at the same lengths.
#[test]
fn wal_and_snapshot_images_are_pinned() {
    let media = fixed_history();
    let wal = media.wal_bytes();
    let snapshot = media.snapshot_bytes().expect("compaction installed one");
    assert_eq!(wal.len(), 459);
    assert_eq!(snapshot.len(), 126);
    assert_eq!(fnv1a(wal), 0x5dcf_cd03_32f5_e20f);
    assert_eq!(fnv1a(snapshot), 0xd15a_50e5_adf4_d62b);

    let legacy_wal = to_legacy(wal);
    let legacy_snapshot = to_legacy(snapshot);
    assert_eq!(legacy_wal.len(), 459);
    assert_eq!(fnv1a(&legacy_wal), 0x0d8c_3f4e_afec_09e6);
    assert_eq!(legacy_snapshot.len(), 126);
    assert_eq!(fnv1a(&legacy_snapshot), 0x8961_2042_581e_1e46);

    let mut old = MemMedia::new();
    old.wal_append(&legacy_wal);
    old.snapshot_write(&legacy_snapshot);
    old.sync();
    let old = StoreEngine::open(old, StoreConfig::default()).unwrap();
    let new = StoreEngine::open(media, StoreConfig::default()).unwrap();
    assert_eq!(old.state(), new.state());
    assert_eq!(old.recovery_report(), new.recovery_report());
    assert!(new.recovery_report().snapshot_loaded);
    assert_eq!(new.recovery_report().records_scanned, 6);
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
    let len = payload.len() as u32;
    let good_record = encode_frame(&LogRecord::Begin { tx: TxId::new(1) });
    let good_snapshot = encode_snapshot(&BTreeMap::new(), 1);
    assert!(decode_snapshot(&good_snapshot).is_ok());
    assert!(decode_snapshot(&to_legacy(&good_snapshot)).is_ok());

    let mut hostile = vec![(
        "header cut short".to_owned(),
        good_record[..7].to_vec(),
        "snapshot shorter than its header",
    )];
    // The same damage to a flagged frame and to a legacy one, each
    // checked with its own checksum; and each checksum under the other
    // form's flag.
    type Sum = fn(&[u8]) -> u64;
    let forms: [(&str, u32, Sum, Sum); 2] = [
        ("flagged", WORD_CHECKSUM_FLAG, word_checksum, fnv1a),
        ("legacy", 0, fnv1a, word_checksum),
    ];
    for (form, flag, sum, other) in forms {
        let rows = [
            (
                "length past the end",
                raw_frame((len + 1) | flag, sum(payload), payload),
                "snapshot payload truncated",
            ),
            (
                "longest length",
                raw_frame((u32::MAX >> 1) | flag, sum(payload), payload),
                "snapshot payload truncated",
            ),
            (
                "bad checksum",
                raw_frame(len | flag, !sum(payload), payload),
                "snapshot checksum mismatch",
            ),
            (
                "the other form's checksum",
                raw_frame(len | flag, other(payload), payload),
                "snapshot checksum mismatch",
            ),
            (
                "valid frame, undecodable payload",
                raw_frame(len | flag, sum(payload), payload),
                "",
            ),
        ];
        hostile.extend(
            rows.into_iter()
                .map(|(what, bytes, error)| (format!("{form}: {what}"), bytes, error)),
        );
    }
    // The well-checksummed rows pass the frame check in either form —
    // the legacy one as a legacy frame — and fail only in the payload.
    for (what, bytes, snapshot_error) in &hostile {
        if snapshot_error.is_empty() {
            assert_eq!(unframe(bytes), Ok((&payload[..], &[][..])), "{what}");
        }
    }
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

/// A whole frame around `payload` as the store writes it: right length,
/// flagged, right word checksum.
fn frame(payload: &[u8]) -> Vec<u8> {
    raw_frame(
        payload.len() as u32 | WORD_CHECKSUM_FLAG,
        word_checksum(payload),
        payload,
    )
}

/// The document a log record used to be built as before it was encoded:
/// the reference the streamed encoder is held to.
fn record_document(record: &LogRecord) -> Value {
    let tag = match record {
        LogRecord::Begin { .. } => "begin",
        LogRecord::Write { .. } => "write",
        LogRecord::Prepare { .. } => "prepare",
        LogRecord::Commit { .. } => "commit",
        LogRecord::Abort { .. } => "abort",
    };
    let mut fields = vec![
        ("rec", Value::text(tag)),
        ("tx", Value::Int(record.tx().raw() as i64)),
    ];
    if let LogRecord::Write {
        item,
        before,
        after,
        ..
    } = record
    {
        fields.push(("item", Value::text(item.clone())));
        fields.push(("before", Value::Seq(before.iter().cloned().collect())));
        fields.push(("after", after.clone()));
    }
    Value::record(fields)
}

/// Likewise for a snapshot.
fn snapshot_document(state: &BTreeMap<String, Value>, next_batch: u64) -> Value {
    let entries = state
        .iter()
        .map(|(k, v)| Value::record([("k", Value::text(k.clone())), ("v", v.clone())]))
        .collect();
    Value::record([
        ("entries", Value::Seq(entries)),
        ("next_batch", Value::Int(next_batch as i64)),
    ])
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        "[a-z0-9/ ]{0,12}".prop_map(Value::text),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::Blob),
        any::<u64>().prop_map(Value::Ref),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Seq),
            proptest::collection::btree_map("[a-z_]{1,6}", inner, 0..4)
                .prop_map(|m| Value::Record(m.into())),
        ]
    })
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    let tx = || any::<u64>().prop_map(TxId::new);
    prop_oneof![
        tx().prop_map(|tx| LogRecord::Begin { tx }),
        tx().prop_map(|tx| LogRecord::Prepare { tx }),
        tx().prop_map(|tx| LogRecord::Commit { tx }),
        tx().prop_map(|tx| LogRecord::Abort { tx }),
        (
            tx(),
            "[a-z0-9/]{0,16}",
            proptest::option::of(arb_value()),
            arb_value()
        )
            .prop_map(|(tx, item, before, after)| LogRecord::Write {
                tx,
                item,
                before,
                after
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_log_is_the_framed_encoding_of_its_record_documents(
        records in proptest::collection::vec(arb_record(), 0..8)
    ) {
        let image: Vec<u8> = records.iter().flat_map(encode_frame).collect();
        let reference: Vec<u8> = records
            .iter()
            .flat_map(|r| frame(&BinarySyntax.encode(&record_document(r))))
            .collect();
        prop_assert_eq!(&image, &reference);
        let decoded = decode_frames(&image);
        prop_assert_eq!(decoded.valid_len, image.len());
        prop_assert!(!decoded.truncated_tail);
        prop_assert_eq!(&decoded.records, &records);
        // The same log written by an older build reads back the same.
        prop_assert_eq!(decode_frames(&to_legacy(&image)), decoded);
    }

    #[test]
    fn a_snapshot_is_the_framed_encoding_of_its_document(
        state in proptest::collection::btree_map("[a-z0-9/]{0,10}", arb_value(), 0..8),
        next_batch in any::<u64>(),
    ) {
        let keyspace = encoded(&state);
        let bytes = encode_snapshot(&keyspace, next_batch);
        prop_assert_eq!(
            &bytes,
            &frame(&BinarySyntax.encode(&snapshot_document(&state, next_batch)))
        );
        prop_assert_eq!(decode_snapshot(&to_legacy(&bytes)), decode_snapshot(&bytes));
        prop_assert_eq!(decode_snapshot(&bytes), Ok(Snapshot { state: keyspace, next_batch }));
    }

    /// Whichever way a value reaches the keyspace — a commit, redo of
    /// the log, a snapshot — the keyspace holds what `encode` gives for
    /// it, and `get` gives the value back. A null is the tombstone: its
    /// key is absent.
    #[test]
    fn the_keyspace_holds_each_value_as_encode_gives_it(
        state in proptest::collection::btree_map("[a-z0-9/]{0,10}", arb_value(), 0..8),
    ) {
        let expected: Keyspace = encoded(&state)
            .into_iter()
            .filter(|(_, bytes)| **bytes != [0x00])
            .collect();
        let holds = |engine: &StoreEngine<MemMedia>, how: &str| {
            prop_assert_eq!(engine.state(), &expected, "{}", how);
            for (key, value) in &state {
                let stored = Some(value.clone()).filter(|v| !v.is_null());
                prop_assert_eq!(engine.get(key), stored, "{}", how);
            }
            Ok(())
        };
        let mut engine = StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap();
        engine.begin().unwrap();
        for (key, value) in &state {
            engine.put(key, value.clone()).unwrap();
        }
        engine.commit().unwrap();
        holds(&engine, "committed")?;
        let mut engine = reopen(engine.into_media());
        prop_assert_eq!(engine.recovery_report().writes_replayed, state.len());
        holds(&engine, "redone from the log")?;
        engine.compact();
        let engine = reopen(engine.into_media());
        prop_assert_eq!(engine.recovery_report().records_scanned, 0);
        holds(&engine, "read from the snapshot")?;
    }
}

/// Each value of `state` as its binary encoding: the keyspace that holds
/// that state.
fn encoded(state: &BTreeMap<String, Value>) -> Keyspace {
    state
        .iter()
        .map(|(key, value)| (key.clone(), BinarySyntax.encode(value).into()))
        .collect()
}

/// Where each frame of a WAL image ends, from the records it decodes to.
fn frame_ends(records: &[LogRecord]) -> Vec<usize> {
    records
        .iter()
        .scan(0, |end, record| {
            *end += encode_frame(record).len();
            Some(*end)
        })
        .collect()
}

#[test]
fn a_wal_image_cut_or_damaged_at_any_byte_decodes_to_the_frames_before_it() {
    let media = fixed_history();
    let image = media.wal_bytes();
    let whole = decode_frames(image);
    assert_eq!(whole.valid_len, image.len());
    let ends = frame_ends(&whole.records);
    for at in 0..image.len() {
        let intact = ends.iter().filter(|&&end| end <= at).count();
        let valid_len = intact.checked_sub(1).map_or(0, |last| ends[last]);

        let cut = decode_frames(&image[..at]);
        assert_eq!(cut.records, whole.records[..intact], "cut at {at}");
        assert_eq!(cut.valid_len, valid_len, "cut at {at}");
        assert_eq!(cut.truncated_tail, valid_len != at, "cut at {at}");

        let mut damaged = image.to_vec();
        damaged[at] ^= 0xff;
        let flipped = decode_frames(&damaged);
        assert_eq!(flipped.records, whole.records[..intact], "flip at {at}");
        assert_eq!(flipped.valid_len, valid_len, "flip at {at}");
        assert!(flipped.truncated_tail, "flip at {at}");
    }
}

#[test]
fn a_snapshot_image_cut_or_damaged_at_any_byte_is_corrupt() {
    let media = fixed_history();
    let image = media.snapshot_bytes().expect("compaction installed one");
    assert!(decode_snapshot(image).is_ok());
    for at in 0..image.len() {
        let mut damaged = image.to_vec();
        damaged[at] ^= 0xff;
        for bytes in [&image[..at], &damaged[..]] {
            let err = decode_snapshot(bytes).expect_err("damage goes unnoticed");
            let mut media = MemMedia::new();
            media.snapshot_write(bytes);
            media.sync();
            match StoreEngine::open(media, StoreConfig::default()) {
                Err(StoreError::CorruptSnapshot(why)) => assert_eq!(why, err, "byte {at}"),
                other => panic!("byte {at}: expected CorruptSnapshot, got {other:?}"),
            }
        }
    }
}

/// Behind a checksum that holds, the payload reader is on its own: cut
/// or damage the payload at every byte and frame it afresh. Damage may
/// happen to spell another record or snapshot; nothing may panic, and a
/// shortened payload is never one.
#[test]
fn a_payload_cut_or_damaged_behind_a_good_checksum_never_panics() {
    let media = fixed_history();
    let snapshot = &media.snapshot_bytes().expect("compaction installed one")[HEADER_LEN..];
    for cut in 0..snapshot.len() {
        assert!(decode_snapshot(&frame(&snapshot[..cut])).is_err(), "{cut}");
        let mut damaged = snapshot.to_vec();
        damaged[cut] ^= 0xff;
        let _ = decode_snapshot(&frame(&damaged));
    }
    for record in decode_frames(media.wal_bytes()).records {
        let payload = &encode_frame(&record)[HEADER_LEN..];
        for cut in 0..payload.len() {
            let decoded = decode_frames(&frame(&payload[..cut]));
            assert!(decoded.records.is_empty(), "{record:?} cut at {cut}");
            let mut damaged = payload.to_vec();
            damaged[cut] ^= 0xff;
            assert!(decode_frames(&frame(&damaged)).records.len() <= 1);
        }
    }
}

/// A payload written piece by piece, the way the log and the snapshot
/// write theirs — so it can be written wrong.
fn payload(write: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
    let mut out = Vec::new();
    write(&mut Writer::new(&mut out));
    out
}

#[test]
fn only_what_the_writers_write_is_read_back() {
    let int = Value::Int(7);
    let begin = [("rec", Value::text("begin")), ("tx", int.clone())];
    let write = [
        ("after", int.clone()),
        ("before", Value::seq([])),
        ("item", Value::text("k")),
        ("rec", Value::text("write")),
        ("tx", int.clone()),
    ];
    let encode = |fields: Vec<(&str, Value)>| BinarySyntax.encode(&Value::record(fields));
    let drop = |fields: &[(&'static str, Value)], key: &str| -> Vec<(&'static str, Value)> {
        fields.iter().filter(|(k, _)| *k != key).cloned().collect()
    };
    let without = |fields: &[(&'static str, Value)], key: &str| encode(drop(fields, key));
    let with = |fields: &[(&'static str, Value)], key: &'static str, value: Value| {
        let mut fields = drop(fields, key);
        fields.push((key, value));
        encode(fields)
    };
    // The two well-formed payloads decode: the table below fails for
    // what it changes, not for how it is built.
    for good in [&begin[..], &write[..]] {
        let image = frame(&encode(good.to_vec()));
        assert_eq!(decode_frames(&image).records.len(), 1);
    }

    let records: Vec<(&str, Vec<u8>)> = vec![
        ("not a record", BinarySyntax.encode(&int)),
        ("missing tx", without(&begin, "tx")),
        ("missing rec", without(&begin, "rec")),
        ("extra field", with(&begin, "zz", Value::Null)),
        ("write without item", without(&write, "item")),
        ("write without before", without(&write, "before")),
        ("write without after", without(&write, "after")),
        ("write with an extra field", with(&write, "zz", Value::Null)),
        (
            "write tag on two fields",
            with(&begin, "rec", Value::text("write")),
        ),
        (
            "begin tag on five fields",
            with(&write, "rec", Value::text("begin")),
        ),
        ("unknown tag", with(&begin, "rec", Value::text("warp"))),
        ("tag that is no text", with(&begin, "rec", int.clone())),
        ("tx that is no int", with(&begin, "tx", Value::text("7"))),
        ("item that is no text", with(&write, "item", int.clone())),
        (
            "before that is no sequence",
            with(&write, "before", Value::Null),
        ),
        (
            "two before-images",
            with(&write, "before", Value::seq([int.clone(), int.clone()])),
        ),
        (
            // The generic decoder sorts these back; the reader does not.
            "fields out of order",
            payload(|w| {
                w.record_header(2);
                w.key("tx");
                w.value(&int);
                w.key("rec");
                w.text("begin");
            }),
        ),
        (
            "a field twice",
            payload(|w| {
                w.record_header(2);
                w.key("rec");
                w.text("begin");
                w.key("rec");
                w.text("begin");
            }),
        ),
        (
            "bytes after the record",
            [with(&begin, "tx", int.clone()), vec![0]].concat(),
        ),
        (
            "u32::MAX fields",
            payload(|w| w.record_header(u32::MAX as usize)),
        ),
        (
            "u32::MAX before-images",
            payload(|w| {
                w.record_header(5);
                w.key("after");
                w.value(&int);
                w.key("before");
                w.seq_header(u32::MAX as usize);
            }),
        ),
    ];
    let good = encode_frame(&LogRecord::Begin { tx: TxId::new(1) });
    // One committed batch, for the engine to keep in front of each.
    let committed: Vec<u8> = [
        LogRecord::Begin { tx: TxId::new(1) },
        LogRecord::Write {
            tx: TxId::new(1),
            item: "k".to_owned(),
            before: None,
            after: int.clone(),
        },
        LogRecord::Commit { tx: TxId::new(1) },
    ]
    .iter()
    .flat_map(encode_frame)
    .collect();
    for (what, bytes) in &records {
        let image = [&good[..], &frame(bytes), &good[..]].concat();
        let decoded = decode_frames(&image);
        assert_eq!(decoded.records.len(), 1, "{what}");
        assert_eq!(decoded.valid_len, good.len(), "{what}");
        assert!(decoded.truncated_tail, "{what}");

        // Recovery stops at it too, keeps the frames before it and cuts
        // the rest; the next id follows the ones it kept.
        let mut media = MemMedia::new();
        media.wal_append(&[&committed[..], &frame(bytes), &good[..]].concat());
        media.sync();
        let mut engine = StoreEngine::open(media, StoreConfig::default()).unwrap();
        let report = engine.recovery_report();
        assert_eq!(report.records_scanned, 3, "{what}");
        assert!(report.tail_discarded, "{what}");
        assert_eq!(engine.get("k"), Some(int.clone()), "{what}");
        assert_eq!(engine.log_bytes(), committed.len(), "{what}");
        assert_eq!(engine.begin(), Ok(TxId::new(2)), "{what}");
    }

    let entry = |w: &mut Writer<'_>| {
        w.record_header(2);
        w.key("k");
        w.text("key");
        w.key("v");
        w.value(&int);
    };
    let snapshots: Vec<(&str, Vec<u8>)> = vec![
        ("not a record", BinarySyntax.encode(&int)),
        (
            "no next_batch",
            BinarySyntax.encode(&Value::record([("entries", Value::seq([]))])),
        ),
        (
            "no entries",
            BinarySyntax.encode(&Value::record([("next_batch", int.clone())])),
        ),
        (
            "an extra field",
            BinarySyntax.encode(&Value::record([
                ("entries", Value::seq([])),
                ("next_batch", int.clone()),
                ("zz", int.clone()),
            ])),
        ),
        (
            "an entry without its value",
            payload(|w| {
                w.record_header(2);
                w.key("entries");
                w.seq_header(1);
                w.record_header(1);
                w.key("k");
                w.text("key");
                w.key("next_batch");
                w.value(&int);
            }),
        ),
        (
            "an entry whose key is no text",
            payload(|w| {
                w.record_header(2);
                w.key("entries");
                w.seq_header(1);
                w.record_header(2);
                w.key("k");
                w.value(&int);
                w.key("v");
                w.value(&int);
                w.key("next_batch");
                w.value(&int);
            }),
        ),
        (
            "fewer entries than counted",
            payload(|w| {
                w.record_header(2);
                w.key("entries");
                w.seq_header(2);
                entry(w);
                w.key("next_batch");
                w.value(&int);
            }),
        ),
        (
            "more entries than counted",
            payload(|w| {
                w.record_header(2);
                w.key("entries");
                w.seq_header(1);
                entry(w);
                entry(w);
                w.key("next_batch");
                w.value(&int);
            }),
        ),
        (
            "u32::MAX entries",
            payload(|w| {
                w.record_header(2);
                w.key("entries");
                w.seq_header(u32::MAX as usize);
                entry(w);
            }),
        ),
        (
            "fields out of order",
            payload(|w| {
                w.record_header(2);
                w.key("next_batch");
                w.value(&int);
                w.key("entries");
                w.seq_header(0);
            }),
        ),
        (
            "bytes after the snapshot",
            [
                BinarySyntax.encode(&snapshot_document(&BTreeMap::new(), 1)),
                vec![0],
            ]
            .concat(),
        ),
    ];
    for (what, bytes) in &snapshots {
        let err = decode_snapshot(&frame(bytes)).expect_err(what);
        let mut media = MemMedia::new();
        media.snapshot_write(&frame(bytes));
        media.sync();
        match StoreEngine::open(media, StoreConfig::default()) {
            Err(StoreError::CorruptSnapshot(why)) => assert_eq!(why, err, "{what}"),
            other => panic!("{what}: expected CorruptSnapshot, got {other:?}"),
        }
    }
}

/// The frames of batch `tx` putting `key` = `value` and committing.
fn committed_batch(tx: u64, key: &str, value: i64) -> Vec<u8> {
    let tx = TxId::new(tx);
    [
        LogRecord::Begin { tx },
        LogRecord::Write {
            tx,
            item: key.to_owned(),
            before: None,
            after: Value::Int(value),
        },
        LogRecord::Commit { tx },
    ]
    .iter()
    .flat_map(encode_frame)
    .collect()
}

fn reopen(media: MemMedia) -> StoreEngine<MemMedia> {
    StoreEngine::open(media, StoreConfig::default()).unwrap()
}

fn open_wal(image: &[u8]) -> StoreEngine<MemMedia> {
    let mut media = MemMedia::new();
    media.wal_append(image);
    media.sync();
    reopen(media)
}

/// Ids of 2⁶³ and more are written as negative ints and read back as the
/// ids they were, in a log record and in a snapshot's high-water mark.
/// The engine hands out every id below `u64::MAX` and then refuses; a
/// log holding `u64::MAX` itself opens whole and refuses the same way.
#[test]
fn batch_ids_past_i64_max_survive_recovery_and_compaction() {
    let first = i64::MAX as u64;
    let mut engine = open_wal(&committed_batch(first, "a", 1));
    assert_eq!(engine.begin(), Ok(TxId::new(first + 1)));
    engine.put("b", Value::Int(2)).unwrap();
    engine.commit().unwrap();
    // From the log alone.
    let mut engine = reopen(engine.into_media());
    assert!(!engine.recovery_report().tail_discarded);
    assert_eq!(engine.len(), 2);
    assert_eq!(engine.begin(), Ok(TxId::new(first + 2)));
    engine.put("c", Value::Int(3)).unwrap();
    engine.commit().unwrap();
    engine.compact();
    // From the snapshot alone.
    let mut engine = reopen(engine.into_media());
    assert_eq!(engine.recovery_report().records_scanned, 0);
    assert_eq!(engine.len(), 3);
    assert_eq!(engine.begin(), Ok(TxId::new(first + 3)));

    let mut engine = open_wal(&committed_batch(u64::MAX - 2, "a", 1));
    assert_eq!(engine.begin(), Ok(TxId::new(u64::MAX - 1)));
    engine.commit().unwrap();
    let logged = engine.log_bytes();
    assert_eq!(engine.begin(), Err(StoreError::BatchIdsExhausted));
    assert!(!engine.has_open_batch());
    let mut engine = reopen(engine.into_media());
    assert_eq!(
        engine.log_bytes(),
        logged,
        "the refused begin logged nothing"
    );
    assert_eq!(engine.begin(), Err(StoreError::BatchIdsExhausted));

    // `tx: -1` on the medium: recovery's next id used to overflow here.
    let image = [
        committed_batch(1, "a", 1),
        committed_batch(u64::MAX, "b", 2),
        committed_batch(2, "c", 3),
    ]
    .concat();
    let mut engine = open_wal(&image);
    assert!(!engine.recovery_report().tail_discarded);
    assert_eq!(engine.log_bytes(), image.len());
    assert_eq!(engine.len(), 3);
    assert_eq!(engine.begin(), Err(StoreError::BatchIdsExhausted));
}

/// A snapshot payload of one entry, `key` holding the value bytes
/// `value` as they are, and where in the payload those bytes begin.
fn one_entry_snapshot(key: &str, value: &[u8]) -> (Vec<u8>, usize) {
    let head = payload(|w| {
        w.record_header(2);
        w.key("entries");
        w.seq_header(1);
        w.record_header(2);
        w.key("k");
        w.text(key);
        w.key("v");
    });
    let tail = payload(|w| {
        w.key("next_batch");
        w.value(&Value::Int(1));
    });
    ([&head[..], value, &tail[..]].concat(), head.len())
}

/// The medium holding `payload` as its snapshot, framed as the store
/// frames one.
fn snapshot_media(payload: &[u8]) -> MemMedia {
    let mut media = MemMedia::new();
    media.snapshot_write(&frame(payload));
    media.sync();
    media
}

/// A snapshot whose frame checksum holds and whose value bytes are not a
/// value fails when the store opens, with the error `decode` gives for
/// those bytes at their place in the payload — never later, at a read.
#[test]
fn a_snapshot_value_decode_refuses_fails_the_open() {
    let text = |bytes: &[u8]| [&[0x04][..], &(bytes.len() as u32).to_le_bytes(), bytes].concat();
    let one_field = |key: &[u8]| {
        let mut record = vec![0x07, 1, 0, 0, 0];
        record.extend_from_slice(&(key.len() as u32).to_le_bytes());
        record.extend_from_slice(key);
        record.push(0x00);
        record
    };
    let mut too_deep = [0x06, 1, 0, 0, 0].repeat(MAX_NESTING + 1);
    too_deep.push(0x00);
    let hostile: [(&str, Vec<u8>, &str); 7] = [
        (
            "bad utf-8 in a key",
            one_field(b"a\xff"),
            "invalid utf-8 in text",
        ),
        (
            "bad utf-8 in a long key",
            one_field(b"aaaaaaaaaaaaaaaaaaaaaaaa\xc3"),
            "invalid utf-8 in text",
        ),
        (
            "bad utf-8 in a text",
            text(b"ok\xc3("),
            "invalid utf-8 in text",
        ),
        ("a bool byte of 2", vec![0x01, 2], "bad bool byte 2"),
        ("an unknown tag", vec![0x09], "unknown tag 0x09"),
        (
            "nesting 129 deep",
            too_deep,
            "nesting deeper than 128 levels",
        ),
        (
            "a length past the end",
            [0x05, 0xff, 0xff, 0xff, 0x7f].to_vec(),
            "need 2147483647 bytes",
        ),
    ];
    for (what, value, message) in &hostile {
        let (payload, at) = one_entry_snapshot("key", value);
        // What the decoder answers for the bytes from the value on: the
        // error lies inside the value, before anything after it is read.
        let refusal = BinarySyntax.decode(&payload[at..]).expect_err(what);
        assert!(refusal.message.starts_with(message), "{what}: {refusal}");
        let expected = CodecError {
            syntax: SyntaxId::Binary,
            offset: at + refusal.offset,
            message: refusal.message,
        }
        .to_string();
        assert_eq!(
            decode_snapshot(&frame(&payload)),
            Err(expected.clone()),
            "{what}"
        );
        match StoreEngine::open(snapshot_media(&payload), StoreConfig::default()) {
            Err(StoreError::CorruptSnapshot(why)) => assert_eq!(why, expected, "{what}"),
            other => panic!("{what}: expected CorruptSnapshot, got {other:?}"),
        }
    }
}

/// A value whose records carry their keys out of order or repeated is
/// one no writer here produces, but `decode` reads it; the store opens
/// to the value `decode` gives, held as its canonical bytes.
#[test]
fn a_non_canonical_snapshot_value_opens_to_what_decode_gives() {
    let int = |i: i64| BinarySyntax.encode(&Value::Int(i));
    let record = |pairs: &[(&str, &[u8])]| {
        payload(|w| {
            w.record_header(pairs.len());
            for (key, value) in pairs {
                w.key(key);
                w.raw(value);
            }
        })
    };
    let (one, two, three) = (int(1), int(2), int(3));
    let inner = record(&[("z", &one), ("y", &two)]);
    let cases = [
        record(&[("b", &one), ("a", &two)]),
        record(&[("a", &one), ("a", &two)]),
        record(&[("é", &one), ("e", &two), ("é", &three)]),
        payload(|w| {
            w.seq_header(2);
            w.raw(&inner);
            w.raw(&record(&[("c", &inner), ("b", &one)]));
        }),
    ];
    for value in &cases {
        let decoded = BinarySyntax.decode(value).unwrap();
        let canonical = BinarySyntax.encode(&decoded);
        assert_ne!(&canonical, value, "{decoded}");
        let (payload, _) = one_entry_snapshot("key", value);
        let engine = reopen(snapshot_media(&payload));
        assert_eq!(engine.get("key"), Some(decoded.clone()));
        assert_eq!(&*engine.state()["key"], &canonical[..], "{decoded}");
    }
}
