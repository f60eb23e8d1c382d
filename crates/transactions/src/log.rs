//! The write-ahead log: what survives a crash, decided once.
//!
//! Permanence (§8.2.1) is realised by logging every effect before it is
//! applied, then replaying the log after a crash. Everything that has to
//! agree about that lives here, each decision in one place:
//!
//! - [`media`] — the crash model: only bytes [`sync`](StableMedia::sync)ed
//!   onto a [`StableMedia`] survive its [`crash`](StableMedia::crash);
//! - [`mod@frame`] — the checksummed `[len][checksum][payload]` frame:
//!   bit 31 of the length flags the word-at-a-time checksum every frame
//!   is written with, and a frame without the flag (older media) is
//!   checked with FNV-1a;
//! - [`LogRecord`] and [`encode_frame`] / [`decode_frames`] — the records
//!   and their byte form, written straight from a record's parts (owned,
//!   or borrowed: [`encode_write_into`]) and read back as the longest
//!   valid frame prefix;
//! - [`WriteAheadLog`] — frames on a medium and nothing else; reading it
//!   back for recovery cuts a torn tail off the medium;
//! - [`analyze`] and [`committed_writes`] — which transactions a log
//!   resolves, and the redo walk over the committed ones.
//!
//! The [`ResourceManager`](crate::rm::ResourceManager) and the store
//! engine (`rmodp_store::StoreEngine`) are the two clients: both append
//! through a [`WriteAheadLog`] and both recover with the same scan,
//! classification and walk.

pub mod frame;
pub mod media;

pub use media::{FileMedia, MemMedia, StableMedia};

use std::collections::BTreeSet;

use rmodp_core::codec::binary::{Reader, Writer};
use rmodp_core::codec::CodecError;
use rmodp_core::id::TxId;
use rmodp_core::value::Value;

use frame::{frame_into, unframe};

/// One log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A transaction began.
    Begin { tx: TxId },
    /// A write, with before- and after-images (undo/redo information).
    Write {
        tx: TxId,
        item: String,
        before: Option<Value>,
        after: Value,
    },
    /// The transaction is prepared (2PC phase 1 promise).
    Prepare { tx: TxId },
    /// The transaction committed.
    Commit { tx: TxId },
    /// The transaction aborted.
    Abort { tx: TxId },
}

impl LogRecord {
    /// The transaction this record belongs to.
    pub fn tx(&self) -> TxId {
        match self {
            LogRecord::Begin { tx }
            | LogRecord::Prepare { tx }
            | LogRecord::Commit { tx }
            | LogRecord::Abort { tx } => *tx,
            LogRecord::Write { tx, .. } => *tx,
        }
    }
}

/// A write's before- or after-image as a writer hands it to the log: a
/// [`Value`], or the binary encoding of one already made (a store that
/// keeps its values encoded), which is copied as it is. Either way the
/// frame holds the same bytes.
pub trait Image: Copy {
    /// Writes the image as the next value.
    fn write_to(self, w: &mut Writer<'_>);
}

impl Image for &Value {
    fn write_to(self, w: &mut Writer<'_>) {
        w.value(self);
    }
}

/// Bytes [`BinarySyntax::encode`](rmodp_core::codec::BinarySyntax) gave
/// (or checked canonical ones): the caller owes them the layout.
impl Image for &[u8] {
    fn write_to(self, w: &mut Writer<'_>) {
        w.raw(self);
    }
}

/// The fields only a write record carries, borrowed: item, before-image,
/// after-image.
type WriteFields<'a, I> = (&'a str, Option<I>, I);

/// Writes one record as a frame. With [`read_record`] this is the one
/// definition of a record's byte form: the binary transfer syntax's
/// encoding of the record `{rec: <tag>, tx: <id>}`, a write adding
/// `item`, `after` and `before` — the optional before-image as a
/// sequence of zero or one element, so that `None` and a stored `Null`
/// stay distinguishable. It is written field by field, keys in the sorted
/// order the syntax puts them in, straight from the borrowed parts; no
/// [`Value`] of the record is built.
fn write_record<I: Image>(
    out: &mut Vec<u8>,
    tag: &str,
    tx: TxId,
    write: Option<WriteFields<'_, I>>,
) {
    frame_into(out, |payload| {
        let mut w = Writer::new(payload);
        w.record_header(if write.is_some() { 5 } else { 2 });
        if let Some((item, before, after)) = write {
            w.key("after");
            after.write_to(&mut w);
            w.key("before");
            w.seq_header(usize::from(before.is_some()));
            if let Some(before) = before {
                before.write_to(&mut w);
            }
            w.key("item");
            w.text(item);
        }
        w.key("rec");
        w.text(tag);
        w.key("tx");
        w.value(&Value::Int(tx.raw() as i64));
    });
}

/// Writes a record that carries no write: its tag and its transaction.
fn write_marker(out: &mut Vec<u8>, tag: &str, tx: TxId) {
    write_record(out, tag, tx, None::<WriteFields<'_, &Value>>);
}

/// Reads back a frame payload [`write_record`] wrote — and only that:
/// the exact field set in the exact order, nothing after it. The id is
/// read back as the `u64` it was written from, so every id round-trips,
/// those of 2⁶³ and more (stored as negative ints) included.
fn read_record(payload: &[u8]) -> Result<LogRecord, CodecError> {
    let mut r = Reader::new(payload);
    let write = match r.record_header()? {
        2 => None,
        5 => {
            r.expect_key("after")?;
            let after = r.value()?;
            r.expect_key("before")?;
            let before = match r.seq_header()? {
                0 => None,
                1 => Some(r.value()?),
                n => return Err(r.error(format!("{n} before-images"))),
            };
            r.expect_key("item")?;
            Some((r.text()?.to_owned(), before, after))
        }
        n => return Err(r.error(format!("a log record of {n} fields"))),
    };
    r.expect_key("rec")?;
    let tag = r.text()?;
    r.expect_key("tx")?;
    let tx = TxId::new(r.int()? as u64);
    if !r.at_end() {
        return Err(r.error("trailing bytes after record"));
    }
    match (tag, write) {
        ("begin", None) => Ok(LogRecord::Begin { tx }),
        ("prepare", None) => Ok(LogRecord::Prepare { tx }),
        ("commit", None) => Ok(LogRecord::Commit { tx }),
        ("abort", None) => Ok(LogRecord::Abort { tx }),
        ("write", Some((item, before, after))) => Ok(LogRecord::Write {
            tx,
            item,
            before,
            after,
        }),
        (other, _) => Err(r.error(format!("record tag `{other}` on the wrong fields"))),
    }
}

/// Appends one record to `out` as a checksummed
/// [`frame`](frame::frame_into()).
pub fn encode_frame_into(out: &mut Vec<u8>, record: &LogRecord) {
    match record {
        LogRecord::Begin { tx } => write_marker(out, "begin", *tx),
        LogRecord::Prepare { tx } => write_marker(out, "prepare", *tx),
        LogRecord::Commit { tx } => write_marker(out, "commit", *tx),
        LogRecord::Abort { tx } => write_marker(out, "abort", *tx),
        LogRecord::Write {
            tx,
            item,
            before,
            after,
        } => encode_write_into(out, *tx, item, before.as_ref(), after),
    }
}

/// Appends the frame of a [`LogRecord::Write`] to `out` from borrowed
/// parts, for a caller that holds the item and the images elsewhere and
/// would build the record only to have it encoded.
pub fn encode_write_into<I: Image>(
    out: &mut Vec<u8>,
    tx: TxId,
    item: &str,
    before: Option<I>,
    after: I,
) {
    write_record(out, "write", tx, Some((item, before, after)));
}

/// Encodes one record as a checksummed frame.
pub fn encode_frame(record: &LogRecord) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, record);
    out
}

/// The outcome of scanning a WAL image.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedWal {
    /// Every record recovered, in log order.
    pub records: Vec<LogRecord>,
    /// How many leading bytes formed valid frames.
    pub valid_len: usize,
    /// Whether trailing bytes were discarded (torn frame, bad checksum,
    /// or undecodable payload).
    pub truncated_tail: bool,
}

/// Scans a WAL image, returning the longest valid frame prefix.
///
/// Decoding stops at the first frame that is incomplete, fails its
/// checksum or does not hold a record: whatever a crash left beyond the
/// last whole frame is discarded, never misread. A payload is only
/// interpreted once its frame's checksum has held.
pub fn decode_frames(bytes: &[u8]) -> DecodedWal {
    let mut records = Vec::new();
    let mut remaining = bytes;
    while let Ok((payload, rest)) = unframe(remaining) {
        let Ok(record) = read_record(payload) else {
            break;
        };
        records.push(record);
        remaining = rest;
    }
    DecodedWal {
        records,
        valid_len: bytes.len() - remaining.len(),
        truncated_tail: !remaining.is_empty(),
    }
}

/// The write-ahead log: [`LogRecord`] frames on a [`StableMedia`].
///
/// The log keeps no state of its own. What is stable is whatever the
/// medium has synced, a crash is the medium's crash, and reading is
/// [`decode_frames`] over the medium's bytes. (`frames` is scratch: each
/// frame is built in it and handed to the medium from it, so appending
/// allocates nothing once it has grown to the largest record.)
#[derive(Debug)]
pub struct WriteAheadLog<M: StableMedia> {
    media: M,
    frames: Vec<u8>,
}

impl<M: StableMedia> WriteAheadLog<M> {
    /// The log held by `media` (whatever frames it already carries).
    pub fn new(media: M) -> Self {
        Self {
            media,
            frames: Vec::new(),
        }
    }

    /// Appends a record (volatile until [`flush`](Self::flush)).
    pub fn append(&mut self, record: &LogRecord) {
        self.frames.clear();
        encode_frame_into(&mut self.frames, record);
        self.media.wal_append(&self.frames);
    }

    /// Appends a [`LogRecord::Write`] from borrowed parts (volatile until
    /// [`flush`](Self::flush)).
    pub fn append_write<I: Image>(&mut self, tx: TxId, item: &str, before: Option<I>, after: I) {
        self.frames.clear();
        encode_write_into(&mut self.frames, tx, item, before, after);
        self.media.wal_append(&self.frames);
    }

    /// Makes everything appended so far stable.
    pub fn flush(&mut self) {
        self.media.sync();
    }

    /// Simulates a crash: the medium loses what was not synced.
    pub fn crash(&mut self) {
        self.media.crash();
    }

    /// Reads the log back for recovery: every record of the longest
    /// valid frame prefix. A torn or damaged tail is cut off the medium
    /// here, before anything can be appended behind it — the next scan
    /// would stop at the garbage and never reach a frame written after
    /// it, however committed.
    pub fn recover(&mut self) -> DecodedWal {
        let decoded = decode_frames(self.media.wal_bytes());
        if decoded.truncated_tail {
            let valid = self.media.wal_bytes()[..decoded.valid_len].to_vec();
            self.media.wal_reset(&valid);
        }
        decoded
    }

    /// Atomically replaces the whole log with the frames `refill`
    /// appends to the empty image it is given — through
    /// [`encode_frame_into`] and [`encode_write_into`] — (compaction).
    pub fn reset(&mut self, refill: impl FnOnce(&mut Vec<u8>)) {
        self.frames.clear();
        refill(&mut self.frames);
        self.media.wal_reset(&self.frames);
    }

    /// The medium under the log.
    pub fn media(&self) -> &M {
        &self.media
    }

    /// The medium, for what is not log: snapshots, and crash probes.
    pub fn media_mut(&mut self) -> &mut M {
        &mut self.media
    }

    /// Consumes the log, returning its medium.
    pub fn into_media(self) -> M {
        self.media
    }
}

/// What recovery analysis concluded about the logged transactions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryAnalysis {
    /// Committed transactions (redo).
    pub committed: BTreeSet<TxId>,
    /// Aborted transactions (undo, already resolved).
    pub aborted: BTreeSet<TxId>,
    /// Prepared but unresolved — in 2PC these are *in doubt* and must ask
    /// the coordinator.
    pub in_doubt: BTreeSet<TxId>,
    /// Active (neither prepared nor resolved) — undo.
    pub active: BTreeSet<TxId>,
}

/// Classifies every logged transaction for recovery.
pub fn analyze(records: &[LogRecord]) -> RecoveryAnalysis {
    let mut analysis = RecoveryAnalysis::default();
    for r in records {
        match r {
            LogRecord::Commit { tx } => {
                analysis.committed.insert(*tx);
                analysis.in_doubt.remove(tx);
                analysis.active.remove(tx);
            }
            LogRecord::Abort { tx } => {
                analysis.aborted.insert(*tx);
                analysis.in_doubt.remove(tx);
                analysis.active.remove(tx);
            }
            LogRecord::Prepare { tx } => {
                if !analysis.committed.contains(tx) && !analysis.aborted.contains(tx) {
                    analysis.in_doubt.insert(*tx);
                    analysis.active.remove(tx);
                }
            }
            LogRecord::Begin { tx } | LogRecord::Write { tx, .. } => {
                if !analysis.committed.contains(tx)
                    && !analysis.aborted.contains(tx)
                    && !analysis.in_doubt.contains(tx)
                {
                    analysis.active.insert(*tx);
                }
            }
        }
    }
    analysis
}

/// The redo walk: the `(item, after-image)` of every write whose
/// transaction committed, in log order, moved out of the scanned records.
/// Writes of aborted, active and in-doubt transactions are skipped (an
/// in-doubt transaction's writes are applied when the coordinator's
/// decision arrives).
///
/// What an after-image *means* is the caller's: the resource manager
/// stores it as is, the store engine reads [`Value::Null`] as a delete.
pub fn committed_writes(
    records: Vec<LogRecord>,
    analysis: &RecoveryAnalysis,
) -> impl Iterator<Item = (String, Value)> + '_ {
    records.into_iter().filter_map(|r| match r {
        LogRecord::Write {
            tx, item, after, ..
        } if analysis.committed.contains(&tx) => Some((item, after)),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_core::codec::{BinarySyntax, TransferSyntax};
    use std::collections::BTreeMap;

    const T1: TxId = TxId::new(1);
    const T2: TxId = TxId::new(2);
    const T3: TxId = TxId::new(3);

    fn write(tx: TxId, item: &str, before: Option<i64>, after: i64) -> LogRecord {
        LogRecord::Write {
            tx,
            item: item.to_owned(),
            before: before.map(Value::Int),
            after: Value::Int(after),
        }
    }

    fn log_of(records: &[LogRecord]) -> WriteAheadLog<MemMedia> {
        let mut log = WriteAheadLog::new(MemMedia::new());
        for r in records {
            log.append(r);
        }
        log
    }

    /// The redo walk applied the way the resource manager applies it.
    fn replay(log: &mut WriteAheadLog<MemMedia>) -> BTreeMap<String, Value> {
        let records = log.recover().records;
        let analysis = analyze(&records);
        committed_writes(records, &analysis).collect()
    }

    fn sample() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin { tx: T1 },
            LogRecord::Write {
                tx: T1,
                item: "oo7/atomic/3".to_owned(),
                before: None,
                after: Value::record([("x", Value::Int(9))]),
            },
            LogRecord::Commit { tx: T1 },
        ]
    }

    fn image(records: &[LogRecord]) -> Vec<u8> {
        records.iter().flat_map(encode_frame).collect()
    }

    #[test]
    fn analysis_classifies_transactions() {
        let a = analyze(&[
            LogRecord::Begin { tx: T1 },
            write(T1, "x", None, 1),
            LogRecord::Commit { tx: T1 },
            LogRecord::Begin { tx: T2 },
            write(T2, "y", None, 2),
            LogRecord::Prepare { tx: T2 },
            LogRecord::Begin { tx: T3 },
            write(T3, "z", None, 3),
        ]);
        assert!(a.committed.contains(&T1));
        assert!(a.in_doubt.contains(&T2));
        assert!(a.active.contains(&T3));
        assert!(a.aborted.is_empty());
    }

    #[test]
    fn replay_applies_only_committed() {
        let mut log = log_of(&[
            write(T1, "x", None, 1),
            LogRecord::Commit { tx: T1 },
            write(T2, "x", Some(1), 99), // active: lost
            write(T3, "y", None, 3),
            LogRecord::Abort { tx: T3 },
        ]);
        let store = replay(&mut log);
        assert_eq!(store.get("x"), Some(&Value::Int(1)));
        assert_eq!(store.get("y"), None);
    }

    #[test]
    fn later_committed_writes_win() {
        let mut log = log_of(&[
            write(T1, "x", None, 1),
            LogRecord::Commit { tx: T1 },
            write(T2, "x", Some(1), 2),
            LogRecord::Commit { tx: T2 },
        ]);
        assert_eq!(replay(&mut log).get("x"), Some(&Value::Int(2)));
    }

    #[test]
    fn crash_loses_unflushed_tail() {
        let mut log = log_of(&[write(T1, "x", None, 1), LogRecord::Commit { tx: T1 }]);
        log.flush();
        log.append(&write(T2, "y", None, 2));
        log.append(&LogRecord::Commit { tx: T2 });
        // T2's commit was never flushed.
        log.crash();
        let store = replay(&mut log);
        assert_eq!(store.get("x"), Some(&Value::Int(1)));
        assert_eq!(store.get("y"), None);
        assert_eq!(log.recover().records.len(), 2);
    }

    #[test]
    fn reset_replaces_the_log_durably() {
        let mut log = log_of(&sample());
        log.flush();
        log.reset(|image| {
            encode_frame_into(image, &LogRecord::Begin { tx: T2 });
            encode_write_into(image, T2, "x", None, &Value::Int(1));
        });
        log.crash();
        assert_eq!(
            log.recover().records,
            vec![LogRecord::Begin { tx: T2 }, write(T2, "x", None, 1)]
        );
        log.reset(|_| {});
        assert_eq!(log.media().wal_len(), 0);
    }

    #[test]
    fn every_record_shape_round_trips_owned_or_borrowed() {
        let records = vec![
            LogRecord::Begin { tx: T1 },
            write(T1, "x", None, 1),
            write(T1, "x", Some(1), 2),
            LogRecord::Write {
                tx: T1,
                item: "n".to_owned(),
                before: Some(Value::Null),
                after: Value::record([("k", Value::Int(3))]),
            },
            LogRecord::Prepare { tx: T1 },
            LogRecord::Commit { tx: T1 },
            LogRecord::Abort { tx: T2 },
        ];
        let mut log = log_of(&records);
        assert_eq!(log.media().wal_bytes(), image(&records));
        assert_eq!(log.recover().records, records);
        // The borrowed append writes the bytes the owned record does.
        let mut borrowed = WriteAheadLog::new(MemMedia::new());
        borrowed.append_write(T1, "x", Some(&Value::Int(1)), &Value::Int(2));
        assert_eq!(borrowed.media().wal_bytes(), encode_frame(&records[2]));
        // And so does one whose images come already encoded.
        let encoded = |v: &Value| BinarySyntax.encode(v);
        let mut image = Vec::new();
        for record in &records {
            match record {
                LogRecord::Write {
                    tx,
                    item,
                    before,
                    after,
                } => {
                    let before = before.as_ref().map(encoded);
                    let after = encoded(after);
                    encode_write_into(&mut image, *tx, item, before.as_deref(), &*after);
                }
                other => encode_frame_into(&mut image, other),
            }
        }
        assert_eq!(image, log.media().wal_bytes());
    }

    #[test]
    fn a_torn_tail_is_cut_before_the_next_append() {
        let mut log = log_of(&sample());
        let whole = log.media().wal_len();
        log.media_mut()
            .wal_append(&encode_frame(&sample()[1])[..20]);
        log.flush();
        let decoded = log.recover();
        assert!(decoded.truncated_tail);
        assert_eq!(decoded.valid_len, whole);
        assert_eq!(log.media().wal_len(), whole, "the torn frame is gone");
        log.append(&LogRecord::Abort { tx: T2 });
        let decoded = log.recover();
        assert!(!decoded.truncated_tail);
        assert_eq!(decoded.records.last(), Some(&LogRecord::Abort { tx: T2 }));
    }

    #[test]
    fn prepared_then_committed_is_committed() {
        let a = analyze(&[LogRecord::Prepare { tx: T1 }, LogRecord::Commit { tx: T1 }]);
        assert!(a.committed.contains(&T1));
        assert!(!a.in_doubt.contains(&T1));
    }

    #[test]
    fn frames_round_trip() {
        let image = image(&sample());
        let decoded = decode_frames(&image);
        assert_eq!(decoded.records, sample());
        assert_eq!(decoded.valid_len, image.len());
        assert!(!decoded.truncated_tail);
    }

    #[test]
    fn truncation_at_every_byte_yields_a_frame_prefix() {
        let image = image(&sample());
        let mut boundaries = vec![0usize];
        for r in sample() {
            boundaries.push(boundaries.last().unwrap() + encode_frame(&r).len());
        }
        for cut in 0..=image.len() {
            let decoded = decode_frames(&image[..cut]);
            let frames_complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(
                decoded.records.len(),
                frames_complete,
                "cut at byte {cut} must recover exactly the whole frames before it"
            );
            assert_eq!(decoded.records, sample()[..frames_complete]);
        }
    }

    #[test]
    fn corrupt_byte_stops_the_scan() {
        let mut image = image(&sample());
        // Flip one payload byte of the second frame.
        let first = encode_frame(&sample()[0]).len();
        image[first + 13] ^= 0xff;
        let decoded = decode_frames(&image);
        assert_eq!(decoded.records.len(), 1, "scan stops at the bad frame");
        assert!(decoded.truncated_tail);
        assert_eq!(decoded.valid_len, first);
    }
}
