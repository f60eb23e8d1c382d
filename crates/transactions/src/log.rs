//! The write-ahead log: what survives a crash, decided once.
//!
//! Permanence (§8.2.1) is realised by logging every effect before it is
//! applied, then replaying the log after a crash. Everything that has to
//! agree about that lives here, each decision in one place:
//!
//! - [`media`] — the crash model: only bytes [`sync`](StableMedia::sync)ed
//!   onto a [`StableMedia`] survive its [`crash`](StableMedia::crash);
//! - [`mod@frame`] — the checksummed `[len][fnv1a][payload]` frame;
//! - [`LogRecord`] and [`encode_frame`] / [`decode_frames`] — the records
//!   and their byte form, read back as the longest valid frame prefix;
//! - [`WriteAheadLog`] — frames on a medium and nothing else;
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

use rmodp_core::codec::{syntax_for, SyntaxId};
use rmodp_core::id::TxId;
use rmodp_core::value::Value;

use frame::{frame, unframe};

/// Tags identifying each record shape in the durable [`Value`] form.
const TAGS: [&str; 5] = ["begin", "write", "prepare", "commit", "abort"];

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

    /// The record as a self-describing [`Value`], the form a durable log
    /// serialises through a transfer syntax. The optional before-image is
    /// carried as a zero/one-element sequence so that `None` and a stored
    /// `Null` stay distinguishable.
    pub fn to_value(&self) -> Value {
        let (tag, tx) = match self {
            LogRecord::Begin { tx } => (TAGS[0], tx),
            LogRecord::Write { tx, .. } => (TAGS[1], tx),
            LogRecord::Prepare { tx } => (TAGS[2], tx),
            LogRecord::Commit { tx } => (TAGS[3], tx),
            LogRecord::Abort { tx } => (TAGS[4], tx),
        };
        let mut fields = vec![
            ("rec".to_owned(), Value::text(tag)),
            ("tx".to_owned(), Value::Int(tx.raw() as i64)),
        ];
        if let LogRecord::Write {
            item,
            before,
            after,
            ..
        } = self
        {
            fields.push(("item".to_owned(), Value::text(item.clone())));
            fields.push((
                "before".to_owned(),
                Value::Seq(before.iter().cloned().collect()),
            ));
            fields.push(("after".to_owned(), after.clone()));
        }
        Value::record(fields)
    }

    /// Rebuilds a record from its [`to_value`](Self::to_value) form.
    ///
    /// # Errors
    ///
    /// A description of the first structural problem found.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let tag = v
            .field("rec")
            .and_then(Value::as_text)
            .ok_or("missing record tag")?;
        let tx = TxId::new(
            v.field("tx")
                .and_then(Value::as_int)
                .ok_or("missing tx id")? as u64,
        );
        match tag {
            "begin" => Ok(LogRecord::Begin { tx }),
            "prepare" => Ok(LogRecord::Prepare { tx }),
            "commit" => Ok(LogRecord::Commit { tx }),
            "abort" => Ok(LogRecord::Abort { tx }),
            "write" => {
                let item = v
                    .field("item")
                    .and_then(Value::as_text)
                    .ok_or("write without item")?
                    .to_owned();
                let before = v
                    .field("before")
                    .and_then(Value::as_seq)
                    .ok_or("write without before-image slot")?
                    .first()
                    .cloned();
                let after = v.field("after").cloned().ok_or("write without after")?;
                Ok(LogRecord::Write {
                    tx,
                    item,
                    before,
                    after,
                })
            }
            other => Err(format!("unknown record tag `{other}`")),
        }
    }
}

/// Encodes one record as a checksummed [`frame`](frame::frame()) around
/// its binary-syntax [`to_value`](LogRecord::to_value) form.
pub fn encode_frame(record: &LogRecord) -> Vec<u8> {
    frame(&syntax_for(SyntaxId::Binary).encode(&record.to_value()))
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
/// last whole frame is discarded, never misread.
pub fn decode_frames(bytes: &[u8]) -> DecodedWal {
    let mut records = Vec::new();
    let mut remaining = bytes;
    while let Ok((payload, rest)) = unframe(remaining) {
        let Ok(value) = syntax_for(SyntaxId::Binary).decode(payload) else {
            break;
        };
        let Ok(record) = LogRecord::from_value(&value) else {
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
/// [`decode_frames`] over the medium's bytes.
#[derive(Debug)]
pub struct WriteAheadLog<M: StableMedia> {
    media: M,
}

impl<M: StableMedia> WriteAheadLog<M> {
    /// The log held by `media` (whatever frames it already carries).
    pub fn new(media: M) -> Self {
        Self { media }
    }

    /// Appends a record (volatile until [`flush`](Self::flush)).
    pub fn append(&mut self, record: &LogRecord) {
        self.media.wal_append(&encode_frame(record));
    }

    /// Makes everything appended so far stable.
    pub fn flush(&mut self) {
        self.media.sync();
    }

    /// Simulates a crash: the medium loses what was not synced.
    pub fn crash(&mut self) {
        self.media.crash();
    }

    /// Every record of the longest valid frame prefix.
    pub fn read(&self) -> DecodedWal {
        decode_frames(self.media.wal_bytes())
    }

    /// Atomically replaces the whole log with `records` (compaction).
    pub fn reset(&mut self, records: impl IntoIterator<Item = LogRecord>) {
        let mut image = Vec::new();
        for record in records {
            image.extend_from_slice(&encode_frame(&record));
        }
        self.media.wal_reset(&image);
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
/// transaction committed, in log order. Writes of aborted, active and
/// in-doubt transactions are skipped (an in-doubt transaction's writes
/// are applied when the coordinator's decision arrives).
///
/// What an after-image *means* is the caller's: the resource manager
/// stores it as is, the store engine reads [`Value::Null`] as a delete.
pub fn committed_writes<'a>(
    records: &'a [LogRecord],
    analysis: &'a RecoveryAnalysis,
) -> impl Iterator<Item = (&'a str, &'a Value)> {
    records.iter().filter_map(|r| match r {
        LogRecord::Write {
            tx, item, after, ..
        } if analysis.committed.contains(tx) => Some((item.as_str(), after)),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn replay(log: &WriteAheadLog<MemMedia>) -> BTreeMap<String, Value> {
        let records = log.read().records;
        let analysis = analyze(&records);
        let mut store = BTreeMap::new();
        for (item, after) in committed_writes(&records, &analysis) {
            store.insert(item.to_owned(), after.clone());
        }
        store
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
        let log = log_of(&[
            write(T1, "x", None, 1),
            LogRecord::Commit { tx: T1 },
            write(T2, "x", Some(1), 99), // active: lost
            write(T3, "y", None, 3),
            LogRecord::Abort { tx: T3 },
        ]);
        let store = replay(&log);
        assert_eq!(store.get("x"), Some(&Value::Int(1)));
        assert_eq!(store.get("y"), None);
    }

    #[test]
    fn later_committed_writes_win() {
        let log = log_of(&[
            write(T1, "x", None, 1),
            LogRecord::Commit { tx: T1 },
            write(T2, "x", Some(1), 2),
            LogRecord::Commit { tx: T2 },
        ]);
        assert_eq!(replay(&log).get("x"), Some(&Value::Int(2)));
    }

    #[test]
    fn crash_loses_unflushed_tail() {
        let mut log = log_of(&[write(T1, "x", None, 1), LogRecord::Commit { tx: T1 }]);
        log.flush();
        log.append(&write(T2, "y", None, 2));
        log.append(&LogRecord::Commit { tx: T2 });
        // T2's commit was never flushed.
        log.crash();
        let store = replay(&log);
        assert_eq!(store.get("x"), Some(&Value::Int(1)));
        assert_eq!(store.get("y"), None);
        assert_eq!(log.read().records.len(), 2);
    }

    #[test]
    fn reset_replaces_the_log_durably() {
        let mut log = log_of(&sample());
        log.flush();
        log.reset([LogRecord::Begin { tx: T2 }]);
        log.crash();
        assert_eq!(log.read().records, vec![LogRecord::Begin { tx: T2 }]);
        log.reset([]);
        assert_eq!(log.media().wal_len(), 0);
    }

    #[test]
    fn value_form_round_trips_every_record_shape() {
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
        for r in &records {
            let back = LogRecord::from_value(&r.to_value()).unwrap();
            assert_eq!(&back, r);
        }
        assert!(LogRecord::from_value(&Value::Int(3)).is_err());
        assert!(LogRecord::from_value(&Value::record([("rec", Value::text("warp"))])).is_err());
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
