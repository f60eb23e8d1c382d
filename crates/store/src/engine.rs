//! The storage engine: batches in, durable state out.
//!
//! [`StoreEngine`] keeps the committed keyspace in memory and makes it
//! durable through the [`WriteAheadLog`] it shares with the resource
//! manager: every mutation is appended to the log *before* it touches
//! the in-memory state, a commit flushes the log, and only then is the
//! batch applied. Recovery is the inverse — load the last snapshot, read
//! the log's valid frame prefix (a torn tail is cut off the medium, so
//! nothing is ever appended behind it), classify transactions with
//! [`analyze`], and redo the [`committed_writes`] in order, each
//! after-image encoded into the state. Redo is idempotent (writes carry
//! absolute after-images; [`Value::Null`] is the delete tombstone), so
//! replaying an over-long log onto a newer snapshot converges to the same
//! state.
//!
//! The keyspace holds each value as its canonical binary encoding (a
//! [`Keyspace`]): the bytes a write's after-image and a snapshot entry
//! carry. A `put` encodes its value once and the log frame and the state
//! take those bytes; a snapshot is written from them and read back into
//! them, each value checked but never built; [`get`](StoreEngine::get)
//! decodes the one value it is asked for.
//!
//! Compaction bounds the log: when the WAL outgrows
//! [`StoreConfig::compact_wal_bytes`], the engine stages a snapshot,
//! **syncs it**, and only then atomically resets the WAL. A crash
//! between the two steps leaves snapshot + over-long log — tolerated —
//! never a short log without its covering snapshot.

use rmodp_core::codec::binary::Reader;
use rmodp_core::codec::{BinarySyntax, TransferSyntax};
use rmodp_core::id::TxId;
use rmodp_core::value::Value;
use rmodp_observe::bus;
use rmodp_observe::event::{EventBuilder, EventKind, Layer};
use rmodp_transactions::log::{
    analyze, committed_writes, encode_frame_into, encode_write_into, LogRecord, StableMedia,
    WriteAheadLog,
};

use crate::snapshot::{decode_snapshot, encode_snapshot, Keyspace, Snapshot};

/// The one-byte encoding of [`Value::Null`], the delete tombstone.
const TOMBSTONE: &[u8] = &[0x00];

/// A store failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The durable snapshot could not be decoded. Unlike a torn WAL tail
    /// (expected after a crash, silently discarded) a damaged snapshot is
    /// unrecoverable corruption — installation is atomic, so this never
    /// arises from a crash alone.
    CorruptSnapshot(String),
    /// A batch operation was issued with no batch open.
    NoOpenBatch,
    /// `begin` was called while a batch was already open.
    BatchAlreadyOpen,
    /// `begin` found every batch id below `u64::MAX` handed out (or a
    /// log already holding `u64::MAX`, which the engine never hands out).
    BatchIdsExhausted,
    /// `put` was handed a value whose encoding the decoder refuses (it
    /// nests containers deeper than
    /// [`MAX_NESTING`](rmodp_core::codec::MAX_NESTING) levels), so it could
    /// never be read back. The reason is the decoder's.
    Unreadable(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::CorruptSnapshot(why) => write!(f, "corrupt snapshot: {why}"),
            StoreError::NoOpenBatch => write!(f, "no open batch"),
            StoreError::BatchAlreadyOpen => write!(f, "a batch is already open"),
            StoreError::BatchIdsExhausted => write!(f, "batch ids exhausted"),
            StoreError::Unreadable(why) => write!(f, "unreadable value: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Tuning knobs for the engine.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Compact (snapshot + reset the WAL) once the log exceeds this many
    /// bytes. `usize::MAX` disables auto-compaction.
    pub compact_wal_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            compact_wal_bytes: 1 << 20,
        }
    }
}

/// What recovery found and did when the engine opened.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Whether a durable snapshot was loaded first.
    pub snapshot_loaded: bool,
    /// WAL records scanned from the valid frame prefix.
    pub records_scanned: usize,
    /// Committed write records redone onto the state.
    pub writes_replayed: usize,
    /// Whether a torn/corrupt WAL tail was discarded.
    pub tail_discarded: bool,
    /// Transactions the log left unresolved (active or in doubt) whose
    /// effects were therefore *not* applied.
    pub unresolved_txs: usize,
}

#[derive(Debug)]
struct OpenBatch {
    tx: TxId,
    /// Staged after-images, encoded, applied on commit ([`TOMBSTONE`]
    /// deletes).
    ops: Vec<(String, Box<[u8]>)>,
}

/// Counters the engine accumulates over its lifetime (mirrored onto the
/// observe bus under `store.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Batches committed.
    pub commits: u64,
    /// Batches aborted.
    pub aborts: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Committed writes replayed by the last recovery.
    pub recovery_replayed: u64,
}

/// A durable key→[`Value`] store over some [`StableMedia`].
#[derive(Debug)]
pub struct StoreEngine<M: StableMedia> {
    log: WriteAheadLog<M>,
    config: StoreConfig,
    state: Keyspace,
    next_batch: u64,
    open: Option<OpenBatch>,
    stats: StoreStats,
    recovery: RecoveryReport,
}

impl<M: StableMedia> StoreEngine<M> {
    /// Opens the engine over `media`, recovering whatever committed
    /// state the media holds: snapshot first, then redo of the WAL's
    /// valid frame prefix.
    ///
    /// # Errors
    ///
    /// [`StoreError::CorruptSnapshot`] if a snapshot exists but cannot
    /// be decoded (real corruption, not a crash artefact).
    pub fn open(media: M, config: StoreConfig) -> Result<Self, StoreError> {
        let mut report = RecoveryReport::default();
        let snapshot = match media.snapshot_bytes() {
            Some(bytes) => {
                report.snapshot_loaded = true;
                decode_snapshot(bytes).map_err(StoreError::CorruptSnapshot)?
            }
            None => Snapshot::default(),
        };
        let mut log = WriteAheadLog::new(media);
        let decoded = log.recover();
        report.records_scanned = decoded.records.len();
        report.tail_discarded = decoded.truncated_tail;

        let mut state = snapshot.state;
        let analysis = analyze(&decoded.records);
        report.unresolved_txs = analysis.active.len() + analysis.in_doubt.len();
        let max_tx = decoded.records.iter().map(|r| r.tx().raw()).max();
        // Saturating: a log holding `u64::MAX` still opens and reads, and
        // `begin` refuses, since `u64::MAX` is never handed out.
        let next_batch = snapshot
            .next_batch
            .max(max_tx.unwrap_or(0).saturating_add(1));
        for (item, after) in committed_writes(decoded.records, &analysis) {
            report.writes_replayed += 1;
            apply_write(&mut state, item, encode(&after));
        }

        let stats = StoreStats {
            recovery_replayed: report.writes_replayed as u64,
            ..StoreStats::default()
        };
        bus::counter_add("store.recovery_replayed", stats.recovery_replayed);
        EventBuilder::new(Layer::Store, EventKind::StoreRecovery)
            .detail_fmt(format_args!(
                "snapshot={} scanned={} replayed={} torn_tail={} unresolved={}",
                report.snapshot_loaded,
                report.records_scanned,
                report.writes_replayed,
                report.tail_discarded,
                report.unresolved_txs
            ))
            .emit();

        let engine = Self {
            log,
            config,
            state,
            next_batch,
            open: None,
            stats,
            recovery: report,
        };
        engine.publish_sizes();
        Ok(engine)
    }

    /// What the opening recovery pass found.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Lifetime counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The committed keyspace, each value as its canonical binary
    /// encoding (reads never see an open batch's writes).
    pub fn state(&self) -> &Keyspace {
        &self.state
    }

    /// Reads a committed value, decoded from the bytes the keyspace
    /// holds for it.
    pub fn get(&self, key: &str) -> Option<Value> {
        self.state.get(key).map(|bytes| {
            BinarySyntax
                .decode(bytes)
                .expect("the keyspace holds checked bytes")
        })
    }

    /// Number of committed keys.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether no key is committed.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Whether a batch is currently open.
    pub fn has_open_batch(&self) -> bool {
        self.open.is_some()
    }

    /// Current WAL size in bytes.
    pub fn log_bytes(&self) -> usize {
        self.log.media().wal_len()
    }

    /// Current durable snapshot size in bytes.
    pub fn snapshot_bytes(&self) -> usize {
        self.log.media().snapshot_len()
    }

    /// Consumes the engine, returning its media (e.g. to reopen after a
    /// simulated crash).
    pub fn into_media(self) -> M {
        self.log.into_media()
    }

    /// Opens a batch.
    ///
    /// # Errors
    ///
    /// [`StoreError::BatchAlreadyOpen`] if one is already open;
    /// [`StoreError::BatchIdsExhausted`] once the next id is `u64::MAX`.
    pub fn begin(&mut self) -> Result<TxId, StoreError> {
        if self.open.is_some() {
            return Err(StoreError::BatchAlreadyOpen);
        }
        let tx = TxId::new(self.next_batch);
        self.next_batch = self
            .next_batch
            .checked_add(1)
            .ok_or(StoreError::BatchIdsExhausted)?;
        self.log.append(&LogRecord::Begin { tx });
        self.open = Some(OpenBatch {
            tx,
            ops: Vec::new(),
        });
        Ok(tx)
    }

    /// Stages a write into the open batch (logged write-ahead).
    ///
    /// [`Value::Null`] is reserved as the delete tombstone; storing it
    /// is equivalent to [`delete`](Self::delete).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoOpenBatch`] without a batch;
    /// [`StoreError::Unreadable`] for a value `decode` would refuse to
    /// read back, which is neither logged nor staged.
    pub fn put(&mut self, key: &str, value: Value) -> Result<(), StoreError> {
        let batch = self.open.as_mut().ok_or(StoreError::NoOpenBatch)?;
        let after = encode(&value);
        // The keyspace holds only bytes the decoder reads back: checked
        // here by the one parser, as a snapshot's are at `open`.
        Reader::new(&after)
            .value_span()
            .map_err(|e| StoreError::Unreadable(e.to_string()))?;
        let before = self.state.get(key).map(|bytes| &**bytes);
        self.log.append_write(batch.tx, key, before, &*after);
        batch.ops.push((key.to_owned(), after));
        Ok(())
    }

    /// Stages a delete (a [`Value::Null`] tombstone) into the open batch.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoOpenBatch`] without a batch.
    pub fn delete(&mut self, key: &str) -> Result<(), StoreError> {
        self.put(key, Value::Null)
    }

    /// Commits the open batch: logs the commit record, flushes the log
    /// (the durability point), then applies the staged writes.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoOpenBatch`] without a batch.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        let batch = self.open.take().ok_or(StoreError::NoOpenBatch)?;
        self.log.append(&LogRecord::Commit { tx: batch.tx });
        self.log.flush();
        let ops = batch.ops.len();
        for (key, value) in batch.ops {
            apply_write(&mut self.state, key, value);
        }
        self.stats.commits += 1;
        bus::counter_add("store.commits", 1);
        EventBuilder::new(Layer::Store, EventKind::WalCommit)
            .detail_fmt(format_args!("tx={} ops={ops}", batch.tx.raw()))
            .emit();
        self.publish_sizes();
        if self.log_bytes() > self.config.compact_wal_bytes {
            self.compact();
        }
        Ok(())
    }

    /// Aborts the open batch: logs the abort, discards the staged
    /// writes. The state was never touched, so there is nothing to undo.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoOpenBatch`] without a batch.
    pub fn abort(&mut self) -> Result<(), StoreError> {
        let batch = self.open.take().ok_or(StoreError::NoOpenBatch)?;
        self.log.append(&LogRecord::Abort { tx: batch.tx });
        self.stats.aborts += 1;
        bus::counter_add("store.aborts", 1);
        Ok(())
    }

    /// Compacts: snapshot the committed state, sync it durable, then
    /// atomically reset the WAL. Ordering is load-bearing — the reset
    /// must not happen before its covering snapshot is stable.
    pub fn compact(&mut self) {
        self.log
            .media_mut()
            .snapshot_write(&encode_snapshot(&self.state, self.next_batch));
        self.log.flush();
        EventBuilder::new(Layer::Store, EventKind::StoreSnapshot)
            .detail_fmt(format_args!("keys={}", self.state.len()))
            .emit();
        // If an uncommitted batch is open its records must survive the
        // reset, or recovery could mistake its later commit frame for a
        // full transaction. Re-log the open batch's prefix into the
        // fresh log.
        let open = self.open.as_ref();
        self.log.reset(|image| {
            if let Some(batch) = open {
                encode_frame_into(image, &LogRecord::Begin { tx: batch.tx });
                for (key, value) in &batch.ops {
                    encode_write_into(image, batch.tx, key, None, &**value);
                }
            }
        });
        self.stats.compactions += 1;
        bus::counter_add("store.compactions", 1);
        EventBuilder::new(Layer::Store, EventKind::StoreCompaction)
            .detail_fmt(format_args!("log_bytes={}", self.log_bytes()))
            .emit();
        self.publish_sizes();
    }

    fn publish_sizes(&self) {
        bus::gauge_set("store.log_bytes", self.log_bytes() as i64);
        bus::gauge_set("store.snapshot_bytes", self.snapshot_bytes() as i64);
    }
}

/// A value's canonical binary encoding, as the keyspace holds it.
fn encode(value: &Value) -> Box<[u8]> {
    BinarySyntax.encode(value).into_boxed_slice()
}

/// Applies one encoded after-image to the keyspace — the one place that
/// reads the [`TOMBSTONE`] as a delete, for a commit and for redo alike.
fn apply_write(state: &mut Keyspace, key: String, after: Box<[u8]>) {
    if *after == *TOMBSTONE {
        state.remove(&key);
    } else {
        state.insert(key, after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemMedia;
    use rmodp_core::codec::MAX_NESTING;

    fn open_mem() -> StoreEngine<MemMedia> {
        StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap()
    }

    fn commit_one(engine: &mut StoreEngine<MemMedia>, key: &str, v: i64) {
        engine.begin().unwrap();
        engine.put(key, Value::Int(v)).unwrap();
        engine.commit().unwrap();
    }

    #[test]
    fn committed_batches_survive_a_crash() {
        let mut engine = open_mem();
        commit_one(&mut engine, "a", 1);
        engine.begin().unwrap();
        engine.put("b", Value::Int(2)).unwrap();
        // No commit: crash with the batch in flight.
        let mut media = engine.into_media();
        media.crash();
        let engine = StoreEngine::open(media, StoreConfig::default()).unwrap();
        assert_eq!(engine.get("a"), Some(Value::Int(1)));
        assert_eq!(engine.get("b"), None, "uncommitted batch must vanish");
        assert_eq!(engine.recovery_report().writes_replayed, 1);
    }

    #[test]
    fn deletes_are_tombstones() {
        let mut engine = open_mem();
        commit_one(&mut engine, "k", 7);
        engine.begin().unwrap();
        engine.delete("k").unwrap();
        engine.commit().unwrap();
        assert_eq!(engine.get("k"), None);
        let engine = StoreEngine::open(engine.into_media(), StoreConfig::default()).unwrap();
        assert_eq!(engine.get("k"), None, "tombstone replays as a delete");
    }

    #[test]
    fn abort_leaves_state_untouched() {
        let mut engine = open_mem();
        commit_one(&mut engine, "x", 1);
        engine.begin().unwrap();
        engine.put("x", Value::Int(99)).unwrap();
        engine.abort().unwrap();
        assert_eq!(engine.get("x"), Some(Value::Int(1)));
        let engine = StoreEngine::open(engine.into_media(), StoreConfig::default()).unwrap();
        assert_eq!(engine.get("x"), Some(Value::Int(1)));
    }

    #[test]
    fn compaction_preserves_state_and_resets_the_log() {
        let mut engine = StoreEngine::open(
            MemMedia::new(),
            StoreConfig {
                compact_wal_bytes: 1,
            },
        )
        .unwrap();
        for i in 0..10 {
            commit_one(&mut engine, &format!("k{i}"), i);
        }
        assert!(engine.stats().compactions >= 9, "every commit over-filled");
        assert!(engine.log_bytes() < 64);
        assert!(engine.snapshot_bytes() > 0);
        let engine = StoreEngine::open(engine.into_media(), StoreConfig::default()).unwrap();
        assert_eq!(engine.len(), 10);
        assert_eq!(engine.get("k9"), Some(Value::Int(9)));
    }

    #[test]
    fn crash_between_snapshot_and_reset_is_tolerated() {
        // Simulate the window by syncing a snapshot but never resetting.
        let mut engine = open_mem();
        commit_one(&mut engine, "a", 1);
        let snap_bytes = encode_snapshot(engine.state(), 5);
        let media = engine.log.media_mut();
        media.snapshot_write(&snap_bytes);
        media.sync();
        // Crash: snapshot installed, full WAL still present.
        let mut media = engine.into_media();
        media.crash();
        let engine = StoreEngine::open(media, StoreConfig::default()).unwrap();
        assert_eq!(engine.get("a"), Some(Value::Int(1)), "redo is idempotent");
        assert!(engine.recovery_report().snapshot_loaded);
    }

    #[test]
    fn batch_ids_stay_monotone_across_restart_and_compaction() {
        let mut engine = open_mem();
        let t1 = engine.begin().unwrap();
        engine.put("a", Value::Int(1)).unwrap();
        engine.commit().unwrap();
        engine.compact();
        let engine = StoreEngine::open(engine.into_media(), StoreConfig::default()).unwrap();
        let mut engine = engine;
        let t2 = engine.begin().unwrap();
        assert!(t2.raw() > t1.raw());
    }

    #[test]
    fn open_batch_survives_compaction() {
        let mut engine = open_mem();
        commit_one(&mut engine, "a", 1);
        let tx = engine.begin().unwrap();
        engine.put("b", Value::Int(2)).unwrap();
        engine.delete("a").unwrap();
        engine.compact();
        // The fresh log is the open batch's prefix, re-logged from the
        // staged operations.
        let relogged = engine.log.recover().records;
        assert_eq!(relogged.len(), 3);
        assert_eq!(relogged[0], LogRecord::Begin { tx });
        assert_eq!(
            relogged[2],
            LogRecord::Write {
                tx,
                item: "a".to_owned(),
                before: None,
                after: Value::Null,
            }
        );
        engine.put("c", Value::Int(3)).unwrap();
        engine.commit().unwrap();
        let mut media = engine.into_media();
        media.crash();
        let engine = StoreEngine::open(media, StoreConfig::default()).unwrap();
        assert_eq!(engine.get("a"), None);
        assert_eq!(engine.get("b"), Some(Value::Int(2)));
        assert_eq!(engine.get("c"), Some(Value::Int(3)));
    }

    #[test]
    fn misuse_is_reported() {
        let mut engine = open_mem();
        assert_eq!(engine.commit(), Err(StoreError::NoOpenBatch));
        assert_eq!(engine.abort(), Err(StoreError::NoOpenBatch));
        assert_eq!(engine.put("k", Value::Int(1)), Err(StoreError::NoOpenBatch));
        engine.begin().unwrap();
        assert_eq!(engine.begin().unwrap_err(), StoreError::BatchAlreadyOpen);
    }

    /// `levels` sequences, each holding the next; the innermost holds 0.
    fn nested(levels: usize) -> Value {
        (0..levels).fold(Value::Int(0), |inner, _| Value::seq([inner]))
    }

    #[test]
    fn a_value_decode_refuses_is_refused_by_put() {
        let mut engine = open_mem();
        engine.begin().unwrap();
        let refusal = BinarySyntax
            .decode(&BinarySyntax.encode(&nested(MAX_NESTING + 1)))
            .unwrap_err();
        let logged = engine.log_bytes();
        assert_eq!(
            engine.put("deep", nested(MAX_NESTING + 1)),
            Err(StoreError::Unreadable(refusal.to_string()))
        );
        assert_eq!(engine.log_bytes(), logged, "a refused value is not logged");
        // The deepest value decode reads is stored, and the batch goes on.
        engine.put("deepest", nested(MAX_NESTING)).unwrap();
        engine.commit().unwrap();
        assert_eq!(engine.get("deep"), None);
        assert_eq!(engine.get("deepest"), Some(nested(MAX_NESTING)));
        engine.compact();
        let engine = StoreEngine::open(engine.into_media(), StoreConfig::default()).unwrap();
        assert_eq!(engine.get("deepest"), Some(nested(MAX_NESTING)));
        assert_eq!(engine.len(), 1);
    }
}
