//! Crash-at-every-prefix: truncate the WAL at *each byte* and check the
//! recovered state equals exactly the committed prefix.
//!
//! This is the store's core durability property. For any batch history
//! and any crash point, recovery must reconstruct precisely the state
//! after the last batch whose commit frame fully survived — never a
//! torn mixture, never a lost committed write, never a leaked
//! uncommitted one. And what a crash tore is cut off the medium at
//! recovery, so a batch committed afterwards survives the crash after
//! that (`TearingMedia`). A log an older build began, in the legacy frame
//! form, and this build went on with holds the same property.

mod legacy;

use std::collections::BTreeMap;

use proptest::prelude::*;

use rmodp_core::codec::{BinarySyntax, TransferSyntax};
use rmodp_core::value::Value;
use rmodp_store::snapshot::Keyspace;
use rmodp_store::{MemMedia, StableMedia, StoreConfig, StoreEngine};

use legacy::to_legacy;

/// One staged operation: `Some(v)` puts, `None` deletes.
type Op = (u8, Option<i64>);

/// A batch of operations plus whether it commits (vs aborts).
type Batch = (Vec<Op>, bool);

fn arb_history() -> impl Strategy<Value = Vec<Batch>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0u8..6, proptest::option::of(-100i64..100)), 0..5),
            any::<bool>(),
        ),
        1..10,
    )
}

fn key(k: u8) -> String {
    format!("item/{k}")
}

/// A WAL length at which a commit frame ends, with the state expected
/// when recovery stops exactly there.
type CommitPoint = (usize, BTreeMap<String, Value>);

/// The keyspace's values, decoded.
fn decoded(state: &Keyspace) -> BTreeMap<String, Value> {
    state
        .iter()
        .map(|(key, bytes)| (key.clone(), BinarySyntax.decode(bytes).unwrap()))
        .collect()
}

/// Runs the history, recording after each committed batch the WAL length
/// at which its commit frame ends and the expected state at that point.
fn run_history(history: &[Batch]) -> (MemMedia, Vec<CommitPoint>) {
    continue_history(MemMedia::new(), vec![(0, BTreeMap::new())], history)
}

/// [`run_history`] on top of `media`, whose WAL already ends at the last
/// of `commit_points`.
fn continue_history(
    media: MemMedia,
    mut commit_points: Vec<CommitPoint>,
    history: &[Batch],
) -> (MemMedia, Vec<CommitPoint>) {
    let mut engine = StoreEngine::open(media, StoreConfig::default()).unwrap();
    let mut shadow = commit_points.last().expect("a start point").1.clone();
    assert_eq!(decoded(engine.state()), shadow);
    for (ops, commits) in history {
        engine.begin().unwrap();
        for (k, op) in ops {
            match op {
                Some(v) => engine.put(&key(*k), Value::Int(*v)).unwrap(),
                None => engine.delete(&key(*k)).unwrap(),
            }
        }
        if *commits {
            engine.commit().unwrap();
            for (k, op) in ops {
                match op {
                    Some(v) => {
                        shadow.insert(key(*k), Value::Int(*v));
                    }
                    None => {
                        shadow.remove(&key(*k));
                    }
                }
            }
            commit_points.push((engine.log_bytes(), shadow.clone()));
        } else {
            engine.abort().unwrap();
        }
    }
    (engine.into_media(), commit_points)
}

fn assert_every_prefix_recovers(history: &[Batch]) {
    let (media, commit_points) = run_history(history);
    assert_every_cut_recovers(&media, &commit_points);
}

/// Cuts the WAL of `media` at every byte and reopens it: the state must
/// be that of the last commit point at or before the cut.
fn assert_every_cut_recovers(media: &MemMedia, commit_points: &[CommitPoint]) {
    let total = media.wal_len();
    for cut in 0..=total {
        let mut crashed = media.clone();
        crashed.truncate_wal(cut);
        let recovered = StoreEngine::open(crashed, StoreConfig::default()).unwrap();
        let expected = &commit_points
            .iter()
            .rev()
            .find(|(end, _)| *end <= cut)
            .expect("point 0 always qualifies")
            .1;
        assert_eq!(
            &decoded(recovered.state()),
            expected,
            "cut at byte {cut}/{total}: recovered state must equal the committed prefix"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recovery_equals_committed_prefix_at_every_byte(history in arb_history()) {
        assert_every_prefix_recovers(&history);
    }
}

#[test]
fn recovery_equals_committed_prefix_for_a_dense_history() {
    // Deterministic exhaustive case: overwrites, deletes, an abort in
    // the middle, re-creation after delete.
    let history: Vec<Batch> = vec![
        (vec![(0, Some(1)), (1, Some(2))], true),
        (vec![(0, Some(10)), (2, Some(3))], true),
        (vec![(1, None)], true),
        (vec![(0, Some(-5)), (3, Some(4))], false), // aborted
        (vec![(1, Some(20)), (0, None)], true),
    ];
    assert_every_prefix_recovers(&history);
}

#[test]
fn recovery_equals_committed_prefix_on_a_log_begun_in_legacy_frames() {
    // An older build wrote the first batches: the same records, every
    // frame unflagged and FNV-1a checked. This build opens that medium
    // and appends flagged frames behind them.
    let (written, commit_points) = run_history(&[
        (vec![(0, Some(1)), (1, Some(2))], true),
        (vec![(2, Some(3))], false), // aborted
        (vec![(0, Some(10)), (1, None)], true),
    ]);
    let mut old = MemMedia::new();
    old.wal_append(&to_legacy(written.wal_bytes()));
    old.sync();
    assert_ne!(old.wal_bytes(), written.wal_bytes());
    let (mixed, commit_points) = continue_history(
        old,
        commit_points,
        &[
            (vec![(1, Some(20)), (3, Some(4))], true),
            (vec![(0, Some(-5))], false), // aborted
            (vec![(0, None), (2, Some(7))], true),
        ],
    );
    assert_eq!(commit_points.len(), 5);
    assert_every_cut_recovers(&mixed, &commit_points);
}

#[test]
fn recovery_equals_committed_prefix_across_compaction() {
    // Same property but with a compaction inside the history: cuts into
    // the post-compaction WAL must recover snapshot + surviving tail.
    let mut engine = StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap();
    engine.begin().unwrap();
    engine.put("a", Value::Int(1)).unwrap();
    engine.commit().unwrap();
    engine.compact();
    let mut commit_points = vec![(engine.log_bytes(), engine.state().clone())];
    for i in 0..4 {
        engine.begin().unwrap();
        engine.put("b", Value::Int(i)).unwrap();
        engine.commit().unwrap();
        commit_points.push((engine.log_bytes(), engine.state().clone()));
    }
    let media = engine.into_media();
    for cut in 0..=media.wal_len() {
        let mut crashed = media.clone();
        crashed.truncate_wal(cut);
        let recovered = StoreEngine::open(crashed, StoreConfig::default()).unwrap();
        let expected = &commit_points
            .iter()
            .rev()
            .find(|(end, _)| *end <= cut)
            .expect("compaction point always qualifies")
            .1;
        assert_eq!(recovered.state(), expected, "cut at byte {cut}");
    }
}

/// [`MemMedia`] whose crash tears: the first `torn_bytes` of the unsynced
/// WAL tail reach the medium anyway, the way a file keeps the part of an
/// unsynced write that happened to hit the disk.
#[derive(Debug)]
struct TearingMedia {
    inner: MemMedia,
    torn_bytes: usize,
}

impl StableMedia for TearingMedia {
    fn wal_append(&mut self, bytes: &[u8]) {
        self.inner.wal_append(bytes);
    }

    fn wal_bytes(&self) -> &[u8] {
        self.inner.wal_bytes()
    }

    fn wal_reset(&mut self, bytes: &[u8]) {
        self.inner.wal_reset(bytes);
    }

    fn snapshot_write(&mut self, bytes: &[u8]) {
        self.inner.snapshot_write(bytes);
    }

    fn snapshot_bytes(&self) -> Option<&[u8]> {
        self.inner.snapshot_bytes()
    }

    fn sync(&mut self) {
        self.inner.sync();
    }

    fn crash(&mut self) {
        let synced = self.inner.synced_len();
        let kept = (synced + self.torn_bytes).min(self.inner.wal_len());
        let torn = self.inner.wal_bytes()[synced..kept].to_vec();
        self.inner.crash();
        self.inner.wal_append(&torn);
        self.inner.sync();
    }
}

#[test]
fn a_batch_committed_behind_a_torn_tail_survives_the_next_crash() {
    // One committed batch, then a crash in the middle of the next one
    // that leaves every possible part of its unsynced frames behind.
    let in_flight = {
        let mut engine = StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap();
        engine.begin().unwrap();
        engine.put("torn", Value::text("never committed")).unwrap();
        engine.log_bytes()
    };
    let mut tails_discarded = 0;
    for torn_bytes in 0..=in_flight {
        let media = TearingMedia {
            inner: MemMedia::new(),
            torn_bytes,
        };
        let mut engine = StoreEngine::open(media, StoreConfig::default()).unwrap();
        engine.begin().unwrap();
        engine.put("first", Value::Int(1)).unwrap();
        engine.commit().unwrap();
        engine.begin().unwrap();
        engine.put("torn", Value::text("never committed")).unwrap();
        let mut media = engine.into_media();
        media.crash();

        let mut engine = StoreEngine::open(media, StoreConfig::default()).unwrap();
        tails_discarded += usize::from(engine.recovery_report().tail_discarded);
        engine.begin().unwrap();
        engine.put("second", Value::Int(2)).unwrap();
        engine.commit().unwrap();
        let mut media = engine.into_media();
        media.torn_bytes = 0;
        media.crash();

        let engine = StoreEngine::open(media, StoreConfig::default()).unwrap();
        assert!(!engine.recovery_report().tail_discarded, "{torn_bytes}");
        assert_eq!(engine.get("first"), Some(Value::Int(1)), "{torn_bytes}");
        assert_eq!(
            engine.get("second"),
            Some(Value::Int(2)),
            "{torn_bytes} torn bytes: the batch committed after recovery is lost"
        );
        assert_eq!(engine.get("torn"), None, "{torn_bytes}");
    }
    // Every cut but the three on a frame boundary tore a frame.
    assert_eq!(tails_discarded, in_flight + 1 - 3);
}
