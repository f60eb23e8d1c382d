//! The resource manager: a transactional store combining the lock manager
//! and the write-ahead log, configurable along the generalised transaction
//! function's axes (§8.2.1).

use std::collections::BTreeMap;
use std::fmt;

use rmodp_core::id::{IdGen, TxId};
use rmodp_core::value::Value;

use crate::lock::{LockManager, LockMode, LockOutcome};
use crate::log::{analyze, committed_writes, LogRecord, MemMedia, WriteAheadLog};

/// When other transactions may observe a transaction's writes
/// (the *visibility* axis of the generalised transaction function).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Reads see only committed data and take shared locks (serialisable
    /// with strict 2PL).
    ReadCommitted,
    /// Reads see in-flight writes and take no locks (the paper's
    /// generalised function permits weaker coordination).
    ReadUncommitted,
}

/// Whether effects of incomplete transactions are undone
/// (the *recoverability* axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recoverability {
    /// Aborts restore before-images.
    Undoable,
    /// Aborts leave effects in place (no rollback).
    None,
}

/// Whether committed effects survive crashes (the *permanence* axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Permanence {
    /// Committed writes are replayable from the stable log.
    Durable,
    /// Nothing survives a crash.
    Volatile,
}

/// A profile along the three axes. [`TxProfile::acid`] is the ACID
/// specialisation the paper singles out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxProfile {
    /// Visibility of intermediate effects.
    pub visibility: Visibility,
    /// Recoverability of incomplete transactions.
    pub recoverability: Recoverability,
    /// Permanence of completed transactions.
    pub permanence: Permanence,
}

impl TxProfile {
    /// The ACID profile: read-committed visibility, undoable, durable.
    pub fn acid() -> Self {
        Self {
            visibility: Visibility::ReadCommitted,
            recoverability: Recoverability::Undoable,
            permanence: Permanence::Durable,
        }
    }
}

/// A resource-manager failure.
#[derive(Debug, Clone, PartialEq)]
pub enum RmError {
    /// The transaction is not active.
    NotActive { tx: TxId },
    /// The transaction must wait for a lock (retry after the blockers
    /// finish).
    WouldBlock {
        tx: TxId,
        item: String,
        blockers: Vec<TxId>,
    },
    /// Granting the lock would deadlock; the transaction was aborted.
    Deadlock { tx: TxId, cycle: Vec<TxId> },
    /// The transaction is prepared; only commit/abort are legal.
    Prepared { tx: TxId },
}

impl fmt::Display for RmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RmError::NotActive { tx } => write!(f, "{tx} is not active"),
            RmError::WouldBlock { tx, item, .. } => {
                write!(f, "{tx} must wait for a lock on {item:?}")
            }
            RmError::Deadlock { tx, .. } => write!(f, "{tx} aborted: deadlock"),
            RmError::Prepared { tx } => write!(f, "{tx} is prepared"),
        }
    }
}

impl std::error::Error for RmError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxState {
    Active,
    Prepared,
}

/// A transactional key-value resource manager.
pub struct ResourceManager {
    name: String,
    profile: TxProfile,
    committed: BTreeMap<String, Value>,
    /// Per-transaction uncommitted write sets.
    write_sets: BTreeMap<TxId, BTreeMap<String, Value>>,
    tx_states: BTreeMap<TxId, TxState>,
    locks: LockManager,
    log: WriteAheadLog<MemMedia>,
    tx_gen: IdGen<TxId>,
}

impl fmt::Debug for ResourceManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResourceManager")
            .field("name", &self.name)
            .field("items", &self.committed.len())
            .field("active", &self.tx_states.len())
            .finish()
    }
}

impl ResourceManager {
    /// Creates an empty resource manager.
    pub fn new(name: impl Into<String>, profile: TxProfile) -> Self {
        Self {
            name: name.into(),
            profile,
            committed: BTreeMap::new(),
            write_sets: BTreeMap::new(),
            tx_states: BTreeMap::new(),
            locks: LockManager::new(),
            log: WriteAheadLog::new(MemMedia::new()),
            tx_gen: IdGen::new(),
        }
    }

    /// The profile in force.
    pub fn profile(&self) -> TxProfile {
        self.profile
    }

    /// Begins a transaction.
    pub fn begin(&mut self) -> TxId {
        let tx = self.tx_gen.fresh();
        self.tx_states.insert(tx, TxState::Active);
        self.write_sets.insert(tx, BTreeMap::new());
        self.log.append(&LogRecord::Begin { tx });
        tx
    }

    /// Begins a transaction with a caller-chosen identity (used by the
    /// distributed coordinator so every participant shares the global id).
    pub fn begin_with_id(&mut self, tx: TxId) {
        self.tx_states.insert(tx, TxState::Active);
        self.write_sets.entry(tx).or_default();
        self.log.append(&LogRecord::Begin { tx });
    }

    /// Transactionally reads an item.
    ///
    /// # Errors
    ///
    /// Lock waits/deadlocks under `ReadCommitted`; `NotActive` for unknown
    /// transactions.
    pub fn read(&mut self, tx: TxId, item: &str) -> Result<Option<Value>, RmError> {
        self.check_active(tx)?;
        // Own writes are always visible.
        if let Some(v) = self.write_sets.get(&tx).and_then(|ws| ws.get(item)) {
            return Ok(Some(v.clone()));
        }
        match self.profile.visibility {
            Visibility::ReadUncommitted => {
                // Latest in-flight write by anyone, else committed.
                let dirty = self
                    .write_sets
                    .values()
                    .filter_map(|ws| ws.get(item))
                    .next_back()
                    .cloned();
                Ok(dirty.or_else(|| self.committed.get(item).cloned()))
            }
            Visibility::ReadCommitted => {
                self.lock(tx, item, LockMode::Shared)?;
                Ok(self.committed.get(item).cloned())
            }
        }
    }

    /// Reads the committed value outside any transaction.
    pub fn read_committed(&self, item: &str) -> Option<Value> {
        self.committed.get(item).cloned()
    }

    /// Transactionally writes an item.
    ///
    /// # Errors
    ///
    /// Lock waits/deadlocks; `NotActive`/`Prepared` state errors.
    pub fn write(&mut self, tx: TxId, item: &str, value: Value) -> Result<(), RmError> {
        self.check_active(tx)?;
        self.lock(tx, item, LockMode::Exclusive)?;
        let before = self
            .write_sets
            .get(&tx)
            .and_then(|ws| ws.get(item))
            .or_else(|| self.committed.get(item));
        self.log.append_write(tx, item, before, &value);
        self.write_sets
            .get_mut(&tx)
            .expect("active tx has a write set")
            .insert(item.to_owned(), value);
        Ok(())
    }

    /// Prepares the transaction (2PC phase 1): after a successful prepare
    /// the manager guarantees it can commit.
    ///
    /// # Errors
    ///
    /// `NotActive` for unknown/finished transactions.
    pub fn prepare(&mut self, tx: TxId) -> Result<(), RmError> {
        match self.tx_states.get(&tx) {
            Some(TxState::Active) => {
                self.tx_states.insert(tx, TxState::Prepared);
                self.log.append(&LogRecord::Prepare { tx });
                self.log.flush();
                Ok(())
            }
            Some(TxState::Prepared) => Ok(()),
            None => Err(RmError::NotActive { tx }),
        }
    }

    /// Commits the transaction: applies its write set, logs and flushes,
    /// releases locks.
    ///
    /// # Errors
    ///
    /// `NotActive` for unknown transactions.
    pub fn commit(&mut self, tx: TxId) -> Result<(), RmError> {
        if self.tx_states.remove(&tx).is_none() {
            return Err(RmError::NotActive { tx });
        }
        let writes = self.write_sets.remove(&tx).unwrap_or_default();
        for (item, value) in writes {
            self.committed.insert(item, value);
        }
        self.log.append(&LogRecord::Commit { tx });
        if self.profile.permanence == Permanence::Durable {
            self.log.flush();
        }
        self.locks.release_all(tx);
        Ok(())
    }

    /// Aborts the transaction: discards its write set (under
    /// `Recoverability::Undoable`) or applies it anyway (under
    /// `Recoverability::None`, modelling the generalised function's
    /// weakest setting), then releases locks.
    ///
    /// # Errors
    ///
    /// `NotActive` for unknown transactions.
    pub fn abort(&mut self, tx: TxId) -> Result<(), RmError> {
        if self.tx_states.remove(&tx).is_none() {
            return Err(RmError::NotActive { tx });
        }
        let writes = self.write_sets.remove(&tx).unwrap_or_default();
        if self.profile.recoverability == Recoverability::None {
            for (item, value) in writes {
                self.committed.insert(item, value);
            }
        }
        self.log.append(&LogRecord::Abort { tx });
        self.locks.release_all(tx);
        Ok(())
    }

    /// Whether the transaction is prepared (in doubt after a crash).
    pub fn is_prepared(&self, tx: TxId) -> bool {
        self.tx_states.get(&tx) == Some(&TxState::Prepared)
    }

    /// Simulates a crash: volatile state is lost, and the log's medium
    /// drops whatever was not synced.
    pub fn crash(&mut self) {
        self.committed.clear();
        self.write_sets.clear();
        self.tx_states.clear();
        self.locks = LockManager::new();
        self.log.crash();
    }

    /// Recovers after a crash, in one scan of the log's valid frame
    /// prefix (a torn tail is cut off the medium): replays committed
    /// writes and restores in-doubt (prepared) transactions, whose write
    /// sets are rebuilt from their log records so a later decision can
    /// apply them.
    pub fn recover(&mut self) {
        if self.profile.permanence != Permanence::Durable {
            return;
        }
        let records = self.log.recover().records;
        let analysis = analyze(&records);
        for tx in &analysis.in_doubt {
            self.tx_states.insert(*tx, TxState::Prepared);
        }
        for r in &records {
            if let LogRecord::Write {
                tx, item, after, ..
            } = r
            {
                if analysis.in_doubt.contains(tx) {
                    self.write_sets
                        .entry(*tx)
                        .or_default()
                        .insert(item.clone(), after.clone());
                }
            }
        }
        self.committed.clear();
        self.committed.extend(committed_writes(records, &analysis));
    }

    fn check_active(&self, tx: TxId) -> Result<(), RmError> {
        match self.tx_states.get(&tx) {
            Some(TxState::Active) => Ok(()),
            Some(TxState::Prepared) => Err(RmError::Prepared { tx }),
            None => Err(RmError::NotActive { tx }),
        }
    }

    fn lock(&mut self, tx: TxId, item: &str, mode: LockMode) -> Result<(), RmError> {
        match self.locks.acquire(tx, item, mode) {
            LockOutcome::Granted => Ok(()),
            LockOutcome::Wait { blockers } => Err(RmError::WouldBlock {
                tx,
                item: item.to_owned(),
                blockers,
            }),
            LockOutcome::Deadlock { cycle } => {
                self.abort(tx).ok();
                Err(RmError::Deadlock { tx, cycle })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The in-doubt transactions after a recovery.
    pub(super) fn prepared(rm: &ResourceManager) -> BTreeSet<TxId> {
        let prepared = rm
            .tx_states
            .iter()
            .filter(|(_, s)| **s == TxState::Prepared);
        prepared.map(|(t, _)| *t).collect()
    }

    fn acid() -> ResourceManager {
        ResourceManager::new("test", TxProfile::acid())
    }

    #[test]
    fn commit_makes_writes_visible() {
        let mut rm = acid();
        let tx = rm.begin();
        rm.write(tx, "x", Value::Int(1)).unwrap();
        // Not visible outside before commit.
        assert_eq!(rm.read_committed("x"), None);
        // Visible to itself.
        assert_eq!(rm.read(tx, "x").unwrap(), Some(Value::Int(1)));
        rm.commit(tx).unwrap();
        assert_eq!(rm.read_committed("x"), Some(Value::Int(1)));
    }

    #[test]
    fn abort_discards_writes_under_acid() {
        let mut rm = acid();
        let t0 = rm.begin();
        rm.write(t0, "x", Value::Int(1)).unwrap();
        rm.commit(t0).unwrap();
        let tx = rm.begin();
        rm.write(tx, "x", Value::Int(99)).unwrap();
        rm.abort(tx).unwrap();
        assert_eq!(rm.read_committed("x"), Some(Value::Int(1)));
    }

    #[test]
    fn unrecoverable_abort_leaks_effects() {
        // The generalised function's weakest recoverability: effects of
        // failed transactions are not undone.
        let profile = TxProfile {
            recoverability: Recoverability::None,
            ..TxProfile::acid()
        };
        let mut rm = ResourceManager::new("weak", profile);
        let tx = rm.begin();
        rm.write(tx, "x", Value::Int(9)).unwrap();
        rm.abort(tx).unwrap();
        assert_eq!(rm.read_committed("x"), Some(Value::Int(9)));
    }

    #[test]
    fn read_committed_blocks_on_writers() {
        let mut rm = acid();
        let w = rm.begin();
        rm.write(w, "x", Value::Int(5)).unwrap();
        let r = rm.begin();
        let err = rm.read(r, "x").unwrap_err();
        assert!(matches!(err, RmError::WouldBlock { .. }));
        rm.commit(w).unwrap();
        // Lock was granted to r on release; the retry succeeds.
        assert_eq!(rm.read(r, "x").unwrap(), Some(Value::Int(5)));
    }

    #[test]
    fn read_uncommitted_sees_dirty_data() {
        let mut rm = ResourceManager::new(
            "dirty",
            TxProfile {
                visibility: Visibility::ReadUncommitted,
                ..TxProfile::acid()
            },
        );
        let w = rm.begin();
        rm.write(w, "x", Value::Int(5)).unwrap();
        let r = rm.begin();
        assert_eq!(rm.read(r, "x").unwrap(), Some(Value::Int(5)));
        rm.abort(w).unwrap();
        // The dirty read observed a value that never committed.
        assert_eq!(rm.read_committed("x"), None);
    }

    #[test]
    fn deadlock_aborts_the_victim() {
        let mut rm = acid();
        let t1 = rm.begin();
        let t2 = rm.begin();
        rm.write(t1, "a", Value::Int(1)).unwrap();
        rm.write(t2, "b", Value::Int(2)).unwrap();
        assert!(matches!(
            rm.write(t1, "b", Value::Int(3)),
            Err(RmError::WouldBlock { .. })
        ));
        let err = rm.write(t2, "a", Value::Int(4)).unwrap_err();
        assert!(matches!(err, RmError::Deadlock { .. }));
        // The victim is gone; t1 can proceed.
        assert!(matches!(
            rm.write(t2, "a", Value::Int(4)),
            Err(RmError::NotActive { .. })
        ));
        rm.write(t1, "b", Value::Int(3)).unwrap();
        rm.commit(t1).unwrap();
    }

    #[test]
    fn prepared_transactions_refuse_new_work_and_survive_crash() {
        let mut rm = acid();
        let tx = rm.begin();
        rm.write(tx, "x", Value::Int(7)).unwrap();
        rm.prepare(tx).unwrap();
        assert!(matches!(
            rm.write(tx, "y", Value::Int(1)),
            Err(RmError::Prepared { .. })
        ));
        assert!(rm.is_prepared(tx));

        rm.crash();
        rm.recover();
        // In doubt: neither visible nor forgotten.
        assert_eq!(rm.read_committed("x"), None);
        assert_eq!(rm.tx_states.get(&tx), Some(&TxState::Prepared));
        // Coordinator decides commit: the write set was rebuilt.
        rm.commit(tx).unwrap();
        assert_eq!(rm.read_committed("x"), Some(Value::Int(7)));
    }

    #[test]
    fn durable_commits_survive_crash_volatile_do_not() {
        let mut rm = acid();
        let tx = rm.begin();
        rm.write(tx, "x", Value::Int(1)).unwrap();
        rm.commit(tx).unwrap();
        rm.crash();
        rm.recover();
        assert_eq!(rm.read_committed("x"), Some(Value::Int(1)));

        let profile = TxProfile {
            permanence: Permanence::Volatile,
            ..TxProfile::acid()
        };
        let mut weak = ResourceManager::new("v", profile);
        let tx = weak.begin();
        weak.write(tx, "x", Value::Int(1)).unwrap();
        weak.commit(tx).unwrap();
        weak.crash();
        weak.recover();
        assert_eq!(weak.read_committed("x"), None);
    }

    #[test]
    fn caller_chosen_ids_past_i64_max_survive_crash() {
        // Written as negative ints, read back as the ids they were: the
        // records after them are not cut off either.
        let mut rm = acid();
        let (high, max, after) = (TxId::new(1 << 63), TxId::new(u64::MAX), TxId::new(1));
        for (tx, item) in [(high, "x"), (max, "y"), (after, "z")] {
            rm.begin_with_id(tx);
            rm.write(tx, item, Value::Int(1)).unwrap();
            rm.prepare(tx).unwrap();
        }
        rm.commit(high).unwrap();
        rm.commit(after).unwrap();
        rm.crash();
        rm.recover();
        assert_eq!(rm.read_committed("x"), Some(Value::Int(1)));
        assert_eq!(rm.read_committed("z"), Some(Value::Int(1)));
        assert_eq!(prepared(&rm), BTreeSet::from([max]));
        rm.commit(max).unwrap();
        assert_eq!(rm.read_committed("y"), Some(Value::Int(1)));
    }

    #[test]
    fn unflushed_commit_is_lost_by_crash() {
        // Commit flushes under Durable, so force the scenario through an
        // active transaction instead: its writes must not survive.
        let mut rm = acid();
        let tx = rm.begin();
        rm.write(tx, "x", Value::Int(1)).unwrap();
        rm.crash();
        rm.recover();
        assert_eq!(rm.read_committed("x"), None);
        assert!(prepared(&rm).is_empty());
    }

    #[test]
    fn operations_on_unknown_tx_fail() {
        let mut rm = acid();
        let ghost = TxId::new(99);
        assert!(matches!(
            rm.read(ghost, "x"),
            Err(RmError::NotActive { .. })
        ));
        assert!(matches!(
            rm.write(ghost, "x", Value::Null),
            Err(RmError::NotActive { .. })
        ));
        assert!(matches!(rm.commit(ghost), Err(RmError::NotActive { .. })));
        assert!(matches!(rm.abort(ghost), Err(RmError::NotActive { .. })));
        assert!(matches!(rm.prepare(ghost), Err(RmError::NotActive { .. })));
    }
}

/// Crash-at-every-prefix for the resource manager: truncate the log's
/// medium at *each byte* and check that recovery yields exactly the
/// committed prefix and exactly the in-doubt transactions of that prefix.
///
/// The resource manager recovers through the same frames, scan and
/// classification as the store engine (`rmodp-store`'s `crash_prefix`
/// test is this property's twin), so a torn or damaged tail is dropped,
/// never misread, here too.
#[cfg(test)]
mod crash_prefix {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::tests::prepared;
    use super::{ResourceManager, TxProfile};
    use crate::log::{decode_frames, encode_frame, LogRecord, StableMedia};
    use rmodp_core::id::TxId;
    use rmodp_core::value::Value;

    const ITEMS: u8 = 4;

    /// One step of a history. `slot` picks among the transactions begun so
    /// far; a step the manager refuses (finished or prepared transaction,
    /// lock wait, deadlock) is simply part of the history.
    #[derive(Debug, Clone)]
    enum Step {
        Begin,
        Write { slot: u8, item: u8, value: i64 },
        Prepare { slot: u8 },
        Commit { slot: u8 },
        Abort { slot: u8 },
    }

    fn write(slot: u8, item: u8, value: i64) -> Step {
        Step::Write { slot, item, value }
    }

    fn arb_history() -> impl Strategy<Value = Vec<Step>> {
        let arb_write = || (0u8..8, 0u8..ITEMS, -100i64..100).prop_map(|(s, i, v)| write(s, i, v));
        proptest::collection::vec(
            prop_oneof![
                Just(Step::Begin),
                // Twice: a history is mostly writes.
                arb_write(),
                arb_write(),
                (0u8..8).prop_map(|slot| Step::Prepare { slot }),
                (0u8..8).prop_map(|slot| Step::Commit { slot }),
                (0u8..8).prop_map(|slot| Step::Abort { slot }),
            ],
            1..40,
        )
    }

    fn item(i: u8) -> String {
        format!("i{i}")
    }

    fn run(history: &[Step]) -> ResourceManager {
        let mut rm = ResourceManager::new("crash", TxProfile::acid());
        let mut begun: Vec<TxId> = Vec::new();
        let pick =
            |begun: &[TxId], slot: u8| begun.get(slot as usize % begun.len().max(1)).copied();
        for step in history {
            match *step {
                Step::Begin => begun.push(rm.begin()),
                Step::Write {
                    slot,
                    item: i,
                    value,
                } => {
                    if let Some(tx) = pick(&begun, slot) {
                        let _ = rm.write(tx, &item(i), Value::Int(value));
                    }
                }
                Step::Prepare { slot } => {
                    if let Some(tx) = pick(&begun, slot) {
                        let _ = rm.prepare(tx);
                    }
                }
                Step::Commit { slot } => {
                    if let Some(tx) = pick(&begun, slot) {
                        let _ = rm.commit(tx);
                    }
                }
                Step::Abort { slot } => {
                    if let Some(tx) = pick(&begun, slot) {
                        let _ = rm.abort(tx);
                    }
                }
            }
        }
        rm
    }

    /// What a log prefix promises, worked out the slow way and without the
    /// crate's own classification: the committed state, and each unresolved
    /// prepared transaction with the writes a later commit must apply.
    type Expected = (
        BTreeMap<String, Value>,
        BTreeMap<TxId, Vec<(String, Value)>>,
    );

    fn expected(prefix: &[LogRecord]) -> Expected {
        let has = |wanted: &LogRecord| prefix.contains(wanted);
        let mut state = BTreeMap::new();
        let mut in_doubt: BTreeMap<TxId, Vec<(String, Value)>> = BTreeMap::new();
        let txs: BTreeSet<TxId> = prefix.iter().map(LogRecord::tx).collect();
        for tx in txs {
            let resolved = has(&LogRecord::Commit { tx }) || has(&LogRecord::Abort { tx });
            if has(&LogRecord::Prepare { tx }) && !resolved {
                in_doubt.insert(tx, Vec::new());
            }
        }
        for record in prefix {
            if let LogRecord::Write {
                tx, item, after, ..
            } = record
            {
                if has(&LogRecord::Commit { tx: *tx }) {
                    state.insert(item.clone(), after.clone());
                }
                if let Some(writes) = in_doubt.get_mut(tx) {
                    writes.push((item.clone(), after.clone()));
                }
            }
        }
        (state, in_doubt)
    }

    fn assert_every_prefix_recovers(history: &[Step]) {
        let mut rm = run(history);
        rm.log.media_mut().sync();
        let full = rm.log.media_mut().clone();
        let decoded = decode_frames(full.wal_bytes());
        assert!(!decoded.truncated_tail, "the manager writes whole frames");
        let mut boundaries = vec![0usize];
        for record in &decoded.records {
            boundaries.push(boundaries.last().unwrap() + encode_frame(record).len());
        }
        let total = full.wal_len();
        assert_eq!(*boundaries.last().unwrap(), total);

        for cut in 0..=total {
            let media = rm.log.media_mut();
            *media = full.clone();
            media.truncate_wal(cut);
            rm.crash();
            rm.recover();

            let whole_frames = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            let (state, in_doubt) = expected(&decoded.records[..whole_frames]);
            for i in 0..ITEMS {
                assert_eq!(
                    rm.read_committed(&item(i)),
                    state.get(&item(i)).cloned(),
                    "cut at byte {cut}/{total}: {} must hold the committed prefix",
                    item(i)
                );
            }
            assert_eq!(
                prepared(&rm),
                in_doubt.keys().copied().collect(),
                "cut at byte {cut}/{total}: in-doubt set"
            );
            // The decision arrives: an in-doubt transaction's writes were
            // rebuilt from the log and commit now.
            if let Some((tx, writes)) = in_doubt.first_key_value() {
                rm.commit(*tx).unwrap();
                let mut after = state.clone();
                after.extend(writes.iter().cloned());
                for i in 0..ITEMS {
                    assert_eq!(
                        rm.read_committed(&item(i)),
                        after.get(&item(i)).cloned(),
                        "cut at byte {cut}/{total}: {tx} committed after recovery"
                    );
                }
            }
            // Whatever the cut tore, what commits after recovery survives the
            // next crash: the torn tail was cut off the medium, so the new
            // frames sit behind whole frames and the next scan reaches them.
            let tx = rm.begin();
            rm.write(tx, "after-crash", Value::Int(cut as i64)).unwrap();
            rm.commit(tx).unwrap();
            rm.crash();
            rm.recover();
            assert_eq!(
                rm.read_committed("after-crash"),
                Some(Value::Int(cut as i64)),
                "cut at byte {cut}/{total}: a commit after recovery must survive the next crash"
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
        // Deterministic exhaustive case: a committed overwrite, an abort, a
        // prepared transaction left in doubt, one prepared then committed,
        // and an active one that never resolves.
        use Step::{Abort, Begin, Commit, Prepare};
        let history = vec![
            Begin, // slot 0
            write(0, 0, 1),
            write(0, 1, 2),
            Commit { slot: 0 },
            Begin, // slot 1
            write(1, 0, 10),
            Abort { slot: 1 },
            Begin, // slot 2
            write(2, 2, 3),
            Prepare { slot: 2 },
            Begin, // slot 3
            write(3, 0, -5),
            Prepare { slot: 3 },
            Commit { slot: 3 },
            Begin, // slot 4
            write(4, 3, 4),
        ];
        assert_every_prefix_recovers(&history);
    }
}
