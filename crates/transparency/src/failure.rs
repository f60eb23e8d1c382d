//! Failure transparency: masking the failure and recovery of objects.
//!
//! A [`FailureGuard`] watches over one cluster. What it knows about the
//! cluster lives in a [`PersistentStore`] — any one, the guard does not
//! care which:
//!
//! 1. a **checkpoint** ([`FailureGuard::checkpoint_now`]) under
//!    `guard/<label>/checkpoint`, stored through
//!    [`checkpoints`];
//! 2. optionally, a write-ahead **operation log**
//!    ([`FailureGuard::log_op`]) under `guard/<label>/op/<seq>`:
//!    every state-changing operation, logged *before* it is issued.
//!    Sequence numbers are zero-padded, so the store's sorted key order
//!    is the execution order. A checkpoint prunes the ops it covers in
//!    the same atomic step.
//!
//! When the cluster's home node crashes, [`FailureGuard::recover`]
//! reactivates the stored checkpoint on the first live backup,
//! republishes locations — so clients (whose proxies already mask
//! relocation) simply keep calling — and replays the logged tail through
//! ordinary channels.
//!
//! How much a failure costs is therefore the caller's choice of store and
//! discipline, not of guard type. A caller that never logs rolls back to
//! the checkpoint: failure transparency "masks the failure and possible
//! recovery of objects, to enhance fault tolerance", it does not promise
//! exactly-once effects. That loss is *measured*: the crashed node's
//! structures survive in the simulation, so recovery diffs the cluster's
//! actual final state against the checkpoint it restores and reports
//! every divergent object on the `failure.lost_updates` counter. A caller
//! that logs every operation into a
//! [`StoreEngine`](rmodp_store::StoreEngine) loses nothing committed,
//! even if the store's medium crashes too, and the counter records zero.
//! The diff is taken only when nothing is replayed: a write-ahead log may
//! rightly be *ahead* of the crashed home (the interrupted operation was
//! logged, never executed), and redone work is not lost work.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use rmodp_core::codec::{syntax_for, SyntaxId};
use rmodp_core::id::{CapsuleId, ClusterId, InterfaceId, NodeId, ObjectId};
use rmodp_core::value::Value;
use rmodp_engineering::channel::ChannelConfig;
use rmodp_engineering::engine::{CallError, EngError, Engine};
use rmodp_engineering::structure::ClusterCheckpoint;
use rmodp_functions::checkpoints::{self, LoadError};
use rmodp_functions::relocator::Relocator;
use rmodp_observe::{bus, event, EventKind, Layer};
use rmodp_store::PersistentStore;

/// A failure-handling error.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureError {
    /// Engineering failure.
    Eng(EngError),
    /// A replayed operation failed.
    Call(CallError),
    /// The stored checkpoint is missing (none was ever taken), or it or
    /// a logged operation does not decode.
    Load(LoadError),
    /// The home node is still alive; nothing to recover from.
    NotFailed,
    /// Every backup in the pool is dead (or the pool is empty).
    NoBackup,
}

impl fmt::Display for FailureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureError::Eng(e) => write!(f, "{e}"),
            FailureError::Call(e) => write!(f, "replay failed: {e}"),
            FailureError::Load(e) => write!(f, "{e}"),
            FailureError::NotFailed => write!(f, "home node has not failed"),
            FailureError::NoBackup => write!(f, "no live backup remains in the pool"),
        }
    }
}

impl std::error::Error for FailureError {}

impl From<EngError> for FailureError {
    fn from(e: EngError) -> Self {
        FailureError::Eng(e)
    }
}

impl From<CallError> for FailureError {
    fn from(e: CallError) -> Self {
        FailureError::Call(e)
    }
}

impl From<LoadError> for FailureError {
    fn from(e: LoadError) -> Self {
        FailureError::Load(e)
    }
}

/// Guards one cluster with stored checkpoints, an optional write-ahead
/// operation log and backup-node recovery.
///
/// Failover is **automatic**: the guard holds a pool of backup
/// locations ([`push_backup`](Self::push_backup)) and
/// [`recover`](Self::recover) selects the first *live* one
/// deterministically (pool order, dead entries skipped), so successive
/// failures need no manual re-designation.
#[derive(Debug)]
pub struct FailureGuard {
    label: String,
    home: (NodeId, CapsuleId, ClusterId),
    backups: VecDeque<(NodeId, CapsuleId)>,
    interfaces: Vec<InterfaceId>,
    /// Sequence number of the next logged op (reset by checkpoints);
    /// `None` until the guard has asked the store what it already holds.
    next_op: Option<u64>,
    recoveries: u64,
    replayed: u64,
    lost_updates: u64,
}

/// One entry of the operation log, decoded.
struct LoggedOp {
    interface: InterfaceId,
    op: String,
    args: Value,
}

/// The liveness test; a node the engine does not know is not alive.
fn alive(engine: &Engine, node: NodeId) -> bool {
    let up = |idx| !engine.sim().topology().is_crashed(idx);
    engine.sim_node(node).is_ok_and(up)
}

/// Counts the objects whose state diverges between the checkpoint being
/// restored and the cluster's actual final state (objects missing from
/// either side count too).
fn divergent_objects(restored: &ClusterCheckpoint, actual: &ClusterCheckpoint) -> u64 {
    fn states(cp: &ClusterCheckpoint) -> BTreeMap<ObjectId, &Value> {
        let objects = cp.objects.iter();
        objects.map(|o| (o.record.object, &o.state)).collect()
    }
    let (restored, actual) = (states(restored), states(actual));
    let ids: BTreeSet<_> = restored.keys().chain(actual.keys()).collect();
    let differs = |id: &&ObjectId| restored.get(*id) != actual.get(*id);
    ids.into_iter().filter(differs).count() as u64
}

impl FailureGuard {
    /// Creates a guard for a cluster; `label` namespaces its keys in the
    /// store and `backup` seeds the backup pool (extend it with
    /// [`push_backup`](Self::push_backup)).
    pub fn new(
        label: impl Into<String>,
        home: (NodeId, CapsuleId, ClusterId),
        backup: (NodeId, CapsuleId),
        interfaces: Vec<InterfaceId>,
    ) -> Self {
        Self {
            label: label.into(),
            home,
            backups: VecDeque::from([backup]),
            interfaces,
            next_op: None,
            recoveries: 0,
            replayed: 0,
            lost_updates: 0,
        }
    }

    /// Appends a backup location to the pool (failover targets are
    /// taken in pool order, skipping dead nodes).
    pub fn push_backup(&mut self, backup: (NodeId, CapsuleId)) {
        self.backups.push_back(backup);
    }

    /// The cluster's current home.
    pub fn home(&self) -> (NodeId, CapsuleId, ClusterId) {
        self.home
    }

    /// How many recoveries this guard has performed.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Operations replayed across all recoveries.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Ops logged since the last checkpoint, as far as this guard has
    /// looked: one rebuilt over a store that holds a log reads it at its
    /// first [`log_op`](Self::log_op).
    pub fn pending_ops(&self) -> u64 {
        self.next_op.unwrap_or(0)
    }

    /// Objects whose post-checkpoint updates recovery has dropped so
    /// far (the loss window of a guard that logs nothing, measured).
    pub fn lost_updates(&self) -> u64 {
        self.lost_updates
    }

    /// Whether the home node is currently crashed.
    fn home_failed(&self, engine: &Engine) -> bool {
        !alive(engine, self.home.0)
    }

    fn checkpoint_key(&self) -> String {
        format!("guard/{}/checkpoint", self.label)
    }

    fn op_prefix(&self) -> String {
        format!("guard/{}/op/", self.label)
    }

    /// Logs one state-changing operation write-ahead. Call this *before*
    /// issuing the operation; a durable store syncs the entry before
    /// returning, so a crash at any later instant finds it in the log.
    /// The first op of a guard's life is numbered after the highest the
    /// store already holds under the guard's label, so a guard rebuilt
    /// after a restart appends to the log it finds.
    pub fn log_op<S: PersistentStore>(
        &mut self,
        store: &mut S,
        interface: InterfaceId,
        op: &str,
        args: &Value,
    ) {
        let entry = Value::record([
            ("interface", Value::Int(interface.raw() as i64)),
            ("op", Value::text(op)),
            ("args", args.clone()),
        ]);
        let prefix = self.op_prefix();
        let seq = self.next_op.unwrap_or_else(|| {
            let stored = store.stored_keys();
            let numbers = stored.iter().filter_map(|key| key.strip_prefix(&prefix));
            let highest = numbers.filter_map(|n| n.parse::<u64>().ok()).max();
            highest.map_or(0, |n| n + 1)
        });
        self.next_op = Some(seq + 1);
        let key = format!("{prefix}{seq:08}");
        store.persist(&key, syntax_for(SyntaxId::Binary).encode(&entry));
    }

    /// Decodes the whole logged tail, in sequence order (sorted keys).
    fn logged_tail<S: PersistentStore>(&self, store: &S) -> Result<Vec<LoggedOp>, LoadError> {
        let prefix = self.op_prefix();
        let mut tail = Vec::new();
        for key in store.stored_keys() {
            if !key.starts_with(&prefix) {
                continue;
            }
            let corrupt = |detail: String| LoadError::Corrupt {
                key: key.clone(),
                detail,
            };
            let bytes = store.fetch(&key).expect("listed key is fetchable");
            let entry = syntax_for(SyntaxId::Binary)
                .decode(&bytes)
                .map_err(|e| corrupt(e.to_string()))?;
            let missing = |what: &str| corrupt(format!("op without {what}"));
            let interface = entry.field("interface").and_then(Value::as_int);
            let op = entry.field("op").and_then(Value::as_text);
            tail.push(LoggedOp {
                interface: InterfaceId::new(interface.ok_or_else(|| missing("interface"))? as u64),
                op: op.ok_or_else(|| missing("name"))?.to_owned(),
                args: entry
                    .field("args")
                    .cloned()
                    .ok_or_else(|| missing("args"))?,
            });
        }
        Ok(tail)
    }

    /// Checkpoints the guarded cluster into the store and prunes the op
    /// log it covers, as one [`atomically`](PersistentStore::atomically)
    /// committed step: after a store crash, recovery finds either the
    /// old checkpoint with every op since, or the new one with none.
    /// Call periodically; the recovery point is the last successful call.
    ///
    /// # Errors
    ///
    /// Engineering failures (e.g. the home already crashed — then the
    /// previous checkpoint and ops remain the recovery point).
    pub fn checkpoint_now<S: PersistentStore>(
        &mut self,
        engine: &mut Engine,
        store: &mut S,
    ) -> Result<(), FailureError> {
        let (node, capsule, cluster) = self.home;
        let cp = engine.checkpoint_cluster(node, capsule, cluster)?;
        let (cp_key, prefix) = (self.checkpoint_key(), self.op_prefix());
        // One atomic step: a store crash that kept the new checkpoint
        // but not the prune would replay ops the checkpoint contains.
        store.atomically(|store| {
            checkpoints::store(store, &cp_key, &cp);
            for key in store.stored_keys() {
                if key.starts_with(&prefix) {
                    store.remove(&key);
                }
            }
        });
        self.next_op = Some(0);
        Ok(())
    }

    /// Recovers the cluster onto the first live backup in the pool
    /// (deterministic selection — no manual designation needed):
    /// reactivate the stored checkpoint, republish interface locations,
    /// replay the logged tail in order, then fold the result into a
    /// fresh checkpoint so the op log starts empty. The guard's home
    /// becomes that backup. What `failure.lost_updates` records is
    /// described in the [module documentation](self).
    ///
    /// # Errors
    ///
    /// [`FailureError::NotFailed`] when the home is alive,
    /// [`FailureError::Load`] without a stored checkpoint or with a
    /// corrupt store entry, [`FailureError::NoBackup`] when the pool has
    /// no live entry, or engineering/replay failures. Everything the
    /// store holds is decoded before anything is changed, and a failed
    /// attempt leaves the pool, the home and the store as they were.
    pub fn recover<S: PersistentStore>(
        &mut self,
        engine: &mut Engine,
        relocator: &mut Relocator,
        store: &mut S,
    ) -> Result<ClusterId, FailureError> {
        if !self.home_failed(engine) {
            return Err(FailureError::NotFailed);
        }
        let cp = checkpoints::load(store, &self.checkpoint_key())?;
        let tail = self.logged_tail(store)?;
        let live = |(node, _): &(NodeId, CapsuleId)| alive(engine, *node);
        // Dead entries are skipped but kept, since their nodes may heal;
        // the chosen one leaves the pool only once recovery has succeeded.
        let slot = self.backups.iter().position(live);
        let slot = slot.ok_or(FailureError::NoBackup)?;
        let (backup_node, backup_capsule) = self.backups[slot];
        let home = self.home;
        // Post-mortem: the crashed node's structures survive in the
        // simulation, so the loss window is measurable — how many
        // objects moved past the checkpoint we are about to restore?
        let lost = if tail.is_empty() {
            let actual = engine.checkpoint_cluster(home.0, home.1, home.2);
            actual.map_or(0, |actual| divergent_objects(&cp, &actual))
        } else {
            0
        };
        let span = bus::new_span();
        event(Layer::Transparency, EventKind::RecoveryStart)
            .span(span)
            .parent_from_context()
            .capsule(backup_capsule.raw())
            .detail_fmt(format_args!(
                "cluster={} {} -> {backup_node} logged_ops={}",
                home.2,
                home.0,
                tail.len()
            ))
            .emit();
        bus::push_context(span);
        let raised = self.raise(engine, relocator, &cp, &tail, (backup_node, backup_capsule));
        bus::pop_context();
        let new_cluster = raised?;
        let replayed = tail.len() as u64;
        self.backups.remove(slot);
        self.home = (backup_node, backup_capsule, new_cluster);
        self.recoveries += 1;
        self.replayed += replayed;
        self.lost_updates += lost;
        bus::counter_add("failure.lost_updates", lost);
        bus::counter_add("transparency.recoveries", 1);
        bus::counter_add("transparency.replayed_ops", replayed);
        event(Layer::Transparency, EventKind::RecoveryEnd)
            .span(span)
            .capsule(backup_capsule.raw())
            .detail_fmt(format_args!(
                "cluster={new_cluster} recovery #{} replayed={replayed} lost={lost}",
                self.recoveries
            ))
            .emit();
        self.checkpoint_now(engine, store)?;
        Ok(new_cluster)
    }

    /// Raises the cluster at a backup: reactivate, republish, replay. A
    /// copy whose replay fails is taken down again, so a second attempt
    /// does not raise a second one beside it.
    fn raise(
        &self,
        engine: &mut Engine,
        relocator: &mut Relocator,
        cp: &ClusterCheckpoint,
        tail: &[LoggedOp],
        (node, capsule): (NodeId, CapsuleId),
    ) -> Result<ClusterId, FailureError> {
        let new_cluster = engine.reactivate_cluster(node, capsule, cp)?;
        let replay = (|| {
            checkpoints::republish(engine, relocator, &self.interfaces)?;
            let mut channels = BTreeMap::new();
            for logged in tail {
                let channel = match channels.get(&logged.interface) {
                    Some(ch) => *ch,
                    None => {
                        let config = ChannelConfig::default();
                        let ch = engine.open_channel(node, logged.interface, config)?;
                        channels.insert(logged.interface, ch);
                        ch
                    }
                };
                engine.call(channel, &logged.op, &logged.args)?;
            }
            Ok(new_cluster)
        })();
        if replay.is_err() {
            let _ = engine.deactivate_cluster(node, capsule, new_cluster);
        }
        replay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::{OdpInfra, TransparentProxy};
    use crate::selection::{Transparency, TransparencySet};
    use rmodp_engineering::behaviour::CounterBehaviour;
    use rmodp_store::{MemMedia, StableMedia, StoreConfig, StoreEngine};

    struct World {
        engine: Engine,
        infra: OdpInfra,
        guard: FailureGuard,
        proxy: TransparentProxy,
        backup: (NodeId, CapsuleId),
        interface: InterfaceId,
    }

    fn world() -> World {
        let mut engine = Engine::new(31);
        engine
            .behaviours_mut()
            .register("counter", CounterBehaviour::default);
        let home = engine.add_node(SyntaxId::Binary);
        let backup = engine.add_node(SyntaxId::Binary);
        let client = engine.add_node(SyntaxId::Binary);
        let home_capsule = engine.add_capsule(home).unwrap();
        let backup_capsule = engine.add_capsule(backup).unwrap();
        let cluster = engine.add_cluster(home, home_capsule).unwrap();
        let (_, refs) = engine
            .create_object(
                home,
                home_capsule,
                cluster,
                "c",
                "counter",
                CounterBehaviour::initial_state(),
                1,
            )
            .unwrap();
        let interface = refs[0].interface;
        let mut infra = OdpInfra::new();
        infra.publish(&engine, interface).unwrap();
        let guard = FailureGuard::new(
            "acct",
            (home, home_capsule, cluster),
            (backup, backup_capsule),
            vec![interface],
        );
        let relocation = TransparencySet::none().with(Transparency::Relocation);
        World {
            engine,
            infra,
            guard,
            proxy: TransparentProxy::new(client, interface, relocation),
            backup: (backup, backup_capsule),
            interface,
        }
    }

    fn durable_store() -> StoreEngine<MemMedia> {
        StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap()
    }

    fn add(k: i64) -> Value {
        Value::record([("k", Value::Int(k))])
    }

    impl World {
        fn add(&mut self, k: i64) {
            self.proxy
                .call(&mut self.engine, &mut self.infra, "Add", &add(k))
                .unwrap();
        }

        /// A logged call: write-ahead into the store, then issue.
        fn logged_add(&mut self, store: &mut impl PersistentStore, k: i64) {
            self.guard.log_op(store, self.interface, "Add", &add(k));
            self.add(k);
        }

        fn get(&mut self) -> Option<i64> {
            let none = Value::record::<&str, _>([]);
            let t = self
                .proxy
                .call(&mut self.engine, &mut self.infra, "Get", &none)
                .unwrap();
            t.results.field("n").and_then(Value::as_int)
        }

        fn crash(&mut self, node: NodeId) {
            let idx = self.engine.sim_node(node).unwrap();
            self.engine.sim_mut().topology_mut().crash(idx);
        }

        fn crash_home(&mut self) {
            self.crash(self.guard.home().0);
            assert!(self.guard.home_failed(&self.engine));
        }

        fn recover(&mut self, store: &mut impl PersistentStore) -> Result<ClusterId, FailureError> {
            self.guard
                .recover(&mut self.engine, &mut self.infra.relocator, store)
        }
    }

    #[test]
    fn crash_then_recover_masks_failure_up_to_the_checkpoint() {
        let mut w = world();
        let mut store = rmodp_functions::StorageFunction::default();
        w.add(10);
        w.guard.checkpoint_now(&mut w.engine, &mut store).unwrap();
        // Post-checkpoint work that will be lost by the failure.
        w.add(5);

        w.crash_home();
        w.recover(&mut store).unwrap();
        assert_eq!(w.guard.recoveries(), 1);
        assert_eq!(w.guard.replayed(), 0);
        // The post-checkpoint Add(5) is the measured loss window.
        assert_eq!(w.guard.lost_updates(), 1);
        assert_eq!(bus::counter("failure.lost_updates"), 1);

        // The client's next call is transparently routed to the recovered
        // replica; state is the checkpointed 10, not 15.
        assert_eq!(w.get(), Some(10));
    }

    #[test]
    fn recovery_replays_the_tail_and_loses_nothing() {
        let mut w = world();
        let mut store = durable_store();
        w.logged_add(&mut store, 10);
        w.guard.checkpoint_now(&mut w.engine, &mut store).unwrap();
        // Post-checkpoint work — the window an unlogged caller loses.
        w.logged_add(&mut store, 5);
        w.logged_add(&mut store, 7);
        assert_eq!(w.guard.pending_ops(), 2);

        w.crash_home();
        w.recover(&mut store).unwrap();
        assert_eq!(w.guard.recoveries(), 1);
        assert_eq!(w.guard.replayed(), 2);
        assert_eq!(w.guard.lost_updates(), 0);
        assert_eq!(bus::counter("failure.lost_updates"), 0);
        assert_eq!(w.guard.pending_ops(), 0, "recovery folded the tail");
        assert_eq!(w.get(), Some(22), "10 + 5 + 7: nothing lost");
    }

    #[test]
    fn op_log_survives_a_store_crash() {
        let mut w = world();
        let mut store = durable_store();
        w.logged_add(&mut store, 3);
        w.guard.checkpoint_now(&mut w.engine, &mut store).unwrap();
        w.logged_add(&mut store, 4);
        // The store's medium crashes too: every logged op was synced
        // write-ahead, so the tail survives in the WAL.
        let mut media = store.into_media();
        media.crash();
        let mut store = StoreEngine::open(media, StoreConfig::default()).unwrap();

        w.crash_home();
        w.recover(&mut store).unwrap();
        assert_eq!(w.get(), Some(7));
    }

    /// The measured defect: a damaged op entry used to be found only
    /// after the checkpoint had been reactivated and republished and the
    /// backup had left the pool, so the error left a half-recovered copy
    /// behind and a retry raised a second one.
    #[test]
    fn a_damaged_log_is_refused_before_anything_is_changed() {
        let mut w = world();
        let mut store = durable_store();
        w.guard.checkpoint_now(&mut w.engine, &mut store).unwrap();
        w.logged_add(&mut store, 5);
        w.logged_add(&mut store, 7);
        w.crash_home();
        let old_home = w.guard.home();

        let untouched = |w: &World, why: &str| {
            assert_eq!(w.guard.home(), old_home, "{why}");
            assert_eq!(
                w.guard.backups.iter().copied().collect::<Vec<_>>(),
                [w.backup],
                "{why}"
            );
            assert_eq!(w.guard.recoveries(), 0, "{why}");
            assert_eq!(
                w.engine.nucleus(w.backup.0).unwrap().structure.census(),
                (1, 0, 0),
                "{why}"
            );
            let published = w.infra.relocator.lookup(w.interface).unwrap();
            assert_eq!(published.location.node, old_home.0, "{why}");
        };

        // One flipped byte in the second op entry.
        let key = "guard/acct/op/00000001";
        let good = store.fetch(key).unwrap();
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        store.persist(key, bad);
        assert!(matches!(
            w.recover(&mut store),
            Err(FailureError::Load(LoadError::Corrupt { key: k, .. })) if k == key
        ));
        untouched(&w, "corrupt op entry");

        // A well-formed entry whose replay fails: the half-raised copy
        // is taken down again and the backup stays in the pool.
        store.persist(key, good);
        let ghost = InterfaceId::new(9_999);
        w.guard.log_op(&mut store, ghost, "Add", &add(1));
        assert!(matches!(w.recover(&mut store), Err(FailureError::Eng(_))));
        assert_eq!(w.guard.home(), old_home);
        assert_eq!(
            w.guard.backups.iter().copied().collect::<Vec<_>>(),
            [w.backup]
        );
        assert_eq!(
            w.engine.nucleus(w.backup.0).unwrap().structure.census(),
            (1, 0, 0)
        );

        // Repaired, the same recovery goes through.
        assert!(store.remove("guard/acct/op/00000002"));
        w.recover(&mut store).unwrap();
        assert_eq!(w.guard.home().0, w.backup.0);
        assert_eq!(w.guard.replayed(), 2);
        assert_eq!(
            w.engine.nucleus(w.backup.0).unwrap().structure.census(),
            (1, 1, 1)
        );
        assert_eq!(w.get(), Some(12));
    }

    #[test]
    fn recover_requires_failure_and_a_checkpoint() {
        let mut w = world();
        let mut store = durable_store();
        assert!(matches!(
            w.recover(&mut store),
            Err(FailureError::NotFailed)
        ));
        w.crash_home();
        assert!(matches!(
            w.recover(&mut store),
            Err(FailureError::Load(LoadError::NotStored { .. }))
        ));
    }

    #[test]
    fn guard_survives_successive_failures_with_new_backups() {
        let mut w = world();
        let mut store = rmodp_functions::StorageFunction::default();
        w.add(1);
        w.guard.checkpoint_now(&mut w.engine, &mut store).unwrap();

        for round in 0..2 {
            w.crash_home();
            w.recover(&mut store).unwrap();
            assert_eq!(w.get(), Some(1), "round {round}");
            // Extend the pool; recovery already refreshed the recovery
            // point, so the next failover picks the new entry
            // automatically.
            let next = w.engine.add_node(SyntaxId::Binary);
            let next_capsule = w.engine.add_capsule(next).unwrap();
            w.guard.push_backup((next, next_capsule));
        }
        assert_eq!(w.guard.recoveries(), 2);
    }

    #[test]
    fn recovery_skips_dead_backups_deterministically() {
        let mut w = world();
        let mut store = rmodp_functions::StorageFunction::default();
        w.guard.checkpoint_now(&mut w.engine, &mut store).unwrap();
        // Queue a second backup behind the seeded one, then kill the
        // seeded one: recovery must skip it and land on the second.
        let second = w.engine.add_node(SyntaxId::Binary);
        let second_capsule = w.engine.add_capsule(second).unwrap();
        w.guard.push_backup((second, second_capsule));
        w.crash(w.backup.0);
        w.crash_home();
        w.recover(&mut store).unwrap();
        assert_eq!(w.guard.home().0, second);
        // The dead entry stays queued (its node may heal)…
        assert_eq!(w.guard.backups.len(), 1);
        // …and with the pool otherwise dead, recovery reports NoBackup.
        w.crash(second);
        assert!(matches!(w.recover(&mut store), Err(FailureError::NoBackup)));
    }
}
