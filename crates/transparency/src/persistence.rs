//! Persistence transparency: masking deactivation and reactivation.
//!
//! Cluster checkpoints are serialised through a [`PersistentStore`]; a
//! [`PersistenceManager`] remembers where each persistent cluster lives so
//! it can be deactivated to storage and restored on demand — including
//! transparently, when a proxy finds the target gone.
//!
//! The manager is generic over the store: the in-memory
//! [`StorageFunction`](rmodp_functions::storage::StorageFunction) gives
//! the classic behaviour (checkpoints live as long as the process), and
//! [`StoreEngine`](rmodp_store::StoreEngine) write-ahead-logs every
//! checkpoint so deactivated state survives a capsule kill and restart.

use std::collections::BTreeMap;
use std::fmt;

use rmodp_core::id::{CapsuleId, ClusterId, InterfaceId, NodeId};
use rmodp_engineering::engine::{EngError, Engine};
use rmodp_functions::checkpoints::{self, LoadError};
use rmodp_store::PersistentStore;

/// A persistence failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistenceError {
    /// Engineering failure during deactivate/reactivate.
    Eng(EngError),
    /// The label was never deactivated, or its checkpoint is missing
    /// from the store or does not decode.
    Load(LoadError),
}

impl fmt::Display for PersistenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistenceError::Eng(e) => write!(f, "{e}"),
            PersistenceError::Load(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PersistenceError {}

impl From<EngError> for PersistenceError {
    fn from(e: EngError) -> Self {
        PersistenceError::Eng(e)
    }
}

impl From<LoadError> for PersistenceError {
    fn from(e: LoadError) -> Self {
        PersistenceError::Load(e)
    }
}

fn storage_key(label: &str) -> String {
    format!("persistent/{label}")
}

/// Manages persistent clusters: deactivation to the storage function and
/// (transparent) reactivation from it.
#[derive(Debug, Default)]
pub struct PersistenceManager {
    /// Where each persistent cluster is restored.
    homes: BTreeMap<String, (NodeId, CapsuleId)>,
    /// Which persistent cluster each interface belongs to (so a proxy can
    /// restore by interface).
    interface_index: BTreeMap<InterfaceId, String>,
}

impl PersistenceManager {
    /// Deactivates a cluster to storage under a label, remembering its
    /// home so it can be restored there.
    ///
    /// # Errors
    ///
    /// Engineering failures.
    pub fn deactivate_to_storage<S: PersistentStore>(
        &mut self,
        engine: &mut Engine,
        storage: &mut S,
        label: &str,
        node: NodeId,
        capsule: CapsuleId,
        cluster: ClusterId,
    ) -> Result<(), PersistenceError> {
        let cp = engine.deactivate_cluster(node, capsule, cluster)?;
        checkpoints::store(storage, &storage_key(label), &cp);
        self.homes.insert(label.to_owned(), (node, capsule));
        for o in &cp.objects {
            for ifc in &o.record.interfaces {
                self.interface_index.insert(*ifc, label.to_owned());
            }
        }
        rmodp_observe::event(
            rmodp_observe::Layer::Transparency,
            rmodp_observe::EventKind::Persist,
        )
        .in_context()
        .capsule(capsule.raw())
        .detail_fmt(format_args!(
            "stored label={label} objects={}",
            cp.objects.len()
        ))
        .emit();
        rmodp_observe::bus::counter_add("transparency.persists", 1);
        Ok(())
    }

    /// Restores a cluster from storage at its remembered home; returns the
    /// fresh cluster id.
    ///
    /// # Errors
    ///
    /// Missing/corrupt checkpoints or engineering failures.
    pub fn restore<S: PersistentStore>(
        &mut self,
        engine: &mut Engine,
        storage: &S,
        label: &str,
    ) -> Result<ClusterId, PersistenceError> {
        let key = storage_key(label);
        let home = self.homes.get(label).copied();
        let (node, capsule) = home.ok_or(LoadError::NotStored { key: key.clone() })?;
        let cp = checkpoints::load(storage, &key)?;
        rmodp_observe::event(
            rmodp_observe::Layer::Transparency,
            rmodp_observe::EventKind::Persist,
        )
        .in_context()
        .capsule(capsule.raw())
        .detail_fmt(format_args!(
            "restored label={label} objects={}",
            cp.objects.len()
        ))
        .emit();
        rmodp_observe::bus::counter_add("transparency.restores", 1);
        Ok(engine.reactivate_cluster(node, capsule, &cp)?)
    }

    /// The persistent label covering an interface, if any.
    pub fn label_for(&self, interface: InterfaceId) -> Option<&str> {
        self.interface_index.get(&interface).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_core::codec::SyntaxId;
    use rmodp_core::value::Value;
    use rmodp_engineering::behaviour::CounterBehaviour;
    use rmodp_engineering::channel::ChannelConfig;
    use rmodp_functions::storage::StorageFunction;
    use rmodp_store::{MemMedia, StableMedia, StoreConfig, StoreEngine};

    #[test]
    fn deactivate_then_restore_preserves_state() {
        let mut engine = Engine::new(11);
        engine
            .behaviours_mut()
            .register("counter", CounterBehaviour::default);
        let node = engine.add_node(SyntaxId::Binary);
        let client = engine.add_node(SyntaxId::Binary);
        let capsule = engine.add_capsule(node).unwrap();
        let cluster = engine.add_cluster(node, capsule).unwrap();
        let (_, refs) = engine
            .create_object(
                node,
                capsule,
                cluster,
                "c",
                "counter",
                CounterBehaviour::initial_state(),
                1,
            )
            .unwrap();
        let ch = engine
            .open_channel(client, refs[0].interface, ChannelConfig::default())
            .unwrap();
        engine
            .call(ch, "Add", &Value::record([("k", Value::Int(33))]))
            .unwrap();

        let mut storage = StorageFunction::default();
        let mut pm = PersistenceManager::default();
        pm.deactivate_to_storage(&mut engine, &mut storage, "acct", node, capsule, cluster)
            .unwrap();
        assert_eq!(engine.lookup(refs[0].interface), None);
        assert_eq!(pm.label_for(refs[0].interface), Some("acct"));

        pm.restore(&mut engine, &storage, "acct").unwrap();
        let fresh = engine.lookup(refs[0].interface).unwrap();
        engine.redirect_channel(ch, fresh).unwrap();
        let t = engine
            .call(ch, "Get", &Value::record::<&str, _>([]))
            .unwrap();
        assert_eq!(t.results.field("n"), Some(&Value::Int(33)));
    }

    #[test]
    fn deactivate_to_durable_store_survives_a_crash_of_the_medium() {
        let mut engine = Engine::new(12);
        engine
            .behaviours_mut()
            .register("counter", CounterBehaviour::default);
        let node = engine.add_node(SyntaxId::Binary);
        let capsule = engine.add_capsule(node).unwrap();
        let cluster = engine.add_cluster(node, capsule).unwrap();
        let (_, refs) = engine
            .create_object(
                node,
                capsule,
                cluster,
                "c",
                "counter",
                CounterBehaviour::initial_state(),
                1,
            )
            .unwrap();

        let mut store = StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap();
        let mut pm = PersistenceManager::default();
        pm.deactivate_to_storage(&mut engine, &mut store, "acct", node, capsule, cluster)
            .unwrap();

        // The medium crashes; the WAL replays the checkpoint intact.
        let mut media = store.into_media();
        media.crash();
        let store = StoreEngine::open(media, StoreConfig::default()).unwrap();
        let restored = pm.restore(&mut engine, &store, "acct").unwrap();
        assert!(engine.lookup(refs[0].interface).is_some());
        assert_ne!(restored.raw(), 0);
    }

    #[test]
    fn restore_of_unknown_label_fails() {
        let mut engine = Engine::new(1);
        let storage = StorageFunction::default();
        let mut pm = PersistenceManager::default();
        assert!(matches!(
            pm.restore(&mut engine, &storage, "ghost"),
            Err(PersistenceError::Load(LoadError::NotStored { .. }))
        ));
    }
}
