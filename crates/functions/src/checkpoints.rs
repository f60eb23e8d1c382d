//! Stored cluster checkpoints: the one place that knows how a
//! [`ClusterCheckpoint`] gets into a [`PersistentStore`], how it comes
//! back out, and how the world learns where its cluster now lives.
//!
//! Everything that parks a cluster for later — persistence transparency
//! (`persistent/<label>`), the failure guard (`guard/<label>/checkpoint`,
//! beside its op log `guard/<label>/op/<seq>`) and the coordinated
//! checkpoint (`checkpoints/<label>/<i>/<node>/<capsule>`) — writes with
//! [`store`], reads with [`load`], raises the result with
//! [`Engine::reactivate_cluster`] and announces it with [`republish`].
//! The keys are the callers'; the byte form and what a missing or damaged
//! entry means are decided here.

use std::fmt;

use rmodp_core::id::InterfaceId;
use rmodp_engineering::engine::{EngError, Engine};
use rmodp_engineering::structure::{decode_checkpoint, encode_checkpoint, ClusterCheckpoint};

use crate::relocator::Relocator;
use crate::storage::PersistentStore;

/// Why a stored entry could not be read back.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadError {
    /// Nothing is stored under the key.
    NotStored { key: String },
    /// The stored bytes do not decode.
    Corrupt { key: String, detail: String },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::NotStored { key } => write!(f, "nothing stored as {key}"),
            LoadError::Corrupt { key, detail } => write!(f, "{key} is corrupt: {detail}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Stores (or overwrites) a checkpoint under a key.
pub fn store(storage: &mut impl PersistentStore, key: &str, checkpoint: &ClusterCheckpoint) {
    storage.persist(key, encode_checkpoint(checkpoint));
}

/// Reads back the checkpoint stored under a key.
///
/// # Errors
///
/// [`LoadError::NotStored`] for an absent key, [`LoadError::Corrupt`]
/// for bytes that are not a checkpoint.
pub fn load(storage: &impl PersistentStore, key: &str) -> Result<ClusterCheckpoint, LoadError> {
    let bytes = storage.fetch(key).ok_or_else(|| LoadError::NotStored {
        key: key.to_owned(),
    })?;
    decode_checkpoint(&bytes).map_err(|detail| LoadError::Corrupt {
        key: key.to_owned(),
        detail,
    })
}

/// Publishes the engine's authoritative location of each interface to
/// the relocator (what binders do when a binding is set up, and what
/// every reactivation elsewhere must be followed by).
///
/// # Errors
///
/// The first interface the engine does not know.
pub fn republish(
    engine: &Engine,
    relocator: &mut Relocator,
    interfaces: &[InterfaceId],
) -> Result<(), EngError> {
    for &interface in interfaces {
        let r = engine
            .lookup(interface)
            .ok_or(EngError::UnknownInterface { interface })?;
        // Stale registrations are fine to ignore: the relocator already
        // knows something at least as new.
        let _ = relocator.register(r);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::StorageFunction;
    use rmodp_core::codec::SyntaxId;
    use rmodp_engineering::behaviour::CounterBehaviour;

    #[test]
    fn a_stored_checkpoint_loads_back_and_a_bad_entry_names_its_key() {
        let mut engine = Engine::new(3);
        engine
            .behaviours_mut()
            .register("counter", CounterBehaviour::default);
        let node = engine.add_node(SyntaxId::Binary);
        let capsule = engine.add_capsule(node).unwrap();
        let cluster = engine.add_cluster(node, capsule).unwrap();
        let state = CounterBehaviour::initial_state();
        let (_, refs) = engine
            .create_object(node, capsule, cluster, "c", "counter", state, 1)
            .unwrap();
        let interface = refs[0].interface;
        let cp = engine.checkpoint_cluster(node, capsule, cluster).unwrap();

        let mut storage = StorageFunction::default();
        store(&mut storage, "any/key", &cp);
        assert_eq!(load(&storage, "any/key"), Ok(cp));
        let absent = load(&storage, "other").unwrap_err();
        assert_eq!(absent.to_string(), "nothing stored as other");
        storage.persist("other", vec![0xff]);
        assert!(matches!(
            load(&storage, "other"),
            Err(LoadError::Corrupt { key, .. }) if key == "other"
        ));

        // Republishing follows the engine: the first publication lands,
        // an interface the engine does not know is an error.
        let mut relocator = Relocator::default();
        republish(&engine, &mut relocator, &[interface]).unwrap();
        assert_eq!(relocator.lookup(interface), engine.lookup(interface));
        let ghost = InterfaceId::new(9_999);
        assert_eq!(
            republish(&engine, &mut relocator, &[interface, ghost]),
            Err(EngError::UnknownInterface { interface: ghost })
        );
    }
}
