//! The management functions (§8.1) and coordinated checkpoint/recovery
//! (§8.2), layered over the engineering engine.
//!
//! The paper assigns each management function to a provider:
//!
//! - **node management** (the nucleus) — creating capsules and channels;
//! - **capsule management** (the capsule manager) — instantiating,
//!   checkpointing and deactivating clusters;
//! - **cluster management** (the cluster manager) — checkpointing,
//!   deactivating and migrating clusters;
//! - **object management** (the BEO itself) — checkpointing and deleting
//!   objects.
//!
//! Each of those is a method of [`Engine`] (`add_capsule`,
//! `add_cluster`, `checkpoint_cluster`, `deactivate_cluster`,
//! `reactivate_cluster`, `migrate_cluster`; an object is deleted at its
//! nucleus, `Nucleus::remove_object`). What this module adds is the coordination function's *coordinated checkpoint*: a
//! consistent snapshot of several clusters, restorable as a unit and
//! stored through [`checkpoints`].

use rmodp_core::id::{CapsuleId, ClusterId, NodeId};
use rmodp_engineering::engine::{EngError, Engine};
use rmodp_engineering::structure::ClusterCheckpoint;

use crate::checkpoints;
use crate::storage::PersistentStore;

/// A named set of cluster checkpoints taken together.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatedCheckpoint {
    /// A label for the checkpoint set.
    pub label: String,
    /// The per-cluster checkpoints with their source coordinates.
    pub clusters: Vec<(NodeId, CapsuleId, ClusterCheckpoint)>,
}

/// Coordination function: checkpoints several clusters as one
/// consistent set. The engine is quiescent between
/// [`Engine::run_until_idle`] calls, so snapshotting the clusters
/// back-to-back yields a consistent cut.
///
/// # Errors
///
/// Fails atomically: if any cluster cannot be checkpointed, no
/// checkpoint set is produced.
pub fn coordinated_checkpoint(
    engine: &mut Engine,
    label: impl Into<String>,
    clusters: &[(NodeId, CapsuleId, ClusterId)],
) -> Result<CoordinatedCheckpoint, EngError> {
    engine.run_until_idle();
    let mut out = Vec::with_capacity(clusters.len());
    for &(node, capsule, cluster) in clusters {
        let cp = engine.checkpoint_cluster(node, capsule, cluster)?;
        out.push((node, capsule, cp));
    }
    Ok(CoordinatedCheckpoint {
        label: label.into(),
        clusters: out,
    })
}

/// Recovery: deactivates whatever remains of the checkpointed clusters
/// and reactivates every cluster of the set at its recorded
/// node/capsule. Returns the new cluster ids in set order.
///
/// # Errors
///
/// Propagates reactivation failures (e.g. unregistered behaviours).
pub fn coordinated_restore(
    engine: &mut Engine,
    checkpoint: &CoordinatedCheckpoint,
) -> Result<Vec<ClusterId>, EngError> {
    let mut new_ids = Vec::with_capacity(checkpoint.clusters.len());
    for (node, capsule, cp) in &checkpoint.clusters {
        // Best effort: the old cluster may already be gone (crash).
        let _ = engine.deactivate_cluster(*node, *capsule, cp.cluster);
        new_ids.push(engine.reactivate_cluster(*node, *capsule, cp)?);
    }
    Ok(new_ids)
}

/// Stores a coordinated checkpoint through the storage function, one
/// [`checkpoints::store`] entry per cluster under
/// `checkpoints/<label>/<i>/<node>/<capsule>` (the key carries the home
/// to reactivate it at). Returns the keys in set order.
pub fn store_checkpoint(
    storage: &mut impl PersistentStore,
    checkpoint: &CoordinatedCheckpoint,
) -> Vec<String> {
    checkpoint
        .clusters
        .iter()
        .enumerate()
        .map(|(i, (node, capsule, cp))| {
            let key = format!(
                "checkpoints/{}/{i}/{}/{}",
                checkpoint.label,
                node.raw(),
                capsule.raw()
            );
            checkpoints::store(storage, &key, cp);
            key
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoints::LoadError;
    use crate::storage::StorageFunction;
    use rmodp_core::codec::SyntaxId;
    use rmodp_core::value::Value;
    use rmodp_engineering::behaviour::CounterBehaviour;
    use rmodp_engineering::channel::ChannelConfig;

    fn engine_with_counters() -> (
        Engine,
        Vec<(NodeId, CapsuleId, ClusterId)>,
        Vec<rmodp_engineering::structure::InterfaceRef>,
    ) {
        let mut e = Engine::new(5);
        e.behaviours_mut()
            .register("counter", CounterBehaviour::default);
        let mut clusters = Vec::new();
        let mut refs = Vec::new();
        for _ in 0..2 {
            let node = e.add_node(SyntaxId::Binary);
            let capsule = e.add_capsule(node).unwrap();
            let cluster = e.add_cluster(node, capsule).unwrap();
            let (_, r) = e
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
            clusters.push((node, capsule, cluster));
            refs.push(r[0]);
        }
        (e, clusters, refs)
    }

    #[test]
    fn coordinated_checkpoint_and_restore_round_trip() {
        let (mut e, clusters, refs) = engine_with_counters();
        let client = e.add_node(SyntaxId::Binary);
        let ch0 = e
            .open_channel(client, refs[0].interface, ChannelConfig::default())
            .unwrap();
        let ch1 = e
            .open_channel(client, refs[1].interface, ChannelConfig::default())
            .unwrap();
        e.call(ch0, "Add", &Value::record([("k", Value::Int(10))]))
            .unwrap();
        e.call(ch1, "Add", &Value::record([("k", Value::Int(20))]))
            .unwrap();

        let checkpoint = coordinated_checkpoint(&mut e, "daily", &clusters).unwrap();
        assert_eq!(checkpoint.clusters.len(), 2);

        // More work happens, then disaster: restore the coordinated cut.
        e.call(ch0, "Add", &Value::record([("k", Value::Int(999))]))
            .unwrap();
        coordinated_restore(&mut e, &checkpoint).unwrap();
        // Redirect to the reactivated interfaces and observe the cut.
        let r0 = e.lookup(refs[0].interface).unwrap();
        let r1 = e.lookup(refs[1].interface).unwrap();
        e.redirect_channel(ch0, r0).unwrap();
        e.redirect_channel(ch1, r1).unwrap();
        let t0 = e.call(ch0, "Get", &Value::record::<&str, _>([])).unwrap();
        let t1 = e.call(ch1, "Get", &Value::record::<&str, _>([])).unwrap();
        assert_eq!(t0.results.field("n"), Some(&Value::Int(10)));
        assert_eq!(t1.results.field("n"), Some(&Value::Int(20)));
    }

    #[test]
    fn checkpoint_fails_atomically_on_unknown_cluster() {
        let (mut e, mut clusters, _) = engine_with_counters();
        clusters.push((clusters[0].0, clusters[0].1, ClusterId::new(999)));
        assert!(coordinated_checkpoint(&mut e, "bad", &clusters).is_err());
    }

    #[test]
    fn stored_checkpoints_decode_back_and_damage_never_panics() {
        let (mut e, clusters, _) = engine_with_counters();
        let checkpoint = coordinated_checkpoint(&mut e, "persisted", &clusters).unwrap();
        let mut storage = StorageFunction::default();
        let stored = store_checkpoint(&mut storage, &checkpoint);
        assert_eq!(stored.len(), 2);
        for (i, (key, (node, capsule, cp))) in stored.iter().zip(&checkpoint.clusters).enumerate() {
            assert_eq!(
                key,
                &format!("checkpoints/persisted/{i}/{}/{}", node.raw(), capsule.raw()),
                "the key names the home"
            );
            assert_eq!(checkpoints::load(&storage, key).as_ref(), Ok(cp));
            let bytes = storage.fetch(key).unwrap();
            for cut in 0..bytes.len() {
                storage.persist(key, bytes[..cut].to_vec());
                assert!(
                    matches!(
                        checkpoints::load(&storage, key),
                        Err(LoadError::Corrupt { key: k, .. }) if &k == key
                    ),
                    "cut at {cut}"
                );
            }
            // No checksum in the form: a flipped bit is an error or some
            // other well-formed checkpoint, never a panic.
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                storage.persist(key, flipped);
                let _ = checkpoints::load(&storage, key);
            }
        }
    }
}
