//! Cross-function integration: the relocator fed by migrations, storage
//! holding checkpoints, events announcing them, groups tracking replica
//! views — the §8 functions cooperating the way §9's transparencies need
//! them to.

use rmodp_core::codec::SyntaxId;
use rmodp_core::value::Value;
use rmodp_engineering::behaviour::CounterBehaviour;
use rmodp_engineering::engine::Engine;
use rmodp_functions::checkpoints;
use rmodp_functions::events::EventNotifier;
use rmodp_functions::group::GroupManager;
use rmodp_functions::management::{coordinated_checkpoint, store_checkpoint};
use rmodp_functions::relation::RelationshipRepository;
use rmodp_functions::relocator::Relocator;
use rmodp_functions::storage::StorageFunction;

fn engine_with_counter() -> (
    Engine,
    rmodp_engineering::structure::InterfaceRef,
    (
        rmodp_core::id::NodeId,
        rmodp_core::id::CapsuleId,
        rmodp_core::id::ClusterId,
    ),
) {
    let mut e = Engine::new(13);
    e.behaviours_mut()
        .register("counter", CounterBehaviour::default);
    let node = e.add_node(SyntaxId::Binary);
    let capsule = e.add_capsule(node).unwrap();
    let cluster = e.add_cluster(node, capsule).unwrap();
    let (_, refs) = e
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
    (e, refs[0], (node, capsule, cluster))
}

#[test]
fn relocator_tracks_engine_migrations_with_monotone_epochs() {
    let (mut engine, iref, home) = engine_with_counter();
    let mut relocator = Relocator::default();
    relocator.register(iref).unwrap();

    let mut last_epoch = iref.epoch;
    let mut current = home;
    for _ in 0..3 {
        let node = engine.add_node(SyntaxId::Text);
        let capsule = engine.add_capsule(node).unwrap();
        let new_cluster = engine
            .migrate_cluster(current.0, current.1, current.2, node, capsule)
            .unwrap();
        current = (node, capsule, new_cluster);
        let fresh = engine.lookup(iref.interface).unwrap();
        assert!(fresh.epoch > last_epoch);
        relocator.register(fresh).unwrap();
        // Replaying the stale registration is rejected.
        assert!(relocator
            .register(rmodp_engineering::structure::InterfaceRef {
                epoch: last_epoch,
                ..fresh
            })
            .is_err());
        last_epoch = fresh.epoch;
    }
    assert_eq!(
        relocator.lookup(iref.interface).unwrap().location.node,
        current.0
    );
}

#[test]
fn coordinated_checkpoint_flows_into_storage_and_events() {
    let (mut engine, iref, home) = engine_with_counter();
    engine
        .invoke_local(
            home.0,
            iref.interface,
            "Add",
            &Value::record([("k", Value::Int(9))]),
        )
        .unwrap();
    let checkpoint = coordinated_checkpoint(&mut engine, "nightly", &[home]).unwrap();
    let mut storage = StorageFunction::default();
    let stored = store_checkpoint(&mut storage, &checkpoint);
    let mut events = EventNotifier::default();
    let sub = events.subscribe("checkpoints", true);
    for key in &stored {
        events.emit(
            "checkpoints",
            Value::record([("name", Value::text(key.clone()))]),
        );
    }
    let delivered = events.poll(sub);
    assert_eq!(delivered.len(), stored.len());
    // The checkpoint is addressable by its key and loads back as the
    // cut that was taken.
    assert_eq!(
        checkpoints::load(&storage, &stored[0]).as_ref(),
        Ok(&checkpoint.clusters[0].2)
    );
}

#[test]
fn relationship_repository_models_the_engineering_containment() {
    let (engine, _iref, home) = engine_with_counter();
    let mut rel = RelationshipRepository::default();
    let (node, capsule, cluster) = home;
    rel.relate("contains", node.raw(), capsule.raw());
    rel.relate("contains", capsule.raw(), cluster.raw());
    // Transitive reachability mirrors Figure 5's nesting.
    let reachable = rel.reachable("contains", node.raw());
    assert!(reachable.contains(&capsule.raw()));
    assert!(reachable.contains(&cluster.raw()));
    let _ = engine;
}

#[test]
fn group_views_survive_member_churn_deterministically() {
    let mut gm = GroupManager::default();
    let members: Vec<rmodp_core::id::InterfaceId> =
        (1..=5).map(rmodp_core::id::InterfaceId::new).collect();
    let g = gm.create(members.clone());
    // Drop the oldest member repeatedly; each leave is one more view and
    // the survivors keep their insertion order.
    for gone in 1..=4 {
        let view = gm.leave(g, members[gone - 1]).unwrap();
        assert_eq!(view.number, gone as u64 + 1);
        assert_eq!(view.members, members[gone..]);
    }
    assert_eq!(gm.view(g).unwrap().members.len(), 1);
}
