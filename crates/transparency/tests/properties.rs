//! Property tests for the transparency layer: arbitrary interleavings of
//! banking traffic and migrations are fully masked; persistence
//! round-trips arbitrary states; transparent transactions always conserve
//! money.

use proptest::prelude::*;

use rmodp_core::codec::SyntaxId;
use rmodp_core::value::Value;
use rmodp_engineering::behaviour::CounterBehaviour;
use rmodp_engineering::engine::Engine;
use rmodp_engineering::structure::{decode_checkpoint, encode_checkpoint};
use rmodp_functions::storage::StorageFunction;
use rmodp_transactions::rm::{ResourceManager, TxProfile};
use rmodp_transparency::persistence::PersistenceManager;
use rmodp_transparency::proxy::{migrate_transparently, OdpInfra};
use rmodp_transparency::transaction::transfer;
use rmodp_transparency::{Transparency, TransparencySet, TransparentProxy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of adds and migrations yields the exactly-once
    /// total on a loss-free network: migration is fully masked.
    #[test]
    fn migrations_never_lose_or_duplicate_work(
        schedule in proptest::collection::vec((any::<bool>(), 1i64..50), 1..25),
    ) {
        let mut engine = Engine::new(99);
        engine.behaviours_mut().register("counter", CounterBehaviour::default);
        let node = engine.add_node(SyntaxId::Binary);
        let client = engine.add_node(SyntaxId::Text);
        let capsule = engine.add_capsule(node).unwrap();
        let cluster = engine.add_cluster(node, capsule).unwrap();
        let (_, refs) = engine
            .create_object(node, capsule, cluster, "c", "counter", CounterBehaviour::initial_state(), 1)
            .unwrap();
        let interface = refs[0].interface;
        let mut infra = OdpInfra::new();
        infra.publish(&engine, interface).unwrap();
        let mut proxy = TransparentProxy::new(
            client,
            interface,
            TransparencySet::none().with(Transparency::Migration),
        );
        let mut home = (node, capsule, cluster);
        let mut expected = 0i64;
        for (migrate, k) in schedule {
            if migrate {
                let n = engine.add_node(SyntaxId::Binary);
                let c = engine.add_capsule(n).unwrap();
                let new_cluster =
                    migrate_transparently(&mut engine, &mut infra, home, (n, c), &[interface])
                        .unwrap();
                home = (n, c, new_cluster);
            } else {
                expected += k;
                let t = proxy
                    .call(&mut engine, &mut infra, "Add", &Value::record([("k", Value::Int(k))]))
                    .unwrap();
                prop_assert_eq!(t.results.field("n"), Some(&Value::Int(expected)));
            }
        }
        let t = proxy
            .call(&mut engine, &mut infra, "Get", &Value::record::<&str, _>([]))
            .unwrap();
        prop_assert_eq!(t.results.field("n"), Some(&Value::Int(expected)));
    }

    /// Deactivate-to-storage / restore round-trips arbitrary counter
    /// states byte-exactly.
    #[test]
    fn persistence_round_trips_any_state(adds in proptest::collection::vec(1i64..500, 0..10)) {
        let mut engine = Engine::new(100);
        engine.behaviours_mut().register("counter", CounterBehaviour::default);
        let node = engine.add_node(SyntaxId::Binary);
        let capsule = engine.add_capsule(node).unwrap();
        let cluster = engine.add_cluster(node, capsule).unwrap();
        let (_, refs) = engine
            .create_object(node, capsule, cluster, "c", "counter", CounterBehaviour::initial_state(), 1)
            .unwrap();
        let total: i64 = adds.iter().sum();
        for k in &adds {
            engine
                .invoke_local(node, refs[0].interface, "Add", &Value::record([("k", Value::Int(*k))]))
                .unwrap();
        }
        let mut storage = StorageFunction::default();
        let mut pm = PersistenceManager::default();
        pm.deactivate_to_storage(&mut engine, &mut storage, "x", node, capsule, cluster)
            .unwrap();
        pm.restore(&mut engine, &storage, "x").unwrap();
        let t = engine
            .invoke_local(node, refs[0].interface, "Get", &Value::record::<&str, _>([]))
            .unwrap();
        prop_assert_eq!(t.results.field("n"), Some(&Value::Int(total)));
    }

    /// The checkpoint codec round-trips whatever the engine produces.
    #[test]
    fn checkpoint_codec_round_trips_engine_output(adds in proptest::collection::vec(1i64..100, 0..6)) {
        let mut engine = Engine::new(101);
        engine.behaviours_mut().register("counter", CounterBehaviour::default);
        let node = engine.add_node(SyntaxId::Binary);
        let capsule = engine.add_capsule(node).unwrap();
        let cluster = engine.add_cluster(node, capsule).unwrap();
        let (_, refs) = engine
            .create_object(node, capsule, cluster, "c", "counter", CounterBehaviour::initial_state(), 2)
            .unwrap();
        for k in &adds {
            engine
                .invoke_local(node, refs[0].interface, "Add", &Value::record([("k", Value::Int(*k))]))
                .unwrap();
        }
        let cp = engine.checkpoint_cluster(node, capsule, cluster).unwrap();
        let back = decode_checkpoint(&encode_checkpoint(&cp)).unwrap();
        prop_assert_eq!(back, cp);
    }

    /// Transparent transfers conserve money whatever the schedule.
    #[test]
    fn transparent_transfers_conserve(
        schedule in proptest::collection::vec((any::<bool>(), 1i64..200), 1..30),
    ) {
        let mut rm = ResourceManager::new("bank", TxProfile::acid());
        let tx = rm.begin();
        rm.write(tx, "a", Value::Int(400)).unwrap();
        rm.write(tx, "b", Value::Int(600)).unwrap();
        rm.commit(tx).unwrap();
        for (direction, amount) in schedule {
            let (from, to) = if direction { ("a", "b") } else { ("b", "a") };
            let _ = transfer(&mut rm, from, to, amount);
            let total = rm.read_committed("a").unwrap().as_int().unwrap()
                + rm.read_committed("b").unwrap().as_int().unwrap();
            prop_assert_eq!(total, 1_000);
        }
    }
}
