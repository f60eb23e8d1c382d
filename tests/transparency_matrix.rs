//! The transparency matrix: for each of the eight transparencies, one
//! scenario where it is enabled (the complexity is masked) and one where
//! it is not (the complexity is visible) — §9's claim made falsifiable.

use rmodp::engineering::behaviour::CounterBehaviour;
use rmodp::engineering::engine::CallError;
use rmodp::netsim::time::SimDuration;
use rmodp::netsim::topology::LinkConfig;
use rmodp::prelude::*;
use rmodp::transactions::rm::{ResourceManager, TxProfile};
use rmodp::transparency::failure::FailureGuard;
use rmodp::transparency::proxy::{migrate_transparently, ProxyError};
use rmodp::transparency::replication::quorum_counters;
use rmodp::transparency::transaction::{in_transaction, transfer};
use rmodp::OdpSystem;

struct CounterWorld {
    sys: OdpSystem,
    home: (NodeId, CapsuleId, ClusterId),
    client: NodeId,
    interface: InterfaceId,
}

fn counter_world(seed: u64) -> CounterWorld {
    let mut sys = OdpSystem::new(seed);
    sys.engine
        .behaviours_mut()
        .register("counter", CounterBehaviour::default);
    let node = sys.engine.add_node(SyntaxId::Binary);
    let client = sys.engine.add_node(SyntaxId::Text);
    let capsule = sys.engine.add_capsule(node).unwrap();
    let cluster = sys.engine.add_cluster(node, capsule).unwrap();
    let (_, refs) = sys
        .engine
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
    sys.publish(refs[0].interface).unwrap();
    CounterWorld {
        sys,
        home: (node, capsule, cluster),
        client,
        interface: refs[0].interface,
    }
}

fn add(k: i64) -> Value {
    Value::record([("k", Value::Int(k))])
}

fn get() -> Value {
    Value::record::<&str, _>([])
}

#[test]
fn access_heterogeneous_syntaxes_interwork() {
    // Client text-native, server binary-native: without marshalling this
    // interaction could not be expressed at all; the channel stack makes
    // it invisible.
    let mut w = counter_world(1);
    let mut proxy = w.sys.proxy(
        w.client,
        w.interface,
        TransparencySet::none().with(Transparency::Access),
    );
    let t = proxy
        .call(&mut w.sys.engine, &mut w.sys.infra, "Add", &add(3))
        .unwrap();
    assert_eq!(t.results.field("n"), Some(&Value::Int(3)));
}

#[test]
fn location_client_never_names_a_node() {
    let mut w = counter_world(2);
    // The proxy is constructed from an InterfaceId alone — the test
    // itself is the demonstration: no node/address appears below.
    let mut proxy = w.sys.proxy(
        w.client,
        w.interface,
        TransparencySet::none().with(Transparency::Location),
    );
    assert!(proxy
        .call(&mut w.sys.engine, &mut w.sys.infra, "Add", &add(1))
        .unwrap()
        .is_ok());
}

#[test]
fn relocation_on_vs_off() {
    for (enabled, expect_ok) in [(true, true), (false, false)] {
        let mut w = counter_world(3);
        let selection = if enabled {
            TransparencySet::none().with(Transparency::Relocation)
        } else {
            TransparencySet::none().with(Transparency::Location)
        };
        let mut proxy = w.sys.proxy(w.client, w.interface, selection);
        proxy
            .call(&mut w.sys.engine, &mut w.sys.infra, "Add", &add(2))
            .unwrap();
        let new_node = w.sys.engine.add_node(SyntaxId::Binary);
        let new_capsule = w.sys.engine.add_capsule(new_node).unwrap();
        migrate_transparently(
            &mut w.sys.engine,
            &mut w.sys.infra,
            w.home,
            (new_node, new_capsule),
            &[w.interface],
        )
        .unwrap();
        let outcome = proxy.call(&mut w.sys.engine, &mut w.sys.infra, "Get", &get());
        assert_eq!(outcome.is_ok(), expect_ok, "enabled={enabled}");
        if !expect_ok {
            assert!(matches!(
                outcome.unwrap_err(),
                ProxyError::Call(CallError::NotHere { .. })
            ));
        }
    }
}

#[test]
fn persistence_on_vs_off() {
    for enabled in [true, false] {
        let mut w = counter_world(4);
        let selection = if enabled {
            TransparencySet::none()
                .with(Transparency::Relocation)
                .with(Transparency::Persistence)
        } else {
            TransparencySet::none().with(Transparency::Relocation)
        };
        let mut proxy = w.sys.proxy(w.client, w.interface, selection);
        proxy
            .call(&mut w.sys.engine, &mut w.sys.infra, "Add", &add(6))
            .unwrap();
        // Deactivate the cluster to storage.
        let (node, capsule, cluster) = w.home;
        let mut pm = std::mem::take(&mut w.sys.infra.persistence);
        pm.deactivate_to_storage(
            &mut w.sys.engine,
            &mut w.sys.infra.storage,
            "ctr",
            node,
            capsule,
            cluster,
        )
        .unwrap();
        w.sys.infra.persistence = pm;
        w.sys.infra.relocator.deactivate(w.interface);

        let outcome = proxy.call(&mut w.sys.engine, &mut w.sys.infra, "Get", &get());
        if enabled {
            assert_eq!(
                outcome.unwrap().results.field("n"),
                Some(&Value::Int(6)),
                "restored transparently"
            );
        } else {
            assert!(matches!(
                outcome.unwrap_err(),
                ProxyError::Unresolvable { .. }
            ));
        }
    }
}

#[test]
fn failure_on_vs_off() {
    for guarded in [true, false] {
        let mut w = counter_world(5);
        let mut proxy = w.sys.proxy(
            w.client,
            w.interface,
            TransparencySet::none().with(Transparency::Failure),
        );
        proxy
            .call(&mut w.sys.engine, &mut w.sys.infra, "Add", &add(4))
            .unwrap();

        let backup = w.sys.engine.add_node(SyntaxId::Binary);
        let backup_capsule = w.sys.engine.add_capsule(backup).unwrap();
        let mut guard =
            FailureGuard::new("acct", w.home, (backup, backup_capsule), vec![w.interface]);
        if guarded {
            guard
                .checkpoint_now(&mut w.sys.engine, &mut w.sys.infra.storage)
                .unwrap();
        }
        let idx = w.sys.engine.sim_node(w.home.0).unwrap();
        w.sys.engine.sim_mut().topology_mut().crash(idx);
        if guarded {
            let infra = &mut w.sys.infra;
            guard
                .recover(&mut w.sys.engine, &mut infra.relocator, &mut infra.storage)
                .unwrap();
            let t = proxy
                .call(&mut w.sys.engine, &mut w.sys.infra, "Get", &get())
                .unwrap();
            assert_eq!(t.results.field("n"), Some(&Value::Int(4)));
        } else {
            let err = proxy
                .call(&mut w.sys.engine, &mut w.sys.infra, "Get", &get())
                .unwrap_err();
            assert!(matches!(err, ProxyError::Call(CallError::Timeout { .. })));
        }
    }
}

#[test]
fn replication_group_stays_consistent_and_masks_replica_loss_for_reads() {
    let mut sys = OdpSystem::new(6);
    let client = sys.engine.add_node(SyntaxId::Binary);
    let (mut svc, replicas) = quorum_counters(&mut sys.engine, &mut sys.infra, client, 3).unwrap();
    for k in 1..=5 {
        svc.quorum_update(&mut sys.engine, &mut sys.infra, k)
            .unwrap();
    }
    // All replicas agree on the committed state.
    for &replica in &replicas {
        let node = sys.engine.lookup(replica).unwrap().location.node;
        let t = sys.engine.invoke_local(node, replica, "Get", &get());
        assert_eq!(t.unwrap().results.field("n"), Some(&Value::Int(15)));
    }
    // Lose one replica that is not the leader: the majority still commits
    // and the leader still serves reads.
    let leader = sys.infra.groups.view(svc.group()).unwrap().leader;
    let dead = *replicas.iter().find(|r| Some(**r) != leader).unwrap();
    let node = sys.engine.lookup(dead).unwrap().location.node;
    let idx = sys.engine.sim_node(node).unwrap();
    sys.engine.sim_mut().topology_mut().crash(idx);
    svc.quorum_update(&mut sys.engine, &mut sys.infra, 6)
        .unwrap();
    for _ in 0..4 {
        let t = svc.quorum_read(&mut sys.engine, &mut sys.infra).unwrap();
        assert_eq!(t.results.field("n"), Some(&Value::Int(21)));
    }
}

#[test]
fn transaction_transparency_masks_coordination() {
    let mut rm = ResourceManager::new("bank", TxProfile::acid());
    // Seed accounts inside a transaction the application never sees.
    in_transaction(&mut rm, 1, |ctx| {
        ctx.write("a", Value::Int(500)).map_err(|e| e.to_string())?;
        ctx.write("b", Value::Int(500)).map_err(|e| e.to_string())
    })
    .unwrap();
    // Plain-looking transfers; atomicity and isolation are invisible.
    for _ in 0..10 {
        transfer(&mut rm, "a", "b", 37).unwrap();
        transfer(&mut rm, "b", "a", 21).unwrap();
    }
    let a = rm.read_committed("a").unwrap().as_int().unwrap();
    let b = rm.read_committed("b").unwrap().as_int().unwrap();
    assert_eq!(a + b, 1_000);
    // Even across a crash (permanence).
    rm.crash();
    rm.recover();
    assert_eq!(
        rm.read_committed("a").unwrap().as_int().unwrap()
            + rm.read_committed("b").unwrap().as_int().unwrap(),
        1_000
    );
}

#[test]
fn migration_transparency_with_lossy_network() {
    // Migration masked even while the network drops 20% of messages —
    // failure transparency's retransmission and relocation's replay
    // compose.
    let mut w = counter_world(7);
    let s = w.sys.engine.sim_node(w.home.0).unwrap();
    let c = w.sys.engine.sim_node(w.client).unwrap();
    w.sys.engine.sim_mut().topology_mut().set_link(
        c,
        s,
        LinkConfig::with_latency(SimDuration::from_millis(1)).loss(0.2),
    );
    let mut proxy = w.sys.proxy(
        w.client,
        w.interface,
        TransparencySet::none()
            .with(Transparency::Migration)
            .with(Transparency::Failure),
    );
    // Failure transparency's channel now carries the whole retry budget
    // (exponential backoff under a total deadline), so the application
    // calls exactly once per logical operation — no replay loop.
    for k in 1..=10 {
        let t = proxy
            .call(&mut w.sys.engine, &mut w.sys.infra, "Add", &add(k))
            .unwrap();
        assert!(t.is_ok());
    }
    let new_node = w.sys.engine.add_node(SyntaxId::Binary);
    let new_capsule = w.sys.engine.add_capsule(new_node).unwrap();
    migrate_transparently(
        &mut w.sys.engine,
        &mut w.sys.infra,
        w.home,
        (new_node, new_capsule),
        &[w.interface],
    )
    .unwrap();
    let t = proxy
        .call(&mut w.sys.engine, &mut w.sys.infra, "Get", &get())
        .unwrap();
    // Retransmissions share one request id and the server deduplicates,
    // so even under 20% loss every Add executed exactly once.
    let n = t.results.field("n").unwrap().as_int().unwrap();
    assert_eq!(n, 55, "n={n}");
}
