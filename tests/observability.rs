//! Cross-crate observability properties: deterministic traces, the
//! causal-order oracle on real scenario traces, and histogram quantile
//! monotonicity.
//!
//! The event bus is thread-local and the test harness runs each test on
//! its own thread, so scenarios here cannot contaminate each other.

use proptest::prelude::*;
use rmodp::engineering::behaviour::CounterBehaviour;
use rmodp::netsim::sim::{Addr, Sim};
use rmodp::netsim::time::SimDuration;
use rmodp::netsim::topology::{LinkConfig, Topology};
use rmodp::observe::metrics::Histogram;
use rmodp::observe::{bus, export, oracle, Event, EventKind};
use rmodp::prelude::*;
use rmodp::transactions::twopc::{Coordinator, Participant, TxRequest};
use rmodp::transparency::proxy::migrate_transparently;
use rmodp::OdpSystem;

/// A counter served through a proxy, migrated mid-conversation: events
/// from the engineering, transparency and netsim layers.
fn migration_scenario(seed: u64) -> Vec<Event> {
    let mut sys = OdpSystem::new(seed);
    sys.engine
        .behaviours_mut()
        .register("counter", CounterBehaviour::default);
    let home = sys.engine.add_node(SyntaxId::Binary);
    let target = sys.engine.add_node(SyntaxId::Text);
    let client = sys.engine.add_node(SyntaxId::Binary);
    let home_capsule = sys.engine.add_capsule(home).unwrap();
    let target_capsule = sys.engine.add_capsule(target).unwrap();
    let cluster = sys.engine.add_cluster(home, home_capsule).unwrap();
    let (_, refs) = sys
        .engine
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
    sys.publish(interface).unwrap();
    let mut proxy = sys.proxy(
        client,
        interface,
        TransparencySet::none().with(Transparency::Migration),
    );
    let add = Value::record([("k", Value::Int(3))]);
    proxy
        .call(&mut sys.engine, &mut sys.infra, "Add", &add)
        .unwrap();
    migrate_transparently(
        &mut sys.engine,
        &mut sys.infra,
        (home, home_capsule, cluster),
        (target, target_capsule),
        &[interface],
    )
    .unwrap();
    proxy
        .call(&mut sys.engine, &mut sys.infra, "Add", &add)
        .unwrap();
    bus::snapshot_events()
}

/// Two-phase commit over a 40%-lossy network: retransmissions, drops and
/// timer events — the adversarial input for the causal oracle.
fn lossy_twopc_scenario(seed: u64) -> Vec<Event> {
    let link = LinkConfig::with_latency(SimDuration::from_millis(1)).loss(0.4);
    let mut sim = Sim::with_topology(seed, Topology::full_mesh(link));
    let coord = Addr::new(sim.add_node(), 0);
    let mut parts = Vec::new();
    for i in 0..3 {
        let addr = Addr::new(sim.add_node(), 0);
        sim.attach(addr, Participant::new(format!("rm{i}")));
        parts.push(addr);
    }
    sim.attach(
        coord,
        Coordinator::new(parts, SimDuration::from_millis(20), 5),
    );
    let request = TxRequest {
        writes: vec![
            (0, "x".to_owned(), Value::Int(1)),
            (1, "y".to_owned(), Value::Int(2)),
            (2, "z".to_owned(), Value::Int(3)),
        ],
    };
    sim.send_from(
        Addr::EXTERNAL,
        coord,
        Coordinator::submit_payload(TxId::new(1), &request),
    );
    sim.run_until_idle();
    bus::snapshot_events()
}

/// The bank call loop: a text-native client calls a binary-native branch
/// over a binary wire through the sequence binder, so every call sends,
/// delivers, marshals, hops and opens and closes a call — the events whose
/// text the bus renders only when read. One operation name is too long to
/// keep inline (the branch answers it `Error`): its details are rendered
/// when recorded. The last call finds the branch crashed and times out:
/// its `CallEnd` is formatted eagerly.
fn bank_calls(seed: u64, collect: bus::CollectConfig) -> Vec<Event> {
    use rmodp::core::codec::SyntaxId;
    use rmodp::engineering::channel::{ChannelConfig, RetryPolicy};
    use rmodp::engineering::Engine;

    bus::set_collect(collect);
    bus::set_enabled(true);
    let mut engine = Engine::new(seed);
    let branch = rmodp::bank::deploy_branch(&mut engine, SyntaxId::Binary).expect("fresh engine");
    let client = engine.add_node(SyntaxId::Text);
    let config = ChannelConfig {
        wire_syntax: SyntaxId::Binary,
        sequence: true,
        audit: false,
        retry: Some(RetryPolicy::reliable()),
        breaker: None,
    };
    let channel = engine
        .open_channel(client, branch.manager.interface, config)
        .expect("client and interface exist");
    let account = |c: i64| Value::record([("c", Value::Int(c)), ("opening", Value::Int(500))]);
    for c in 1..=4 {
        engine
            .call(channel, "CreateAccount", &account(c))
            .expect("clean link");
    }
    for k in 0..40i64 {
        let a = Value::Int(1 + k % 4);
        let op = match k % 5 {
            0 | 1 => "Deposit",
            2 => "Withdraw",
            3 => "GetBalance",
            _ => "AnOperationNameTooLongToKeepInline",
        };
        let args = Value::record([("a", a), ("d", Value::Int(10 + 7 * k))]);
        let _ = engine.call(channel, op, &args);
    }
    let server = engine.sim_node(branch.node).expect("branch node");
    engine.sim_mut().topology_mut().crash(server);
    let lost = engine.call(channel, "Deposit", &account(1));
    assert!(lost.is_err(), "{lost:?}");
    let events = bus::snapshot_events();
    bus::set_collect(bus::CollectConfig::default());
    events
}

/// A ring holds the tail of the stream: the JSONL of a run collected into
/// a ring of `N` is the last `N` lines of the same run collected
/// unbounded, byte for byte, though the ring rendered every deferred
/// detail after evicting the events recorded before it.
#[test]
fn a_ring_exports_the_last_lines_of_the_unbounded_export() {
    let full = export::to_jsonl(&bank_calls(11, bus::CollectConfig::default()));
    let lines: Vec<&str> = full.lines().collect();
    assert!(lines.len() > 600, "{} events", lines.len());
    for kind in [
        "send",
        "deliver",
        "marshal",
        "channel_hop",
        "call_start",
        "call_end",
    ] {
        let needle = format!("\"kind\":\"{kind}\"");
        assert!(full.contains(&needle), "no {kind} event");
    }
    assert!(full.contains("op=AnOperationNameTooLongToKeepInline -> Error"));
    assert!(
        full.contains("op=Deposit -> error: "),
        "a call that timed out"
    );
    for n in [1, 97, 512] {
        let ring = bus::CollectConfig {
            ring_capacity: Some(n),
            sample_denom: None,
        };
        let tail = export::to_jsonl(&bank_calls(11, ring));
        let expected: String = lines[lines.len() - n..]
            .iter()
            .map(|line| format!("{line}\n"))
            .collect();
        assert_eq!(tail, expected, "ring of {n}");
    }
}

#[test]
fn same_seed_produces_byte_identical_trace() {
    let a = export::to_jsonl(&migration_scenario(42));
    let b = export::to_jsonl(&migration_scenario(42));
    assert_eq!(a, b);
    assert!(!a.is_empty());

    let a = export::to_jsonl(&lossy_twopc_scenario(7));
    let b = export::to_jsonl(&lossy_twopc_scenario(7));
    assert_eq!(a, b);
}

#[test]
fn causal_oracle_is_clean_on_migration_scenario() {
    let events = migration_scenario(42);
    assert!(events.len() > 10);
    let violations = oracle::verify_causality(&events);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn causal_oracle_is_clean_on_lossy_two_phase_commit() {
    for seed in [1u64, 7, 42, 1001] {
        let events = lossy_twopc_scenario(seed);
        assert!(
            events.iter().any(|e| e.kind == EventKind::Drop),
            "seed {seed} lost nothing"
        );
        let violations = oracle::verify_causality(&events);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

#[test]
fn oracle_detects_deliver_without_send() {
    let mut events = migration_scenario(42);
    // Remove the Send carrying the span of the first Deliver: that
    // delivery is now causally unexplained.
    let span = events
        .iter()
        .find(|e| e.kind == EventKind::Deliver)
        .and_then(|e| e.span)
        .expect("scenario delivers messages");
    events.retain(|e| !(e.kind == EventKind::Send && e.span == Some(span)));
    let violations = oracle::verify_causality(&events);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, oracle::CausalityViolation::DeliverWithoutSend { .. })),
        "{violations:?}"
    );
}

#[test]
fn oracle_detects_disordered_stream() {
    let mut events = migration_scenario(42);
    assert!(events.len() >= 2);
    events.swap(0, 1);
    let violations = oracle::verify_causality(&events);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, oracle::CausalityViolation::DisorderedStream { .. })),
        "{violations:?}"
    );
}

proptest! {
    /// Nearest-rank quantiles are monotone for any sample set.
    #[test]
    fn histogram_quantiles_are_monotone(samples in proptest::collection::vec(any::<u64>(), 1..200)) {
        let mut h = Histogram::default();
        for s in &samples {
            h.observe(*s);
        }
        let (p50, p95, p99) = h.quantiles();
        prop_assert!(h.min() <= p50);
        prop_assert!(p50 <= p95);
        prop_assert!(p95 <= p99);
        prop_assert!(p99 <= h.max());
        prop_assert_eq!(h.count(), samples.len());
    }

    /// The percentile function itself is monotone in `p`.
    #[test]
    fn histogram_percentile_is_monotone_in_p(
        samples in proptest::collection::vec(any::<u64>(), 1..100),
        lo in 0.0f64..100.0,
        hi in 0.0f64..100.0,
    ) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let mut h = Histogram::default();
        for s in &samples {
            h.observe(*s);
        }
        prop_assert!(h.percentile(lo) <= h.percentile(hi));
    }
}
