//! End-to-end tests of the engineering runtime: remote invocation through
//! channels, heterogeneous marshalling, replay protection, retransmission,
//! checkpoint / deactivate / reactivate / migrate, and structure policies.

use rmodp_core::codec::SyntaxId;
use rmodp_core::id::{CapsuleId, ClusterId, NodeId};
use rmodp_core::value::Value;
use rmodp_engineering::channel::{ChannelConfig, RetryPolicy};
use rmodp_engineering::engine::{CallError, EngError, Engine};
use rmodp_engineering::nucleus::{DriverProcess, DRIVER_PORT};
use rmodp_engineering::prelude::*;
use rmodp_netsim::sim::{Addr, Ctx, Message, Process};
use rmodp_netsim::time::SimDuration;
use rmodp_netsim::topology::LinkConfig;

fn engine() -> Engine {
    let mut e = Engine::new(7);
    e.behaviours_mut()
        .register("counter", CounterBehaviour::default);
    e.behaviours_mut().register("echo", || EchoBehaviour);
    e
}

/// Sets up one server node (binary-native) with a counter object, and one
/// text-native client node.
fn counter_setup(e: &mut Engine) -> (NodeId, NodeId, CapsuleId, ClusterId, InterfaceRef) {
    let server = e.add_node(SyntaxId::Binary);
    let client = e.add_node(SyntaxId::Text);
    let capsule = e.add_capsule(server).unwrap();
    let cluster = e.add_cluster(server, capsule).unwrap();
    let (_obj, refs) = e
        .create_object(
            server,
            capsule,
            cluster,
            "counter",
            "counter",
            CounterBehaviour::initial_state(),
            1,
        )
        .unwrap();
    (server, client, capsule, cluster, refs[0])
}

fn add_args(k: i64) -> Value {
    Value::record([("k", Value::Int(k))])
}

#[test]
fn remote_interrogation_accumulates_state() {
    let mut e = engine();
    let (_, client, _, _, iref) = counter_setup(&mut e);
    let ch = e
        .open_channel(client, iref.interface, ChannelConfig::default())
        .unwrap();
    for k in 1..=10 {
        let t = e.call(ch, "Add", &add_args(k)).unwrap();
        assert!(t.is_ok(), "{t:?}");
    }
    let t = e.call(ch, "Get", &Value::record::<&str, _>([])).unwrap();
    assert_eq!(t.results.field("n"), Some(&Value::Int(55)));
}

#[test]
fn heterogeneous_nodes_interwork_through_marshalling() {
    // Client is text-native, server binary-native, wire syntax text: every
    // hop forces real conversion (access transparency).
    let mut e = engine();
    let (_, client, _, _, iref) = counter_setup(&mut e);
    let cfg = ChannelConfig {
        wire_syntax: SyntaxId::Text,
        ..ChannelConfig::default()
    };
    let ch = e.open_channel(client, iref.interface, cfg).unwrap();
    let t = e.call(ch, "Add", &add_args(3)).unwrap();
    assert_eq!(t.results.field("n"), Some(&Value::Int(3)));
}

#[test]
fn announcements_are_fire_and_forget() {
    let mut e = engine();
    let (server, client, _, _, iref) = counter_setup(&mut e);
    let ch = e
        .open_channel(client, iref.interface, ChannelConfig::default())
        .unwrap();
    e.announce(ch, "Add", &add_args(5)).unwrap();
    e.announce(ch, "Add", &add_args(6)).unwrap();
    e.run_until_idle();
    let t = e.call(ch, "Get", &Value::record::<&str, _>([])).unwrap();
    assert_eq!(t.results.field("n"), Some(&Value::Int(11)));
    assert_eq!(e.nucleus(server).unwrap().stats.announcements, 2);
}

#[test]
fn flows_drive_on_flow() {
    let mut e = engine();
    let (server, client, _, _, iref) = counter_setup(&mut e);
    let ch = e
        .open_channel(client, iref.interface, ChannelConfig::default())
        .unwrap();
    for k in [1, 2, 3] {
        e.send_flow(ch, "increments", &Value::Int(k)).unwrap();
    }
    e.run_until_idle();
    let t = e.call(ch, "Get", &Value::record::<&str, _>([])).unwrap();
    assert_eq!(t.results.field("n"), Some(&Value::Int(6)));
    assert_eq!(e.nucleus(server).unwrap().stats.flows, 3);
}

#[test]
fn lossy_link_times_out_then_retry_succeeds() {
    let mut e = engine();
    let (server, client, _, _, iref) = counter_setup(&mut e);
    // 100% loss: no retry policy can help; expect Timeout.
    let s = e.sim_node(server).unwrap();
    let c = e.sim_node(client).unwrap();
    e.sim_mut().topology_mut().set_link(
        c,
        s,
        LinkConfig::with_latency(SimDuration::from_millis(1)).loss(1.0),
    );
    let ch = e
        .open_channel(client, iref.interface, ChannelConfig::default())
        .unwrap();
    let err = e.call(ch, "Add", &add_args(1)).unwrap_err();
    assert_eq!(err, CallError::Timeout { attempts: 1 });

    // 60% loss with generous retries: at-least-once delivery succeeds.
    e.sim_mut().topology_mut().set_link(
        c,
        s,
        LinkConfig::with_latency(SimDuration::from_millis(1)).loss(0.6),
    );
    let cfg = ChannelConfig {
        retry: Some(RetryPolicy {
            timeout: SimDuration::from_millis(10),
            retries: 20,
            deadline: SimDuration::from_secs(2),
            ..RetryPolicy::reliable()
        }),
        ..ChannelConfig::default()
    };
    let ch2 = e.open_channel(client, iref.interface, cfg).unwrap();
    let t = e.call(ch2, "Get", &Value::record::<&str, _>([])).unwrap();
    assert!(t.is_ok());
}

/// Fires a 1 ms timer a bounded number of times: background activity, so
/// a waiting call sees its deadline pass instead of stepping straight to
/// the next delivery.
struct Ticker(u32);

impl Process for Ticker {
    fn on_message(&mut self, _: &mut Ctx<'_>, _: Message) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if self.0 > 0 {
            self.0 -= 1;
            ctx.set_timer(SimDuration::from_millis(1), tag);
        }
    }
}

#[test]
fn driver_keeps_no_reply_nobody_waits_for() {
    let mut e = engine();
    let (server, client, _, _, iref) = counter_setup(&mut e);
    let (s, c) = (e.sim_node(server).unwrap(), e.sim_node(client).unwrap());
    let ticker = Addr::new(c, 9);
    e.sim_mut().attach(ticker, Ticker(10_000));
    e.sim_mut().schedule_timer(ticker, SimDuration::ZERO, 0);
    // Replies are slower than the per-attempt timeout and a third are
    // lost: most calls retransmit and are answered twice (the original
    // reply plus the dedup replay), and some replies land only after the
    // call has given up.
    e.sim_mut().topology_mut().set_link(
        s,
        c,
        LinkConfig::with_latency(SimDuration::from_millis(30)).loss(0.3),
    );
    let cfg = ChannelConfig {
        retry: Some(RetryPolicy::reliable().with_deadline(SimDuration::from_millis(70))),
        ..ChannelConfig::default()
    };
    let ch = e.open_channel(client, iref.interface, cfg).unwrap();
    let (mut answered, mut timed_out) = (0, 0);
    for k in 0..40 {
        match e.call(ch, "Add", &add_args(k)) {
            Ok(_) => answered += 1,
            Err(CallError::Timeout { .. }) => timed_out += 1,
            Err(other) => panic!("unexpected {other}"),
        }
    }
    e.run_until_idle();
    assert!(answered > 0 && timed_out > 0, "{answered} / {timed_out}");
    assert!(e.nucleus(server).unwrap().stats.dedup_hits > 0);
    let driver = e
        .sim()
        .inspect::<DriverProcess>(Addr::new(c, DRIVER_PORT))
        .unwrap();
    assert!(driver.mailbox.is_empty(), "{} left", driver.mailbox.len());
}

#[test]
fn an_abandoned_async_call_is_forgotten_whenever_its_reply_lands() {
    let mut e = engine();
    let (_, client, _, _, iref) = counter_setup(&mut e);
    let c = e.sim_node(client).unwrap();
    let ch = e
        .open_channel(client, iref.interface, ChannelConfig::default())
        .unwrap();
    // Abandoned while the reply is still in flight, and abandoned after
    // it has landed uncollected: either way nothing is kept.
    let early = e.call_send(ch, "Add", &add_args(1)).unwrap();
    e.abandon_call(early);
    let late = e.call_send(ch, "Add", &add_args(2)).unwrap();
    e.run_until_idle();
    let driver = |e: &Engine| -> (usize, usize) {
        let d = e
            .sim()
            .inspect::<DriverProcess>(Addr::new(c, DRIVER_PORT))
            .unwrap();
        (d.awaiting(), d.mailbox.len())
    };
    assert_eq!(driver(&e), (0, 1), "only the reply still wanted is kept");
    e.abandon_call(late);
    assert_eq!(driver(&e), (0, 0));
    assert_eq!(e.calls_in_flight(), 0);
    assert!(e.take_reply(early).is_none());
    assert!(e.take_reply(late).is_none());
    // Both requests were served; only their replies went uncollected.
    let t = e.call(ch, "Get", &Value::record::<&str, _>([])).unwrap();
    assert_eq!(t.results.field("n"), Some(&Value::Int(3)));
}

#[test]
fn sequence_binder_foils_replayed_requests_end_to_end() {
    use rmodp_core::codec::syntax_for;
    use rmodp_engineering::envelope::Envelope;

    let mut e = engine();
    let (server, client, _, _, iref) = counter_setup(&mut e);
    let cfg = ChannelConfig {
        sequence: true,
        ..ChannelConfig::default()
    };
    let ch = e.open_channel(client, iref.interface, cfg).unwrap();
    // A legitimate call consumes sequence number 1 at the server binder.
    e.call(ch, "Add", &add_args(100)).unwrap();
    assert_eq!(e.nucleus(server).unwrap().stats.requests, 1);

    // An attacker who captured the seq=1 request replays equivalent bytes.
    let payload = syntax_for(SyntaxId::Binary).encode(&Value::record([
        ("op", Value::text("Add")),
        ("args", add_args(100)),
    ]));
    let mut replayed = Envelope::request(ch, 999, iref.interface, SyntaxId::Binary, payload);
    replayed.seq = 1;
    let nucleus = Addr::new(e.sim_node(server).unwrap(), 0);
    e.sim_mut()
        .send_from(Addr::EXTERNAL, nucleus, replayed.to_bytes());
    e.run_until_idle();

    // The binder rejected the replay: no second Add was executed.
    assert_eq!(e.nucleus(server).unwrap().stats.rejected, 1);
    let t = e.call(ch, "Get", &Value::record::<&str, _>([])).unwrap();
    assert_eq!(t.results.field("n"), Some(&Value::Int(100)));
}

#[test]
fn deactivate_then_calls_get_not_here_then_reactivate_restores() {
    let mut e = engine();
    let (server, client, capsule, cluster, iref) = counter_setup(&mut e);
    let ch = e
        .open_channel(client, iref.interface, ChannelConfig::default())
        .unwrap();
    e.call(ch, "Add", &add_args(9)).unwrap();

    let checkpoint = e.deactivate_cluster(server, capsule, cluster).unwrap();
    assert_eq!(e.lookup(iref.interface), None);
    let err = e
        .call(ch, "Get", &Value::record::<&str, _>([]))
        .unwrap_err();
    assert_eq!(
        err,
        CallError::NotHere {
            interface: iref.interface
        }
    );

    let new_cluster = e.reactivate_cluster(server, capsule, &checkpoint).unwrap();
    assert_ne!(new_cluster, cluster);
    let fresh = e.lookup(iref.interface).unwrap();
    assert!(fresh.epoch > iref.epoch);
    e.redirect_channel(ch, fresh).unwrap();
    let t = e.call(ch, "Get", &Value::record::<&str, _>([])).unwrap();
    // State survived deactivation.
    assert_eq!(t.results.field("n"), Some(&Value::Int(9)));
}

#[test]
fn migration_preserves_identity_and_state() {
    let mut e = engine();
    let (server, client, capsule, cluster, iref) = counter_setup(&mut e);
    let ch = e
        .open_channel(client, iref.interface, ChannelConfig::default())
        .unwrap();
    e.call(ch, "Add", &add_args(21)).unwrap();

    // Migrate the cluster to a third node with a different native syntax.
    let third = e.add_node(SyntaxId::Text);
    let target_capsule = e.add_capsule(third).unwrap();
    let new_cluster = e
        .migrate_cluster(server, capsule, cluster, third, target_capsule)
        .unwrap();
    assert_ne!(new_cluster, cluster);

    let fresh = e.lookup(iref.interface).unwrap();
    assert_eq!(fresh.location.node, third);
    assert_eq!(fresh.interface, iref.interface); // identity preserved
    assert!(fresh.epoch > iref.epoch); // epoch bumped

    // The old channel belief is stale: NotHere.
    let err = e
        .call(ch, "Get", &Value::record::<&str, _>([]))
        .unwrap_err();
    assert_eq!(
        err,
        CallError::NotHere {
            interface: iref.interface
        }
    );

    // Redirect (what a relocation-transparent binder automates) and the
    // call succeeds against migrated state.
    e.redirect_channel(ch, fresh).unwrap();
    let t = e.call(ch, "Get", &Value::record::<&str, _>([])).unwrap();
    assert_eq!(t.results.field("n"), Some(&Value::Int(21)));
}

#[test]
fn migrate_to_unknown_node_rolls_back() {
    let mut e = engine();
    let (server, client, capsule, cluster, iref) = counter_setup(&mut e);
    let err = e
        .migrate_cluster(server, capsule, cluster, NodeId::new(99), capsule)
        .unwrap_err();
    assert!(matches!(err, EngError::UnknownNode { .. }));
    // The cluster is back at the source (fresh cluster id, same data).
    let fresh = e.lookup(iref.interface).unwrap();
    assert_eq!(fresh.location.node, server);
    let ch = e
        .open_channel(client, iref.interface, ChannelConfig::default())
        .unwrap();
    let t = e.call(ch, "Get", &Value::record::<&str, _>([])).unwrap();
    assert!(t.is_ok());
}

#[test]
fn structure_policy_restricts_creation() {
    let mut e = Engine::with_policy(1, StructurePolicy::single_object_capsules());
    e.behaviours_mut().register("echo", || EchoBehaviour);
    let node = e.add_node(SyntaxId::Binary);
    let capsule = e.add_capsule(node).unwrap();
    let cluster = e.add_cluster(node, capsule).unwrap();
    // Second cluster in the same capsule violates the policy.
    assert!(matches!(
        e.add_cluster(node, capsule),
        Err(EngError::Policy { .. })
    ));
    e.create_object(
        node,
        capsule,
        cluster,
        "a",
        "echo",
        Value::record::<&str, _>([]),
        1,
    )
    .unwrap();
    // Second object in the same cluster violates the policy.
    assert!(matches!(
        e.create_object(
            node,
            capsule,
            cluster,
            "b",
            "echo",
            Value::record::<&str, _>([]),
            1
        ),
        Err(EngError::Policy { .. })
    ));
    assert!(e.validate_node(node).unwrap().is_empty());
}

#[test]
fn validate_node_passes_for_live_engine() {
    let mut e = engine();
    let (server, _, _, _, _) = counter_setup(&mut e);
    assert_eq!(e.validate_node(server).unwrap(), Vec::<String>::new());
    assert_eq!(e.nucleus(server).unwrap().structure.census(), (1, 1, 1));
}

#[test]
fn crashed_server_times_out_and_recovers_after_restart() {
    let mut e = engine();
    let (server, client, _, _, iref) = counter_setup(&mut e);
    let ch = e
        .open_channel(client, iref.interface, ChannelConfig::default())
        .unwrap();
    e.call(ch, "Add", &add_args(4)).unwrap();

    let s = e.sim_node(server).unwrap();
    e.sim_mut().topology_mut().crash(s);
    let err = e
        .call(ch, "Get", &Value::record::<&str, _>([]))
        .unwrap_err();
    assert!(matches!(err, CallError::Timeout { .. }));

    e.sim_mut().topology_mut().restart(s);
    let t = e.call(ch, "Get", &Value::record::<&str, _>([])).unwrap();
    assert_eq!(t.results.field("n"), Some(&Value::Int(4)));
}

#[test]
fn invoke_local_bypasses_the_network() {
    let mut e = engine();
    let (server, _, _, _, iref) = counter_setup(&mut e);
    let sent_before = e.sim().metrics().sent;
    let t = e
        .invoke_local(server, iref.interface, "Add", &add_args(2))
        .unwrap();
    assert_eq!(t.results.field("n"), Some(&Value::Int(2)));
    assert_eq!(e.sim().metrics().sent, sent_before);
}

#[test]
fn unknown_entities_error_cleanly() {
    let mut e = engine();
    let (server, client, capsule, _, iref) = counter_setup(&mut e);
    assert!(matches!(
        e.add_capsule(NodeId::new(99)),
        Err(EngError::UnknownNode { .. })
    ));
    assert!(matches!(
        e.add_cluster(server, CapsuleId::new(99)),
        Err(EngError::UnknownCapsule { .. })
    ));
    assert!(matches!(
        e.create_object(
            server,
            capsule,
            ClusterId::new(99),
            "x",
            "counter",
            Value::Null,
            0
        ),
        Err(EngError::UnknownCluster { .. })
    ));
    assert!(matches!(
        e.create_object(
            server,
            capsule,
            ClusterId::new(1),
            "x",
            "ghost",
            Value::Null,
            0
        ),
        Err(EngError::UnknownBehaviour { .. })
    ));
    assert!(matches!(
        e.open_channel(
            client,
            rmodp_core::id::InterfaceId::new(99),
            ChannelConfig::default()
        ),
        Err(EngError::UnknownInterface { .. })
    ));
    let _ = iref;
}

#[test]
fn audit_channel_records_operations_at_server() {
    let mut e = engine();
    let (server, client, _, _, iref) = counter_setup(&mut e);
    let cfg = ChannelConfig {
        audit: true,
        ..ChannelConfig::default()
    };
    let ch = e.open_channel(client, iref.interface, cfg).unwrap();
    e.call(ch, "Add", &add_args(1)).unwrap();
    e.call(ch, "Get", &Value::record::<&str, _>([])).unwrap();
    // The server-side audit stub saw both operations.
    let addr = rmodp_netsim::sim::Addr::new(e.sim_node(server).unwrap(), 0);
    let nucleus = e
        .sim()
        .inspect::<rmodp_engineering::nucleus::NucleusProcess>(addr)
        .unwrap();
    let stack = nucleus.server_channels.get(&ch).unwrap();
    let audit = stack
        .component::<rmodp_engineering::channel::AuditStub>()
        .unwrap();
    let joined = audit.entries().join("\n");
    assert!(joined.contains("Add"), "{joined}");
    assert!(joined.contains("Get"), "{joined}");
}

#[test]
fn same_engine_same_seed_is_deterministic() {
    fn run() -> (u64, Value) {
        let mut e = engine();
        let (_, client, _, _, iref) = counter_setup(&mut e);
        let cfg = ChannelConfig {
            sequence: true,
            wire_syntax: SyntaxId::Text,
            ..ChannelConfig::default()
        };
        let ch = e.open_channel(client, iref.interface, cfg).unwrap();
        for k in 1..20 {
            e.call(ch, "Add", &add_args(k)).unwrap();
        }
        let t = e.call(ch, "Get", &Value::record::<&str, _>([])).unwrap();
        (e.sim().now().as_micros(), t.results.clone())
    }
    assert_eq!(run(), run());
}

#[test]
fn a_timed_out_attempt_ends_at_its_deadline() {
    let mut e = engine();
    let (server, client, _, _, iref) = counter_setup(&mut e);
    let (s, c) = (e.sim_node(server).unwrap(), e.sim_node(client).unwrap());
    // The request lands long after the one-shot policy's 50 ms timeout.
    let slow = LinkConfig::with_latency(SimDuration::from_millis(200));
    e.sim_mut().topology_mut().set_link(c, s, slow);
    e.sim_mut().topology_mut().set_link(s, c, slow);
    let ch = e
        .open_channel(client, iref.interface, ChannelConfig::default())
        .unwrap();
    let t0 = e.now();
    let err = e.call(ch, "Add", &add_args(1)).unwrap_err();
    assert_eq!(err, CallError::Timeout { attempts: 1 });
    assert_eq!(e.now(), t0 + SimDuration::from_millis(50));
}

/// The `engineering.*` counters one call may move, and the samples of
/// its latency histogram.
const CALL_COUNTERS: [&str; 5] = [
    "engineering.calls",
    "engineering.call_errors",
    "engineering.calls_async",
    "engineering.retries",
    "engineering.breaker.fast_fails",
];

/// The span one call leaves: its `CallStart` and `CallEnd` details, the
/// kinds of the events in its span and of those it parents, and how far
/// it moved [`CALL_COUNTERS`] and the `engineering.call_us` samples.
#[derive(Debug, PartialEq)]
struct SpanShape {
    start: String,
    end: String,
    within: Vec<String>,
    children: Vec<String>,
    counters: Vec<u64>,
    call_us_samples: usize,
}

/// Runs `call` against a fresh bus stream and reads the shape of the one
/// call it makes.
fn shape_of(call: impl FnOnce()) -> SpanShape {
    use rmodp_observe::{bus, EventKind};

    let before = CALL_COUNTERS.map(bus::counter);
    let samples = || {
        bus::snapshot_metrics()
            .histogram("engineering.call_us")
            .map_or(0, |h| h.count())
    };
    let samples_before = samples();
    bus::take_events();
    call();
    let events = bus::take_events();
    let starts: Vec<_> = events
        .iter()
        .filter(|ev| ev.kind == EventKind::CallStart)
        .collect();
    assert_eq!(starts.len(), 1, "one call, one CallStart");
    let (start, span) = (starts[0], starts[0].span);
    assert_eq!(start.parent, None, "no outer context");
    let end = events
        .iter()
        .find(|ev| ev.kind == EventKind::CallEnd)
        .expect("the call ended");
    assert_eq!((end.span, end.parent), (span, None));
    let kinds = |keep: &dyn Fn(&rmodp_observe::Event) -> bool| {
        let kept = events.iter().filter(|ev| keep(ev));
        kept.map(|ev| ev.kind.to_string()).collect::<Vec<_>>()
    };
    let is_call =
        |ev: &rmodp_observe::Event| matches!(ev.kind, EventKind::CallStart | EventKind::CallEnd);
    SpanShape {
        start: start.detail.clone(),
        end: end.detail.clone(),
        within: kinds(&|ev| ev.span == span && !is_call(ev)),
        children: kinds(&|ev| ev.parent == span),
        counters: CALL_COUNTERS
            .iter()
            .zip(before)
            .map(|(name, was)| bus::counter(name) - was)
            .collect(),
        call_us_samples: samples() - samples_before,
    }
}

#[test]
fn every_kind_of_call_leaves_one_span_shape() {
    use rmodp_engineering::channel::BreakerConfig;

    let mut e = engine();
    let (server, client, _, _, iref) = counter_setup(&mut e);
    let s = e.sim_node(server).unwrap();
    let ch = e
        .open_channel(client, iref.interface, ChannelConfig::default())
        .unwrap();
    let breaker = ChannelConfig {
        breaker: Some(BreakerConfig::default()),
        ..ChannelConfig::default()
    };
    let guarded = e.open_channel(client, iref.interface, breaker).unwrap();
    let round_trip = ["channel_hop", "marshal", "channel_hop", "marshal"];
    let shape =
        |start: &str, end: &str, within: &[&str], children: &[&str], counters, samples| SpanShape {
            start: start.to_owned(),
            end: end.to_owned(),
            within: within.iter().map(|k| k.to_string()).collect(),
            children: children.iter().map(|k| k.to_string()).collect(),
            counters: Vec::from(counters),
            call_us_samples: samples,
        };

    // Blocking, answered.
    let answered = shape_of(|| {
        e.call(ch, "Add", &add_args(1)).unwrap();
    });
    let expected = shape(
        "op=Add",
        "op=Add -> OK",
        &round_trip,
        &["send"],
        [1, 0, 0, 0, 0],
        1,
    );
    assert_eq!(answered, expected);

    // Blocking, timed out: the server is down.
    e.sim_mut().topology_mut().crash(s);
    let timed_out = shape_of(|| {
        e.call(ch, "Add", &add_args(1)).unwrap_err();
    });
    let expected = shape(
        "op=Add",
        "op=Add -> error: no reply after 1 attempt(s)",
        &round_trip[..2],
        &["send"],
        [1, 1, 0, 0, 0],
        1,
    );
    assert_eq!(timed_out, expected);

    // Three timeouts open the breaker; the next call fails fast, without
    // touching the network.
    for _ in 0..3 {
        e.call(guarded, "Add", &add_args(1)).unwrap_err();
    }
    let fast_fail = shape_of(|| {
        e.call(guarded, "Add", &add_args(1)).unwrap_err();
    });
    let open_until = e.now() + BreakerConfig::default().cooldown;
    let expected = shape(
        "op=Add",
        &format!(
            "op=Add -> error: circuit breaker open (next probe at {}us)",
            open_until.as_micros()
        ),
        &[],
        &[],
        [1, 1, 0, 0, 1],
        1,
    );
    assert_eq!(fast_fail, expected);

    // Asynchronous, collected: the same shape as a blocking answer.
    e.sim_mut().topology_mut().restart(s);
    let collected = shape_of(|| {
        let request = e.call_send(ch, "Add", &add_args(1)).unwrap();
        e.run_until_idle();
        let (_, outcome) = e.take_reply(request).unwrap();
        outcome.unwrap();
    });
    assert_eq!(collected, answered);
}
