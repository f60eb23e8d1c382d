//! End-to-end quorum failover invariants: a replicated group survives
//! a leader kill with automatic detector-driven failover, a stale
//! front is fenced rather than allowed to split the brain, and the
//! chaos-crate consistency oracle — which audits only the observe
//! event stream — proves at most one leader per epoch, zero committed
//! updates lost, and committed-only reads. A sustained-load test pins
//! the engineering dedup cache to a tiny capacity and demands
//! at-most-once execution *across* evictions.

use rmodp::chaos::prelude::{verify_consistency, ToJson, Verdict};
use rmodp::core::codec::SyntaxId;
use rmodp::core::id::InterfaceId;
use rmodp::core::value::Value;
use rmodp::engineering::behaviour::CounterBehaviour;
use rmodp::engineering::channel::{ChannelConfig, RetryPolicy};
use rmodp::engineering::engine::Engine;
use rmodp::functions::FailureDetector;
use rmodp::observe::bus;
use rmodp::transparency::replication::{quorum_counters, ReplicatedService, ReplicationError};
use rmodp::transparency::OdpInfra;

fn sim_idx(engine: &Engine, replica: InterfaceId) -> rmodp::netsim::sim::NodeIdx {
    let node = engine.lookup(replica).unwrap().location.node;
    engine.sim_node(node).unwrap()
}

/// One seeded leader-kill + stale-front schedule. Returns the oracle's
/// JSON verdict plus the counters a determinism check can compare.
fn quorum_schedule(seed: u64) -> String {
    let mut engine = Engine::new(seed);
    let client = engine.add_node(SyntaxId::Binary);
    let mut infra = OdpInfra::new();
    let (mut svc, replicas) = quorum_counters(&mut engine, &mut infra, client, 5).unwrap();
    let monitor = engine.add_node(SyntaxId::Binary);
    let mut detector = FailureDetector::new(monitor);
    for r in &replicas {
        detector.watch(*r);
    }

    for k in 1..=4 {
        svc.quorum_update(&mut engine, &mut infra, k).unwrap();
    }

    // Kill the leader; the detector must reach suspicion on virtual
    // time before the election is even attempted.
    let view = infra.groups.view(svc.group()).unwrap();
    let leader = view.leader.unwrap();
    let leader_idx = sim_idx(&engine, leader);
    engine.sim_mut().topology_mut().crash(leader_idx);
    let mut rounds = 0;
    while !detector.is_suspected(leader) {
        detector.run_round(&mut engine);
        rounds += 1;
        assert!(rounds <= 8, "detector never suspected the dead leader");
    }
    svc.fail_over(&mut engine, &mut infra).unwrap();
    let t = svc.quorum_read(&mut engine, &mut infra).unwrap();
    assert_eq!(
        t.results.field("n"),
        Some(&Value::Int(10)),
        "every committed update survived the failover"
    );
    for k in 5..=6 {
        svc.quorum_update(&mut engine, &mut infra, k).unwrap();
    }

    // A takeover front elects a newer epoch; the old front must be
    // fenced by the replicas on its next write.
    let mut front2 =
        ReplicatedService::attach(&mut engine, &mut infra, client, svc.group()).unwrap();
    match svc.quorum_update(&mut engine, &mut infra, 100) {
        Err(ReplicationError::Fenced { epoch, newer }) => assert!(newer > epoch),
        other => panic!("stale front must be fenced, got {other:?}"),
    }
    front2.quorum_update(&mut engine, &mut infra, 7).unwrap();
    let t = front2.quorum_read(&mut engine, &mut infra).unwrap();
    assert_eq!(
        t.results.field("n"),
        Some(&Value::Int(28)),
        "the fenced write was never committed"
    );

    let oracle = verify_consistency(&bus::snapshot_events());
    oracle.assert_clean("the consistency oracle");
    assert!(oracle.fenced_writes() > 0, "the schedule exercised fencing");
    assert_eq!(oracle.split_brain(), 0, "at most one leader per epoch");
    assert_eq!(oracle.lost_committed(), 0, "no committed update was lost");

    format!(
        "{}|suspects={}|failovers={}|events={}",
        oracle.to_json(),
        bus::counter("detector.suspects"),
        bus::counter("replication.failovers"),
        bus::snapshot_events().len()
    )
}

#[test]
fn leader_kill_fails_over_and_the_oracle_stays_clean() {
    quorum_schedule(91);
}

#[test]
fn failover_schedule_is_deterministic() {
    assert_eq!(
        quorum_schedule(92),
        quorum_schedule(92),
        "same seed must reproduce the same oracle verdict, counters, and event count"
    );
}

#[test]
fn dedup_cache_sustains_load_within_a_bounded_footprint() {
    let run = |seed: u64| -> (usize, u64, u64, i64) {
        let mut engine = Engine::new(seed);
        engine
            .behaviours_mut()
            .register("counter", CounterBehaviour::default);
        let server = engine.add_node(SyntaxId::Binary);
        let client = engine.add_node(SyntaxId::Binary);
        let capsule = engine.add_capsule(server).unwrap();
        let cluster = engine.add_cluster(server, capsule).unwrap();
        let (_, refs) = engine
            .create_object(
                server,
                capsule,
                cluster,
                "c",
                "counter",
                CounterBehaviour::initial_state(),
                1,
            )
            .unwrap();
        // A tiny cache: sustained load must evict constantly while the
        // at-most-once guarantee holds for every *live* retransmission.
        engine.nucleus_mut(server).unwrap().set_dedup_capacity(4);
        let channel = engine
            .open_channel(
                client,
                refs[0].interface,
                ChannelConfig {
                    retry: Some(RetryPolicy::reliable()),
                    ..ChannelConfig::default()
                },
            )
            .unwrap();

        // Drop most replies for the whole run: requests execute, their
        // replies vanish, and every retransmission arrives as a genuine
        // duplicate the cache must absorb — at a capacity far below the
        // number of in-flight-ever requests.
        let server_idx = engine.sim_node(server).unwrap();
        let client_idx = engine.sim_node(client).unwrap();
        let healthy = engine.sim().topology().link(server_idx, client_idx);
        engine.sim_mut().topology_mut().set_link(
            server_idx,
            client_idx,
            rmodp::netsim::topology::LinkConfig {
                loss: 0.5,
                ..healthy
            },
        );

        for i in 0..60u64 {
            let _ = engine.call(channel, "Add", &Value::record([("k", Value::Int(1))]));
            // The cache never outgrows its capacity, at any point in
            // the sustained stream.
            let len = engine.nucleus(server).unwrap().dedup_len();
            assert!(len <= 4, "call {i}: dedup cache grew to {len}");
        }
        engine
            .sim_mut()
            .topology_mut()
            .set_link(server_idx, client_idx, healthy);
        let t = engine
            .call(channel, "Get", &Value::record::<&str, _>([]))
            .unwrap();
        let n = t.results.field("n").and_then(Value::as_int).unwrap();

        let hits = bus::counter("engineering.dedup.hits");
        let dupes = bus::counter("engineering.dedup.duplicate_dispatches");
        (engine.nucleus(server).unwrap().dedup_len(), hits, dupes, n)
    };

    let (len, hits, dupes, n) = run(17);
    assert!(len <= 4);
    assert!(hits > 0, "reply loss must have forced duplicate arrivals");
    assert_eq!(
        dupes, 0,
        "at-most-once must hold across evictions: an evicted entry is only \
         re-dispatched when its call already left the retry loop"
    );
    assert!(
        (1..=60).contains(&n),
        "applied count stays within the offered load: {n}"
    );

    // Eviction order and counters are deterministic for a given seed.
    assert_eq!(run(17), (len, hits, dupes, n));
}
