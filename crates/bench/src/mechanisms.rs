//! The kernel/invocation mechanisms suite behind `BENCH_mechanisms.json`.
//!
//! [`run_suite`] measures the machinery PR 5 unified: the total order
//! of the one deterministic event queue, and the allocation profile of
//! the invocation hot path now that payloads are shared buffers. It
//! returns the full `BENCH_mechanisms.json` document (schema
//! `rmodp-bench-mechanisms/1`, documented in `EXPERIMENTS.md`).
//!
//! Every number in the document is derived from virtual time, event
//! counts, or the metered payload counters, and nothing here reads a
//! host clock, so the suite is a pure function of its seed (what the
//! queue costs in wall-clock time is `benchmark/`'s
//! `kernel.queue.schedule_pop_ns`). Alongside each measured counter the
//! document records the *naive* cost model of the pre-kernel code
//! (marshal once per attempt, deep-copy once per delivery, encode once
//! per replica), so the before/after saving is part of the artifact.

use rmodp_core::codec::SyntaxId;
use rmodp_core::value::Value;
use rmodp_engineering::channel::{ChannelConfig, RetryPolicy};
use rmodp_kernel::{EventQueue, KernelRng, SimTime, PAYLOAD_ALLOCS, PAYLOAD_COPIES};
use rmodp_netsim::topology::LinkConfig;
use rmodp_observe::json::ToJson;
use rmodp_observe::{json, json_into};
use rmodp_transparency::proxy::OdpInfra;
use rmodp_transparency::replication::quorum_counters;

use crate::capture::capture_metrics;
use crate::{add_one, counter_rig, open};

/// Part 1: the kernel's event queue. `N` entries at seeded
/// pseudo-random timestamps go in; they must come out in total
/// `(time, seq)` order. The order checksum (a fold over the pop
/// sequence) lands in the document.
fn kernel_queue(seed: u64) -> impl ToJson {
    use rand::Rng;

    const EVENTS: u64 = 200_000;
    let mut rng = KernelRng::seeded(seed);
    let mut queue = EventQueue::new();
    for i in 0..EVENTS {
        // Timestamps collide often (modulus far below N) so the FIFO
        // tie-break is exercised, not just the time ordering.
        let at = SimTime::from_micros(rng.gen_range(0..EVENTS / 4));
        queue.schedule(at, i);
    }
    let mut last = SimTime::ZERO;
    let mut popped = 0u64;
    let mut checksum = 0u64;
    while let Some((at, item)) = queue.pop() {
        assert!(at >= last, "event queue went backwards");
        last = at;
        checksum = checksum
            .wrapping_mul(31)
            .wrapping_add(at.as_micros())
            .wrapping_add(item);
        popped += 1;
    }
    assert_eq!(popped, EVENTS);
    println!("kernel-queue: {EVENTS} schedule+pop pairs, order checksum {checksum}");

    json::from_fn(move |out| json_into!(out, {"events": EVENTS, "order_checksum": checksum}))
}

/// Part 2: the uncontended invocation path. Under the old code every
/// delivered envelope was parsed with a deep payload copy; now parsing
/// slices the delivered frame, so the copy counter must read zero.
fn invocation(seed: u64) -> impl ToJson {
    const CALLS: u64 = 500;
    let ((), registry) = capture_metrics(|| {
        let mut rig = counter_rig(seed, SyntaxId::Text);
        let channel = open(&mut rig, ChannelConfig::default());
        for _ in 0..CALLS {
            let t = rig
                .engine
                .call(channel, "Add", &add_one())
                .expect("clean network");
            assert!(t.is_ok());
        }
    });
    let calls = registry.counter("engineering.calls");
    let sent = registry.counter("netsim.sent");
    let delivered = registry.counter("netsim.delivered");
    let allocs = registry.counter(PAYLOAD_ALLOCS);
    let copies = registry.counter(PAYLOAD_COPIES);
    assert_eq!(calls, CALLS);
    assert_eq!(copies, 0, "invocation hot path must not deep-copy payloads");
    println!(
        "invocation: calls={calls} sent={sent} delivered={delivered} payload_allocs={allocs} payload_copies={copies}"
    );

    // The pre-kernel parse path copied every delivered payload.
    json::from_fn(move |out| {
        json_into!(out, {
            "calls": calls,
            "messages_sent": sent,
            "messages_delivered": delivered,
            "payload_allocs": allocs,
            "payload_copies": copies,
            "naive_parse_copies": delivered,
        })
    })
}

/// Part 3: retransmission under loss. Reliable calls over a lossy link
/// retransmit; each retransmission reuses the marshalled frame (an
/// `Arc` clone), so payload allocations must not scale with retries —
/// where the old code re-marshalled once per attempt.
fn retransmission(seed: u64) -> impl ToJson {
    const CALLS: u64 = 200;
    let ((), registry) = capture_metrics(|| {
        let mut rig = counter_rig(seed, SyntaxId::Text);
        let client = rig.engine.sim_node(rig.client).expect("client exists");
        let server = rig.engine.sim_node(rig.server).expect("server exists");
        let before = rig.engine.sim().topology().link(client, server);
        let lossy = LinkConfig {
            loss: 0.3,
            ..before
        };
        let topo = rig.engine.sim_mut().topology_mut();
        topo.set_link(client, server, lossy);
        topo.set_link(server, client, lossy);
        let channel = open(
            &mut rig,
            ChannelConfig {
                retry: Some(RetryPolicy::reliable()),
                ..ChannelConfig::default()
            },
        );
        for _ in 0..CALLS {
            let t = rig
                .engine
                .call(channel, "Add", &add_one())
                .expect("reliable channel");
            assert!(t.is_ok());
        }
    });
    let calls = registry.counter("engineering.calls");
    let retries = registry.counter("engineering.retries");
    let dedup_hits = registry.counter("engineering.dedup.hits");
    let duplicate_dispatches = registry.counter("engineering.dedup.duplicate_dispatches");
    let frames_sent = registry.counter("netsim.sent");
    let allocs = registry.counter(PAYLOAD_ALLOCS);
    let copies = registry.counter(PAYLOAD_COPIES);
    assert_eq!(calls, CALLS);
    assert!(retries > 0, "30% loss must force retransmissions");
    assert_eq!(
        copies, 0,
        "retransmissions must share the frame, not copy it"
    );
    assert_eq!(
        duplicate_dispatches, 0,
        "dedup must absorb duplicate arrivals"
    );
    // Frame reuse: the old path marshalled once per attempt, so its
    // marshal count was calls + retries. The shared-frame path allocates
    // independently of the retry count — with fewer total allocations
    // than the naive model's marshal ops alone would cost.
    let naive_marshal_ops = calls + retries;
    println!(
        "retransmission: calls={calls} retries={retries} dedup_hits={dedup_hits} frames_sent={frames_sent} payload_allocs={allocs} payload_copies={copies}"
    );

    json::from_fn(move |out| {
        json_into!(out, {
            "calls": calls,
            "retries": retries,
            "dedup_hits": dedup_hits,
            "duplicate_dispatches": duplicate_dispatches,
            "frames_sent": frames_sent,
            "payload_allocs": allocs,
            "payload_copies": copies,
            "naive_marshal_ops": naive_marshal_ops,
        })
    })
}

/// Part 4: replication fan-out. One update to a quorum group marshals
/// its `Apply` once and shares it across every replica — the old path
/// re-encoded the arguments per replica.
fn replication(seed: u64) -> impl ToJson {
    const REPLICAS: usize = 5;
    const UPDATES: u64 = 20;
    let ((), registry) = capture_metrics(|| {
        let mut engine = rmodp_engineering::engine::Engine::new(seed);
        let client = engine.add_node(SyntaxId::Binary);
        let mut infra = OdpInfra::new();
        let (mut svc, _) =
            quorum_counters(&mut engine, &mut infra, client, REPLICAS).expect("fresh replicas");
        for _ in 0..UPDATES {
            svc.quorum_update(&mut engine, &mut infra, 1)
                .expect("all replicas live");
        }
        let t = svc
            .quorum_read(&mut engine, &mut infra)
            .expect("the leader is live");
        assert_eq!(t.results.field("n"), Some(&Value::Int(UPDATES as i64)));
    });
    let updates = registry.counter("transparency.replica_updates");
    let calls = registry.counter("engineering.calls");
    let allocs = registry.counter(PAYLOAD_ALLOCS);
    let copies = registry.counter(PAYLOAD_COPIES);
    assert_eq!(updates, UPDATES);
    assert_eq!(copies, 0, "fan-out must share the prepared invocation");
    // Old path: arguments encoded once per replica per update. New path:
    // once per update, shared across the group.
    let naive_encodes = UPDATES * REPLICAS as u64;
    println!(
        "replication: updates={updates} replicas={REPLICAS} calls={calls} payload_allocs={allocs} payload_copies={copies}"
    );

    json::from_fn(move |out| {
        json_into!(out, {
            "replicas": REPLICAS,
            "updates": updates,
            "calls": calls,
            "payload_allocs": allocs,
            "payload_copies": copies,
            "invocation_encodes": updates,
            "naive_invocation_encodes": naive_encodes,
        })
    })
}

/// Runs all four parts at the given base seed, from which they derive
/// their rig seeds, and returns the `BENCH_mechanisms.json` document.
///
/// # Panics
///
/// If the queue misorders events or any payload deep-copy is observed
/// on a hot path.
pub fn run_suite(seed: u64) -> String {
    let kernel = kernel_queue(seed);
    let invocation = invocation(seed.wrapping_mul(100) + 1);
    let retransmission = retransmission(seed.wrapping_mul(100) + 2);
    let replication = replication(seed.wrapping_mul(100) + 3);

    json!({
        "schema": "rmodp-bench-mechanisms/1",
        "kernel": kernel,
        "invocation": invocation,
        "retransmission": retransmission,
        "replication": replication,
    }) + "\n"
}
