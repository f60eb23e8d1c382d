//! The kernel/invocation mechanisms suite behind `BENCH_mechanisms.json`.
//!
//! [`run_suite`] measures the machinery PR 5 unified: the total order
//! of the one deterministic event queue, and the allocation profile of
//! the invocation hot path now that payloads are shared buffers; then
//! five curves, the shapes the paper's figures claim, whose points are
//! all metered by `point`. It returns the full `BENCH_mechanisms.json`
//! document (schema
//! `rmodp-bench-mechanisms/2`, documented in `EXPERIMENTS.md`).
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
use rmodp_core::id::{CapsuleId, ChannelId, InterfaceId, NodeId, TxId};
use rmodp_core::value::Value;
use rmodp_engineering::behaviour::CounterBehaviour;
use rmodp_engineering::channel::{ChannelConfig, RetryPolicy};
use rmodp_engineering::engine::Engine;
use rmodp_functions::checkpoints;
use rmodp_functions::storage::{PersistentStore, StorageFunction};
use rmodp_kernel::{EventQueue, KernelRng, SimTime, PAYLOAD_ALLOCS, PAYLOAD_COPIES};
use rmodp_netsim::{Addr, LinkConfig, Sim, SimDuration, Topology};
use rmodp_observe::bus;
use rmodp_observe::json::ToJson;
use rmodp_observe::metrics::Registry;
use rmodp_observe::{json, json_into};
use rmodp_trader::{Federation, ImportRequest};
use rmodp_transactions::twopc::{Coordinator, Participant, TxRequest};
use rmodp_transparency::proxy::{migrate_transparently, OdpInfra};
use rmodp_transparency::replication::quorum_counters;
use rmodp_transparency::{Transparency, TransparencySet, TransparentProxy};

use crate::{add_one, counter_rig, open};

/// Runs `f` against a clean bus with recording forced on and returns its
/// result together with the metrics registry it filled. The bus is cleared
/// again afterwards (recording returns to its prior setting), so one
/// capture never counts into the next. Constructing a `Sim`/`Engine`
/// resets the bus: one built inside `f` loses what was recorded before it.
fn capture_metrics<T>(f: impl FnOnce() -> T) -> (T, Registry) {
    bus::reset();
    let was_enabled = bus::is_enabled();
    bus::set_enabled(true);
    let out = f();
    let registry = bus::snapshot_metrics();
    bus::set_enabled(was_enabled);
    bus::reset();
    (out, registry)
}

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
        add_calls(&mut rig.engine, channel, CALLS);
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
        add_calls(&mut rig.engine, channel, CALLS);
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
        let mut engine = Engine::new(seed);
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

/// What one point of a curve cost: frames sent (`netsim.sent`), payload bytes
/// delivered, payload buffers allocated and copied, retries, virtual time.
struct Cost {
    frames: u64,
    wire_bytes: u64,
    payload_allocs: u64,
    payload_copies: u64,
    retries: u64,
    virtual_us: u64,
}

impl ToJson for Cost {
    fn write_json(&self, out: &mut String) {
        json_into!(out, {
            "frames": self.frames, "wire_bytes": self.wire_bytes,
            "payload_allocs": self.payload_allocs, "payload_copies": self.payload_copies,
            "retries": self.retries, "virtual_us": self.virtual_us,
        });
    }
}

/// Runs `step` on `world` as one point of a curve, with the bus recording.
/// `sim` reads the simulator under `world` (none under in-process traders).
/// No point may deep-copy a payload.
fn point<W, T>(
    world: &mut W,
    sim: Option<fn(&W) -> &Sim>,
    step: impl FnOnce(&mut W) -> T,
) -> (Cost, T) {
    let read = |w: &W| sim.map(|s| (s(w).metrics().bytes_delivered, s(w).now()));
    let (bytes, then) = read(world).unwrap_or_default();
    let (out, registry) = capture_metrics(|| step(world));
    let (bytes_after, now) = read(world).unwrap_or_default();
    let cost = Cost {
        frames: registry.counter("netsim.sent"),
        wire_bytes: bytes_after - bytes,
        payload_allocs: registry.counter(PAYLOAD_ALLOCS),
        payload_copies: registry.counter(PAYLOAD_COPIES),
        retries: registry.counter("engineering.retries"),
        virtual_us: now.since(then).as_micros(),
    };
    assert_eq!(cost.payload_copies, 0, "a point deep-copied a payload");
    (cost, out)
}

/// `n` `Add` calls on a channel, each answered.
fn add_calls(engine: &mut Engine, channel: ChannelId, n: u64) {
    for _ in 0..n {
        let t = engine.call(channel, "Add", &add_one());
        assert!(t.expect("the channel answers").is_ok());
    }
}

/// The calls a steady-state point of a curve makes.
const STEADY_CALLS: u64 = 100;

/// [`STEADY_CALLS`] calls on a fresh rig's channel of `config`, as a point.
fn channel_point(seed: u64, config: ChannelConfig) -> Cost {
    let mut rig = counter_rig(seed, SyntaxId::Binary);
    let channel = open(&mut rig, config);
    let calls = |engine: &mut Engine| add_calls(engine, channel, STEADY_CALLS);
    point(&mut rig.engine, Some(Engine::sim), calls).0
}

/// A capsule on a new node: where a part migrates a cluster to.
fn fresh_capsule(engine: &mut Engine) -> (NodeId, CapsuleId) {
    let node = engine.add_node(SyntaxId::Binary);
    (node, engine.add_capsule(node).expect("fresh node"))
}

/// Part 5, Figure 4: a call as the channel gains marshalling stubs
/// (binary client, text wire), sequence binders, then audit stubs.
fn channel_ablation(seed: u64) -> impl ToJson {
    let (binary, text) = (SyntaxId::Binary, SyntaxId::Text);
    let layer = |wire_syntax, sequence, audit| ChannelConfig {
        wire_syntax,
        sequence,
        audit,
        ..ChannelConfig::default()
    };
    let points = [
        ("bare", layer(binary, false, false)),
        ("marshalling", layer(text, false, false)),
        ("marshalling+sequence", layer(text, true, false)),
        ("marshalling+sequence+audit", layer(text, true, true)),
    ]
    .map(|(layers, config)| (layers, channel_point(seed, config)));
    json::from_fn(move |out| {
        json_into!(out, [for (layers, cost) in &points => {
            "layers": layers, "calls": STEADY_CALLS, "cost": cost,
        }])
    })
}

/// Part 6, Figure 5 and §6.2: migrating a cluster as it grows. The
/// cluster is the unit of migration; what moves is its checkpoint, whose
/// stored length grows with the objects in it.
fn migration(seed: u64) -> impl ToJson {
    let points = [1usize, 8, 32].map(|objects| {
        let mut rig = counter_rig(seed, SyntaxId::Binary);
        let (node, capsule, cluster) = rig.home;
        let engine = &mut rig.engine;
        for _ in 1..objects {
            let state = CounterBehaviour::initial_state();
            let made = engine.create_object(node, capsule, cluster, "counter", "counter", state, 1);
            made.expect("live cluster");
        }
        let mut storage = StorageFunction::default();
        let checkpoint = engine.checkpoint_cluster(node, capsule, cluster);
        checkpoints::store(&mut storage, "cluster", &checkpoint.expect("live cluster"));
        let checkpoint_bytes = storage.fetch("cluster").expect("just stored").len();
        let (to_node, to_capsule) = fresh_capsule(engine);
        let (cost, moved) = point(engine, Some(Engine::sim), |engine| {
            engine.migrate_cluster(node, capsule, cluster, to_node, to_capsule)
        });
        moved.expect("a fresh capsule takes the cluster");
        (objects, checkpoint_bytes, cost)
    });
    let grows = points.windows(2).all(|w| w[0].1 < w[1].1);
    assert!(grows, "a larger cluster's checkpoint is longer");
    json::from_fn(move |out| {
        json_into!(out, [for (objects, checkpoint_bytes, cost) in &points => {
            "objects": objects, "checkpoint_bytes": checkpoint_bytes, "cost": cost,
        }])
    })
}

/// Part 7, E3: a federated import as it crosses traders: five traders
/// of 200 printer offers, linked in a chain, and an import at the first
/// that follows the links up to 0, 2 and 4 hops.
fn federation() -> impl ToJson {
    let mut federation = Federation::new();
    for t in 0..5 {
        let name = format!("t{t}");
        federation.add_trader(&name).expect("fresh name");
        let trader = federation.trader_mut(&name).expect("just added");
        for o in 0..200 {
            let properties = Value::record([("ppm", Value::Int(o as i64 % 90 + 10))]);
            let id = InterfaceId::new(t * 200 + o + 1);
            trader.export("Printer", id, properties).expect("a record");
        }
        if t > 0 {
            let previous = format!("t{}", t - 1);
            federation.link(&previous, &name).expect("both exist");
        }
    }
    let request = ImportRequest::new("Printer").constraint("ppm >= 70");
    let request = request.expect("a valid constraint");
    let points = [0usize, 2, 4].map(|hops| {
        let (cost, (reached, matches)) = point(&mut federation, None, |federation| {
            let matches = federation.import_federated("t0", &request, None, hops);
            let reached = bus::counter("trader.federation_hops");
            (reached, matches.expect("t0 exists").len())
        });
        assert_eq!(reached, hops as u64, "each hop reaches one more trader");
        (hops, reached, matches, cost)
    });
    let no_fewer = points.windows(2).all(|w| w[0].2 <= w[1].2);
    assert!(no_fewer, "reaching more traders finds no fewer matches");
    json::from_fn(move |out| {
        json_into!(out, [for (hops, reached, matches, cost) in &points => {
            "hops": hops, "federation_hops": reached, "matches": matches, "cost": cost,
        }])
    })
}

/// Part 8, E4: one distributed 2PC round (prepare, votes, decision,
/// acknowledgements) as participants join, one write each, over 1 ms
/// links.
fn two_phase_commit(seed: u64) -> impl ToJson {
    let points = [2usize, 4, 8].map(|participants| {
        let link = LinkConfig::with_latency(SimDuration::from_millis(1));
        let mut sim = Sim::with_topology(seed, Topology::full_mesh(link));
        let coordinator = Addr::new(sim.add_node(), 0);
        let mut members = Vec::new();
        for i in 0..participants {
            members.push(Addr::new(sim.add_node(), 0));
            sim.attach(members[i], Participant::new(format!("rm{i}")));
        }
        let retry_after = SimDuration::from_millis(50);
        sim.attach(coordinator, Coordinator::new(members, retry_after, 3));
        let writes = (0..participants).map(|p| (p, "x".to_owned(), Value::Int(1)));
        let writes = writes.collect();
        let submit = Coordinator::submit_payload(TxId::new(1), &TxRequest { writes });
        let (cost, commits) = point(&mut sim, Some(|sim| sim), |sim| {
            sim.send_from(Addr::EXTERNAL, coordinator, submit);
            sim.run_until_idle();
            bus::counter("transactions.commits")
        });
        assert_eq!(commits, 1, "a clean network commits the round");
        (participants, cost)
    });
    let grows = points.windows(2).all(|w| w[0].1.frames < w[1].1.frames);
    assert!(grows, "a round with more participants sends more frames");
    json::from_fn(move |out| {
        json_into!(out, [for (participants, cost) in &points => {
            "participants": participants, "cost": cost,
        }])
    })
}

/// [`STEADY_CALLS`] calls through a proxy of `selection`, as a point; or,
/// with `migrate`, a migration of the target and the one call after it.
/// The proxy's first call, which opens its channel, precedes the point.
fn proxy_point(seed: u64, selection: TransparencySet, migrate: bool) -> Cost {
    let mut rig = counter_rig(seed, SyntaxId::Binary);
    let mut infra = OdpInfra::new();
    infra.publish(&rig.engine, rig.interface).expect("live");
    let mut proxy = TransparentProxy::new(rig.client, rig.interface, selection);
    let mut call = |engine: &mut Engine, infra: &mut OdpInfra| {
        let t = proxy.call(engine, infra, "Add", &add_one());
        assert!(t.expect("the proxy masks what happens").is_ok());
    };
    call(&mut rig.engine, &mut infra);
    let (home, interface) = (rig.home, rig.interface);
    let to = migrate.then(|| fresh_capsule(&mut rig.engine));
    let calls = if migrate { 1 } else { STEADY_CALLS };
    let (cost, ()) = point(&mut rig.engine, Some(Engine::sim), |engine| {
        if let Some(to) = to {
            migrate_transparently(engine, &mut infra, home, to, &[interface])
                .expect("a fresh capsule takes the cluster");
        }
        (0..calls).for_each(|_| call(engine, &mut infra));
    });
    cost
}

/// Part 9, E5 and §9.2: a steady-state call as transparencies accrue —
/// the bare channel, then the proxy with access, access and relocation,
/// and all eight — and one relocation masked: a migration and the call
/// after it (stale detection, relocator requery, reconnect, replay).
fn transparencies(seed: u64) -> impl ToJson {
    let access = TransparencySet::none().with(Transparency::Access);
    let relocation = access.clone().with(Transparency::Relocation);
    let bare = channel_point(seed, ChannelConfig::default());
    let steady = [
        ("bare_channel", bare),
        ("access_only", proxy_point(seed, access, false)),
        (
            "plus_relocation",
            proxy_point(seed, relocation.clone(), false),
        ),
        (
            "all_eight",
            proxy_point(seed, TransparencySet::all(), false),
        ),
    ];
    let frames = steady[0].1.frames;
    let flat = steady.iter().all(|(_, cost)| cost.frames == frames);
    assert!(flat, "transparencies are paid at event time, not per call");
    let masked = proxy_point(seed, relocation, true);
    let dearer = masked.frames > frames / STEADY_CALLS;
    assert!(dearer, "a masked call costs more frames than a steady one");
    let steady = steady.map(|(selection, cost)| (selection, STEADY_CALLS, cost));
    let mut points = Vec::from(steady);
    points.push(("migrate_then_masked_call", 1, masked));
    json::from_fn(move |out| {
        json_into!(out, [for (selection, calls, cost) in &points => {
            "selection": selection, "calls": calls, "cost": cost,
        }])
    })
}

/// Runs all nine parts at the given base seed, from which they derive
/// their rig seeds, and returns the `BENCH_mechanisms.json` document.
///
/// # Panics
///
/// If the queue misorders events, any payload deep-copy is observed
/// on a hot path, or a curve loses the shape its figure claims.
pub fn run_suite(seed: u64) -> String {
    let kernel = kernel_queue(seed);
    let invocation = invocation(seed.wrapping_mul(100) + 1);
    let retransmission = retransmission(seed.wrapping_mul(100) + 2);
    let replication = replication(seed.wrapping_mul(100) + 3);
    let channel_ablation = channel_ablation(seed.wrapping_mul(100) + 4);
    let migration = migration(seed.wrapping_mul(100) + 5);
    let federation = federation();
    let two_phase_commit = two_phase_commit(seed.wrapping_mul(100) + 7);
    let transparencies = transparencies(seed.wrapping_mul(100) + 8);

    json!({
        "schema": "rmodp-bench-mechanisms/2",
        "kernel": kernel,
        "invocation": invocation,
        "retransmission": retransmission,
        "replication": replication,
        "channel_ablation": channel_ablation,
        "migration": migration,
        "federation": federation,
        "two_phase_commit": two_phase_commit,
        "transparencies": transparencies,
    }) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_reports_fired_mechanisms() {
        let (_, registry) = capture_metrics(|| {
            let mut rig = counter_rig(1, SyntaxId::Binary);
            let ch = open(&mut rig, ChannelConfig::default());
            rig.engine.call(ch, "Add", &add_one()).unwrap();
        });
        assert!(registry.counter("engineering.calls") >= 1);
        assert!(registry.counter("netsim.sent") >= 1);
    }

    #[test]
    fn capture_leaves_bus_state_as_it_found_it() {
        bus::set_enabled(false);
        let (_, registry) = capture_metrics(|| bus::counter_add("probe", 1));
        assert_eq!(
            registry.counter("probe"),
            1,
            "recording is on inside capture"
        );
        assert!(!bus::is_enabled(), "prior setting restored");
        bus::set_enabled(true);
    }

    #[test]
    fn a_point_reads_the_simulator_around_its_step_only() {
        let mut rig = counter_rig(1, SyntaxId::Binary);
        let channel = open(&mut rig, ChannelConfig::default());
        add_calls(&mut rig.engine, channel, 3);
        let (cost, ()) = point(&mut rig.engine, Some(Engine::sim), |engine| {
            add_calls(engine, channel, 2)
        });
        assert_eq!((cost.frames, cost.retries, cost.payload_copies), (4, 0, 0));
        let per_call = rig.engine.sim().metrics().bytes_delivered / 5;
        assert_eq!(cost.wire_bytes, 2 * per_call, "two calls' bytes, not five");
        assert_eq!(cost.virtual_us, 2 * rig.engine.now().as_micros() / 5);
        // A world with no simulator moves no bytes and no clock.
        let (cost, n) = point(&mut 7u64, None, |n| *n + 1);
        assert_eq!(
            (n, cost.frames, cost.wire_bytes, cost.virtual_us),
            (8, 0, 0, 0)
        );
    }
}
