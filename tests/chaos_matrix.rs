//! Chaos determinism and safety: the same seed must produce the same
//! fault plan and the same observe trace, and the hardened invocation
//! path must keep its safety invariants while faults are in flight.

use rmodp::chaos::prelude::*;
use rmodp::core::codec::{syntax_for, SyntaxId};
use rmodp::core::id::{ChannelId, NodeId, TxId};
use rmodp::core::value::Value;
use rmodp::engineering::behaviour::CounterBehaviour;
use rmodp::engineering::channel::{ChannelConfig, RetryPolicy};
use rmodp::engineering::engine::Engine;
use rmodp::functions::StorageFunction;
use rmodp::netsim::sim::{Addr, NodeIdx, Sim};
use rmodp::netsim::time::SimDuration;
use rmodp::netsim::topology::{LinkConfig, Topology};
use rmodp::observe::{bus, export, EventKind};
use rmodp::store::{MemMedia, PersistentStore, StableMedia, StoreConfig, StoreEngine};
use rmodp::transactions::twopc::{Coordinator, Participant, TxOutcome, TxRequest};
use rmodp::transparency::failure::{FailureError, FailureGuard};
use rmodp::transparency::{OdpInfra, Transparency, TransparencySet, TransparentProxy};
use rmodp::workload::prelude::*;

fn profile() -> ChaosProfile {
    ChaosProfile {
        servers: vec![NodeIdx(0)],
        client: NodeIdx(1),
        duration: SimDuration::from_secs(1),
        crashes: 1,
        partitions: 1,
        loss_bursts: 1,
        latency_spikes: 1,
        mean_downtime: SimDuration::from_millis(50),
    }
}

#[test]
fn same_seed_same_fault_plan() {
    // Property over a seed sweep: plan generation is a pure function of
    // (seed, profile), and nearby seeds do not collide.
    let mut descriptions = Vec::new();
    for seed in 0..32u64 {
        let a = FaultPlan::generate(seed, &profile());
        let b = FaultPlan::generate(seed, &profile());
        assert_eq!(a, b, "seed {seed} produced two different plans");
        assert_eq!(a.describe(), b.describe());
        descriptions.push(a.describe());
    }
    descriptions.dedup();
    assert!(
        descriptions.len() > 16,
        "seed sweep collapsed to {} distinct plans",
        descriptions.len()
    );
}

/// A counter object on node 0 (the server) and a channel to it from
/// node 1 (the client).
fn counter_world(
    seed: u64,
    client_syntax: SyntaxId,
    config: ChannelConfig,
) -> (Engine, NodeId, NodeId, ChannelId) {
    let mut engine = Engine::new(seed);
    engine
        .behaviours_mut()
        .register("counter", CounterBehaviour::default);
    let server = engine.add_node(SyntaxId::Binary);
    let client = engine.add_node(client_syntax);
    let capsule = engine.add_capsule(server).unwrap();
    let cluster = engine.add_cluster(server, capsule).unwrap();
    let (_obj, refs) = engine
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
    let channel = engine
        .open_channel(client, refs[0].interface, config)
        .unwrap();
    (engine, server, client, channel)
}

fn add_one() -> Value {
    Value::record([("k", Value::Int(1))])
}

/// One full chaos run: counter rig, open-loop load, generated plan.
/// Returns the complete observe trace as JSONL plus the recovery JSON.
fn chaos_run(seed: u64) -> (String, String) {
    let (mut engine, server, client, channel) =
        counter_world(seed, SyntaxId::Text, ChannelConfig::default());

    let scenario = Scenario::new(
        "chaos_trace",
        seed,
        LoadModel::Open {
            arrivals: ArrivalProcess::Poisson {
                rate_per_sec: 200.0,
            },
        },
    )
    .lasting(SimDuration::from_secs(1))
    .with_mix(OperationMix::new().with("Add", add_one(), 1));

    let plan = FaultPlan::generate(
        seed,
        &ChaosProfile {
            servers: vec![engine.sim_node(server).unwrap()],
            client: engine.sim_node(client).unwrap(),
            ..profile()
        },
    );
    let outcome = run_scenario_under_faults(&mut engine, client, channel, &scenario, plan).unwrap();
    let trace = export::to_jsonl(&bus::snapshot_events());
    (trace, outcome.recovery.to_json())
}

#[test]
fn same_seed_same_observe_trace() {
    let (trace_a, recovery_a) = chaos_run(21);
    let (trace_b, recovery_b) = chaos_run(21);
    assert_eq!(recovery_a, recovery_b);
    assert!(
        trace_a == trace_b,
        "same seed produced diverging observe traces ({} vs {} bytes)",
        trace_a.len(),
        trace_b.len()
    );
    // And the trace actually contains the chaos lifecycle events.
    assert!(trace_a.contains("\"fault_inject\""));
    assert!(trace_a.contains("\"fault_clear\""));
}

#[test]
fn faults_recover_and_execution_stays_at_most_once() {
    let (_trace, recovery) = chaos_run(5);
    assert!(
        recovery.contains("\"duplicate_dispatches\":0"),
        "{recovery}"
    );
}

fn reliable() -> ChannelConfig {
    ChannelConfig {
        retry: Some(RetryPolicy::reliable()),
        ..ChannelConfig::default()
    }
}

#[test]
fn a_closed_loop_under_a_brief_spike_completes_like_a_clean_run() {
    let completed = |plan: FaultPlan| {
        let (mut engine, _server, client, channel) =
            counter_world(8, SyntaxId::Binary, ChannelConfig::default());
        let scenario = Scenario::new(
            "closed_spike",
            8,
            LoadModel::Closed {
                population: 4,
                think_time: SimDuration::from_millis(5),
            },
        )
        .lasting(SimDuration::from_secs(1))
        .with_mix(OperationMix::new().with("Add", add_one(), 1));
        let outcome =
            run_scenario_under_faults(&mut engine, client, channel, &scenario, plan).unwrap();
        outcome.stats.completed
    };
    let clean = completed(FaultPlan::new());
    // Every client is blocked on a reply whenever the spike falls due:
    // the loop must still harvest its replies.
    let spiked = completed(FaultPlan::new().with(
        SimDuration::from_millis(900),
        FaultKind::LatencySpike {
            a: NodeIdx(0),
            b: NodeIdx(1),
            extra: SimDuration::from_micros(1),
            window: SimDuration::from_millis(1),
        },
    ));
    assert!(clean > 400, "clean run completed {clean}");
    assert!(
        clean.abs_diff(spiked) * 100 <= clean,
        "a 1 us spike completed {spiked} against {clean} clean"
    );
}

#[test]
fn retransmission_under_loss_executes_each_call_once() {
    let (mut engine, server, client, channel) = counter_world(77, SyntaxId::Binary, reliable());

    // Latency above the retransmit timeout guarantees genuine duplicate
    // arrivals at the server; loss makes some of them necessary.
    let (c, s) = (
        engine.sim_node(client).unwrap(),
        engine.sim_node(server).unwrap(),
    );
    let lossy = LinkConfig::with_latency(SimDuration::from_millis(30)).loss(0.3);
    engine.sim_mut().topology_mut().set_link(c, s, lossy);
    engine.sim_mut().topology_mut().set_link(s, c, lossy);

    let mut ok = 0;
    for _ in 0..20 {
        if engine.call(channel, "Add", &add_one()).is_ok() {
            ok += 1;
        }
    }
    engine
        .sim_mut()
        .topology_mut()
        .set_link(c, s, LinkConfig::with_latency(SimDuration::ZERO));
    engine
        .sim_mut()
        .topology_mut()
        .set_link(s, c, LinkConfig::with_latency(SimDuration::ZERO));
    let got = engine
        .call(channel, "Get", &Value::record::<&str, _>([]))
        .unwrap();
    let n = got.results.field("n").and_then(Value::as_int).unwrap();

    assert!(ok > 0, "some calls must get through 30% loss");
    assert!(
        n >= ok,
        "acknowledged calls must all be applied: n={n} ok={ok}"
    );
    assert!(n <= 20, "no call may execute twice: n={n}");
    assert_eq!(
        bus::counter("engineering.dedup.duplicate_dispatches"),
        0,
        "the dedup cache must suppress every duplicate dispatch"
    );
    assert!(
        bus::counter("engineering.dedup.hits") > 0,
        "30ms latency over a 25ms timeout must produce duplicate arrivals"
    );
}

#[test]
fn partition_during_prepare_never_reports_commit() {
    // Regression: a coordinator partitioned from a participant during
    // the prepare phase must end in Aborted (presumed abort), never
    // Committed, and the reachable participant must not expose the
    // transaction's writes.
    let link = LinkConfig::with_latency(SimDuration::from_millis(1));
    let mut sim = Sim::with_topology(9, Topology::full_mesh(link));
    let coord_node = sim.add_node();
    let coord = Addr::new(coord_node, 0);
    let mut parts = Vec::new();
    for i in 0..2 {
        let node = sim.add_node();
        let addr = Addr::new(node, 0);
        sim.attach(addr, Participant::new(format!("rm{i}")));
        parts.push(addr);
    }
    sim.attach(
        coord,
        Coordinator::new(parts.clone(), SimDuration::from_millis(20), 5),
    );

    // The partition is already up when the transaction is submitted, so
    // participant 1 never receives a prepare.
    sim.topology_mut().partition(coord.node, parts[1].node);
    let request = TxRequest {
        writes: vec![
            (0, "x".to_owned(), Value::Int(1)),
            (1, "y".to_owned(), Value::Int(2)),
        ],
    };
    sim.send_from(
        Addr::EXTERNAL,
        coord,
        Coordinator::submit_payload(TxId::new(1), &request),
    );
    sim.run_until_idle();

    let outcome = sim
        .inspect::<Coordinator>(coord)
        .unwrap()
        .outcome(TxId::new(1))
        .unwrap();
    assert_eq!(
        outcome,
        TxOutcome::Aborted,
        "prepare cannot complete across a partition"
    );
    let exposed = sim
        .inspect::<Participant>(parts[0])
        .unwrap()
        .rm
        .read_committed("x");
    assert_eq!(exposed, None, "no write from an unprepared transaction");

    // After healing, the system is still usable.
    sim.topology_mut().heal(coord.node, parts[1].node);
    sim.send_from(
        Addr::EXTERNAL,
        coord,
        Coordinator::submit_payload(TxId::new(2), &request),
    );
    sim.run_until_idle();
    assert_eq!(
        sim.inspect::<Coordinator>(coord)
            .unwrap()
            .outcome(TxId::new(2)),
        Some(TxOutcome::Committed)
    );
}

/// A guarded counter world for the loss-window comparison.
struct GuardWorld {
    engine: Engine,
    infra: OdpInfra,
    home: rmodp::core::id::NodeId,
    home_capsule: rmodp::core::id::CapsuleId,
    backup: rmodp::core::id::NodeId,
    backup_capsule: rmodp::core::id::CapsuleId,
    cluster: rmodp::core::id::ClusterId,
    proxy: TransparentProxy,
    interface: rmodp::core::id::InterfaceId,
}

fn guard_world(seed: u64) -> GuardWorld {
    let mut engine = Engine::new(seed);
    engine
        .behaviours_mut()
        .register("counter", CounterBehaviour::default);
    let home = engine.add_node(SyntaxId::Binary);
    let backup = engine.add_node(SyntaxId::Binary);
    let client = engine.add_node(SyntaxId::Binary);
    let home_capsule = engine.add_capsule(home).unwrap();
    let backup_capsule = engine.add_capsule(backup).unwrap();
    let cluster = engine.add_cluster(home, home_capsule).unwrap();
    let (_, refs) = engine
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
    let mut infra = OdpInfra::new();
    infra.publish(&engine, refs[0].interface).unwrap();
    let proxy = TransparentProxy::new(
        client,
        refs[0].interface,
        TransparencySet::none().with(Transparency::Relocation),
    );
    GuardWorld {
        engine,
        infra,
        home,
        home_capsule,
        backup,
        backup_capsule,
        cluster,
        proxy,
        interface: refs[0].interface,
    }
}

/// Crashes the home node via a chaos plan whose window outlasts the
/// test, so the guard — not the plan's restart — must perform recovery.
fn crash_home_via_plan(w: &mut GuardWorld) {
    let epoch = w.engine.sim().now();
    let home = w.engine.sim_node(w.home).unwrap();
    FaultPlan::new()
        .with(
            SimDuration::from_millis(1),
            FaultKind::CrashRestart {
                node: home,
                down_for: SimDuration::from_secs(600),
            },
        )
        .schedule_on(w.engine.sim_mut());
    w.engine
        .sim_mut()
        .run_until(epoch + SimDuration::from_millis(2));
    assert!(w.engine.sim().topology().is_crashed(home));
}

#[test]
fn in_memory_recovery_loses_the_tail_and_the_counter_measures_it() {
    let mut w = guard_world(61);
    let mut guard = FailureGuard::new(
        "cmp",
        (w.home, w.home_capsule, w.cluster),
        (w.backup, w.backup_capsule),
        vec![w.interface],
    );
    let add = |k: i64| Value::record([("k", Value::Int(k))]);
    w.proxy
        .call(&mut w.engine, &mut w.infra, "Add", &add(10))
        .unwrap();
    guard
        .checkpoint_now(&mut w.engine, &mut w.infra.storage)
        .unwrap();
    // Post-checkpoint work nobody logged: the checkpoint cannot cover it.
    w.proxy
        .call(&mut w.engine, &mut w.infra, "Add", &add(5))
        .unwrap();

    crash_home_via_plan(&mut w);
    guard
        .recover(&mut w.engine, &mut w.infra.relocator, &mut w.infra.storage)
        .unwrap();

    assert!(
        guard.lost_updates() > 0,
        "the in-memory path must measure a non-empty loss window"
    );
    assert!(bus::counter("failure.lost_updates") > 0);
    let t = w
        .proxy
        .call(
            &mut w.engine,
            &mut w.infra,
            "Get",
            &Value::record::<&str, _>([]),
        )
        .unwrap();
    assert_eq!(
        t.results.field("n").and_then(Value::as_int),
        Some(10),
        "recovery rolled back to the checkpoint"
    );
}

#[test]
fn durable_recovery_replays_the_tail_and_the_counter_stays_zero() {
    let mut w = guard_world(61);
    let mut store = StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap();
    let mut guard = FailureGuard::new(
        "cmp",
        (w.home, w.home_capsule, w.cluster),
        (w.backup, w.backup_capsule),
        vec![w.interface],
    );
    let add = |k: i64| Value::record([("k", Value::Int(k))]);
    guard.log_op(&mut store, w.interface, "Add", &add(10));
    w.proxy
        .call(&mut w.engine, &mut w.infra, "Add", &add(10))
        .unwrap();
    guard.checkpoint_now(&mut w.engine, &mut store).unwrap();
    // The same post-checkpoint work — this time write-ahead logged.
    guard.log_op(&mut store, w.interface, "Add", &add(5));
    w.proxy
        .call(&mut w.engine, &mut w.infra, "Add", &add(5))
        .unwrap();

    crash_home_via_plan(&mut w);
    guard
        .recover(&mut w.engine, &mut w.infra.relocator, &mut store)
        .unwrap();

    assert_eq!(
        bus::counter("failure.lost_updates"),
        0,
        "the durable path's measured loss window is zero"
    );
    assert_eq!(guard.replayed(), 1, "the logged tail was replayed");
    let t = w
        .proxy
        .call(
            &mut w.engine,
            &mut w.infra,
            "Get",
            &Value::record::<&str, _>([]),
        )
        .unwrap();
    assert_eq!(
        t.results.field("n").and_then(Value::as_int),
        Some(15),
        "10 + 5: nothing lost"
    );
}

/// What one run of [`logged_guard_script`] leaves behind.
#[derive(Debug, PartialEq)]
struct GuardOutcome {
    counter: Option<i64>,
    replayed: u64,
    recoveries: u64,
    lost_updates: u64,
}

/// One guard script over any store: checkpoint, logged ops, a home
/// crash from a fault plan, recovery, read back. `between` stands
/// between the last `log_op` and the call it announces.
fn logged_guard_script<S: PersistentStore>(
    mut store: S,
    between: impl FnOnce(S) -> S,
) -> Result<GuardOutcome, FailureError> {
    let mut w = guard_world(61);
    let mut guard = FailureGuard::new(
        "diff",
        (w.home, w.home_capsule, w.cluster),
        (w.backup, w.backup_capsule),
        vec![w.interface],
    );
    let add = |k: i64| Value::record([("k", Value::Int(k))]);
    for (k, pause) in [(10, None), (5, None), (7, Some(between))] {
        guard.log_op(&mut store, w.interface, "Add", &add(k));
        if let Some(between) = pause {
            store = between(store);
        }
        w.proxy
            .call(&mut w.engine, &mut w.infra, "Add", &add(k))
            .unwrap();
        if k == 10 {
            guard.checkpoint_now(&mut w.engine, &mut store).unwrap();
        }
    }
    crash_home_via_plan(&mut w);
    guard.recover(&mut w.engine, &mut w.infra.relocator, &mut store)?;
    let none = Value::record::<&str, _>([]);
    let t = w
        .proxy
        .call(&mut w.engine, &mut w.infra, "Get", &none)
        .unwrap();
    Ok(GuardOutcome {
        counter: t.results.field("n").and_then(Value::as_int),
        replayed: guard.replayed(),
        recoveries: guard.recoveries(),
        lost_updates: bus::counter("failure.lost_updates"),
    })
}

fn power_cycle(store: StoreEngine<MemMedia>) -> StoreEngine<MemMedia> {
    let mut media = store.into_media();
    media.crash();
    StoreEngine::open(media, StoreConfig::default()).unwrap()
}

#[test]
fn one_guard_script_ends_alike_on_the_volatile_and_the_durable_store() {
    let durable = StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap();
    let on_memory = logged_guard_script(StorageFunction::default(), |s| s).unwrap();
    let on_disk = logged_guard_script(durable, |s| s).unwrap();
    assert_eq!(on_memory, on_disk);
    assert_eq!(
        on_disk,
        GuardOutcome {
            counter: Some(22),
            replayed: 2,
            recoveries: 1,
            lost_updates: 0,
        }
    );
}

/// Three ops logged by one guard, a fourth by a guard rebuilt over the
/// same store (a restarted process knows the label, not the count):
/// recovery must find four entries, in the order logged, and replay them.
fn rebuilt_guard_script<S: PersistentStore>(mut store: S) -> (Option<i64>, u64) {
    let mut w = guard_world(61);
    let rebuild = |w: &GuardWorld| {
        FailureGuard::new(
            "rebuilt",
            (w.home, w.home_capsule, w.cluster),
            (w.backup, w.backup_capsule),
            vec![w.interface],
        )
    };
    let mut guard = rebuild(&w);
    guard.checkpoint_now(&mut w.engine, &mut store).unwrap();
    for k in 1..=4 {
        if k == 4 {
            guard = rebuild(&w);
            assert_eq!(guard.pending_ops(), 0, "it has not looked yet");
        }
        let args = Value::record([("k", Value::Int(k))]);
        guard.log_op(&mut store, w.interface, "Add", &args);
        w.proxy
            .call(&mut w.engine, &mut w.infra, "Add", &args)
            .unwrap();
    }
    assert_eq!(guard.pending_ops(), 4);
    // Sorted keys are replay order: the fourth op sits behind the three.
    let logged = |store: &S| -> Vec<i64> {
        let keys = store.stored_keys().into_iter();
        keys.filter(|key| key.starts_with("guard/rebuilt/op/"))
            .map(|key| {
                let entry = store.fetch(&key).unwrap();
                let entry = syntax_for(SyntaxId::Binary).decode(&entry).unwrap();
                let k = entry.field("args").and_then(|args| args.field("k"));
                k.and_then(Value::as_int).unwrap()
            })
            .collect()
    };
    assert_eq!(logged(&store), [1, 2, 3, 4]);
    crash_home_via_plan(&mut w);
    guard
        .recover(&mut w.engine, &mut w.infra.relocator, &mut store)
        .unwrap();
    assert_eq!(logged(&store), [], "recovery folded the tail");
    let none = Value::record::<&str, _>([]);
    let t = w
        .proxy
        .call(&mut w.engine, &mut w.infra, "Get", &none)
        .unwrap();
    (
        t.results.field("n").and_then(Value::as_int),
        guard.replayed(),
    )
}

#[test]
fn a_rebuilt_guard_appends_to_the_log_it_finds() {
    let durable = StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap();
    assert_eq!(
        rebuilt_guard_script(StorageFunction::default()),
        (Some(10), 4)
    );
    assert_eq!(rebuilt_guard_script(durable), (Some(10), 4));
}

#[test]
fn a_logged_op_outlives_its_medium_only_on_the_durable_store() {
    // The durable store synced the entry before `log_op` returned.
    let durable = StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap();
    let on_disk = logged_guard_script(durable, power_cycle).unwrap();
    assert_eq!((on_disk.counter, on_disk.replayed), (Some(22), 2));
    // The volatile store's medium is the process: checkpoint and log
    // are gone together, and the guard says so instead of guessing.
    let on_memory = logged_guard_script(StorageFunction::default(), |_| StorageFunction::default());
    assert!(
        matches!(on_memory, Err(FailureError::Load(_))),
        "{on_memory:?}"
    );
}

#[test]
fn injector_lands_faults_at_exact_virtual_instants() {
    let (mut engine, server, client, channel) = counter_world(31, SyntaxId::Binary, reliable());
    let (s, c) = (
        engine.sim_node(server).unwrap(),
        engine.sim_node(client).unwrap(),
    );
    let ms = SimDuration::from_millis;
    let t0 = engine.sim().now();
    FaultPlan::new()
        .with(
            ms(10),
            FaultKind::CrashRestart {
                node: s,
                down_for: ms(20),
            },
        )
        .with(
            ms(15),
            FaultKind::Partition {
                a: s,
                b: c,
                heal_after: ms(5),
            },
        )
        .schedule_on(engine.sim_mut());
    // A blocking call, retrying through the crash, spans the restart:
    // the simulator applies every fault inside it, at its instant.
    engine.sim_mut().run_until(t0 + ms(11));
    let reply = engine.call(channel, "Add", &add_one());
    assert!(matches!(&reply, Ok(t) if t.is_ok()), "{reply:?}");
    assert!(
        engine.sim().now() > t0 + ms(30),
        "the call spans the restart"
    );
    let faults: Vec<(u64, EventKind)> = bus::snapshot_events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FaultInject | EventKind::FaultClear))
        .map(|e| (e.t_us - t0.as_micros(), e.kind))
        .collect();
    assert_eq!(
        faults,
        [
            (10_000, EventKind::FaultInject),
            (15_000, EventKind::FaultInject),
            (20_000, EventKind::FaultClear),
            (30_000, EventKind::FaultClear),
        ]
    );
}
