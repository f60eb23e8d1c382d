//! Cross-crate recovery invariants of the durable object store: the
//! longest committed prefix is exactly what every restart reproduces,
//! the persistence transparency rides the store through a media crash,
//! and a chaos-plan capsule kill recovered by a [`FailureGuard`] that
//! logs every operation loses zero committed updates.
//!
//! [`FailureGuard`]: rmodp::transparency::failure::FailureGuard

use rmodp::chaos::prelude::{FaultKind, FaultPlan};
use rmodp::core::codec::SyntaxId;
use rmodp::core::value::Value;
use rmodp::engineering::behaviour::CounterBehaviour;
use rmodp::engineering::engine::Engine;
use rmodp::netsim::time::SimDuration;
use rmodp::observe::bus;
use rmodp::store::oo7::{state_checksum, Oo7Config, Oo7Workload};
use rmodp::store::{MemMedia, PersistentStore, StableMedia, StoreConfig, StoreEngine};
use rmodp::transparency::failure::FailureGuard;
use rmodp::transparency::persistence::PersistenceManager;
use rmodp::transparency::{OdpInfra, Transparency, TransparencySet, TransparentProxy};

fn open_mem() -> StoreEngine<MemMedia> {
    StoreEngine::open(MemMedia::new(), StoreConfig::default()).expect("fresh medium")
}

#[test]
fn every_restart_reproduces_the_longest_committed_prefix() {
    // Commit a known series of batches, remembering the synced WAL
    // length and state checksum after each commit; then cut the WAL at
    // every commit point and demand exactly that prefix back.
    let mut engine = open_mem();
    let mut commit_points = Vec::new();
    for batch in 0..8u64 {
        engine.begin().unwrap();
        for item in 0..4u64 {
            engine
                .put(
                    &format!("k{}", (batch + item) % 5),
                    Value::Int((batch * 10 + item) as i64),
                )
                .unwrap();
        }
        engine.commit().unwrap();
        commit_points.push((engine.log_bytes(), state_checksum(&engine)));
    }
    let media = engine.into_media();
    for (cut, expected) in commit_points {
        let mut m = media.clone();
        m.truncate_wal(cut);
        m.crash();
        let recovered = StoreEngine::open(m, StoreConfig::default()).unwrap();
        assert_eq!(
            state_checksum(&recovered),
            expected,
            "prefix up to {cut} bytes must reproduce its committed state"
        );
    }
}

#[test]
fn oo7_library_survives_power_loss_mid_batch() {
    let mut engine = open_mem();
    let mut wl = Oo7Workload::new(Oo7Config::small(), 13);
    wl.load(&mut engine).unwrap();
    wl.update_batch(&mut engine, 0, 8).unwrap();
    let committed = state_checksum(&engine);

    // A second update batch is staged but the power fails before commit.
    engine.begin().unwrap();
    let state = engine.get("oo7/atomic/1/0").unwrap();
    engine.put("oo7/atomic/1/0", state).unwrap();
    let mut media = engine.into_media();
    media.crash();

    let engine = StoreEngine::open(media, StoreConfig::default()).unwrap();
    assert_eq!(state_checksum(&engine), committed);
    assert_eq!(
        wl.validate_all(&engine),
        wl.config().total_objects(),
        "every recovered object still satisfies its information schema"
    );
}

/// A deployed counter world with a backup capsule and a client.
struct World {
    engine: Engine,
    infra: OdpInfra,
    home: rmodp::core::id::NodeId,
    home_capsule: rmodp::core::id::CapsuleId,
    backup: rmodp::core::id::NodeId,
    backup_capsule: rmodp::core::id::CapsuleId,
    cluster: rmodp::core::id::ClusterId,
    client: rmodp::core::id::NodeId,
    interface: rmodp::core::id::InterfaceId,
}

fn world(seed: u64) -> World {
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
    World {
        engine,
        infra,
        home,
        home_capsule,
        backup,
        backup_capsule,
        cluster,
        client,
        interface: refs[0].interface,
    }
}

#[test]
fn persistence_transparency_survives_a_store_media_crash() {
    let mut w = world(29);
    let mut store = open_mem();
    let mut manager = PersistenceManager::default();
    manager
        .deactivate_to_storage(
            &mut w.engine,
            &mut store,
            "acct",
            w.home,
            w.home_capsule,
            w.cluster,
        )
        .unwrap();

    // The medium crashes while the cluster is passivated: the checkpoint
    // was committed through the WAL, so it survives.
    let mut media = store.into_media();
    media.crash();
    let store = StoreEngine::open(media, StoreConfig::default()).unwrap();
    assert!(
        store.fetch("persistent/acct").is_some(),
        "the checkpoint is durable"
    );

    manager.restore(&mut w.engine, &store, "acct").unwrap();
    let channel = w
        .engine
        .open_channel(
            w.client,
            w.interface,
            rmodp::engineering::channel::ChannelConfig::default(),
        )
        .unwrap();
    let t = w
        .engine
        .call(channel, "Get", &Value::record::<&str, _>([]))
        .unwrap();
    assert!(t.is_ok(), "restored object answers");
}

#[test]
fn chaos_capsule_kill_with_durable_guard_loses_nothing() {
    let mut w = world(31);
    let mut store = open_mem();
    let mut guard = FailureGuard::new(
        "kill",
        (w.home, w.home_capsule, w.cluster),
        (w.backup, w.backup_capsule),
        vec![w.interface],
    );
    // Failover target selection is automatic from the backup pool: the
    // designated backup dies before it is ever needed, so recovery must
    // skip the dead pool head and land on the spare.
    let spare = w.engine.add_node(SyntaxId::Binary);
    let spare_capsule = w.engine.add_capsule(spare).unwrap();
    guard.push_backup((spare, spare_capsule));
    let backup_idx = w.engine.sim_node(w.backup).unwrap();
    w.engine.sim_mut().topology_mut().crash(backup_idx);
    let mut proxy = TransparentProxy::new(
        w.client,
        w.interface,
        TransparencySet::none().with(Transparency::Relocation),
    );

    // Mid-way through the update stream the capsule is killed and a
    // chaos plan crashes its node. Nothing reactivates the capsule, and
    // the crash outlasts the test, so only the guard can bring the
    // service back: a reactivation would restore the in-memory instance,
    // which the guard must not rely on.
    let epoch = w.engine.sim().now();
    let killed_at = epoch + SimDuration::from_millis(25);
    FaultPlan::new()
        .with(
            SimDuration::from_millis(25),
            FaultKind::CrashRestart {
                node: w.engine.sim_node(w.home).unwrap(),
                down_for: SimDuration::from_secs(600),
            },
        )
        .schedule_on(w.engine.sim_mut());

    let mut expected = 0i64;
    let mut recovered = false;
    let mut killed = false;
    for i in 0..16u64 {
        let target = epoch + SimDuration::from_millis(4 * (i + 1));
        if !killed && killed_at <= target {
            w.engine.sim_mut().run_until(killed_at);
            w.engine
                .deactivate_cluster(w.home, w.home_capsule, w.cluster)
                .unwrap();
            killed = true;
        }
        w.engine.sim_mut().run_until(target);
        let k = i as i64 + 1;
        let args = Value::record([("k", Value::Int(k))]);
        guard.log_op(&mut store, w.interface, "Add", &args);
        expected += k;
        let call = proxy.call(&mut w.engine, &mut w.infra, "Add", &args);
        if i == 2 {
            guard.checkpoint_now(&mut w.engine, &mut store).unwrap();
        }
        if call.is_err() {
            assert!(!recovered, "exactly one kill in the plan");
            guard
                .recover(&mut w.engine, &mut w.infra.relocator, &mut store)
                .unwrap();
            recovered = true;
        }
    }
    assert!(recovered, "the kill must interrupt the stream");
    assert!(guard.replayed() > 0, "the logged tail was replayed");
    assert_eq!(
        guard.home().0,
        spare,
        "automatic selection skipped the dead backup"
    );

    let t = proxy
        .call(
            &mut w.engine,
            &mut w.infra,
            "Get",
            &Value::record::<&str, _>([]),
        )
        .unwrap();
    assert_eq!(
        t.results.field("n").and_then(Value::as_int),
        Some(expected),
        "zero committed updates lost across the capsule kill"
    );
    assert_eq!(
        bus::counter("failure.lost_updates"),
        0,
        "the durable path's measured loss window is zero"
    );
}

/// The measured defect behind the atomic checkpoint: the guard used to
/// persist the checkpoint and prune the op log as separate synced
/// commits, so a store crash between them left the *new* checkpoint
/// beside ops it already contained, and recovery applied those twice
/// (44, 34 or 29 instead of 22). Stand at every frame boundary of the
/// guard store's WAL — inside the second checkpoint included — and the
/// recovered counter is always the sum of the ops logged by then.
#[test]
fn store_crash_at_any_frame_of_a_guard_checkpoint_replays_each_op_once() {
    use rmodp::store::wal::{decode_frames, encode_frame};

    const OPS: [i64; 3] = [10, 5, 7];

    /// Runs the history; returns the world, the guard, the store and the
    /// WAL length after the first checkpoint, after each logged op and
    /// before the second checkpoint.
    fn history() -> (
        World,
        FailureGuard,
        StoreEngine<MemMedia>,
        usize,
        Vec<usize>,
    ) {
        let mut w = world(37);
        let mut store = open_mem();
        let mut guard = FailureGuard::new(
            "acct",
            (w.home, w.home_capsule, w.cluster),
            (w.backup, w.backup_capsule),
            vec![w.interface],
        );
        let mut proxy = TransparentProxy::new(
            w.client,
            w.interface,
            TransparencySet::none().with(Transparency::Relocation),
        );
        guard.checkpoint_now(&mut w.engine, &mut store).unwrap();
        let first_checkpoint_end = store.log_bytes();
        let mut op_ends = Vec::new();
        for k in OPS {
            let args = Value::record([("k", Value::Int(k))]);
            guard.log_op(&mut store, w.interface, "Add", &args);
            op_ends.push(store.log_bytes());
            proxy
                .call(&mut w.engine, &mut w.infra, "Add", &args)
                .unwrap();
        }
        guard.checkpoint_now(&mut w.engine, &mut store).unwrap();
        (w, guard, store, first_checkpoint_end, op_ends)
    }

    let (_, _, store, first_checkpoint_end, op_ends) = history();
    let media = store.into_media();
    let mut boundaries = vec![0usize];
    for record in decode_frames(media.wal_bytes()).records {
        boundaries.push(boundaries.last().unwrap() + encode_frame(&record).len());
    }
    assert_eq!(*boundaries.last().unwrap(), media.wal_len());
    let second_checkpoint_start = *op_ends.last().unwrap();
    assert!(
        boundaries
            .iter()
            .filter(|&&b| b > second_checkpoint_start)
            .count()
            >= 3,
        "the second checkpoint spans several frames to stand between"
    );

    for &cut in boundaries.iter().filter(|&&b| b >= first_checkpoint_end) {
        let (mut w, mut guard, store, _, _) = history();
        let mut media = store.into_media();
        media.truncate_wal(cut);
        let mut store = StoreEngine::open(media, StoreConfig::default()).unwrap();

        let home_idx = w.engine.sim_node(w.home).unwrap();
        w.engine.sim_mut().topology_mut().crash(home_idx);
        guard
            .recover(&mut w.engine, &mut w.infra.relocator, &mut store)
            .unwrap();
        let mut proxy = TransparentProxy::new(
            w.client,
            w.interface,
            TransparencySet::none().with(Transparency::Relocation),
        );
        let t = proxy
            .call(
                &mut w.engine,
                &mut w.infra,
                "Get",
                &Value::record::<&str, _>([]),
            )
            .unwrap();
        let logged_by_then: i64 = OPS
            .iter()
            .zip(&op_ends)
            .filter(|(_, &end)| end <= cut)
            .map(|(k, _)| k)
            .sum();
        assert_eq!(
            t.results.field("n").and_then(Value::as_int),
            Some(logged_by_then),
            "store cut at byte {cut} of {}",
            boundaries.last().unwrap()
        );
    }
}
