//! The OO7-class persistent-object suite behind `BENCH_oo7.json`.
//!
//! [`run_suite`] loads the OO7 design library (~1M typed information
//! objects at full scale) through the durable [`StoreEngine`], runs the
//! classic traversal/update/query mix, and then breaks things on purpose
//! twice:
//!
//! - **power loss**: the stable medium crashes in the middle of an
//!   uncommitted update batch; reopening replays the WAL and must
//!   reproduce the committed state checksum exactly (the uncommitted
//!   batch vanishes whole);
//! - **capsule kill**: mid-update-stream a guarded cluster's capsule is
//!   deactivated and a chaos [`FaultPlan`] crashes its node; the
//!   [`FailureGuard`] recovers onto a backup from its store-backed
//!   checkpoint + write-ahead op log, and the suite asserts *zero*
//!   committed updates were lost while measuring the recovery MTTR on
//!   virtual time.
//!
//! Every figure in the emitted `BENCH_oo7.json` (schema
//! `rmodp-bench-oo7/1`, documented in `EXPERIMENTS.md` §E13) derives
//! from deterministic counts and a virtual cost model, and nothing here
//! reads a host clock: the suite is a pure function of its
//! configuration (what the store costs in wall-clock time is
//! `benchmark/`'s `store-oo7` and `store.*`).

use rmodp_chaos::prelude::{FaultKind, FaultPlan};
use rmodp_core::codec::SyntaxId;
use rmodp_core::value::Value;
use rmodp_engineering::behaviour::CounterBehaviour;
use rmodp_engineering::engine::Engine;
use rmodp_kernel::{EventQueue, SimTime};
use rmodp_netsim::time::SimDuration;
use rmodp_observe::json::{Fixed, ToJson};
use rmodp_observe::{bus, json, json_into};
use rmodp_store::{
    state_checksum, MemMedia, Oo7Config, Oo7Workload, StableMedia, StoreConfig, StoreEngine,
};
use rmodp_transparency::failure::FailureGuard;
use rmodp_transparency::{OdpInfra, Transparency, TransparencySet, TransparentProxy};
use rmodp_workload::arrival::ArrivalProcess;

/// Suite parameters (a row of `rmodp_bench::artifacts::ARTIFACTS`).
#[derive(Debug, Clone, Copy)]
pub struct Oo7BenchConfig {
    /// Library scale: 0 = small (~1.2k objects), any other = full (~1M).
    pub scale: u8,
    /// Update batches driven after the traversals.
    pub update_batches: u64,
    /// Seed for the library attributes and the arrival process.
    pub seed: u64,
}

/// Composite lanes touched per update batch (`id % STRIDE` selects).
const STRIDE: u32 = 16;

fn shape(scale: u8) -> (Oo7Config, &'static str) {
    match scale {
        0 => (Oo7Config::small(), "small"),
        _ => (Oo7Config::full(), "full"),
    }
}

/// Auto-compaction threshold per scale: low enough that every scale
/// actually exercises snapshot + WAL-reset under load.
fn compact_threshold(scale: u8) -> usize {
    match scale {
        0 => 64 << 10,
        _ => 48 << 20,
    }
}

/// Virtual service cost of recovery-by-replay: fixed reopen cost plus
/// per-record scan and snapshot-read terms.
fn reopen_cost_us(records_scanned: usize, snapshot_bytes: usize) -> u64 {
    100 + 2 * records_scanned as u64 + (snapshot_bytes as u64) / 4096
}

/// The update phase driven on the kernel clock: batches arrive as a
/// Poisson process, each costing `10 + 2*updates` virtual µs.
struct UpdateRun {
    batches: u64,
    updated: u64,
    busy_us: u64,
    makespan_us: u64,
}

fn run_updates(
    wl: &Oo7Workload,
    engine: &mut StoreEngine<MemMedia>,
    cfg: Oo7BenchConfig,
) -> UpdateRun {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut arrivals = ArrivalProcess::Poisson { rate_per_sec: 50.0 }.stream(cfg.seed ^ 0x007);
    for b in 0..cfg.update_batches {
        let offset = arrivals.next().expect("stream is infinite");
        queue.schedule(SimTime::ZERO + offset, b);
    }
    let mut run = UpdateRun {
        batches: 0,
        updated: 0,
        busy_us: 0,
        makespan_us: 0,
    };
    let mut clock = 0u64;
    while let Some((at, b)) = queue.pop() {
        let updated = wl
            .update_batch(engine, b, STRIDE)
            .expect("engine is healthy");
        let service = 10 + 2 * updated;
        clock = clock.max(at.as_micros()) + service;
        run.batches += 1;
        run.updated += updated;
        run.busy_us += service;
    }
    run.makespan_us = clock;
    run
}

/// Power loss mid-batch: stage half an update batch uncommitted, crash
/// the medium, reopen, and demand the committed checksum back.
struct PowerLoss {
    records_scanned: usize,
    writes_replayed: usize,
    snapshot_loaded: bool,
    reopen_us: u64,
    staged_then_lost: u64,
}

fn power_loss_recovery(
    wl: &Oo7Workload,
    engine: StoreEngine<MemMedia>,
    cfg: Oo7BenchConfig,
) -> (StoreEngine<MemMedia>, PowerLoss) {
    let committed = state_checksum(&engine);
    let mut engine = engine;
    // Stage the next lane's batch but never commit it.
    let lane = (cfg.update_batches % u64::from(STRIDE)) as u32;
    engine.begin().expect("no batch is open");
    let mut staged = 0u64;
    for composite in (0..wl.config().composites).filter(|c| c % STRIDE == lane) {
        let key = format!("oo7/atomic/{composite}/0");
        let mut state = engine.get(&key).expect("loaded atomic exists");
        if let Some(Value::Int(v)) = state.field_mut("x") {
            *v += 1_000;
        }
        engine.put(&key, state).expect("batch is open");
        staged += 1;
    }
    // Power fails before the commit: only synced bytes survive.
    let mut media = engine.into_media();
    media.crash();
    let engine = StoreEngine::open(
        media,
        StoreConfig {
            compact_wal_bytes: compact_threshold(cfg.scale),
        },
    )
    .expect("WAL replay succeeds");
    assert_eq!(
        state_checksum(&engine),
        committed,
        "recovery must reproduce exactly the committed state"
    );
    let report = engine.recovery_report().clone();
    let loss = PowerLoss {
        records_scanned: report.records_scanned,
        writes_replayed: report.writes_replayed,
        snapshot_loaded: report.snapshot_loaded,
        reopen_us: reopen_cost_us(report.records_scanned, engine.snapshot_bytes()),
        staged_then_lost: staged,
    };
    (engine, loss)
}

/// The capsule-kill scenario: a guarded counter cluster takes a logged
/// update stream; mid-stream its capsule is killed and a chaos plan
/// crashes its node; the [`FailureGuard`] recovers onto the backup and
/// the stream resumes. Returns the JSON section.
///
/// The kill is a deactivation with no reactivation, and the crash's
/// window is far beyond the run, so only the guard's recovery can bring
/// the service back.
fn capsule_kill_section(seed: u64) -> impl ToJson {
    let mut engine = Engine::new(seed);
    engine
        .behaviours_mut()
        .register("counter", CounterBehaviour::default);
    let home = engine.add_node(SyntaxId::Binary);
    let backup = engine.add_node(SyntaxId::Binary);
    let client = engine.add_node(SyntaxId::Binary);
    let home_capsule = engine.add_capsule(home).expect("fresh node");
    let backup_capsule = engine.add_capsule(backup).expect("fresh node");
    let cluster = engine
        .add_cluster(home, home_capsule)
        .expect("fresh capsule");
    let (_, refs) = engine
        .create_object(
            home,
            home_capsule,
            cluster,
            "part",
            "counter",
            CounterBehaviour::initial_state(),
            1,
        )
        .expect("fresh cluster");
    let interface = refs[0].interface;
    let mut infra = OdpInfra::new();
    infra
        .publish(&engine, interface)
        .expect("interface is live");
    let mut guard = FailureGuard::new(
        "oo7",
        (home, home_capsule, cluster),
        (backup, backup_capsule),
        vec![interface],
    );
    let mut store =
        StoreEngine::open(MemMedia::new(), StoreConfig::default()).expect("fresh medium");
    let mut proxy = TransparentProxy::new(
        client,
        interface,
        TransparencySet::none().with(Transparency::Relocation),
    );

    bus::set_enabled(true);
    let epoch = engine.sim().now();
    let kill_at = SimDuration::from_millis(40);
    let beyond_horizon = SimDuration::from_secs(300);
    let home_idx = engine.sim_node(home).expect("home is simulated");
    FaultPlan::new()
        .with(
            kill_at,
            FaultKind::CrashRestart {
                node: home_idx,
                down_for: beyond_horizon,
            },
        )
        .schedule_on(engine.sim_mut());
    let killed_at = epoch + kill_at;
    let mut killed = false;

    const OPS: u64 = 24;
    let mut expected = 0i64;
    let mut failed_at_op = None;
    let mut mttr_us = 0u64;
    let mut replayed = 0u64;
    for i in 0..OPS {
        let target = epoch + SimDuration::from_millis(3 * (i + 1));
        if !killed && killed_at <= target {
            engine.sim_mut().run_until(killed_at);
            engine
                .deactivate_cluster(home, home_capsule, cluster)
                .expect("the cluster is active until its kill");
            killed = true;
        }
        engine.sim_mut().run_until(target);
        let k = i as i64 + 1;
        let args = Value::record([("k", Value::Int(k))]);
        // Write-ahead: the op is in the durable log before it is issued,
        // so a kill at any later instant cannot lose it.
        guard.log_op(&mut store, interface, "Add", &args);
        expected += k;
        let call = proxy.call(&mut engine, &mut infra, "Add", &args);
        if i == 4 {
            // Checkpoint early: everything after this instant is covered
            // only by the write-ahead op log.
            guard
                .checkpoint_now(&mut engine, &mut store)
                .expect("home is still alive");
        }
        if call.is_err() {
            assert!(failed_at_op.is_none(), "one kill, one detection");
            failed_at_op = Some(i);
            guard
                .recover(&mut engine, &mut infra.relocator, &mut store)
                .expect("durable recovery succeeds");
            mttr_us = engine.sim().now().as_micros() - killed_at.as_micros();
            replayed = guard.replayed();
            // The interrupted op was replayed from the log; the stream
            // resumes against the backup on the next iteration.
        }
    }
    let failed_at_op = failed_at_op.expect("the kill interrupts the stream");
    let t = proxy
        .call(
            &mut engine,
            &mut infra,
            "Get",
            &Value::record::<&str, _>([]),
        )
        .expect("recovered service answers");
    let observed = t
        .results
        .field("n")
        .and_then(Value::as_int)
        .expect("counter state is typed");
    assert_eq!(
        observed, expected,
        "zero committed updates lost across the capsule kill"
    );
    let lost = bus::counter("failure.lost_updates");
    assert_eq!(lost, 0, "durable recovery records a zero loss window");
    assert!(mttr_us > 0, "recovery consumed virtual time");
    bus::set_enabled(false);
    println!(
        "capsule kill at op {failed_at_op}: recovered in {mttr_us}us virtual, \
         {replayed} ops replayed, sum {observed} (expected {expected})"
    );
    let recoveries = guard.recoveries();
    json::from_fn(move |out| {
        json_into!(out, {
            "ops": OPS,
            "killed_at_op": failed_at_op,
            "mttr_virtual_us": mttr_us,
            "replayed_ops": replayed,
            "recoveries": recoveries,
            "lost_updates": lost,
            "sum_expected": expected,
            "sum_observed": observed,
        })
    })
}

/// Runs the full suite and returns the `BENCH_oo7.json` document.
///
/// # Panics
///
/// If recovery loses a committed update (checksum or counter mismatch),
/// or if any stored object fails schema validation after recovery.
pub fn run_suite(cfg: Oo7BenchConfig) -> String {
    // A million object writes would otherwise accumulate a million
    // events; this suite is about the store, not the bus.
    bus::reset();
    let was_enabled = bus::is_enabled();
    bus::set_enabled(false);

    let (lib, scale_name) = shape(cfg.scale);
    let store_cfg = StoreConfig {
        compact_wal_bytes: compact_threshold(cfg.scale),
    };
    let mut engine = StoreEngine::open(MemMedia::new(), store_cfg).expect("fresh medium");
    let mut wl = Oo7Workload::new(lib, cfg.seed);

    let load = wl.load(&mut engine).expect("engine is healthy");
    let load_us = 2 * load.objects + 50 * load.batches;
    let load_goodput = load.objects as f64 * 1e6 / load_us.max(1) as f64;
    println!(
        "loaded {} objects ({scale_name}) in {} batches, {} compactions",
        load.objects,
        load.batches,
        engine.stats().compactions
    );
    let load_compactions = engine.stats().compactions;
    let load_log_bytes = engine.log_bytes();
    let load_snapshot_bytes = engine.snapshot_bytes();

    let t1 = wl.traverse_dense(&engine);
    let t6 = wl.traverse_sparse(&engine);
    let t1_us = 1 + t1.visited / 8;
    let t6_us = 1 + t6.visited / 8;
    println!(
        "T1 dense visited {} / T6 sparse visited {}",
        t1.visited, t6.visited
    );

    let updates = run_updates(&wl, &mut engine, cfg);
    let update_goodput = updates.updated as f64 * 1e6 / updates.busy_us.max(1) as f64;
    println!(
        "{} update batches ({} objects)",
        updates.batches, updates.updated
    );

    let exact_id = wl.config().composites / 3;
    let exact_checksum = wl.query_exact(&engine, exact_id);
    let (lo, hi) = (
        1000 + i64::from(wl.config().date_range) / 4,
        1000 + i64::from(wl.config().date_range) / 2,
    );
    let (range_matches, range_checksum) = wl.query_range(&engine, lo, hi);

    let pre_crash_stats = engine.stats();
    let (mut engine, power) = power_loss_recovery(&wl, engine, cfg);
    // Re-run the interrupted lane as a proper committed batch, then
    // revalidate every object against its information-viewpoint schema.
    let redone = wl
        .update_batch(&mut engine, cfg.update_batches, STRIDE)
        .expect("engine is healthy after recovery");
    let validated = wl.validate_all(&engine);
    assert_eq!(
        validated,
        wl.config().total_objects(),
        "every object survives recovery schema-valid"
    );
    println!(
        "power loss: {} staged writes discarded, {} committed writes replayed, \
         {} redone",
        power.staged_then_lost, power.writes_replayed, redone
    );

    let capsule = capsule_kill_section(cfg.seed);

    let stats = engine.stats();
    let final_checksum = state_checksum(&engine);
    let dense_checksum = wl.traverse_dense(&engine).checksum;

    // Publish the store gauges/counters once with the bus recording, so
    // the exporter's health block reflects this run.
    bus::set_enabled(true);
    bus::gauge_set("store.log_bytes", engine.log_bytes() as i64);
    bus::gauge_set("store.snapshot_bytes", engine.snapshot_bytes() as i64);
    bus::counter_add(
        "store.compactions",
        pre_crash_stats.compactions + stats.compactions,
    );
    bus::counter_add("store.recovery_replayed", power.writes_replayed as u64);
    print!(
        "{}",
        rmodp_observe::export::store_summary(&bus::snapshot_metrics())
    );
    bus::set_enabled(was_enabled);

    json!({
        "schema": "rmodp-bench-oo7/1",
        "config": {
            "scale": scale_name,
            "objects": wl.config().total_objects(),
            "assemblies": wl.config().assemblies(),
            "composites": wl.config().composites,
            "atomics_per_composite": wl.config().atomics_per_composite,
            "update_batches": cfg.update_batches,
            "seed": cfg.seed,
            "compact_wal_bytes": compact_threshold(cfg.scale),
            "arrival": "poisson 50/s",
            "cost_model": "load 2us/object + 50us/commit; traverse visited/8 us; \
                update 10us + 2us/write; reopen 100us + 2us/record + snap_bytes/4096 us",
        },
        "load": {
            "objects": load.objects,
            "batches": load.batches,
            "virtual_us": load_us,
            "goodput_objects_per_virtual_sec": Fixed::<1>(load_goodput),
            "log_bytes": load_log_bytes,
            "snapshot_bytes": load_snapshot_bytes,
            "compactions": load_compactions,
        },
        "traversals": {
            "t1_dense": {"visited": t1.visited, "checksum": t1.checksum, "virtual_us": t1_us},
            "t6_sparse": {"visited": t6.visited, "checksum": t6.checksum, "virtual_us": t6_us},
        },
        "updates": {
            "batches": updates.batches,
            "objects_updated": updates.updated,
            "busy_virtual_us": updates.busy_us,
            "makespan_virtual_us": updates.makespan_us,
            "goodput_updates_per_virtual_sec": Fixed::<1>(update_goodput),
        },
        "queries": {
            "exact": {"id": exact_id, "checksum": exact_checksum},
            "range": {"lo": lo, "hi": hi, "matches": range_matches, "checksum": range_checksum},
        },
        "recovery": {
            "power_loss": {
                "staged_then_lost": power.staged_then_lost,
                "records_scanned": power.records_scanned,
                "writes_replayed": power.writes_replayed,
                "snapshot_loaded": power.snapshot_loaded,
                "mttr_virtual_us": power.reopen_us,
                "lost_committed_updates": 0,
            },
            "capsule_kill": capsule,
        },
        "store": {
            "log_bytes": engine.log_bytes(),
            "snapshot_bytes": engine.snapshot_bytes(),
            "compactions": pre_crash_stats.compactions + stats.compactions,
            "commits": pre_crash_stats.commits + stats.commits,
            "recovery_replayed": stats.recovery_replayed,
        },
        "determinism": {
            "state_checksum": final_checksum,
            "dense_checksum": dense_checksum,
            "objects_validated": validated,
        },
    }) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Oo7BenchConfig {
        Oo7BenchConfig {
            scale: 0,
            update_batches: 12,
            seed: 7,
        }
    }

    #[test]
    fn suite_is_deterministic_and_loses_nothing() {
        let a = run_suite(small());
        let b = run_suite(small());
        assert_eq!(a, b, "suite must be byte-identical across reruns");
        assert!(a.contains(r#""schema":"rmodp-bench-oo7/1""#));
        assert!(a.contains(r#""lost_committed_updates":0"#));
        assert!(a.contains(r#""lost_updates":0"#));
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn different_seeds_change_the_checksums() {
        let a = run_suite(small());
        let b = run_suite(Oo7BenchConfig { seed: 8, ..small() });
        assert_ne!(a, b);
    }

    #[test]
    fn capsule_kill_recovers_with_finite_mttr() {
        bus::reset();
        let section = capsule_kill_section(11).to_json();
        assert!(section.contains(r#""lost_updates":0"#), "{section}");
        assert!(section.contains(r#""recoveries":1"#), "{section}");
        assert!(!section.contains(r#""mttr_virtual_us":0"#), "{section}");
    }
}
