//! Relocation, migration and failure transparency in action: a counter
//! service keeps serving one oblivious client while its cluster is
//! migrated twice and then crash-recovered from a checkpoint on a backup
//! node (§9.2, §8.1, §8.2) — followed by a two-phase commit on the same
//! simulated network (§9.3).
//!
//! The whole run is observed on the `rmodp-observe` event bus: the trace
//! is dumped as deterministic JSONL (same seed ⇒ byte-identical file),
//! checked against the causal-order oracle, and rendered as a per-node
//! summary table plus an indented causal timeline.
//!
//! Run with: `cargo run --example migration_and_failure`

use rmodp::engineering::behaviour::CounterBehaviour;
use rmodp::netsim::sim::Addr;
use rmodp::netsim::time::SimDuration;
use rmodp::observe::{bus, export, oracle};
use rmodp::prelude::*;
use rmodp::transactions::twopc::{Coordinator, Participant, TxRequest};
use rmodp::transparency::failure::FailureGuard;
use rmodp::transparency::proxy::migrate_transparently;
use rmodp::OdpSystem;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sys = OdpSystem::new(42);
    sys.engine
        .behaviours_mut()
        .register("counter", CounterBehaviour::default);

    // Home, first target, two pooled backups, and the client.
    let home = sys.engine.add_node(SyntaxId::Binary);
    let target = sys.engine.add_node(SyntaxId::Text);
    let backup = sys.engine.add_node(SyntaxId::Binary);
    let spare = sys.engine.add_node(SyntaxId::Binary);
    let client = sys.engine.add_node(SyntaxId::Binary);
    let home_capsule = sys.engine.add_capsule(home)?;
    let target_capsule = sys.engine.add_capsule(target)?;
    let backup_capsule = sys.engine.add_capsule(backup)?;
    let spare_capsule = sys.engine.add_capsule(spare)?;
    let cluster = sys.engine.add_cluster(home, home_capsule)?;
    let (_, refs) = sys.engine.create_object(
        home,
        home_capsule,
        cluster,
        "counter",
        "counter",
        CounterBehaviour::initial_state(),
        1,
    )?;
    let interface = refs[0].interface;
    sys.publish(interface)?;

    let mut proxy = sys.proxy(
        client,
        interface,
        TransparencySet::none()
            .with(Transparency::Migration)
            .with(Transparency::Failure),
    );
    let add = |k: i64| Value::record([("k", Value::Int(k))]);

    let t = proxy.call(&mut sys.engine, &mut sys.infra, "Add", &add(10))?;
    println!("counter at {} after Add(10): {}", home, t.results);

    // Migrate the whole cluster to a text-native node; the client's next
    // call is transparently replayed at the new location.
    let new_cluster = migrate_transparently(
        &mut sys.engine,
        &mut sys.infra,
        (home, home_capsule, cluster),
        (target, target_capsule),
        &[interface],
    )?;
    let t = proxy.call(&mut sys.engine, &mut sys.infra, "Add", &add(5))?;
    println!("after migration to {target}: Add(5) -> {}", t.results);

    // Guard the migrated cluster with a pool of backup locations;
    // checkpoint; then crash BOTH the node and its first backup. The
    // failover target is selected automatically — recovery skips the
    // dead pool head and lands on the spare.
    let mut guard = FailureGuard::new(
        "counter",
        (target, target_capsule, new_cluster),
        (backup, backup_capsule),
        vec![interface],
    );
    guard.push_backup((spare, spare_capsule));
    guard.checkpoint_now(&mut sys.engine, &mut sys.infra.storage)?;
    let idx = sys.engine.sim_node(target)?;
    sys.engine.sim_mut().topology_mut().crash(idx);
    let idx = sys.engine.sim_node(backup)?;
    sys.engine.sim_mut().topology_mut().crash(idx);
    println!("node {target} and backup {backup} crashed; recovering from the pool…");
    guard.recover(
        &mut sys.engine,
        &mut sys.infra.relocator,
        &mut sys.infra.storage,
    )?;
    assert_eq!(
        guard.home().0,
        spare,
        "recovery skips the dead backup and selects the spare"
    );

    // The oblivious client keeps calling.
    let t = proxy.call(
        &mut sys.engine,
        &mut sys.infra,
        "Get",
        &Value::record::<&str, _>([]),
    )?;
    println!(
        "after recovery: Get -> {} (relocations masked: {}, recoveries: {})",
        t.results,
        proxy.stats().relocations_masked,
        guard.recoveries()
    );
    assert_eq!(t.results.field("n"), Some(&Value::Int(15)));

    // A distributed commit on the *same* simulated network: coordinator
    // and two participants attached directly to the engine's simulator,
    // so their PREPARE/VOTE/COMMIT/ACK traffic lands on the same event
    // stream as everything above.
    let sim = sys.engine.sim_mut();
    let coord = Addr::new(sim.add_node(), 0);
    let ledger_a = Addr::new(sim.add_node(), 0);
    let ledger_b = Addr::new(sim.add_node(), 0);
    sim.attach(ledger_a, Participant::new("ledger-a"));
    sim.attach(ledger_b, Participant::new("ledger-b"));
    sim.attach(
        coord,
        Coordinator::new(vec![ledger_a, ledger_b], SimDuration::from_millis(20), 5),
    );
    let request = TxRequest {
        writes: vec![
            (0, "alice".to_owned(), Value::Int(70)),
            (1, "bob".to_owned(), Value::Int(80)),
        ],
    };
    let payload = Coordinator::submit_payload(TxId::new(1), &request);
    sim.send_from(Addr::EXTERNAL, coord, payload);
    sim.run_until_idle();

    // ── Observability epilogue ──────────────────────────────────────
    let events = bus::snapshot_events();
    let violations = oracle::verify_causality(&events);
    assert!(violations.is_empty(), "causal oracle: {violations:?}");

    let jsonl = export::to_jsonl(&events);
    std::fs::create_dir_all("target")?;
    let trace_path = "target/migration_and_failure.jsonl";
    std::fs::write(trace_path, &jsonl)?;

    let layers: std::collections::BTreeSet<_> = events.iter().map(|e| e.layer.name()).collect();
    let kinds: std::collections::BTreeSet<_> = events.iter().map(|e| e.kind.name()).collect();
    println!(
        "\ntrace: {} events from layers {:?} ({} event kinds) -> {trace_path}",
        events.len(),
        layers,
        kinds.len()
    );
    assert!(layers.len() >= 4, "expected events from >=4 layers");
    assert!(kinds.len() >= 8, "expected >=8 distinct event kinds");

    // Capped exports: the tail of a long run is noise here, and the
    // `(+N more)` markers make the truncation explicit.
    println!("\n{}", export::summary_table(&events, 12));
    println!("{}", bus::snapshot_metrics().render());
    println!("{}", export::timeline(&events, 80));
    Ok(())
}
