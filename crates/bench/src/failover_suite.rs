//! The failover benchmark suite behind `BENCH_failover.json`.
//!
//! [`run_suite`] drives two quorum-replicated groups — a *bank* group
//! (deposit-sized updates) and a *trader* group (offer-sized updates) —
//! through a rolling leader-kill schedule and a partition-during-commit
//! schedule, and returns the full `BENCH_failover.json` document
//! (schema `rmodp-bench-failover/1`, documented in `EXPERIMENTS.md`
//! §E14): availability over the whole schedule, the failover-MTTR
//! distribution, fenced-write and quorum-loss counters, and the
//! [`verify_consistency`] verdict — whose `lost_committed` and
//! `split_brain` counts the suite asserts are zero.
//!
//! Everything runs on virtual time with seeded RNGs: probe timeouts,
//! election fan-outs, and partition windows all consume deterministic
//! virtual time, so the same seed produces a byte-identical document —
//! the golden test in `tests/golden.rs` compares it with the committed
//! `tests/baselines/BENCH_failover.json`.

use rmodp_chaos::prelude::*;
use rmodp_core::codec::SyntaxId;
use rmodp_core::id::InterfaceId;
use rmodp_engineering::engine::Engine;
use rmodp_functions::FailureDetector;
use rmodp_netsim::sim::NodeIdx;
use rmodp_observe::json::Fixed;
use rmodp_observe::{bus, json, json_into};
use rmodp_transparency::replication::{quorum_counters, ReplicatedService, ReplicationError};
use rmodp_transparency::OdpInfra;

/// Replicas per group: tolerates two failures, majority of three.
const REPLICAS: usize = 5;
/// Leader-kill rounds per group.
const ROUNDS: usize = 3;
/// Committed updates attempted between failure injections.
const UPDATES_PER_ROUND: usize = 4;

fn sim_idx(engine: &Engine, replica: InterfaceId) -> NodeIdx {
    let node = engine
        .lookup(replica)
        .expect("replica exists")
        .location
        .node;
    engine.sim_node(node).expect("node exists")
}

/// One group's full schedule: warm-up commits, `ROUNDS` leader kills
/// with detector-driven failover, a client-side majority partition
/// during the commit schedule, and a stale-front takeover that must be
/// fenced. Returns the per-group JSON fragment.
///
/// The partition lands between commits, not inside one — the simulator
/// is sequential — but it leaves a *minority* of replicas holding
/// staged, uncommitted sequence numbers, which is exactly the state an
/// interrupted commit leaves behind; the retry after healing must fold
/// those idempotently.
fn group_run(label: &'static str, seed: u64, update_k: i64) -> impl ToJson {
    let mut engine = Engine::new(seed);
    let client = engine.add_node(SyntaxId::Binary);
    let mut infra = OdpInfra::new();
    let (mut svc, replicas) =
        quorum_counters(&mut engine, &mut infra, client, REPLICAS).expect("group deploys");
    let monitor = engine.add_node(SyntaxId::Binary);
    let mut detector = FailureDetector::new(monitor);
    for r in &replicas {
        detector.watch(*r);
    }

    let mut attempts = 0u64;
    let mut commits = 0u64;
    let update = |svc: &mut ReplicatedService,
                  engine: &mut Engine,
                  infra: &mut OdpInfra,
                  attempts: &mut u64,
                  commits: &mut u64| {
        *attempts += 1;
        if svc.quorum_update(engine, infra, update_k).is_ok() {
            *commits += 1;
        }
    };

    for _ in 0..UPDATES_PER_ROUND {
        update(
            &mut svc,
            &mut engine,
            &mut infra,
            &mut attempts,
            &mut commits,
        );
    }

    // Part 1: rolling leader kill. Crash the current leader, let the
    // failure detector reach suspicion on virtual time, elect, and
    // measure MTTR as crash -> first linearizable read served by the
    // new leader.
    let mut mttr_us: Vec<u64> = Vec::new();
    for round in 0..ROUNDS {
        let view = infra.groups.view(svc.group()).expect("group exists");
        let leader = view.leader.expect("elected group has a leader");
        let leader_idx = sim_idx(&engine, leader);
        let t_kill = engine.now();
        engine.sim_mut().topology_mut().crash(leader_idx);
        assert!(
            svc.quorum_read(&mut engine, &mut infra).is_err(),
            "round {round}: reads must fail while the leader is down"
        );
        let mut rounds = 0;
        while !detector.is_suspected(leader) {
            detector.run_round(&mut engine);
            rounds += 1;
            assert!(
                rounds <= 8,
                "round {round}: detector never suspected the dead leader"
            );
        }
        svc.fail_over(&mut engine, &mut infra)
            .expect("a majority survives a single leader kill");
        svc.quorum_read(&mut engine, &mut infra)
            .expect("new leader serves reads");
        mttr_us.push(engine.now().as_micros() - t_kill.as_micros());
        for _ in 0..UPDATES_PER_ROUND {
            update(
                &mut svc,
                &mut engine,
                &mut infra,
                &mut attempts,
                &mut commits,
            );
        }
        // The killed leader heals; the next commits Gap->Sync repair it.
        engine.sim_mut().topology_mut().restart(leader_idx);
        for _ in 0..2 {
            update(
                &mut svc,
                &mut engine,
                &mut infra,
                &mut attempts,
                &mut commits,
            );
        }
    }

    // Part 2: partition during the commit schedule. Cut the client from
    // a majority of replicas: the in-flight update must NOT commit
    // (QuorumLost, sequence number not advanced), and the retry after
    // healing must commit exactly once.
    let client_idx = engine.sim_node(client).expect("client exists");
    let cut: Vec<NodeIdx> = replicas
        .iter()
        .map(|r| sim_idx(&engine, *r))
        .take(3)
        .collect();
    for idx in &cut {
        engine.sim_mut().topology_mut().partition(client_idx, *idx);
    }
    attempts += 1;
    match svc.quorum_update(&mut engine, &mut infra, update_k) {
        Err(ReplicationError::QuorumLost { acks, needed }) => {
            assert!(acks < needed, "quorum arithmetic holds");
        }
        other => panic!("partitioned majority must lose the quorum, got {other:?}"),
    }
    for idx in &cut {
        engine.sim_mut().topology_mut().heal(client_idx, *idx);
    }
    for _ in 0..2 {
        update(
            &mut svc,
            &mut engine,
            &mut infra,
            &mut attempts,
            &mut commits,
        );
    }

    // Part 3: stale-front fencing. A second front attaches and elects a
    // newer epoch (the takeover a partitioned-away primary cannot see);
    // the old front's next write must be fenced by the replicas, never
    // committed.
    let mut front2 = ReplicatedService::attach(&mut engine, &mut infra, client, svc.group())
        .expect("takeover front elects");
    attempts += 1;
    match svc.quorum_update(&mut engine, &mut infra, update_k) {
        Err(ReplicationError::Fenced { epoch, newer }) => {
            assert!(newer > epoch, "fencing names the newer epoch");
        }
        other => panic!("stale front must be fenced, got {other:?}"),
    }
    for _ in 0..UPDATES_PER_ROUND {
        update(
            &mut front2,
            &mut engine,
            &mut infra,
            &mut attempts,
            &mut commits,
        );
    }
    front2
        .quorum_read(&mut engine, &mut infra)
        .expect("group serves after the takeover");

    // The oracle audits the whole schedule from the event stream.
    let oracle = verify_consistency(&bus::snapshot_events());
    oracle.assert_clean(&format!("{label}: the consistency oracle"));
    assert!(
        oracle.fenced_writes() > 0,
        "{label}: the schedule must exercise fencing"
    );
    assert_eq!(oracle.split_brain(), 0);
    assert_eq!(oracle.lost_committed(), 0);

    let fenced_writes = bus::counter("replication.fenced_writes");
    let quorum_losses = bus::counter("replication.quorum_losses");
    let failovers = bus::counter("replication.failovers");
    let suspects = bus::counter("detector.suspects");
    let sync_repairs = bus::counter("replication.sync_repairs");
    let availability = commits as f64 / attempts as f64;
    let min = mttr_us.iter().min().copied().unwrap_or(0);
    let max = mttr_us.iter().max().copied().unwrap_or(0);
    let mean = if mttr_us.is_empty() {
        0
    } else {
        mttr_us.iter().sum::<u64>() / mttr_us.len() as u64
    };

    json::from_fn(move |out| {
        json_into!(out, {
            "label": label,
            "replicas": REPLICAS,
            "rounds": ROUNDS,
            "attempts": attempts,
            "commits": commits,
            "availability": Fixed::<3>(availability),
            "mttr_us": {"samples": mttr_us, "min": min, "mean": mean, "max": max},
            "fenced_writes": fenced_writes,
            "quorum_losses": quorum_losses,
            "failovers": failovers,
            "suspects": suspects,
            "sync_repairs": sync_repairs,
            "oracle": oracle,
        })
    })
}

/// Runs the bank and trader group schedules against `seed` and returns
/// the `BENCH_failover.json` document.
///
/// # Panics
///
/// If any quorum, fencing, or oracle invariant fails.
pub fn run_suite(seed: u64) -> String {
    let bank = group_run("bank", seed, 25);
    let trader = group_run("trader", seed.wrapping_add(1), 1);
    json!({"schema": "rmodp-bench-failover/1", "seed": seed, "groups": [bank, trader]}) + "\n"
}
