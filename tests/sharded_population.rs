//! Cross-crate determinism of the sharded kernel: the same seed must
//! produce byte-identical observable results at any shard count, with
//! and without fault injection, on serial and threaded execution (each
//! sharded run below is made both ways).

use rmodp_chaos::plan::{FaultKind, FaultPlan};
use rmodp_netsim::sim::{NodeIdx, ShardAction};
use rmodp_netsim::time::{SimDuration, SimTime};
use rmodp_netsim::topology::{LinkConfig, Topology};
use rmodp_observe::oracle::Verdict;
use rmodp_workload::population::{
    run_population, run_population_with, PopulationConfig, PopulationScenario, CROSS_LATENCY,
};

fn config(scenario: PopulationScenario, shards: usize) -> PopulationConfig {
    let mut config = PopulationConfig::new(scenario, 20_260_808, shards);
    config.regions = 6;
    config.capsules_per_region = 32;
    config.ops_per_capsule = 3;
    config.arrival_window = SimDuration::from_millis(100);
    config.collect_export = true;
    config
}

#[test]
fn bank_branch_runs_are_identical_at_shard_counts_1_2_4() {
    let base = run_population(&config(PopulationScenario::Bank, 1));
    assert_eq!(base.stats.offered, 6 * 32 * 3, "every op was issued");
    assert_eq!(base.stats.lost, 0, "no faults, no losses");
    base.report.assert_clean("the unsharded bank run");

    for (shards, threaded) in [(2, false), (2, true), (4, false), (4, true)] {
        let at = format!("at {shards} shards, threaded: {threaded}");
        let mut config = config(PopulationScenario::Bank, shards);
        config.threaded = threaded;
        let run = run_population(&config);
        assert!(
            run.cross_shard_messages > 0,
            "must exercise the cross-shard merge {at}"
        );
        assert_eq!(run.export, base.export, "JSONL observe export differs {at}");
        assert_eq!(run.export_checksum, base.export_checksum, "{at}");
        assert_eq!(run.state_checksum, base.state_checksum, "{at}");
        assert_eq!(run.events, base.events, "event count {at}");
        assert_eq!(run.report, base.report, "SLO verdict differs {at}");
    }
}

/// The timeline of `plan` on the population's network, from `t = 0`.
fn timeline(plan: &FaultPlan) -> Vec<(SimTime, Vec<ShardAction>)> {
    let topology = Topology::full_mesh(LinkConfig::with_latency(CROSS_LATENCY));
    plan.timeline(SimTime::ZERO, &topology)
}

#[test]
fn fault_injection_stays_shard_count_invariant() {
    // Crash region 1's server (node 2) mid-run: requests in flight to it
    // die, the capsules that targeted it stall, and the verdict flips.
    // Before it, a latency spike slows region 0 (nodes 0 and 1). Both
    // land identically at every shard count.
    let ms = SimDuration::from_millis;
    let plan = FaultPlan::new()
        .with(
            ms(20),
            FaultKind::CrashRestart {
                node: NodeIdx(2),
                down_for: ms(40),
            },
        )
        .with(
            ms(10),
            FaultKind::LatencySpike {
                a: NodeIdx(0),
                b: NodeIdx(1),
                extra: ms(3),
                window: ms(30),
            },
        );

    let timeline = timeline(&plan);
    let run_at = |shards: usize, threaded: bool| {
        let mut config = config(PopulationScenario::Bank, shards);
        config.threaded = threaded;
        run_population_with(&config, &timeline).expect("latency and crashes are shard actions")
    };

    let base = run_at(1, false);
    assert!(base.stats.lost > 0, "the crash must actually cost requests");
    assert_eq!(base.hook_firings, 4, "spike, crash, spike clear, restart");

    for (shards, threaded) in [(2, false), (2, true), (3, false), (3, true)] {
        let at = format!("at {shards} shards, threaded: {threaded}");
        let run = run_at(shards, threaded);
        assert_eq!(run.export, base.export, "faulted export {at}");
        assert_eq!(run.export_checksum, base.export_checksum, "{at}");
        assert_eq!(run.state_checksum, base.state_checksum, "{at}");
        assert_eq!(run.stats.lost, base.stats.lost, "{at}");
        assert_eq!(run.hook_firings, base.hook_firings, "{at}");
        assert_eq!(run.report, base.report, "{at}");
    }
}

#[test]
fn loss_and_jitter_are_refused_before_the_first_event() {
    // Each shard would draw them from its own RNG stream.
    let burst = FaultPlan::new().with(
        SimDuration::from_millis(10),
        FaultKind::LossBurst {
            a: NodeIdx(0),
            b: NodeIdx(1),
            loss: 0.5,
            window: SimDuration::from_millis(20),
        },
    );
    let jitter = LinkConfig::with_latency(CROSS_LATENCY).jitter(SimDuration::from_micros(1));
    let jittery = vec![(
        SimTime::from_micros(10_000),
        vec![ShardAction::SetLink(NodeIdx(1), NodeIdx(0), jitter)],
    )];
    let config = config(PopulationScenario::Bank, 2);
    for (timeline, names) in [
        (timeline(&burst), "set link n0->n1"),
        (jittery, "set link n1->n0"),
    ] {
        let err = run_population_with(&config, &timeline).unwrap_err();
        assert!(err.contains(names), "{err}");
    }
}
