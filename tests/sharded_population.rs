//! Cross-crate determinism of the sharded kernel: the same seed must
//! produce byte-identical observable results at any shard count, with
//! and without fault injection, on serial and threaded execution (each
//! sharded run below is made both ways).

use rmodp_chaos::plan::{FaultKind, FaultPlan};
use rmodp_netsim::sim::NodeIdx;
use rmodp_netsim::time::SimDuration;
use rmodp_observe::oracle::Verdict;
use rmodp_workload::population::{
    run_population, run_population_with, PopulationConfig, PopulationScenario,
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

#[test]
fn fault_injection_stays_shard_count_invariant() {
    // Crash region 1's server (node 2) mid-run: requests in flight to it
    // die, the capsules that targeted it stall, and the verdict flips —
    // identically at every shard count.
    let plan = FaultPlan::new().with(
        SimDuration::from_millis(20),
        FaultKind::CrashRestart {
            node: NodeIdx(2),
            down_for: SimDuration::from_millis(40),
        },
    );

    let timeline = rmodp_chaos::shard::compile(&plan).expect("topology-level plan");
    let run_at = |shards: usize, threaded: bool| {
        let mut config = config(PopulationScenario::Bank, shards);
        config.threaded = threaded;
        run_population_with(&config, &timeline)
    };

    let base = run_at(1, false);
    assert!(base.stats.lost > 0, "the crash must actually cost requests");
    assert_eq!(base.hook_firings, 2, "crash + restart");

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
