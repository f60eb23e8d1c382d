//! The population-scale sharded-kernel suite behind `BENCH_population.json`.
//!
//! [`run_suite`] drives the bank-branch and trader-desk population
//! scenarios (the full scale simulates **1,245,184 client capsules**:
//! 1,048,576 bank + 196,608 trader) through the sharded kernel at a
//! matrix of shard counts, asserting after every scenario that the
//! canonical export checksum, the audited server-state checksum, the
//! event count and the SLO verdict are **identical at every shard
//! count** — the sharded kernel's core determinism contract.
//!
//! Everything in the emitted `BENCH_population.json` (schema
//! `rmodp-bench-population/1`, documented in `EXPERIMENTS.md` §E15)
//! derives from virtual time and deterministic counts, and nothing here
//! reads a host clock, so the suite is a pure function of its
//! configuration: the file is byte-identical across same-seed reruns on
//! any host. What the same worlds cost in wall-clock time is
//! `benchmark/`'s `pop-bank-s1` / `pop-bank-s4`.
//!
//! A million capsules would otherwise buffer millions of events nobody
//! reads, so the suite switches the observe bus **off** around the
//! matrix (and restores the caller's setting afterwards). The artifact
//! is computed from the completion logs and the audited server states,
//! never from the bus, so it is the same bytes either way; threaded
//! shard workers inherit the setting from the thread that runs the
//! kernel.
//!
//! Cross-shard payloads ride the kernel's `Arc`-backed
//! [`Payload`](rmodp_kernel::payload::Payload): depositing a message
//! into another shard's queue clones the `Arc`, never the bytes, so the
//! exchange stays copy-free however many shards the run spans.

use rmodp_observe::json::ToJson;
use rmodp_observe::{bus, json, json_into};
use rmodp_workload::population::{
    run_population, PopulationConfig, PopulationOutcome, PopulationScenario,
};

/// Suite parameters (a row of `rmodp_bench::artifacts::ARTIFACTS`).
#[derive(Debug, Clone, Copy)]
pub struct PopulationBenchConfig {
    /// Base seed shared by every run in the matrix.
    pub seed: u64,
    /// 0 = CI scale (thousands of capsules), 1 = full scale (1M+).
    pub scale: u8,
}

/// The shard counts every scenario runs at.
const MATRIX: [usize; 3] = [1, 2, 4];

fn scenario_config(
    scenario: PopulationScenario,
    cfg: &PopulationBenchConfig,
    shards: usize,
) -> PopulationConfig {
    if cfg.scale == 0 {
        let mut config = PopulationConfig::new(scenario, cfg.seed, shards);
        match scenario {
            PopulationScenario::Bank => {
                config.regions = 8;
                config.capsules_per_region = 256;
                config.ops_per_capsule = 1;
            }
            PopulationScenario::Trader => {
                config.regions = 6;
                config.capsules_per_region = 128;
                config.ops_per_capsule = 2;
            }
        }
        config.arrival_window = rmodp_netsim::time::SimDuration::from_millis(100);
        config
    } else {
        PopulationConfig::full_scale(scenario, cfg.seed, shards)
    }
}

/// Runs one scenario at every shard count of [`MATRIX`], asserts that
/// the runs agree, and returns its capsule count and its block of the
/// document.
///
/// # Panics
///
/// If any run's export checksum, state checksum, event count or SLO
/// verdict differs from the first run's.
fn scenario_block(scenario: PopulationScenario, cfg: &PopulationBenchConfig) -> (u64, impl ToJson) {
    let mut runs: Vec<PopulationOutcome> = Vec::new();
    for shards in MATRIX {
        let outcome = run_population(&scenario_config(scenario, cfg, shards));
        println!(
            "population {} shards={} capsules={} events={}",
            scenario.name(),
            shards,
            outcome.capsules,
            outcome.events,
        );
        runs.push(outcome);
    }

    let base = &runs[0];
    for o in &runs[1..] {
        assert_eq!(
            o.export_checksum,
            base.export_checksum,
            "{} export checksum differs between {} and {} shards",
            scenario.name(),
            base.shards,
            o.shards
        );
        assert_eq!(o.state_checksum, base.state_checksum);
        assert_eq!(o.events, base.events);
        assert_eq!(o.report, base.report);
    }
    let capsules = base.capsules;
    let config = scenario_config(scenario, cfg, MATRIX[0]);
    let block = json::from_fn(move |out| {
        let base = &runs[0];
        json_into!(out, {
            "capsules": base.capsules,
            "regions": config.regions,
            "capsules_per_region": config.capsules_per_region,
            "ops_per_capsule": config.ops_per_capsule,
            "arrival_window_us": config.arrival_window.as_micros(),
            "runs": [for o in &runs => {
                "shards": o.shards,
                "events": o.events,
                "epochs": o.epochs,
                "cross_shard_messages": o.cross_shard_messages,
                "offered": o.stats.offered,
                "completed": o.stats.completed,
                "lost": o.stats.lost,
                "finished_virtual_us": o.finished_us,
                "p50_us": o.report.p50_us,
                "p95_us": o.report.p95_us,
                "p99_us": o.report.p99_us,
                "export_checksum": o.export_checksum,
                "state_checksum": o.state_checksum,
                "slo_pass": o.report.pass,
            }],
            "invariant": {
                "export_checksum": base.export_checksum,
                "state_checksum": base.state_checksum,
                "identical_across_shard_counts": true,
            },
        })
    });
    (capsules, block)
}

/// Runs the suite and renders `BENCH_population.json`.
///
/// # Panics
///
/// If any scenario's export checksum, state checksum, event count or SLO
/// verdict differs between shard counts — that would mean the sharded
/// kernel broke its determinism contract.
pub fn run_suite(cfg: PopulationBenchConfig) -> String {
    let was_enabled = bus::is_enabled();
    bus::set_enabled(false);
    let (bank_capsules, bank) = scenario_block(PopulationScenario::Bank, &cfg);
    let (trader_capsules, trader) = scenario_block(PopulationScenario::Trader, &cfg);
    bus::set_enabled(was_enabled);

    json!({
        "schema": "rmodp-bench-population/1",
        "config": {
            "seed": cfg.seed,
            "scale": if cfg.scale == 0 { "ci" } else { "full" },
            "shard_counts": MATRIX,
            "lookahead_us": rmodp_workload::population::CROSS_LATENCY.as_micros(),
            "total_capsules": bank_capsules + trader_capsules,
        },
        "scenarios": {"bank": bank, "trader": trader},
    }) + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_scale_suite_is_deterministic_and_invariant() {
        let cfg = PopulationBenchConfig { seed: 99, scale: 0 };
        let a = run_suite(cfg);
        let b = run_suite(cfg);
        assert_eq!(a, b, "same seed, same bytes");
        assert!(a.contains(r#""schema":"rmodp-bench-population/1""#));
        assert!(a.contains(r#""identical_across_shard_counts":true"#));
    }
}
