//! The population-scale sharded-kernel suite behind `population_bench`.
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
//! configuration: the file is byte-identical across same-seed reruns at
//! any `--shards` setting on any host. What the same worlds cost in
//! wall-clock time is `benchmark/`'s `pop-bank-s1` / `pop-bank-s4`.
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

use rmodp_observe::bus;
use rmodp_workload::population::{
    run_population, PopulationConfig, PopulationOutcome, PopulationScenario,
};

/// Suite parameters (`--seed`, `--shards`, `--scale` on the binary).
#[derive(Debug, Clone, Copy)]
pub struct PopulationBenchConfig {
    /// Base seed shared by every run in the matrix.
    pub seed: u64,
    /// `None` runs the full matrix {1, 2, 4}; `Some(n)` runs only `n`.
    pub shards: Option<usize>,
    /// 0 = CI scale (thousands of capsules), 1 = full scale (1M+).
    pub scale: u8,
}

impl Default for PopulationBenchConfig {
    fn default() -> Self {
        Self {
            seed: DEFAULT_SEED,
            shards: None,
            scale: 1,
        }
    }
}

/// The default seed `population_bench` runs with.
pub const DEFAULT_SEED: u64 = 4242;

/// The shard counts the full matrix exercises.
pub const MATRIX: [usize; 3] = [1, 2, 4];

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

fn render_run(o: &PopulationOutcome) -> String {
    let (p50, p95, p99) = (o.report.p50_us, o.report.p95_us, o.report.p99_us);
    format!(
        "{{\"shards\":{},\"events\":{},\"epochs\":{},\"cross_shard_messages\":{},\
         \"offered\":{},\"completed\":{},\"lost\":{},\"finished_virtual_us\":{},\
         \"p50_us\":{p50},\"p95_us\":{p95},\"p99_us\":{p99},\
         \"export_checksum\":{},\"state_checksum\":{},\"slo_pass\":{}}}",
        o.shards,
        o.events,
        o.epochs,
        o.cross_shard_messages,
        o.stats.offered,
        o.stats.completed,
        o.stats.lost,
        o.finished_us,
        o.export_checksum,
        o.state_checksum,
        o.report.pass,
    )
}

/// Runs the suite and renders `BENCH_population.json`.
///
/// # Panics
///
/// If any scenario's export checksum, state checksum, event count or SLO
/// verdict differs between shard counts — that would mean the sharded
/// kernel broke its determinism contract.
pub fn run_suite(cfg: PopulationBenchConfig) -> String {
    let shard_counts: Vec<usize> = match cfg.shards {
        Some(n) => vec![n],
        None => MATRIX.to_vec(),
    };
    let scale_name = if cfg.scale == 0 { "ci" } else { "full" };
    let was_enabled = bus::is_enabled();
    bus::set_enabled(false);

    let mut scenario_blocks = Vec::new();
    let mut total_capsules = 0u64;
    for scenario in [PopulationScenario::Bank, PopulationScenario::Trader] {
        let mut runs: Vec<PopulationOutcome> = Vec::new();
        for &shards in &shard_counts {
            let outcome = run_population(&scenario_config(scenario, &cfg, shards));
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
        total_capsules += base.capsules;

        let config = scenario_config(scenario, &cfg, shard_counts[0]);
        let rendered: Vec<String> = runs.iter().map(render_run).collect();
        scenario_blocks.push(format!(
            "\"{}\":{{\"capsules\":{},\"regions\":{},\"capsules_per_region\":{},\
             \"ops_per_capsule\":{},\"arrival_window_us\":{},\"runs\":[{}],\
             \"invariant\":{{\"export_checksum\":{},\"state_checksum\":{},\
             \"identical_across_shard_counts\":true}}}}",
            scenario.name(),
            base.capsules,
            config.regions,
            config.capsules_per_region,
            config.ops_per_capsule,
            config.arrival_window.as_micros(),
            rendered.join(","),
            base.export_checksum,
            base.state_checksum,
        ));
    }

    bus::set_enabled(was_enabled);
    let shard_list = shard_counts
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"schema\":\"rmodp-bench-population/1\",\"config\":{{\"seed\":{},\
         \"scale\":\"{scale_name}\",\"shard_counts\":[{shard_list}],\
         \"lookahead_us\":{},\"total_capsules\":{total_capsules}}},\
         \"scenarios\":{{{}}}}}\n",
        cfg.seed,
        rmodp_workload::population::CROSS_LATENCY.as_micros(),
        scenario_blocks.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_scale_suite_is_deterministic_and_invariant() {
        let cfg = PopulationBenchConfig {
            seed: 99,
            shards: None,
            scale: 0,
        };
        let a = run_suite(cfg);
        let b = run_suite(cfg);
        assert_eq!(a, b, "same seed, same bytes");
        assert!(a.contains("\"schema\":\"rmodp-bench-population/1\""));
        assert!(a.contains("\"identical_across_shard_counts\":true"));
    }

    #[test]
    fn restricting_the_matrix_keeps_the_same_checksums() {
        let full = run_suite(PopulationBenchConfig {
            seed: 99,
            shards: None,
            scale: 0,
        });
        let single = run_suite(PopulationBenchConfig {
            seed: 99,
            shards: Some(4),
            scale: 0,
        });
        // The invariant blocks (checksums) must agree between a matrix
        // run and a single-shard-count run of the same seed.
        let pick = |s: &str| {
            s.split("\"invariant\":")
                .skip(1)
                .map(|tail| tail.split('}').next().unwrap().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(pick(&full), pick(&single));
    }
}
