//! The seven deterministic artifacts this reproduction publishes, and
//! the one configuration each is committed at.
//!
//! [`ARTIFACTS`] is the only place those configurations are written.
//! `tests/golden.rs` renders every row and compares it byte-for-byte
//! with `tests/baselines/<name>` at the workspace root; the `baselines`
//! bin writes every row into a directory, which is how a change that
//! legitimately moves bytes regenerates them and how CI produces its
//! upload. A new pinned artifact is one more row here. (The per-suite
//! bins keep their own flag defaults — `trader_bench` alone runs a
//! million offers — and are not what the baselines were rendered with.)

use crate::oo7_suite::Oo7BenchConfig;
use crate::population_suite::PopulationBenchConfig;
use crate::trader_suite::TraderBenchConfig;
use crate::{
    chaos_suite, failover_suite, mechanisms, oo7_suite, population_suite, trader_suite,
    workload_suite,
};

/// One row: the file name under `tests/baselines/` and the suite run
/// that renders it.
pub type Artifact = (&'static str, fn() -> String);

/// The table. Every suite is a pure function of its configuration —
/// virtual time, seeded RNGs and metered counters only — so the bytes
/// are the same in debug and release, on any host.
pub const ARTIFACTS: [Artifact; 7] = [
    ("BENCH_workload.json", || workload_suite::run_suite(1_000)),
    ("BENCH_chaos.json", || chaos_suite::run_suite(4_242)),
    ("BENCH_trader.json", || {
        trader_suite::run_suite(TraderBenchConfig {
            offers: 50_000,
            imports: 160,
            seed: 42,
        })
    }),
    ("BENCH_mechanisms.json", || mechanisms::run_suite(70)),
    ("BENCH_oo7.json", || {
        oo7_suite::run_suite(Oo7BenchConfig {
            scale: 0,
            update_batches: 12,
            seed: 7,
        })
    }),
    ("BENCH_failover.json", || failover_suite::run_suite(4_242)),
    ("BENCH_population.json", || {
        // `shards: None` is the full {1, 2, 4} matrix.
        population_suite::run_suite(PopulationBenchConfig {
            seed: 4_242,
            shards: None,
            scale: 0,
        })
    }),
];
