//! Population benchmark: drives 1M+ client capsules through the
//! bank-branch and trader-desk scenarios on the sharded kernel and emits
//! `BENCH_population.json` (schema `rmodp-bench-population/1`, documented
//! in `EXPERIMENTS.md` §E15).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rmodp-bench --bin population_bench -- \
//!     [--seed N] [--shards N] [--scale S] [output-path]
//! ```
//!
//! Without `--shards` the suite runs the full matrix {1, 2, 4} and
//! asserts the results are identical; with `--shards N` it runs only at
//! `N` — and still produces the same checksums, which is the point.
//! `--scale 0` is the reduced configuration `tests/baselines/` is
//! committed at; the default (full) scale simulates over a million
//! capsules. Nothing in the run reads a host clock: what these worlds
//! cost in wall-clock time is `benchmark/`'s `pop-bank-s1` / `-s4`.

use rmodp_bench::population_suite::{run_suite, PopulationBenchConfig, DEFAULT_SEED};

fn main() {
    let args = rmodp_bench::cli::parse(
        DEFAULT_SEED,
        "target/BENCH_population.json",
        &["--shards", "--scale"],
    );
    let cfg = PopulationBenchConfig {
        seed: args.seed,
        shards: args.extra[0].map(|n| n as usize),
        scale: args.extra[1].map_or(1, |s| s.min(1) as u8),
    };
    let json = run_suite(cfg);
    rmodp_bench::cli::write_output(&args.out, &json);
}
