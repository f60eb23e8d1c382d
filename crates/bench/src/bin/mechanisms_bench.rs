//! Mechanisms benchmark: measures the unified kernel and the
//! allocation-light invocation path, emitting `BENCH_mechanisms.json`
//! (schema `rmodp-bench-mechanisms/1`, documented in `EXPERIMENTS.md`).
//! The suite itself lives in [`rmodp_bench::mechanisms`] so the golden
//! test can run it in-process.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rmodp-bench --bin mechanisms_bench -- [--seed N] [output-path]
//! ```
//!
//! The default output path is `target/BENCH_mechanisms.json`. Every
//! figure in the file derives from virtual time or metered counters, so
//! the same seed produces a byte-identical file; the golden test pins
//! the committed configuration (`rmodp_bench::artifacts`).

fn main() {
    let args = rmodp_bench::cli::parse(
        rmodp_bench::mechanisms::DEFAULT_SEED,
        "target/BENCH_mechanisms.json",
        &[],
    );
    let json = rmodp_bench::mechanisms::run_suite(args.seed);
    rmodp_bench::cli::write_output(&args.out, &json);
}
