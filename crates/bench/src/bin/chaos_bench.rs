//! Chaos benchmark: drives workloads and protocols through seeded fault
//! plans and emits `BENCH_chaos.json` — per-fault MTTR and availability,
//! exactly-once counters, 2PC safety under partitions and crashes, and
//! the circuit-breaker lifecycle (schema `rmodp-bench-chaos/1`,
//! documented in `EXPERIMENTS.md`). The suite itself lives in
//! [`rmodp_bench::chaos_suite`] so the golden test can run it
//! in-process.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rmodp-bench --bin chaos_bench -- [--seed N] [output-path]
//! ```
//!
//! Everything runs on virtual time with seeded RNGs, so the same seed
//! produces a byte-identical file; the golden test pins the committed
//! configuration (`rmodp_bench::artifacts`).

fn main() {
    let args = rmodp_bench::cli::parse(4_242, "target/BENCH_chaos.json", &[]);
    let json = rmodp_bench::chaos_suite::run_suite(args.seed);
    rmodp_bench::cli::write_output(&args.out, &json);
}
