//! Writes every deterministic artifact in
//! [`rmodp_bench::artifacts::ARTIFACTS`] into a directory, each at its
//! committed configuration.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rmodp-bench --bin baselines -- <DIR>
//! ```
//!
//! Pointed at `tests/baselines` it regenerates the committed files — a
//! change that legitimately moves bytes runs it and commits the diff,
//! which is then the review surface. Pointed anywhere else it produces
//! what CI uploads and `diff -r`s against `tests/baselines`. The
//! directory is required and there are no flags: the configurations are
//! the table's, not the caller's.

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = match (args.next(), args.next()) {
        (Some(dir), None) if !dir.starts_with('-') => dir,
        _ => {
            eprintln!("usage: baselines <DIR>");
            std::process::exit(2);
        }
    };
    for (name, render) in rmodp_bench::artifacts::ARTIFACTS {
        rmodp_bench::cli::write_output(&format!("{dir}/{name}"), &render());
    }
}
