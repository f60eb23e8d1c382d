//! Writes the deterministic artifacts of
//! [`rmodp_bench::artifacts::ARTIFACTS`] into a directory: every row,
//! or the rows named, each at its committed configuration or, with
//! `--full`, at its full one.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rmodp-bench --bin baselines -- [--full] <DIR> [NAME…]
//! ```
//!
//! Pointed at `tests/baselines` without `--full` it regenerates the
//! committed files — a change that legitimately moves bytes runs it and
//! commits the diff, which is then the review surface. Pointed anywhere
//! else it produces what CI uploads and `diff -r`s against
//! `tests/baselines`. `NAME` is a row's file name (`BENCH_oo7.json`).
//! There is no other option: the configurations are the table's, not
//! the caller's.

fn main() {
    let selection = rmodp_bench::artifacts::select(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    for row in selection.rows {
        let render = if selection.full {
            row.full
        } else {
            row.committed
        };
        write_output(&format!("{}/{}", selection.dir, row.name), &render());
    }
}

/// Writes one artifact, creating its directory.
///
/// # Panics
///
/// On I/O failure — the bin has no one to report errors to.
fn write_output(out: &str, json: &str) {
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(out, json).expect("write benchmark output");
    println!("wrote {out}");
}
