//! The seven deterministic artifacts this reproduction publishes, and
//! the two configurations each is run at.
//!
//! [`ARTIFACTS`] is the only place those configurations are written.
//! Each row has its committed configuration, the one
//! `tests/baselines/<name>` at the workspace root holds, and its full
//! one: a million offers, ~1M OO7 objects, 1,245,184 population
//! capsules. `tests/golden.rs` renders every committed row and compares
//! it byte-for-byte with its file; the `baselines` bin writes rows into
//! a directory, which is how a change that legitimately moves bytes
//! regenerates them and how CI produces its upload. [`select`] reads
//! that bin's arguments. A new pinned artifact is one more row here.

use crate::oo7_suite::Oo7BenchConfig;
use crate::population_suite::PopulationBenchConfig;
use crate::trader_suite::TraderBenchConfig;
use crate::{
    chaos_suite, failover_suite, mechanisms, oo7_suite, population_suite, trader_suite,
    workload_suite,
};

/// One row: the file name under `tests/baselines/` and the suite run
/// that renders it at each configuration.
#[derive(Debug)]
pub struct Artifact {
    /// The file name, under `tests/baselines/` and in any directory the
    /// `baselines` bin writes.
    pub name: &'static str,
    /// The suite at the configuration `tests/baselines/` is committed at.
    pub committed: fn() -> String,
    /// The suite at full scale (`baselines --full`).
    pub full: fn() -> String,
}

/// A row whose suite has one configuration: its full run is its
/// committed one.
const fn one_size(name: &'static str, render: fn() -> String) -> Artifact {
    Artifact {
        name,
        committed: render,
        full: render,
    }
}

/// The table. Every suite is a pure function of its configuration —
/// virtual time, seeded RNGs and metered counters only — so the bytes
/// are the same in debug and release, on any host.
pub const ARTIFACTS: [Artifact; 7] = [
    one_size("BENCH_workload.json", || workload_suite::run_suite(1_000)),
    one_size("BENCH_chaos.json", || chaos_suite::run_suite(4_242)),
    Artifact {
        name: "BENCH_trader.json",
        committed: || {
            trader_suite::run_suite(TraderBenchConfig {
                offers: 50_000,
                imports: 160,
                seed: 42,
            })
        },
        full: || {
            trader_suite::run_suite(TraderBenchConfig {
                offers: 1_000_000,
                imports: 200,
                seed: 42,
            })
        },
    },
    one_size("BENCH_mechanisms.json", || mechanisms::run_suite(70)),
    Artifact {
        name: "BENCH_oo7.json",
        committed: || {
            oo7_suite::run_suite(Oo7BenchConfig {
                scale: 0,
                update_batches: 12,
                seed: 7,
            })
        },
        full: || {
            oo7_suite::run_suite(Oo7BenchConfig {
                scale: 2,
                update_batches: 24,
                seed: 4_242,
            })
        },
    },
    one_size("BENCH_failover.json", || failover_suite::run_suite(4_242)),
    Artifact {
        name: "BENCH_population.json",
        committed: || {
            population_suite::run_suite(PopulationBenchConfig {
                seed: 4_242,
                scale: 0,
            })
        },
        full: || {
            population_suite::run_suite(PopulationBenchConfig {
                seed: 4_242,
                scale: 1,
            })
        },
    },
];

const USAGE: &str = "usage: baselines [--full] <DIR> [NAME…]";

/// What the `baselines` bin writes: the rows, at which configuration,
/// into which directory.
#[derive(Debug)]
pub struct Selection {
    /// The directory each row is written into, as `<dir>/<name>`.
    pub dir: String,
    /// Whether the rows run at their full configuration.
    pub full: bool,
    /// The rows, in table order.
    pub rows: Vec<&'static Artifact>,
}

/// Reads the `baselines` bin's arguments (program name excluded):
/// `[--full] <DIR> [NAME…]`, where a name is a row's file name and no
/// names means every row.
///
/// # Errors
///
/// The message to print, with the usage line: no directory, a flag
/// other than `--full`, or a second argument that names no row.
pub fn select(args: impl IntoIterator<Item = String>) -> Result<Selection, String> {
    let mut full = false;
    let mut dir = None;
    let mut names = Vec::new();
    for arg in args {
        if arg == "--full" {
            full = true;
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag {arg}\n{USAGE}"));
        } else if dir.is_none() {
            dir = Some(arg);
        } else if ARTIFACTS.iter().any(|row| row.name == arg) {
            names.push(arg);
        } else {
            let known: Vec<&str> = ARTIFACTS.iter().map(|row| row.name).collect();
            return Err(format!(
                "{arg} is not an artifact (one directory only); the names are {}\n{USAGE}",
                known.join(", ")
            ));
        }
    }
    let dir = dir.ok_or_else(|| USAGE.to_owned())?;
    let rows = ARTIFACTS
        .iter()
        .filter(|row| names.is_empty() || names.iter().any(|name| name == row.name))
        .collect();
    Ok(Selection { dir, full, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<Selection, String> {
        select(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn arguments_select_rows_or_explain_themselves() {
        let every: Vec<&str> = ARTIFACTS.iter().map(|row| row.name).collect();
        for (args, full, names) in [
            (&["out"][..], false, every.clone()),
            (&["--full", "out"][..], true, every.clone()),
            (&["out", "--full"][..], true, every.clone()),
            (
                &["--full", "out", "BENCH_oo7.json"][..],
                true,
                vec!["BENCH_oo7.json"],
            ),
            (
                &["out", "BENCH_oo7.json", "BENCH_chaos.json"][..],
                false,
                vec!["BENCH_chaos.json", "BENCH_oo7.json"],
            ),
        ] {
            let selection = run(args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert_eq!(selection.dir, "out", "{args:?}");
            assert_eq!(selection.full, full, "{args:?}");
            let chosen: Vec<&str> = selection.rows.iter().map(|row| row.name).collect();
            assert_eq!(chosen, names, "{args:?}");
        }

        for (args, says) in [
            (&[][..], USAGE),
            (&["--full"][..], USAGE),
            (
                &["out", "BENCH_nope.json"][..],
                "BENCH_nope.json is not an artifact",
            ),
            (&["out", "--seed", "7"][..], "unknown flag --seed"),
            (&["-h"][..], "unknown flag -h"),
            (&["a", "b"][..], "b is not an artifact (one directory only)"),
        ] {
            let message = run(args).expect_err(&format!("{args:?} is refused"));
            assert!(message.contains(says), "{args:?}: {message}");
            assert!(message.ends_with(USAGE), "{args:?}: {message}");
        }
        let unknown = run(&["out", "BENCH_nope.json"]).unwrap_err();
        assert!(every.iter().all(|name| unknown.contains(name)), "{unknown}");
    }
}
