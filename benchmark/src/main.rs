//! `rmodp-benchmark`: the invocation path, trader and store, end to end
//! and per layer. See the README beside this crate.
//!
//! ```text
//! rmodp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rmodp-benchmark all [--seed <n>] [--seconds <s>] [--quick]
//! rmodp-benchmark manifest        # BENCHMARK.json, from the metric tables
//! rmodp-benchmark expected        # expected.json, from a run at seed 4242
//! ```
//!
//! The first form is what the driver runs: it prints every metric as
//! `workload metric value unit` and, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod clock;
mod expected;
mod host;
mod json;
mod metrics;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Json;
use run::{Options, Report};
use workloads::Size;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where `all` and traced runs leave their files, relative to the
/// directory the benchmark is started from (the repository root).
const OUT_DIR: &str = "benchmark/out";

#[derive(Debug)]
struct Cli {
    command: Option<String>,
    workload: Option<String>,
    options: Options,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        options: Options {
            seed: expected::PINNED_SEED,
            seconds: 10.0,
            trace: false,
            size: Size::Full,
            out_dir: Some(PathBuf::from(OUT_DIR)),
        },
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds: {seconds} is out of range"));
                }
                cli.options.seconds = seconds;
            }
            "--trace" => {
                cli.options.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => cli.options.size = Size::Quick,
            "--out" => cli.options.out_dir = Some(PathBuf::from(value("--out")?)),
            command if !command.starts_with('-') && cli.command.is_none() => {
                cli.command = Some(command.to_owned());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// The result line the contract asks for.
fn result_line(report: &Report) -> Json {
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::int(report.attempted.max(1))),
        ("failed", Json::int(report.failed)),
        (
            "metrics",
            Json::obj(report.metrics.iter().map(|(name, value, unit)| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str((*unit).into())),
                    ]),
                )
            })),
        ),
    ])
}

fn print_report(report: &Report) {
    for (name, value, unit) in &report.metrics {
        println!("{} {name} {value} {unit}", report.workload);
    }
    for problem in &report.problems {
        eprintln!("{}: CHECK FAILED: {problem}", report.workload);
    }
    eprintln!(
        "{}: {} passes, {} operations attempted, {} failed, correct={}",
        report.workload, report.passes, report.attempted, report.failed, report.correct
    );
}

fn one_workload(name: &str, options: &Options) -> ExitCode {
    let Some(report) = run::run_by_name(name, options) else {
        eprintln!("no workload called {name}; there are:");
        for (name, why) in metrics::WORKLOADS {
            eprintln!("  {name}: {why}");
        }
        return ExitCode::from(2);
    };
    print_report(&report);
    println!("{}", result_line(&report).render());
    ExitCode::SUCCESS
}

/// `BENCHMARK.json`, rendered from the metric tables: one top-level key
/// per line and one workload or metric per line (people read it too).
fn manifest(run_seconds: u64) -> String {
    let text = |s: &str| Json::Str(s.into());
    let metric = |m: &metrics::Metric| {
        vec![
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better)),
        ]
    };
    let lines = |items: Vec<Json>| {
        let rows: Vec<String> = items.iter().map(Json::render).collect();
        format!("[\n  {}\n]", rows.join(",\n  "))
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let keys = [
        (
            "command",
            Json::Arr(command.iter().map(|s| text(s)).collect()).render(),
        ),
        ("paths", Json::Arr(vec![text("benchmark")]).render()),
        ("run_seconds", Json::int(run_seconds).render()),
        (
            "workloads",
            lines(
                metrics::WORKLOADS
                    .iter()
                    .map(|(name, why)| Json::obj([("name", text(name)), ("why", text(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            lines(
                metrics::END_TO_END
                    .iter()
                    .map(|(m, bound)| {
                        let mut pairs = metric(m);
                        pairs.push(("bound", Json::Num(*bound)));
                        Json::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            lines(
                metrics::PER_LAYER
                    .iter()
                    .map(|m| Json::obj(metric(m)))
                    .collect(),
            ),
        ),
    ];
    let body: Vec<String> = keys
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// `expected.json`: what a run at the pinned seed produces now.
fn expected_file() -> String {
    let options = Options {
        seed: expected::PINNED_SEED,
        seconds: 0.0,
        trace: false,
        size: Size::Full,
        out_dir: None,
    };
    let entries: Vec<String> = metrics::WORKLOADS
        .iter()
        .map(|(name, _)| {
            let report = run::run_by_name(name, &options).expect("listed workload");
            format!("\"{name}\":{}", expected::entry(&report.pinned).render())
        })
        .collect();
    format!(
        "{{\"seed\":{},\"workloads\":{{\n{}\n}}}}\n",
        expected::PINNED_SEED,
        entries.join(",\n")
    )
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Every workload, each in a process of its own (so `peak_rss_mb` is
/// that workload's), first end to end, then traced. Writes
/// `results.json`; fails if any check failed.
fn all(options: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out_dir = options.out_dir.clone().unwrap_or_else(|| OUT_DIR.into());
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (name, _) in metrics::WORKLOADS {
        let mut entry = vec![];
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name, "--trace", trace])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .arg("--out")
                .arg(&out_dir);
            if options.size == Size::Quick {
                child.arg("--quick");
            }
            // `output` waits for the child; its stderr passes through.
            let output = match child.stderr(std::process::Stdio::inherit()).output() {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("{name}: cannot start: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let Some((human, last)) = stdout.trim_end().rsplit_once('\n') else {
                eprintln!("{name}: printed no result");
                return ExitCode::FAILURE;
            };
            println!("{human}");
            let result = match Json::parse(last) {
                Ok(result) if output.status.success() => result,
                _ => {
                    eprintln!("{name}: no result line ({})", output.status);
                    return ExitCode::FAILURE;
                }
            };
            if result.get("correct") != Some(&Json::Bool(true)) {
                all_correct = false;
            }
            entry.push((key, result));
        }
        workloads.push((*name, Json::obj(entry)));
    }
    let results = Json::obj([
        (
            "host",
            Json::obj([
                ("nproc", Json::int(host::nproc() as u64)),
                ("cpu_model", Json::Str(host::cpu_model())),
                ("rustc", Json::Str(rustc_version())),
                ("calibration_reference_s", Json::Num(clock::REFERENCE_S)),
            ]),
        ),
        ("seed", Json::int(options.seed)),
        ("seconds", Json::Num(options.seconds)),
        ("quick", Json::Bool(options.size == Size::Quick)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = out_dir.join("results.json");
    if let Err(e) = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, results.render() + "\n"))
    {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one workload failed its checks");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match (cli.command.as_deref(), cli.workload.as_deref()) {
        (None, Some(name)) => one_workload(name, &cli.options),
        (Some("all"), None) => all(&cli.options),
        (Some("manifest"), None) => {
            print!("{}", manifest(cli.options.seconds as u64));
            ExitCode::SUCCESS
        }
        (Some("expected"), None) => {
            print!("{}", expected_file());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: rmodp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       rmodp-benchmark all [--seed <n>] [--seconds <s>] [--quick]"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let cli = parse(&strings(&[
            "--workload",
            "trader-mix",
            "--seed",
            "99",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("trader-mix"));
        assert_eq!(cli.options.seed, 99);
        assert_eq!(cli.options.seconds, 10.0);
        assert!(cli.options.trace);
        assert!(cli.command.is_none());

        assert!(parse(&strings(&["--trace", "2"])).is_err());
        assert!(parse(&strings(&["--seed"])).is_err());
        assert!(parse(&strings(&["--seconds", "-1"])).is_err());
        assert!(parse(&strings(&["--bogus"])).is_err());
        assert_eq!(
            parse(&strings(&["all", "--quick"])).unwrap().options.size,
            Size::Quick
        );
    }

    #[test]
    fn the_manifest_is_the_committed_benchmark_json() {
        let committed = include_str!("../../BENCHMARK.json");
        let seconds = Json::parse(committed)
            .unwrap()
            .get("run_seconds")
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(manifest(seconds as u64), committed);
        assert!(committed.len() <= 64 * 1024);
    }

    fn quick(trace: bool) -> Options {
        Options {
            seed: 7,
            seconds: 0.0,
            trace,
            size: Size::Quick,
            out_dir: None,
        }
    }

    /// All six workloads at the quick sizes, end to end: correct, nothing
    /// failed, every end-to-end metric present and positive.
    #[test]
    fn quick_run_of_every_workload() {
        for (name, _) in metrics::WORKLOADS {
            let report = run::run_by_name(name, &quick(false)).expect("listed");
            assert!(report.correct, "{name}: {:?}", report.problems);
            assert_eq!(report.failed, 0, "{name}");
            assert!(report.passes >= 3, "{name}");
            let names: Vec<&str> = report.metrics.iter().map(|(n, _, _)| *n).collect();
            let wanted: Vec<&str> = metrics::END_TO_END.iter().map(|(m, _)| m.name).collect();
            assert_eq!(names, wanted, "{name}");
            for (metric, value, _) in &report.metrics {
                assert!(
                    *value > 0.0 && value.is_finite(),
                    "{name} {metric} = {value}"
                );
            }
            let line = result_line(&report).render();
            let parsed = Json::parse(&line).unwrap();
            assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
            assert!(parsed.get("metrics").unwrap().get("setup_s").is_some());
        }
    }

    /// The traced run reports every per-layer metric, by name, and its
    /// exact counts repeat from one run to the next.
    #[test]
    fn quick_traced_run_reports_every_layer_metric_and_exact_counts_repeat() {
        const EXACT: &[&str] = &[
            "host.allocs_per_op",
            "host.alloc_bytes_per_op",
            "kernel.events_per_op",
            "kernel.shard.epochs",
            "netsim.delivered_per_op",
            "trader.offers_examined_per_import",
            "trader.plans_indexed",
            "store.media.wal_bytes_per_put",
            "store.compactions",
        ];
        for (name, _) in metrics::WORKLOADS {
            let first = run::run_by_name(name, &quick(true)).expect("listed");
            let second = run::run_by_name(name, &quick(true)).expect("listed");
            assert!(first.correct, "{name}: {:?}", first.problems);
            assert_eq!(first.metrics.len(), metrics::PER_LAYER.len());
            for ((metric, a, _), (_, b, _)) in first.metrics.iter().zip(&second.metrics) {
                assert!(a.is_finite(), "{name} {metric}");
                if EXACT.contains(metric) {
                    assert_eq!(a, b, "{name} {metric} must repeat exactly");
                }
            }
            let value = |metric: &str| {
                first
                    .metrics
                    .iter()
                    .find(|(n, _, _)| *n == metric)
                    .map(|(_, v, _)| *v)
                    .unwrap()
            };
            assert!(value("host.allocs_per_op") > 0.0, "{name}");
            assert!(value("kernel.queue.schedule_pop_ns") > 0.0, "{name}");
            assert_eq!(first.pinned, second.pinned, "{name}");
        }
    }

    /// A value that differs from `expected.json` makes the run incorrect.
    #[test]
    fn an_expected_json_mismatch_flips_correct() {
        let options = Options {
            seed: expected::PINNED_SEED,
            seconds: 0.0,
            trace: false,
            size: Size::Full,
            out_dir: None,
        };
        let report = run::run_by_name("engine-call", &options).expect("listed");
        assert!(report.correct, "{:?}", report.problems);
        let mut tampered = report.pinned.clone();
        tampered[0].1 = workloads::Pin::Count(1);
        assert!(!expected::check("engine-call", &tampered).is_empty());
        assert!(expected::check("engine-call", &report.pinned).is_empty());
    }
}
