//! Running one workload: set-up, timed passes, checks; or the traced run
//! that produces the per-layer metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::alloc;
use crate::clock::{Clock, Timed};
use crate::expected;
use crate::host;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::{self, span};
use crate::stats;
use crate::workloads::engine::EngineCall;
use crate::workloads::pop::PopBank;
use crate::workloads::store::StoreOo7;
use crate::workloads::trader::TraderMix;
use crate::workloads::{PassOutcome, Pin, Size, TraceView, TracedPass, Workload};

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// How long to measure, seconds.
    pub seconds: f64,
    /// Per-layer run (spans, counting allocator, probes) instead of the
    /// end-to-end run.
    pub trace: bool,
    pub size: Size,
    /// Where a traced run writes its spans; `None` keeps them in memory.
    pub out_dir: Option<PathBuf>,
}

/// What one run found.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    /// Every check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in the order of the metric tables.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// What the checks found, for the human reading stderr.
    pub problems: Vec<String>,
    /// What `expected.json` would pin for this seed.
    pub pinned: Vec<(&'static str, Pin)>,
    /// Timed (or traced) passes made.
    pub passes: usize,
}

/// Runs the named workload; `None` if there is no such workload.
pub fn run_by_name(name: &str, options: &Options) -> Option<Report> {
    Some(match name {
        "pop-bank-s1" => run::<PopBank<1>>(options),
        "pop-bank-s4" => run::<PopBank<4>>(options),
        "engine-call" => run::<EngineCall<false>>(options),
        "engine-call-observed" => run::<EngineCall<true>>(options),
        "trader-mix" => run::<TraderMix>(options),
        "store-oo7" => run::<StoreOo7>(options),
        _ => return None,
    })
}

fn run<W: Workload>(options: &Options) -> Report {
    if options.trace {
        traced::<W>(options)
    } else {
        end_to_end::<W>(options)
    }
}

/// Set-up repetitions and the fewest timed passes, by size.
fn repetitions(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (5, 5),
        Size::Quick => (2, 3),
    }
}

/// A pass must repeat the reference pass exactly.
fn compare(reference: &PassOutcome, pass: &PassOutcome, problems: &mut Vec<String>) {
    problems.extend(pass.problems.iter().cloned());
    if pass.pinned != reference.pinned
        || pass.counts != reference.counts
        || pass.ops != reference.ops
    {
        problems.push(format!(
            "a pass did not repeat the first: {:?} against {:?}",
            pass.pinned, reference.pinned
        ));
    }
}

/// Checks that hold for any seed, then the pinned values for seed 4242.
fn checks<W: Workload>(
    workload: &W,
    reference: &PassOutcome,
    options: &Options,
    problems: &mut Vec<String>,
) {
    problems.extend(workload.verify(reference));
    if reference.failed != 0 {
        problems.push(format!(
            "{} of {} operations failed or were lost",
            reference.failed, reference.attempted
        ));
    }
    if options.seed == expected::PINNED_SEED && options.size == Size::Full {
        problems.extend(expected::check(W::NAME, &reference.pinned));
    }
}

/// The end-to-end run: tracing off, nothing counted.
fn end_to_end<W: Workload>(options: &Options) -> Report {
    let (setup_reps, min_passes) = repetitions(options.size);
    let mut clock = Clock::new();
    let mut problems = Vec::new();

    // Set-up is everything before the first timed pass can start: inputs
    // from the seed, the corpus or world, and one warm-up pass. It is
    // done several times and the median reported, so that work a later
    // change moves out of the passes and into set-up shows.
    let mut setups: Vec<Timed> = Vec::new();
    let mut kept: Option<(W, PassOutcome)> = None;
    for _ in 0..setup_reps {
        let ((workload, warmup), timed) = clock.measure(|| {
            let workload = W::new(options.seed, options.size);
            let state = workload.build();
            let warmup = workload.pass(state);
            (workload, warmup)
        });
        setups.push(timed);
        match &kept {
            Some((_, reference)) => compare(reference, &warmup, &mut problems),
            None => kept = Some((workload, warmup)),
        }
    }
    let (workload, reference) = kept.expect("at least one set-up");
    problems.extend(reference.problems.iter().cloned());

    let window = Instant::now();
    let mut passes: Vec<Timed> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut peak_rss_mb = 0.0;
    while passes.len() < min_passes || window.elapsed().as_secs_f64() < options.seconds {
        let state = workload.build();
        let (outcome, timed) = clock.measure(|| workload.pass(state));
        compare(&reference, &outcome, &mut problems);
        attempted += outcome.attempted;
        failed += outcome.failed;
        passes.push(timed);
        // Read after a fixed amount of work, not at exit: every pass is
        // the same, so the high-water mark is set by now, and how many
        // more passes the clock allows would only add heap-layout noise.
        if passes.len() == min_passes {
            peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
        }
    }
    checks(&workload, &reference, options, &mut problems);

    let norm: Vec<f64> = passes.iter().map(Timed::norm_s).collect();
    let setup_norm: Vec<f64> = setups.iter().map(Timed::norm_s).collect();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    // The lower quartile, not the median: what is left after dividing by
    // the slowdown is still one-sided (an episode slows a pass more than
    // the loops around it, never less), and over ten runs the quartile
    // spread by 2-6% where the median spread by 3-8%.
    values.insert(
        "ops_per_s",
        reference.ops as f64 / stats::quartiles(&norm).0,
    );
    values.insert("peak_rss_mb", peak_rss_mb);
    values.insert("setup_s", stats::median(&setup_norm));

    // Raw wall-clock figures, for whoever reads stderr: the reported
    // metrics are these divided by the slowdown.
    let raw: Vec<f64> = passes.iter().map(|t| t.raw_s).collect();
    let slowdowns: Vec<f64> = passes.iter().map(|t| t.slowdown).collect();
    eprintln!(
        "{}: wall clock: best pass {:.6} s, median {:.6} s (iqr {:.3} of it); host slowdown median {:.3}",
        W::NAME,
        stats::best(&raw),
        stats::median(&raw),
        stats::iqr_share(&raw),
        stats::median(&slowdowns)
    );

    problems.dedup();
    Report {
        workload: W::NAME,
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .map(|(m, _)| (m.name, values[m.name], m.unit))
            .collect(),
        problems,
        pinned: reference.pinned,
        passes: passes.len(),
    }
}

/// What one `Engine::call` of the benchmark's channel uses of each probed
/// function: `(probe metric, uses per call)`. The sum against the
/// measured call is `engineering.engine.call_unattributed_share`.
const CALL_ATTRIBUTION: &[(&str, f64)] = &[
    // Client: marshal the invocation in its native (text) syntax, run the
    // stack out (text -> binary, sequence stamp), frame it.
    ("core.codec.text_encode_ns", 1.0),
    ("engineering.channel.stack_out_ns", 1.0),
    // Request and reply: one frame encode, one delivery (schedule, pop,
    // hand to the process), one frame decode each.
    ("engineering.envelope.encode_ns", 2.0),
    ("netsim.sim.deliver_ns", 2.0),
    ("engineering.envelope.decode_ns", 2.0),
    // Server: decode the invocation, dispatch to the behaviour, encode
    // the termination. (Its binary-native stack transcodes nothing.)
    ("core.codec.binary_decode_ns", 1.0),
    ("engineering.nucleus.invoke_local_ns", 1.0),
    ("core.codec.binary_encode_ns", 1.0),
    // Client: stack in (sequence check, binary -> text), read the
    // termination.
    ("engineering.channel.stack_in_ns", 1.0),
    ("core.codec.text_decode_ns", 1.0),
];

/// Enough passes for a quartile; more would only grow the trace file
/// (a pass of `engine-call` records 3,000 spans) and the run.
const MAX_TRACED_PASSES: usize = 24;

/// The traced run: per-layer metrics only.
fn traced<W: Workload>(options: &Options) -> Report {
    let (_, min_passes) = repetitions(options.size);
    let mut clock = Clock::new();
    let mut problems = Vec::new();
    let workload = W::new(options.seed, options.size);
    let reference = workload.pass(workload.build());
    problems.extend(reference.problems.iter().cloned());

    // Untraced passes first: the baseline the tracing overhead is
    // measured against, in the same process and minute.
    let phase = options.seconds * 0.3;
    let timed_phase = |clock: &mut Clock, problems: &mut Vec<String>| {
        let window = Instant::now();
        let mut passes: Vec<TracedPass> = Vec::new();
        while passes.len() < min_passes
            || (window.elapsed().as_secs_f64() < phase && passes.len() < MAX_TRACED_PASSES)
        {
            let state = workload.build();
            let ((index, outcome), timed) = clock.measure(|| {
                let index = spans::count();
                let _pass = span("pass");
                (index, workload.pass(state))
            });
            compare(&reference, &outcome, problems);
            passes.push(TracedPass { span: index, timed });
        }
        passes
    };
    let untraced = timed_phase(&mut clock, &mut problems);
    spans::start();
    let passes = timed_phase(&mut clock, &mut problems);

    // Allocations are counted on passes of their own, with span
    // recording suspended: the recorder's own buffer growth would
    // otherwise be counted, and differently in each pass.
    spans::set_recording(false);
    let counted: Vec<alloc::AllocCounts> = (0..2)
        .map(|_| {
            let state = workload.build();
            let (outcome, counts) = alloc::counting(|| workload.pass(state));
            compare(&reference, &outcome, &mut problems);
            counts
        })
        .collect();
    if counted[0] != counted[1] {
        problems.push(format!(
            "two identical passes allocated differently: {:?} and {:?}",
            counted[0], counted[1]
        ));
    }
    spans::set_recording(true);
    checks(&workload, &reference, options, &mut problems);

    let norm =
        |passes: &[TracedPass]| -> Vec<f64> { passes.iter().map(|p| p.timed.norm_s()).collect() };
    let raw: Vec<f64> = untraced.iter().map(|p| p.timed.raw_s).collect();
    let slowdowns: Vec<f64> = untraced.iter().map(|p| p.timed.slowdown).collect();
    let untraced_s = stats::quartiles(&norm(&untraced)).0;
    let traced_s = stats::quartiles(&norm(&passes)).0;
    let ops = reference.ops as f64;

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.extend(reference.counts.iter().copied());
    let recorded = spans::finish();
    spans::start();
    values.extend(workload.layer_metrics(&TraceView {
        spans: &recorded,
        passes: &passes,
        outcome: &reference,
        pass_norm_s: traced_s,
    }));
    values.extend(probes::run_all(&mut clock, options.size));
    let probe_spans = spans::finish();

    if let Some(&p50_us) = values.get("engineering.engine.call_p50_us") {
        let emit = if values.contains_key("observe.ring_evicted") {
            "observe.emit_ring_ns"
        } else {
            "observe.emit_disabled_ns"
        };
        let events = values
            .get("observe.events_per_call")
            .copied()
            .unwrap_or(0.0);
        let attributed_ns: f64 = CALL_ATTRIBUTION
            .iter()
            .map(|(probe, uses)| values.get(probe).copied().unwrap_or(0.0) * uses)
            .sum::<f64>()
            + events * values.get(emit).copied().unwrap_or(0.0);
        values.insert(
            "engineering.engine.call_unattributed_share",
            1.0 - attributed_ns / (p50_us * 1e3),
        );
    }

    values.insert("host.allocs_per_op", counted[0].allocs as f64 / ops);
    values.insert("host.alloc_bytes_per_op", counted[0].bytes as f64 / ops);
    values.insert("host.pass_median_s", stats::median(&raw));
    values.insert("host.pass_best_s", stats::best(&raw));
    values.insert("host.pass_iqr_share", stats::iqr_share(&raw));
    values.insert("host.ops_per_s_wall_best", ops / stats::best(&raw));
    values.insert("host.slowdown_median", stats::median(&slowdowns));
    values.insert("host.tracing_overhead_share", traced_s / untraced_s - 1.0);
    values.insert("host.nproc", host::nproc() as f64);

    let mut all = recorded;
    let offset = all.len();
    all.extend(probe_spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
    // Where the traced time went, by span name: total, and self time
    // (total minus what child spans cover).
    eprintln!(
        "{}: span                                      count   total_ms    self_ms",
        W::NAME
    );
    for (name, t) in spans::totals(&all) {
        eprintln!(
            "{}: {name:<40} {:>6} {:>10.3} {:>10.3}",
            W::NAME,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    if let Some(dir) = &options.out_dir {
        let path = dir.join(format!("trace-{}.json", W::NAME));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans::render_trace(W::NAME, options.seed, &all)));
        if let Err(e) = written {
            problems.push(format!("cannot write {}: {e}", path.display()));
        }
    }

    for name in values.keys() {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not a per-layer metric"
        );
    }
    problems.dedup();
    Report {
        workload: W::NAME,
        correct: problems.is_empty(),
        attempted: reference.attempted * (untraced.len() + passes.len() + 3) as u64,
        failed: reference.failed * (untraced.len() + passes.len() + 3) as u64,
        // A layer that did no work in this workload reads 0.
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect(),
        problems,
        pinned: reference.pinned,
        passes: passes.len(),
    }
}
