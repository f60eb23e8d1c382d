//! The six workloads and what they share.
//!
//! A workload generates its inputs from the seed once ([`Workload::new`]),
//! builds a fresh state before every pass ([`Workload::build`]), and runs
//! the identical operation sequence on it ([`Workload::pass`]), so two
//! passes of one run differ only by host noise and must pin the same
//! counts and checksums.

pub mod engine;
pub mod pop;
pub mod store;
pub mod trader;

use crate::clock::Timed;
use crate::spans::Span;

/// How much work a pass does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark reports (passes of 30-80 ms on the sizing
    /// host, see the README for the numbers).
    Full,
    /// Small sizes for the unit tests: every workload in milliseconds.
    Quick,
}

/// A value a pass must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pin {
    /// A count of operations or outcomes.
    Count(u64),
    /// A checksum.
    Sum(u64),
}

/// What one pass did.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOutcome {
    /// Operations completed: what `ops_per_s` counts.
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were lost.
    pub failed: u64,
    /// Counts and checksums every pass of the run must repeat, and that
    /// `expected.json` pins for seed 4242.
    pub pinned: Vec<(&'static str, Pin)>,
    /// Per-layer counts read where the work happened, by metric name.
    pub counts: Vec<(&'static str, f64)>,
    /// A broken invariant inside the pass (e.g. events recorded with the
    /// bus off, or a recovered state that differs from the committed one).
    pub problems: Vec<String>,
}

impl PassOutcome {
    /// The pinned value under `key`.
    pub fn pin(&self, key: &str) -> Option<Pin> {
        self.pinned.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// One traced pass: where its span sits in the trace and how it timed.
#[derive(Debug, Clone, Copy)]
pub struct TracedPass {
    /// Index of the pass's own span.
    pub span: usize,
    pub timed: Timed,
}

/// What a workload derives its in-pass layer metrics from.
pub struct TraceView<'a> {
    pub spans: &'a [Span],
    pub passes: &'a [TracedPass],
    /// The outcome every pass repeated.
    pub outcome: &'a PassOutcome,
    /// Lower quartile of the traced passes, reference-host seconds.
    pub pass_norm_s: f64,
}

impl TraceView<'_> {
    /// Mean duration of the spans called `name` inside each traced pass,
    /// divided by that pass's slowdown; the median over passes, in
    /// seconds. `None` when no pass holds such a span.
    pub fn mean_s(&self, name: &str) -> Option<f64> {
        let per_pass: Vec<f64> = self
            .passes
            .iter()
            .filter_map(|p| {
                let inside = self.durations_in(p, name);
                (!inside.is_empty())
                    .then(|| inside.iter().sum::<f64>() / inside.len() as f64 / p.timed.slowdown)
            })
            .collect();
        (!per_pass.is_empty()).then(|| crate::stats::median(&per_pass))
    }

    /// Raw durations (seconds) of the spans called `name` that started
    /// inside the given pass.
    pub fn durations_in(&self, pass: &TracedPass, name: &str) -> Vec<f64> {
        let outer = &self.spans[pass.span];
        self.spans[pass.span + 1..]
            .iter()
            .take_while(|s| s.start_ns <= outer.end_ns)
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// The state a pass consumes.
    type State;

    /// The name the driver passes to `--workload`.
    const NAME: &'static str;

    /// Generates the inputs from the seed (and, where the issue puts it
    /// in set-up, the corpus every pass clones).
    fn new(seed: u64, size: Size) -> Self;

    /// A fresh, identical state for one pass.
    fn build(&self) -> Self::State;

    /// The timed part: the same operations every time.
    fn pass(&self, state: Self::State) -> PassOutcome;

    /// Checks that need a reference run rather than pass-to-pass
    /// equality; run once, after timing. Returns what failed.
    fn verify(&self, outcome: &PassOutcome) -> Vec<String>;

    /// In-pass layer metrics of a traced run, by per-layer metric name.
    /// Anything not returned reads 0: the layer did no work here.
    fn layer_metrics(&self, view: &TraceView<'_>) -> Vec<(&'static str, f64)>;
}

/// The harness's own FNV-1a, for folding results into checksums: the
/// values `expected.json` pins must not move when the program's copies do
/// (ROADMAP item 3 plans to merge those).
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Puts the thread's observe bus into a known state: cleared, recording
/// on or off, collection bounded or not. Every pass starts with this, so
/// no pass inherits what an earlier one (or a probe) left behind.
pub fn set_bus(enabled: bool, ring_capacity: Option<usize>) {
    use rmodp::observe::bus;
    bus::set_enabled(enabled);
    bus::set_collect(bus::CollectConfig {
        ring_capacity,
        sample_denom: None,
    });
    bus::reset();
}

/// With the bus off nothing may have been buffered.
pub fn check_bus_silent(problems: &mut Vec<String>) {
    let buffered = rmodp::observe::bus::event_count();
    if buffered != 0 {
        problems.push(format!("bus off, yet {buffered} events were buffered"));
    }
}
