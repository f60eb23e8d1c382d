//! Timing against a same-run calibration loop.
//!
//! This host's speed drifts: identical single-threaded work takes 1.0x to
//! 1.6x its best time, in episodes of a fraction of a second to minutes,
//! with the other vCPU idle and no steal time reported, so the cause is
//! outside the guest and repetition inside one run does not average it
//! away: over ten runs the median pass time spread by 11-32% and the best
//! pass by 11-18% (README, "Noise"). The drift hits allocation- and
//! memory-heavy code about alike, so every interval the harness times is
//! bracketed by a fixed calibration loop of that kind, and divided by how
//! much slower than [`REFERENCE_S`] the loops on either side ran. What
//! comes out is "seconds on the reference host"; raw wall time is kept
//! beside it.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// What the timed half of [`calibration_loop`] takes on the host the
/// benchmark was sized on (2 vCPU Xeon @ 2.10 GHz) when that host is
/// quiet. Only the ratio to it matters: changing it rescales every
/// time-derived metric alike.
pub const REFERENCE_S: f64 = 0.0037;

/// A calibration sample this recent still describes "now" and is not
/// repeated: the drift is slower than this.
const FRESH_S: f64 = 0.25;

/// Fixed work in the harness's own code (nothing of `rmodp`, so a change
/// to the program cannot move it) with the instruction mix of the layers
/// under test: string-keyed B-tree inserts with heap-allocated values, a
/// binary heap churned like an event queue, a scan. A loop that stays in
/// cache and allocates nothing followed the host only a third as far as
/// the workloads did.
fn calibration_body() -> u64 {
    let mut acc = 0u64;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for i in 0..10_000u64 {
        let r = step();
        map.insert(
            format!("k{}", r % 4096),
            vec![i as u8; (r % 64) as usize + 8],
        );
    }
    let mut heap = BinaryHeap::new();
    for i in 0..32_000u64 {
        heap.push((step() % 100_000, i));
        if i % 3 == 0 {
            if let Some((at, _)) = heap.pop() {
                acc = acc.wrapping_add(at);
            }
        }
    }
    for (k, v) in &map {
        acc = acc.wrapping_add(k.len() as u64 + v.len() as u64);
    }
    acc
}

/// Runs the body twice and returns the seconds the second run took. The
/// first, untimed, run absorbs whatever state the workload left the
/// allocator and the caches in (after a `trader-mix` pass it takes three
/// times as long), so the reading says how fast the host is, not what ran
/// before.
pub fn calibration_loop() -> f64 {
    black_box(calibration_body());
    let started = Instant::now();
    black_box(calibration_body());
    started.elapsed().as_secs_f64()
}

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall time of the interval, seconds.
    pub raw_s: f64,
    /// Mean of the calibration loops before and after, over
    /// [`REFERENCE_S`]: above 1 when the host ran slow.
    pub slowdown: f64,
}

impl Timed {
    /// The interval in reference-host seconds.
    pub fn norm_s(&self) -> f64 {
        self.raw_s / self.slowdown
    }
}

/// Times intervals, bracketing each with calibration loops.
#[derive(Debug, Default)]
pub struct Clock {
    /// When the last calibration loop ended, and what it read.
    last: Option<(Instant, f64)>,
}

impl Clock {
    pub fn new() -> Self {
        Self::default()
    }

    fn calibrate(&mut self) -> f64 {
        let c = calibration_loop();
        self.last = Some((Instant::now(), c));
        c
    }

    /// Runs `f` between two calibration loops (the one before is shared
    /// with the previous interval when that ended a moment ago).
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timed) {
        let before = match self.last {
            Some((at, c)) if at.elapsed().as_secs_f64() < FRESH_S => c,
            _ => self.calibrate(),
        };
        let started = Instant::now();
        let result = f();
        let raw_s = started.elapsed().as_secs_f64();
        let after = self.calibrate();
        let slowdown = (before + after) / 2.0 / REFERENCE_S;
        (result, Timed { raw_s, slowdown })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalised_time_divides_out_the_slowdown() {
        let t = Timed {
            raw_s: 0.3,
            slowdown: 1.5,
        };
        assert!((t.norm_s() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn measure_returns_the_result_and_brackets_it() {
        let mut clock = Clock::new();
        assert!(clock.last.is_none());
        let (v, t) = clock.measure(|| (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(t.raw_s >= 0.0 && t.slowdown > 0.0);
        // The loop taken after the interval is kept for the next one.
        assert!(clock.last.is_some());
    }
}
