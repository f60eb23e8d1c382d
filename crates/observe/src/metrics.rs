//! The metrics registry: counters, gauges, and sim-time histograms keyed
//! by hierarchical dot-separated names (`netsim.delivery_us`,
//! `engineering.calls`, `twopc.commits`).
//!
//! Everything is deterministic. Histograms are log-bucketed rather than
//! raw-sample vectors: memory is O(buckets touched), not O(samples), so
//! a million-invocation run costs the same as a hundred-invocation run.
//! `count`, `sum`, `min`, and `max` stay exact; percentiles are resolved
//! to a bucket's upper bound (clamped to the observed min/max), which
//! bounds the relative error at one sub-bucket width (< 1/16 ≈ 6%).
//! Values below 128 get their own bucket, so small distributions — and
//! every unit-test-sized histogram — report exact percentiles.

use std::collections::BTreeMap;

/// Number of identity buckets: values `< LINEAR_CUTOFF` are their own
/// bucket and percentiles over them are exact.
const LINEAR_CUTOFF: u64 = 128;
/// log2 of the number of sub-buckets per octave.
const SUB_BITS: u32 = 4;
/// Sub-buckets per power-of-two octave above the linear range.
const SUBS: u64 = 1 << SUB_BITS;
/// Exponent of the first octave above the linear range (2^7 = 128).
const FIRST_EXP: u32 = 7;

/// Maps a sample to its bucket index.
fn bucket_index(v: u64) -> u32 {
    if v < LINEAR_CUTOFF {
        return v as u32;
    }
    let e = 63 - v.leading_zeros(); // >= FIRST_EXP
    let sub = ((v >> (e - SUB_BITS)) & (SUBS - 1)) as u32;
    LINEAR_CUTOFF as u32 + (e - FIRST_EXP) * SUBS as u32 + sub
}

/// The largest value contained in a bucket.
fn bucket_upper(idx: u32) -> u64 {
    if (idx as u64) < LINEAR_CUTOFF {
        return idx as u64;
    }
    let i = idx - LINEAR_CUTOFF as u32;
    let e = i / SUBS as u32 + FIRST_EXP;
    let sub = (i % SUBS as u32) as u64;
    // Bucket holds [ (SUBS+sub) << (e-SUB_BITS), ((SUBS+sub+1) << (e-SUB_BITS)) - 1 ].
    ((SUBS + sub + 1) << (e - SUB_BITS)).wrapping_sub(1)
}

/// A latency/size distribution over `u64` samples (typically sim-time
/// microseconds), stored as sparse log buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    buckets: BTreeMap<u32, u64>,
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v as u128;
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
    }

    /// Number of samples (exact).
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Sum of all samples (exact).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of all samples (exact; 0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The smallest sample (exact; 0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The largest sample (exact; 0 if empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// The `p`-th percentile (nearest-rank over buckets),
    /// `0.0 < p <= 100.0`. Returns 0 for an empty histogram. Monotone in
    /// `p` by construction: it walks the same cumulative bucket counts.
    /// The answer is the containing bucket's upper bound clamped to
    /// `[min, max]`, so constant distributions and values `< 128` are
    /// exact and the relative error is otherwise < 1/16.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut cum = 0u64;
        for (&idx, &n) in &self.buckets {
            cum += n;
            if cum >= rank {
                return bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Convenience: (p50, p95, p99).
    pub fn quantiles(&self) -> (u64, u64, u64) {
        (
            self.percentile(50.0),
            self.percentile(95.0),
            self.percentile(99.0),
        )
    }
}

/// Writes `name`'s entry (default if absent); only a name's first use allocates.
fn upsert<T: Default>(map: &mut BTreeMap<String, T>, name: &str, write: impl FnOnce(&mut T)) {
    match map.get_mut(name) {
        Some(entry) => write(entry),
        None => write(map.entry(name.to_owned()).or_default()),
    }
}

/// The registry: hierarchically-named counters, gauges, and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// Adds to a counter, creating it at 0 first if absent.
    pub fn counter_add(&mut self, name: &str, v: u64) {
        upsert(&mut self.counters, name, |counter| *counter += v);
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, name: &str, v: i64) {
        upsert(&mut self.gauges, name, |gauge| *gauge = v);
    }

    /// Records a histogram sample.
    pub fn observe(&mut self, name: &str, v: u64) {
        upsert(&mut self.histograms, name, |histogram| histogram.observe(v));
    }

    /// Reads a counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }
    /// Clears everything.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }

    /// Renders the registry as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<44} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<44} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (us):\n");
            out.push_str(&format!(
                "  {:<44} {:>7} {:>9} {:>7} {:>7} {:>7}\n",
                "name", "count", "mean", "p50", "p95", "p99"
            ));
            for (name, h) in &self.histograms {
                let (p50, p95, p99) = h.quantiles();
                out.push_str(&format!(
                    "  {:<44} {:>7} {:>9.1} {:>7} {:>7} {:>7}\n",
                    name,
                    h.count(),
                    h.mean(),
                    p50,
                    p95,
                    p99
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = Histogram::default();
        for v in [5u64, 1, 9, 7, 3, 3, 8, 2, 6, 4] {
            h.observe(v);
        }
        let (p50, p95, p99) = h.quantiles();
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 9);
        assert_eq!(p99, 9);
        assert_eq!(h.percentile(50.0), p50);
        assert_eq!(h.percentile(100.0), 9);
    }

    #[test]
    fn small_values_are_exact() {
        // Values below the linear cutoff land in identity buckets, so
        // nearest-rank percentiles match a raw-sample implementation.
        let mut h = Histogram::default();
        for v in [5u64, 1, 9, 7, 3, 3, 8, 2, 6, 4] {
            h.observe(v);
        }
        assert_eq!(h.percentile(50.0), 4);
        assert_eq!(h.percentile(10.0), 1);
        assert_eq!(h.percentile(90.0), 8);
    }

    #[test]
    fn constant_distribution_is_exact_at_any_scale() {
        let mut h = Histogram::default();
        for _ in 0..1000 {
            h.observe(1_000_000);
        }
        assert_eq!(h.quantiles(), (1_000_000, 1_000_000, 1_000_000));
        assert_eq!(h.mean(), 1_000_000.0);
    }

    #[test]
    fn large_values_have_bounded_relative_error() {
        let mut h = Histogram::default();
        for v in (0..10_000u64).map(|i| 1_000 + i * 37) {
            h.observe(v);
        }
        for p in [10.0, 50.0, 90.0, 95.0, 99.0] {
            let approx = h.percentile(p);
            // Exact nearest-rank over the same arithmetic sequence.
            let rank = ((p / 100.0) * 10_000f64).ceil() as u64;
            let exact = 1_000 + (rank - 1) * 37;
            let err = approx.abs_diff(exact) as f64 / exact as f64;
            assert!(err < 1.0 / 16.0, "p{p}: approx {approx} vs exact {exact}");
        }
    }

    #[test]
    fn memory_is_bounded_by_buckets_not_samples() {
        let mut h = Histogram::default();
        for v in 0..100_000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 100_000);
        // 128 identity buckets + 16 per octave for ~10 octaves.
        assert!(h.buckets.len() < 320, "got {}", h.buckets.len());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 99_999);
        let total: u64 = h.buckets.values().sum();
        assert_eq!(total, 100_000);
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in (0..64)
            .map(|e| 1u64 << e)
            .chain([0, 1, 127, 128, 129, 1000, 123_456_789])
        {
            let idx = bucket_index(v);
            assert!(bucket_upper(idx) >= v, "upper({idx}) < {v}");
            if idx as u64 >= LINEAR_CUTOFF {
                // Lower neighbour's upper bound is below v.
                assert!(bucket_upper(idx - 1) < v, "bucket {idx} too wide for {v}");
            }
        }
    }

    #[test]
    fn registry_round_trip() {
        let mut r = Registry::default();
        r.counter_add("a.b", 2);
        r.counter_add("a.b", 3);
        r.gauge_set("g", -7);
        r.observe("h", 10);
        r.observe("h", 20);
        assert_eq!(r.counter("a.b"), 5);
        assert_eq!(r.gauges.get("g"), Some(&-7));
        assert_eq!(r.histogram("h").unwrap().count(), 2);
        let rendered = r.render();
        assert!(rendered.contains("a.b"));
        assert!(rendered.contains("p95"));
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::default();
        assert_eq!(h.quantiles(), (0, 0, 0));
        assert_eq!(h.mean(), 0.0);
    }
}
