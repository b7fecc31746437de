//! Mergeable streaming quantile sketch.
//!
//! The serve plane needs p50/p99 over unbounded request streams without
//! keeping every latency sample. [`QuantileSketch`] is exact while
//! small — up to [`EXACT_CAP`] raw samples — and degrades to a
//! DDSketch-style logarithmic-bucket summary past that, with a
//! *relative* error bound: every reported quantile `v̂` satisfies
//! `|v̂ − v| ≤ RELATIVE_ERROR · v` for the true sample `v` at that rank
//! (zeros are tracked exactly in their own bucket). Sketches merge by
//! bucket addition, so per-worker or per-tier sketches combine into one
//! without re-streaming samples — the property the label families
//! rely on.

use std::collections::BTreeMap;

/// Raw samples kept before collapsing to buckets. While at or under
/// this count the sketch is exact.
pub const EXACT_CAP: usize = 128;

/// Relative accuracy `α` of bucketed quantiles: bucket `i` covers
/// `(γ^(i−1), γ^i]` with `γ = (1+α)/(1−α)`, and the bucket midpoint
/// estimate is within `α` of any value in the bucket.
pub const RELATIVE_ERROR: f64 = 0.01;

fn gamma() -> f64 {
    (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR)
}

/// Bucket index for a positive value: smallest `i` with `γ^i >= v`.
#[allow(clippy::cast_possible_truncation)]
fn bucket_of(value: u64) -> i64 {
    debug_assert!(value > 0);
    #[allow(clippy::cast_precision_loss)]
    let idx = (value as f64).ln() / gamma().ln();
    idx.ceil() as i64
}

/// Midpoint estimate for bucket `i`: `2γ^i / (γ+1)`, within
/// [`RELATIVE_ERROR`] of every value the bucket covers.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn bucket_value(index: i64) -> u64 {
    let g = gamma();
    #[allow(clippy::cast_precision_loss)]
    let v = 2.0 * g.powi(i32::try_from(index).unwrap_or(i32::MAX)) / (g + 1.0);
    if v >= u64::MAX as f64 {
        u64::MAX
    } else {
        v.round() as u64
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Mode {
    /// Raw samples, unsorted; sorted on demand.
    Exact(Vec<u64>),
    /// Zero count plus log-bucket counts keyed by bucket index.
    Buckets { zeros: u64, buckets: BTreeMap<i64, u64> },
}

/// A mergeable streaming quantile sketch (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    mode: Mode,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        QuantileSketch {
            mode: Mode::Exact(Vec::new()),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        match &mut self.mode {
            Mode::Exact(samples) => {
                samples.push(value);
                if samples.len() > EXACT_CAP {
                    self.collapse();
                }
            }
            Mode::Buckets { zeros, buckets } => {
                if value == 0 {
                    *zeros += 1;
                } else {
                    *buckets.entry(bucket_of(value)).or_insert(0) += 1;
                }
            }
        }
    }

    fn collapse(&mut self) {
        if let Mode::Exact(samples) = &self.mode {
            let mut zeros = 0;
            let mut buckets: BTreeMap<i64, u64> = BTreeMap::new();
            for &v in samples {
                if v == 0 {
                    zeros += 1;
                } else {
                    *buckets.entry(bucket_of(v)).or_insert(0) += 1;
                }
            }
            self.mode = Mode::Buckets { zeros, buckets };
        }
    }

    /// Fold `other` into `self`. Stays exact only while the combined
    /// sample count fits [`EXACT_CAP`]; otherwise both sides collapse
    /// and bucket counts add (the error bound is unchanged — bucketing
    /// commutes with addition).
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut other = other.clone();
        if let (Mode::Exact(mine), Mode::Exact(theirs)) = (&mut self.mode, &mut other.mode) {
            if mine.len() + theirs.len() <= EXACT_CAP {
                mine.append(theirs);
                return;
            }
        }
        self.collapse();
        other.collapse();
        if let (
            Mode::Buckets { zeros, buckets },
            Mode::Buckets { zeros: oz, buckets: ob },
        ) = (&mut self.mode, &other.mode)
        {
            *zeros += oz;
            for (&idx, &n) in ob {
                *buckets.entry(idx).or_insert(0) += n;
            }
        }
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum as f64 / self.count as f64
            }
        }
    }

    /// Whether the sketch still holds raw samples (quantiles exact).
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self.mode, Mode::Exact(_))
    }

    /// The `q`-quantile (nearest-rank), `0 <= q <= 1`. Exact in exact
    /// mode; within [`RELATIVE_ERROR`] relative error in bucket mode.
    /// Returns 0 on an empty sketch.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the smallest value with cumulative count >= rank.
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        match &self.mode {
            Mode::Exact(samples) => {
                let mut sorted = samples.clone();
                sorted.sort_unstable();
                sorted[usize::try_from(rank - 1).unwrap_or(0)]
            }
            Mode::Buckets { zeros, buckets } => {
                if rank <= *zeros {
                    return 0;
                }
                let mut cumulative = *zeros;
                for (&idx, &n) in buckets {
                    cumulative += n;
                    if cumulative >= rank {
                        return bucket_value(idx).clamp(self.min, self.max);
                    }
                }
                self.max
            }
        }
    }

    /// p50 shorthand.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// p99 shorthand.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn empty_sketch_reports_zero() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn small_n_is_exact() {
        let mut s = QuantileSketch::new();
        for v in [9u64, 1, 5, 3, 7] {
            s.record(v);
        }
        assert!(s.is_exact());
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.quantile(0.5), 5);
        assert_eq!(s.quantile(1.0), 9);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 9);
        assert_eq!(s.sum(), 25);
    }

    #[test]
    fn large_n_quantiles_stay_within_relative_error() {
        let mut s = QuantileSketch::new();
        let mut samples: Vec<u64> = (1..=10_000u64).map(|i| i * 13 % 9_973 + 1).collect();
        for &v in &samples {
            s.record(v);
        }
        assert!(!s.is_exact());
        samples.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let truth = exact_quantile(&samples, q);
            let est = s.quantile(q);
            #[allow(clippy::cast_precision_loss)]
            let err = (est as f64 - truth as f64).abs() / truth as f64;
            assert!(err <= 2.5 * RELATIVE_ERROR, "q={q}: est {est} vs {truth} (err {err})");
        }
    }

    #[test]
    fn zeros_are_tracked_exactly_past_collapse() {
        let mut s = QuantileSketch::new();
        for _ in 0..200 {
            s.record(0);
        }
        for _ in 0..100 {
            s.record(1_000);
        }
        assert!(!s.is_exact());
        assert_eq!(s.quantile(0.5), 0);
        let p90 = s.quantile(0.9);
        assert!((990..=1_010).contains(&p90), "{p90}");
    }

    #[test]
    fn merge_of_exact_sketches_stays_exact_under_cap() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for v in 0..40u64 {
            a.record(v);
            b.record(1_000 + v);
        }
        a.merge(&b);
        assert!(a.is_exact());
        assert_eq!(a.count(), 80);
        assert_eq!(a.quantile(1.0), 1_039);
    }

    #[test]
    fn merge_collapses_and_adds_counts() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for v in 1..=100u64 {
            a.record(v);
            b.record(v * 100);
        }
        a.merge(&b);
        assert!(!a.is_exact());
        assert_eq!(a.count(), 200);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 10_000);
        // The upper half of the merged stream is b's samples.
        let p75 = a.quantile(0.75);
        assert!((4_800..=5_200).contains(&p75), "{p75}");
    }

    #[test]
    fn merging_empty_is_identity() {
        let mut a = QuantileSketch::new();
        a.record(7);
        let before = a.clone();
        a.merge(&QuantileSketch::new());
        assert_eq!(a, before);
        let mut empty = QuantileSketch::new();
        empty.merge(&before);
        assert_eq!(empty.quantile(0.5), 7);
    }
}
