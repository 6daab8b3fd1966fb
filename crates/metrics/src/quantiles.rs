//! Exact percentiles and CDF points.

/// The 0-based index of the `q`-quantile among `n` ascending samples under
/// the nearest-rank method (`rank = ⌈q·n⌉`, `q = 0` selecting the minimum).
///
/// [`Quantiles::quantile`] reads the sample at this index. A caller that
/// only compares a quantile with a threshold `t` can count instead of
/// sorting: the quantile exceeds `t` exactly when at most this many samples
/// are `≤ t`.
///
/// # Panics
///
/// Panics if `n` is zero and `q` is not.
pub fn nearest_rank(q: f64, n: usize) -> usize {
    if q == 0.0 {
        0
    } else {
        ((q * n as f64).ceil() as usize).clamp(1, n) - 1
    }
}

/// Collects samples and answers percentile / CDF queries exactly.
///
/// Samples are stored (as `f64`); sorting happens lazily on the first query
/// after new samples arrive. A simulation records at most one sample per
/// client request (its response time) or one per simulated second (cv,
/// sequentiality, active devices), for which exact quantiles are both
/// affordable and preferable to sketch error. Integer samples as numerous
/// as device I/Os are counted in a histogram instead, as
/// [`ConcurrencyTracker`](crate::ConcurrencyTracker) counts queue depths.
#[derive(Debug, Clone, Default)]
pub struct Quantiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Quantiles {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Quantiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Creates an empty collector with preallocated room for `capacity`
    /// samples.
    pub fn with_capacity(capacity: usize) -> Self {
        Quantiles {
            samples: Vec::with_capacity(capacity),
            sorted: true,
        }
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "samples must be finite, got {value}");
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) using the nearest-rank method
    /// (`rank = ⌈q·n⌉`), or `None` if no samples were recorded.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        Some(self.samples[nearest_rank(q, self.samples.len())])
    }

    /// Arithmetic mean of the samples, or `None` if empty.
    ///
    /// The sum runs over the *sorted* samples so the result depends only on
    /// the sample multiset, never on insertion order. Every report's bytes
    /// are pinned to this summation order: summing in insertion order
    /// rounds differently and would change the last bits of every mean.
    pub fn mean(&mut self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            self.ensure_sorted();
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.last().copied()
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.first().copied()
    }

    /// `points` evenly spaced points of the empirical CDF as
    /// `(value, cumulative_fraction)` pairs — the series plotted in the
    /// paper's Figures 5 and 7.
    ///
    /// # Panics
    ///
    /// Panics if `points` is zero.
    pub fn cdf_points(&mut self, points: usize) -> Vec<(f64, f64)> {
        assert!(points > 0, "need at least one CDF point");
        if self.samples.is_empty() {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.samples.len();
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                (self.samples[nearest_rank(frac, n)], frac)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_collector_has_no_quantiles() {
        let mut q = Quantiles::new();
        assert!(q.is_empty());
        assert_eq!(q.quantile(0.5), None);
        assert_eq!(q.mean(), None);
        assert_eq!(q.cdf_points(10), Vec::new());
    }

    #[test]
    fn quantiles_of_a_known_sequence() {
        let mut q = Quantiles::new();
        for v in 1..=100 {
            q.record(v as f64);
        }
        assert_eq!(q.quantile(0.0), Some(1.0));
        assert_eq!(q.quantile(1.0), Some(100.0));
        assert_eq!(q.quantile(0.5), Some(50.0));
        assert_eq!(q.quantile(0.99), Some(99.0));
        assert_eq!(q.min(), Some(1.0));
        assert_eq!(q.max(), Some(100.0));
        assert_eq!(q.mean(), Some(50.5));
    }

    #[test]
    fn cdf_points_are_monotone() {
        let mut q = Quantiles::new();
        for i in 0..500 {
            q.record(((i * 37) % 101) as f64);
        }
        let pts = q.cdf_points(20);
        assert_eq!(pts.len(), 20);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0, "values must not decrease");
            assert!(w[0].1 < w[1].1, "fractions must increase");
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn mean_sums_in_sorted_order() {
        // Summed in insertion order these give (1e16 + 1 - 1e16 + 1) / 4 =
        // 0.25: the first `+ 1` is lost to rounding, the second survives.
        // Sorted, both are absorbed by -1e16 and the mean is exactly 0.
        let mut q = Quantiles::new();
        for v in [1e16, 1.0, -1e16, 1.0] {
            q.record(v);
        }
        assert_eq!(q.mean(), Some(0.0));
    }

    #[test]
    fn nearest_rank_matches_quantile_and_counts_at_edge_percentiles() {
        let edges = |n: usize| {
            let n = n as f64;
            [
                0.0,
                f64::MIN_POSITIVE,
                1e-12,
                1.0 / n,
                0.5,
                (n - 1.0) / n,
                0.95,
                0.99,
                1.0 - f64::EPSILON,
                1.0,
            ]
        };
        for n in 1..=64usize {
            // Samples recorded out of order, with ties, so the sort matters.
            let samples: Vec<f64> = (0..n).map(|i| ((i * 7) % n / 2) as f64).collect();
            let mut q = Quantiles::new();
            for &s in &samples {
                q.record(s);
            }
            q.ensure_sorted();
            let sorted = q.samples.clone();
            for p in edges(n) {
                let rank = nearest_rank(p, n);
                assert!(rank < n, "n={n} p={p}: rank {rank} out of range");
                assert_eq!(q.quantile(p), Some(sorted[rank]), "n={n} p={p}");
                // The nearest-rank rule: the smallest rank covering p·n.
                assert!(p == 0.0 || (rank + 1) as f64 >= p * n as f64, "n={n} p={p}");
                assert!(rank == 0 || (rank as f64) < p * n as f64, "n={n} p={p}");
                // Counting equivalence: the quantile exceeds a threshold
                // exactly when at most `rank` samples sit at or below it.
                for t in (-1..=(n as i64)).map(|t| t as f64) {
                    let within = samples.iter().filter(|&&s| s <= t).count();
                    assert_eq!(
                        sorted[rank] > t,
                        within <= rank,
                        "n={n} p={p} threshold={t}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn quantile_range_checked() {
        let mut q = Quantiles::new();
        q.record(1.0);
        q.quantile(1.5);
    }

    proptest! {
        /// Quantiles are monotone in q and bounded by min/max.
        #[test]
        fn prop_quantiles_monotone(values in proptest::collection::vec(-1e3f64..1e3, 1..300)) {
            let mut q = Quantiles::new();
            for &v in &values {
                q.record(v);
            }
            let lo = q.quantile(0.0).unwrap();
            let hi = q.quantile(1.0).unwrap();
            let mut prev = lo;
            for i in 0..=10 {
                let v = q.quantile(i as f64 / 10.0).unwrap();
                prop_assert!(v >= prev - 1e-12);
                prop_assert!(v >= lo && v <= hi);
                prev = v;
            }
        }

        /// The mean depends only on the sample multiset: the same samples
        /// recorded reversed or rotated give the same bits.
        #[test]
        fn prop_mean_ignores_insertion_order(
            values in proptest::collection::vec(-1e12f64..1e12, 1..300),
            pivot in 0usize..300,
        ) {
            let mean_bits = |samples: &[f64]| {
                let mut q = Quantiles::new();
                samples.iter().for_each(|&v| q.record(v));
                q.mean().unwrap().to_bits()
            };
            let mut reversed = values.clone();
            reversed.reverse();
            prop_assert_eq!(mean_bits(&reversed), mean_bits(&values));
            let mut rotated = values.clone();
            rotated.rotate_left(pivot % values.len());
            prop_assert_eq!(mean_bits(&rotated), mean_bits(&values));
        }
    }
}
