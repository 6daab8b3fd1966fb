//! Streaming mean / variance / confidence-interval summary.

/// A single-pass summary of a stream of samples (Welford's algorithm), with
/// the 95 % confidence interval of the mean that the paper reports for its
/// response-time measurements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamingSummary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl StreamingSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        StreamingSummary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "samples must be finite, got {value}");
        self.count += 1;
        self.sum += value;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample seen, or 0 for an empty summary.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample seen, or 0 for an empty summary.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sample variance (unbiased); 0 with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Half-width of the 95 % confidence interval of the mean
    /// (normal approximation, `1.96 × standard error`).
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_is_all_zero() {
        let s = StreamingSummary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn mean_and_variance_match_textbook_values() {
        let mut s = StreamingSummary::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!(s.mean(), 5.0);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn confidence_interval_shrinks_with_more_samples() {
        let mut small = StreamingSummary::new();
        let mut large = StreamingSummary::new();
        for i in 0..10 {
            small.record((i % 5) as f64);
        }
        for i in 0..10_000 {
            large.record((i % 5) as f64);
        }
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }

    #[test]
    fn std_error_scales_std_dev_by_root_count() {
        let mut s = StreamingSummary::new();
        for v in [1.0, 3.0, 5.0, 7.0] {
            s.record(v);
        }
        assert!((s.std_dev() - (20.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((s.std_error() - s.std_dev() / 2.0).abs() < 1e-12);
        assert!((s.ci95_half_width() - 1.96 * s.std_error()).abs() < 1e-12);
        assert_eq!(StreamingSummary::new().std_error(), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_sample_rejected() {
        StreamingSummary::new().record(f64::NAN);
    }

    proptest! {
        /// The mean is always between min and max, and variance is never
        /// negative.
        #[test]
        fn prop_mean_bounded(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut s = StreamingSummary::new();
            for &v in &values {
                s.record(v);
            }
            prop_assert!(s.mean() >= s.min() - 1e-9);
            prop_assert!(s.mean() <= s.max() + 1e-9);
            prop_assert!(s.variance() >= 0.0);
            prop_assert_eq!(s.count() as usize, values.len());
        }

        /// Recording the same samples in reverse gives the same summary.
        #[test]
        fn prop_summary_ignores_record_order(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let (mut fwd, mut rev) = (StreamingSummary::new(), StreamingSummary::new());
            values.iter().for_each(|&v| fwd.record(v));
            values.iter().rev().for_each(|&v| rev.record(v));
            prop_assert_eq!((fwd.count(), fwd.min(), fwd.max()), (rev.count(), rev.min(), rev.max()));
            prop_assert!((fwd.mean() - rev.mean()).abs() <= 1e-6);
            prop_assert!((fwd.variance() - rev.variance()).abs() <= 1e-6 * fwd.variance().max(1.0));
        }
    }
}
