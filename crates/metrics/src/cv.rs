//! Load-balance metrics: the coefficient of variation of per-disk I/O load.
//!
//! §5.3 of the paper: "For each second of simulation we measure the I/O load
//! in MB received by each disk and we compute the coefficient of variation as
//! a metric to evaluate the uniformity of its distribution." The smaller the
//! cv, the closer the array is to an ideal uniform distribution.

use craid_simkit::SimTime;

use crate::quantiles::Quantiles;

/// Coefficient of variation (`σ/µ`, population standard deviation) of a set
/// of per-device loads, expressed as a fraction (not a percentage).
///
/// Returns 0 when the mean is 0 (an idle second is perfectly balanced).
///
/// # Panics
///
/// Panics if `loads` is empty.
pub fn coefficient_of_variation(loads: &[f64]) -> f64 {
    assert!(
        !loads.is_empty(),
        "cannot compute cv of an empty load vector"
    );
    let n = loads.len() as f64;
    let mean = loads.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = loads.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

/// Accumulates per-device bytes second by second and produces the
/// distribution of per-second cv values (the curves of the paper's Fig. 7
/// and the best/worst summary of its Table 6).
///
/// Feed events in non-decreasing time order.
#[derive(Debug, Clone)]
pub struct LoadBalanceTracker {
    devices: usize,
    current_second: u64,
    current_loads: Vec<f64>,
    any_traffic_this_second: bool,
    cv_samples: Quantiles,
    /// Total bytes per device over the whole run (for end-of-run imbalance).
    totals: Vec<f64>,
}

impl LoadBalanceTracker {
    /// Creates a tracker for an array of `devices` devices.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    pub fn new(devices: usize) -> Self {
        assert!(devices > 0, "need at least one device");
        LoadBalanceTracker {
            devices,
            current_second: 0,
            current_loads: vec![0.0; devices],
            any_traffic_this_second: false,
            cv_samples: Quantiles::new(),
            totals: vec![0.0; devices],
        }
    }

    /// Number of devices being tracked.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Records `bytes` of traffic hitting `device` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range or time goes backwards across
    /// seconds.
    pub fn record(&mut self, at: SimTime, device: usize, bytes: u64) {
        assert!(device < self.devices, "device {device} out of range");
        let second = at.second_bucket();
        assert!(
            second >= self.current_second,
            "events must be fed in time order (second {second} after {})",
            self.current_second
        );
        if second != self.current_second {
            self.roll_over();
            self.current_second = second;
        }
        self.current_loads[device] += bytes as f64;
        self.totals[device] += bytes as f64;
        self.any_traffic_this_second = true;
    }

    fn roll_over(&mut self) {
        if self.any_traffic_this_second {
            self.cv_samples
                .record(coefficient_of_variation(&self.current_loads));
        }
        self.current_loads.iter_mut().for_each(|l| *l = 0.0);
        self.any_traffic_this_second = false;
    }

    /// Flushes the current second and returns the collected per-second cv
    /// samples. Call once at the end of a run.
    pub fn finish(mut self) -> Quantiles {
        self.roll_over();
        self.cv_samples
    }

    /// cv of the whole-run per-device totals (a single-number imbalance
    /// summary, coarser than the per-second distribution).
    pub fn overall_cv(&self) -> f64 {
        coefficient_of_variation(&self.totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_loads_have_zero_cv() {
        assert_eq!(coefficient_of_variation(&[5.0, 5.0, 5.0, 5.0]), 0.0);
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn known_cv_value() {
        // loads 2 and 4: mean 3, population sd 1, cv = 1/3.
        let cv = coefficient_of_variation(&[2.0, 4.0]);
        assert!((cv - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_loads_have_higher_cv_than_balanced() {
        let balanced = coefficient_of_variation(&[10.0, 11.0, 9.0, 10.0]);
        let skewed = coefficient_of_variation(&[40.0, 0.0, 0.0, 0.0]);
        assert!(skewed > balanced);
        assert!((skewed - 3.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty load vector")]
    fn empty_loads_rejected() {
        coefficient_of_variation(&[]);
    }

    #[test]
    fn tracker_produces_one_sample_per_active_second() {
        let mut t = LoadBalanceTracker::new(4);
        // Second 0: perfectly balanced.
        for d in 0..4 {
            t.record(SimTime::from_secs(0.1), d, 100);
        }
        // Second 1: all load on one device.
        t.record(SimTime::from_secs(1.5), 0, 400);
        // Second 2: idle (no events) — must not produce a sample.
        // Second 3: balanced again.
        for d in 0..4 {
            t.record(SimTime::from_secs(3.2), d, 50);
        }
        let mut samples = t.finish();
        assert_eq!(samples.count(), 3);
        assert_eq!(samples.quantile(0.0), Some(0.0));
        assert!((samples.quantile(1.0).unwrap() - 3.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn tracker_overall_totals() {
        let mut t = LoadBalanceTracker::new(2);
        t.record(SimTime::ZERO, 0, 100);
        t.record(SimTime::from_secs(2.0), 1, 300);
        assert_eq!(t.totals, [100.0, 300.0]);
        assert!(t.overall_cv() > 0.0);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn tracker_rejects_time_travel() {
        let mut t = LoadBalanceTracker::new(2);
        t.record(SimTime::from_secs(5.0), 0, 1);
        t.record(SimTime::from_secs(1.0), 0, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tracker_rejects_unknown_device() {
        let mut t = LoadBalanceTracker::new(2);
        t.record(SimTime::ZERO, 2, 1);
    }

    proptest! {
        /// cv is scale-invariant: multiplying every load by a positive
        /// constant does not change it.
        #[test]
        fn prop_cv_scale_invariant(loads in proptest::collection::vec(0.0f64..1e4, 2..32),
                                   scale in 0.01f64..100.0) {
            let base = coefficient_of_variation(&loads);
            let scaled: Vec<f64> = loads.iter().map(|&l| l * scale).collect();
            let after = coefficient_of_variation(&scaled);
            prop_assert!((base - after).abs() < 1e-9);
        }

        /// cv is non-negative and zero only for uniform vectors.
        #[test]
        fn prop_cv_nonnegative(loads in proptest::collection::vec(0.0f64..1e4, 2..32)) {
            let cv = coefficient_of_variation(&loads);
            prop_assert!(cv >= 0.0);
            let uniform = loads.iter().all(|&l| (l - loads[0]).abs() < f64::EPSILON);
            if !uniform && loads.iter().sum::<f64>() > 0.0 {
                prop_assert!(cv > 0.0);
            }
        }
    }
}
