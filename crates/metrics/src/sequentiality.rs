//! Sequential-access tracking.
//!
//! The paper's Fig. 5 plots the CDF of the *sequential access percentage*,
//! "computed as #SeqAccess/#Accesses and aggregated per second of
//! simulation". An access counts as sequential when it starts exactly where
//! the previous access to the same device ended — the condition under which
//! a disk pays neither seek nor rotational latency.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use craid_simkit::SimTime;

use crate::quantiles::Quantiles;

/// Tracks per-second sequentiality percentages across an array of devices.
///
/// Feed device-level accesses in non-decreasing time order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SequentialityTracker {
    /// Last physical block end per device.
    last_end: BTreeMap<usize, u64>,
    current_second: u64,
    accesses_this_second: u64,
    sequential_this_second: u64,
    samples: Quantiles,
    total_accesses: u64,
    total_sequential: u64,
}

impl SequentialityTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a device access of `blocks` blocks starting at `start_block`
    /// on `device` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if time goes backwards across seconds or `blocks` is zero.
    pub fn record(&mut self, at: SimTime, device: usize, start_block: u64, blocks: u64) {
        assert!(blocks > 0, "an access must cover at least one block");
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
        let sequential = self.last_end.get(&device) == Some(&start_block);
        self.accesses_this_second += 1;
        self.total_accesses += 1;
        if sequential {
            self.sequential_this_second += 1;
            self.total_sequential += 1;
        }
        self.last_end.insert(device, start_block + blocks);
    }

    fn roll_over(&mut self) {
        if self.accesses_this_second > 0 {
            let pct = 100.0 * self.sequential_this_second as f64 / self.accesses_this_second as f64;
            self.samples.record(pct);
        }
        self.accesses_this_second = 0;
        self.sequential_this_second = 0;
    }

    /// Overall fraction of sequential accesses over the whole run, in
    /// `[0, 1]`.
    pub fn overall_sequential_fraction(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.total_sequential as f64 / self.total_accesses as f64
        }
    }

    /// Flushes the current second and returns the per-second sequentiality
    /// percentage samples (0–100), ready to be turned into Fig. 5's CDF.
    pub fn finish(mut self) -> Quantiles {
        self.roll_over();
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn purely_sequential_stream_scores_high() {
        let mut t = SequentialityTracker::new();
        for i in 0..100u64 {
            t.record(SimTime::from_millis(i as f64), 0, i * 8, 8);
        }
        // Only the first access is non-sequential.
        assert!((t.overall_sequential_fraction() - 0.99).abs() < 1e-9);
        let mut samples = t.finish();
        assert_eq!(samples.count(), 1);
        assert!(samples.quantile(1.0).unwrap() > 98.0);
    }

    #[test]
    fn random_stream_scores_low() {
        let mut t = SequentialityTracker::new();
        for i in 0..100u64 {
            t.record(
                SimTime::from_millis(i as f64),
                0,
                (i * 104_729) % 100_000,
                8,
            );
        }
        assert!(t.overall_sequential_fraction() < 0.05);
    }

    #[test]
    fn sequentiality_is_tracked_per_device() {
        let mut t = SequentialityTracker::new();
        // Interleaved streams that are each sequential on their own device.
        for i in 0..50u64 {
            t.record(SimTime::from_millis(i as f64 * 2.0), 0, i * 4, 4);
            t.record(
                SimTime::from_millis(i as f64 * 2.0 + 1.0),
                1,
                1_000 + i * 4,
                4,
            );
        }
        // All but the first access on each device are sequential.
        assert!((t.overall_sequential_fraction() - 98.0 / 100.0).abs() < 1e-9);
    }

    #[test]
    fn per_second_samples_only_for_active_seconds() {
        let mut t = SequentialityTracker::new();
        t.record(SimTime::from_secs(0.0), 0, 0, 4);
        t.record(SimTime::from_secs(0.5), 0, 4, 4);
        // seconds 1-4 idle
        t.record(SimTime::from_secs(5.0), 0, 8, 4);
        let samples = t.finish();
        assert_eq!(samples.count(), 2);
    }

    #[test]
    fn gaps_break_sequential_runs() {
        let mut t = SequentialityTracker::new();
        t.record(SimTime::ZERO, 0, 0, 4);
        t.record(SimTime::ZERO, 0, 8, 4); // skipped blocks 4..8 → not sequential
        t.record(SimTime::ZERO, 0, 12, 4); // continues from 12 → sequential
        assert!((t.overall_sequential_fraction() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn time_must_not_go_backwards() {
        let mut t = SequentialityTracker::new();
        t.record(SimTime::from_secs(3.0), 0, 0, 1);
        t.record(SimTime::from_secs(1.0), 0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_length_access_rejected() {
        SequentialityTracker::new().record(SimTime::ZERO, 0, 0, 0);
    }
}
