//! Sequential-access tracking.
//!
//! The paper's Fig. 5 plots the CDF of the *sequential access percentage*,
//! "computed as #SeqAccess/#Accesses and aggregated per second of
//! simulation". An access counts as sequential when it starts exactly where
//! the previous access to the same device ended — the condition under which
//! a disk pays neither seek nor rotational latency.
//!
//! The tracker keeps one last end per device and one sample per second with
//! traffic, so its memory never follows the number of accesses.

use craid_simkit::SimTime;

use crate::quantiles::Quantiles;

/// Tracks per-second sequentiality percentages across an array of devices.
///
/// Feed device-level accesses in non-decreasing time order.
#[derive(Debug, Clone)]
pub struct SequentialityTracker {
    /// Last physical block end per device, indexed by device.
    last_end: Vec<Option<u64>>,
    current_second: u64,
    accesses_this_second: u64,
    sequential_this_second: u64,
    samples: Quantiles,
    total_accesses: u64,
    total_sequential: u64,
}

impl SequentialityTracker {
    /// Creates an empty tracker for an array of `devices` devices.
    pub fn new(devices: usize) -> Self {
        SequentialityTracker {
            last_end: vec![None; devices],
            current_second: 0,
            accesses_this_second: 0,
            sequential_this_second: 0,
            samples: Quantiles::new(),
            total_accesses: 0,
            total_sequential: 0,
        }
    }

    /// Records a device access of `blocks` blocks starting at `start_block`
    /// on `device` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range, time goes backwards across
    /// seconds or `blocks` is zero.
    pub fn record(&mut self, at: SimTime, device: usize, start_block: u64, blocks: u64) {
        assert!(blocks > 0, "an access must cover at least one block");
        assert!(device < self.last_end.len(), "device {device} out of range");
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
        let sequential = self.last_end[device] == Some(start_block);
        self.accesses_this_second += 1;
        self.total_accesses += 1;
        if sequential {
            self.sequential_this_second += 1;
            self.total_sequential += 1;
        }
        self.last_end[device] = Some(start_block + blocks);
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
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn purely_sequential_stream_scores_high() {
        let mut t = SequentialityTracker::new(1);
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
        let mut t = SequentialityTracker::new(1);
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
        let mut t = SequentialityTracker::new(2);
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
        let mut t = SequentialityTracker::new(1);
        t.record(SimTime::from_secs(0.0), 0, 0, 4);
        t.record(SimTime::from_secs(0.5), 0, 4, 4);
        // seconds 1-4 idle
        t.record(SimTime::from_secs(5.0), 0, 8, 4);
        let samples = t.finish();
        assert_eq!(samples.count(), 2);
    }

    #[test]
    fn gaps_break_sequential_runs() {
        let mut t = SequentialityTracker::new(1);
        t.record(SimTime::ZERO, 0, 0, 4);
        t.record(SimTime::ZERO, 0, 8, 4); // skipped blocks 4..8 → not sequential
        t.record(SimTime::ZERO, 0, 12, 4); // continues from 12 → sequential
        assert!((t.overall_sequential_fraction() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn time_must_not_go_backwards() {
        let mut t = SequentialityTracker::new(1);
        t.record(SimTime::from_secs(3.0), 0, 0, 1);
        t.record(SimTime::from_secs(1.0), 0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_length_access_rejected() {
        SequentialityTracker::new(1).record(SimTime::ZERO, 0, 0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn device_out_of_range_rejected() {
        SequentialityTracker::new(2).record(SimTime::ZERO, 2, 0, 1);
    }

    /// Every sample, ascending: the nearest-rank quantile at `(k + ½)/n` is
    /// the `k`-th smallest of `n`.
    fn ascending(q: &mut Quantiles) -> Vec<f64> {
        let n = q.count();
        (0..n)
            .map(|k| q.quantile((k as f64 + 0.5) / n as f64).unwrap())
            .collect()
    }

    proptest! {
        /// The tracker agrees with a recount that keys each device's last
        /// end in a `BTreeMap`, on the overall fraction and on every
        /// per-second sample. About half the accesses continue their
        /// device's last run.
        #[test]
        fn prop_matches_a_per_device_recount(
            raw in proptest::collection::vec(
                (0u64..8_000_000, 0usize..6, any::<bool>(), (0u64..1_000, 1u64..16)),
                1..300,
            ),
        ) {
            let mut raw = raw;
            raw.sort_by_key(|&(micros, ..)| micros);
            let mut tracker = SequentialityTracker::new(6);
            let mut last_end: BTreeMap<usize, u64> = BTreeMap::new();
            let mut per_second: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
            for &(micros, device, continues, (random_start, blocks)) in &raw {
                let at = SimTime::from_micros(micros as f64);
                let start = match last_end.get(&device) {
                    Some(&end) if continues => end,
                    _ => random_start,
                };
                tracker.record(at, device, start, blocks);
                let sequential = last_end.insert(device, start + blocks) == Some(start);
                let (accesses, hits) = per_second.entry(at.second_bucket()).or_default();
                *accesses += 1;
                *hits += u64::from(sequential);
            }
            let (accesses, hits) = per_second
                .values()
                .fold((0, 0), |(a, h), &(n, s)| (a + n, h + s));
            prop_assert_eq!(
                tracker.overall_sequential_fraction(),
                hits as f64 / accesses as f64
            );
            let mut expected = Quantiles::new();
            for &(n, s) in per_second.values() {
                expected.record(100.0 * s as f64 / n as f64);
            }
            prop_assert_eq!(ascending(&mut tracker.finish()), ascending(&mut expected));
        }
    }
}
