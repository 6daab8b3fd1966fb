//! Device-concurrency and queue-depth tracking.
//!
//! The paper's Table 5 compares its full-HDD and SSD-dedicated variants on
//! two metrics sampled over the run: the size of the device I/O queues
//! (`Ioq`) and the number of concurrently active devices (`Cdev`), reporting
//! mean, 99th percentile and maximum of each. A dedicated SSD cache funnels
//! most I/O into 5 devices (deep queues, few active devices); the spread
//! cache partition keeps queues shallow and many spindles busy.
//!
//! Both summaries are exact, yet the tracker keeps no per-I/O state: queue
//! depths are integers, so they are counted in a histogram indexed by
//! depth, and each device carries the second in which it was last active.
//! Its memory follows the device count, the deepest queue and the number of
//! seconds with traffic, never the number of I/Os.

use serde::{Deserialize, Serialize};

use craid_simkit::SimTime;

use crate::quantiles::{nearest_rank, Quantiles};

/// Summary statistics (mean / 99th percentile / max) for one tracked metric.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ConcurrencySummary {
    /// Arithmetic mean of the samples.
    pub mean: f64,
    /// 99th percentile of the samples.
    pub p99: f64,
    /// Maximum sample.
    pub max: f64,
}

/// Tracks queue-depth samples and per-second concurrently-active device
/// counts over a fixed set of devices. Feed events in non-decreasing time
/// order.
#[derive(Debug, Clone)]
pub struct ConcurrencyTracker {
    /// Submissions that found each queue depth, indexed by depth. It grows
    /// to the deepest queue seen, which is bounded by the I/Os in flight on
    /// one device.
    depth_counts: Vec<u64>,
    /// Exact sum of every recorded queue depth.
    depth_sum: u64,
    current_second: u64,
    /// The second in which each device was last active, indexed by device;
    /// `u64::MAX`, a second no [`SimTime`] reaches, for never.
    last_active: Vec<u64>,
    active_this_second: u64,
    concurrent_devices: Quantiles,
}

impl ConcurrencyTracker {
    /// Creates an empty tracker for an array of `devices` devices.
    pub fn new(devices: usize) -> Self {
        ConcurrencyTracker {
            depth_counts: Vec::new(),
            depth_sum: 0,
            current_second: 0,
            last_active: vec![u64::MAX; devices],
            active_this_second: 0,
            concurrent_devices: Quantiles::new(),
        }
    }

    /// Records one device-level submission: the device it targets, the time
    /// it was issued, and the queue depth it found on arrival.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range or time goes backwards across
    /// seconds.
    pub fn record(&mut self, at: SimTime, device: usize, queue_depth: u64) {
        assert!(
            device < self.last_active.len(),
            "device {device} out of range"
        );
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
        let depth = usize::try_from(queue_depth).expect("a queue depth counts I/Os held in memory");
        if depth >= self.depth_counts.len() {
            self.depth_counts.resize(depth + 1, 0);
        }
        self.depth_counts[depth] += 1;
        self.depth_sum += queue_depth;
        if self.last_active[device] != second {
            self.last_active[device] = second;
            self.active_this_second += 1;
        }
    }

    fn roll_over(&mut self) {
        if self.active_this_second > 0 {
            self.concurrent_devices
                .record(self.active_this_second as f64);
        }
        self.active_this_second = 0;
    }

    /// Finishes the run and returns `(queue depth summary, concurrent device
    /// summary)` — the two halves of the paper's Table 5 row.
    pub fn finish(mut self) -> (ConcurrencySummary, ConcurrencySummary) {
        self.roll_over();
        (
            self.queue_depth_summary(),
            summarize(&mut self.concurrent_devices),
        )
    }

    /// Mean, nearest-rank p99 and max of the recorded depths, read off the
    /// histogram. These equal [`Quantiles`]' answers over the same depths
    /// recorded as `f64`, bit for bit: the sorted `f64` sum of integers
    /// below 2^53 is exact, and so equals the integer sum.
    fn queue_depth_summary(&self) -> ConcurrencySummary {
        let n: u64 = self.depth_counts.iter().sum();
        if n == 0 {
            return ConcurrencySummary::default();
        }
        let rank = nearest_rank(0.99, n as usize) as u64;
        let mut seen = 0;
        let p99 = self
            .depth_counts
            .iter()
            .position(|&count| {
                seen += count;
                seen > rank
            })
            .expect("the ranked depth is counted");
        let max = self
            .depth_counts
            .iter()
            .rposition(|&count| count > 0)
            .expect("a recorded depth is counted");
        ConcurrencySummary {
            mean: self.depth_sum as f64 / n as f64,
            p99: p99 as f64,
            max: max as f64,
        }
    }
}

fn summarize(q: &mut Quantiles) -> ConcurrencySummary {
    ConcurrencySummary {
        mean: q.mean().unwrap_or(0.0),
        p99: q.quantile(0.99).unwrap_or(0.0),
        max: q.max().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn empty_tracker_yields_zero_summaries() {
        let (ioq, cdev) = ConcurrencyTracker::new(4).finish();
        assert_eq!(ioq.mean, 0.0);
        assert_eq!(cdev.max, 0.0);
    }

    #[test]
    fn counts_distinct_devices_per_second() {
        let mut t = ConcurrencyTracker::new(5);
        // Second 0: devices 0, 1, 2 active (device 0 twice).
        t.record(SimTime::from_secs(0.1), 0, 0);
        t.record(SimTime::from_secs(0.2), 1, 1);
        t.record(SimTime::from_secs(0.3), 0, 2);
        t.record(SimTime::from_secs(0.4), 2, 0);
        // Second 2: a single device.
        t.record(SimTime::from_secs(2.0), 4, 5);
        let (ioq, cdev) = t.finish();
        assert_eq!(cdev.max, 3.0);
        assert_eq!(cdev.mean, 2.0);
        assert_eq!(ioq.max, 5.0);
        assert!((ioq.mean - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn deep_queues_show_in_p99() {
        let mut t = ConcurrencyTracker::new(1);
        for i in 0..200u64 {
            let depth = if i % 50 == 49 { 50 } else { 1 };
            t.record(SimTime::from_millis(i as f64), 0, depth);
        }
        let (ioq, _) = t.finish();
        assert!(ioq.p99 >= 50.0);
        assert!(ioq.mean < 2.0);
    }

    #[test]
    fn funneled_vs_spread_traffic_shapes() {
        // The contrast behind Table 5: the same number of submissions either
        // funneled into 2 devices with deep queues or spread over 20 devices
        // with shallow queues.
        let mut funneled = ConcurrencyTracker::new(20);
        let mut spread = ConcurrencyTracker::new(20);
        for i in 0..400u64 {
            let at = SimTime::from_millis(i as f64 * 10.0);
            funneled.record(at, (i % 2) as usize, i % 40);
            spread.record(at, (i % 20) as usize, i % 3);
        }
        let (f_ioq, f_cdev) = funneled.finish();
        let (s_ioq, s_cdev) = spread.finish();
        assert!(f_ioq.mean > s_ioq.mean, "funneled queues must be deeper");
        assert!(
            f_cdev.mean < s_cdev.mean,
            "spread traffic keeps more devices active"
        );
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn rejects_backwards_time() {
        let mut t = ConcurrencyTracker::new(1);
        t.record(SimTime::from_secs(2.0), 0, 0);
        t.record(SimTime::from_secs(1.0), 0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_a_device_out_of_range() {
        ConcurrencyTracker::new(2).record(SimTime::ZERO, 2, 0);
    }

    #[test]
    fn one_deep_queue_leaves_p99_shallow() {
        let mut t = ConcurrencyTracker::new(1);
        for i in 0..10_000u64 {
            t.record(SimTime::from_micros(i as f64), 0, i % 4);
        }
        t.record(SimTime::from_micros(10_000.0), 0, 100_000);
        let (ioq, _) = t.finish();
        assert_eq!(ioq.p99, 3.0);
        assert_eq!(ioq.max, 100_000.0);
        assert_eq!(ioq.mean, (15_000 + 100_000) as f64 / 10_001.0);
    }

    /// Mean, nearest-rank p99 and max of integer samples, by integer math.
    fn reference_summary(samples: &[u64]) -> ConcurrencySummary {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = (99 * n).div_ceil(100).max(1);
        ConcurrencySummary {
            mean: sorted.iter().sum::<u64>() as f64 / n as f64,
            p99: sorted[rank - 1] as f64,
            max: sorted[n - 1] as f64,
        }
    }

    proptest! {
        /// The summaries equal a recount of the raw stream: one `ioq` sample
        /// per submission, one `cdev` sample (distinct devices) per second
        /// with traffic.
        #[test]
        fn prop_summaries_match_a_per_second_recount(
            raw in proptest::collection::vec((0u64..30_000_000, 0usize..12, 0u64..64), 1..400),
        ) {
            let mut raw = raw;
            raw.sort_by_key(|&(micros, _, _)| micros);
            let mut tracker = ConcurrencyTracker::new(12);
            let mut active: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
            for &(micros, device, depth) in &raw {
                let at = SimTime::from_micros(micros as f64);
                tracker.record(at, device, depth);
                active.entry(at.second_bucket()).or_default().insert(device);
            }
            let depths: Vec<u64> = raw.iter().map(|&(_, _, depth)| depth).collect();
            let devices: Vec<u64> = active.values().map(|set| set.len() as u64).collect();
            let (ioq, cdev) = tracker.finish();
            prop_assert_eq!(ioq, reference_summary(&depths));
            prop_assert_eq!(cdev, reference_summary(&devices));
        }

        /// The queue-depth summary has the bits `Quantiles` gives over the
        /// same depths recorded as `f64`, the mean included, with shallow
        /// depths mixed with depths up to 10^6: the histogram changes no
        /// report byte.
        #[test]
        fn prop_queue_depths_match_quantiles_bit_for_bit(
            draws in proptest::collection::vec(
                (any::<bool>(), 0u64..64, 0u64..1_000_001),
                1..400,
            ),
        ) {
            let depths = draws.iter().map(|&(deep, shallow, wide)| if deep { wide } else { shallow });
            let mut tracker = ConcurrencyTracker::new(1);
            let mut samples = Quantiles::new();
            for (i, depth) in depths.enumerate() {
                tracker.record(SimTime::from_millis(i as f64), 0, depth);
                samples.record(depth as f64);
            }
            let (ioq, _) = tracker.finish();
            prop_assert_eq!(ioq.mean.to_bits(), samples.mean().unwrap().to_bits());
            prop_assert_eq!(ioq.p99.to_bits(), samples.quantile(0.99).unwrap().to_bits());
            prop_assert_eq!(ioq.max.to_bits(), samples.max().unwrap().to_bits());
        }
    }
}
