//! Device-concurrency and queue-depth tracking.
//!
//! The paper's Table 5 compares its full-HDD and SSD-dedicated variants on
//! two metrics sampled over the run: the size of the device I/O queues
//! (`Ioq`) and the number of concurrently active devices (`Cdev`), reporting
//! mean, 99th percentile and maximum of each. A dedicated SSD cache funnels
//! most I/O into 5 devices (deep queues, few active devices); the spread
//! cache partition keeps queues shallow and many spindles busy.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use craid_simkit::SimTime;

use crate::quantiles::Quantiles;

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
/// counts. Feed events in non-decreasing time order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConcurrencyTracker {
    queue_depths: Quantiles,
    current_second: u64,
    active_this_second: BTreeSet<usize>,
    concurrent_devices: Quantiles,
}

impl Default for ConcurrencyTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrencyTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        ConcurrencyTracker {
            queue_depths: Quantiles::new(),
            current_second: 0,
            active_this_second: BTreeSet::new(),
            concurrent_devices: Quantiles::new(),
        }
    }

    /// Records one device-level submission: the device it targets, the time
    /// it was issued, and the queue depth it found on arrival.
    ///
    /// # Panics
    ///
    /// Panics if time goes backwards across seconds.
    pub fn record(&mut self, at: SimTime, device: usize, queue_depth: u64) {
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
        self.queue_depths.record(queue_depth as f64);
        self.active_this_second.insert(device);
    }

    fn roll_over(&mut self) {
        if !self.active_this_second.is_empty() {
            self.concurrent_devices
                .record(self.active_this_second.len() as f64);
        }
        self.active_this_second.clear();
    }

    /// Finishes the run and returns `(queue depth summary, concurrent device
    /// summary)` — the two halves of the paper's Table 5 row.
    pub fn finish(mut self) -> (ConcurrencySummary, ConcurrencySummary) {
        self.roll_over();
        (
            summarize(&mut self.queue_depths),
            summarize(&mut self.concurrent_devices),
        )
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
    use std::collections::BTreeMap;

    #[test]
    fn empty_tracker_yields_zero_summaries() {
        let (ioq, cdev) = ConcurrencyTracker::new().finish();
        assert_eq!(ioq.mean, 0.0);
        assert_eq!(cdev.max, 0.0);
    }

    #[test]
    fn counts_distinct_devices_per_second() {
        let mut t = ConcurrencyTracker::new();
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
        let mut t = ConcurrencyTracker::new();
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
        let mut funneled = ConcurrencyTracker::new();
        let mut spread = ConcurrencyTracker::new();
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
        let mut t = ConcurrencyTracker::new();
        t.record(SimTime::from_secs(2.0), 0, 0);
        t.record(SimTime::from_secs(1.0), 0, 0);
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
            let mut tracker = ConcurrencyTracker::new();
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
    }
}
