//! Small statistics and host helpers: medians, quartiles, report digests and
//! the process's peak resident memory.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile, median and third quartile of `values`, computed the way
/// Python's `statistics.quantiles(values, n=4)` does (the default
/// "exclusive" method), so spreads printed here match an outside check.
///
/// # Panics
///
/// Panics if fewer than two values are given.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len() as i64;
    let m = len + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Outside the sample range `delta` leaves [0, 4] and the formula
        // extrapolates, exactly as Python's does.
        let delta = (i * m - j * 4) as f64;
        (sorted[j as usize - 1] * (4.0 - delta) + sorted[j as usize] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Quartile spread as a share of the median: `(q3 - q1) / median`.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// 64-bit FNV-1a digest of `text`: a short fingerprint of a report, so two
/// runs' simulated outputs can be compared at a glance.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// procfs is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert!((spread(&values) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn digest_tells_texts_apart() {
        assert_eq!(digest("a"), digest("a"));
        assert_ne!(digest("a"), digest("b"));
    }
}
