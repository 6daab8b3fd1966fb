//! Distributions used by the synthetic workload generators.
//!
//! The CRAID paper motivates its design with two empirical properties of
//! long-term I/O workloads (its §2): access frequencies are highly skewed
//! (a Zipf-like popularity curve) and working sets drift slowly from day to
//! day. The [`Zipf`] sampler reproduces the first property; the second is
//! modelled in `craid-trace` on top of it.

use rand::Rng;

use crate::rng::SimRng;

/// A Zipf(θ) sampler over ranks `0..n`.
///
/// Rank `r` is drawn with probability proportional to `1 / (r + 1)^theta`.
/// Sampling uses a precomputed cumulative table and binary search, so each
/// draw is `O(log n)` and the sampler is deterministic given the RNG stream.
///
/// # Example
///
/// ```
/// use craid_simkit::{SimRng, dist::Zipf};
///
/// let zipf = Zipf::new(1_000, 0.99);
/// let mut rng = SimRng::from_seed(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with skew parameter `theta`.
    ///
    /// `theta == 0` degenerates to a uniform distribution; the paper's
    /// workloads correspond to `theta` roughly in `[0.7, 1.2]`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative or not finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(theta.is_finite() && theta >= 0.0, "theta must be >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating point leaving the last entry slightly below 1.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// The fraction of probability mass carried by the `k` most popular ranks.
    ///
    /// Used to calibrate generators against the paper's "accesses to top 20 %
    /// data" column in Table 1.
    pub fn head_mass(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[(k - 1).min(self.cdf.len() - 1)]
        }
    }
}

/// A bounded Pareto-like sampler for request run lengths (number of
/// consecutive blocks touched by one logical request).
///
/// Most requests are small, a few are long sequential runs; this mirrors the
/// multi-block I/Os the paper's redirector has to split.
#[derive(Debug, Clone)]
pub struct RunLength {
    max: usize,
    alpha: f64,
}

impl RunLength {
    /// Creates a sampler producing lengths in `[1, max]` with tail index `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `max == 0` or `alpha` is not finite and positive.
    pub fn new(max: usize, alpha: f64) -> Self {
        assert!(max > 0, "maximum run length must be positive");
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
        RunLength { max, alpha }
    }

    /// Draws a run length in `[1, max]`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        if self.max == 1 {
            return 1;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        // Inverse-CDF of a truncated Pareto on [1, max].
        let hi = (self.max as f64).powf(-self.alpha);
        let x = (1.0 - u * (1.0 - hi)).powf(-1.0 / self.alpha);
        (x.floor() as usize).clamp(1, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_ranks_in_range() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = SimRng::from_seed(3);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let zipf = Zipf::new(1_000, 1.0);
        let mut rng = SimRng::from_seed(11);
        let mut counts = vec![0usize; 1_000];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let head: usize = counts[..200].iter().sum();
        let total: usize = counts.iter().sum();
        let share = head as f64 / total as f64;
        assert!(
            share > 0.6,
            "top 20% of ranks should dominate, got share {share}"
        );
        assert!(counts[0] > counts[500], "rank 0 must beat the median rank");
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let zipf = Zipf::new(10, 0.0);
        for r in 0..10 {
            let mass = zipf.head_mass(r + 1) - zipf.head_mass(r);
            assert!((mass - 0.1).abs() < 1e-12);
        }
        assert_eq!(zipf.head_mass(10), 1.0);
    }

    #[test]
    fn zipf_masses_sum_to_one() {
        let zipf = Zipf::new(500, 0.8);
        let sum: f64 = (0..500)
            .map(|r| zipf.head_mass(r + 1) - zipf.head_mass(r))
            .sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_head_mass_monotone() {
        let zipf = Zipf::new(100, 1.1);
        let mut prev = 0.0;
        for k in 0..=100 {
            let m = zipf.head_mass(k);
            assert!(m >= prev);
            prev = m;
        }
        assert_eq!(zipf.head_mass(0), 0.0);
        assert!((zipf.head_mass(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run_length_bounds() {
        let rl = RunLength::new(64, 1.2);
        let mut rng = SimRng::from_seed(17);
        for _ in 0..10_000 {
            let l = rl.sample(&mut rng);
            assert!((1..=64).contains(&l));
        }
    }

    #[test]
    fn run_length_mostly_short() {
        let rl = RunLength::new(128, 1.5);
        let mut rng = SimRng::from_seed(23);
        let short = (0..10_000).filter(|_| rl.sample(&mut rng) <= 8).count();
        assert!(short > 7_000, "short runs should dominate, got {short}");
    }

    #[test]
    fn run_length_of_one() {
        let rl = RunLength::new(1, 2.0);
        let mut rng = SimRng::from_seed(1);
        assert_eq!(rl.sample(&mut rng), 1);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_empty_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
