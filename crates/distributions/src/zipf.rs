//! Bounded Zipf variates for heavy-tailed capacity experiments.
//!
//! The paper's bin capacities come from uniform mixes or a small binomial;
//! real storage fleets are often closer to power-law. The extension
//! experiment E3 (`bnb-experiments`) therefore also exercises the
//! protocol on Zipf-distributed capacities, using this sampler.

use crate::cumulative::CumulativeSampler;
use crate::rng::Xoshiro256PlusPlus;
use crate::sampler::WeightedSampler;

/// A Zipf distribution on `{1, …, n}` with exponent `s`:
/// `P(X = k) ∝ k^(−s)`.
///
/// Because `n` is bounded (bin capacities), we precompute the exact
/// normalised table once and sample by binary search — exact, no rejection.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    n: u64,
    s: f64,
    table: CumulativeSampler,
}

impl Zipf {
    /// Creates a bounded Zipf distribution on `{1..=n}` with exponent `s ≥ 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative/non-finite.
    #[must_use]
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "support must be non-empty");
        assert!(s.is_finite() && s >= 0.0, "exponent must be >= 0");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        Zipf {
            n,
            s,
            table: CumulativeSampler::new(&weights),
        }
    }

    /// Upper end of the support.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Exponent.
    #[must_use]
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Probability mass at `k ∈ {1..=n}` (0 outside).
    #[must_use]
    pub fn pmf(&self, k: u64) -> f64 {
        if k == 0 || k > self.n {
            return 0.0;
        }
        (k as f64).powf(-self.s) / self.table.total_weight()
    }

    /// Draws one variate in `{1..=n}`.
    #[must_use]
    pub fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> u64 {
        self.table.sample(rng) as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_is_respected() {
        let z = Zipf::new(5, 1.2);
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(21);
        for _ in 0..10_000 {
            let x = z.sample(&mut rng);
            assert!((1..=5).contains(&x));
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 1..=4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(50, 1.7);
        let sum: f64 = (1..=50).map(|k| z.pmf(k)).sum();
        assert!((sum - 1.0).abs() < 1e-10);
        assert_eq!(z.pmf(0), 0.0);
        assert_eq!(z.pmf(51), 0.0);
    }

    #[test]
    fn rank_one_dominates() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(33);
        let n = 50_000;
        let ones = (0..n).filter(|_| z.sample(&mut rng) == 1).count();
        let expected = z.pmf(1) * n as f64;
        assert!(
            (ones as f64 - expected).abs() < 5.0 * expected.sqrt(),
            "{ones} vs {expected}"
        );
        // Sanity: rank 1 is ~19% for n=100, s=1.
        assert!(z.pmf(1) > 0.15 && z.pmf(1) < 0.25);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_support_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
