//! Capacity-vector generators for the paper's workloads.

use bnb_distributions::{Binomial, Xoshiro256PlusPlus, Zipf};

/// A validated vector of positive integer bin capacities, with
/// constructors for every capacity model used in the paper's evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityVector {
    capacities: Vec<u64>,
}

impl CapacityVector {
    /// Wraps an explicit capacity list.
    ///
    /// # Panics
    /// Panics if the list is empty or contains a zero.
    #[must_use]
    pub fn from_vec(capacities: Vec<u64>) -> Self {
        assert!(!capacities.is_empty(), "need at least one bin");
        assert!(
            capacities.iter().all(|&c| c > 0),
            "capacities must be positive"
        );
        CapacityVector { capacities }
    }

    /// `n` bins all of capacity `c` (Figures 1–5 and the baselines).
    ///
    /// # Panics
    /// Panics if `n == 0` or `c == 0`.
    #[must_use]
    pub fn uniform(n: usize, c: u64) -> Self {
        assert!(n > 0 && c > 0, "n and c must be positive");
        CapacityVector {
            capacities: vec![c; n],
        }
    }

    /// A two-class mix: `n_small` bins of `c_small` followed by `n_large`
    /// bins of `c_large` (Figures 6, 7, 10–13, 17, 18).
    ///
    /// # Panics
    /// Panics if both counts are zero or a used capacity is zero.
    #[must_use]
    pub fn two_class(n_small: usize, c_small: u64, n_large: usize, c_large: u64) -> Self {
        assert!(n_small + n_large > 0, "need at least one bin");
        assert!(
            n_small == 0 || c_small > 0,
            "small capacity must be positive"
        );
        assert!(
            n_large == 0 || c_large > 0,
            "large capacity must be positive"
        );
        let mut capacities = Vec::with_capacity(n_small + n_large);
        capacities.extend(std::iter::repeat_n(c_small, n_small));
        capacities.extend(std::iter::repeat_n(c_large, n_large));
        CapacityVector { capacities }
    }

    /// The §4.2 randomised sizes: each bin's capacity is `1 + X` with
    /// `X ~ Bin(7, (c − 1)/7)`, so the expected total capacity is `c·n`
    /// for any target mean capacity `c ∈ [1, 8]`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `mean_capacity` is outside `[1, 8]`.
    #[must_use]
    pub fn binomial_randomized(n: usize, mean_capacity: f64, rng: &mut Xoshiro256PlusPlus) -> Self {
        assert!(n > 0, "need at least one bin");
        assert!(
            (1.0..=8.0).contains(&mean_capacity),
            "paper's model needs mean capacity in [1,8], got {mean_capacity}"
        );
        let dist = Binomial::new(7, (mean_capacity - 1.0) / 7.0);
        let capacities = (0..n).map(|_| 1 + dist.sample(rng)).collect();
        CapacityVector { capacities }
    }

    /// Generalisation of [`Self::binomial_randomized`] used by the
    /// heavily-loaded experiment (§4.4, Figure 16), whose prescribed mean
    /// capacities exceed the `[1, 8]` range of the §4.2 model: capacity is
    /// `1 + X` with `X ~ Bin(trials, (mean − 1)/trials)`, so the expected
    /// total is `mean·n` for any `mean ∈ [1, trials + 1]`.
    ///
    /// # Panics
    /// Panics if `n == 0`, `trials == 0`, or `mean_capacity` is outside
    /// `[1, trials + 1]`.
    #[must_use]
    pub fn binomial_randomized_with_trials(
        n: usize,
        mean_capacity: f64,
        trials: u64,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Self {
        assert!(n > 0, "need at least one bin");
        assert!(trials > 0, "need at least one Bernoulli trial");
        assert!(
            mean_capacity >= 1.0 && mean_capacity <= trials as f64 + 1.0,
            "mean capacity {mean_capacity} outside [1, trials+1]"
        );
        let dist = Binomial::new(trials, (mean_capacity - 1.0) / trials as f64);
        let capacities = (0..n).map(|_| 1 + dist.sample(rng)).collect();
        CapacityVector { capacities }
    }

    /// Heavy-tailed capacities `Zipf(max_capacity, s)` — an extension
    /// workload beyond the paper (power-law device fleets).
    ///
    /// # Panics
    /// Panics if `n == 0` or `max_capacity == 0`.
    #[must_use]
    pub fn zipf(n: usize, max_capacity: u64, s: f64, rng: &mut Xoshiro256PlusPlus) -> Self {
        assert!(n > 0, "need at least one bin");
        let dist = Zipf::new(max_capacity, s);
        let capacities = (0..n).map(|_| dist.sample(rng)).collect();
        CapacityVector { capacities }
    }

    /// The capacities as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.capacities
    }

    /// Number of bins.
    #[must_use]
    pub fn n(&self) -> usize {
        self.capacities.len()
    }

    /// Total capacity `C`.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.capacities.iter().sum()
    }

    /// Number of bins with capacity at least `threshold` — the paper's
    /// "big bins" when `threshold ≈ r·ln n`.
    #[must_use]
    pub fn count_at_least(&self, threshold: u64) -> usize {
        self.capacities.iter().filter(|&&c| c >= threshold).count()
    }

    /// Smallest and largest capacity.
    #[must_use]
    pub fn min_max(&self) -> (u64, u64) {
        let min = *self.capacities.iter().min().expect("non-empty");
        let max = *self.capacities.iter().max().expect("non-empty");
        (min, max)
    }
}

impl From<Vec<u64>> for CapacityVector {
    fn from(v: Vec<u64>) -> Self {
        CapacityVector::from_vec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_vector() {
        let c = CapacityVector::uniform(4, 3);
        assert_eq!(c.as_slice(), &[3, 3, 3, 3]);
        assert_eq!(c.total(), 12);
        assert_eq!(c.min_max(), (3, 3));
    }

    #[test]
    fn two_class_layout_and_total() {
        let c = CapacityVector::two_class(2, 1, 3, 10);
        assert_eq!(c.as_slice(), &[1, 1, 10, 10, 10]);
        assert_eq!(c.total(), 32);
        assert_eq!(c.count_at_least(10), 3);
        assert_eq!(c.count_at_least(2), 3);
        assert_eq!(c.min_max(), (1, 10));
    }

    #[test]
    fn two_class_allows_empty_sides() {
        let all_large = CapacityVector::two_class(0, 1, 3, 5);
        assert_eq!(all_large.n(), 3);
        let all_small = CapacityVector::two_class(3, 1, 0, 5);
        assert_eq!(all_small.total(), 3);
    }

    #[test]
    fn binomial_randomized_range_and_mean() {
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(42);
        let n = 20_000;
        let target = 4.5;
        let c = CapacityVector::binomial_randomized(n, target, &mut rng);
        assert_eq!(c.n(), n);
        assert!(c.as_slice().iter().all(|&x| (1..=8).contains(&x)));
        let mean = c.total() as f64 / n as f64;
        // sd of one draw is sqrt(7pq) < 1.33; se < 0.01
        assert!((mean - target).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn binomial_randomized_extremes() {
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(1);
        let ones = CapacityVector::binomial_randomized(100, 1.0, &mut rng);
        assert!(ones.as_slice().iter().all(|&c| c == 1));
        let eights = CapacityVector::binomial_randomized(100, 8.0, &mut rng);
        assert!(eights.as_slice().iter().all(|&c| c == 8));
    }

    #[test]
    fn binomial_with_trials_extends_mean_range() {
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(3);
        let n = 20_000;
        let c = CapacityVector::binomial_randomized_with_trials(n, 10.0, 18, &mut rng);
        assert!(c.as_slice().iter().all(|&x| (1..=19).contains(&x)));
        let mean = c.total() as f64 / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "outside [1, trials+1]")]
    fn binomial_with_trials_rejects_unreachable_mean() {
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(3);
        let _ = CapacityVector::binomial_randomized_with_trials(10, 12.0, 7, &mut rng);
    }

    #[test]
    fn zipf_capacities_positive_and_bounded() {
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(7);
        let c = CapacityVector::zipf(1000, 64, 1.1, &mut rng);
        assert!(c.as_slice().iter().all(|&x| (1..=64).contains(&x)));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_capacity_rejected() {
        let _ = CapacityVector::from_vec(vec![1, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "mean capacity in [1,8]")]
    fn binomial_mean_out_of_range_rejected() {
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(0);
        let _ = CapacityVector::binomial_randomized(10, 9.0, &mut rng);
    }
}
