//! Cumulative-table sampler: the simplest correct weighted sampler.

use crate::rng::Xoshiro256PlusPlus;
use crate::sampler::WeightedSampler;

/// Prefix-sum table with binary search; O(n) build, O(log n) sample,
/// no updates.
///
/// Kept as a second independent oracle when differential-testing
/// [`crate::AliasTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct CumulativeSampler {
    /// Strictly increasing cumulative sums (zero-weight entries collapse
    /// onto their predecessor and are skipped at sample time).
    cumulative: Vec<f64>,
    weights: Vec<f64>,
    total: f64,
}

impl CumulativeSampler {
    /// Builds the table from non-negative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, any weight is negative/non-finite, or
    /// the total is zero.
    #[must_use]
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "cumulative sampler needs weights");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            assert!(w.is_finite() && w >= 0.0, "weight {i} invalid: {w}");
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "total weight must be positive");
        CumulativeSampler {
            cumulative,
            weights: weights.to_vec(),
            total: acc,
        }
    }

    /// Weight of index `i`.
    #[must_use]
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }
}

impl WeightedSampler for CumulativeSampler {
    #[inline]
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> usize {
        loop {
            let target = rng.next_f64() * self.total;
            // partition_point: first index with cumulative > target.
            let idx = self.cumulative.partition_point(|&c| c <= target);
            let idx = idx.min(self.weights.len() - 1);
            if self.weights[idx] > 0.0 {
                return idx;
            }
            // Zero-weight index can only be hit on exact float boundaries;
            // retry.
        }
    }

    fn from_weights(weights: &[f64]) -> Self {
        CumulativeSampler::new(weights)
    }

    fn len(&self) -> usize {
        self.weights.len()
    }

    fn total_weight(&self) -> f64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_weights_statistically() {
        let weights = [2.0, 0.0, 8.0];
        let s = CumulativeSampler::new(&weights);
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(4);
        let mut counts = [0u64; 3];
        let n = 50_000;
        for _ in 0..n {
            counts[s.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let expected0 = 0.2 * n as f64;
        assert!((counts[0] as f64 - expected0).abs() < 5.0 * expected0.sqrt());
    }

    #[test]
    fn first_and_last_reachable() {
        let s = CumulativeSampler::new(&[1.0, 1000.0, 1.0]);
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(12);
        let mut seen = [false; 3];
        for _ in 0..200_000 {
            seen[s.sample(&mut rng)] = true;
        }
        assert!(seen[0] && seen[1] && seen[2]);
    }

    #[test]
    #[should_panic(expected = "total weight must be positive")]
    fn zero_total_rejected() {
        let _ = CumulativeSampler::new(&[0.0]);
    }
}
