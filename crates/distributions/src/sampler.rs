//! The common interface of the weighted index samplers.

use crate::rng::Xoshiro256PlusPlus;

/// A sampler over indices `0..len()` with fixed (or updatable) weights.
///
/// Implemented by [`crate::AliasTable`] (O(1) static),
/// [`crate::FenwickSampler`] (O(log n) dynamic) and
/// [`crate::CumulativeSampler`] (O(log n) static baseline). The simulation
/// engine in `bnb-core` is generic over this trait — `Game<S>` defaults to
/// the alias table but accepts any implementation — so the
/// differential-oracle tests can swap implementations without touching
/// the game logic.
pub trait WeightedSampler {
    /// Draws one index with probability proportional to its weight.
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> usize;

    /// Fills `out` with independent draws.
    ///
    /// Must consume the RNG exactly as `out.len()` successive
    /// [`WeightedSampler::sample`] calls would (same draw order, same
    /// final RNG state) — the batched throw kernels in `bnb-core` rely on
    /// this to stay bitwise-equivalent to the one-ball loop.
    /// Implementations override the default to hoist per-draw overhead.
    fn sample_batch(&self, rng: &mut Xoshiro256PlusPlus, out: &mut [usize]) {
        for slot in out.iter_mut() {
            *slot = self.sample(rng);
        }
    }

    /// Builds the sampler from non-negative weights — the common
    /// constructor surface that lets `Game<S>` instantiate any sampler
    /// from a selection model's weight vector.
    ///
    /// # Panics
    /// Panics if the weights are invalid for the implementation (empty,
    /// negative, non-finite, or summing to zero).
    fn from_weights(weights: &[f64]) -> Self
    where
        Self: Sized;

    /// Number of categories.
    fn len(&self) -> usize;

    /// Whether the sampler has zero categories.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total weight (the normalising constant).
    fn total_weight(&self) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AliasTable, CumulativeSampler, FenwickSampler};

    fn exercise(sampler: &dyn WeightedSampler, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(seed);
        let mut counts = vec![0u64; sampler.len()];
        for _ in 0..60_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        counts
    }

    /// All three samplers agree (statistically) on the same weight vector.
    #[test]
    fn samplers_agree_on_distribution() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let total: f64 = weights.iter().sum();
        let alias = AliasTable::new(&weights);
        let fenwick = FenwickSampler::new(&weights);
        let cumulative = CumulativeSampler::new(&weights);
        for (name, sampler) in [
            ("alias", &alias as &dyn WeightedSampler),
            ("fenwick", &fenwick as &dyn WeightedSampler),
            ("cumulative", &cumulative as &dyn WeightedSampler),
        ] {
            let counts = exercise(sampler, 2024);
            let n: u64 = counts.iter().sum();
            for (i, &c) in counts.iter().enumerate() {
                let expected = weights[i] / total * n as f64;
                let tol = 4.0 * expected.sqrt() + 1.0; // ~4 sigma
                assert!(
                    (c as f64 - expected).abs() < tol,
                    "{name} category {i}: observed {c}, expected {expected}"
                );
            }
            assert!((sampler.total_weight() - total).abs() < 1e-9, "{name}");
        }
    }

    /// The default `sample_batch` must consume the RNG exactly like the
    /// equivalent sequence of `sample` calls, for every implementation.
    #[test]
    fn sample_batch_default_matches_sequential() {
        let weights = [0.5, 4.0, 1.0, 2.5];
        let fenwick = FenwickSampler::new(&weights);
        let cumulative = CumulativeSampler::new(&weights);
        for (name, sampler) in [
            ("fenwick", &fenwick as &dyn WeightedSampler),
            ("cumulative", &cumulative as &dyn WeightedSampler),
        ] {
            let mut rng_batch = Xoshiro256PlusPlus::from_u64_seed(77);
            let mut rng_seq = Xoshiro256PlusPlus::from_u64_seed(77);
            let mut batch = [0usize; 100];
            sampler.sample_batch(&mut rng_batch, &mut batch);
            for (i, &b) in batch.iter().enumerate() {
                assert_eq!(b, sampler.sample(&mut rng_seq), "{name} draw {i}");
            }
            assert_eq!(rng_batch.next(), rng_seq.next(), "{name} rng state");
        }
    }

    #[test]
    fn from_weights_constructs_all_implementations() {
        let weights = [1.0, 2.0, 3.0];
        assert_eq!(AliasTable::from_weights(&weights).len(), 3);
        assert_eq!(FenwickSampler::from_weights(&weights).len(), 3);
        assert_eq!(CumulativeSampler::from_weights(&weights).len(), 3);
    }
}
