//! The mergeable-accumulator API: the contract behind every
//! multi-replica, multi-thread aggregation in the workspace.
//!
//! A [`Mergeable`] accumulator can absorb another accumulator of the
//! same shape, such that pushing observations into shards and merging
//! the shards **in a fixed order** yields the same result as one
//! sequential pass (bitwise for counters; up to the documented pairwise
//! floating-point scheme for moments). The replica sweep runner in
//! `bnb-experiments` relies on this: replica `r` always accumulates
//! under `derive_seed(master, experiment, r)` and the per-replica
//! accumulators merge in replica order, so results are independent of
//! how rayon schedules the replicas across threads.

use crate::histogram::Histogram;
use crate::summary::Summary;
use crate::vecacc::MeanAccumulator;

/// An accumulator that can absorb another of the same shape.
///
/// Implementations must be **associative across a fixed merge order**:
/// `(a ⊕ b) ⊕ c` equals `a ⊕ (b ⊕ c)` exactly for counting state and up
/// to floating-point rounding for moment state — and merging an empty
/// accumulator must be the identity. Merging accumulators of
/// incompatible shapes (e.g. histograms with different binning) may
/// panic.
pub trait Mergeable {
    /// Absorbs `other` into `self`.
    fn merge_from(&mut self, other: &Self);
}

impl Mergeable for Summary {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

impl Mergeable for MeanAccumulator {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

impl Mergeable for Histogram {
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

/// Pairs merge componentwise: the sharded cluster simulator carries a
/// shard's metrics report and telemetry snapshot through one
/// [`merge_ordered`] fold instead of two parallel ones.
impl<A: Mergeable, B: Mergeable> Mergeable for (A, B) {
    fn merge_from(&mut self, other: &Self) {
        self.0.merge_from(&other.0);
        self.1.merge_from(&other.1);
    }
}

/// Folds an iterator of accumulators into one, **in iteration order**
/// (the fixed order that keeps sharded runs deterministic). Returns
/// `None` on an empty iterator.
pub fn merge_ordered<T: Mergeable>(parts: impl IntoIterator<Item = T>) -> Option<T> {
    let mut iter = parts.into_iter();
    let mut total = iter.next()?;
    for part in iter {
        total.merge_from(&part);
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_merge_from_equals_sequential() {
        let values: Vec<f64> = (0..300).map(|i| ((i * 37) % 101) as f64).collect();
        let seq = Summary::from_slice(&values);
        let shards: Vec<Summary> = values.chunks(64).map(Summary::from_slice).collect();
        let merged = merge_ordered(shards).unwrap();
        assert_eq!(merged.count(), seq.count());
        assert!((merged.mean() - seq.mean()).abs() < 1e-10);
        assert!((merged.variance() - seq.variance()).abs() < 1e-8);
        assert_eq!(merged.min(), seq.min());
        assert_eq!(merged.max(), seq.max());
    }

    #[test]
    fn merge_ordered_is_order_sensitive_only_in_the_last_ulp() {
        // The API contract: a *fixed* order gives bitwise-stable output.
        let shards = || {
            (0..8).map(|s| {
                let mut acc = Summary::new();
                for i in 0..50 {
                    acc.push(((s * 50 + i) as f64).sqrt().sin());
                }
                acc
            })
        };
        let a = merge_ordered(shards()).unwrap();
        let b = merge_ordered(shards()).unwrap();
        assert_eq!(a.mean().to_bits(), b.mean().to_bits());
        assert_eq!(a.variance().to_bits(), b.variance().to_bits());
    }

    #[test]
    fn histogram_merge_from_adds_counts() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.record(1.0);
        b.record(1.5);
        b.record(9.5);
        a.merge_from(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.counts()[0], 2);
    }

    #[test]
    fn merge_ordered_empty_is_none() {
        assert!(merge_ordered(Vec::<Summary>::new()).is_none());
    }

    #[test]
    fn pairs_merge_componentwise() {
        let shards: Vec<(Summary, Histogram)> = (0..3)
            .map(|s| {
                let mut sum = Summary::new();
                sum.push(s as f64);
                let mut h = Histogram::new(0.0, 10.0, 5);
                h.record(s as f64);
                (sum, h)
            })
            .collect();
        let (sum, hist) = merge_ordered(shards).unwrap();
        assert_eq!(sum.count(), 3);
        assert_eq!(hist.total(), 3);
    }

    #[test]
    fn mean_accumulator_merge_from() {
        let mut a = MeanAccumulator::new(2);
        a.push_slice(&[1.0, 2.0]);
        let mut b = MeanAccumulator::new(2);
        b.push_slice(&[3.0, 4.0]);
        a.merge_from(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.means(), vec![2.0, 3.0]);
    }
}
