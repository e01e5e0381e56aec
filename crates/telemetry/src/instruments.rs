//! Counting instruments: the fixed-bucket [`Log2Histogram`] every
//! latency/occupancy distribution in the workspace records into.

use bnb_stats::Mergeable;

/// Number of buckets in a [`Log2Histogram`]: one per power of two of
/// the `u64` value range, so recording never clips.
pub const N_BUCKETS: usize = 64;

/// A fixed-bucket base-2 logarithmic histogram (HDR-style, resolution
/// one octave). Bucket `i` counts values in
/// [`Log2Histogram::bucket_bounds`]`(i)`; bucket 0 covers `0..=1`.
///
/// Plain `u64` state and `&mut` recording: the single-threaded hot
/// structures (calendar queue, simulation loop) pay one shift + one
/// increment per sample and no atomics. Sharded sweeps merge per-shard
/// histograms through [`Mergeable`] in replica order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; N_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram. No heap allocation — the bucket array is
    /// inline.
    #[must_use]
    pub const fn new() -> Self {
        Log2Histogram {
            buckets: [0; N_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// The bucket index `value` falls into: `floor(log2(value))`,
    /// with 0 and 1 sharing bucket 0.
    #[inline]
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// The inclusive `(low, high)` value range of bucket `i`.
    ///
    /// # Panics
    /// If `i >= N_BUCKETS`.
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < N_BUCKETS, "bucket index out of range");
        match i {
            0 => (0, 1),
            63 => (1 << 63, u64::MAX),
            _ => (1 << i, (1 << (i + 1)) - 1),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Records `n` observations of the same value (bulk harvest).
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        self.buckets[Self::bucket_index(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
    }

    /// Total observations recorded.
    #[inline]
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    #[inline]
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The raw per-bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; N_BUCKETS] {
        &self.buckets
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// A quantile estimate: the **upper bound** of the bucket holding
    /// the nearest-rank `q`-th observation (`q` clamped to `[0, 1]`).
    /// Exact to within one bucket width — an estimate and the true
    /// sample quantile always land in the same or adjacent buckets.
    /// Returns 0 on an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 0-based nearest rank, matching type-7's endpoints exactly at
        // q = 0 and q = 1.
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum > rank {
                return Self::bucket_bounds(i).1;
            }
        }
        Self::bucket_bounds(N_BUCKETS - 1).1
    }

    /// Mean of recorded values (0 on empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum as f64 / self.count as f64
            }
        }
    }

    /// The highest non-empty bucket index, or `None` when empty.
    #[must_use]
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&b| b > 0)
    }
}

impl Mergeable for Log2Histogram {
    fn merge_from(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_octaves() {
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 0);
        assert_eq!(Log2Histogram::bucket_index(2), 1);
        assert_eq!(Log2Histogram::bucket_index(3), 1);
        assert_eq!(Log2Histogram::bucket_index(4), 2);
        assert_eq!(Log2Histogram::bucket_index(1023), 9);
        assert_eq!(Log2Histogram::bucket_index(1024), 10);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bounds_partition_the_range() {
        for i in 0..N_BUCKETS - 1 {
            let (_, hi) = Log2Histogram::bucket_bounds(i);
            let (lo_next, _) = Log2Histogram::bucket_bounds(i + 1);
            assert_eq!(hi + 1, lo_next, "bucket {i} abuts bucket {}", i + 1);
        }
        assert_eq!(Log2Histogram::bucket_bounds(0).0, 0);
        assert_eq!(Log2Histogram::bucket_bounds(63).1, u64::MAX);
    }

    #[test]
    fn record_and_quantile() {
        let mut h = Log2Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        // The median of 1..=100 is ~50, bucket 5 (32..=63).
        assert_eq!(Log2Histogram::bucket_index(h.quantile(0.5)), 5);
        // q = 1.0 lands in the bucket of the max (100 -> bucket 6).
        assert_eq!(Log2Histogram::bucket_index(h.quantile(1.0)), 6);
        assert_eq!(h.max_bucket(), Some(6));
    }

    #[test]
    fn empty_quantile_is_zero() {
        let h = Log2Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert!(h.is_empty());
        assert_eq!(h.max_bucket(), None);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.record(3);
        b.record(3);
        b.record(300);
        a.merge_from(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets()[1], 2);
        assert_eq!(a.sum(), 306);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.record_n(17, 5);
        for _ in 0..5 {
            b.record(17);
        }
        assert_eq!(a, b);
    }
}
