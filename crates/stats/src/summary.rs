//! Streaming summary statistics (Welford's online algorithm).

/// Streaming mean / variance / extrema accumulator.
///
/// Uses Welford's algorithm, which is numerically stable for the long
/// accumulation runs the experiment harness performs (10 000+ repetitions
/// per point). All operations are O(1) and allocation-free.
///
/// ```
/// use bnb_stats::Summary;
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { s.push(x); }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    /// The empty summary, [`Summary::new`].
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a slice in one pass.
    #[must_use]
    pub fn from_slice(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Merges another summary into this one (parallel reduction step).
    ///
    /// Uses the Chan et al. pairwise-merge update so that parallel
    /// aggregation gives the same variance as a sequential pass (up to
    /// floating-point rounding).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations pushed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 for an empty summary.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (n−1 denominator); 0 when fewer than two
    /// observations exist.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean, `sd / sqrt(n)`.
    #[must_use]
    pub fn std_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation; `+inf` when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Whether no observations have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_empty_summary() {
        let mut s = Summary::default();
        assert_eq!(s, Summary::new());
        s.push(2.0);
        s.push(3.0);
        assert_eq!((s.min(), s.max()), (2.0, 3.0));
    }

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_err(), 0.0);
        assert_eq!(s.min(), f64::INFINITY);
        assert_eq!(s.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn single_value() {
        let mut s = Summary::new();
        s.push(7.25);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 7.25);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 7.25);
        assert_eq!(s.max(), 7.25);
    }

    #[test]
    fn matches_two_pass_computation() {
        let values = [3.1, -2.0, 5.5, 0.0, 14.2, 7.7, -9.4];
        let s = Summary::from_slice(&values);
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), -9.4);
        assert_eq!(s.max(), 14.2);
    }

    #[test]
    fn merge_equals_sequential() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let seq = Summary::from_slice(&values);
        let mut a = Summary::from_slice(&values[..37]);
        let b = Summary::from_slice(&values[37..]);
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-10);
        assert!((a.variance() - seq.variance()).abs() < 1e-10);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::from_slice(&[1.0, 2.0]);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn numerical_stability_large_offset() {
        // Classic catastrophic-cancellation scenario for naive sum-of-squares.
        let offset = 1e9;
        let mut s = Summary::new();
        for v in [offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0] {
            s.push(v);
        }
        assert!((s.mean() - (offset + 10.0)).abs() < 1e-3);
        assert!((s.variance() - 30.0).abs() < 1e-3);
    }
}
