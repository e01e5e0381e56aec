//! Exact quantiles of in-memory samples.
//!
//! [`quantile`] sorts a copy, and [`quantile_select`] quickselects one
//! level in place. [`SampleSummary`] serves a sample built value by
//! value, such as a simulator's latencies: it keeps the sum, the max
//! and a radix histogram as values arrive, so several levels cost one
//! streaming compaction pass and selects within the few buckets that
//! hold the wanted order statistics. All three return the same type-7
//! values bit for bit.

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `values` using linear
/// interpolation between order statistics (type-7 / R default definition).
///
/// The input does not need to be sorted; a sorted copy is made internally.
/// Returns `None` for an empty slice.
///
/// ```
/// use bnb_stats::quantile;
/// let v = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile(&v, 0.0), Some(1.0));
/// assert_eq!(quantile(&v, 1.0), Some(4.0));
/// assert_eq!(quantile(&v, 0.5), Some(2.5));
/// ```
///
/// # Panics
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    Some(quantile_sorted(&sorted, q))
}

/// Same as [`quantile`] but assumes `sorted` is already ascending;
/// O(1) and allocation-free. An integral rank returns its order
/// statistic itself, so `-0.0` and infinities come back unchanged
/// rather than through the interpolation arithmetic.
///
/// # Panics
/// Panics if `sorted` is empty or `q` outside `[0,1]`.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let h = q * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let frac = h - lo as f64;
    if frac == 0.0 {
        return sorted[lo];
    }
    sorted[lo] + (sorted[lo + 1] - sorted[lo]) * frac
}

/// Median shortcut: `quantile(values, 0.5)`.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The `q`-quantile of an **unsorted** sample in expected `O(n)` time
/// via quickselect, reordering `values` in place.
///
/// Returns exactly the value `quantile_sorted` would return on the
/// copy sorted by `total_cmp` (same type-7 order statistics, same
/// interpolation arithmetic), without paying the `O(n log n)` sort.
/// NaNs order by `total_cmp` (after every finite value), rather than
/// panicking as [`quantile`] does. For several levels of a sample
/// built value by value, see [`SampleSummary`].
///
/// Returns `None` for an empty slice.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]`.
#[must_use]
pub fn quantile_select(values: &mut [f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let n = values.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(values[0]);
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let frac = h - lo as f64;
    let (_, &mut x_lo, rest) = values.select_nth_unstable_by(lo, f64::total_cmp);
    if frac == 0.0 {
        return Some(x_lo);
    }
    // The `lo+1`-th order statistic is the minimum of the right
    // partition (everything there is ≥ x_lo under `total_cmp` — which,
    // unlike `f64::min`, also keeps a NaN neighbour rather than
    // silently skipping it).
    let x_hi = rest
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("frac > 0 implies lo < n-1, so the right partition is non-empty");
    Some(x_lo + (x_hi - x_lo) * frac)
}

/// Remaps an `f64`'s bits so unsigned integer order matches
/// `total_cmp` order (the classic radix-sort float map).
#[inline]
#[must_use]
pub fn monotone_bits(x: f64) -> u64 {
    let b = x.to_bits();
    let mask = (((b as i64) >> 63) as u64) | (1 << 63);
    b ^ mask
}

/// Radix buckets of a [`SampleSummary`]: one per value of a key's top
/// 16 bits (sign, exponent and the top 4 mantissa bits).
const BUCKETS: usize = 1 << 16;

/// The radix bucket of `x`; bucket order is `total_cmp` order.
#[inline]
fn bucket(x: f64) -> usize {
    (monotone_bits(x) >> 48) as usize
}

/// An owned sample that keeps its in-order sum, its max and a radix
/// histogram of its values as they arrive, then answers exact type-7
/// quantiles in one streaming pass.
///
/// [`SampleSummary::push`] adds the value to the sum, folds it into the
/// max with `f64::max`, and counts it in one of 65536 buckets keyed by
/// the top 16 bits of [`monotone_bits`]. [`SampleSummary::into_quantiles`]
/// then finds the buckets holding the order statistics each level
/// needs, moves their members to the front of the sample with one
/// branch-free compaction pass, and selects within that prefix. The
/// values are, bit for bit, those of [`quantile_sorted`] on the sample
/// sorted by `total_cmp`, without sorting or selecting over the whole
/// sample. The 256 KiB histogram is allocated by the first value.
///
/// `From<Vec<f64>>` builds the same summary from a finished sample,
/// accumulating in vector order.
///
/// ```
/// use bnb_stats::SampleSummary;
/// let mut s = SampleSummary::new();
/// for x in [4.0, 1.0, 3.0, 2.0] {
///     s.push(x);
/// }
/// assert_eq!(s.max(), Some(4.0));
/// assert_eq!(s.mean(), Some(2.5));
/// assert_eq!(s.into_quantiles([0.0, 0.5, 1.0]), Some([1.0, 2.5, 4.0]));
/// ```
#[derive(Debug)]
pub struct SampleSummary {
    values: Vec<f64>,
    sum: f64,
    max: f64,
    /// Values per bucket; empty until the first value arrives.
    counts: Vec<u32>,
}

impl Default for SampleSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl From<Vec<f64>> for SampleSummary {
    fn from(values: Vec<f64>) -> Self {
        let mut summary = Self::new();
        values.iter().for_each(|&x| summary.accumulate(x));
        summary.values = values;
        summary
    }
}

impl SampleSummary {
    /// An empty summary; allocates nothing.
    #[must_use]
    pub const fn new() -> Self {
        SampleSummary {
            values: Vec::new(),
            sum: 0.0,
            max: f64::NEG_INFINITY,
            counts: Vec::new(),
        }
    }

    /// Reserves room for `additional` more values.
    pub fn reserve(&mut self, additional: usize) {
        self.values.reserve(additional);
    }

    /// Adds `x` to the sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.accumulate(x);
        self.values.push(x);
    }

    #[inline]
    fn accumulate(&mut self, x: f64) {
        self.sum += x;
        self.max = self.max.max(x);
        match self.counts.get_mut(bucket(x)) {
            Some(count) => *count += 1,
            None => self.count_first(x),
        }
    }

    #[cold]
    #[inline(never)]
    fn count_first(&mut self, x: f64) {
        self.counts = vec![0; BUCKETS];
        self.counts[bucket(x)] = 1;
    }

    /// Number of values pushed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no value was pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The largest value by `f64::max` (which skips NaNs); `None` when
    /// empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// The mean: the values summed in arrival order, over their count;
    /// `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.sum / self.len() as f64)
    }

    /// The type-7 quantiles at levels `qs`, equal bit for bit to
    /// [`quantile_sorted`] on the sample sorted by `total_cmp` (NaNs
    /// order by `total_cmp` too). Consumes the summary: the compaction
    /// pass overwrites the sample. `None` when empty.
    ///
    /// # Panics
    /// Panics if `qs` is not ascending, a level is outside `[0, 1]`, or
    /// more than `u32::MAX` values were pushed.
    #[must_use]
    pub fn into_quantiles<const K: usize>(self, qs: [f64; K]) -> Option<[f64; K]> {
        assert!(
            qs.windows(2).all(|w| w[0] <= w[1]),
            "quantile levels must be ascending"
        );
        assert!(
            qs.iter().all(|q| (0.0..=1.0).contains(q)),
            "quantile level must be in [0,1]"
        );
        let SampleSummary {
            mut values,
            counts: mut cum,
            ..
        } = self;
        let n = values.len();
        if n == 0 {
            return None;
        }
        assert!(u32::try_from(n).is_ok(), "more than u32::MAX values");
        // Level k needs order statistic `lo`, and `lo + 1` when `frac > 0`.
        let ranks = qs.map(|q| {
            let h = q * (n - 1) as f64;
            let lo = h.floor() as usize;
            (lo, h - lo as f64)
        });
        // 1. Counts become inclusive prefix sums: `cum[b]` values lie in
        // buckets `..=b`. Mark the buckets holding a needed statistic.
        let mut acc = 0u32;
        for c in &mut cum {
            acc += *c;
            *c = acc;
        }
        let bucket_of = |r: usize| cum.partition_point(|&c| c as usize <= r);
        let below = |b: usize| if b == 0 { 0 } else { cum[b - 1] as usize };
        let mut wanted: Vec<usize> = ranks
            .iter()
            .flat_map(|&(lo, frac)| [Some(lo), (frac > 0.0).then_some(lo + 1)])
            .flatten()
            .map(bucket_of)
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        // The membership table is indexed by a value's raw top 16 bits,
        // which keeps the order map out of the pass: `monotone_bits`
        // flips the sign bit of a non-negative value and every bit of a
        // negative one, so bucket `w` holds the raw bits `w ^ flip`.
        let mut member = vec![0u8; BUCKETS];
        for &w in &wanted {
            let flip = if w >= BUCKETS / 2 {
                BUCKETS / 2
            } else {
                BUCKETS - 1
            };
            member[w ^ flip] = 1;
        }
        let member: &[u8; BUCKETS] = member.as_slice().try_into().expect("BUCKETS entries");
        // 2. Branch-free compaction: every value is written to the
        // cursor, which advances past members only. It never passes the
        // read position, so no unread value is overwritten.
        let mut kept = 0;
        for i in 0..n {
            let x = values[i];
            values[kept] = x;
            kept += usize::from(member[(x.to_bits() >> 48) as usize]);
        }
        // 3. Members keep bucket order in the sorted prefix, so rank `r`
        // sits past the members of the wanted buckets below its own.
        // The `lo + 1` statistic is in the prefix too, right after `lo`:
        // any bucket between theirs is empty.
        let prefix_rank = |r: usize| {
            let b = bucket_of(r);
            let before: usize = wanted
                .iter()
                .take_while(|&&w| w < b)
                .map(|&w| cum[w] as usize - below(w))
                .sum();
            before + r - below(b)
        };
        Some(select_ranks(
            &mut values[..kept],
            ranks.map(|(lo, frac)| (prefix_rank(lo), frac)),
        ))
    }
}

/// Interpolates each `(lo, frac)` of ascending `ranks` as type-7 does:
/// order statistic `lo` of `values`, moved towards `lo + 1` by `frac`,
/// bit for bit as [`quantile_sorted`] on the sorted sample.
///
/// Selects the ranks **highest first on shrinking prefixes**: once the
/// highest rank is partitioned into place, every lower one lives in
/// the left partition, so the next select scans only that prefix.
fn select_ranks<const K: usize>(values: &mut [f64], ranks: [(usize, f64); K]) -> [f64; K] {
    let mut out = [0.0; K];
    // `prefix` shrinks to just past the previous (higher) rank. The
    // cache `(lo, x_lo, x_hi, sel_prefix)` serves repeated ranks
    // without re-selecting (or re-scanning for the interpolation
    // neighbour); `sel_prefix` remembers how far the right partition
    // of that select extends.
    let mut prefix = values.len();
    let mut cache: Option<(usize, f64, Option<f64>, usize)> = None;
    for (k, &(lo, frac)) in ranks.iter().enumerate().rev() {
        let (x_lo, mut x_hi, sel_prefix) = match cache {
            Some((clo, cx_lo, cx_hi, csel)) if clo == lo => (cx_lo, cx_hi, csel),
            _ => {
                let (_, &mut x, _) = values[..prefix].select_nth_unstable_by(lo, f64::total_cmp);
                (x, None, prefix)
            }
        };
        out[k] = if frac == 0.0 {
            x_lo
        } else {
            // The `lo+1`-th order statistic is the minimum of the
            // select's right partition (`frac > 0` implies `lo + 1` is a
            // rank of the sample, and a fresh select only ever happens
            // with `lo + 1 < sel_prefix`; an equal rank hits the cache).
            let hi = x_hi.unwrap_or_else(|| {
                values[lo + 1..sel_prefix]
                    .iter()
                    .copied()
                    .min_by(f64::total_cmp)
                    .expect("right partition of a fractional-rank select is non-empty")
            });
            x_hi = Some(hi);
            x_lo + (hi - x_lo) * frac
        };
        cache = Some((lo, x_lo, x_hi, sel_prefix));
        prefix = lo + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_returns_none() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[42.0], 0.0), Some(42.0));
        assert_eq!(quantile(&[42.0], 0.37), Some(42.0));
        assert_eq!(quantile(&[42.0], 1.0), Some(42.0));
    }

    #[test]
    fn unsorted_input_is_handled() {
        let v = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(median(&v), Some(5.0));
        assert_eq!(quantile(&v, 0.25), Some(3.0));
        assert_eq!(quantile(&v, 0.75), Some(7.0));
    }

    #[test]
    fn interpolation_between_order_statistics() {
        let v = [0.0, 10.0];
        assert_eq!(quantile(&v, 0.3), Some(3.0));
    }

    #[test]
    fn median_of_even_count() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn out_of_range_level_panics() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn select_matches_sort_based_quantile_bitwise() {
        // Pseudo-random sample with ties; every quantile level must
        // agree bit for bit with the sort-then-interpolate reference.
        let mut x = 1u64;
        let values: Vec<f64> = (0..10_001)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 40) % 1000) as f64 / 7.0
            })
            .collect();
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let reference = quantile(&values, q).unwrap();
            let mut scratch = values.clone();
            let selected = quantile_select(&mut scratch, q).unwrap();
            assert_eq!(
                reference.to_bits(),
                selected.to_bits(),
                "q={q}: {reference} vs {selected}"
            );
        }
        assert_eq!(quantile_select(&mut [], 0.5), None);
        assert_eq!(quantile_select(&mut [7.0], 0.9), Some(7.0));
    }

    /// Deterministic pseudo-random stream for the bitwise tests.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 20
        }
    }

    /// Checks every level of [`LEVELS`] plus the p50/p90/p99 triple
    /// against the sort-based [`quantile`] on the `total_cmp`-sorted
    /// sample (a stable sort keeps that order for `±0.0`), bit for bit,
    /// and the max and mean against a plain in-order fold.
    fn assert_matches_sort(values: &[f64]) {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let reference = LEVELS.map(|q| quantile(&sorted, q).expect("non-empty"));
        let got = SampleSummary::from(values.to_vec())
            .into_quantiles(LEVELS)
            .expect("non-empty");
        for ((q, r), g) in LEVELS.iter().zip(reference).zip(got) {
            assert_eq!(
                r.to_bits(),
                g.to_bits(),
                "n={} q={q}: {r} vs {g}",
                values.len()
            );
        }
        let triple = SampleSummary::from(values.to_vec())
            .into_quantiles([0.5, 0.9, 0.99])
            .expect("non-empty");
        for (q, g) in [0.5, 0.9, 0.99].iter().zip(triple) {
            let r = quantile(&sorted, *q).expect("non-empty");
            assert_eq!(
                r.to_bits(),
                g.to_bits(),
                "n={} q={q}: {r} vs {g}",
                values.len()
            );
        }
        let summary = SampleSummary::from(values.to_vec());
        let max = values.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
        let sum = values.iter().fold(0.0, |s, &x| s + x);
        assert_eq!(summary.max().map(f64::to_bits), Some(max.to_bits()));
        assert_eq!(
            summary.mean().map(f64::to_bits),
            Some((sum / values.len() as f64).to_bits())
        );
    }

    /// Exact ranks, fractional ranks, repeated levels, levels sharing
    /// an order statistic, and the extremes.
    const LEVELS: [f64; 10] = [0.0, 0.01, 0.25, 0.5, 0.5, 0.500_05, 0.9, 0.99, 0.999, 1.0];

    #[test]
    fn summary_matches_sort_with_ties() {
        let mut next = lcg(1);
        let values: Vec<f64> = (0..10_001).map(|_| (next() % 1000) as f64 / 7.0).collect();
        assert_matches_sort(&values);
        assert_matches_sort(&[3.0; 17]);
    }

    #[test]
    fn summary_matches_sort_in_one_radix_bucket() {
        // [1, 1.0625) shares its top 16 key bits: one bucket holds all.
        let mut next = lcg(2);
        let values: Vec<f64> = (0..4_321)
            .map(|_| 1.0 + (next() % (1 << 20)) as f64 / (1u64 << 24) as f64)
            .collect();
        assert!(values.windows(2).all(|w| bucket(w[0]) == bucket(w[1])));
        assert_matches_sort(&values);
    }

    #[test]
    fn summary_matches_sort_on_tiny_samples() {
        assert_matches_sort(&[7.0]);
        assert_matches_sort(&[2.0, 1.0]);
        assert_matches_sort(&[1.0, 1e300]);
        assert_eq!(SampleSummary::new().into_quantiles([0.5]), None);
        assert_eq!(SampleSummary::new().max(), None);
        assert_eq!(SampleSummary::from(Vec::new()).mean(), None);
        assert_eq!(
            SampleSummary::from(vec![7.0]).into_quantiles([0.1, 0.9]),
            Some([7.0, 7.0])
        );
        assert_eq!(
            SampleSummary::from(vec![2.0, 1.0]).into_quantiles([]),
            Some([])
        );
    }

    #[test]
    fn summary_matches_sort_on_special_values() {
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 8.0,
            f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -2.5,
        ];
        assert_matches_sort(&specials);
        let mut next = lcg(3);
        let mixed: Vec<f64> = (0..2_000)
            .map(|_| specials[(next() % specials.len() as u64) as usize])
            .collect();
        assert_matches_sort(&mixed);
        assert_matches_sort(&[0.0, -0.0, 0.0, -0.0]);
    }

    #[test]
    fn summary_matches_sort_across_exponents() {
        let mut next = lcg(4);
        let values: Vec<f64> = (0..5_000)
            .map(|_| {
                let sign = if next() % 3 == 0 { -1.0 } else { 1.0 };
                let exp = (next() % 600) as i32 - 300;
                sign * (1.0 + (next() % 1000) as f64 / 1000.0) * 10f64.powi(exp)
            })
            .collect();
        assert_matches_sort(&values);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn summary_rejects_descending_levels() {
        let _ = SampleSummary::from(vec![1.0, 2.0]).into_quantiles([0.9, 0.5]);
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn summary_rejects_out_of_range_levels() {
        let _ = SampleSummary::new().into_quantiles([1.5]);
    }

    proptest! {
        /// Pushing value by value and converting the finished vector
        /// give bitwise the same max, mean and quantiles, and both
        /// match the sort.
        #[test]
        fn pushed_and_converted_summaries_agree(
            values in proptest::collection::vec(
                prop_oneof![
                    0.0f64..4.0,
                    // Any non-NaN bit pattern: every sign, exponent,
                    // subnormal and infinity.
                    any::<u64>().prop_map(|b| {
                        let x = f64::from_bits(b);
                        if x.is_nan() { 0.0 } else { x }
                    }),
                ],
                1..400,
            ),
        ) {
            let mut pushed = SampleSummary::new();
            values.iter().for_each(|&x| pushed.push(x));
            let converted = SampleSummary::from(values.clone());
            prop_assert_eq!(pushed.len(), converted.len());
            prop_assert_eq!(
                pushed.max().map(f64::to_bits),
                converted.max().map(f64::to_bits)
            );
            prop_assert_eq!(
                pushed.mean().map(f64::to_bits),
                converted.mean().map(f64::to_bits)
            );
            let a = pushed.into_quantiles(LEVELS).expect("non-empty");
            let b = converted.into_quantiles(LEVELS).expect("non-empty");
            prop_assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
            assert_matches_sort(&values);
        }
    }
}
