//! Exact quantiles of in-memory samples.
//!
//! [`quantile`] sorts a copy, and [`quantile_select`] quickselects one
//! level in place. [`SampleSummary`] serves a sample built value by
//! value, such as a simulator's latencies: it keeps the sum and the max
//! as values arrive and files each value under its radix bucket, so
//! several levels cost a counting radix select over the few buckets
//! that hold the wanted order statistics, never a pass over the whole
//! sample. All three return the same type-7 values bit for bit.

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

/// Inverse of [`monotone_bits`].
#[inline]
fn from_monotone_bits(key: u64) -> f64 {
    let mask = if key >> 63 == 1 { 1 << 63 } else { u64::MAX };
    f64::from_bits(key ^ mask)
}

/// Radix buckets of a [`SampleSummary`]: one per value of a key's top
/// 16 bits (sign, exponent and the top 4 mantissa bits).
const BUCKETS: usize = 1 << 16;

/// Values per chunk of a bucket's chain.
const CHUNK: usize = 64;

/// The link of a bucket's first chunk, and the tail of an empty bucket.
/// Chunk references are 1-based (`c + 1` names `chunks[c]`), so freshly
/// zeroed tails mean every bucket is empty.
const NO_CHUNK: u32 = 0;

/// Up to [`CHUNK`] values of one radix bucket. The bucket fixes a
/// key's top 16 bits, so a value is stored as the low 48 bits of its
/// [`monotone_bits`] key: three 16-bit digits, most significant first.
/// 6 bytes per value.
type Chunk = [[u16; 3]; CHUNK];

/// One bucket's chain of chunks, read from its last chunk back.
#[derive(Clone, Copy)]
struct Chain<'a> {
    chunks: &'a [Chunk],
    links: &'a [u32],
    bucket: u64,
    tail: u32,
    /// Values in the chain (non-zero).
    count: u32,
}

impl Chain<'_> {
    /// Calls `f` with the [`monotone_bits`] key of every value in the
    /// chain.
    fn for_each(self, mut f: impl FnMut(u64)) {
        // Only the last chunk is partial; the earlier ones are full.
        let mut fill = (self.count as usize - 1) % CHUNK + 1;
        let mut at = self.tail;
        while at != NO_CHUNK {
            let c = at as usize - 1;
            for &[d2, d1, d0] in &self.chunks[c][..fill] {
                f(self.bucket << 48 | u64::from(d2) << 32 | u64::from(d1) << 16 | u64::from(d0));
            }
            fill = CHUNK;
            at = self.links[c];
        }
    }
}

/// An owned sample that keeps its in-order sum and its max as values
/// arrive and files each value in its radix bucket, then answers exact
/// type-7 quantiles by reading only the buckets that hold them.
///
/// [`SampleSummary::push`] adds the value to the sum, raises the max
/// when the value is greater, and appends it to one of 65536 buckets
/// keyed by the top 16 bits of [`monotone_bits`]. A bucket is a chain
/// of 64-value chunks that keeps only the low 48 bits of each key, 6
/// bytes per value; every chain draws its chunks from one arena, and
/// only a chain's last chunk is partial. [`SampleSummary::into_quantiles`]
/// finds the buckets holding the order statistics each level needs
/// from the bucket counts, then runs a counting radix select (three
/// 16-bit digit passes) over each of those chains. The values are, bit
/// for bit, those of [`quantile_sorted`] on the sample sorted by
/// `total_cmp`. The first value allocates the 512 KiB of bucket counts
/// and chain tails; the select reuses the counts as its digit
/// histogram, so it allocates nothing in proportion to the sample.
///
/// `From<Vec<f64>>` builds the same summary from a finished sample,
/// pushing in vector order.
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
    len: usize,
    sum: f64,
    max: f64,
    /// Values per bucket; empty until the first value arrives.
    counts: Vec<u32>,
    /// Each bucket's last chunk (`NO_CHUNK` while the bucket is empty);
    /// allocated with `counts`.
    tails: Vec<u32>,
    /// The arena every chain draws its chunks from.
    chunks: Vec<Chunk>,
    /// `links[c]`: the chunk before `chunks[c]` in its chain.
    links: Vec<u32>,
}

impl Default for SampleSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl From<Vec<f64>> for SampleSummary {
    fn from(values: Vec<f64>) -> Self {
        let mut summary = Self::new();
        summary.reserve(values.len());
        values.iter().for_each(|&x| summary.push(x));
        summary
    }
}

impl SampleSummary {
    /// An empty summary; allocates nothing.
    #[must_use]
    pub const fn new() -> Self {
        SampleSummary {
            len: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
            counts: Vec::new(),
            tails: Vec::new(),
            chunks: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Reserves chunks for `additional` more values, so pushing them
    /// never moves the arena. They open at most `additional / 64`
    /// chunks they fill plus one partial chunk in each bucket they
    /// reach, and they reach at most `min(additional, 65536)` buckets.
    /// Capacity no value reaches is never written, so its pages are
    /// never touched.
    pub fn reserve(&mut self, additional: usize) {
        let chunks = additional.div_ceil(CHUNK) + additional.min(BUCKETS);
        self.chunks.reserve(chunks);
        self.links.reserve(chunks);
    }

    /// Adds `x` to the sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.sum += x;
        // Not `f64::max`, which may return either zero of
        // `max(0.0, -0.0)`: the first of equal maxima stays, and a NaN
        // never passes the test.
        if x > self.max {
            self.max = x;
        }
        self.len += 1;
        if self.counts.is_empty() {
            self.allocate_buckets();
        }
        let key = monotone_bits(x);
        let b = (key >> 48) as usize;
        let at = self.counts[b] as usize % CHUNK;
        self.counts[b] += 1;
        if at == 0 {
            self.links.push(self.tails[b]);
            self.chunks.push([[0; 3]; CHUNK]);
            self.tails[b] = self.chunks.len() as u32;
        }
        self.chunks[self.tails[b] as usize - 1][at] =
            [(key >> 32) as u16, (key >> 16) as u16, key as u16];
    }

    /// Allocates the counts and tails zeroed, so a page of either is
    /// first touched by a bucket on it.
    #[cold]
    #[inline(never)]
    fn allocate_buckets(&mut self) {
        self.counts = vec![0; BUCKETS];
        self.tails = vec![NO_CHUNK; BUCKETS];
    }

    /// Number of values pushed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no value was pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The largest value, skipping NaNs: the first to arrive of equal
    /// maxima (so `-0.0` when it came before `0.0`), and `-inf` when
    /// every value is a NaN. `None` when empty.
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

    /// Radix buckets holding at least one value.
    #[must_use]
    pub fn buckets_used(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Chunks the buckets' chains hold: one per 64 values of a bucket,
    /// rounded up.
    #[must_use]
    pub fn chunks_allocated(&self) -> usize {
        self.chunks.len()
    }

    /// The type-7 quantiles at levels `qs`, equal bit for bit to
    /// [`quantile_sorted`] on the sample sorted by `total_cmp` (NaNs
    /// order by `total_cmp` too). Consumes the summary: the select
    /// reuses its bucket counts as scratch. `None` when empty.
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
        let n = self.len;
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
        let mut wanted: Vec<usize> = ranks
            .iter()
            .flat_map(|&(lo, frac)| [Some(lo), (frac > 0.0).then_some(lo + 1)])
            .flatten()
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        let keys = self.select_keys(&wanted);
        let stat = |r: usize| from_monotone_bits(keys[wanted.binary_search(&r).expect("wanted")]);
        Some(ranks.map(|(lo, frac)| {
            let x_lo = stat(lo);
            if frac == 0.0 {
                x_lo
            } else {
                x_lo + (stat(lo + 1) - x_lo) * frac
            }
        }))
    }

    /// The [`monotone_bits`] keys of order statistics `ranks`
    /// (ascending, distinct, below `len`), reading only the chains of
    /// the buckets that hold them.
    fn select_keys(self, ranks: &[usize]) -> Vec<u64> {
        let SampleSummary {
            counts,
            tails,
            chunks,
            links,
            ..
        } = self;
        // Each rank's bucket, that bucket's size and the rank's place in
        // it, from one walk up the counts.
        let mut located = Vec::with_capacity(ranks.len());
        let (mut b, mut below) = (0, 0);
        for &r in ranks {
            while below + counts[b] as usize <= r {
                below += counts[b] as usize;
                b += 1;
            }
            located.push((b, counts[b], r - below));
        }
        // The counts become the digit histogram, which must start (and
        // is left) all zero. Writing only the buckets in use leaves the
        // never-touched pages untouched.
        let mut hist = counts;
        hist.iter_mut().filter(|c| **c != 0).for_each(|c| *c = 0);
        let mut keys = Vec::with_capacity(ranks.len());
        for group in located.chunk_by(|x, y| x.0 == y.0) {
            let (b, count, _) = group[0];
            let chain = Chain {
                chunks: &chunks,
                links: &links,
                bucket: b as u64,
                tail: tails[b],
                count,
            };
            let within: Vec<usize> = group.iter().map(|&(_, _, r)| r).collect();
            select_digits(chain, 32, b as u64, &within, &mut hist, &mut keys);
        }
        keys
    }
}

/// Counting radix select on one chain: appends to `out` the keys at
/// ascending `ranks` among the chain's values whose key bits above
/// `shift + 16` equal `prefix` (there are more of them than the highest
/// rank). One pass counts the 16-bit digit at `shift` into `hist`; each
/// rank then descends into its digit, down to the last digit
/// (`shift == 0`), where the digits spell the key. Ranks sharing a
/// digit share the pass below it. `hist` is all zero on entry and on
/// return; only the digits between the members' least and greatest are
/// read or cleared.
fn select_digits(
    chain: Chain<'_>,
    shift: u32,
    prefix: u64,
    ranks: &[usize],
    hist: &mut [u32],
    out: &mut Vec<u64>,
) {
    let (mut least, mut greatest) = (usize::MAX, 0);
    chain.for_each(|key| {
        if key >> shift >> 16 == prefix {
            let d = (key >> shift) as usize & 0xFFFF;
            hist[d] += 1;
            least = least.min(d);
            greatest = greatest.max(d);
        }
    });
    let counted = &mut hist[least..=greatest];
    let mut digits = Vec::with_capacity(ranks.len());
    let (mut d, mut below) = (0, 0);
    for &r in ranks {
        while below + counted[d] as usize <= r {
            below += counted[d] as usize;
            d += 1;
        }
        digits.push(((least + d) as u64, r - below));
    }
    counted.fill(0);
    for group in digits.chunk_by(|x, y| x.0 == y.0) {
        let key = prefix << 16 | group[0].0;
        if shift == 0 {
            out.extend(group.iter().map(|_| key));
        } else {
            let within: Vec<usize> = group.iter().map(|&(_, r)| r).collect();
            select_digits(chain, shift - 16, key, &within, hist, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The radix bucket of `x`; bucket order is `total_cmp` order.
    fn bucket(x: f64) -> usize {
        (monotone_bits(x) >> 48) as usize
    }

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

    /// The bits of `x`, with every NaN mapped to one: arithmetic on a
    /// NaN (a sum, an interpolation) leaves its sign and payload
    /// unspecified. A NaN order statistic itself keeps its bits
    /// (`monotone_bits_round_trip`).
    fn bits(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    /// Checks every level of [`LEVELS`] plus the p50/p90/p99 triple
    /// against [`quantile_sorted`] on the `total_cmp`-sorted sample, bit
    /// for bit, and the max and mean against a plain in-order fold.
    fn assert_matches_sort(values: &[f64]) {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let reference = LEVELS.map(|q| quantile_sorted(&sorted, q));
        let got = SampleSummary::from(values.to_vec())
            .into_quantiles(LEVELS)
            .expect("non-empty");
        for ((q, r), g) in LEVELS.iter().zip(reference).zip(got) {
            assert_eq!(bits(r), bits(g), "n={} q={q}: {r} vs {g}", values.len());
        }
        let triple = SampleSummary::from(values.to_vec())
            .into_quantiles([0.5, 0.9, 0.99])
            .expect("non-empty");
        for (q, g) in [0.5, 0.9, 0.99].iter().zip(triple) {
            let r = quantile_sorted(&sorted, *q);
            assert_eq!(bits(r), bits(g), "n={} q={q}: {r} vs {g}", values.len());
        }
        let summary = SampleSummary::from(values.to_vec());
        let max = values
            .iter()
            .fold(f64::NEG_INFINITY, |m, &x| if x > m { x } else { m });
        let sum = values.iter().fold(0.0, |s, &x| s + x);
        assert_eq!(summary.max().map(f64::to_bits), Some(max.to_bits()));
        assert_eq!(
            summary.mean().map(bits),
            Some(bits(sum / values.len() as f64))
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

    /// Signed zeros, subnormals, infinities, NaNs of both signs and the
    /// finite extremes.
    const SPECIALS: [f64; 14] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE / 8.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::MAX,
        f64::MIN,
        1.5,
        -2.5,
    ];

    #[test]
    fn monotone_bits_round_trip() {
        for x in SPECIALS.into_iter().chain([1e-300, -7.25, 3.0]) {
            let key = monotone_bits(x);
            assert_eq!(from_monotone_bits(key).to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn summary_matches_sort_on_special_values() {
        assert_matches_sort(&SPECIALS);
        let mut next = lcg(3);
        let mixed: Vec<f64> = (0..2_000)
            .map(|_| SPECIALS[(next() % SPECIALS.len() as u64) as usize])
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
    fn summary_matches_sort_at_scale() {
        // Exponential latencies, as a simulator reports them, so the
        // buckets near the median hold 1e4-1e5 values at full size. CI
        // runs this crate's tests under `--release` at full size.
        let n = if cfg!(debug_assertions) {
            60_000
        } else {
            4_000_000
        };
        let mut next = lcg(5);
        let values: Vec<f64> = (0..n)
            .map(|_| -((next() + 1) as f64 / (1u64 << 44) as f64).ln() * 0.6)
            .collect();
        assert_matches_sort(&values);
    }

    /// A uniform draw of the low 48 key bits.
    fn low48(next: &mut impl FnMut() -> u64) -> u64 {
        ((next() << 24) ^ next()) & ((1 << 48) - 1)
    }

    #[test]
    fn store_keeps_six_bytes_per_value_plus_one_partial_chunk_per_bucket() {
        let chunk_bytes = std::mem::size_of::<Chunk>();
        assert_eq!(chunk_bytes, 6 * CHUNK);
        let mut next = lcg(6);
        let mut s = SampleSummary::new();
        for _ in 0..100_000 {
            s.push(-((next() + 1) as f64 / (1u64 << 44) as f64).ln());
        }
        // Buckets filled exactly to a chunk boundary, one past it and
        // one short of it.
        for (top, count) in [
            (0x9000u64, CHUNK),
            (0x9001, CHUNK + 1),
            (0x9002, 2 * CHUNK - 1),
        ] {
            for _ in 0..count {
                s.push(from_monotone_bits(top << 48 | low48(&mut next)));
            }
        }
        let used = s.buckets_used();
        assert!(used > 3);
        let full_or_partial: usize = s.counts.iter().map(|&c| (c as usize).div_ceil(CHUNK)).sum();
        assert_eq!(s.chunks_allocated(), full_or_partial);
        assert_eq!(s.links.len(), s.chunks.len());
        assert!(s.chunks.len() * chunk_bytes <= 6 * s.len() + used * chunk_bytes);
        assert!(s.chunks.len() * chunk_bytes > 6 * s.len());
    }

    #[test]
    fn reserved_arena_holds_values_spread_over_every_bucket() {
        // Each value opening its own bucket is the most chunks `n`
        // values can take: one partial chunk each, up to every bucket.
        let mut next = lcg(8);
        for (n, per_bucket) in [(2_000, 1), (2 * BUCKETS, 2)] {
            let mut s = SampleSummary::new();
            s.reserve(n);
            let capacity = (s.chunks.capacity(), s.links.capacity());
            for i in 0..n {
                let top = (i / per_bucket * 7919 % BUCKETS) as u64;
                s.push(from_monotone_bits(top << 48 | low48(&mut next)));
            }
            assert_eq!(s.chunks_allocated(), n / per_bucket);
            assert_eq!((s.chunks.capacity(), s.links.capacity()), capacity);
        }
    }

    #[test]
    fn select_reads_only_the_wanted_buckets() {
        // 100 values in [1, 1.0625), 101 in [2, 2.125), 100 in
        // [4, 4.25): the median (rank 150, an integral rank) lies in the
        // middle bucket alone.
        let mut next = lcg(7);
        let values: Vec<f64> = [(1.0, 100), (2.0, 101), (4.0, 100)]
            .into_iter()
            .flat_map(|(base, count)| (0..count).map(move |i| base * (1.0 + f64::from(i) / 4096.0)))
            .map(|x| x * (1.0 + (next() % 8) as f64 * f64::EPSILON))
            .collect();
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let mut s = SampleSummary::from(values);
        let wanted = bucket(sorted[150]);
        assert_eq!(s.buckets_used(), 3);
        // Point every other bucket's chain past the arena: reading one
        // would panic on the index.
        for b in 0..BUCKETS {
            if b != wanted && s.counts[b] > 0 {
                s.tails[b] = u32::MAX;
            }
        }
        let [median] = s.into_quantiles([0.5]).expect("non-empty");
        assert_eq!(median.to_bits(), sorted[150].to_bits());
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
        /// Buckets filled to just below, at and just past a chunk
        /// boundary (and to random sizes), with keys spread over all 48
        /// stored bits or tied in a narrow range, pushed interleaved
        /// with special values, match the sort bit for bit.
        #[test]
        fn summary_matches_sort_across_chunk_boundaries(
            buckets in proptest::collection::vec(
                (
                    any::<u16>(),
                    prop_oneof![
                        Just(CHUNK - 1),
                        Just(CHUNK),
                        Just(CHUNK + 1),
                        Just(2 * CHUNK),
                        1usize..3 * CHUNK,
                    ],
                    any::<bool>(),
                ),
                1..6,
            ),
            specials in proptest::collection::vec(0..SPECIALS.len(), 0..12),
            seed in any::<u64>(),
        ) {
            let mut next = lcg(seed);
            let mut values = Vec::new();
            for &(top, count, tied) in &buckets {
                for _ in 0..count {
                    let low = if tied { next() % 16 } else { low48(&mut next) };
                    values.push(from_monotone_bits(u64::from(top) << 48 | low));
                }
            }
            values.extend(specials.iter().map(|&i| SPECIALS[i]));
            // Interleave the buckets (Fisher-Yates).
            for i in (1..values.len()).rev() {
                values.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            assert_matches_sort(&values);
        }

        /// One radix bucket, `1.0 + k·ε` for `k < 2^48`: the keys differ
        /// only below the top 16 bits, so every order statistic comes
        /// out of all three digit passes, with ties and neighbours
        /// either side of each digit boundary.
        #[test]
        fn summary_matches_sort_within_one_bucket(
            ks in proptest::collection::vec(
                prop_oneof![
                    0u64..1 << 48,
                    0u64..40,
                    (1u64 << 16) - 20..(1u64 << 16) + 20,
                    (1u64 << 32) - 20..(1u64 << 32) + 20,
                ],
                1..300,
            ),
        ) {
            let values: Vec<f64> = ks.iter().map(|&k| 1.0 + k as f64 * f64::EPSILON).collect();
            prop_assert!(values.iter().all(|&x| bucket(x) == bucket(1.0)));
            assert_matches_sort(&values);
        }

        /// Pushing value by value and converting the finished vector
        /// give bitwise the same max, mean and quantiles, and both
        /// match the sort.
        #[test]
        fn pushed_and_converted_summaries_agree(
            values in proptest::collection::vec(
                prop_oneof![
                    0.0f64..4.0,
                    // Any bit pattern: every sign, exponent, subnormal,
                    // infinity and NaN payload.
                    any::<u64>().prop_map(f64::from_bits),
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
            prop_assert_eq!(pushed.mean().map(bits), converted.mean().map(bits));
            let a = pushed.into_quantiles(LEVELS).expect("non-empty");
            let b = converted.into_quantiles(LEVELS).expect("non-empty");
            prop_assert_eq!(a.map(bits), b.map(bits));
            assert_matches_sort(&values);
        }
    }
}
