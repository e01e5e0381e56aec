//! Exact quantiles of in-memory samples.
//!
//! [`quantile`] sorts a copy, and [`quantile_select`] quickselects one
//! level in place. [`SampleSummary`] serves a sample built value by
//! value, such as a simulator's latencies: it keeps the sum and the max
//! as values arrive and files each value under its radix bucket in 6
//! bytes, or 5 when the low byte of its key is zero, so several levels
//! cost a counting radix select over the few buckets that hold the
//! wanted order statistics, never a pass over the whole sample. All
//! three return the same type-7 values bit for bit.

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

/// Inverse of [`monotone_bits`]: the round trip is exact for every
/// `f64`, NaN payloads and signed zeros included.
#[inline]
#[must_use]
pub fn from_monotone_bits(key: u64) -> f64 {
    let mask = if key >> 63 == 1 { 1 << 63 } else { u64::MAX };
    f64::from_bits(key ^ mask)
}

/// Radix buckets of a [`SampleSummary`]: one per value of a key's top
/// 16 bits (sign, exponent and the top 4 mantissa bits).
const BUCKETS: usize = 1 << 16;

/// Bytes per chunk of a bucket's chain.
const CHUNK_BYTES: usize = 384;

/// Values a wide chunk holds: the low 48 bits of each key, 6 bytes a
/// value.
const WIDE: usize = 64;

/// Values a narrow chunk holds: key bits 8..48, 5 bytes a value, for
/// keys whose low byte is zero.
const NARROW: usize = 76;

/// The byte of a narrow chunk, past its values, that keeps the room it
/// had left when it closed early (zero when it closed full).
const ROOM_AT: usize = CHUNK_BYTES - 1;

// Wide values fill a chunk; narrow values, as many as fit, end before
// its room byte.
const _: () =
    assert!(6 * WIDE == CHUNK_BYTES && 5 * NARROW <= ROOM_AT && 5 * (NARROW + 1) > ROOM_AT);

/// The link of a bucket's first chunk, and the last chunk of an empty
/// bucket. Chunk references are 1-based (`c + 1` names `chunks[c]`), so
/// freshly zeroed tail words mean every bucket is empty.
const NO_CHUNK: u32 = 0;

/// Set in a chunk reference when the chunk it names is narrow.
const NARROW_REF: u32 = 1 << 31;

/// The arena index of the chunk `reference` names.
#[inline]
fn chunk_index(reference: u32) -> usize {
    (reference & !NARROW_REF) as usize - 1
}

/// The values a bucket's last chunk still has room for, from the
/// bucket's tail word and count (see `SampleSummary::tails`).
#[inline]
fn room_left(tail: u64, count: u32) -> usize {
    ((tail >> 32) as u32).wrapping_sub(count) as usize
}

/// Up to [`WIDE`] or [`NARROW`] values of one radix bucket. The bucket
/// fixes a key's top 16 bits, so a wide chunk stores the low 48 bits
/// of each value's [`monotone_bits`] key in 6 little-endian bytes, and
/// a narrow one bits 8..48 in 5 bytes. Either way 384 bytes.
type Chunk = [u8; CHUNK_BYTES];

/// One bucket's chain of chunks, read from its last chunk back.
#[derive(Clone, Copy)]
struct Chain<'a> {
    chunks: &'a [Chunk],
    links: &'a [u32],
    bucket: u64,
    /// The bucket's tail word.
    tail: u64,
    /// Values in the chain.
    count: u32,
}

impl Chain<'_> {
    /// Calls `f` with the [`monotone_bits`] key of every value in the
    /// chain.
    fn for_each(self, mut f: impl FnMut(u64)) {
        let top = self.bucket << 48;
        let mut reference = self.tail as u32;
        // Room in the last chunk. An earlier wide chunk is full, and an
        // earlier narrow one keeps its room at `ROOM_AT`.
        let mut last_room = Some(room_left(self.tail, self.count));
        while reference != NO_CHUNK {
            let c = chunk_index(reference);
            let chunk = &self.chunks[c];
            if reference & NARROW_REF != 0 {
                let room = last_room.take().unwrap_or(usize::from(chunk[ROOM_AT]));
                for value in chunk[..5 * (NARROW - room)].chunks_exact(5) {
                    let mut bytes = [0; 8];
                    bytes[1..6].copy_from_slice(value);
                    f(top | u64::from_le_bytes(bytes));
                }
            } else {
                let room = last_room.take().unwrap_or(0);
                for value in chunk[..6 * (WIDE - room)].chunks_exact(6) {
                    let mut bytes = [0; 8];
                    bytes[..6].copy_from_slice(value);
                    f(top | u64::from_le_bytes(bytes));
                }
            }
            reference = self.links[c];
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
/// of 384-byte chunks drawn from one arena. A wide chunk keeps the low
/// 48 bits of 64 keys, 6 bytes a value. A narrow chunk keeps 76 keys
/// whose low byte is zero without that byte, 5 bytes a value: a
/// simulator clock that has run to 2^k leaves the low k − e mantissa
/// bits of a latency in binade e zero. A bucket's first chunk is wide.
/// It opens a narrow chunk when every key of its previous chunk and
/// the opening key have a zero low byte; a key with a non-zero low
/// byte closes a narrow chunk early, and the bucket goes on in a wide
/// one. `push` checks every key, so nothing is assumed and nothing is
/// rounded. Only a chain's last chunk and early-closed chunks are
/// partial. [`SampleSummary::into_quantiles`] finds the buckets
/// holding the order statistics each level needs from the bucket
/// counts, then runs a counting radix select (three 16-bit digit
/// passes) over each of those chains. The values are, bit for bit,
/// those of [`quantile_sorted`] on the sample sorted by `total_cmp`.
/// The first value allocates the 768 KiB of bucket counts and tail
/// words; the select reuses the counts as its digit histogram, so it
/// allocates nothing in proportion to the sample.
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
    /// Each bucket's tail word: the reference to its last chunk in the
    /// low 32 bits and, in the high 32, the bucket count at which that
    /// chunk is full. The tail word changes only when a chunk opens. An
    /// empty bucket's zero word names no chunk and is full at count 0,
    /// so its first value opens one. Allocated with `counts`.
    tails: Vec<u64>,
    /// The arena every chain draws its chunks from.
    chunks: Vec<Chunk>,
    /// `links[c]`: the reference to the chunk before `chunks[c]` in its
    /// chain.
    links: Vec<u32>,
    /// Narrow chunks closed before they were full.
    early_closes: usize,
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
            early_closes: 0,
        }
    }

    /// Reserves chunks for `additional` more values, so pushing them
    /// never moves the arena. Full chunks hold at least 64 values each.
    /// A narrow chunk opens only after a full chunk, so a chunk closes
    /// early at most once per full chunk before it; and each bucket the
    /// values reach, at most `min(additional, 65536)` of them, adds one
    /// partial last chunk. Capacity no value reaches is never written,
    /// so its pages are never touched.
    pub fn reserve(&mut self, additional: usize) {
        let chunks = 2 * additional.div_ceil(WIDE) + additional.min(BUCKETS);
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
        let count = self.counts[b];
        self.counts[b] += 1;
        let clean = key & 0xFF == 0;
        // The tail word is written only when a chunk opens, so values
        // filed in one bucket one after another do not wait on a store.
        let mut tail = self.tails[b];
        let mut room = room_left(tail, count);
        if room == 0 || (tail as u32 & NARROW_REF != 0 && !clean) {
            tail = self.open_chunk(tail, room, count, clean);
            self.tails[b] = tail;
            room = room_left(tail, count);
        }
        let chunk = &mut self.chunks[chunk_index(tail as u32)];
        let bytes = key.to_le_bytes();
        if tail as u32 & NARROW_REF != 0 {
            let at = 5 * (NARROW - room);
            chunk[at..at + 5].copy_from_slice(&bytes[1..6]);
        } else {
            let at = 6 * (WIDE - room);
            chunk[at..at + 6].copy_from_slice(&bytes[..6]);
        }
    }

    /// Opens the next chunk of a bucket holding `count` values, given
    /// its tail word and the `room` left in its last chunk, for a key
    /// whose low byte is zero when `clean`; returns the new tail word.
    /// The last chunk is full, or narrow while the key is not clean.
    /// Out of line, so the loop a caller inlines `push` into stays
    /// small: unless a chunk closes early, one push in 64 to 76 opens a
    /// chunk.
    #[cold]
    #[inline(never)]
    fn open_chunk(&mut self, tail: u64, room: usize, count: u32, clean: bool) -> u64 {
        let last = tail as u32;
        // Whether every key of the last chunk has a zero low byte.
        let last_clean = if last == NO_CHUNK {
            false
        } else if last & NARROW_REF != 0 {
            if room > 0 {
                self.chunks[chunk_index(last)][ROOM_AT] = room as u8;
                self.early_closes += 1;
            }
            true
        } else {
            // A wide chunk closes full; each value's low byte comes
            // first.
            let chunk = &self.chunks[chunk_index(last)];
            chunk.iter().step_by(6).all(|&low| low == 0)
        };
        let narrow = last_clean && clean;
        assert!(
            self.chunks.len() < NARROW_REF as usize,
            "latency store holds 2^31 chunks"
        );
        self.links.push(last);
        self.chunks.push([0; CHUNK_BYTES]);
        let (capacity, flag) = if narrow {
            (NARROW, NARROW_REF)
        } else {
            (WIDE, 0)
        };
        let full_at = count.wrapping_add(capacity as u32);
        u64::from(full_at) << 32 | u64::from(self.chunks.len() as u32 | flag)
    }

    /// Allocates the counts and tails zeroed, so a page of either is
    /// first touched by a bucket on it.
    #[cold]
    #[inline(never)]
    fn allocate_buckets(&mut self) {
        self.counts = vec![0; BUCKETS];
        self.tails = vec![0; BUCKETS];
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

    /// Chunks the buckets' chains hold, wide and narrow.
    #[must_use]
    pub fn chunks_allocated(&self) -> usize {
        self.chunks.len()
    }

    /// Bytes the chains hold: 384 per chunk plus its 4-byte link.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.chunks.len() * (CHUNK_BYTES + std::mem::size_of::<u32>())
    }

    /// Narrow chunks closed before they were full, each by a key whose
    /// low byte is non-zero.
    #[must_use]
    pub fn early_closes(&self) -> usize {
        self.early_closes
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

    /// A key of bucket `top` whose low byte is zero when `clean` and
    /// non-zero otherwise, its other low bits uniform.
    fn key_in(top: u64, clean: bool, next: &mut impl FnMut() -> u64) -> u64 {
        let low = low48(next) & !0xFF;
        top << 48 | low | if clean { 0 } else { 1 + next() % 255 }
    }

    /// The values of `keys`.
    fn values_of(keys: impl IntoIterator<Item = u64>) -> Vec<f64> {
        keys.into_iter().map(from_monotone_bits).collect()
    }

    /// `values` pushed into a summary reserved for them; panics if the
    /// arena moved or the chains do not hold exactly the values' keys.
    fn filled(values: &[f64]) -> SampleSummary {
        let mut s = SampleSummary::new();
        s.reserve(values.len());
        let capacity = (s.chunks.capacity(), s.links.capacity());
        values.iter().for_each(|&x| s.push(x));
        assert_eq!(
            (s.chunks.capacity(), s.links.capacity()),
            capacity,
            "the arena moved"
        );
        assert_eq!(s.links.len(), s.chunks.len());
        let mut stored = Vec::with_capacity(values.len());
        for (b, (&tail, &count)) in s.tails.iter().zip(&s.counts).enumerate() {
            let chain = Chain {
                chunks: &s.chunks,
                links: &s.links,
                bucket: b as u64,
                tail,
                count,
            };
            chain.for_each(|key| stored.push(key));
        }
        stored.sort_unstable();
        let mut keys: Vec<u64> = values.iter().map(|&x| monotone_bits(x)).collect();
        keys.sort_unstable();
        assert!(stored == keys, "the chains do not hold the pushed keys");
        s
    }

    /// The chunks and early closes the width rule gives `values`, from
    /// each bucket's keys in push order: a bucket's first chunk is
    /// wide, and it opens a narrow chunk when every key of the chunk
    /// before and the opening key have a zero low byte.
    fn width_model(values: &[f64]) -> (usize, usize) {
        let (mut chunks, mut early) = (0, 0);
        // Per bucket, its open chunk: narrow, values, all clean.
        let mut open = std::collections::HashMap::<u64, (bool, usize, bool)>::new();
        for &x in values {
            let key = monotone_bits(x);
            let clean = key & 0xFF == 0;
            let prev = open.get(&(key >> 48)).copied();
            let next = match prev {
                Some((narrow, n, all))
                    if n < if narrow { NARROW } else { WIDE } && (clean || !narrow) =>
                {
                    (narrow, n + 1, all && clean)
                }
                _ => {
                    chunks += 1;
                    if matches!(prev, Some((true, n, _)) if n < NARROW) {
                        early += 1;
                    }
                    (clean && prev.is_some_and(|(_, _, all)| all), 1, clean)
                }
            };
            open.insert(key >> 48, next);
        }
        (chunks, early)
    }

    #[test]
    fn store_keeps_six_bytes_a_value_or_five_when_the_low_byte_is_zero() {
        assert_eq!(std::mem::size_of::<Chunk>(), 6 * WIDE);
        let per_chunk = CHUNK_BYTES + 4;
        let mut next = lcg(6);

        // Full-precision keys: a zero low byte is rare, so no chunk is
        // ever all clean and every chunk is wide.
        let mut s = SampleSummary::new();
        for _ in 0..100_000 {
            s.push(-((next() + 1) as f64 / (1u64 << 44) as f64).ln());
        }
        // Buckets filled exactly to a chunk boundary, one past it and
        // one short of it.
        for (top, count) in [
            (0x9000u64, WIDE),
            (0x9001, WIDE + 1),
            (0x9002, 2 * WIDE - 1),
        ] {
            for _ in 0..count {
                s.push(from_monotone_bits(key_in(top, false, &mut next)));
            }
        }
        let used = s.buckets_used();
        assert!(used > 3);
        let wide: usize = s.counts.iter().map(|&c| (c as usize).div_ceil(WIDE)).sum();
        assert_eq!(s.chunks_allocated(), wide);
        assert_eq!(s.early_closes(), 0);
        assert_eq!(s.bytes(), wide * per_chunk);
        assert!(s.chunks.len() * CHUNK_BYTES <= 6 * s.len() + used * CHUNK_BYTES);
        assert!(s.chunks.len() * CHUNK_BYTES > 6 * s.len());

        // Clean keys: each bucket's first chunk is wide, the rest narrow.
        let sizes = [1, WIDE, WIDE + 1, WIDE + NARROW, WIDE + NARROW + 1, 10_000];
        let keys = sizes.iter().enumerate().flat_map(|(i, &n)| {
            let mut next = lcg(i as u64);
            (0..n).map(move |_| key_in(0xA000 + i as u64, true, &mut next))
        });
        let values = values_of(keys);
        let s = filled(&values);
        let want: usize = sizes
            .iter()
            .map(|&n| 1 + n.saturating_sub(WIDE).div_ceil(NARROW))
            .sum();
        assert_eq!(s.chunks_allocated(), want);
        assert_eq!(s.early_closes(), 0);
        assert!(s.bytes() > 5 * s.len() && s.bytes() < 6 * s.len());
        assert_matches_sort(&values);

        // Strict alternation never fills a chunk with clean keys, so it
        // stays wide and never closes a chunk early.
        let values = values_of((0..1000).map(|i| key_in(0xB000, i % 2 == 0, &mut next)));
        let s = filled(&values);
        assert_eq!(
            (s.chunks_allocated(), s.early_closes()),
            (1000usize.div_ceil(WIDE), 0)
        );
        assert_matches_sort(&values);

        // A key with a non-zero low byte closes a narrow chunk early and
        // opens a wide one; the next chunk is wide too.
        let pattern = [(WIDE + 10, true), (1, false), (WIDE, true)];
        let keys = pattern
            .iter()
            .flat_map(|&(n, clean)| std::iter::repeat_n(clean, n))
            .map(|clean| key_in(0xC000, clean, &mut next))
            .collect::<Vec<_>>();
        let values = values_of(keys);
        assert_matches_sort(&values);
        let s = filled(&values);
        assert_eq!((s.chunks_allocated(), s.early_closes()), (4, 1));
        assert_eq!(width_model(&values), (4, 1));
    }

    #[test]
    fn reserved_arena_holds_values_spread_over_every_bucket() {
        // Each value opening its own bucket is the most chunks `n`
        // values can take without an early close: one partial chunk
        // each, up to every bucket.
        let mut next = lcg(8);
        for (n, per_bucket) in [(2_000, 1), (2 * BUCKETS, 2)] {
            let values = values_of((0..n).map(|i| {
                let top = (i / per_bucket * 7919 % BUCKETS) as u64;
                top << 48 | low48(&mut next)
            }));
            assert_eq!(filled(&values).chunks_allocated(), n / per_bucket);
        }
    }

    #[test]
    fn reserved_arena_holds_the_most_early_closes() {
        // Per bucket, a full clean wide chunk, a narrow chunk closed
        // early by its second key, a full dirty wide chunk, and again:
        // three chunks per 129 values, in 300 interleaved buckets.
        let mut next = lcg(9);
        let cycle: Vec<bool> = std::iter::repeat_n(true, WIDE + 1)
            .chain(std::iter::repeat_n(false, WIDE))
            .collect();
        let rounds = 5;
        let keys = (0..rounds * cycle.len())
            .flat_map(|i| (0..300).map(move |top| (top, i)))
            .map(|(top, i)| key_in(top, cycle[i % cycle.len()], &mut next));
        let values = values_of(keys);
        assert_matches_sort(&values);
        let s = filled(&values);
        assert_eq!(s.early_closes(), 300 * rounds);
        assert_eq!(s.chunks_allocated(), 300 * 3 * rounds);
        assert_eq!(width_model(&values), (300 * 3 * rounds, 300 * rounds));
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
                s.tails[b] = u64::from(!NARROW_REF);
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
                        Just(WIDE - 1),
                        Just(WIDE),
                        Just(WIDE + 1),
                        Just(2 * WIDE),
                        1usize..3 * WIDE,
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

        /// Buckets fed runs of keys with a zero or a non-zero low byte,
        /// or strictly alternating ones, around the chunk sizes of both
        /// widths, merged in an order that keeps each bucket's own, with
        /// special values: the output matches the sort, the chunks and
        /// early closes follow the width rule, and the reserved arena
        /// never moves.
        #[test]
        fn summary_matches_sort_across_widths(
            buckets in proptest::collection::vec(
                (
                    0u64..8,
                    proptest::collection::vec(
                        (
                            0u8..3,
                            prop_oneof![
                                1usize..4,
                                Just(WIDE - 1),
                                Just(WIDE),
                                Just(WIDE + 1),
                                Just(NARROW - 1),
                                Just(NARROW),
                                Just(NARROW + 1),
                                1usize..3 * NARROW,
                            ],
                        ),
                        1..6,
                    ),
                ),
                1..4,
            ),
            specials in proptest::collection::vec(0..SPECIALS.len(), 0..12),
            seed in any::<u64>(),
        ) {
            let mut next = lcg(seed);
            // Each bucket's keys, in its own order: 0 a clean run, 1 a
            // dirty run, 2 strict alternation.
            let mut queues: Vec<std::collections::VecDeque<u64>> = buckets
                .iter()
                .map(|(top, runs)| {
                    let top = 0x3FF0 + top;
                    runs.iter()
                        .flat_map(|&(kind, n)| (0..n).map(move |i| kind == 0 || (kind == 2 && i % 2 == 0)))
                        .map(|clean| key_in(top, clean, &mut next))
                        .collect()
                })
                .collect();
            let mut values = Vec::new();
            while !queues.is_empty() {
                let q = (next() % queues.len() as u64) as usize;
                values.push(from_monotone_bits(queues[q].pop_front().expect("non-empty")));
                if queues[q].is_empty() {
                    queues.swap_remove(q);
                }
            }
            for &i in &specials {
                let at = (next() % (values.len() as u64 + 1)) as usize;
                values.insert(at, SPECIALS[i]);
            }
            assert_matches_sort(&values);
            let s = filled(&values);
            prop_assert_eq!((s.chunks_allocated(), s.early_closes()), width_model(&values));
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
