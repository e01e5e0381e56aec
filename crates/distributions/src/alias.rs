//! Walker/Vose alias method: O(1) weighted sampling over static weights.

use crate::rng::Xoshiro256PlusPlus;
use crate::sampler::WeightedSampler;

/// Fixed-point scale of the keep thresholds: probabilities are stored as
/// `p · 2³²` saturated to `u32::MAX`.
const FIXED_ONE: f64 = 4_294_967_296.0; // 2^32

/// An alias table for O(1) sampling from a fixed discrete distribution.
///
/// Construction is O(n) using Vose's stable two-worklist formulation.
/// Sampling is the integer fast path: a **single** `u64` RNG draw serves
/// both decisions. The draw is widened to `x · n` in 128 bits; the high
/// 64 bits are the column index (Lemire's multiply-shift) and the top of
/// the in-column remainder is compared against the column's precomputed
/// 2³²-scaled *keep threshold* to decide between the column and its
/// alias — both packed in one `u64` word per category. One
/// multiplication, one compare, no floating point, no rejection loop:
/// every ball choice costs exactly one RNG call and one table word
/// regardless of `n`, which is what keeps the 10 000-repetition figure
/// runs fast.
///
/// The integer path trades the rejection step of
/// [`Xoshiro256PlusPlus::next_below`] and the old 53-bit float compare
/// for a per-draw bias below `2⁻³²` (threshold quantisation) plus
/// `n/2⁶⁴` (column pick) — both far under anything observable at
/// Monte-Carlo scale.
///
/// ```
/// use bnb_distributions::{AliasTable, Xoshiro256PlusPlus, WeightedSampler};
/// let table = AliasTable::new(&[1.0, 0.0, 3.0]);
/// let mut rng = Xoshiro256PlusPlus::from_u64_seed(1);
/// let idx = table.sample(&mut rng);
/// assert!(idx == 0 || idx == 2); // index 1 has weight zero
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTable {
    /// Interleaved columns, one `u64` word each: the high 32 bits are the
    /// fixed-point (2³²-scaled) keep threshold, the low 32 bits the alias
    /// index. 8 bytes per category keeps a million-bin table at 8 MB and
    /// a 10⁵-bin table L2-resident, and a draw touches exactly one word
    /// whether it keeps the column or takes the alias.
    cols: Vec<u64>,
    total: f64,
}

/// Packs a column word from keep threshold and alias index.
#[inline]
fn pack_col(keep: u32, alias: u32) -> u64 {
    (u64::from(keep) << 32) | u64::from(alias)
}

impl AliasTable {
    /// Builds an alias table from non-negative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    #[must_use]
    pub fn new(weights: &[f64]) -> Self {
        Self::from_weight_iter(weights.iter().copied())
    }

    /// Builds the table [`AliasTable::new`] builds from the collected
    /// weights, reading them once, in order, without the slice.
    ///
    /// # Panics
    /// Panics under the same conditions as [`AliasTable::new`].
    #[must_use]
    pub fn from_weight_iter(weights: impl IntoIterator<Item = f64>) -> Self {
        // Each column holds its weight's bits, then its scaled weight's
        // (mean 1.0), until Vose's loop packs it.
        let mut total = 0.0;
        let mut cols: Vec<u64> = weights
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                assert!(w.is_finite() && w >= 0.0, "weight {i} invalid: {w}");
                total += w;
                w.to_bits()
            })
            .collect();
        let n = cols.len();
        assert!(n > 0, "alias table needs at least one weight");
        assert!(n <= u32::MAX as usize, "alias table limited to u32 indices");
        assert!(total > 0.0, "total weight must be positive");

        // Vose's two worklists share one array: the small stack grows
        // from the front (`work[..small]`), the large one from the back
        // (`work[large..]`, top at `work[large]`). Each index sits in
        // one of them until its column is packed, so they never meet.
        let scale = n as f64 / total;
        let mut work = vec![0u32; n];
        let (mut small, mut large) = (0, n);
        for (i, col) in cols.iter_mut().enumerate() {
            let scaled = f64::from_bits(*col) * scale;
            *col = scaled.to_bits();
            if scaled < 1.0 {
                work[small] = i as u32;
                small += 1;
            } else {
                large -= 1;
                work[large] = i as u32;
            }
        }
        while small > 0 && large < n {
            small -= 1;
            let (s, l) = (work[small] as usize, work[large]);
            let scaled_s = f64::from_bits(cols[s]);
            cols[s] = pack_col(to_fixed(scaled_s), l);
            // Donate the excess of `l` to cover `s`'s deficit.
            let scaled_l = (f64::from_bits(cols[l as usize]) + scaled_s) - 1.0;
            cols[l as usize] = scaled_l.to_bits();
            if scaled_l < 1.0 {
                large += 1;
                work[small] = l;
                small += 1;
            }
        }
        // Whatever remains in either list has probability 1 of itself
        // (floating-point leftovers hover around 1.0).
        for &i in work[..small].iter().chain(&work[large..]) {
            cols[i as usize] = pack_col(u32::MAX, i);
        }

        AliasTable { cols, total }
    }

    /// Builds a table from integer capacities (the common case in this
    /// workspace: probability of bin `i` is `c_i / C`).
    ///
    /// # Panics
    /// Panics if `capacities` is empty or all zero.
    #[must_use]
    pub fn from_capacities(capacities: &[u64]) -> Self {
        AliasTable::from_weight_iter(capacities.iter().map(|&c| c as f64))
    }

    /// Exact sampling probability of index `i` as encoded by the table
    /// (column mass + alias mass). Used by tests to verify the build.
    #[must_use]
    pub fn encoded_probability(&self, i: usize) -> f64 {
        let n = self.cols.len() as f64;
        let keep_of = |w: u64| from_fixed((w >> 32) as u32);
        let alias_of = |w: u64| (w as u32) as usize;
        let mut p = keep_of(self.cols[i]) / n;
        for (j, &col) in self.cols.iter().enumerate() {
            if alias_of(col) == i && j != i {
                p += (1.0 - keep_of(col)) / n;
            }
        }
        // Columns whose alias is themselves contribute their leftover too.
        if alias_of(self.cols[i]) == i {
            p += (1.0 - keep_of(self.cols[i])) / n;
        }
        p
    }
}

/// Converts a probability in `[0, 1]` to the 2³² fixed-point scale,
/// saturating at `u32::MAX` (`as` casts from float saturate in Rust).
#[inline]
fn to_fixed(p: f64) -> u32 {
    (p * FIXED_ONE) as u32
}

/// Inverse of [`to_fixed`], for introspection only (2⁻³² rounding).
#[inline]
fn from_fixed(t: u32) -> f64 {
    if t == u32::MAX {
        1.0
    } else {
        f64::from(t) / FIXED_ONE
    }
}

/// One alias draw from a packed column table: high product bits pick the
/// column, the next 32 bits of the in-column remainder decide
/// keep-vs-alias. Branchless (the select compiles to a conditional move).
#[inline]
fn draw(cols: &[u64], n: u128, x: u64) -> usize {
    let m = u128::from(x) * n;
    let idx = (m >> 64) as usize;
    let word = cols[idx];
    let frac = ((m as u64) >> 32) as u32;
    if frac < (word >> 32) as u32 {
        idx
    } else {
        (word as u32) as usize
    }
}

impl WeightedSampler for AliasTable {
    #[inline]
    fn sample(&self, rng: &mut Xoshiro256PlusPlus) -> usize {
        // One u64 draw, one multiplication, one packed-column load.
        draw(&self.cols, self.cols.len() as u128, rng.next())
    }

    #[inline]
    fn sample_batch(&self, rng: &mut Xoshiro256PlusPlus, out: &mut [usize]) {
        // Same draw order as repeated `sample` calls (bitwise contract);
        // monomorphic branchless loop body, so iterations speculate far
        // ahead and table-cache misses overlap.
        let n = self.cols.len() as u128;
        for slot in out.iter_mut() {
            *slot = draw(&self.cols, n, rng.next());
        }
    }

    fn from_weights(weights: &[f64]) -> Self {
        AliasTable::new(weights)
    }

    fn len(&self) -> usize {
        self.cols.len()
    }

    fn total_weight(&self) -> f64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The columns of Vose's build as the textbook has it: a scaled
    /// copy of the weights and two worklists, each a LIFO stack filled
    /// in index order.
    fn textbook_cols(weights: &[f64]) -> Vec<u64> {
        let n = weights.len();
        let total: f64 = weights.iter().fold(0.0, |t, &w| t + w);
        let scale = n as f64 / total;
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let (mut small, mut large): (Vec<u32>, Vec<u32>) =
            (0..n as u32).partition(|&i| scaled[i as usize] < 1.0);
        let mut cols: Vec<u64> = (0..n as u32).map(|i| pack_col(u32::MAX, i)).collect();
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            cols[s as usize] = pack_col(to_fixed(scaled[s as usize]), l);
            scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
            if scaled[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for &i in small.iter().chain(&large) {
            cols[i as usize] = pack_col(u32::MAX, i);
        }
        cols
    }

    proptest! {
        /// Random weights, with zeros, ties and wide ranges, build
        /// exactly the textbook's columns, so every draw agrees too.
        #[test]
        fn build_matches_the_textbook_vose_build(
            weights in proptest::collection::vec(
                prop_oneof![
                    0.0f64..100.0,
                    Just(0.0),
                    (1u64..9).prop_map(|k| k as f64),
                    (0.0f64..1.0).prop_map(|x| x * 1e12),
                ],
                1..300,
            ),
        ) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let table = AliasTable::new(&weights);
            prop_assert_eq!(&table.cols, &textbook_cols(&weights));
            prop_assert_eq!(table.total.to_bits(), weights.iter().fold(0.0, |t: f64, &w| t + w).to_bits());
        }
    }

    #[test]
    fn two_class_fleet_builds_the_textbook_columns() {
        // A 65536×1 + 65536×8 fleet's speeds, as the cluster simulator
        // passes them.
        let speeds: Vec<u64> = (0..1 << 17)
            .map(|i| if i < 1 << 16 { 1 } else { 8 })
            .collect();
        let weights: Vec<f64> = speeds.iter().map(|&s| s as f64).collect();
        assert_eq!(
            AliasTable::from_capacities(&speeds).cols,
            textbook_cols(&weights)
        );
    }

    #[test]
    fn encoded_probabilities_match_weights() {
        let weights = [5.0, 1.0, 3.0, 0.0, 11.0];
        let total: f64 = weights.iter().sum();
        let table = AliasTable::new(&weights);
        for (i, &w) in weights.iter().enumerate() {
            let p = table.encoded_probability(i);
            // Thresholds are 2³²-scaled, so the encoding is exact only up
            // to ~2⁻³² per contributing column.
            assert!(
                (p - w / total).abs() < 1e-9,
                "index {i}: encoded {p}, want {}",
                w / total
            );
        }
    }

    #[test]
    fn single_category_always_sampled() {
        let table = AliasTable::new(&[42.0]);
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(3);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zero_weight_categories_never_sampled() {
        let table = AliasTable::new(&[1.0, 0.0, 1.0, 0.0]);
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(8);
        for _ in 0..10_000 {
            let idx = table.sample(&mut rng);
            assert!(idx == 0 || idx == 2, "sampled zero-weight index {idx}");
        }
    }

    #[test]
    fn uniform_weights_are_uniform() {
        let table = AliasTable::new(&[2.5; 8]);
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(17);
        let mut counts = [0u64; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 8.0;
            assert!((c as f64 - expected).abs() < 5.0 * expected.sqrt());
        }
    }

    #[test]
    fn from_capacities_matches_weights() {
        let a = AliasTable::from_capacities(&[1, 2, 3]);
        let b = AliasTable::new(&[1.0, 2.0, 3.0]);
        assert_eq!(a.cols.len(), b.cols.len());
        for i in 0..3 {
            assert!((a.encoded_probability(i) - b.encoded_probability(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn extreme_skew_is_handled() {
        // One huge weight among many tiny ones — the classic stress case
        // for alias construction.
        let mut weights = vec![1e-9; 1000];
        weights[500] = 1e9;
        let table = AliasTable::new(&weights);
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(23);
        let mut hits = 0;
        for _ in 0..1000 {
            if table.sample(&mut rng) == 500 {
                hits += 1;
            }
        }
        assert!(hits >= 999, "only {hits}/1000 samples hit the heavy index");
    }

    #[test]
    fn sample_batch_matches_sequential_samples_bitwise() {
        let table = AliasTable::new(&[1.0, 7.0, 2.0, 0.5]);
        let mut rng_batch = Xoshiro256PlusPlus::from_u64_seed(91);
        let mut rng_seq = Xoshiro256PlusPlus::from_u64_seed(91);
        let mut batch = [0usize; 257];
        table.sample_batch(&mut rng_batch, &mut batch);
        for (i, &b) in batch.iter().enumerate() {
            assert_eq!(b, table.sample(&mut rng_seq), "draw {i} diverged");
        }
        // RNG states must also agree afterwards.
        assert_eq!(rng_batch.next(), rng_seq.next());
    }

    #[test]
    fn fixed_point_round_trip_accuracy() {
        for p in [0.0, 1e-12, 0.25, 0.5, 0.999_999, 1.0] {
            assert!((from_fixed(to_fixed(p)) - p).abs() < 1e-9, "p={p}");
        }
        assert_eq!(to_fixed(1.0), u32::MAX); // saturates
        assert_eq!(to_fixed(0.0), 0);
    }

    #[test]
    #[should_panic(expected = "total weight must be positive")]
    fn all_zero_weights_rejected() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn negative_weight_rejected() {
        let _ = AliasTable::new(&[1.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn empty_weights_rejected() {
        let _ = AliasTable::new(&[]);
    }
}
