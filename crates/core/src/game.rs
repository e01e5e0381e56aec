//! The simulation engine: configured games of balls into non-uniform bins.
//!
//! The engine is generic over the weighted sampler
//! ([`Game<S>`](Game) with `S: WeightedSampler`, defaulting to the O(1)
//! [`AliasTable`]) and routes bulk throws through a batched kernel:
//! [`Game::throw_many`] hoists the `d`/policy/choice-mode dispatch out of
//! the per-ball loop and monomorphizes the paper's dominant configuration
//! (`d = 2`, with-replacement, Algorithm 1) into a two-pass block kernel —
//! sample a block of candidate pairs through the branchless
//! [`WeightedSampler::sample_batch`], then allocate with a branch-light
//! two-candidate compare over [`BinArray`]'s interleaved
//! `(capacity, balls)` layout.
//!
//! ## RNG draw-order contract (since the batched kernel)
//!
//! A game consumes randomness from **two** independent deterministic
//! streams derived from its seed: the *candidate stream* feeds the
//! weighted sampler (in ball order, `d` draws per ball), and the
//! *tie-break stream* feeds allocation tie-breaking. Splitting the
//! streams is what lets the batched kernel pre-sample whole blocks of
//! candidates without reordering anybody's draws: batched and one-ball
//! execution consume both streams identically, so [`Game::throw_many`]
//! is bitwise interchangeable with a loop of [`Game::throw`] under the
//! same seed. The `d = 2` Algorithm-1 fast path consumes exactly one
//! tie-break draw per ball (branchless select); every other
//! configuration draws from the tie stream only on actual ties — each
//! configuration is internally consistent across scalar and batched
//! execution. (Version note: the single-stream engine before the batched
//! kernel interleaved tie-break draws into the candidate stream, so
//! per-seed traces differ from releases prior to the kernel; every
//! statistical result is unaffected.)

use crate::bins::BinArray;
use crate::capacity::CapacityVector;
use crate::choice::{draw_candidates, ChoiceMode, Selection, MAX_D};
use crate::load::Load;
use crate::policy::Policy;
use bnb_distributions::{derive_seed, AliasTable, WeightedSampler, Xoshiro256PlusPlus};

/// Stream id under which a game's tie-break RNG is derived from its seed
/// (see the module-level draw-order contract).
const TIE_BREAK_STREAM: u64 = 0x7169_u64; // "ti"

/// Balls per block of the batched `d = 2` kernel: large enough to
/// amortise the pass switches and keep many cache misses in flight,
/// small enough that the candidate buffer (2 × 8 B × block) stays a
/// fraction of L1.
const KERNEL_BLOCK: usize = 1024;

/// Below this bin count the whole game (bins + alias table) is
/// cache-resident and the scalar fast path out-runs the block kernel, so
/// [`Game::throw_many`] dispatches on size. Both paths consume the RNG
/// streams identically; the cutover never changes results.
const SCALAR_CUTOVER_BINS: usize = 8192;

/// Configuration of a game: everything except the capacities and the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct GameConfig {
    /// Number of choices per ball, `d ≥ 1` (the paper analyses `d ≥ 2`).
    pub d: usize,
    /// Allocation rule (default: the paper's Algorithm 1).
    pub policy: Policy,
    /// Selection probabilities (default: proportional to capacity).
    pub selection: Selection,
    /// Candidate drawing mode (default: independent, with replacement).
    pub choice_mode: ChoiceMode,
}

impl Default for GameConfig {
    fn default() -> Self {
        GameConfig {
            d: 2,
            policy: Policy::PaperProtocol,
            selection: Selection::ProportionalToCapacity,
            choice_mode: ChoiceMode::WithReplacement,
        }
    }
}

impl GameConfig {
    /// The paper's default game with the given number of choices.
    #[must_use]
    pub fn with_d(d: usize) -> Self {
        GameConfig {
            d,
            ..GameConfig::default()
        }
    }

    /// Builder-style: replace the policy.
    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style: replace the selection distribution.
    #[must_use]
    pub fn selection(mut self, selection: Selection) -> Self {
        self.selection = selection;
        self
    }

    /// Builder-style: replace the choice mode.
    #[must_use]
    pub fn choice_mode(mut self, mode: ChoiceMode) -> Self {
        self.choice_mode = mode;
        self
    }

    /// Instantiates a game on the given capacities with its own RNG,
    /// using the default [`AliasTable`] sampler.
    ///
    /// # Panics
    /// Panics if `d` is outside `1..=MAX_D` or the selection weights are
    /// invalid for these capacities.
    #[must_use]
    pub fn build(&self, capacities: &CapacityVector, seed: u64) -> Game {
        self.build_with_sampler::<AliasTable>(capacities, seed)
    }

    /// Instantiates a game with an explicit sampler implementation —
    /// the engine is generic over [`WeightedSampler`], so ablations and
    /// differential tests can run the identical game on e.g. the Fenwick
    /// or cumulative sampler.
    ///
    /// This is the single construction-time validation point for `d`;
    /// the per-ball hot path only re-checks it via `debug_assert!`.
    ///
    /// # Panics
    /// Panics if `d` is outside `1..=MAX_D` or the selection weights are
    /// invalid for these capacities.
    #[must_use]
    pub fn build_with_sampler<S: WeightedSampler>(
        &self,
        capacities: &CapacityVector,
        seed: u64,
    ) -> Game<S> {
        assert!(
            self.d >= 1 && self.d <= MAX_D,
            "d must be in 1..={MAX_D}, got {}",
            self.d
        );
        let bins = BinArray::new(capacities.as_slice().to_vec());
        let sampler = self.selection.sampler_of::<S>(capacities.as_slice());
        Game {
            bins,
            sampler,
            d: self.d,
            policy: self.policy,
            choice_mode: self.choice_mode,
            rng: Xoshiro256PlusPlus::from_u64_seed(seed),
            tie_rng: Xoshiro256PlusPlus::from_u64_seed(derive_seed(seed, TIE_BREAK_STREAM, 0)),
        }
    }
}

/// A running game: bin state + sampler + policy + RNG.
///
/// Generic over the weighted sampler (`S`, default [`AliasTable`]); every
/// existing call site that names `Game` keeps compiling against the alias
/// default.
///
/// ```
/// use bnb_core::{CapacityVector, GameConfig};
/// let caps = CapacityVector::two_class(500, 1, 500, 10);
/// let mut game = GameConfig::with_d(2).build(&caps, 42);
/// game.throw_many(caps.total());
/// assert_eq!(game.bins().total_balls(), caps.total());
/// ```
#[derive(Debug, Clone)]
pub struct Game<S = AliasTable> {
    bins: BinArray,
    sampler: S,
    d: usize,
    policy: Policy,
    choice_mode: ChoiceMode,
    /// Candidate stream (see the module-level draw-order contract).
    rng: Xoshiro256PlusPlus,
    /// Tie-break stream.
    tie_rng: Xoshiro256PlusPlus,
}

impl<S: WeightedSampler> Game<S> {
    /// Whether this game runs the paper's dominant configuration, which
    /// the monomorphized kernel (and the matching one-ball fast path)
    /// serves.
    #[inline]
    fn is_d2_paper(&self) -> bool {
        self.d == 2
            && self.choice_mode == ChoiceMode::WithReplacement
            && self.policy == Policy::PaperProtocol
    }

    /// Algorithm 1 on exactly two with-replacement candidates, branchless.
    ///
    /// Consumes **one** tie-break draw per ball whether or not a tie
    /// occurs (the draw's top bit is the uniform pick, matching
    /// `next_below(2)`), so the select compiles to flag arithmetic and a
    /// conditional move instead of data-dependent branches — mispredicted
    /// half the time on the frequent exact ties. Both the scalar
    /// [`Game::throw`] and the batched kernel allocate through this
    /// helper, which is what keeps the two paths bitwise interchangeable.
    #[inline]
    fn alloc_d2_paper(&mut self, c1: usize, c2: usize) -> usize {
        // Top bit set ⇔ next_below(2) == 1; the reservoir convention in
        // `Policy::choose` replaces the incumbent on 0.
        let tie_pick2 = (self.tie_rng.next() >> 63) == 0;
        let (cap1, b1) = self.bins.capacity_and_balls(c1);
        let (cap2, b2) = self.bins.capacity_and_balls(c2);
        // Exact post-allocation load compare ((b+1)/cap) by u128
        // cross-multiplication, as in `Load::cmp`; then the capacity
        // tie-break (prefer larger), then the uniform bit. Bitwise `|`/`&`
        // keep the whole predicate branch-free. A duplicated candidate
        // (c1 == c2) falls through to the tie bit and picks the same bin
        // either way.
        let l1 = (u128::from(b1) + 1) * u128::from(cap2);
        let l2 = (u128::from(b2) + 1) * u128::from(cap1);
        let pick2 = (l2 < l1) | ((l2 == l1) & ((cap2 > cap1) | ((cap2 == cap1) & tie_pick2)));
        if pick2 {
            c2
        } else {
            c1
        }
    }

    /// Throws one ball; returns the receiving bin's index.
    #[inline]
    pub fn throw(&mut self) -> usize {
        if self.is_d2_paper() {
            let c1 = self.sampler.sample(&mut self.rng);
            let c2 = self.sampler.sample(&mut self.rng);
            let target = self.alloc_d2_paper(c1, c2);
            self.bins.add_ball(target);
            return target;
        }
        let mut buf = [0usize; MAX_D];
        let candidates = draw_candidates(
            &self.sampler,
            self.d,
            self.choice_mode,
            &mut self.rng,
            &mut buf,
        );
        let target = self
            .policy
            .choose(&self.bins, candidates, &mut self.tie_rng);
        self.bins.add_ball(target);
        target
    }

    /// Throws one ball; returns `(bin, height)` where height is the load
    /// of the receiving bin immediately after allocation (§2).
    #[inline]
    pub fn throw_traced(&mut self) -> (usize, Load) {
        let bin = self.throw();
        (bin, self.bins.load(bin))
    }

    /// Throws `count` balls through the batched kernel.
    ///
    /// The `d`/policy/choice-mode dispatch happens once per call, not per
    /// ball: the paper's dominant configuration (`d = 2`, with
    /// replacement, Algorithm 1) runs a monomorphized two-candidate
    /// kernel, everything else falls back to the scalar loop. Both paths
    /// draw from the RNG in exactly the same order as `count` successive
    /// [`Game::throw`] calls, so a batched run is bitwise identical to a
    /// one-ball loop under the same seed.
    pub fn throw_many(&mut self, count: u64) {
        if self.is_d2_paper() {
            if self.bins.n() <= SCALAR_CUTOVER_BINS {
                // Cache-resident games: the per-ball fast path beats the
                // block kernel (same stream consumption, so the choice
                // of path never changes results).
                for _ in 0..count {
                    self.throw();
                }
            } else {
                self.throw_batch_d2_paper(count);
            }
        } else if self.choice_mode == ChoiceMode::WithReplacement {
            self.throw_batch_with_replacement(count);
        } else {
            // Distinct mode interleaves rejection re-draws into the
            // candidate stream per ball; it stays on the scalar loop.
            for _ in 0..count {
                self.throw();
            }
        }
    }

    /// Batched path for any with-replacement configuration outside the
    /// monomorphized `d = 2` kernel: candidates for a whole block are
    /// pre-sampled through [`WeightedSampler::sample_batch`] (identical
    /// candidate-stream order as per-ball draws), then each ball runs the
    /// policy on its `d`-slice. Hoists the choice-mode dispatch and
    /// pipelines the sampler's cache misses; the policy dispatch remains
    /// per ball but is a perfectly predicted branch.
    fn throw_batch_with_replacement(&mut self, count: u64) {
        const GENERIC_BLOCK: usize = 128;
        let d = self.d;
        let mut cands = [0usize; MAX_D * GENERIC_BLOCK];
        let mut remaining = count;
        while remaining > 0 {
            let block = GENERIC_BLOCK.min(usize::try_from(remaining).unwrap_or(GENERIC_BLOCK));
            self.sampler
                .sample_batch(&mut self.rng, &mut cands[..d * block]);
            for ball in 0..block {
                let candidates = &cands[ball * d..(ball + 1) * d];
                let target = self
                    .policy
                    .choose(&self.bins, candidates, &mut self.tie_rng);
                self.bins.add_ball(target);
            }
            remaining -= block as u64;
        }
    }

    /// The monomorphized hot kernel: `d = 2`, candidates drawn with
    /// replacement, Algorithm 1 allocation.
    ///
    /// Two passes per block of up to [`KERNEL_BLOCK`] balls:
    ///
    /// 1. **Sample** `2·block` candidates through the branchless
    ///    [`WeightedSampler::sample_batch`] — independent iterations, so
    ///    the out-of-order window keeps many table-cache misses in
    ///    flight;
    /// 2. **Allocate** sequentially through [`Game::alloc_d2_paper`] —
    ///    one interleaved `(capacity, balls)` line per candidate and a
    ///    branchless select, so the only branches are perfectly
    ///    predicted loop/bounds checks and speculation overlaps the bin
    ///    misses of successive balls too.
    ///
    /// Consumes both RNG streams in exactly the order the scalar
    /// [`Game::throw`] loop does (candidates in ball order, one tie-break
    /// draw per ball), so the paths stay bitwise interchangeable.
    fn throw_batch_d2_paper(&mut self, count: u64) {
        let mut pairs = [0usize; 2 * KERNEL_BLOCK];
        let mut remaining = count;
        while remaining > 0 {
            let block = KERNEL_BLOCK.min(usize::try_from(remaining).unwrap_or(KERNEL_BLOCK));
            let buf = &mut pairs[..2 * block];
            self.sampler.sample_batch(&mut self.rng, buf);
            for i in 0..block {
                let target = self.alloc_d2_paper(pairs[2 * i], pairs[2 * i + 1]);
                self.bins.bump_ball(target);
            }
            self.bins.settle_total(block as u64);
            remaining -= block as u64;
        }
    }

    /// Throws exactly `C` balls (the paper's default `m = C`).
    pub fn throw_total_capacity(&mut self) {
        self.throw_many(self.bins.total_capacity());
    }

    /// Throws `count` balls, invoking `snapshot` after every `interval`
    /// balls (used by the heavily-loaded Figure 16: sample every `CAP`
    /// balls while throwing `100·CAP`). Each interval runs through the
    /// batched kernel.
    ///
    /// # Panics
    /// Panics if `interval == 0`.
    pub fn throw_with_snapshots<F: FnMut(u64, &BinArray)>(
        &mut self,
        count: u64,
        interval: u64,
        mut snapshot: F,
    ) {
        assert!(interval > 0, "snapshot interval must be positive");
        let mut thrown = 0u64;
        while thrown < count {
            let batch = interval.min(count - thrown);
            self.throw_many(batch);
            thrown += batch;
            snapshot(thrown, &self.bins);
        }
    }

    /// Read access to the bin state.
    #[must_use]
    pub fn bins(&self) -> &BinArray {
        &self.bins
    }

    /// Resets the ball counts, keeping capacities, policy and RNG state.
    pub fn reset(&mut self) {
        self.bins.clear();
    }

    /// The number of choices per ball.
    #[must_use]
    pub fn d(&self) -> usize {
        self.d
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.policy
    }
}

/// One-shot convenience: run a complete game of `m` balls and return the
/// final bin state.
#[must_use]
pub fn run_game(capacities: &CapacityVector, m: u64, config: &GameConfig, seed: u64) -> BinArray {
    let mut game = config.build(capacities, seed);
    game.throw_many(m);
    game.bins.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_of_balls() {
        let caps = CapacityVector::uniform(10, 3);
        let bins = run_game(&caps, 123, &GameConfig::default(), 7);
        assert_eq!(bins.total_balls(), 123);
        assert_eq!(bins.ball_counts().iter().sum::<u64>(), 123);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let caps = CapacityVector::two_class(50, 1, 50, 10);
        let a = run_game(&caps, caps.total(), &GameConfig::default(), 99);
        let b = run_game(&caps, caps.total(), &GameConfig::default(), 99);
        assert_eq!(a, b);
        let c = run_game(&caps, caps.total(), &GameConfig::default(), 100);
        assert_ne!(a, c, "different seeds should differ (w.o.p.)");
    }

    #[test]
    fn batched_kernel_matches_scalar_loop_bitwise() {
        // The d=2 kernel and the one-ball throw() loop must consume the
        // RNG identically: same bins, same heights, same RNG state. The
        // bin count sits ABOVE SCALAR_CUTOVER_BINS so throw_many really
        // dispatches to the block kernel (smaller games take the scalar
        // fast path and would leave the kernel untested).
        let n = SCALAR_CUTOVER_BINS + 1808; // 10_000 bins
        let caps = CapacityVector::two_class(n / 2, 1, n / 2, 8);
        let mut batched = GameConfig::default().build(&caps, 4242);
        let mut scalar = GameConfig::default().build(&caps, 4242);
        // More than one kernel block, with a partial tail block.
        let m = 3 * 1024 + 77;
        batched.throw_many(m);
        for _ in 0..m {
            scalar.throw();
        }
        assert_eq!(batched.bins(), scalar.bins());
        // RNG states agree iff the next throws land identically.
        for _ in 0..100 {
            assert_eq!(batched.throw(), scalar.throw());
        }
    }

    #[test]
    fn d2_fast_path_picks_the_shared_scans_bin() {
        // From the same tie-stream state, `alloc_d2_paper` picks the bin
        // Algorithm 1's shared scan picks on the same pair, duplicates
        // included. It spends one draw per ball; the scan draws only on
        // a residual tie, so the streams are compared per ball.
        let caps = CapacityVector::two_class(4, 1, 4, 8);
        let mut game = GameConfig::default().build(&caps, 17);
        let mut drawn = 0;
        for _ in 0..5_000 {
            let c1 = game.sampler.sample(&mut game.rng);
            let c2 = game.sampler.sample(&mut game.rng);
            let mut scan_rng = game.tie_rng.clone();
            let want = Policy::PaperProtocol.choose(&game.bins, &[c1, c2], &mut scan_rng);
            drawn += usize::from(scan_rng != game.tie_rng);
            let got = game.alloc_d2_paper(c1, c2);
            assert_eq!(got, want);
            game.bins.add_ball(got);
        }
        assert!(drawn > 500, "only {drawn} residual ties");
    }

    #[test]
    fn d1_first_choice_is_weighted_one_choice() {
        // With d = 1 and FirstChoice, allocation frequency must follow the
        // proportional selection probabilities.
        let caps = CapacityVector::from_vec(vec![1, 9]);
        let config = GameConfig::with_d(1).policy(Policy::FirstChoice);
        let bins = run_game(&caps, 50_000, &config, 3);
        let frac_big = bins.balls(1) as f64 / 50_000.0;
        assert!((frac_big - 0.9).abs() < 0.02, "{frac_big}");
    }

    #[test]
    fn snapshots_fire_at_intervals() {
        let caps = CapacityVector::uniform(8, 2);
        let mut game = GameConfig::default().build(&caps, 5);
        let mut seen = Vec::new();
        game.throw_with_snapshots(10, 4, |thrown, bins| {
            seen.push((thrown, bins.total_balls()));
        });
        assert_eq!(seen, vec![(4, 4), (8, 8), (10, 10)]);
    }

    #[test]
    fn throw_traced_reports_height() {
        let caps = CapacityVector::uniform(2, 4);
        let mut game = GameConfig::with_d(2).build(&caps, 11);
        let (bin, height) = game.throw_traced();
        assert!(bin < 2);
        assert_eq!(height, Load::new(1, 4));
    }

    #[test]
    fn reset_preserves_capacities() {
        let caps = CapacityVector::uniform(4, 2);
        let mut game = GameConfig::default().build(&caps, 1);
        game.throw_many(16);
        game.reset();
        assert_eq!(game.bins().total_balls(), 0);
        assert_eq!(game.bins().total_capacity(), 8);
    }

    #[test]
    fn two_choice_beats_one_choice_on_max_load() {
        // The signature power-of-two-choices effect, here on uniform bins:
        // max load with d=2 is far below max load with d=1 at m = n.
        let caps = CapacityVector::uniform(5000, 1);
        let one = run_game(&caps, 5000, &GameConfig::with_d(1), 21);
        let two = run_game(&caps, 5000, &GameConfig::with_d(2), 21);
        let max1 = one.max_load().as_f64();
        let max2 = two.max_load().as_f64();
        assert!(max2 < max1, "d=2 max {max2} should beat d=1 max {max1}");
        // ln ln n / ln 2 + O(1) ≈ 2.1 + O(1); allow generous headroom.
        assert!(max2 <= 5.0, "two-choice max load {max2} suspiciously high");
    }

    #[test]
    fn paper_protocol_on_heterogeneous_bins_bounds_load() {
        // m = C on a 1/10 mix: Theorem 3 says ln ln n / ln d + O(1);
        // empirically ~2-3 for n = 1000. Assert a generous ceiling to
        // catch gross regressions without flaking.
        let caps = CapacityVector::two_class(500, 1, 500, 10);
        let bins = run_game(&caps, caps.total(), &GameConfig::default(), 1);
        assert!(bins.max_load().as_f64() <= 4.0);
    }

    #[test]
    fn throw_total_capacity_throws_exactly_c() {
        let caps = CapacityVector::two_class(3, 2, 3, 5);
        let mut game = GameConfig::default().build(&caps, 9);
        game.throw_total_capacity();
        assert_eq!(game.bins().total_balls(), 21);
    }

    #[test]
    #[should_panic(expected = "d must be in 1..=")]
    fn oversized_d_rejected() {
        let caps = CapacityVector::uniform(4, 1);
        let _ = GameConfig::with_d(99).build(&caps, 0);
    }
}
