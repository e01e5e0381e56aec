//! Allocation policies: given the `d` candidates, pick the receiving bin.
//!
//! [`argmin_distinct`] is the single implementation of Algorithm 1's
//! candidate scan in the workspace: every minimising policy here, the
//! weighted game, the Byers ring game (`bnb-hashring`) and every
//! placement arm of the router (`bnb-router`) call it, with
//! [`algorithm1_key`] as the key wherever the rule is Algorithm 1's.
//! Three hand-unrolled `d = 2` fast paths stand beside it, each pinned to
//! it by tests:
//!
//! * `Game::alloc_d2_paper` in `bnb-core`: from the same tie-stream
//!   state it picks the scan's bin, but it spends exactly one tie draw
//!   per ball (its own RNG contract, which keeps it branch-free);
//! * the `d = 2` d-choice arm of `bnb-router`'s
//!   `PlacementEngine::place`, the one place a `d = 2` request is
//!   dispatched to its own compare;
//! * the `d = 2` hash-then-probe arm of the same engine.
//!
//! The two router paths consume exactly the scan's draws.

use crate::bins::BinArray;
use crate::load::Load;
use bnb_distributions::Xoshiro256PlusPlus;

/// The allocation rule applied to a ball's candidate set.
///
/// [`Policy::PaperProtocol`] is the paper's Algorithm 1; the others are
/// the baselines the evaluation and our ablations compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Algorithm 1 of the paper:
    /// keep candidates minimising the post-allocation load
    /// `(m_i + 1)/c_i`, of those keep the maximum-capacity ones, then
    /// choose uniformly at random. Duplicated candidates are treated as a
    /// set, exactly as the paper's "choose a set B of d bins".
    #[default]
    PaperProtocol,
    /// Minimise the post-allocation load but break ties uniformly —
    /// Algorithm 1 *without* the capacity tie-break (ablation: how much
    /// does "move load towards big bins" matter?).
    LeastLoadedPost,
    /// Classic Greedy\[d\] on loads: minimise the *current* load
    /// `m_i / c_i`, ties uniform.
    LeastLoadedPrior,
    /// Azar et al.'s original Greedy\[d\]: minimise the ball *count*,
    /// ignoring capacities entirely, ties uniform.
    FewestBalls,
    /// Allocate to a uniformly random candidate (turns the game into a
    /// weighted one-choice process regardless of `d`).
    RandomOfChosen,
    /// Always take the first candidate (exactly one-choice when `d = 1`).
    FirstChoice,
}

impl Policy {
    /// Applies the policy, returning the index of the receiving bin.
    ///
    /// `candidates` is the ball's (possibly duplicated) choice list; it is
    /// never empty in a valid game. The returned index is always an
    /// element of `candidates`.
    ///
    /// # Panics
    /// Panics if `candidates` is empty.
    #[inline]
    pub fn choose(
        &self,
        bins: &BinArray,
        candidates: &[usize],
        rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        assert!(!candidates.is_empty(), "candidate set must be non-empty");
        match self {
            Policy::PaperProtocol => argmin_distinct(candidates, rng, |i| {
                algorithm1_key(bins.balls(i), bins.capacity(i))
            }),
            Policy::LeastLoadedPost => {
                argmin_distinct(candidates, rng, |i| bins.post_alloc_load(i))
            }
            Policy::LeastLoadedPrior => argmin_distinct(candidates, rng, |i| bins.load(i)),
            Policy::FewestBalls => argmin_distinct(candidates, rng, |i| bins.balls(i)),
            Policy::RandomOfChosen => candidates[rng.next_below(candidates.len() as u64) as usize],
            Policy::FirstChoice => candidates[0],
        }
    }
}

/// Algorithm 1's key for a bin holding `balls` balls (jobs) with
/// capacity (speed) `capacity`: the post-allocation load
/// `(balls + 1)/capacity` first, then the larger capacity, encoded as
/// `u64::MAX − capacity` so one lexicographic minimum applies both
/// rules.
///
/// # Panics
/// Panics if `capacity == 0`.
#[inline]
#[must_use]
pub fn algorithm1_key(balls: u64, capacity: u64) -> (Load, u64) {
    (Load::new(balls + 1, capacity), u64::MAX - capacity)
}

/// The candidate with the smallest `key`, ties broken uniformly over the
/// *distinct* candidates that remain — Algorithm 1's scan once `key` is
/// [`algorithm1_key`].
///
/// Duplicates collapse to one candidate (the protocol chooses from the
/// set `B`): a candidate already seen earlier in the list is skipped
/// without evaluating its key. Ties resolve in one pass, reservoir
/// style: the `k`-th distinct candidate tying the incumbent replaces it
/// with probability `1/k`, one `rng.next_below(k)` draw. No other draw
/// is made, so a strict winner, a capacity tie-break or an
/// all-duplicate list consumes nothing.
///
/// # Panics
/// Panics if `candidates` is empty.
#[inline]
pub fn argmin_distinct<K: Ord>(
    candidates: &[usize],
    rng: &mut Xoshiro256PlusPlus,
    mut key: impl FnMut(usize) -> K,
) -> usize {
    assert!(!candidates.is_empty(), "candidate set must be non-empty");
    let mut best = candidates[0];
    let mut best_key = key(best);
    let mut ties: u64 = 1;
    for (idx, &cand) in candidates.iter().enumerate().skip(1) {
        // With d ≤ MAX_D a linear scan of the prefix is cheaper than any
        // hashing.
        if candidates[..idx].contains(&cand) {
            continue;
        }
        let k = key(cand);
        match k.cmp(&best_key) {
            std::cmp::Ordering::Less => {
                best = cand;
                best_key = k;
                ties = 1;
            }
            std::cmp::Ordering::Equal => {
                ties += 1;
                if rng.next_below(ties) == 0 {
                    best = cand;
                }
            }
            std::cmp::Ordering::Greater => {}
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::from_u64_seed(1234)
    }

    #[test]
    fn paper_protocol_prefers_lower_post_load() {
        // capacities [1, 10]; loads 0 in both. Post-alloc: 1/1 vs 1/10.
        let bins = BinArray::new(vec![1, 10]);
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(Policy::PaperProtocol.choose(&bins, &[0, 1], &mut r), 1);
        }
    }

    #[test]
    fn paper_protocol_capacity_tiebreak() {
        // bins: cap 2 with 1 ball -> post 2/2 = 1; cap 4 with 3 balls ->
        // post 4/4 = 1. Tie on post-load; capacity tie-break must pick
        // the capacity-4 bin every time.
        let mut bins = BinArray::new(vec![2, 4]);
        bins.add_ball(0);
        for _ in 0..3 {
            bins.add_ball(1);
        }
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(Policy::PaperProtocol.choose(&bins, &[0, 1], &mut r), 1);
        }
    }

    #[test]
    fn paper_protocol_uniform_among_equal_best() {
        // Two identical empty bins of equal capacity: selection must be
        // (statistically) uniform.
        let bins = BinArray::new(vec![3, 3]);
        let mut r = rng();
        let picks_first = (0..10_000)
            .filter(|_| Policy::PaperProtocol.choose(&bins, &[0, 1], &mut r) == 0)
            .count();
        assert!((4000..6000).contains(&picks_first), "{picks_first}");
    }

    #[test]
    fn duplicates_do_not_bias_tiebreak() {
        // Candidate multiset [0, 0, 1]: set semantics => 50/50.
        let bins = BinArray::new(vec![3, 3]);
        let mut r = rng();
        let picks_first = (0..10_000)
            .filter(|_| Policy::PaperProtocol.choose(&bins, &[0, 0, 1], &mut r) == 0)
            .count();
        assert!((4000..6000).contains(&picks_first), "{picks_first}");
    }

    #[test]
    fn three_way_tie_is_uniform() {
        let bins = BinArray::new(vec![2, 2, 2]);
        let mut r = rng();
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[Policy::PaperProtocol.choose(&bins, &[0, 1, 2], &mut r)] += 1;
        }
        for &c in &counts {
            assert!((9000..11000).contains(&c), "{counts:?}");
        }
    }

    /// Whether `f` leaves `rng` where it found it.
    fn draws_nothing(f: impl FnOnce(&mut Xoshiro256PlusPlus)) -> bool {
        let mut r = rng();
        f(&mut r);
        r == rng()
    }

    #[test]
    fn algorithm1_key_orders_by_post_load_then_speed() {
        // Queue/speed pairs of eight servers.
        let load = [
            (3, 1),
            (0, 1),
            (5, 8),
            (1, 8),
            (2, 4),
            (2, 4),
            (0, 2),
            (9, 2),
        ];
        let key = |i: usize| algorithm1_key(load[i].0, load[i].1);
        // Post-join loads 4, 0.75, 0.25: slot 3 wins outright.
        let mut r = rng();
        assert_eq!(argmin_distinct(&[0, 2, 3], &mut r, key), 3);
        // Slots 4, 2, 5 all post-join 0.75: slot 2's larger speed wins,
        // and the capacity tie-break consumes no draw.
        assert!(draws_nothing(|r| assert_eq!(
            argmin_distinct(&[4, 2, 5], r, key),
            2
        )));
    }

    #[test]
    fn capacity_tiebreak_draws_nothing() {
        // Post-loads tie at 1 (the paper_protocol_capacity_tiebreak
        // bins); the larger bin wins without touching the tie stream.
        let mut bins = BinArray::new(vec![2, 4]);
        bins.add_ball(0);
        for _ in 0..3 {
            bins.add_ball(1);
        }
        assert!(draws_nothing(|r| {
            assert_eq!(Policy::PaperProtocol.choose(&bins, &[0, 1, 0], r), 1);
        }));
    }

    #[test]
    fn all_duplicate_candidates_draw_nothing() {
        let bins = BinArray::new(vec![3, 3]);
        for policy in [
            Policy::PaperProtocol,
            Policy::LeastLoadedPost,
            Policy::LeastLoadedPrior,
            Policy::FewestBalls,
        ] {
            assert!(draws_nothing(|r| {
                assert_eq!(policy.choose(&bins, &[1, 1, 1, 1], r), 1);
            }));
        }
    }

    #[test]
    fn residual_ties_split_uniformly_over_distinct_candidates() {
        // Equal keys with repeats interleaved after the first tie: each
        // distinct candidate wins a third of the time, whatever its
        // multiplicity or position.
        let mut r = rng();
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[argmin_distinct(&[0, 1, 0, 2, 1], &mut r, |_| 0u64)] += 1;
        }
        for &c in &counts {
            assert!((9_500..10_500).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn least_loaded_post_ignores_capacity_on_tie() {
        // Same tie as the capacity-tie-break test, but LeastLoadedPost
        // must split roughly 50/50 instead of always picking the big bin.
        let mut bins = BinArray::new(vec![2, 4]);
        bins.add_ball(0);
        for _ in 0..3 {
            bins.add_ball(1);
        }
        let mut r = rng();
        let picks_small = (0..10_000)
            .filter(|_| Policy::LeastLoadedPost.choose(&bins, &[0, 1], &mut r) == 0)
            .count();
        assert!((4000..6000).contains(&picks_small), "{picks_small}");
    }

    #[test]
    fn prior_vs_post_load_differ_where_expected() {
        // cap [1, 5]; bin0 empty, bin1 has 4 balls.
        // prior loads: 0 vs 4/5 -> prior picks bin0.
        // post loads: 1/1 vs 5/5 -> tie; paper protocol then prefers cap 5.
        let mut bins = BinArray::new(vec![1, 5]);
        for _ in 0..4 {
            bins.add_ball(1);
        }
        let mut r = rng();
        assert_eq!(Policy::LeastLoadedPrior.choose(&bins, &[0, 1], &mut r), 0);
        for _ in 0..20 {
            assert_eq!(Policy::PaperProtocol.choose(&bins, &[0, 1], &mut r), 1);
        }
    }

    #[test]
    fn fewest_balls_ignores_capacity() {
        // cap [1, 100]; bin0 has 2 balls, bin1 has 3 balls.
        // loads: 2.0 vs 0.03 — but FewestBalls picks bin0.
        let mut bins = BinArray::new(vec![1, 100]);
        bins.add_ball(0);
        bins.add_ball(0);
        for _ in 0..3 {
            bins.add_ball(1);
        }
        let mut r = rng();
        assert_eq!(Policy::FewestBalls.choose(&bins, &[0, 1], &mut r), 0);
        assert_eq!(Policy::LeastLoadedPrior.choose(&bins, &[0, 1], &mut r), 1);
    }

    #[test]
    fn first_choice_and_random() {
        let bins = BinArray::new(vec![1, 1, 1]);
        let mut r = rng();
        assert_eq!(Policy::FirstChoice.choose(&bins, &[2, 0, 1], &mut r), 2);
        let c = Policy::RandomOfChosen.choose(&bins, &[0, 1, 2], &mut r);
        assert!(c < 3);
    }

    #[test]
    fn single_candidate_is_returned() {
        let bins = BinArray::new(vec![5, 5]);
        let mut r = rng();
        for p in [
            Policy::PaperProtocol,
            Policy::LeastLoadedPost,
            Policy::LeastLoadedPrior,
            Policy::FewestBalls,
            Policy::RandomOfChosen,
            Policy::FirstChoice,
        ] {
            assert_eq!(p.choose(&bins, &[1], &mut r), 1);
        }
    }

    #[test]
    fn chosen_bin_minimises_post_load_invariant() {
        // Randomised invariant check: whatever the state, PaperProtocol's
        // pick has minimal post-allocation load among the candidates.
        let mut bins = BinArray::new(vec![1, 2, 3, 4, 5]);
        let mut r = rng();
        for step in 0..2000 {
            let cands = [
                (step % 5) as usize,
                ((step / 5) % 5) as usize,
                ((step / 25) % 5) as usize,
            ];
            let pick = Policy::PaperProtocol.choose(&bins, &cands, &mut r);
            let best = cands
                .iter()
                .map(|&i| bins.post_alloc_load(i))
                .min()
                .unwrap();
            assert_eq!(bins.post_alloc_load(pick), best);
            bins.add_ball(pick);
        }
    }
}
