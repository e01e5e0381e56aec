//! The Byers–Considine–Mitzenmacher d-point probing game on a ring,
//! and the bridge to the abstract weighted game of `bnb-core`.

use crate::arcs::arc_probabilities;
use crate::hash::request_point;
use crate::ring::HashRing;
use bnb_core::choice::MAX_D;
use bnb_core::policy::argmin_distinct;
use bnb_core::Selection;
use bnb_distributions::Xoshiro256PlusPlus;

/// The d-choice load-balancing game of Byers et al. on a hash ring:
/// each request hashes to `d` points; the candidate peers are the
/// points' successors; the request goes to a candidate with the fewest
/// requests (ties broken uniformly over the distinct candidate peers).
#[derive(Debug, Clone)]
pub struct ByersGame {
    ring: HashRing,
    loads: Vec<u64>,
    d: usize,
    seed: u64,
    next_ball: u64,
}

impl ByersGame {
    /// Creates the game on the given ring with `d` probes per request.
    ///
    /// # Panics
    /// Panics if `d` is outside `1..=MAX_D`.
    #[must_use]
    pub fn new(ring: HashRing, d: usize, seed: u64) -> Self {
        assert!((1..=MAX_D).contains(&d), "d must be in 1..={MAX_D}");
        let n = ring.n_peers();
        ByersGame {
            ring,
            loads: vec![0; n],
            d,
            seed,
            next_ball: 0,
        }
    }

    /// Routes the next request, returning the receiving peer.
    pub fn throw(&mut self, rng: &mut Xoshiro256PlusPlus) -> usize {
        let ball = self.next_ball;
        self.next_ball += 1;
        let mut probes = [0usize; MAX_D];
        for (k, probe) in probes[..self.d].iter_mut().enumerate() {
            *probe = self
                .ring
                .successor(request_point(self.seed, ball, k as u64));
        }
        let best = argmin_distinct(&probes[..self.d], rng, |peer| self.loads[peer]);
        self.loads[best] += 1;
        best
    }

    /// Routes `count` requests.
    pub fn throw_many(&mut self, count: u64, rng: &mut Xoshiro256PlusPlus) {
        for _ in 0..count {
            self.throw(rng);
        }
    }

    /// Per-peer request counts.
    #[must_use]
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// The maximum per-peer request count.
    #[must_use]
    pub fn max_load(&self) -> u64 {
        *self.loads.iter().max().expect("non-empty")
    }

    /// The underlying ring.
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Number of probes per request.
    #[must_use]
    pub fn d(&self) -> usize {
        self.d
    }
}

/// Converts a ring into the equivalent abstract selection distribution:
/// peer `i` is chosen with probability equal to its arc fraction. Running
/// `bnb-core`'s game with this selection, unit capacities and the
/// fewest-balls policy is statistically the same process as [`ByersGame`]
/// — the bridge the paper's §1 motivation describes, and which the
/// integration tests verify.
#[must_use]
pub fn ring_selection(ring: &HashRing) -> Selection {
    Selection::Explicit(arc_probabilities(ring))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnb_core::prelude::*;

    #[test]
    fn conservation_and_determinism() {
        let ring = HashRing::new(64, 1, 11);
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(1);
        let mut game = ByersGame::new(ring.clone(), 2, 11);
        game.throw_many(640, &mut rng);
        assert_eq!(game.loads().iter().sum::<u64>(), 640);

        let mut rng2 = Xoshiro256PlusPlus::from_u64_seed(1);
        let mut game2 = ByersGame::new(ring, 2, 11);
        game2.throw_many(640, &mut rng2);
        assert_eq!(game.loads(), game2.loads());
    }

    #[test]
    fn two_probes_beat_one_probe() {
        let n = 2048u64;
        let ring = HashRing::new(n as usize, 1, 3);
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(5);
        let mut one = ByersGame::new(ring.clone(), 1, 3);
        one.throw_many(n, &mut rng);
        let mut two = ByersGame::new(ring, 2, 3);
        two.throw_many(n, &mut rng);
        assert!(
            two.max_load() < one.max_load(),
            "d=2 ({}) should beat d=1 ({})",
            two.max_load(),
            one.max_load()
        );
        // Byers et al.: still ln ln n / ln 2 + Θ(1) despite arc imbalance.
        assert!(two.max_load() <= 8, "max load {}", two.max_load());
    }

    #[test]
    fn bridge_matches_direct_game_statistically() {
        // The ring game and the abstract explicit-weights game must agree
        // on the *distribution* of max load; compare means over seeds.
        let n = 512;
        let m = 512u64;
        let mut ring_max = 0.0;
        let mut abstract_max = 0.0;
        let reps = 20;
        for seed in 0..reps {
            let ring = HashRing::new(n, 1, seed);
            let mut rng = Xoshiro256PlusPlus::from_u64_seed(seed ^ 0xABCD);
            let mut bg = ByersGame::new(ring.clone(), 2, seed);
            bg.throw_many(m, &mut rng);
            ring_max += bg.max_load() as f64;

            let caps = CapacityVector::uniform(n, 1);
            let config = GameConfig::with_d(2)
                .policy(Policy::FewestBalls)
                .selection(ring_selection(&ring));
            let bins = run_game(&caps, m, &config, seed ^ 0xF00D);
            abstract_max += bins.max_load().as_f64();
        }
        ring_max /= reps as f64;
        abstract_max /= reps as f64;
        assert!(
            (ring_max - abstract_max).abs() < 0.6,
            "ring {ring_max} vs abstract {abstract_max}"
        );
    }

    #[test]
    fn repeated_probe_does_not_bias_ties() {
        // Fresh games (all loads 0) on one 2-peer ring (16 vnodes each,
        // so the arcs are near even), one request each:
        // among requests probing (A, B, A), the distinct peers A and B
        // tie, so A must win half of them, not the 2/3 a second vote
        // for A would give.
        let ring = HashRing::new(2, 16, 5);
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(8);
        let (mut aba, mut a_wins) = (0u32, 0u32);
        for seed in 0..40_000u64 {
            let probe = |k| ring.successor(request_point(seed, 0, k));
            let (a, b) = (probe(0), probe(1));
            if a == b || probe(2) != a {
                continue;
            }
            aba += 1;
            let mut game = ByersGame::new(ring.clone(), 3, seed);
            a_wins += u32::from(game.throw(&mut rng) == a);
        }
        let share = f64::from(a_wins) / f64::from(aba);
        assert!(aba > 5_000, "only {aba} (A, B, A) requests");
        assert!((share - 0.5).abs() < 0.03, "A won {share} of {aba}");
    }

    #[test]
    #[should_panic(expected = "d must be in 1..=")]
    fn oversized_d_rejected() {
        let _ = ByersGame::new(HashRing::new(4, 1, 0), MAX_D + 1, 0);
    }

    #[test]
    fn one_probe_follows_arc_sizes() {
        // With d = 1 a peer's expected share equals its arc fraction.
        let ring = HashRing::new(8, 1, 42);
        let probs = arc_probabilities(&ring);
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(9);
        let mut game = ByersGame::new(ring, 1, 42);
        let m = 200_000u64;
        game.throw_many(m, &mut rng);
        for (peer, &p) in probs.iter().enumerate() {
            let expected = p * m as f64;
            let got = game.loads()[peer] as f64;
            assert!(
                (got - expected).abs() < 5.0 * expected.sqrt() + 5.0,
                "peer {peer}: {got} vs {expected}"
            );
        }
    }
}
