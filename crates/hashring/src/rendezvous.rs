//! Weighted rendezvous (highest-random-weight) hashing.
//!
//! The paper's storage citations (19: Brinkmann et al., 20: RUSH,
//! 21: Ceph/CRUSH) are adaptive placement schemes for *non-uniform*
//! devices. Weighted rendezvous hashing is the cleanest member of that
//! family: key `k` is owned by the node maximising
//! `−w_i / ln(h(k, i))` with `h(k, i)` uniform in `(0, 1)` — each node
//! receives a share exactly proportional to its weight, and adding or
//! removing a node moves only the keys it gains or owned (no third-party
//! movement). It is the placement-layer analog of the paper's
//! capacity-proportional selection probability, and the tests verify
//! both properties.

use crate::hash::mix64;

/// A weighted rendezvous hasher over nodes `0..n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rendezvous {
    /// `(weight, id)` of node `i`; the node is hashed under its id.
    nodes: Vec<(f64, u64)>,
    seed: u64,
}

impl Rendezvous {
    /// Creates a hasher with the given positive node weights; node `i`
    /// is hashed under id `i`.
    ///
    /// # Panics
    /// Panics if `weights` is empty or any weight is non-positive or
    /// non-finite.
    #[must_use]
    pub fn new(weights: Vec<f64>, seed: u64) -> Self {
        Rendezvous::with_ids(weights.into_iter().zip(0..).collect(), seed)
    }

    /// Creates a hasher over `(weight, id)` nodes: node `i` is hashed
    /// under its stable id, so it keeps its scores when other nodes
    /// join or leave and its index shifts.
    ///
    /// # Panics
    /// Panics under the conditions of [`Rendezvous::new`].
    #[must_use]
    pub fn with_ids(nodes: Vec<(f64, u64)>, seed: u64) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        assert!(
            nodes.iter().all(|(w, _)| w.is_finite() && *w > 0.0),
            "weights must be positive"
        );
        Rendezvous { nodes, seed }
    }

    /// Builds from integer capacities (the bin-capacity analogy).
    #[must_use]
    pub fn from_capacities(capacities: &[u64], seed: u64) -> Self {
        Rendezvous::new(capacities.iter().map(|&c| c as f64).collect(), seed)
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// The score of node `i` for `key`: `−w_i / ln(u)` with
    /// `u = h(key, i) ∈ (0, 1)`. Higher wins.
    #[must_use]
    fn score(&self, key: u64, node: usize) -> f64 {
        let (weight, id) = self.nodes[node];
        let h = mix64(self.seed ^ mix64(key) ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Map to (0,1), avoiding exactly 0 and 1.
        let u = ((h >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
        -weight / u.ln()
    }

    /// The owner of `key`.
    #[must_use]
    pub fn owner(&self, key: u64) -> usize {
        (0..self.n())
            .max_by(|&a, &b| {
                self.score(key, a)
                    .partial_cmp(&self.score(key, b))
                    .expect("scores are finite")
            })
            .expect("non-empty")
    }

    /// The `d` highest-scoring nodes for `key` (the rendezvous analog of
    /// the d-choice candidate set).
    ///
    /// # Panics
    /// Panics if `d == 0` or `d > n`.
    #[must_use]
    pub fn top_d(&self, key: u64, d: usize) -> Vec<usize> {
        assert!(d >= 1 && d <= self.n(), "d must be in 1..=n");
        let mut scored: Vec<(f64, usize)> =
            (0..self.n()).map(|i| (self.score(key, i), i)).collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
        scored.into_iter().take(d).map(|(_, i)| i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_proportional_to_weights() {
        let r = Rendezvous::new(vec![1.0, 2.0, 5.0], 42);
        let n_keys = 120_000;
        let mut counts = [0u64; 3];
        for k in 0..n_keys {
            counts[r.owner(mix64(k))] += 1;
        }
        let total = 8.0;
        for (i, &w) in [1.0, 2.0, 5.0].iter().enumerate() {
            let expected = w / total * n_keys as f64;
            assert!(
                (counts[i] as f64 - expected).abs() < 5.0 * expected.sqrt(),
                "node {i}: {} vs {expected}",
                counts[i]
            );
        }
    }

    #[test]
    fn adding_a_node_moves_only_its_keys() {
        let r = Rendezvous::from_capacities(&[3, 3, 3, 3], 7);
        let grown = Rendezvous::new(vec![3.0; 5], 7);
        let n_keys = 20_000u64;
        let mut moved_to_new = 0;
        for k in 0..n_keys {
            let key = mix64(k ^ 0xFEED);
            let before = r.owner(key);
            let after = grown.owner(key);
            if before != after {
                assert_eq!(after, 4, "key moved between surviving nodes");
                moved_to_new += 1;
            }
        }
        // New node's fair share is 1/5 of the keys.
        let expected = n_keys as f64 / 5.0;
        assert!(
            (moved_to_new as f64 - expected).abs() < 5.0 * expected.sqrt(),
            "moved {moved_to_new}, expected ≈ {expected}"
        );
    }

    #[test]
    fn removing_a_node_moves_only_its_keys() {
        // Node 1 leaves; the survivors keep their ids, so their scores
        // hold although their indices shift down.
        let r = Rendezvous::new(vec![1.0, 2.0, 3.0, 4.0], 5);
        let shrunk = Rendezvous::with_ids(vec![(1.0, 0), (3.0, 2), (4.0, 3)], 5);
        let id_of = [0usize, 2, 3];
        let mut moved = 0;
        for k in 0..20_000u64 {
            let key = mix64(k);
            let (before, after) = (r.owner(key), id_of[shrunk.owner(key)]);
            if before != after {
                assert_eq!(before, 1, "key moved between surviving nodes");
                moved += 1;
            }
        }
        assert!(moved > 0, "the leaver's keys must move");
    }

    #[test]
    fn owner_is_deterministic_and_seed_dependent() {
        let a = Rendezvous::new(vec![1.0; 8], 1);
        let b = Rendezvous::new(vec![1.0; 8], 1);
        let c = Rendezvous::new(vec![1.0; 8], 2);
        let mut differs = false;
        for k in 0..256u64 {
            assert_eq!(a.owner(k), b.owner(k));
            differs |= a.owner(k) != c.owner(k);
        }
        assert!(differs, "different seeds should give different placements");
    }

    #[test]
    fn top_d_is_distinct_and_led_by_owner() {
        let r = Rendezvous::from_capacities(&[1, 2, 3, 4, 5], 9);
        for k in 0..200u64 {
            let key = mix64(k);
            let top = r.top_d(key, 3);
            assert_eq!(top.len(), 3);
            let mut sorted = top.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "candidates must be distinct");
            assert_eq!(top[0], r.owner(key), "first candidate is the owner");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let _ = Rendezvous::new(vec![1.0, 0.0], 0);
    }
}
