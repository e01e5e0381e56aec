//! The batched compare-scan kernel behind Algorithm 1's candidate
//! evaluation.
//!
//! Placement spends its per-request budget on two memory-bound steps:
//! mapping candidate tokens to fleet slots and pulling each slot's
//! `(queue_len, speed)` out of the load view. Done one candidate at a
//! time (as the generic `reservoir_argmin` closure did),
//! every load sits on the previous one's address — a serial
//! token → slot → queue dependency chain the core cannot overlap. This
//! module splits the evaluation into two phases:
//!
//! * a **gather phase** over the view's structure-of-arrays slices,
//!   when it has them ([`LoadView::dense`]): a chunked loop
//!   ([`slice::chunks_exact`], plain safe Rust — the workspace denies
//!   `unsafe`) that issues the
//!   candidate loads in independent groups of [`GATHER_CHUNK`], so the
//!   address arithmetic unrolls, the loads pipeline instead of
//!   serialising, and on targets with gather/SIMD support the
//!   autovectoriser is free to batch them;
//! * a **compare phase** over the gathered arrays: the same
//!   dedup-prefix + 1/k-reservoir scan as before (bit-identical RNG
//!   draw order — the equivalence tests pin it), but now running over
//!   two small stack arrays instead of chasing pointers, with
//!   Algorithm 1's exact cross-multiplied `(q+1)/s` compare inlined.
//!
//! Views without dense slices (the simulator's fleet, concurrent
//! snapshots) fill the same scratch through per-slot
//! [`LoadView::load`] calls, so the compare phase is shared. The
//! `d = 2` fast path in [`crate::PlacementEngine::place_d2`] stays
//! hand-unrolled (two candidates don't amortise a loop) and reads
//! either form; `d > 2` and the experiment sweep paths route through
//! [`gather`] + [`argmin_algo1`].

use crate::view::LoadView;
use bnb_core::choice::MAX_D;
use bnb_distributions::Xoshiro256PlusPlus;

/// Candidates gathered per chunk of the gather loop. Four keeps the
/// chunk within one vector register's worth of u64 lanes on common
/// targets while covering `d = 4..=16` sweeps with 1–4 chunks.
pub const GATHER_CHUNK: usize = 4;

/// Scratch arrays for one request's candidate set, sized to the
/// placement-policy maximum so the kernel never allocates.
#[derive(Debug, Clone, Copy)]
pub struct ScanScratch {
    /// Fleet slot per candidate (token mapped through the alive list).
    pub slots: [usize; MAX_D],
    /// Queue length per candidate, gathered from the mirror.
    pub queues: [u64; MAX_D],
    /// Speed per candidate, gathered from the mirror.
    pub speeds: [u64; MAX_D],
}

impl ScanScratch {
    /// Zeroed scratch.
    #[must_use]
    pub fn new() -> Self {
        ScanScratch {
            slots: [0; MAX_D],
            queues: [0; MAX_D],
            speeds: [0; MAX_D],
        }
    }
}

impl Default for ScanScratch {
    fn default() -> Self {
        ScanScratch::new()
    }
}

/// Gathers the candidate tokens' slots and `(queue_len, speed)` pairs
/// into `scratch`, chunked. `map` converts a token to a fleet slot (the
/// engine's alive list, or the identity on an unchurned fleet). Views
/// exposing dense slices get straight indexed loads; others fall back
/// to per-slot [`LoadView::load`] calls in the same chunked shape.
///
/// # Panics
/// Panics if `tokens.len() > MAX_D` or a token maps out of range.
#[inline]
pub fn gather(
    view: &impl LoadView,
    tokens: &[usize],
    map: impl Fn(usize) -> usize,
    scratch: &mut ScanScratch,
) {
    let d = tokens.len();
    assert!(d <= MAX_D, "candidate set exceeds MAX_D");
    let slots = &mut scratch.slots[..d];
    for (slot, &t) in slots.iter_mut().zip(tokens) {
        *slot = map(t);
    }
    let qs = &mut scratch.queues[..d];
    let ss = &mut scratch.speeds[..d];
    if let Some((queues, speeds)) = view.dense() {
        let mut slot_chunks = slots.chunks_exact(GATHER_CHUNK);
        let mut q_chunks = qs.chunks_exact_mut(GATHER_CHUNK);
        let mut s_chunks = ss.chunks_exact_mut(GATHER_CHUNK);
        for ((sc, qc), cc) in (&mut slot_chunks).zip(&mut q_chunks).zip(&mut s_chunks) {
            // Fixed-width chunk: four independent indexed loads per
            // array, no cross-iteration dependence.
            for k in 0..GATHER_CHUNK {
                qc[k] = queues[sc[k]];
                cc[k] = speeds[sc[k]];
            }
        }
        for ((&slot, q), s) in slot_chunks
            .remainder()
            .iter()
            .zip(q_chunks.into_remainder())
            .zip(s_chunks.into_remainder())
        {
            *q = queues[slot];
            *s = speeds[slot];
        }
    } else {
        for ((&slot, q), s) in slots.iter().zip(qs.iter_mut()).zip(ss.iter_mut()) {
            let (queue, speed) = view.load(slot);
            *q = queue;
            *s = speed;
        }
    }
}

/// Algorithm 1's allocation over a gathered candidate set: smallest
/// post-join normalised load `(q+1)/speed` by exact 128-bit
/// cross-multiplication, capacity tie-break towards the faster server,
/// residual ties uniform via the dedup-prefix + 1/k-reservoir scan.
/// Token dedup, tie counting and RNG draw order are bit-identical to
/// the scalar `reservoir_argmin` this replaces (the engine's
/// equivalence test pins that), so traces are unchanged. Returns the
/// winning candidate's fleet slot.
///
/// # Panics
/// Panics if `tokens` is empty or longer than the gathered prefix.
#[inline]
pub fn argmin_algo1(
    tokens: &[usize],
    scratch: &ScanScratch,
    rng: &mut Xoshiro256PlusPlus,
) -> usize {
    let d = tokens.len();
    assert!(d >= 1, "need at least one candidate");
    let (qs, ss) = (&scratch.queues[..d], &scratch.speeds[..d]);
    let mut best = 0usize;
    let mut ties = 1u64;
    for i in 1..d {
        // Duplicate *tokens* collapse to one candidate (two draws of
        // the same alias cell are one server, not a tie).
        if tokens[..i].contains(&tokens[i]) {
            continue;
        }
        // (q_i+1)/s_i  vs  (q_best+1)/s_best, exactly; then larger
        // speed wins — the order Algorithm 1's `(Load, u64::MAX−speed)`
        // key tuple induces, without building the tuple.
        let lhs = (qs[i] + 1) as u128 * ss[best] as u128;
        let rhs = (qs[best] + 1) as u128 * ss[i] as u128;
        match lhs.cmp(&rhs).then(ss[best].cmp(&ss[i])) {
            std::cmp::Ordering::Less => {
                best = i;
                ties = 1;
            }
            std::cmp::Ordering::Equal => {
                ties += 1;
                if rng.next_below(ties) == 0 {
                    best = i;
                }
            }
            std::cmp::Ordering::Greater => {}
        }
    }
    scratch.slots[best]
}

#[cfg(test)]
mod tests {
    use super::*;

    struct DenseFleet {
        queues: Vec<u64>,
        speeds: Vec<u64>,
    }

    impl LoadView for DenseFleet {
        fn load(&self, slot: usize) -> (u64, u64) {
            (self.queues[slot], self.speeds[slot])
        }
        fn dense(&self) -> Option<(&[u64], &[u64])> {
            Some((&self.queues, &self.speeds))
        }
    }

    /// The same mirror hiding its slices: forces the per-slot fallback.
    struct OpaqueFleet(DenseFleet);

    impl LoadView for OpaqueFleet {
        fn load(&self, slot: usize) -> (u64, u64) {
            self.0.load(slot)
        }
    }

    fn fleet() -> DenseFleet {
        DenseFleet {
            queues: vec![3, 0, 5, 1, 2, 2, 0, 9],
            speeds: vec![1, 1, 8, 8, 4, 4, 2, 2],
        }
    }

    #[test]
    fn gather_matches_per_slot_loads_across_widths() {
        let dense = fleet();
        let opaque = OpaqueFleet(fleet());
        let alive: Vec<usize> = (0..8).rev().collect(); // non-identity map
        for d in 1..=8usize {
            let tokens: Vec<usize> = (0..d).map(|i| (i * 3) % 8).collect();
            let mut a = ScanScratch::new();
            let mut b = ScanScratch::new();
            gather(&dense, &tokens, |t| alive[t], &mut a);
            gather(&opaque, &tokens, |t| alive[t], &mut b);
            assert_eq!(a.slots[..d], b.slots[..d], "d={d}");
            assert_eq!(a.queues[..d], b.queues[..d], "d={d}");
            assert_eq!(a.speeds[..d], b.speeds[..d], "d={d}");
            for i in 0..d {
                assert_eq!(
                    (a.queues[i], a.speeds[i]),
                    dense.load(alive[tokens[i]]),
                    "candidate {i} of d={d}"
                );
            }
        }
    }

    #[test]
    fn argmin_prefers_smallest_normalised_load_then_speed() {
        let dense = fleet();
        // Candidates: slot 0 (q=3,s=1 → 4.0), slot 2 (q=5,s=8 → 0.75),
        // slot 3 (q=1,s=8 → 0.25): slot 3 wins outright.
        let tokens = [0usize, 2, 3];
        let mut scratch = ScanScratch::new();
        gather(&dense, &tokens, |t| t, &mut scratch);
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(1);
        assert_eq!(argmin_algo1(&tokens, &scratch, &mut rng), 3);
        // Equal normalised load (q=2,s=4 → 0.75 twice vs q=5,s=8 →
        // 0.75): all tie on load, slot 2's larger speed wins without
        // consuming a draw.
        let tokens = [4usize, 2, 5];
        gather(&dense, &tokens, |t| t, &mut scratch);
        let before = rng.next();
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(1);
        assert_eq!(argmin_algo1(&tokens, &scratch, &mut rng), 2);
        assert_eq!(rng.next(), before, "speed tie-break draws nothing");
    }

    #[test]
    fn duplicate_tokens_collapse() {
        let dense = fleet();
        let tokens = [6usize, 6, 6, 6];
        let mut scratch = ScanScratch::new();
        gather(&dense, &tokens, |t| t, &mut scratch);
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(2);
        let before = rng.next();
        let mut rng = Xoshiro256PlusPlus::from_u64_seed(2);
        assert_eq!(argmin_algo1(&tokens, &scratch, &mut rng), 6);
        assert_eq!(rng.next(), before, "duplicates are not ties");
    }

    #[test]
    fn residual_ties_reservoir_uniformly() {
        // Two identical servers: over many seeds both must win often.
        let dense = DenseFleet {
            queues: vec![1, 1],
            speeds: vec![4, 4],
        };
        let tokens = [0usize, 1];
        let mut scratch = ScanScratch::new();
        gather(&dense, &tokens, |t| t, &mut scratch);
        let mut wins = [0u32; 2];
        for seed in 0..200 {
            let mut rng = Xoshiro256PlusPlus::from_u64_seed(seed);
            wins[argmin_algo1(&tokens, &scratch, &mut rng)] += 1;
        }
        assert!(wins[0] > 60 && wins[1] > 60, "lopsided ties: {wins:?}");
    }
}
