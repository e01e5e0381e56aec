//! The placement engine: one policy's routing state, generic over any
//! [`LoadView`].
//!
//! Four families, spanning the paper's motivation end to end:
//!
//! * [`PlacementSpec::DChoice`] — the paper's Algorithm 1 as a router:
//!   `d` candidates drawn proportionally to speed through the same
//!   [`bnb_distributions::WeightedSampler`] machinery as
//!   `bnb_core::Game`, allocation to the
//!   smallest *post-join normalised* queue `(q+1)/speed` with the
//!   capacity tie-break. On a frozen fleet (no departures) this is
//!   distribution-identical to `core::Game` with
//!   `Selection::ProportionalToCapacity` — the differential test pins
//!   that equivalence.
//! * [`PlacementSpec::ConsistentHash`] — Chord-style successor placement
//!   on a hash ring: load-oblivious, one lookup, the `Θ(log n)` arc
//!   imbalance the paper's §1 warns about.
//! * [`PlacementSpec::Rendezvous`] — weighted highest-random-weight
//!   placement: load-oblivious but *capacity-fair* in expectation.
//! * [`PlacementSpec::HashThenProbe`] — Byers et al.: hash the request
//!   to `d` ring points and join the successor with the fewest jobs in
//!   system; the hybrid that keeps lookup locality *and* the
//!   `ln ln n / ln d` tail.
//!
//! A [`PlacementEngine`] owns the derived structures (alias table,
//! ring, rendezvous scores) **and its own RNG streams**: candidate
//! sampling draws from a dedicated placement stream in pre-sampled
//! blocks (through [`WeightedSampler::sample_batch`], the PR-2 batched
//! machinery), and residual tie-breaks draw from a separate tie stream
//! — so placement randomness is independent of whatever streams the
//! embedder runs and a trace stays bitwise reproducible in
//! `(spec, seed, stream)`. On churn the engine is rebuilt from the new
//! [`Membership`]; ring policies rebuild **incrementally** through
//! [`MembershipRing`], so membership changes re-hash only the joiners'
//! points and never re-sort the survivors (and invalidate any
//! unconsumed candidate block, which was drawn against the old alias
//! table).

use crate::kernel::{self, ScanScratch};
use crate::spec::PlacementSpec;
use crate::view::{LoadView, Membership};
use bnb_core::choice::MAX_D;
use bnb_distributions::{derive_seed, AliasTable, WeightedSampler, Xoshiro256PlusPlus};
use bnb_hashring::churn::MembershipRing;
use bnb_hashring::hash::request_point;
use bnb_hashring::Rendezvous;

/// Stream id of the candidate-sampling RNG, derived from the engine
/// seed.
const PLACEMENT_STREAM: u64 = 0x706C_6163; // "plac"
/// Stream id of the tie-break RNG, derived from the engine seed.
const TIE_STREAM: u64 = 0x7469_6562; // "tieb"

/// Candidate tokens pre-sampled per block refill (requests' worth; the
/// buffer holds `d` tokens per request).
const CAND_REQUESTS_PER_BLOCK: usize = 512;

/// The routing state derived from a placement spec and a fleet
/// membership. Rebuilt (cheaply — ring policies incrementally) whenever
/// churn changes the membership.
#[derive(Debug, Clone)]
pub struct PlacementEngine {
    spec: PlacementSpec,
    seed: u64,
    /// Alive server slots, in creation order; every derived structure
    /// indexes into this.
    alive: Vec<usize>,
    /// Whether `alive[i] == i` for every member — true until the first
    /// departure. The d-choice hot path then skips the token → slot
    /// indirection entirely, cutting one dependent load off the
    /// token → slot → queue chain every candidate evaluation sits on.
    alive_identity: bool,
    /// Gather scratch of the batched scan kernel (`d > 2`).
    scratch: ScanScratch,
    /// `DChoice`: alias table over alive speeds.
    alias: Option<AliasTable>,
    /// Ring policies: membership ring over alive servers' stable ids,
    /// rebuilt incrementally on churn.
    ring: Option<MembershipRing>,
    /// `Rendezvous`: HRW scores over alive speeds.
    rdv: Option<Rendezvous>,
    /// Dedicated candidate-sampling stream (`DChoice` only).
    place_rng: Xoshiro256PlusPlus,
    /// Dedicated residual-tie-break stream (load-aware policies).
    tie_rng: Xoshiro256PlusPlus,
    /// Pre-sampled candidate tokens, `d` per request; refilled in
    /// blocks, invalidated by [`PlacementEngine::rebuild`].
    cand_buf: Vec<usize>,
    /// Next unconsumed token in `cand_buf`.
    cand_pos: usize,
}

impl PlacementEngine {
    /// Builds the engine for a membership, on RNG stream 0 — the stream
    /// the cluster simulator consumes, so a simulator trace and an
    /// embedded single-handle trace agree byte for byte.
    ///
    /// # Panics
    /// Panics if a `d` parameter is outside `1..=MAX_D` or a `vnodes`
    /// parameter is zero.
    #[must_use]
    pub fn new(spec: PlacementSpec, membership: &Membership, seed: u64) -> Self {
        Self::with_stream(spec, membership, seed, 0)
    }

    /// Builds the engine on an explicit RNG `stream`. Concurrent router
    /// handles clone onto distinct streams so their candidate and
    /// tie-break draws are independent — same `(spec, seed)`, disjoint
    /// randomness.
    ///
    /// # Panics
    /// Panics under the same conditions as [`PlacementEngine::new`].
    #[must_use]
    pub fn with_stream(
        spec: PlacementSpec,
        membership: &Membership,
        seed: u64,
        stream: u64,
    ) -> Self {
        match spec {
            PlacementSpec::DChoice { d } | PlacementSpec::HashThenProbe { d, .. } => {
                assert!(
                    (1..=MAX_D).contains(&d),
                    "d must be in 1..={MAX_D}, got {d}"
                );
            }
            PlacementSpec::ConsistentHash { .. } | PlacementSpec::Rendezvous => {}
        }
        if let PlacementSpec::ConsistentHash { vnodes }
        | PlacementSpec::HashThenProbe { vnodes, .. } = spec
        {
            assert!(vnodes > 0, "need at least one vnode");
        }
        let mut engine = PlacementEngine {
            spec,
            seed,
            alive: Vec::new(),
            alive_identity: false,
            scratch: ScanScratch::new(),
            alias: None,
            ring: None,
            rdv: None,
            place_rng: Xoshiro256PlusPlus::from_u64_seed(derive_seed(
                seed,
                PLACEMENT_STREAM,
                stream,
            )),
            tie_rng: Xoshiro256PlusPlus::from_u64_seed(derive_seed(seed, TIE_STREAM, stream)),
            cand_buf: Vec::new(),
            cand_pos: 0,
        };
        engine.rebuild(membership);
        engine
    }

    /// The placement spec in force.
    #[must_use]
    pub fn spec(&self) -> PlacementSpec {
        self.spec
    }

    /// Recomputes the derived structures after a membership change. Ring
    /// policies go through [`MembershipRing::update`] on the alive
    /// servers' stable ids, so surviving servers keep their exact arcs
    /// and only joiners' points are hashed. Any unconsumed pre-sampled
    /// candidates are discarded: they were drawn against the old
    /// membership's alias table.
    pub fn rebuild(&mut self, membership: &Membership) {
        self.alive.clear();
        self.alive
            .extend(membership.members().iter().map(|m| m.slot));
        self.alive_identity = self.alive.iter().enumerate().all(|(i, &s)| i == s);
        self.cand_pos = self.cand_buf.len();
        match self.spec {
            PlacementSpec::DChoice { d } => {
                let weights: Vec<f64> = membership
                    .members()
                    .iter()
                    .map(|m| m.speed as f64)
                    .collect();
                self.alias = Some(AliasTable::new(&weights));
                // Resize in place: churn rebuilds must not reallocate
                // the candidate block every tick.
                self.cand_buf.resize(d * CAND_REQUESTS_PER_BLOCK, 0);
                self.cand_pos = self.cand_buf.len();
            }
            PlacementSpec::ConsistentHash { vnodes }
            | PlacementSpec::HashThenProbe { vnodes, .. } => {
                let ids: Vec<u64> = membership.members().iter().map(|m| m.id).collect();
                match &mut self.ring {
                    Some(ring) => ring.update(&ids),
                    None => self.ring = Some(MembershipRing::new(self.seed, vnodes, &ids)),
                }
            }
            PlacementSpec::Rendezvous => {
                let weights: Vec<f64> = membership
                    .members()
                    .iter()
                    .map(|m| m.speed as f64)
                    .collect();
                self.rdv = Some(Rendezvous::new(weights, self.seed));
            }
        }
    }

    /// Whether this policy reads the request key at all (`DChoice` is
    /// key-oblivious, so callers can skip hashing a key for it).
    #[must_use]
    pub fn needs_key(&self) -> bool {
        !matches!(self.spec, PlacementSpec::DChoice { .. })
    }

    /// Routes a request with hash `key` against the given load view,
    /// returning the target server's slot index. Only the load-aware
    /// policies consume RNG draws — candidate sampling from the
    /// engine's placement stream (block pre-sampled), residual
    /// tie-breaks from its tie stream.
    ///
    /// Using an engine whose membership is stale (the fleet churned
    /// since the last [`PlacementEngine::rebuild`]) is a logic error
    /// the engine cannot detect by itself — a leave+join pair keeps the
    /// alive *count* unchanged — so embedders keep a backstop
    /// downstream (the cluster simulator's `Fleet::try_join` panics
    /// when a request is routed to a departed slot).
    #[inline]
    #[must_use]
    pub fn place(&mut self, view: &impl LoadView, key: u64) -> usize {
        match self.spec {
            PlacementSpec::DChoice { d } => {
                if d == 2 {
                    // The dominant configuration, unrolled; shared with
                    // the fused cluster loop.
                    return self.place_d2(view);
                }
                if self.cand_pos + d > self.cand_buf.len() {
                    // Refill the candidate block: identical draw order
                    // to d successive scalar samples per request.
                    let alias = self.alias.as_ref().expect("alias built for DChoice");
                    alias.sample_batch(&mut self.place_rng, &mut self.cand_buf);
                    self.cand_pos = 0;
                }
                let pos = self.cand_pos;
                self.cand_pos += d;
                // Algorithm 1 over the candidate *set* through the
                // batched scan kernel: chunked gather of the loads,
                // then the same dedup + reservoir argmin
                // (smallest post-join normalised queue, capacity
                // tie-break, residual ties uniform — bit-identical RNG
                // draws to the scalar scan it replaced).
                let tokens = &self.cand_buf[pos..pos + d];
                if self.alive_identity {
                    kernel::gather(view, tokens, |t| t, &mut self.scratch);
                } else {
                    kernel::gather(view, tokens, |t| self.alive[t], &mut self.scratch);
                }
                kernel::argmin_algo1(tokens, &self.scratch, &mut self.tie_rng)
            }
            PlacementSpec::ConsistentHash { .. } => {
                let ring = self.ring.as_ref().expect("ring built for ConsistentHash");
                self.alive[ring.ring().successor(key)]
            }
            PlacementSpec::Rendezvous => {
                let rdv = self.rdv.as_ref().expect("scores built for Rendezvous");
                self.alive[rdv.owner(key)]
            }
            PlacementSpec::HashThenProbe { d, .. } => {
                let ring = self
                    .ring
                    .as_ref()
                    .expect("ring built for HashThenProbe")
                    .ring();
                // Byers et al.: d probe points, join the successor with
                // the fewest jobs in system; ties uniform over distinct
                // candidates.
                if d == 2 {
                    // The dominant probe count, unrolled with the same
                    // dedup/tie semantics as the reservoir scan below.
                    let p0 = ring.successor(request_point(self.seed, key, 0));
                    let p1 = ring.successor(request_point(self.seed, key, 1));
                    let s0 = self.alive[p0];
                    if p0 == p1 {
                        return s0;
                    }
                    let s1 = self.alive[p1];
                    let (q0, q1) = (view.queue_len(s0), view.queue_len(s1));
                    if q1 != q0 {
                        return if q1 < q0 { s1 } else { s0 };
                    }
                    return if self.tie_rng.next_below(2) == 0 {
                        s1
                    } else {
                        s0
                    };
                }
                let mut probes = [0usize; MAX_D];
                for (k, probe) in probes[..d].iter_mut().enumerate() {
                    *probe = ring.successor(request_point(self.seed, key, k as u64));
                }
                reservoir_argmin(
                    &probes[..d],
                    &mut self.tie_rng,
                    |peer| self.alive[peer],
                    |s| view.queue_len(s),
                )
            }
        }
    }

    /// Routes a request against `view` **without touching any engine
    /// state** — `&self`, so a frozen engine shared through an `Arc`
    /// can serve placement from many threads at once. The caller
    /// supplies the randomness: a short-lived `rng` per request,
    /// consumed for candidate sampling first and residual tie-breaks
    /// second (`DChoice`), or tie-breaks only (`HashThenProbe`); the
    /// key-pure policies draw nothing.
    ///
    /// This produces a *different trace* from [`PlacementEngine::place`]
    /// (which block pre-samples from the engine's own streams): a
    /// stateless placement is a pure function of
    /// `(spec, membership, key, rng state)` — independent of call
    /// order, thread count and shard layout — which is exactly the
    /// invariance the sharded cluster simulator's worker-count
    /// byte-identity rests on. Selection semantics are Algorithm 1's,
    /// unchanged: speed-proportional candidates, smallest post-join
    /// normalised queue by exact cross-multiplication, capacity
    /// tie-break towards the faster server, residual ties uniform.
    ///
    /// # Panics
    /// Panics if the engine was built for a different policy family
    /// than its derived structures (impossible through the public
    /// constructors).
    #[inline]
    #[must_use]
    pub fn place_stateless(
        &self,
        view: &impl LoadView,
        key: u64,
        rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        match self.spec {
            PlacementSpec::DChoice { d } => {
                let alias = self.alias.as_ref().expect("alias built for DChoice");
                if d == 2 {
                    let (a, b) = (alias.sample(rng), alias.sample(rng));
                    let (sa, sb) = if self.alive_identity {
                        (a, b)
                    } else {
                        (self.alive[a], self.alive[b])
                    };
                    if a == b {
                        return sa;
                    }
                    let ((qa, ca), (qb, cb)) = if let Some((queues, speeds)) = view.dense() {
                        ((queues[sa], speeds[sa]), (queues[sb], speeds[sb]))
                    } else {
                        (view.load(sa), view.load(sb))
                    };
                    let lhs = (qa + 1) as u128 * cb as u128;
                    let rhs = (qb + 1) as u128 * ca as u128;
                    if lhs != rhs {
                        return if lhs < rhs { sa } else { sb };
                    }
                    if ca != cb {
                        return if ca > cb { sa } else { sb };
                    }
                    return if rng.next_below(2) == 0 { sb } else { sa };
                }
                let mut tokens = [0usize; MAX_D];
                for token in tokens[..d].iter_mut() {
                    *token = alias.sample(rng);
                }
                self.argmin_algo1_stateless(view, &tokens[..d], rng)
            }
            PlacementSpec::ConsistentHash { .. } => {
                let ring = self.ring.as_ref().expect("ring built for ConsistentHash");
                self.alive[ring.ring().successor(key)]
            }
            PlacementSpec::Rendezvous => {
                let rdv = self.rdv.as_ref().expect("scores built for Rendezvous");
                self.alive[rdv.owner(key)]
            }
            PlacementSpec::HashThenProbe { d, .. } => {
                let ring = self
                    .ring
                    .as_ref()
                    .expect("ring built for HashThenProbe")
                    .ring();
                let mut probes = [0usize; MAX_D];
                for (k, probe) in probes[..d].iter_mut().enumerate() {
                    *probe = ring.successor(request_point(self.seed, key, k as u64));
                }
                reservoir_argmin(
                    &probes[..d],
                    rng,
                    |peer| self.alive[peer],
                    |s| view.queue_len(s),
                )
            }
        }
    }

    /// Algorithm 1's dedup-prefix reservoir argmin over `d` candidate
    /// tokens, stateless edition: the exact cross-multiplied
    /// `(q+1)/speed` order with capacity tie-break (the order
    /// `kernel::argmin_algo1` evaluates through its gather scratch),
    /// but reading loads per candidate through the view and drawing
    /// residual ties from the caller's `rng`.
    fn argmin_algo1_stateless(
        &self,
        view: &impl LoadView,
        tokens: &[usize],
        rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        let slot_of = |t: usize| {
            if self.alive_identity {
                t
            } else {
                self.alive[t]
            }
        };
        let mut best = slot_of(tokens[0]);
        let (mut best_q, mut best_c) = view.load(best);
        let mut ties = 1u64;
        for idx in 1..tokens.len() {
            if tokens[..idx].contains(&tokens[idx]) {
                continue;
            }
            let cand = slot_of(tokens[idx]);
            let (q, c) = view.load(cand);
            // cand beats best iff (q+1)/c < (best_q+1)/best_c, by exact
            // cross-multiplication; equal ratios tie-break to the
            // faster server; full ties go to the 1/k reservoir.
            let lhs = (q + 1) as u128 * best_c as u128;
            let rhs = (best_q + 1) as u128 * c as u128;
            match lhs.cmp(&rhs).then(best_c.cmp(&c)) {
                std::cmp::Ordering::Less => {
                    best = cand;
                    best_q = q;
                    best_c = c;
                    ties = 1;
                }
                std::cmp::Ordering::Equal => {
                    ties += 1;
                    if rng.next_below(ties) == 0 {
                        best = cand;
                        best_q = q;
                        best_c = c;
                    }
                }
                std::cmp::Ordering::Greater => {}
            }
        }
        best
    }

    /// The unrolled `d = 2` placement of Algorithm 1 — the dominant
    /// configuration, called per request by both
    /// [`PlacementEngine::place`] and the fused cluster drive loop.
    /// Semantics (candidate draws, dedup, capacity tie-break, residual
    /// tie-stream draw) are exactly the reservoir scan's, which the
    /// equivalence tests pin.
    ///
    /// # Panics
    /// Panics if the engine's policy is not `DChoice` (the alias table
    /// is missing).
    #[inline]
    pub fn place_d2(&mut self, view: &impl LoadView) -> usize {
        if self.cand_pos + 2 > self.cand_buf.len() {
            // Refill the candidate block: identical draw order to two
            // successive scalar samples per request.
            let alias = self.alias.as_ref().expect("alias built for DChoice");
            alias.sample_batch(&mut self.place_rng, &mut self.cand_buf);
            self.cand_pos = 0;
        }
        let pos = self.cand_pos;
        self.cand_pos += 2;
        let (a, b) = (self.cand_buf[pos], self.cand_buf[pos + 1]);
        // On an unchurned fleet the token *is* the slot: skip the alive
        // indirection and shorten the token → slot → queue load chain
        // by a level (the common case — every no-churn scenario).
        let (sa, sb) = if self.alive_identity {
            (a, b)
        } else {
            (self.alive[a], self.alive[b])
        };
        if a == b {
            return sa;
        }
        // Algorithm 1's key, written out directly instead of through the
        // `(Load, u64)` tuple `Ord`: smallest post-join normalised load
        // `(q+1)/speed` by exact cross-multiplication, capacity
        // tie-break towards the faster server, residual ties uniform —
        // the identical order `placement_key` induces, with two fewer
        // data-dependent branches per request.
        let ((qa, ca), (qb, cb)) = if let Some((queues, speeds)) = view.dense() {
            ((queues[sa], speeds[sa]), (queues[sb], speeds[sb]))
        } else {
            (view.load(sa), view.load(sb))
        };
        let lhs = (qa + 1) as u128 * cb as u128;
        let rhs = (qb + 1) as u128 * ca as u128;
        if lhs != rhs {
            return if lhs < rhs { sa } else { sb };
        }
        if ca != cb {
            return if ca > cb { sa } else { sb };
        }
        if self.tie_rng.next_below(2) == 0 {
            sb
        } else {
            sa
        }
    }
}

/// Reservoir-tied argmin over a candidate token prefix, skipping
/// duplicate tokens — the dedup-prefix scan + 1/k reservoir tie
/// semantics shared with `core::policy`'s Algorithm 1 (which the
/// differential test pins). `map` converts a token (alias index or ring
/// peer) to a server slot; `key` orders slots, smaller wins. Consumes
/// one RNG draw per residual tie, none otherwise.
///
/// # Panics
/// Panics if `tokens` is empty.
fn reservoir_argmin<K: Ord>(
    tokens: &[usize],
    rng: &mut Xoshiro256PlusPlus,
    map: impl Fn(usize) -> usize,
    key: impl Fn(usize) -> K,
) -> usize {
    let mut best = map(tokens[0]);
    let mut best_key = key(best);
    let mut ties = 1u64;
    for idx in 1..tokens.len() {
        if tokens[..idx].contains(&tokens[idx]) {
            continue;
        }
        let cand = map(tokens[idx]);
        let cand_key = key(cand);
        match cand_key.cmp(&best_key) {
            std::cmp::Ordering::Less => {
                best = cand;
                best_key = cand_key;
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
    use crate::view::DenseView;
    use bnb_hashring::hash::mix64;

    /// A plain single-threaded load mirror standing in for the cluster
    /// fleet: enough to drive every policy through the engine.
    struct TestFleet {
        loads: Vec<(u64, u64)>,
    }

    impl TestFleet {
        fn new(speeds: &[u64]) -> Self {
            TestFleet {
                loads: speeds.iter().map(|&s| (0, s)).collect(),
            }
        }

        fn membership(&self) -> Membership {
            Membership::from_speeds(&self.loads.iter().map(|&(_, s)| s).collect::<Vec<_>>())
        }

        fn join(&mut self, slot: usize) {
            self.loads[slot].0 += 1;
        }
    }

    impl LoadView for TestFleet {
        fn load(&self, slot: usize) -> (u64, u64) {
            self.loads[slot]
        }
    }

    fn two_class_fleet() -> TestFleet {
        // 4 slow (speed 1) + 4 fast (speed 8).
        TestFleet::new(&[1, 1, 1, 1, 8, 8, 8, 8])
    }

    #[test]
    fn dchoice_prefers_the_emptier_normalised_queue() {
        let mut fleet = two_class_fleet();
        // Pile jobs on every slow server so any fast candidate wins.
        for i in 0..4 {
            for _ in 0..5 {
                fleet.join(i);
            }
        }
        let mut engine =
            PlacementEngine::new(PlacementSpec::DChoice { d: 2 }, &fleet.membership(), 7);
        // Whenever the candidate pair contains a fast server it must win;
        // only the ≈1.2% both-slow draws may pick a slow one.
        let fast_picks = (0..400).filter(|_| engine.place(&fleet, 0) >= 4).count();
        assert!(
            fast_picks >= 380,
            "idle fast servers picked only {fast_picks}/400 times"
        );
    }

    #[test]
    fn dchoice_candidate_blocks_span_refills_deterministically() {
        // Two identical engines must agree placement-by-placement far
        // past the candidate-block boundary (512 requests per refill).
        let fleet = two_class_fleet();
        let m = fleet.membership();
        let mut a = PlacementEngine::new(PlacementSpec::DChoice { d: 2 }, &m, 9);
        let mut b = PlacementEngine::new(PlacementSpec::DChoice { d: 2 }, &m, 9);
        for i in 0..2_000u64 {
            assert_eq!(a.place(&fleet, i), b.place(&fleet, i), "request {i}");
        }
    }

    #[test]
    fn distinct_streams_diverge() {
        // Cloned router handles route on distinct RNG streams: same
        // (spec, seed), different candidate draws.
        let fleet = two_class_fleet();
        let m = fleet.membership();
        let mut s0 = PlacementEngine::with_stream(PlacementSpec::DChoice { d: 2 }, &m, 9, 0);
        let mut s1 = PlacementEngine::with_stream(PlacementSpec::DChoice { d: 2 }, &m, 9, 1);
        let agree = (0..512)
            .filter(|_| s0.place(&fleet, 0) == s1.place(&fleet, 0))
            .count();
        assert!(
            agree < 512,
            "independent streams must not replay each other"
        );
    }

    #[test]
    fn consistent_hash_is_key_pure_and_deterministic() {
        let fleet = two_class_fleet();
        let m = fleet.membership();
        let mut engine = PlacementEngine::new(PlacementSpec::ConsistentHash { vnodes: 8 }, &m, 42);
        let mut other = PlacementEngine::new(PlacementSpec::ConsistentHash { vnodes: 8 }, &m, 42);
        assert!(engine.needs_key());
        for key in 0..500u64 {
            let t = engine.place(&fleet, key);
            // Same key, any call order, any engine instance: same target.
            assert_eq!(t, engine.place(&fleet, key));
            assert_eq!(t, other.place(&fleet, key), "instance-independent");
        }
    }

    #[test]
    fn rendezvous_shares_follow_speeds() {
        let fleet = two_class_fleet();
        let mut engine = PlacementEngine::new(PlacementSpec::Rendezvous, &fleet.membership(), 3);
        let mut fast = 0u64;
        let n = 40_000u64;
        for key in 0..n {
            if engine.place(&fleet, mix64(key)) >= 4 {
                fast += 1;
            }
        }
        // Fast servers hold 32/36 of the weight ≈ 0.889.
        let frac = fast as f64 / n as f64;
        assert!((frac - 32.0 / 36.0).abs() < 0.02, "fast share {frac}");
    }

    #[test]
    fn hash_then_probe_avoids_the_loaded_successor() {
        let mut fleet = TestFleet::new(&[1; 16]);
        let m = fleet.membership();
        let mut engine =
            PlacementEngine::new(PlacementSpec::HashThenProbe { d: 2, vnodes: 4 }, &m, 11);
        // Route a stream of requests, loading as we go: max load must
        // stay far below the one-choice successor pile-up.
        let mut one = PlacementEngine::new(PlacementSpec::ConsistentHash { vnodes: 4 }, &m, 11);
        let mut one_counts = [0u64; 16];
        for key in 0..1600u64 {
            let hashed = mix64(key ^ 0xC0FFEE);
            let t = engine.place(&fleet, hashed);
            fleet.join(t);
            one_counts[one.place(&fleet, hashed)] += 1;
        }
        let probe_max = fleet.loads.iter().map(|&(q, _)| q).max().unwrap();
        let one_max = *one_counts.iter().max().unwrap();
        assert!(
            probe_max < one_max,
            "probing ({probe_max}) should beat successor placement ({one_max})"
        );
    }

    #[test]
    fn rebuild_after_churn_reroutes_only_necessary_keys() {
        let fleet = TestFleet::new(&[2; 10]);
        let m = fleet.membership();
        let mut engine = PlacementEngine::new(PlacementSpec::ConsistentHash { vnodes: 16 }, &m, 9);
        let keys: Vec<u64> = (0..2000u64).map(mix64).collect();
        let before: Vec<usize> = keys.iter().map(|&k| engine.place(&fleet, k)).collect();
        let victim = 3;
        let survivors = Membership::new(
            m.members()
                .iter()
                .copied()
                .filter(|mm| mm.slot != victim)
                .collect(),
        );
        engine.rebuild(&survivors);
        let mut moved = 0;
        for (i, &k) in keys.iter().enumerate() {
            let after = engine.place(&fleet, k);
            if after != before[i] {
                moved += 1;
                assert_eq!(
                    before[i], victim,
                    "a key moved that the departed server never owned"
                );
            }
            assert_ne!(after, victim, "key still routed to the departed server");
        }
        // The victim owned ≈ 1/10 of the keys; all (and only) those move.
        assert!(moved > 0, "the departed server's keys must move");
    }

    #[test]
    fn place_stateless_is_pure_in_key_and_rng_state() {
        // The stateless path must be a pure function of
        // (spec, membership, key, rng state): any call order, any
        // engine instance, same target — the invariance the sharded
        // simulator's worker-count byte-identity rests on.
        let mut fleet = two_class_fleet();
        for i in 0..4 {
            fleet.join(i);
        }
        let m = fleet.membership();
        for spec in [
            PlacementSpec::DChoice { d: 2 },
            PlacementSpec::DChoice { d: 4 },
            PlacementSpec::ConsistentHash { vnodes: 8 },
            PlacementSpec::Rendezvous,
            PlacementSpec::HashThenProbe { d: 3, vnodes: 8 },
        ] {
            let a = PlacementEngine::new(spec, &m, 7);
            let b = PlacementEngine::new(spec, &m, 7);
            // Forward order on `a`, reverse order on `b`.
            let targets: Vec<usize> = (0..256u64)
                .map(|i| {
                    let mut rng = Xoshiro256PlusPlus::from_u64_seed(derive_seed(7, i, 0));
                    a.place_stateless(&fleet, mix64(i), &mut rng)
                })
                .collect();
            for i in (0..256u64).rev() {
                let mut rng = Xoshiro256PlusPlus::from_u64_seed(derive_seed(7, i, 0));
                assert_eq!(
                    b.place_stateless(&fleet, mix64(i), &mut rng),
                    targets[i as usize],
                    "{}: request {i}",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn place_stateless_prefers_the_emptier_normalised_queue() {
        // Same Algorithm 1 semantics as the stateful path: with every
        // slow server loaded, any pair containing a fast candidate
        // must pick the fast one.
        let mut fleet = two_class_fleet();
        for i in 0..4 {
            for _ in 0..5 {
                fleet.join(i);
            }
        }
        let engine = PlacementEngine::new(PlacementSpec::DChoice { d: 2 }, &fleet.membership(), 7);
        let fast_picks = (0..400u64)
            .filter(|&i| {
                let mut rng = Xoshiro256PlusPlus::from_u64_seed(derive_seed(11, i, 0));
                engine.place_stateless(&fleet, 0, &mut rng) >= 4
            })
            .count();
        assert!(
            fast_picks >= 380,
            "idle fast servers picked only {fast_picks}/400 times"
        );
    }

    #[test]
    fn place_stateless_key_pure_policies_agree_with_place() {
        // ConsistentHash and Rendezvous read only the key, so the
        // stateless and stateful paths must agree target-for-target.
        let fleet = two_class_fleet();
        let m = fleet.membership();
        for spec in [
            PlacementSpec::ConsistentHash { vnodes: 8 },
            PlacementSpec::Rendezvous,
        ] {
            let mut stateful = PlacementEngine::new(spec, &m, 42);
            let stateless = PlacementEngine::new(spec, &m, 42);
            let mut rng = Xoshiro256PlusPlus::from_u64_seed(0);
            for key in 0..500u64 {
                let k = mix64(key);
                assert_eq!(
                    stateless.place_stateless(&fleet, k, &mut rng),
                    stateful.place(&fleet, k),
                    "{}: key {key}",
                    spec.name()
                );
            }
        }
    }

    /// The same loads as a [`DenseView`], with the slices hidden: only
    /// [`LoadView::load`], the path the simulator's fleet takes.
    struct LoadOnly<'a>(DenseView<'a>);

    impl LoadView for LoadOnly<'_> {
        fn load(&self, slot: usize) -> (u64, u64) {
            self.0.load(slot)
        }
    }

    #[test]
    fn load_only_views_place_like_dense_views() {
        // Tie-heavy loads (three speeds, short queues), on an unchurned
        // membership and on one with every third slot departed.
        let speeds: Vec<u64> = (0..24).map(|i| [1, 2, 4][i % 3]).collect();
        let full = Membership::from_speeds(&speeds);
        let churned = Membership::new(
            full.members()
                .iter()
                .copied()
                .filter(|m| m.slot % 3 != 1)
                .collect(),
        );
        for membership in [&full, &churned] {
            for d in [2, 3] {
                let spec = PlacementSpec::DChoice { d };
                let mut dense = PlacementEngine::new(spec, membership, 5);
                let mut load_only = dense.clone();
                let fresh = dense.clone();
                let mut queues = vec![0u64; speeds.len()];
                for r in 0..3_000usize {
                    let (a, b) = {
                        let view = DenseView::new(&queues, &speeds);
                        if d == 2 {
                            (dense.place_d2(&view), load_only.place_d2(&LoadOnly(view)))
                        } else {
                            (dense.place(&view, 0), load_only.place(&LoadOnly(view), 0))
                        }
                    };
                    assert_eq!(a, b, "d={d}, request {r}: views picked different slots");
                    queues[a] += 1;
                    // Drain one job per request so queues stay short.
                    let drained = (r * 7) % speeds.len();
                    queues[drained] = queues[drained].saturating_sub(1);
                }
                assert_eq!(
                    dense.tie_rng, load_only.tie_rng,
                    "d={d}: tie streams diverged"
                );
                assert_eq!(dense.place_rng, load_only.place_rng);
                assert_ne!(dense.tie_rng, fresh.tie_rng, "d={d}: no tie was drawn");
            }
        }
    }

    #[test]
    #[should_panic(expected = "d must be in 1..=")]
    fn oversized_d_rejected() {
        let fleet = two_class_fleet();
        let _ = PlacementEngine::new(PlacementSpec::DChoice { d: 99 }, &fleet.membership(), 0);
    }
}
