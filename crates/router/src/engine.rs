//! The placement engine: one policy's routing state, generic over any
//! [`LoadView`].
//!
//! Four families, spanning the paper's motivation end to end, plus two
//! d-choice ablations:
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
//! * [`PlacementSpec::ShortestQueue`] and [`PlacementSpec::UniformDChoice`]
//!   — Algorithm 1 with one ingredient removed: the speed-blind
//!   fewest-jobs compare over speed-proportional candidates, and the
//!   normalised compare over uniformly drawn candidates.
//!
//! A [`PlacementEngine`] owns the derived structures (alias table,
//! ring, rendezvous scores) **and its own RNG streams**: candidate
//! sampling draws from a dedicated placement stream in pre-sampled
//! blocks (through [`WeightedSampler::sample_batch`]), and residual
//! tie-breaks draw from a separate tie stream — so placement randomness
//! is independent of whatever streams the caller runs and a trace
//! stays bitwise reproducible in `(spec, seed)`. A fresh
//! fleet's engine is built straight from its speeds
//! ([`PlacementEngine::from_speeds`]), without a [`Membership`] list.
//! On churn the engine is rebuilt from the new [`Membership`]; ring
//! policies rebuild **incrementally** through [`MembershipRing`], so
//! membership changes re-hash only the joiners' points and never
//! re-sort the survivors (and invalidate any unconsumed candidate
//! block, which was drawn against the old alias table).
//!
//! [`PlacementEngine::place`] and [`PlacementEngine::place_stateless`]
//! share one arm per policy family; they differ only in where the
//! candidate tokens and tie draws come from. Every load-aware arm
//! compares its candidates through `bnb_core`'s
//! [`argmin_distinct`], the one implementation of Algorithm 1's scan
//! (smallest key, duplicates collapsed, residual ties by a 1/k
//! reservoir). Two `d = 2` arms are unrolled beside it and pinned to it
//! by tests: the d-choice pair (`place_d2`, reached only through
//! [`PlacementEngine::place`]) and the hash-then-probe pair.

use crate::spec::PlacementSpec;
use crate::view::{LoadView, Member, Membership};
use bnb_core::choice::MAX_D;
use bnb_core::policy::{algorithm1_key, argmin_distinct};
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
    /// What a placement reads: the spec and the structures derived from
    /// the membership.
    routes: Routes,
    /// Dedicated candidate-sampling stream (sampled policies only).
    place_rng: Xoshiro256PlusPlus,
    /// Dedicated residual-tie-break stream (load-aware policies).
    tie_rng: Xoshiro256PlusPlus,
    /// Pre-sampled candidate tokens, `d` per request; refilled in
    /// blocks, invalidated by [`PlacementEngine::rebuild`].
    cand_buf: Vec<usize>,
    /// Next unconsumed token in `cand_buf`.
    cand_pos: usize,
}

/// The spec and the structures derived from one membership: everything
/// a placement reads and nothing it writes.
#[derive(Debug, Clone)]
struct Routes {
    spec: PlacementSpec,
    seed: u64,
    /// Alive server slots, in creation order, indexed by token (every
    /// derived structure's index); read only through [`Routes::slot`].
    /// Empty while the membership is the identity: no list is built
    /// (or allocated) before the first departure.
    alive: Vec<usize>,
    /// Whether member `i` occupies slot `i` for every member — true
    /// until the first departure. A token then *is* its slot, and
    /// [`Routes::slot`] skips the indirection entirely, cutting one
    /// dependent load off the token → slot → queue chain every
    /// candidate evaluation sits on.
    alive_identity: bool,
    /// Sampled policies: alias table over alive speeds (unit weights
    /// for `UniformDChoice`).
    alias: Option<AliasTable>,
    /// Ring policies: membership ring over alive servers' stable ids,
    /// rebuilt incrementally on churn.
    ring: Option<MembershipRing>,
    /// `Rendezvous`: HRW scores over alive speeds, hashed under the
    /// servers' stable ids.
    rdv: Option<Rendezvous>,
}

impl PlacementEngine {
    /// Builds the engine for a membership.
    ///
    /// # Panics
    /// Panics if a `d` parameter is outside `1..=MAX_D` or a `vnodes`
    /// parameter is zero.
    #[must_use]
    pub fn new(spec: PlacementSpec, membership: &Membership, seed: u64) -> Self {
        Self::build(spec, Members::Listed(membership), seed)
    }

    /// Builds the engine for a fresh fleet of servers with these
    /// `speeds`: the engine
    /// `new(spec, &Membership::from_speeds(speeds), seed)` builds
    /// (member `i` is slot `i` with id `i`), read from the slice
    /// without building the member list.
    ///
    /// # Panics
    /// Panics if `speeds` is empty or holds a zero, or under the
    /// conditions of [`PlacementEngine::new`].
    #[must_use]
    pub fn from_speeds(spec: PlacementSpec, speeds: &[u64], seed: u64) -> Self {
        assert!(!speeds.is_empty(), "membership needs at least one member");
        assert!(
            speeds.iter().all(|&s| s > 0),
            "member speeds must be positive"
        );
        Self::build(spec, Members::Fresh(speeds), seed)
    }

    /// The one constructor body behind [`PlacementEngine::new`] and
    /// [`PlacementEngine::from_speeds`]. Both RNG streams are derived
    /// at stream index 0.
    fn build(spec: PlacementSpec, members: Members<'_>, seed: u64) -> Self {
        match spec {
            PlacementSpec::DChoice { d }
            | PlacementSpec::ShortestQueue { d }
            | PlacementSpec::UniformDChoice { d }
            | PlacementSpec::HashThenProbe { d, .. } => {
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
            routes: Routes {
                spec,
                seed,
                alive: Vec::new(),
                alive_identity: false,
                alias: None,
                ring: None,
                rdv: None,
            },
            place_rng: Xoshiro256PlusPlus::from_u64_seed(derive_seed(seed, PLACEMENT_STREAM, 0)),
            tie_rng: Xoshiro256PlusPlus::from_u64_seed(derive_seed(seed, TIE_STREAM, 0)),
            cand_buf: Vec::new(),
            cand_pos: 0,
        };
        engine.refresh(members);
        engine
    }

    /// Recomputes the derived structures after a membership change. Ring
    /// policies go through [`MembershipRing::update`] on the alive
    /// servers' stable ids, so surviving servers keep their exact arcs
    /// and only joiners' points are hashed. Any unconsumed pre-sampled
    /// candidates are discarded: they were drawn against the old
    /// membership's alias table.
    pub fn rebuild(&mut self, membership: &Membership) {
        self.refresh(Members::Listed(membership));
    }

    /// Rebuilds the routes over `members` and invalidates the candidate
    /// block.
    fn refresh(&mut self, members: Members<'_>) {
        self.routes.rebuild(members);
        if let Some(d) = self.routes.sampled_d() {
            // Resize in place: churn rebuilds must not reallocate the
            // candidate block every tick.
            self.cand_buf.resize(d * CAND_REQUESTS_PER_BLOCK, 0);
        }
        self.cand_pos = self.cand_buf.len();
    }

    /// Whether this policy reads the request key at all (the sampled
    /// d-choice families are key-oblivious, so callers can skip hashing
    /// a key for them).
    #[must_use]
    pub fn needs_key(&self) -> bool {
        matches!(
            self.routes.spec,
            PlacementSpec::ConsistentHash { .. }
                | PlacementSpec::Rendezvous
                | PlacementSpec::HashThenProbe { .. }
        )
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
    /// alive *count* unchanged — so callers keep a backstop
    /// downstream (the cluster simulator's `Fleet::try_join` panics
    /// when a request is routed to a departed slot).
    #[inline]
    #[must_use]
    pub fn place(&mut self, view: &impl LoadView, key: u64) -> usize {
        match self.routes.spec {
            PlacementSpec::DChoice { d: 2 } | PlacementSpec::UniformDChoice { d: 2 } => {
                // The dominant configuration, unrolled.
                self.place_d2(view)
            }
            PlacementSpec::DChoice { d }
            | PlacementSpec::ShortestQueue { d }
            | PlacementSpec::UniformDChoice { d } => {
                let pos = self.take_candidates(d);
                let tokens = &self.cand_buf[pos..pos + d];
                self.routes.pick(view, key, tokens, &mut self.tie_rng)
            }
            _ => self.routes.pick(view, key, &[], &mut self.tie_rng),
        }
    }

    /// Routes a request against `view` **without touching any engine
    /// state** — `&self`, so a frozen engine shared through an `Arc`
    /// can serve placement from many threads at once. The caller
    /// supplies the randomness: a short-lived `rng` per request,
    /// consumed for candidate sampling first and residual tie-breaks
    /// second (the sampled d-choice families), or tie-breaks only
    /// (`HashThenProbe`); the key-pure policies draw nothing.
    ///
    /// This produces a *different trace* from [`PlacementEngine::place`]
    /// (which block pre-samples from the engine's own streams): a
    /// stateless placement is a pure function of
    /// `(spec, membership, key, rng state)` — independent of call
    /// order, thread count and shard layout — which is exactly the
    /// invariance the sharded cluster simulator's worker-count
    /// byte-identity rests on. Selection semantics are
    /// [`PlacementEngine::place`]'s: the same arm per policy family.
    #[inline]
    #[must_use]
    pub fn place_stateless(
        &self,
        view: &impl LoadView,
        key: u64,
        rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        let Some(d) = self.routes.sampled_d() else {
            return self.routes.pick(view, key, &[], rng);
        };
        let alias = self
            .routes
            .alias
            .as_ref()
            .expect("alias built for sampled policies");
        let mut tokens = [0usize; MAX_D];
        for token in &mut tokens[..d] {
            *token = alias.sample(rng);
        }
        self.routes.pick(view, key, &tokens[..d], rng)
    }

    /// Consumes the next request's `d` pre-sampled candidate tokens,
    /// returning their offset in `cand_buf`. An exhausted block is
    /// refilled first, in the draw order of `d` successive scalar
    /// samples per request.
    #[inline]
    fn take_candidates(&mut self, d: usize) -> usize {
        if self.cand_pos + d > self.cand_buf.len() {
            let alias = self
                .routes
                .alias
                .as_ref()
                .expect("alias built for sampled policies");
            alias.sample_batch(&mut self.place_rng, &mut self.cand_buf);
            self.cand_pos = 0;
        }
        let pos = self.cand_pos;
        self.cand_pos += d;
        pos
    }

    /// The two candidate slots an upcoming `DChoice { d: 2 }` placement
    /// will compare, `k` requests after the next one (`k = 0` is the
    /// next request), read from the pre-sampled candidate block and
    /// mapped to slots — valid if the membership does not change first.
    /// `None` past the current block, or under any other policy.
    /// Consumes no token and draws nothing, so a caller can load those
    /// records early without moving any placement.
    #[inline]
    #[must_use]
    pub fn peek_d2(&self, k: usize) -> Option<(usize, usize)> {
        if !matches!(self.routes.spec, PlacementSpec::DChoice { d: 2 }) {
            return None;
        }
        let pos = self.cand_pos + 2 * k;
        let tokens = self.cand_buf.get(pos..pos + 2)?;
        Some((self.routes.slot(tokens[0]), self.routes.slot(tokens[1])))
    }

    /// The unrolled `d = 2` placement of Algorithm 1 — the dominant
    /// configuration, called per request by [`PlacementEngine::place`]
    /// only. Semantics (candidate draws, dedup, capacity tie-break,
    /// residual tie-stream draw) are exactly the shared scan's, which
    /// the equivalence tests pin.
    #[inline]
    fn place_d2(&mut self, view: &impl LoadView) -> usize {
        if self.cand_pos + 2 > self.cand_buf.len() {
            // Refill the candidate block: identical draw order to two
            // successive scalar samples per request.
            let alias = self.routes.alias.as_ref().expect("alias built for DChoice");
            alias.sample_batch(&mut self.place_rng, &mut self.cand_buf);
            self.cand_pos = 0;
        }
        let pos = self.cand_pos;
        self.cand_pos += 2;
        let (a, b) = (self.cand_buf[pos], self.cand_buf[pos + 1]);
        let (sa, sb) = (self.routes.slot(a), self.routes.slot(b));
        if a == b {
            return sa;
        }
        // Algorithm 1's key, written out directly instead of through the
        // `(Load, u64)` tuple `Ord`: smallest post-join normalised load
        // `(q+1)/speed` by exact cross-multiplication, capacity
        // tie-break towards the faster server, residual ties uniform —
        // the identical order `algorithm1_key` induces, with two fewer
        // data-dependent branches per request.
        let ((qa, ca), (qb, cb)) = (view.load(sa), view.load(sb));
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

/// The members a rebuild reads, borrowed in place.
#[derive(Clone, Copy)]
enum Members<'a> {
    /// A membership's alive servers, in slot creation order.
    Listed(&'a Membership),
    /// A fresh fleet: member `i` is slot `i` with id `i` and speed
    /// `speeds[i]`.
    Fresh(&'a [u64]),
}

impl<'a> Members<'a> {
    /// The members, in slot creation order.
    fn iter(self) -> impl Iterator<Item = Member> + 'a {
        let len = match self {
            Members::Listed(membership) => membership.len(),
            Members::Fresh(speeds) => speeds.len(),
        };
        (0..len).map(move |i| match self {
            Members::Listed(membership) => membership.members()[i],
            Members::Fresh(speeds) => Member {
                slot: i,
                id: i as u64,
                speed: speeds[i],
            },
        })
    }

    /// Whether member `i` occupies slot `i` for every member. Slots
    /// strictly increase from 0, so that holds exactly when the last
    /// slot is `len - 1`.
    fn is_identity(self) -> bool {
        match self {
            Members::Listed(membership) => membership.n_slots() == membership.len(),
            Members::Fresh(_) => true,
        }
    }
}

impl Routes {
    /// Rebuilds the derived structures for `members`.
    fn rebuild(&mut self, members: Members<'_>) {
        self.alive.clear();
        self.alive_identity = members.is_identity();
        if !self.alive_identity {
            self.alive.extend(members.iter().map(|m| m.slot));
        }
        match self.spec {
            PlacementSpec::DChoice { .. }
            | PlacementSpec::ShortestQueue { .. }
            | PlacementSpec::UniformDChoice { .. } => {
                let uniform = matches!(self.spec, PlacementSpec::UniformDChoice { .. });
                self.alias = Some(AliasTable::from_weight_iter(members.iter().map(|m| {
                    if uniform {
                        1.0
                    } else {
                        m.speed as f64
                    }
                })));
            }
            PlacementSpec::ConsistentHash { vnodes }
            | PlacementSpec::HashThenProbe { vnodes, .. } => {
                let ids: Vec<u64> = members.iter().map(|m| m.id).collect();
                match &mut self.ring {
                    Some(ring) => ring.update(&ids),
                    None => self.ring = Some(MembershipRing::new(self.seed, vnodes, &ids)),
                }
            }
            PlacementSpec::Rendezvous => {
                let nodes = members.iter().map(|m| (m.speed as f64, m.id)).collect();
                self.rdv = Some(Rendezvous::with_ids(nodes, self.seed));
            }
        }
    }

    /// `d` of the families whose candidates are alias-table draws.
    #[inline]
    fn sampled_d(&self) -> Option<usize> {
        match self.spec {
            PlacementSpec::DChoice { d }
            | PlacementSpec::ShortestQueue { d }
            | PlacementSpec::UniformDChoice { d } => Some(d),
            PlacementSpec::ConsistentHash { .. }
            | PlacementSpec::Rendezvous
            | PlacementSpec::HashThenProbe { .. } => None,
        }
    }

    /// The fleet slot of token `token` (an alias index or ring peer).
    #[inline]
    fn slot(&self, token: usize) -> usize {
        if self.alive_identity {
            token
        } else {
            self.alive[token]
        }
    }

    /// One placement, one arm per policy family. `tokens` are the
    /// request's alias-table candidates (the sampled families; empty
    /// otherwise) and `ties` the stream residual ties draw from.
    /// Candidates are tokens (alias indices, ring peers);
    /// [`Routes::slot`] maps distinct tokens to distinct slots, so
    /// deduplicating tokens deduplicates servers.
    #[inline]
    fn pick(
        &self,
        view: &impl LoadView,
        key: u64,
        tokens: &[usize],
        ties: &mut Xoshiro256PlusPlus,
    ) -> usize {
        match self.spec {
            PlacementSpec::DChoice { .. } | PlacementSpec::UniformDChoice { .. } => {
                self.slot(argmin_distinct(tokens, ties, |t| {
                    let (queue, speed) = view.load(self.slot(t));
                    algorithm1_key(queue, speed)
                }))
            }
            PlacementSpec::ShortestQueue { .. } => self.slot(argmin_distinct(tokens, ties, |t| {
                view.queue_len(self.slot(t))
            })),
            PlacementSpec::ConsistentHash { .. } => {
                let ring = self.ring.as_ref().expect("ring built for ConsistentHash");
                self.slot(ring.ring().successor(key))
            }
            PlacementSpec::Rendezvous => {
                let rdv = self.rdv.as_ref().expect("scores built for Rendezvous");
                self.slot(rdv.owner(key))
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
                    // The dominant probe count, unrolled with the shared
                    // scan's dedup and draws.
                    let p0 = ring.successor(request_point(self.seed, key, 0));
                    let p1 = ring.successor(request_point(self.seed, key, 1));
                    let s0 = self.slot(p0);
                    if p0 == p1 {
                        return s0;
                    }
                    let s1 = self.slot(p1);
                    let (q0, q1) = (view.queue_len(s0), view.queue_len(s1));
                    if q1 != q0 {
                        return if q1 < q0 { s1 } else { s0 };
                    }
                    return if ties.next_below(2) == 0 { s1 } else { s0 };
                }
                let mut probes = [0usize; MAX_D];
                for (k, probe) in probes[..d].iter_mut().enumerate() {
                    *probe = ring.successor(request_point(self.seed, key, k as u64));
                }
                self.slot(argmin_distinct(&probes[..d], ties, |peer| {
                    view.queue_len(self.slot(peer))
                }))
            }
        }
    }
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
    fn peek_d2_names_the_upcoming_candidates_without_drawing() {
        // A churned membership (slots != tokens): peeks map tokens
        // through the alive list, name the pair the k-th later
        // placement compares, and leave every placement as an engine
        // that never peeks makes it.
        let mut fleet = TestFleet::new(&[1, 8, 1, 8, 1, 8, 1, 8, 1, 8, 1, 8]);
        let alive = [1, 2, 4, 7, 8, 11];
        let m = Membership::new(
            alive
                .iter()
                .map(|&slot| Member {
                    slot,
                    id: slot as u64,
                    speed: fleet.loads[slot].1,
                })
                .collect(),
        );
        let spec = PlacementSpec::DChoice { d: 2 };
        let (mut peeking, mut plain) = (
            PlacementEngine::new(spec, &m, 5),
            PlacementEngine::new(spec, &m, 5),
        );
        assert_eq!(peeking.peek_d2(0), None, "no block sampled yet");
        let mut peeks: Vec<[Option<(usize, usize)>; 4]> = Vec::new();
        let mut seen = 0;
        for i in 0..2_000usize {
            peeks.push(std::array::from_fn(|k| peeking.peek_d2(k)));
            let target = peeking.place(&fleet, 0);
            assert_eq!(target, plain.place(&fleet, 0), "request {i}");
            assert!(alive.contains(&target));
            // Every earlier peek at this request named its pair.
            for k in 0..4.min(i + 1) {
                if let Some((a, b)) = peeks[i - k][k] {
                    assert!(alive.contains(&a) && alive.contains(&b));
                    assert!(target == a || target == b, "request {i}, peek {k}");
                    seen += 1;
                }
            }
            fleet.join(target);
        }
        assert!(seen > 7_000, "peeks name most requests, got {seen}");
        let ring = PlacementEngine::new(PlacementSpec::ConsistentHash { vnodes: 4 }, &m, 5);
        assert_eq!(ring.peek_d2(0), None, "only d = 2 choice peeks");
    }

    #[test]
    fn shortest_queue_ignores_speed() {
        // An idle slow server and a fast one holding 4 jobs. Same seed,
        // same speed-proportional alias: the two engines draw the same
        // candidate pairs. Algorithm 1 joins the fast server (post-join
        // 5/8 < 1/1); plain JSQ joins the emptier slow one.
        let mut fleet = TestFleet::new(&[1, 8]);
        for _ in 0..4 {
            fleet.join(1);
        }
        let m = fleet.membership();
        let mut jsq = PlacementEngine::new(PlacementSpec::ShortestQueue { d: 2 }, &m, 3);
        let mut algo1 = PlacementEngine::new(PlacementSpec::DChoice { d: 2 }, &m, 3);
        assert!(!jsq.needs_key());
        let mut split = 0;
        for r in 0..2_000 {
            let (a, b) = (jsq.place(&fleet, 0), algo1.place(&fleet, 0));
            if a != b {
                assert_eq!((a, b), (0, 1), "request {r}");
                split += 1;
            }
        }
        // Mixed pairs arrive with probability 2·(1/9)·(8/9) ≈ 0.198.
        assert!((300..500).contains(&split), "mixed pairs: {split}");
    }

    #[test]
    fn shortest_queue_breaks_ties_over_distinct_candidates() {
        // Two idle servers of speeds 1 and 3, three candidates per
        // request: every request is a full tie. Uniform over the
        // distinct candidates, slot 0 wins with probability
        // P(all three are 0) + P(mixed)/2 = 1/64 + (36/64)/2 = 19/64;
        // a tie over the multiset would give it E[#0s]/3 = 1/4.
        let fleet = TestFleet::new(&[1, 3]);
        let mut engine = PlacementEngine::new(
            PlacementSpec::ShortestQueue { d: 3 },
            &fleet.membership(),
            4,
        );
        let n = 40_000;
        let zeros = (0..n).filter(|_| engine.place(&fleet, 0) == 0).count();
        let share = zeros as f64 / n as f64;
        assert!((share - 19.0 / 64.0).abs() < 0.01, "slot 0 share {share}");
    }

    #[test]
    fn uniform_d_choice_samples_uniformly() {
        // On an empty two-class fleet with one candidate, the pick is
        // the draw: every slot near 1/8, where speed-proportional
        // sampling would give each fast slot 8/36.
        let fleet = two_class_fleet();
        let mut engine = PlacementEngine::new(
            PlacementSpec::UniformDChoice { d: 1 },
            &fleet.membership(),
            6,
        );
        assert!(!engine.needs_key());
        let n = 40_000;
        let mut counts = [0u32; 8];
        for _ in 0..n {
            counts[engine.place(&fleet, 0)] += 1;
        }
        for (slot, &c) in counts.iter().enumerate() {
            let share = f64::from(c) / f64::from(n);
            assert!((share - 0.125).abs() < 0.01, "slot {slot}: {share}");
        }
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
        // Slots 0..10 are the initial members; slot 10 is a joiner past
        // the old `n_slots()`. Two churns, each in one rebuild: slot 3
        // departs, and slot 3 departs while slot 10 joins.
        let fleet = TestFleet::new(&[2; 11]);
        let m = Membership::new(fleet.membership().members()[..10].to_vec());
        let (victim, joiner) = (3, 10);
        let survivors = m.members().iter().copied().filter(|mm| mm.slot != victim);
        let departed = Membership::new(survivors.clone().collect());
        let swapped = Membership::new(
            survivors
                .chain([Member {
                    slot: joiner,
                    id: joiner as u64,
                    speed: 2,
                }])
                .collect(),
        );
        let keys: Vec<u64> = (0..2000u64).map(mix64).collect();
        for spec in [
            PlacementSpec::ConsistentHash { vnodes: 16 },
            PlacementSpec::Rendezvous,
        ] {
            for (churn, next) in [("departure", &departed), ("departure + join", &swapped)] {
                let name = spec.name();
                let mut engine = PlacementEngine::new(spec, &m, 9);
                let before: Vec<usize> = keys.iter().map(|&k| engine.place(&fleet, k)).collect();
                engine.rebuild(next);
                let (mut moved, mut joined) = (0, 0);
                for (i, &k) in keys.iter().enumerate() {
                    let after = engine.place(&fleet, k);
                    assert_ne!(after, victim, "{name}, {churn}: key on the departed slot");
                    joined += usize::from(after == joiner);
                    if after != before[i] {
                        moved += 1;
                        assert!(
                            before[i] == victim || after == joiner,
                            "{name}, {churn}: key {i} moved {} -> {after}",
                            before[i]
                        );
                    }
                }
                // The victim owned ≈ 1/10 of the keys; all of those move.
                assert!(moved > 0, "{name}, {churn}: no key moved");
                if next.n_slots() > m.n_slots() {
                    assert!(joined > 0, "{name}, {churn}: the joiner gets no key");
                }
            }
        }
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
            PlacementSpec::ShortestQueue { d: 2 },
            PlacementSpec::ShortestQueue { d: 3 },
            PlacementSpec::UniformDChoice { d: 2 },
            PlacementSpec::UniformDChoice { d: 3 },
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

    #[test]
    fn unrolled_pairs_place_like_the_shared_scan() {
        // `place_d2` and the d = 2 hash-then-probe arm against
        // `argmin_distinct` run on the same candidates: same slot every
        // request, same tie stream after. Tie-heavy loads (three speeds,
        // short queues), on an unchurned membership and on one with
        // every third slot departed.
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
            let alive: Vec<usize> = membership.members().iter().map(|m| m.slot).collect();
            for spec in [
                PlacementSpec::DChoice { d: 2 },
                PlacementSpec::HashThenProbe { d: 2, vnodes: 4 },
            ] {
                let mut unrolled = PlacementEngine::new(spec, membership, 5);
                let mut scan = unrolled.clone();
                let mut queues = vec![0u64; speeds.len()];
                for r in 0..3_000usize {
                    let view = DenseView::new(&queues, &speeds);
                    let key = mix64(r as u64);
                    let got = unrolled.place(&view, key);
                    let want = if let PlacementSpec::DChoice { .. } = spec {
                        let pos = scan.take_candidates(2);
                        let tokens = &scan.cand_buf[pos..pos + 2];
                        alive[argmin_distinct(tokens, &mut scan.tie_rng, |t| {
                            let (q, s) = view.load(alive[t]);
                            algorithm1_key(q, s)
                        })]
                    } else {
                        let ring = scan.routes.ring.as_ref().unwrap().ring();
                        let probes = [0, 1].map(|k| ring.successor(request_point(5, key, k)));
                        alive[argmin_distinct(&probes, &mut scan.tie_rng, |p| {
                            view.queue_len(alive[p])
                        })]
                    };
                    assert_eq!(got, want, "{}, request {r}", spec.name());
                    queues[got] += 1;
                    // Drain one job per request so queues stay short.
                    let drained = (r * 7) % speeds.len();
                    queues[drained] = queues[drained].saturating_sub(1);
                }
                let fresh = PlacementEngine::new(spec, membership, 5);
                assert_eq!(unrolled.tie_rng, scan.tie_rng, "{}", spec.name());
                assert_eq!(unrolled.place_rng, scan.place_rng);
                assert_ne!(unrolled.tie_rng, fresh.tie_rng, "{}: no tie", spec.name());
            }
        }
    }

    #[test]
    fn speeds_and_membership_build_the_same_engine() {
        // A fresh fleet's engine built from its speeds is the one built
        // from `Membership::from_speeds`: on a loaded two-class fleet
        // both place every key alike, and keep doing so after both
        // rebuild onto a churned (non-identity) membership.
        let speeds: Vec<u64> = (0..64).map(|i| if i < 32 { 1 } else { 8 }).collect();
        let full = Membership::from_speeds(&speeds);
        let churned = Membership::new(
            full.members()
                .iter()
                .copied()
                .filter(|m| m.slot % 5 != 2)
                .collect(),
        );
        let churned_slots: Vec<usize> = churned.members().iter().map(|m| m.slot).collect();
        for spec in [
            PlacementSpec::DChoice { d: 1 },
            PlacementSpec::DChoice { d: 2 },
            PlacementSpec::DChoice { d: 3 },
            PlacementSpec::DChoice { d: 4 },
            PlacementSpec::ShortestQueue { d: 2 },
            PlacementSpec::ShortestQueue { d: 3 },
            PlacementSpec::UniformDChoice { d: 2 },
            PlacementSpec::UniformDChoice { d: 3 },
            PlacementSpec::ConsistentHash { vnodes: 8 },
            PlacementSpec::Rendezvous,
            PlacementSpec::HashThenProbe { d: 2, vnodes: 8 },
            PlacementSpec::HashThenProbe { d: 3, vnodes: 8 },
        ] {
            let name = spec.name();
            let mut fresh = PlacementEngine::from_speeds(spec, &speeds, 13);
            let mut listed = PlacementEngine::new(spec, &full, 13);
            for engine in [&fresh, &listed] {
                assert!(engine.routes.alive_identity, "{name}");
                assert_eq!(engine.routes.alive.capacity(), 0, "{name}: identity list");
            }
            let mut fleet = TestFleet::new(&speeds);
            for slot in 0..speeds.len() {
                for _ in 0..slot % 4 {
                    fleet.join(slot);
                }
            }
            for (phase, alive) in [("fresh", None), ("churned", Some(&churned_slots))] {
                for key in 0..4096u64 {
                    let k = mix64(key);
                    let target = fresh.place(&fleet, k);
                    assert_eq!(target, listed.place(&fleet, k), "{name} {phase}: key {key}");
                    assert!(alive.is_none_or(|a| a.contains(&target)), "{name}");
                    fleet.join(target);
                }
                assert_eq!(fresh.tie_rng, listed.tie_rng, "{name} {phase}");
                assert_eq!(fresh.place_rng, listed.place_rng, "{name} {phase}");
                fresh.rebuild(&churned);
                listed.rebuild(&churned);
                assert_eq!(fresh.routes.alive, churned_slots, "{name}");
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
