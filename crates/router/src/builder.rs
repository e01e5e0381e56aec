//! The embedding surface: [`RouterBuilder`] wires a placement spec to a
//! fleet, producing the writer-side [`FleetView`] and cloneable
//! [`RouterHandle`]s that implement [`Router`].

use crate::engine::PlacementEngine;
use crate::spec::PlacementSpec;
use crate::telemetry::{RouterCounters, TID_REFRESH, TID_ROUTE};
use crate::view::{FleetReader, FleetSnapshot, FleetView, Membership, ServerId};
use crate::Router;
use bnb_telemetry::{MetricsSnapshot, Registry, Span};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Builds routers from a placement spec — the one constructor surface
/// replacing the ad-hoc per-policy entry points placement used to have.
///
/// ```
/// use bnb_router::{PlacementSpec, Router, RouterBuilder};
///
/// let (view, mut handle) = RouterBuilder::new(PlacementSpec::DChoice { d: 2 })
///     .seed(42)
///     .build(&[1, 1, 8, 8]);
/// let target = handle.route(0);
/// handle.snapshot().record_join(target);
/// // ... serve the request on `target`, then:
/// handle.snapshot().record_depart(target);
/// # drop(view);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RouterBuilder {
    spec: PlacementSpec,
    seed: u64,
    registry: Registry,
}

impl RouterBuilder {
    /// Starts a builder for the given policy (seed 0 until overridden,
    /// telemetry off).
    #[must_use]
    pub fn new(spec: PlacementSpec) -> Self {
        RouterBuilder {
            spec,
            seed: 0,
            registry: Registry::disabled(),
        }
    }

    /// Sets the root seed every derived RNG stream and hash structure
    /// descends from.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Opts the built routers into telemetry: handles time `route`
    /// (sampled) and epoch refreshes (unsampled) against `registry`,
    /// and [`RouterBuilder::build`] attaches shared
    /// [`RouterCounters`] to the fleet so every `record_join` /
    /// `record_depart` is counted. A disabled registry (the default)
    /// leaves one predicted branch per route and nothing else.
    #[must_use]
    pub fn telemetry(mut self, registry: &Registry) -> Self {
        self.registry = *registry;
        self
    }

    /// Builds the concurrent serving pair for a fresh fleet of the given
    /// speeds: the single-writer [`FleetView`] (publish churn epochs
    /// through it) and the first [`RouterHandle`] (clone it once per
    /// serving thread).
    ///
    /// # Panics
    /// Panics if `speeds` is empty or invalid for the spec (see
    /// [`PlacementEngine::new`]).
    #[must_use]
    pub fn build(self, speeds: &[u64]) -> (FleetView, RouterHandle) {
        let counters = self
            .registry
            .is_enabled()
            .then(|| Arc::new(RouterCounters::new()));
        let view = FleetView::with_counters(Membership::from_speeds(speeds), counters);
        let handle = self.attach(&view);
        (view, handle)
    }

    /// Builds a [`RouterHandle`] against an existing [`FleetView`] —
    /// the path for embedders that manage fleet state themselves.
    #[must_use]
    pub fn attach(self, view: &FleetView) -> RouterHandle {
        let reader = view.reader();
        let engine =
            PlacementEngine::with_stream(self.spec, reader.snapshot().membership(), self.seed, 0);
        RouterHandle {
            reader,
            engine,
            spec: self.spec,
            seed: self.seed,
            next_stream: Arc::new(AtomicU64::new(1)),
            route_span: self.registry.span("router.route", TID_ROUTE),
            refresh_span: self
                .registry
                .span_unsampled("router.epoch_refresh", TID_REFRESH),
            registry: self.registry,
        }
    }

    /// Builds a bare [`PlacementEngine`] for an explicit membership —
    /// the single-threaded embedding (and the cluster simulator's)
    /// path, with no epoch machinery.
    ///
    /// # Panics
    /// Panics if the spec is invalid (see [`PlacementEngine::new`]).
    #[must_use]
    pub fn build_engine(self, membership: &Membership) -> PlacementEngine {
        PlacementEngine::new(self.spec, membership, self.seed)
    }
}

/// A per-thread router: a lock-free [`FleetReader`] plus a
/// [`PlacementEngine`] on its own RNG stream.
///
/// Cloning produces an independent handle on a fresh stream (a shared
/// counter hands them out), so concurrent threads draw disjoint
/// placement randomness while routing against the same published
/// epochs. Each [`Router::route`] call first advances to the newest
/// epoch (rebuilding the engine only when one was published), then
/// places against that snapshot's load mirror.
#[derive(Debug)]
pub struct RouterHandle {
    reader: FleetReader,
    engine: PlacementEngine,
    spec: PlacementSpec,
    seed: u64,
    /// Next RNG stream index for clones (shared across the clone tree).
    next_stream: Arc<AtomicU64>,
    /// Sampled timer over the full route path (refresh check +
    /// placement); inert when the builder's registry was disabled.
    route_span: Span,
    /// Unsampled timer entered only when a published epoch forces a
    /// placement-structure rebuild: calls = refresh count, histogram =
    /// rebuild latency.
    refresh_span: Span,
    /// The builder's registry, kept so clones mint their own spans.
    registry: Registry,
}

impl RouterHandle {
    /// The snapshot this handle currently routes against — record joins
    /// and departs on it as requests are dispatched and complete.
    #[inline]
    #[must_use]
    pub fn snapshot(&self) -> &FleetSnapshot {
        self.reader.snapshot()
    }

    /// The placement spec in force.
    #[must_use]
    pub fn spec(&self) -> PlacementSpec {
        self.spec
    }

    /// Harvests this handle's telemetry — the route-latency and
    /// epoch-refresh spans, the current epoch, and (when the fleet
    /// carries [`RouterCounters`]) the fleet-wide join/depart totals —
    /// into one [`MetricsSnapshot`]. The join/depart totals are
    /// **fleet-wide** (shared across clones): when merging snapshots
    /// from several handles with
    /// [`Mergeable`](bnb_telemetry::Mergeable), which sums per name,
    /// include them from one handle only.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.add_counter("router.epoch", self.reader.snapshot().epoch());
        snap.add_span(&self.route_span);
        snap.add_span(&self.refresh_span);
        if let Some(counters) = self.reader.snapshot().counters() {
            counters.record_into(&mut snap);
        }
        snap
    }
}

impl Clone for RouterHandle {
    fn clone(&self) -> Self {
        let stream = self.next_stream.fetch_add(1, Ordering::Relaxed);
        let reader = self.reader.clone();
        let engine = PlacementEngine::with_stream(
            self.spec,
            reader.snapshot().membership(),
            self.seed,
            stream,
        );
        RouterHandle {
            reader,
            engine,
            spec: self.spec,
            seed: self.seed,
            next_stream: Arc::clone(&self.next_stream),
            // Fresh spans, not copies: each clone times its own thread.
            route_span: self.registry.span("router.route", TID_ROUTE),
            refresh_span: self
                .registry
                .span_unsampled("router.epoch_refresh", TID_REFRESH),
            registry: self.registry,
        }
    }
}

impl Router for RouterHandle {
    fn needs_key(&self) -> bool {
        self.engine.needs_key()
    }

    #[inline]
    fn route(&mut self, key: u64) -> ServerId {
        let token = self.route_span.enter();
        if self.reader.refresh() {
            let refresh = self.refresh_span.enter();
            self.engine.rebuild(self.reader.snapshot().membership());
            self.refresh_span.exit(refresh);
        }
        let target = ServerId(self.engine.place(self.reader.snapshot(), key));
        self.route_span.exit(token);
        target
    }

    fn route_many(&mut self, keys: &[u64], out: &mut Vec<ServerId>) {
        // One epoch check per batch, not per key: a publish landing
        // mid-batch is picked up on the next call — the same staleness
        // window a per-key check has at batch-sized request rates.
        if self.reader.refresh() {
            let refresh = self.refresh_span.enter();
            self.engine.rebuild(self.reader.snapshot().membership());
            self.refresh_span.exit(refresh);
        }
        let snap = self.reader.snapshot();
        out.clear();
        out.reserve(keys.len());
        out.extend(keys.iter().map(|&k| ServerId(self.engine.place(snap, k))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{LoadView, Member};

    #[test]
    fn route_targets_are_members_and_loads_move() {
        let (view, mut handle) = RouterBuilder::new(PlacementSpec::DChoice { d: 2 })
            .seed(7)
            .build(&[1, 1, 8, 8]);
        for _ in 0..100 {
            let t = handle.route(0);
            assert!(t.index() < 4);
            handle.snapshot().record_join(t);
        }
        let total: u64 = (0..4).map(|s| view.snapshot().queue_len(s)).sum();
        assert_eq!(total, 100, "every routed request recorded somewhere");
    }

    #[test]
    fn clones_route_on_independent_streams() {
        let (_view, mut a) = RouterBuilder::new(PlacementSpec::DChoice { d: 2 })
            .seed(7)
            .build(&[1; 8]);
        let mut b = a.clone();
        let agree = (0..512).filter(|_| a.route(0) == b.route(0)).count();
        assert!(agree < 512, "clone must not replay the original's draws");
    }

    #[test]
    fn handle_rebuilds_on_published_epoch() {
        let (mut view, mut handle) =
            RouterBuilder::new(PlacementSpec::ConsistentHash { vnodes: 8 })
                .seed(3)
                .build(&[2; 6]);
        // Retire slot 2 and add a fresh slot 6 (stable id 6).
        let mut members: Vec<Member> = view
            .snapshot()
            .membership()
            .members()
            .iter()
            .copied()
            .filter(|m| m.slot != 2)
            .collect();
        members.push(Member {
            slot: 6,
            id: 6,
            speed: 2,
        });
        view.publish(Membership::new(members));
        let mut saw_new = false;
        for key in 0..5_000u64 {
            let t = handle.route(bnb_hashring::hash::mix64(key));
            assert_ne!(t.index(), 2, "departed slot must not be routed to");
            saw_new |= t.index() == 6;
        }
        assert!(saw_new, "the joiner must own some arcs");
        assert_eq!(handle.snapshot().epoch(), 1);
    }

    #[test]
    fn telemetry_counts_routes_refreshes_and_rmws() {
        let reg = Registry::with_sampling(0, 0);
        let (mut view, mut handle) = RouterBuilder::new(PlacementSpec::DChoice { d: 2 })
            .seed(7)
            .telemetry(&reg)
            .build(&[1, 1, 8, 8]);
        for _ in 0..100 {
            let t = handle.route(0);
            handle.snapshot().record_join(t);
            handle.snapshot().record_depart(t);
        }
        // Publish a fresh epoch (same membership) — exactly one refresh
        // on the next route.
        let members = view.snapshot().membership().members().to_vec();
        view.publish(Membership::new(members));
        let _ = handle.route(0);
        let snap = handle.telemetry_snapshot();
        assert_eq!(snap.counter("router.route.calls"), Some(101));
        assert_eq!(snap.counter("router.epoch_refresh.calls"), Some(1));
        assert_eq!(snap.counter("router.record_join"), Some(100));
        assert_eq!(snap.counter("router.record_depart"), Some(100));
        assert_eq!(snap.counter("router.epoch"), Some(1));
        assert!(snap.histogram("router.route.ns").is_some());
    }

    #[test]
    fn telemetry_does_not_perturb_routing() {
        // A telemetry-on handle must draw the identical placement
        // stream as a telemetry-off handle over the same fleet state.
        let plain = RouterBuilder::new(PlacementSpec::DChoice { d: 2 }).seed(7);
        let reg = Registry::with_sampling(0, 64);
        let instrumented = plain.telemetry(&reg);
        let (_va, mut a) = plain.build(&[1, 1, 8, 8]);
        let (_vb, mut b) = instrumented.build(&[1, 1, 8, 8]);
        for _ in 0..512 {
            assert_eq!(a.route(0), b.route(0));
        }
    }

    #[test]
    fn route_many_batches_like_route() {
        let (_view, mut a) = RouterBuilder::new(PlacementSpec::ConsistentHash { vnodes: 4 })
            .seed(5)
            .build(&[1; 8]);
        let mut b = a.clone();
        let keys: Vec<u64> = (0..64).map(bnb_hashring::hash::mix64).collect();
        let mut batched = Vec::new();
        b.route_many(&keys, &mut batched);
        let singly: Vec<ServerId> = keys.iter().map(|&k| a.route(k)).collect();
        assert_eq!(batched, singly);
    }
}
