//! The discrete-event cluster simulator: arrivals → placement → finite
//! queues → departures, with optional churn, on any
//! [`EventScheduler`] — the [`CalendarQueue`] slab timing wheel by
//! default, the binary heap as the differential oracle.
//!
//! ## Drive loops
//!
//! The dominant configuration — `DChoice { d: 2 }` placement, no
//! churn, on the default scheduler — runs a **fused monomorphic loop**:
//! arrival merging, the unrolled d = 2 compare over the fleet's
//! per-server records (the same record the join then writes),
//! ziggurat service sampling and completion scheduling in one
//! branch-predictable loop, with departures carried as bare `u32`
//! server indices through a slot-keyed
//! [`bnb_queueing::LazyBoard`] — the fleet holds at most
//! one pending departure per server, so a schedule is two array stores
//! and a pop validates a candidate-ring entry against the
//! authoritative per-slot array (no per-event enum dispatch, no heap
//! or wheel maintenance). A **next-free bypass** on top serves a
//! request landing on an idle server inline whenever its departure is
//! provably the next event, skipping the scheduler entirely. Every
//! other configuration takes the generic event loop. The two loops
//! consume every RNG stream in the same per-stream order and resolve
//! ties by the same insertion sequence, so they are metric-identical
//! byte for byte. The differential tests prove that against the
//! binary-heap oracle, which always takes the generic loop.
//!
//! ## Determinism contract
//!
//! A run is a pure function of `(spec, seed)`. Randomness flows through
//! **dedicated derived streams** — arrivals, service, placement
//! candidates, tie-breaks and churn each own a
//! [`derive_seed`]-separated RNG — and each stream is consumed in
//! event order (the scheduler contract breaks time ties by insertion
//! sequence). Within a stream, draws are block pre-sampled (arrival
//! gaps and Exp(1) service variates through
//! [`bnb_distributions::ExponentialBlock`]'s ziggurat stream, placement
//! candidates through the batched alias sampler), which moves RNG work
//! off the per-event path without changing any draw: the same seed
//! replays the identical event trace, byte for byte, in the rendered
//! metrics — on either scheduler, through either drive loop.

use crate::arrivals::{ArrivalProcess, ArrivalSampler};
use crate::fleet::Fleet;
use crate::metrics::ClusterMetrics;
use crate::placement::PlacementSpec;
use crate::telemetry::SimTelemetry;
use bnb_core::CapacityVector;
use bnb_distributions::{derive_seed, ExponentialBlock, Xoshiro256PlusPlus};
use bnb_hashring::hash::mix64;
use bnb_queueing::calendar::CalendarQueue;
use bnb_queueing::events::{EventScheduler, Time};
use bnb_queueing::server::Admission;
use bnb_queueing::{CalendarStats, LazyBoard, LazyStats};
use bnb_router::{LoadView, PlacementEngine};
use bnb_stats::Mergeable;
use bnb_telemetry::{MetricsSnapshot, Registry};
use std::any::TypeId;

/// Stream id of the arrival-time RNG (gaps + thinning acceptances).
/// Shared with the sharded engine: both derive the arrival stream as
/// `derive_seed(seed, ARRIVAL_STREAM, 0)` so the offered traffic is a
/// function of the seed alone, not of which engine replays it.
pub(crate) const ARRIVAL_STREAM: u64 = 0x6172_7276; // "arrv"
/// Stream id of the Exp(1) service-variate RNG.
pub(crate) const SERVICE_STREAM: u64 = 0x7372_7663; // "srvc"
/// Stream id of the churn victim-selection RNG.
pub(crate) const CHURN_STREAM: u64 = 0x6368_726E; // "chrn"

/// Periodic churn: every `interval` time units (starting at `start`),
/// one random alive server leaves and a fresh server of the same speed
/// joins — the fleet's capacity mix is stationary while its membership
/// is not, matching the paper's P2P motivation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// First churn event time.
    pub start: Time,
    /// Interval between churn events.
    pub interval: Time,
}

/// A complete, runnable cluster specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Server speeds (the paper's non-uniform bin capacities).
    pub speeds: CapacityVector,
    /// Placement policy routing each request.
    pub placement: PlacementSpec,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Per-server bound on jobs in the system (`None` = unbounded; then
    /// the offered load must stay below capacity for the run to drain).
    pub queue_capacity: Option<u64>,
    /// Optional churn schedule.
    pub churn: Option<ChurnConfig>,
    /// Number of requests to offer.
    pub requests: u64,
}

/// Events of the cluster simulation (public so the simulator can be
/// generic over any [`EventScheduler`] carrying this payload).
///
/// Arrivals are **not** scheduler events: the arrival stream is
/// pre-sampled and merged into the event loop through
/// [`EventScheduler::pop_if_before`] (arrivals win exact time ties), so
/// the scheduler only carries departures and churn ticks — half the
/// scheduling traffic of the naive design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterEvent {
    /// The job in service on `server` completes — stale (ignored) if the
    /// server has left since this was scheduled; slots are never
    /// revived, so `is_alive` fully identifies staleness.
    Departure {
        /// Slot index of the completing server.
        server: usize,
    },
    /// One leave + one join, then reschedule.
    ChurnTick,
}

/// The running simulator, generic over its event scheduler. Production
/// runs are built by [`crate::SimBuilder`] on the calendar queue;
/// [`ClusterSim::with_scheduler`] pins another implementation, e.g. the
/// binary-heap oracle in differential tests.
#[derive(Debug)]
pub struct ClusterSim<Sch: EventScheduler<ClusterEvent> = CalendarQueue<ClusterEvent>> {
    spec: ClusterSpec,
    fleet: Fleet,
    router: PlacementEngine,
    events: Sch,
    arrivals: ArrivalSampler,
    /// Block-sampled Exp(1) service variates; scaled by `1/speed` at
    /// the departure-scheduling site.
    service: ExponentialBlock,
    churn_rng: Xoshiro256PlusPlus,
    key_seed: u64,
    now: Time,
    /// The merged arrival stream's next event (never in the scheduler).
    next_arrival: Option<Time>,
    arrived: u64,
    orphaned: u64,
    joins: u64,
    leaves: u64,
    latencies: Vec<f64>,
    /// Metrics of the finished run (computed once; reruns return it).
    result: Option<ClusterMetrics>,
    /// Per-component spans (inert unless [`crate::SimBuilder::telemetry`]
    /// switched them on). A separate field so the drive loops can time
    /// one component while borrowing the router/fleet disjointly.
    tele: SimTelemetry,
    /// Scheduler-internals stats harvested from drained departure
    /// calendars (the generic scheduler's stats are read live at
    /// snapshot time; this field folds in any calendar that dies
    /// before then).
    sched_stats: CalendarStats,
    /// Lazy-deletion internals folded out of the fused loop's local
    /// departure board when it drains (see [`bnb_queueing::LazyBoard`]).
    lazy_stats: LazyStats,
    /// Fused-loop requests served inline by the next-free bypass: the
    /// request landed on an idle server and its departure was provably
    /// the next event, so it never entered the scheduler at all.
    next_free_bypasses: u64,
}

impl<Sch: EventScheduler<ClusterEvent> + 'static> ClusterSim<Sch> {
    /// Builds the simulator on an explicit scheduler implementation.
    /// The scheduler cannot change the trace — the determinism contract
    /// fixes the event order — only its speed.
    ///
    /// # Panics
    /// Panics if the spec is invalid: empty fleet, bad placement
    /// parameters, invalid arrival process, non-positive churn interval,
    /// or an unbounded-queue spec whose arrival rate reaches the fleet's
    /// service capacity (the run could not drain).
    #[must_use]
    pub fn with_scheduler(spec: ClusterSpec, seed: u64) -> Self {
        spec.arrivals.validate();
        if let Some(churn) = &spec.churn {
            assert!(
                churn.interval > 0.0 && churn.start >= 0.0,
                "churn schedule must be positive"
            );
        }
        if spec.queue_capacity.is_none() {
            let capacity = spec.speeds.total() as f64;
            assert!(
                spec.arrivals.peak_rate() < capacity,
                "unbounded queues need peak arrival rate {} below total speed {capacity}",
                spec.arrivals.peak_rate()
            );
        }
        let fleet = Fleet::new(spec.speeds.as_slice(), spec.queue_capacity);
        let router = PlacementEngine::new(spec.placement, &fleet.membership(), seed);
        ClusterSim {
            fleet,
            router,
            events: Sch::new(),
            arrivals: ArrivalSampler::new(spec.arrivals, derive_seed(seed, ARRIVAL_STREAM, 0)),
            service: ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(derive_seed(
                seed,
                SERVICE_STREAM,
                0,
            ))),
            churn_rng: Xoshiro256PlusPlus::from_u64_seed(derive_seed(seed, CHURN_STREAM, 0)),
            key_seed: seed,
            now: 0.0,
            next_arrival: None,
            arrived: 0,
            orphaned: 0,
            joins: 0,
            leaves: 0,
            latencies: Vec::new(),
            result: None,
            tele: SimTelemetry::disabled(),
            sched_stats: CalendarStats::new(),
            lazy_stats: LazyStats::new(),
            next_free_bypasses: 0,
            spec,
        }
    }

    /// Switches the per-component spans on (or reconfigures them) from
    /// a [`Registry`]; [`crate::SimBuilder::telemetry`] configures
    /// through this. Call before [`ClusterSim::run`]. Telemetry is
    /// **schedule-invisible**: it draws no RNG values and schedules no
    /// events, so the metrics of a telemetry-on run are bitwise those
    /// of a telemetry-off run — the differential tests pin it.
    pub(crate) fn set_telemetry(&mut self, registry: &Registry) {
        self.tele = SimTelemetry::from_registry(registry);
    }

    /// Harvests everything this run observed — span latency
    /// distributions and trace events, scheduler-internals counters
    /// (ring refills/spills, bulk-commit drains, rebuilds, occupancy at
    /// rebuild), admissions that overflowed a server's inline ring
    /// (`fleet.fifo_spills`), and arrival-thinning counts — into one
    /// exportable snapshot. Meaningful after [`ClusterSim::run`]; the
    /// internals counters are live (always on) even when the spans were
    /// never enabled.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> MetricsSnapshot {
        let mut sched = self.sched_stats.clone();
        if let Some(stats) = self.events.calendar_stats() {
            sched.merge_from(stats);
        }
        self.tele.harvest(
            &sched,
            &self.lazy_stats,
            self.next_free_bypasses,
            self.fleet.fifo_spills(),
            self.arrivals.thinning_counts(),
            self.arrived,
        )
    }

    /// Runs the full request budget and drains the queues; returns the
    /// final metrics. A second call is a no-op returning the same
    /// metrics: the budget is already spent.
    ///
    /// The dominant configuration — `DChoice { d: 2 }` placement, no
    /// churn — is driven by a fused monomorphic loop (see the module
    /// docs); everything else takes the generic event loop. The two
    /// are metric-identical (the differential tests pin it bitwise
    /// against the heap oracle), so the split is invisible outside this
    /// method.
    pub fn run(&mut self) -> ClusterMetrics {
        if let Some(result) = &self.result {
            return result.clone();
        }
        self.prime();
        if self.fused_eligible() {
            self.run_fused_loop();
        } else {
            self.run_event_loop();
        }
        self.finish()
    }

    /// Whether this run takes the fused fast path: `DChoice { d: 2 }`
    /// placement, no churn, **and** the default calendar-queue
    /// scheduler. Pinning an explicit scheduler
    /// ([`ClusterSim::with_scheduler`]) opts out — an oracle run on the
    /// binary heap must actually be driven by the binary heap, not
    /// silently rerouted through the fused loop's departure tree.
    fn fused_eligible(&self) -> bool {
        self.spec.churn.is_none()
            && matches!(self.spec.placement, PlacementSpec::DChoice { d: 2 })
            && TypeId::of::<Sch>() == TypeId::of::<CalendarQueue<ClusterEvent>>()
    }

    /// One-time run setup: first arrival, churn kickoff, latency buffer.
    fn prime(&mut self) {
        if self.arrived < self.spec.requests && self.next_arrival.is_none() {
            self.next_arrival = Some(self.arrivals.next_after(self.now));
            if let Some(churn) = self.spec.churn {
                self.events.schedule(churn.start, ClusterEvent::ChurnTick);
            }
            self.latencies.reserve(self.spec.requests as usize);
        }
    }

    /// Collects, caches and returns the metrics of a drained run.
    fn finish(&mut self) -> ClusterMetrics {
        let metrics = ClusterMetrics::collect(
            &self.fleet,
            std::mem::take(&mut self.latencies),
            self.arrived,
            self.orphaned,
            self.joins,
            self.leaves,
            self.now,
        );
        self.result = Some(metrics.clone());
        metrics
    }

    /// The generic drive loop: any placement, any arrival process,
    /// churn included.
    fn run_event_loop(&mut self) {
        loop {
            // Merge the pre-sampled arrival stream with the scheduled
            // departures/churn ticks: scheduled events strictly before
            // the next arrival go first, arrivals win exact ties.
            if let Some(t_arr) = self.next_arrival {
                match self.events.pop_if_before(t_arr) {
                    Some((time, event)) => {
                        self.now = time;
                        self.dispatch(event);
                    }
                    None => {
                        self.now = t_arr;
                        self.handle_arrival();
                    }
                }
            } else if let Some((time, event)) = self.events.pop() {
                self.now = time;
                self.dispatch(event);
            } else {
                break;
            }
        }
    }

    /// The fused drive loop for the dominant configuration:
    /// `DChoice { d: 2 }` placement, no churn, any arrival process.
    ///
    /// One branch-predictable loop keeps arrival merging, the unrolled
    /// d = 2 compare over the fleet's per-server records, service
    /// sampling and completion scheduling together — no per-event enum
    /// dispatch. Without churn the only events are departures, and the
    /// fleet holds **at most one pending departure per server**, so
    /// they are carried as bare `u32` slot indices through a
    /// slot-keyed [`LazyBoard`]: a schedule is one authoritative-array
    /// store plus an unsorted bag append, a pop argmin-scans the
    /// cursor's bag and validates the winner against the authoritative
    /// per-slot entry, and the clock, arrival cursor and the board's
    /// front time all live in registers instead of round-tripping
    /// through `self` between events.
    ///
    /// Fleet state per request is the two candidates' records:
    /// placement reads `(queue_len, speed)` from both, and the winner's
    /// join, `1 / speed` and admission-ring write land in a record the
    /// compare has just pulled in. A departure touches one record.
    ///
    /// On top of the board sits the **next-free bypass**: when a
    /// request lands on an idle server and its departure time is
    /// provably the next event — strictly before the next arrival
    /// (arrivals win ties, so a tie disqualifies) and strictly below
    /// the board's front time (mirrored exactly in the `dep_bound`
    /// register) — the job is served start-to-finish inline
    /// ([`Fleet::serve_one_now`]) and its departure never enters the
    /// scheduler at all. Both strict comparisons make the trace
    /// position unambiguous: the departure would have popped before
    /// every pending event, and the server's queue goes 0 → 1 → 0 with
    /// no observer in between, so every counter and the latency-push
    /// order are exactly the generic loop's.
    ///
    /// Every RNG stream is consumed in exactly the generic loop's
    /// per-stream order (the next arrival is drawn one step earlier
    /// relative to the service stream, but the streams are
    /// independently seeded, so each stream's draw sequence is
    /// unchanged) and ties resolve by the same insertion sequence, so
    /// the metrics are bitwise those of the generic loop — the
    /// differential tests pin that against the heap oracle.
    fn run_fused_loop(&mut self) {
        debug_assert!(self.spec.churn.is_none());
        debug_assert!(self.events.is_empty(), "fused runs start unscheduled");
        /// Arrival times pre-sampled per refill. Arrivals chain off
        /// their own stream only, so a block is bitwise the scalar
        /// sequence; the size just keeps the thinning loop hot (the
        /// non-stationary processes re-enter a sinusoid/envelope loop
        /// per request otherwise) without outrunning the latency the
        /// drain loop can observe.
        const ARRIVAL_BLOCK: usize = 64;
        let requests = self.spec.requests;
        let mut departures = LazyBoard::with_slots(self.fleet.n_slots());
        let mut now = self.now;
        let mut next_arrival = self.next_arrival;
        let mut block: Vec<Time> = Vec::new();
        let mut block_pos = 0usize;
        // The board's front time, mirrored into a register: `schedule`
        // can only lower it (`min` below), a pop invalidates it, and
        // `min_time_bound` is exact, so the mirror always equals the
        // next departure time (`INFINITY` for an empty board). The
        // per-arrival drain probe and the bypass test then cost one
        // f64 compare each instead of a board call.
        let mut dep_bound = f64::INFINITY;
        while let Some(t_arr) = next_arrival {
            // Scheduled departures strictly before the next arrival go
            // first; the arrival wins exact ties.
            while dep_bound < t_arr {
                let (time, server) = departures.pop().expect("front at dep_bound");
                now = time;
                self.fused_depart(&mut departures, server as usize, now);
                dep_bound = departures.min_time_bound().unwrap_or(f64::INFINITY);
            }
            now = t_arr;
            self.arrived += 1;
            // The next arrival is drawn *before* placement so the
            // bypass test below can compare against it. The refill
            // chains off `now` — the arrival just consumed — exactly
            // where the scalar stream was.
            next_arrival = if self.arrived < requests {
                if block_pos == block.len() {
                    let n = ((requests - self.arrived) as usize).min(ARRIVAL_BLOCK);
                    let ta = self.tele.arrival.enter();
                    self.arrivals.fill_after(now, n, &mut block);
                    self.tele.arrival.exit(ta);
                    block_pos = 0;
                }
                block_pos += 1;
                Some(block[block_pos - 1])
            } else {
                None
            };
            // Key-oblivious placement: the d = 2 fast path reads each
            // candidate's (queue_len, speed) from its fleet record, so
            // the winner's record is already in cache for the join.
            let tp = self.tele.place.enter();
            let target = self.router.place_d2(&self.fleet);
            if LoadView::load(&self.fleet, target).0 != 0 {
                // Busy target: the request queues (or drops); no
                // departure to schedule either way.
                let admission = self.fleet.try_join(target, now);
                debug_assert_ne!(admission, Admission::StartedService);
                self.tele.place.exit(tp);
                continue;
            }
            self.tele.place.exit(tp);
            // Idle target: service starts now (an idle queue always
            // admits), so draw the service time and decide where the
            // departure goes.
            let ts = self.tele.schedule.enter();
            let service = self.service.next() * self.fleet.inv_speed_of(target);
            let t_dep = now + service;
            let is_next = next_arrival.is_none_or(|t| t_dep < t) && t_dep < dep_bound;
            if is_next {
                // Next-free bypass: serve inline, skip the scheduler.
                self.next_free_bypasses += 1;
                self.tele.schedule.exit(ts);
                let td = self.tele.depart.enter();
                let latency = self.fleet.serve_one_now(target, now, t_dep);
                self.latencies.push(latency);
                self.tele.depart.exit(td);
                now = t_dep;
            } else {
                let admission = self.fleet.try_join(target, now);
                debug_assert_eq!(admission, Admission::StartedService);
                departures.schedule(target as u32, t_dep);
                dep_bound = dep_bound.min(t_dep);
                self.tele.schedule.exit(ts);
            }
        }
        // Budget offered; drain the queues.
        while let Some((time, server)) = departures.pop() {
            now = time;
            self.fused_depart(&mut departures, server as usize, now);
        }
        self.now = now;
        self.next_arrival = None;
        // The local departure board dies with this loop; fold its
        // internals counters into the run's stats first.
        self.lazy_stats.merge_from(departures.stats());
    }

    /// Departure handling of the fused loop: no staleness check (churn
    /// is excluded, so every scheduled departure is live — the generic
    /// loop's `is_alive` test is identically true there).
    #[inline]
    fn fused_depart(&mut self, departures: &mut LazyBoard, server: usize, now: Time) {
        let td = self.tele.depart.enter();
        let (latency, more) = self.fleet.depart(server, now);
        self.latencies.push(latency);
        self.tele.depart.exit(td);
        if more {
            let ts = self.tele.schedule.enter();
            let service = self.service.next() * self.fleet.inv_speed_of(server);
            departures.schedule(server as u32, now + service);
            self.tele.schedule.exit(ts);
        }
    }

    #[inline]
    fn dispatch(&mut self, event: ClusterEvent) {
        match event {
            ClusterEvent::Departure { server } => {
                // Stale departures (the server left since this was
                // scheduled) are dropped on the floor.
                if self.fleet.server(server).is_alive() {
                    let td = self.tele.depart.enter();
                    let (latency, more) = self.fleet.depart(server, self.now);
                    self.latencies.push(latency);
                    self.tele.depart.exit(td);
                    if more {
                        self.schedule_departure(server);
                    }
                }
            }
            ClusterEvent::ChurnTick => self.handle_churn_tick(),
        }
    }

    #[inline]
    fn handle_arrival(&mut self) {
        self.arrived += 1;
        // Counter-hashed request key: deterministic, uniform over u64 —
        // only computed for the key-driven (ring) policies.
        let tp = self.tele.place.enter();
        let key = if self.router.needs_key() {
            mix64(self.key_seed ^ self.arrived.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        } else {
            0
        };
        let target = self.router.place(&self.fleet, key);
        let admission = self.fleet.try_join(target, self.now);
        self.tele.place.exit(tp);
        if admission == Admission::StartedService {
            self.schedule_departure(target);
        }
        self.next_arrival = if self.arrived < self.spec.requests {
            let ta = self.tele.arrival.enter();
            let next = self.arrivals.next_after(self.now);
            self.tele.arrival.exit(ta);
            Some(next)
        } else {
            None
        };
    }

    #[inline]
    fn schedule_departure(&mut self, server: usize) {
        // Exp(1) work at rate `speed` ⇒ Exp(speed) service time. The
        // precomputed reciprocal (not a per-event divide) is shared
        // with the fused loop so both produce bit-identical times.
        let ts = self.tele.schedule.enter();
        let service = self.service.next() * self.fleet.inv_speed_of(server);
        self.events
            .schedule(self.now + service, ClusterEvent::Departure { server });
        self.tele.schedule.exit(ts);
    }

    fn handle_churn_tick(&mut self) {
        // Stop churning once the last arrival is in; the run is draining.
        if self.arrived >= self.spec.requests {
            return;
        }
        let alive = self.fleet.alive_indices();
        if alive.len() > 1 {
            let victim = alive[self.churn_rng.next_below(alive.len() as u64) as usize];
            let speed = self.fleet.server(victim).speed();
            self.orphaned += self.fleet.deactivate(victim, self.now);
            self.leaves += 1;
            // A fresh server of the same speed joins: stationary capacity
            // mix, fresh arcs on the ring.
            self.fleet.activate_new(speed);
            self.joins += 1;
            self.router.rebuild(&self.fleet.membership());
        }
        let interval = self.spec.churn.expect("tick implies churn config").interval;
        self.events
            .schedule(self.now + interval, ClusterEvent::ChurnTick);
    }

    /// Read access to the fleet (used by tests and the CLI's per-server
    /// output).
    #[must_use]
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The spec this simulator runs.
    #[must_use]
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimBuilder;
    use crate::scenario::{registry, SMOKE_DIVISOR};
    use bnb_queueing::events::EventQueue;

    /// A production run: the builder's serial engine.
    fn run(spec: ClusterSpec, seed: u64) -> ClusterMetrics {
        SimBuilder::new(spec).seed(seed).build().run()
    }

    /// The differential oracle: the generic loop on the binary heap.
    fn heap_oracle(spec: ClusterSpec, seed: u64) -> ClusterSim<EventQueue<ClusterEvent>> {
        ClusterSim::with_scheduler(spec, seed)
    }

    fn base_spec() -> ClusterSpec {
        let speeds = CapacityVector::two_class(8, 1, 8, 8);
        ClusterSpec {
            arrivals: ArrivalProcess::Poisson {
                rate: 0.8 * speeds.total() as f64,
            },
            speeds,
            placement: PlacementSpec::DChoice { d: 2 },
            queue_capacity: Some(64),
            churn: None,
            requests: 20_000,
        }
    }

    #[test]
    fn conservation_without_churn() {
        let m = run(base_spec(), 1);
        assert_eq!(m.requests, 20_000);
        assert_eq!(
            m.completed + m.dropped,
            m.requests,
            "every request completes or drops when nobody leaves"
        );
        assert_eq!(m.orphaned, 0);
        assert!(m.horizon > 0.0);
        assert!(m.latency[0] > 0.0, "positive median latency");
        assert!(m.latency[0] <= m.latency[1] && m.latency[1] <= m.latency[2]);
        assert!(m.latency[2] <= m.latency[3]);
    }

    #[test]
    fn zero_requests_simulates_nothing() {
        let mut spec = base_spec();
        spec.requests = 0;
        let m = run(spec, 1);
        assert_eq!(m.requests, 0);
        assert_eq!(m.completed, 0);
        assert_eq!(m.horizon, 0.0);
    }

    #[test]
    fn rerun_is_a_noop_returning_the_same_metrics() {
        let mut sim = SimBuilder::new(base_spec()).seed(2).build();
        let first = sim.run();
        let second = sim.run();
        assert_eq!(first, second, "a drained simulator must not replay");
    }

    #[test]
    fn same_seed_same_metrics_different_seed_different() {
        let a = run(base_spec(), 42);
        let b = run(base_spec(), 42);
        assert_eq!(a, b, "identical seeds must replay identically");
        let c = run(base_spec(), 43);
        assert_ne!(a, c, "different seeds should differ (w.o.p.)");
    }

    #[test]
    fn heap_scheduler_replays_the_calendar_trace() {
        // The spot check behind the full registry-wide differential
        // tests: neither the scheduler choice nor the drive loop may
        // leak into the metrics. `run()` on the default scheduler takes
        // the fused fast path here (d-choice d=2, no churn); pinning
        // the heap oracle opts out of it, so this compares the fused
        // loop against the heap-driven generic loop in one assertion.
        let fused = run(base_spec(), 5);
        let heap = heap_oracle(base_spec(), 5).run();
        assert_eq!(fused, heap);
    }

    #[test]
    fn telemetry_is_invisible_on_the_heap_oracle_on_every_scenario() {
        // The heap-side half of the telemetry differential (the
        // production half lives in `tests/differential.rs`): a fully
        // enabled registry must not move a byte of the heap-driven
        // generic loop's metrics on any scenario, so it still replays
        // the production run exactly.
        for scenario in registry() {
            let requests = (scenario.default_requests / SMOKE_DIVISOR).min(5_000);
            let seed = 0x7E1E;
            let production = run((scenario.build)(seed, requests), seed);
            let mut heap = heap_oracle((scenario.build)(seed, requests), seed);
            heap.set_telemetry(&Registry::with_sampling(0, 1 << 14));
            let heap_on = heap.run();
            assert_eq!(
                production, heap_on,
                "{}: telemetry perturbed the heap-driven loop",
                scenario.id
            );
            assert_eq!(
                heap.telemetry_snapshot().counter("sim.arrived"),
                Some(requests),
                "{}: heap telemetry snapshot missed arrivals",
                scenario.id
            );
        }
    }

    #[test]
    fn conservation_with_churn() {
        let mut spec = base_spec();
        spec.churn = Some(ChurnConfig {
            start: 5.0,
            interval: 10.0,
        });
        spec.requests = 30_000;
        let m = run(spec, 9);
        assert!(m.leaves > 0, "churn must actually fire");
        assert_eq!(m.joins, m.leaves);
        assert_eq!(
            m.completed + m.dropped + m.orphaned,
            m.requests,
            "requests partition into completed, dropped and orphaned"
        );
    }

    #[test]
    fn every_placement_policy_runs_end_to_end() {
        for placement in [
            PlacementSpec::DChoice { d: 2 },
            PlacementSpec::ConsistentHash { vnodes: 8 },
            PlacementSpec::Rendezvous,
            PlacementSpec::HashThenProbe { d: 2, vnodes: 8 },
        ] {
            let mut spec = base_spec();
            spec.placement = placement;
            spec.requests = 5_000;
            let m = run(spec, 3);
            assert_eq!(
                m.completed + m.dropped,
                5_000,
                "{}: conservation",
                placement.name()
            );
            assert!(
                m.completed > 0,
                "{}: something must complete",
                placement.name()
            );
        }
    }

    #[test]
    fn load_aware_placement_beats_oblivious_on_peak_queue() {
        // The paper's claim, live: d-choice keeps the peak normalised
        // queue far below successor placement on the same traffic.
        let peak = |placement| {
            let mut spec = base_spec();
            spec.placement = placement;
            spec.requests = 40_000;
            spec.queue_capacity = Some(10_000); // effectively unbounded
            run(spec, 17).max_normalized_queue
        };
        let dchoice = peak(PlacementSpec::DChoice { d: 2 });
        let successor = peak(PlacementSpec::ConsistentHash { vnodes: 8 });
        assert!(
            dchoice < successor,
            "d-choice peak {dchoice} should beat successor placement {successor}"
        );
    }

    #[test]
    fn overload_drops_instead_of_diverging() {
        let speeds = CapacityVector::uniform(8, 2);
        let spec = ClusterSpec {
            arrivals: ArrivalProcess::Poisson {
                rate: 2.0 * speeds.total() as f64,
            },
            speeds,
            placement: PlacementSpec::DChoice { d: 2 },
            queue_capacity: Some(8),
            churn: None,
            requests: 20_000,
        };
        let m = run(spec, 5);
        assert!(
            m.dropped > 4_000,
            "ρ=2 must shed heavily, got {}",
            m.dropped
        );
        assert!(m.max_queue_len <= 8);
        assert_eq!(m.completed + m.dropped, 20_000);
    }

    #[test]
    #[should_panic(expected = "below total speed")]
    fn unbounded_overload_rejected() {
        let speeds = CapacityVector::uniform(4, 1);
        let spec = ClusterSpec {
            arrivals: ArrivalProcess::Poisson { rate: 8.0 },
            speeds,
            placement: PlacementSpec::DChoice { d: 2 },
            queue_capacity: None,
            churn: None,
            requests: 100,
        };
        let _ = SimBuilder::new(spec).build();
    }
}
