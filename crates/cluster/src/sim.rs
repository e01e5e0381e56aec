//! The discrete-event cluster simulator: arrivals → placement → finite
//! queues → departures, with optional churn.
//!
//! ## The drive loop
//!
//! One loop serves every placement policy and every arrival process,
//! with and without churn. It merges three event streams, each led by
//! a scalar register:
//!
//! * **arrivals** — block pre-sampled on their own stream, the next one
//!   held in `next_arrival`;
//! * **departures** — bare `u32` server slots on a slot-keyed
//!   [`LazyBoard`]. The fleet holds at most one pending departure per
//!   server, and the board accepts a schedule only for a slot with
//!   none pending, so a schedule is an array store and a bag append,
//!   and a pop an argmin over one small bag (no per-event enum
//!   dispatch, no heap or wheel maintenance). The board's front time
//!   is mirrored in the `dep_bound` register;
//! * **churn ticks** — `next_churn`, one tick per [`ChurnConfig`]
//!   interval (`INFINITY` without churn).
//!
//! The earliest event goes first. At an exact time tie the arrival goes
//! first, then the departure, then the churn tick (a job finishing the
//! instant its server leaves completes rather than orphans);
//! departures tied with each other pop in insertion order. A tick retires a server by
//! deactivating its slot. The retired server's pending departure stays
//! on the board: slots are never revived, so when it pops `is_alive`
//! marks it stale, and it only advances the clock. After the last
//! arrival the one tick still pending fires as a no-op, so the
//! horizon covers it.
//!
//! Every request takes one path: one [`PlacementEngine::place`] call
//! against the fleet's per-server records (the same record the join
//! then writes), with a request key computed only for the key-driven
//! (ring) policies, then [`Fleet::try_join`]; a job that starts service
//! schedules its departure on the board, and every departure pops from
//! it. How d = 2 is placed is the engine's business alone.
//!
//! ## Lookahead
//!
//! On a wide fleet the loop waits on memory: every request and every
//! departure reads a 32-byte server record that is rarely cached. But
//! the loop knows some of those addresses early, so it loads them
//! before it needs them and the misses overlap the work in between
//! (group prefetching, after Chen, Ailamaki, Gibbons & Mowry, ICDE
//! 2004, done with plain loads because the crate is safe Rust):
//!
//! * **placement** — before placing request i, the loop loads the
//!   counters line (`queue`, `speed`) of request i + 4's two
//!   candidates, read out of the router's pre-sampled candidate block
//!   ([`PlacementEngine::peek_d2`]);
//! * **departures** — when the board's front probe refills its near
//!   window from the far level, the next ~100 departures become known
//!   (the hook of [`LazyBoard::min_time_bound`]), and the loop loads
//!   the record and the pool node of the job in service, whose
//!   admission time [`Fleet::depart`] reads.
//!
//! The loads are compiled in only for d = 2 placement on a fleet whose
//! record array is larger than `LOOKAHEAD_FOOTPRINT` (1 MiB, about one
//! core's private L2), a const-generic arm chosen once per run; smaller
//! fleets and other policies run the loop without them.
//! The loaded values only feed a sink consumed after the loop. The
//! lookahead draws no random number, consumes no candidate token, and
//! moves no event, so it cannot change a run's output.
//! `sim.lookahead_touches` counts the records loaded.
//!
//! ## Determinism contract
//!
//! A run is a pure function of `(spec, seed)`. Randomness flows through
//! **dedicated derived streams** — arrivals, service, placement
//! candidates, tie-breaks and churn each own a
//! [`derive_seed`]-separated RNG — and each stream is consumed in
//! event order, which the tie rule above fixes. Within a stream, draws
//! are block pre-sampled (arrival gaps and Exp(1) service variates
//! through [`bnb_distributions::ExponentialBlock`]'s ziggurat stream,
//! placement candidates through the batched alias sampler), which moves
//! RNG work off the per-event path without changing any draw: the same
//! seed replays the identical event trace, byte for byte, in the
//! rendered metrics. The unit tests replay every registry scenario on a
//! binary-heap departure board and require byte-identical output.

use crate::arrivals::{ArrivalProcess, ArrivalSampler};
use crate::fleet::{Admission, Fleet};
use crate::metrics::ClusterMetrics;
use crate::telemetry::SimTelemetry;
use bnb_core::CapacityVector;
use bnb_distributions::{derive_seed, ExponentialBlock, Xoshiro256PlusPlus};
use bnb_hashring::hash::mix64;
use bnb_queueing::events::Time;
use bnb_queueing::lazy::ignore_refill;
use bnb_queueing::{LazyBoard, LazyStats};
use bnb_router::PlacementSpec;
use bnb_router::{LoadView, PlacementEngine};
use bnb_stats::{Mergeable, SampleSummary};
use bnb_telemetry::{MetricsSnapshot, Registry};

/// Stream id of the arrival-time RNG (gaps + thinning acceptances).
/// Shared with the sharded engine: both derive the arrival stream as
/// `derive_seed(seed, ARRIVAL_STREAM, 0)` so the offered traffic is a
/// function of the seed alone, not of which engine replays it.
pub(crate) const ARRIVAL_STREAM: u64 = 0x6172_7276; // "arrv"
/// Stream id of the Exp(1) service-variate RNG.
pub(crate) const SERVICE_STREAM: u64 = 0x7372_7663; // "srvc"
/// Stream id of the churn victim-selection RNG.
pub(crate) const CHURN_STREAM: u64 = 0x6368_726E; // "chrn"

/// Fleet record footprint, in bytes, above which a run takes the
/// lookahead arm: 1 MiB, 32768 records of 32 bytes — the order of one
/// core's private L2. Below it the records mostly stay cached, and the
/// extra loads only cost instructions.
const LOOKAHEAD_FOOTPRINT: usize = 1 << 20;

/// How many requests ahead the lookahead arm loads candidate records.
const LOOKAHEAD_REQUESTS: usize = 4;

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

/// The departure schedule the drive loop runs on: at most one pending
/// departure per server slot, popped in `(time, insertion sequence)`
/// order. [`LazyBoard`] in production; the unit tests plug in the
/// binary heap as the oracle. The loop only ever schedules a slot with
/// no pending departure — the lazy board refuses any other — so the
/// board's keyed semantics and the heap's multiset semantics coincide.
pub(crate) trait DepartureBoard {
    /// An empty board sized for `slots` slots (it may grow past them).
    fn with_slots(slots: usize) -> Self;
    /// Schedules `slot`'s departure at `time`.
    fn schedule(&mut self, slot: u32, time: Time);
    /// Pops the earliest departure as `(time, slot)`.
    fn pop(&mut self) -> Option<(Time, u32)>;
    /// The exact time of the earliest pending departure, `INFINITY`
    /// when none is pending. If finding it refills the board's near
    /// window, `on_refill` is called with the slot of every departure
    /// the refill moved there — the next departures to pop, for the
    /// loop's lookahead. A board without such a window never calls it.
    fn front(&mut self, on_refill: impl FnMut(u32)) -> Time;
    /// The board's internals counters, if it keeps any.
    fn stats(&self) -> Option<&LazyStats>;
}

impl DepartureBoard for LazyBoard {
    fn with_slots(slots: usize) -> Self {
        LazyBoard::with_slots(slots)
    }

    #[inline]
    fn schedule(&mut self, slot: u32, time: Time) {
        LazyBoard::schedule(self, slot, time);
    }

    #[inline]
    fn pop(&mut self) -> Option<(Time, u32)> {
        LazyBoard::pop(self)
    }

    #[inline]
    fn front(&mut self, on_refill: impl FnMut(u32)) -> Time {
        self.min_time_bound(on_refill).unwrap_or(f64::INFINITY)
    }

    fn stats(&self) -> Option<&LazyStats> {
        Some(LazyBoard::stats(self))
    }
}

/// The running simulator. Production runs are built by
/// [`crate::SimBuilder`].
#[derive(Debug)]
pub struct ClusterSim {
    /// The spec fields a run reads after build: the placement policy
    /// (for the lookahead gate), the request budget and the churn
    /// schedule.
    placement: PlacementSpec,
    requests: u64,
    churn: Option<ChurnConfig>,
    fleet: Fleet,
    router: PlacementEngine,
    arrivals: ArrivalSampler,
    /// Block-sampled Exp(1) service variates; scaled by `1/speed` at
    /// the departure-scheduling site.
    service: ExponentialBlock,
    churn_rng: Xoshiro256PlusPlus,
    key_seed: u64,
    arrived: u64,
    orphaned: u64,
    joins: u64,
    leaves: u64,
    /// Every completed request's latency, filed in its radix bucket at 6
    /// bytes a value, or 5 when the key's low byte is zero, with the
    /// running sum and max; [`ClusterMetrics::collect`] summarises and
    /// frees it. `drive` reserves its chunks from the request budget.
    latencies: SampleSummary,
    /// The latency store's counters, read just before `collect`
    /// consumes it (see [`ClusterSim::telemetry_snapshot`]).
    latency_store: [(&'static str, u64); 4],
    /// Metrics of the finished run (computed once; reruns return it).
    result: Option<ClusterMetrics>,
    /// Per-component spans (inert unless [`crate::SimBuilder::telemetry`]
    /// switched them on). A separate field so the drive loop can time
    /// one component while borrowing the router/fleet disjointly.
    tele: SimTelemetry,
    /// Board internals folded out of the drive loop's local
    /// departure board when it drains (see [`bnb_queueing::LazyBoard`]).
    lazy_stats: LazyStats,
    /// Departures popped after their server left: dropped, having only
    /// advanced the clock.
    stale_departures: u64,
    /// Fleet records the lookahead loaded before the loop needed them,
    /// from both sources (zero on a fleet below the gate).
    lookahead_touches: u64,
}

impl ClusterSim {
    /// Builds the simulator for `spec` under `seed`.
    ///
    /// # Panics
    /// Panics if the spec is invalid: empty fleet, bad placement
    /// parameters, invalid arrival process, non-positive churn interval,
    /// an unbounded-queue spec whose arrival rate reaches the fleet's
    /// service capacity (the run could not drain), or a server speed
    /// above `u32::MAX` (a fleet record holds it in 32 bits).
    #[must_use]
    pub(crate) fn new(spec: ClusterSpec, seed: u64) -> Self {
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
        let router = PlacementEngine::from_speeds(spec.placement, spec.speeds.as_slice(), seed);
        ClusterSim {
            fleet,
            router,
            arrivals: ArrivalSampler::new(spec.arrivals, derive_seed(seed, ARRIVAL_STREAM, 0)),
            service: ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(derive_seed(
                seed,
                SERVICE_STREAM,
                0,
            ))),
            churn_rng: Xoshiro256PlusPlus::from_u64_seed(derive_seed(seed, CHURN_STREAM, 0)),
            key_seed: seed,
            arrived: 0,
            orphaned: 0,
            joins: 0,
            leaves: 0,
            latencies: SampleSummary::new(),
            latency_store: store_counters(&SampleSummary::new()),
            result: None,
            tele: SimTelemetry::disabled(),
            lazy_stats: LazyStats::new(),
            stale_departures: 0,
            lookahead_touches: 0,
            placement: spec.placement,
            requests: spec.requests,
            churn: spec.churn,
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
    /// distributions and trace events, the departure board's internals
    /// counters (ring inserts, rebuilds, far-side refills),
    /// departures dropped because their server churned out
    /// (`sim.stale_departures`), fleet records the lookahead loaded
    /// early (`sim.lookahead_touches`), admissions that joined behind a
    /// busy server (`fleet.queued`) and the admission pool's high-water
    /// mark in 12-byte nodes, the most jobs ever in the system at once
    /// (`fleet.pool_nodes`), the latency store's
    /// radix buckets in use, chunks allocated, bytes held and narrow
    /// chunks closed early (`latency.buckets`, `latency.chunks`,
    /// `latency.bytes`, `latency.early_closes`), and arrival-thinning
    /// counts — into one exportable snapshot. Meaningful after
    /// [`ClusterSim::run`]; the internals counters are live (always on)
    /// even when the spans were never enabled.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> MetricsSnapshot {
        let counters: Vec<(&str, u64)> = [
            ("sim.arrived", self.arrived),
            ("sim.stale_departures", self.stale_departures),
            ("sim.lookahead_touches", self.lookahead_touches),
            ("fleet.queued", self.fleet.queued()),
            ("fleet.pool_nodes", self.fleet.pool_nodes() as u64),
        ]
        .into_iter()
        .chain(self.latency_store)
        .collect();
        self.tele
            .harvest(&self.lazy_stats, &counters, self.arrivals.thinning_counts())
    }

    /// Runs the full request budget and drains the queues; returns the
    /// final metrics. A second call is a no-op returning the same
    /// metrics: the budget is already spent.
    pub fn run(&mut self) -> ClusterMetrics {
        self.run_on::<LazyBoard>()
    }

    /// [`ClusterSim::run`] on departure board `B`. The lookahead gate
    /// is dispatched here, once per run.
    fn run_on<B: DepartureBoard>(&mut self) -> ClusterMetrics {
        if let Some(result) = &self.result {
            return result.clone();
        }
        let horizon = if self.lookahead() {
            self.drive::<B, true>()
        } else {
            self.drive::<B, false>()
        };
        self.check_accounting();
        self.latency_store = store_counters(&self.latencies);
        let metrics = ClusterMetrics::collect(
            &self.fleet,
            std::mem::take(&mut self.latencies),
            self.arrived,
            self.orphaned,
            self.joins,
            self.leaves,
            horizon,
        );
        self.result = Some(metrics.clone());
        metrics
    }

    /// The per-run accounting invariant, checked after every drive:
    /// each completion pushed one latency, and every arrival ended
    /// completed, dropped at a full queue or orphaned by churn. The run
    /// has drained, so no job is left in the system.
    ///
    /// # Panics
    /// Panics, printing both sides, if either identity fails.
    fn check_accounting(&self) {
        let completed: u64 = (0..self.fleet.n_slots())
            .map(|i| self.fleet.completed(i))
            .sum();
        let pushed = self.latencies.len() as u64;
        let dropped = self.fleet.total_dropped();
        let ended = completed + dropped + self.orphaned;
        assert!(
            completed == pushed && ended == self.arrived,
            "run accounting broken: per-server completed {completed} vs latencies pushed \
             {pushed}; completed {completed} + dropped {dropped} + orphaned {} = {ended} vs \
             arrived {}",
            self.orphaned,
            self.arrived
        );
    }

    /// Whether a run takes the lookahead arm (see the module docs):
    /// d = 2 placement on a fleet whose record array outgrows
    /// [`LOOKAHEAD_FOOTPRINT`].
    fn lookahead(&self) -> bool {
        matches!(self.placement, PlacementSpec::DChoice { d: 2 })
            && std::mem::size_of_val(self.fleet.servers()) > LOOKAHEAD_FOOTPRINT
    }

    /// The drive loop (see the module docs); returns the horizon, the
    /// time of the last event. `AHEAD` adds the lookahead loads.
    ///
    /// One branch-predictable loop keeps arrival merging, placement,
    /// service sampling and completion scheduling together, and the
    /// clock, the next arrival, the board's front time and the next
    /// churn tick all live in registers instead of round-tripping
    /// through `self` between events.
    ///
    /// The next arrival is drawn before the current one is placed. The
    /// streams are independently seeded, so each stream's draw sequence
    /// is still its event-order sequence.
    fn drive<B: DepartureBoard, const AHEAD: bool>(&mut self) -> Time {
        /// Arrival times pre-sampled per refill. Arrivals chain off
        /// their own stream only, so a block is bitwise the scalar
        /// sequence; the size just keeps the thinning loop hot (the
        /// non-stationary processes re-enter a sinusoid/envelope loop
        /// per request otherwise) without outrunning the latency the
        /// drain loop can observe.
        const ARRIVAL_BLOCK: usize = 64;
        let requests = self.requests;
        if requests == 0 {
            return 0.0;
        }
        self.latencies.reserve(requests as usize);
        let needs_key = self.router.needs_key();
        let (mut next_churn, churn_interval) = self
            .churn
            .map_or((f64::INFINITY, f64::INFINITY), |c| (c.start, c.interval));
        let mut departures = B::with_slots(self.fleet.n_slots());
        let mut now = 0.0;
        let mut next_arrival = self.arrivals.next_after(now);
        let mut block: Vec<Time> = Vec::new();
        let mut block_pos = 0usize;
        // The board's front time, mirrored into a register: `schedule`
        // can only lower it (`min` below), a pop re-reads it, and
        // `front` is exact, so the mirror always equals the next
        // departure time (`INFINITY` for an empty board). The event
        // merge then costs one f64 compare instead of a board call.
        let mut dep_bound = f64::INFINITY;
        // The lookahead's loaded values all fold into `sink`, which is
        // consumed once after the loop, so the loads cannot be dropped.
        let mut sink = 0u64;
        let mut touches = 0u64;
        loop {
            if dep_bound < next_arrival && dep_bound <= next_churn {
                let (time, server) = departures.pop().expect("front at dep_bound");
                now = time;
                self.depart(&mut departures, server as usize, now);
                dep_bound = if AHEAD {
                    // A lap refill names the next ~100 departures: load
                    // their records and oldest waiting admissions now.
                    let fleet = &self.fleet;
                    departures.front(|slot| {
                        sink ^= fleet.touch_record(slot as usize);
                        touches += 1;
                    })
                } else {
                    departures.front(ignore_refill)
                };
                continue;
            }
            if next_churn < next_arrival {
                now = next_churn;
                next_churn = if self.arrived < requests {
                    self.churn_tick();
                    now + churn_interval
                } else {
                    // The budget is offered: the run is draining, and
                    // this last tick retires nobody.
                    f64::INFINITY
                };
                continue;
            }
            if next_arrival == f64::INFINITY {
                break;
            }
            now = next_arrival;
            self.arrived += 1;
            // The refill chains off `now` — the arrival just consumed —
            // exactly where the scalar stream was.
            next_arrival = if self.arrived < requests {
                if block_pos == block.len() {
                    let n = ((requests - self.arrived) as usize).min(ARRIVAL_BLOCK);
                    let ta = self.tele.arrival.enter();
                    self.arrivals.fill_after(now, n, &mut block);
                    self.tele.arrival.exit(ta);
                    block_pos = 0;
                }
                block_pos += 1;
                block[block_pos - 1]
            } else {
                f64::INFINITY
            };
            let tp = self.tele.place.enter();
            if AHEAD {
                // Load the counters line of the candidates a few
                // requests ahead, so their misses overlap this one.
                if let Some((a, b)) = self.router.peek_d2(LOOKAHEAD_REQUESTS) {
                    sink ^= LoadView::load(&self.fleet, a).0 ^ LoadView::load(&self.fleet, b).0;
                    touches += 2;
                }
            }
            // Counter-hashed request key: deterministic, uniform over
            // u64 — only computed for the key-driven (ring) policies.
            let key = if needs_key {
                mix64(self.key_seed ^ self.arrived.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            } else {
                0
            };
            let target = self.router.place(&self.fleet, key);
            let admission = self.fleet.try_join(target, now);
            self.tele.place.exit(tp);
            if admission == Admission::StartedService {
                // Idle target: service starts now. Exp(1) work at rate
                // `speed` ⇒ Exp(speed) service time, through the
                // precomputed reciprocal.
                let ts = self.tele.schedule.enter();
                let t_dep = now + self.service.next() * self.fleet.inv_speed_of(target);
                departures.schedule(target as u32, t_dep);
                dep_bound = dep_bound.min(t_dep);
                self.tele.schedule.exit(ts);
            }
        }
        // The local board dies with this loop; fold its internals
        // counters into the run's stats first.
        if let Some(stats) = departures.stats() {
            self.lazy_stats.merge_from(stats);
        }
        std::hint::black_box(sink);
        self.lookahead_touches += touches;
        now
    }

    /// A popped departure. Stale if the server has left since it was
    /// scheduled: it is dropped, having only advanced the clock.
    #[inline]
    fn depart<B: DepartureBoard>(&mut self, departures: &mut B, server: usize, now: Time) {
        if !self.fleet.server(server).is_alive() {
            self.stale_departures += 1;
            return;
        }
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

    /// One churn tick: a random alive server leaves (its queue is
    /// orphaned) and a fresh server of the same speed joins.
    fn churn_tick(&mut self) {
        let alive = self.fleet.alive_indices();
        if alive.len() > 1 {
            let victim = alive[self.churn_rng.next_below(alive.len() as u64) as usize];
            let speed = self.fleet.server(victim).speed();
            self.orphaned += self.fleet.deactivate(victim);
            self.leaves += 1;
            // A fresh server of the same speed joins: stationary capacity
            // mix, fresh arcs on the ring.
            self.fleet.activate_new(speed);
            self.joins += 1;
            self.router.rebuild(&self.fleet.membership());
        }
    }

    /// Read access to the fleet (used by tests and the CLI's per-server
    /// output).
    #[must_use]
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }
}

/// The latency store's telemetry counters.
fn store_counters(store: &SampleSummary) -> [(&'static str, u64); 4] {
    [
        ("latency.buckets", store.buckets_used() as u64),
        ("latency.chunks", store.chunks_allocated() as u64),
        ("latency.bytes", store.bytes() as u64),
        ("latency.early_closes", store.early_closes() as u64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimBuilder;
    use crate::scenario::{registry, SMOKE_DIVISOR};
    use bnb_queueing::events::EventQueue;

    /// The binary heap as a departure board: the oracle. It never
    /// dedups a slot, so it replays the lazy board exactly only because
    /// the loop never schedules a slot that already has a departure
    /// pending — which the lazy board enforces: its `schedule` panics
    /// on a pending slot, in every build.
    impl DepartureBoard for EventQueue<u32> {
        fn with_slots(_slots: usize) -> Self {
            EventQueue::new()
        }

        fn schedule(&mut self, slot: u32, time: Time) {
            EventQueue::schedule(self, time, slot);
        }

        fn pop(&mut self) -> Option<(Time, u32)> {
            EventQueue::pop(self)
        }

        fn front(&mut self, _on_refill: impl FnMut(u32)) -> Time {
            self.peek().unwrap_or(f64::INFINITY)
        }

        fn stats(&self) -> Option<&LazyStats> {
            None
        }
    }

    /// A production run: the builder's serial engine.
    fn run(spec: ClusterSpec, seed: u64) -> ClusterMetrics {
        SimBuilder::new(spec).seed(seed).build().run()
    }

    /// The differential oracle: the drive loop on the binary heap.
    fn heap_oracle(spec: ClusterSpec, seed: u64) -> ClusterMetrics {
        ClusterSim::new(spec, seed).run_on::<EventQueue<u32>>()
    }

    /// The rendered output a run's artifacts are made of.
    fn render(m: &ClusterMetrics) -> String {
        m.render_table() + &m.to_series_set("diff", "diff").to_plot_text()
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
    fn latency_store_counters_describe_the_store_collect_freed() {
        // Every completed latency sits in a chunk of its radix bucket: a
        // wide chunk holds up to 64 values, a narrow one up to 76. Only
        // a bucket's last chunk and narrow chunks closed early are
        // partial, and each early close follows a full chunk.
        for scenario in registry() {
            let requests = (scenario.default_requests / SMOKE_DIVISOR).min(5_000);
            let mut sim = SimBuilder::scenario(scenario, requests).seed(3).build();
            let m = sim.run();
            let snap = sim.telemetry_snapshot();
            let counter = |name| snap.counter(name).expect(name);
            let buckets = counter("latency.buckets");
            let chunks = counter("latency.chunks");
            let bytes = counter("latency.bytes");
            let early = counter("latency.early_closes");
            let id = scenario.id;
            assert!(
                buckets > 0 && buckets <= m.completed,
                "{id}: {buckets} buckets"
            );
            assert!(chunks >= m.completed.div_ceil(76), "{id}: {chunks} chunks");
            assert!(early <= m.completed / 64, "{id}: {early} early closes");
            assert!(
                chunks <= m.completed / 64 + early + buckets,
                "{id}: {chunks} chunks"
            );
            assert_eq!(bytes, chunks * 388, "{id}: {bytes} bytes");
        }
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
    fn heap_oracle_replays_the_production_run_on_every_scenario() {
        // The departure-board differential: the production run on the
        // lazy board and the same loop on the binary heap must not
        // differ by a single byte of any scenario's rendered output —
        // quantiles, per-server curves, churn counters and all. The
        // oracle runs with every span enabled, so this is also the
        // heap-side half of the telemetry differential (the production
        // half lives in `tests/differential.rs`). Two seeds, so a
        // tie-breaking slip cannot hide behind one lucky trace.
        for scenario in registry() {
            let requests = (scenario.default_requests / SMOKE_DIVISOR).min(5_000);
            for seed in [0xCA1E, 0xF0_5ED] {
                let production = run((scenario.build)(seed, requests), seed);
                let mut heap = ClusterSim::new((scenario.build)(seed, requests), seed);
                heap.set_telemetry(&Registry::with_sampling(0, 1 << 14));
                let oracle = heap.run_on::<EventQueue<u32>>();
                assert_eq!(
                    render(&production),
                    render(&oracle),
                    "{}: lazy board vs heap oracle diverged (seed {seed:#x})",
                    scenario.id
                );
                assert_eq!(production, oracle, "{} (seed {seed:#x})", scenario.id);
                assert_eq!(
                    heap.telemetry_snapshot().counter("sim.arrived"),
                    Some(requests),
                    "{}: heap telemetry snapshot missed arrivals",
                    scenario.id
                );
            }
        }
    }

    #[test]
    fn accounting_invariant_holds_on_every_scenario() {
        // `run_on` checks the accounting identities after every drive
        // and panics if one fails; every registry scenario runs it here,
        // churn and drops included.
        for scenario in registry() {
            let requests = (scenario.default_requests / SMOKE_DIVISOR).min(5_000);
            let m = run((scenario.build)(6, requests), 6);
            assert_eq!(
                m.completed + m.dropped + m.orphaned,
                requests,
                "{}",
                scenario.id
            );
        }
    }

    #[test]
    #[should_panic(expected = "run accounting broken")]
    fn accounting_check_fires_on_a_corrupted_count() {
        // A record that starts at one completion gains a count that no
        // latency and no arrival matches.
        let mut sim = ClusterSim::new(base_spec(), 1);
        sim.fleet.set_completed_low(3, 1);
        let _ = sim.run();
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
    fn churn_retiring_a_busy_server_drops_its_departure_as_stale() {
        // An overloaded fleet keeps every server busy, so each tick
        // retires a server with a departure pending on the board. That
        // departure must pop as stale (counted, nothing served), the
        // retired queue must count as orphaned, and every request must
        // land in exactly one of the three outcomes.
        let speeds = CapacityVector::uniform(4, 1);
        let spec = ClusterSpec {
            arrivals: ArrivalProcess::Poisson {
                rate: 3.0 * speeds.total() as f64,
            },
            speeds,
            placement: PlacementSpec::DChoice { d: 2 },
            queue_capacity: Some(16),
            churn: Some(ChurnConfig {
                start: 2.0,
                interval: 5.0,
            }),
            requests: 2_000,
        };
        let mut sim = SimBuilder::new(spec.clone()).seed(4).build();
        let m = sim.run();
        let stale = sim.telemetry_snapshot().counter("sim.stale_departures");
        assert!(m.leaves > 0, "churn must fire");
        assert!(m.orphaned > 0, "a busy server must have been retired");
        assert!(
            stale.is_some_and(|n| n > 0),
            "a retired server's departure must pop as stale, got {stale:?}"
        );
        assert_eq!(m.completed + m.dropped + m.orphaned, m.requests);
        assert_eq!(m, heap_oracle(spec, 4));
    }

    #[test]
    fn churn_faster_than_service_replays_on_the_heap_oracle() {
        // Ticks every 0.3 time units against a mean service time of 1:
        // a tick falls between most pairs of departures, and retired
        // servers leave stale departures behind. Every departure goes
        // through the board — each one scheduled pops as a completion
        // or as stale — and every placement policy, d = 2 included,
        // must replay the heap oracle bitwise.
        for placement in [
            PlacementSpec::DChoice { d: 2 },
            PlacementSpec::DChoice { d: 3 },
            PlacementSpec::HashThenProbe { d: 2, vnodes: 8 },
            PlacementSpec::ConsistentHash { vnodes: 8 },
        ] {
            let speeds = CapacityVector::uniform(16, 1);
            let spec = ClusterSpec {
                arrivals: ArrivalProcess::Poisson {
                    rate: 0.7 * speeds.total() as f64,
                },
                speeds,
                placement,
                queue_capacity: Some(32),
                churn: Some(ChurnConfig {
                    start: 0.1,
                    interval: 0.3,
                }),
                requests: 6_000,
            };
            let mut sim = SimBuilder::new(spec.clone()).seed(12).build();
            let m = sim.run();
            let snap = sim.telemetry_snapshot();
            let count = |name: &str| snap.counter(name).unwrap_or(0);
            let name = placement.name();
            assert!(m.leaves > 100, "{name}: churn must fire often");
            let stale = count("sim.stale_departures");
            assert!(stale > 0, "{name}: stale departures must pop");
            assert_eq!(
                count("lazy.ring_inserts"),
                m.completed + stale,
                "{name}: a departure bypassed the board"
            );
            assert_eq!(m, heap_oracle(spec, 12), "{name}: heap oracle diverged");
        }
    }

    #[test]
    fn lookahead_runs_exactly_on_fleets_past_the_footprint_gate() {
        // The gate in both directions: the one registry fleet whose
        // records outgrow the footprint (`giant`, 131072 servers, d = 2)
        // loads records ahead; every other scenario (at most 128
        // servers) runs the loop without a single lookahead load.
        for scenario in registry() {
            let requests = (scenario.default_requests / SMOKE_DIVISOR).min(2_000);
            let mut sim = ClusterSim::new((scenario.build)(3, requests), 3);
            sim.run();
            let wide = std::mem::size_of_val(sim.fleet().servers()) > LOOKAHEAD_FOOTPRINT;
            assert_eq!(wide, scenario.id == "giant", "{}: footprint", scenario.id);
            assert_eq!(sim.lookahead(), wide, "{}: gate", scenario.id);
            let touches = sim.telemetry_snapshot().counter("sim.lookahead_touches");
            if wide {
                assert!(
                    touches.is_some_and(|n| n > 0),
                    "{}: {touches:?}",
                    scenario.id
                );
            } else {
                assert_eq!(touches, Some(0), "{}: loads below the gate", scenario.id);
            }
        }
    }

    #[test]
    fn churned_wide_fleet_replays_the_heap_oracle() {
        // No registry scenario churns a fleet past the lookahead gate.
        // Here one does: churn retires busy servers mid-run, so the
        // lookahead maps d = 2 tokens through the alive list, and
        // retired slots are loaded ahead and later pop as stale. The
        // lookahead must not move a byte against the heap oracle (which
        // reports no refills). Hash-then-probe on the same fleet runs
        // the loop without loads: the gate admits d = 2 choice only.
        // The fleet holds 2 MiB of records, twice the gate, and the
        // budget spans ~0.45 time units: ~20 churn ticks, most of them
        // while Exp(1) jobs still hold the slow servers.
        let speeds = CapacityVector::two_class(32_768, 1, 32_768, 8);
        for placement in [
            PlacementSpec::DChoice { d: 2 },
            PlacementSpec::HashThenProbe { d: 2, vnodes: 4 },
        ] {
            let spec = ClusterSpec {
                arrivals: ArrivalProcess::Poisson {
                    rate: 0.9 * speeds.total() as f64,
                },
                speeds: speeds.clone(),
                placement,
                queue_capacity: Some(64),
                churn: Some(ChurnConfig {
                    start: 0.05,
                    interval: 0.02,
                }),
                requests: 120_000,
            };
            let mut sim = ClusterSim::new(spec.clone(), 21);
            let m = sim.run();
            let snap = sim.telemetry_snapshot();
            let count = |name: &str| snap.counter(name).unwrap_or(0);
            let name = placement.name();
            assert!(m.leaves >= 5, "{name}: churn must fire mid-run");
            assert!(m.orphaned > 0, "{name}: a busy server must retire");
            assert!(count("sim.stale_departures") > 0, "{name}: stale pops");
            let d2 = matches!(placement, PlacementSpec::DChoice { d: 2 });
            assert_eq!(sim.lookahead(), d2, "{name}: gate");
            assert_eq!(
                count("sim.lookahead_touches") > 0,
                d2,
                "{name}: lookahead loads"
            );
            assert_eq!(m.completed + m.dropped + m.orphaned, m.requests, "{name}");
            assert_eq!(m, heap_oracle(spec, 21), "{name}: heap oracle diverged");
        }
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
        // A uniform fleet and a mixed one (on which the sampled
        // families actually differ), each under every d-choice family.
        let fleets = [
            CapacityVector::uniform(8, 2),
            CapacityVector::two_class(4, 1, 4, 3),
        ];
        let placements = [
            PlacementSpec::DChoice { d: 2 },
            PlacementSpec::DChoice { d: 1 },
            PlacementSpec::ShortestQueue { d: 2 },
            PlacementSpec::UniformDChoice { d: 2 },
        ];
        for (speeds, placement) in fleets
            .iter()
            .flat_map(|s| placements.iter().map(move |&p| (s.clone(), p)))
        {
            let spec = ClusterSpec {
                arrivals: ArrivalProcess::Poisson {
                    rate: 2.0 * speeds.total() as f64,
                },
                speeds,
                placement,
                queue_capacity: Some(8),
                churn: None,
                requests: 20_000,
            };
            let name = placement.name();
            let m = run(spec, 5);
            assert!(
                m.dropped > 4_000,
                "{name}: ρ=2 must shed heavily, got {}",
                m.dropped
            );
            assert!(m.max_queue_len <= 8, "{name}");
            assert_eq!(m.completed + m.dropped, 20_000, "{name}");
        }
    }

    #[test]
    fn load_aware_placement_sheds_less_than_random_under_overload() {
        // Mild overload on short queues: Algorithm 1 finds the free
        // slots that random placement wastes, so it drops fewer jobs.
        let dropped = |placement| {
            let speeds = CapacityVector::two_class(20, 1, 20, 8);
            let spec = ClusterSpec {
                arrivals: ArrivalProcess::Poisson {
                    rate: 1.2 * speeds.total() as f64,
                },
                speeds,
                placement,
                queue_capacity: Some(4),
                churn: None,
                requests: 60_000,
            };
            run(spec, 23).dropped
        };
        let smart = dropped(PlacementSpec::DChoice { d: 2 });
        let random = dropped(PlacementSpec::DChoice { d: 1 });
        assert!(
            smart < random,
            "Algorithm 1 dropped {smart}, random dropped {random}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Whatever the speeds, utilisation and d-choice family, every
        /// request completes on unbounded queues, and the production
        /// run replays on the heap oracle byte for byte.
        #[test]
        fn sampled_policies_conserve_and_replay_the_heap_oracle(
            speeds in proptest::collection::vec(1u64..8, 1..12),
            rho_pct in 10u32..95,
            d in 1usize..4,
            family in 0usize..3,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let placement = [
                PlacementSpec::DChoice { d },
                PlacementSpec::ShortestQueue { d },
                PlacementSpec::UniformDChoice { d },
            ][family];
            let speeds = CapacityVector::from_vec(speeds);
            let spec = ClusterSpec {
                arrivals: ArrivalProcess::Poisson {
                    rate: f64::from(rho_pct) / 100.0 * speeds.total() as f64,
                },
                speeds,
                placement,
                queue_capacity: None,
                churn: None,
                requests: 500,
            };
            let m = run(spec.clone(), seed);
            proptest::prop_assert_eq!(m.completed, 500);
            proptest::prop_assert!(m.horizon.is_finite() && m.horizon > 0.0);
            proptest::prop_assert!(m.max_queue_len >= 1);
            proptest::prop_assert_eq!(&m, &heap_oracle(spec, seed));
        }
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
