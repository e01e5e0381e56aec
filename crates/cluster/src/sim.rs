//! The discrete-event cluster simulator: arrivals → placement → finite
//! queues → departures, with optional churn.
//!
//! ## The drive loop
//!
//! Every server serves at Exp(speed): `ClusterSpec` has no other service
//! law. So the fleet is a continuous-time Markov chain, and the loop
//! simulates it exactly by **uniformization** (Jensen 1953), with no
//! per-server departure time at all. It merges three event streams,
//! each led by a scalar register:
//!
//! * **arrivals** — block pre-sampled on their own stream, the next one
//!   held in `next_arrival`;
//! * **potential departures** — one Poisson process at rate S, the sum
//!   of the alive speeds (`next_departure`). Each one names an alive
//!   slot with probability speed / S. If that server is busy, its head
//!   job completes; if it is idle, nothing happens. Churn replaces a
//!   leaver with a server of the same speed, so S never changes. The
//!   epochs and the named slots do not depend on the state, so both are
//!   pre-sampled: the gaps through the service stream's
//!   [`ExponentialBlock`], scaled by `1/S`, and the names 64 at a time
//!   (see `NamedSlots`);
//! * **churn ticks** — `next_churn`, one tick per [`ChurnConfig`]
//!   interval (`INFINITY` without churn).
//!
//! The earliest event goes first. At an exact time tie the arrival goes
//! first, then the departure, then the churn tick (a job finishing the
//! instant its server leaves completes rather than orphans). A tick
//! retires a server by deactivating its slot, orphaning its queue, and
//! writes the fresh joiner into the leaver's place among the named
//! slots. A potential departure that names an idle server is not an
//! event: the clock and the horizon move only on arrivals, completions
//! and churn ticks.
//!
//! A run costs about 1/ρ potential departures per arrival, where ρ is
//! the offered load over S; the idle share, about 1 − ρ of them, is
//! the price of having no departure board. `sim.potential_departures`,
//! `sim.idle_departures` and `sim.drain_departures` count them, and
//! potential − idle + drain = completed on every run.
//!
//! **The drain.** After the last arrival, uniformizing the tail would
//! spend most potential departures on servers that have already emptied.
//! So the loop stops there, and each alive busy server serves out its
//! own queue, one Exp(1) / speed service time per job from the service
//! stream. This is exact by memorylessness: at the last arrival every
//! job in service has an Exp(speed) residual. Churn retires nobody while
//! the run drains; the tick still pending then fires as a no-op, so the
//! horizon is the latest of the last arrival, the last completion and
//! that tick.
//!
//! Every request takes one path: one [`PlacementEngine::place`] call
//! against the fleet's per-server records (the same record the join
//! then writes), with a request key computed only for the key-driven
//! (ring) policies, then [`Fleet::try_join`]. How d = 2 is placed is
//! the engine's business alone.
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
//! * **departures** — when a block of 64 named slots is sampled, the
//!   next 64 potential departures are known, and the loop loads each
//!   one's record and the pool node of its job in service, whose
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
//! **dedicated derived streams** — arrivals, service (departure epochs,
//! then drain service times), named slots, placement candidates,
//! tie-breaks and churn each own a [`derive_seed`]-separated RNG — and
//! each stream is consumed in event order, which the tie rule above
//! fixes. Within a stream, draws are block pre-sampled (arrival gaps
//! and Exp(1) variates through [`bnb_distributions::ExponentialBlock`]'s
//! ziggurat stream, named slots 64 at a time, placement candidates
//! through the batched alias sampler), which moves RNG work off the
//! per-event path without changing any draw: the same seed replays the
//! identical event trace, byte for byte, in the rendered metrics.
//! Uniformization changes which draws a run makes, not the law of its
//! output: the unit tests check the engine against an exact answer key
//! for small fleets (`bnb_analysis::queueing_key`) and, scenario by
//! scenario over 30 seeds, against the earlier engine that kept one
//! pending departure per busy server on a board.

use crate::arrivals::{ArrivalProcess, ArrivalSampler};
use crate::fleet::Fleet;
use crate::metrics::ClusterMetrics;
use crate::telemetry::SimTelemetry;
use bnb_core::CapacityVector;
use bnb_distributions::{derive_seed, ExponentialBlock, Xoshiro256PlusPlus};
use bnb_hashring::hash::mix64;
use bnb_queueing::events::Time;
use bnb_router::PlacementSpec;
use bnb_router::{LoadView, PlacementEngine};
use bnb_stats::SampleSummary;
use bnb_telemetry::{MetricsSnapshot, Registry};
use std::collections::BTreeMap;

#[cfg(test)]
mod board_oracle;
#[cfg(test)]
mod exact_key;

/// Stream id of the arrival-time RNG (gaps + thinning acceptances).
/// Shared with the sharded engine: both derive the arrival stream as
/// `derive_seed(seed, ARRIVAL_STREAM, 0)` so the offered traffic is a
/// function of the seed alone, not of which engine replays it.
pub(crate) const ARRIVAL_STREAM: u64 = 0x6172_7276; // "arrv"
/// Stream id of the Exp(1) RNG: potential-departure gaps, then the
/// drain's service times.
pub(crate) const SERVICE_STREAM: u64 = 0x7372_7663; // "srvc"
/// Stream id of the churn victim-selection RNG.
pub(crate) const CHURN_STREAM: u64 = 0x6368_726E; // "chrn"
/// Stream id of the RNG naming each potential departure's slot.
const NAMING_STREAM: u64 = 0x6E61_6D65; // "name"

/// Fleet record footprint, in bytes, above which a run takes the
/// lookahead arm: 1 MiB, 32768 records of 32 bytes — the order of one
/// core's private L2. Below it the records mostly stay cached, and the
/// extra loads only cost instructions.
const LOOKAHEAD_FOOTPRINT: usize = 1 << 20;

/// How many requests ahead the lookahead arm loads candidate records.
const LOOKAHEAD_REQUESTS: usize = 4;

/// Named slots pre-sampled per refill.
const NAMED_BLOCK: usize = 64;

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

/// One speed class of [`NamedSlots`].
#[derive(Debug, Clone, Copy)]
struct NamedClass {
    /// Total weight of the classes before this one.
    base: u64,
    /// Weight of one slot of this class: its speed in every run; the
    /// exact-key tests plant other weights.
    weight: u64,
    /// Position of the class's first slot in [`NamedSlots::slots`].
    first: u32,
}

/// Which slot each potential departure names: an alive slot, with
/// probability proportional to its speed.
///
/// The alive slots are kept grouped by speed class, with each class's
/// cumulative integer weight (count × speed). A draw `r` below the
/// total weight S finds its class `c` by weight and then the slot at
/// position `(r − base_c) / speed_c` within it: exactly speed / S per
/// slot. Draws are pre-sampled as positions, 64 at a time, and read as
/// slots only when used. A churn tick writes the joiner into its
/// leaver's position (the two share a speed), so a draw made before the
/// tick names a slot of the current membership with the right law.
#[derive(Debug)]
struct NamedSlots {
    /// Alive slots, grouped by class in ascending speed.
    slots: Vec<u32>,
    classes: Vec<NamedClass>,
    /// The classes' total weight.
    total: u64,
    rng: Xoshiro256PlusPlus,
    /// Pre-sampled draws, as positions in `slots`.
    block: [u32; NAMED_BLOCK],
    /// Next unused draw in `block`.
    pos: usize,
}

impl NamedSlots {
    /// The alive slots of `fleet`, each weighted by `weight(speed)`.
    fn new(fleet: &Fleet, weight: fn(u64) -> u64, rng: Xoshiro256PlusPlus) -> Self {
        let mut by_speed: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (slot, server) in fleet.servers().iter().enumerate() {
            if server.is_alive() {
                by_speed
                    .entry(server.speed())
                    .or_default()
                    .push(slot_u32(slot));
            }
        }
        let mut slots = Vec::with_capacity(fleet.n_alive());
        let mut classes = Vec::with_capacity(by_speed.len());
        let mut total = 0u64;
        for (speed, members) in by_speed {
            let weight = weight(speed);
            classes.push(NamedClass {
                base: total,
                weight,
                first: slots.len() as u32,
            });
            total = (members.len() as u64)
                .checked_mul(weight)
                .and_then(|w| w.checked_add(total))
                .expect("the fleet's total speed fits 64 bits");
            slots.extend(members);
        }
        NamedSlots {
            slots,
            classes,
            total,
            rng,
            block: [0; NAMED_BLOCK],
            pos: NAMED_BLOCK,
        }
    }

    /// Whether the pre-sampled block is used up.
    #[inline]
    fn exhausted(&self) -> bool {
        self.pos == NAMED_BLOCK
    }

    /// Samples the next block of draws.
    fn refill(&mut self) {
        for draw in &mut self.block {
            let r = self.rng.next_below(self.total);
            let class = self.classes[self.classes.partition_point(|c| c.base <= r) - 1];
            *draw = class.first + ((r - class.base) / class.weight) as u32;
        }
        self.pos = 0;
    }

    /// The slots the pre-sampled block names, in draw order, as of now.
    fn block_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.block.iter().map(|&p| self.slots[p as usize] as usize)
    }

    /// The next pre-sampled draw's slot. The block must not be
    /// exhausted.
    #[inline]
    fn next(&mut self) -> usize {
        let slot = self.slots[self.block[self.pos] as usize];
        self.pos += 1;
        slot as usize
    }

    /// `joiner` takes `leaver`'s position.
    ///
    /// # Panics
    /// Panics if `leaver` is not a named slot.
    fn replace(&mut self, leaver: usize, joiner: usize) {
        let pos = self
            .slots
            .iter()
            .position(|&s| s as usize == leaver)
            .expect("a churn victim is an alive, named slot");
        self.slots[pos] = slot_u32(joiner);
    }
}

/// A fleet slot as a named-slot entry.
///
/// # Panics
/// Panics past `u32::MAX` slots.
fn slot_u32(slot: usize) -> u32 {
    u32::try_from(slot).expect("a fleet slot index fits 32 bits")
}

/// How a run weights the slots its potential departures name: by speed,
/// which is what makes uniformization exact. The exact-key tests plant
/// another weight to check that the key notices.
fn speed_weight(speed: u64) -> u64 {
    speed
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
    /// Block-sampled Exp(1) variates: potential-departure gaps scaled
    /// by `1/S`, then drain service times scaled by `1/speed`.
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
    /// Potential departures the uniformized phase drew, the ones among
    /// them that named an idle server, and the completions the drain
    /// served.
    potential_departures: u64,
    idle_departures: u64,
    drain_departures: u64,
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
            potential_departures: 0,
            idle_departures: 0,
            drain_departures: 0,
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
    /// distributions and trace events, potential departures drawn
    /// (`sim.potential_departures`), the ones that named an idle server
    /// (`sim.idle_departures`) and the completions the drain served
    /// (`sim.drain_departures`), fleet records the lookahead loaded
    /// early (`sim.lookahead_touches`), admissions that joined behind a
    /// busy server (`fleet.queued`) and the admission pool's high-water
    /// mark in 12-byte nodes, the most jobs ever in the system at once
    /// (`fleet.pool_nodes`), the latency store's
    /// radix buckets in use, chunks allocated, bytes held and narrow
    /// chunks closed early (`latency.buckets`, `latency.chunks`,
    /// `latency.bytes`, `latency.early_closes`), and arrival-thinning
    /// counts — into one exportable snapshot. Meaningful after
    /// [`ClusterSim::run`]; the counters are live (always on) even when
    /// the spans were never enabled.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> MetricsSnapshot {
        let counters: Vec<(&str, u64)> = [
            ("sim.arrived", self.arrived),
            ("sim.potential_departures", self.potential_departures),
            ("sim.idle_departures", self.idle_departures),
            ("sim.drain_departures", self.drain_departures),
            ("sim.lookahead_touches", self.lookahead_touches),
            ("fleet.queued", self.fleet.queued()),
            ("fleet.pool_nodes", self.fleet.pool_nodes() as u64),
        ]
        .into_iter()
        .chain(self.latency_store)
        .collect();
        self.tele
            .harvest(&counters, self.arrivals.thinning_counts())
    }

    /// Runs the full request budget and drains the queues; returns the
    /// final metrics. A second call is a no-op returning the same
    /// metrics: the budget is already spent.
    pub fn run(&mut self) -> ClusterMetrics {
        self.run_weighted(speed_weight)
    }

    /// [`ClusterSim::run`] with potential departures naming each slot in
    /// proportion to `weight(speed)`. The lookahead gate is dispatched
    /// here, once per run.
    fn run_weighted(&mut self, weight: fn(u64) -> u64) -> ClusterMetrics {
        if let Some(result) = &self.result {
            return result.clone();
        }
        let horizon = if self.lookahead() {
            self.drive::<true>(weight)
        } else {
            self.drive::<false>(weight)
        };
        let served = self.potential_departures - self.idle_departures + self.drain_departures;
        self.finish(horizon, served)
    }

    /// Checks the run's accounting and collects its metrics; `served`
    /// is the number of completions the drive loop counted.
    fn finish(&mut self, horizon: Time, served: u64) -> ClusterMetrics {
        self.check_accounting(served);
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
    /// each completion the loop counted (`served`) completed on one
    /// server and pushed one latency, and every arrival ended
    /// completed, dropped at a full queue or orphaned by churn. The run
    /// has drained, so no job is left in the system.
    ///
    /// # Panics
    /// Panics, printing every side, if an identity fails.
    fn check_accounting(&self, served: u64) {
        let completed: u64 = (0..self.fleet.n_slots())
            .map(|i| self.fleet.completed(i))
            .sum();
        let pushed = self.latencies.len() as u64;
        let dropped = self.fleet.total_dropped();
        let ended = completed + dropped + self.orphaned;
        assert!(
            completed == pushed && completed == served && ended == self.arrived,
            "run accounting broken: per-server completed {completed} vs latencies pushed \
             {pushed} vs departures served {served}; completed {completed} + dropped \
             {dropped} + orphaned {} = {ended} vs arrived {}",
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

    /// The drive loop (see the module docs): uniformized departures
    /// until the last arrival, then the per-server drain. Returns the
    /// horizon. Potential departures name slots in proportion to
    /// `weight(speed)`; `AHEAD` adds the lookahead loads.
    ///
    /// One branch-predictable loop keeps arrival merging, placement and
    /// departures together, and the clock, the next arrival, the next
    /// potential departure and the next churn tick all live in
    /// registers instead of round-tripping through `self` between
    /// events.
    ///
    /// The next arrival is drawn before the current one is placed. The
    /// streams are independently seeded, so each stream's draw sequence
    /// is still its event-order sequence.
    fn drive<const AHEAD: bool>(&mut self, weight: fn(u64) -> u64) -> Time {
        /// Arrival times pre-sampled per refill. Arrivals chain off
        /// their own stream only, so a block is bitwise the scalar
        /// sequence; the size just keeps the thinning loop hot (the
        /// non-stationary processes re-enter a sinusoid/envelope loop
        /// per request otherwise).
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
        let mut named = NamedSlots::new(
            &self.fleet,
            weight,
            Xoshiro256PlusPlus::from_u64_seed(derive_seed(self.key_seed, NAMING_STREAM, 0)),
        );
        // S, the potential departures' rate: the alive speeds' sum,
        // which churn keeps constant.
        let rate: u64 = self
            .fleet
            .servers()
            .iter()
            .filter(|s| s.is_alive())
            .map(|s| s.speed())
            .sum();
        let inv_rate = 1.0 / rate as f64;
        let mut now = 0.0;
        let mut next_arrival = self.arrivals.next_after(now);
        let mut next_departure = self.service.next() * inv_rate;
        let mut block: Vec<Time> = Vec::new();
        let mut block_pos = 0usize;
        let (mut potential, mut idle) = (0u64, 0u64);
        // The lookahead's loaded values all fold into `sink`, which is
        // consumed once after the loop, so the loads cannot be dropped.
        let mut sink = 0u64;
        let mut touches = 0u64;
        loop {
            if next_departure < next_arrival && next_departure <= next_churn {
                if named.exhausted() {
                    let ts = self.tele.schedule.enter();
                    named.refill();
                    if AHEAD {
                        // The block names the next 64 departures: load
                        // their records and jobs in service now.
                        for slot in named.block_slots() {
                            sink ^= self.fleet.touch_record(slot);
                        }
                        touches += NAMED_BLOCK as u64;
                    }
                    self.tele.schedule.exit(ts);
                }
                let server = named.next();
                potential += 1;
                if self.fleet.server(server).queue_len() == 0 {
                    idle += 1;
                } else {
                    now = next_departure;
                    self.depart(server, now);
                }
                next_departure += self.service.next() * inv_rate;
                continue;
            }
            if next_churn < next_arrival {
                now = next_churn;
                if let Some((leaver, joiner)) = self.churn_tick() {
                    named.replace(leaver, joiner);
                }
                next_churn = now + churn_interval;
                continue;
            }
            now = next_arrival;
            self.arrived += 1;
            // The refill chains off `now` — the arrival just consumed —
            // exactly where the scalar stream was.
            if self.arrived < requests {
                if block_pos == block.len() {
                    let n = ((requests - self.arrived) as usize).min(ARRIVAL_BLOCK);
                    let ta = self.tele.arrival.enter();
                    self.arrivals.fill_after(now, n, &mut block);
                    self.tele.arrival.exit(ta);
                    block_pos = 0;
                }
                next_arrival = block[block_pos];
                block_pos += 1;
            }
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
            self.fleet.try_join(target, now);
            self.tele.place.exit(tp);
            if self.arrived == requests {
                break;
            }
        }
        std::hint::black_box(sink);
        self.lookahead_touches += touches;
        self.potential_departures += potential;
        self.idle_departures += idle;
        // The drain: the budget is offered, so every busy server serves
        // out its own queue from `now`. A retired slot holds no job.
        // The churn tick still pending retires nobody; it only extends
        // the horizon.
        let mut horizon = if next_churn.is_finite() {
            now.max(next_churn)
        } else {
            now
        };
        for server in 0..self.fleet.n_slots() {
            let mut t = now;
            while self.fleet.server(server).queue_len() > 0 {
                t += self.service.next() * self.fleet.inv_speed_of(server);
                self.depart(server, t);
                self.drain_departures += 1;
            }
            horizon = horizon.max(t);
        }
        horizon
    }

    /// The job in service on `server` completes at `now`.
    #[inline]
    fn depart(&mut self, server: usize, now: Time) {
        let td = self.tele.depart.enter();
        let (latency, _) = self.fleet.depart(server, now);
        self.latencies.push(latency);
        self.tele.depart.exit(td);
    }

    /// One churn tick: a random alive server leaves (its queue is
    /// orphaned) and a fresh server of the same speed joins. Returns the
    /// `(leaver, joiner)` slots, or `None` when only one server is alive.
    fn churn_tick(&mut self) -> Option<(usize, usize)> {
        let alive = self.fleet.alive_indices();
        if alive.len() < 2 {
            return None;
        }
        let victim = alive[self.churn_rng.next_below(alive.len() as u64) as usize];
        let speed = self.fleet.server(victim).speed();
        self.orphaned += self.fleet.deactivate(victim);
        self.leaves += 1;
        // A fresh server of the same speed joins: stationary capacity
        // mix, fresh arcs on the ring.
        let joiner = self.fleet.activate_new(speed);
        self.joins += 1;
        self.router.rebuild(&self.fleet.membership());
        Some((victim, joiner))
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
    use crate::builder::{Sim, SimBuilder};
    use crate::scenario::{registry, SMOKE_DIVISOR};

    /// A production run: the builder's serial engine.
    fn run(spec: ClusterSpec, seed: u64) -> ClusterMetrics {
        SimBuilder::new(spec).seed(seed).build().run()
    }

    /// `(potential, idle, drain)` departures of a finished run.
    fn departure_counters(sim: &ClusterSim) -> (u64, u64, u64) {
        let snap = sim.telemetry_snapshot();
        let c = |name| snap.counter(name).expect(name);
        (
            c("sim.potential_departures"),
            c("sim.idle_departures"),
            c("sim.drain_departures"),
        )
    }

    /// Asserts the departure identity potential − idle + drain =
    /// completed on a finished run.
    fn assert_departures_balance(sim: &ClusterSim, m: &ClusterMetrics, name: &str) {
        let (potential, idle, drain) = departure_counters(sim);
        assert!(idle <= potential, "{name}: {idle} idle of {potential}");
        assert_eq!(
            potential - idle + drain,
            m.completed,
            "{name}: departure accounting does not balance"
        );
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
    fn named_slots_follow_speed_and_take_a_joiner_in_its_leavers_place() {
        // Speeds 1, 2, 3, 2 and 8: three classes. Over 1.6M draws each
        // slot's share must sit within 5 standard errors of speed / 16.
        let speeds = [1, 2, 3, 2, 8];
        let mut fleet = Fleet::new(&speeds, None);
        let rng = Xoshiro256PlusPlus::from_u64_seed(5);
        let mut named = NamedSlots::new(&fleet, speed_weight, rng);
        assert_eq!(named.total, 16);
        let draws = 1_600_000usize;
        let mut hits = [0u64; 6];
        for k in 0..draws {
            if k == draws / 2 {
                // Slot 1 (speed 2) leaves and slot 5 joins in its place:
                // from here on it takes slot 1's share.
                fleet.deactivate(1);
                let joiner = fleet.activate_new(2);
                named.replace(1, joiner);
            }
            if named.exhausted() {
                named.refill();
            }
            hits[named.next()] += 1;
        }
        let n = draws as f64;
        let share = |slot: usize, halves: f64| hits[slot] as f64 / (n * halves);
        for (slot, want, halves) in [
            (0, 1.0, 1.0),
            (1, 2.0, 0.5),
            (2, 3.0, 1.0),
            (3, 2.0, 1.0),
            (4, 8.0, 1.0),
            (5, 2.0, 0.5),
        ] {
            let p = want / 16.0;
            let se = (p * (1.0 - p) / (n * halves)).sqrt();
            let got = share(slot, halves);
            assert!(
                (got - p).abs() < 5.0 * se,
                "slot {slot}: share {got}, want {p} ± {se}"
            );
        }
    }

    #[test]
    fn idle_share_of_potential_departures_tracks_one_minus_load() {
        // A potential departure names an idle server with probability
        // 1 − (served rate) / S, so on unbounded queues the idle share is
        // about 1 − ρ: the engine's one cost that grows as load falls.
        for rho in [0.3, 0.6, 0.9] {
            let mut spec = base_spec();
            spec.arrivals = ArrivalProcess::Poisson {
                rate: rho * spec.speeds.total() as f64,
            };
            spec.queue_capacity = None;
            spec.requests = 200_000;
            let mut sim = SimBuilder::new(spec).seed(8).build();
            let m = sim.run();
            let Sim::Serial(serial) = &sim else {
                panic!("the builder's default engine is serial")
            };
            assert_departures_balance(serial, &m, "idle share");
            let (potential, idle, _) = departure_counters(serial);
            let share = idle as f64 / potential as f64;
            assert!(
                (share - (1.0 - rho)).abs() < 0.01,
                "ρ = {rho}: idle share {share}"
            );
        }
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
    fn accounting_invariant_holds_on_every_scenario() {
        // `finish` checks the accounting identities after every drive
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
    fn churn_retiring_a_busy_server_orphans_its_queue() {
        // An overloaded fleet keeps every server busy, so each tick
        // retires a server with jobs in the system. Its queue must count
        // as orphaned, its slot must never be named again (a departure
        // from it would break the identity below), and every request
        // must land in exactly one of the three outcomes.
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
        let mut sim = ClusterSim::new(spec, 4);
        let m = sim.run();
        assert!(m.leaves > 0, "churn must fire");
        assert!(m.orphaned > 0, "a busy server must have been retired");
        assert_eq!(m.completed + m.dropped + m.orphaned, m.requests);
        assert_departures_balance(&sim, &m, "overloaded churn");
        for slot in 0..sim.fleet().n_slots() {
            if !sim.fleet().server(slot).is_alive() {
                assert_eq!(sim.fleet().server(slot).queue_len(), 0, "slot {slot}");
            }
        }
    }

    #[test]
    fn churn_faster_than_service_keeps_the_departure_accounting() {
        // Ticks every 0.3 time units against a mean service time of 1:
        // a tick falls between most pairs of departures and retires busy
        // servers, whose joiners take over their named positions. Every
        // completion must be a potential departure that found its server
        // busy, or a drain completion, under every placement policy.
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
            let mut sim = ClusterSim::new(spec, 12);
            let m = sim.run();
            let name = placement.name();
            assert!(m.leaves > 100, "{name}: churn must fire often");
            assert!(m.orphaned > 0, "{name}: a busy server must retire");
            assert_eq!(m.completed + m.dropped + m.orphaned, m.requests, "{name}");
            assert_departures_balance(&sim, &m, name);
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
    fn churned_wide_fleet_keeps_the_departure_accounting() {
        // No registry scenario churns a fleet past the lookahead gate.
        // Here one does: churn retires busy servers mid-run, so the
        // lookahead maps d = 2 tokens through the alive list, and named
        // blocks loaded before a tick resolve to the joiner after it.
        // Hash-then-probe on the same fleet runs the loop without loads:
        // the gate admits d = 2 choice only. The fleet holds 2 MiB of
        // records, twice the gate, and the budget spans ~0.45 time
        // units: ~20 churn ticks, most of them while Exp(1) jobs still
        // hold the slow servers.
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
            let mut sim = ClusterSim::new(spec, 21);
            let m = sim.run();
            let snap = sim.telemetry_snapshot();
            let count = |name: &str| snap.counter(name).unwrap_or(0);
            let name = placement.name();
            assert!(m.leaves >= 5, "{name}: churn must fire mid-run");
            assert!(m.orphaned > 0, "{name}: a busy server must retire");
            let d2 = matches!(placement, PlacementSpec::DChoice { d: 2 });
            assert_eq!(sim.lookahead(), d2, "{name}: gate");
            assert_eq!(
                count("sim.lookahead_touches") > 0,
                d2,
                "{name}: lookahead loads"
            );
            assert_eq!(m.completed + m.dropped + m.orphaned, m.requests, "{name}");
            assert_departures_balance(&sim, &m, name);
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
        /// request completes on unbounded queues.
        #[test]
        fn sampled_policies_conserve_on_unbounded_queues(
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
            let m = run(spec, seed);
            proptest::prop_assert_eq!(m.completed, 500);
            proptest::prop_assert!(m.horizon.is_finite() && m.horizon > 0.0);
            proptest::prop_assert!(m.max_queue_len >= 1);
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
