//! The space-sharded parallel cluster simulator: the fleet partitioned
//! across worker threads, arrivals generated centrally in
//! **epoch-synchronised batches**, placement routed against a frozen
//! per-epoch fleet view, and per-shard reports merged in shard order
//! through [`bnb_stats::Mergeable`]/[`bnb_stats::merge_ordered`] so the
//! output is **byte-identical under any worker count**.
//!
//! ## The epoch machine
//!
//! Simulated time is cut into fixed epochs of length
//! `Δ = 8192 / peak_rate` (≈ 8192 arrivals per epoch at the peak
//! rate). Each epoch runs the same coordinator/worker protocol:
//!
//! 1. **Churn (coordinator).** Churn ticks falling inside the epoch are
//!    quantised to the epoch start: victims draw from the same
//!    `derive_seed`-derived churn stream as the serial engine, the
//!    membership is rebuilt, and per-shard deactivate/activate ops are
//!    binned to the shards owning the affected slots.
//! 2. **Arrivals (coordinator).** Arrival times are drawn centrally
//!    from the *identical* arrival stream the serial engine consumes
//!    (`derive_seed(seed, ARRIVAL_STREAM, 0)`), so the offered traffic
//!    is a function of the seed alone.
//! 3. **Place (parallel).** The epoch's arrivals are chunked across the
//!    workers; each worker routes its chunk against the **frozen**
//!    epoch view (a [`DenseView`] over the coordinator's queue/speed
//!    mirrors) through [`PlacementEngine::place_stateless`], with a
//!    per-arrival RNG derived from the arrival's global index — so a
//!    target is a pure function of `(spec, seed, arrival index)`, not
//!    of which worker computed it.
//! 4. **Advance (parallel).** Each shard applies its churn ops, merges
//!    its binned arrivals with its local departure board
//!    ([`bnb_queueing::LazyBoard`], departures strictly before an
//!    arrival go first, the arrival wins exact ties — the serial
//!    engine's convention), and reports the slots whose queue lengths
//!    changed. The coordinator folds those deltas into the next
//!    epoch's frozen view.
//!
//! After the request budget is offered, a final drain round pops every
//! remaining departure and the shards return their reports, which merge
//! **in shard order** and finalise into [`ClusterMetrics`].
//!
//! ## How epochs bound staleness
//!
//! Within an epoch, placement reads queue lengths frozen at the epoch
//! start — at most `Δ` simulated time units stale. Admission is *not*
//! stale: capacity drops are decided by the owning shard against the
//! live queue at the arrival's exact time. Shrinking the epoch length
//! recovers the serial engine's instantaneous-view semantics in the
//! limit; the fixed `Δ` trades that staleness for the right to route a
//! whole epoch of arrivals in parallel.
//!
//! ## Why the output cannot depend on the worker count
//!
//! Every piece of randomness is **counter-keyed** rather than
//! stream-threaded through the workers: placement RNGs key on the
//! arrival's global index, service draws key on `(slot, per-slot
//! counter)`, and arrivals/churn stay on the coordinator's serial
//! streams. Within an epoch's advance phase, slots never interact —
//! placement is frozen and queues, capacity checks and service draws
//! are slot-local — so each slot's trajectory depends only on its own
//! arrival sequence and its own service counters, never on which shard
//! processes it. The merge then canonicalises the only order-sensitive
//! reductions: per-slot records sort by global slot, and latencies are
//! counting-sorted into slot-major order before the mean is summed.

use crate::arrivals::ArrivalSampler;
use crate::metrics::ClusterMetrics;
use crate::sim::{ClusterSpec, ARRIVAL_STREAM, CHURN_STREAM, SERVICE_STREAM};
use bnb_distributions::{derive_seed, Xoshiro256PlusPlus};
use bnb_hashring::hash::mix64;
use bnb_queueing::events::Time;
use bnb_queueing::LazyBoard;
use bnb_router::{DenseView, Member, Membership, PlacementEngine};
use bnb_stats::{merge_ordered, Mergeable};
use bnb_telemetry::MetricsSnapshot;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;

/// Stream id of the per-arrival stateless placement RNG (candidate
/// draws and tie-breaks, keyed by global arrival index).
const PLACEMENT_STREAM: u64 = 0x706c_6163; // "plac"

/// Arrivals per epoch at the peak rate: the epoch length is
/// `EPOCH_ARRIVALS / peak_rate`. Large enough to amortise the two
/// synchronisation barriers per epoch over thousands of events, small
/// enough that the frozen placement view stays fresh. Public so
/// boundary-stress tests can align churn ticks exactly on epoch edges.
pub const EPOCH_ARRIVALS: f64 = 8192.0;

/// `2^53` as `f64` — converts the top 53 bits of a hashed `u64` into a
/// uniform in `(0, 1)` for the counter-keyed service draws.
const INV_2_53: f64 = 1.0 / 9_007_199_254_740_992.0;

/// A churn instruction bound for one shard, applied at an epoch start.
#[derive(Debug, Clone, Copy)]
enum ChurnOp {
    /// The slot leaves: orphan its backlog, mark it dead forever.
    Deactivate(u32),
    /// A fresh slot joins with the given speed.
    Activate {
        /// Global slot index of the new server.
        slot: u32,
        /// Service speed of the new server.
        speed: u64,
    },
}

/// The frozen per-epoch fleet view: dense queue/speed mirrors the
/// placement round reads through [`DenseView`]. Shared as an `Arc`
/// with every worker for the round, reclaimed (and mutated in place
/// via [`Arc::make_mut`]) by the coordinator between rounds.
#[derive(Debug, Clone)]
struct EpochView {
    queues: Vec<u64>,
    speeds: Vec<u64>,
}

/// A task sent to a worker thread.
enum Task {
    /// Route arrivals `[first_index, first_index + count)` against the
    /// frozen view; reply with their targets.
    Place {
        view: Arc<EpochView>,
        engine: Arc<PlacementEngine>,
        first_index: u64,
        count: usize,
    },
    /// Apply churn ops and process this shard's arrivals/departures for
    /// the epoch `[t0, t1)`; reply with queue-length deltas.
    Advance {
        ops: Vec<ChurnOp>,
        arrivals: Vec<(Time, u32)>,
        t0: Time,
        t1: Time,
    },
    /// Pop every remaining departure (the budget is offered).
    Drain,
    /// Return the shard's report and stop.
    Finish,
}

/// A worker's reply to the coordinator.
enum Reply {
    Placed {
        worker: usize,
        targets: Vec<u32>,
    },
    Advanced {
        deltas: Vec<(u32, u64)>,
        last_event: Time,
    },
    Drained {
        last_event: Time,
    },
    Report {
        shard: usize,
        report: Box<(ShardReport, MetricsSnapshot)>,
    },
}

/// Everything a shard accumulated over a run, merged in shard order
/// through [`Mergeable`] and finalised into [`ClusterMetrics`].
#[derive(Debug, Clone, Default)]
struct ShardReport {
    /// `(global slot, speed, completed, max_queue, dropped)` per owned
    /// slot — appended across shards, then sorted by global slot.
    slots: Vec<(u32, u64, u64, u64, u64)>,
    /// `(global slot, latency)` in per-shard completion order —
    /// counting-sorted into slot-major order before any sum.
    latencies: Vec<(u32, f64)>,
    orphaned: u64,
    last_event: Time,
}

impl Mergeable for ShardReport {
    fn merge_from(&mut self, other: &Self) {
        self.slots.extend_from_slice(&other.slots);
        self.latencies.extend_from_slice(&other.latencies);
        self.orphaned += other.orphaned;
        self.last_event = self.last_event.max(other.last_event);
    }
}

/// One shard's server state: per-slot records for the contiguous base
/// range it owns plus any churn-added slots assigned to it. Slots never
/// interact inside an epoch, so these arrays are the *entire* mutable
/// simulation state of the shard.
struct ShardState {
    shard: usize,
    /// Base range `[lo, hi)` of global slots this shard owns.
    lo: u32,
    /// Initial fleet size: global slots `>= n0` are churn-added and
    /// resolve through `local_of_churn`.
    n0: u32,
    local_of_churn: HashMap<u32, u32>,
    global_of: Vec<u32>,
    speed: Vec<u64>,
    inv_speed: Vec<f64>,
    queue: Vec<u64>,
    max_queue: Vec<u64>,
    completed: Vec<u64>,
    dropped: Vec<u64>,
    in_flight: Vec<VecDeque<Time>>,
    alive: Vec<bool>,
    /// Per-slot service-draw counters: draw `k` on slot `g` is
    /// `derive_seed(service_seed, g, k)` — pure in `(seed, slot, k)`.
    svc_counter: Vec<u64>,
    cap: Option<u64>,
    service_seed: u64,
    /// Departure board keyed by *local* slot index.
    board: LazyBoard,
    /// Delta dedup: slots touched during the current advance call.
    touched_stamp: Vec<u64>,
    epoch_stamp: u64,
    touched: Vec<u32>,
    latencies: Vec<(u32, f64)>,
    orphaned: u64,
    last_event: Time,
}

impl ShardState {
    fn new(
        shard: usize,
        lo: u32,
        hi: u32,
        speeds: &[u64],
        cap: Option<u64>,
        service_seed: u64,
    ) -> Self {
        let n = (hi - lo) as usize;
        ShardState {
            shard,
            lo,
            n0: speeds.len() as u32,
            local_of_churn: HashMap::new(),
            global_of: (lo..hi).collect(),
            speed: speeds[lo as usize..hi as usize].to_vec(),
            inv_speed: speeds[lo as usize..hi as usize]
                .iter()
                .map(|&s| 1.0 / s as f64)
                .collect(),
            queue: vec![0; n],
            max_queue: vec![0; n],
            completed: vec![0; n],
            dropped: vec![0; n],
            in_flight: vec![VecDeque::new(); n],
            alive: vec![true; n],
            svc_counter: vec![0; n],
            cap,
            service_seed,
            board: LazyBoard::with_slots(n),
            touched_stamp: vec![0; n],
            epoch_stamp: 0,
            touched: Vec::new(),
            latencies: Vec::new(),
            orphaned: 0,
            last_event: 0.0,
        }
    }

    #[inline]
    fn local(&self, g: u32) -> usize {
        if g < self.n0 {
            (g - self.lo) as usize
        } else {
            self.local_of_churn[&g] as usize
        }
    }

    #[inline]
    fn touch(&mut self, l: usize) {
        if self.touched_stamp[l] != self.epoch_stamp {
            self.touched_stamp[l] = self.epoch_stamp;
            self.touched.push(l as u32);
        }
    }

    /// The counter-keyed Exp(1) service draw for local slot `l`:
    /// inverse-CDF over a uniform built from the top 53 bits of
    /// `derive_seed(service_seed, global_slot, counter)`.
    #[inline]
    fn exp_draw(&mut self, l: usize) -> f64 {
        let x = derive_seed(
            self.service_seed,
            u64::from(self.global_of[l]),
            self.svc_counter[l],
        );
        self.svc_counter[l] += 1;
        let u = ((x >> 11) as f64 + 0.5) * INV_2_53;
        -u.ln()
    }

    fn apply(&mut self, op: ChurnOp) {
        match op {
            ChurnOp::Deactivate(g) => {
                let l = self.local(g);
                debug_assert!(self.alive[l], "slot {g} deactivated twice");
                self.orphaned += self.queue[l];
                self.queue[l] = 0;
                self.in_flight[l].clear();
                self.alive[l] = false;
                self.touch(l);
            }
            ChurnOp::Activate { slot, speed } => {
                let l = self.speed.len();
                self.local_of_churn.insert(slot, l as u32);
                self.global_of.push(slot);
                self.speed.push(speed);
                self.inv_speed.push(1.0 / speed as f64);
                self.queue.push(0);
                self.max_queue.push(0);
                self.completed.push(0);
                self.dropped.push(0);
                self.in_flight.push(VecDeque::new());
                self.alive.push(true);
                self.svc_counter.push(0);
                self.touched_stamp.push(0);
                // The board grows itself on the first `schedule` for
                // this local index; nothing to pre-size here.
            }
        }
    }

    /// Processes the departure popped off the board at `(l, t)`. Stale
    /// entries (the slot died since scheduling) are skipped by the
    /// callers' `alive` check before this is reached.
    #[inline]
    fn depart(&mut self, l: usize, t: Time) {
        let admitted = self.in_flight[l]
            .pop_front()
            .expect("departure from an empty shard slot");
        self.queue[l] -= 1;
        self.completed[l] += 1;
        self.latencies.push((self.global_of[l], t - admitted));
        if self.queue[l] > 0 {
            let service = self.exp_draw(l) * self.inv_speed[l];
            self.board.schedule(l as u32, t + service);
        }
        self.touch(l);
        self.last_event = t;
    }

    /// Pops every departure strictly before `bound` (the strict bound is
    /// the arrival-wins-ties convention shared with the serial engine).
    #[inline]
    fn drain_until(&mut self, bound: Time) {
        while let Some((t, l)) = self.board.pop_if_before(bound) {
            let l = l as usize;
            if self.alive[l] {
                self.depart(l, t);
            }
        }
    }

    /// Admits one arrival routed to global slot `g` at time `t`.
    #[inline]
    fn arrive(&mut self, g: u32, t: Time) {
        let l = self.local(g);
        debug_assert!(self.alive[l], "arrival routed to a dead slot");
        if self.cap.is_some_and(|cap| self.queue[l] >= cap) {
            self.dropped[l] += 1;
        } else {
            self.queue[l] += 1;
            self.max_queue[l] = self.max_queue[l].max(self.queue[l]);
            self.in_flight[l].push_back(t);
            if self.queue[l] == 1 {
                let service = self.exp_draw(l) * self.inv_speed[l];
                self.board.schedule(l as u32, t + service);
            }
        }
        self.touch(l);
        self.last_event = t;
    }

    /// One epoch: departures before `t0`, churn ops at `t0`, then the
    /// binned arrivals merged with local departures up to `t1`.
    /// Returns the queue-length deltas of every slot touched.
    fn advance(
        &mut self,
        ops: Vec<ChurnOp>,
        arrivals: &[(Time, u32)],
        t0: Time,
        t1: Time,
    ) -> Vec<(u32, u64)> {
        self.epoch_stamp += 1;
        self.touched.clear();
        self.drain_until(t0);
        for op in ops {
            self.apply(op);
        }
        for &(t, g) in arrivals {
            self.drain_until(t);
            self.arrive(g, t);
        }
        self.drain_until(t1);
        self.touched
            .iter()
            .map(|&l| (self.global_of[l as usize], self.queue[l as usize]))
            .collect()
    }

    /// Pops every remaining departure — the budget is offered and the
    /// queues drain to empty (dead slots' stale entries are skipped).
    fn drain_all(&mut self) {
        while let Some((t, l)) = self.board.pop() {
            let l = l as usize;
            if self.alive[l] {
                self.depart(l, t);
            }
        }
    }

    /// Consumes the shard into its report and telemetry snapshot.
    fn finish(self) -> (ShardReport, MetricsSnapshot) {
        let mut snap = MetricsSnapshot::new();
        self.board.stats().record_into(&mut snap);
        snap.add_counter("sharded.shard_slots", self.speed.len() as u64);
        let slots = (0..self.speed.len())
            .map(|l| {
                (
                    self.global_of[l],
                    self.speed[l],
                    self.completed[l],
                    self.max_queue[l],
                    self.dropped[l],
                )
            })
            .collect();
        (
            ShardReport {
                slots,
                latencies: self.latencies,
                orphaned: self.orphaned,
                last_event: self.last_event,
            },
            snap,
        )
    }
}

/// Routes arrivals `[first, first + count)` against the frozen epoch
/// view. Pure in `(engine, view, place_seed, key_seed, index)`: the
/// same arrival gets the same target no matter which worker (or how
/// many workers) computes the chunk.
fn place_chunk(
    engine: &PlacementEngine,
    view: &EpochView,
    place_seed: u64,
    key_seed: u64,
    first: u64,
    count: usize,
) -> Vec<u32> {
    let dense = DenseView::new(&view.queues, &view.speeds);
    let needs_key = engine.needs_key();
    (0..count as u64)
        .map(|k| {
            let i = first + k;
            let mut rng = Xoshiro256PlusPlus::from_u64_seed(derive_seed(place_seed, i, 0));
            // Same counter-hashed key scheme as the serial engine,
            // which increments `arrived` before hashing — hence `i + 1`.
            let key = if needs_key {
                mix64(key_seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            } else {
                0
            };
            engine.place_stateless(&dense, key, &mut rng) as u32
        })
        .collect()
}

/// The space-sharded parallel cluster simulator (see the module docs
/// for the epoch machine). Construct through
/// [`crate::SimBuilder::workers`]; the output is a pure function of
/// `(spec, seed)` and in particular **does not depend on the worker
/// count** — `workers = 1` and `workers = 4` render byte-identical
/// artifacts.
#[derive(Debug)]
pub struct ShardedClusterSim {
    spec: ClusterSpec,
    seed: u64,
    workers: usize,
    result: Option<ClusterMetrics>,
    snapshot: Option<MetricsSnapshot>,
}

impl ShardedClusterSim {
    /// Builds the sharded simulator with the given worker count
    /// (clamped to the fleet size; each worker owns one contiguous
    /// shard of slots).
    ///
    /// # Panics
    /// Panics if `workers` is zero or the spec is invalid (same
    /// validation as the serial engine).
    #[must_use]
    pub fn new(spec: ClusterSpec, seed: u64, workers: usize) -> Self {
        assert!(workers >= 1, "the sharded engine needs at least one worker");
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
        ShardedClusterSim {
            spec,
            seed,
            workers,
            result: None,
            snapshot: None,
        }
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs the full request budget and drains the queues; returns the
    /// final metrics. A second call is a no-op returning the same
    /// metrics.
    pub fn run(&mut self) -> ClusterMetrics {
        if let Some(result) = &self.result {
            return result.clone();
        }
        let (metrics, snapshot) = run_sharded(&self.spec, self.seed, self.workers);
        self.result = Some(metrics.clone());
        self.snapshot = Some(snapshot);
        metrics
    }

    /// The merged per-shard telemetry snapshot of a finished run:
    /// deterministic counters (arrivals, epochs, per-shard lazy-board
    /// internals, thinning counts), merged in shard order. Counters are
    /// always on — like the serial engine's scheduler-internals
    /// counters — and the sharded engine records no wall-clock spans,
    /// so the snapshot is a pure function of `(spec, seed, workers)`.
    /// Empty before [`ShardedClusterSim::run`].
    #[must_use]
    pub fn telemetry_snapshot(&self) -> MetricsSnapshot {
        self.snapshot.clone().unwrap_or_default()
    }
}

/// The coordinator: owns the epoch loop, the serial RNG streams, the
/// frozen view and the worker channels.
fn run_sharded(spec: &ClusterSpec, seed: u64, workers: usize) -> (ClusterMetrics, MetricsSnapshot) {
    let n0 = spec.speeds.n();
    let s_count = workers.min(n0).max(1);
    let speeds0 = spec.speeds.as_slice();
    let requests = spec.requests;

    // Coordinator-side fleet mirrors: the authoritative epoch-boundary
    // state placement freezes against.
    let mut view = Arc::new(EpochView {
        queues: vec![0; n0],
        speeds: speeds0.to_vec(),
    });
    let mut alive_slots: Vec<u32> = (0..n0 as u32).collect();
    let mut ids: Vec<u64> = (0..n0 as u64).collect();
    let mut next_id = n0 as u64;
    // Base slots partition contiguously (the same `[s·n0/S, (s+1)·n0/S)`
    // ranges the shards are built over); churn-added slots round-robin.
    let mut owner: Vec<u32> = vec![0; n0];
    for s in 0..s_count {
        let lo = s * n0 / s_count;
        let hi = (s + 1) * n0 / s_count;
        for o in &mut owner[lo..hi] {
            *o = s as u32;
        }
    }
    let membership = |alive_slots: &[u32], ids: &[u64], speeds: &[u64]| {
        Membership::new(
            alive_slots
                .iter()
                .map(|&g| Member {
                    slot: g as usize,
                    id: ids[g as usize],
                    speed: speeds[g as usize],
                })
                .collect(),
        )
    };
    let mut engine = Arc::new(PlacementEngine::new(
        spec.placement,
        &membership(&alive_slots, &ids, &view.speeds),
        seed,
    ));

    let mut sampler = ArrivalSampler::new(spec.arrivals, derive_seed(seed, ARRIVAL_STREAM, 0));
    let mut churn_rng = Xoshiro256PlusPlus::from_u64_seed(derive_seed(seed, CHURN_STREAM, 0));
    let service_seed = derive_seed(seed, SERVICE_STREAM, 0);
    let place_seed = derive_seed(seed, PLACEMENT_STREAM, 0);
    let key_seed = seed;

    let delta = EPOCH_ARRIVALS / spec.arrivals.peak_rate();
    let mut generated: u64 = 0;
    let mut pending: Option<Time> = (requests > 0).then(|| sampler.next_after(0.0));
    let mut next_tick: Option<Time> = spec.churn.map(|c| c.start);
    let mut epoch: u64 = 0;
    let mut epochs_run = 0u64;
    let mut churn_epochs = 0u64;
    let mut joins = 0u64;
    let mut leaves = 0u64;
    let mut last_event: Time = 0.0;

    let mut ordered: Vec<Option<(ShardReport, MetricsSnapshot)>> =
        (0..s_count).map(|_| None).collect();

    std::thread::scope(|scope| {
        let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
        let mut task_txs: Vec<mpsc::Sender<Task>> = Vec::with_capacity(s_count);
        for s in 0..s_count {
            let (tx, rx) = mpsc::channel::<Task>();
            task_txs.push(tx);
            let reply = reply_tx.clone();
            let lo = (s * n0 / s_count) as u32;
            let hi = ((s + 1) * n0 / s_count) as u32;
            let mut state = ShardState::new(s, lo, hi, speeds0, spec.queue_capacity, service_seed);
            scope.spawn(move || {
                while let Ok(task) = rx.recv() {
                    match task {
                        Task::Place {
                            view,
                            engine,
                            first_index,
                            count,
                        } => {
                            let targets = place_chunk(
                                &engine,
                                &view,
                                place_seed,
                                key_seed,
                                first_index,
                                count,
                            );
                            let _ = reply.send(Reply::Placed { worker: s, targets });
                        }
                        Task::Advance {
                            ops,
                            arrivals,
                            t0,
                            t1,
                        } => {
                            let deltas = state.advance(ops, &arrivals, t0, t1);
                            let _ = reply.send(Reply::Advanced {
                                deltas,
                                last_event: state.last_event,
                            });
                        }
                        Task::Drain => {
                            state.drain_all();
                            let _ = reply.send(Reply::Drained {
                                last_event: state.last_event,
                            });
                        }
                        Task::Finish => {
                            let shard = state.shard;
                            let report = state.finish();
                            let _ = reply.send(Reply::Report {
                                shard,
                                report: Box::new(report),
                            });
                            return;
                        }
                    }
                }
            });
        }
        drop(reply_tx);

        let mut times: Vec<Time> = Vec::new();
        let mut targets: Vec<u32> = Vec::new();
        while generated < requests {
            let t0 = epoch as f64 * delta;
            let t1 = (epoch + 1) as f64 * delta;
            // 1. Churn ticks inside this epoch, quantised to its start.
            let mut ops_by_shard: Vec<Vec<ChurnOp>> = vec![Vec::new(); s_count];
            let mut churned = false;
            if let Some(churn) = spec.churn {
                while let Some(tick) = next_tick {
                    if tick >= t1 {
                        break;
                    }
                    // The serial engine's stop rule: no churn once the
                    // request budget is fully offered.
                    if generated >= requests {
                        next_tick = None;
                        break;
                    }
                    if alive_slots.len() > 1 {
                        let pick = churn_rng.next_below(alive_slots.len() as u64) as usize;
                        let victim = alive_slots[pick];
                        alive_slots.remove(pick);
                        let vspeed = view.speeds[victim as usize];
                        {
                            let v = Arc::make_mut(&mut view);
                            v.queues[victim as usize] = 0;
                        }
                        ops_by_shard[owner[victim as usize] as usize]
                            .push(ChurnOp::Deactivate(victim));
                        leaves += 1;
                        // A fresh server of the same speed joins.
                        let g = owner.len();
                        {
                            let v = Arc::make_mut(&mut view);
                            v.queues.push(0);
                            v.speeds.push(vspeed);
                        }
                        ids.push(next_id);
                        next_id += 1;
                        owner.push((g % s_count) as u32);
                        alive_slots.push(g as u32);
                        ops_by_shard[owner[g] as usize].push(ChurnOp::Activate {
                            slot: g as u32,
                            speed: vspeed,
                        });
                        joins += 1;
                        churned = true;
                    }
                    next_tick = Some(tick + churn.interval);
                }
            }
            if churned {
                engine = Arc::new(PlacementEngine::new(
                    spec.placement,
                    &membership(&alive_slots, &ids, &view.speeds),
                    seed,
                ));
                churn_epochs += 1;
            }
            // 2. This epoch's arrivals, chained on the serial stream.
            times.clear();
            while let Some(t) = pending {
                if t >= t1 {
                    break;
                }
                times.push(t);
                generated += 1;
                pending = (generated < requests).then(|| sampler.next_after(t));
            }
            // 3. Place round: chunk the arrivals across the workers.
            targets.clear();
            targets.resize(times.len(), 0);
            if !times.is_empty() {
                let first_global = generated - times.len() as u64;
                let chunk = times.len().div_ceil(s_count);
                let mut sent = 0usize;
                for (w, tx) in task_txs.iter().enumerate() {
                    let start = w * chunk;
                    if start >= times.len() {
                        break;
                    }
                    let count = chunk.min(times.len() - start);
                    tx.send(Task::Place {
                        view: Arc::clone(&view),
                        engine: Arc::clone(&engine),
                        first_index: first_global + start as u64,
                        count,
                    })
                    .expect("worker alive");
                    sent += 1;
                }
                for _ in 0..sent {
                    match reply_rx.recv().expect("worker alive") {
                        Reply::Placed {
                            worker,
                            targets: tg,
                        } => {
                            targets[worker * chunk..worker * chunk + tg.len()].copy_from_slice(&tg);
                        }
                        _ => unreachable!("place round replies with Placed"),
                    }
                }
            }
            // 4. Bin the placed arrivals to their owning shards.
            let mut bins: Vec<Vec<(Time, u32)>> = vec![Vec::new(); s_count];
            for (&t, &g) in times.iter().zip(&targets) {
                bins[owner[g as usize] as usize].push((t, g));
            }
            // 5. Advance round: every shard steps to t1 and reports the
            // queue deltas that feed the next epoch's frozen view.
            for (tx, (ops, arrivals)) in task_txs.iter().zip(ops_by_shard.into_iter().zip(bins)) {
                tx.send(Task::Advance {
                    ops,
                    arrivals,
                    t0,
                    t1,
                })
                .expect("worker alive");
            }
            for _ in 0..s_count {
                match reply_rx.recv().expect("worker alive") {
                    Reply::Advanced {
                        deltas,
                        last_event: le,
                    } => {
                        let v = Arc::make_mut(&mut view);
                        for (g, q) in deltas {
                            v.queues[g as usize] = q;
                        }
                        last_event = last_event.max(le);
                    }
                    _ => unreachable!("advance round replies with Advanced"),
                }
            }
            epoch += 1;
            epochs_run += 1;
        }
        // Budget offered: drain every shard, then collect the reports.
        for tx in &task_txs {
            tx.send(Task::Drain).expect("worker alive");
        }
        for _ in 0..s_count {
            match reply_rx.recv().expect("worker alive") {
                Reply::Drained { last_event: le } => last_event = last_event.max(le),
                _ => unreachable!("drain round replies with Drained"),
            }
        }
        for tx in &task_txs {
            tx.send(Task::Finish).expect("worker alive");
        }
        for _ in 0..s_count {
            match reply_rx.recv().expect("worker alive") {
                Reply::Report { shard, report } => ordered[shard] = Some(*report),
                _ => unreachable!("finish round replies with Report"),
            }
        }
    });

    // Merge in shard order — the fixed order that keeps the fold
    // deterministic — then canonicalise and finalise.
    let (mut report, mut snap) = merge_ordered(
        ordered
            .into_iter()
            .map(|r| r.expect("every shard reported")),
    )
    .expect("at least one shard");

    report.slots.sort_unstable_by_key(|r| r.0);
    let total_slots = view.queues.len();
    debug_assert_eq!(report.slots.len(), total_slots);
    let mut per_completed = Vec::with_capacity(total_slots);
    let mut per_max_queue = Vec::with_capacity(total_slots);
    let mut per_speed = Vec::with_capacity(total_slots);
    let mut dropped = 0u64;
    for &(g, speed, completed, max_queue, drops) in &report.slots {
        debug_assert_eq!(g as usize, per_speed.len(), "every slot reported once");
        per_completed.push(completed);
        per_max_queue.push(max_queue);
        per_speed.push(speed);
        dropped += drops;
    }
    // Counting sort (stable) of the latencies into slot-major order:
    // each slot's latencies stay in completion order, and the overall
    // order no longer remembers how the fleet was sharded — so the
    // mean's f64 summation order is canonical. The sort consumes the
    // tagged latencies, so they are freed before `from_parts` files the
    // sorted ones in the latency store.
    let tagged = std::mem::take(&mut report.latencies);
    let mut offsets = vec![0usize; total_slots + 1];
    for &(g, _) in &tagged {
        offsets[g as usize + 1] += 1;
    }
    for i in 0..total_slots {
        offsets[i + 1] += offsets[i];
    }
    let mut latencies = vec![0.0f64; tagged.len()];
    for (g, l) in tagged {
        latencies[offsets[g as usize]] = l;
        offsets[g as usize] += 1;
    }

    snap.add_counter("sim.arrived", generated);
    snap.add_counter("sharded.epochs", epochs_run);
    snap.add_counter("sharded.churn_epochs", churn_epochs);
    snap.add_counter("sharded.shards", s_count as u64);
    let (accepted, rejected, squeeze) = sampler.thinning_counts();
    snap.add_counter("arrivals.thinning_accepted", accepted);
    snap.add_counter("arrivals.thinning_rejected", rejected);
    snap.add_counter("arrivals.squeeze_accepts", squeeze);

    let metrics = ClusterMetrics::from_parts(
        per_completed,
        per_max_queue,
        per_speed,
        latencies,
        generated,
        dropped,
        report.orphaned,
        joins,
        leaves,
        last_event,
    );
    (metrics, snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use crate::sim::ChurnConfig;
    use bnb_core::CapacityVector;
    use bnb_router::PlacementSpec;

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
        let m = ShardedClusterSim::new(base_spec(), 1, 4).run();
        assert_eq!(m.requests, 20_000);
        assert_eq!(m.completed + m.dropped, m.requests);
        assert_eq!(m.orphaned, 0);
        assert!(m.horizon > 0.0);
        assert!(m.latency[0] > 0.0);
        assert!(m.latency[0] <= m.latency[1] && m.latency[1] <= m.latency[2]);
        assert!(m.latency[2] <= m.latency[3]);
    }

    #[test]
    fn worker_count_cannot_change_the_metrics() {
        let runs: Vec<ClusterMetrics> = [1usize, 2, 3, 4, 7]
            .iter()
            .map(|&w| ShardedClusterSim::new(base_spec(), 42, w).run())
            .collect();
        for m in &runs[1..] {
            assert_eq!(&runs[0], m, "metrics must be invariant to the worker count");
        }
        assert_eq!(
            runs[0].render_table(),
            runs[1].render_table(),
            "rendered artifacts too"
        );
    }

    #[test]
    fn worker_count_cannot_change_the_metrics_under_churn() {
        let mut spec = base_spec();
        spec.churn = Some(ChurnConfig {
            start: 5.0,
            interval: 10.0,
        });
        spec.requests = 30_000;
        let a = ShardedClusterSim::new(spec.clone(), 9, 1).run();
        let b = ShardedClusterSim::new(spec.clone(), 9, 4).run();
        assert_eq!(a, b);
        assert!(a.leaves > 0, "churn must actually fire");
        assert_eq!(a.joins, a.leaves);
        assert_eq!(a.completed + a.dropped + a.orphaned, a.requests);
    }

    #[test]
    fn every_placement_policy_runs_end_to_end() {
        for placement in [
            PlacementSpec::DChoice { d: 2 },
            PlacementSpec::DChoice { d: 3 },
            PlacementSpec::ConsistentHash { vnodes: 8 },
            PlacementSpec::Rendezvous,
            PlacementSpec::HashThenProbe { d: 2, vnodes: 8 },
        ] {
            let mut spec = base_spec();
            spec.placement = placement;
            spec.requests = 5_000;
            let a = ShardedClusterSim::new(spec.clone(), 3, 1).run();
            let b = ShardedClusterSim::new(spec, 3, 4).run();
            assert_eq!(a, b, "{}: worker-count invariance", placement.name());
            assert_eq!(a.completed + a.dropped, 5_000, "{}", placement.name());
            assert!(a.completed > 0, "{}", placement.name());
        }
    }

    #[test]
    fn rerun_is_a_noop_returning_the_same_metrics() {
        let mut sim = ShardedClusterSim::new(base_spec(), 2, 2);
        let first = sim.run();
        let second = sim.run();
        assert_eq!(first, second);
    }

    #[test]
    fn zero_requests_simulates_nothing() {
        let mut spec = base_spec();
        spec.requests = 0;
        let m = ShardedClusterSim::new(spec, 1, 4).run();
        assert_eq!(m.requests, 0);
        assert_eq!(m.completed, 0);
        assert_eq!(m.horizon, 0.0);
    }

    #[test]
    fn telemetry_counters_are_deterministic_and_schedule_invisible() {
        let mut a = ShardedClusterSim::new(base_spec(), 7, 2);
        let ma = a.run();
        let snap = a.telemetry_snapshot();
        assert_eq!(snap.counter("sim.arrived"), Some(20_000));
        assert!(snap.counter("sharded.epochs").unwrap_or(0) > 0);
        assert_eq!(snap.counter("sharded.shards"), Some(2));
        let mut b = ShardedClusterSim::new(base_spec(), 7, 2);
        let mb = b.run();
        assert_eq!(ma, mb);
        assert_eq!(
            b.telemetry_snapshot().counters(),
            snap.counters(),
            "shard-merged counters replay under the same seed and worker count"
        );
    }

    #[test]
    fn seeds_separate_runs() {
        let a = ShardedClusterSim::new(base_spec(), 42, 2).run();
        let b = ShardedClusterSim::new(base_spec(), 43, 2).run();
        assert_ne!(a, b, "different seeds should differ (w.o.p.)");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ShardedClusterSim::new(base_spec(), 1, 0);
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
        let _ = ShardedClusterSim::new(spec, 0, 2);
    }
}
