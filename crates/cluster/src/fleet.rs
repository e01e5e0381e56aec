//! The heterogeneous server fleet: finite-queue servers with latency
//! bookkeeping and churn (servers joining and leaving mid-run).
//!
//! Each slot is **one cache-line-pair record** ([`ClusterServer`],
//! 128 bytes, 128-byte aligned) holding exactly the state the
//! cluster's serving loop and end-of-run metrics read: speed and its
//! reciprocal, queue length, peak queue, completions, drops, a stable
//! membership id for consistent-hash placement, the alive flag, and an
//! inline ring of the admission times of the jobs in the system. The
//! placement compare, `try_join`, `depart` and the departure-scheduling
//! `1 / speed` all read the same record, so serving one request pulls
//! one line pair per server it looks at.
//!
//! A server with more than `INLINE_ADMISSIONS` (8) jobs in the system
//! keeps its oldest admissions in the ring and spills the newer ones,
//! in FIFO order, to a side store owned by the fleet. Only slots that
//! actually spill get a side buffer, and `fifo_spills` counts every
//! admission that went there, so a ring too short for a workload shows
//! up in the telemetry snapshot.
//!
//! Slots are never reused or revived — a departed server's slot stays
//! dead forever — so `is_alive()` alone identifies stale departure
//! events after churn.

use bnb_queueing::events::Time;
use bnb_router::{LoadView, Member, Membership};
use std::collections::VecDeque;

/// Outcome of offering a job to a server through [`Fleet::try_join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The server was idle; the job starts service immediately (the
    /// caller must schedule its departure).
    StartedService,
    /// The job joined a busy server's queue.
    Queued,
    /// The queue was at capacity; the job was dropped and counted.
    Dropped,
}

/// Admission times a server holds inline, in its own record. Sized so
/// the ring fills the record's second cache line exactly; deeper
/// queues spill to the fleet's side store.
const INLINE_ADMISSIONS: usize = 8;

/// `ClusterServer::spill` of a slot that has never spilled.
const NO_SPILL: u32 = u32::MAX;

/// One cluster server: queue counters plus latency and membership
/// state, laid out as one 128-byte record on a 128-byte boundary.
///
/// The first cache line holds the counters; the hot fields are
/// `queue` and `speed` (read by every placement compare),
/// `inv_speed` (every departure schedule), `max_queue`, `completed`
/// and `head` (every join and depart) and `alive` (every join). The
/// second line is the admission ring.
#[derive(Debug, Clone)]
#[repr(C, align(128))]
pub struct ClusterServer {
    /// Jobs in the system (queue + in service).
    queue: u64,
    speed: u64,
    /// `1 / speed`, precomputed once per server.
    inv_speed: f64,
    /// Largest queue length ever observed.
    max_queue: u64,
    /// Completed jobs.
    completed: u64,
    /// Jobs rejected at a full queue.
    dropped: u64,
    /// Stable membership id (never reused, feeds the hash ring).
    id: u64,
    /// Index of this slot's buffer in the fleet's side store, or
    /// `NO_SPILL` until the slot first overflows its ring.
    spill: u32,
    /// Ring position of the oldest admission in the system.
    head: u8,
    alive: bool,
    /// Admission times of the oldest `min(queue, INLINE_ADMISSIONS)`
    /// jobs in the system, FIFO from `head`, wrapping.
    ring: [Time; INLINE_ADMISSIONS],
}

// Layout guard: a record is exactly one aligned cache-line pair, the
// counters (`repr(C)` keeps declaration order) filling the first line
// and the ring the second, whose positions fit the `u8` head. A field
// that breaks this fails to compile.
const _: () = {
    assert!(std::mem::size_of::<ClusterServer>() == 128);
    assert!(std::mem::align_of::<ClusterServer>() == 128);
    assert!(std::mem::offset_of!(ClusterServer, ring) == 64);
    assert!(INLINE_ADMISSIONS <= u8::MAX as usize);
};

impl ClusterServer {
    fn new(speed: u64, id: u64) -> Self {
        assert!(speed > 0, "server speed must be positive");
        ClusterServer {
            queue: 0,
            speed,
            inv_speed: 1.0 / speed as f64,
            max_queue: 0,
            completed: 0,
            dropped: 0,
            id,
            spill: NO_SPILL,
            head: 0,
            alive: true,
            ring: [0.0; INLINE_ADMISSIONS],
        }
    }

    /// Service speed (jobs of unit work per unit time).
    #[must_use]
    pub fn speed(&self) -> u64 {
        self.speed
    }

    /// Jobs currently in the system (queue + in service).
    #[must_use]
    pub fn queue_len(&self) -> u64 {
        self.queue
    }

    /// Largest queue length ever observed.
    #[must_use]
    pub fn max_queue(&self) -> u64 {
        self.max_queue
    }

    /// Completed jobs.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Jobs rejected at a full queue.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Stable membership id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the server is currently part of the cluster.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive
    }
}

/// The admissions that overflowed their server's inline ring: one FIFO
/// buffer per slot that ever spilled, allocated on its first spill.
#[derive(Debug, Clone, Default)]
struct SpillStore {
    buffers: Vec<VecDeque<Time>>,
    /// Admissions pushed here, over the fleet's lifetime.
    spills: u64,
}

impl SpillStore {
    /// Appends admission time `t` behind `s`'s full ring.
    #[cold]
    #[inline(never)]
    fn push(&mut self, s: &mut ClusterServer, t: Time) {
        if s.spill == NO_SPILL {
            s.spill = u32::try_from(self.buffers.len()).expect("spill store overflow");
            self.buffers.push(VecDeque::new());
        }
        self.buffers[s.spill as usize].push_back(t);
        self.spills += 1;
    }

    /// Removes and returns `s`'s oldest spilled admission.
    #[cold]
    #[inline(never)]
    fn pop(&mut self, s: &ClusterServer) -> Time {
        self.buffers[s.spill as usize]
            .pop_front()
            .expect("a queue deeper than the ring has spilled admissions")
    }

    /// Frees `s`'s buffer, if it has one (the slot is leaving).
    fn release(&mut self, s: &ClusterServer) {
        if s.spill != NO_SPILL {
            self.buffers[s.spill as usize] = VecDeque::new();
        }
    }
}

/// The fleet: all server slots ever created, dead ones included (their
/// counters keep contributing to the final metrics).
#[derive(Debug, Clone)]
pub struct Fleet {
    /// One record per slot, in creation order: the only home of each
    /// server's queue length, speed and admission times. Placement
    /// reads each candidate's `(queue, speed)` out of its record
    /// ([`LoadView`]), so the winner's join hits a record in cache.
    servers: Vec<ClusterServer>,
    /// Admissions past a server's inline ring.
    spilled: SpillStore,
    n_alive: usize,
    next_id: u64,
    queue_capacity: Option<u64>,
}

impl Fleet {
    /// Builds a fleet of alive servers with the given speeds, all queues
    /// bounded by `queue_capacity` (`None` = unbounded).
    ///
    /// # Panics
    /// Panics if `speeds` is empty, any speed is zero, or the capacity
    /// is `Some(0)`.
    #[must_use]
    pub fn new(speeds: &[u64], queue_capacity: Option<u64>) -> Self {
        assert!(!speeds.is_empty(), "fleet needs at least one server");
        assert!(queue_capacity != Some(0), "queue capacity must be positive");
        let servers: Vec<ClusterServer> = speeds
            .iter()
            .enumerate()
            .map(|(i, &s)| ClusterServer::new(s, i as u64))
            .collect();
        Fleet {
            n_alive: servers.len(),
            next_id: servers.len() as u64,
            servers,
            spilled: SpillStore::default(),
            queue_capacity,
        }
    }

    /// Total slots ever created (alive and departed).
    #[must_use]
    pub fn n_slots(&self) -> usize {
        self.servers.len()
    }

    /// Currently alive servers.
    #[must_use]
    pub fn n_alive(&self) -> usize {
        self.n_alive
    }

    /// The server in slot `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn server(&self, i: usize) -> &ClusterServer {
        &self.servers[i]
    }

    /// All slots, in creation order.
    #[must_use]
    pub fn servers(&self) -> &[ClusterServer] {
        &self.servers
    }

    /// Admissions that found their server's inline ring full and went
    /// to the side store, over the fleet's lifetime.
    #[must_use]
    pub fn fifo_spills(&self) -> u64 {
        self.spilled.spills
    }

    /// Indices of the alive servers, in creation order. Placement
    /// structures (alias table, hash ring, rendezvous) are built over
    /// exactly this list, in this order.
    #[must_use]
    pub fn alive_indices(&self) -> Vec<usize> {
        self.servers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| i)
            .collect()
    }

    /// The alive servers as a router [`Membership`]: slots, stable ids
    /// and speeds in creation order — what a churn tick rebuilds
    /// [`bnb_router::PlacementEngine`] over. (A fresh fleet's
    /// membership is the identity over its speeds, so the simulator
    /// builds its first engine from the speeds instead, through
    /// [`bnb_router::PlacementEngine::from_speeds`].) Ids are handed
    /// out in creation order and never reused, so the member id list is
    /// strictly increasing and churn rebuilds take the ring's
    /// incremental path.
    #[must_use]
    pub fn membership(&self) -> Membership {
        Membership::new(
            self.servers
                .iter()
                .enumerate()
                .filter(|(_, s)| s.alive)
                .map(|(i, s)| Member {
                    slot: i,
                    id: s.id,
                    speed: s.speed,
                })
                .collect(),
        )
    }

    /// Offers a request to server `i` at time `now`.
    ///
    /// # Panics
    /// Panics if the server is not alive — placement must only route to
    /// alive servers.
    #[inline]
    pub fn try_join(&mut self, i: usize, now: Time) -> Admission {
        let s = &mut self.servers[i];
        assert!(s.alive, "routed a request to a departed server");
        if self.queue_capacity.is_some_and(|cap| s.queue >= cap) {
            s.dropped += 1;
            return Admission::Dropped;
        }
        if s.queue < INLINE_ADMISSIONS as u64 {
            s.ring[(s.head as usize + s.queue as usize) % INLINE_ADMISSIONS] = now;
        } else {
            self.spilled.push(s, now);
        }
        s.queue += 1;
        s.max_queue = s.max_queue.max(s.queue);
        if s.queue == 1 {
            Admission::StartedService
        } else {
            Admission::Queued
        }
    }

    /// `1 / speed` of slot `i` — how the departure-scheduling path
    /// scales Exp(1) work into service time (precomputed once rather
    /// than divided per event).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    #[must_use]
    pub fn inv_speed_of(&self, i: usize) -> f64 {
        self.servers[i].inv_speed
    }

    /// Loads both cache lines of slot `i`'s record — the counters
    /// (`queue`, `alive`) and the admission ring a departure reads — and
    /// returns a value derived from them. The drive loop's lookahead
    /// calls it for records it will read soon, so the misses overlap the
    /// work in between; only the loads matter, the value only feeds a
    /// sink.
    #[inline]
    #[must_use]
    pub(crate) fn touch_record(&self, i: usize) -> u64 {
        let s = &self.servers[i];
        s.queue ^ s.ring[0].to_bits()
    }

    /// The job in service on server `i` completes at `now`; returns its
    /// sojourn latency and whether another job is waiting (the caller
    /// must then schedule the next departure).
    ///
    /// # Panics
    /// Panics if the server's queue is empty.
    #[inline]
    pub fn depart(&mut self, i: usize, now: Time) -> (Time, bool) {
        let s = &mut self.servers[i];
        assert!(s.queue > 0, "departure from an empty cluster server");
        let head = s.head as usize;
        let admitted = s.ring[head];
        if s.queue > INLINE_ADMISSIONS as u64 {
            // The freed head cell is the ring's new tail: refill it
            // with the oldest spilled admission.
            s.ring[head] = self.spilled.pop(s);
        }
        s.head = ((head + 1) % INLINE_ADMISSIONS) as u8;
        s.queue -= 1;
        s.completed += 1;
        (now - admitted, s.queue > 0)
    }

    /// Server `i` leaves the cluster at `now`: its backlog (queued jobs
    /// and the one in service) is orphaned and returned, and it stops
    /// receiving traffic for good — slots are never revived, so pending
    /// departure events for it are recognisably stale via
    /// [`ClusterServer::is_alive`].
    ///
    /// # Panics
    /// Panics if the server is already dead or is the last alive server.
    pub fn deactivate(&mut self, i: usize, now: Time) -> u64 {
        assert!(self.n_alive > 1, "cannot deactivate the last alive server");
        let _ = now; // kept for API symmetry with join/depart timestamps
        let s = &mut self.servers[i];
        assert!(s.alive, "server {i} is already dead");
        s.alive = false;
        self.spilled.release(s);
        self.n_alive -= 1;
        let orphans = s.queue;
        s.queue = 0;
        orphans
    }

    /// A fresh server of the given speed joins the cluster; returns its
    /// slot index. It gets a new stable id, so hash-ring placements give
    /// it fresh arcs without disturbing anyone else's.
    pub fn activate_new(&mut self, speed: u64) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.servers.push(ClusterServer::new(speed, id));
        self.n_alive += 1;
        self.servers.len() - 1
    }

    /// Sum of admission drops over every slot.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.servers.iter().map(ClusterServer::dropped).sum()
    }
}

/// The fleet as the router's [`LoadView`]: the simulator drives
/// [`bnb_router::PlacementEngine`] directly against it — the same
/// placement code path a live embedding runs against a
/// [`bnb_router::FleetSnapshot`]. Each `(queue_len, speed)` read comes
/// from the candidate's own record, the line `try_join` writes next if
/// it wins.
impl LoadView for Fleet {
    #[inline]
    fn load(&self, slot: usize) -> (u64, u64) {
        let s = &self.servers[slot];
        (s.queue, s.speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    #[test]
    fn fleet_load_view_mirrors_joins_and_departs() {
        let mut fleet = Fleet::new(&[2, 4], Some(8));
        fleet.try_join(1, 0.5);
        fleet.try_join(1, 0.6);
        assert_eq!(fleet.load(1), (2, 4));
        assert_eq!(fleet.queue_len(0), 0);
        let _ = fleet.depart(1, 1.0);
        assert_eq!(fleet.load(1), (1, 4));
    }

    #[test]
    fn join_depart_latency_roundtrip() {
        let mut fleet = Fleet::new(&[2, 2], None);
        assert_eq!(fleet.try_join(0, 1.0), Admission::StartedService);
        assert_eq!(fleet.try_join(0, 2.0), Admission::Queued);
        let (lat, more) = fleet.depart(0, 4.0);
        assert!((lat - 3.0).abs() < 1e-12, "first job waited 1.0→4.0");
        assert!(more);
        let (lat2, more2) = fleet.depart(0, 5.0);
        assert!((lat2 - 3.0).abs() < 1e-12, "second job waited 2.0→5.0");
        assert!(!more2);
        assert_eq!(fleet.server(0).completed(), 2);
    }

    #[test]
    fn capacity_drops_do_not_record_latency() {
        let mut fleet = Fleet::new(&[1], Some(1));
        assert_eq!(fleet.try_join(0, 0.0), Admission::StartedService);
        assert_eq!(fleet.try_join(0, 0.5), Admission::Dropped);
        assert_eq!(fleet.server(0).dropped(), 1);
        let (_, more) = fleet.depart(0, 1.0);
        assert!(!more, "the dropped job must not linger in the fifo");
    }

    #[test]
    fn deactivate_orphans_backlog_permanently() {
        let mut fleet = Fleet::new(&[1, 1], None);
        fleet.try_join(0, 0.0);
        fleet.try_join(0, 0.1);
        fleet.try_join(0, 0.2);
        let orphans = fleet.deactivate(0, 1.0);
        assert_eq!(orphans, 3);
        assert_eq!(fleet.server(0).queue_len(), 0);
        assert!(!fleet.server(0).is_alive());
        assert_eq!(fleet.n_alive(), 1);
        assert_eq!(fleet.alive_indices(), vec![1]);
    }

    #[test]
    fn activate_new_gets_fresh_id() {
        let mut fleet = Fleet::new(&[1, 1], Some(4));
        fleet.deactivate(1, 0.0);
        let slot = fleet.activate_new(8);
        assert_eq!(slot, 2);
        assert_eq!(fleet.server(slot).id(), 2, "ids are never reused");
        assert_eq!(fleet.server(slot).speed(), 8);
        assert_eq!(fleet.n_alive(), 2);
        assert_eq!(fleet.server(0).speed(), 1);
        assert_eq!(fleet.alive_indices(), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "departed server")]
    fn routing_to_dead_server_panics() {
        let mut fleet = Fleet::new(&[1, 1], None);
        fleet.deactivate(0, 0.0);
        let _ = fleet.try_join(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "last alive server")]
    fn deactivating_last_server_panics() {
        let mut fleet = Fleet::new(&[1], None);
        let _ = fleet.deactivate(0, 0.0);
    }
    #[test]
    fn ring_wraps_spills_and_refills_in_fifo_order() {
        let mut fleet = Fleet::new(&[1, 1], None);
        // Move the ring head off zero so the deep queue below wraps.
        for t in [0.0, 1.0, 2.0] {
            fleet.try_join(0, t);
        }
        for _ in 0..2 {
            let _ = fleet.depart(0, 3.0);
        }
        // 1 job in the system; 20 more fill the ring and spill 13.
        for k in 0..20 {
            fleet.try_join(0, 10.0 + f64::from(k));
        }
        assert_eq!(fleet.server(0).queue_len(), 21);
        assert_eq!(fleet.fifo_spills(), 13);
        let mut admitted = vec![2.0];
        admitted.extend((0..20).map(|k| 10.0 + f64::from(k)));
        for (k, &a) in admitted.iter().enumerate() {
            let (latency, more) = fleet.depart(0, 100.0);
            assert_eq!(latency.to_bits(), (100.0 - a).to_bits(), "job {k}");
            assert_eq!(more, k + 1 < admitted.len());
        }
        // The slot's side buffer is reused on the next overflow.
        for k in 0..10 {
            fleet.try_join(0, 200.0 + f64::from(k));
        }
        assert_eq!(fleet.fifo_spills(), 15);
        assert_eq!(fleet.spilled.buffers.len(), 1, "one buffer per slot");
        // Leaving with a spilled backlog orphans it and frees the buffer.
        assert_eq!(fleet.deactivate(0, 300.0), 10);
        assert_eq!(fleet.spilled.buffers[0].capacity(), 0);
        assert_eq!(fleet.server(1).queue_len(), 0, "neighbour untouched");
    }

    const MODEL_SLOTS: usize = 4;

    /// The reference model of one slot: a plain `VecDeque` of admission
    /// times plus the counters.
    #[derive(Debug, Clone)]
    struct ModelSlot {
        fifo: VecDeque<Time>,
        max_queue: u64,
        completed: u64,
        dropped: u64,
        alive: bool,
    }

    impl ModelSlot {
        fn new() -> Self {
            ModelSlot {
                fifo: VecDeque::new(),
                max_queue: 0,
                completed: 0,
                dropped: 0,
                alive: true,
            }
        }
    }

    /// One step on slot `pick % n_slots`: a burst of joins or departs,
    /// or churn.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Join(usize, u32),
        Depart(usize, u32),
        Deactivate(usize),
        Activate(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u32..58, 0usize..64, 1u32..=20).prop_map(|(kind, pick, burst)| match kind {
            0..=27 => Op::Join(pick, burst),
            28..=55 => Op::Depart(pick, burst),
            56 => Op::Deactivate(pick),
            _ => Op::Activate(1 + pick as u64 % 8),
        })
    }

    /// Replays `ops` on a fleet and on the `VecDeque` model in lockstep:
    /// every latency must match bit for bit, and every slot's counters
    /// after every step.
    fn check_against_model(capacity: Option<u64>, ops: &[Op]) -> Result<(), TestCaseError> {
        let mut fleet = Fleet::new(&[1, 3, 8, 2], capacity);
        let mut model = vec![ModelSlot::new(); MODEL_SLOTS];
        let mut spills = 0u64;
        let mut step = 0u64;
        // Strictly increasing, irregular times: any FIFO mix-up shows
        // in a latency.
        let mut tick = || {
            step += 1;
            step as f64 * 0.37 + (step * step % 11) as f64 * 1e-3
        };
        for &op in ops {
            match op {
                Op::Join(pick, burst) => {
                    let i = pick % model.len();
                    if !model[i].alive {
                        continue;
                    }
                    for _ in 0..burst {
                        let now = tick();
                        let m = &mut model[i];
                        let depth = m.fifo.len() as u64;
                        let expected = if capacity.is_some_and(|c| depth >= c) {
                            m.dropped += 1;
                            Admission::Dropped
                        } else {
                            spills += u64::from(depth >= INLINE_ADMISSIONS as u64);
                            m.fifo.push_back(now);
                            m.max_queue = m.max_queue.max(depth + 1);
                            if depth == 0 {
                                Admission::StartedService
                            } else {
                                Admission::Queued
                            }
                        };
                        prop_assert_eq!(fleet.try_join(i, now), expected);
                    }
                }
                Op::Depart(pick, burst) => {
                    let i = pick % model.len();
                    for _ in 0..burst {
                        let now = tick();
                        let m = &mut model[i];
                        let Some(admitted) = m.fifo.pop_front() else {
                            break;
                        };
                        m.completed += 1;
                        let (latency, more) = fleet.depart(i, now);
                        prop_assert_eq!(latency.to_bits(), (now - admitted).to_bits());
                        prop_assert_eq!(more, !m.fifo.is_empty());
                    }
                }
                Op::Deactivate(pick) => {
                    let i = pick % model.len();
                    let alive = model.iter().filter(|m| m.alive).count();
                    if !model[i].alive || alive == 1 {
                        continue;
                    }
                    let m = &mut model[i];
                    m.alive = false;
                    let orphans = m.fifo.len() as u64;
                    m.fifo.clear();
                    prop_assert_eq!(fleet.deactivate(i, tick()), orphans);
                }
                Op::Activate(speed) => {
                    prop_assert_eq!(fleet.activate_new(speed), model.len());
                    model.push(ModelSlot::new());
                }
            }
            prop_assert_eq!(fleet.n_slots(), model.len());
            prop_assert_eq!(fleet.fifo_spills(), spills);
            for (i, m) in model.iter().enumerate() {
                let s = fleet.server(i);
                prop_assert_eq!(s.queue_len(), m.fifo.len() as u64, "slot {i} queue");
                prop_assert_eq!(s.max_queue(), m.max_queue, "slot {i} peak");
                prop_assert_eq!(s.completed(), m.completed, "slot {i} completed");
                prop_assert_eq!(s.dropped(), m.dropped, "slot {i} dropped");
                prop_assert_eq!(s.is_alive(), m.alive, "slot {i} alive");
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random join/depart bursts and churn on a few slots
        /// at capacities up to 64 (0 = unbounded): ring wraparound,
        /// queues deeper than the ring with spill and refill, capacity
        /// drops and slots leaving with a spilled backlog all replay
        /// the `VecDeque` model exactly.
        #[test]
        fn fifo_matches_vecdeque_model(
            capacity in 0u64..=64,
            ops in prop::collection::vec(op_strategy(), 1..200),
        ) {
            check_against_model((capacity > 0).then_some(capacity), &ops)?;
        }
    }
}
