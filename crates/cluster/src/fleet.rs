//! The heterogeneous server fleet: finite-queue servers with latency
//! bookkeeping and churn (servers joining and leaving mid-run).
//!
//! Each slot is **one half-line record** ([`ClusterServer`], 32 bytes,
//! 32-byte aligned, so it never straddles a cache line) holding exactly
//! the state the cluster's serving loop and end-of-run metrics read:
//! speed and its reciprocal, queue length, peak queue, the low word of
//! the completion count, and the two ends of the server's list of jobs
//! in the system. The placement compare, `try_join`, `depart` and the
//! departure-scheduling `1 / speed` all read the same record, so
//! serving one request pulls one line per server it looks at.
//!
//! The admission times of every job in the system — the one in service
//! first, then the ones waiting behind it — live in one fleet-wide pool
//! of 12-byte `(time, next)` nodes, a FIFO list per server. Every
//! accepted admission appends a node and every departure pops its
//! server's head node, whose time is the latency base. Nodes freed by
//! departures, and all the nodes of a server that leaves, go on a free
//! list that is reused before the pool grows, so the pool follows the
//! peak number of jobs in the system across the fleet, not its server
//! count. `queued` counts the admissions behind a busy server and
//! `pool_nodes` gives the pool's high-water mark, for the telemetry
//! snapshot. Drops are one fleet-wide total, and a record's completion
//! count carries into a cold fleet-level store each time its low word
//! wraps, so [`Fleet::completed`] stays exact.
//!
//! Slots are never reused or revived — a departed server's slot stays
//! dead forever — so `is_alive()` alone identifies stale departure
//! events after churn, and a slot's index is its stable membership id.

use bnb_queueing::events::Time;
use bnb_router::{LoadView, Member, Membership};
use std::collections::BTreeMap;

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

/// The end of a pool list: the `head` of an idle server, and the `next`
/// of a list's last node.
const NIL: u32 = u32::MAX;

/// The `head` of a server that left the cluster. The pool never hands
/// out this index, so no list reaches it.
const DEAD: u32 = u32::MAX - 1;

/// One cluster server: queue counters plus latency and membership
/// state, laid out as one 32-byte record on a 32-byte boundary.
///
/// The hot fields are `queue` and `speed` (read by every placement
/// compare), `inv_speed` (every departure schedule), `max_queue`,
/// `completed`, `head` and `tail` (every join and depart).
#[derive(Debug, Clone)]
#[repr(C, align(32))]
pub struct ClusterServer {
    /// `1 / speed`, precomputed once per server.
    inv_speed: f64,
    speed: u32,
    /// Jobs in the system (queue + in service).
    queue: u32,
    /// Pool nodes of the job in service and of the newest job; `head`
    /// is `NIL` (and `tail` stale) while the server is idle, and `DEAD`
    /// once it has left.
    head: u32,
    tail: u32,
    /// Largest queue length ever observed (at most `queue`'s range).
    max_queue: u32,
    /// Completed jobs, low word: each wrap carries into the fleet.
    completed: u32,
}

// Layout guard: a record is half an aligned cache line, or this fails
// to compile.
const _: () = {
    assert!(std::mem::size_of::<ClusterServer>() == 32);
    assert!(std::mem::align_of::<ClusterServer>() == 32);
};

impl ClusterServer {
    fn new(speed: u64) -> Self {
        assert!(speed > 0, "server speed must be positive");
        let Ok(speed32) = u32::try_from(speed) else {
            panic!("server speed {speed} exceeds u32::MAX");
        };
        ClusterServer {
            inv_speed: 1.0 / speed as f64,
            speed: speed32,
            queue: 0,
            head: NIL,
            tail: NIL,
            max_queue: 0,
            completed: 0,
        }
    }

    /// Service speed (jobs of unit work per unit time).
    #[must_use]
    pub fn speed(&self) -> u64 {
        u64::from(self.speed)
    }

    /// Jobs currently in the system (queue + in service).
    #[must_use]
    pub fn queue_len(&self) -> u64 {
        u64::from(self.queue)
    }

    /// Largest queue length ever observed.
    #[must_use]
    pub fn max_queue(&self) -> u64 {
        u64::from(self.max_queue)
    }

    /// Whether the server is currently part of the cluster.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.head != DEAD
    }
}

/// One job's admission time, and the pool node of the job behind it on
/// the same server (`NIL` at the end of the list). Packed to 12 bytes;
/// its fields are only ever read and written by value.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Node {
    time: Time,
    next: u32,
}

// Layout guard: a node is 12 bytes, or this fails to compile.
const _: () = assert!(std::mem::size_of::<Node>() == 12);

/// The admission times of every job in the fleet's system: one FIFO
/// list per server, threaded through shared nodes.
#[derive(Debug, Clone)]
struct Pool {
    nodes: Vec<Node>,
    /// First node of the free list, `NIL` when every node is in use.
    free: u32,
}

impl Pool {
    /// Appends admission time `time` to `s`'s list, on a free node if
    /// there is one.
    #[inline]
    fn push(&mut self, s: &mut ClusterServer, time: Time) {
        let node = Node { time, next: NIL };
        let k = if self.free == NIL {
            // Indices stay below `DEAD`, so no list can reach it.
            let k = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&k| k < DEAD)
                .expect("admission pool overflow");
            self.nodes.push(node);
            k
        } else {
            let k = self.free;
            self.free = self.nodes[k as usize].next;
            self.nodes[k as usize] = node;
            k
        };
        if s.head == NIL {
            s.head = k;
        } else {
            self.nodes[s.tail as usize].next = k;
        }
        s.tail = k;
    }

    /// Unlinks `s`'s oldest admission (the job in service), frees its
    /// node and returns the time. `s` must hold a job.
    #[inline]
    fn pop(&mut self, s: &mut ClusterServer) -> Time {
        let k = s.head;
        let Node { time, next } = self.nodes[k as usize];
        self.nodes[k as usize].next = self.free;
        self.free = k;
        s.head = next;
        time
    }

    /// Frees `s`'s whole list at once (the server is leaving).
    fn release(&mut self, s: &mut ClusterServer) {
        if s.head != NIL {
            self.nodes[s.tail as usize].next = self.free;
            self.free = std::mem::replace(&mut s.head, NIL);
        }
    }
}

/// The fleet: all server slots ever created, dead ones included (their
/// counters keep contributing to the final metrics).
#[derive(Debug, Clone)]
pub struct Fleet {
    /// One record per slot, in creation order: the only home of each
    /// server's queue length and speed. Placement reads each
    /// candidate's `(queue, speed)` out of its record ([`LoadView`]),
    /// so the winner's join hits a record in cache.
    servers: Vec<ClusterServer>,
    /// Admission times of every job in the system.
    pool: Pool,
    n_alive: usize,
    /// Queue bound, `u64::MAX` when unbounded.
    queue_capacity: u64,
    /// Admissions that joined behind a busy server.
    queued: u64,
    /// Admissions rejected at a full queue, fleet-wide.
    dropped: u64,
    /// Wraps of a record's `completed` low word, by slot: the high
    /// words of the completion counts (cold; empty below 2³² per slot).
    completed_wraps: BTreeMap<usize, u64>,
}

impl Fleet {
    /// Builds a fleet of alive servers with the given speeds, all queues
    /// bounded by `queue_capacity` (`None` = unbounded).
    ///
    /// # Panics
    /// Panics if `speeds` is empty, any speed is zero or exceeds
    /// `u32::MAX`, or the capacity is `Some(0)`.
    #[must_use]
    pub fn new(speeds: &[u64], queue_capacity: Option<u64>) -> Self {
        assert!(!speeds.is_empty(), "fleet needs at least one server");
        assert!(queue_capacity != Some(0), "queue capacity must be positive");
        Fleet {
            n_alive: speeds.len(),
            servers: speeds.iter().map(|&s| ClusterServer::new(s)).collect(),
            pool: Pool {
                nodes: Vec::new(),
                free: NIL,
            },
            queue_capacity: queue_capacity.unwrap_or(u64::MAX),
            queued: 0,
            dropped: 0,
            completed_wraps: BTreeMap::new(),
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

    /// Jobs slot `i` completed, exact: its record's low word plus the
    /// wraps carried out of it.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn completed(&self, i: usize) -> u64 {
        let low = u64::from(self.servers[i].completed);
        self.completed_wraps
            .get(&i)
            .map_or(low, |&w| (w << 32) | low)
    }

    /// Admissions that joined behind a busy server, over the fleet's
    /// lifetime.
    #[must_use]
    pub fn queued(&self) -> u64 {
        self.queued
    }

    /// The pool's high-water mark in nodes of 12 bytes: freed nodes are
    /// reused before it grows, so this is the most jobs ever in the
    /// system at once across the fleet.
    #[must_use]
    pub fn pool_nodes(&self) -> usize {
        self.pool.nodes.len()
    }

    /// Indices of the alive servers, in creation order. Placement
    /// structures (alias table, hash ring, rendezvous) are built over
    /// exactly this list, in this order.
    #[must_use]
    pub fn alive_indices(&self) -> Vec<usize> {
        self.servers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_alive())
            .map(|(i, _)| i)
            .collect()
    }

    /// The alive servers as a router [`Membership`]: slots and speeds
    /// in creation order, each slot its own id — what a churn tick
    /// rebuilds [`bnb_router::PlacementEngine`] over. (A fresh fleet's
    /// membership is the identity over its speeds, so the simulator
    /// builds its first engine from the speeds instead, through
    /// [`bnb_router::PlacementEngine::from_speeds`].) Slots are never
    /// reused, so the member id list is strictly increasing and churn
    /// rebuilds take the ring's incremental path.
    #[must_use]
    pub fn membership(&self) -> Membership {
        Membership::new(
            self.servers
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_alive())
                .map(|(slot, s)| Member {
                    slot,
                    id: slot as u64,
                    speed: s.speed(),
                })
                .collect(),
        )
    }

    /// Offers a request to server `i` at time `now`.
    ///
    /// # Panics
    /// Panics if the server is not alive — placement must only route to
    /// alive servers — or if its queue would pass `u32::MAX` jobs.
    #[inline]
    pub fn try_join(&mut self, i: usize, now: Time) -> Admission {
        let s = &mut self.servers[i];
        assert!(s.head != DEAD, "routed a request to a departed server");
        if u64::from(s.queue) >= self.queue_capacity {
            self.dropped += 1;
            return Admission::Dropped;
        }
        let admission = if s.queue == 0 {
            Admission::StartedService
        } else {
            self.queued += 1;
            Admission::Queued
        };
        s.queue = s.queue.checked_add(1).expect("queue length overflow");
        s.max_queue = s.max_queue.max(s.queue);
        self.pool.push(s, now);
        admission
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

    /// Loads slot `i`'s record and the pool node of the job in service
    /// — what a departure reads — and returns a value derived from
    /// them. The drive loop's lookahead calls it for records it will
    /// read soon, so the misses overlap the work in between; only the
    /// loads matter, the value only feeds a sink.
    #[inline]
    #[must_use]
    pub(crate) fn touch_record(&self, i: usize) -> u64 {
        let s = &self.servers[i];
        let in_service = self.pool.nodes.get(s.head as usize);
        u64::from(s.queue) ^ in_service.map_or(0, |n| n.time.to_bits())
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
        // The head node is the job in service; the next one, if any,
        // enters service.
        let admitted = self.pool.pop(s);
        s.queue -= 1;
        let (completed, wrapped) = s.completed.overflowing_add(1);
        s.completed = completed;
        let more = s.queue > 0;
        if wrapped {
            carry(&mut self.completed_wraps, i);
        }
        (now - admitted, more)
    }

    /// Server `i` leaves the cluster: its backlog (queued jobs and the
    /// one in service) is orphaned and returned, its list goes back to
    /// the pool, and it stops receiving traffic for good — slots are
    /// never revived, so pending departure events for it are
    /// recognisably stale via [`ClusterServer::is_alive`].
    ///
    /// # Panics
    /// Panics if the server is already dead or is the last alive server.
    pub fn deactivate(&mut self, i: usize) -> u64 {
        assert!(self.n_alive > 1, "cannot deactivate the last alive server");
        let s = &mut self.servers[i];
        assert!(s.head != DEAD, "server {i} is already dead");
        self.pool.release(s);
        s.head = DEAD;
        self.n_alive -= 1;
        u64::from(std::mem::take(&mut s.queue))
    }

    /// A fresh server of the given speed joins the cluster; returns its
    /// slot index, which is also its membership id. Slots are never
    /// reused, so hash-ring placements give it fresh arcs without
    /// disturbing anyone else's.
    ///
    /// # Panics
    /// Panics if `speed` is zero or exceeds `u32::MAX`.
    pub fn activate_new(&mut self, speed: u64) -> usize {
        self.servers.push(ClusterServer::new(speed));
        self.n_alive += 1;
        self.servers.len() - 1
    }

    /// Admission drops over the fleet's lifetime.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.dropped
    }

    /// Overwrites slot `i`'s completion low word: the carry test starts
    /// a record just below the wrap, and the accounting test corrupts a
    /// count.
    #[cfg(test)]
    pub(crate) fn set_completed_low(&mut self, i: usize, low: u32) {
        self.servers[i].completed = low;
    }
}

/// Carries a wrapped completion low word of slot `i` into its high word.
#[cold]
#[inline(never)]
fn carry(wraps: &mut BTreeMap<usize, u64>, i: usize) {
    *wraps.entry(i).or_insert(0) += 1;
}

/// The fleet as the placement engine's [`LoadView`]: the simulator
/// drives [`bnb_router::PlacementEngine`] directly against it. Each
/// `(queue_len, speed)` read comes from the candidate's own record, the
/// line `try_join` writes next if it wins.
impl LoadView for Fleet {
    #[inline]
    fn load(&self, slot: usize) -> (u64, u64) {
        let s = &self.servers[slot];
        (u64::from(s.queue), u64::from(s.speed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::VecDeque;

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
        assert_eq!(fleet.completed(0), 2);
    }

    #[test]
    fn completion_low_word_carries_into_an_exact_count() {
        let mut fleet = Fleet::new(&[1, 2], None);
        fleet.set_completed_low(0, u32::MAX - 1);
        for k in 0..3 {
            fleet.try_join(0, f64::from(k));
        }
        for k in 0..3 {
            let (_, more) = fleet.depart(0, 10.0 + f64::from(k));
            assert_eq!(more, k < 2);
        }
        let exact = (1u64 << 32) + 1;
        assert_eq!(fleet.completed(0), exact);
        assert_eq!(fleet.completed(1), 0, "the carry is per slot");
        let m = crate::metrics::ClusterMetrics::collect(&fleet, Vec::new(), 3, 0, 0, 0, 13.0);
        assert_eq!(m.per_server_completed, vec![exact, 0]);
        assert_eq!(m.completed, exact);
    }

    #[test]
    fn speeds_up_to_u32_max_are_kept_exactly() {
        let top = u64::from(u32::MAX);
        let mut fleet = Fleet::new(&[top, 1], None);
        let slot = fleet.activate_new(top);
        for i in [0, slot] {
            assert_eq!(fleet.server(i).speed(), top);
            assert_eq!(fleet.load(i), (0, top));
            assert_eq!(
                fleet.inv_speed_of(i).to_bits(),
                (1.0 / top as f64).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn fleet_rejects_a_speed_above_u32_max() {
        let _ = Fleet::new(&[1, u64::from(u32::MAX) + 1], None);
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn activate_new_rejects_a_speed_above_u32_max() {
        let mut fleet = Fleet::new(&[1], None);
        let _ = fleet.activate_new(u64::from(u32::MAX) + 1);
    }

    #[test]
    fn capacity_drops_do_not_record_latency() {
        let mut fleet = Fleet::new(&[1], Some(1));
        assert_eq!(fleet.try_join(0, 0.0), Admission::StartedService);
        assert_eq!(fleet.try_join(0, 0.5), Admission::Dropped);
        assert_eq!(fleet.total_dropped(), 1);
        let (_, more) = fleet.depart(0, 1.0);
        assert!(!more, "the dropped job must not linger in the fifo");
    }

    #[test]
    fn deactivate_orphans_backlog_permanently() {
        let mut fleet = Fleet::new(&[1, 1], None);
        fleet.try_join(0, 0.0);
        fleet.try_join(0, 0.1);
        fleet.try_join(0, 0.2);
        let orphans = fleet.deactivate(0);
        assert_eq!(orphans, 3);
        assert_eq!(fleet.server(0).queue_len(), 0);
        assert!(!fleet.server(0).is_alive());
        assert_eq!(fleet.n_alive(), 1);
        assert_eq!(fleet.alive_indices(), vec![1]);
    }

    #[test]
    fn activate_new_gets_fresh_id() {
        let mut fleet = Fleet::new(&[1, 1, 2], Some(4));
        fleet.deactivate(1);
        let slot = fleet.activate_new(8);
        assert_eq!(slot, 3, "slots are never reused");
        fleet.deactivate(0);
        assert_eq!(fleet.activate_new(1), 4);
        assert_eq!(fleet.server(slot).speed(), 8);
        assert_eq!(fleet.n_alive(), 3);
        assert_eq!(fleet.alive_indices(), vec![2, 3, 4]);
        // Membership ids are the slots, so they strictly increase after
        // churn and ring rebuilds stay incremental.
        let members = fleet.membership();
        let members = members.members();
        assert_eq!(members.len(), 3);
        assert!(members.iter().all(|m| m.id == m.slot as u64));
        assert!(members.windows(2).all(|w| w[0].id < w[1].id));
        let speeds: Vec<u64> = members.iter().map(|m| m.speed).collect();
        assert_eq!(speeds, vec![2, 8, 1]);
    }

    #[test]
    #[should_panic(expected = "departed server")]
    fn routing_to_dead_server_panics() {
        let mut fleet = Fleet::new(&[1, 1], None);
        fleet.deactivate(0);
        let _ = fleet.try_join(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "last alive server")]
    fn deactivating_last_server_panics() {
        let mut fleet = Fleet::new(&[1], None);
        let _ = fleet.deactivate(0);
    }

    #[test]
    fn pool_lists_stay_fifo_and_reuse_freed_nodes() {
        let mut fleet = Fleet::new(&[1, 1, 1], None);
        // Interleave two servers' lists through the pool: every
        // admission takes a node, four of them behind a busy server.
        for k in 0..6 {
            fleet.try_join(k % 2, k as f64);
        }
        assert_eq!(fleet.queued(), 4);
        assert_eq!(fleet.pool_nodes(), 6);
        for (k, a) in [0.0f64, 2.0, 4.0].into_iter().enumerate() {
            let (latency, more) = fleet.depart(0, 10.0);
            assert_eq!(latency.to_bits(), (10.0 - a).to_bits(), "job {k}");
            assert_eq!(more, k < 2);
        }
        // Server 0's three freed nodes carry server 2's list before the
        // pool grows.
        for k in 0..3 {
            fleet.try_join(2, 20.0 + f64::from(k));
        }
        assert_eq!((fleet.queued(), fleet.pool_nodes()), (6, 6));
        // Server 1 leaves with three jobs in the system: its nodes are
        // freed at once and reused, with server 2's list intact; the
        // fourth join grows the pool.
        assert_eq!(fleet.deactivate(1), 3);
        for k in 3..7 {
            fleet.try_join(2, 20.0 + f64::from(k));
        }
        assert_eq!((fleet.queued(), fleet.pool_nodes()), (10, 7));
        for k in 0..7 {
            let (latency, more) = fleet.depart(2, 50.0);
            let expected = 50.0 - (20.0 + f64::from(k));
            assert_eq!(latency.to_bits(), expected.to_bits(), "job {k}");
            assert_eq!(more, k < 6);
        }
        assert_eq!(fleet.server(0).queue_len(), 0, "neighbour untouched");
    }

    const MODEL_SLOTS: usize = 4;

    /// The reference model of one slot: a plain `VecDeque` of admission
    /// times plus the counters.
    #[derive(Debug, Clone)]
    struct ModelSlot {
        fifo: VecDeque<Time>,
        max_queue: u64,
        completed: u64,
        alive: bool,
    }

    impl ModelSlot {
        fn new() -> Self {
            ModelSlot {
                fifo: VecDeque::new(),
                max_queue: 0,
                completed: 0,
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
        (0u32..60, 0usize..64, 1u32..=20).prop_map(|(kind, pick, burst)| match kind {
            0..=27 => Op::Join(pick, burst),
            28..=55 => Op::Depart(pick, burst),
            56 => Op::Deactivate(pick),
            57 => Op::Activate(1 + pick as u64 % 8),
            // A deep burst: one server's queue past 64 jobs.
            _ => Op::Join(pick, 64 + burst),
        })
    }

    /// Replays `ops` on a fleet and on the `VecDeque` model in lockstep:
    /// every latency must match bit for bit, every slot's counters after
    /// every step, the fleet's drops and admissions behind a busy
    /// server, and the pool's size the model's high-water of jobs in
    /// the system (so freed nodes are reused first).
    fn check_against_model(capacity: Option<u64>, ops: &[Op]) -> Result<(), TestCaseError> {
        let mut fleet = Fleet::new(&[1, 3, 8, 2], capacity);
        let mut model = vec![ModelSlot::new(); MODEL_SLOTS];
        let mut queued = 0u64;
        let mut dropped = 0u64;
        let mut peak_in_system = 0usize;
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
                            dropped += 1;
                            Admission::Dropped
                        } else {
                            queued += u64::from(depth > 0);
                            m.fifo.push_back(now);
                            m.max_queue = m.max_queue.max(depth + 1);
                            if depth == 0 {
                                Admission::StartedService
                            } else {
                                Admission::Queued
                            }
                        };
                        prop_assert_eq!(fleet.try_join(i, now), expected);
                        let in_system = model.iter().map(|m| m.fifo.len());
                        peak_in_system = peak_in_system.max(in_system.sum());
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
                    prop_assert_eq!(fleet.deactivate(i), orphans);
                }
                Op::Activate(speed) => {
                    prop_assert_eq!(fleet.activate_new(speed), model.len());
                    model.push(ModelSlot::new());
                }
            }
            prop_assert_eq!(fleet.n_slots(), model.len());
            prop_assert_eq!(fleet.queued(), queued);
            prop_assert_eq!(fleet.total_dropped(), dropped);
            prop_assert_eq!(fleet.pool_nodes(), peak_in_system);
            for (i, m) in model.iter().enumerate() {
                let s = fleet.server(i);
                prop_assert_eq!(s.queue_len(), m.fifo.len() as u64, "slot {i} queue");
                prop_assert_eq!(s.max_queue(), m.max_queue, "slot {i} peak");
                prop_assert_eq!(fleet.completed(i), m.completed, "slot {i} completed");
                prop_assert_eq!(s.is_alive(), m.alive, "slot {i} alive");
            }
        }
        Ok(())
    }

    proptest! {
        // 96 cases in a debug build, about 1000 under `--release`.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 96 } else { 1000 }))]

        /// Random join/depart bursts and churn on a few slots, at
        /// capacities up to 64 and unbounded: interleaved lists in the
        /// shared pool, capacity drops, nodes freed by departures and by
        /// slots leaving with a backlog, and their reuse all replay the
        /// `VecDeque` model exactly.
        #[test]
        fn fifo_matches_vecdeque_model(
            capacity in (0u64..128).prop_map(|c| (c < 64).then_some(c + 1)),
            ops in prop::collection::vec(op_strategy(), 1..200),
        ) {
            check_against_model(capacity, &ops)?;
        }
    }
}
