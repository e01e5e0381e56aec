//! The heterogeneous server fleet: finite-queue servers with latency
//! bookkeeping and churn (servers joining and leaving mid-run).
//!
//! Each slot is **one cache-line record** ([`ClusterServer`], 64
//! bytes, 64-byte aligned) holding exactly the state the cluster's
//! serving loop and end-of-run metrics read: speed and its reciprocal,
//! queue length, peak queue, completions, drops, the alive flag, the
//! admission time of the job in service and the two ends of the list
//! of jobs waiting behind it. The placement compare, `try_join`,
//! `depart` and the departure-scheduling `1 / speed` all read the same
//! line, so serving one request pulls one line per server it looks at.
//!
//! The admission times of waiting jobs live in one fleet-wide pool of
//! 16-byte `(time, next)` nodes, a FIFO list per server. Nodes freed by
//! departures, and all the nodes of a server that leaves, go on a free
//! list that is reused before the pool grows, so the pool follows the
//! peak number of jobs waiting across the fleet, not its server count.
//! `queued` counts the admissions that went through the pool and
//! `pool_nodes` gives its high-water mark, for the telemetry snapshot.
//!
//! Slots are never reused or revived — a departed server's slot stays
//! dead forever — so `is_alive()` alone identifies stale departure
//! events after churn, and a slot's index is its stable membership id.

use bnb_queueing::events::Time;
use bnb_router::{LoadView, Member, Membership};

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

/// The end of a pool list: the `head` of a server with no job waiting,
/// and the `next` of a list's last node.
const NIL: u32 = u32::MAX;

/// One cluster server: queue counters plus latency and membership
/// state, laid out as one 64-byte record on a 64-byte boundary.
///
/// The hot fields are `queue` and `speed` (read by every placement
/// compare), `inv_speed` (every departure schedule), `max_queue`,
/// `completed`, `first` and `head` (every join and depart) and `alive`
/// (every join).
#[derive(Debug, Clone)]
#[repr(C, align(64))]
pub struct ClusterServer {
    speed: u64,
    /// `1 / speed`, precomputed once per server.
    inv_speed: f64,
    /// Largest queue length ever observed.
    max_queue: u64,
    /// Completed jobs.
    completed: u64,
    /// Jobs rejected at a full queue.
    dropped: u64,
    /// Admission time of the job in service (stale while idle).
    first: Time,
    /// Jobs in the system (queue + in service).
    queue: u32,
    /// Pool nodes of the oldest and the newest waiting job; `head` is
    /// `NIL` (and `tail` stale) while no job waits.
    head: u32,
    tail: u32,
    alive: bool,
}

// Layout guard: a record is one aligned cache line, or this fails to compile.
const _: () = {
    assert!(std::mem::size_of::<ClusterServer>() == 64);
    assert!(std::mem::align_of::<ClusterServer>() == 64);
};

impl ClusterServer {
    fn new(speed: u64) -> Self {
        assert!(speed > 0, "server speed must be positive");
        ClusterServer {
            speed,
            inv_speed: 1.0 / speed as f64,
            max_queue: 0,
            completed: 0,
            dropped: 0,
            first: 0.0,
            queue: 0,
            head: NIL,
            tail: NIL,
            alive: true,
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
        u64::from(self.queue)
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

    /// Whether the server is currently part of the cluster.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive
    }
}

/// One waiting job's admission time, and the pool node of the job
/// behind it on the same server (`NIL` at the end of the list).
#[derive(Debug, Clone, Copy)]
struct Node {
    time: Time,
    next: u32,
}

/// The admission times of every waiting job in the fleet: one FIFO
/// list per server, threaded through shared nodes.
#[derive(Debug, Clone)]
struct Pool {
    nodes: Vec<Node>,
    /// First node of the free list, `NIL` when every node is in use.
    free: u32,
    /// Admissions appended here, over the fleet's lifetime.
    queued: u64,
}

impl Pool {
    /// Appends admission time `time` to `s`'s waiting list, on a free
    /// node if there is one.
    #[inline]
    fn push(&mut self, s: &mut ClusterServer, time: Time) {
        let node = Node { time, next: NIL };
        let k = if self.free == NIL {
            // A length within `u32` keeps the new index below `NIL`.
            self.nodes.push(node);
            u32::try_from(self.nodes.len()).expect("admission pool overflow") - 1
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
        self.queued += 1;
    }

    /// Unlinks `s`'s oldest waiting admission, frees its node and
    /// returns the time.
    #[inline]
    fn pop(&mut self, s: &mut ClusterServer) -> Time {
        let k = s.head;
        let Node { time, next } = self.nodes[k as usize];
        self.nodes[k as usize].next = self.free;
        self.free = k;
        s.head = next;
        time
    }

    /// Frees `s`'s whole waiting list at once (the server is leaving).
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
    /// Admission times of the jobs waiting behind a busy server.
    pool: Pool,
    n_alive: usize,
    /// Queue bound, `u64::MAX` when unbounded.
    queue_capacity: u64,
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
        Fleet {
            n_alive: speeds.len(),
            servers: speeds.iter().map(|&s| ClusterServer::new(s)).collect(),
            pool: Pool {
                nodes: Vec::new(),
                free: NIL,
                queued: 0,
            },
            queue_capacity: queue_capacity.unwrap_or(u64::MAX),
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

    /// Admissions that joined behind a busy server, and so went through
    /// the waiting pool, over the fleet's lifetime.
    #[must_use]
    pub fn queued(&self) -> u64 {
        self.pool.queued
    }

    /// The waiting pool's high-water mark in nodes of 16 bytes: freed
    /// nodes are reused before it grows, so this is the most jobs ever
    /// waiting at once across the fleet.
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
            .filter(|(_, s)| s.alive)
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
                .filter(|(_, s)| s.alive)
                .map(|(slot, s)| Member {
                    slot,
                    id: slot as u64,
                    speed: s.speed,
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
        assert!(s.alive, "routed a request to a departed server");
        if u64::from(s.queue) >= self.queue_capacity {
            s.dropped += 1;
            return Admission::Dropped;
        }
        let admission = if s.queue == 0 {
            s.first = now;
            Admission::StartedService
        } else {
            self.pool.push(s, now);
            Admission::Queued
        };
        s.queue = s.queue.checked_add(1).expect("queue length overflow");
        s.max_queue = s.max_queue.max(u64::from(s.queue));
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

    /// Loads slot `i`'s record and the pool node of its oldest waiting
    /// admission — what a departure reads — and returns a value derived
    /// from them. The drive loop's lookahead calls it for records it
    /// will read soon, so the misses overlap the work in between; only
    /// the loads matter, the value only feeds a sink.
    #[inline]
    #[must_use]
    pub(crate) fn touch_record(&self, i: usize) -> u64 {
        let s = &self.servers[i];
        let waiting = self.pool.nodes.get(s.head as usize);
        u64::from(s.queue) ^ waiting.map_or(0, |n| n.time.to_bits())
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
        let admitted = s.first;
        if s.head != NIL {
            // The oldest waiting job enters service.
            s.first = self.pool.pop(s);
        }
        s.queue -= 1;
        s.completed += 1;
        (now - admitted, s.queue > 0)
    }

    /// Server `i` leaves the cluster: its backlog (queued jobs and the
    /// one in service) is orphaned and returned, its waiting list goes
    /// back to the pool, and it stops receiving traffic for good — slots
    /// are never revived, so pending departure events for it are
    /// recognisably stale via [`ClusterServer::is_alive`].
    ///
    /// # Panics
    /// Panics if the server is already dead or is the last alive server.
    pub fn deactivate(&mut self, i: usize) -> u64 {
        assert!(self.n_alive > 1, "cannot deactivate the last alive server");
        let s = &mut self.servers[i];
        assert!(s.alive, "server {i} is already dead");
        s.alive = false;
        self.pool.release(s);
        self.n_alive -= 1;
        u64::from(std::mem::take(&mut s.queue))
    }

    /// A fresh server of the given speed joins the cluster; returns its
    /// slot index, which is also its membership id. Slots are never
    /// reused, so hash-ring placements give it fresh arcs without
    /// disturbing anyone else's.
    pub fn activate_new(&mut self, speed: u64) -> usize {
        self.servers.push(ClusterServer::new(speed));
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
        (u64::from(s.queue), s.speed)
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
        // Interleave two servers' waiting lists through the pool.
        for k in 0..6 {
            fleet.try_join(k % 2, k as f64);
        }
        assert_eq!(fleet.queued(), 4);
        assert_eq!(fleet.pool_nodes(), 4);
        for (k, a) in [0.0f64, 2.0, 4.0].into_iter().enumerate() {
            let (latency, more) = fleet.depart(0, 10.0);
            assert_eq!(latency.to_bits(), (10.0 - a).to_bits(), "job {k}");
            assert_eq!(more, k < 2);
        }
        // Server 0's two freed nodes carry server 2's list before the
        // pool grows.
        for k in 0..3 {
            fleet.try_join(2, 20.0 + f64::from(k));
        }
        assert_eq!((fleet.queued(), fleet.pool_nodes()), (6, 4));
        // Server 1 leaves with two jobs waiting: its nodes are freed at
        // once and reused, with server 2's list intact.
        assert_eq!(fleet.deactivate(1), 3);
        for k in 3..7 {
            fleet.try_join(2, 20.0 + f64::from(k));
        }
        assert_eq!((fleet.queued(), fleet.pool_nodes()), (10, 6));
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
    /// every step, the pool's admissions, and its size the model's
    /// high-water of waiting jobs (so freed nodes are reused first).
    fn check_against_model(capacity: Option<u64>, ops: &[Op]) -> Result<(), TestCaseError> {
        let mut fleet = Fleet::new(&[1, 3, 8, 2], capacity);
        let mut model = vec![ModelSlot::new(); MODEL_SLOTS];
        let mut queued = 0u64;
        let mut peak_waiting = 0usize;
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
                        let waiting = model.iter().map(|m| m.fifo.len().saturating_sub(1));
                        peak_waiting = peak_waiting.max(waiting.sum());
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
            prop_assert_eq!(fleet.pool_nodes(), peak_waiting);
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

        /// Random join/depart bursts and churn on a few slots, at
        /// capacities up to 64 and unbounded: interleaved waiting lists
        /// in the shared pool, capacity drops, nodes freed by departures
        /// and by slots leaving with a backlog, and their reuse all
        /// replay the `VecDeque` model exactly.
        #[test]
        fn fifo_matches_vecdeque_model(
            capacity in (0u64..128).prop_map(|c| (c < 64).then_some(c + 1)),
            ops in prop::collection::vec(op_strategy(), 1..200),
        ) {
            check_against_model(capacity, &ops)?;
        }
    }
}
