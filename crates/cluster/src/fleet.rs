//! The heterogeneous server fleet: finite-queue servers with latency
//! bookkeeping and churn (servers joining and leaving mid-run).
//!
//! Each slot carries exactly the state the cluster's serving loop and
//! end-of-run metrics read — queue length, peak queue, completions,
//! drops, per-job admission timestamps for latency measurement, a
//! stable membership id for consistent-hash placement, and an alive
//! flag — and nothing more. (An earlier revision wrapped
//! `bnb_queueing::Server` here, which also maintains a time-integrated
//! queue-length average; the cluster never reports that statistic, yet
//! paid its floating-point accounting twice per request on the hot
//! path.) Slots are never reused or revived — a departed server's slot
//! stays dead forever — so `is_alive()` alone identifies stale
//! departure events after churn.

use bnb_core::Load;
use bnb_queueing::events::Time;
use bnb_queueing::server::Admission;
use bnb_router::{LoadView, Member, Membership};
use std::collections::VecDeque;

/// One cluster server: queue counters plus latency and membership
/// state.
#[derive(Debug, Clone)]
pub struct ClusterServer {
    speed: u64,
    /// Jobs in the system (queue + in service).
    queue: u64,
    /// Largest queue length ever observed.
    max_queue: u64,
    /// Completed jobs.
    completed: u64,
    /// Jobs rejected at a full queue.
    dropped: u64,
    /// Admission time of every job currently in the system, FIFO.
    in_flight: VecDeque<Time>,
    /// Stable membership id (never reused, feeds the hash ring).
    id: u64,
    alive: bool,
}

impl ClusterServer {
    fn new(speed: u64, queue_capacity: Option<u64>, id: u64) -> Self {
        assert!(speed > 0, "server speed must be positive");
        ClusterServer {
            speed,
            queue: 0,
            max_queue: 0,
            completed: 0,
            dropped: 0,
            // Pre-size the admission FIFO a few slots deep (clamped well
            // below the queue bound): a giant fleet at n ≥ 1e5 slots
            // cannot afford capacity×n upfront, and a FIFO that does run
            // deep amortises its one-time growth in the first few
            // thousand events.
            in_flight: VecDeque::with_capacity(queue_capacity.map_or(8, |c| c.min(8)) as usize),
            id,
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

    /// The normalised load a job would see after joining:
    /// `(queue + 1) / speed` as an exact [`Load`] rational.
    #[must_use]
    pub fn post_join_load(&self) -> Load {
        Load::new(self.queue + 1, self.speed)
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

/// The fleet: all server slots ever created, dead ones included (their
/// counters keep contributing to the final metrics).
#[derive(Debug, Clone)]
pub struct Fleet {
    servers: Vec<ClusterServer>,
    /// Dense queue length per slot, mirrored on every join and depart:
    /// the placement hot path compares loads thousands of times per
    /// simulated second, and reading words from this cache-resident
    /// array beats chasing into the full server structs. Split from
    /// `speeds` as structure-of-arrays so the router's batched scan
    /// kernel can run chunked compares over each component directly
    /// (`LoadView::dense`).
    queues: Vec<u64>,
    /// Dense speed per slot — the immutable half of the mirror.
    speeds: Vec<u64>,
    /// Dense `1 / speed` per slot: the departure-scheduling hot path
    /// scales Exp(1) work by this (a multiply instead of a divide).
    inv_speeds: Vec<f64>,
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
            .map(|(i, &s)| ClusterServer::new(s, queue_capacity, i as u64))
            .collect();
        Fleet {
            n_alive: servers.len(),
            next_id: servers.len() as u64,
            queues: vec![0; speeds.len()],
            speeds: speeds.to_vec(),
            inv_speeds: speeds.iter().map(|&s| 1.0 / s as f64).collect(),
            servers,
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
    /// and speeds in creation order — exactly what
    /// [`bnb_router::PlacementEngine`] builds its derived structures
    /// over. Ids are handed out in creation order and never reused, so
    /// the member id list is strictly increasing and churn rebuilds
    /// take the ring's incremental path.
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

    /// Sum of alive servers' speeds — the fleet's service capacity.
    #[must_use]
    pub fn total_alive_speed(&self) -> u64 {
        self.servers
            .iter()
            .filter(|s| s.alive)
            .map(ClusterServer::speed)
            .sum()
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
        s.queue += 1;
        s.max_queue = s.max_queue.max(s.queue);
        s.in_flight.push_back(now);
        self.queues[i] += 1;
        if s.queue == 1 {
            Admission::StartedService
        } else {
            Admission::Queued
        }
    }

    /// `1 / speed` of slot `i`, from the dense mirror — how the
    /// departure-scheduling path scales Exp(1) work into service time
    /// (bitwise-stable across the generic and fused loops, which is why
    /// the reciprocal is precomputed once rather than divided per event).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    #[must_use]
    pub fn inv_speed_of(&self, i: usize) -> f64 {
        self.inv_speeds[i]
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
        let admitted = s
            .in_flight
            .pop_front()
            .expect("departure from an empty cluster server");
        s.queue -= 1;
        s.completed += 1;
        self.queues[i] -= 1;
        (now - admitted, s.queue > 0)
    }

    /// Serves one job start-to-finish on an **idle** server in a single
    /// step: the fused loop's next-free bypass, where the departure is
    /// provably the next event so the job arrives, serves and departs
    /// with no observer in between. Counter state afterwards is exactly
    /// [`Fleet::try_join`] then [`Fleet::depart`] composed — the queue
    /// (and its dense mirror) nets to zero, the peak queue is at least
    /// one, one more completion, and the admission FIFO push/pop
    /// cancels — so the returned sojourn latency is the service time
    /// itself.
    ///
    /// # Panics
    /// Panics if the server is not alive. Debug-asserts the server is
    /// idle — callers must have checked the queue mirror.
    #[inline]
    pub fn serve_one_now(&mut self, i: usize, admitted: Time, departed: Time) -> Time {
        let s = &mut self.servers[i];
        assert!(s.alive, "routed a request to a departed server");
        debug_assert_eq!(s.queue, 0, "next-free bypass requires an idle server");
        s.max_queue = s.max_queue.max(1);
        s.completed += 1;
        departed - admitted
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
        s.in_flight.clear();
        self.n_alive -= 1;
        self.queues[i] = 0;
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
        self.servers
            .push(ClusterServer::new(speed, self.queue_capacity, id));
        self.queues.push(0);
        self.speeds.push(speed);
        self.inv_speeds.push(1.0 / speed as f64);
        self.n_alive += 1;
        self.servers.len() - 1
    }

    /// Sum of completed jobs over every slot.
    #[must_use]
    pub fn total_completed(&self) -> u64 {
        self.servers.iter().map(ClusterServer::completed).sum()
    }

    /// Sum of admission drops over every slot.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.servers.iter().map(ClusterServer::dropped).sum()
    }
}

/// The fleet's dense `(queue_len, speed)` mirror as the router's
/// [`LoadView`]: the simulator drives [`bnb_router::PlacementEngine`]
/// directly against it — the same placement code path a live embedding
/// runs against a [`bnb_router::FleetSnapshot`]. The mirror is plain
/// (single-threaded) structure-of-arrays, so it also exposes the dense
/// slices the router's batched scan kernel gathers from directly.
impl LoadView for Fleet {
    #[inline]
    fn load(&self, slot: usize) -> (u64, u64) {
        (self.queues[slot], self.speeds[slot])
    }

    #[inline]
    fn dense(&self) -> Option<(&[u64], &[u64])> {
        Some((&self.queues, &self.speeds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn serve_one_now_is_join_then_depart_composed() {
        let mut a = Fleet::new(&[2, 3], Some(4));
        let mut b = a.clone();
        // Path A: the composed pair on an idle server.
        assert_eq!(a.try_join(1, 1.0), Admission::StartedService);
        let (lat_a, more) = a.depart(1, 2.5);
        assert!(!more);
        // Path B: the fused bypass in one step.
        let lat_b = b.serve_one_now(1, 1.0, 2.5);
        assert_eq!(lat_a.to_bits(), lat_b.to_bits());
        assert_eq!(a.server(1).completed(), b.server(1).completed());
        assert_eq!(a.server(1).max_queue(), b.server(1).max_queue());
        assert_eq!(a.server(1).queue_len(), 0);
        assert_eq!(b.server(1).queue_len(), 0);
        assert_eq!(LoadView::load(&a, 1), LoadView::load(&b, 1));
        // A later real join still sees the idle state on both.
        assert_eq!(a.try_join(1, 3.0), Admission::StartedService);
        assert_eq!(b.try_join(1, 3.0), Admission::StartedService);
    }

    #[test]
    #[should_panic(expected = "departed server")]
    fn serve_one_now_rejects_dead_servers() {
        let mut fleet = Fleet::new(&[1, 1], None);
        fleet.deactivate(0, 0.0);
        let _ = fleet.serve_one_now(0, 1.0, 2.0);
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
        assert_eq!(fleet.total_alive_speed(), 9);
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
}
