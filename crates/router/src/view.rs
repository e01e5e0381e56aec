//! Fleet state for concurrent routing: memberships, load views, and the
//! epoch-published [`FleetView`] / [`FleetReader`] pair.
//!
//! The data plane separates two rates of change. **Membership** (which
//! servers exist, their stable ids and speeds) changes rarely — churn —
//! and is immutable within an epoch: the single writer builds a fresh
//! [`FleetSnapshot`] and publishes it by appending to a lock-free epoch
//! chain. **Load** (jobs in system per server) changes per request and
//! lives in per-slot relaxed atomics inside the snapshot, updated by
//! [`FleetSnapshot::record_join`] / [`FleetSnapshot::record_depart`]
//! from any thread. Readers never block and never observe a torn
//! mirror: a snapshot's membership and speeds are frozen at publish
//! time, and the load counters are word-sized atomics — approximate
//! under concurrency in exactly the way load-stale routing literature
//! assumes, never corrupt.

use crate::telemetry::RouterCounters;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A routed-to server, identified by its fleet slot index.
///
/// Slots are creation-ordered and never reused: a departed server's
/// slot stays dead forever, so an id remains meaningful across churn
/// (it just stops being routed to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub usize);

impl ServerId {
    /// The underlying slot index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// One alive server of a membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Member {
    /// Fleet slot index (creation-ordered, never reused).
    pub slot: usize,
    /// Stable membership id feeding the hash ring: ids are never
    /// reused either, so a surviving server keeps its exact arcs.
    pub id: u64,
    /// Service speed (jobs of unit work per unit time).
    pub speed: u64,
}

/// An immutable alive-server list, in slot creation order — the input
/// every placement structure (alias table, membership ring, rendezvous
/// scores) is built over, in exactly this order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    members: Vec<Member>,
    /// One past the largest slot index: the dense-mirror length.
    n_slots: usize,
}

impl Membership {
    /// Builds a membership from explicit members.
    ///
    /// # Panics
    /// Panics if `members` is empty, slots are not strictly increasing
    /// (creation order), or any speed is zero.
    #[must_use]
    pub fn new(members: Vec<Member>) -> Self {
        assert!(!members.is_empty(), "membership needs at least one member");
        assert!(
            members.windows(2).all(|w| w[0].slot < w[1].slot),
            "member slots must be strictly increasing (creation order)"
        );
        assert!(
            members.iter().all(|m| m.speed > 0),
            "member speeds must be positive"
        );
        let n_slots = members.last().map_or(0, |m| m.slot + 1);
        Membership { members, n_slots }
    }

    /// The all-alive membership of a fresh fleet: member `i` occupies
    /// slot `i` with stable id `i`.
    ///
    /// # Panics
    /// Panics if `speeds` is empty or any speed is zero.
    #[must_use]
    pub fn from_speeds(speeds: &[u64]) -> Self {
        Membership::new(
            speeds
                .iter()
                .enumerate()
                .map(|(i, &speed)| Member {
                    slot: i,
                    id: i as u64,
                    speed,
                })
                .collect(),
        )
    }

    /// The members, in slot creation order.
    #[must_use]
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// Number of alive servers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the membership is empty (never true for a constructed
    /// membership; exists for `len`/`is_empty` symmetry).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// One past the largest slot index — the length of the dense
    /// per-slot mirrors a [`FleetSnapshot`] allocates.
    #[must_use]
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }
}

/// Read access to the per-slot `(jobs_in_system, speed)` loads the
/// placement hot path compares thousands of times per second.
///
/// Implemented by [`FleetSnapshot`] (atomic counters, concurrent
/// serving), by [`DenseView`] (frozen plain slices, the sharded
/// simulator's per-epoch view) and by the cluster simulator's `Fleet`
/// (one record per server, single-threaded simulation) — one placement
/// engine serves all three.
pub trait LoadView {
    /// `(jobs_in_system, speed)` of slot `slot` (the unrolled d = 2
    /// compare reads both words at once).
    fn load(&self, slot: usize) -> (u64, u64);

    /// Jobs in the system on slot `slot` (the hash-then-probe path
    /// needs only the count).
    #[inline]
    fn queue_len(&self, slot: usize) -> u64 {
        self.load(slot).0
    }
}

/// A borrowed dense load mirror: plain `(queue_lens, speeds)` slices,
/// no atomics, no interior mutability, read per slot through
/// [`LoadView::load`] like every other view. This is the **frozen-view** form
/// of a fleet — the sharded cluster simulator snapshots its global
/// per-slot arrays once per epoch and routes every arrival of that
/// epoch against the same immutable `DenseView`, so placement is a pure
/// function of the epoch's data regardless of which worker thread
/// evaluates it.
///
/// Dead slots may carry stale `(queue, speed)` words: placement only
/// ever probes slots of the engine's alive list, so the stale words are
/// unreachable by construction.
#[derive(Debug, Clone, Copy)]
pub struct DenseView<'a> {
    queues: &'a [u64],
    speeds: &'a [u64],
}

impl<'a> DenseView<'a> {
    /// Wraps per-slot queue-length and speed slices (equal length,
    /// indexed by fleet slot).
    ///
    /// # Panics
    /// Panics if the slices disagree in length.
    #[must_use]
    pub fn new(queues: &'a [u64], speeds: &'a [u64]) -> Self {
        assert_eq!(
            queues.len(),
            speeds.len(),
            "queue and speed mirrors must cover the same slots"
        );
        DenseView { queues, speeds }
    }
}

impl LoadView for DenseView<'_> {
    #[inline]
    fn load(&self, slot: usize) -> (u64, u64) {
        (self.queues[slot], self.speeds[slot])
    }
}

/// One published epoch of fleet state: an immutable membership plus a
/// slot-indexed load mirror in relaxed atomics.
#[derive(Debug)]
pub struct FleetSnapshot {
    epoch: u64,
    membership: Membership,
    /// Jobs in system per slot; relaxed atomics — see the module docs
    /// for the (deliberately approximate) concurrency semantics.
    queues: Vec<AtomicU64>,
    /// Speed per slot (0 for dead slots, which placement never reads).
    speeds: Vec<u64>,
    /// Opt-in telemetry counters, shared across every epoch of one
    /// fleet (`None` — the default — skips the counting entirely).
    counters: Option<Arc<RouterCounters>>,
}

impl FleetSnapshot {
    /// The first epoch: all queues empty.
    fn first(membership: Membership, counters: Option<Arc<RouterCounters>>) -> Self {
        let n_slots = membership.n_slots();
        let mut speeds = vec![0u64; n_slots];
        for m in membership.members() {
            speeds[m.slot] = m.speed;
        }
        FleetSnapshot {
            epoch: 0,
            membership,
            queues: (0..n_slots).map(|_| AtomicU64::new(0)).collect(),
            speeds,
            counters,
        }
    }

    /// The epoch after `prev` under a new membership: surviving slots
    /// carry their job counts over, departed slots orphan theirs (the
    /// same accounting the simulator's `Fleet::deactivate` applies),
    /// fresh slots start empty.
    fn next(prev: &FleetSnapshot, membership: Membership) -> Self {
        let n_slots = membership.n_slots();
        let mut speeds = vec![0u64; n_slots];
        let mut queues: Vec<AtomicU64> = (0..n_slots).map(|_| AtomicU64::new(0)).collect();
        for m in membership.members() {
            speeds[m.slot] = m.speed;
            if m.slot < prev.queues.len() {
                *queues[m.slot].get_mut() = prev.queues[m.slot].load(Ordering::Relaxed);
            }
        }
        FleetSnapshot {
            epoch: prev.epoch + 1,
            membership,
            queues,
            speeds,
            counters: prev.counters.clone(),
        }
    }

    /// The epoch counter: 0 for the initial publish, +1 per
    /// [`FleetView::publish`].
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The membership this epoch serves.
    #[must_use]
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Records a routed request joining `server`'s queue (callable from
    /// any thread holding the snapshot).
    #[inline]
    pub fn record_join(&self, server: ServerId) {
        self.queues[server.0].fetch_add(1, Ordering::Relaxed);
        if let Some(c) = &self.counters {
            c.joins.incr();
        }
    }

    /// Records a request completing on `server`. Saturates at zero: a
    /// completion recorded against an epoch that never saw the join
    /// (published mid-flight) must not wrap the counter.
    #[inline]
    pub fn record_depart(&self, server: ServerId) {
        let _ = self.queues[server.0]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |q| q.checked_sub(1));
        if let Some(c) = &self.counters {
            c.departs.incr();
        }
    }

    /// The telemetry counters this fleet shares across epochs, when
    /// enabled (see [`FleetView::with_counters`]).
    #[must_use]
    pub fn counters(&self) -> Option<&Arc<RouterCounters>> {
        self.counters.as_ref()
    }
}

impl LoadView for FleetSnapshot {
    #[inline]
    fn load(&self, slot: usize) -> (u64, u64) {
        (self.queues[slot].load(Ordering::Relaxed), self.speeds[slot])
    }
}

/// A link of the epoch chain: the snapshot plus the write-once pointer
/// to its successor.
#[derive(Debug)]
struct EpochNode {
    snap: FleetSnapshot,
    next: OnceLock<Arc<EpochNode>>,
}

/// The single-writer handle of an epoch-published fleet: churn
/// publishes a fresh [`FleetSnapshot`] per membership change, readers
/// ([`FleetReader`]) advance to it lock-free whenever they choose.
///
/// The chain is append-only and write-once per link (a `OnceLock`
/// successor pointer), so publication is a release-store readers pick
/// up with one acquire-load — no locks, no reader registration, and no
/// `unsafe`. Old epochs are freed as the last reader leaves them
/// (`Arc` reclamation).
#[derive(Debug)]
pub struct FleetView {
    tail: Arc<EpochNode>,
}

impl FleetView {
    /// Publishes epoch 0 for an initial membership, telemetry off.
    #[must_use]
    pub fn new(membership: Membership) -> Self {
        FleetView::with_counters(membership, None)
    }

    /// Publishes epoch 0 with opt-in RMW counters: every epoch this
    /// view ever publishes shares `counters`, so join/depart totals
    /// survive churn. `None` is byte-for-byte [`FleetView::new`].
    #[must_use]
    pub fn with_counters(membership: Membership, counters: Option<Arc<RouterCounters>>) -> Self {
        FleetView {
            tail: Arc::new(EpochNode {
                snap: FleetSnapshot::first(membership, counters),
                next: OnceLock::new(),
            }),
        }
    }

    /// Publishes a new epoch under a changed membership. Surviving
    /// slots carry their job counts over; departed slots orphan theirs.
    /// Readers see either the old epoch or the new one, never a mix.
    pub fn publish(&mut self, membership: Membership) {
        let node = Arc::new(EpochNode {
            snap: FleetSnapshot::next(&self.tail.snap, membership),
            next: OnceLock::new(),
        });
        let appended = self.tail.next.set(Arc::clone(&node)).is_ok();
        debug_assert!(appended, "FleetView is the single writer of its chain");
        self.tail = node;
    }

    /// The newest published snapshot.
    #[must_use]
    pub fn snapshot(&self) -> &FleetSnapshot {
        &self.tail.snap
    }

    /// A new reader, starting at the newest published epoch.
    #[must_use]
    pub fn reader(&self) -> FleetReader {
        FleetReader {
            node: Arc::clone(&self.tail),
        }
    }
}

/// A lock-free reader of an epoch-published fleet. Cloning is cheap
/// (one `Arc` bump); each clone advances independently.
#[derive(Debug, Clone)]
pub struct FleetReader {
    node: Arc<EpochNode>,
}

impl FleetReader {
    /// Advances to the newest published epoch; returns whether the
    /// epoch changed (the signal to rebuild placement structures).
    /// Never blocks: the fast path — no new epoch, i.e. every `route`
    /// call in steady state — is a single acquire load of the successor
    /// pointer. A lagging reader walks the chain by reference and
    /// clones one `Arc` at the end, instead of paying a clone + drop
    /// per intermediate epoch it skips.
    #[inline]
    pub fn refresh(&mut self) -> bool {
        let Some(mut newest) = self.node.next.get() else {
            return false;
        };
        while let Some(next) = newest.next.get() {
            newest = next;
        }
        self.node = Arc::clone(newest);
        true
    }

    /// The snapshot this reader currently serves from.
    #[inline]
    #[must_use]
    pub fn snapshot(&self) -> &FleetSnapshot {
        &self.node.snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_view_reads_its_slices() {
        let queues = [3u64, 0, 7];
        let speeds = [1u64, 8, 2];
        let view = DenseView::new(&queues, &speeds);
        assert_eq!(view.load(0), (3, 1));
        assert_eq!(view.load(2), (7, 2));
        assert_eq!(view.queue_len(1), 0);
    }

    #[test]
    #[should_panic(expected = "same slots")]
    fn frozen_view_rejects_mismatched_mirrors() {
        let _ = DenseView::new(&[1, 2], &[1]);
    }

    fn two_member(m: &Membership, drop_slot: usize) -> Membership {
        Membership::new(
            m.members()
                .iter()
                .copied()
                .filter(|mm| mm.slot != drop_slot)
                .collect(),
        )
    }

    #[test]
    fn readers_advance_only_on_refresh() {
        let mut view = FleetView::new(Membership::from_speeds(&[1, 2, 3]));
        let mut reader = view.reader();
        assert_eq!(reader.snapshot().epoch(), 0);
        let next = two_member(view.snapshot().membership(), 1);
        view.publish(next);
        assert_eq!(reader.snapshot().epoch(), 0, "stale until refresh");
        assert!(reader.refresh());
        assert_eq!(reader.snapshot().epoch(), 1);
        assert!(!reader.refresh(), "already newest");
    }

    #[test]
    fn publish_carries_surviving_queue_counts() {
        let mut view = FleetView::new(Membership::from_speeds(&[4, 4, 4]));
        view.snapshot().record_join(ServerId(0));
        view.snapshot().record_join(ServerId(1));
        view.snapshot().record_join(ServerId(1));
        let next = two_member(view.snapshot().membership(), 0);
        view.publish(next);
        let snap = view.snapshot();
        assert_eq!(snap.load(1), (2, 4), "survivor keeps its backlog");
        assert_eq!(snap.queue_len(0), 0, "departed slot orphans its jobs");
    }

    #[test]
    fn depart_saturates_at_zero() {
        let view = FleetView::new(Membership::from_speeds(&[1]));
        view.snapshot().record_depart(ServerId(0));
        assert_eq!(view.snapshot().queue_len(0), 0, "no wrap-around");
        view.snapshot().record_join(ServerId(0));
        view.snapshot().record_depart(ServerId(0));
        assert_eq!(view.snapshot().queue_len(0), 0);
    }

    #[test]
    fn lagging_reader_walks_multiple_epochs() {
        let mut view = FleetView::new(Membership::from_speeds(&[1, 1, 1, 1]));
        let mut reader = view.reader();
        for slot in [3, 2] {
            let next = two_member(view.snapshot().membership(), slot);
            view.publish(next);
        }
        assert!(reader.refresh());
        assert_eq!(reader.snapshot().epoch(), 2);
        assert_eq!(reader.snapshot().membership().len(), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_membership_rejected() {
        let _ = Membership::new(vec![
            Member {
                slot: 1,
                id: 1,
                speed: 1,
            },
            Member {
                slot: 0,
                id: 0,
                speed: 1,
            },
        ]);
    }
}
