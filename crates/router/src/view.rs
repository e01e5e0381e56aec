//! Fleet state for placement: memberships and load views.
//!
//! A [`Membership`] (which servers exist, their stable ids and speeds)
//! changes only on churn; the placement structures are built over it.
//! A [`LoadView`] gives the per-slot `(jobs_in_system, speed)` words
//! every load-aware placement compares.

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

    /// One past the largest slot index — the length of a dense
    /// per-slot mirror of this membership.
    #[must_use]
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }
}

/// Read access to the per-slot `(jobs_in_system, speed)` loads the
/// placement hot path compares thousands of times per second.
///
/// Implemented by [`DenseView`] (frozen plain slices, the sharded
/// simulator's per-epoch view) and by the cluster simulator's `Fleet`
/// (one record per server) — one placement engine serves both.
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
/// read per slot through [`LoadView::load`]. This is the **frozen-view** form
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
