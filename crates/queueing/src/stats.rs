//! Scheduler-internals telemetry: the always-on [`LazyStats`] block
//! every [`LazyBoard`](crate::LazyBoard) maintains.
//!
//! The counters live on the board's **amortised** paths (lap refills,
//! rebuilds), apart from one increment per schedule — so the common
//! schedule/pop pair pays next to nothing. The block is cheap enough
//! to keep on unconditionally (no registry gate), and entirely
//! wall-clock/RNG-free, so it cannot perturb a simulated schedule.

use bnb_stats::Mergeable;
use bnb_telemetry::{Log2Histogram, MetricsSnapshot};

/// Internals counters of one [`LazyBoard`](crate::LazyBoard): the
/// mechanism fingerprint of its bags and far level. Ring inserts
/// count the candidates schedules indexed; rebuild scans and slots
/// scanned price the geometry re-derivations; refill scanned and the
/// refill sweep histogram price the far level's lap refills and top
/// sweeps. Harvest with [`LazyStats::record_into`], or merge shards
/// through [`Mergeable`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LazyStats {
    /// Candidates indexed by schedules — one bag or far-level append
    /// each; never a sorted insert.
    pub ring_inserts: u64,
    /// Geometry rebuilds: the bag shift re-derived from the live
    /// population's head spread after a bag outgrew its cap.
    pub rebuild_scans: u64,
    /// Slots examined across all geometry rebuilds (each rebuild scans
    /// the full authoritative array once).
    pub slots_scanned: u64,
    /// Far-level candidates examined by lap refills and top sweeps —
    /// the amortised cost of the far side, a small constant per pop at
    /// any population.
    pub refill_scanned: u64,
    /// Candidates examined per lap refill (ring buckets drained plus
    /// any top sweep): the sweep-length distribution behind
    /// `refill_scanned`.
    pub refill_sweep: Log2Histogram,
}

impl LazyStats {
    /// A zeroed stats block.
    #[must_use]
    pub fn new() -> Self {
        LazyStats::default()
    }

    /// Harvests this block into a [`MetricsSnapshot`] under `lazy.*`
    /// metric names.
    pub fn record_into(&self, snapshot: &mut MetricsSnapshot) {
        snapshot.add_counter("lazy.ring_inserts", self.ring_inserts);
        snapshot.add_counter("lazy.rebuild_scans", self.rebuild_scans);
        snapshot.add_counter("lazy.slots_scanned", self.slots_scanned);
        snapshot.add_counter("lazy.refill_scanned", self.refill_scanned);
        snapshot.add_histogram("lazy.refill_sweep", &self.refill_sweep);
    }
}

impl Mergeable for LazyStats {
    fn merge_from(&mut self, other: &Self) {
        self.ring_inserts += other.ring_inserts;
        self.rebuild_scans += other.rebuild_scans;
        self.slots_scanned += other.slots_scanned;
        self.refill_scanned += other.refill_scanned;
        self.refill_sweep.merge_from(&other.refill_sweep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_merge_and_record_cover_every_field() {
        let mut a = LazyStats::new();
        a.slots_scanned = 64;
        a.refill_scanned = 300;
        a.refill_sweep.record(256);
        let mut b = LazyStats::new();
        b.rebuild_scans = 7;
        b.ring_inserts = 9;
        b.refill_scanned = 12;
        b.refill_sweep.record(12);
        b.refill_sweep.record(0);
        a.merge_from(&b);
        let mut snap = MetricsSnapshot::new();
        a.record_into(&mut snap);
        assert_eq!(snap.counter("lazy.ring_inserts"), Some(9));
        assert_eq!(snap.counter("lazy.rebuild_scans"), Some(7));
        assert_eq!(snap.counter("lazy.slots_scanned"), Some(64));
        assert_eq!(snap.counter("lazy.refill_scanned"), Some(312));
        let sweep = snap.histogram("lazy.refill_sweep").unwrap();
        assert_eq!((sweep.count(), sweep.sum()), (3, 268));
        assert_eq!(sweep.buckets()[8], 1, "the 256-candidate refill");
    }
}
