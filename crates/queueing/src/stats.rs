//! Scheduler-internals telemetry: the always-on [`CalendarStats`]
//! block every [`CalendarQueue`](crate::CalendarQueue) maintains, and
//! the [`LazyStats`] block every [`LazyBoard`](crate::LazyBoard)
//! maintains.
//!
//! The calendar counters live on the **amortised** paths only — ring
//! refills, spills, bulk-commit drains, rebuilds — never on the
//! per-event schedule/pop fast path, so they are plain `u64` increments
//! paid once per batch. The lazy-board counters additionally sit on the
//! *deviation* branches of its hot path (an overwrite, a stale
//! discard), which the dominant one-pending-per-slot workload never
//! takes — so the common schedule/pop pair still pays nothing. Both
//! blocks are cheap enough to keep on unconditionally (no registry
//! gate), and entirely wall-clock/RNG-free, so they cannot perturb a
//! simulated schedule.

use bnb_stats::Mergeable;
use bnb_telemetry::{Log2Histogram, MetricsSnapshot};

/// Internals counters of one [`CalendarQueue`](crate::CalendarQueue):
/// the mechanism fingerprint behind its amortised-O(1) claim. Harvest
/// with [`CalendarStats::record_into`], or merge shards through
/// [`Mergeable`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CalendarStats {
    /// Bulk bring-forward passes (each amortises one bucket scan over
    /// up to `RING_REFILL` pops).
    pub ring_refills: u64,
    /// Inside-horizon inserts that overflowed `RING_MAX` and pushed the
    /// ring's farthest entry back toward the wheel.
    pub ring_spills: u64,
    /// Entries drained from the bulk-commit buffer into the wheel
    /// (deferred per-schedule wheel work, paid in batches).
    pub pending_drained: u64,
    /// Geometry rebuilds: grows, shrinks and window advances over the
    /// overflow ladder.
    pub rebuilds: u64,
    /// Chain length of each occupied bucket, sampled at every rebuild —
    /// the sparse-geometry health check (mostly-singleton chains keep
    /// the pop scan branch-predictable).
    pub bucket_occupancy: Log2Histogram,
    /// Pending-event population at each rebuild (how big the wheel was
    /// when it turned).
    pub population_at_rebuild: Log2Histogram,
}

impl CalendarStats {
    /// A zeroed stats block.
    #[must_use]
    pub fn new() -> Self {
        CalendarStats::default()
    }

    /// Harvests this block into a [`MetricsSnapshot`] under
    /// `calendar.*` metric names.
    pub fn record_into(&self, snapshot: &mut MetricsSnapshot) {
        snapshot.add_counter("calendar.ring_refills", self.ring_refills);
        snapshot.add_counter("calendar.ring_spills", self.ring_spills);
        snapshot.add_counter("calendar.pending_drained", self.pending_drained);
        snapshot.add_counter("calendar.rebuilds", self.rebuilds);
        snapshot.add_histogram("calendar.bucket_occupancy", &self.bucket_occupancy);
        snapshot.add_histogram(
            "calendar.population_at_rebuild",
            &self.population_at_rebuild,
        );
    }
}

impl Mergeable for CalendarStats {
    fn merge_from(&mut self, other: &Self) {
        self.ring_refills += other.ring_refills;
        self.ring_spills += other.ring_spills;
        self.pending_drained += other.pending_drained;
        self.rebuilds += other.rebuilds;
        self.bucket_occupancy.merge_from(&other.bucket_occupancy);
        self.population_at_rebuild
            .merge_from(&other.population_at_rebuild);
    }
}

/// Internals counters of one [`LazyBoard`](crate::LazyBoard): the
/// mechanism fingerprint of slot-keyed lazy deletion. Overwrites
/// measure how much delete work lazy deletion deferred; stale pops and
/// ring drops count where the superseded candidates were finally
/// collected (on bag contact or at a lap refill); rebuild scans and
/// slots scanned price the geometry re-derivations; refill scanned and
/// the refill sweep histogram price the far level's lap refills and
/// top sweeps. Harvest with [`LazyStats::record_into`], or merge shards
/// through [`Mergeable`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LazyStats {
    /// Schedules that replaced a still-pending entry for the same slot
    /// — the O(1) lazy reschedule that a heap would pay a
    /// delete-and-reinsert for.
    pub overwrites: u64,
    /// Bag candidates swept at pop time because an overwrite (or the
    /// slot's earlier pop) had invalidated them — the deferred
    /// deletions, finally collected on contact.
    pub stale_pops: u64,
    /// Candidates indexed by schedules — one bag or far-level append
    /// each; never a sorted insert.
    pub ring_inserts: u64,
    /// Candidates found superseded while parked in the far level and
    /// dropped during a lap refill or top sweep, never reaching a bag.
    pub ring_drops: u64,
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
        snapshot.add_counter("lazy.overwrites", self.overwrites);
        snapshot.add_counter("lazy.stale_pops", self.stale_pops);
        snapshot.add_counter("lazy.ring_inserts", self.ring_inserts);
        snapshot.add_counter("lazy.ring_drops", self.ring_drops);
        snapshot.add_counter("lazy.rebuild_scans", self.rebuild_scans);
        snapshot.add_counter("lazy.slots_scanned", self.slots_scanned);
        snapshot.add_counter("lazy.refill_scanned", self.refill_scanned);
        snapshot.add_histogram("lazy.refill_sweep", &self.refill_sweep);
    }
}

impl Mergeable for LazyStats {
    fn merge_from(&mut self, other: &Self) {
        self.overwrites += other.overwrites;
        self.stale_pops += other.stale_pops;
        self.ring_inserts += other.ring_inserts;
        self.ring_drops += other.ring_drops;
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
        a.overwrites = 3;
        a.stale_pops = 2;
        a.slots_scanned = 64;
        a.refill_scanned = 300;
        a.refill_sweep.record(256);
        let mut b = LazyStats::new();
        b.overwrites = 1;
        b.ring_drops = 5;
        b.rebuild_scans = 7;
        b.ring_inserts = 9;
        b.refill_scanned = 12;
        b.refill_sweep.record(12);
        b.refill_sweep.record(0);
        a.merge_from(&b);
        let mut snap = MetricsSnapshot::new();
        a.record_into(&mut snap);
        assert_eq!(snap.counter("lazy.overwrites"), Some(4));
        assert_eq!(snap.counter("lazy.stale_pops"), Some(2));
        assert_eq!(snap.counter("lazy.ring_inserts"), Some(9));
        assert_eq!(snap.counter("lazy.ring_drops"), Some(5));
        assert_eq!(snap.counter("lazy.rebuild_scans"), Some(7));
        assert_eq!(snap.counter("lazy.slots_scanned"), Some(64));
        assert_eq!(snap.counter("lazy.refill_scanned"), Some(312));
        let sweep = snap.histogram("lazy.refill_sweep").unwrap();
        assert_eq!((sweep.count(), sweep.sum()), (3, 268));
        assert_eq!(sweep.buckets()[8], 1, "the 256-candidate refill");
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = CalendarStats::new();
        a.ring_refills = 2;
        a.rebuilds = 1;
        a.bucket_occupancy.record(1);
        let mut b = CalendarStats::new();
        b.ring_refills = 3;
        b.pending_drained = 10;
        b.bucket_occupancy.record(4);
        a.merge_from(&b);
        assert_eq!(a.ring_refills, 5);
        assert_eq!(a.pending_drained, 10);
        assert_eq!(a.rebuilds, 1);
        assert_eq!(a.bucket_occupancy.count(), 2);
    }

    #[test]
    fn record_into_names_every_field() {
        let mut s = CalendarStats::new();
        s.ring_spills = 7;
        s.population_at_rebuild.record(100);
        let mut snap = MetricsSnapshot::new();
        s.record_into(&mut snap);
        assert_eq!(snap.counter("calendar.ring_spills"), Some(7));
        assert_eq!(snap.counter("calendar.rebuilds"), Some(0));
        assert_eq!(
            snap.histogram("calendar.population_at_rebuild")
                .unwrap()
                .count(),
            1
        );
    }
}
