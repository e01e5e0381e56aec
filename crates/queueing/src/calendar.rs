//! A calendar-queue [`EventScheduler`]: a bucketed timing wheel over a
//! slab-allocated entry arena, with dynamic bucket-width resizing and an
//! overflow ladder.
//!
//! The classic binary-heap future-event list pays `O(log n)` per
//! operation with comparison-driven branch misses on every sift; for the
//! cluster simulator that heap is the hot path. A calendar queue (Brown,
//! CACM 1988) exploits what a simulator's event population actually
//! looks like — times concentrated in a sliding window just ahead of the
//! clock — to get amortised `O(1)` schedule and pop:
//!
//! * every pending entry lives in **one contiguous slab arena**; a
//!   bucket is just the head index of an intrusive singly-linked list
//!   threaded through the arena, and freed slots go on an intrusive
//!   free list for reuse. Scheduling never allocates in steady state
//!   (no per-bucket `Vec` growth), window advances **relink** entries
//!   by rewriting one index each instead of moving them, and the hot
//!   entries stay packed in the same few cache lines however often the
//!   wheel turns;
//! * the **wheel** is `nb` buckets of width `w` covering
//!   `[wheel_start, wheel_start + nb·w)`; an event lands in bucket
//!   `⌊(t − wheel_start) / w⌋` and buckets are scanned in order (an
//!   occupancy bitmask skips empty ones word-wise), so the first
//!   non-empty bucket holds the global minimum;
//! * events beyond the window go to the **overflow ladder**, an
//!   unordered intrusive list that is re-distributed (and re-bucketed
//!   under a freshly estimated width) each time the wheel drains and
//!   the window advances;
//! * the geometry **resizes dynamically**: when the population outgrows
//!   the bucket count (or shrinks far below it) the queue rebuilds with
//!   `nb ≈ 8·len` (deliberately sparse: singleton chains keep the
//!   per-pop scan branch-predictable) and a width estimated from the
//!   gaps at the *head* of
//!   the schedule (Brown's sampling idea: the event density just ahead
//!   of the clock is what bounds the per-pop scan, not the full span,
//!   which exponential service tails stretch by orders of magnitude);
//! * a **bounded-horizon bring-forward ring** sits in front of the
//!   wheel: the next `RING_REFILL` upcoming entries are brought
//!   forward from the wheel **in one bulk pass** (whole bucket chains
//!   unlinked in occupancy order; singleton chains extend the ring
//!   directly, multi-entry chains pay one small sort) into a sorted
//!   ring of `(time, arena slot)` pairs, ascending, minimum at the
//!   front. Every pop is then an unconditional `O(1)` front take — the
//!   per-pop bucket scan, chain unlink and occupancy bookkeeping are
//!   paid once per refill, not once per event. Schedules compare
//!   against the ring's horizon (its back entry): inside it they
//!   insert into the ring by binary search (a handful of L1 writes, no
//!   bucket chains), spilling the ring's farthest entry when it
//!   overflows `RING_MAX`;
//! * schedules at or past the horizon — the common case, simulators
//!   schedule at `now + dt` — and ring spills park on a **bulk-commit
//!   buffer** instead of touching bucket chains: the anchor check,
//!   bucket-index math, chain link, occupancy-bitmask update and grow
//!   check are deferred and paid in one tight batch loop per ring
//!   refill, so the per-schedule fast path is an arena write plus a
//!   `Vec` push.
//!
//! Determinism: identical to [`EventQueue`](crate::EventQueue) — pops
//! are ordered by `(time, insertion sequence)`. Bucket indexing is a
//! monotone function of time, so bucket order refines time order, equal
//! times share a bucket, and the refill sort breaks ties by sequence
//! number (list order within a bucket is irrelevant: a refill takes
//! whole chains and sorts them by `(time, seq)`). The ring preserves
//! the invariant that every wheel-side entry is `(time, seq)`-greater
//! than the ring's back: refills only run on an empty ring, a schedule
//! strictly inside the horizon lands in the ring (an exact tie at the
//! horizon carries a larger seq and goes to the wheel), and equal times
//! always share a bucket, so the ring's front is always the global
//! minimum and the buffering is invisible in the output stream. The
//! scheduler-equivalence property tests drive both implementations
//! through random schedules (tie storms, window-edge events and
//! far-future ladder events included) and require identical output
//! streams.

use crate::events::{EventScheduler, Time};
use std::collections::VecDeque;

/// Smallest bucket count the wheel ever uses.
const MIN_BUCKETS: usize = 16;
/// Largest bucket count (bounds rebuild cost and memory on huge runs).
const MAX_BUCKETS: usize = 1 << 20;
/// Buckets allocated per pending event. The wheel runs deliberately
/// *sparse* — mostly-empty buckets mean mostly-singleton chains, so the
/// per-pop min scan is one predictable load instead of a data-dependent
/// walk, and the occupancy words absorb the skipping cost 64 buckets at
/// a time. Measured on the cluster hold pattern, 8×(population) buckets
/// at quarter-gap width beat the classic ~1×/2-per-bucket geometry by
/// ~25% per schedule+pop pair; a bucket head is 4 bytes, so even the
/// sparse wheel stays a few KB for simulator-sized populations.
const BUCKETS_PER_EVENT: usize = 8;
/// Population beyond `GROW_FACTOR × nb` triggers a grow rebuild
/// (`nb` counted in [`BUCKETS_PER_EVENT`] units).
const GROW_FACTOR: usize = 2;
/// How many of the earliest pending events inform the width estimate.
const HEAD_SAMPLE: usize = 32;
/// Target bucket width as a fraction of the mean head-of-schedule gap:
/// ~4 buckets per pending head event (the sparse-geometry counterpart
/// of [`BUCKETS_PER_EVENT`], keeping the covered window
/// `nb·w ≈ 2 × (population × head gap)` — the same span the classic
/// dense geometry covered, so the overflow ladder turns no faster).
const WIDTH_PER_GAP: f64 = 0.25;
/// How many upcoming entries one bulk refill brings forward from the
/// wheel into the ring. Large enough to amortise the occupancy scan and
/// chain unlinks over many pops, small enough that the refill sort and
/// the binary-searched inside-horizon inserts stay a few L1 lines (the
/// full ring is ≤ [`RING_MAX`] × 16 bytes).
const RING_REFILL: usize = 8;
/// Ring occupancy beyond which an inside-horizon insert spills the
/// ring's farthest entry back to the wheel instead of growing the ring
/// (bounds the memmove an insert can pay; refills only run on an empty
/// ring, so chain-take overshoot past this cap is transient).
const RING_MAX: usize = 16;
/// Null link of the intrusive lists (bucket chains and the free list).
const NIL: u32 = u32::MAX;

/// One arena slot: a scheduled entry plus its intrusive list link. The
/// link threads bucket chains, the overflow ladder and the free list —
/// a slot is always on exactly one of them.
#[derive(Debug, Clone, Copy)]
struct Slot<E> {
    time: Time,
    seq: u64,
    next: u32,
    event: E,
}

/// A calendar queue: bucketed timing wheel + overflow ladder over a
/// slab arena.
///
/// Implements [`EventScheduler`] with the same `(time, insertion
/// sequence)` pop order as the binary-heap
/// [`EventQueue`](crate::EventQueue), at amortised `O(1)` per operation
/// for simulation-shaped workloads.
///
/// Payloads must be `Copy`: entries live in the recycled slab arena, and
/// popping copies the event out of its slot as the slot moves to the
/// free list (the heap-backed [`EventQueue`](crate::EventQueue) carries
/// arbitrary payloads if you need them).
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// The slab: every pending entry, plus recycled free slots.
    arena: Vec<Slot<E>>,
    /// Head of the intrusive free list through `arena`.
    free_head: u32,
    /// Bucket `i` covers `[wheel_start + i·width, …+width)`; the value
    /// is the head index of its intrusive chain (`NIL` = empty).
    heads: Vec<u32>,
    /// One bit per bucket: set iff the bucket is non-empty. Lets the
    /// pop scan skip empty buckets 64 at a time.
    occupancy: Vec<u64>,
    /// Far-future events (bucket index ≥ `heads.len()`), an unordered
    /// intrusive chain.
    overflow_head: u32,
    /// Bucket width in simulation-time units (always positive).
    width: f64,
    /// `1 / width`, so indexing multiplies instead of divides.
    inv_width: f64,
    /// Left edge of bucket 0.
    wheel_start: Time,
    /// First bucket that may still hold the minimum (moves back when an
    /// insert lands earlier, resets when the window advances).
    cursor: usize,
    /// Events currently in the wheel (excludes the overflow ladder).
    wheel_len: usize,
    /// Total pending events.
    len: usize,
    /// Next insertion sequence number (global tie-break).
    seq: u64,
    /// Whether the geometry has been anchored to a first event yet.
    anchored: bool,
    /// Rebuild scratch (slot-index shuffle buffer), reused so window
    /// advances don't allocate.
    scratch: Vec<u32>,
    /// Rebuild scratch (head-gap width estimation), reused likewise.
    scratch_times: Vec<f64>,
    /// Rebuilds since the width was last re-estimated (the estimate is
    /// refreshed periodically, not on every window advance — the
    /// quickselect behind it would otherwise show up in profiles).
    rebuilds_since_estimate: u32,
    /// Bring-forward ring: `(time, arena slot)` of the next upcoming
    /// entries, sorted by `(time, seq)` **ascending** — the minimum is
    /// the front, so every pop is an `O(1)` front take. Refilled in
    /// bulk from the wheel when empty; every wheel-side entry is
    /// `(time, seq)`-greater than the ring's back.
    ring: VecDeque<(Time, u32)>,
    /// Refill scratch (`(time, seq, slot)` sort buffer), reused so
    /// refills don't allocate.
    ring_scratch: Vec<(Time, u64, u32)>,
    /// Bulk-commit buffer: allocated slots scheduled at or past the
    /// ring's horizon, awaiting their wheel insert. The per-schedule
    /// wheel work — anchor check, bucket-index math, chain link,
    /// occupancy-bitmask update, grow check — is deferred and paid in
    /// one tight batch loop per ring refill, off the per-event path.
    /// Entries here count toward `len` but not `wheel_len`.
    pending: Vec<(Time, u32)>,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        CalendarQueue {
            arena: Vec::new(),
            free_head: NIL,
            heads: vec![NIL; MIN_BUCKETS],
            occupancy: vec![0; MIN_BUCKETS.div_ceil(64)],
            overflow_head: NIL,
            width: 1.0,
            inv_width: 1.0,
            wheel_start: 0.0,
            cursor: 0,
            wheel_len: 0,
            len: 0,
            seq: 0,
            anchored: false,
            scratch: Vec::new(),
            scratch_times: Vec::new(),
            rebuilds_since_estimate: 0,
            ring: VecDeque::new(),
            ring_scratch: Vec::new(),
            pending: Vec::new(),
        }
    }
}

impl<E: Copy> CalendarQueue<E> {
    /// Creates an empty calendar queue.
    #[must_use]
    pub fn new() -> Self {
        CalendarQueue::default()
    }

    /// Bucket index of `time` under the current geometry. Monotone in
    /// `time` (floor of an increasing affine map), so bucket order
    /// refines time order; saturates far past the wheel for huge times.
    #[inline]
    fn bucket_index(&self, time: Time) -> usize {
        // `as usize` saturates negatives to 0 and huge values past the
        // wheel (and maps NaN to 0, which `schedule` rejects).
        ((time - self.wheel_start) * self.inv_width) as usize
    }

    /// Takes a slot off the free list (or grows the arena) and writes
    /// the entry into it.
    #[inline]
    fn alloc(&mut self, time: Time, seq: u64, event: E) -> u32 {
        let idx = self.free_head;
        if idx != NIL {
            let slot = &mut self.arena[idx as usize];
            self.free_head = slot.next;
            slot.time = time;
            slot.seq = seq;
            slot.event = event;
            idx
        } else {
            assert!(
                self.arena.len() < NIL as usize,
                "calendar arena exceeds u32 indexing"
            );
            self.arena.push(Slot {
                time,
                seq,
                next: NIL,
                event,
            });
            (self.arena.len() - 1) as u32
        }
    }

    /// Returns a popped slot to the free list. The event value is left
    /// in place (payloads are `Copy`) until the slot is reused.
    #[inline]
    fn release(&mut self, idx: u32) {
        self.arena[idx as usize].next = self.free_head;
        self.free_head = idx;
    }

    /// Inserts an allocated slot into the bring-forward ring at its
    /// sorted position — the inside-horizon schedule path. Among equal
    /// times the new entry carries the largest sequence number ever
    /// issued, so a binary search for the first strictly-later time
    /// lands it *after* its older equal-time peers — exactly
    /// `(time, seq)` ascending. Overflow past [`RING_MAX`] spills the
    /// ring's farthest entry back to the wheel.
    #[inline]
    fn ring_insert(&mut self, time: Time, idx: u32) {
        let pos = self.ring.partition_point(|&(t, _)| t <= time);
        self.ring.insert(pos, (time, idx));
        if self.ring.len() > RING_MAX {
            // The spilled entry was the ring's `(time, seq)` maximum, so
            // parking it on the bulk-commit buffer keeps the wheel-side
            // invariant relative to the new back.
            let spill = self.ring.pop_back().expect("ring is non-empty");
            self.pending.push((spill.0, spill.1));
        }
    }

    /// Pops the ring's minimum `(time, seq)` entry — the front of the
    /// ascending buffer — releasing its arena slot.
    #[inline]
    fn take_ring(&mut self) -> (Time, E) {
        let (time, idx) = self.ring.pop_front().expect("ring is non-empty");
        let event = self.arena[idx as usize].event;
        self.release(idx);
        self.len -= 1;
        (time, event)
    }

    /// Commits an allocated slot to the wheel proper: anchors the
    /// geometry on first contact, re-anchors via the overflow ladder on
    /// a before-window insert, and triggers a grow rebuild when the
    /// wheel population outruns the bucket count.
    #[inline]
    fn commit_to_wheel(&mut self, idx: u32, time: Time) {
        if !self.anchored {
            self.anchored = true;
            self.wheel_start = time;
            self.cursor = 0;
        }
        if time < self.wheel_start {
            // An insert before the window (arbitrary schedules only —
            // simulators schedule at `now + dt`): re-anchor around it.
            self.arena[idx as usize].next = self.overflow_head;
            self.overflow_head = idx;
            self.rebuild();
        } else {
            self.slot(idx);
            let wheel_population = self.len - self.ring.len() - self.pending.len();
            if wheel_population > GROW_FACTOR * self.heads.len() && self.heads.len() < MAX_BUCKETS {
                self.rebuild();
            }
        }
    }

    /// Drains the bulk-commit buffer into the wheel — the batched half
    /// of the deferred per-schedule wheel work. The common case (the
    /// geometry is anchored and the entry lands at or past the window
    /// start) runs an inlined chain-link loop with the grow check
    /// hoisted out entirely: one batch-level check after the drain
    /// replaces one per schedule. Entries are taken from the back, so a
    /// re-anchor or grow rebuild triggered mid-flush simply sees the
    /// not-yet-committed remainder still on the buffer (the rebuild
    /// skips them, like ring entries) and the loop finishes against the
    /// new geometry.
    fn flush_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        while let Some(&(time, idx)) = self.pending.last() {
            if !self.anchored || time < self.wheel_start {
                // Rare: first contact or a before-window insert
                // (arbitrary schedules only) — take the full path,
                // which may re-anchor and rebuild.
                self.pending.pop();
                self.commit_to_wheel(idx, time);
                continue;
            }
            self.pending.pop();
            let b = self.bucket_index(time);
            if b < self.heads.len() {
                self.arena[idx as usize].next = self.heads[b];
                self.heads[b] = idx;
                self.occupancy[b >> 6] |= 1u64 << (b & 63);
                self.wheel_len += 1;
                self.cursor = self.cursor.min(b);
            } else {
                self.arena[idx as usize].next = self.overflow_head;
                self.overflow_head = idx;
            }
        }
        let wheel_population = self.len - self.ring.len();
        if wheel_population > GROW_FACTOR * self.heads.len() && self.heads.len() < MAX_BUCKETS {
            self.rebuild();
        }
    }

    /// Brings the next upcoming entries forward from the wheel into the
    /// empty ring, in one bulk pass: the bulk-commit buffer is flushed
    /// first, then whole bucket chains are unlinked in occupancy order
    /// until [`RING_REFILL`] entries are collected (multi-entry chains
    /// sort by `(time, seq)` among themselves), and the per-pop cost
    /// collapses to a front take. Taking whole chains keeps the ring
    /// invariant at bucket granularity: everything left on the wheel
    /// sits in a strictly later bucket (equal times always share a
    /// bucket), hence is strictly `(time, seq)`-greater than the ring's
    /// back. Advances the window over the overflow ladder if the wheel
    /// is drained. Requires `len > 0`.
    fn refill_ring(&mut self) {
        debug_assert!(self.ring.is_empty());
        self.flush_pending();
        let mut taken = 0usize;
        while taken == 0 {
            let mut cursor = self.cursor;
            while taken < RING_REFILL {
                let Some(b) = self.next_nonempty(cursor) else {
                    break;
                };
                // Unlink the whole chain. Bucket order refines time
                // order, so appended buckets extend the ring in order;
                // only multi-entry chains (rare under the sparse
                // geometry) pay a sort to restore `(time, seq)` order
                // among themselves.
                let head = self.heads[b];
                if self.arena[head as usize].next == NIL {
                    self.ring.push_back((self.arena[head as usize].time, head));
                    taken += 1;
                } else {
                    let batch = &mut self.ring_scratch;
                    batch.clear();
                    let mut idx = head;
                    while idx != NIL {
                        let s = &self.arena[idx as usize];
                        batch.push((s.time, s.seq, idx));
                        idx = s.next;
                    }
                    batch.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    taken += batch.len();
                    let batch = std::mem::take(&mut self.ring_scratch);
                    self.ring.extend(batch.iter().map(|&(t, _, idx)| (t, idx)));
                    self.ring_scratch = batch;
                }
                self.heads[b] = NIL;
                self.occupancy[b >> 6] &= !(1u64 << (b & 63));
                cursor = b + 1;
            }
            self.cursor = cursor.min(self.heads.len());
            if taken == 0 {
                // Wheel drained; advance the window over the overflow
                // ladder (re-estimating the width as the population
                // evolves).
                debug_assert!(self.wheel_len == 0 && self.overflow_head != NIL);
                self.rebuild();
            }
        }
        self.wheel_len -= taken;
    }

    /// Links an allocated slot into the wheel or the overflow ladder.
    /// The slot's time must be `≥ wheel_start`.
    #[inline]
    fn slot(&mut self, idx: u32) {
        let time = self.arena[idx as usize].time;
        let b = self.bucket_index(time);
        if b < self.heads.len() {
            self.arena[idx as usize].next = self.heads[b];
            self.heads[b] = idx;
            self.occupancy[b >> 6] |= 1u64 << (b & 63);
            self.wheel_len += 1;
            if b < self.cursor {
                self.cursor = b;
            }
        } else {
            self.arena[idx as usize].next = self.overflow_head;
            self.overflow_head = idx;
        }
    }

    /// First non-empty bucket at or after `from`, via the occupancy
    /// words.
    #[inline]
    fn next_nonempty(&self, from: usize) -> Option<usize> {
        let words = self.occupancy.len();
        let mut w = from >> 6;
        if w >= words {
            return None;
        }
        let mut word = self.occupancy[w] & (!0u64 << (from & 63));
        loop {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= words {
                return None;
            }
            word = self.occupancy[w];
        }
    }

    /// Minimum `(time, seq)` entry of bucket `b`'s chain, returned as
    /// `(slot, predecessor-or-NIL)`. The chain must be non-empty.
    #[inline]
    fn min_in_bucket(&self, b: usize) -> (u32, u32) {
        let mut idx = self.heads[b];
        debug_assert_ne!(idx, NIL);
        let mut best = idx;
        let mut best_prev = NIL;
        let (mut best_time, mut best_seq) = {
            let s = &self.arena[idx as usize];
            (s.time, s.seq)
        };
        let mut prev = idx;
        idx = self.arena[idx as usize].next;
        while idx != NIL {
            let s = &self.arena[idx as usize];
            if s.time < best_time || (s.time == best_time && s.seq < best_seq) {
                best = idx;
                best_prev = prev;
                best_time = s.time;
                best_seq = s.seq;
            }
            prev = idx;
            idx = s.next;
        }
        (best, best_prev)
    }

    /// Rebuilds the geometry around the current population: bucket count
    /// ≈ [`BUCKETS_PER_EVENT`] × population (clamped), width estimated
    /// from the head-of-schedule gaps, window anchored at the earliest
    /// pending event. Entries are
    /// **relinked in place** — the rebuild rewrites one `next` index per
    /// entry and never moves entry data. Also used to advance the window
    /// when the wheel drains.
    fn rebuild(&mut self) {
        let mut entries = std::mem::take(&mut self.scratch);
        entries.clear();
        entries.reserve(self.len);
        // Collect every pending slot index: occupied buckets first (the
        // occupancy words name them), then the overflow chain.
        for (w, &word) in self.occupancy.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut idx = self.heads[b];
                while idx != NIL {
                    entries.push(idx);
                    idx = self.arena[idx as usize].next;
                }
                self.heads[b] = NIL;
            }
        }
        let mut idx = self.overflow_head;
        while idx != NIL {
            entries.push(idx);
            idx = self.arena[idx as usize].next;
        }
        self.overflow_head = NIL;
        self.wheel_len = 0;
        self.cursor = 0;
        // Ring and bulk-commit-buffer entries live in the arena but on
        // neither the buckets nor the ladder — a rebuild never touches
        // them (mid-flush rebuilds recommit the remainder afterwards).
        debug_assert_eq!(
            entries.len(),
            self.len - self.ring.len() - self.pending.len()
        );
        if entries.is_empty() {
            self.anchored = false;
            self.scratch = entries;
            return;
        }
        let (mut tmin, mut tmax) = (f64::INFINITY, f64::NEG_INFINITY);
        for &e in &entries {
            let t = self.arena[e as usize].time;
            tmin = tmin.min(t);
            tmax = tmax.max(t);
        }
        // Hysteresis on the bucket count: resize only when the
        // population has clearly outgrown (grow) or fallen at least 4×
        // below (shrink) the wheel, so a population oscillating around
        // a power of two doesn't reallocate every bucket on every
        // window advance — bucket capacity is retained across rebuilds
        // otherwise. Shrinks only ever happen here (window advances and
        // grows), never mid-pop.
        let target_nb = (entries.len() * BUCKETS_PER_EVENT)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let nb = if target_nb > self.heads.len() || target_nb * 4 <= self.heads.len() {
            target_nb
        } else {
            self.heads.len()
        };
        // Brown-style width estimation from the *head* of the schedule:
        // aim for [`WIDTH_PER_GAP`] of the mean gap spanned by the `k`
        // earliest pending times. Re-estimated when the geometry
        // changes and periodically across plain window advances (the
        // quickselect behind the estimate is not free); in between, the
        // previous width carries over — the population density drifts
        // far slower than the window turns. Falls back to the full span
        // (and then to 1.0) when the head is all ties.
        self.rebuilds_since_estimate += 1;
        if nb != self.heads.len() || self.rebuilds_since_estimate >= 16 || self.width <= 0.0 {
            self.rebuilds_since_estimate = 0;
            let head_k = entries.len().min(HEAD_SAMPLE);
            let head_span = if head_k >= 2 {
                let times = &mut self.scratch_times;
                times.clear();
                times.extend(entries.iter().map(|&e| self.arena[e as usize].time));
                let (head, &mut head_kth, _) =
                    times.select_nth_unstable_by(head_k - 1, f64::total_cmp);
                let head_min = head.iter().copied().fold(head_kth, f64::min);
                head_kth - head_min
            } else {
                0.0
            };
            let span = tmax - tmin;
            self.width = if head_span > 0.0 {
                ((head_span / head_k as f64) * WIDTH_PER_GAP).max(1e-300)
            } else if span > 0.0 {
                ((span / entries.len() as f64) * WIDTH_PER_GAP).max(1e-300)
            } else {
                1.0
            };
            self.inv_width = 1.0 / self.width;
        }
        self.wheel_start = tmin;
        if self.heads.len() != nb {
            self.heads.clear();
            self.heads.resize(nb, NIL);
        }
        self.occupancy.clear();
        self.occupancy.resize(nb.div_ceil(64), 0);
        for &e in &entries {
            self.slot(e);
        }
        self.scratch = entries;
    }
}

impl<E: Copy> EventScheduler<E> for CalendarQueue<E> {
    fn new() -> Self {
        CalendarQueue::new()
    }

    fn schedule(&mut self, time: Time, event: E) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let idx = self.alloc(time, seq, event);
        match self.ring.back() {
            // Strictly inside the buffered horizon: bring forward. An
            // exact tie at the horizon goes to the wheel side — the new
            // entry carries the larger seq, so it pops after the ring's
            // back anyway.
            Some(&(horizon, _)) if time < horizon => self.ring_insert(time, idx),
            // At or past the horizon: park on the bulk-commit buffer;
            // the wheel insert is paid in a batch at the next refill.
            _ => self.pending.push((time, idx)),
        }
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        if self.len == 0 {
            return None;
        }
        if self.ring.is_empty() {
            self.refill_ring();
        }
        Some(self.take_ring())
    }

    fn peek(&self) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        // The ring's front is the global minimum whenever the ring is
        // non-empty (every wheel-side entry is greater than its back).
        if let Some(&(t, _)) = self.ring.front() {
            return Some(t);
        }
        let mut min: Option<Time> = None;
        if let Some(b) = self.next_nonempty(self.cursor) {
            let (best, _) = self.min_in_bucket(b);
            min = Some(self.arena[best as usize].time);
        } else {
            // Everything wheel-side rides the overflow ladder.
            let mut idx = self.overflow_head;
            while idx != NIL {
                let t = self.arena[idx as usize].time;
                min = Some(min.map_or(t, |m: Time| m.min(t)));
                idx = self.arena[idx as usize].next;
            }
        }
        // Not-yet-committed entries on the bulk-commit buffer can hold
        // the minimum too (`peek` takes `&self`, so it scans instead of
        // flushing; the buffer is at most a refill's worth of entries).
        for &(t, _) in &self.pending {
            min = Some(min.map_or(t, |m: Time| m.min(t)));
        }
        min
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventQueue;

    fn drain<S: EventScheduler<u64>>(s: &mut S) -> Vec<(Time, u64)> {
        std::iter::from_fn(|| s.pop()).collect()
    }

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        q.schedule(3.0, 0);
        q.schedule(1.0, 1);
        q.schedule(1.0, 2);
        q.schedule(2.0, 3);
        q.schedule(1.0, 4);
        assert_eq!(q.peek(), Some(1.0));
        assert_eq!(
            drain(&mut q),
            vec![(1.0, 1), (1.0, 2), (1.0, 4), (2.0, 3), (3.0, 0)]
        );
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_events_ride_the_overflow_ladder() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        q.schedule(1e12, 0);
        q.schedule(0.5, 1);
        q.schedule(1e9, 2);
        q.schedule(2.0, 3);
        assert_eq!(drain(&mut q), vec![(0.5, 1), (2.0, 3), (1e9, 2), (1e12, 0)]);
    }

    #[test]
    fn insert_before_the_window_reanchors() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        q.schedule(100.0, 0);
        q.schedule(200.0, 1);
        // Earlier than the anchor: must still pop first.
        q.schedule(-5.0, 2);
        assert_eq!(q.peek(), Some(-5.0));
        assert_eq!(drain(&mut q), vec![(-5.0, 2), (100.0, 0), (200.0, 1)]);
    }

    #[test]
    fn grows_and_shrinks_without_losing_events() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let n = 10_000u64;
        for i in 0..n {
            // Deterministic scatter over a wide range, with ties.
            let t = ((i * 2_654_435_761) % 1_000) as f64 * 0.25;
            q.schedule(t, i);
        }
        assert_eq!(q.len(), n as usize);
        // Wheel inserts are bulk-committed at the first refill, so the
        // grow shows up once popping starts.
        let first = q.pop().expect("queue is non-empty");
        assert!(q.heads.len() > MIN_BUCKETS, "wheel must have grown");
        let mut popped = vec![first];
        popped.extend(drain(&mut q));
        assert_eq!(popped.len(), n as usize);
        for w in popped.windows(2) {
            assert!(
                w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1),
                "order violated: {w:?}"
            );
        }
        // Shrinks happen at rebuild points (window advances / grows),
        // so drive a second, much smaller phase with spread-out times
        // (large enough that the bring-forward ring overflows into the
        // wheel): its window advances must shrink the wheel back down.
        let peak = q.heads.len();
        let m = 128u64;
        for i in 0..m {
            q.schedule(1e6 + (i * 97) as f64, i);
        }
        let tail = drain(&mut q);
        assert_eq!(tail.len(), m as usize);
        assert!(
            q.heads.len() < peak && q.heads.len() <= m as usize * BUCKETS_PER_EVENT,
            "wheel must shrink at window advances: peak {peak}, now {}",
            q.heads.len()
        );
    }

    #[test]
    fn slab_reuses_slots_in_steady_state() {
        // A hold pattern (schedule one, pop one) must not grow the
        // arena past the peak population: every pop feeds the free
        // list, every schedule consumes it.
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        for i in 0..64 {
            q.schedule(i as f64, i);
        }
        let peak = q.arena.len();
        let mut now = 0.0f64;
        for i in 64..50_000u64 {
            let (t, _) = q.pop().unwrap();
            now = now.max(t);
            q.schedule(now + 1.0 + (i % 17) as f64, i);
        }
        assert_eq!(q.len(), 64);
        assert_eq!(
            q.arena.len(),
            peak,
            "steady-state churn must recycle slots, not grow the arena"
        );
    }

    #[test]
    fn matches_binary_heap_on_an_interleaved_workload() {
        // A simulation-shaped drive: alternating schedule/pop with the
        // clock advancing, plus periodic tie bursts and far futures.
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut heap: EventQueue<u64> = EventQueue::new();
        let mut id = 0u64;
        let mut sched = |cal: &mut CalendarQueue<u64>, heap: &mut EventQueue<u64>, t: f64| {
            cal.schedule(t, id);
            EventScheduler::schedule(heap, t, id);
            id += 1;
        };
        let mut now = 0.0f64;
        for step in 0..5_000u64 {
            let dt = ((step * 48_271) % 997) as f64 / 100.0;
            sched(&mut cal, &mut heap, now + dt);
            if step % 7 == 0 {
                sched(&mut cal, &mut heap, now + dt); // exact tie
            }
            if step % 101 == 0 {
                sched(&mut cal, &mut heap, now + 1e9); // ladder event
            }
            if step % 3 != 0 {
                let a = cal.pop();
                let b = EventScheduler::pop(&mut heap);
                assert_eq!(a, b, "divergence at step {step}");
                if let Some((t, _)) = a {
                    now = now.max(t);
                }
            }
            assert_eq!(cal.len(), EventScheduler::len(&heap));
        }
        assert_eq!(
            drain(&mut cal),
            std::iter::from_fn(|| heap.pop()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_ties_degenerate_population() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        for i in 0..1_000 {
            q.schedule(42.0, i);
        }
        let popped = drain(&mut q);
        assert_eq!(popped.len(), 1_000);
        assert!(popped.windows(2).all(|w| w[0].1 < w[1].1), "FIFO on ties");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_time_rejected() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        q.schedule(f64::INFINITY, 0);
    }
}
