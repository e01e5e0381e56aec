//! The [`LazyBoard`]: a slot-keyed **lazy-deletion** scheduler for
//! workloads with at most one pending event per slot.
//!
//! The cluster serving loop keeps exactly one pending departure per
//! busy server, over a fixed slot universe. Both general schedulers
//! pay structural costs that workload never needs — the heap its
//! `log n` sift, the calendar wheel its arena, bucket chains, ring
//! refills and sorted-bucket maintenance, and an eager tournament tree
//! over the slots would replay `log n` compare rounds on *every*
//! schedule and pop. The lazy board drops all of it:
//!
//! * **Authoritative state is one dense array.** `schedule(slot, t)`
//!   writes a packed `(time, seq)` key into a per-slot array — one
//!   store, no heap insert, no bucket chain, no tree replay; the time
//!   round-trips exactly through the key's monotone bit map, so no raw
//!   time is stored anywhere. Rescheduling a slot that already has a
//!   pending entry is the *same* one store: the old entry is not
//!   deleted, it is superseded (the key embeds a fresh insertion
//!   sequence) and collected lazily later.
//! * **Candidates live in unsorted bags.** Each schedule also appends
//!   a `(time bits, slot)` candidate — never a sorted insert, never a
//!   memmove — to the bag of its *global* bag index `g`: the key's
//!   monotone time bits shifted right (the board's `shift` below),
//!   pure integer, monotone in the time. A cursor lap covers
//!   `BAGS` consecutive indices mapped onto physical bags by `g mod
//!   BAGS`; candidates beyond the lap park in an overflow vector, and
//!   candidates behind the cursor (a schedule into the past) drop into
//!   the cursor's own bag, which therefore may mix indices — harmless,
//!   because ordering never relies on bag membership alone.
//! * **`pop` is a branchless argmin over one small bag, validated
//!   against the authoritative array.** The cursor's bag holds every
//!   candidate that could be the front (see the invariant below); a
//!   short compare/select scan finds its minimal time bits, one
//!   compare against the winning slot's authoritative key catches both
//!   overwrites and already-popped slots (sequence numbers are
//!   globally unique), and stale candidates are swept on contact.
//!   Exact-time ties fall to a cold path that re-compares the tying
//!   candidates' *live* keys, so the insertion sequence breaks ties
//!   exactly as a heap would. A drained bag advances the cursor one
//!   index (`O(1)`, no scan); a drained lap refills from the overflow
//!   vector, jumping the cursor straight to the earliest parked index
//!   when the near window is dry. The bag geometry (the shift) is
//!   re-derived from the live population's measured head spread when a
//!   bag outgrows `BAG_CAP` — the escape hatch for time-scale drift,
//!   never on the steady-state path.
//! * **Front probes are cached.** The located front `(key, slot, bag
//!   position)` is memoized; the refusal side of
//!   [`LazyBoard::pop_if_before`] — which the cluster's fused drain
//!   loop takes once per arrival — and [`LazyBoard::min_time_bound`]
//!   revalidate it with two compares instead of rescanning, and the
//!   following take removes it by position without relocating. A
//!   schedule below the cached key *becomes* the cache (it provably
//!   lands in the cursor's bag); an overwrite of the cached slot fails
//!   the full-key revalidation by construction.
//!
//! Determinism: pops are ordered by `(time, insertion sequence)` —
//! byte-for-byte the order of [`EventQueue`](crate::EventQueue) and
//! [`CalendarQueue`](crate::CalendarQueue) — because the packed key is
//! lexicographic in exactly those fields (`total_cmp` order on the
//! time, via the monotone bit map), and the cursor invariant makes the
//! cursor-bag argmin the global front: a candidate is only ever placed
//! at a bag position at or ahead of the cursor, and the cursor only
//! advances past empty bags, so the earliest live entry's candidate is
//! always in the first non-empty bag the cursor meets, with only
//! stale or equal-index candidates before it. The oracle proptest
//! drives the board against an independent lazy-deletion binary heap
//! through overwrite storms, tie storms and `pop_if_before` window
//! edges and requires identical output streams.
//!
//! Unlike the general schedulers, scheduling here is **keyed**: a
//! second `schedule` for the same slot *replaces* the pending entry
//! instead of adding a sibling. That is why the board does not
//! implement [`EventScheduler`](crate::EventScheduler): callers that
//! need multiset semantics want the heap or the calendar, not this
//! board.

use crate::events::Time;
use crate::stats::LazyStats;

/// Authoritative key of an idle slot: `u128::MAX` compares above every
/// live key (finite times map strictly below the all-ones prefix, and
/// the sequence half is a counter far from `u64::MAX`).
const IDLE_KEY: u128 = u128::MAX;

/// Physical bags one cursor lap folds onto. A power of two, so the
/// fold is a mask.
const BAGS: usize = 32;

/// How many of the earliest live entries inform the shift estimate at
/// a rebuild, and how many pops must separate two rebuilds (the
/// tie-storm guard bounding rebuild work per pop).
const TARGET_FILL: usize = 32;

/// Entries sharing one global bag index the shift estimate aims for:
/// the head spread covers about `TARGET_FILL / GSLOT_FILL` indices.
/// Small enough that the argmin scan stays a couple of L1 lines,
/// large enough that the cursor advances only every few pops.
const GSLOT_FILL: u64 = 8;

/// Initial key shift before any rebuild has observed real gaps: g
/// changes when an event time's top ~16 bits do — a unit-scale guess
/// that the first bag-cap rebuild replaces with a measured one.
const INITIAL_SHIFT: u32 = 48;

/// Argmin-scan cost bound: a bag holding more candidates than this
/// triggers a geometry rebuild (time-scale drift), rate-limited by
/// [`TARGET_FILL`] pops between rebuilds so exact-tie storms — which
/// no shift can spread — degrade to a bounded scan instead of
/// rebuild thrash.
const BAG_CAP: usize = 16;

/// Remaps an `f64`'s bits so unsigned integer order matches
/// `total_cmp` order (the classic radix-sort float map).
#[inline]
fn monotone_bits(t: Time) -> u64 {
    let b = t.to_bits();
    let mask = (((b as i64) >> 63) as u64) | (1 << 63);
    b ^ mask
}

/// Inverts [`monotone_bits`]: recovers the event time from a key's
/// upper half. The round trip is exact, so the board stores no raw
/// times at all — the key array is the entire authoritative state.
#[inline]
fn unpack_hi(m: u64) -> Time {
    let mask = if m & (1 << 63) != 0 {
        1 << 63
    } else {
        u64::MAX
    };
    Time::from_bits(m ^ mask)
}

/// Recovers the event time from a packed key.
#[inline]
fn unpack_time(key: u128) -> Time {
    unpack_hi((key >> 64) as u64)
}

/// A slot-keyed lazy-deletion event scheduler: at most one pending
/// `(time, slot)` entry per slot, O(1) overwrite on reschedule, pops
/// in `(time, insertion sequence)` order via candidate validation.
///
/// See the module docs for the mechanism. The slot universe grows on
/// demand ([`LazyBoard::schedule`] accepts any slot), or can be
/// pre-sized with [`LazyBoard::with_slots`].
#[derive(Debug, Clone)]
pub struct LazyBoard {
    /// Authoritative packed `(time, seq)` key per slot; [`IDLE_KEY`]
    /// when the slot has no pending entry. The single source of truth
    /// every candidate is validated against.
    keys: Vec<u128>,
    /// Unsorted candidate `(time bits, slot)` pairs per physical bag.
    /// Entries of one bag share a global bag index (plus any
    /// behind-cursor candidates dumped into the cursor's bag); pops
    /// argmin-scan the cursor's bag only.
    bags: [Vec<(u64, u32)>; BAGS],
    /// Candidates whose global bag index lies beyond the current lap,
    /// unsorted. Swept into bags (and stale-swept) at lap refills.
    over: Vec<(u64, u32)>,
    /// Cursor: the global bag index being drained. Candidates are
    /// never placed behind it, and it only advances past empty bags.
    glob: u64,
    /// First global bag index beyond the current lap: `over` holds
    /// every candidate at or past this.
    lap_end: u64,
    /// Bag geometry: a candidate's global bag index is its key's
    /// monotone time bits shifted right by this — pure integer, no
    /// float on the hot path; bag widths track the time's binade
    /// (they double across exponent ranges), which is harmless — only
    /// monotonicity and rough occupancy matter. Re-derived from the
    /// measured head spread at each rebuild.
    shift: u32,
    /// Memoized front: `(key, slot, bag position)` of the last entry
    /// [`LazyBoard::front`] located in the cursor's bag, or
    /// `(`[`IDLE_KEY`]`, ..)` for none. Valid as long as the bag entry
    /// at that position and the authoritative key both still match —
    /// schedules only append (positions are stable) or replace the
    /// cache when they beat it, sweeps and takes relocate or clear.
    front: (u128, u32, u32),
    /// Candidates currently in bags (stale ones included): the
    /// cursor-advance dry test, so an empty near window jumps straight
    /// to the refill instead of probing bags one by one.
    near: usize,
    /// Pops since the last geometry rebuild (the rebuild rate limit).
    pops_since_rebuild: u64,
    /// Rebuild scratch: live time bits, reused so the geometry
    /// re-derivation never allocates.
    scratch: Vec<u64>,
    /// Live (pending) entries — authoritative count, not candidates.
    len: usize,
    /// Next insertion sequence number (globally unique, never reused:
    /// key equality therefore implies the candidate is current).
    seq: u64,
    /// Always-on internals counters.
    stats: LazyStats,
}

impl Default for LazyBoard {
    fn default() -> Self {
        LazyBoard {
            keys: Vec::new(),
            bags: std::array::from_fn(|_| Vec::new()),
            over: Vec::new(),
            glob: 0,
            lap_end: BAGS as u64,
            shift: INITIAL_SHIFT,
            front: (IDLE_KEY, 0, 0),
            near: 0,
            pops_since_rebuild: 0,
            scratch: Vec::new(),
            len: 0,
            seq: 0,
            stats: LazyStats::default(),
        }
    }
}

impl LazyBoard {
    /// Creates an empty board; the slot universe grows as slots are
    /// first scheduled.
    #[must_use]
    pub fn new() -> Self {
        LazyBoard::default()
    }

    /// Creates a board pre-sized for slots `0..slots`, all idle — the
    /// embedding form: one allocation, then the hot path never grows.
    #[must_use]
    pub fn with_slots(slots: usize) -> Self {
        let mut board = LazyBoard::new();
        board.ensure_slot(slots.saturating_sub(1));
        board
    }

    /// Number of slots the board currently covers.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.keys.len()
    }

    /// Live (pending) entries on the board.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the board has no pending entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The board's always-on internals counters.
    #[must_use]
    pub fn stats(&self) -> &LazyStats {
        &self.stats
    }

    /// Grows the authoritative array to cover `slot`.
    #[inline]
    fn ensure_slot(&mut self, slot: usize) {
        if slot >= self.keys.len() {
            self.keys.resize(slot + 1, IDLE_KEY);
        }
    }

    /// Schedules (or **reschedules**) `slot`'s pending event at `time`.
    ///
    /// If the slot already has a pending entry it is superseded in
    /// place — one store, no search; the old entry's bag candidate
    /// dies lazily on contact. The fresh entry gets a new insertion
    /// sequence, so among exact time ties it pops after everything
    /// already scheduled, exactly as a heap insert would.
    ///
    /// `inline(always)`: the body is a couple of stores and a push,
    /// but it sits past the inliner's default threshold, and an
    /// outlined `schedule` costs more than the work it does.
    ///
    /// # Panics
    /// Panics if `time` is not finite (the
    /// [`EventScheduler`](crate::EventScheduler) contract) or `slot`
    /// does not fit the `u32` candidate index.
    #[inline(always)]
    pub fn schedule(&mut self, slot: u32, time: Time) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        self.ensure_slot(slot as usize);
        let hi = monotone_bits(time);
        let key = (u128::from(hi) << 64) | u128::from(self.seq);
        self.seq += 1;
        let old = self.keys[slot as usize];
        self.len += usize::from(old == IDLE_KEY);
        self.stats.overwrites += u64::from(old != IDLE_KEY);
        self.stats.ring_inserts += 1;
        self.keys[slot as usize] = key;
        let g = hi >> self.shift;
        if g < self.lap_end {
            // In-lap (or behind-cursor) candidate: append to its bag —
            // no sorted insert, no shift of anything.
            let b = (g.max(self.glob) as usize) & (BAGS - 1);
            self.bags[b].push((hi, slot));
            self.near += 1;
            // A candidate beating the cached front always lands in the
            // cursor's bag (its index can only be at or behind the
            // cached one), so it *becomes* the cache; ties keep the
            // cache (earlier sequence pops first). An *invalid* cache
            // must stay invalid — every finite key beats the sentinel,
            // but nothing proves it beats the uncached population.
            if self.front.0 != IDLE_KEY && key < self.front.0 {
                self.front = (key, slot, (self.bags[b].len() - 1) as u32);
            }
        } else {
            self.over.push((hi, slot));
        }
    }

    /// Locates the front of the queue — the earliest live `(time,
    /// seq)` entry — as `(key, slot, position in the cursor's bag)`,
    /// sweeping stale candidates and advancing the cursor along the
    /// way. Memoizes the result. Callers guarantee `len > 0`.
    #[inline]
    fn locate(&mut self) -> (u128, u32, u32) {
        loop {
            let b = (self.glob as usize) & (BAGS - 1);
            if self.bags[b].is_empty() {
                self.advance();
                continue;
            }
            if self.bags[b].len() > BAG_CAP && self.pops_since_rebuild > TARGET_FILL as u64 {
                self.rebuild();
                continue;
            }
            // Branchless argmin over the bag's time bits, counting
            // exact-tie collisions on the fly (the select chain is
            // short — bag occupancy is a handful of entries).
            let bag = &self.bags[b];
            let mut m = u64::MAX;
            let mut pos = 0usize;
            let mut ties = 0usize;
            for (i, &(h, _)) in bag.iter().enumerate() {
                let lt = h < m;
                ties = usize::from(h == m) + if lt { 0 } else { ties };
                m = if lt { h } else { m };
                pos = if lt { i } else { pos };
            }
            let (h, s) = bag[pos];
            let key = self.keys[s as usize];
            if (key >> 64) as u64 != h {
                // Superseded or already popped: sweep and retry.
                self.stats.stale_pops += 1;
                self.bags[b].swap_remove(pos);
                self.near -= 1;
                continue;
            }
            if ties > 0 {
                if let Some(found) = self.tie_locate(b, m) {
                    self.front = found;
                    return found;
                }
                continue;
            }
            let found = (key, s, pos as u32);
            self.front = found;
            return found;
        }
    }

    /// Exact-time tie in the cursor's bag: order among ties is by
    /// insertion sequence, which lives in the *authoritative* keys
    /// (an overwrite at the same time moves the slot behind the tie),
    /// so the tying candidates' live keys are compared directly.
    /// Returns `None` if every tying candidate turned out stale.
    #[cold]
    fn tie_locate(&mut self, b: usize, m: u64) -> Option<(u128, u32, u32)> {
        // Phase 1: sweep stale candidates tying the minimal time.
        let mut i = 0;
        while i < self.bags[b].len() {
            let (h, s) = self.bags[b][i];
            if h == m && (self.keys[s as usize] >> 64) as u64 != h {
                self.stats.stale_pops += 1;
                self.bags[b].swap_remove(i);
                self.near -= 1;
                continue;
            }
            i += 1;
        }
        // Phase 2: minimal live key (the sequence breaks the tie).
        let mut best: Option<(u128, u32, u32)> = None;
        for (i, &(h, s)) in self.bags[b].iter().enumerate() {
            if h == m {
                let key = self.keys[s as usize];
                if best.is_none_or(|(bk, _, _)| key < bk) {
                    best = Some((key, s, i as u32));
                }
            }
        }
        best
    }

    /// Advances the cursor past a drained bag: one step while the near
    /// window still holds candidates, otherwise straight to the lap
    /// refill.
    #[inline]
    fn advance(&mut self) {
        if self.near == 0 {
            self.glob = self.lap_end;
            self.refill();
        } else {
            // Some bag ahead in this lap is non-empty, so the step
            // stays inside the lap.
            self.glob += 1;
            debug_assert!(self.glob < self.lap_end);
        }
    }

    /// Starts the next lap: sweeps the overflow vector, moving (live)
    /// candidates that now fall inside the lap window into their bags
    /// and dropping superseded ones. When everything parked lies
    /// beyond even this lap, jumps the cursor to the earliest parked
    /// index and tries again — so a far-future cohort costs one sweep,
    /// not a lap-by-lap crawl.
    #[cold]
    fn refill(&mut self) {
        loop {
            self.lap_end = self.glob + BAGS as u64;
            let mut min_far = u64::MAX;
            let mut moved = false;
            let mut i = 0;
            while i < self.over.len() {
                let (h, s) = self.over[i];
                if (self.keys[s as usize] >> 64) as u64 != h {
                    // Superseded while parked: never reaches a bag.
                    self.stats.ring_drops += 1;
                    self.over.swap_remove(i);
                    continue;
                }
                let g = h >> self.shift;
                if g < self.lap_end {
                    let b = (g.max(self.glob) as usize) & (BAGS - 1);
                    self.bags[b].push((h, s));
                    self.near += 1;
                    self.over.swap_remove(i);
                    moved = true;
                } else {
                    min_far = min_far.min(g);
                    i += 1;
                }
            }
            if moved || self.over.is_empty() {
                return;
            }
            // Everything live is parked beyond this lap: jump.
            self.glob = min_far;
        }
    }

    /// Re-derives the bag geometry from the live population and
    /// redistributes every live entry (dropping all stale candidates
    /// wholesale) — the escape hatch for an anchor shift that drifted
    /// orders of magnitude off the actual event gaps, paid only when a
    /// bag outgrows [`BAG_CAP`], never on the steady-state path.
    #[cold]
    fn rebuild(&mut self) {
        self.stats.rebuild_scans += 1;
        self.stats.slots_scanned += self.keys.len() as u64;
        self.pops_since_rebuild = 0;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(
            self.keys
                .iter()
                .filter(|&&k| k != IDLE_KEY)
                .map(|&k| (k >> 64) as u64),
        );
        debug_assert_eq!(scratch.len(), self.len);
        scratch.sort_unstable();
        // Brown's width estimate, slot-keyed integer edition: the gap
        // that matters is among the earliest ~TARGET_FILL entries (the
        // full span is stretched arbitrarily by service-time tails).
        // Pick the shift so their spread covers about `k / GSLOT_FILL`
        // bag indices — ~GSLOT_FILL entries per bag. Tie storms
        // collapse the spread to ~0: the `.max(2)` floor then shifts
        // everything into one bag, where the argmin (and its tie path)
        // alone carries the day.
        let k = scratch.len().min(TARGET_FILL);
        let spread = (scratch[k - 1] - scratch[0]) / (k as u64 / GSLOT_FILL).max(1);
        self.shift = spread.max(2).ilog2();
        self.glob = scratch[0] >> self.shift;
        self.lap_end = self.glob + BAGS as u64;
        self.scratch = scratch;
        for bag in &mut self.bags {
            bag.clear();
        }
        self.over.clear();
        self.near = 0;
        self.front = (IDLE_KEY, 0, 0);
        for (slot, &key) in self.keys.iter().enumerate() {
            if key != IDLE_KEY {
                let hi = (key >> 64) as u64;
                let g = hi >> self.shift;
                if g < self.lap_end {
                    let b = (g as usize) & (BAGS - 1);
                    self.bags[b].push((hi, slot as u32));
                    self.near += 1;
                } else {
                    self.over.push((hi, slot as u32));
                }
            }
        }
    }

    /// The validated front `(key, slot, bag position)`: the memoized
    /// probe when it still holds — two compares — else a relocation.
    #[inline]
    fn front(&mut self) -> (u128, u32, u32) {
        debug_assert!(self.len > 0);
        let (key, s, p) = self.front;
        if key != IDLE_KEY {
            // Position still holds this candidate, and the slot's
            // authoritative key is still this key (an overwrite — even
            // at the same time — changes the sequence half and fails
            // the compare; a smaller newcomer replaced the cache in
            // `schedule`).
            let b = (self.glob as usize) & (BAGS - 1);
            if self.bags[b].get(p as usize) == Some(&((key >> 64) as u64, s))
                && self.keys[s as usize] == key
            {
                return (key, s, p);
            }
        }
        self.locate()
    }

    /// Removes the validated front — `(key, slot, pos)` as returned by
    /// [`LazyBoard::front`] — and marks its slot idle.
    #[inline]
    fn take_front(&mut self, key: u128, slot: u32, pos: u32) -> (Time, u32) {
        let b = (self.glob as usize) & (BAGS - 1);
        debug_assert_eq!(self.bags[b][pos as usize], (((key >> 64) as u64), slot));
        self.bags[b].swap_remove(pos as usize);
        self.near -= 1;
        self.pops_since_rebuild += 1;
        self.keys[slot as usize] = IDLE_KEY;
        self.len -= 1;
        self.front = (IDLE_KEY, 0, 0);
        (unpack_time(key), slot)
    }

    /// Pops the earliest `(time, seq)` entry as `(time, slot)`,
    /// discarding stale candidates until the true minimum surfaces.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, u32)> {
        if self.len == 0 {
            return None;
        }
        let (key, slot, pos) = self.front();
        Some(self.take_front(key, slot, pos))
    }

    /// Pops the earliest entry if it is strictly before `bound`
    /// (arrival merges: the bound wins exact ties). The refusal path
    /// revalidates the memoized front and compares — the fused drain
    /// loop calls this once per arrival, so refusals are the common
    /// outcome and stay off the scan path.
    #[inline]
    pub fn pop_if_before(&mut self, bound: Time) -> Option<(Time, u32)> {
        if self.len == 0 {
            return None;
        }
        let (key, slot, pos) = self.front();
        if unpack_time(key) >= bound {
            return None;
        }
        Some(self.take_front(key, slot, pos))
    }

    /// Internal geometry snapshot for diagnostics: `(key shift,
    /// indexed candidates, per-bag candidate counts)`.
    #[doc(hidden)]
    #[must_use]
    pub fn debug_geometry(&self) -> (u32, usize, Vec<usize>) {
        (
            self.shift,
            self.near + self.over.len(),
            self.bags.iter().map(Vec::len).collect(),
        )
    }

    /// Time of the earliest pending entry. Read-only, so it answers
    /// from the authoritative array directly: the minimum live key is
    /// the front, stale bag candidates notwithstanding.
    #[must_use]
    pub fn peek(&self) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        let best = self.keys.iter().copied().min().expect("live entries exist");
        Some(unpack_time(best))
    }

    /// Time of the earliest pending entry, located through the bags
    /// (sweeping stale front candidates — hence `&mut`). This is the
    /// fused loop's `next_free` fast-path test: `t < min_time_bound()`
    /// proves `t` beats every pending departure. The name is
    /// contractual — callers may rely on it as a lower bound — but the
    /// front candidate is validated, so the value returned is in fact
    /// exact.
    #[inline]
    #[must_use]
    pub fn min_time_bound(&mut self) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        let (key, _, _) = self.front();
        Some(unpack_time(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EventQueue, EventScheduler};

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut b = LazyBoard::with_slots(8);
        b.schedule(3, 5.0);
        b.schedule(1, 2.0);
        b.schedule(4, 2.0);
        b.schedule(0, 9.0);
        assert_eq!(b.peek(), Some(2.0));
        assert_eq!(b.pop(), Some((2.0, 1)), "earlier seq wins the tie");
        assert_eq!(b.pop(), Some((2.0, 4)));
        assert_eq!(b.pop(), Some((5.0, 3)));
        assert_eq!(b.pop(), Some((9.0, 0)));
        assert_eq!(b.pop(), None);
        assert!(b.is_empty());
    }

    #[test]
    fn overwrite_replaces_and_reorders() {
        let mut b = LazyBoard::with_slots(4);
        b.schedule(0, 5.0);
        b.schedule(1, 7.0);
        // Slot 0 rescheduled later than slot 1: the old 5.0 entry must
        // never pop.
        b.schedule(0, 9.0);
        assert_eq!(b.len(), 2);
        assert_eq!(b.pop(), Some((7.0, 1)));
        assert_eq!(b.pop(), Some((9.0, 0)));
        assert_eq!(b.pop(), None);
        assert_eq!(b.stats().overwrites, 1);
        assert!(
            b.stats().stale_pops + b.stats().ring_drops >= 1,
            "the 5.0 candidate died lazily (in a bag or parked)"
        );
    }

    #[test]
    fn same_time_overwrite_moves_the_slot_behind_the_tie() {
        // Slot 0 at t=1 (seq 0), slot 1 at t=1 (seq 1), then slot 0
        // *rescheduled* to the same t=1 (seq 2): the overwrite must
        // push slot 0 behind slot 1 in the tie order, exactly as a
        // heap delete+reinsert would.
        let mut b = LazyBoard::with_slots(2);
        b.schedule(0, 1.0);
        b.schedule(1, 1.0);
        b.schedule(0, 1.0);
        assert_eq!(b.pop(), Some((1.0, 1)));
        assert_eq!(b.pop(), Some((1.0, 0)));
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn pop_if_before_respects_the_bound_and_ties() {
        let mut b = LazyBoard::with_slots(4);
        b.schedule(2, 1.0);
        b.schedule(0, 2.0);
        assert_eq!(b.pop_if_before(0.5), None);
        assert_eq!(b.pop_if_before(1.0), None, "ties are not popped");
        assert_eq!(b.pop_if_before(1.5), Some((1.0, 2)));
        assert_eq!(b.pop_if_before(f64::MAX), Some((2.0, 0)));
        assert_eq!(b.pop_if_before(f64::MAX), None, "empty");
    }

    #[test]
    fn negative_and_zero_times_order_correctly() {
        // total_cmp order like the general schedulers: -0.0 < 0.0.
        let mut b = LazyBoard::with_slots(4);
        b.schedule(0, 0.0);
        b.schedule(1, -3.5);
        b.schedule(2, 2.0);
        b.schedule(3, -0.0);
        assert_eq!(b.pop(), Some((-3.5, 1)));
        assert_eq!(b.pop(), Some((-0.0, 3)));
        assert_eq!(b.pop(), Some((0.0, 0)));
        assert_eq!(b.pop(), Some((2.0, 2)));
    }

    #[test]
    fn grows_on_demand_and_min_bound_is_a_lower_bound() {
        let mut b = LazyBoard::new();
        assert_eq!(b.slots(), 0);
        b.schedule(100, 4.0);
        assert_eq!(b.slots(), 101);
        assert!(b.min_time_bound().is_some_and(|t| t <= 4.0));
        b.schedule(3, 1.0);
        assert!(b.min_time_bound().is_some_and(|t| t <= 1.0));
        assert_eq!(b.pop(), Some((1.0, 3)));
        assert_eq!(b.pop(), Some((4.0, 100)));
    }

    #[test]
    fn reschedule_storm_is_rediscovered() {
        // Spread population, pop a stretch, then reschedule a block of
        // still-pending slots to the far future: their old candidates
        // must die lazily and the board must keep exact time order
        // throughout — lap refills included.
        let n = 4 * TARGET_FILL;
        let drained = BAGS + 2;
        let mut b = LazyBoard::with_slots(n);
        for s in 0..n {
            b.schedule(s as u32, s as f64);
        }
        for want in 0..drained as u32 {
            assert_eq!(b.pop(), Some((f64::from(want), want)));
        }
        // The storm: every slot in [drained, n/2) jumps to the far
        // future, superseding its indexed candidate.
        for s in drained..n / 2 {
            b.schedule(s as u32, 1000.0 + s as f64);
        }
        assert_eq!(b.stats().overwrites, (n / 2 - drained) as u64);
        let mut last = f64::NEG_INFINITY;
        for _ in 0..n - drained {
            let (t, _) = b.pop().expect("all entries pop");
            assert!(t >= last, "pops stay time-ordered through the storm");
            last = t;
        }
        assert_eq!(b.pop(), None);
        assert!(
            b.stats().stale_pops + b.stats().ring_drops > 0,
            "superseded candidates died lazily"
        );
    }

    #[test]
    fn bucket_overflow_reindexes_to_the_real_time_scale() {
        // Anchor at unit width, then schedule a dense microsecond-gap
        // population: everything folds into one bag until the cap
        // forces a rebuild, after which the geometry matches the real
        // gaps and pops still come out in exact order.
        let n = 2 * BAG_CAP * TARGET_FILL;
        let mut b = LazyBoard::with_slots(n);
        for s in 0..n {
            b.schedule(s as u32, 5.0 + s as f64 * 1e-6);
        }
        for s in 0..n {
            assert_eq!(b.pop(), Some((5.0 + s as f64 * 1e-6, s as u32)));
        }
        assert_eq!(b.pop(), None);
        assert!(b.stats().rebuild_scans >= 1, "the cap must have fired");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_time_rejected() {
        let mut b = LazyBoard::with_slots(2);
        b.schedule(0, f64::INFINITY);
    }

    #[test]
    fn matches_binary_heap_on_a_hold_workload() {
        // The simulation-shaped drive against the heap oracle: random
        // schedules over a 64-slot universe with exact-tie bursts,
        // popped in lockstep. (The proptest in tests/lazy_board.rs
        // adds overwrite storms; this hold
        // workload keeps the one-pending-per-slot discipline so the
        // plain heap is directly comparable.)
        let mut board = LazyBoard::with_slots(64);
        let mut heap: EventQueue<u32> = EventQueue::new();
        let mut pending = [false; 64];
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0.0f64;
        for step in 0..50_000 {
            let slot = (rng() % 64) as u32;
            if !pending[slot as usize] {
                let t = now + (rng() % 16) as f64 * 0.25;
                board.schedule(slot, t);
                EventScheduler::schedule(&mut heap, t, slot);
                pending[slot as usize] = true;
            }
            if step % 2 == 0 {
                let a = board.pop();
                let b = EventScheduler::pop(&mut heap);
                assert_eq!(a, b, "divergence at step {step}");
                if let Some((t, s)) = a {
                    now = now.max(t);
                    pending[s as usize] = false;
                }
            }
            assert_eq!(board.len(), EventScheduler::len(&heap));
        }
        loop {
            let a = board.pop();
            let b = EventScheduler::pop(&mut heap);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(board.stats().stale_pops, 0, "no overwrites, no staleness");
        assert!(
            board.stats().ring_inserts > 0,
            "every schedule indexes exactly once"
        );
    }
}
