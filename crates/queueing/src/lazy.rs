//! The [`LazyBoard`]: a slot-keyed scheduler for workloads with at
//! most one pending event per slot, which orders its entries lazily —
//! they sit unsorted until their bag comes up.
//!
//! The cluster serving loop keeps exactly one pending departure per
//! busy server, over a fixed slot universe, and schedules a server's
//! next departure only after its last one has popped. Both general
//! schedulers pay structural costs that workload never needs — the
//! heap its `log n` sift, the calendar wheel its arena, bucket chains,
//! ring refills and sorted-bucket maintenance, and an eager tournament
//! tree over the slots would replay `log n` compare rounds on *every*
//! schedule and pop. The lazy board drops all of it:
//!
//! * **Only idle slots are scheduled.** [`LazyBoard::schedule`]
//!   accepts a slot only when it has no pending entry, and panics
//!   otherwise, in every build. Each pending slot therefore has exactly
//!   one *candidate* — in a bag, a ring bucket or the top list — and
//!   that candidate leaves the board when the slot pops. Nothing is
//!   ever deleted late, and every candidate the board meets is live.
//! * **Authoritative state is one dense array.** `schedule(slot, t)`
//!   writes a packed `(time, seq)` key into a per-slot array — one
//!   store, no heap insert, no bucket chain, no tree replay; the time
//!   round-trips exactly through the key's monotone bit map, so no raw
//!   time is stored anywhere. The sequence half is a fresh insertion
//!   number, which orders exact-time ties.
//! * **Candidates live in unsorted bags.** Each schedule also appends
//!   a `(time bits, slot)` candidate — never a sorted insert, never a
//!   memmove — to the bag of its *global* bag index `g`: the key's
//!   monotone time bits shifted right (the board's `shift` below),
//!   pure integer, monotone in the time. A cursor lap covers the
//!   `BAGS` consecutive indices of one aligned block (`g / BAGS` is the
//!   lap), mapped onto physical bags by `g mod BAGS`; candidates beyond
//!   the lap park in the far level (next bullet but one), and
//!   candidates behind the cursor (a schedule into the past) drop into
//!   the cursor's own bag, which therefore may mix indices — harmless,
//!   because ordering never relies on bag membership alone.
//! * **`pop` is a branchless argmin over one small bag.** The cursor's
//!   bag holds every candidate that could be the front (see the
//!   invariant below); a short compare/select scan finds its minimal
//!   time bits. Exact-time ties fall to a cold path that compares the
//!   tying slots' keys, so the insertion sequence breaks ties exactly
//!   as a heap would. A drained bag advances the cursor one index
//!   (`O(1)`, no scan); a drained lap refills from the far level.
//!   The bag geometry (the shift) is re-derived from the live
//!   population's measured head spread when a bag outgrows `BAG_CAP` —
//!   the escape hatch for time-scale drift, never on the steady-state
//!   path.
//! * **The far side has two levels and refills one lap at a time**,
//!   after the ladder queue (Tang, Goh & Thng, ACM TOMACS 2005). A
//!   *ring* holds one unsorted bucket per future lap in `(current lap,
//!   top_floor]`; its length is derived from the slot count, so its
//!   window spans `RING_SPAN` times the slot count in entries at the
//!   head density. Candidates past the window park in a *top* list,
//!   swept only when the ring runs dry: the sweep re-bases the window
//!   at the top's earliest lap and moves what now falls inside it into
//!   the bags and the ring. A lap refill drains exactly one bucket
//!   (about `BAGS * GSLOT_FILL` candidates), so each parked candidate
//!   is examined once when its lap comes up plus once per top sweep it
//!   sits through — a small constant per pop at any population,
//!   instead of a re-sweep of the whole far population every lap. A
//!   sweep whose new window catches less than `1 / SWEEP_YIELD` of what
//!   it examined means the geometry no longer fits the population, and
//!   rebuilds it. A parked candidate is its 4-byte slot — the time is
//!   re-read from the authoritative key when it leaves the far level —
//!   held in chains of fixed-size chunks drawn from one arena, so the
//!   far level's footprint follows its live population rather than
//!   each bucket's peak.
//! * **Front probes are cached.** The located front `(key, slot, bag
//!   position)` is memoized; the refusal side of
//!   [`LazyBoard::pop_if_before`] and [`LazyBoard::min_time_bound`]
//!   (the cluster drive loop's front probe after every pop) answer from
//!   it instead of rescanning, and the following take removes it by
//!   position without relocating. Only that take invalidates the cache,
//!   and it clears it; a schedule below the cached key *becomes* the
//!   cache (it provably lands in the cursor's bag).
//! * **Lap refills can be observed.** A refill moves one lap's worth
//!   of candidates — the next departures — into an empty near window.
//!   [`LazyBoard::min_time_bound`] takes a hook called once per slot
//!   a refill on the way moved, so a caller can start loading its own
//!   per-slot state ahead of those pops; callers that do not look
//!   ahead pass [`ignore_refill`]. The hook observes only; the board
//!   does the same work either way.
//!
//! Determinism: pops are ordered by `(time, insertion sequence)` —
//! byte-for-byte the order of [`EventQueue`](crate::EventQueue) and
//! [`CalendarQueue`](crate::CalendarQueue) — because the packed key is
//! lexicographic in exactly those fields (`total_cmp` order on the
//! time, via the monotone bit map), and the cursor invariant makes the
//! cursor-bag argmin the global front: a candidate is only ever placed
//! at a bag position at or ahead of the cursor, and the cursor only
//! advances past empty bags, so the earliest entry's candidate is
//! always in the first non-empty bag the cursor meets. The far level
//! keeps that invariant: it only releases a lap's candidates when the
//! cursor enters that lap, and a top sweep happens only when the near
//! window and the ring are both empty, so it re-bases the cursor at or
//! below every pending entry. The oracle proptests drive the board
//! against an independent binary heap through tie storms,
//! `pop_if_before` window edges and, at 16384 slots, far-future
//! cohorts and time-scale jumps, and require identical output streams.
//!
//! Unlike the general schedulers, scheduling here is **keyed**: a slot
//! holds at most one entry, and the board refuses a second. That is
//! why the board does not implement
//! [`EventScheduler`](crate::EventScheduler): callers that need
//! multiset semantics want the heap or the calendar, not this board.

use crate::events::Time;
use crate::stats::LazyStats;
use bnb_stats::{from_monotone_bits, monotone_bits};

/// Authoritative key of an idle slot: `u128::MAX` compares above every
/// live key (finite times map strictly below the all-ones prefix, and
/// the sequence half is a counter far from `u64::MAX`).
const IDLE_KEY: u128 = u128::MAX;

/// Physical bags one cursor lap folds onto. A power of two, so the
/// fold is a mask.
const BAGS: usize = 32;

/// Fewest far-ring buckets, whatever the slot count.
const MIN_RING: usize = 8;

/// Entries the far ring's window spans at the head density, in units
/// of the slot count: with one pending entry per slot, a population
/// whose tail thins at least exponentially then mostly parks in the
/// ring, and the top holds only its far tail.
const RING_SPAN: usize = 4;

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

/// Least share of the candidates a top sweep examines that its new
/// window must catch (one in this many); a sweep below it triggers a
/// geometry rebuild, rate-limited like the bag-cap one.
const SWEEP_YIELD: usize = 8;

/// Recovers the event time from a packed key's upper half. The
/// [`monotone_bits`] round trip is exact, so the board stores no raw
/// times at all — the key array is the entire authoritative state.
#[inline]
fn unpack_time(key: u128) -> Time {
    from_monotone_bits((key >> 64) as u64)
}

/// Parked candidates per arena chunk (64 bytes of slots): small,
/// because every non-empty list holds one partial chunk.
const CHUNK: usize = 16;

/// End of a chunk chain, and the empty free list.
const NIL: u32 = u32::MAX;

/// One arena chunk: up to [`CHUNK`] parked slots, and the index of the
/// next chunk of its chain (or of the free list).
#[derive(Debug, Clone, Copy)]
struct Chunk {
    items: [u32; CHUNK],
    next: u32,
}

/// One unsorted far-level list — a ring bucket or the top list — as a
/// chain of arena chunks, every one full but the tail.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// The far level's storage: every [`Chain`] draws fixed-size chunks
/// from one arena and returns them to its free list when drained. The
/// footprint is therefore the far population's peak plus one partial
/// chunk per list — not the sum of every bucket's own peak, which is
/// what per-bucket vectors that keep their capacity would hold — and
/// the steady state allocates nothing.
#[derive(Debug, Clone)]
struct Arena {
    chunks: Vec<Chunk>,
    free: u32,
}

impl Arena {
    const fn new() -> Self {
        Arena {
            chunks: Vec::new(),
            free: NIL,
        }
    }

    /// Appends `slot` to `chain`, taking a chunk from the free list
    /// (or growing the arena) when the tail is full.
    #[inline]
    fn push(&mut self, chain: &mut Chain, slot: u32) {
        let fill = chain.len as usize % CHUNK;
        if fill == 0 {
            let c = if self.free == NIL {
                self.chunks.push(Chunk {
                    items: [0; CHUNK],
                    next: NIL,
                });
                (self.chunks.len() - 1) as u32
            } else {
                let c = self.free;
                self.free = self.chunks[c as usize].next;
                self.chunks[c as usize].next = NIL;
                c
            };
            if chain.tail == NIL {
                chain.head = c;
            } else {
                self.chunks[chain.tail as usize].next = c;
            }
            chain.tail = c;
        }
        self.chunks[chain.tail as usize].items[fill] = slot;
        chain.len += 1;
    }

    /// Detaches the head chunk of `chain` and returns it to the free
    /// list, handing back a copy of it and the number of slots it
    /// holds; `None` once the chain is empty. The copy lets the caller
    /// push into other chains, reusing the chunk, while it reads.
    fn pop_chunk(&mut self, chain: &mut Chain) -> Option<([u32; CHUNK], usize)> {
        if chain.len == 0 {
            return None;
        }
        let c = chain.head;
        let chunk = self.chunks[c as usize];
        self.chunks[c as usize].next = self.free;
        self.free = c;
        // Every chunk but the tail is full.
        let n = (chain.len as usize).min(CHUNK);
        *chain = if chain.len as usize == n {
            Chain::EMPTY
        } else {
            Chain {
                head: chunk.next,
                tail: chain.tail,
                len: chain.len - n as u32,
            }
        };
        Some((chunk.items, n))
    }

    /// Drops every chain at once (a rebuild re-parks everything); the
    /// chunk vector keeps its capacity for the re-parking.
    fn clear(&mut self) {
        self.chunks.clear();
        self.free = NIL;
    }
}

/// Far-ring buckets for a board over `slots` slots: enough laps (of
/// `BAGS * GSLOT_FILL` entries each at the head density) for
/// [`RING_SPAN`] times the slot count, a power of two so the lap fold
/// is a mask.
fn ring_len(slots: usize) -> usize {
    (RING_SPAN * slots / (BAGS * GSLOT_FILL as usize))
        .next_power_of_two()
        .max(MIN_RING)
}

/// `(min, k-th smallest, k)` of `keys`, with `k = min(count,
/// TARGET_FILL)`: one pass through a fixed max-heap of the `k`
/// smallest keys seen so far, O(n log k) and no allocation.
///
/// # Panics
/// Panics if `keys` is empty.
fn head_of(keys: impl Iterator<Item = u64>) -> (u64, u64, usize) {
    let mut heap = [0u64; TARGET_FILL];
    let (mut first, mut k) = (u64::MAX, 0);
    for key in keys {
        first = first.min(key);
        if k < TARGET_FILL {
            // Sift the new leaf up.
            let mut i = k;
            k += 1;
            while i > 0 && heap[(i - 1) / 2] < key {
                heap[i] = heap[(i - 1) / 2];
                i = (i - 1) / 2;
            }
            heap[i] = key;
        } else if key < heap[0] {
            // Replace the largest of the k smallest and sift it down.
            let mut i = 0;
            loop {
                let mut child = 2 * i + 1;
                if child >= TARGET_FILL {
                    break;
                }
                if child + 1 < TARGET_FILL && heap[child + 1] > heap[child] {
                    child += 1;
                }
                if heap[child] <= key {
                    break;
                }
                heap[i] = heap[child];
                i = child;
            }
            heap[i] = key;
        }
    }
    assert!(k > 0, "live entries exist");
    (first, heap[0], k)
}

/// The refill hook of a caller that does not look ahead (see
/// [`LazyBoard::min_time_bound`]). The board's own pops pass it too: one
/// named function, not a closure per call site, so the front probe is
/// compiled once for all of them.
#[inline]
pub fn ignore_refill(_slot: u32) {}

/// A slot-keyed event scheduler: at most one pending `(time, slot)`
/// entry per slot, scheduled only while the slot is idle, popped in
/// `(time, insertion sequence)` order.
///
/// See the module docs for the mechanism. The slot universe grows on
/// demand ([`LazyBoard::schedule`] accepts any idle slot), or can be
/// pre-sized with [`LazyBoard::with_slots`].
#[derive(Debug, Clone)]
pub struct LazyBoard {
    /// Authoritative packed `(time, seq)` key per slot; [`IDLE_KEY`]
    /// when the slot has no pending entry. Candidates carry only the
    /// slot (and, in the bags, the time bits), so this is the single
    /// source of truth.
    keys: Vec<u128>,
    /// Unsorted candidate `(time bits, slot)` pairs per physical bag.
    /// Entries of one bag share a global bag index (plus any
    /// behind-cursor candidates dumped into the cursor's bag); pops
    /// argmin-scan the cursor's bag only.
    bags: [Vec<(u64, u32)>; BAGS],
    /// Far level, first tier: one unsorted chain of parked slots per
    /// future lap in `(current lap, top_floor]`, lap `l` in bucket
    /// `l mod ring.len()`. A lap refill drains exactly one bucket.
    ring: Vec<Chain>,
    /// Candidates currently in `ring`: the dry test that sends the lap
    /// walk to the top sweep.
    far: usize,
    /// Last lap the ring covers; laps past it park in `top`. Moves only
    /// when a top sweep re-bases the window.
    top_floor: u64,
    /// Far level, second tier: parked slots past `top_floor`, unsorted,
    /// swept only when the ring runs dry.
    top: Chain,
    /// Chunk storage of every ring bucket and of `top`.
    arena: Arena,
    /// Smallest global bag index pushed to `top` since its last sweep:
    /// the sweep re-bases there without a separate min pass.
    top_min: u64,
    /// Cursor: the global bag index being drained. Candidates are
    /// never placed behind it, and it only advances past empty bags.
    glob: u64,
    /// First global bag index past the current lap, a multiple of
    /// [`BAGS`] (laps are aligned): every candidate at or past it sits
    /// in the far level.
    lap_end: u64,
    /// Bag geometry: a candidate's global bag index is its key's
    /// monotone time bits shifted right by this — pure integer, no
    /// float on the hot path; bag widths track the time's binade
    /// (they double across exponent ranges), which is harmless — only
    /// monotonicity and rough occupancy matter. Re-derived from the
    /// measured head spread at each rebuild.
    shift: u32,
    /// Memoized front: `(key, slot, bag position)` of the entry
    /// [`LazyBoard::front`] last located in the cursor's bag, or
    /// `(`[`IDLE_KEY`]`, ..)` for none. Schedules only append to bags
    /// (positions are stable) or replace the cache when they beat it;
    /// the take of the front, the only removal from a bag, clears it.
    front: (u128, u32, u32),
    /// Candidates currently in bags: the cursor-advance dry test, so an
    /// empty near window jumps straight to the refill instead of
    /// probing bags one by one.
    near: usize,
    /// Pops since the last geometry rebuild (the rebuild rate limit).
    pops_since_rebuild: u64,
    /// Pending entries.
    len: usize,
    /// Next insertion sequence number (globally unique, never reused).
    seq: u64,
    /// Always-on internals counters.
    stats: LazyStats,
}

impl Default for LazyBoard {
    fn default() -> Self {
        LazyBoard {
            keys: Vec::new(),
            bags: std::array::from_fn(|_| Vec::new()),
            ring: vec![Chain::EMPTY; ring_len(0)],
            far: 0,
            top_floor: ring_len(0) as u64,
            top: Chain::EMPTY,
            arena: Arena::new(),
            top_min: u64::MAX,
            glob: 0,
            lap_end: BAGS as u64,
            shift: INITIAL_SHIFT,
            front: (IDLE_KEY, 0, 0),
            near: 0,
            pops_since_rebuild: 0,
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
        board.ring = vec![Chain::EMPTY; ring_len(slots)];
        board.top_floor = board.ring.len() as u64;
        board
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

    /// Schedules idle `slot`'s event at `time`.
    ///
    /// The entry gets a fresh insertion sequence, so among exact time
    /// ties it pops after everything already scheduled, exactly as a
    /// heap insert would.
    ///
    /// `inline(always)`: the body is a couple of stores and a push,
    /// but it sits past the inliner's default threshold, and an
    /// outlined `schedule` costs more than the work it does.
    ///
    /// # Panics
    /// Panics if `slot` already has a pending entry, or if `time` is not
    /// finite (the [`EventScheduler`](crate::EventScheduler) contract).
    #[inline(always)]
    pub fn schedule(&mut self, slot: u32, time: Time) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        self.ensure_slot(slot as usize);
        assert!(
            self.keys[slot as usize] == IDLE_KEY,
            "slot {slot} already has a pending entry"
        );
        let hi = monotone_bits(time);
        let key = (u128::from(hi) << 64) | u128::from(self.seq);
        self.seq += 1;
        self.len += 1;
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
            // cache (earlier sequence pops first). An empty cache must
            // stay empty — every finite key beats the sentinel, but
            // nothing proves it beats the uncached population.
            if self.front.0 != IDLE_KEY && key < self.front.0 {
                self.front = (key, slot, (self.bags[b].len() - 1) as u32);
            }
        } else {
            self.park(g, slot);
        }
    }

    /// Parks `slot`, whose candidate has global bag index `g` past the
    /// current lap, in the far level: its lap's ring bucket inside the
    /// window, else the top list.
    #[inline]
    fn park(&mut self, g: u64, slot: u32) {
        let lap = g / BAGS as u64;
        if lap <= self.top_floor {
            let mask = self.ring.len() - 1;
            self.arena.push(&mut self.ring[lap as usize & mask], slot);
            self.far += 1;
        } else {
            self.top_min = self.top_min.min(g);
            self.arena.push(&mut self.top, slot);
        }
    }

    /// The `(time bits, global bag index)` of a parked slot, read from
    /// its authoritative key.
    #[inline]
    fn unpark(&self, slot: u32) -> (u64, u64) {
        let key = self.keys[slot as usize];
        debug_assert_ne!(key, IDLE_KEY, "parked slot {slot} is pending");
        let hi = (key >> 64) as u64;
        (hi, hi >> self.shift)
    }

    /// Locates the front of the queue — the earliest `(time, seq)`
    /// entry — as `(key, slot, position in the cursor's bag)`,
    /// advancing the cursor along the way. Memoizes the result. Callers
    /// guarantee `len > 0`. A lap refill on the way reports its slots
    /// to `on_refill` (see [`LazyBoard::min_time_bound`]).
    #[inline]
    fn locate(&mut self, on_refill: &mut impl FnMut(u32)) -> (u128, u32, u32) {
        loop {
            let b = (self.glob as usize) & (BAGS - 1);
            if self.bags[b].is_empty() {
                self.advance(on_refill);
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
            let found = if ties > 0 {
                self.tie_locate(b, m)
            } else {
                let s = bag[pos].1;
                (self.keys[s as usize], s, pos as u32)
            };
            debug_assert_eq!(
                (found.0 >> 64) as u64,
                m,
                "a candidate carries its key's time"
            );
            self.front = found;
            return found;
        }
    }

    /// Exact-time tie in the cursor's bag: order among ties is by
    /// insertion sequence, which lives in the authoritative keys, so
    /// the tying slots' keys are compared directly.
    #[cold]
    fn tie_locate(&self, b: usize, m: u64) -> (u128, u32, u32) {
        let mut best = (IDLE_KEY, 0, 0);
        for (i, &(h, s)) in self.bags[b].iter().enumerate() {
            let key = self.keys[s as usize];
            if h == m && key < best.0 {
                best = (key, s, i as u32);
            }
        }
        best
    }

    /// Advances the cursor past a drained bag: one step while the near
    /// window still holds candidates, otherwise to the lap refill.
    #[inline]
    fn advance(&mut self, on_refill: &mut impl FnMut(u32)) {
        if self.near == 0 {
            self.refill(on_refill);
        } else {
            // Some bag ahead in this lap is non-empty, so the step
            // stays inside the lap.
            self.glob += 1;
            debug_assert!(self.glob < self.lap_end);
        }
    }

    /// Starts the next non-empty lap. Walks the ring one lap at a time,
    /// draining each lap's bucket into the bags — only that lap's
    /// candidates are examined, so a refill costs one bucket (about
    /// `BAGS * GSLOT_FILL` candidates), never the far population.
    /// When the ring runs dry, sweeps the top list once and re-bases
    /// the window at its earliest lap — so a far-future cohort costs
    /// one sweep, not a lap-by-lap crawl.
    ///
    /// The near window was empty on entry, so every candidate in it on
    /// exit was moved there by this refill: each one's slot is reported
    /// to `on_refill`, in bag order.
    #[cold]
    fn refill(&mut self, on_refill: &mut impl FnMut(u32)) {
        let mut scanned = 0;
        while self.near == 0 {
            if self.far == 0 {
                // Near window and ring both empty: every pending entry
                // is parked on top.
                assert!(self.top.len > 0, "live entries exist");
                let swept = self.top.len as usize;
                scanned += swept;
                self.sweep_top();
                // A sweep whose new window caught only a sliver of the
                // parked population means the geometry no longer fits
                // it (the dense head it was derived from is gone):
                // re-derive it, rather than re-sweep the top every few
                // pops.
                if (self.near + self.far) * SWEEP_YIELD < swept
                    && self.pops_since_rebuild > TARGET_FILL as u64
                {
                    self.rebuild();
                }
                continue;
            }
            self.glob = self.lap_end;
            self.lap_end += BAGS as u64;
            let lap = self.glob / BAGS as u64;
            let idx = lap as usize & (self.ring.len() - 1);
            let mut bucket = std::mem::replace(&mut self.ring[idx], Chain::EMPTY);
            let moved = bucket.len as usize;
            scanned += moved;
            self.far -= moved;
            self.near += moved;
            while let Some((items, n)) = self.arena.pop_chunk(&mut bucket) {
                for &slot in &items[..n] {
                    let (hi, g) = self.unpark(slot);
                    debug_assert_eq!(g / BAGS as u64, lap, "a ring bucket holds one lap");
                    self.bags[(g as usize) & (BAGS - 1)].push((hi, slot));
                }
            }
        }
        self.stats.refill_scanned += scanned as u64;
        self.stats.refill_sweep.record(scanned as u64);
        for &(_, slot) in self.bags.iter().flatten() {
            on_refill(slot);
        }
    }

    /// Sweeps the top list of a dry ring: re-bases the window at the
    /// earliest parked index, moving candidates of the new lap into the
    /// bags and those inside the new window into the ring. Only called
    /// with the near window and the ring empty, so every pending entry
    /// is parked here.
    fn sweep_top(&mut self) {
        self.glob = self.top_min;
        let base = self.glob / BAGS as u64;
        self.lap_end = (base + 1) * BAGS as u64;
        self.top_floor = base + self.ring.len() as u64;
        self.top_min = u64::MAX;
        let mut top = std::mem::replace(&mut self.top, Chain::EMPTY);
        while let Some((items, n)) = self.arena.pop_chunk(&mut top) {
            for &slot in &items[..n] {
                let (hi, g) = self.unpark(slot);
                if g < self.lap_end {
                    self.bags[(g as usize) & (BAGS - 1)].push((hi, slot));
                    self.near += 1;
                } else {
                    self.park(g, slot);
                }
            }
        }
    }

    /// Re-derives the bag geometry from the pending population and
    /// redistributes every pending entry — the escape hatch for an
    /// anchor shift that drifted orders of magnitude off the actual
    /// event gaps, paid only when a bag outgrows [`BAG_CAP`] or a top
    /// sweep falls short of [`SWEEP_YIELD`], never on the steady-state
    /// path. The ring grows here if the slot universe has since grown.
    #[cold]
    fn rebuild(&mut self) {
        self.stats.rebuild_scans += 1;
        self.stats.slots_scanned += self.keys.len() as u64;
        self.pops_since_rebuild = 0;
        // Brown's width estimate, slot-keyed integer edition: the gap
        // that matters is among the earliest ~TARGET_FILL entries (the
        // full span is stretched arbitrarily by service-time tails).
        // Pick the shift so their spread covers about `k / GSLOT_FILL`
        // bag indices — ~GSLOT_FILL entries per bag. Tie storms
        // collapse the spread to ~0: the `.max(2)` floor then shifts
        // everything into one bag, where the argmin (and its tie path)
        // alone carries the day. Only the k-th smallest key and the
        // minimum matter, so keep just the k smallest in a bounded heap
        // rather than copy or sort every key.
        let (first, kth, k) = head_of(
            self.keys
                .iter()
                .filter(|&&k| k != IDLE_KEY)
                .map(|&k| (k >> 64) as u64),
        );
        debug_assert_eq!(k, self.len.min(TARGET_FILL));
        let spread = (kth - first) / (k as u64 / GSLOT_FILL).max(1);
        self.shift = spread.max(2).ilog2();
        self.glob = first >> self.shift;
        let base = self.glob / BAGS as u64;
        self.lap_end = (base + 1) * BAGS as u64;
        for bag in &mut self.bags {
            bag.clear();
        }
        let want = ring_len(self.keys.len()).max(self.ring.len());
        self.ring.clear();
        self.ring.resize(want, Chain::EMPTY);
        self.top_floor = base + self.ring.len() as u64;
        self.top = Chain::EMPTY;
        self.arena.clear();
        self.top_min = u64::MAX;
        self.far = 0;
        self.near = 0;
        self.front = (IDLE_KEY, 0, 0);
        for slot in 0..self.keys.len() {
            let key = self.keys[slot];
            if key != IDLE_KEY {
                let hi = (key >> 64) as u64;
                let g = hi >> self.shift;
                if g < self.lap_end {
                    let b = (g as usize) & (BAGS - 1);
                    self.bags[b].push((hi, slot as u32));
                    self.near += 1;
                } else {
                    self.park(g, slot as u32);
                }
            }
        }
    }

    /// The front `(key, slot, bag position)`: the memoized one when
    /// set, else a relocation (whose lap refills, if any, report to
    /// `on_refill`).
    #[inline]
    fn front(&mut self, on_refill: &mut impl FnMut(u32)) -> (u128, u32, u32) {
        debug_assert!(self.len > 0);
        if self.front.0 != IDLE_KEY {
            return self.front;
        }
        self.locate(on_refill)
    }

    /// Removes the front — `(key, slot, pos)` as returned by
    /// [`LazyBoard::front`] — and marks its slot idle.
    #[inline]
    fn take_front(&mut self, key: u128, slot: u32, pos: u32) -> (Time, u32) {
        let b = (self.glob as usize) & (BAGS - 1);
        debug_assert_eq!(self.bags[b][pos as usize], (((key >> 64) as u64), slot));
        debug_assert_eq!(self.keys[slot as usize], key);
        self.bags[b].swap_remove(pos as usize);
        self.near -= 1;
        self.pops_since_rebuild += 1;
        self.keys[slot as usize] = IDLE_KEY;
        self.len -= 1;
        self.front = (IDLE_KEY, 0, 0);
        (unpack_time(key), slot)
    }

    /// Pops the earliest `(time, seq)` entry as `(time, slot)`; the
    /// slot becomes idle.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, u32)> {
        if self.len == 0 {
            return None;
        }
        let (key, slot, pos) = self.front(&mut ignore_refill);
        Some(self.take_front(key, slot, pos))
    }

    /// Pops the earliest entry if it is strictly before `bound`
    /// (arrival merges: the bound wins exact ties). The refusal path
    /// reads the memoized front and compares — in an arrival merge
    /// refusals are the common outcome, so they stay off the scan path.
    #[inline]
    pub fn pop_if_before(&mut self, bound: Time) -> Option<(Time, u32)> {
        if self.len == 0 {
            return None;
        }
        let (key, slot, pos) = self.front(&mut ignore_refill);
        if unpack_time(key) >= bound {
            return None;
        }
        Some(self.take_front(key, slot, pos))
    }

    /// Time of the earliest pending entry, located through the bags
    /// (hence `&mut`). The cluster's drive loop mirrors it in a
    /// register and merges its event streams on it. The name is
    /// contractual — callers may rely on it as a lower bound — but the
    /// value returned is in fact exact.
    ///
    /// If locating the front drains the near window and refills it from
    /// the far level, `on_refill` is called once with the slot of every
    /// candidate the refill moved into the near window. Those slots are
    /// the board's next departures — about `BAGS * GSLOT_FILL` of them,
    /// the entries of the next lap — so a caller can start loading
    /// per-slot state it will read when they pop. The hook only
    /// observes: the board's state and pop order do not depend on it.
    /// It sees only refills made here, not inside [`LazyBoard::pop`].
    /// Every reported slot has a pending entry, and none repeats. A
    /// caller that does not look ahead passes [`ignore_refill`].
    #[inline]
    #[must_use]
    pub fn min_time_bound(&mut self, mut on_refill: impl FnMut(u32)) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        let (key, _, _) = self.front(&mut on_refill);
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
        assert_eq!(b.min_time_bound(ignore_refill), Some(2.0));
        assert_eq!(b.pop(), Some((2.0, 1)), "earlier seq wins the tie");
        assert_eq!(b.pop(), Some((2.0, 4)));
        assert_eq!(b.pop(), Some((5.0, 3)));
        assert_eq!(b.pop(), Some((9.0, 0)));
        assert_eq!(b.pop(), None);
        assert!(b.is_empty());
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
    #[should_panic(expected = "slot 3 already has a pending entry")]
    fn scheduling_a_pending_slot_panics() {
        let mut b = LazyBoard::with_slots(4);
        b.schedule(3, 1.0);
        b.schedule(3, 2.0);
    }

    #[test]
    fn grows_on_demand_and_min_bound_is_a_lower_bound() {
        let mut b = LazyBoard::new();
        b.schedule(100, 4.0);
        assert!(b.min_time_bound(ignore_refill).is_some_and(|t| t <= 4.0));
        b.schedule(3, 1.0);
        assert!(b.min_time_bound(ignore_refill).is_some_and(|t| t <= 1.0));
        assert_eq!(b.pop(), Some((1.0, 3)));
        assert_eq!(b.pop(), Some((4.0, 100)));
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
    fn rebuild_geometry_matches_a_full_sort_on_reversed_keys() {
        // More live keys than TARGET_FILL, scheduled latest first, so
        // the earliest keys sit at the end of the slot array. The
        // rebuild's selection must find the same head as sorting every
        // key, and the board must still pop in exact order.
        let n = 5 * TARGET_FILL + 3;
        let mut b = LazyBoard::with_slots(n);
        for s in 0..n {
            b.schedule(s as u32, 7.0 + (n - 1 - s) as f64 * 0.37);
        }
        b.rebuild();
        let mut sorted: Vec<u64> = (0..n)
            .map(|s| monotone_bits(7.0 + (n - 1 - s) as f64 * 0.37))
            .collect();
        sorted.sort_unstable();
        let k = TARGET_FILL;
        let spread = (sorted[k - 1] - sorted[0]) / (k as u64 / GSLOT_FILL).max(1);
        assert_eq!(b.shift, spread.max(2).ilog2());
        assert_eq!(b.glob, sorted[0] >> b.shift);
        for s in (0..n).rev() {
            assert_eq!(b.pop(), Some((7.0 + (n - 1 - s) as f64 * 0.37, s as u32)));
        }
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn rebuild_geometry_matches_a_full_sort_under_exact_ties() {
        // Exact ties straddling the TARGET_FILL-th smallest key (a few
        // distinct times, many slots each), and a storm where every key
        // ties: the bounded selection must read the same order
        // statistics as sorting every key, and pops keep insertion
        // order within a tie.
        let n = 3 * TARGET_FILL + 5;
        let tied = |s: usize| 3.0 + ((n - s) % 7) as f64 * 0.5;
        let storm = |_: usize| 9.25;
        for time in [&tied as &dyn Fn(usize) -> f64, &storm] {
            let mut b = LazyBoard::with_slots(n);
            for s in 0..n {
                b.schedule(s as u32, time(s));
            }
            b.rebuild();
            let mut sorted: Vec<u64> = (0..n).map(|s| monotone_bits(time(s))).collect();
            sorted.sort_unstable();
            let k = TARGET_FILL;
            let spread = (sorted[k - 1] - sorted[0]) / (k as u64 / GSLOT_FILL).max(1);
            assert_eq!(b.shift, spread.max(2).ilog2());
            assert_eq!(b.glob, sorted[0] >> b.shift);
            let mut want: Vec<(f64, u32)> = (0..n).map(|s| (time(s), s as u32)).collect();
            want.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
            for w in want {
                assert_eq!(b.pop(), Some(w));
            }
            assert_eq!(b.pop(), None);
        }
    }

    #[test]
    fn head_of_matches_a_full_sort() {
        // Fewer keys than TARGET_FILL, exactly as many, and many more,
        // with and without exact ties.
        for n in [1, 5, TARGET_FILL, TARGET_FILL + 1, 10 * TARGET_FILL] {
            for modulus in [3u64, 1_000_003] {
                let keys: Vec<u64> = (0..n as u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % modulus)
                    .collect();
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                let k = n.min(TARGET_FILL);
                assert_eq!(
                    head_of(keys.iter().copied()),
                    (sorted[0], sorted[k - 1], k),
                    "n {n}, modulus {modulus}"
                );
            }
        }
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
        // popped in lockstep.
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
        assert!(
            board.stats().ring_inserts > 0,
            "every schedule indexes exactly once"
        );
    }

    /// Time of near entry `s` in [`settled_board`].
    fn near(s: usize) -> f64 {
        5.0 + s as f64 * 1e-6
    }

    /// A board over `2 * n` slots holding `n` near entries a
    /// microsecond apart, past the geometry rebuild the initial
    /// unit-scale guess forces (a bag index near 1.0 time units wide
    /// at 10^6), with `drained` of them popped.
    fn settled_board(n: usize, drained: usize) -> LazyBoard {
        let mut b = LazyBoard::with_slots(2 * n);
        for s in 0..n {
            b.schedule(s as u32, near(s));
        }
        for s in 0..drained {
            assert_eq!(b.pop(), Some((near(s), s as u32)));
        }
        assert_eq!(b.stats().rebuild_scans, 1, "the first bag cap fired");
        b
    }

    #[test]
    fn far_cohort_past_the_ring_is_swept_once_and_rebased() {
        // A compact cohort far past the ring's window parks in the top
        // list, untouched by the lap refills that drain the near
        // entries; the first refill after them sweeps it once and
        // re-bases the window at its earliest lap.
        let n = 256;
        let mut b = settled_board(n, 40);
        let far = |s: usize| 1e6 + s as f64 * 0.125;
        for s in n..2 * n {
            b.schedule(s as u32, far(s));
        }
        assert_eq!(b.top.len as usize, n, "the whole cohort parks on top");
        let floor = b.top_floor;
        for s in 40..n {
            assert_eq!(b.pop(), Some((near(s), s as u32)));
        }
        assert_eq!(b.top.len as usize, n, "lap refills never touch the top");
        assert_eq!(b.pop(), Some((far(n), n as u32)));
        assert_eq!(b.top.len, 0, "one sweep brought the cohort in");
        assert!(b.top_floor > floor, "the window re-based at the cohort");
        for s in n + 1..2 * n {
            assert_eq!(b.pop(), Some((far(s), s as u32)));
        }
        assert_eq!(b.pop(), None);
        assert_eq!(b.stats().rebuild_scans, 1, "a productive sweep");
    }

    #[test]
    fn unproductive_top_sweep_rebuilds_the_geometry() {
        // A cohort spread 10^4 times wider than the geometry was
        // derived for: re-based at its earliest lap, the ring's window
        // catches a sliver of it, so the sweep re-derives the geometry
        // instead of leaving the top to be re-swept every few pops.
        let n = 256;
        let mut b = settled_board(n, 40);
        let far = |s: usize| 1e6 + s as f64 * 1250.0;
        for s in n..2 * n {
            b.schedule(s as u32, far(s));
        }
        let mut want: Vec<(f64, u32)> = (40..n).map(|s| (near(s), s as u32)).collect();
        want.extend((n..2 * n).map(|s| (far(s), s as u32)));
        for w in want {
            assert_eq!(b.pop(), Some(w));
        }
        assert_eq!(b.stats().rebuild_scans, 2, "the sparse sweep rebuilt");
        assert!(
            b.stats().refill_scanned < 4 * n as u64,
            "the cohort was swept once, not once per lap"
        );
    }

    #[test]
    fn refill_hook_reports_exactly_the_slots_moved_into_the_near_window() {
        // A hold over many laps, then a drain into a far cohort parked
        // past the ring (reached by a top sweep), probing the front
        // through the hook before every pop as the cluster's drive loop
        // does. A probe that refills must report exactly the near
        // window's slots: the window was empty before the refill. A
        // probe that does not refill reports nothing. A twin board
        // probed without the hook pins the pop order.
        let slots = 4096u32;
        let cohort = slots..slots + 64;
        let mut b = LazyBoard::with_slots(cohort.end as usize);
        let mut twin = b.clone();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut exp = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            -(-((state >> 11) as f64 / (1u64 << 53) as f64)).ln_1p()
        };
        let schedule = |b: &mut LazyBoard, twin: &mut LazyBoard, slot: u32, t: f64| {
            b.schedule(slot, t);
            twin.schedule(slot, t);
        };
        for slot in 0..slots {
            schedule(&mut b, &mut twin, slot, exp());
        }
        for slot in cohort.clone() {
            schedule(&mut b, &mut twin, slot, 1e6 + f64::from(slot));
        }
        let (mut refills, mut checked, mut cohort_reported) = (0u64, 0usize, false);
        for pops in 0.. {
            let (scanned, rebuilds) = (b.stats().refill_scanned, b.stats().rebuild_scans);
            let mut reported = Vec::new();
            let bound = b.min_time_bound(|slot| reported.push(slot));
            assert_eq!(
                bound,
                twin.min_time_bound(ignore_refill),
                "the hook moved the front"
            );
            if b.stats().refill_sweep.count() > refills {
                refills = b.stats().refill_sweep.count();
                assert!(!reported.is_empty(), "a refill reports what it moved");
                // A bag-cap rebuild after the refill, in the same probe,
                // redistributes the window; compare only when none ran.
                if b.stats().rebuild_scans == rebuilds {
                    let mut window: Vec<u32> = b.bags.iter().flatten().map(|&(_, s)| s).collect();
                    window.sort_unstable();
                    reported.sort_unstable();
                    assert_eq!(reported, window, "a refill reports its near window");
                    checked += 1;
                }
                cohort_reported |= reported.iter().any(|s| cohort.contains(s));
            } else {
                assert!(reported.is_empty(), "no refill, no report");
                assert_eq!(b.stats().refill_scanned, scanned);
            }
            let popped = b.pop();
            assert_eq!(popped, twin.pop(), "the hook moved the pop order");
            let Some((t, slot)) = popped else { break };
            if pops < 20 * slots && slot < slots {
                schedule(&mut b, &mut twin, slot, t + exp());
            }
        }
        assert!(
            checked > 100,
            "only {checked} of {refills} refills compared"
        );
        assert!(cohort_reported, "the top sweep into the cohort reported it");
    }

    #[test]
    fn far_level_footprint_is_bounded_by_the_population() {
        // A steady hold over many laps: drained chunks return to the
        // arena's free list, so the arena never holds more chunks than
        // the live population fills plus one partial chunk per list —
        // not the sum of every bucket's own peak.
        let slots = 4096;
        let mut b = LazyBoard::with_slots(slots);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut exp = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            -((state >> 11) as f64 / (1u64 << 53) as f64).ln_1p() * 0.5
        };
        for slot in 0..slots as u32 {
            b.schedule(slot, exp());
        }
        for _ in 0..20 * slots {
            let (t, slot) = b.pop().expect("hold keeps every slot pending");
            b.schedule(slot, t + exp());
        }
        let lists = b.ring.len() + 1;
        assert!(b.ring.len() > MIN_RING, "the ring is sized from the slots");
        assert!(
            b.arena.chunks.len() <= slots / CHUNK + lists,
            "{} chunks for {slots} slots and {lists} lists",
            b.arena.chunks.len()
        );
    }
}
