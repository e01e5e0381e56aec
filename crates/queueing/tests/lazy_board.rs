//! Property tests of the [`LazyBoard`] against an independent
//! binary-heap oracle.
//!
//! The board's three claims — O(1) schedules of idle slots, unsorted
//! candidate bags, a two-level far side refilled one lap at a time —
//! must jointly behave as one stable *slot-keyed* priority queue: at
//! most one pending entry per slot, popped in `(time, insertion
//! sequence)` order. The oracle here is deliberately *not* the crate's
//! own `EventQueue`: it is a plain `std::collections::BinaryHeap` over
//! `(time, seq, slot)` plus a table of idle slots — so these tests
//! cannot share a bug with any scheduler implementation in the crate.
//!
//! Both sides assign sequence numbers in the same schedule order, so
//! asserting bitwise-equal `(time, slot)` pop streams pins the full
//! `(time, seq)` determinism contract. The board accepts only idle
//! slots, so each schedule of a drive takes the first idle slot at or
//! after the one its op names (wrapping around, or growing the
//! universe when every slot is pending): every op schedules its full
//! count. The op mix drives the regimes the board must get right:
//! **tie storms** (many slots at one instant) and `pop_if_before`
//! **window edges** (`bound == time` must not pop). A large-population
//! drive adds the far side's regimes: cohorts parked past the ring (top
//! sweeps and window re-bases) and time-scale jumps (mid-run geometry
//! rebuilds). It runs a second time with the front probed through the
//! refill hook before every pop, as the cluster's drive loop probes
//! it, to show the hook leaves the pop stream alone.
//!
//! The last test guards the far side's cost without a timer: on a hold
//! pattern, far-level candidates examined per pop stay a small constant
//! from 64 to 131072 pending entries.

use bnb_distributions::{ExponentialBlock, Xoshiro256PlusPlus};
use bnb_queueing::{EventQueue, LazyBoard};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Slot universe of the small drives (the board also grows on demand,
/// and the drives grow it when every slot is pending).
const SLOTS: usize = 48;

/// Slot universe of the large-population drive: enough laps of pending
/// entries that the far ring, sized from the slot count, is exercised
/// well past its minimum.
const LARGE_SLOTS: usize = 16_384;

/// A `(time, seq)` key ordered time-ascending then seq-ascending.
/// Times are finite by construction, so `total_cmp` agrees with the
/// scheduler's comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key(f64, u64);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// A min-heap of `(time, seq, slot)` entries, and the idle slots of its
/// universe `0..slots`, from which it picks the slot of each schedule.
struct Oracle {
    heap: BinaryHeap<Reverse<(Key, u32)>>,
    idle: BTreeSet<u32>,
    slots: u32,
    next_seq: u64,
}

impl Oracle {
    fn new(slots: usize) -> Self {
        Oracle {
            heap: BinaryHeap::new(),
            idle: (0..slots as u32).collect(),
            slots: slots as u32,
            next_seq: 0,
        }
    }

    /// Schedules `time` on the first idle slot at or after `want`,
    /// wrapping around, or on a fresh slot past the universe when every
    /// slot is pending. Returns the slot.
    fn schedule(&mut self, want: u32, time: f64) -> u32 {
        let free = self
            .idle
            .range(want..)
            .next()
            .or_else(|| self.idle.first())
            .copied();
        let slot = match free {
            Some(slot) => {
                self.idle.remove(&slot);
                slot
            }
            None => {
                self.slots += 1;
                self.slots - 1
            }
        };
        self.heap.push(Reverse((Key(time, self.next_seq), slot)));
        self.next_seq += 1;
        slot
    }

    fn pop(&mut self) -> Option<(f64, u32)> {
        let Reverse((Key(t, _), slot)) = self.heap.pop()?;
        self.idle.insert(slot);
        Some((t, slot))
    }

    fn pop_if_before(&mut self, bound: f64) -> Option<(f64, u32)> {
        if self.peek().is_some_and(|t| t < bound) {
            self.pop()
        } else {
            None
        }
    }

    fn peek(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse((Key(t, _), _))| *t)
    }

    fn is_pending(&self, slot: u32) -> bool {
        slot < self.slots && !self.idle.contains(&slot)
    }
}

/// Schedules `time` on both sides, on the idle slot the oracle picks
/// for `want`.
fn schedule(board: &mut LazyBoard, oracle: &mut Oracle, want: u32, time: f64) {
    board.schedule(oracle.schedule(want, time), time);
}

/// One step of a board drive. Every slot an op names is the first
/// choice of [`Oracle::schedule`], which moves on to the next idle one.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule one slot at this absolute time.
    Schedule(u32, f64),
    /// Schedule a run of slots at one exact instant.
    TieStorm { first: u32, time: f64, count: usize },
    /// Schedule a run of `count` slots at scattered times in
    /// `last_pop + base + [0, spread)`.
    Cohort {
        first: u32,
        count: usize,
        base: f64,
        spread: f64,
    },
    /// Pop up to this many entries unconditionally.
    Pop(usize),
    /// Pop entries strictly before `last_pop + delta`, up to `max` —
    /// `delta` frequently lands the bound exactly on a scheduled time.
    PopBefore { delta: f64, max: usize },
}

/// Times biased toward the board's regimes: near-term scatter (ring
/// inserts and overflow drops), a tiny tie-prone value set, far
/// futures (beyond the ring horizon: two stores, no index), and
/// pre-anchor negatives.
fn time_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..50.0,
        0.0f64..50.0,
        0.0f64..50.0,
        prop_oneof![Just(3.0f64), Just(8.0), Just(8.0), Just(21.5)],
        50.0f64..2_000.0,
        1e9f64..1e12,
        -50.0f64..0.0,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let slot = 0u32..SLOTS as u32;
    prop_oneof![
        (slot.clone(), time_strategy()).prop_map(|(s, t)| Op::Schedule(s, t)),
        (slot.clone(), time_strategy()).prop_map(|(s, t)| Op::Schedule(s, t)),
        (slot.clone(), time_strategy()).prop_map(|(s, t)| Op::Schedule(s, t)),
        (slot, 0.0f64..60.0, 1usize..24).prop_map(|(first, time, count)| Op::TieStorm {
            first,
            time,
            count
        }),
        (0usize..6).prop_map(Op::Pop),
        (0usize..6).prop_map(Op::Pop),
        (0.0f64..30.0, 1usize..8).prop_map(|(delta, max)| Op::PopBefore { delta, max }),
        (0.0f64..30.0, 1usize..8).prop_map(|(delta, max)| Op::PopBefore { delta, max }),
    ]
}

fn check_pop(
    step: usize,
    a: Option<(f64, u32)>,
    b: Option<(f64, u32)>,
) -> Result<bool, TestCaseError> {
    match (a, b) {
        (Some((ta, sa)), Some((tb, sb))) => {
            prop_assert_eq!(
                ta.to_bits(),
                tb.to_bits(),
                "time divergence at step {}: oracle {} vs board {}",
                step,
                ta,
                tb
            );
            prop_assert_eq!(sa, sb, "slot divergence at step {} (time {})", step, ta);
            Ok(true)
        }
        (None, None) => Ok(false),
        (a, b) => Err(TestCaseError::fail(format!(
            "presence divergence at step {step}: oracle {a:?} vs board {b:?}"
        ))),
    }
}

/// A large-population op: cohorts at the hold's density (ring traffic),
/// far-future cohorts past the ring (top sweeps and re-bases), dense
/// microsecond-gap cohorts (a time-scale jump that forces a rebuild),
/// tie storms, long pops and window-edge pops.
fn large_op_strategy() -> impl Strategy<Value = Op> {
    let slot = 0u32..LARGE_SLOTS as u32;
    let cohort = |(first, count, base, spread)| Op::Cohort {
        first,
        count,
        base,
        spread,
    };
    prop_oneof![
        (slot.clone(), 1024usize..8192, 0.0f64..2.0, 0.5f64..8.0).prop_map(cohort),
        (slot.clone(), 1024usize..8192, 0.0f64..2.0, 0.5f64..8.0).prop_map(cohort),
        (slot.clone(), 256usize..4096, 1e3f64..1e6, 0.0f64..1e3).prop_map(cohort),
        (slot.clone(), 512usize..4096, 0.0f64..4.0, 1e-6f64..1e-3).prop_map(cohort),
        (slot, 0.0f64..4.0, 1usize..256).prop_map(|(first, time, count)| Op::TieStorm {
            first,
            time,
            count
        }),
        (0usize..8192).prop_map(Op::Pop),
        (0usize..8192).prop_map(Op::Pop),
        (0.0f64..2.0, 1usize..2048).prop_map(|(delta, max)| Op::PopBefore { delta, max }),
    ]
}

/// Probes the board's front through its refill hook, as the cluster's
/// drive loop does before each pop: the bound must be the oracle's
/// front, and every slot a refill reports must have a pending entry.
fn probe_front(step: usize, board: &mut LazyBoard, oracle: &Oracle) -> Result<(), TestCaseError> {
    let mut reported = Vec::new();
    let bound = board.min_time_bound(|slot| reported.push(slot));
    prop_assert_eq!(
        bound.map(f64::to_bits),
        oracle.peek().map(f64::to_bits),
        "hooked front probe at step {}",
        step
    );
    for slot in reported {
        prop_assert!(
            oracle.is_pending(slot),
            "refill reported idle slot {} at step {}",
            slot,
            step
        );
    }
    Ok(())
}

/// Drives a board over `slots` slots and the oracle through one op
/// sequence, asserting identical `(time, slot)` pop streams, identical
/// fronts (through [`probe_front`]) and live counts after every op, and
/// an identical drain tail. With `hooked`, every pop is preceded by a
/// [`probe_front`] too.
fn assert_matches_oracle(slots: usize, ops: &[Op], hooked: bool) -> Result<(), TestCaseError> {
    let mut board = LazyBoard::with_slots(slots);
    let mut oracle = Oracle::new(slots);
    let mut last_pop = 0.0f64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Schedule(slot, t) => schedule(&mut board, &mut oracle, slot, t),
            Op::TieStorm { first, time, count } => {
                for i in 0..count {
                    let slot = (first + i as u32) % slots as u32;
                    schedule(&mut board, &mut oracle, slot, last_pop + time);
                }
            }
            Op::Cohort {
                first,
                count,
                base,
                spread,
            } => {
                for i in 0..count {
                    let slot = (first + i as u32) % slots as u32;
                    let frac = f64::from((i as u32).wrapping_mul(2_654_435_769) >> 16) / 65_536.0;
                    let t = last_pop + base + spread * frac;
                    schedule(&mut board, &mut oracle, slot, t);
                }
            }
            Op::Pop(k) => {
                for _ in 0..k {
                    if hooked {
                        probe_front(step, &mut board, &oracle)?;
                    }
                    let got = check_pop(step, oracle.pop(), board.pop())?;
                    if let Some(t) = oracle.peek() {
                        last_pop = last_pop.max(t);
                    }
                    if !got {
                        break;
                    }
                }
            }
            Op::PopBefore { delta, max } => {
                let bound = last_pop + delta;
                for _ in 0..max {
                    if hooked {
                        probe_front(step, &mut board, &oracle)?;
                    }
                    let got = check_pop(
                        step,
                        oracle.pop_if_before(bound),
                        board.pop_if_before(bound),
                    )?;
                    if !got {
                        break;
                    }
                    last_pop = bound.min(last_pop.max(oracle.peek().unwrap_or(last_pop)));
                }
            }
        }
        prop_assert_eq!(
            oracle.heap.len(),
            board.len(),
            "live count at step {}",
            step
        );
        probe_front(step, &mut board, &oracle)?;
    }
    loop {
        if hooked {
            probe_front(usize::MAX, &mut board, &oracle)?;
        }
        if !check_pop(usize::MAX, oracle.pop(), board.pop())? {
            break;
        }
    }
    prop_assert_eq!(board.len(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary interleavings of schedules, tie storms and both pop
    /// flavours: the board emits the heap oracle's exact `(time, slot)`
    /// stream.
    #[test]
    fn lazy_board_matches_lazy_heap_oracle(
        ops in prop::collection::vec(op_strategy(), 1..300)
    ) {
        assert_matches_oracle(SLOTS, &ops, false)?;
    }

    /// Entries pinned to the window edge: a monotone clock pops with
    /// `pop_if_before` at exactly the times entries sit on, so the
    /// strictly-before contract is tested where `bound == time` — with
    /// the entry freshly scheduled and tied across slots.
    #[test]
    fn window_edge_bounds_are_strictly_before(
        edges in prop::collection::vec(0.25f64..16.0, 4..40),
        dup in prop::collection::vec(1usize..4, 4..40),
    ) {
        let mut ops = Vec::new();
        let mut t = 0.0;
        for (i, (&gap, &k)) in edges.iter().zip(&dup).enumerate() {
            t += gap;
            let slot = (i % SLOTS) as u32;
            for _ in 0..=k {
                // Same instant, repeatedly, each on the next idle slot:
                // an exact-time tie storm sitting right on the window
                // edge.
                ops.push(Op::Schedule(slot, t));
            }
            ops.push(Op::Schedule((slot + 7) % SLOTS as u32, t));
            ops.push(Op::PopBefore { delta: t, max: 2 });
        }
        ops.push(Op::Pop(10_000));
        assert_matches_oracle(SLOTS, &ops, false)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The large-population drive: thousands of pending entries spread
    /// over many laps, far-future cohorts parked past the ring, dense
    /// cohorts that force a mid-run rebuild, tie storms and window-edge
    /// pops — the board still emits the oracle's exact stream.
    #[test]
    fn large_population_matches_lazy_heap_oracle(
        ops in prop::collection::vec(large_op_strategy(), 8..40)
    ) {
        assert_matches_oracle(LARGE_SLOTS, &ops, false)?;
    }

    /// The same large-population drive with every pop preceded by a
    /// front probe through the refill hook: the hook only observes, so
    /// the pop stream is still the oracle's, and every slot a refill
    /// reports has a pending entry.
    #[test]
    fn large_population_with_refill_hook_matches_lazy_heap_oracle(
        ops in prop::collection::vec(large_op_strategy(), 8..40)
    ) {
        assert_matches_oracle(LARGE_SLOTS, &ops, true)?;
    }
}

/// Runs a hold pattern over `slots` slots in lockstep with an
/// [`EventQueue`]: every pop reschedules its slot at `now + Exp(1) /
/// speed`, with even slots at speed 1 and odd slots at speed 8. Asserts
/// identical pop streams throughout and returns far-level candidates
/// examined per pop over `pairs` pairs, measured after one warm-up
/// cycle of every slot.
fn hold_refill_scanned_per_pop(slots: usize, pairs: u64) -> f64 {
    let inv_speed = |slot: u32| if slot % 2 == 0 { 1.0 } else { 0.125 };
    let mut exp = ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(0x5107));
    let mut board = LazyBoard::with_slots(slots);
    let mut heap: EventQueue<u32> = EventQueue::new();
    for slot in 0..slots as u32 {
        let t = exp.next() * inv_speed(slot);
        board.schedule(slot, t);
        heap.schedule(t, slot);
    }
    let mut run = |pairs: u64| {
        for pair in 0..pairs {
            let popped = board.pop();
            assert_eq!(popped, heap.pop(), "divergence at pair {pair}");
            let (t, slot) = popped.expect("hold keeps every slot pending");
            let next = t + exp.next() * inv_speed(slot);
            board.schedule(slot, next);
            heap.schedule(next, slot);
        }
        board.stats().refill_scanned
    };
    let warm = run(slots as u64);
    (run(pairs) - warm) as f64 / pairs as f64
}

/// The population cliff, guarded without a timer: a flat far side
/// re-sweeps every parked candidate at each lap refill, hundreds of
/// candidates per pop at 131072 pending entries. The two-level far side
/// examines each parked candidate a small constant number of times.
#[test]
fn far_side_refills_cost_a_constant_per_pop_at_any_population() {
    for slots in [64, 131_072] {
        let per_pop = hold_refill_scanned_per_pop(slots, 100_000);
        assert!(
            per_pop <= 4.0,
            "{slots} slots: {per_pop:.2} far candidates examined per pop"
        );
    }
}
