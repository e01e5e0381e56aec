//! Property tests of the calendar's bring-forward machinery against an
//! independent binary-heap oracle.
//!
//! The [`CalendarQueue`] keeps three stores that must jointly behave as
//! one stable priority queue: the sorted bring-forward **ring** (the
//! next few upcoming events, popped O(1)), the timing **wheel**, and
//! the bulk-commit **pending** buffer (far-horizon schedules parked as
//! raw `(time, seq)` pairs until the next ring refill drains them).
//! Events migrate between all three — ring inserts spill to pending
//! when the ring is full, refills pull from wheel and pending, rebuilds
//! re-home everything — and any migration bug shows up as a reordered
//! or dropped pop.
//!
//! The oracle here is deliberately *not* the crate's own `EventQueue`:
//! it is a plain `std::collections::BinaryHeap` over `(time, seq)`
//! with FIFO tie order, so these tests cannot share a bug with any
//! scheduler implementation in the crate. Every popped pair is compared
//! bitwise on time and exactly on sequence number.

use bnb_queueing::{CalendarQueue, EventScheduler};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A `(time, seq)` key ordered time-ascending then seq-ascending, so
/// `BinaryHeap<Reverse<Key>>` pops the earliest event FIFO among ties.
/// Times are finite by construction (the strategies never emit NaN),
/// so `total_cmp` agrees with the scheduler's `<` comparisons.
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

/// Insertion-ordered heap oracle: a minimal stable priority queue.
#[derive(Default)]
struct Oracle {
    heap: BinaryHeap<Reverse<Key>>,
    next_seq: u64,
}

impl Oracle {
    fn schedule(&mut self, time: f64) {
        self.heap.push(Reverse(Key(time, self.next_seq)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(f64, u64)> {
        self.heap.pop().map(|Reverse(Key(t, s))| (t, s))
    }

    fn peek(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse(Key(t, _))| *t)
    }
}

/// One step of a scheduler drive.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event at this absolute time.
    Schedule(f64),
    /// Schedule a burst of events inside a narrow band just ahead of
    /// the last pop — the shape that fills the ring and forces spills
    /// into the pending buffer.
    SpillStorm { base: f64, width: f64, count: usize },
    /// Pop up to this many events.
    Pop(usize),
}

/// Times biased towards the regimes the ring + pending buffer see:
/// dense near-term scatter (ring inserts and spills), exact ties from a
/// tiny value set (tie storms across all three stores), far futures
/// (overflow ladder / pending), and pre-anchor times (re-anchoring
/// while ring and pending are populated).
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
    prop_oneof![
        time_strategy().prop_map(Op::Schedule),
        time_strategy().prop_map(Op::Schedule),
        time_strategy().prop_map(Op::Schedule),
        (0.0f64..100.0, 0.0f64..4.0, 1usize..48)
            .prop_map(|(base, width, count)| { Op::SpillStorm { base, width, count } }),
        (0usize..6).prop_map(Op::Pop),
        (0usize..6).prop_map(Op::Pop),
    ]
}

fn check_pop(
    step: usize,
    a: Option<(f64, u64)>,
    b: Option<(f64, u64)>,
) -> Result<bool, TestCaseError> {
    match (a, b) {
        (Some((ta, sa)), Some((tb, sb))) => {
            prop_assert_eq!(
                ta.to_bits(),
                tb.to_bits(),
                "time divergence at step {}: oracle {} vs calendar {}",
                step,
                ta,
                tb
            );
            prop_assert_eq!(sa, sb, "seq divergence at step {} (time {})", step, ta);
            Ok(true)
        }
        (None, None) => Ok(false),
        (a, b) => Err(TestCaseError::fail(format!(
            "presence divergence at step {step}: oracle {a:?} vs calendar {b:?}"
        ))),
    }
}

/// Drives the calendar and the heap oracle through one op sequence,
/// asserting identical `(time, seq)` pop streams, identical peeks and
/// lengths after every op, and an identical drain tail.
fn assert_matches_oracle(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut cal: CalendarQueue<u64> = EventScheduler::new();
    let mut oracle = Oracle::default();
    let mut seq = 0u64;
    let mut last_pop = 0.0f64;
    let mut schedule = |cal: &mut CalendarQueue<u64>, oracle: &mut Oracle, t: f64| {
        cal.schedule(t, seq);
        oracle.schedule(t);
        seq += 1;
    };
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Schedule(t) => schedule(&mut cal, &mut oracle, t),
            Op::SpillStorm { base, width, count } => {
                // Deterministic low-discrepancy scatter inside the band:
                // enough distinct times to exercise the ring's sorted
                // insert, enough coincidences to exercise tie order.
                for i in 0..count {
                    let frac = f64::from((i as u32).wrapping_mul(2_654_435_769) >> 16) / 65_536.0;
                    schedule(&mut cal, &mut oracle, last_pop + base + width * frac);
                }
            }
            Op::Pop(k) => {
                for _ in 0..k {
                    let got = check_pop(step, oracle.pop(), EventScheduler::pop(&mut cal))?;
                    if let Some(t) = oracle.peek() {
                        last_pop = last_pop.max(t);
                    }
                    if !got {
                        break;
                    }
                }
            }
        }
        prop_assert_eq!(
            oracle.heap.len(),
            EventScheduler::len(&cal),
            "len at step {}",
            step
        );
        prop_assert_eq!(
            oracle.peek().map(f64::to_bits),
            cal.peek().map(f64::to_bits),
            "peek at step {}",
            step
        );
    }
    loop {
        let a = oracle.pop();
        if !check_pop(usize::MAX, a, EventScheduler::pop(&mut cal))? {
            break;
        }
        let _ = a;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary interleavings of scatter, spill storms and pops: the
    /// calendar's three stores jointly emit the oracle's
    /// exact `(time, seq)` stream.
    #[test]
    fn ring_wheel_and_pending_match_heap_oracle(
        ops in prop::collection::vec(op_strategy(), 1..300)
    ) {
        assert_matches_oracle(&ops)?;
    }

    /// Repeated spill storms with no relief: every burst overfills the
    /// ring, spilling the tail into the pending buffer, and interleaved
    /// pops force refills that drain pending mid-storm.
    #[test]
    fn sustained_spill_storms_stay_exact(
        bursts in prop::collection::vec((0.0f64..10.0, 8usize..48), 2..16),
        drain_between in prop::collection::vec(0usize..12, 2..16),
    ) {
        let mut ops = Vec::new();
        for (&(base, count), &p) in bursts.iter().zip(&drain_between) {
            ops.push(Op::SpillStorm { base, width: 0.5, count });
            ops.push(Op::Pop(p));
        }
        ops.push(Op::Pop(10_000));
        assert_matches_oracle(&ops)?;
    }
}
