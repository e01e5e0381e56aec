//! The pluggable event-scheduler core: the [`EventScheduler`] trait, its
//! binary-heap reference implementation ([`EventQueue`]), and the
//! simulation clock.
//!
//! ## Determinism contract
//!
//! Every scheduler implementation must pop events in **(time ascending,
//! insertion sequence ascending)** order: the earliest event first, and
//! FIFO among events scheduled for the exact same time. The contract is
//! what makes a simulation a pure function of its seed — swapping the
//! heap for the calendar queue ([`crate::CalendarQueue`]) must not change
//! a single popped `(time, payload)` pair, which the scheduler
//! equivalence property tests pin.

use crate::stats::CalendarStats;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation time in abstract units (service requirements are Exp(1),
/// server speeds are jobs-per-unit-time).
pub type Time = f64;

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A new job enters the system.
    Arrival,
    /// The job at the head of `server`'s queue completes.
    Departure {
        /// Index of the completing server.
        server: usize,
    },
}

/// A deterministic future-event list: the scheduling interface of every
/// discrete-event simulator in this workspace.
///
/// Implementations must honour the module-level determinism contract:
/// [`pop`](EventScheduler::pop) returns events ordered by `(time,
/// insertion sequence)`, so two implementations fed the same
/// `schedule`/`pop` call sequence emit identical `(time, payload)`
/// streams. Times must be finite (schedulers may bucket by magnitude).
pub trait EventScheduler<E> {
    /// Creates an empty scheduler.
    fn new() -> Self
    where
        Self: Sized;

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is NaN or infinite.
    fn schedule(&mut self, time: Time, event: E);

    /// Pops the earliest event (FIFO among time ties), if any.
    fn pop(&mut self) -> Option<(Time, E)>;

    /// The time of the earliest pending event, without removing it.
    fn peek(&self) -> Option<Time>;

    /// Pops the earliest event only if its time is **strictly before**
    /// `bound`; otherwise leaves the schedule untouched and returns
    /// `None`.
    ///
    /// This is how a simulator merges an externally generated event
    /// stream (e.g. pre-sampled arrival times, which then never enter
    /// the scheduler at all) with the scheduled one: ties go to the
    /// external stream, and implementations can answer with a single
    /// internal scan instead of a `peek` plus a `pop`.
    fn pop_if_before(&mut self, bound: Time) -> Option<(Time, E)> {
        if self.peek().is_some_and(|t| t < bound) {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scheduler's internals telemetry, when it keeps any (the
    /// [`CalendarQueue`](crate::CalendarQueue) does; the reference heap
    /// answers `None`). Lets harness code harvest mechanism counters
    /// through the trait without knowing the concrete scheduler.
    fn calendar_stats(&self) -> Option<&CalendarStats> {
        None
    }
}

/// Heap/bucket entry: events ordered by time, ties broken by insertion
/// sequence so the simulation is fully deterministic. Ordering looks
/// only at `(time, seq)`, so the payload type needs no bounds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scheduled<E> {
    pub(crate) time: Time,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The binary-heap [`EventScheduler`]: `O(log n)` schedule/pop, the
/// reference implementation of the determinism contract.
///
/// [`QueueSystem`](crate::QueueSystem) and `bnb-cluster`'s `ClusterSim`
/// default to the [`CalendarQueue`](crate::CalendarQueue) for speed; the
/// heap remains the oracle the differential tests compare against, and
/// richer simulators can still plug in their own payload type here and
/// inherit the same earliest-first, FIFO-on-ties guarantee.
#[derive(Debug, Default)]
pub struct EventQueue<E = Event> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is not finite (the [`EventScheduler`] contract:
    /// bucketing schedulers cannot place infinities, so the reference
    /// implementation rejects them identically).
    pub fn schedule(&mut self, time: Time, event: E) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// The earliest pending event time, if any.
    #[must_use]
    pub fn peek(&self) -> Option<Time> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> EventScheduler<E> for EventQueue<E> {
    fn new() -> Self {
        EventQueue::new()
    }

    fn schedule(&mut self, time: Time, event: E) {
        EventQueue::schedule(self, time, event);
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        EventQueue::pop(self)
    }

    fn peek(&self) -> Option<Time> {
        EventQueue::peek(self)
    }

    fn len(&self) -> usize {
        EventQueue::len(self)
    }

    fn is_empty(&self) -> bool {
        EventQueue::is_empty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, Event::Arrival);
        q.schedule(1.0, Event::Departure { server: 7 });
        q.schedule(2.0, Event::Arrival);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, Event::Departure { server: 0 });
        q.schedule(1.0, Event::Departure { server: 1 });
        q.schedule(1.0, Event::Departure { server: 2 });
        let servers: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Departure { server } => server,
                Event::Arrival => usize::MAX,
            })
            .collect();
        assert_eq!(servers, vec![0, 1, 2]);
    }

    #[test]
    fn len_empty_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
        q.schedule(1.0, Event::Arrival);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek(), Some(1.0));
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn custom_payload_types_work() {
        // The queue is payload-agnostic: any type rides along unchanged.
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule(2.0, "later");
        q.schedule(1.0, "sooner");
        assert_eq!(q.pop(), Some((1.0, "sooner")));
        assert_eq!(q.pop(), Some((2.0, "later")));
    }

    #[test]
    fn trait_dispatch_matches_inherent_api() {
        fn drive<S: EventScheduler<u32>>() -> Vec<(Time, u32)> {
            let mut s = S::new();
            s.schedule(2.0, 1);
            s.schedule(1.0, 2);
            assert_eq!(s.peek(), Some(1.0));
            assert_eq!(s.len(), 2);
            std::iter::from_fn(|| s.pop()).collect()
        }
        assert_eq!(drive::<EventQueue<u32>>(), vec![(1.0, 2), (2.0, 1)]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_time_rejected() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, Event::Arrival);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_time_rejected_like_the_calendar() {
        let mut q = EventQueue::new();
        q.schedule(f64::INFINITY, Event::Arrival);
    }
}
