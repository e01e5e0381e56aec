//! Property-based tests of the binary-heap event queue.

use bnb_queueing::events::EventQueue;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The event queue is a stable priority queue: pops come out in
    /// non-decreasing time order, FIFO among equal times.
    #[test]
    fn event_queue_orders_any_schedule(times in prop::collection::vec(0.0f64..1000.0, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last_time = f64::NEG_INFINITY;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut last_seq_time = f64::NEG_INFINITY;
        while let Some((t, i)) = q.pop() {
            prop_assert!(t >= last_time, "time went backwards");
            if (t - last_seq_time).abs() < f64::EPSILON {
                // FIFO among ties: indices increase.
                if let Some(&prev) = seen_at_time.last() {
                    prop_assert!(i > prev, "tie order violated");
                }
            } else {
                seen_at_time.clear();
                last_seq_time = t;
            }
            seen_at_time.push(i);
            last_time = t;
        }
    }
}
