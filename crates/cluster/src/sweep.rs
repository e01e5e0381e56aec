//! Replica aggregation for scenario sweeps.
//!
//! A sweep runs `R` independent replicas of a scenario (same spec,
//! `derive_seed`-separated seeds) and aggregates their
//! [`ClusterMetrics`] into one [`ReplicaAccumulator`] — mean ± stderr
//! of the paper-relevant scalars (max normalised queue above all,
//! the queueing analog of the paper's max load) plus exact pooled
//! counters. The accumulator implements
//! [`bnb_stats::Mergeable`], so the experiment harness can accumulate
//! shards on worker threads and merge them in replica order, keeping
//! sweep output bitwise independent of the thread schedule.

use crate::metrics::ClusterMetrics;
use bnb_stats::{Mergeable, Summary};

/// Aggregated view of `R` replicas of one scenario configuration.
#[derive(Debug, Clone, Default)]
pub struct ReplicaAccumulator {
    /// Replicas absorbed so far.
    pub replicas: u64,
    /// Per-replica max normalised queue (the paper's max-load analog).
    pub max_normalized_queue: Summary,
    /// Per-replica raw maximum queue length.
    pub max_queue_len: Summary,
    /// Per-replica p50 sojourn latency.
    pub latency_p50: Summary,
    /// Per-replica p99 sojourn latency.
    pub latency_p99: Summary,
    /// Per-replica mean sojourn latency.
    pub latency_mean: Summary,
    /// Per-replica drop rate.
    pub drop_rate: Summary,
    /// Pooled offered requests over all replicas.
    pub requests: u64,
    /// Pooled completions.
    pub completed: u64,
    /// Pooled drops.
    pub dropped: u64,
    /// Pooled churn orphans.
    pub orphaned: u64,
}

impl ReplicaAccumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        ReplicaAccumulator::default()
    }

    /// Absorbs one replica's metrics.
    pub fn push(&mut self, m: &ClusterMetrics) {
        self.replicas += 1;
        self.max_normalized_queue.push(m.max_normalized_queue);
        #[allow(clippy::cast_precision_loss)]
        self.max_queue_len.push(m.max_queue_len as f64);
        self.latency_p50.push(m.latency[0]);
        self.latency_p99.push(m.latency[2]);
        self.latency_mean.push(m.latency_mean);
        self.drop_rate.push(m.drop_rate());
        self.requests += m.requests;
        self.completed += m.completed;
        self.dropped += m.dropped;
        self.orphaned += m.orphaned;
    }
}

impl Mergeable for ReplicaAccumulator {
    fn merge_from(&mut self, other: &Self) {
        self.replicas += other.replicas;
        self.max_normalized_queue
            .merge_from(&other.max_normalized_queue);
        self.max_queue_len.merge_from(&other.max_queue_len);
        self.latency_p50.merge_from(&other.latency_p50);
        self.latency_p99.merge_from(&other.latency_p99);
        self.latency_mean.merge_from(&other.latency_mean);
        self.drop_rate.merge_from(&other.drop_rate);
        self.requests += other.requests;
        self.completed += other.completed;
        self.dropped += other.dropped;
        self.orphaned += other.orphaned;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimBuilder;
    use crate::scenario::find_scenario;
    use bnb_distributions::derive_seed;

    fn replica_metrics(rep: u64) -> ClusterMetrics {
        let sc = find_scenario("two-class").unwrap();
        let seed = derive_seed(7, 0x5EE9, rep);
        SimBuilder::scenario(sc, 3_000).seed(seed).build().run()
    }

    #[test]
    fn sharded_merge_equals_sequential_push() {
        let metrics: Vec<ClusterMetrics> = (0..6).map(replica_metrics).collect();
        let mut seq = ReplicaAccumulator::new();
        for m in &metrics {
            seq.push(m);
        }
        let mut left = ReplicaAccumulator::new();
        for m in &metrics[..3] {
            left.push(m);
        }
        let mut right = ReplicaAccumulator::new();
        for m in &metrics[3..] {
            right.push(m);
        }
        left.merge_from(&right);
        assert_eq!(left.replicas, 6);
        assert_eq!(left.requests, seq.requests);
        assert_eq!(left.completed, seq.completed);
        assert_eq!(left.dropped, seq.dropped);
        assert_eq!(
            left.max_normalized_queue.count(),
            seq.max_normalized_queue.count()
        );
        assert!((left.max_normalized_queue.mean() - seq.max_normalized_queue.mean()).abs() < 1e-12);
        assert!((left.latency_p99.mean() - seq.latency_p99.mean()).abs() < 1e-12);
        assert_eq!(
            left.max_normalized_queue.max(),
            seq.max_normalized_queue.max()
        );
    }

    #[test]
    fn per_replica_extrema_are_those_of_the_replicas() {
        // A fresh accumulator's summaries are empty, not zero: the
        // smaller of two positive replicas is the minimum.
        let (a, b) = (replica_metrics(0), replica_metrics(1));
        let mut acc = ReplicaAccumulator::new();
        acc.push(&a);
        acc.push(&b);
        let (lo, hi) = if a.max_normalized_queue <= b.max_normalized_queue {
            (a.max_normalized_queue, b.max_normalized_queue)
        } else {
            (b.max_normalized_queue, a.max_normalized_queue)
        };
        assert!(lo > 0.0);
        assert_eq!(acc.max_normalized_queue.min(), lo);
        assert_eq!(acc.max_normalized_queue.max(), hi);
    }

    #[test]
    fn accumulator_pools_counters_exactly() {
        let mut acc = ReplicaAccumulator::new();
        for rep in 0..3 {
            acc.push(&replica_metrics(rep));
        }
        assert_eq!(acc.replicas, 3);
        assert_eq!(acc.requests, 9_000);
        assert_eq!(acc.completed + acc.dropped + acc.orphaned, 9_000);
        assert!(acc.max_normalized_queue.mean() > 0.0);
        assert!(acc.latency_p50.mean() <= acc.latency_p99.mean());
    }
}
