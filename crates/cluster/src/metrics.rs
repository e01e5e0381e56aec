//! End-of-run cluster metrics: latency quantiles, per-server load, drop
//! rates — aggregated and rendered through `bnb-stats`.

use crate::fleet::Fleet;
use bnb_queueing::events::Time;
use bnb_stats::{Histogram, SampleSummary, Series, SeriesSet, TextTable};

/// Everything a finished cluster run reports. All fields are exact
/// functions of (scenario, seed), so two runs under the same seed render
/// bitwise-identical output.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterMetrics {
    /// Requests offered to the cluster.
    pub requests: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests rejected at a full queue.
    pub dropped: u64,
    /// Requests evicted when their server left mid-run.
    pub orphaned: u64,
    /// Servers that joined mid-run.
    pub joins: u64,
    /// Servers that left mid-run.
    pub leaves: u64,
    /// Simulated time of the last event.
    pub horizon: Time,
    /// Latency quantiles (sojourn time of completed requests):
    /// `[p50, p90, p99, max]`; zeros when nothing completed.
    pub latency: [f64; 4],
    /// Mean sojourn time of completed requests.
    pub latency_mean: f64,
    /// Largest jobs-in-system count observed on any server.
    pub max_queue_len: u64,
    /// Largest speed-normalised peak queue, `max_i max_queue_i / speed_i`
    /// — the queueing analog of the paper's max load.
    pub max_normalized_queue: f64,
    /// Per-slot completed counts, creation order (dead slots included).
    pub per_server_completed: Vec<u64>,
    /// Per-slot peak queue lengths, creation order.
    pub per_server_max_queue: Vec<u64>,
    /// Per-slot speeds, creation order.
    pub per_server_speed: Vec<u64>,
}

/// `([p50, p90, p99, max], mean)` of the completed requests' latencies;
/// zeros when nothing completed. Consumes (and so frees) the store.
fn summarise(latencies: SampleSummary) -> ([f64; 4], f64) {
    match (latencies.max(), latencies.mean()) {
        (Some(max), Some(mean)) => {
            let [p50, p90, p99] = latencies
                .into_quantiles([0.50, 0.90, 0.99])
                .expect("non-empty");
            ([p50, p90, p99, max], mean)
        }
        _ => ([0.0; 4], 0.0),
    }
}

impl ClusterMetrics {
    /// Assembles the metrics from the drained fleet and the run's
    /// latencies, reading each server record once.
    ///
    /// The serial simulator passes the [`SampleSummary`] its drive loop
    /// pushed every latency into, so the sum, max and radix buckets are
    /// already in hand: the p50/p90/p99 cost a counting radix select
    /// over the few buckets holding them. A plain `Vec<f64>` in any
    /// order also works; it is pushed in vector order first. Either way
    /// the values equal the sort-based type-7 quantiles bit for bit.
    /// The quantiles are taken first, which frees the latency store
    /// before the per-server vectors are allocated.
    #[must_use]
    pub fn collect(
        fleet: &Fleet,
        latencies: impl Into<SampleSummary>,
        requests: u64,
        orphaned: u64,
        joins: u64,
        leaves: u64,
        horizon: Time,
    ) -> Self {
        let (latency, latency_mean) = summarise(latencies.into());
        let servers = fleet.servers();
        let mut completed = Vec::with_capacity(servers.len());
        let mut max_queue = Vec::with_capacity(servers.len());
        let mut speed = Vec::with_capacity(servers.len());
        for (i, s) in servers.iter().enumerate() {
            completed.push(fleet.completed(i));
            max_queue.push(s.max_queue());
            speed.push(s.speed());
        }
        Self::assemble(
            completed,
            max_queue,
            speed,
            (latency, latency_mean),
            requests,
            fleet.total_dropped(),
            orphaned,
            joins,
            leaves,
            horizon,
        )
    }

    /// Assembles the metrics from raw per-slot arrays instead of a
    /// drained [`Fleet`] — the constructor the sharded simulator uses
    /// after merging its per-shard reports (shards own their own slot
    /// records, not `Fleet`s). It and [`ClusterMetrics::collect`] share
    /// every floating-point operation in the same order: identical
    /// inputs render bitwise-identical metrics regardless of which
    /// engine produced them. The latency mean sums in push order
    /// (vector order for a `Vec<f64>`). A `Vec<f64>` is filed into the
    /// latency store here, one push per value, while the vector is
    /// still alive: a caller frees what else it holds per latency first.
    ///
    /// # Panics
    /// Panics if the per-slot arrays disagree on length.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        per_server_completed: Vec<u64>,
        per_server_max_queue: Vec<u64>,
        per_server_speed: Vec<u64>,
        latencies: impl Into<SampleSummary>,
        requests: u64,
        dropped: u64,
        orphaned: u64,
        joins: u64,
        leaves: u64,
        horizon: Time,
    ) -> Self {
        Self::assemble(
            per_server_completed,
            per_server_max_queue,
            per_server_speed,
            summarise(latencies.into()),
            requests,
            dropped,
            orphaned,
            joins,
            leaves,
            horizon,
        )
    }

    /// The shared tail of [`ClusterMetrics::collect`] and
    /// [`ClusterMetrics::from_parts`]; `(latency, latency_mean)` comes
    /// from [`summarise`].
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        per_server_completed: Vec<u64>,
        per_server_max_queue: Vec<u64>,
        per_server_speed: Vec<u64>,
        (latency, latency_mean): ([f64; 4], f64),
        requests: u64,
        dropped: u64,
        orphaned: u64,
        joins: u64,
        leaves: u64,
        horizon: Time,
    ) -> Self {
        assert_eq!(per_server_completed.len(), per_server_speed.len());
        assert_eq!(per_server_max_queue.len(), per_server_speed.len());
        let max_normalized_queue = per_server_max_queue
            .iter()
            .zip(&per_server_speed)
            .map(|(&m, &s)| m as f64 / s as f64)
            .fold(0.0f64, f64::max);
        ClusterMetrics {
            requests,
            completed: per_server_completed.iter().sum(),
            dropped,
            orphaned,
            joins,
            leaves,
            horizon,
            latency,
            latency_mean,
            max_queue_len: per_server_max_queue.iter().copied().max().unwrap_or(0),
            max_normalized_queue,
            per_server_completed,
            per_server_max_queue,
            per_server_speed,
        }
    }

    /// Fraction of offered requests rejected at full queues.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.dropped as f64 / self.requests as f64
        }
    }

    /// Served requests per simulated time unit.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.horizon > 0.0 {
            self.completed as f64 / self.horizon
        } else {
            0.0
        }
    }

    /// Histogram of completed-request latencies is not reconstructible
    /// from quantiles; this helper bins the *per-server peak normalised
    /// queues* instead — the distribution the paper's max-load figures
    /// look at.
    #[must_use]
    pub fn normalized_peak_histogram(&self, bins: usize) -> Histogram {
        let hi = (self.max_normalized_queue + 1.0).ceil();
        let mut h = Histogram::new(0.0, hi.max(1.0), bins.max(1));
        for (mq, sp) in self.per_server_max_queue.iter().zip(&self.per_server_speed) {
            h.record(*mq as f64 / *sp as f64);
        }
        h
    }

    /// Renders the scalar metrics as an aligned text table. Deterministic
    /// formatting: fixed precision, no timestamps.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut t = TextTable::new(vec!["metric".into(), "value".into()]);
        t.row(vec!["requests".into(), self.requests.to_string()]);
        t.row(vec!["completed".into(), self.completed.to_string()]);
        t.row(vec!["dropped".into(), self.dropped.to_string()]);
        t.row(vec!["drop rate".into(), format!("{:.6}", self.drop_rate())]);
        t.row(vec!["orphaned (churn)".into(), self.orphaned.to_string()]);
        t.row(vec!["joins".into(), self.joins.to_string()]);
        t.row(vec!["leaves".into(), self.leaves.to_string()]);
        t.row(vec!["horizon".into(), format!("{:.6}", self.horizon)]);
        t.row(vec![
            "throughput (req/time)".into(),
            format!("{:.6}", self.throughput()),
        ]);
        t.row(vec![
            "latency p50".into(),
            format!("{:.6}", self.latency[0]),
        ]);
        t.row(vec![
            "latency p90".into(),
            format!("{:.6}", self.latency[1]),
        ]);
        t.row(vec![
            "latency p99".into(),
            format!("{:.6}", self.latency[2]),
        ]);
        t.row(vec![
            "latency max".into(),
            format!("{:.6}", self.latency[3]),
        ]);
        t.row(vec![
            "latency mean".into(),
            format!("{:.6}", self.latency_mean),
        ]);
        t.row(vec!["max queue len".into(), self.max_queue_len.to_string()]);
        t.row(vec![
            "max normalized queue".into(),
            format!("{:.6}", self.max_normalized_queue),
        ]);
        t.render()
    }

    /// Converts the per-server view into a [`SeriesSet`] (sorted peak
    /// normalised queue and completion share curves), ready for the
    /// stats crate's CSV and SVG writers.
    #[must_use]
    pub fn to_series_set(&self, id: &str, title: &str) -> SeriesSet {
        let mut set = SeriesSet::new(
            id,
            title,
            "server rank (sorted)",
            "peak normalized queue / completion share",
        );
        let mut peaks: Vec<f64> = self
            .per_server_max_queue
            .iter()
            .zip(&self.per_server_speed)
            .map(|(&m, &s)| m as f64 / s as f64)
            .collect();
        peaks.sort_by(|a, b| b.total_cmp(a));
        let mut peak_series = Series::new("peak normalized queue");
        for (i, &p) in peaks.iter().enumerate() {
            peak_series.push(i as f64, p, 0.0);
        }
        set.push(peak_series);
        let total = self.completed.max(1) as f64;
        let mut shares: Vec<f64> = self
            .per_server_completed
            .iter()
            .map(|&c| c as f64 / total)
            .collect();
        shares.sort_by(|a, b| b.total_cmp(a));
        let mut share_series = Series::new("completion share");
        for (i, &s) in shares.iter().enumerate() {
            share_series.push(i as f64, s, 0.0);
        }
        set.push(share_series);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Admission;

    fn tiny_metrics() -> ClusterMetrics {
        let mut fleet = Fleet::new(&[1, 4], Some(8));
        assert_eq!(fleet.try_join(0, 0.0), Admission::StartedService);
        assert_eq!(fleet.try_join(1, 0.0), Admission::StartedService);
        let (l0, _) = fleet.depart(0, 2.0);
        let (l1, _) = fleet.depart(1, 0.5);
        ClusterMetrics::collect(&fleet, vec![l0, l1], 2, 0, 0, 0, 2.0)
    }

    #[test]
    fn quantiles_and_counters_are_consistent() {
        let m = tiny_metrics();
        assert_eq!(m.completed, 2);
        assert_eq!(m.dropped, 0);
        assert_eq!(m.latency[3], 2.0, "max latency");
        assert!((m.latency_mean - 1.25).abs() < 1e-12);
        assert_eq!(m.max_queue_len, 1);
        assert!((m.max_normalized_queue - 1.0).abs() < 1e-12);
        assert!((m.throughput() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_is_deterministic() {
        let a = tiny_metrics().render_table();
        let b = tiny_metrics().render_table();
        assert_eq!(a, b);
        assert!(a.contains("latency p99"));
        assert!(a.contains("drop rate"));
        assert!(a.contains("max normalized queue"));
    }

    #[test]
    fn series_set_has_two_sorted_curves() {
        let set = tiny_metrics().to_series_set("cluster-test", "test");
        assert_eq!(set.series.len(), 2);
        let peaks = set.series[0].ys();
        assert!(peaks.windows(2).all(|w| w[0] >= w[1]), "sorted descending");
    }

    #[test]
    fn empty_run_renders_zeros() {
        let fleet = Fleet::new(&[1], None);
        let m = ClusterMetrics::collect(&fleet, Vec::new(), 0, 0, 0, 0, 0.0);
        assert_eq!(m.latency, [0.0; 4]);
        assert_eq!(m.drop_rate(), 0.0);
        assert_eq!(m.throughput(), 0.0);
        let h = m.normalized_peak_histogram(4);
        assert_eq!(h.total(), 1, "one server recorded at peak 0");
    }
}
