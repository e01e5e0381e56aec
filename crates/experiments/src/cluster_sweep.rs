//! The replica sweep runner: `R` independent replicas of each
//! cluster scenario fanned across rayon workers, aggregated through the
//! mergeable-accumulator API, swept over the probe count `d`.
//!
//! This is the queueing analog of the paper's d-sweep (ext2 holds the
//! static one): for each `d`, the max **normalised** queue is the
//! dynamic counterpart of the paper's max load, and the paper's
//! `ln ln n / ln d + Θ(1)` law predicts its decay in `d`. Replica `r`
//! of configuration `(scenario, d)` always runs under
//! `derive_seed(master, sweep_id(scenario, d), r)` and per-replica
//! accumulators merge in replica order, so a sweep's output is a pure
//! function of `(scenario, d-grid, replicas, requests, master seed)` —
//! identical on 1 thread or 64.

use bnb_cluster::{ReplicaAccumulator, Scenario, SimBuilder};
use bnb_distributions::derive_seed;
use bnb_stats::{merge_ordered, Mergeable, Series, SeriesSet, TextTable};
use bnb_telemetry::{MetricsSnapshot, Registry};
use rayon::prelude::*;

/// Experiment-id namespace of the sweep (keeps sweep seeds disjoint
/// from every figure's and the simulator's internal streams).
const SWEEP_EXPERIMENT: u64 = 0xD5EE_9000;

/// Stable id of one `(scenario, d)` cell in the seed derivation.
fn cell_id(scenario: &Scenario, d: usize) -> u64 {
    let mut h = SWEEP_EXPERIMENT ^ (d as u64);
    for b in scenario.id.bytes() {
        h = h.wrapping_mul(0x100_0000_01B3).wrapping_add(u64::from(b));
    }
    h
}

/// One point of a d-sweep: the aggregated replicas at a given `d`.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The probe count this point ran with.
    pub d: usize,
    /// Aggregated replica metrics.
    pub acc: ReplicaAccumulator,
}

/// Result of sweeping one scenario over a d-grid.
#[derive(Debug, Clone)]
pub struct ScenarioSweep {
    /// Scenario id (registry key).
    pub scenario: &'static str,
    /// Placement family name after the d-override.
    pub placement: &'static str,
    /// Whether the placement actually varies with `d`
    /// ([`bnb_router::PlacementSpec::has_d`]); a sweep over a
    /// load-oblivious policy shows seed noise, not a d curve.
    pub d_varies: bool,
    /// Requests per replica.
    pub requests: u64,
    /// Replicas per point.
    pub replicas: u64,
    /// The swept points, in grid order.
    pub points: Vec<SweepPoint>,
}

/// Runs `replicas` independent replicas of `scenario` at each `d` in
/// `ds`, fanning replicas across rayon workers. Deterministic in
/// `(scenario, ds, replicas, requests, master)` regardless of thread
/// count: replica `r` of cell `(scenario, d)` uses
/// `derive_seed(master, cell_id, r)` and accumulators merge in replica
/// order ([`merge_ordered`]).
///
/// When `registry` is `Some`, every replica runs with the simulator
/// spans and scheduler-internals counters enabled, and the per-replica
/// [`MetricsSnapshot`]s are merged **in replica order** (then in grid
/// order across `d` cells) into one sweep-wide snapshot. Telemetry is
/// schedule-invisible, so the `ScenarioSweep` half of the return is
/// bitwise identical to a `None` run; the snapshot's counter values
/// are deterministic too, while its span histograms hold wall-clock
/// nanoseconds and are not.
///
/// # Panics
/// Panics if `replicas == 0`, `ds` is empty, or the scenario spec is
/// invalid at some `d`.
#[must_use]
pub fn sweep_scenario(
    scenario: &'static Scenario,
    ds: &[usize],
    replicas: u64,
    requests: u64,
    master: u64,
    registry: Option<&Registry>,
) -> (ScenarioSweep, Option<MetricsSnapshot>) {
    assert!(replicas > 0, "need at least one replica");
    assert!(!ds.is_empty(), "need at least one d");
    let mut points = Vec::with_capacity(ds.len());
    let mut placement = "";
    let mut telemetry: Option<MetricsSnapshot> = registry.map(|_| MetricsSnapshot::new());
    let d_varies = (scenario.build)(master, requests).placement.has_d();
    for &d in ds {
        let id = cell_id(scenario, d);
        let reps: Vec<u64> = (0..replicas).collect();
        // One accumulator per replica, merged in replica order: the
        // rayon shim preserves input order in `collect`, so the merge
        // sequence (and thus every last ulp) is schedule-independent.
        let shards: Vec<(ReplicaAccumulator, Option<MetricsSnapshot>)> = reps
            .into_par_iter()
            .map(|rep| {
                let seed = derive_seed(master, id, rep);
                let mut spec = (scenario.build)(seed, requests);
                spec.placement = spec.placement.with_d(d);
                let mut builder = SimBuilder::new(spec).seed(seed);
                if let Some(reg) = registry {
                    builder = builder.telemetry(reg);
                }
                let mut sim = builder.build();
                let metrics = sim.run();
                let mut acc = ReplicaAccumulator::new();
                acc.push(&metrics);
                (acc, registry.map(|_| sim.telemetry_snapshot()))
            })
            .collect();
        if placement.is_empty() {
            let spec = (scenario.build)(master, requests);
            placement = spec.placement.with_d(d).name();
        }
        let (accs, snaps): (Vec<_>, Vec<_>) = shards.into_iter().unzip();
        if let Some(total) = telemetry.as_mut() {
            if let Some(merged) = merge_ordered(snaps.into_iter().flatten()) {
                total.merge_from(&merged);
            }
        }
        points.push(SweepPoint {
            d,
            acc: merge_ordered(accs).expect("replicas > 0"),
        });
    }
    (
        ScenarioSweep {
            scenario: scenario.id,
            placement,
            d_varies,
            requests,
            replicas,
            points,
        },
        telemetry,
    )
}

impl ScenarioSweep {
    /// Renders the sweep as an aligned text table: one row per `d`,
    /// max normalised queue (the paper's max-load analog) with its
    /// standard error, tail latency, drop rate, and the
    /// `ln ln n / ln d` reference shape for `d ≥ 2`.
    #[must_use]
    pub fn render_table(&self, n_servers: usize) -> String {
        let mut t = TextTable::new(vec![
            "d".into(),
            "max norm queue".into(),
            "stderr".into(),
            "p99 latency".into(),
            "drop rate".into(),
            "lnln(n)/ln(d)".into(),
        ]);
        for p in &self.points {
            let reference = if p.d >= 2 {
                format!("{:.4}", (n_servers as f64).ln().ln() / (p.d as f64).ln())
            } else {
                "-".into()
            };
            t.row(vec![
                p.d.to_string(),
                format!("{:.6}", p.acc.max_normalized_queue.mean()),
                format!("{:.6}", p.acc.max_normalized_queue.std_err()),
                format!("{:.6}", p.acc.latency_p99.mean()),
                format!("{:.6}", p.acc.drop_rate.mean()),
                reference,
            ]);
        }
        t.render()
    }

    /// Converts the sweep into a [`SeriesSet`]: the
    /// max-normalised-queue-vs-d curve (mean ± stderr over replicas)
    /// next to the p99-latency curve, ready for the stats crate's CSV
    /// and SVG writers.
    #[must_use]
    pub fn to_series_set(&self) -> SeriesSet {
        let id = format!("cluster-sweep-{}", self.scenario);
        let title = format!(
            "{} ({}; {} replicas x {} requests)",
            self.scenario, self.placement, self.replicas, self.requests
        );
        let mut set = SeriesSet::new(id, title, "d (choices)", "max normalized queue / p99");
        let mut peak = Series::new("max normalized queue");
        let mut p99 = Series::new("latency p99");
        for p in &self.points {
            #[allow(clippy::cast_precision_loss)]
            let x = p.d as f64;
            peak.push(
                x,
                p.acc.max_normalized_queue.mean(),
                p.acc.max_normalized_queue.std_err(),
            );
            p99.push(x, p.acc.latency_p99.mean(), p.acc.latency_p99.std_err());
        }
        set.push(peak);
        set.push(p99);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnb_cluster::find_scenario;

    #[test]
    fn sweep_is_deterministic_across_runs() {
        let sc = find_scenario("two-class").unwrap();
        let a = sweep_scenario(sc, &[1, 2], 3, 2_000, 11, None).0;
        let b = sweep_scenario(sc, &[1, 2], 3, 2_000, 11, None).0;
        assert_eq!(a.render_table(64), b.render_table(64));
        assert_eq!(
            a.to_series_set().to_plot_text(),
            b.to_series_set().to_plot_text()
        );
        assert_eq!(a.points[0].acc.requests, 3 * 2_000);
    }

    #[test]
    fn more_choices_shrink_the_peak_normalised_queue() {
        // The paper's law, end to end through the queueing dynamics:
        // d = 1 (weighted random) piles up far deeper normalised queues
        // than d = 4 on the same traffic.
        let sc = find_scenario("two-class").unwrap();
        let sweep = sweep_scenario(sc, &[1, 4], 4, 5_000, 3, None).0;
        let d1 = sweep.points[0].acc.max_normalized_queue.mean();
        let d4 = sweep.points[1].acc.max_normalized_queue.mean();
        assert!(d4 < d1, "d=4 peak {d4} should be far below d=1 peak {d1}");
    }

    #[test]
    fn replicas_differ_but_aggregate_cleanly() {
        let sc = find_scenario("uniform").unwrap();
        let sweep = sweep_scenario(sc, &[2], 4, 2_000, 9, None).0;
        let acc = &sweep.points[0].acc;
        assert_eq!(acc.replicas, 4);
        // Replicas are independent runs: the per-replica max normalised
        // queue must actually vary (variance > 0 w.o.p.).
        assert!(acc.max_normalized_queue.variance() > 0.0);
        assert_eq!(acc.completed + acc.dropped + acc.orphaned, acc.requests);
    }
}
