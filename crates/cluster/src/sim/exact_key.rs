//! The serial engine against the exact answer key for small queueing
//! fleets ([`bnb_analysis::queueing_key`]).
//!
//! Two fleets, each under `DChoice`, `UniformDChoice` and
//! `ShortestQueue` at d = 1, 2, 3: 18 configurations. Each runs
//! [`REPLICAS`] seeds, and each of the key's five metrics (drop rate,
//! mean, p50, p90 and p99 sojourn) is tested by a one-sample t statistic
//! of the replicas' mean against its exact value. The bound was fixed
//! before any run: Student t with `REPLICAS − 1` degrees of freedom,
//! two-sided, a family-wise α of 0.01 Bonferroni-split over the 90
//! comparisons. A planted mutation, potential departures naming slots
//! uniformly instead of in proportion to speed, must fail the same key.

use super::*;
use bnb_analysis::queueing_key::{KeyPolicy, QueueingKey, KEY_METRICS};

/// Replica seeds per configuration.
const REPLICAS: u64 = 24;

/// Requests per replica, scaled down under the debug build (the bound
/// does not depend on it; only the power does).
const REQUESTS: u64 = if cfg!(debug_assertions) {
    20_000
} else {
    100_000
};

/// The |t| bound: the two-sided 1 − 0.01 / 90 quantile of Student t
/// with 23 degrees of freedom.
const T_BOUND: f64 = 4.651;

/// `(speeds, queue capacity, arrival rate)`: ρ = 0.9 on four servers
/// (256 states) and ρ = 0.8 on five (3125 states).
const FLEETS: [(&[u64], u32, f64); 2] = [(&[1, 1, 2, 4], 3, 7.2), (&[1, 2, 2, 3, 5], 4, 10.4)];

/// The engine's placement spec and the key's rule for each policy.
fn policies(d: usize) -> [(PlacementSpec, KeyPolicy); 3] {
    [
        (PlacementSpec::DChoice { d }, KeyPolicy::DChoice),
        (
            PlacementSpec::UniformDChoice { d },
            KeyPolicy::UniformDChoice,
        ),
        (PlacementSpec::ShortestQueue { d }, KeyPolicy::ShortestQueue),
    ]
}

/// The t statistic of each key metric: the replicas' mean against the
/// exact value, over the replicas' standard error. Potential departures
/// name slots in proportion to `weight(speed)`.
fn t_scores(
    (speeds, cap, lambda): (&[u64], u32, f64),
    placement: PlacementSpec,
    key: &QueueingKey,
    weight: fn(u64) -> u64,
) -> [f64; 5] {
    let samples: Vec<[f64; 5]> = (0..REPLICAS)
        .map(|replica| {
            let spec = ClusterSpec {
                speeds: CapacityVector::from_vec(speeds.to_vec()),
                placement,
                arrivals: ArrivalProcess::Poisson { rate: lambda },
                queue_capacity: Some(u64::from(cap)),
                churn: None,
                requests: REQUESTS,
            };
            let m = ClusterSim::new(spec, 0x4B45_0000 + replica).run_weighted(weight);
            [
                m.drop_rate(),
                m.latency_mean,
                m.latency[0],
                m.latency[1],
                m.latency[2],
            ]
        })
        .collect();
    let r = REPLICAS as f64;
    let exact = key.metrics();
    std::array::from_fn(|k| {
        let mean = samples.iter().map(|s| s[k]).sum::<f64>() / r;
        let var = samples.iter().map(|s| (s[k] - mean).powi(2)).sum::<f64>() / (r - 1.0);
        (mean - exact[k]) / (var / r).sqrt()
    })
}

#[test]
fn uniformized_engine_matches_the_exact_key() {
    let mut failures = Vec::new();
    let mut worst = 0.0f64;
    for fleet in FLEETS {
        let (speeds, cap, lambda) = fleet;
        for d in 1..=3 {
            for (placement, policy) in policies(d) {
                let key = QueueingKey::solve(speeds, cap, lambda, d, policy);
                let t = t_scores(fleet, placement, &key, speed_weight);
                let row: Vec<String> = KEY_METRICS
                    .iter()
                    .zip(t)
                    .map(|(name, t)| format!("{name} {t:+.2}"))
                    .collect();
                println!("{speeds:?} {:?}: {}", placement, row.join(", "));
                for (name, t) in KEY_METRICS.iter().zip(t) {
                    worst = worst.max(t.abs());
                    if t.abs() > T_BOUND {
                        failures.push(format!("{speeds:?} {placement:?} {name}: t = {t:.2}"));
                    }
                }
            }
        }
    }
    println!("max |t| = {worst:.2} (bound {T_BOUND})");
    assert!(failures.is_empty(), "off the key:\n{}", failures.join("\n"));
}

#[test]
fn speed_blind_naming_fails_the_exact_key() {
    // The planted mutation: every alive slot named with the same
    // probability. On a mixed fleet the fast servers then serve too
    // slowly and the slow ones too fast, and the key must notice.
    let fleet = FLEETS[0];
    let (speeds, cap, lambda) = fleet;
    let key = QueueingKey::solve(speeds, cap, lambda, 2, KeyPolicy::DChoice);
    let t = t_scores(fleet, PlacementSpec::DChoice { d: 2 }, &key, |_| 1);
    println!("speed-blind naming: t = {t:+.2?}");
    assert!(
        t.iter().any(|t| t.abs() > T_BOUND),
        "the key missed speed-blind naming: t = {t:?}"
    );
}
