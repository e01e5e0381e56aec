//! Textbook queueing laws on the cluster engine: the M/M/1 mean
//! sojourn time against its closed form, and the qualitative claims of
//! the paper's dynamic reading — two choices shrink the worst queue,
//! fast servers carry the work, and normalising by speed protects the
//! slow servers that speed-blind JSQ overloads.

use bnb_cluster::{ArrivalProcess, ClusterMetrics, ClusterSpec, PlacementSpec, SimBuilder};
use bnb_core::CapacityVector;

/// Poisson arrivals at `rho` times the fleet's total speed, unbounded
/// queues, no churn.
fn run(
    speeds: CapacityVector,
    placement: PlacementSpec,
    rho: f64,
    requests: u64,
    seed: u64,
) -> ClusterMetrics {
    let spec = ClusterSpec {
        arrivals: ArrivalProcess::Poisson {
            rate: rho * speeds.total() as f64,
        },
        speeds,
        placement,
        queue_capacity: None,
        churn: None,
        requests,
    };
    SimBuilder::new(spec).seed(seed).build().run()
}

#[test]
fn mm1_mean_sojourn_matches_theory() {
    // One server of speed 1 at ρ = 0.5: an M/M/1 queue, whose mean
    // sojourn time is 1/(μ − λ) = 1/(1 − ρ) = 2.
    let m = run(
        CapacityVector::uniform(1, 1),
        PlacementSpec::DChoice { d: 1 },
        0.5,
        200_000,
        42,
    );
    assert_eq!(m.completed, 200_000);
    assert!(
        (m.latency_mean - 2.0).abs() < 0.08,
        "mean sojourn {} vs M/M/1 theory 2",
        m.latency_mean
    );
}

#[test]
fn two_choices_shrink_the_max_queue() {
    let speeds = CapacityVector::uniform(200, 1);
    let one = run(
        speeds.clone(),
        PlacementSpec::DChoice { d: 1 },
        0.9,
        200_000,
        7,
    );
    let two = run(speeds, PlacementSpec::DChoice { d: 2 }, 0.9, 200_000, 7);
    assert!(
        two.max_queue_len < one.max_queue_len,
        "JSQ(2) max {} should beat random {}",
        two.max_queue_len,
        one.max_queue_len
    );
}

#[test]
fn faster_servers_complete_more_jobs() {
    let m = run(
        CapacityVector::two_class(5, 1, 5, 10),
        PlacementSpec::DChoice { d: 2 },
        0.8,
        50_000,
        3,
    );
    let slow: u64 = m.per_server_completed[..5].iter().sum();
    let fast: u64 = m.per_server_completed[5..].iter().sum();
    assert!(
        fast > 5 * slow,
        "fast servers ({fast}) should complete far more than slow ({slow})"
    );
}

#[test]
fn normalized_routing_protects_slow_servers() {
    // With speed-blind JSQ the slow servers build deep *normalised*
    // queues; Algorithm 1's normalised rule keeps them shallow.
    let speeds = CapacityVector::two_class(50, 1, 50, 10);
    let peak = |placement| run(speeds.clone(), placement, 0.9, 150_000, 9).max_normalized_queue;
    let normalized = peak(PlacementSpec::DChoice { d: 2 });
    let plain = peak(PlacementSpec::ShortestQueue { d: 2 });
    assert!(
        normalized < plain,
        "normalised routing ({normalized}) should beat plain JSQ ({plain})"
    );
}
