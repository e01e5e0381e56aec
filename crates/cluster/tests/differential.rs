//! Differential and determinism tests (acceptance criteria of the
//! cluster-simulator issue):
//!
//! 1. On a *frozen* fleet (no departures), the cluster's d-choice
//!    placement is the paper's Algorithm 1: queue lengths equal ball
//!    counts, so allocation frequencies must match `bnb_core::Game` on
//!    the equivalent static weight vector.
//! 2. Every registered scenario is deterministic: same seed → bitwise
//!    identical rendered metrics.
//! 3. Telemetry is schedule-invisible: a fully enabled registry moves
//!    no byte of any scenario's metrics, and every scenario — churn and
//!    ring placements included — serves every completion through the
//!    one drive loop's uniformized departures (a potential departure
//!    that found its server busy) or its per-server drain, so
//!    potential − idle + drain = completed exactly.
//!
//! The engine's law is checked where the crate-private seams are, in
//! `sim.rs`'s unit tests: against the exact answer key for small
//! fleets, and scenario by scenario over 30 seeds against the earlier
//! board engine. `tests/golden.rs` pins every scenario's rendered
//! output.

use bnb_cluster::{
    registry, ClusterMetrics, ClusterSpec, Fleet, PlacementEngine, PlacementSpec, Sim, SimBuilder,
    SMOKE_DIVISOR,
};
use bnb_core::prelude::*;
use bnb_hashring::hash::mix64;
use bnb_telemetry::Registry;

/// A production run: the builder's serial engine.
fn run(spec: ClusterSpec, seed: u64) -> ClusterMetrics {
    SimBuilder::new(spec).seed(seed).build().run()
}

/// Drives `m` placements into a fleet that never serves anything:
/// the cluster-side equivalent of throwing `m` balls.
fn frozen_fleet_counts(speeds: &CapacityVector, d: usize, m: u64, seed: u64) -> Vec<u64> {
    let fleet_speeds = speeds.as_slice();
    let mut fleet = Fleet::new(fleet_speeds, None);
    let mut router = PlacementEngine::new(PlacementSpec::DChoice { d }, &fleet.membership(), seed);
    for i in 0..m {
        let key = mix64(seed ^ i);
        let target = router.place(&fleet, key);
        fleet.try_join(target, 0.0);
    }
    fleet.servers().iter().map(|s| s.queue_len()).collect()
}

/// Mean absolute per-bin frequency deviation between two allocations of
/// `m` balls.
fn mean_abs_freq_dev(a: &[u64], b: &[u64], m: u64) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x as f64 - y as f64).abs() / m as f64)
        .sum::<f64>()
        / a.len() as f64
}

#[test]
fn dchoice_frequencies_match_core_game_on_static_weights() {
    // Two-class fleet, the paper's default configuration (d = 2,
    // proportional selection, Algorithm 1). Averaged over seeds, the
    // per-server allocation frequencies of the frozen cluster and the
    // abstract game must coincide.
    let speeds = CapacityVector::two_class(50, 1, 50, 8);
    let m = 10 * speeds.total(); // 4_500 placements per rep
    let reps = 8u64;
    let n = speeds.n();
    let mut cluster_acc = vec![0u64; n];
    let mut game_acc = vec![0u64; n];
    for rep in 0..reps {
        let cluster = frozen_fleet_counts(&speeds, 2, m, 1000 + rep);
        let bins = run_game(&speeds, m, &GameConfig::with_d(2), 2000 + rep);
        for i in 0..n {
            cluster_acc[i] += cluster[i];
            game_acc[i] += bins.balls(i);
        }
    }
    let total = m * reps;
    // Class-level agreement: fraction of requests landing on the fast
    // half must match the game's to well under a percent.
    let fast_cluster: u64 = cluster_acc[50..].iter().sum();
    let fast_game: u64 = game_acc[50..].iter().sum();
    let diff = (fast_cluster as f64 - fast_game as f64).abs() / total as f64;
    assert!(
        diff < 0.005,
        "fast-class share differs by {diff}: cluster {fast_cluster}, game {fast_game}"
    );
    // Per-bin agreement: mean absolute frequency deviation within Monte
    // Carlo noise (each bin's frequency is ≈ its capacity share of 1).
    let dev = mean_abs_freq_dev(&cluster_acc, &game_acc, total);
    assert!(dev < 5e-4, "per-bin frequency deviation {dev}");
    // And the allocation actually balances: the frozen cluster's max
    // normalised load must stay near the game's.
    let cluster_max = cluster_acc
        .iter()
        .zip(speeds.as_slice())
        .map(|(&balls, &cap)| balls as f64 / (reps as f64 * cap as f64))
        .fold(0.0f64, f64::max);
    let game_max = game_acc
        .iter()
        .zip(speeds.as_slice())
        .map(|(&balls, &cap)| balls as f64 / (reps as f64 * cap as f64))
        .fold(0.0f64, f64::max);
    assert!(
        (cluster_max - game_max).abs() < 1.5,
        "max normalised load: cluster {cluster_max} vs game {game_max}"
    );
}

#[test]
fn dchoice_d1_is_weighted_one_choice() {
    // With d = 1 the placement must follow the speed weights exactly —
    // pins the sampler wiring independent of the allocation rule.
    let speeds = CapacityVector::from_vec(vec![1, 9]);
    let m = 50_000;
    let counts = frozen_fleet_counts(&speeds, 1, m, 77);
    let frac_big = counts[1] as f64 / m as f64;
    assert!(
        (frac_big - 0.9).abs() < 0.01,
        "speed-9 server got {frac_big}, want ≈ 0.9"
    );
}

#[test]
fn every_scenario_is_bitwise_deterministic() {
    for scenario in registry() {
        let requests = (scenario.default_requests / SMOKE_DIVISOR).min(5_000);
        let render = |seed: u64| {
            let spec = (scenario.build)(seed, requests);
            let metrics = run(spec, seed);
            metrics.render_table() + &metrics.to_series_set("det", "det").to_plot_text()
        };
        let a = render(31337);
        let b = render(31337);
        assert_eq!(a, b, "{}: same seed must render identically", scenario.id);
        let c = render(31338);
        assert_ne!(a, c, "{}: different seed should differ", scenario.id);
    }
}

#[test]
fn telemetry_is_schedule_invisible_on_every_scenario() {
    // The telemetry differential: enabling spans, tracing and the
    // scheduler-internals counters must not move a single byte of any
    // scenario's metrics. Telemetry draws zero RNG values and schedules
    // zero events, so a production run with a fully enabled registry
    // must replay the plain run exactly.
    let mut pooled_somewhere = false;
    for scenario in registry() {
        let requests = (scenario.default_requests / SMOKE_DIVISOR).min(5_000);
        let seed = 0x7E1E;
        let registry_on = Registry::with_sampling(0, 1 << 14); // sample everything
        let plain_off = run((scenario.build)(seed, requests), seed);
        let (traced_on, snap, (queued, pool_nodes)) = {
            let mut sim = SimBuilder::scenario(scenario, requests)
                .seed(seed)
                .telemetry(&registry_on)
                .build();
            let m = sim.run();
            let Sim::Serial(serial) = &sim else {
                panic!("{}: the builder's default engine is serial", scenario.id)
            };
            let fleet = serial.fleet();
            let pool = (fleet.queued(), fleet.pool_nodes() as u64);
            (m, sim.telemetry_snapshot(), pool)
        };
        assert_eq!(
            plain_off, traced_on,
            "{}: telemetry perturbed the drive loop",
            scenario.id
        );
        // The enabled run must actually have observed the traffic —
        // otherwise this test is vacuous.
        assert_eq!(
            snap.counter("sim.arrived"),
            Some(requests),
            "{}: telemetry snapshot missed arrivals",
            scenario.id
        );
        assert!(
            snap.counter("sim.place.calls").unwrap_or(0) >= requests,
            "{}: place span saw fewer calls than requests",
            scenario.id
        );
        // Every scenario — churn and ring placements included — serves
        // each completion either at a potential departure that named a
        // busy server or in the per-server drain, so the counters
        // balance exactly.
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        let (potential, idle, drain) = (
            c("sim.potential_departures"),
            c("sim.idle_departures"),
            c("sim.drain_departures"),
        );
        assert!(
            potential > idle,
            "{}: no potential departure found a busy server",
            scenario.id
        );
        assert_eq!(
            potential - idle + drain,
            traced_on.completed,
            "{}: departure accounting does not balance",
            scenario.id
        );
        // Admissions behind a busy server, and the admission pool's
        // high-water mark of jobs in the system, are harvested on every
        // serial run, straight from the fleet.
        assert_eq!(
            (
                snap.counter("fleet.queued"),
                snap.counter("fleet.pool_nodes")
            ),
            (Some(queued), Some(pool_nodes)),
            "{}: fleet pool counters missing from the snapshot",
            scenario.id
        );
        // Every job in the system holds a node, so the pool's peak is at
        // least any one server's peak queue.
        assert!(
            pool_nodes >= traced_on.max_queue_len,
            "{}: {pool_nodes} pool nodes below a peak queue of {}",
            scenario.id,
            traced_on.max_queue_len
        );
        pooled_somewhere |= queued > 0;
    }
    assert!(
        pooled_somewhere,
        "no registry scenario queued a job behind a busy server"
    );
}

#[test]
fn scenario_runs_conserve_requests() {
    for scenario in registry() {
        let requests = (scenario.default_requests / SMOKE_DIVISOR).min(5_000);
        let spec = (scenario.build)(7, requests);
        let m = run(spec, 7);
        assert_eq!(m.requests, requests, "{}", scenario.id);
        assert_eq!(
            m.completed + m.dropped + m.orphaned,
            requests,
            "{}: completed {} + dropped {} + orphaned {} != {requests}",
            scenario.id,
            m.completed,
            m.dropped,
            m.orphaned
        );
        assert!(m.completed > 0, "{}: nothing completed", scenario.id);
    }
}

#[test]
fn two_class_beats_successor_on_tail_latency() {
    // End-to-end sanity that the paper's story survives the full
    // dynamics: identical fleet and utilisation, load-aware d-choice vs
    // load-oblivious successor placement — the oblivious baseline pays
    // in p99 latency and peak normalised queue.
    let two_class = bnb_cluster::find_scenario("two-class").unwrap();
    let successor = bnb_cluster::find_scenario("successor").unwrap();
    let run_equalised = |s: &bnb_cluster::Scenario| {
        let mut spec = (s.build)(11, 10_000);
        // Equalise traffic so only the placement differs.
        spec.arrivals = bnb_cluster::ArrivalProcess::Poisson {
            rate: 0.85 * spec.speeds.total() as f64,
        };
        spec.queue_capacity = Some(256);
        run(spec, 11)
    };
    let smart = run_equalised(two_class);
    let oblivious = run_equalised(successor);
    assert!(
        smart.max_normalized_queue < oblivious.max_normalized_queue,
        "d-choice peak {} should beat successor {}",
        smart.max_normalized_queue,
        oblivious.max_normalized_queue
    );
    assert!(
        smart.latency[2] < oblivious.latency[2],
        "d-choice p99 {} should beat successor {}",
        smart.latency[2],
        oblivious.latency[2]
    );
}
