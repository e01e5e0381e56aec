//! Queueing-substrate throughput: events processed per second across
//! routing policies and utilisations, plus the cluster fleet's
//! per-server bookkeeping (`try_join` + `depart`) at a small and a
//! `giant`-sized fleet.

use bnb_cluster::Fleet;
use bnb_core::{CapacityVector, Selection};
use bnb_queueing::{QueueSystem, RoutingPolicy, SystemConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const ARRIVALS: u64 = 20_000;

fn queueing_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("queueing");
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(ARRIVALS));
    let speeds = CapacityVector::two_class(500, 1, 500, 10);
    for (name, routing, d) in [
        (
            "normalised_jsq_d2",
            RoutingPolicy::ShortestNormalizedQueue,
            2,
        ),
        ("plain_jsq_d2", RoutingPolicy::ShortestQueue, 2),
        ("random_d1", RoutingPolicy::Random, 1),
    ] {
        group.bench_function(BenchmarkId::new("route", name), |b| {
            b.iter(|| {
                let config = SystemConfig {
                    d,
                    routing,
                    selection: Selection::ProportionalToCapacity,
                    rho: 0.9,
                    queue_capacity: None,
                };
                let mut sys = QueueSystem::new(&speeds, config, bnb_bench::BENCH_SEED);
                black_box(sys.run_arrivals(ARRIVALS))
            });
        });
    }
    for rho_pct in [50u32, 90, 99] {
        group.bench_with_input(
            BenchmarkId::new("rho_pct", rho_pct),
            &rho_pct,
            |b, &rho_pct| {
                b.iter(|| {
                    let config = SystemConfig {
                        rho: rho_pct as f64 / 100.0,
                        ..SystemConfig::default()
                    };
                    let mut sys = QueueSystem::new(&speeds, config, bnb_bench::BENCH_SEED);
                    black_box(sys.run_arrivals(ARRIVALS))
                });
            },
        );
    }
    group.finish();
}

/// Join+depart pairs per measured iteration of the fleet cells.
const FLEET_PAIRS: u64 = 100_000;

/// One join then one depart per pair, on servers visited in a scattered
/// order so a wide fleet's records are touched as a run touches them.
fn fleet_bookkeeping(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(FLEET_PAIRS));
    for slots in [64usize, 131_072] {
        let speeds: Vec<u64> = (0..slots).map(|i| if i % 2 == 0 { 1 } else { 8 }).collect();
        group.bench_function(BenchmarkId::new("try_join+depart", slots), |b| {
            let mut fleet = Fleet::new(&speeds, None);
            let mut i = 0usize;
            let mut t = 0.0;
            b.iter(|| {
                for _ in 0..FLEET_PAIRS {
                    i = (i + 0x9E37_79B9) % slots;
                    t += 1e-3;
                    fleet.try_join(i, t);
                    black_box(fleet.depart(i, t + 0.5));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, queueing_throughput, fleet_bookkeeping);
criterion_main!(benches);
