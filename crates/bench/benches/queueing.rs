//! The cluster fleet's per-server bookkeeping (`try_join` + `depart`)
//! at a small and a `giant`-sized fleet.

use bnb_cluster::Fleet;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

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

criterion_group!(benches, fleet_bookkeeping);
criterion_main!(benches);
