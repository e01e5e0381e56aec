//! Scheduler shoot-out on the simulation-shaped hold pattern: the same
//! population-64 "pop the minimum, reschedule it at `now + Exp`" drive
//! across every scheduler in the workspace, so one report ranks the
//! calendar wheel, the binary heap and the slot-keyed lazy board side
//! by side (the decision record behind the fused loop's departure path
//! — `perfbench`'s `sched.*.ns_per_pair` cells sweep the same pattern
//! over the population).

use bnb_distributions::{ExponentialBlock, Xoshiro256PlusPlus};
use bnb_queueing::events::EventScheduler;
use bnb_queueing::{CalendarQueue, EventQueue, LazyBoard};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// Pending departures held live — one per server of a 64-slot fleet.
const POPULATION: u32 = 64;
/// Schedule+pop pairs per measured iteration.
const PAIRS: u64 = 100_000;

fn hold_pattern(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedulers");
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(PAIRS));
    group.bench_function(BenchmarkId::new("hold64", "calendar"), |b| {
        b.iter(|| {
            let mut exp =
                ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(bnb_bench::BENCH_SEED));
            let mut q: CalendarQueue<u32> = CalendarQueue::new();
            for i in 0..POPULATION {
                q.schedule(exp.next(), i);
            }
            for _ in 0..PAIRS {
                let (t, s) = q.pop().unwrap();
                q.schedule(t + exp.next(), s);
            }
            black_box(q.len())
        });
    });
    group.bench_function(BenchmarkId::new("hold64", "heap"), |b| {
        b.iter(|| {
            let mut exp =
                ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(bnb_bench::BENCH_SEED));
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..POPULATION {
                q.schedule(exp.next(), i);
            }
            for _ in 0..PAIRS {
                let (t, s) = q.pop().unwrap();
                q.schedule(t + exp.next(), s);
            }
            black_box(q.len())
        });
    });
    group.bench_function(BenchmarkId::new("hold64", "lazy"), |b| {
        b.iter(|| {
            let mut exp =
                ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(bnb_bench::BENCH_SEED));
            let mut q = LazyBoard::with_slots(POPULATION as usize);
            for i in 0..POPULATION {
                q.schedule(i, exp.next());
            }
            for _ in 0..PAIRS {
                let (t, s) = q.pop().unwrap();
                q.schedule(s, t + exp.next());
            }
            black_box(q.len())
        });
    });
    group.finish();
}

criterion_group!(benches, hold_pattern);
criterion_main!(benches);
