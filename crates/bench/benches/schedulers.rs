//! Scheduler shoot-out on the simulation-shaped hold pattern: the same
//! "pop the minimum, reschedule it at `now + Exp`" drive across every
//! scheduler in the workspace, so one report ranks the calendar wheel,
//! the binary heap and the slot-keyed lazy board side by side (the
//! decision record behind the fused loop's departure path). The
//! `hold64` cells hold one pending event per server of a 64-slot fleet;
//! the `hold131072` cells repeat the calendar and the lazy board at the
//! `giant` scenario's population, where a scheduler whose pair cost
//! grows with the pending population shows it (`perfbench`'s
//! `sched.*.ns_per_pair` cells sweep the sizes in between).

use bnb_distributions::{ExponentialBlock, Xoshiro256PlusPlus};
use bnb_queueing::events::EventScheduler;
use bnb_queueing::{CalendarQueue, EventQueue, LazyBoard};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// Pending events held live in the small cells — one per server of a
/// 64-slot fleet.
const SMALL: u32 = 64;
/// Pending events held live in the large cells — one per server of the
/// `giant` scenario's 131072-slot fleet.
const LARGE: u32 = 131_072;
/// Schedule+pop pairs per measured iteration.
const PAIRS: u64 = 100_000;

/// The hold drive on a general scheduler: fills `population` pending
/// events and cycles every one of them once, so timing starts in
/// steady state; each call of the returned closure is one timed
/// iteration of [`PAIRS`] pop+reschedule pairs.
fn hold_general<Q: EventScheduler<u32>>(mut q: Q, population: u32) -> impl FnMut() -> usize {
    let mut exp = ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(bnb_bench::BENCH_SEED));
    for i in 0..population {
        q.schedule(exp.next(), i);
    }
    let mut pairs = move |n: u64| {
        for _ in 0..n {
            let (t, s) = q.pop().unwrap();
            q.schedule(t + exp.next(), s);
        }
        q.len()
    };
    pairs(u64::from(population));
    move || pairs(PAIRS)
}

/// The hold drive on the lazy board, shaped as [`hold_general`].
fn hold_lazy(population: u32) -> impl FnMut() -> usize {
    let mut exp = ExponentialBlock::new(Xoshiro256PlusPlus::from_u64_seed(bnb_bench::BENCH_SEED));
    let mut q = LazyBoard::with_slots(population as usize);
    for i in 0..population {
        q.schedule(i, exp.next());
    }
    let mut pairs = move |n: u64| {
        for _ in 0..n {
            let (t, s) = q.pop().unwrap();
            q.schedule(s, t + exp.next());
        }
        q.len()
    };
    pairs(u64::from(population));
    move || pairs(PAIRS)
}

fn hold_pattern(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedulers");
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(PAIRS));
    for population in [SMALL, LARGE] {
        let cell = format!("hold{population}");
        group.bench_function(BenchmarkId::new(&cell, "calendar"), |b| {
            let mut iteration = hold_general(CalendarQueue::new(), population);
            b.iter(|| black_box(iteration()));
        });
        if population == SMALL {
            group.bench_function(BenchmarkId::new(&cell, "heap"), |b| {
                let mut iteration = hold_general(EventQueue::new(), population);
                b.iter(|| black_box(iteration()));
            });
        }
        group.bench_function(BenchmarkId::new(&cell, "lazy"), |b| {
            let mut iteration = hold_lazy(population);
            b.iter(|| black_box(iteration()));
        });
    }
    group.finish();
}

criterion_group!(benches, hold_pattern);
criterion_main!(benches);
