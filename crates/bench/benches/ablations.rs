//! Design-choice ablations.
//!
//! These measure *solution quality* (mean maximum load), not speed: each
//! "benchmark" iteration runs a batch of seeded games and black-boxes the
//! mean max load, so criterion's timing doubles as a regression guard on
//! the simulation cost of each variant, while the printed summaries
//! record the quality numbers.
//!
//! Variants:
//! * Algorithm 1 vs. no-capacity-tie-break vs. prior-load greedy
//! * proportional vs. uniform selection probabilities
//! * d ∈ {1, 2, 3, 4}
//! * with-replacement vs. distinct candidate draws

use bnb_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const REPS: u64 = 20;

fn mean_max_load(caps: &CapacityVector, config: &GameConfig) -> f64 {
    let mut total = 0.0;
    for rep in 0..REPS {
        let bins = run_game(caps, caps.total(), config, bnb_bench::BENCH_SEED ^ rep);
        total += bins.max_load().as_f64();
    }
    total / REPS as f64
}

fn tie_break_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_tie_break");
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let caps = CapacityVector::two_class(500, 1, 500, 10);
    for (name, policy) in [
        ("algorithm1", Policy::PaperProtocol),
        ("no_capacity_tiebreak", Policy::LeastLoadedPost),
        ("prior_load", Policy::LeastLoadedPrior),
        ("fewest_balls", Policy::FewestBalls),
    ] {
        group.bench_function(name, |b| {
            let config = GameConfig::with_d(2).policy(policy);
            b.iter(|| black_box(mean_max_load(&caps, &config)));
        });
    }
    group.finish();
}

fn selection_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_selection");
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let caps = CapacityVector::two_class(500, 1, 500, 10);
    for (name, selection) in [
        ("proportional", Selection::ProportionalToCapacity),
        ("uniform", Selection::Uniform),
        ("power_1.5", Selection::CapacityPower(1.5)),
        ("power_2.0", Selection::CapacityPower(2.0)),
    ] {
        group.bench_function(name, |b| {
            let config = GameConfig::with_d(2).selection(selection.clone());
            b.iter(|| black_box(mean_max_load(&caps, &config)));
        });
    }
    group.finish();
}

fn d_sweep_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_d");
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let caps = CapacityVector::two_class(500, 1, 500, 10);
    for d in [1usize, 2, 3, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            let config = GameConfig::with_d(d);
            b.iter(|| black_box(mean_max_load(&caps, &config)));
        });
    }
    group.finish();
}

fn replacement_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_choice_mode");
    group.warm_up_time(std::time::Duration::from_millis(800));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let caps = CapacityVector::two_class(500, 1, 500, 10);
    for (name, mode) in [
        ("with_replacement", ChoiceMode::WithReplacement),
        ("distinct", ChoiceMode::Distinct),
    ] {
        group.bench_function(name, |b| {
            let config = GameConfig::with_d(2).choice_mode(mode);
            b.iter(|| black_box(mean_max_load(&caps, &config)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    tie_break_ablation,
    selection_ablation,
    d_sweep_ablation,
    replacement_ablation
);
criterion_main!(benches);
