//! **Figures 14 & 15** — Dynamically growing storage systems (§4.3).
//!
//! The system grows from 2 disks to 1 000 in batches of 20; batch
//! capacities follow a growth model (first batch capacity 2). On every
//! size the allocation restarts from scratch with `m = C` balls, and the
//! mean maximum load is plotted against the number of disks.
//!
//! * Figure 14: linear growth `+a`, `a ∈ {1, 2, 4, 6}`, plus the all-2
//!   baseline.
//! * Figure 15: exponential growth `×b`, `b ∈ {1.05, 1.1, 1.2, 1.4}`,
//!   plus the baseline. (The paper's text once says `b = 1.005` but the
//!   figure legend says `1.05`; we follow the legend.) The largest
//!   configurations of `b = 1.4` need ~10⁹ balls per run; sweep points
//!   whose single-run ball count exceeds [`Ctx::ball_budget`] are
//!   skipped (README, "Where the defaults differ from the paper").

use crate::ctx::Ctx;
use crate::runner::mc_scalar;
use bnb_core::prelude::*;
use bnb_stats::{Series, SeriesSet};

/// Linear increments of Figure 14.
pub const LINEAR_A: [u64; 4] = [1, 2, 4, 6];
/// Exponential factors of Figure 15.
pub const EXPONENTIAL_B: [f64; 4] = [1.05, 1.1, 1.2, 1.4];
/// Paper's repetition count (blanket §4 statement).
pub const PAPER_REPS: usize = 10_000;
const DEFAULT_REPS: usize = 60;
const PAPER_MAX_BINS: usize = 1_000;

/// Disk counts on the x-axis: 2, then 20-step increments to the maximum.
fn bin_counts(max_bins: usize) -> Vec<usize> {
    let mut xs = vec![2usize];
    let mut x = 20;
    while x <= max_bins {
        xs.push(x);
        x += 20;
    }
    xs
}

fn run_models(
    ctx: &Ctx,
    id: &str,
    title: &str,
    models: Vec<(String, GrowthModel)>,
    exp_base: u64,
) -> SeriesSet {
    let max_bins = ctx.size(PAPER_MAX_BINS, 40);
    let reps = ctx.reps(DEFAULT_REPS);
    let mut set = SeriesSet::new(
        id,
        format!("{title} (up to {max_bins} bins, {reps} reps)"),
        "number of bins",
        "maximum load",
    );
    for (mi, (label, model)) in models.into_iter().enumerate() {
        let mut series = Series::new(label);
        for (xi, &total_bins) in bin_counts(max_bins).iter().enumerate() {
            let caps = model.paper_schedule(total_bins);
            if caps.total() > ctx.ball_budget {
                // Per-run ball count beyond budget: skip the point.
                continue;
            }
            let config = GameConfig::with_d(2);
            let summary = mc_scalar(
                reps,
                ctx.master_seed,
                exp_base + mi as u64 * 64 + xi as u64,
                |seed| {
                    let bins = run_game(&caps, caps.total(), &config, seed);
                    bins.max_load().as_f64()
                },
            );
            series.push_summary(total_bins as f64, &summary);
        }
        set.push(series);
    }
    set
}

/// Runs Figure 14 (linear growth).
#[must_use]
pub fn run_fig14(ctx: &Ctx) -> SeriesSet {
    let mut models = vec![(
        "base (all capacities = 2)".to_string(),
        GrowthModel::Constant(2),
    )];
    for a in LINEAR_A {
        models.push((format!("lin a={a}"), GrowthModel::Linear { first: 2, a }));
    }
    run_models(
        ctx,
        "fig14",
        "Linear growth between generations",
        models,
        1400,
    )
}

/// Runs Figure 15 (exponential growth).
#[must_use]
pub fn run_fig15(ctx: &Ctx) -> SeriesSet {
    let mut models = vec![(
        "base (all capacities = 2)".to_string(),
        GrowthModel::Constant(2),
    )];
    for b in EXPONENTIAL_B {
        models.push((
            format!("exp b={b:.2}"),
            GrowthModel::Exponential { first: 2, b },
        ));
    }
    run_models(
        ctx,
        "fig15",
        "Exponential growth between generations",
        models,
        1500,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_growth_beats_baseline() {
        let ctx = Ctx {
            rep_factor: 0.3,
            size_factor: 0.3,
            ..Ctx::default()
        };
        let set = run_fig14(&ctx);
        assert_eq!(set.series.len(), 5);
        let base_last = set.series[0].points.last().unwrap().y;
        let a6_last = set.get("lin a=6").unwrap().points.last().unwrap().y;
        assert!(
            a6_last < base_last,
            "heterogeneous growth (a=6: {a6_last}) should beat baseline ({base_last})"
        );
        // Growth curves end lower than they start (decreasing max load).
        let a6 = set.get("lin a=6").unwrap();
        assert!(a6.points.last().unwrap().y < a6.points.first().unwrap().y);
    }

    #[test]
    fn fig15_ball_budget_truncates_heavy_curves() {
        let ctx = Ctx {
            rep_factor: 0.1,
            size_factor: 0.5,
            ball_budget: 50_000,
            ..Ctx::default()
        };
        let set = run_fig15(&ctx);
        let base = set.series[0].len();
        let b14 = set.get("exp b=1.40").unwrap().len();
        assert!(
            b14 < base,
            "b=1.4 curve ({b14} pts) must be truncated vs baseline ({base} pts)"
        );
        assert!(b14 >= 3, "but it must still have the early points");
    }

    #[test]
    fn fig15_exponential_improves_on_baseline_late() {
        let ctx = Ctx {
            rep_factor: 0.3,
            size_factor: 0.3,
            ..Ctx::default()
        };
        let set = run_fig15(&ctx);
        let base_last = set.series[0].points.last().unwrap().y;
        let b12 = set.get("exp b=1.20").unwrap();
        let b12_last = b12.points.last().unwrap().y;
        assert!(
            b12_last < base_last,
            "exp b=1.2 ({b12_last}) should beat baseline ({base_last})"
        );
    }
}
