//! **Figures 17 & 18** — Tuning the selection probabilities (§4.5).
//!
//! Paper parameters: `n = 100` bins, half of capacity 1 and half of
//! capacity `x`; selection probability of a capacity-`c` bin is
//! `c^t / Σ_j c_j^t`; `m = C = 50·(x + 1)` balls; `d = 2`.
//!
//! * Figure 18 plots the mean maximum load against the exponent `t` for
//!   `x ∈ {2, …, 6}` — U-shaped curves whose minimum sits right of
//!   `t = 1`.
//! * Figure 17 plots, for `x ∈ {2, …, 14}`, the exponent `t*` minimising
//!   the mean maximum load — rising to ≈ 2.1 around `x = 3` and
//!   declining towards ~1.2 afterwards. The paper averages 10⁶ runs per
//!   `(x, t)` with a 0.005 exponent grid; we default to a coarser grid
//!   and fewer reps, so `t*` is resolved to the 0.05 grid step.

use crate::ctx::Ctx;
use crate::runner::mc_scalar;
use bnb_core::prelude::*;
use bnb_stats::{Series, SeriesSet};

/// Paper's repetition count for these figures.
pub const PAPER_REPS: usize = 1_000_000;
const N: usize = 100;
const FIG17_REPS: usize = 1_200;
const FIG18_REPS: usize = 2_500;

/// Big-bin capacities swept by Figure 17.
#[must_use]
pub fn fig17_capacities() -> Vec<u64> {
    (2..=14).collect()
}

/// Big-bin capacities plotted by Figure 18.
pub const FIG18_CAPACITIES: [u64; 5] = [2, 3, 4, 5, 6];

/// Mean max load at one `(x, t)` grid point.
fn mean_max_load(ctx: &Ctx, x: u64, t: f64, reps: usize, exp_id: u64) -> bnb_stats::Summary {
    let caps = CapacityVector::two_class(N / 2, 1, N / 2, x);
    let config = GameConfig::with_d(2).selection(Selection::CapacityPower(t));
    mc_scalar(reps, ctx.master_seed, exp_id, move |seed| {
        let bins = run_game(&caps, caps.total(), &config, seed);
        bins.max_load().as_f64()
    })
}

/// Runs Figure 18 (max load vs exponent, one curve per capacity pair).
#[must_use]
pub fn run_fig18(ctx: &Ctx) -> SeriesSet {
    let reps = ctx.reps(FIG18_REPS);
    let mut set = SeriesSet::new(
        "fig18",
        format!("Max load for different exponents and capacities (n={N}, {reps} reps)"),
        "exponent",
        "max load",
    );
    let ts: Vec<f64> = (0..=35).map(|i| i as f64 * 0.1).collect();
    for (xi, &x) in FIG18_CAPACITIES.iter().enumerate() {
        let mut series = Series::new(format!("capacities 1 and {x}"));
        for (ti, &t) in ts.iter().enumerate() {
            let s = mean_max_load(ctx, x, t, reps, 1800 + xi as u64 * 64 + ti as u64);
            series.push_summary(t, &s);
        }
        set.push(series);
    }
    set
}

/// Runs Figure 17 (optimal exponent vs capacity of the big bins).
#[must_use]
pub fn run_fig17(ctx: &Ctx) -> SeriesSet {
    let reps = ctx.reps(FIG17_REPS);
    let mut set = SeriesSet::new(
        "fig17",
        format!("Optimal exponent for different capacities (n={N}, {reps} reps/grid point)"),
        "capacity of a big bin",
        "optimal exponent",
    );
    // Paper grid: t in {1, 1.005, ..., 3}; ours: 0.05 steps. Optimum
    // determined on the mean max load.
    let ts: Vec<f64> = (0..=40).map(|i| 1.0 + i as f64 * 0.05).collect();
    let mut series = Series::new("optimal exponent");
    for (xi, x) in fig17_capacities().into_iter().enumerate() {
        let mut best_t = ts[0];
        let mut best_load = f64::INFINITY;
        for (ti, &t) in ts.iter().enumerate() {
            let s = mean_max_load(ctx, x, t, reps, 1700 + xi as u64 * 64 + ti as u64);
            if s.mean() < best_load {
                best_load = s.mean();
                best_t = t;
            }
        }
        series.push(x as f64, best_t, 0.05);
    }
    set.push(series);
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig18_curves_are_u_shaped_with_minimum_right_of_one() {
        let ctx = Ctx {
            rep_factor: 0.15,
            ..Ctx::default()
        };
        let set = run_fig18(&ctx);
        let s = set.get("capacities 1 and 3").unwrap();
        // Find argmin.
        let (argmin, min_y) =
            s.points
                .iter()
                .map(|p| (p.x, p.y))
                .fold(
                    (0.0, f64::INFINITY),
                    |acc, (x, y)| if y < acc.1 { (x, y) } else { acc },
                );
        let at_zero = s.points.first().unwrap().y;
        let at_end = s.points.last().unwrap().y;
        assert!(
            min_y < at_zero && min_y < at_end,
            "curve should be U-shaped"
        );
        assert!(
            argmin > 0.9,
            "optimal exponent should be near/above 1, got {argmin}"
        );
    }

    #[test]
    fn fig17_optimal_exponents_exceed_proportional() {
        let ctx = Ctx {
            rep_factor: 0.1,
            ..Ctx::default()
        };
        // Restrict to a cheap subset by shrinking reps only; capacities
        // are inherent to the figure.
        let set = run_fig17(&ctx);
        let s = &set.series[0];
        assert_eq!(s.len(), 13);
        // The paper's headline: optimal t can differ considerably from 1;
        // for x=3 it is ≈ 2.1. With reduced reps allow a wide band.
        let x3 = s.points.iter().find(|p| p.x == 3.0).unwrap();
        assert!(
            x3.y > 1.2,
            "optimal exponent at x=3 should exceed 1.2, got {}",
            x3.y
        );
        // All optima within the searched interval.
        assert!(s.ys().iter().all(|&t| (1.0..=3.0).contains(&t)));
    }
}
