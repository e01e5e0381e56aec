//! **Figure 16** — The heavily loaded case (§4.4).
//!
//! Paper parameters: `n = 10 000` bins; for each prescribed capacity
//! `CAP ∈ {1, 2, 5, 10}·n`, bin capacities are randomised with expected
//! total `CAP` (binomial model as in §4.2, generalised for means > 8);
//! `100·CAP` balls are thrown and after every `CAP` balls the deviation
//! `max load − average load` is recorded.
//!
//! Expected shape: a bundle of nearly flat parallel lines — the deviation
//! does not grow with the number of balls — with larger `CAP` closer
//! to zero.

use crate::ctx::Ctx;
use crate::runner::mc_vector;
use bnb_core::prelude::*;
use bnb_distributions::Xoshiro256PlusPlus;
use bnb_stats::{Series, SeriesSet};

/// Capacity multipliers of the four curves.
pub const CAP_MULTIPLIERS: [u64; 4] = [1, 2, 5, 10];
/// Number of snapshots (the paper samples at every `i·CAP`, i = 1…100).
pub const SNAPSHOTS: usize = 100;
/// Paper's repetition count (not stated for this figure; §4 blanket is
/// 10 000, unrealistic at 10⁹ balls per run — we use a small count, as
/// README's "Where the defaults differ from the paper" notes).
pub const PAPER_REPS: usize = 10_000;
const DEFAULT_REPS: usize = 8;
const PAPER_N: usize = 10_000;

/// Runs Figure 16.
#[must_use]
pub fn run(ctx: &Ctx) -> SeriesSet {
    let n = ctx.size(PAPER_N, 64);
    let reps = ctx.reps(DEFAULT_REPS);
    // Scale the snapshot count down a little in test contexts to bound
    // runtime; keep the paper's 100 by default.
    let snapshots = if ctx.size_factor < 1.0 {
        SNAPSHOTS
            .min((SNAPSHOTS as f64 * ctx.size_factor.max(0.25)) as usize)
            .max(10)
    } else {
        SNAPSHOTS
    };
    let mut set = SeriesSet::new(
        "fig16",
        format!("Heavily loaded: deviation of max from average (n={n}, {reps} reps, {snapshots} snapshots)"),
        "#balls thrown (x-value times CAP)",
        "current max load - current average",
    );
    for (k, &mult) in CAP_MULTIPLIERS.iter().enumerate() {
        let mean_c = mult as f64;
        // Trials for the generalised binomial: keep the paper's 7 for
        // means within reach, widen for larger means.
        let trials = if mean_c <= 8.0 {
            7
        } else {
            (2.0 * mean_c) as u64
        };
        let acc = mc_vector(reps, ctx.master_seed, 1600 + k as u64, snapshots, |seed| {
            let mut cap_rng = Xoshiro256PlusPlus::from_u64_seed(seed ^ 0x1616_16FF);
            let caps =
                CapacityVector::binomial_randomized_with_trials(n, mean_c, trials, &mut cap_rng);
            let cap_total = caps.total();
            let mut game = GameConfig::with_d(2).build(&caps, seed);
            let mut devs = Vec::with_capacity(snapshots);
            game.throw_with_snapshots(cap_total * snapshots as u64, cap_total, |_thrown, bins| {
                devs.push(max_minus_average(bins));
            });
            devs
        });
        let means = acc.means();
        let errs = acc.std_errs();
        let mut series = Series::new(format!("CAP = {mult}*n"));
        for (i, (&m, &e)) in means.iter().zip(&errs).enumerate() {
            series.push((i + 1) as f64, m, e);
        }
        set.push(series);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_lines_are_flat_and_ordered() {
        let ctx = Ctx {
            rep_factor: 0.5,
            size_factor: 0.1,
            ..Ctx::default()
        };
        let set = run(&ctx);
        assert_eq!(set.series.len(), 4);
        for s in &set.series {
            // Flatness: late-half mean within 50% of early-half mean
            // (generous; the paper's lines are parallel and flat).
            let half = s.len() / 2;
            let early: f64 = s.ys()[..half].iter().sum::<f64>() / half as f64;
            let late: f64 = s.ys()[half..].iter().sum::<f64>() / (s.len() - half) as f64;
            assert!(
                (late - early).abs() < 0.5 * early.max(0.2),
                "series {}: early {early} late {late}",
                s.label
            );
        }
        // Higher CAP => smaller deviation (averaged over the curve).
        let curve_mean = |label: &str| {
            let s = set.get(label).unwrap();
            s.ys().iter().sum::<f64>() / s.len() as f64
        };
        assert!(curve_mean("CAP = 1*n") > curve_mean("CAP = 10*n"));
    }
}
