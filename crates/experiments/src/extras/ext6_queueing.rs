//! **Extension E6** — The queueing view: capacity as *speed*.
//!
//! The paper reads a bin's capacity as "speed, bandwidth or compression
//! ratio". The dynamic embodiment is a supermarket-model system run on
//! the cluster simulator: Poisson arrivals, `n` servers where server `i`
//! drains Exp(1)-work jobs at rate `c_i`, unbounded queues, and d-choice
//! routing. This experiment sweeps the offered utilisation ρ on a
//! 1-and-10 speed mix and plots the maximum *normalised* queue
//! (`max q_i/c_i`, the queueing analog of the paper's load) for four
//! routing setups:
//!
//! * d=2, speed-proportional sampling, normalised JSQ (Algorithm 1's
//!   analog, [`PlacementSpec::DChoice`]),
//! * d=2, speed-proportional sampling, plain JSQ (speed-blind,
//!   [`PlacementSpec::ShortestQueue`]),
//! * d=2, uniform sampling, normalised JSQ
//!   ([`PlacementSpec::UniformDChoice`]),
//! * d=1 (random server ∝ speed) as the baseline.
//!
//! ## The uniform-sampling curve is a backlog, not a steady state
//!
//! Under uniform sampling both candidates are slow with probability
//! 1/4, so the slow class receives at least a quarter of the arrivals
//! while holding only 100/1100 of the capacity. It is overloaded for
//! every ρ > 4/11, which covers the whole swept grid: its queues grow
//! without bound, and the plotted peak is the backlog reached by the
//! end of the request budget. It roughly doubles when the budget
//! doubles, while Algorithm 1's peak stays put (a unit test pins
//! both). The point the curve makes stands — sampling must follow
//! capacity — but its height is a function of run length.

use crate::ctx::Ctx;
use crate::runner::mc_scalar;
use bnb_cluster::{ArrivalProcess, ClusterSpec, PlacementSpec, SimBuilder};
use bnb_core::CapacityVector;
use bnb_stats::{Series, SeriesSet};

const PAPER_N: usize = 200;
const DEFAULT_REPS: usize = 40;
const ARRIVALS_PER_SPEED: u64 = 400;

/// The swept utilisations.
pub const RHOS: [f64; 4] = [0.5, 0.7, 0.9, 0.95];

/// The routing setups, with their series labels.
const VARIANTS: [(&str, PlacementSpec); 4] = [
    (
        "d=2 normalised JSQ, prop sampling",
        PlacementSpec::DChoice { d: 2 },
    ),
    (
        "d=2 plain JSQ, prop sampling",
        PlacementSpec::ShortestQueue { d: 2 },
    ),
    (
        "d=2 normalised JSQ, uniform sampling",
        PlacementSpec::UniformDChoice { d: 2 },
    ),
    (
        "d=1 random (prop sampling)",
        PlacementSpec::DChoice { d: 1 },
    ),
];

/// The peak normalised queue of one run: Poisson arrivals at `rho`
/// times the fleet's total speed, unbounded queues, no churn.
fn peak(
    speeds: &CapacityVector,
    placement: PlacementSpec,
    rho: f64,
    requests: u64,
    seed: u64,
) -> f64 {
    let spec = ClusterSpec {
        arrivals: ArrivalProcess::Poisson {
            rate: rho * speeds.total() as f64,
        },
        speeds: speeds.clone(),
        placement,
        queue_capacity: None,
        churn: None,
        requests,
    };
    SimBuilder::new(spec)
        .seed(seed)
        .build()
        .run()
        .max_normalized_queue
}

/// Runs extension E6.
#[must_use]
pub fn run(ctx: &Ctx) -> SeriesSet {
    let n = ctx.size(PAPER_N, 20);
    let reps = ctx.reps(DEFAULT_REPS);
    let speeds = CapacityVector::two_class(n / 2, 1, n / 2, 10);
    let requests = speeds.total() * ARRIVALS_PER_SPEED / 10;
    let mut set = SeriesSet::new(
        "ext6",
        format!(
            "Queueing (speeds 1 & 10, n={n}): max normalised queue vs utilisation \
             ({reps} reps; uniform sampling overloads the slow class, so its peak \
             is a backlog that grows with run length)"
        ),
        "offered utilisation rho",
        "max normalised queue (max q/c)",
    );
    for (vi, &(label, placement)) in VARIANTS.iter().enumerate() {
        let mut series = Series::new(label);
        for (ri, &rho) in RHOS.iter().enumerate() {
            let summary = mc_scalar(
                reps,
                ctx.master_seed,
                5600 + vi as u64 * 16 + ri as u64,
                |seed| peak(&speeds, placement, rho, requests, seed),
            );
            series.push_summary(rho, &summary);
        }
        set.push(series);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queues_grow_with_utilisation() {
        let ctx = Ctx::test_scale();
        let set = run(&ctx);
        assert_eq!(set.series.len(), 4);
        for s in &set.series {
            assert!(
                s.points.last().unwrap().y >= s.points[0].y - 0.5,
                "{}: queue should not shrink as rho grows",
                s.label
            );
        }
    }

    #[test]
    fn two_choices_beat_one_at_high_load() {
        let ctx = Ctx::test_scale();
        let set = run(&ctx);
        let best = set
            .get("d=2 normalised JSQ, prop sampling")
            .unwrap()
            .points
            .last()
            .unwrap()
            .y;
        let baseline = set
            .get("d=1 random (prop sampling)")
            .unwrap()
            .points
            .last()
            .unwrap()
            .y;
        assert!(
            best < baseline,
            "normalised JSQ(2) ({best}) should beat random ({baseline}) at rho=0.95"
        );
    }

    #[test]
    fn uniform_sampling_peak_is_a_growing_backlog() {
        // At ρ = 0.5 the uniformly sampled slow class is overloaded, so
        // doubling the run doubles its backlog; Algorithm 1's peak is a
        // steady-state maximum and barely moves.
        let n = Ctx::test_scale().size(PAPER_N, 20);
        let speeds = CapacityVector::two_class(n / 2, 1, n / 2, 10);
        let requests = speeds.total() * ARRIVALS_PER_SPEED / 10;
        let mean_peak = |placement, requests| {
            (0..4)
                .map(|seed| peak(&speeds, placement, 0.5, requests, seed))
                .sum::<f64>()
                / 4.0
        };
        let uniform = PlacementSpec::UniformDChoice { d: 2 };
        let (u1, u2) = (
            mean_peak(uniform, requests),
            mean_peak(uniform, 2 * requests),
        );
        assert!(u2 >= 1.5 * u1, "uniform peak {u1} -> {u2} over 2x the run");
        let algo1 = PlacementSpec::DChoice { d: 2 };
        let (a1, a2) = (mean_peak(algo1, requests), mean_peak(algo1, 2 * requests));
        assert!((a2 - a1).abs() <= 1.0, "Algorithm 1 peak {a1} -> {a2}");
    }
}
