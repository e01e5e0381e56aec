//! Parallel Monte-Carlo runners.
//!
//! Every figure reduces to "repeat a seeded simulation `R` times and
//! aggregate". The runners here parallelise over repetitions with rayon
//! while keeping results **independent of thread scheduling**: repetition
//! `r` always uses `derive_seed(master, experiment_id, r)`, and the
//! aggregation operators ([`Summary::merge`], [`MeanAccumulator::merge`])
//! are order-insensitive up to floating-point rounding.

use bnb_distributions::derive_seed;
use bnb_stats::{merge_ordered, MeanAccumulator, Summary};
use rayon::prelude::*;

/// The most chunks [`chunk_ranges`] splits a run into. A constant, not a
/// function of the host's parallelism, so the chunk layout (and with it
/// the last ulp of every figure) is the same on every machine.
const CHUNK_CAP: usize = 256;

/// Splits `reps` repetitions into at most [`CHUNK_CAP`] contiguous chunks.
///
/// Aggregation runs sequentially *within* a chunk and the per-chunk
/// accumulators are merged *in chunk order* ([`merge_ordered`]), so the
/// result is bitwise identical across runs, thread counts and hosts —
/// floating-point addition is not associative, and a free-form rayon
/// reduction tree would otherwise leak the thread schedule into the last
/// ulp of the output (and break the harness's reproducibility contract).
fn chunk_ranges(reps: usize) -> Vec<(u64, u64)> {
    let chunk = reps.div_ceil(CHUNK_CAP).max(1);
    (0..reps)
        .step_by(chunk)
        .map(|start| (start as u64, reps.min(start + chunk) as u64))
        .collect()
}

/// Runs `reps` repetitions of a scalar-valued experiment and returns the
/// summary of the outcomes.
///
/// `f(seed)` must be a pure function of the seed; the result is bitwise
/// deterministic in `(reps, master, experiment_id)`.
pub fn mc_scalar<F>(reps: usize, master: u64, experiment_id: u64, f: F) -> Summary
where
    F: Fn(u64) -> f64 + Sync,
{
    let partials: Vec<Summary> = chunk_ranges(reps)
        .into_par_iter()
        .map(|(lo, hi)| {
            let mut s = Summary::new();
            for rep in lo..hi {
                s.push(f(derive_seed(master, experiment_id, rep)));
            }
            s
        })
        .collect();
    merge_ordered(partials).unwrap_or_else(Summary::new)
}

/// Runs `reps` repetitions of a vector-valued experiment (each repetition
/// returns a vector of fixed length `len`) and returns the element-wise
/// mean accumulator. Bitwise deterministic via the same chunked scheme
/// as [`mc_scalar`].
///
/// # Panics
/// Panics (inside the workers) if `f` returns a vector of the wrong
/// length.
pub fn mc_vector<F>(
    reps: usize,
    master: u64,
    experiment_id: u64,
    len: usize,
    f: F,
) -> MeanAccumulator
where
    F: Fn(u64) -> Vec<f64> + Sync,
{
    let partials: Vec<MeanAccumulator> = chunk_ranges(reps)
        .into_par_iter()
        .map(|(lo, hi)| {
            let mut acc = MeanAccumulator::new(len);
            for rep in lo..hi {
                acc.push_slice(&f(derive_seed(master, experiment_id, rep)));
            }
            acc
        })
        .collect();
    merge_ordered(partials).unwrap_or_else(|| MeanAccumulator::new(len))
}

/// Runs `reps` repetitions of a boolean-valued experiment and returns the
/// fraction of `true` outcomes (with its standard error, via the
/// indicator summary).
pub fn mc_fraction<F>(reps: usize, master: u64, experiment_id: u64, f: F) -> Summary
where
    F: Fn(u64) -> bool + Sync,
{
    mc_scalar(
        reps,
        master,
        experiment_id,
        |seed| if f(seed) { 1.0 } else { 0.0 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_runner_is_deterministic() {
        let f = |seed: u64| (seed % 1000) as f64;
        let a = mc_scalar(500, 42, 7, f);
        let b = mc_scalar(500, 42, 7, f);
        assert_eq!(a.count(), 500);
        assert!((a.mean() - b.mean()).abs() < 1e-12);
        // Different experiment id shifts the seeds, hence the values.
        let c = mc_scalar(500, 42, 8, f);
        assert!((a.mean() - c.mean()).abs() > 1e-12);
    }

    #[test]
    fn vector_runner_averages_elementwise() {
        let acc = mc_vector(100, 1, 2, 3, |seed| vec![1.0, (seed % 2) as f64, 2.0]);
        let means = acc.means();
        assert_eq!(acc.count(), 100);
        assert_eq!(means[0], 1.0);
        assert_eq!(means[2], 2.0);
        assert!(means[1] >= 0.0 && means[1] <= 1.0);
    }

    #[test]
    fn fraction_runner_bounds() {
        let s = mc_fraction(200, 9, 3, |seed| seed % 3 == 0);
        assert!(s.mean() >= 0.0 && s.mean() <= 1.0);
        // Roughly one third, loosely bounded.
        assert!((s.mean() - 1.0 / 3.0).abs() < 0.2, "{}", s.mean());
    }

    #[test]
    fn runs_are_bitwise_deterministic() {
        // Non-linear per-rep values make reduction-order effects visible;
        // the chunked runner must still be bitwise stable.
        let f = |seed: u64| ((seed % 997) as f64).sqrt().sin();
        let a = mc_scalar(1234, 3, 9, f);
        let b = mc_scalar(1234, 3, 9, f);
        assert_eq!(a.mean().to_bits(), b.mean().to_bits());
        assert_eq!(a.variance().to_bits(), b.variance().to_bits());

        let va = mc_vector(333, 3, 9, 4, |s| vec![f(s), f(s ^ 1), f(s ^ 2), f(s ^ 3)]);
        let vb = mc_vector(333, 3, 9, 4, |s| vec![f(s), f(s ^ 1), f(s ^ 2), f(s ^ 3)]);
        for (x, y) in va.std_errs().iter().zip(vb.std_errs()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        // Reps far beyond the cap: several reps per chunk.
        let big_a = mc_scalar(CHUNK_CAP * 5 + 13, 11, 2, f);
        let big_b = mc_scalar(CHUNK_CAP * 5 + 13, 11, 2, f);
        assert_eq!(big_a.mean().to_bits(), big_b.mean().to_bits());
        assert_eq!(big_a.variance().to_bits(), big_b.variance().to_bits());
    }

    #[test]
    fn chunking_covers_all_reps_exactly_once() {
        for reps in [1usize, 2, 255, 256, 257, 1000, 10_000, 1 << 20] {
            let ranges = chunk_ranges(reps);
            assert!(
                ranges.len() <= CHUNK_CAP,
                "reps={reps}: {} chunks",
                ranges.len()
            );
            let mut covered = 0u64;
            let mut prev_end = 0u64;
            for (lo, hi) in ranges {
                assert_eq!(lo, prev_end, "gap at rep {lo}");
                assert!(hi > lo);
                covered += hi - lo;
                prev_end = hi;
            }
            assert_eq!(covered, reps as u64);
        }
    }

    #[test]
    fn empty_runs_return_empty_accumulators() {
        assert_eq!(mc_scalar(0, 1, 2, |_| 1.0), Summary::new());
        let acc = mc_vector(0, 1, 2, 3, |_| vec![1.0; 3]);
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.means(), vec![0.0; 3]);
    }

    #[test]
    fn parallel_equals_sequential_aggregation() {
        let f = |seed: u64| ((seed >> 5) % 97) as f64;
        let par = mc_scalar(1000, 7, 1, f);
        // Sequential reference.
        let mut seq = Summary::new();
        for rep in 0..1000u64 {
            seq.push(f(bnb_distributions::derive_seed(7, 1, rep)));
        }
        assert_eq!(par.count(), seq.count());
        assert!((par.mean() - seq.mean()).abs() < 1e-9);
        assert!((par.variance() - seq.variance()).abs() < 1e-6);
    }
}
