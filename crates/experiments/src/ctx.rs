//! Run-context: the knobs shared by every figure runner.

/// Execution context for figure runners.
///
/// `rep_factor` and `size_factor` scale each figure's *default*
/// repetition count and problem size; the integration tests run with
/// small factors, `--full` runs with `rep_factor` set so that the paper's
/// repetition counts are reached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ctx {
    /// Master seed; every repetition derives its own stream from it.
    pub master_seed: u64,
    /// Multiplier on each figure's default repetition count.
    pub rep_factor: f64,
    /// Multiplier on each figure's problem size (number of bins etc.).
    pub size_factor: f64,
    /// Per-run ball budget: sweep points whose single-run ball count
    /// exceeds this are skipped (relevant only to the exponential-growth
    /// Figure 15, where the paper's largest configuration needs ~10⁹
    /// balls per run).
    pub ball_budget: u64,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            master_seed: 0xB1B5_2024,
            rep_factor: 1.0,
            size_factor: 1.0,
            ball_budget: 3_000_000,
        }
    }
}

impl Ctx {
    /// A context scaled down for fast tests.
    #[must_use]
    pub fn test_scale() -> Self {
        Ctx {
            rep_factor: 0.08,
            size_factor: 0.1,
            ball_budget: 300_000,
            ..Ctx::default()
        }
    }

    /// Applies `rep_factor` to a figure's default repetition count
    /// (at least 2 so standard errors exist).
    #[must_use]
    pub fn reps(&self, default_reps: usize) -> usize {
        ((default_reps as f64 * self.rep_factor).round() as usize).max(2)
    }

    /// Applies `size_factor` to a figure's default size with a floor.
    #[must_use]
    pub fn size(&self, default_size: usize, min_size: usize) -> usize {
        ((default_size as f64 * self.size_factor).round() as usize).max(min_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_factors_are_identity() {
        let ctx = Ctx::default();
        assert_eq!(ctx.reps(100), 100);
        assert_eq!(ctx.size(10_000, 16), 10_000);
    }

    #[test]
    fn scaling_applies_with_floors() {
        let ctx = Ctx {
            rep_factor: 0.01,
            size_factor: 0.001,
            ..Ctx::default()
        };
        assert_eq!(ctx.reps(100), 2);
        assert_eq!(ctx.size(10_000, 64), 64);
    }

    #[test]
    fn test_scale_is_small() {
        let ctx = Ctx::test_scale();
        assert!(ctx.reps(1000) < 100);
        assert!(ctx.size(10_000, 16) <= 1_000);
    }
}
