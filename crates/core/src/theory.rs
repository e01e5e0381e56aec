//! Closed-form bounds from the paper, for paper-vs-measured comparisons.
//!
//! These functions return the *leading terms* of the asymptotic results;
//! the `O(1)` slack is a parameter so tests can state exactly which
//! additive constant was assumed.

/// `ln ln n` (clamped: returns 0 for `n ≤ e` where the iterated log is
/// undefined or negative).
#[must_use]
pub fn ln_ln(n: f64) -> f64 {
    if n <= std::f64::consts::E {
        0.0
    } else {
        n.ln().ln()
    }
}

/// Theorem 3's bound on the maximum load for `m = C` balls into `n`
/// heterogeneous bins with `d ≥ 2` choices:
/// `ln ln n / ln d + slack`.
///
/// # Panics
/// Panics if `d < 2`.
#[must_use]
pub fn theorem3_bound(n: usize, d: usize, slack: f64) -> f64 {
    assert!(d >= 2, "theorem 3 requires d >= 2");
    ln_ln(n as f64) / (d as f64).ln() + slack
}

/// Observation 2's prediction for `n` uniform bins of capacity `c` with
/// `m` balls: `(m/n + ln ln n) / c`.
///
/// The paper's simulations (§4.1) report the maximum load lying "very
/// close to `1 + ln ln n / c`" for `m = C = c·n` and `c ≥ 2`; this
/// function generalises that to any `m`.
#[must_use]
pub fn observation2_prediction(m: u64, n: usize, c: u64) -> f64 {
    (m as f64 / n as f64 + ln_ln(n as f64)) / c as f64
}

/// The classic Azar et al. bound for the standard game (`m = n`, unit
/// bins): `ln ln n / ln d + Θ(1)`; identical leading term to
/// [`theorem3_bound`], provided for readability at call sites that talk
/// about the *standard* game.
#[must_use]
pub fn azar_bound(n: usize, d: usize, slack: f64) -> f64 {
    theorem3_bound(n, d, slack)
}

/// Theorem 5 / Corollary 1: with `m = k·n·c̄` balls into `n` bins of
/// capacity `c̄ ∈ Ω(ln ln n)`, the maximum load is `k + O(1)`. Returns
/// `k + slack`.
#[must_use]
pub fn corollary1_bound(k: f64, slack: f64) -> f64 {
    k + slack
}

/// The paper's "big bin" threshold `r · ln n` (Observation 1 requires
/// capacity ≥ r·ln n for the constant-load guarantee).
#[must_use]
pub fn big_bin_threshold(n: usize, r: f64) -> f64 {
    r * (n as f64).ln()
}

/// Observation 1's load ceiling for big bins: 4 (with probability
/// `1 − n^−k` for suitable `r`). Exposed as a named constant so tests
/// document which bound they check.
pub const OBSERVATION1_BIG_BIN_LOAD: f64 = 4.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_ln_values() {
        assert_eq!(ln_ln(1.0), 0.0);
        assert_eq!(ln_ln(2.0), 0.0);
        assert!((ln_ln(10_000.0) - (10_000.0f64).ln().ln()).abs() < 1e-12);
        assert!(ln_ln(10_000.0) > 2.0 && ln_ln(10_000.0) < 2.5);
    }

    #[test]
    fn theorem3_monotone_in_n_and_d() {
        let slack = 1.0;
        assert!(theorem3_bound(1_000_000, 2, slack) > theorem3_bound(1_000, 2, slack));
        assert!(theorem3_bound(10_000, 2, slack) > theorem3_bound(10_000, 4, slack));
    }

    #[test]
    fn observation2_for_m_equals_c() {
        // m = c*n => m/n = c => prediction = 1 + lnln(n)/c.
        let n = 10_000;
        for c in [1u64, 2, 3, 4, 8] {
            let pred = observation2_prediction(c * n as u64, n, c);
            let expected = 1.0 + ln_ln(n as f64) / c as f64;
            assert!((pred - expected).abs() < 1e-12, "c={c}");
        }
    }

    #[test]
    fn observation2_decreases_with_capacity() {
        let n = 10_000;
        let p2 = observation2_prediction(2 * n as u64, n, 2);
        let p8 = observation2_prediction(8 * n as u64, n, 8);
        assert!(p8 < p2);
    }

    #[test]
    fn big_bin_threshold_scales() {
        assert!((big_bin_threshold(10_000, 1.0) - (10_000f64).ln()).abs() < 1e-12);
        assert!(big_bin_threshold(100, 2.0) > big_bin_threshold(100, 1.0));
    }

    #[test]
    fn corollary1_is_k_plus_slack() {
        assert_eq!(corollary1_bound(3.0, 1.5), 4.5);
    }

    #[test]
    #[should_panic(expected = "requires d >= 2")]
    fn theorem3_rejects_d1() {
        let _ = theorem3_bound(100, 1, 0.0);
    }
}
