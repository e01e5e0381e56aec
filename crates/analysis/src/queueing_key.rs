//! An exact answer key for small queueing fleets.
//!
//! The cluster simulator reads Algorithm 1 dynamically: Poisson arrivals
//! at rate λ, each placed by a d-choice rule on a fleet of servers that
//! serve at Exp(speed) with at most `cap` jobs each. On a small fleet
//! that system is a finite continuous-time Markov chain, so its
//! stationary law, and every metric the simulator reports, can be
//! computed exactly:
//!
//! * **States** are queue-length vectors with each `q_i ≤ cap`:
//!   `(cap + 1)ⁿ` of them.
//! * **Arrivals.** The rule draws a d-tuple with replacement, in
//!   proportion to speed (or uniformly, for
//!   [`KeyPolicy::UniformDChoice`]), and every tuple is enumerated with
//!   its probability. Duplicates collapse, and the rule's key picks the
//!   winner: the post-join load `(q + 1) / s`, compared by
//!   cross-multiplication, then the faster server
//!   ([`KeyPolicy::DChoice`] and [`KeyPolicy::UniformDChoice`]), or the
//!   fewest jobs ([`KeyPolicy::ShortestQueue`]); a residual tie splits
//!   uniformly over the distinct tied servers. If the winner is full,
//!   the job is dropped.
//! * **Departures.** Server i leaves its state at rate `s_i` while
//!   `q_i > 0`.
//!
//! [`QueueingKey::solve`] finds the stationary law π by power iteration
//! on the uniformized chain, to an L1 step below `1e-13`, and derives:
//!
//! * the drop probability (arrivals see time averages, PASTA);
//! * per-server utilisation `P(q_i > 0)`;
//! * the mean sojourn of an admitted job, by Little's law;
//! * the exact sojourn law. Service is FIFO and exponential, so a job
//!   admitted to server i behind `q_i` others stays Erlang(`q_i + 1`,
//!   `s_i`). The law is the mixture of those Erlangs over the states and
//!   servers admitted arrivals see, which gives exact quantiles.
//!
//! The key shares no code with the simulator it checks.

use std::collections::BTreeMap;

/// The placement rule an arrival follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyPolicy {
    /// Algorithm 1: candidates in proportion to speed, smallest
    /// post-join normalised queue, then the faster server.
    DChoice,
    /// Algorithm 1's compare over candidates drawn uniformly.
    UniformDChoice,
    /// Speed-blind join-the-shortest-queue over candidates in
    /// proportion to speed.
    ShortestQueue,
}

/// The names of [`QueueingKey::metrics`], in order.
pub const KEY_METRICS: [&str; 5] = ["drop", "mean", "p50", "p90", "p99"];

/// Largest state space [`QueueingKey::solve`] accepts.
const MAX_STATES: usize = 1 << 16;

/// Largest number of candidate tuples per state it enumerates.
const MAX_TUPLES: usize = 1 << 12;

/// Power-iteration budget; a chain that has not converged by then
/// panics.
const MAX_ITERATIONS: usize = 10_000_000;

/// The L1 step between iterates at which the power iteration stops.
const TOLERANCE: f64 = 1e-13;

/// The exact stationary metrics of one small queueing fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueingKey {
    /// Probability that an arrival is dropped at a full queue.
    pub drop: f64,
    /// Per-server probability of being busy.
    pub utilisation: Vec<f64>,
    /// Mean sojourn time of an admitted job, by Little's law.
    pub mean_sojourn: f64,
    /// The sojourn law: `(phases, rate, weight)` Erlang components,
    /// weights summing to one.
    sojourn: Vec<(u32, f64, f64)>,
}

impl QueueingKey {
    /// Solves the fleet with server `speeds`, at most `cap` jobs per
    /// server, Poisson arrivals at rate `lambda` and `d` candidates per
    /// arrival under `policy`.
    ///
    /// # Panics
    /// Panics if the fleet is empty, a speed or `cap` or `d` is zero,
    /// `lambda` is not positive and finite, the chain has more than
    /// 65536 states or 4096 candidate tuples, or the power iteration
    /// does not converge.
    #[must_use]
    pub fn solve(speeds: &[u64], cap: u32, lambda: f64, d: usize, policy: KeyPolicy) -> Self {
        let n = speeds.len();
        assert!(n > 0, "the fleet needs a server");
        assert!(speeds.iter().all(|&s| s > 0), "speeds must be positive");
        assert!(cap > 0 && d > 0, "cap and d must be positive");
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "lambda must be positive"
        );
        let radix = cap as usize + 1;
        let states = radix
            .checked_pow(n as u32)
            .filter(|&s| s <= MAX_STATES)
            .expect("too many states");
        assert!(
            n.checked_pow(d as u32).is_some_and(|t| t <= MAX_TUPLES),
            "too many candidate tuples"
        );
        let weights: Vec<f64> = speeds
            .iter()
            .map(|&s| match policy {
                KeyPolicy::UniformDChoice => 1.0,
                KeyPolicy::DChoice | KeyPolicy::ShortestQueue => s as f64,
            })
            .collect();
        let total_weight: f64 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|w| w / total_weight).collect();

        // Per state: where an arrival goes, and the chain's transitions.
        let mut routes = vec![0.0; states * n];
        let mut transitions: Vec<(u32, u32, f64)> = Vec::new();
        let mut exit = vec![0.0; states];
        let mut q = vec![0u32; n];
        for x in 0..states {
            decode(x, radix, &mut q);
            let route = &mut routes[x * n..(x + 1) * n];
            arrival_route(&q, speeds, &probs, d, policy, route);
            let mut stride = 1;
            for i in 0..n {
                if q[i] < cap && route[i] > 0.0 {
                    let rate = lambda * route[i];
                    transitions.push((x as u32, (x + stride) as u32, rate));
                    exit[x] += rate;
                }
                if q[i] > 0 {
                    let rate = speeds[i] as f64;
                    transitions.push((x as u32, (x - stride) as u32, rate));
                    exit[x] += rate;
                }
                stride *= radix;
            }
        }

        // Power iteration on the uniformized chain P = I + Q / Λ.
        let uniform_rate = lambda + speeds.iter().sum::<u64>() as f64;
        let mut pi = vec![1.0 / states as f64; states];
        let mut next = vec![0.0; states];
        for iteration in 0.. {
            assert!(
                iteration < MAX_ITERATIONS,
                "power iteration did not converge"
            );
            for (slot, (&p, &e)) in next.iter_mut().zip(pi.iter().zip(&exit)) {
                *slot = p * (1.0 - e / uniform_rate);
            }
            for &(from, to, rate) in &transitions {
                next[to as usize] += pi[from as usize] * rate / uniform_rate;
            }
            let mass: f64 = next.iter().sum();
            let mut step = 0.0;
            for (p, &v) in pi.iter_mut().zip(&next) {
                let v = v / mass;
                step += (v - *p).abs();
                *p = v;
            }
            if step < TOLERANCE {
                break;
            }
        }

        let mut drop = 0.0;
        let mut utilisation = vec![0.0; n];
        let mut jobs = 0.0;
        let mut mixture: BTreeMap<(u32, u64), f64> = BTreeMap::new();
        for (x, &p) in pi.iter().enumerate() {
            decode(x, radix, &mut q);
            for i in 0..n {
                let route = routes[x * n + i];
                if q[i] == cap {
                    drop += p * route;
                } else if route > 0.0 {
                    *mixture.entry((q[i] + 1, speeds[i])).or_insert(0.0) += p * route;
                }
                if q[i] > 0 {
                    utilisation[i] += p;
                }
                jobs += p * f64::from(q[i]);
            }
        }
        let admitted = 1.0 - drop;
        QueueingKey {
            drop,
            utilisation,
            mean_sojourn: jobs / (lambda * admitted),
            sojourn: mixture
                .into_iter()
                .map(|((k, s), w)| (k, s as f64, w / admitted))
                .collect(),
        }
    }

    /// `P(sojourn ≤ t)` for an admitted job.
    #[must_use]
    pub fn sojourn_cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        self.sojourn
            .iter()
            .map(|&(k, rate, w)| w * erlang_cdf(k, rate, t))
            .sum()
    }

    /// The `p`-quantile of the sojourn law, by bisection on
    /// [`QueueingKey::sojourn_cdf`].
    ///
    /// # Panics
    /// Panics unless `0 < p < 1`.
    #[must_use]
    pub fn sojourn_quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile level must lie in (0, 1)");
        let mut hi = 1.0;
        while self.sojourn_cdf(hi) < p {
            hi *= 2.0;
        }
        let mut lo = 0.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.sojourn_cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo <= 1e-15 * hi {
                break;
            }
        }
        hi
    }

    /// The mean of the sojourn law: `Σ w · k / s`. It equals
    /// [`QueueingKey::mean_sojourn`], which Little's law computes from π
    /// directly.
    #[must_use]
    pub fn mixture_mean(&self) -> f64 {
        self.sojourn
            .iter()
            .map(|&(k, rate, w)| w * f64::from(k) / rate)
            .sum()
    }

    /// `[drop, mean sojourn, p50, p90, p99]`, named by [`KEY_METRICS`].
    #[must_use]
    pub fn metrics(&self) -> [f64; 5] {
        [
            self.drop,
            self.mean_sojourn,
            self.sojourn_quantile(0.50),
            self.sojourn_quantile(0.90),
            self.sojourn_quantile(0.99),
        ]
    }
}

/// Queue lengths of state `x`, base `radix`, server 0 least significant.
fn decode(mut x: usize, radix: usize, q: &mut [u32]) {
    for qi in q {
        *qi = (x % radix) as u32;
        x /= radix;
    }
}

/// Fills `route[i]` with the probability that an arrival in state `q`
/// picks server i (full or not): every d-tuple drawn with replacement
/// from `probs`, deduplicated, won by the rule's key, residual ties
/// split evenly.
fn arrival_route(
    q: &[u32],
    speeds: &[u64],
    probs: &[f64],
    d: usize,
    policy: KeyPolicy,
    route: &mut [f64],
) {
    let n = q.len();
    route.fill(0.0);
    // `a` beats `b` (Less), ties it (Equal) or loses (Greater).
    let cmp = |a: usize, b: usize| match policy {
        KeyPolicy::DChoice | KeyPolicy::UniformDChoice => {
            let lhs = u128::from(q[a] + 1) * u128::from(speeds[b]);
            let rhs = u128::from(q[b] + 1) * u128::from(speeds[a]);
            lhs.cmp(&rhs).then(speeds[b].cmp(&speeds[a]))
        }
        KeyPolicy::ShortestQueue => q[a].cmp(&q[b]),
    };
    let mut tuple = vec![0usize; d];
    let mut winners: Vec<usize> = Vec::with_capacity(d);
    loop {
        let p: f64 = tuple.iter().map(|&i| probs[i]).product();
        winners.clear();
        for &c in &tuple {
            if winners.contains(&c) {
                continue;
            }
            match winners.first().map(|&w| cmp(c, w)) {
                None | Some(std::cmp::Ordering::Equal) => winners.push(c),
                Some(std::cmp::Ordering::Less) => {
                    winners.clear();
                    winners.push(c);
                }
                Some(std::cmp::Ordering::Greater) => {}
            }
        }
        // A loser seen before the winner cannot tie it, so `winners`
        // holds every distinct candidate with the minimal key.
        let share = p / winners.len() as f64;
        for &w in &winners {
            route[w] += share;
        }
        // Next tuple, odometer style.
        let mut k = 0;
        loop {
            if k == d {
                return;
            }
            tuple[k] += 1;
            if tuple[k] < n {
                break;
            }
            tuple[k] = 0;
            k += 1;
        }
    }
}

/// `P(Erlang(k, rate) ≤ t)`.
fn erlang_cdf(k: u32, rate: f64, t: f64) -> f64 {
    let x = rate * t;
    let mut term = 1.0;
    let mut below = 1.0;
    for j in 1..k {
        term *= x / f64::from(j);
        below += term;
    }
    1.0 - (-x).exp() * below
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICIES: [KeyPolicy; 3] = [
        KeyPolicy::DChoice,
        KeyPolicy::UniformDChoice,
        KeyPolicy::ShortestQueue,
    ];

    #[test]
    fn one_server_reduces_to_mm1k() {
        // M/M/1/K with μ = 2, K = 4, λ = 1.5: π_j ∝ ρ^j, an arrival is
        // dropped with probability π_K, and one that sees j jobs stays
        // Erlang(j + 1, μ).
        let (mu, k, lambda) = (2.0, 4u32, 1.5);
        let rho: f64 = lambda / mu;
        let norm: f64 = (0..=k).map(|j| rho.powi(j as i32)).sum();
        let pi: Vec<f64> = (0..=k).map(|j| rho.powi(j as i32) / norm).collect();
        let drop = pi[k as usize];
        let jobs: f64 = pi.iter().enumerate().map(|(j, p)| j as f64 * p).sum();
        let mean = jobs / (lambda * (1.0 - drop));
        for policy in POLICIES {
            for d in 1..=3 {
                let key = QueueingKey::solve(&[2], k, lambda, d, policy);
                assert!((key.drop - drop).abs() < 1e-12, "{policy:?} d={d}");
                assert!((key.utilisation[0] - (1.0 - pi[0])).abs() < 1e-12);
                assert!((key.mean_sojourn - mean).abs() < 1e-12);
                let cdf = |t: f64| -> f64 {
                    (0..k)
                        .map(|j| pi[j as usize] * erlang_cdf(j + 1, mu, t))
                        .sum::<f64>()
                        / (1.0 - drop)
                };
                for t in [0.1, 0.5, 1.0, 3.0] {
                    assert!((key.sojourn_cdf(t) - cdf(t)).abs() < 1e-12, "t = {t}");
                }
            }
        }
    }

    #[test]
    fn mixture_mean_equals_littles_law_mean() {
        // Two routes to the mean sojourn: Little's law over π, and the
        // first moment of the Erlang mixture admitted arrivals see.
        for policy in POLICIES {
            for d in 1..=3 {
                for (speeds, cap, lambda) in [
                    (&[1u64, 1, 2, 4][..], 3, 7.2),
                    (&[1, 2, 2, 3, 5][..], 2, 10.4),
                    (&[3, 1][..], 6, 2.0),
                ] {
                    let key = QueueingKey::solve(speeds, cap, lambda, d, policy);
                    let mixture = key.mixture_mean();
                    assert!(
                        (mixture - key.mean_sojourn).abs() < 1e-10 * key.mean_sojourn,
                        "{policy:?} d={d} {speeds:?}: mixture {mixture} vs Little {}",
                        key.mean_sojourn
                    );
                    let (p50, p99) = (key.sojourn_quantile(0.5), key.sojourn_quantile(0.99));
                    assert!((key.sojourn_cdf(p50) - 0.5).abs() < 1e-12);
                    assert!(p50 < p99);
                }
            }
        }
    }

    #[test]
    fn recorded_fleet_matches_its_recorded_values() {
        // Speeds (1, 1, 2, 4), cap 3, λ = 7.2 (ρ = 0.9), d = 2 under
        // Algorithm 1, as recorded to six decimals by an independent
        // solver of the same chain.
        let key = QueueingKey::solve(&[1, 1, 2, 4], 3, 7.2, 2, KeyPolicy::DChoice);
        let want = [0.250534, 0.683191, 0.505369, 1.446045, 3.250715];
        for ((name, got), want) in KEY_METRICS.iter().zip(key.metrics()).zip(want) {
            assert!((got - want).abs() < 5e-7, "{name}: {got} vs {want}");
        }
        for (got, want) in key
            .utilisation
            .iter()
            .zip([0.316331, 0.316331, 0.695211, 0.843268])
        {
            assert!((got - want).abs() < 5e-7, "utilisation {got} vs {want}");
        }
    }

    #[test]
    fn capacity_tie_break_and_sampling_law_move_the_key() {
        // The key must tell the rules apart on a mixed fleet: each
        // ingredient of Algorithm 1 moves the exact drop rate.
        let solve = |policy| QueueingKey::solve(&[1, 1, 2, 4], 3, 7.2, 2, policy).drop;
        let algorithm1 = solve(KeyPolicy::DChoice);
        assert!((solve(KeyPolicy::UniformDChoice) - algorithm1).abs() > 0.01);
        assert!((solve(KeyPolicy::ShortestQueue) - algorithm1).abs() > 0.01);
    }
}
