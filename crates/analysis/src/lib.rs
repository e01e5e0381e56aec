//! # bnb-analysis
//!
//! The paper's *analysis*, made executable. Where `bnb-core` implements
//! the protocol and `bnb-experiments` its evaluation, this crate encodes
//! the probabilistic machinery of Section 3 so that each analytical step
//! can be checked against simulation:
//!
//! * [`tail_bounds`] — Chernoff/binomial tail bounds and the
//!   `C(n,k) ≤ (en/k)^k` estimate the proofs lean on,
//! * [`lemma2`] — Lemma 2's closed-form bounds on `|B_s|` (balls probing
//!   only small bins) and the collision count `Y`, plus empirical
//!   estimators of both quantities from real games,
//! * [`theorem1`] — the six-case regime classification of Theorem 1's
//!   proof, as a function of `(n, m, C, C_s)`,
//! * [`layers`] — layered-induction load profiles: the fraction of bins
//!   at load ≥ ℓ, whose doubly-exponential decay is the engine behind
//!   every `ln ln n / ln d` bound,
//! * [`queueing_key`] — the exact stationary law of a small queueing
//!   fleet under a d-choice rule (a power-iterated Markov chain): drop
//!   rate, utilisation, and the sojourn law's mean and quantiles, the
//!   answer key the cluster simulator is tested against.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod layers;
pub mod lemma2;
pub mod queueing_key;
pub mod tail_bounds;
pub mod theorem1;

pub use lemma2::{collision_bound, small_ball_bound, SmallBallStats};
pub use queueing_key::{KeyPolicy, QueueingKey};
pub use theorem1::{classify, Regime};
