//! # bnb-distributions
//!
//! Random-variate substrate for the *Balls into non-uniform bins*
//! reproduction.
//!
//! Every simulated ball performs `d` weighted random bin choices, so the
//! weighted samplers here are the hottest code in the whole workspace:
//!
//! * [`AliasTable`] — Walker/Vose alias method; O(n) build, **O(1)**
//!   sample. Used whenever the weight vector is static (all the paper's
//!   proportional-probability games).
//! * [`FenwickSampler`] — Fenwick/BIT prefix-sum sampler; O(log n) sample
//!   **and** O(log n) weight update. Used by dynamic scenarios and as a
//!   differential-testing oracle for the alias method.
//! * [`CumulativeSampler`] — plain prefix-sum table with binary search;
//!   the simplest correct implementation, kept as a second oracle.
//!
//! Deterministic PRNGs ([`SplitMix64`], [`Xoshiro256PlusPlus`]) give
//! byte-for-byte reproducible experiment streams, including a
//! [`SplitMix64`]-based seed-derivation scheme ([`derive_seed`]) that gives
//! every Monte-Carlo repetition its own independent, stable stream.
//!
//! Discrete variates implemented from scratch: [`Binomial`] (the paper's randomised bin sizes
//! `1 + Bin(7, (c−1)/7)` in §4.2), [`Geometric`], and [`Zipf`] for the
//! heavy-tailed capacity extensions. Continuous Exp(1) variates — the
//! service times and arrival gaps of every discrete-event simulator here
//! — come from the 256-layer [`ziggurat`] (exact, one RNG word on the
//! fast path), streamed through [`ExponentialBlock`]; the inverse-CDF
//! [`Exponential`] stays as the statistical oracle.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod alias;
pub mod binomial;
pub mod cumulative;
pub mod exponential;
pub mod fenwick;
pub mod geometric;
pub mod poisson;
pub mod rng;
pub mod sampler;
pub mod ziggurat;
pub mod zipf;

pub use alias::AliasTable;
pub use binomial::Binomial;
pub use cumulative::CumulativeSampler;
pub use exponential::{Exponential, ExponentialBlock};
pub use fenwick::FenwickSampler;
pub use geometric::Geometric;
pub use poisson::Poisson;
pub use rng::{derive_seed, SplitMix64, Xoshiro256PlusPlus};
pub use sampler::WeightedSampler;
pub use zipf::Zipf;
