//! # bnb-router
//!
//! The placement engine of the *Balls into non-uniform bins*
//! reproduction: the placement policies (the paper's Algorithm 1
//! d-choice, consistent-hash successor, weighted rendezvous,
//! Byers-style hash-then-probe, and two d-choice ablations: speed-blind
//! JSQ and uniform sampling), the per-slot `(jobs_in_system, speed)`
//! load view they compare against, and the memberships they are built
//! over — with **no simulator dependencies** (CI builds this crate
//! standalone to prove it).
//!
//! [`PlacementEngine`] is the policy state machine, generic over any
//! [`LoadView`] (one `(jobs_in_system, speed)` read per candidate
//! slot): the cluster simulator drives it directly against its own
//! fleet records. Its load-aware policies compare candidates through
//! `bnb_core::policy::argmin_distinct`, the one implementation of
//! Algorithm 1's scan.
//!
//! ## Determinism
//!
//! A placement trace is a pure function of `(spec, seed)`: the engine
//! owns two RNG streams derived from its seed (candidate sampling and
//! residual tie-breaks), and the hash ring and rendezvous scores are
//! seeded structures.

pub mod engine;
pub mod spec;
pub mod view;

pub use engine::PlacementEngine;
pub use spec::PlacementSpec;
pub use view::{DenseView, LoadView, Member, Membership};
