//! # bnb-router
//!
//! The placement **data plane** of the *Balls into non-uniform bins*
//! reproduction, as an embeddable library: the four placement policies
//! (the paper's Algorithm 1 d-choice, consistent-hash successor,
//! weighted rendezvous, and Byers-style hash-then-probe), the per-slot
//! `(jobs_in_system, speed)` load view they compare against, and the
//! radix-successor hash ring — behind one [`Router`] trait a live load
//! balancer can program against, with **no simulator dependencies**
//! (CI builds this crate standalone to prove it).
//!
//! Three layers, composable top to bottom:
//!
//! * [`Router`] / [`RouterHandle`] / [`RouterBuilder`] — the concurrent
//!   embedding: clone a handle per serving thread, `route` never
//!   blocks, churn arrives as published epochs.
//! * [`FleetView`] / [`FleetReader`] / [`FleetSnapshot`] — epoch-
//!   published fleet state: one writer appends immutable membership
//!   snapshots to a lock-free chain; readers advance with one atomic
//!   load; per-slot job counters are relaxed atomics (approximate under
//!   concurrency, never torn).
//! * [`PlacementEngine`] — the bare policy state machine, generic over
//!   any [`LoadView`]: the cluster simulator drives it directly against
//!   its own fleet records, which is how simulation and serving share
//!   one placement code path byte for byte.
//!
//! Telemetry is opt-in ([`RouterBuilder::telemetry`]): each handle
//! times `route` (sampled) and epoch refreshes (unsampled), and the
//! fleet carries shared [`RouterCounters`] over every `record_join` /
//! `record_depart` — all `bnb-telemetry` instruments, one predicted
//! branch per route when off. Harvest with
//! [`RouterHandle::telemetry_snapshot`].
//!
//! ## Embedding the router
//!
//! ```
//! use bnb_router::{PlacementSpec, Router, RouterBuilder};
//!
//! // A 4-server fleet, two slow and two fast; Algorithm 1 placement.
//! let (mut view, handle) = RouterBuilder::new(PlacementSpec::DChoice { d: 2 })
//!     .seed(42)
//!     .build(&[1, 1, 8, 8]);
//!
//! // One handle clone per serving thread; each routes on its own RNG
//! // stream against the same published fleet state.
//! let mut worker = handle.clone();
//! let target = worker.route(0);
//! worker.snapshot().record_join(target);
//! // ... dispatch to `target`; when the request completes:
//! worker.snapshot().record_depart(target);
//!
//! // Churn: the control plane publishes a new membership; readers pick
//! // it up on their next route() without blocking.
//! use bnb_router::{Member, Membership};
//! let mut members: Vec<Member> = view.snapshot().membership().members().to_vec();
//! members.push(Member { slot: 4, id: 4, speed: 8 }); // a joiner
//! view.publish(Membership::new(members));
//! ```
//!
//! ## Determinism
//!
//! A routing trace is a pure function of `(spec, seed, stream)`: every
//! handle owns derived RNG streams (candidate sampling and residual
//! tie-breaks), clones take fresh stream indices, and the hash ring and
//! rendezvous scores are seeded structures. Stream 0 is what the
//! cluster simulator consumes, so a simulated trace and an embedded
//! single-handle trace over the same fleet agree byte for byte — the
//! simulator's registry-wide differential tests pin exactly that.

pub mod builder;
pub mod engine;
pub mod kernel;
pub mod spec;
pub mod telemetry;
pub mod view;

pub use builder::{RouterBuilder, RouterHandle};
pub use engine::PlacementEngine;
pub use kernel::ScanScratch;
pub use spec::PlacementSpec;
pub use telemetry::RouterCounters;
pub use view::{
    DenseView, FleetReader, FleetSnapshot, FleetView, LoadView, Member, Membership, ServerId,
};

/// The routing interface a serving thread programs against: hand in a
/// request key, get back the server to dispatch to.
///
/// Implementations own whatever randomness and derived structures the
/// policy needs (hence `&mut self`); they are cheap to clone into one
/// instance per thread rather than shared behind a lock.
pub trait Router {
    /// Whether this policy reads the request key at all (Algorithm 1
    /// d-choice is key-oblivious, so callers can skip hashing one).
    fn needs_key(&self) -> bool;

    /// Routes a request with hash `key` to a server of the current
    /// membership.
    fn route(&mut self, key: u64) -> ServerId;

    /// Routes a batch of keys, appending one target per key to `out`
    /// (cleared first). The default simply loops [`Router::route`];
    /// implementations may amortise refresh checks or candidate
    /// sampling across the batch.
    fn route_many(&mut self, keys: &[u64], out: &mut Vec<ServerId>) {
        out.clear();
        out.reserve(keys.len());
        out.extend(keys.iter().map(|&k| self.route(k)));
    }
}
