//! # balls-into-bins
//!
//! Facade crate for the reproduction of *Balls into non-uniform bins*
//! (Berenbrink, Brinkmann, Friedetzky, Nagel; IPDPS 2010 / JPDC 2014).
//!
//! Re-exports the workspace crates under stable names:
//!
//! * [`core`] — the model: capacities, exact loads, Algorithm 1 and the
//!   baseline policies, the simulation engine, slot vectors,
//!   majorisation, growth models, theory bounds.
//! * [`distributions`] — PRNGs and weighted samplers (alias, Fenwick,
//!   cumulative) plus binomial/geometric/Zipf variates.
//! * [`hashring`] — the consistent-hashing substrate: rings, arcs, the
//!   Byers et al. d-point game, Chord finger tables.
//! * [`queueing`] — event schedulers: the lazy departure board the
//!   sharded cluster engine runs on, the calendar queue, the heap
//!   oracle. The serial engine uses none of them: its departures are
//!   uniformized.
//! * [`router`] — the placement engine: Algorithm 1 and the other
//!   placement policies behind one
//!   [`PlacementEngine`](bnb_router::PlacementEngine), generic over any
//!   per-slot load view.
//! * [`cluster`] — the heterogeneous-cluster simulator: paper-faithful
//!   traffic served end to end through `bnb-router` placement, with
//!   churn; built through [`SimBuilder`](bnb_cluster::SimBuilder);
//!   drives the `cluster-sim` CLI.
//! * [`stats`] — summaries, histograms, series, chi-square, CSV/tables.
//! * [`telemetry`] — zero-overhead-when-off counters, log₂ histograms,
//!   sampled spans, chrome://tracing and Prometheus export.
//! * [`experiments`] — runners for all 18 paper figures and the `repro`
//!   CLI.
//!
//! The [`prelude`] pulls the entry points of all of them into one
//! namespace.
//!
//! ## Quick start
//!
//! ```
//! use balls_into_bins::core::prelude::*;
//!
//! // 100 bins, half capacity 1 and half capacity 10; m = C balls;
//! // d = 2 choices proportional to capacity; Algorithm 1 allocation.
//! let caps = CapacityVector::two_class(50, 1, 50, 10);
//! let bins = run_game(&caps, caps.total(), &GameConfig::default(), 42);
//! assert_eq!(bins.total_balls(), caps.total());
//! assert!(bins.max_load().as_f64() < 4.0); // ln ln n / ln 2 + O(1)
//! ```

#![deny(missing_docs)]

pub use bnb_analysis as analysis;
pub use bnb_cluster as cluster;
pub use bnb_core as core;
pub use bnb_distributions as distributions;
pub use bnb_experiments as experiments;
pub use bnb_hashring as hashring;
pub use bnb_queueing as queueing;
pub use bnb_router as router;
pub use bnb_stats as stats;
pub use bnb_telemetry as telemetry;

/// One-stop namespace over the whole workspace: the core model's
/// prelude plus the queueing, hash-ring and cluster entry points, which
/// the per-crate facades alone leave invisible.
///
/// ```
/// use balls_into_bins::prelude::*;
///
/// // The abstract game and the running system, side by side.
/// let caps = CapacityVector::two_class(50, 1, 50, 10);
/// let bins = run_game(&caps, caps.total(), &GameConfig::default(), 42);
/// assert_eq!(bins.total_balls(), caps.total());
///
/// let scenario = find_scenario("two-class").unwrap();
/// let metrics = SimBuilder::scenario(scenario, 2_000).seed(42).build().run();
/// assert_eq!(metrics.completed + metrics.dropped, 2_000);
/// ```
pub mod prelude {
    pub use bnb_cluster::{
        find_scenario, Admission, ArrivalProcess, ArrivalSampler, ChurnConfig, ClusterMetrics,
        ClusterServer, ClusterSim, ClusterSpec, Fleet, ReplicaAccumulator, Scenario, Sim,
        SimBuilder,
    };
    pub use bnb_core::prelude::*;
    pub use bnb_hashring::{
        ByersGame, ChordOverlay, ChurnSimulator, HashRing, MembershipRing, Rendezvous,
    };
    pub use bnb_queueing::{EventQueue, EventScheduler};
    pub use bnb_router::{LoadView, Member, Membership, PlacementEngine, PlacementSpec};
}
