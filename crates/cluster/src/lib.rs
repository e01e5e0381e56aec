//! # bnb-cluster
//!
//! A discrete-event **heterogeneous-cluster simulator** that serves
//! paper-faithful traffic end to end — the systems view of *Balls into
//! non-uniform bins*.
//!
//! The paper's motivation (§1) is that real systems present non-uniform
//! bins: Chord-style P2P overlays where peers own unequal arcs, and
//! server fleets where machines differ in "speed, bandwidth or
//! compression ratio". The leaf crates each hold one piece of that
//! story — `bnb-hashring` the placement geometry, `bnb-core` the
//! abstract allocation game, `bnb-queueing` the event schedulers. This
//! crate wires them into one running system, the workspace's one
//! queueing simulator:
//!
//! * [`arrivals`] — Poisson, flash-crowd and ramped-diurnal request
//!   processes, generated by the batched [`ArrivalSampler`] on a
//!   dedicated RNG stream,
//! * [`fleet`] — heterogeneous finite-queue servers with latency
//!   bookkeeping and churn, one 32-byte record per server (speed,
//!   counters and the ends of its job list) that placement reads and
//!   joins write, and a fleet-wide pool holding the admission time of
//!   every job in the system, the one in service first,
//! * placement — pluggable routing, served by the standalone
//!   [`bnb_router`] placement engine and re-exported here as
//!   [`PlacementEngine`] and [`PlacementSpec`]: the paper's d-choice
//!   Algorithm 1 over non-uniform capacities (block pre-sampled
//!   candidates), consistent-hash successor placement, weighted
//!   rendezvous, the Byers-style hash-then-probe hybrid, and the
//!   plain-JSQ and uniform-sampling d-choice ablations of extension E6,
//!   driven over the fleet's per-server records (the [`Fleet`]
//!   implements [`bnb_router::LoadView`]),
//! * [`sim`] — the deterministic serial engine: one drive loop for
//!   every placement policy, arrival process and churn schedule, with
//!   **uniformized departures** and no departure board — one Poisson
//!   stream of potential departures at the fleet's total speed, each
//!   naming a slot in proportion to its speed and completing its head
//!   job if it is busy, about 1/ρ of them per arrival — merged with
//!   arrivals and churn ticks as scalar registers; after the last
//!   arrival each busy server drains its own queue. Ring placements are
//!   rebalanced incrementally through
//!   [`bnb_hashring::churn::MembershipRing`] on each churn tick,
//! * [`sharded`] — the space-sharded parallel engine: the fleet split
//!   into contiguous slot ranges across worker threads, placement
//!   routed against a frozen per-epoch load view, cross-shard joins
//!   exchanged at epoch boundaries, per-shard reports merged in shard
//!   order — byte-identical output under any worker count. It is
//!   reachable only through [`SimBuilder::workers`], which the cluster
//!   benchmark's sharded cells call, and is slated for removal,
//! * [`builder`] — the unified [`SimBuilder`] construction surface
//!   over all of the above (scenario or spec, seed, telemetry),
//! * [`metrics`] — latency quantiles (a radix histogram kept during
//!   the run, one compaction pass and selects at its end, no sort),
//!   per-server peaks and drop rates, rendered through `bnb-stats`,
//! * [`scenario`] — the registry of named workloads behind the
//!   `cluster-sim` CLI (`crates/experiments/src/bin/cluster_sim.rs`),
//! * [`sweep`] — replica aggregation ([`ReplicaAccumulator`], a
//!   [`bnb_stats::Mergeable`]) behind the `cluster-sim sweep` replica
//!   d-sweep runner,
//! * [`telemetry`] — the per-component [`bnb_telemetry`] span set
//!   threaded through the drive loop (off by default, one predicted
//!   branch per component when off) and the end-of-run harvest of the
//!   departure counters (potential, idle and drain departures) and
//!   thinning counters.
//!
//! Every run is a pure function of `(scenario, seed)`: randomness flows
//! through dedicated derived streams (arrivals, service, named slots,
//! placement, tie-breaks, churn), so the same seed replays the
//! identical trace, byte for byte, on any thread count. The serial
//! engine is checked in law, not in bytes, against an exact answer key
//! for small fleets and against the departure-board engine it replaced.
//!
//! ```
//! use bnb_cluster::{find_scenario, SimBuilder};
//!
//! let scenario = find_scenario("two-class").unwrap();
//! let metrics = SimBuilder::scenario(scenario, 5_000).seed(42).build().run();
//! assert_eq!(metrics.completed + metrics.dropped, 5_000);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod arrivals;
pub mod builder;
pub mod fleet;
pub mod metrics;
pub mod scenario;
pub mod sharded;
pub mod sim;
pub mod sweep;
pub mod telemetry;

pub use arrivals::{ArrivalProcess, ArrivalSampler};
pub use bnb_router::{PlacementEngine, PlacementSpec};
pub use builder::{Sim, SimBuilder};
pub use fleet::{Admission, ClusterServer, Fleet};
pub use metrics::ClusterMetrics;
pub use scenario::{find_scenario, registry, Scenario, SMOKE_DIVISOR};
pub use sim::{ChurnConfig, ClusterSim, ClusterSpec};
pub use sweep::ReplicaAccumulator;
pub use telemetry::SimTelemetry;
