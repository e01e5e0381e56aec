//! # bnb-queueing
//!
//! A discrete-event queueing substrate for the *Balls into non-uniform
//! bins* reproduction.
//!
//! The paper insists (§1) that a bin's "capacity" is not a volume limit
//! but *"speed, bandwidth or compression ratio"*. The static game is the
//! snapshot view; the dynamic view is a queueing system: `n` servers
//! where server `i` drains work at rate `c_i`, jobs arrive in a Poisson
//! stream, and the d-choice protocol becomes **JSQ(d)** — join the
//! shortest of `d` sampled queues (Mitzenmacher's supermarket model,
//! generalised to heterogeneous speeds and capacity-proportional
//! sampling).
//!
//! * [`events`] — the pluggable event-scheduler core: the
//!   [`EventScheduler`] trait (earliest-first, FIFO-on-ties determinism
//!   contract), the binary-heap [`EventQueue`] reference implementation,
//!   and the simulation clock — generic over the event payload, so
//!   richer simulators such as `bnb-cluster` reuse it,
//! * [`calendar`] — the [`CalendarQueue`]: a bucketed timing wheel with
//!   dynamic bucket-width resizing and an overflow ladder, the amortised
//!   O(1) general-purpose scheduler of the simulators,
//! * [`lazy`] — the [`LazyBoard`]: slot-keyed lazy deletion for the
//!   at-most-one-event-per-slot workload (O(1) overwrite schedules, a
//!   stale-tolerant candidate ring validated on pop) — the cluster's
//!   fused-loop departure scheduler,
//! * [`server`] — heterogeneous-speed server state with time-integrated
//!   queue-length accounting and optional finite queues with drop
//!   counting,
//! * [`router`] — routing policies (JSQ(d) with the paper's capacity
//!   tie-break, least-work, random),
//! * [`stats`] — always-on scheduler-internals telemetry: the
//!   [`CalendarStats`] block behind the calendar's amortised-O(1)
//!   claim (ring refills/spills, bulk-commit drains, rebuilds,
//!   occupancy-at-rebuild distributions) and the lazy board's
//!   [`LazyStats`],
//! * [`system`] — the simulator: arrivals, departures, metrics.
//!
//! The test-suite verifies textbook laws (M/M/1 mean queue length,
//! stability for ρ < 1, the d=1 → d=2 collapse of the maximum queue,
//! bounded queues and counted drops under overload) so the substrate can
//! be trusted under the extension experiment E6 and the cluster
//! simulator built on top of it.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod calendar;
pub mod events;
pub mod lazy;
pub mod router;
pub mod server;
pub mod stats;
pub mod system;

pub use calendar::CalendarQueue;
pub use events::{EventQueue, EventScheduler};
pub use lazy::LazyBoard;
pub use router::RoutingPolicy;
pub use server::{Admission, Server};
pub use stats::{CalendarStats, LazyStats};
pub use system::{QueueMetrics, QueueSystem, SystemConfig};
