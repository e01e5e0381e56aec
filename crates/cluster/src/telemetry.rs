//! Simulator telemetry: the per-component [`Span`] set threaded
//! through both drive loops, and the end-of-run harvest into a
//! [`MetricsSnapshot`].
//!
//! The spans mirror the per-layer cells of `perfbench` (see
//! `perfbench/README.md`) — arrival sampling, the d-choice compare,
//! departure scheduling, fleet bookkeeping on departure — so a
//! chrome://tracing export of one run lines up with the benchmark's
//! layer breakdown. Telemetry is **off by default**
//! ([`SimTelemetry::disabled`]): every span entry is then a single
//! predicted branch, and nothing records. On or off, telemetry draws
//! zero RNG values and schedules zero events, so it cannot change a
//! simulation artifact — the differential tests run the production
//! loops and the heap oracle with telemetry enabled and require
//! bitwise-identical metrics.

use bnb_queueing::{CalendarStats, LazyStats};
use bnb_telemetry::{MetricsSnapshot, Registry, Span};

/// Chrome://tracing track ids, one per instrumented component.
const TID_ARRIVAL: u32 = 1;
const TID_PLACE: u32 = 2;
const TID_SCHEDULE: u32 = 3;
const TID_DEPART: u32 = 4;

/// The simulator's span set. Owned by `ClusterSim` as a plain field so
/// the drive loops can time one component while borrowing the router,
/// fleet and scheduler disjointly.
#[derive(Debug)]
pub struct SimTelemetry {
    registry: Registry,
    /// Arrival sampling: one block refill in the fused loop, one
    /// `next_after` in the generic loop.
    pub(crate) arrival: Span,
    /// Placement: the d = 2 compare (or generic `place`) plus
    /// `try_join`.
    pub(crate) place: Span,
    /// Departure scheduling: ziggurat service draw + calendar insert.
    pub(crate) schedule: Span,
    /// Departure bookkeeping: `Fleet::depart` + latency record.
    pub(crate) depart: Span,
}

impl SimTelemetry {
    /// The default, inert state: spans that never record.
    #[must_use]
    pub fn disabled() -> Self {
        SimTelemetry::from_registry(&Registry::disabled())
    }

    /// Builds the span set from a registry (enabled or not).
    #[must_use]
    pub fn from_registry(registry: &Registry) -> Self {
        SimTelemetry {
            arrival: registry.span("sim.arrival", TID_ARRIVAL),
            place: registry.span("sim.place", TID_PLACE),
            schedule: registry.span("sim.schedule", TID_SCHEDULE),
            depart: registry.span("sim.depart", TID_DEPART),
            registry: *registry,
        }
    }

    /// Whether the spans record.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled()
    }

    /// Harvests the spans plus the scheduler-internals (calendar and
    /// lazy-board), next-free-bypass, fleet FIFO-spill and thinning
    /// counters into one snapshot.
    pub(crate) fn harvest(
        &self,
        sched: &CalendarStats,
        lazy: &LazyStats,
        next_free_bypasses: u64,
        fifo_spills: u64,
        thinning: (u64, u64, u64),
        arrived: u64,
    ) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.add_counter("sim.arrived", arrived);
        snap.add_counter("sim.next_free_bypass", next_free_bypasses);
        snap.add_counter("fleet.fifo_spills", fifo_spills);
        for span in [&self.arrival, &self.place, &self.schedule, &self.depart] {
            snap.add_span(span);
        }
        sched.record_into(&mut snap);
        lazy.record_into(&mut snap);
        let (accepted, rejected, squeeze) = thinning;
        snap.add_counter("arrivals.thinning_accepted", accepted);
        snap.add_counter("arrivals.thinning_rejected", rejected);
        snap.add_counter("arrivals.squeeze_accepts", squeeze);
        snap
    }
}

impl Default for SimTelemetry {
    fn default() -> Self {
        SimTelemetry::disabled()
    }
}
