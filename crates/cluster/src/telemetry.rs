//! Simulator telemetry: the per-component [`Span`] set threaded
//! through the drive loop, and the end-of-run harvest into a
//! [`MetricsSnapshot`].
//!
//! The spans mirror the per-layer cells of `perfbench` (see
//! `perfbench/README.md`) — arrival sampling, the d-choice compare,
//! the refill of the named-slot block that drives the uniformized
//! departures, fleet bookkeeping on departure — so a chrome://tracing
//! export of one run lines up with the benchmark's layer breakdown.
//! The serial engine has no departure board: its potential departures
//! (about 1/ρ per arrival), the ones that found their server idle and
//! the drain's completions are plain counters in the harvest.
//! Telemetry is **off by default** ([`SimTelemetry::disabled`]): every
//! span entry is then a single predicted branch, and nothing records.
//! On or off, telemetry draws zero RNG values and schedules zero
//! events, so it cannot change a simulation artifact — the
//! differential tests run every scenario with telemetry enabled and
//! require bitwise-identical metrics.

use bnb_telemetry::{MetricsSnapshot, Registry, Span};

/// Chrome://tracing track ids, one per instrumented component.
const TID_ARRIVAL: u32 = 1;
const TID_PLACE: u32 = 2;
const TID_SCHEDULE: u32 = 3;
const TID_DEPART: u32 = 4;

/// The simulator's span set. Owned by `ClusterSim` as a plain field so
/// the drive loop can time one component while borrowing the router
/// and fleet disjointly.
#[derive(Debug)]
pub struct SimTelemetry {
    registry: Registry,
    /// Arrival sampling: one block refill of pre-sampled arrival
    /// times.
    pub(crate) arrival: Span,
    /// Placement: `PlacementEngine::place` plus the request's
    /// `try_join`.
    pub(crate) place: Span,
    /// Departure naming: one refill of the block of 64 pre-sampled
    /// named slots (and, on the lookahead arm, the loads of their
    /// records).
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

    /// Harvests the spans plus the drive loop's own counters (the
    /// arrival, departure, lookahead, fleet admission-pool and latency
    /// store counts, as `(name, value)` pairs) and the thinning
    /// counters into one snapshot.
    pub(crate) fn harvest(
        &self,
        counters: &[(&str, u64)],
        thinning: (u64, u64, u64),
    ) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for &(name, value) in counters {
            snap.add_counter(name, value);
        }
        for span in [&self.arrival, &self.place, &self.schedule, &self.depart] {
            snap.add_span(span);
        }
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
