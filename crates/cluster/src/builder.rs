//! The simulator construction surface: one fluent [`SimBuilder`]
//! carrying the scenario (or explicit spec), the seed, the telemetry
//! registry and the worker count.
//!
//! ```
//! use bnb_cluster::{find_scenario, SimBuilder};
//!
//! let scenario = find_scenario("two-class").unwrap();
//! let metrics = SimBuilder::scenario(scenario, 5_000).seed(42).build().run();
//! assert_eq!(metrics.completed + metrics.dropped, 5_000);
//! ```
//!
//! Adding `.workers(4)` swaps the serial engine for the space-sharded
//! parallel one ([`ShardedClusterSim`]) — a *different* simulator
//! (placement reads a frozen per-epoch view rather than the
//! instantaneous one) whose output is a pure function of
//! `(spec, seed)`, byte-identical under any worker count. It is the
//! sharded engine's only entry point; the cluster benchmark's sharded
//! cells are its one caller, and both go together. Parallel runs
//! elsewhere come from replicas (`cluster-sim sweep --replicas`).

use crate::metrics::ClusterMetrics;
use crate::scenario::Scenario;
use crate::sharded::ShardedClusterSim;
use crate::sim::{ClusterSim, ClusterSpec};
use bnb_telemetry::{MetricsSnapshot, Registry};

/// Where the spec comes from: given directly, or deferred through a
/// scenario recipe (which needs the *final* seed — `zipf` draws its
/// capacity vector from it).
#[derive(Debug, Clone)]
enum Source {
    Spec(ClusterSpec),
    Scenario {
        build: fn(u64, u64) -> ClusterSpec,
        requests: u64,
    },
}

/// Fluent construction of any cluster simulator. See the module docs.
#[derive(Debug, Clone)]
pub struct SimBuilder {
    source: Source,
    seed: u64,
    registry: Option<Registry>,
    workers: Option<usize>,
}

impl SimBuilder {
    /// Starts from an explicit spec. Defaults: seed 0, telemetry off,
    /// serial execution.
    #[must_use]
    pub fn new(spec: ClusterSpec) -> Self {
        SimBuilder {
            source: Source::Spec(spec),
            seed: 0,
            registry: None,
            workers: None,
        }
    }

    /// Starts from a registry scenario at the given request budget. The
    /// spec is materialised at [`SimBuilder::build`] time with the
    /// final seed (scenario recipes may derive fleet parameters from
    /// it).
    #[must_use]
    pub fn scenario(scenario: &Scenario, requests: u64) -> Self {
        SimBuilder {
            source: Source::Scenario {
                build: scenario.build,
                requests,
            },
            seed: 0,
            registry: None,
            workers: None,
        }
    }

    /// Sets the run seed (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables per-component telemetry from a [`Registry`]. Telemetry
    /// is schedule-invisible: it cannot change any simulation artifact.
    /// (The sharded engine's counters are always on, like the serial
    /// engine's scheduler-internals counters; the registry only
    /// switches wall-clock spans, which the sharded engine does not
    /// record.)
    #[must_use]
    pub fn telemetry(mut self, registry: &Registry) -> Self {
        self.registry = Some(*registry);
        self
    }

    /// Runs on the space-sharded parallel engine with `workers` worker
    /// threads. Output is byte-identical under any worker count. Kept
    /// for the cluster benchmark's sharded cells only.
    ///
    /// # Panics
    /// [`SimBuilder::build`] panics if `workers` is zero.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Materialises the spec and constructs the simulator.
    ///
    /// # Panics
    /// Panics if the spec is invalid (same validation as the engines),
    /// if the serial engine gets a server speed above `u32::MAX` (its
    /// fleet records hold a speed in 32 bits), or if `workers(0)` was
    /// requested.
    #[must_use]
    pub fn build(self) -> Sim {
        let spec = match self.source {
            Source::Spec(spec) => spec,
            Source::Scenario { build, requests } => build(self.seed, requests),
        };
        if let Some(workers) = self.workers {
            // The registry is accepted and ignored: sharded telemetry
            // is counters-only and always on (see `telemetry`).
            return Sim::Sharded(Box::new(ShardedClusterSim::new(spec, self.seed, workers)));
        }
        let mut sim = ClusterSim::new(spec, self.seed);
        if let Some(reg) = &self.registry {
            sim.set_telemetry(reg);
        }
        Sim::Serial(Box::new(sim))
    }
}

/// A built simulator, ready to run: the serial engine or the
/// space-sharded parallel engine. One `run`/`telemetry_snapshot`
/// surface over both.
#[derive(Debug)]
pub enum Sim {
    /// The serial engine: one drive loop on the slot-keyed departure
    /// board.
    Serial(Box<ClusterSim>),
    /// The space-sharded parallel engine.
    Sharded(Box<ShardedClusterSim>),
}

impl Sim {
    /// Runs the full request budget and returns the final metrics.
    /// A second call is a no-op returning the same metrics.
    pub fn run(&mut self) -> ClusterMetrics {
        match self {
            Sim::Serial(sim) => sim.run(),
            Sim::Sharded(sim) => sim.run(),
        }
    }

    /// Harvests the run's telemetry snapshot (see the engines' own
    /// `telemetry_snapshot` docs for what each records).
    #[must_use]
    pub fn telemetry_snapshot(&self) -> MetricsSnapshot {
        match self {
            Sim::Serial(sim) => sim.telemetry_snapshot(),
            Sim::Sharded(sim) => sim.telemetry_snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use crate::scenario::find_scenario;
    use bnb_core::CapacityVector;
    use bnb_router::PlacementSpec;

    fn base_spec() -> ClusterSpec {
        let speeds = CapacityVector::two_class(8, 1, 8, 8);
        ClusterSpec {
            arrivals: ArrivalProcess::Poisson {
                rate: 0.8 * speeds.total() as f64,
            },
            speeds,
            placement: PlacementSpec::DChoice { d: 2 },
            queue_capacity: Some(64),
            churn: None,
            requests: 10_000,
        }
    }

    #[test]
    fn builder_scenario_materialises_with_the_final_seed() {
        // `zipf` derives its capacity vector from the seed, so deferred
        // materialisation must see the seed set *after* `scenario()`.
        let sc = find_scenario("zipf").unwrap();
        let a = SimBuilder::scenario(sc, 5_000).seed(9).build().run();
        let b = SimBuilder::new((sc.build)(9, 5_000)).seed(9).build().run();
        assert_eq!(a, b);
    }

    #[test]
    fn builder_workers_selects_the_sharded_engine() {
        let mut sim = SimBuilder::new(base_spec()).seed(7).workers(3).build();
        assert!(matches!(sim, Sim::Sharded(_)));
        let m = sim.run();
        assert_eq!(m.completed + m.dropped, m.requests);
        assert_eq!(m.requests, 10_000);
    }
}
