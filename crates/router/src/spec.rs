//! Placement policy specifications: which family routes requests, with
//! which parameters.

/// Which placement policy routes arriving requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementSpec {
    /// d-choice over non-uniform capacities: candidates proportional to
    /// speed, join the smallest post-join normalised queue (Algorithm 1).
    DChoice {
        /// Candidates per request, `1..=MAX_D`.
        d: usize,
    },
    /// Speed-blind JSQ(d): candidates proportional to speed, join the
    /// one with the fewest jobs in system; ties uniform over distinct
    /// candidates.
    ShortestQueue {
        /// Candidates per request, `1..=MAX_D`.
        d: usize,
    },
    /// Algorithm 1's compare over candidates drawn uniformly, ignoring
    /// speed when sampling.
    UniformDChoice {
        /// Candidates per request, `1..=MAX_D`.
        d: usize,
    },
    /// Consistent-hash successor placement (load-oblivious).
    ConsistentHash {
        /// Virtual nodes per server on the ring.
        vnodes: usize,
    },
    /// Weighted rendezvous (highest-random-weight) placement.
    Rendezvous,
    /// Byers-style hybrid: hash to `d` ring points, join the successor
    /// with the fewest jobs in system.
    HashThenProbe {
        /// Probe points per request, `1..=MAX_D`.
        d: usize,
        /// Virtual nodes per server on the ring.
        vnodes: usize,
    },
}

impl PlacementSpec {
    /// Short stable name, used in metrics output.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            PlacementSpec::DChoice { .. } => "d-choice",
            PlacementSpec::ShortestQueue { .. } => "shortest-queue",
            PlacementSpec::UniformDChoice { .. } => "uniform-d-choice",
            PlacementSpec::ConsistentHash { .. } => "consistent-hash",
            PlacementSpec::Rendezvous => "rendezvous",
            PlacementSpec::HashThenProbe { .. } => "hash-then-probe",
        }
    }

    /// This spec with its probe count replaced by `d`, where the policy
    /// has one (the d-choice families and `HashThenProbe`); the
    /// load-oblivious policies are returned unchanged. This is how the
    /// d-sweep runner varies `d` across a scenario without rebuilding
    /// its traffic recipe.
    #[must_use]
    pub fn with_d(self, d: usize) -> Self {
        match self {
            PlacementSpec::DChoice { .. } => PlacementSpec::DChoice { d },
            PlacementSpec::ShortestQueue { .. } => PlacementSpec::ShortestQueue { d },
            PlacementSpec::UniformDChoice { .. } => PlacementSpec::UniformDChoice { d },
            PlacementSpec::HashThenProbe { vnodes, .. } => {
                PlacementSpec::HashThenProbe { d, vnodes }
            }
            other => other,
        }
    }

    /// Whether [`PlacementSpec::with_d`] actually varies this policy.
    #[must_use]
    pub fn has_d(&self) -> bool {
        !matches!(
            self,
            PlacementSpec::ConsistentHash { .. } | PlacementSpec::Rendezvous
        )
    }
}
