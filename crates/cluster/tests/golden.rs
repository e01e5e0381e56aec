//! Golden digests of the serial engine's rendered output.
//!
//! Each digest is a 64-bit FNV-1a hash of `render_table()` plus the
//! plot text of one run, recorded when d = 2 runs without churn took a
//! dedicated fused loop and every other configuration a generic event
//! loop on the calendar queue. The simulator now serves every scenario
//! through one drive loop; these digests keep the old cross-check
//! between the two loops alive: any change to the trace of any
//! scenario — RNG draw order, tie-breaking, churn timing, stale-event
//! handling — moves a digest.
//!
//! Covered: every registry scenario at the differential tests' request
//! budget and two seeds, a d = 2 spec with churn (a combination no
//! registry scenario has), and the placements no registry scenario runs
//! end to end: every d-choice family at d > 2 on the serial engine, and
//! the sharded engine's stateless placement.
//!
//! The rendered table rounds to 6 decimals, so a last-bit change in a
//! quantile or the mean would pass it. A second table pins the same
//! runs by the bits of every `ClusterMetrics` field.

use bnb_cluster::{
    registry, ArrivalProcess, ChurnConfig, ClusterMetrics, ClusterSpec, PlacementSpec, SimBuilder,
    SMOKE_DIVISOR,
};
use bnb_core::CapacityVector;
use bnb_hashring::hash::mix64;

/// FNV-1a over the bytes, finished with `mix64` so nearby texts spread
/// over the whole word.
fn digest(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in text.as_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h)
}

fn rendered_digest(m: &ClusterMetrics) -> u64 {
    digest(&(m.render_table() + &m.to_series_set("golden", "golden").to_plot_text()))
}

/// FNV-1a over the bits of every field, in declaration order.
fn bits_digest(m: &ClusterMetrics) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for x in [
        m.requests,
        m.completed,
        m.dropped,
        m.orphaned,
        m.joins,
        m.leaves,
    ] {
        eat(x);
    }
    eat(m.horizon.to_bits());
    m.latency.iter().for_each(|x| eat(x.to_bits()));
    eat(m.latency_mean.to_bits());
    eat(m.max_queue_len);
    eat(m.max_normalized_queue.to_bits());
    for v in [
        &m.per_server_completed,
        &m.per_server_max_queue,
        &m.per_server_speed,
    ] {
        v.iter().for_each(|&x| eat(x));
    }
    mix64(h)
}

fn run(spec: ClusterSpec, seed: u64) -> ClusterMetrics {
    SimBuilder::new(spec).seed(seed).build().run()
}

/// `(scenario id, seed, digest)`.
const REGISTRY_GOLDEN: &[(&str, u64, u64)] = &[
    ("uniform", 0xCA1E, 0x41fe9a716ba9ba5f),
    ("uniform", 0xF0_5ED, 0x937f289effaf4c81),
    ("two-class", 0xCA1E, 0x5c4981546e0a493f),
    ("two-class", 0xF0_5ED, 0x782af891854d8d08),
    ("zipf", 0xCA1E, 0x760aadac52e22877),
    ("zipf", 0xF0_5ED, 0x46fbf83a38ceed03),
    ("flash-crowd", 0xCA1E, 0x329dd821dd3d203d),
    ("flash-crowd", 0xF0_5ED, 0x517bd8061e99c708),
    ("diurnal", 0xCA1E, 0xf581449159c3a6fc),
    ("diurnal", 0xF0_5ED, 0x63752f0f3a29ca80),
    ("churny-p2p", 0xCA1E, 0xe8b9e6bb59463ec0),
    ("churny-p2p", 0xF0_5ED, 0x1bc1db9c9e58efc6),
    ("giant", 0xCA1E, 0xf0b9a64397a14afd),
    ("giant", 0xF0_5ED, 0x327ab3f985d3c0f5),
    ("successor", 0xCA1E, 0x3767e1e852c66fd4),
    ("successor", 0xF0_5ED, 0xa179108cfad35194),
    ("rendezvous", 0xCA1E, 0x3a59aa24001cb3f3),
    ("rendezvous", 0xF0_5ED, 0x7838320fbc5fca2a),
];

/// `(scenario id, seed, bits digest)`, same runs as [`REGISTRY_GOLDEN`].
const REGISTRY_BITS: &[(&str, u64, u64)] = &[
    ("uniform", 0xCA1E, 0xbd52d9b87cf05885),
    ("uniform", 0xF0_5ED, 0xf6d9da2d18f061b3),
    ("two-class", 0xCA1E, 0x1efa0bfdb1acd612),
    ("two-class", 0xF0_5ED, 0xaef47a2e550598ce),
    ("zipf", 0xCA1E, 0xb147d3374e9cb843),
    ("zipf", 0xF0_5ED, 0xd1c4dfae3f26e689),
    ("flash-crowd", 0xCA1E, 0xc4a2b1e44d5cf385),
    ("flash-crowd", 0xF0_5ED, 0x9b8eb99fbc73bd4a),
    ("diurnal", 0xCA1E, 0x3036f716641458a2),
    ("diurnal", 0xF0_5ED, 0x6a5830a5bafa1152),
    ("churny-p2p", 0xCA1E, 0xf235ef0168dad057),
    ("churny-p2p", 0xF0_5ED, 0x8754e2ab46423672),
    ("giant", 0xCA1E, 0x2387ca274b2356dd),
    ("giant", 0xF0_5ED, 0xec4d1313d6c92afd),
    ("successor", 0xCA1E, 0x04645f3cadd81d61),
    ("successor", 0xF0_5ED, 0xf40829356f7dfeb5),
    ("rendezvous", 0xCA1E, 0xcdb6a1850ae4cb56),
    ("rendezvous", 0xF0_5ED, 0x2d8d51cd83e00a5a),
];

/// Runs every registry scenario at the golden budget and both seeds;
/// returns a ready-to-paste table line for each run whose `digest`
/// differs from `table`'s.
fn registry_mismatches(
    table: &[(&str, u64, u64)],
    digest: fn(&ClusterMetrics) -> u64,
) -> Vec<String> {
    let mut mismatches = Vec::new();
    let mut checked = 0;
    for scenario in registry() {
        let requests = (scenario.default_requests / SMOKE_DIVISOR).min(5_000);
        for seed in [0xCA1E, 0xF0_5ED] {
            let got = digest(&run((scenario.build)(seed, requests), seed));
            let want = table
                .iter()
                .find(|(id, s, _)| *id == scenario.id && *s == seed)
                .map(|&(_, _, d)| d);
            if want != Some(got) {
                mismatches.push(format!("(\"{}\", {seed:#x}, {got:#018x}),", scenario.id));
            }
            checked += 1;
        }
    }
    assert_eq!(checked, table.len(), "one digest per scenario and seed");
    mismatches
}

#[test]
fn registry_scenarios_match_their_golden_digests() {
    let mismatches = registry_mismatches(REGISTRY_GOLDEN, rendered_digest);
    assert!(
        mismatches.is_empty(),
        "rendered output moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn registry_scenarios_match_their_full_precision_digests() {
    let mismatches = registry_mismatches(REGISTRY_BITS, bits_digest);
    assert!(
        mismatches.is_empty(),
        "metric bits moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn d2_with_churn_matches_its_golden_digest() {
    // `sim.rs`'s `conservation_with_churn` spec.
    let speeds = CapacityVector::two_class(8, 1, 8, 8);
    let spec = ClusterSpec {
        arrivals: ArrivalProcess::Poisson {
            rate: 0.8 * speeds.total() as f64,
        },
        speeds,
        placement: PlacementSpec::DChoice { d: 2 },
        queue_capacity: Some(64),
        churn: Some(ChurnConfig {
            start: 5.0,
            interval: 10.0,
        }),
        requests: 30_000,
    };
    let m = run(spec, 9);
    assert_eq!(rendered_digest(&m), 0x78ba0a43ffca0d98);
    assert_eq!(bits_digest(&m), 0x71782b02a1581f14);
}

/// A 16-server two-class fleet at ρ = 0.8 under `placement`: short
/// queues and two speeds, so candidate sets often tie on normalised
/// load and on speed, and the residual tie draw runs.
fn pinned_spec(placement: PlacementSpec, churn: bool) -> ClusterSpec {
    let speeds = CapacityVector::two_class(8, 1, 8, 8);
    ClusterSpec {
        arrivals: ArrivalProcess::Poisson {
            rate: 0.8 * speeds.total() as f64,
        },
        speeds,
        placement,
        queue_capacity: Some(64),
        churn: churn.then_some(ChurnConfig {
            start: 5.0,
            interval: 10.0,
        }),
        requests: 20_000,
    }
}

/// `(placement, churn, sharded with one worker, bits digest)`.
const PLACEMENT_BITS: &[(PlacementSpec, bool, bool, u64)] = &[
    (
        PlacementSpec::DChoice { d: 3 },
        false,
        false,
        0x950933391bc54678,
    ),
    (
        PlacementSpec::DChoice { d: 4 },
        true,
        false,
        0x58771e4b61f1b4b9,
    ),
    (
        PlacementSpec::UniformDChoice { d: 3 },
        false,
        false,
        0x455899f79d1ff63c,
    ),
    (
        PlacementSpec::ShortestQueue { d: 3 },
        true,
        false,
        0x5b4f7186dcdeaad9,
    ),
    (
        PlacementSpec::HashThenProbe { d: 3, vnodes: 4 },
        true,
        false,
        0x5c709bb3bed2c6f4,
    ),
    (
        PlacementSpec::DChoice { d: 2 },
        false,
        true,
        0x22fa485b2dc86275,
    ),
    (
        PlacementSpec::DChoice { d: 3 },
        true,
        true,
        0x875993cb07641962,
    ),
    (
        PlacementSpec::HashThenProbe { d: 3, vnodes: 4 },
        false,
        true,
        0xd727c0b3f506e279,
    ),
];

#[test]
fn wide_and_stateless_placements_match_their_golden_digests() {
    let mut mismatches = Vec::new();
    for &(placement, churn, sharded, want) in PLACEMENT_BITS {
        let mut builder = SimBuilder::new(pinned_spec(placement, churn)).seed(0x5EED);
        if sharded {
            builder = builder.workers(1);
        }
        let got = bits_digest(&builder.build().run());
        if got != want {
            mismatches.push(format!("{placement:?}, {churn}, {sharded}: {got:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "metric bits moved:\n{}",
        mismatches.join("\n")
    );
}
