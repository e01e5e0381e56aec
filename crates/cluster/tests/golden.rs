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
//! budget and two seeds, plus a d = 2 spec with churn (a combination no
//! registry scenario has).

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

fn rendered_digest(spec: ClusterSpec, seed: u64) -> u64 {
    let m: ClusterMetrics = SimBuilder::new(spec).seed(seed).build().run();
    digest(&(m.render_table() + &m.to_series_set("golden", "golden").to_plot_text()))
}

/// `(scenario id, seed, digest)`.
const REGISTRY_GOLDEN: &[(&str, u64, u64)] = &[
    ("uniform", 0xCA1E, 0x53d1ee7925774093),
    ("uniform", 0xF0_5ED, 0x8e44d31e1bff87b0),
    ("two-class", 0xCA1E, 0x889e268a53a7fc3b),
    ("two-class", 0xF0_5ED, 0x3781fe85b2aea78e),
    ("zipf", 0xCA1E, 0xf80deffa2a3f4443),
    ("zipf", 0xF0_5ED, 0x6f8fd678748d8e33),
    ("flash-crowd", 0xCA1E, 0x1eb2131020e730c2),
    ("flash-crowd", 0xF0_5ED, 0xa5d6589a8cc63a25),
    ("diurnal", 0xCA1E, 0x500ec8311dcdf077),
    ("diurnal", 0xF0_5ED, 0x3139ad9eaed85fff),
    ("churny-p2p", 0xCA1E, 0x80c8b91a071fb8cc),
    ("churny-p2p", 0xF0_5ED, 0x9ce5e35f43e3582a),
    ("giant", 0xCA1E, 0x47ea950115a09047),
    ("giant", 0xF0_5ED, 0x9e2e2f0cb8a63060),
    ("successor", 0xCA1E, 0xea6cc25d9f844c51),
    ("successor", 0xF0_5ED, 0x289e1054449c6842),
    ("rendezvous", 0xCA1E, 0xa3ddd4f12d538a81),
    ("rendezvous", 0xF0_5ED, 0x01ad8511e9053494),
];

#[test]
fn registry_scenarios_match_their_golden_digests() {
    let mut mismatches = Vec::new();
    let mut checked = 0;
    for scenario in registry() {
        let requests = (scenario.default_requests / SMOKE_DIVISOR).min(5_000);
        for seed in [0xCA1E, 0xF0_5ED] {
            let got = rendered_digest((scenario.build)(seed, requests), seed);
            let want = REGISTRY_GOLDEN
                .iter()
                .find(|(id, s, _)| *id == scenario.id && *s == seed)
                .map(|&(_, _, d)| d);
            if want != Some(got) {
                mismatches.push(format!("(\"{}\", {seed:#x}, {got:#018x}),", scenario.id));
            }
            checked += 1;
        }
    }
    assert!(
        mismatches.is_empty(),
        "rendered output moved:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(
        checked,
        REGISTRY_GOLDEN.len(),
        "one digest per scenario and seed"
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
    assert_eq!(rendered_digest(spec, 9), 0x74fcfd04159f0de9);
}
