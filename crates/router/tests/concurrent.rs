//! Concurrent reader/writer property test for the epoch-published
//! fleet: serving threads route through cloned [`RouterHandle`]s while
//! the writer publishes churn epochs, and no thread may ever observe a
//! torn mirror — every routed target is a member of the exact published
//! epoch the handle served from, with the speed that slot was created
//! with.
//!
//! Every reader routes once and then meets the writer at a barrier
//! before the writer starts churning, so each case really overlaps
//! routing with publication: without it the writer could publish every
//! epoch and stop the readers before any of them was scheduled.

use bnb_router::{Member, Membership, PlacementSpec, Router, RouterBuilder};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

/// Reader threads per case.
const READERS: usize = 3;

/// Deterministic slot → speed mapping, shared by the initial fleet and
/// every churn joiner: lets readers verify a snapshot's speed column
/// without any cross-thread bookkeeping.
fn speed_of(slot: usize) -> u64 {
    (slot % 3 + 1) as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn readers_never_observe_torn_fleet_state(
        n_servers in 4usize..10,
        churns in 1usize..10,
        seed in 0u64..1_000,
        key_aware in proptest::arbitrary::any::<bool>(),
    ) {
        let speeds: Vec<u64> = (0..n_servers).map(speed_of).collect();
        let spec = if key_aware {
            PlacementSpec::HashThenProbe { d: 2, vnodes: 4 }
        } else {
            PlacementSpec::DChoice { d: 2 }
        };
        let (mut view, handle) = RouterBuilder::new(spec).seed(seed).build(&speeds);
        let stop = Arc::new(AtomicBool::new(false));
        let start = Arc::new(Barrier::new(READERS + 1));

        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let mut h = handle.clone();
                let stop = Arc::clone(&stop);
                let start = Arc::clone(&start);
                thread::spawn(move || {
                    let mut routes = 0u64;
                    let mut key = seed ^ (r as u64) << 32;
                    let mut route_and_check = || {
                        key = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                        let target = h.route(key);
                        // The handle serves from exactly one published
                        // snapshot until its next route(): the target
                        // must be a member of that epoch's membership,
                        // at its creation speed — a torn mirror
                        // (membership of one epoch, speeds of another)
                        // would trip one of these.
                        let snap = h.snapshot();
                        let member = snap
                            .membership()
                            .members()
                            .iter()
                            .find(|m| m.slot == target.index())
                            .unwrap_or_else(|| {
                                panic!(
                                    "epoch {}: routed to slot {} outside the membership",
                                    snap.epoch(),
                                    target.index()
                                )
                            });
                        assert_eq!(member.speed, speed_of(target.index()), "speed column torn");
                        let (_q, s) = bnb_router::LoadView::load(snap, target.index());
                        assert_eq!(s, member.speed, "load mirror speed torn");
                        snap.record_join(target);
                        snap.record_depart(target);
                    };
                    // One route before the churn starts, then the rest
                    // race the writer's publications.
                    route_and_check();
                    routes += 1;
                    start.wait();
                    while routes < 20_000 && !stop.load(Ordering::Relaxed) {
                        route_and_check();
                        routes += 1;
                    }
                    routes
                })
            })
            .collect();

        // The writer: each churn tick retires the lowest alive slot and
        // brings up a fresh one (ids == slots here, strictly increasing,
        // so the incremental ring path is exercised too).
        start.wait();
        for k in 0..churns {
            let mut members: Vec<Member> =
                view.snapshot().membership().members()[1..].to_vec();
            let slot = n_servers + k;
            members.push(Member { slot, id: slot as u64, speed: speed_of(slot) });
            view.publish(Membership::new(members));
            thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|t| t.join().expect("reader panicked")).sum();
        prop_assert!(total > 0, "readers must have routed");
        prop_assert_eq!(view.snapshot().epoch(), churns as u64);
    }
}
