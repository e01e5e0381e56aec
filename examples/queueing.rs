//! Capacity as *speed*: the queueing reading of the paper's model.
//!
//! Servers of speed 1 and 10 serve Poisson arrivals; the d-choice
//! protocol becomes "join the shortest *normalised* queue". Watch the
//! maximum normalised queue across routing rules and utilisations.
//!
//! ```text
//! cargo run --release --example queueing
//! ```

use balls_into_bins::cluster::{ArrivalProcess, ClusterSpec, PlacementSpec, SimBuilder};
use balls_into_bins::core::CapacityVector;
use balls_into_bins::stats::TextTable;

fn run(rho: f64, placement: PlacementSpec, seed: u64) -> (f64, f64) {
    let speeds = CapacityVector::two_class(100, 1, 100, 10);
    let spec = ClusterSpec {
        arrivals: ArrivalProcess::Poisson {
            rate: rho * speeds.total() as f64,
        },
        speeds,
        placement,
        queue_capacity: None,
        churn: None,
        requests: 300_000,
    };
    let metrics = SimBuilder::new(spec).seed(seed).build().run();
    (metrics.max_normalized_queue, metrics.latency_mean)
}

fn main() {
    println!(
        "200 servers (speeds 1 and 10), Poisson arrivals, Exp(1) work,\n\
         300k arrivals per cell; entries are max(q/c) | mean sojourn:\n"
    );
    let mut table = TextTable::new(vec![
        "rho".into(),
        "d=1 random".into(),
        "d=2 plain JSQ".into(),
        "d=2 normalised JSQ".into(),
    ]);
    for rho in [0.5, 0.7, 0.9, 0.95] {
        let (r1, m1) = run(rho, PlacementSpec::DChoice { d: 1 }, 1);
        let (r2, m2) = run(rho, PlacementSpec::ShortestQueue { d: 2 }, 2);
        let (r3, m3) = run(rho, PlacementSpec::DChoice { d: 2 }, 3);
        table.row(vec![
            format!("{rho:.2}"),
            format!("{r1:.2} | {m1:.2}"),
            format!("{r2:.2} | {m2:.2}"),
            format!("{r3:.2} | {m3:.2}"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Two choices collapse the worst queue; normalising by speed (the\n\
         paper's load notion) additionally protects the slow servers that\n\
         plain JSQ overloads relative to their capacity."
    );
}
