//! The board engine, kept as a statistical oracle for the uniformized
//! one.
//!
//! This is the drive loop the serial engine ran before uniformization:
//! a server that starts a job draws its service time, Exp(1) / speed
//! from the service stream, and files the departure on a board (here
//! the binary heap). A departure whose server churned out pops stale
//! and only advances the clock; after the last arrival the board drains
//! and the pending churn tick fires as a no-op. The two engines make
//! different draws, so they agree in distribution, not byte for byte.
//!
//! The paired check runs every registry scenario under 30 seeds on both
//! engines. Both see the same arrivals and placement candidates per
//! seed, so each metric is tested by a paired t statistic over the
//! per-seed differences: mean, p50 and p99 latency, drop rate and max
//! normalised queue. The bound was fixed before any run: Student t with
//! 29 degrees of freedom, two-sided, a family-wise α of 0.01
//! Bonferroni-split over the 45 comparisons.

use super::*;
use crate::fleet::Admission;
use crate::scenario::{registry, SMOKE_DIVISOR};
use bnb_queueing::events::EventQueue;

/// Seeds per scenario.
const SEEDS: u64 = 30;

/// Largest request budget per run, scaled down under the debug build
/// (the bound does not depend on it; only the power does).
const MAX_REQUESTS: u64 = if cfg!(debug_assertions) {
    4_000
} else {
    20_000
};

/// The |t| bound: the two-sided 1 − 0.01 / 45 quantile of Student t
/// with 29 degrees of freedom.
const T_BOUND: f64 = 4.215;

/// The compared metrics, in [`compared`]'s order.
const METRICS: [&str; 5] = ["mean", "p50", "p99", "drop", "max_norm_q"];

fn compared(m: &ClusterMetrics) -> [f64; 5] {
    [
        m.latency_mean,
        m.latency[0],
        m.latency[2],
        m.drop_rate(),
        m.max_normalized_queue,
    ]
}

impl ClusterSim {
    /// Runs the budget on the board engine and drains it.
    fn run_on_board(&mut self) -> ClusterMetrics {
        let (horizon, served) = self.drive_board();
        self.finish(horizon, served)
    }

    /// The board loop; returns the horizon and the completions served.
    fn drive_board(&mut self) -> (Time, u64) {
        let requests = self.requests;
        if requests == 0 {
            return (0.0, 0);
        }
        let needs_key = self.router.needs_key();
        let (mut next_churn, churn_interval) = self
            .churn
            .map_or((f64::INFINITY, f64::INFINITY), |c| (c.start, c.interval));
        let mut board: EventQueue<u32> = EventQueue::new();
        let mut served = 0;
        let mut now = 0.0;
        let mut next_arrival = self.arrivals.next_after(now);
        loop {
            let next_departure = board.peek().unwrap_or(f64::INFINITY);
            if next_departure < next_arrival && next_departure <= next_churn {
                let (time, slot) = board.pop().expect("a departure is pending");
                now = time;
                let server = slot as usize;
                if self.fleet.server(server).is_alive() {
                    let (latency, more) = self.fleet.depart(server, now);
                    self.latencies.push(latency);
                    served += 1;
                    if more {
                        let service = self.service.next() * self.fleet.inv_speed_of(server);
                        board.schedule(now + service, slot);
                    }
                }
                continue;
            }
            if next_churn < next_arrival {
                now = next_churn;
                next_churn = if self.arrived < requests {
                    let _ = self.churn_tick();
                    now + churn_interval
                } else {
                    f64::INFINITY
                };
                continue;
            }
            if next_arrival == f64::INFINITY {
                break;
            }
            now = next_arrival;
            self.arrived += 1;
            next_arrival = if self.arrived < requests {
                self.arrivals.next_after(now)
            } else {
                f64::INFINITY
            };
            let key = if needs_key {
                mix64(self.key_seed ^ self.arrived.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            } else {
                0
            };
            let target = self.router.place(&self.fleet, key);
            if self.fleet.try_join(target, now) == Admission::StartedService {
                let service = self.service.next() * self.fleet.inv_speed_of(target);
                board.schedule(now + service, target as u32);
            }
        }
        (now, served)
    }
}

#[test]
fn uniformized_engine_matches_the_board_engine_on_every_scenario() {
    let mut failures = Vec::new();
    let mut worst = 0.0f64;
    for scenario in registry() {
        let requests = (scenario.default_requests / SMOKE_DIVISOR).min(MAX_REQUESTS);
        let diffs: Vec<[f64; 5]> = (0..SEEDS)
            .map(|k| {
                let seed = 0xB0A2_D000 + k;
                let spec = (scenario.build)(seed, requests);
                let uniformized = compared(&ClusterSim::new(spec.clone(), seed).run());
                let board = compared(&ClusterSim::new(spec, seed).run_on_board());
                std::array::from_fn(|i| uniformized[i] - board[i])
            })
            .collect();
        let n = SEEDS as f64;
        let t: [f64; 5] = std::array::from_fn(|i| {
            let mean = diffs.iter().map(|d| d[i]).sum::<f64>() / n;
            let var = diffs.iter().map(|d| (d[i] - mean).powi(2)).sum::<f64>() / (n - 1.0);
            if var == 0.0 {
                // Every seed agreed to the bit, or every seed differed by
                // the same amount: no spread, so any shift is decisive.
                if mean == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                mean / (var / n).sqrt()
            }
        });
        let row: Vec<String> = METRICS
            .iter()
            .zip(t)
            .map(|(name, t)| format!("{name} {t:+.2}"))
            .collect();
        println!("{} ({requests} requests): {}", scenario.id, row.join(", "));
        for (name, t) in METRICS.iter().zip(t) {
            worst = worst.max(t.abs());
            if t.abs() > T_BOUND {
                failures.push(format!("{} {name}: t = {t:.2}", scenario.id));
            }
        }
    }
    println!("max |t| = {worst:.2} (bound {T_BOUND})");
    assert!(
        failures.is_empty(),
        "the engines disagree:\n{}",
        failures.join("\n")
    );
}
