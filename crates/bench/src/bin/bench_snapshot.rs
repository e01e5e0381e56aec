//! `bench-snapshot` — tracked balls/sec measurements for the throw
//! kernel, and routed placements/sec for the router data plane.
//!
//! It writes machine-readable snapshots of two measurements, each taken
//! in one run on one host:
//!
//! * `BENCH_throw.json` — the engine's batched throw path over the grid
//!   `n ∈ {1e3, 1e5, 1e6} × d ∈ {1, 2, 4} × {uniform, two-class, Zipf}`
//!   capacities, balls/sec per cell;
//! * `BENCH_router.json` — routed placements/sec of the embeddable
//!   `bnb-router` data plane under contention: 1–32 cloned
//!   `RouterHandle`s routing d-choice d = 2 against one shared
//!   epoch-published `FleetView`, next to the bare in-simulator
//!   placement path measured in the same run.
//!
//! The cluster simulator's end-to-end and per-layer benchmark is
//! `perfbench/` (see `perfbench/README.md`), not this runner.
//!
//! ```text
//! bench-snapshot                       # full grids -> ./BENCH_throw.json
//!                                      #             + ./BENCH_router.json
//! bench-snapshot --out t.json --router-out r.json
//! bench-snapshot --check               # tiny grids, CI smoke (fails if a
//!                                      # file cannot be produced)
//! ```

use bnb_core::prelude::*;
use bnb_distributions::Xoshiro256PlusPlus;
use bnb_router::{LoadView, Membership, PlacementSpec, Router, RouterBuilder, RouterHandle};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Throughput of one grid cell.
struct Cell {
    scenario: &'static str,
    n: usize,
    d: usize,
    balls_thrown: u64,
    elapsed: Duration,
    balls_per_sec: f64,
}

/// Routed placements/sec of one router-contention cell.
struct RouterCell {
    threads: usize,
    routes_per_iter: u64,
    total_routes: u64,
    elapsed: Duration,
    routes_per_sec: f64,
}

/// Provenance note embedded in the router snapshot. `sim_path` is the
/// reference the `--floor` gate compares against (see
/// [`measure_sim_path`]).
const ROUTER_BASELINE_NOTE: &str = "sim_path is the bare PlacementEngine placing against a \
     plain dense load mirror -- the exact shape ClusterSim drives single-threaded -- \
     measured in the same run, same host, same estimator. The 1-thread routed cell pays \
     the embeddable surface (epoch refresh + Arc snapshot + atomic queue counters) and is \
     gated at --floor x sim_path. The bench host exposes a single core, so multi-thread \
     cells measure contention overhead under oversubscription, not parallel scaling";

/// The standard router-bench fleet: the two-class 64-server shape of
/// the `two-class` cluster scenario (32 x speed 1, 32 x speed 8).
fn router_fleet_speeds() -> Vec<u64> {
    (0..64).map(|i| if i < 32 { 1 } else { 8 }).collect()
}

/// The in-simulator reference path: a bare `PlacementEngine` placing
/// against a plain (non-atomic) dense load mirror, single-threaded on
/// RNG stream 0 — no epoch pointer, no `Arc`, no atomics. This is the
/// hot call `ClusterSim` makes per request, so the gap between this
/// rate and the 1-thread routed cell is exactly the cost of the
/// embeddable `Router` surface.
fn measure_sim_path(routes: u64, budget: Duration) -> f64 {
    struct Mirror {
        loads: Vec<(u64, u64)>,
    }
    impl LoadView for Mirror {
        fn load(&self, slot: usize) -> (u64, u64) {
            self.loads[slot]
        }
    }
    let speeds = router_fleet_speeds();
    let membership = Membership::from_speeds(&speeds);
    let mut mirror = Mirror {
        loads: speeds.iter().map(|&s| (0u64, s)).collect(),
    };
    let mut engine = RouterBuilder::new(PlacementSpec::DChoice { d: 2 })
        .seed(bnb_bench::BENCH_SEED)
        .build_engine(&membership);
    let mut iter = || {
        let mut acc = 0usize;
        for _ in 0..routes {
            let target = engine.place(&mirror, 0);
            mirror.loads[target].0 += 1;
            mirror.loads[target].0 -= 1;
            acc ^= target;
        }
        std::hint::black_box(acc);
    };
    iter();
    let mut best = 0.0f64;
    let start = Instant::now();
    loop {
        let run_start = Instant::now();
        iter();
        best = best.max(routes as f64 / run_start.elapsed().as_secs_f64());
        if start.elapsed() >= budget {
            break;
        }
    }
    best
}

/// Times one contention cell: `threads` cloned `RouterHandle`s routing
/// concurrently against one shared `FleetView`, each route followed by
/// the join/depart pair an embedder records (so the atomic queue
/// counters are exercised, not just read). Best single iteration within
/// the budget, same estimator as [`measure_sim_path`]. The 1-thread
/// cell routes on the calling thread, as [`measure_sim_path`] does, so
/// the `--floor` ratio compares the two paths and not a thread spawn
/// and join per iteration.
fn measure_router(threads: usize, routes_per_thread: u64, budget: Duration) -> RouterCell {
    let speeds = router_fleet_speeds();
    let (_view, handle) = RouterBuilder::new(PlacementSpec::DChoice { d: 2 })
        .seed(bnb_bench::BENCH_SEED)
        .build(&speeds);
    let routes_per_iter = routes_per_thread * threads as u64;
    let work = |mut h: RouterHandle| {
        let mut acc = 0usize;
        for i in 0..routes_per_thread {
            let target = h.route(i);
            acc ^= target.index();
            let snap = h.snapshot();
            snap.record_join(target);
            snap.record_depart(target);
        }
        std::hint::black_box(acc);
    };
    let iter = || {
        if threads == 1 {
            work(handle.clone());
            return;
        }
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    let h = handle.clone();
                    s.spawn(move || work(h))
                })
                .collect();
            for w in workers {
                w.join().expect("router bench worker panicked");
            }
        });
    };
    iter();
    let mut total = 0u64;
    let mut best = 0.0f64;
    let start = Instant::now();
    loop {
        let run_start = Instant::now();
        iter();
        best = best.max(routes_per_iter as f64 / run_start.elapsed().as_secs_f64());
        total += routes_per_iter;
        if start.elapsed() >= budget {
            break;
        }
    }
    RouterCell {
        threads,
        routes_per_iter,
        total_routes: total,
        elapsed: start.elapsed(),
        routes_per_sec: best,
    }
}

/// Builds the capacity vector for a named scenario. The capacity RNG is
/// seeded per (scenario, n) so every run times identical bin layouts.
fn capacities(scenario: &str, n: usize) -> CapacityVector {
    match scenario {
        "uniform" => CapacityVector::uniform(n, 4),
        "two_class" => CapacityVector::two_class(n / 2, 1, n - n / 2, 8),
        "zipf" => {
            let mut rng = Xoshiro256PlusPlus::from_u64_seed(bnb_bench::BENCH_SEED ^ n as u64);
            CapacityVector::zipf(n, 64, 1.1, &mut rng)
        }
        other => unreachable!("unknown scenario {other}"),
    }
}

/// Times the batched throw path on one grid cell: repeated batches of
/// `n` balls into a fresh (reset) bin array until the budget elapses.
fn measure(scenario: &'static str, n: usize, d: usize, budget: Duration) -> Cell {
    let caps = capacities(scenario, n);
    let config = GameConfig::with_d(d);
    let mut game = config.build(&caps, bnb_bench::BENCH_SEED);
    let batch = n as u64;
    // Warm-up batch: pulls the table and bins into cache, pays the lazy
    // page faults, and is excluded from timing.
    game.throw_many(batch);
    game.reset();
    let mut thrown = 0u64;
    let start = Instant::now();
    loop {
        game.throw_many(batch);
        game.reset();
        thrown += batch;
        if start.elapsed() >= budget {
            break;
        }
    }
    let elapsed = start.elapsed();
    Cell {
        scenario,
        n,
        d,
        balls_thrown: thrown,
        elapsed,
        balls_per_sec: thrown as f64 / elapsed.as_secs_f64(),
    }
}

fn json_escape_free(s: &str) -> &str {
    // Scenario names and modes are static identifiers; assert rather
    // than implement a general JSON string escaper.
    debug_assert!(s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
    s
}

fn render_json(cells: &[Cell], mode: &str) -> String {
    let generated = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", json_escape_free(mode)));
    out.push_str(&format!("  \"generated_unix_secs\": {generated},\n"));
    out.push_str(&format!("  \"seed\": {},\n", bnb_bench::BENCH_SEED));
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"n\": {}, \"d\": {}, \
             \"balls_per_sec\": {:.4e}, \"balls_thrown\": {}, \
             \"elapsed_secs\": {:.4}}}{}\n",
            json_escape_free(c.scenario),
            c.n,
            c.d,
            c.balls_per_sec,
            c.balls_thrown,
            c.elapsed.as_secs_f64(),
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn render_router_json(cells: &[RouterCell], sim_path_routes_per_sec: f64, mode: &str) -> String {
    let generated = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", json_escape_free(mode)));
    out.push_str(&format!("  \"generated_unix_secs\": {generated},\n"));
    out.push_str(&format!("  \"seed\": {},\n", bnb_bench::BENCH_SEED));
    out.push_str("  \"fleet\": \"two_class_64\",\n");
    out.push_str("  \"spec\": \"d_choice_d2\",\n");
    out.push_str(&format!(
        "  \"sim_path_routes_per_sec\": {sim_path_routes_per_sec:.4e},\n"
    ));
    out.push_str(&format!(
        "  \"baseline_note\": \"{ROUTER_BASELINE_NOTE}\",\n"
    ));
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"routes_per_iter\": {}, \
             \"routes_per_sec\": {:.4e}, \"routes_total\": {}, \
             \"elapsed_secs\": {:.4}, \"ratio_vs_sim_path\": {:.3}}}{}\n",
            c.threads,
            c.routes_per_iter,
            c.routes_per_sec,
            c.total_routes,
            c.elapsed.as_secs_f64(),
            c.routes_per_sec / sim_path_routes_per_sec,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn usage() -> &'static str {
    "Usage: bench-snapshot [--check] [--floor RATIO] [--out PATH] [--router-out PATH]\n\
     \n\
     Measures balls/sec of the throw kernel over the standard scenario\n\
     grid (-> BENCH_throw.json) and routed placements/sec of the\n\
     bnb-router data plane under 1-32 thread contention\n\
     (-> BENCH_router.json), in the current directory by default. The\n\
     cluster simulator is benchmarked by perfbench/run.py instead.\n\
     \n\
     Options:\n\
     \x20  --check             tiny grids + short budget: CI smoke that\n\
     \x20                      the snapshot pipeline still produces valid\n\
     \x20                      files\n\
     \x20  --floor RATIO       perf-regression gate: fail if the 1-thread\n\
     \x20                      router cell falls below RATIO x the\n\
     \x20                      in-simulator placement path (use a\n\
     \x20                      generous ratio, e.g. 0.25 — the gate is\n\
     \x20                      meant to catch debug-build-scale\n\
     \x20                      regressions without flaking on shared\n\
     \x20                      runners)\n\
     \x20  --out PATH          throw-kernel output (./BENCH_throw.json)\n\
     \x20  --router-out PATH   router output (./BENCH_router.json)\n"
}

fn main() -> ExitCode {
    let mut check = false;
    let mut floor: Option<f64> = None;
    let mut out_path = PathBuf::from("BENCH_throw.json");
    let mut router_out_path = PathBuf::from("BENCH_router.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--floor" => match args.next().map(|v| v.parse::<f64>()) {
                Some(Ok(r)) if r > 0.0 && r.is_finite() => floor = Some(r),
                Some(Ok(r)) => {
                    eprintln!("--floor must be a positive ratio, got {r}\n\n{}", usage());
                    return ExitCode::from(2);
                }
                Some(Err(e)) => {
                    eprintln!("bad --floor value: {e}\n\n{}", usage());
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("--floor needs a ratio\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--out" => match args.next() {
                Some(p) => out_path = PathBuf::from(p),
                None => {
                    eprintln!("--out needs a path\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--router-out" => match args.next() {
                Some(p) => router_out_path = PathBuf::from(p),
                None => {
                    eprintln!("--router-out needs a path\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown option '{other}'\n\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let (ns, ds, budget, mode): (&[usize], &[usize], Duration, &str) = if check {
        (&[1_000], &[1, 2], Duration::from_millis(30), "check")
    } else {
        (
            &[1_000, 100_000, 1_000_000],
            &[1, 2, 4],
            Duration::from_millis(400),
            "full",
        )
    };

    let mut cells = Vec::new();
    for scenario in ["uniform", "two_class", "zipf"] {
        for &n in ns {
            for &d in ds {
                let cell = measure(scenario, n, d, budget);
                println!(
                    "{:<10} n={:<8} d={}  {:>10.3e} balls/s",
                    cell.scenario, cell.n, cell.d, cell.balls_per_sec,
                );
                cells.push(cell);
            }
        }
    }

    // The router contention grid: the same fleet shape, routed through
    // 1-32 cloned handles over one epoch-published view, next to the
    // bare in-simulator placement path measured in the same window.
    let (router_routes_per_thread, router_budget) = if check {
        (2_000u64, Duration::from_millis(30))
    } else {
        (100_000u64, Duration::from_millis(400))
    };
    let sim_path = measure_sim_path(router_routes_per_thread, router_budget);
    println!("router/sim_path (bare engine)   {sim_path:>10.3e} routes/s");
    let mut router_cells = Vec::new();
    for &threads in &[1usize, 2, 4, 8, 16, 32] {
        let cell = measure_router(threads, router_routes_per_thread, router_budget);
        println!(
            "router/threads={:<2}  {:>10.3e} routes/s  ({:.2}x vs sim path)",
            cell.threads,
            cell.routes_per_sec,
            cell.routes_per_sec / sim_path,
        );
        router_cells.push(cell);
    }

    // The perf floor: the 1-thread router cell must clear
    // `ratio × sim_path` (the embeddable surface may cost something, but
    // never 4x). The ratio is generous by design — the gate exists to
    // catch structural regressions (a debug build, an accidentally
    // quadratic path), not to arbitrate benchmark noise.
    if let Some(ratio) = floor {
        let mut failed = false;
        if let Some(single) = router_cells.iter().find(|c| c.threads == 1) {
            let min = ratio * sim_path;
            if single.routes_per_sec < min {
                eprintln!(
                    "FLOOR VIOLATION: router/threads=1 measured {:.3e} routes/s, \
                     below {ratio} x sim path {sim_path:.3e} = {min:.3e}",
                    single.routes_per_sec
                );
                failed = true;
            }
        }
        if failed {
            eprintln!(
                "bench floor gate failed — the routed path lost more than \
                 {:.0}% against the bare placement path (debug build? \
                 pathological regression?)",
                (1.0 - ratio) * 100.0
            );
            return ExitCode::FAILURE;
        }
        println!("floor gate passed: router/threads=1 >= {ratio} x the sim path");
    }

    let write_file = |path: &PathBuf, json: &str| {
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(json.as_bytes()).and_then(|()| f.sync_all()))
    };
    for (path, json) in [
        (&out_path, render_json(&cells, mode)),
        (
            &router_out_path,
            render_router_json(&router_cells, sim_path, mode),
        ),
    ] {
        match write_file(path, &json) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
