//! `bench-snapshot` — tracked balls/sec measurements for the throw
//! kernel.
//!
//! It writes `BENCH_throw.json`, a machine-readable snapshot of the
//! engine's batched throw path over the grid
//! `n ∈ {1e3, 1e5, 1e6} × d ∈ {1, 2, 4} × {uniform, two-class, Zipf}`
//! capacities, balls/sec per cell, taken in one run on one host.
//!
//! The cluster simulator's end-to-end and per-layer benchmark is
//! `perfbench/` (see `perfbench/README.md`), not this runner.
//!
//! ```text
//! bench-snapshot                       # full grid -> ./BENCH_throw.json
//! bench-snapshot --out t.json
//! bench-snapshot --check               # tiny grid, CI smoke (fails if the
//!                                      # file cannot be produced)
//! ```

use bnb_core::prelude::*;
use bnb_distributions::Xoshiro256PlusPlus;
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

fn usage() -> &'static str {
    "Usage: bench-snapshot [--check] [--out PATH]\n\
     \n\
     Measures balls/sec of the throw kernel over the standard scenario\n\
     grid (-> BENCH_throw.json, in the current directory by default).\n\
     The cluster simulator is benchmarked by perfbench/run.py instead.\n\
     \n\
     Options:\n\
     \x20  --check             tiny grid + short budget: CI smoke that\n\
     \x20                      the snapshot pipeline still produces a\n\
     \x20                      valid file\n\
     \x20  --out PATH          output (./BENCH_throw.json)\n"
}

fn main() -> ExitCode {
    let mut check = false;
    let mut out_path = PathBuf::from("BENCH_throw.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => match args.next() {
                Some(p) => out_path = PathBuf::from(p),
                None => {
                    eprintln!("--out needs a path\n\n{}", usage());
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

    let json = render_json(&cells, mode);
    let written = std::fs::File::create(&out_path)
        .and_then(|mut f| f.write_all(json.as_bytes()).and_then(|()| f.sync_all()));
    if let Err(e) = written {
        eprintln!("failed to write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", out_path.display());
    ExitCode::SUCCESS
}
