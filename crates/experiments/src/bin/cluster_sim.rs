//! `cluster-sim` — run named heterogeneous-cluster scenarios end to end.
//!
//! ```text
//! cluster-sim --list
//! cluster-sim --scenario two-class
//! cluster-sim --scenario flash-crowd --smoke
//! cluster-sim --all --seed 7 --out results/
//! cluster-sim --scenario zipf --requests 500000
//! cluster-sim sweep --replicas 8 --d-sweep 1,2,4,8 --scenario two-class
//! ```
//!
//! Every run is deterministic in `(scenario, seed)`: the rendered
//! metrics are bitwise identical across invocations, which is what the
//! CI smoke step and the determinism tests rely on. The `sweep`
//! subcommand fans `R` independent replicas of each scenario across
//! rayon workers per swept `d` and aggregates them through
//! `bnb-stats`' mergeable accumulators — output is equally
//! deterministic, regardless of thread count.

use bnb_cluster::{find_scenario, registry, Scenario, SimBuilder, SMOKE_DIVISOR};
use bnb_experiments::output::write_figure;
use bnb_experiments::sweep_scenario;
use bnb_stats::SeriesSet;
use bnb_telemetry::{render_chrome_trace, render_prometheus, MetricsSnapshot, Registry};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    scenarios: Vec<&'static Scenario>,
    seed: u64,
    requests: Option<u64>,
    smoke: bool,
    list: bool,
    out: Option<PathBuf>,
    /// `cluster-sim sweep …`: replica/d-sweep mode.
    sweep: bool,
    /// `--telemetry` (both modes): harvest snapshots and write them as
    /// `telemetry-<scenario>.{trace.json,prom}` under `--out DIR` (or
    /// print Prometheus text when `--out` is absent).
    telemetry: bool,
    replicas: u64,
    d_sweep: Vec<usize>,
}

/// The request budget of one scenario: `--requests`, else its default,
/// divided by [`SMOKE_DIVISOR`] under `--smoke`.
fn request_budget(args: &Args, scenario: &Scenario) -> u64 {
    args.requests.unwrap_or(if args.smoke {
        scenario.default_requests / SMOKE_DIVISOR
    } else {
        scenario.default_requests
    })
}

/// Writes `<id>.{csv,dat,svg}` through [`write_figure`] and the
/// rendered `table` as `<id>.txt` under `dir`, `<id>` being the set's.
fn write_artifacts(dir: &Path, set: &SeriesSet, table: &str) -> Result<(), String> {
    write_figure(dir, set)
        .and_then(|_| std::fs::write(dir.join(format!("{}.txt", set.id)), table))
        .map_err(|e| format!("failed to write {}: {e}", set.id))?;
    println!(
        "   wrote {}/{}.{{csv,dat,svg,txt}}\n",
        dir.display(),
        set.id
    );
    Ok(())
}

/// Exports one harvested snapshot as `telemetry-<id>.trace.json`
/// (chrome://tracing) and `telemetry-<id>.prom` (Prometheus text) under
/// `out`, or prints the Prometheus text when there is no `--out`.
fn export_telemetry(out: Option<&Path>, id: &str, snap: &MetricsSnapshot) -> Result<(), String> {
    let Some(dir) = out else {
        print!("{}", render_prometheus(snap));
        return Ok(());
    };
    let path = |ext: &str| dir.join(format!("telemetry-{id}.{ext}"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path("trace.json"), render_chrome_trace(snap)))
        .and_then(|()| std::fs::write(path("prom"), render_prometheus(snap)))
        .map_err(|e| format!("failed to write telemetry for {id}: {e}"))?;
    println!(
        "   wrote {}/telemetry-{id}.{{trace.json,prom}}\n",
        dir.display()
    );
    Ok(())
}

/// `--help` is a successful outcome, not a parse error: it must print
/// to stdout and exit 0 (matching `bench-snapshot`).
enum ParseOutcome {
    Run(Box<Args>),
    Help,
    Error(String),
}

fn usage() -> String {
    let mut s = String::from(
        "Usage: cluster-sim [OPTIONS]\n\
         \x20      cluster-sim sweep [OPTIONS]\n\
         \n\
         Serves paper-faithful traffic through a simulated heterogeneous\n\
         cluster ('Balls into non-uniform bins' as a running system).\n\
         The sweep subcommand fans R independent replicas per scenario\n\
         across threads and sweeps the probe count d, reporting the\n\
         max-normalized-queue-vs-d curve (the paper's ln ln n / ln d\n\
         law, measured through the queueing dynamics).\n\
         \n\
         Options:\n\
         \x20  --scenario NAME    run one scenario (repeatable)\n\
         \x20  --all              run every registered scenario\n\
         \x20  --list             list scenarios and exit\n\
         \x20  --smoke            1/20th of the request budget (CI smoke)\n\
         \x20  --requests N       override the request budget\n\
         \x20  --seed N           run seed (default 42)\n\
         \x20  --out DIR          write cluster-<scenario>.{csv,dat,svg,txt}\n\
         \x20                     under DIR\n\
         \x20  --telemetry        harvest telemetry; written as\n\
         \x20                     telemetry-<scenario>.{trace.json,prom} under\n\
         \x20                     --out DIR, printed otherwise\n\
         \n\
         Sweep options:\n\
         \x20  --replicas R       independent replicas per point (default 8)\n\
         \x20  --d-sweep LIST     comma-separated d grid (default 1,2,3,4,8)\n\
         \n\
         Scenarios:\n",
    );
    for sc in registry() {
        s.push_str(&format!("  {:<12} {}\n", sc.id, sc.title));
    }
    s
}

fn parse_args() -> ParseOutcome {
    let mut args = Args {
        scenarios: Vec::new(),
        seed: 42,
        requests: None,
        smoke: false,
        list: false,
        out: None,
        sweep: false,
        telemetry: false,
        replicas: 8,
        d_sweep: vec![1, 2, 3, 4, 8],
    };
    let mut iter = std::env::args().skip(1).peekable();
    if iter.peek().map(String::as_str) == Some("sweep") {
        args.sweep = true;
        iter.next();
    }
    let mut all = false;
    let err = ParseOutcome::Error;
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => return ParseOutcome::Help,
            "--replicas" if args.sweep => {
                let Some(v) = iter.next() else {
                    return err("--replicas needs a value".into());
                };
                match v.parse::<u64>() {
                    Ok(0) => return err("--replicas must be positive".into()),
                    Ok(r) => args.replicas = r,
                    Err(e) => return err(format!("bad --replicas {v}: {e}")),
                }
            }
            "--d-sweep" if args.sweep => {
                let Some(v) = iter.next() else {
                    return err("--d-sweep needs a comma-separated list".into());
                };
                let parsed: Result<Vec<usize>, _> =
                    v.split(',').map(|p| p.trim().parse::<usize>()).collect();
                match parsed {
                    Ok(ds) if !ds.is_empty() && ds.iter().all(|&d| (1..=16).contains(&d)) => {
                        args.d_sweep = ds;
                    }
                    Ok(_) => return err("--d-sweep entries must be in 1..=16".into()),
                    Err(e) => return err(format!("bad --d-sweep {v}: {e}")),
                }
            }
            "--list" => args.list = true,
            "--all" => all = true,
            "--smoke" => args.smoke = true,
            "--scenario" => {
                let Some(id) = iter.next() else {
                    return err("--scenario needs a name".into());
                };
                let Some(sc) = find_scenario(&id) else {
                    return err(format!("unknown scenario '{id}'\n\n{}", usage()));
                };
                args.scenarios.push(sc);
            }
            "--seed" => {
                let Some(v) = iter.next() else {
                    return err("--seed needs a value".into());
                };
                match v.parse() {
                    Ok(seed) => args.seed = seed,
                    Err(e) => return err(format!("bad --seed {v}: {e}")),
                }
            }
            "--requests" => {
                let Some(v) = iter.next() else {
                    return err("--requests needs a value".into());
                };
                match v.parse::<u64>() {
                    Ok(0) => return err("--requests must be positive".into()),
                    Ok(n) => args.requests = Some(n),
                    Err(e) => return err(format!("bad --requests {v}: {e}")),
                }
            }
            "--out" => {
                let Some(dir) = iter.next() else {
                    return err("--out needs a directory".into());
                };
                args.out = Some(PathBuf::from(dir));
            }
            "--telemetry" => args.telemetry = true,
            other => {
                return err(format!("unknown option '{other}'\n\n{}", usage()));
            }
        }
    }
    if all {
        args.scenarios.extend(registry().iter());
    }
    if args.scenarios.is_empty() && !args.list {
        return err(usage());
    }
    ParseOutcome::Run(Box::new(args))
}

/// Runs the replica/d sweep for every selected scenario.
fn run_sweeps(args: &Args) -> Result<(), String> {
    for scenario in &args.scenarios {
        let requests = request_budget(args, scenario);
        let n_servers = (scenario.build)(args.seed, requests).speeds.n();
        let registry = args.telemetry.then(Registry::enabled);
        let start = Instant::now();
        let (sweep, telemetry) = sweep_scenario(
            scenario,
            &args.d_sweep,
            args.replicas,
            requests,
            args.seed,
            registry.as_ref(),
        );
        let elapsed = start.elapsed();
        println!(
            "== sweep {} ({}; {} replicas x {} requests per d, seed {})",
            sweep.scenario, sweep.placement, sweep.replicas, requests, args.seed
        );
        if !sweep.d_varies {
            println!(
                "   note: '{}' placement is load-oblivious — d has no effect, the\n\
                 \x20  rows differ only by replica seeds",
                sweep.placement
            );
        }
        println!("{}", sweep.render_table(n_servers));
        let total = sweep.replicas * requests * args.d_sweep.len() as u64;
        println!(
            "   [{:.2?} wall, {:.3e} req/s aggregate]\n",
            elapsed,
            total as f64 / elapsed.as_secs_f64()
        );
        if let Some(dir) = &args.out {
            write_artifacts(dir, &sweep.to_series_set(), &sweep.render_table(n_servers))?;
        }
        if let Some(snap) = &telemetry {
            export_telemetry(args.out.as_deref(), sweep.scenario, snap)?;
        }
    }
    Ok(())
}

/// Runs every selected scenario once.
fn run_scenarios(args: &Args) -> Result<(), String> {
    for scenario in &args.scenarios {
        let requests = request_budget(args, scenario);
        let spec = (scenario.build)(args.seed, requests);
        let placement = spec.placement.name();
        let registry = args.telemetry.then(Registry::enabled);
        let mut builder = SimBuilder::new(spec).seed(args.seed);
        if let Some(reg) = &registry {
            builder = builder.telemetry(reg);
        }
        let mut sim = builder.build();
        let start = Instant::now();
        let metrics = sim.run();
        let elapsed = start.elapsed();
        println!(
            "== {} ({}; {} requests, seed {})",
            scenario.id, scenario.title, requests, args.seed
        );
        println!("{}", metrics.render_table());
        // Wall-clock is the only non-deterministic line; keep it clearly
        // separated from the metrics block above.
        println!(
            "   [{placement}; serial; {:.2?} wall, {:.3e} req/s]\n",
            elapsed,
            metrics.requests as f64 / elapsed.as_secs_f64()
        );
        if args.telemetry {
            export_telemetry(args.out.as_deref(), scenario.id, &sim.telemetry_snapshot())?;
        }
        if let Some(dir) = &args.out {
            let set = metrics.to_series_set(&format!("cluster-{}", scenario.id), scenario.title);
            write_artifacts(dir, &set, &metrics.render_table())?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        ParseOutcome::Run(a) => a,
        ParseOutcome::Help => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        ParseOutcome::Error(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        // Machine-readable: one `id<TAB>title` line per scenario, so CI
        // can drive a smoke run of every registered scenario straight
        // from this output (a new scenario is picked up automatically —
        // `--list | cut -f1` is the scenario matrix).
        for sc in registry() {
            println!("{}\t{}", sc.id, sc.title);
        }
        return ExitCode::SUCCESS;
    }

    let result = if args.sweep {
        run_sweeps(&args)
    } else {
        run_scenarios(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
