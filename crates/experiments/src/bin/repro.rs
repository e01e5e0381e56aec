//! `repro` — regenerate the paper's figures from the command line.
//!
//! ```text
//! repro --list
//! repro fig06 fig07
//! repro --all --out results/
//! repro --full fig17            # paper-scale repetitions
//! repro --reps-scale 5 fig08    # 5x the default repetitions
//! ```

use bnb_experiments::output::{summarize_figure, write_figure};
use bnb_experiments::{extras_registry, find_figure, registry, Ctx, FigureSpec};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    figures: Vec<&'static FigureSpec>,
    ctx: Ctx,
    out: Option<PathBuf>,
    list: bool,
    full: bool,
}

fn usage() -> String {
    let defaults = Ctx::default();
    let mut s = format!(
        "Usage: repro [OPTIONS] [FIGURES...]\n\
         \n\
         Regenerates figures of 'Balls into non-uniform bins' (Berenbrink et al.).\n\
         \n\
         Options:\n\
         \x20  --all              run every paper figure\n\
         \x20  --extras           run the extension experiments\n\
         \x20  --list             list available figures and exit\n\
         \x20  --out DIR          write <fig>.csv and <fig>.dat under DIR\n\
         \x20  --seed N           master seed (default {})\n\
         \x20  --reps-scale X     multiply default repetition counts by X\n\
         \x20  --size-scale X     multiply problem sizes by X\n\
         \x20  --ball-budget N    per-run ball cap for fig15 (default {})\n\
         \x20  --full             paper-scale repetitions (slow!)\n\
         \n\
         Figures:\n",
        defaults.master_seed, defaults.ball_budget,
    );
    for f in registry() {
        s.push_str(&format!("  {}  {}\n", f.id, f.title));
    }
    s.push_str("\nExtensions:\n");
    for f in extras_registry() {
        s.push_str(&format!("  {}   {}\n", f.id, f.title));
    }
    s
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        figures: Vec::new(),
        ctx: Ctx::default(),
        out: None,
        list: false,
        full: false,
    };
    let mut iter = std::env::args().skip(1);
    let mut all = false;
    let mut extras = false;
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            // `--help` prints what `--list` prints, whatever follows it.
            "--help" | "-h" => {
                args.list = true;
                return Ok(args);
            }
            "--list" => args.list = true,
            "--all" => all = true,
            "--extras" => extras = true,
            "--full" => args.full = true,
            "--out" => {
                let dir = iter.next().ok_or("--out needs a directory")?;
                args.out = Some(PathBuf::from(dir));
            }
            "--seed" => {
                let v = iter.next().ok_or("--seed needs a value")?;
                args.ctx.master_seed = v.parse().map_err(|e| format!("bad --seed {v}: {e}"))?;
            }
            "--reps-scale" => {
                let v = iter.next().ok_or("--reps-scale needs a value")?;
                args.ctx.rep_factor = v
                    .parse()
                    .map_err(|e| format!("bad --reps-scale {v}: {e}"))?;
            }
            "--size-scale" => {
                let v = iter.next().ok_or("--size-scale needs a value")?;
                args.ctx.size_factor = v
                    .parse()
                    .map_err(|e| format!("bad --size-scale {v}: {e}"))?;
            }
            "--ball-budget" => {
                let v = iter.next().ok_or("--ball-budget needs a value")?;
                args.ctx.ball_budget = v
                    .parse()
                    .map_err(|e| format!("bad --ball-budget {v}: {e}"))?;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}'\n\n{}", usage()));
            }
            fig => {
                let spec = find_figure(fig)
                    .ok_or_else(|| format!("unknown figure '{fig}'\n\n{}", usage()))?;
                args.figures.push(spec);
            }
        }
    }
    if all {
        args.figures.extend(registry().iter());
    }
    if extras {
        args.figures.extend(extras_registry().iter());
    }
    if args.figures.is_empty() && !args.list {
        return Err(usage());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }

    for spec in &args.figures {
        let mut ctx = args.ctx;
        if args.full {
            // --full: scale the repetition factor so the figure's default
            // reaches its paper count. Each runner multiplies its own
            // default by rep_factor, so derive the factor per figure from
            // a 1x probe of the defaults (documented approximation: the
            // per-figure defaults are constants, see each module).
            ctx.rep_factor = args.ctx.rep_factor * full_scale_factor(spec.id);
            ctx.ball_budget = u64::MAX;
        }
        let start = Instant::now();
        let set = (spec.run)(&ctx);
        let elapsed = start.elapsed();
        println!("{}", summarize_figure(&set));
        println!(
            "   ({} in {:.2?}, seed {})\n",
            spec.paper_ref, elapsed, ctx.master_seed
        );
        if let Some(dir) = &args.out {
            match write_figure(dir, &set) {
                Ok(path) => println!("   wrote {}\n", path.display()),
                Err(e) => {
                    eprintln!("failed to write {}: {e}", spec.id);
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// Multiplier that lifts each figure's default repetition count to the
/// paper's count. Defaults are per-module constants; this table mirrors
/// them (see each figure module's `DEFAULT_REPS` and `PAPER_REPS`).
fn full_scale_factor(id: &str) -> f64 {
    match id {
        "fig01" => 50.0,                      // 200 -> 10_000
        "fig02" => 2.5,                       // 4_000 -> 10_000
        "fig03" => 5.0,                       // 2_000 -> 10_000
        "fig04" => 12.5,                      // 800 -> 10_000
        "fig05" => 33.4,                      // 300 -> ~10_000
        "fig06" | "fig07" => 25.0,            // 400 -> 10_000
        "fig08" => 167.0,                     // 60 -> ~10_000
        "fig09" => 25.0,                      // 400 -> 10_000
        "fig10" => 3.4,                       // 3_000 -> ~10_000
        "fig11" | "fig12" | "fig13" => 100.0, // 100 -> 10_000
        "fig14" | "fig15" => 167.0,           // 60 -> ~10_000
        "fig16" => 1250.0,                    // 8 -> 10_000 (see module docs)
        "fig17" => 834.0,                     // 1_200 -> ~10^6
        "fig18" => 400.0,                     // 2_500 -> 10^6
        _ => 1.0,
    }
}
