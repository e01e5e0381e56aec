//! # bnb-experiments
//!
//! The experiment harness that regenerates **every figure** of
//! *Balls into non-uniform bins* (Berenbrink et al.). The paper's
//! evaluation (§4) contains 18 figures and no tables; each has a module
//! under [`figures`], an entry in [`registry()`], and a runner reachable
//! from the `repro` binary:
//!
//! ```text
//! cargo run --release -p bnb-experiments --bin repro -- --list
//! cargo run --release -p bnb-experiments --bin repro -- fig06 fig07
//! cargo run --release -p bnb-experiments --bin repro -- --all --out results/
//! ```
//!
//! Repetition counts default to a laptop-friendly scale (seconds per
//! figure); `--full` restores the paper's counts (10 000 reps for most
//! figures, 10⁶ for Figure 17). All runs are deterministic: repetition
//! `r` of figure `f` under master seed `s` uses the derived seed
//! `derive_seed(s, f, r)` regardless of thread scheduling.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cluster_sweep;
pub mod ctx;
pub mod extras;
pub mod figures;
pub mod output;
pub mod registry;
pub mod runner;

pub use cluster_sweep::{sweep_scenario, ScenarioSweep, SweepPoint};
pub use ctx::Ctx;
pub use registry::{extras_registry, find_figure, registry, FigureSpec};
