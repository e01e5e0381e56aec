//! # bnb-bench
//!
//! Home of the `bench-snapshot` binary, which times the throw kernel
//! over the standard grid and the router data plane under contention,
//! and writes the machine-readable `BENCH_throw.json` and
//! `BENCH_router.json` tracked at the repo root. The cluster simulator
//! is benchmarked by `perfbench/` instead.

#![deny(missing_docs)]

/// Deterministic seed of every snapshot cell, so each run times the
/// same work.
pub const BENCH_SEED: u64 = 0xB415_2B11;
