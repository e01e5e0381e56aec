//! `bnb-telemetry` — a hand-rolled observability layer for the
//! balls-into-bins workspace: counters, log₂ histograms, sampled spans
//! and two export formats (chrome://tracing JSON and Prometheus text
//! exposition), all in safe Rust with no external dependencies.
//!
//! # Design constraints
//!
//! The cluster hot loop serves a request in ~95 ns, so telemetry must
//! be **zero-overhead when off** and near-zero when on:
//!
//! - [`Span`]s check one `enabled` bool first — the disabled fast path
//!   is a single predicted branch, no clock read, no allocation.
//! - Enabled spans sample 1-in-N (`N` a power of two, a mask test on a
//!   wrapping tick), so `Instant::now()` is paid on a small fraction of
//!   iterations.
//! - Hot structures keep plain-word stats and fold them into a
//!   [`MetricsSnapshot`] at harvest time.
//! - Telemetry is **schedule-invisible**: nothing here draws from the
//!   simulation RNG streams or reorders events, so enabling it cannot
//!   change simulation artifacts (pinned by the cluster differential
//!   tests and the thread-count determinism CI gate).
//!
//! # Aggregation
//!
//! [`Log2Histogram`] and [`MetricsSnapshot`] implement
//! [`bnb_stats::Mergeable`], so sharded replica sweeps merge telemetry
//! through the same fixed-order [`bnb_stats::merge_ordered`] machinery
//! as every other accumulator in the workspace.
//!
//! # Export
//!
//! A [`MetricsSnapshot`] renders to a chrome://tracing-compatible JSON
//! event array ([`render_chrome_trace`]) — open it at
//! `chrome://tracing` or <https://ui.perfetto.dev> — and to a
//! Prometheus text exposition ([`render_prometheus`]).

pub mod export;
pub mod instruments;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use bnb_stats::Mergeable;
pub use export::{render_chrome_trace, render_prometheus};
pub use instruments::Log2Histogram;
pub use registry::Registry;
pub use snapshot::MetricsSnapshot;
pub use span::{Span, SpanToken, TraceEvent};
