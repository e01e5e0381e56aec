//! # bnb-stats
//!
//! Statistics substrate for the *Balls into non-uniform bins* reproduction.
//!
//! The experiment harness repeats every simulation thousands of times and
//! aggregates the outcomes; this crate provides the numerically careful
//! building blocks for that aggregation:
//!
//! * [`Summary`] — streaming mean / variance / min / max (Welford),
//! * [`Histogram`] — fixed-width binned counts,
//! * [`quantile()`] — exact quantiles of sorted samples, and
//!   [`SampleSummary`] — exact quantiles, max and mean of a sample
//!   accumulated as it is pushed,
//! * [`Series`] / [`SeriesSet`] — labelled `(x, mean, stderr)` curves, the
//!   exact artefact each paper figure is made of,
//! * [`TextTable`] — terminal rendering of figure data,
//! * [`csv`] — dependency-free CSV output,
//! * [`chi2`] — chi-square goodness-of-fit testing used to validate the
//!   random samplers in `bnb-distributions`,
//! * [`Mergeable`] / [`merge_ordered()`] — the mergeable-accumulator
//!   contract behind sharded (multi-replica) aggregation,
//! * [`MeanAccumulator`] — position-wise averaging of whole load vectors
//!   (used for the sorted-load-distribution figures).
//!
//! Everything here is deterministic and allocation-conscious: the harness
//! calls these types once per repetition from many threads, so the hot
//! paths ([`Summary::push`], [`MeanAccumulator::push_slice`]) are O(1)
//! per value and never allocate after construction.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod chi2;
pub mod csv;
pub mod histogram;
pub mod merge;
pub mod quantile;
pub mod series;
pub mod summary;
pub mod svg;
pub mod table;
pub mod vecacc;

pub use chi2::{chi_square_statistic, chi_square_test, Chi2Outcome};
pub use histogram::Histogram;
pub use merge::{merge_ordered, Mergeable};
pub use quantile::{
    from_monotone_bits, median, monotone_bits, quantile, quantile_select, SampleSummary,
};
pub use series::{Series, SeriesSet};
pub use summary::Summary;
pub use table::TextTable;
pub use vecacc::MeanAccumulator;
