//! Extension experiments beyond the paper's figures.
//!
//! The paper's conclusions invite several follow-ups, measured here.
//! Each extension has the same shape as a figure
//! runner (`fn(&Ctx) -> SeriesSet`) and its own registry
//! ([`crate::registry::extras_registry`]):
//!
//! * **E1 tie-break ablation** — Algorithm 1 vs. its variant without the
//!   capacity tie-break vs. prior-load greedy vs. fewest-balls, across
//!   the Figure 6 sweep.
//! * **E2 d sweep** — the `ln ln n / ln d` scaling on heterogeneous bins.
//! * **E3 Zipf capacities** — heavy-tailed device fleets (the paper only
//!   evaluates two-class and binomial mixes).
//! * **E4 weighted balls** — the `s/c` generalisation the model section
//!   mentions but the analysis leaves open.
//! * **E5 churn** — insert/delete steady state vs. the insertion-only
//!   bound (the dynamic setting of the P2P motivation).
//! * **E6 queueing** — the "capacity = speed" reading: heterogeneous
//!   supermarket model under normalised JSQ(d) routing.

pub mod ext1_tiebreak;
pub mod ext2_dsweep;
pub mod ext3_zipf;
pub mod ext4_weighted;
pub mod ext5_churn;
pub mod ext6_queueing;
