//! The figure registry: every reproducible figure, addressable by id.

use crate::ctx::Ctx;
use crate::figures;
use bnb_stats::SeriesSet;

/// A reproducible figure.
#[derive(Clone, Copy)]
pub struct FigureSpec {
    /// Identifier used on the CLI, e.g. `"fig06"`.
    pub id: &'static str,
    /// The paper's name for it.
    pub paper_ref: &'static str,
    /// Short description of the experiment.
    pub title: &'static str,
    /// The paper's repetition count for this figure (reached via `--full`).
    pub paper_reps: usize,
    /// Runner.
    pub run: fn(&Ctx) -> SeriesSet,
}

impl std::fmt::Debug for FigureSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FigureSpec")
            .field("id", &self.id)
            .field("paper_ref", &self.paper_ref)
            .finish()
    }
}

/// All 18 figures of the paper's evaluation, in order.
#[must_use]
pub fn registry() -> &'static [FigureSpec] {
    &[
        FigureSpec {
            id: "fig01",
            paper_ref: "Figure 1",
            title: "Uniform bins (n=10000, c in {1,2,3,4,8}): load distribution",
            paper_reps: figures::fig01::PAPER_REPS,
            run: figures::fig01::run,
        },
        FigureSpec {
            id: "fig02",
            paper_ref: "Figure 2",
            title: "32 uniform bins, m = C: load distribution",
            paper_reps: figures::fig02_05::PAPER_REPS,
            run: figures::fig02_05::run_fig02,
        },
        FigureSpec {
            id: "fig03",
            paper_ref: "Figure 3",
            title: "32 uniform bins, m = 10C: load distribution",
            paper_reps: figures::fig02_05::PAPER_REPS,
            run: figures::fig02_05::run_fig03,
        },
        FigureSpec {
            id: "fig04",
            paper_ref: "Figure 4",
            title: "32 uniform bins, m = 100C: load distribution",
            paper_reps: figures::fig02_05::PAPER_REPS,
            run: figures::fig02_05::run_fig04,
        },
        FigureSpec {
            id: "fig05",
            paper_ref: "Figure 5",
            title: "32 uniform bins, m = 1000C: load distribution",
            paper_reps: figures::fig02_05::PAPER_REPS,
            run: figures::fig02_05::run_fig05,
        },
        FigureSpec {
            id: "fig06",
            paper_ref: "Figure 6",
            title: "Sizes 1 & 10: max load vs fraction of large bins",
            paper_reps: figures::fig06_07::PAPER_REPS,
            run: figures::fig06_07::run_fig06,
        },
        FigureSpec {
            id: "fig07",
            paper_ref: "Figure 7",
            title: "Sizes 1 & 10: % of runs where a small bin has max load",
            paper_reps: figures::fig06_07::PAPER_REPS,
            run: figures::fig06_07::run_fig07,
        },
        FigureSpec {
            id: "fig08",
            paper_ref: "Figure 8",
            title: "Randomised sizes: max load vs total capacity (n=10000)",
            paper_reps: figures::fig08_09::PAPER_REPS,
            run: figures::fig08_09::run_fig08,
        },
        FigureSpec {
            id: "fig09",
            paper_ref: "Figure 9",
            title: "Randomised sizes: size class of the max-loaded bin (n=1000)",
            paper_reps: figures::fig08_09::PAPER_REPS,
            run: figures::fig08_09::run_fig09,
        },
        FigureSpec {
            id: "fig10",
            paper_ref: "Figure 10",
            title: "32 bins of capacity 1 and 2: load distribution per mix",
            paper_reps: figures::fig10_13::PAPER_REPS,
            run: figures::fig10_13::run_fig10,
        },
        FigureSpec {
            id: "fig11",
            paper_ref: "Figure 11",
            title: "10000 bins of capacity 1 and 8: load distribution per mix",
            paper_reps: figures::fig10_13::PAPER_REPS,
            run: figures::fig10_13::run_fig11,
        },
        FigureSpec {
            id: "fig12",
            paper_ref: "Figure 12",
            title: "Capacities 1 & 8: loads of the capacity-8 bins",
            paper_reps: figures::fig10_13::PAPER_REPS,
            run: figures::fig10_13::run_fig12,
        },
        FigureSpec {
            id: "fig13",
            paper_ref: "Figure 13",
            title: "Capacities 1 & 8: loads of the capacity-1 bins",
            paper_reps: figures::fig10_13::PAPER_REPS,
            run: figures::fig10_13::run_fig13,
        },
        FigureSpec {
            id: "fig14",
            paper_ref: "Figure 14",
            title: "Linear growth between generations: max load vs #bins",
            paper_reps: figures::fig14_15::PAPER_REPS,
            run: figures::fig14_15::run_fig14,
        },
        FigureSpec {
            id: "fig15",
            paper_ref: "Figure 15",
            title: "Exponential growth between generations: max load vs #bins",
            paper_reps: figures::fig14_15::PAPER_REPS,
            run: figures::fig14_15::run_fig15,
        },
        FigureSpec {
            id: "fig16",
            paper_ref: "Figure 16",
            title: "Heavily loaded: deviation of max from average vs #balls",
            paper_reps: figures::fig16::PAPER_REPS,
            run: figures::fig16::run,
        },
        FigureSpec {
            id: "fig17",
            paper_ref: "Figure 17",
            title: "Optimal exponent for different capacities",
            paper_reps: figures::fig17_18::PAPER_REPS,
            run: figures::fig17_18::run_fig17,
        },
        FigureSpec {
            id: "fig18",
            paper_ref: "Figure 18",
            title: "Max load for different exponents and capacities",
            paper_reps: figures::fig17_18::PAPER_REPS,
            run: figures::fig17_18::run_fig18,
        },
    ]
}

/// Extension experiments ([`crate::extras`]) — same interface as the figures,
/// separate registry so `--all` remains exactly the paper.
#[must_use]
pub fn extras_registry() -> &'static [FigureSpec] {
    use crate::extras;
    &[
        FigureSpec {
            id: "ext1",
            paper_ref: "Extension E1",
            title: "Tie-break ablation on the Figure 6 sweep",
            paper_reps: 10_000,
            run: extras::ext1_tiebreak::run,
        },
        FigureSpec {
            id: "ext2",
            paper_ref: "Extension E2",
            title: "d-sweep on heterogeneous bins (ln ln n / ln d scaling)",
            paper_reps: 10_000,
            run: extras::ext2_dsweep::run,
        },
        FigureSpec {
            id: "ext3",
            paper_ref: "Extension E3",
            title: "Zipf capacity fleets: selection-rule comparison",
            paper_reps: 10_000,
            run: extras::ext3_zipf::run,
        },
        FigureSpec {
            id: "ext4",
            paper_ref: "Extension E4",
            title: "Weighted balls (l = s/c) vs mean ball size",
            paper_reps: 10_000,
            run: extras::ext4_weighted::run,
        },
        FigureSpec {
            id: "ext5",
            paper_ref: "Extension E5",
            title: "Churn steady state (insert/delete at m = C)",
            paper_reps: 10_000,
            run: extras::ext5_churn::run,
        },
        FigureSpec {
            id: "ext6",
            paper_ref: "Extension E6",
            title: "Queueing view: max normalised queue vs utilisation",
            paper_reps: 10_000,
            run: extras::ext6_queueing::run,
        },
    ]
}

/// Looks a figure or extension up by id (case-insensitive; `fig6`,
/// `fig06`, `6`, and `ext1` all accepted).
#[must_use]
pub fn find_figure(query: &str) -> Option<&'static FigureSpec> {
    let q = query.to_ascii_lowercase();
    let normalized = if q.starts_with("ext") {
        q
    } else if let Ok(n) = q.trim_start_matches("fig").parse::<u32>() {
        format!("fig{n:02}")
    } else {
        q
    };
    registry()
        .iter()
        .chain(extras_registry())
        .find(|f| f.id == normalized)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_18_figures_in_order() {
        let r = registry();
        assert_eq!(r.len(), 18);
        for (i, spec) in r.iter().enumerate() {
            assert_eq!(spec.id, format!("fig{:02}", i + 1));
            assert_eq!(spec.paper_ref, format!("Figure {}", i + 1));
        }
    }

    #[test]
    fn lookup_accepts_aliases() {
        assert!(find_figure("fig06").is_some());
        assert!(find_figure("FIG6").is_some());
        assert!(find_figure("6").is_some());
        assert!(find_figure("fig18").is_some());
        assert!(find_figure("fig19").is_none());
        assert!(find_figure("nonsense").is_none());
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = registry().iter().map(|f| f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 18);
    }

    #[test]
    fn extras_registry_resolves() {
        assert_eq!(extras_registry().len(), 6);
        for spec in extras_registry() {
            assert!(find_figure(spec.id).is_some(), "{} not findable", spec.id);
        }
        assert!(find_figure("ext1").is_some());
        assert!(find_figure("EXT5").is_some());
        assert!(find_figure("ext9").is_none());
    }
}
