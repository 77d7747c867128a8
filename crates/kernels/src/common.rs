//! Shared kernel infrastructure: variants, timing breakdown, run results.

use std::time::Duration;

use invector_core::stats::{DepthHistogram, Utilization};

pub use invector_core::exec::{ExecPolicy, ExecVariant, Partition};

/// The implementation strategies evaluated in the paper (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Scalar loop over the original edge order (`nontiling_serial`).
    Serial,
    /// Scalar loop over cache-tiled edges (`tiling_serial`).
    SerialTiled,
    /// Inspector/executor: tiling + conflict-free grouping, then unmasked
    /// SIMD (`tiling_and_grouping` / `nontiling_and_grouping`).
    Grouped,
    /// Conflict-masking SIMD (`tiling_and_mask` / `nontiling_and_mask`).
    Masked,
    /// In-vector reduction SIMD (`tiling_and_invec` / `nontiling_and_invec`)
    /// — the paper's contribution.
    Invec,
}

/// Whether an application's experiments charge a cache-tiling inspector
/// (static edge set: PageRank, SpMV, Moldyn, Euler) or run untiled
/// wave-frontier style (§4.2: SSSP, SSWP, BFS, WCC). Selects the label
/// column of [`Variant::label`] and tells the harness which phase bars a
/// kernel reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TilingMode {
    /// Edge set is static; vectorized variants pay a one-time tiling pass.
    Tiled,
    /// Active set changes per wave; variants run on the original edge order.
    Frontier,
}

/// The single label table keyed by `(variant, tiling mode)` — the paper's
/// series names. Rows are in [`Variant::ALL`] order; columns are
/// `[Tiled, Frontier]`.
const LABELS: [[&str; 2]; 5] = [
    ["nontiling_serial", "nontiling_serial"],
    ["tiling_serial", "tiling_serial"],
    ["tiling_and_grouping", "nontiling_and_grouping"],
    ["tiling_and_mask", "nontiling_and_mask"],
    ["tiling_and_invec", "nontiling_and_invec"],
];

/// Short names accepted by [`Variant::parse`], in [`Variant::ALL`] order.
const SHORT_NAMES: [&str; 5] = ["serial", "tiled", "grouped", "masked", "invec"];

impl Variant {
    /// All variants in the paper's presentation order.
    pub const ALL: [Variant; 5] =
        [Variant::Serial, Variant::SerialTiled, Variant::Grouped, Variant::Masked, Variant::Invec];

    /// Position in [`Variant::ALL`] (the label-table row).
    const fn index(self) -> usize {
        match self {
            Variant::Serial => 0,
            Variant::SerialTiled => 1,
            Variant::Grouped => 2,
            Variant::Masked => 3,
            Variant::Invec => 4,
        }
    }

    /// The paper's series label for this variant under the given tiling
    /// mode — one table, shared by every consumer.
    pub fn label(self, mode: TilingMode) -> &'static str {
        LABELS[self.index()][mode as usize]
    }

    /// Label used for tiled experiments (PageRank, Moldyn).
    pub fn tiled_label(self) -> &'static str {
        self.label(TilingMode::Tiled)
    }

    /// Label used for wave-frontier experiments, which run untiled (§4.2).
    pub fn frontier_label(self) -> &'static str {
        self.label(TilingMode::Frontier)
    }

    /// The short name [`Variant::parse`] accepts (`serial`, `tiled`, ...).
    pub fn short_name(self) -> &'static str {
        SHORT_NAMES[self.index()]
    }

    /// Parses one short variant name — the single parser shared by the CLI
    /// and the harness registry.
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted names.
    pub fn parse(s: &str) -> Result<Variant, String> {
        Variant::ALL.into_iter().find(|v| v.short_name() == s).ok_or_else(|| {
            format!("unknown variant '{s}' (one of: {} | all)", SHORT_NAMES.join(" | "))
        })
    }

    /// Parses a variant selection: a short name, or `all` for the full
    /// paper matrix.
    ///
    /// # Errors
    ///
    /// Returns the [`Variant::parse`] message on unknown names.
    pub fn parse_selection(s: &str) -> Result<Vec<Variant>, String> {
        if s == "all" {
            Ok(Variant::ALL.to_vec())
        } else {
            Variant::parse(s).map(|v| vec![v])
        }
    }

    /// `true` for the variants that record SIMD lane utilization (the
    /// conflict-masking strategy).
    pub fn records_utilization(self) -> bool {
        self == Variant::Masked
    }

    /// `true` for the variants that record the conflict-depth histogram
    /// (the in-vector strategy).
    pub fn records_depth(self) -> bool {
        self == Variant::Invec
    }

    /// `true` for the variants that need a conflict-free grouping inspector.
    pub fn needs_grouping(self) -> bool {
        self == Variant::Grouped
    }

    /// The in-worker reduction strategy the execution engine runs when this
    /// variant is parallelised. The scalar baselines stay scalar; the
    /// vectorized variants all map to in-vector reduction, because the
    /// masked and grouped strategies handle conflicts *within one target
    /// array* and the engine's partitioning already removes cross-worker
    /// conflicts — in-vector reduction is the per-worker strategy the paper
    /// shows dominating once conflicts are local.
    pub fn exec_variant(self) -> ExecVariant {
        match self {
            Variant::Serial | Variant::SerialTiled => ExecVariant::Serial,
            Variant::Grouped | Variant::Masked | Variant::Invec => ExecVariant::Invec,
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tiled_label())
    }
}

/// Wall-time breakdown matching the stacked bars of Figures 8–12:
/// data-reorganization phases are reported separately from computation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timings {
    /// Cache-tiling (inspector) time.
    pub tiling: Duration,
    /// Conflict-free grouping (inspector) time.
    pub grouping: Duration,
    /// Execution-engine partitioning time (building / rebuilding the
    /// [`ExecPlan`](invector_core::exec::ExecPlan) for parallel runs; zero
    /// for single-threaded runs and for runs that cut the stream into
    /// chunks instead of planning).
    pub partition: Duration,
    /// Computation (executor) time.
    pub compute: Duration,
}

impl Timings {
    /// End-to-end time: all phases.
    pub fn total(&self) -> Duration {
        self.tiling + self.grouping + self.partition + self.compute
    }
}

/// The outcome of running one application variant to convergence.
#[derive(Debug, Clone)]
pub struct RunResult<T> {
    /// Final per-vertex values (ranks, distances, widths, labels).
    pub values: Vec<T>,
    /// Iterations executed before the termination condition held.
    pub iterations: u32,
    /// Phase timing breakdown.
    pub timings: Timings,
    /// Modeled instruction count of the compute phase (SIMD instructions
    /// for vectorized variants, the documented scalar cost model for the
    /// serial baselines). Wall time of the emulated SIMD engine is not
    /// comparable against native scalar code; this counter is.
    pub instructions: u64,
    /// SIMD lane utilization (recorded by the masked variant; `None` for
    /// variants whose utilization is 100% by construction or meaningless).
    pub utilization: Option<Utilization>,
    /// Conflict-depth histogram (recorded by the in-vector variant).
    pub depth: Option<DepthHistogram>,
    /// Worker threads the execution engine used (1 for the paper's
    /// single-core configuration).
    pub threads: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_naming() {
        assert_eq!(Variant::Invec.tiled_label(), "tiling_and_invec");
        assert_eq!(Variant::Invec.frontier_label(), "nontiling_and_invec");
        assert_eq!(Variant::Serial.frontier_label(), "nontiling_serial");
        assert_eq!(Variant::Grouped.to_string(), "tiling_and_grouping");
        assert_eq!(Variant::Masked.label(TilingMode::Frontier), "nontiling_and_mask");
    }

    #[test]
    fn parse_round_trips_short_names() {
        for v in Variant::ALL {
            assert_eq!(Variant::parse(v.short_name()), Ok(v));
        }
        assert_eq!(Variant::parse_selection("all").unwrap(), Variant::ALL.to_vec());
        assert_eq!(Variant::parse_selection("invec").unwrap(), vec![Variant::Invec]);
        let err = Variant::parse("warp").unwrap_err();
        assert!(err.contains("serial") && err.contains("invec"), "{err}");
    }

    #[test]
    fn predicates_match_stat_ownership() {
        assert!(Variant::Masked.records_utilization());
        assert!(Variant::Invec.records_depth());
        assert!(Variant::Grouped.needs_grouping());
    }

    #[test]
    fn timings_total_sums_phases() {
        let t = Timings {
            tiling: Duration::from_millis(1),
            grouping: Duration::from_millis(2),
            partition: Duration::from_millis(4),
            compute: Duration::from_millis(3),
        };
        assert_eq!(t.total(), Duration::from_millis(10));
    }

    #[test]
    fn exec_variant_mapping_keeps_scalar_baselines_scalar() {
        assert_eq!(Variant::Serial.exec_variant(), ExecVariant::Serial);
        assert_eq!(Variant::SerialTiled.exec_variant(), ExecVariant::Serial);
        assert_eq!(Variant::Invec.exec_variant(), ExecVariant::Invec);
        assert_eq!(Variant::Masked.exec_variant(), ExecVariant::Invec);
        assert_eq!(Variant::Grouped.exec_variant(), ExecVariant::Invec);
    }

    #[test]
    fn all_variants_listed_once() {
        let set: std::collections::HashSet<_> = Variant::ALL.iter().collect();
        assert_eq!(set.len(), 5);
    }
}
