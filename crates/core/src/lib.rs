//! # Ruby: imperfect-factorization mapspaces for tensor accelerators
//!
//! A from-scratch Rust reproduction of *"Ruby: Improving Hardware
//! Efficiency for Tensor Algebra Accelerators Through Imperfect
//! Factorization"* (Horeni et al., ISPASS 2022), including the
//! Timeloop-like substrate it builds on: workload model, architecture
//! model, analytical cost model, mapspace generation and random search.
//!
//! State-of-the-art mappers tile tensor dimensions using *perfect*
//! (remainderless) factorization, so a 14×12 PE array runs a 27-wide
//! loop at 9-wide parallelism. Ruby expands the mapspace with
//! *imperfect* factors — loop counts with remainders — so the same loop
//! runs 14-wide for one extra, partially-filled iteration. **Ruby-S**
//! restricts the expansion to spatial factors, buying most of the
//! utilization win at a moderate mapspace growth.
//!
//! ## Quickstart
//!
//! ```
//! use ruby_core::prelude::*;
//!
//! // A 14×12 Eyeriss-like accelerator and one ResNet-50 layer.
//! let arch = presets::eyeriss_like(14, 12);
//! let layer = ProblemShape::conv("pw", 1, 256, 64, 56, 56, 1, 1, (1, 1));
//!
//! let explorer = Explorer::new(arch)
//!     .with_constraints(Constraints::eyeriss_row_stationary(3, 1))
//!     .with_search(SearchConfig { seed: 1, ..SearchConfig::default() });
//!
//! let pfm = explorer.explore(&layer, MapspaceKind::Pfm).expect("valid mapping");
//! let ruby_s = explorer.explore(&layer, MapspaceKind::RubyS).expect("valid mapping");
//! assert!(ruby_s.report.edp() <= pfm.report.edp());
//! ```
//!
//! The submodule crates are re-exported: [`workload`], [`arch`],
//! [`energy`], [`mapping`], [`mapspace`], [`model`], [`search`].

pub use ruby_arch as arch;
pub use ruby_energy as energy;
pub use ruby_mapping as mapping;
pub use ruby_mapspace as mapspace;
pub use ruby_model as model;
pub use ruby_search as search;
pub use ruby_workload as workload;

/// One-stop imports for typical use.
pub mod prelude {
    pub use ruby_arch::{presets, Architecture, Capacity, Fanout, MemLevel};
    pub use ruby_energy::TechnologyModel;
    pub use ruby_mapping::{display::render_loopnest, Mapping, SlotKind};
    pub use ruby_mapspace::{padding, Constraints, DimSet, Mapspace, MapspaceKind};
    pub use ruby_model::{
        evaluate, evaluate_with, CostReport, EvalContext, InvalidMapping, ModelOptions,
    };
    pub use ruby_search::write_atomic;
    pub use ruby_search::{
        BestMapping, CheckpointError, ConfigError, Engine, HumanSink, JsonlSink, MemorySink,
        MultiSink, Objective, ProgressSink, SearchCheckpoint, SearchConfig, SearchConfigBuilder,
        SearchOutcome, SearchSnapshot, SearchStrategy, StopToken, CHECKPOINT_SCHEMA,
        SCHEMA_VERSION,
    };
    pub use ruby_workload::{suites, Dim, DimMap, Operand, ProblemShape};

    pub use crate::{Comparison, Explorer};
}

use ruby_arch::Architecture;
use ruby_mapspace::{Constraints, Mapspace, MapspaceKind};
use ruby_search::{BestMapping, Engine, SearchConfig, SearchOutcome};
use ruby_workload::ProblemShape;

/// High-level mapping exploration: an architecture plus constraints and
/// a search configuration, reusable across workloads and mapspace kinds.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Explorer {
    arch: Architecture,
    constraints: Constraints,
    config: SearchConfig,
}

impl Explorer {
    /// Creates an explorer with unconstrained mappings and default
    /// search settings.
    pub fn new(arch: Architecture) -> Self {
        let constraints = Constraints::unconstrained(arch.num_levels());
        Explorer {
            arch,
            constraints,
            config: SearchConfig::default(),
        }
    }

    /// Replaces the mapping constraints.
    ///
    /// # Panics
    ///
    /// Panics if the constraints cover a different number of levels than
    /// the architecture.
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        assert_eq!(
            constraints.num_levels(),
            self.arch.num_levels(),
            "constraints must cover every architecture level"
        );
        self.constraints = constraints;
        self
    }

    /// Replaces the search configuration.
    pub fn with_search(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// The architecture under exploration.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The active constraints.
    pub fn constraints(&self) -> &Constraints {
        &self.constraints
    }

    /// The active search configuration.
    pub fn search_config(&self) -> &SearchConfig {
        &self.config
    }

    /// The mapspace of `kind` for `shape` on this explorer's
    /// architecture and constraints.
    pub fn mapspace(&self, shape: &ProblemShape, kind: MapspaceKind) -> Mapspace {
        Mapspace::new(self.arch.clone(), shape.clone(), kind)
            .with_constraints(self.constraints.clone())
    }

    /// Searches the mapspace of `kind` for the best mapping of `shape`.
    /// Returns `None` if no valid mapping was found within the search
    /// budget.
    pub fn explore(&self, shape: &ProblemShape, kind: MapspaceKind) -> Option<BestMapping> {
        self.explore_with_outcome(shape, kind).best
    }

    /// Like [`Explorer::explore`], but returns the full
    /// [`SearchOutcome`] including the best-so-far trace.
    pub fn explore_with_outcome(&self, shape: &ProblemShape, kind: MapspaceKind) -> SearchOutcome {
        Engine::new(&self.mapspace(shape, kind))
            .with_config(self.config.clone())
            .run()
    }

    /// Searches all four mapspaces for `shape` and reports their best
    /// mappings side by side.
    pub fn compare(&self, shape: &ProblemShape) -> Comparison {
        let results = MapspaceKind::ALL.map(|kind| self.explore(shape, kind));
        Comparison { results }
    }
}

/// Best mappings per mapspace kind, in [`MapspaceKind::ALL`] order.
#[derive(Debug, Clone)]
pub struct Comparison {
    results: [Option<BestMapping>; 4],
}

impl Comparison {
    /// The best mapping found in the mapspace of `kind`, if any.
    pub fn best(&self, kind: MapspaceKind) -> Option<&BestMapping> {
        // lint: allow(panics) — MapspaceKind::ALL enumerates every
        // variant, so any `kind` value has a position.
        let idx = MapspaceKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("all kinds listed");
        self.results[idx].as_ref()
    }

    /// The EDP of `kind`'s best mapping relative to the PFM baseline
    /// (1.0 = parity, < 1.0 = better than PFM). `None` if either search
    /// came up empty.
    pub fn edp_vs_pfm(&self, kind: MapspaceKind) -> Option<f64> {
        let pfm = self.best(MapspaceKind::Pfm)?;
        let other = self.best(kind)?;
        Some(other.report.edp() / pfm.report.edp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruby_arch::presets;

    fn quick_config() -> SearchConfig {
        SearchConfig {
            max_evaluations: Some(3_000),
            termination: Some(300),
            ..Default::default()
        }
    }

    #[test]
    fn explorer_round_trip() {
        let arch = presets::toy_linear(16, 1024);
        let explorer = Explorer::new(arch).with_search(quick_config());
        let shape = ProblemShape::rank1("d", 113);
        let best = explorer
            .explore(&shape, MapspaceKind::RubyS)
            .expect("valid mapping");
        assert_eq!(best.report.cycles(), 8);
    }

    #[test]
    fn comparison_ranks_ruby_s_at_or_above_pfm() {
        let arch = presets::toy_linear(16, 1024);
        let explorer = Explorer::new(arch).with_search(quick_config());
        let comparison = explorer.compare(&ProblemShape::rank1("d", 113));
        let ratio = comparison
            .edp_vs_pfm(MapspaceKind::RubyS)
            .expect("both found");
        assert!(
            ratio < 1.0,
            "Ruby-S must beat PFM on a prime bound, got {ratio}"
        );
        assert_eq!(comparison.edp_vs_pfm(MapspaceKind::Pfm), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "every architecture level")]
    fn mismatched_constraints_rejected() {
        let arch = presets::toy_linear(4, 1024);
        let _ = Explorer::new(arch).with_constraints(Constraints::unconstrained(5));
    }
}
