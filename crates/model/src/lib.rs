//! Analytical cost model for the Ruby reproduction — the stand-in for
//! Timeloop's model + Accelergy.
//!
//! Given an [`ruby_arch::Architecture`], a [`ruby_workload::ProblemShape`]
//! and a [`ruby_mapping::Mapping`], [`evaluate`] either rejects the
//! mapping (capacity or fanout violation) or produces a [`CostReport`]
//! with cycles, energy, EDP, utilization and per-level per-tensor access
//! counts.
//!
//! # Modeling rules (Timeloop-conformant, remainder-exact where it counts)
//!
//! * **Temporal reuse**: a tile resident at level `l` is not refetched
//!   across the innermost contiguous run of loops *irrelevant* to the
//!   tensor above `l`; every loop outside that run multiplies refetches.
//! * **Remainders**: data volumes along relevant dimensions use exact
//!   tile partitions (they telescope to the dimension bound); halo sums
//!   use the closed form over the exact tile multisets; cycle counts run
//!   residual tiles for exactly their residual trip counts.
//! * **Multicast**: spatial children that need the same data (spatial
//!   loops irrelevant to the tensor) receive one parent read fanned out
//!   over the network; disable with [`ModelOptions::multicast`].
//! * **Spatial reduction**: partial sums from spatial children merge
//!   in-network before updating the parent; disable with
//!   [`ModelOptions::spatial_reduction`].
//! * **Outputs**: reduction iterations outside a level spill and refetch
//!   partial sums; the first pass initializes without a read.
//!
//! Irrelevant-loop *repeat multipliers* use nominal (ceiling) loop counts;
//! on residual branches the true repeat count can be slightly lower, so
//! refetch traffic is counted conservatively (within a few percent).
//!
//! # Examples
//!
//! ```
//! use ruby_arch::presets;
//! use ruby_mapping::{Mapping, SlotKind};
//! use ruby_model::{evaluate, ModelOptions};
//! use ruby_workload::{Dim, ProblemShape};
//!
//! let arch = presets::toy_linear(16, 1024);
//! let shape = ProblemShape::rank1("d113", 113);
//! let mut b = Mapping::builder(2);
//! b.set_tile(Dim::M, 0, SlotKind::SpatialX, 16);
//! let mapping = b.build_for_bounds(shape.bounds()).unwrap();
//! let report = evaluate(&arch, &shape, &mapping, &ModelOptions::default()).unwrap();
//! assert_eq!(report.cycles(), 8); // ceil(113 / 16)
//! ```

mod access;
mod batch;
mod bound;
mod context;
mod latency;
mod report;
mod validity;

use ruby_arch::Architecture;
use ruby_mapping::Mapping;
use ruby_workload::ProblemShape;

pub use batch::{BatchEvalContext, BatchVerdict, BATCH};
pub use bound::FLOOR_SLACK;
pub use context::{evaluate_with, summarize_with, EvalContext};
pub use report::{AccessCounts, CostReport, CostSummary, LevelStats};
pub use validity::InvalidMapping;

/// Toggles for the cost model's network behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelOptions {
    /// Parent reads fan identical data out to spatial children in one
    /// access (on by default; both Eyeriss and Simba NoCs multicast).
    pub multicast: bool,
    /// Partial sums from spatial children reduce in-network before
    /// reaching the parent (on by default).
    pub spatial_reduction: bool,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            multicast: true,
            spatial_reduction: true,
        }
    }
}

/// Evaluates `mapping` for `shape` on `arch`.
///
/// Builds a fresh [`EvalContext`] per call; when evaluating many
/// mappings against one `(arch, shape)` pair, build the context once
/// and call [`evaluate_with`] instead — the results are bit-identical.
///
/// # Errors
///
/// Returns [`InvalidMapping`] when the mapping needs more buffer capacity
/// or spatial fanout than the architecture provides.
pub fn evaluate(
    arch: &Architecture,
    shape: &ProblemShape,
    mapping: &Mapping,
    opts: &ModelOptions,
) -> Result<CostReport, InvalidMapping> {
    evaluate_with(&EvalContext::new(arch, shape, *opts), mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruby_arch::{Architecture, Capacity, Fanout, MemLevel};
    use ruby_energy::TechnologyModel;
    use ruby_mapping::SlotKind;
    use ruby_workload::{Dim, ProblemShape};

    fn toy(noc_hop: Option<f64>) -> Architecture {
        let tech = TechnologyModel::default();
        let mut dram = MemLevel::new(
            "DRAM",
            Capacity::Unbounded,
            [true; 3],
            tech.dram_access_energy(),
            Fanout::linear(4),
        );
        if let Some(hop) = noc_hop {
            dram = dram.with_noc_energy(hop);
        }
        let spad = MemLevel::new(
            "SPAD",
            Capacity::Shared(512),
            [true; 3],
            1.0,
            Fanout::unit(),
        );
        Architecture::new("noc_toy", vec![dram, spad], tech)
    }

    #[test]
    fn noc_energy_adds_network_cost() {
        let shape = ProblemShape::rank1("d", 100);
        let mut b = ruby_mapping::Mapping::builder(2);
        b.set_tile(Dim::M, 0, SlotKind::SpatialX, 4);
        let mapping = b.build_for_bounds(shape.bounds()).unwrap();
        let opts = ModelOptions::default();
        let base = evaluate(&toy(None), &shape, &mapping, &opts).unwrap();
        let with_noc = evaluate(&toy(Some(2.0)), &shape, &mapping, &opts).unwrap();
        // Network words below DRAM: weights 100 + input copies 4 +
        // psum returns 100 = 204, at 2.0 each.
        let expected = base.energy() + 2.0 * 204.0;
        assert!(
            (with_noc.energy() - expected).abs() < 1e-6,
            "{}",
            with_noc.energy()
        );
        assert_eq!(with_noc.cycles(), base.cycles());
    }

    #[test]
    fn zero_hop_energy_is_free() {
        let shape = ProblemShape::rank1("d", 16);
        let mapping = ruby_mapping::Mapping::builder(2)
            .build_for_bounds(shape.bounds())
            .unwrap();
        let opts = ModelOptions::default();
        let base = evaluate(&toy(None), &shape, &mapping, &opts).unwrap();
        let zero = evaluate(&toy(Some(0.0)), &shape, &mapping, &opts).unwrap();
        assert!((zero.energy() - base.energy()).abs() < 1e-9);
    }
}
