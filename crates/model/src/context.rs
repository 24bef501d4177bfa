//! Reusable evaluation context: everything [`crate::evaluate`] derives
//! from the `(Architecture, ProblemShape, ModelOptions)` triple alone,
//! hoisted out of the per-mapping hot path.
//!
//! A random search evaluates hundreds of thousands of mappings against
//! one fixed architecture and workload. Rebuilding operand projections
//! ([`TensorDef`]s), storage chains and energy coefficients on every call
//! costs several heap allocations per evaluation before any real work
//! happens. [`EvalContext`] computes them once; [`evaluate_with`] then
//! evaluates each candidate against the prepared context, running the
//! cheap rejection tests (spatial fanout, then buffer capacity) before
//! any access counting, so invalid mappings — the vast majority of random
//! samples — exit as early as possible.
//!
//! [`crate::evaluate`] is a thin wrapper that builds a fresh context per
//! call; both paths produce bit-identical [`CostReport`]s.

use ruby_arch::Architecture;
use ruby_mapping::Mapping;
use ruby_workload::{Operand, ProblemShape, TensorDef};

use crate::report::{AccessCounts, CostReport, CostSummary, LevelStats};
use crate::validity::InvalidMapping;
use crate::{access, bound, latency, validity, ModelOptions};

/// Precomputed per-`(arch, shape)` evaluation state.
///
/// Build once, then call [`evaluate_with`] for every candidate mapping.
///
/// # Examples
///
/// ```
/// use ruby_arch::presets;
/// use ruby_mapping::{Mapping, SlotKind};
/// use ruby_model::{evaluate_with, EvalContext, ModelOptions};
/// use ruby_workload::{Dim, ProblemShape};
///
/// let arch = presets::toy_linear(16, 1024);
/// let shape = ProblemShape::rank1("d113", 113);
/// let ctx = EvalContext::new(&arch, &shape, ModelOptions::default());
/// let mut b = Mapping::builder(2);
/// b.set_tile(Dim::M, 0, SlotKind::SpatialX, 16);
/// let mapping = b.build_for_bounds(shape.bounds()).unwrap();
/// assert_eq!(evaluate_with(&ctx, &mapping).unwrap().cycles(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct EvalContext<'a> {
    arch: &'a Architecture,
    shape: &'a ProblemShape,
    opts: ModelOptions,
    /// Operand projections (ranks + relevance masks), indexed by
    /// [`Operand::index`].
    tensors: [TensorDef; 3],
    /// Storage chains (level indices, outermost first), indexed by
    /// [`Operand::index`].
    chains: [Vec<usize>; 3],
    macs: u64,
    /// Total compute energy: `macs × mac_energy`.
    compute_energy: f64,
    total_mac_units: u64,
    /// Admissible lower bound on any valid mapping's energy (see
    /// [`crate::bound`]).
    energy_floor: f64,
}

impl<'a> EvalContext<'a> {
    /// Precomputes the mapping-independent evaluation state.
    pub fn new(arch: &'a Architecture, shape: &'a ProblemShape, opts: ModelOptions) -> Self {
        let tensors = Operand::ALL.map(|op| shape.tensor(op));
        let chains = Operand::ALL.map(|op| arch.storage_chain(op));
        let macs = shape.macs();
        let compute_energy = macs as f64 * arch.mac_energy();
        let energy_floor = bound::energy_floor(
            arch,
            shape,
            &tensors,
            &chains,
            &opts,
            compute_energy,
            &bound::max_fanout_below(arch),
        );
        EvalContext {
            arch,
            shape,
            opts,
            tensors,
            chains,
            macs,
            compute_energy,
            total_mac_units: arch.total_mac_units(),
            energy_floor,
        }
    }

    /// The architecture the context was built for.
    pub fn arch(&self) -> &'a Architecture {
        self.arch
    }

    /// The workload the context was built for.
    pub fn shape(&self) -> &'a ProblemShape {
        self.shape
    }

    /// The model options baked into the context.
    pub fn options(&self) -> &ModelOptions {
        &self.opts
    }

    /// An admissible lower bound on the energy of *any* mapping this
    /// context would evaluate as valid: no fanout- and capacity-valid
    /// mapping's [`CostReport::energy`] can fall below it (see
    /// [`crate::bound`] for the argument). Search backends combine it
    /// with a cycle bound to prune candidates before evaluation.
    pub fn energy_floor(&self) -> f64 {
        self.energy_floor
    }

    /// The energy floor specialized to mappings whose *utilized* spatial
    /// fanout at level `l` is exactly `utilized[l]` (the product of the
    /// mapping's spatial loop counts at that level). For such mappings
    /// the terminal traffic divisor cannot exceed the product of the
    /// utilized fanouts below the terminal level, so this floor is both
    /// admissible for the subset and at least as tight as
    /// [`Self::energy_floor`]. Enumeration regions share one spatial
    /// signature, making this their exact subset floor.
    ///
    /// # Panics
    ///
    /// Panics if `utilized` does not have one entry per level.
    pub fn energy_floor_for_spatial(&self, utilized: &[u64]) -> f64 {
        assert_eq!(utilized.len(), self.arch.num_levels());
        let mut fanout_below = vec![1.0f64; utilized.len()];
        for (i, &u) in utilized.iter().enumerate().rev() {
            let inner = if i + 1 < utilized.len() {
                fanout_below[i + 1]
            } else {
                1.0
            };
            fanout_below[i] = inner * u.max(1) as f64;
        }
        bound::energy_floor(
            self.arch,
            self.shape,
            &self.tensors,
            &self.chains,
            &self.opts,
            self.compute_energy,
            &fanout_below,
        )
    }

    /// Runs only the cheap validity screens (spatial fanout, then buffer
    /// capacity) without any access counting, returning the mapping's
    /// *buffer pressure*: the summed tile footprint in words over every
    /// capacity-bounded level. A mapping rejected here is exactly the
    /// set [`evaluate_with`] rejects; search backends use this to
    /// discard infeasible candidates — and to rank feasible ones by how
    /// fully they use the buffers — without spending a model evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidMapping`] exactly when [`evaluate_with`] would.
    pub fn precheck(&self, mapping: &Mapping) -> Result<u64, InvalidMapping> {
        validity::screen(self.arch, &self.tensors, mapping)
    }

    /// Collects *every* validity violation of `mapping`, in a fixed
    /// deterministic order (fanout by ascending level, then capacity by
    /// ascending level and [`Operand::ALL`] order within a level).
    ///
    /// The result is non-empty exactly when [`Self::precheck`] (and
    /// therefore [`evaluate_with`]) rejects the mapping: both run the
    /// same per-level predicates, this one just keeps scanning past the
    /// first failure. Diagnostics-facing cold path — semantic analyzers
    /// build their reports from this instead of re-deriving the model's
    /// validity rules.
    pub fn violations(&self, mapping: &Mapping) -> Vec<InvalidMapping> {
        let mut out = Vec::new();
        validity::collect_violations(self.arch, &self.tensors, mapping, &mut out);
        out
    }

    pub(crate) fn tensors(&self) -> &[TensorDef; 3] {
        &self.tensors
    }

    pub(crate) fn chains(&self) -> &[Vec<usize>; 3] {
        &self.chains
    }
}

/// Evaluates `mapping` against a prepared [`EvalContext`].
///
/// Produces exactly the same result as [`crate::evaluate`] on the same
/// inputs, but skips all per-call precomputation and rejects invalid
/// mappings before any access counting: every level's spatial fanout is
/// checked first (pure integer comparisons), then buffer capacities
/// (tile footprints), and only survivors reach the access-counting and
/// latency machinery.
///
/// # Errors
///
/// Returns [`InvalidMapping`] when the mapping needs more buffer capacity
/// or spatial fanout than the architecture provides.
///
/// # Panics
///
/// Panics if the mapping was built for a different hierarchy depth.
pub fn evaluate_with(ctx: &EvalContext, mapping: &Mapping) -> Result<CostReport, InvalidMapping> {
    assert_eq!(
        ctx.arch.num_levels(),
        mapping.layout().num_levels(),
        "mapping was built for a different hierarchy depth"
    );
    validity::check_fanout(ctx.arch, mapping)?;
    validity::check_capacity(ctx.arch, ctx.tensors(), mapping)?;
    Ok(evaluate_unchecked(ctx, mapping))
}

/// [`evaluate_with`] without the per-level breakdown: same validity
/// screens, but the result carries only the scalar quantities
/// ([`CostSummary`]) and performs no heap allocation for level names.
/// Every field is bit-identical to what [`evaluate_with`] would report
/// — both run [`cost_core`] — so a caller can search on summaries and
/// materialize the full [`CostReport`] only for the mappings it keeps.
///
/// # Errors
///
/// Returns [`InvalidMapping`] exactly when [`evaluate_with`] would.
///
/// # Panics
///
/// Panics if the mapping was built for a different hierarchy depth.
pub fn summarize_with(ctx: &EvalContext, mapping: &Mapping) -> Result<CostSummary, InvalidMapping> {
    assert_eq!(
        ctx.arch.num_levels(),
        mapping.layout().num_levels(),
        "mapping was built for a different hierarchy depth"
    );
    validity::check_fanout(ctx.arch, mapping)?;
    validity::check_capacity(ctx.arch, ctx.tensors(), mapping)?;
    Ok(summarize_unchecked(ctx, mapping, mapping.compute_cycles()))
}

/// The post-validity body shared by every evaluation path: access
/// counting, latency, and the per-level energy accumulation. `steps` is
/// the mapping's [`Mapping::compute_cycles`], passed in because the
/// batched walk has already computed it for its cost floor. `stats`
/// optionally collects the per-level breakdown; crucially, the energy
/// sum runs the *same* floating-point additions in the same order
/// whether or not stats are collected, so the lean and full paths are
/// bit-identical by construction.
fn cost_core(
    ctx: &EvalContext,
    mapping: &Mapping,
    steps: u64,
    mut stats: Option<&mut Vec<LevelStats>>,
) -> (u64, f64, f64) {
    let accesses = access::count_accesses(
        ctx.arch,
        ctx.shape,
        ctx.tensors(),
        ctx.chains(),
        mapping,
        &ctx.opts,
    );
    let cycles = latency::cycles(ctx.arch, steps, &accesses);

    let mut energy = ctx.compute_energy;
    for (i, level) in ctx.arch.levels().iter().enumerate() {
        let per_tensor = accesses[i];
        let words: f64 = per_tensor.iter().map(AccessCounts::total).sum();
        let mut level_energy = words * level.access_energy();
        if let Some(hop) = level.noc_hop_energy() {
            let network: f64 = per_tensor.iter().map(|c| c.network).sum();
            level_energy += network * hop;
        }
        energy += level_energy;
        if let Some(stats) = stats.as_deref_mut() {
            stats.push(LevelStats::new(
                level.name().to_string(),
                level_energy,
                per_tensor,
            ));
        }
    }

    let utilization = ctx.macs as f64 / (cycles as f64 * ctx.total_mac_units as f64);
    (cycles, energy, utilization)
}

/// Full costing of a mapping *already proven valid* (by
/// [`validity::screen`] or the batched ladder). Skipping the validity
/// re-check is what lets the batched path screen once and cost once.
pub(crate) fn evaluate_unchecked(ctx: &EvalContext, mapping: &Mapping) -> CostReport {
    let mut level_stats = Vec::with_capacity(ctx.arch.num_levels());
    let steps = mapping.compute_cycles();
    let (cycles, energy, utilization) = cost_core(ctx, mapping, steps, Some(&mut level_stats));
    CostReport::new(ctx.macs, cycles, energy, utilization, level_stats)
}

/// Lean costing of a mapping already proven valid (see
/// [`evaluate_unchecked`]) whose compute cycles are `steps`; no
/// per-level allocation.
pub(crate) fn summarize_unchecked(ctx: &EvalContext, mapping: &Mapping, steps: u64) -> CostSummary {
    debug_assert_eq!(steps, mapping.compute_cycles(), "stale step count");
    let (cycles, energy, utilization) = cost_core(ctx, mapping, steps, None);
    CostSummary::new(ctx.macs, cycles, energy, utilization)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruby_arch::presets;
    use ruby_mapping::SlotKind;
    use ruby_workload::Dim;

    #[test]
    fn context_precomputes_chains_and_tensors() {
        let arch = presets::eyeriss_like(14, 12);
        let shape = ProblemShape::conv("c", 1, 8, 4, 14, 14, 3, 3, (1, 1));
        let ctx = EvalContext::new(&arch, &shape, ModelOptions::default());
        for op in Operand::ALL {
            assert_eq!(ctx.tensors()[op.index()], shape.tensor(op));
            assert_eq!(ctx.chains()[op.index()], arch.storage_chain(op));
        }
        assert_eq!(ctx.macs, shape.macs());
        assert_eq!(ctx.total_mac_units, arch.total_mac_units());
    }

    #[test]
    fn invalid_mapping_rejected_before_counting() {
        let arch = presets::toy_linear(4, 1024);
        let shape = ProblemShape::rank1("d", 100);
        let ctx = EvalContext::new(&arch, &shape, ModelOptions::default());
        let mut b = Mapping::builder(2);
        b.set_tile(Dim::M, 0, SlotKind::SpatialX, 8);
        let mapping = b.build_for_bounds(shape.bounds()).unwrap();
        assert!(matches!(
            evaluate_with(&ctx, &mapping),
            Err(InvalidMapping::FanoutExceeded { level: 0, .. })
        ));
    }

    #[test]
    fn fanout_rejection_wins_over_capacity() {
        // A mapping violating both fanout (level 0) and shared capacity
        // (level 1) reports the cheaper fanout check first.
        let arch = presets::toy_linear(4, 64);
        let shape = ProblemShape::rank1("d", 100);
        let ctx = EvalContext::new(&arch, &shape, ModelOptions::default());
        let mut b = Mapping::builder(2);
        b.set_tile(Dim::M, 0, SlotKind::SpatialX, 8);
        b.set_tile(Dim::M, 1, SlotKind::Temporal, 12);
        let mapping = b.build_for_bounds(shape.bounds()).unwrap();
        assert!(matches!(
            evaluate_with(&ctx, &mapping),
            Err(InvalidMapping::FanoutExceeded { .. })
        ));
    }
}
