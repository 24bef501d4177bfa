//! Mapping intermediate representation for the Ruby reproduction.
//!
//! A [`Mapping`] describes how one tensor operation is laid out, in space
//! and time, over an [`ruby_arch::Architecture`]. Per problem dimension it
//! stores a *tile-size chain*: a non-decreasing sequence of cumulative
//! tile sizes, one entry per loop *slot*. Each storage level contributes
//! three slots — a temporal block plus the spatial-X / spatial-Y fanout
//! below the level — so an `L`-level hierarchy has `3·L` slots.
//!
//! The loop count of a slot is `ceil(outer_tile / inner_tile)`: when the
//! inner size does not divide the outer size the final iteration handles a
//! smaller *residual* tile. This is exactly the paper's imperfect
//! factorization (`L_n = L_{n+1}·P_n + R_n − 1`, eq. 5); chains whose
//! entries divide each other recover Timeloop's perfect-factorization
//! mappings (eq. 1).
//!
//! The crate also provides the exact *tile profiles* — multisets of tile
//! sizes at each slot boundary — that the cost model uses to account for
//! remainders without approximation, and the lockstep sequential-step
//! count that yields cycle counts under partially-filled spatial
//! iterations.

pub mod display;
pub mod profile;
pub mod slots;

use ruby_workload::{Dim, DimMap};

pub use profile::{ProfileScratch, TileProfile};
pub use slots::{SlotId, SlotKind, SlotLayout};

/// Errors produced when constructing or validating a [`Mapping`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// A tile chain has the wrong number of entries for the slot layout.
    WrongChainLength {
        dim: Dim,
        expected: usize,
        actual: usize,
    },
    /// A tile chain entry decreases going outward or the innermost entry
    /// is not 1.
    NonMonotoneChain { dim: Dim },
    /// The outermost chain entry does not equal the dimension bound.
    WrongOuterTile {
        dim: Dim,
        expected: u64,
        actual: u64,
    },
    /// A permutation is not a permutation of all seven dims.
    BadPermutation { level: usize },
    /// Wrong number of per-level permutations.
    WrongPermutationCount { expected: usize, actual: usize },
}

impl std::fmt::Display for MappingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingError::WrongChainLength {
                dim,
                expected,
                actual,
            } => write!(
                f,
                "tile chain for {dim} has {actual} entries, expected {expected}"
            ),
            MappingError::NonMonotoneChain { dim } => {
                write!(
                    f,
                    "tile chain for {dim} must start at 1 and be non-decreasing"
                )
            }
            MappingError::WrongOuterTile {
                dim,
                expected,
                actual,
            } => write!(
                f,
                "outermost tile for {dim} is {actual}, expected the dimension bound {expected}"
            ),
            MappingError::BadPermutation { level } => {
                write!(
                    f,
                    "permutation at level {level} is not a permutation of all dims"
                )
            }
            MappingError::WrongPermutationCount { expected, actual } => {
                write!(
                    f,
                    "got {actual} permutations, expected {expected} (one per level)"
                )
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// The canonical innermost-first permutation used when order does not
/// matter.
pub const DEFAULT_PERM: [Dim; 7] = [Dim::S, Dim::R, Dim::Q, Dim::P, Dim::C, Dim::M, Dim::N];

/// A complete mapping: tile chains per dimension plus a per-level loop
/// permutation for the temporal blocks.
///
/// # Examples
///
/// Build the paper's Fig. 5 highlighted mapping — 100 elements over 6 PEs,
/// 17 GLB iterations (16 full + 1 residual using 4 PEs):
///
/// ```
/// use ruby_mapping::{Mapping, SlotKind};
/// use ruby_workload::Dim;
///
/// // Two levels (DRAM, PE-scratch): chain entries innermost-first, one
/// // per slot boundary. M: spatial 6 below DRAM, residual-carrying
/// // temporal count ceil(100/6) = 17 at DRAM.
/// let mut builder = Mapping::builder(2);
/// builder.set_tile(Dim::M, 1, SlotKind::SpatialX, 6); // DRAM fanout slot
/// let m = builder.build_for_bounds(&[1, 100, 1, 1, 1, 1, 1].into()).unwrap();
/// let dram_t = m.layout().temporal_slot(0);
/// assert_eq!(m.loop_count(Dim::M, dram_t), 17);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    layout: SlotLayout,
    /// Per dim: cumulative tile sizes, `len == num_slots + 1`,
    /// `chain[0] == 1` (a single element), `chain[num_slots] == bound`.
    tiling: DimMap<Vec<u64>>,
    /// Per storage level (outermost first): dim order of the temporal
    /// block, innermost dim first.
    perms: Vec<[Dim; 7]>,
}

serde::impl_serde_struct!(Mapping {
    layout,
    tiling,
    perms
});

impl Mapping {
    /// Validates and builds a mapping from explicit tile chains.
    ///
    /// # Errors
    ///
    /// Returns a [`MappingError`] if chain lengths, monotonicity, outer
    /// tiles, or permutations are inconsistent with the layout.
    pub fn from_tile_chains(
        num_levels: usize,
        tiling: DimMap<Vec<u64>>,
        perms: Vec<[Dim; 7]>,
    ) -> Result<Mapping, MappingError> {
        let layout = SlotLayout::new(num_levels);
        let expected = layout.num_slots() + 1;
        for (dim, chain) in tiling.iter() {
            if chain.len() != expected {
                return Err(MappingError::WrongChainLength {
                    dim,
                    expected,
                    actual: chain.len(),
                });
            }
            if chain[0] != 1 || chain.windows(2).any(|w| w[0] > w[1]) {
                return Err(MappingError::NonMonotoneChain { dim });
            }
        }
        if perms.len() != num_levels {
            return Err(MappingError::WrongPermutationCount {
                expected: num_levels,
                actual: perms.len(),
            });
        }
        for (level, perm) in perms.iter().enumerate() {
            let mut seen = [false; 7];
            for d in perm {
                seen[d.index()] = true;
            }
            if seen.iter().any(|s| !s) {
                return Err(MappingError::BadPermutation { level });
            }
        }
        Ok(Mapping {
            layout,
            tiling,
            perms,
        })
    }

    /// Starts a [`MappingBuilder`] for an architecture with `num_levels`
    /// storage levels. All factors default to 1 and permutations to
    /// [`DEFAULT_PERM`].
    pub fn builder(num_levels: usize) -> MappingBuilder {
        MappingBuilder::new(num_levels)
    }

    /// The slot layout shared by all dimensions.
    pub fn layout(&self) -> &SlotLayout {
        &self.layout
    }

    /// The cumulative tile size of `dim` at slot boundary `b`
    /// (0 = a single element, `num_slots` = the full bound).
    #[inline]
    pub fn tile_at_boundary(&self, dim: Dim, b: usize) -> u64 {
        self.tiling[dim][b]
    }

    /// The nominal loop count of `slot` along `dim`:
    /// `ceil(outer_tile / inner_tile)`.
    #[inline]
    pub fn loop_count(&self, dim: Dim, slot: SlotId) -> u64 {
        let chain = &self.tiling[dim];
        let s = slot.index();
        chain[s + 1].div_ceil(chain[s])
    }

    /// Whether `slot` carries a remainder along `dim` (the inner tile does
    /// not divide the outer tile).
    #[inline]
    pub fn has_remainder(&self, dim: Dim, slot: SlotId) -> bool {
        let chain = &self.tiling[dim];
        let s = slot.index();
        !chain[s + 1].is_multiple_of(chain[s])
    }

    /// Whether any slot of any dimension carries a remainder — i.e.
    /// whether this mapping lies outside the perfect-factorization space.
    pub fn is_imperfect(&self) -> bool {
        Dim::ALL
            .iter()
            .any(|&d| (0..self.layout.num_slots()).any(|s| self.has_remainder(d, SlotId::new(s))))
    }

    /// The per-dimension extents of the tile *stored at* storage level
    /// `level` (0 = outermost). This covers the level's own temporal block
    /// and everything inside it.
    pub fn tile_at_level(&self, level: usize) -> DimMap<u64> {
        let b = self.layout.storage_boundary(level);
        DimMap::from_fn(|d| self.tiling[d][b])
    }

    /// The per-dimension nominal loop counts of the spatial slots below
    /// `level`: `(along X, along Y)` products.
    pub fn spatial_extent(&self, level: usize) -> (u64, u64) {
        let sx = self.layout.spatial_x_slot(level);
        let sy = self.layout.spatial_y_slot(level);
        let x = Dim::ALL
            .iter()
            .fold(1u64, |acc, &d| acc.saturating_mul(self.loop_count(d, sx)));
        let y = Dim::ALL
            .iter()
            .fold(1u64, |acc, &d| acc.saturating_mul(self.loop_count(d, sy)));
        (x, y)
    }

    /// The temporal-block permutation at `level`, innermost dim first.
    pub fn permutation(&self, level: usize) -> &[Dim; 7] {
        &self.perms[level]
    }

    /// The exact multiset of tile sizes of `dim` at every slot boundary
    /// (see [`TileProfile`]). Index `b` of the result corresponds to
    /// boundary `b`; the outermost profile is `{bound: 1}`.
    pub fn profiles(&self, dim: Dim) -> Vec<TileProfile> {
        profile::boundary_profiles(&self.tiling[dim])
    }

    /// `num_tiles` of every [`Self::profiles`] entry for `dim`, written
    /// into `out` (`out[b]` = tile count at boundary `b`) without
    /// materializing the multisets — the cost model's hot path (see
    /// [`profile::boundary_tile_counts_into`]).
    pub fn boundary_tile_counts_into(
        &self,
        dim: Dim,
        scratch: &mut ProfileScratch,
        out: &mut Vec<u64>,
    ) {
        profile::boundary_tile_counts_into(&self.tiling[dim], scratch, out);
    }

    /// The number of *sequential* steps contributed by `dim`: temporal
    /// slots run tiles one after another (residual tiles take exactly
    /// their residual count of inner steps), spatial slots run chunks in
    /// lockstep (the largest chunk paces the group). The product over all
    /// dims is the compute cycle count.
    pub fn sequential_steps(&self, dim: Dim) -> u64 {
        profile::sequential_steps(&self.tiling[dim], &self.layout)
    }

    /// Total compute cycles: the product of [`Mapping::sequential_steps`]
    /// over all dimensions (saturating). One scratch serves all seven
    /// walks, so the per-candidate latency path stays allocation-light.
    pub fn compute_cycles(&self) -> u64 {
        let mut scratch = ProfileScratch::new();
        Dim::ALL.iter().fold(1u64, |acc, &d| {
            acc.saturating_mul(profile::sequential_steps_with(
                &self.tiling[d],
                &self.layout,
                &mut scratch,
            ))
        })
    }

    /// The raw tile chain of `dim` (testing/diagnostics).
    pub fn tile_chain(&self, dim: Dim) -> &[u64] {
        &self.tiling[dim]
    }

    /// Overwrites the tile chain of `dim` in place, reusing its
    /// allocation. The enumeration engine's hot path: a
    /// `SubspaceIterator` swaps per-dimension chains in and out of one
    /// reused mapping without rebuilding it.
    ///
    /// Chain invariants (`len == num_slots + 1`, `chain[0] == 1`,
    /// non-decreasing) are checked with debug assertions only; callers
    /// must supply chains produced by validated machinery.
    pub fn set_tile_chain(&mut self, dim: Dim, chain: &[u64]) {
        debug_assert_eq!(chain.len(), self.layout.num_slots() + 1);
        debug_assert_eq!(chain.first(), Some(&1));
        debug_assert!(chain.windows(2).all(|w| w[0] <= w[1]));
        let dst = &mut self.tiling[dim];
        dst.clear();
        dst.extend_from_slice(chain);
    }

    /// The tile chain of `dim`, writable in place, for decoders that
    /// produce a chain entry by entry. The caller keeps the invariants
    /// [`Mapping::set_tile_chain`] lists; nothing checks them here.
    pub fn tile_chain_mut(&mut self, dim: Dim) -> &mut [u64] {
        &mut self.tiling[dim]
    }

    /// Replaces the temporal-block permutation at `level` (innermost dim
    /// first).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of all seven dims or `level`
    /// is out of range.
    pub fn set_permutation(&mut self, level: usize, perm: [Dim; 7]) {
        let mut seen = [false; 7];
        for d in perm {
            seen[d.index()] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "permutation must cover all seven dims"
        );
        self.perms[level] = perm;
    }

    /// A 64-bit canonical key for memoization: two mappings with the same
    /// key are (up to negligible hash-collision probability) the same
    /// point of the cost model.
    ///
    /// The key mixes every tile-chain entry plus, per level, the
    /// permutation restricted to dims whose temporal loop count at that
    /// level exceeds 1 — the only part of a permutation the cost model
    /// observes (trivial loops never affect reuse analysis), so mappings
    /// that differ only in the ordering of trivial loops share a key.
    pub fn canonical_key(&self) -> u64 {
        const CHAIN_SEP: u64 = 0xD6E8_FEB8_6659_FD93;
        const LEVEL_SEP: u64 = 0xA5A5_A5A5_5A5A_5A5A;
        let mut h = 0x243F_6A88_85A3_08D3u64;
        for d in Dim::ALL {
            for &t in &self.tiling[d] {
                h = mix(h, t);
            }
            h = mix(h, CHAIN_SEP);
        }
        for (level, perm) in self.perms.iter().enumerate() {
            let slot = self.layout.temporal_slot(level);
            for &d in perm {
                if self.loop_count(d, slot) > 1 {
                    h = mix(h, d.index() as u64 + 1);
                }
            }
            h = mix(h, LEVEL_SEP);
        }
        h
    }
}

/// SplitMix64-style mixing step used by [`Mapping::canonical_key`].
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Incremental builder for [`Mapping`] (see [`Mapping::builder`]).
///
/// Factors are set per `(dim, level, slot-kind)`; unset factors default
/// to 1. [`MappingBuilder::build_for_bounds`] then closes each chain by
/// assigning the outermost temporal slot whatever loop count covers the
/// dimension bound — which is where remainders naturally appear.
#[derive(Debug, Clone)]
pub struct MappingBuilder {
    layout: SlotLayout,
    /// Per dim, per slot (inner-first): the factor at that slot.
    factors: DimMap<Vec<u64>>,
    perms: Vec<[Dim; 7]>,
}

impl MappingBuilder {
    fn new(num_levels: usize) -> Self {
        let layout = SlotLayout::new(num_levels);
        let factors = DimMap::from_fn(|_| vec![1u64; layout.num_slots()]);
        MappingBuilder {
            layout,
            factors,
            perms: vec![DEFAULT_PERM; num_levels],
        }
    }

    /// Resets every factor to 1 and every permutation to
    /// [`DEFAULT_PERM`], keeping the allocations. Lets one builder be
    /// reused across many samples in a hot loop.
    pub fn reset(&mut self) -> &mut Self {
        for (_, factors) in self.factors.iter_mut() {
            factors.fill(1);
        }
        self.perms.fill(DEFAULT_PERM);
        self
    }

    /// Sets the factor of `dim` at the given level and slot kind.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero or `level` is out of range.
    pub fn set_tile(&mut self, dim: Dim, level: usize, kind: SlotKind, factor: u64) -> &mut Self {
        assert!(factor > 0, "factors must be positive");
        let slot = self.layout.slot(level, kind);
        self.factors[dim][slot.index()] = factor;
        self
    }

    /// Sets the temporal permutation of `level` (innermost dim first).
    pub fn set_permutation(&mut self, level: usize, perm: [Dim; 7]) -> &mut Self {
        self.perms[level] = perm;
        self
    }

    /// Builds the mapping for the given dimension bounds. Chains are the
    /// cumulative products of the factors, clamped to the bound; if the
    /// factors do not reach the bound, the *outermost temporal slot* is
    /// stretched to cover it (potentially imperfectly).
    ///
    /// # Errors
    ///
    /// Propagates [`MappingError`] from validation.
    pub fn build_for_bounds(&self, bounds: &DimMap<u64>) -> Result<Mapping, MappingError> {
        let num_slots = self.layout.num_slots();
        let tiling = DimMap::from_fn(|d| {
            let bound = bounds[d];
            let mut chain = Vec::with_capacity(num_slots + 1);
            chain.push(1u64);
            let mut cum = 1u64;
            for s in 0..num_slots {
                cum = cum.saturating_mul(self.factors[d][s]).min(bound);
                chain.push(cum);
            }
            // Stretch the outermost boundary to the bound.
            chain[num_slots] = bound;
            // Outer temporal slot of level 0 is the last slot; chain stays
            // monotone because every entry is clamped to the bound.
            chain
        });
        Mapping::from_tile_chains(self.layout.num_levels(), tiling, self.perms.clone())
    }

    /// Builds into an existing mapping, reusing its chain and permutation
    /// allocations. Produces exactly the same mapping as
    /// [`MappingBuilder::build_for_bounds`]; `out`'s previous contents
    /// (including a different hierarchy depth) are fully overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::BadPermutation`] if a permutation set via
    /// [`MappingBuilder::set_permutation`] does not cover all seven dims.
    /// (Builder-produced tile chains are always valid: factors are
    /// positive and chains are clamped monotone.)
    pub fn build_into_for_bounds(
        &self,
        bounds: &DimMap<u64>,
        out: &mut Mapping,
    ) -> Result<(), MappingError> {
        for (level, perm) in self.perms.iter().enumerate() {
            let mut seen = [false; 7];
            for d in perm {
                seen[d.index()] = true;
            }
            if seen.iter().any(|s| !s) {
                return Err(MappingError::BadPermutation { level });
            }
        }
        let num_slots = self.layout.num_slots();
        out.layout = self.layout;
        out.perms.clear();
        out.perms.extend_from_slice(&self.perms);
        for (d, chain) in out.tiling.iter_mut() {
            let bound = bounds[d];
            chain.clear();
            chain.reserve(num_slots + 1);
            chain.push(1u64);
            let mut cum = 1u64;
            for s in 0..num_slots {
                cum = cum.saturating_mul(self.factors[d][s]).min(bound);
                chain.push(cum);
            }
            // Stretch the outermost boundary to the bound.
            chain[num_slots] = bound;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds_m(d: u64) -> DimMap<u64> {
        let mut b = DimMap::splat(1u64);
        b[Dim::M] = d;
        b
    }

    #[test]
    fn builder_defaults_put_everything_outer_temporal() {
        let m = Mapping::builder(2)
            .build_for_bounds(&bounds_m(100))
            .unwrap();
        let dram_t = m.layout().temporal_slot(0);
        assert_eq!(m.loop_count(Dim::M, dram_t), 100);
        assert_eq!(m.compute_cycles(), 100);
        assert!(!m.is_imperfect());
    }

    #[test]
    fn fig5_mapping_six_pes_seventeen_iterations() {
        // 100 elements over 6 PEs: ceil(100/6) = 17 DRAM iterations, the
        // final one using 4 PEs. Matches the paper's Fig. 5 walkthrough.
        let mut b = Mapping::builder(2);
        b.set_tile(Dim::M, 0, SlotKind::SpatialX, 6);
        let m = b.build_for_bounds(&bounds_m(100)).unwrap();
        let dram_t = m.layout().temporal_slot(0);
        assert_eq!(m.loop_count(Dim::M, dram_t), 17);
        assert!(m.is_imperfect());
        assert_eq!(m.compute_cycles(), 17);
        // Spatial extent below DRAM (level 0) is 6 wide.
        assert_eq!(m.spatial_extent(0), (6, 1));
    }

    #[test]
    fn perfect_chain_counts_match_factors() {
        let mut b = Mapping::builder(2);
        b.set_tile(Dim::M, 0, SlotKind::SpatialX, 5);
        b.set_tile(Dim::M, 1, SlotKind::Temporal, 4);
        let m = b.build_for_bounds(&bounds_m(100)).unwrap();
        // Chain: 1 -> (PE T) 4 -> (DRAM spatial) 20 -> (DRAM T) 100.
        assert!(!m.is_imperfect());
        let pe_t = m.layout().temporal_slot(1);
        let dram_sx = m.layout().spatial_x_slot(0);
        let dram_t = m.layout().temporal_slot(0);
        assert_eq!(m.loop_count(Dim::M, pe_t), 4);
        assert_eq!(m.loop_count(Dim::M, dram_sx), 5);
        assert_eq!(m.loop_count(Dim::M, dram_t), 5);
        assert_eq!(m.compute_cycles(), 20);
        assert_eq!(m.tile_at_level(1)[Dim::M], 4);
        assert_eq!(m.tile_at_level(0)[Dim::M], 100);
    }

    #[test]
    fn residual_inner_loops_counted_exactly() {
        // Chain 1 -> 7 -> 100, both temporal: 14 full tiles of 7 plus one
        // residual tile of 2 gives 14*7 + 2 = 100 steps, not 15*7.
        let mut b = Mapping::builder(2);
        b.set_tile(Dim::M, 1, SlotKind::Temporal, 7);
        let m = b.build_for_bounds(&bounds_m(100)).unwrap();
        assert_eq!(m.sequential_steps(Dim::M), 100);
    }

    #[test]
    fn lockstep_spatial_residual_tile() {
        // Chain 1 -> 6(spatial) -> 100: 17 lockstep steps.
        let mut b = Mapping::builder(2);
        b.set_tile(Dim::M, 0, SlotKind::SpatialX, 6);
        let m = b.build_for_bounds(&bounds_m(100)).unwrap();
        assert_eq!(m.sequential_steps(Dim::M), 17);
    }

    #[test]
    fn chain_validation_rejects_bad_chains() {
        let layout_len = SlotLayout::new(2).num_slots() + 1;
        let mut tiling = DimMap::from_fn(|_| vec![1u64; layout_len]);
        // Outer tile of M must equal the bound; leave it at 1 but claim
        // a bound of 100 by building a non-monotone chain instead.
        tiling[Dim::M] = vec![1, 5, 3, 100, 100, 100, 100];
        let err = Mapping::from_tile_chains(2, tiling, vec![DEFAULT_PERM; 2]).unwrap_err();
        assert_eq!(err, MappingError::NonMonotoneChain { dim: Dim::M });
    }

    #[test]
    fn permutation_validation() {
        let m = Mapping::builder(2).build_for_bounds(&bounds_m(4)).unwrap();
        assert_eq!(m.permutation(0), &DEFAULT_PERM);
        let bad_perm = [Dim::M; 7];
        let err = Mapping::from_tile_chains(2, m.tiling.clone(), vec![DEFAULT_PERM, bad_perm])
            .unwrap_err();
        assert_eq!(err, MappingError::BadPermutation { level: 1 });
    }

    #[test]
    fn overshooting_factors_clamp_to_bound() {
        let mut b = Mapping::builder(2);
        b.set_tile(Dim::M, 1, SlotKind::Temporal, 64);
        b.set_tile(Dim::M, 0, SlotKind::SpatialX, 64);
        let m = b.build_for_bounds(&bounds_m(100)).unwrap();
        // 64 then clamp(64*64 -> 100): spatial count ceil(100/64) = 2.
        let sx = m.layout().spatial_x_slot(0);
        assert_eq!(m.loop_count(Dim::M, sx), 2);
        assert_eq!(m.loop_count(Dim::M, m.layout().temporal_slot(0)), 1);
    }
}
