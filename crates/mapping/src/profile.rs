//! Exact tile-size multisets under imperfect factorization.
//!
//! When an inner tile size does not divide its parent, the parent splits
//! into full tiles plus one residual — and residuals recursively split
//! inward, so the set of tile sizes circulating at a boundary is a small
//! multiset rather than a single value. [`boundary_profiles`] computes
//! those multisets exactly for one dimension's tile chain; the cost model
//! uses them to count tile deliveries and sliding-window halos without
//! remainder approximation.

use std::collections::BTreeMap;

use crate::slots::{SlotId, SlotLayout};

/// The multiset of tile sizes at one chain boundary: `(size, count)`
/// pairs sorted by size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileProfile {
    entries: Vec<(u64, u64)>,
}

impl TileProfile {
    /// A profile with a single tile of the given size.
    pub fn single(size: u64) -> Self {
        TileProfile {
            entries: vec![(size, 1)],
        }
    }

    fn from_map(map: BTreeMap<u64, u64>) -> Self {
        TileProfile {
            entries: map.into_iter().collect(),
        }
    }

    /// The `(size, count)` entries, smallest size first.
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> u64 {
        self.entries.iter().map(|&(_, c)| c).sum()
    }

    /// Total elements covered: `Σ size·count`.
    pub fn total_elements(&self) -> u64 {
        self.entries
            .iter()
            .fold(0u64, |acc, &(s, c)| acc.saturating_add(s.saturating_mul(c)))
    }

    /// The largest tile size present (0 for an empty profile).
    pub fn max_size(&self) -> u64 {
        self.entries.last().map_or(0, |&(s, _)| s)
    }

    /// Splits every tile into children of granularity `g` (full tiles of
    /// size `g` plus at most one residual per tile).
    ///
    /// # Panics
    ///
    /// Panics if `g` is zero.
    pub fn split(&self, g: u64) -> TileProfile {
        assert!(g > 0, "granularity must be positive");
        let mut out: BTreeMap<u64, u64> = BTreeMap::new();
        for &(size, count) in &self.entries {
            let full = size / g;
            let rem = size % g;
            if full > 0 {
                *out.entry(g).or_default() += full * count;
            }
            if rem > 0 {
                *out.entry(rem).or_default() += count;
            }
        }
        TileProfile::from_map(out)
    }

    /// Clamps every tile to at most `g` elements without changing counts —
    /// the lockstep view of a spatial split, where each dispatch is one
    /// parallel step whose depth is paced by the largest chunk.
    pub fn clamp(&self, g: u64) -> TileProfile {
        let mut out: BTreeMap<u64, u64> = BTreeMap::new();
        for &(size, count) in &self.entries {
            *out.entry(size.min(g)).or_default() += count;
        }
        TileProfile::from_map(out)
    }
}

/// The exact tile profiles at every boundary of a tile chain
/// (`chain[0] = 1 … chain[S] = bound`). Index `b` of the result is the
/// profile at boundary `b`; both spatial and temporal slots partition
/// data, so this is kind-agnostic.
pub fn boundary_profiles(chain: &[u64]) -> Vec<TileProfile> {
    let s = chain.len() - 1;
    let mut profiles = vec![TileProfile::single(0); s + 1];
    profiles[s] = TileProfile::single(chain[s]);
    for b in (0..s).rev() {
        profiles[b] = profiles[b + 1].split(chain[b]);
    }
    profiles
}

/// The number of sequential steps contributed by one dimension: walk the
/// chain outermost-in, splitting at temporal slots (each tile runs its
/// children back-to-back, residuals run exactly their residual count) and
/// clamping at spatial slots (chunks run in lockstep, paced by the
/// largest). The final count of unit tiles is the step count.
pub fn sequential_steps(chain: &[u64], layout: &SlotLayout) -> u64 {
    sequential_steps_with(chain, layout, &mut ProfileScratch::new())
}

/// Reusable scratch for allocation-free chain walks.
///
/// [`boundary_tile_counts_into`] splits a tile-size multiset boundary by
/// boundary. A boundary's multiset has at most one distinct size per
/// remaining chain link (each split adds the granularity plus per-size
/// residuals), so the working set stays tiny — a sorted `(size, count)`
/// vector beats the `BTreeMap` the one-shot [`TileProfile`] API uses, and
/// reusing it across dimensions and candidates removes the cost model's
/// dominant allocation churn. The arithmetic is exactly
/// [`TileProfile::split`] on the same sorted order, so every count is
/// bit-identical to the allocating path (the unit tests pin this).
///
/// [`sequential_steps_with`] does not walk the multiset at all: it keeps
/// one step count per boundary (the steps of a full tile there) and
/// resolves each boundary's residual against the counts below it.
#[derive(Debug, Default)]
pub struct ProfileScratch {
    /// Current multiset: `(size, count)` sorted by size, like
    /// [`TileProfile::entries`].
    cur: Vec<(u64, u64)>,
    /// Double buffer for split passes.
    next: Vec<(u64, u64)>,
    /// `full[k]`: the sequential steps of one full tile (`chain[k]`
    /// elements) at boundary `k`.
    full: Vec<u64>,
}

impl ProfileScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        ProfileScratch::default()
    }

    /// Resets to a single tile of `size`.
    fn reset(&mut self, size: u64) {
        self.cur.clear();
        self.cur.push((size, 1));
    }

    /// Total number of tiles, as [`TileProfile::num_tiles`].
    fn num_tiles(&self) -> u64 {
        self.cur.iter().map(|&(_, c)| c).sum()
    }

    /// In-place [`TileProfile::split`]: every tile becomes `size / g`
    /// full children of size `g` plus at most one residual.
    fn split(&mut self, g: u64) {
        self.next.clear();
        for i in 0..self.cur.len() {
            let (size, count) = self.cur[i];
            let full = size / g;
            let rem = size % g;
            if full > 0 {
                Self::bump(&mut self.next, g, full * count);
            }
            if rem > 0 {
                Self::bump(&mut self.next, rem, count);
            }
        }
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// Sorted-insert `count` tiles of `size` (the multiset stays tiny,
    /// so the linear probe beats any map).
    fn bump(entries: &mut Vec<(u64, u64)>, size: u64, count: u64) {
        match entries.binary_search_by_key(&size, |&(s, _)| s) {
            Ok(i) => entries[i].1 += count,
            Err(i) => entries.insert(i, (size, count)),
        }
    }
}

/// [`sequential_steps`] against a caller-owned [`ProfileScratch`], for
/// hot loops that walk many chains (the cost model's latency path and
/// table construction).
///
/// The steps of a tile depend only on its size and boundary, and steps
/// add over the tiles of a boundary, so one full tile per boundary
/// suffices: `full[k]` is the steps of a `chain[k]` tile at boundary
/// `k`, built innermost-out from `full[0] = 1`. A tile of `x` elements
/// at boundary `k` meets slot `k - 1` with granularity `g`: a temporal
/// slot runs `x / g` full children of `full[k - 1]` steps each, then its
/// residual `x % g` (if any) one boundary further in; a spatial slot is
/// paced by its largest chunk, a full child when `x >= g` and otherwise
/// the whole `x` passed inward. Usually one division per boundary, and
/// every partial sum is at most `x`, so nothing overflows.
pub fn sequential_steps_with(
    chain: &[u64],
    layout: &SlotLayout,
    scratch: &mut ProfileScratch,
) -> u64 {
    let s = chain.len() - 1;
    debug_assert_eq!(s, layout.num_slots());
    let full = &mut scratch.full;
    full.clear();
    full.push(1);
    for k in 1..=s {
        let steps = tile_steps(chain, layout, full, k, chain[k]);
        full.push(steps);
    }
    full[s]
}

/// The sequential steps of one `x`-element tile at boundary `k`, given
/// `full[..k]` (see [`sequential_steps_with`]).
fn tile_steps(chain: &[u64], layout: &SlotLayout, full: &[u64], mut k: usize, mut x: u64) -> u64 {
    let mut steps = 0u64;
    while k > 0 {
        let g = chain[k - 1];
        if layout.kind_of(SlotId::new(k - 1)).is_spatial() {
            if x >= g {
                return steps + full[k - 1];
            }
        } else {
            steps += (x / g) * full[k - 1];
            x %= g;
            if x == 0 {
                return steps;
            }
        }
        k -= 1;
    }
    // A tile at boundary 0 is one step.
    steps + 1
}

/// `num_tiles` of every [`boundary_profiles`] entry — `out[b]` is the
/// tile count at boundary `b` — without materializing the per-boundary
/// multisets. This is all the access counter needs, and it is the cost
/// model's hottest integer kernel.
pub fn boundary_tile_counts_into(chain: &[u64], scratch: &mut ProfileScratch, out: &mut Vec<u64>) {
    let s = chain.len() - 1;
    out.clear();
    out.resize(s + 1, 0);
    scratch.reset(chain[s]);
    out[s] = 1;
    for b in (0..s).rev() {
        scratch.split(chain[b]);
        out[b] = scratch.num_tiles();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots::SlotLayout;

    /// The scratch walks must agree exactly with the allocating
    /// [`TileProfile`] recursion on awkward imperfect chains — the cost
    /// model's bit-identity rides on these counts.
    #[test]
    fn scratch_counts_match_allocating_profiles() {
        let chains: [&[u64]; 5] = [
            &[1, 3, 10, 100],
            &[1, 1, 7, 7, 113],
            &[1, 2, 5, 17, 256],
            &[1, 13, 13, 39, 117],
            &[1, 1, 1, 1, 64],
        ];
        let mut scratch = ProfileScratch::new();
        let mut counts = Vec::new();
        for chain in chains {
            let profiles = boundary_profiles(chain);
            boundary_tile_counts_into(chain, &mut scratch, &mut counts);
            assert_eq!(counts.len(), profiles.len(), "{chain:?}");
            for (b, p) in profiles.iter().enumerate() {
                assert_eq!(counts[b], p.num_tiles(), "{chain:?} boundary {b}");
            }
        }
    }

    /// `sequential_steps_with` reuses one scratch across chains without
    /// cross-contamination (and `sequential_steps` itself now routes
    /// through the scratch, so pin the known-good hand counts again).
    #[test]
    fn scratch_sequential_steps_match_one_shot() {
        let layout = SlotLayout::new(2);
        let mut scratch = ProfileScratch::new();
        for (chain, want) in [
            ([1u64, 1, 1, 7, 7, 7, 100], 100),
            ([1u64, 1, 1, 1, 1, 6, 100], 17),
            ([1u64, 1, 1, 2, 2, 12, 100], 18),
        ] {
            assert_eq!(
                sequential_steps_with(&chain, &layout, &mut scratch),
                want,
                "{chain:?}"
            );
        }
    }

    #[test]
    fn profiles_partition_exactly() {
        // Chain 1 -> 3 -> 10 -> 100 over a hypothetical 1-level layout is
        // not meaningful; use raw boundary math: each boundary's profile
        // must cover all 100 elements.
        let chain = [1u64, 3, 10, 100];
        let profiles = boundary_profiles(&chain);
        for p in &profiles {
            assert_eq!(p.total_elements(), 100);
        }
        // Boundary 2: tiles of 10 -> 10 tiles.
        assert_eq!(profiles[2].num_tiles(), 10);
        // Boundary 1: each 10 splits into 3+3+3+1 -> 40 tiles.
        assert_eq!(profiles[1].num_tiles(), 40);
        assert_eq!(profiles[1].entries(), &[(1, 10), (3, 30)]);
        // Boundary 0: unit tiles.
        assert_eq!(profiles[0].num_tiles(), 100);
    }

    #[test]
    fn perfect_chain_single_size_per_boundary() {
        let chain = [1u64, 5, 20, 100];
        let profiles = boundary_profiles(&chain);
        assert_eq!(profiles[1].entries(), &[(5, 20)]);
        assert_eq!(profiles[2].entries(), &[(20, 5)]);
    }

    #[test]
    fn split_and_clamp() {
        let p = TileProfile::single(100);
        let split = p.split(6);
        assert_eq!(split.entries(), &[(4, 1), (6, 16)]);
        assert_eq!(split.max_size(), 6);
        let clamped = split.clamp(1);
        assert_eq!(clamped.num_tiles(), 17);
        assert_eq!(clamped.total_elements(), 17);
    }

    #[test]
    fn sequential_steps_temporal_exact_residuals() {
        // Two levels -> 6 slots, 7 boundaries. Inner level temporal tile 7
        // (boundary 3), DRAM temporal covers 100: 14 full tiles of 7 run 7
        // steps each, the residual tile of 2 runs exactly 2 — 100 total.
        let layout = SlotLayout::new(2);
        let chain = [1u64, 1, 1, 7, 7, 7, 100];
        assert_eq!(sequential_steps(&chain, &layout), 100);
    }

    #[test]
    fn sequential_steps_spatial_lockstep() {
        // Spatial 6 at the DRAM spatial-X slot (boundary 5 = 6): 17
        // lockstep groups, each one step after unit clamping.
        let layout = SlotLayout::new(2);
        let chain = [1u64, 1, 1, 1, 1, 6, 100];
        assert_eq!(sequential_steps(&chain, &layout), 17);
    }

    #[test]
    fn sequential_steps_mixed() {
        // PE temporal tile 2, spatial 6 below DRAM (boundary 5 = 12),
        // DRAM T: ceil(100/12) = 9 groups (8 full of 12, one of 4). Each
        // group clamps to chunks of ≤2 and runs 2 unit steps in lockstep:
        // 9 * 2 = 18 steps.
        let layout = SlotLayout::new(2);
        let chain = [1u64, 1, 1, 2, 2, 12, 100];
        assert_eq!(sequential_steps(&chain, &layout), 18);
    }

    #[test]
    fn num_tiles_and_elements_empty_safe() {
        let p = TileProfile::single(1);
        assert_eq!(p.num_tiles(), 1);
        assert_eq!(p.total_elements(), 1);
    }
}
