//! Deterministic enumeration of a mapspace's tile-chain support.
//!
//! Random sampling (the paper's search) draws per-dimension factor
//! vectors; many distinct draws collapse to the *same* tile chains after
//! clamping and outer-tile stretching, and most of their joint
//! combinations violate shared fanout. This module enumerates the
//! deduplicated chain support directly:
//!
//! 1. **Per-dimension tables** ([`EnumTables::build`]): for each
//!    dimension, every tile chain the [`crate::Sampler`] can produce
//!    under the mapspace's factorization rules, deduplicated and grouped
//!    by *spatial signature* — the chain's loop count at every spatial
//!    slot. Chains are exactly the sampler's support: every chain is
//!    reproducible with spatial factors equal to its own loop counts
//!    (clamped slots have `count = ceil(bound/cum)`, the largest factor
//!    the sampler may draw there), so signature-level bookkeeping loses
//!    nothing.
//! 2. **Regions** ([`EnumTables::regions`]): joint combinations of one
//!    signature group per dimension that satisfy shared fanout (the
//!    per-slot product of counts fits the axis extent — equivalent to
//!    the sampler's sequential floor-division capacity splitting, in any
//!    dimension order) and spatial exclusivity. Each full mapping lies
//!    in exactly one region, so regions partition the space with no
//!    duplicates. Regions are sorted by their *cycle floor* (product of
//!    per-dimension minimal sequential steps), cheapest-possible first.
//! 3. **[`SubspaceIterator`]**: a resumable mixed-radix walk over one
//!    region's leaf index range `[start, end)`. Disjoint ranges touch
//!    disjoint mappings, so threads split work by index arithmetic
//!    alone; the same `(region, index)` always denotes the same mapping,
//!    making enumeration order deterministic across runs and threads.
//!
//! Permutations are *not* enumerated (the iterator leaves the reused
//! mapping's permutations untouched); search backends polish them
//! separately.
//!
//! # Layout
//!
//! A table is a handful of flat arrays, not a tree of small vectors.
//! Generation appends every chain as one fixed-stride row
//! (`num_slots + 1` values) to a `Vec<u64>` arena and deduplicates by
//! sorting the rows (a stable sort, so the sorted runs the factor walk
//! emits merge cheaply). Grouping is one sort of packed
//! `(signature rank, steps, chain rank)` keys; afterwards a table holds
//! the arena, each entry's arena row and steps in table order, and per
//! group only the range of its entries and its signature. Dimensions
//! with equal bounds and slot rules share one table, and the region
//! search threads its state down the recursion instead of undoing it.
//!
//! # Order contract
//!
//! The order is part of the interface — a `(region, index)` pair must
//! name the same mapping in every build, or recorded search answers
//! stop being reproducible:
//!
//! * groups by signature, lexicographically (innermost spatial slot
//!   first);
//! * entries within a group by `(steps, chain)`, cheapest first, so
//!   leaf 0 of every region is its fastest member;
//! * regions by `(min_steps, group tuple)`, which is unique per region.
//!
//! `tests/table_order_golden.rs` pins this order with recorded digests.

use std::collections::HashMap;
use std::ops::Range;

use ruby_mapping::{profile, Mapping, ProfileScratch, SlotId, SlotKind, SlotLayout};
use ruby_workload::Dim;

use crate::factor;
use crate::space::{Mapspace, MapspaceKind, SlotRule};

/// Size guards for table construction. Enumeration is only worthwhile
/// when the deduplicated per-dimension support is modest; past these
/// limits [`EnumTables::build`] returns an error and callers fall back
/// to random sampling.
#[derive(Debug, Clone, Copy)]
pub struct EnumLimits {
    /// Maximum deduplicated chains per dimension (at most
    /// `u32::MAX - 1` takes effect: entries are indexed by `u32`).
    pub max_entries_per_dim: usize,
    /// Maximum fanout-feasible signature combinations (regions).
    pub max_regions: usize,
}

impl Default for EnumLimits {
    fn default() -> Self {
        EnumLimits {
            max_entries_per_dim: 200_000,
            max_regions: 250_000,
        }
    }
}

/// Why table construction refused a mapspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnumError {
    /// One dimension's deduplicated chain table exceeded the limit.
    DimTooLarge {
        /// The offending dimension.
        dim: Dim,
        /// The configured entry limit.
        limit: usize,
    },
    /// The number of feasible regions exceeded the limit.
    TooManyRegions {
        /// The configured region limit.
        limit: usize,
    },
}

impl std::fmt::Display for EnumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnumError::DimTooLarge { dim, limit } => {
                write!(f, "dimension {dim:?} has more than {limit} tile chains")
            }
            EnumError::TooManyRegions { limit } => {
                write!(f, "more than {limit} fanout-feasible regions")
            }
        }
    }
}

impl std::error::Error for EnumError {}

/// One dimension's deduplicated chains, grouped by spatial signature
/// (loop counts at every spatial slot, innermost first).
#[derive(Debug, Clone)]
struct DimTable {
    /// Chain length: slots + 1.
    stride: usize,
    /// Chain arena in generation order; row `r` is
    /// `rows[r * stride..(r + 1) * stride]`. Rows no entry names are
    /// duplicates.
    rows: Vec<u64>,
    /// Entry `e`'s arena row, in table order.
    entry_rows: Vec<u32>,
    /// Entry `e`'s sequential step count (the dimension's contribution
    /// to compute cycles).
    steps: Vec<u64>,
    /// Group `g` owns entries `starts[g]..starts[g + 1]`.
    starts: Vec<u32>,
    /// Signature length: the number of spatial slots.
    width: usize,
    /// Group `g`'s signature is `counts[g * width..(g + 1) * width]`.
    counts: Vec<u64>,
    /// `skips[g * width + j]`: the first group after `g` whose signature
    /// differs from `g`'s before slot `j` — where the region search
    /// resumes once `g` fails at slot `j`.
    skips: Vec<u32>,
}

impl DimTable {
    /// Tabulates one dimension, or `None` when its deduplicated chains
    /// outgrow `limit`.
    fn build(
        kind: MapspaceKind,
        bound: u64,
        rules: &[SlotRule],
        layout: &SlotLayout,
        spatial_slots: &[usize],
        limit: usize,
    ) -> Option<Self> {
        let mut walk = ChainWalk::new(kind, bound, rules, limit);
        walk.run().ok()?;
        let stride = walk.chain.len();
        let mut rows = walk.rows;
        rows.shrink_to_fit();
        let row = |r: u32| &rows[r as usize * stride..][..stride];
        let unique = sorted_unique(&rows, stride);

        // One packed key per distinct chain: (signature id, steps, chain
        // rank). Signature ids are first-seen here and replaced by their
        // lexicographic rank below, before the sort.
        let width = spatial_slots.len();
        let mut ids: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut sigs: Vec<u64> = Vec::new();
        let mut sig = vec![0u64; width];
        let mut scratch = ProfileScratch::new();
        let mut keys: Vec<u128> = Vec::with_capacity(unique.len());
        for (rank, &r) in unique.iter().enumerate() {
            let chain = row(r);
            for (count, &s) in sig.iter_mut().zip(spatial_slots) {
                *count = chain[s + 1].div_ceil(chain[s]);
            }
            let id = match ids.get(sig.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = ids.len() as u32;
                    ids.insert(sig.clone(), id);
                    sigs.extend_from_slice(&sig);
                    id
                }
            };
            let steps = profile::sequential_steps_with(chain, layout, &mut scratch);
            keys.push(u128::from(id) << 96 | u128::from(steps) << 32 | rank as u128);
        }
        let sig_of = |id: u32| &sigs[id as usize * width..][..width];
        let mut by_sig: Vec<u32> = (0..ids.len() as u32).collect();
        by_sig.sort_unstable_by(|&a, &b| sig_of(a).cmp(sig_of(b)));
        let mut rank_of = vec![0u32; by_sig.len()];
        for (rank, &id) in by_sig.iter().enumerate() {
            rank_of[id as usize] = rank as u32;
        }
        for key in &mut keys {
            let id = (*key >> 96) as usize;
            *key = u128::from(rank_of[id]) << 96 | (*key & ((1u128 << 96) - 1));
        }
        keys.sort_unstable();

        let mut entry_rows = Vec::with_capacity(keys.len());
        let mut steps = Vec::with_capacity(keys.len());
        let mut starts = Vec::with_capacity(by_sig.len() + 1);
        for key in keys {
            // Every rank below the number of signatures has a member, so
            // a group starts exactly when its rank first appears.
            if starts.len() == (key >> 96) as usize {
                starts.push(steps.len() as u32);
            }
            steps.push((key >> 32) as u64);
            entry_rows.push(unique[key as u32 as usize]);
        }
        starts.push(steps.len() as u32);
        let counts: Vec<u64> = by_sig.iter().flat_map(|&id| sig_of(id)).copied().collect();
        let groups = by_sig.len();
        let mut skips = vec![0u32; groups * width];
        for g in (0..groups).rev() {
            let shared = if g + 1 < groups {
                let (this, next) = counts[g * width..(g + 2) * width].split_at(width);
                this.iter().zip(next).take_while(|(a, b)| a == b).count()
            } else {
                0
            };
            for j in 0..width {
                skips[g * width + j] = if g + 1 < groups && j <= shared {
                    skips[(g + 1) * width + j]
                } else {
                    g as u32 + 1
                };
            }
        }
        Some(DimTable {
            stride,
            rows,
            entry_rows,
            steps,
            starts,
            width,
            counts,
            skips,
        })
    }

    fn num_groups(&self) -> usize {
        self.starts.len() - 1
    }

    fn entries(&self, group: usize) -> Range<usize> {
        self.starts[group] as usize..self.starts[group + 1] as usize
    }

    /// The cheapest sequential steps in `group` (its first entry).
    fn min_steps(&self, group: usize) -> u64 {
        self.steps[self.starts[group] as usize]
    }

    fn counts(&self, group: usize) -> &[u64] {
        &self.counts[group * self.width..][..self.width]
    }

    fn chain(&self, entry: usize) -> &[u64] {
        &self.rows[self.entry_rows[entry] as usize * self.stride..][..self.stride]
    }
}

/// Row indices of the fixed-`stride` `rows`, one per distinct chain, in
/// lexicographic chain order. Among equal rows the first generated one
/// is kept. The stable sort merges the already-sorted runs the factor
/// walks emit instead of re-sorting them.
fn sorted_unique(rows: &[u64], stride: usize) -> Vec<u32> {
    let row = |r: u32| &rows[r as usize * stride..][..stride];
    let mut order: Vec<u32> = (0..(rows.len() / stride) as u32).collect();
    order.sort_by(|&a, &b| row(a).cmp(row(b)));
    order.dedup_by(|later, first| row(*later) == row(*first));
    order
}

/// Read-only view of one signature group of one dimension's table.
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a> {
    table: &'a DimTable,
    group: usize,
}

impl<'a> GroupView<'a> {
    /// The group's spatial signature: its loop count at every spatial
    /// slot, innermost first.
    pub fn counts(&self) -> &'a [u64] {
        self.table.counts(self.group)
    }

    /// Sequential steps of the group's cheapest (first) entry.
    pub fn min_steps(&self) -> u64 {
        self.table.min_steps(self.group)
    }

    /// Every member's tile chain with its sequential steps, in table
    /// order (cheapest first, ties by chain).
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (&'a [u64], u64)> + 'a {
        let table = self.table;
        table
            .entries(self.group)
            .map(move |e| (table.chain(e), table.steps[e]))
    }
}

/// One fanout-feasible combination of signature groups (one per
/// dimension). Regions partition the enumerable space: every mapping's
/// chain tuple belongs to exactly one region.
#[derive(Debug, Clone)]
pub struct Region {
    /// Per-dimension group index (by [`Dim::ALL`] order).
    group: [u32; 7],
    /// Mappings in this region (saturating; only indices below the true
    /// product are ever decoded).
    pub leaves: u64,
    /// Product of per-dimension minimal sequential steps — a lower bound
    /// on the compute cycles of every mapping in the region.
    pub min_steps: u64,
}

impl Region {
    /// The index of the signature group `dim` takes in this region (see
    /// [`EnumTables::groups`]).
    pub fn group(&self, dim: Dim) -> usize {
        self.group[dim.index()] as usize
    }
}

/// Deduplicated per-dimension chain tables plus the sorted feasible
/// regions of one [`Mapspace`].
#[derive(Debug, Clone)]
pub struct EnumTables {
    layout: SlotLayout,
    /// Slot indices of every spatial slot, innermost first — the index
    /// space of each group's signature.
    spatial_slots: Vec<usize>,
    /// Distinct tables; dimensions with equal bounds and slot rules
    /// share one.
    tables: Vec<DimTable>,
    /// Each dimension's table (by [`Dim::ALL`] order).
    table_of: [usize; 7],
    regions: Vec<Region>,
    total_leaves: u64,
}

impl EnumTables {
    /// Builds the tables and regions, or reports why the space is too
    /// large to enumerate within `limits`.
    ///
    /// # Errors
    ///
    /// Returns [`EnumError`] when a per-dimension table or the region
    /// set exceeds `limits`; callers should fall back to sampling.
    pub fn build(space: &Mapspace, limits: &EnumLimits) -> Result<Self, EnumError> {
        let layout = SlotLayout::new(space.arch().num_levels());
        let spatial_slots: Vec<usize> = layout
            .iter()
            .filter(|&s| layout.kind_of(s).is_spatial())
            .map(|s| s.index())
            .collect();

        let mut tables = Vec::with_capacity(7);
        let mut tabulated: Vec<(u64, Vec<SlotRule>)> = Vec::with_capacity(7);
        let mut table_of = [0usize; 7];
        for (di, dim) in Dim::ALL.into_iter().enumerate() {
            let bound = space.shape().bound(dim);
            let rules = space.slot_rules_full(dim);
            // Equal bounds and slot rules give equal tables.
            if let Some(t) = tabulated
                .iter()
                .position(|(b, r)| *b == bound && *r == rules)
            {
                table_of[di] = t;
                continue;
            }
            let limit = limits.max_entries_per_dim;
            let table =
                DimTable::build(space.kind(), bound, &rules, &layout, &spatial_slots, limit)
                    .ok_or(EnumError::DimTooLarge { dim, limit })?;
            table_of[di] = tables.len();
            tables.push(table);
            tabulated.push((bound, rules));
        }

        let regions = build_regions(
            space,
            &layout,
            &spatial_slots,
            &tables,
            &table_of,
            limits.max_regions,
        )?;
        let total_leaves = regions
            .iter()
            .fold(0u64, |acc, r| acc.saturating_add(r.leaves));
        Ok(EnumTables {
            layout,
            spatial_slots,
            tables,
            table_of,
            regions,
            total_leaves,
        })
    }

    fn table(&self, dim_index: usize) -> &DimTable {
        &self.tables[self.table_of[dim_index]]
    }

    /// The signature groups of `dim`'s table, in table order (see the
    /// module's order contract).
    pub fn groups(&self, dim: Dim) -> impl ExactSizeIterator<Item = GroupView<'_>> {
        let table = self.table(dim.index());
        (0..table.num_groups()).map(move |group| GroupView { table, group })
    }

    /// The spatial fanout `region` actually uses at each level: per
    /// level, the product over its spatial slots of the joint (over all
    /// dimensions) spatial loop counts. Every mapping in the region
    /// shares this signature exactly, so cost models can specialize
    /// their bounds to it.
    pub fn region_spatial_utilization(&self, region: &Region) -> Vec<u64> {
        let mut utilized = vec![1u64; self.layout.num_levels()];
        for (j, &s) in self.spatial_slots.iter().enumerate() {
            let level = self.layout.level_of(SlotId::new(s));
            for (di, &g) in region.group.iter().enumerate() {
                let count = self.table(di).counts(g as usize)[j];
                utilized[level] = utilized[level].saturating_mul(count);
            }
        }
        utilized
    }

    /// Feasible regions, cheapest cycle floor first (ties broken by
    /// group indices, so the order is deterministic).
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Total mappings across all regions (saturating).
    pub fn total_leaves(&self) -> u64 {
        self.total_leaves
    }

    /// Total mappings across all regions, or `None` when any region's
    /// leaf product or the sum saturated `u64` (such a space cannot be
    /// addressed by a single global index and callers must fall back
    /// to sampling). `u64::MAX` region counts are treated as saturated:
    /// `saturating_mul` collapses every overflow to exactly that value.
    pub fn exact_total_leaves(&self) -> Option<u64> {
        let mut acc = 0u64;
        for region in &self.regions {
            if region.leaves == u64::MAX {
                return None;
            }
            acc = acc.checked_add(region.leaves)?;
        }
        Some(acc)
    }

    /// The slot layout the chains were built for.
    pub fn layout(&self) -> &SlotLayout {
        &self.layout
    }
}

/// Resumable mixed-radix iterator over one region's leaf index range.
/// Disjoint `[start, end)` ranges yield disjoint mappings; the mapping
/// at a given index is independent of how the range was partitioned.
#[derive(Debug)]
pub struct SubspaceIterator<'a> {
    tables: &'a EnumTables,
    region: &'a Region,
    pos: u64,
    end: u64,
}

impl<'a> SubspaceIterator<'a> {
    /// An iterator over `region`'s leaves `start..end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is inverted or exceeds the region.
    pub fn new(tables: &'a EnumTables, region: &'a Region, start: u64, end: u64) -> Self {
        assert!(
            start <= end && end <= region.leaves,
            "leaf range {start}..{end} outside region of {} leaves",
            region.leaves
        );
        SubspaceIterator {
            tables,
            region,
            pos: start,
            end,
        }
    }

    /// Writes the next mapping's tile chains into `out` (permutations
    /// are left untouched) and returns its exact sequential step count,
    /// or `None` when the range is exhausted.
    pub fn next_into(&mut self, out: &mut Mapping) -> Option<u64> {
        if self.pos >= self.end {
            return None;
        }
        let mut idx = self.pos;
        self.pos += 1;
        let mut steps = 1u64;
        for (di, dim) in Dim::ALL.into_iter().enumerate() {
            let table = self.tables.table(di);
            let entries = table.entries(self.region.group[di] as usize);
            let radix = entries.len() as u64;
            let entry = entries.start + (idx % radix) as usize;
            idx /= radix;
            out.set_tile_chain(dim, table.chain(entry));
            steps = steps.saturating_mul(table.steps[entry]);
        }
        Some(steps)
    }
}

/// Depth-first generator of one dimension's tile chains, mirroring the
/// sampler's factor ranges exactly for each mapspace kind. Each chain
/// is appended as one row of a flat arena; whenever the arena passes
/// the entry limit it is deduplicated in place, so duplicates never
/// count toward the limit and the arena never holds more than
/// `limit + 1` rows. `Err(())` means the distinct chains outgrew the
/// limit.
struct ChainWalk<'a> {
    kind: MapspaceKind,
    bound: u64,
    rules: &'a [SlotRule],
    /// Slot positions of the spatial rules, innermost first.
    spatial_at: Vec<usize>,
    /// Ruby-S: the chosen factor of every spatial slot, innermost first.
    spatial: Vec<u64>,
    /// Ascending divisors of `divs_of`: the bound (PFM, Ruby-T) or the
    /// current temporal residual (Ruby-S).
    divs: Vec<u64>,
    divs_of: u64,
    /// The chain under construction: `chain[i + 1]` is the tile after
    /// slot `i` (cumulative product clamped to the bound).
    chain: Vec<u64>,
    /// Generated rows of `chain.len()` values each.
    rows: Vec<u64>,
    limit: usize,
}

impl<'a> ChainWalk<'a> {
    fn new(kind: MapspaceKind, bound: u64, rules: &'a [SlotRule], limit: usize) -> Self {
        let spatial_at: Vec<usize> = (0..rules.len()).filter(|&i| rules[i].spatial).collect();
        let (divs, divs_of) = match kind {
            MapspaceKind::Pfm | MapspaceKind::RubyT => (factor::divisors(bound), bound),
            MapspaceKind::Ruby | MapspaceKind::RubyS => (Vec::new(), 0),
        };
        ChainWalk {
            kind,
            bound,
            rules,
            spatial: vec![1; spatial_at.len()],
            spatial_at,
            divs,
            divs_of,
            chain: vec![1; rules.len() + 1],
            rows: Vec::new(),
            limit: limit.min(u32::MAX as usize - 1),
        }
    }

    fn run(&mut self) -> Result<(), ()> {
        match self.kind {
            MapspaceKind::Pfm => self.perfect(0, 1),
            MapspaceKind::Ruby | MapspaceKind::RubyT => self.free(0, 1),
            MapspaceKind::RubyS => self.ruby_s_spatial(0, 1),
        }
    }

    /// Appends the current chain, its outermost entry stretched to the
    /// bound the way [`ruby_mapping::MappingBuilder`] does.
    fn emit(&mut self) -> Result<(), ()> {
        let stride = self.chain.len();
        self.chain[stride - 1] = self.bound;
        if self.rows.len() == self.rows.capacity() {
            // Grow geometrically, but never past `limit + 1` rows.
            let rows = self.rows.len() / stride;
            let target = (rows.max(64) * 2).min(self.limit + 1).max(rows + 1);
            self.rows.reserve_exact((target - rows) * stride);
        }
        self.rows.extend_from_slice(&self.chain);
        if self.rows.len() / stride > self.limit {
            self.compact()?;
        }
        Ok(())
    }

    /// Drops duplicate rows in place, keeping each chain's first row in
    /// generation order.
    fn compact(&mut self) -> Result<(), ()> {
        let stride = self.chain.len();
        let unique = sorted_unique(&self.rows, stride);
        if unique.len() > self.limit {
            return Err(());
        }
        let mut kept = unique;
        kept.sort_unstable();
        // Ascending rows: each moves down or stays, never over a row
        // still to be read.
        for (to, &from) in kept.iter().enumerate() {
            let from = from as usize * stride;
            self.rows.copy_within(from..from + stride, to * stride);
        }
        self.rows.truncate(kept.len() * stride);
        Ok(())
    }

    /// Sets the tile after `slot` to `cum · f` (clamped to the bound)
    /// and returns it.
    fn advance(&mut self, slot: usize, cum: u64, f: u64) -> u64 {
        let next = cum.saturating_mul(f).min(self.bound);
        self.chain[slot + 1] = next;
        next
    }

    /// PFM: every slot takes a divisor of what the bound has left,
    /// within its cap, and the outermost slot takes the rest.
    fn perfect(&mut self, slot: usize, cum: u64) -> Result<(), ()> {
        let left = self.bound / cum;
        let cap = self.rules[slot].cap.unwrap_or(u64::MAX);
        if slot + 1 == self.rules.len() {
            return if left <= cap { self.emit() } else { Ok(()) };
        }
        for i in 0..self.divs.len() {
            let f = self.divs[i];
            if f > left.min(cap) {
                break;
            }
            if left.is_multiple_of(f) {
                let next = self.advance(slot, cum, f);
                self.perfect(slot + 1, next)?;
            }
        }
        Ok(())
    }

    /// Ruby / Ruby-T: walk slots innermost-first. Spatial factors range
    /// over `[1, min(cap, ceil(bound/cum))]` (Ruby) or the divisors of
    /// the bound within that cap (Ruby-T); temporal factors over
    /// `[1, ceil(bound/cum)]`. The outermost slot is skipped: its chain
    /// entry is stretched to the bound regardless of the factor drawn
    /// there, so all its choices alias.
    fn free(&mut self, slot: usize, cum: u64) -> Result<(), ()> {
        if slot + 1 == self.rules.len() {
            return self.emit();
        }
        let rule = self.rules[slot];
        let needed = self.bound.div_ceil(cum);
        let cap = if rule.spatial {
            rule.cap.unwrap_or(u64::MAX).min(needed)
        } else {
            needed
        };
        if rule.spatial && self.kind == MapspaceKind::RubyT {
            for i in 0..self.divs.len() {
                let f = self.divs[i];
                if f > cap {
                    break;
                }
                let next = self.advance(slot, cum, f);
                self.free(slot + 1, next)?;
            }
        } else {
            for f in 1..=cap {
                let next = self.advance(slot, cum, f);
                self.free(slot + 1, next)?;
            }
        }
        Ok(())
    }

    /// Ruby-S, first half: choose the spatial factors, each in
    /// `[1, min(cap, ceil(bound/Πs))]` — the sampler's range over the
    /// spatial-only product `Πs` so far.
    fn ruby_s_spatial(&mut self, j: usize, product: u64) -> Result<(), ()> {
        if j == self.spatial_at.len() {
            let residual = self.bound.div_ceil(product);
            if self.divs_of != residual {
                self.divs = factor::divisors(residual);
                self.divs_of = residual;
            }
            return self.ruby_s_temporal(0, 1, residual, 0);
        }
        let rule = self.rules[self.spatial_at[j]];
        let cap = rule
            .cap
            .unwrap_or(u64::MAX)
            .min(self.bound.div_ceil(product));
        for f in 1..=cap {
            self.spatial[j] = f;
            self.ruby_s_spatial(j + 1, product.saturating_mul(f))?;
        }
        Ok(())
    }

    /// Ruby-S, second half: factorize the residual `ceil(bound/Πs)`
    /// perfectly across the temporal slots (`left` is what is still
    /// unassigned), interleaved in slot order with the spatial factors
    /// (`j` is the next one).
    fn ruby_s_temporal(&mut self, slot: usize, cum: u64, left: u64, j: usize) -> Result<(), ()> {
        if slot == self.rules.len() {
            return if left == 1 { self.emit() } else { Ok(()) };
        }
        if self.rules[slot].spatial {
            let next = self.advance(slot, cum, self.spatial[j]);
            return self.ruby_s_temporal(slot + 1, next, left, j + 1);
        }
        for i in 0..self.divs.len() {
            let f = self.divs[i];
            if f > left {
                break;
            }
            if left.is_multiple_of(f) {
                let next = self.advance(slot, cum, f);
                self.ruby_s_temporal(slot + 1, next, left / f, j)?;
            }
        }
        Ok(())
    }
}

/// Depth-first search over one signature group per dimension, keeping
/// per-spatial-slot remaining capacity (sequential floor division — the
/// same arithmetic as the sampler's shared [`crate::space`] axis states)
/// and exclusivity ownership. Row `d` of `remaining` / `taken` is the
/// state after dimensions `0..d` chose their groups, so descending
/// writes the next row and nothing is ever undone; the leaf count and
/// cycle floor are carried down the same way.
struct RegionSearch<'a> {
    tables: [&'a DimTable; 7],
    exclusive: bool,
    /// Signature positions whose axis extent exceeds 1 (one per row
    /// column); counts elsewhere are all 1 and never clash.
    live: Vec<usize>,
    remaining: Vec<u64>,
    taken: Vec<bool>,
    group: [u32; 7],
    regions: Vec<Region>,
    max_regions: usize,
}

impl RegionSearch<'_> {
    fn dfs(&mut self, depth: usize, leaves: u64, min_steps: u64) -> Result<(), EnumError> {
        if depth == 7 {
            self.regions.push(Region {
                group: self.group,
                leaves,
                min_steps,
            });
            if self.regions.len() > self.max_regions {
                return Err(EnumError::TooManyRegions {
                    limit: self.max_regions,
                });
            }
            return Ok(());
        }
        let table = self.tables[depth];
        let w = self.live.len();
        let mut g = 0;
        while g < table.num_groups() {
            let counts = table.counts(g);
            let (remaining, next_remaining) =
                self.remaining[depth * w..(depth + 2) * w].split_at_mut(w);
            let (taken, next_taken) = self.taken[depth * w..(depth + 2) * w].split_at_mut(w);
            let exclusive = self.exclusive;
            let clash = self.live.iter().enumerate().find(|&(k, &j)| {
                let c = counts[j];
                c > 1 && ((exclusive && taken[k]) || c > remaining[k])
            });
            if let Some((_, &j)) = clash {
                // Groups are sorted by signature, so every later group
                // sharing `counts[..j]` has a count at least as large at
                // `j` and clashes there too.
                g = table.skips[g * table.width + j] as usize;
                continue;
            }
            for (k, &j) in self.live.iter().enumerate() {
                let c = counts[j];
                next_remaining[k] = if c > 1 {
                    remaining[k] / c
                } else {
                    remaining[k]
                };
                next_taken[k] = taken[k] || c > 1;
            }
            self.group[depth] = g as u32;
            let entries = table.entries(g).len() as u64;
            self.dfs(
                depth + 1,
                leaves.saturating_mul(entries),
                min_steps.saturating_mul(table.min_steps(g)),
            )?;
            g += 1;
        }
        Ok(())
    }
}

/// Every fanout-feasible region, sorted by `(min_steps, group tuple)`.
fn build_regions(
    space: &Mapspace,
    layout: &SlotLayout,
    spatial_slots: &[usize],
    tables: &[DimTable],
    table_of: &[usize; 7],
    max_regions: usize,
) -> Result<Vec<Region>, EnumError> {
    let extents: Vec<u64> = spatial_slots
        .iter()
        .map(|&s| {
            let slot = SlotId::new(s);
            let fanout = space.arch().levels()[layout.level_of(slot)].fanout();
            if layout.kind_of(slot) == SlotKind::SpatialX {
                fanout.x()
            } else {
                fanout.y()
            }
        })
        .collect();
    let live: Vec<usize> = (0..extents.len()).filter(|&j| extents[j] > 1).collect();
    let width = live.len();
    let mut remaining = vec![0u64; 8 * width];
    for (cap, &j) in remaining.iter_mut().zip(&live) {
        *cap = extents[j];
    }
    let mut search = RegionSearch {
        tables: std::array::from_fn(|di| &tables[table_of[di]]),
        exclusive: space.constraints().exclusive_spatial(),
        live,
        remaining,
        taken: vec![false; 8 * width],
        group: [0; 7],
        regions: Vec::new(),
        max_regions,
    };
    search.dfs(0, 1, 1)?;
    let regions = search.regions;
    // The search emits regions in lexicographic group-tuple order, so a
    // region's emission index ranks its group tuple and the packed
    // `(min_steps, index)` key sorts exactly by `(min_steps, group)`.
    let mut keys: Vec<u128> = regions
        .iter()
        .enumerate()
        .map(|(i, r)| u128::from(r.min_steps) << 64 | i as u128)
        .collect();
    keys.sort_unstable();
    Ok(keys
        .into_iter()
        .map(|key| regions[key as u64 as usize].clone())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use ruby_arch::presets;
    use ruby_workload::ProblemShape;

    fn toy(kind: MapspaceKind, pes: u64, d: u64) -> Mapspace {
        Mapspace::new(
            presets::toy_linear(pes, 1024),
            ProblemShape::rank1("d", d),
            kind,
        )
    }

    fn enumerate_all(tables: &EnumTables, space: &Mapspace) -> Vec<Mapping> {
        let mut out = Vec::new();
        let mut mapping = Mapping::builder(space.arch().num_levels())
            .build_for_bounds(space.shape().bounds())
            .unwrap();
        for region in tables.regions() {
            let mut it = SubspaceIterator::new(tables, region, 0, region.leaves);
            while it.next_into(&mut mapping).is_some() {
                out.push(mapping.clone());
            }
        }
        out
    }

    #[test]
    fn enumeration_has_no_duplicate_chains() {
        for kind in MapspaceKind::ALL {
            let space = toy(kind, 4, 12);
            let tables = EnumTables::build(&space, &EnumLimits::default()).unwrap();
            let all = enumerate_all(&tables, &space);
            assert_eq!(all.len() as u64, tables.total_leaves(), "{kind}");
            let keys: BTreeSet<Vec<u64>> =
                all.iter().map(|m| m.tile_chain(Dim::M).to_vec()).collect();
            assert_eq!(keys.len(), all.len(), "{kind}: duplicate chains");
        }
    }

    #[test]
    fn iterator_ranges_partition_the_region() {
        let space = toy(MapspaceKind::RubyS, 4, 12);
        let tables = EnumTables::build(&space, &EnumLimits::default()).unwrap();
        let region = &tables.regions()[0];
        let mut mapping = space.sample(&mut {
            use rand::SeedableRng;
            rand::rngs::SmallRng::seed_from_u64(0)
        });
        let whole: Vec<Vec<u64>> = {
            let mut it = SubspaceIterator::new(&tables, region, 0, region.leaves);
            let mut v = Vec::new();
            while it.next_into(&mut mapping).is_some() {
                v.push(mapping.tile_chain(Dim::M).to_vec());
            }
            v
        };
        let mid = region.leaves / 2;
        let mut split = Vec::new();
        for (a, b) in [(0, mid), (mid, region.leaves)] {
            let mut it = SubspaceIterator::new(&tables, region, a, b);
            while it.next_into(&mut mapping).is_some() {
                split.push(mapping.tile_chain(Dim::M).to_vec());
            }
        }
        assert_eq!(whole, split);
    }

    #[test]
    fn regions_are_sorted_by_cycle_floor() {
        let space = toy(MapspaceKind::Ruby, 4, 24);
        let tables = EnumTables::build(&space, &EnumLimits::default()).unwrap();
        let floors: Vec<u64> = tables.regions().iter().map(|r| r.min_steps).collect();
        assert!(floors.windows(2).all(|w| w[0] <= w[1]));
        assert!(!floors.is_empty());
    }

    #[test]
    fn region_floor_bounds_every_leaf() {
        let space = toy(MapspaceKind::RubyS, 4, 30);
        let tables = EnumTables::build(&space, &EnumLimits::default()).unwrap();
        let mut mapping = Mapping::builder(2)
            .build_for_bounds(space.shape().bounds())
            .unwrap();
        for region in tables.regions() {
            let mut it = SubspaceIterator::new(&tables, region, 0, region.leaves);
            while let Some(steps) = it.next_into(&mut mapping) {
                assert!(steps >= region.min_steps);
                assert_eq!(steps, mapping.compute_cycles());
            }
        }
    }

    /// Distinct chains in `dim`'s table.
    fn entries_of(tables: &EnumTables, dim: Dim) -> usize {
        tables.groups(dim).map(|g| g.entries().len()).sum()
    }

    #[test]
    fn entry_limit_admits_exactly_the_distinct_chain_count() {
        let space = toy(MapspaceKind::Ruby, 4, 100);
        let full = EnumTables::build(&space, &EnumLimits::default()).unwrap();
        let exact = entries_of(&full, Dim::M);
        let limits = |max_entries_per_dim| EnumLimits {
            max_entries_per_dim,
            ..EnumLimits::default()
        };
        let at = EnumTables::build(&space, &limits(exact)).unwrap();
        assert_eq!(entries_of(&at, Dim::M), exact);
        assert_eq!(at.regions().len(), full.regions().len());
        assert_eq!(
            EnumTables::build(&space, &limits(exact - 1)).err(),
            Some(EnumError::DimTooLarge {
                dim: Dim::M,
                limit: exact - 1
            })
        );
    }

    #[test]
    fn region_limit_admits_exactly_the_region_count() {
        let space = Mapspace::new(
            presets::toy_linear(9, 1024),
            ProblemShape::gemm("g", 12, 10, 7),
            MapspaceKind::RubyS,
        );
        let full = EnumTables::build(&space, &EnumLimits::default()).unwrap();
        let exact = full.regions().len();
        assert!(exact > 1);
        let limits = |max_regions| EnumLimits {
            max_regions,
            ..EnumLimits::default()
        };
        let at = EnumTables::build(&space, &limits(exact)).unwrap();
        assert_eq!(at.regions().len(), exact);
        assert_eq!(
            EnumTables::build(&space, &limits(exact - 1)).err(),
            Some(EnumError::TooManyRegions { limit: exact - 1 })
        );
    }

    #[test]
    fn duplicate_chains_never_count_toward_the_entry_limit() {
        // Ruby-S on 4 PEs with M = 9: spatial factors 3 and 4 both leave
        // a temporal residual of 3 and clamp to the same chain.
        let space = toy(MapspaceKind::RubyS, 4, 9);
        let rules = space.slot_rules_full(Dim::M);
        let mut walk = ChainWalk::new(MapspaceKind::RubyS, 9, &rules, usize::MAX);
        walk.run().unwrap();
        let stride = walk.chain.len();
        let generated = walk.rows.len() / stride;
        let distinct = sorted_unique(&walk.rows, stride).len();
        assert!(
            generated > distinct,
            "{generated} rows, {distinct} distinct"
        );

        let limits = |max_entries_per_dim| EnumLimits {
            max_entries_per_dim,
            ..EnumLimits::default()
        };
        let at = EnumTables::build(&space, &limits(distinct)).unwrap();
        assert_eq!(entries_of(&at, Dim::M), distinct);
        assert_eq!(
            EnumTables::build(&space, &limits(distinct - 1)).err(),
            Some(EnumError::DimTooLarge {
                dim: Dim::M,
                limit: distinct - 1
            })
        );
    }

    #[test]
    fn tiny_entry_limit_is_reported() {
        let space = toy(MapspaceKind::Ruby, 4, 100);
        let limits = EnumLimits {
            max_entries_per_dim: 3,
            ..EnumLimits::default()
        };
        assert!(matches!(
            EnumTables::build(&space, &limits),
            Err(EnumError::DimTooLarge { dim: Dim::M, .. })
        ));
    }
}
