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
//!    nothing. Ruby and Ruby-T, whose free factors make the large
//!    tables, *count* their chains per signature instead of listing
//!    them, and the permuted walk decodes a group's members from the
//!    counts; PFM and Ruby-S list theirs.
//! 2. **Region counts**: a *region* is a joint combination of one
//!    signature group per dimension that satisfies shared fanout (the
//!    per-slot product of counts fits the axis extent — equivalent to
//!    the sampler's sequential floor-division capacity splitting, in any
//!    dimension order) and spatial exclusivity. Each full mapping lies
//!    in exactly one region, so regions partition the space with no
//!    duplicates. Whether a dimension's group fits depends only on the
//!    *capacity state* the earlier dimensions left (remaining capacity
//!    per spatial slot), so the region search is memoized over those
//!    states: each state becomes a node whose arcs are its feasible
//!    groups, counting the regions and leaves beneath it. A few hundred
//!    nodes stand in for up to hundreds of thousands of regions, and
//!    descending them decodes a global leaf index
//!    ([`crate::PermutedIterator`]) without listing anything.
//! 3. **Regions** ([`EnumTables::regions`]): the regions themselves,
//!    listed from the same nodes on first use (exhaustive search needs
//!    them, and listing them lists every counted table too; the permuted
//!    walk needs neither) and sorted by their *cycle floor* (product of
//!    per-dimension minimal sequential steps), cheapest-possible first.
//! 4. **[`SubspaceIterator`]**: a resumable mixed-radix walk over one
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
//!
//! *Listing* (PFM and Ruby-S at build time; Ruby and Ruby-T only on
//! first use, behind a `OnceLock`, for [`GroupView::entries`],
//! [`EnumTables::regions`] and [`SubspaceIterator`]). Generation appends
//! every chain as one fixed-stride row (`num_slots + 1` values) to a
//! `Vec<u64>` arena. The PFM, Ruby and Ruby-T walks emit strictly
//! ascending chains (factors ascend, the innermost slot is chosen first,
//! and only a slot's last factor clamps), so their row index already is
//! the chain's rank; only Ruby-S, which chooses spatial factors before
//! temporal ones, repeats chains and deduplicates by sorting the rows (a
//! stable sort, so the sorted runs its walk emits merge cheaply). A
//! signature packs into one mixed-radix number (digit `count - 1` per
//! spatial slot, radix `min(cap, bound)`, innermost slot most
//! significant, so numeric order is lexicographic order), and grouping
//! is one sort of packed `(signature, steps, chain rank)` keys: a group
//! starts wherever the signature changes, and its counts decode from the
//! key. A listing holds the arena and each entry's arena row and steps
//! in table order.
//!
//! *Counting* (Ruby and Ruby-T at build time). The walk is a DAG over
//! `(slot, tile)` states, and its paths are exactly the distinct chains.
//! Each state splits into nodes by signature suffix (the digits of the
//! spatial slots at or outside it) and counts its completions per
//! suffix; the root's nodes are the groups, with their sizes. The counts
//! are three flat arrays: each node's tile, the start of its arcs, and
//! the arcs, each naming its successor node and the completions under
//! the node's earlier arcs. A spatial node has one arc (its factor is
//! its digit); a temporal node's arcs run over its successors by
//! ascending tile, so decoding member `k` descends by one binary search
//! per temporal slot. Slots that can only take factor 1 have no nodes.
//! Counting also decides refusal: `max_entries_per_dim` is compared
//! with the counted size, before anything is listed, and the count
//! stops at the first slot whose states already complete more chains
//! than that, before the slots further in are built.
//!
//! Either way, a table keeps per group only the range of its entries and
//! its signature, and dimensions with equal bounds and slot rules share
//! one table. The region nodes and their arcs are two flat arrays as
//! well, and the search keys each capacity state by one integer.
//!
//! # Order contract
//!
//! The order is part of the interface — a `(region, index)` pair or a
//! global leaf index must name the same mapping in every build, or
//! recorded search answers stop being reproducible:
//!
//! * groups by signature, lexicographically (innermost spatial slot
//!   first);
//! * listed entries within a group by `(steps, chain)`, cheapest first,
//!   so leaf 0 of every listed region is its fastest member;
//! * the global leaf index (the permuted walk's space) runs over regions
//!   in *group-tuple* order — lexicographic over the per-dimension group
//!   indices in [`Dim::ALL`] order — and within a region in
//!   [`SubspaceIterator`]'s mixed-radix order over each group's members
//!   in *walk order*: table order for PFM and Ruby-S, while counted
//!   groups (Ruby, Ruby-T) walk in ascending chain order;
//! * [`EnumTables::regions`] lists regions in *cycle-floor* order, by
//!   `(min_steps, group tuple)`, which is unique per region.
//!
//! `tests/table_order_golden.rs` pins the listed order and the walk
//! order.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

use ruby_mapping::{profile, Mapping, ProfileScratch, SlotId, SlotKind, SlotLayout};
use ruby_workload::Dim;

use crate::factor;
use crate::space::{Mapspace, MapspaceKind, SlotRule};

/// Size guards for table construction. Enumeration is only worthwhile
/// when the deduplicated per-dimension support is modest; past these
/// limits [`EnumTables::build`] returns an error and callers fall back
/// to random sampling. Both limits are checked against counts: Ruby and
/// Ruby-T count their chains without listing them, PFM and Ruby-S stop
/// listing once the limit is passed, and regions are always counted.
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
    /// One dimension's deduplicated chain table exceeded the limit, or
    /// its spatial signatures do not pack into 32 bits.
    DimTooLarge {
        /// The offending dimension.
        dim: Dim,
        /// The configured entry limit.
        limit: usize,
    },
    /// The number of feasible regions exceeded the limit, or the region
    /// search's capacity states do not fit a 64-bit key.
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

/// Whether `kind`'s tables count their chains instead of listing them.
/// Ruby and Ruby-T draw their factors freely, which makes their tables
/// the large ones (~B·ln B chains per free temporal slot), and their
/// walk never repeats a chain, so its paths count chains exactly. PFM's
/// divisor chains are few, and Ruby-S's walk repeats chains, so path
/// counts would over-count them.
fn counts_chains(kind: MapspaceKind) -> bool {
    matches!(kind, MapspaceKind::Ruby | MapspaceKind::RubyT)
}

/// Mixed-radix weights of a signature's digits, one per spatial slot:
/// slot `j`'s digit is `count - 1 < min(cap, bound)`, and the innermost
/// slot is most significant, so numeric order is lexicographic order.
/// `None` when a signature does not pack into 32 bits.
fn signature_weights(bound: u64, rules: &[SlotRule]) -> Option<Vec<u64>> {
    let mut weights = Vec::new();
    let mut span = 1u64;
    for rule in rules.iter().rev().filter(|r| r.spatial) {
        weights.push(span);
        span = span.checked_mul(rule.cap.unwrap_or(bound).min(bound))?;
    }
    weights.reverse();
    (span <= 1 << 32).then_some(weights)
}

/// A table's signature groups: each group's packed signature, ascending,
/// and where its entries start (plus one past the last entry).
struct Groups {
    sigs: Vec<u64>,
    starts: Vec<u32>,
}

/// One dimension's deduplicated chains, grouped by spatial signature
/// (loop counts at every spatial slot, innermost first).
#[derive(Debug, Clone)]
struct DimTable {
    kind: MapspaceKind,
    bound: u64,
    /// The slot rules the chains follow, innermost slot first.
    rules: Vec<SlotRule>,
    /// See [`signature_weights`].
    weights: Vec<u64>,
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
    /// Ruby and Ruby-T: the chain counts the permuted walk decodes from.
    counted: Option<ChainCounts>,
    /// Every entry's chain and steps in table order: listed with the
    /// table for PFM and Ruby-S, on first use for counted tables.
    listing: OnceLock<Listing>,
}

impl DimTable {
    /// Tabulates one dimension, or `None` when its deduplicated chains
    /// outgrow `limit` or its signatures do not pack into 32 bits.
    fn build(kind: MapspaceKind, bound: u64, rules: Vec<SlotRule>, limit: usize) -> Option<Self> {
        let weights = signature_weights(bound, &rules)?;
        let limit = limit.min(u32::MAX as usize - 1);
        let (groups, counted, listing) = if counts_chains(kind) {
            let (counts, groups) = ChainCounts::build(kind, bound, &rules, &weights, limit)?;
            (groups, Some(counts), OnceLock::new())
        } else {
            let (listing, groups) = Listing::build(kind, bound, &rules, &weights, limit)?;
            (groups, None, OnceLock::from(listing))
        };
        let Groups { sigs, starts } = groups;
        let width = weights.len();
        let mut counts = Vec::with_capacity(sigs.len() * width);
        for sig in sigs {
            let mut rest = sig;
            for &weight in &weights {
                counts.push(rest / weight + 1);
                rest %= weight;
            }
        }
        let groups = starts.len() - 1;
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
            kind,
            bound,
            rules,
            weights,
            starts,
            width,
            counts,
            skips,
            counted,
            listing,
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
        self.listing().steps[self.starts[group] as usize]
    }

    fn counts(&self, group: usize) -> &[u64] {
        &self.counts[group * self.width..][..self.width]
    }

    /// The table's chains in table order, listed on first use.
    fn listing(&self) -> &Listing {
        self.listing.get_or_init(|| {
            let (kind, bound) = (self.kind, self.bound);
            let built = Listing::build(kind, bound, &self.rules, &self.weights, usize::MAX);
            // lint: allow(panics) — only counted tables list lazily, and
            // counting already admitted them: no limit is left to refuse.
            let (listing, groups) = built.expect("a counted table lists");
            debug_assert_eq!(groups.starts, self.starts, "{kind} listing vs counts");
            listing
        })
    }

    /// Writes `group`'s entry `k` in walk order into `chain`: ascending
    /// chain order in a counted table, table order otherwise. The
    /// one-lane case of [`DimTable::decode_lanes`].
    fn walk_chain(&self, group: usize, k: u64, chain: &mut [u64]) {
        // Entries are indexed by `u32`.
        self.decode_lanes(&[group as u32], &[k as u32], &mut [1], chain);
    }

    /// Writes every lane's member `ks[lane]` of group `groups[lane]`, in
    /// walk order, into `chains`' lane. A listed table also multiplies
    /// the entry's steps into `steps[lane]` (saturating); a counted one
    /// carries no steps and leaves them alone.
    fn decode_lanes(
        &self,
        groups: &[u32],
        ks: &[u32],
        steps: &mut [u64],
        chains: &mut (impl LaneChains + ?Sized),
    ) {
        match &self.counted {
            Some(counted) => counted.decode_lanes(groups, ks, chains),
            None => {
                let listing = self.listing();
                for (lane, (&group, &k)) in groups.iter().zip(ks).enumerate() {
                    let entry = (self.starts[group as usize] + k) as usize;
                    chains.chain(lane).copy_from_slice(listing.chain(entry));
                    steps[lane] = steps[lane].saturating_mul(listing.steps[entry]);
                }
            }
        }
    }
}

/// Where a lane-parallel decode writes each lane's chain of one
/// dimension.
trait LaneChains {
    fn chain(&mut self, lane: usize) -> &mut [u64];
}

/// A single lane's chain.
impl LaneChains for [u64] {
    fn chain(&mut self, _lane: usize) -> &mut [u64] {
        self
    }
}

/// Dimension `dim`'s chain of mapping `out[lane]`.
struct DimChains<'m> {
    out: &'m mut [Mapping],
    dim: Dim,
}

impl LaneChains for DimChains<'_> {
    fn chain(&mut self, lane: usize) -> &mut [u64] {
        self.out[lane].tile_chain_mut(self.dim)
    }
}

/// A table's chains in table order: each entry's arena row and steps.
#[derive(Debug, Clone)]
struct Listing {
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
}

impl Listing {
    /// Walks, deduplicates and sorts one dimension's chains into table
    /// order, or `None` when the distinct chains outgrow `limit`.
    fn build(
        kind: MapspaceKind,
        bound: u64,
        rules: &[SlotRule],
        weights: &[u64],
        limit: usize,
    ) -> Option<(Self, Groups)> {
        let mut walk = ChainWalk::new(kind, bound, rules, limit);
        walk.run().ok()?;
        let stride = walk.chain.len();
        let mut rows = walk.rows;
        rows.shrink_to_fit();
        let row = |r: u32| &rows[r as usize * stride..][..stride];
        // Only Ruby-S's spatial-first walk repeats chains or emits them
        // out of order; the other walks emit strictly ascending chains,
        // so their row index already is the chain rank.
        let unique = (kind == MapspaceKind::RubyS).then(|| sorted_unique(&rows, stride));
        let rank_row = |rank: u32| unique.as_ref().map_or(rank, |u| u[rank as usize]);
        let distinct = unique.as_ref().map_or(rows.len() / stride, Vec::len);
        debug_assert!(
            unique.is_some() || (1..distinct as u32).all(|r| row(r - 1) < row(r)),
            "{kind} walk emitted chains out of order"
        );

        // One packed key per distinct chain: (signature, steps, chain
        // rank); a single sort puts them in table order.
        let spatial_slots: Vec<usize> = (0..rules.len()).filter(|&s| rules[s].spatial).collect();
        let layout = SlotLayout::new(rules.len() / 3);
        let mut scratch = ProfileScratch::new();
        let mut keys: Vec<u128> = Vec::with_capacity(distinct);
        for rank in 0..distinct as u32 {
            let chain = row(rank_row(rank));
            let sig: u64 = spatial_slots
                .iter()
                .zip(weights)
                .map(|(&s, &weight)| (chain[s + 1].div_ceil(chain[s]) - 1) * weight)
                .sum();
            let steps = profile::sequential_steps_with(chain, &layout, &mut scratch);
            keys.push(u128::from(sig) << 96 | u128::from(steps) << 32 | u128::from(rank));
        }
        keys.sort_unstable();

        let mut entry_rows = Vec::with_capacity(distinct);
        let mut steps = Vec::with_capacity(distinct);
        let mut groups = Groups {
            sigs: Vec::new(),
            starts: Vec::new(),
        };
        for key in keys {
            let sig = (key >> 96) as u64;
            if groups.sigs.last() != Some(&sig) {
                groups.sigs.push(sig);
                groups.starts.push(steps.len() as u32);
            }
            steps.push((key >> 32) as u64);
            entry_rows.push(rank_row(key as u32));
        }
        groups.starts.push(steps.len() as u32);
        let listing = Listing {
            stride,
            rows,
            entry_rows,
            steps,
        };
        Some((listing, groups))
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
        let listing = self.table.listing();
        self.table
            .entries(self.group)
            .map(move |e| (listing.chain(e), listing.steps[e]))
    }

    /// The number of member chains, known without listing them.
    pub fn num_entries(&self) -> usize {
        self.table.entries(self.group).len()
    }

    /// Writes member `k` in the permuted walk's order into `chain`
    /// (`num_slots + 1` long): ascending chain order for Ruby and Ruby-T,
    /// whose groups are counted, and table order otherwise.
    ///
    /// # Panics
    ///
    /// May panic, or write an arbitrary chain, unless `k` is below
    /// [`GroupView::num_entries`] and `chain` has the layout's length.
    pub fn walk_chain(&self, k: usize, chain: &mut [u64]) {
        self.table.walk_chain(self.group, k as u64, chain);
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

/// A capacity state of the region search: the choices left to
/// dimensions `depth..7` given the spatial capacity dimensions
/// `0..depth` used up. Equal states have equal subtrees, so each is
/// built once and shared by every path that reaches it.
#[derive(Debug, Clone)]
struct Node {
    /// The node's feasible groups, ascending: `arcs[arcs.start..arcs.end]`.
    arcs: Range<u32>,
    /// Mappings beneath the node, `None` once the count overflows `u64`.
    leaves: Option<u64>,
    /// Regions beneath the node (saturating).
    regions: u64,
}

/// One feasible group at a node, leading to the state it leaves.
#[derive(Debug, Clone, Copy)]
struct GroupArc {
    group: u32,
    child: u32,
    /// Leaves under the node's earlier arcs (saturating): this arc's
    /// first leaf, counted from the node's first.
    before: u64,
}

/// The terminal node (all seven dimensions chose): one region, one leaf.
const DONE: u32 = 0;

/// Leaves [`EnumTables::leaves_into`] decodes side by side; longer calls
/// run in chunks of this many.
pub const DECODE_LANES: usize = 64;

/// Deduplicated per-dimension chain tables plus the counted feasible
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
    /// Region-search states; node [`DONE`] is the terminal one.
    nodes: Vec<Node>,
    arcs: Vec<GroupArc>,
    /// The state before any dimension chose.
    root: u32,
    /// The regions, listed and sorted on first use.
    regions: OnceLock<Vec<Region>>,
}

impl EnumTables {
    /// Builds the tables and counts the regions, or reports why the
    /// space is too large to enumerate within `limits`.
    ///
    /// # Errors
    ///
    /// Returns [`EnumError`] when a per-dimension table or the region
    /// count exceeds `limits`; callers should fall back to sampling.
    pub fn build(space: &Mapspace, limits: &EnumLimits) -> Result<Self, EnumError> {
        let layout = SlotLayout::new(space.arch().num_levels());
        let spatial_slots: Vec<usize> = layout
            .iter()
            .filter(|&s| layout.kind_of(s).is_spatial())
            .map(|s| s.index())
            .collect();

        let mut tables: Vec<DimTable> = Vec::with_capacity(7);
        let mut table_of = [0usize; 7];
        for (di, dim) in Dim::ALL.into_iter().enumerate() {
            let bound = space.shape().bound(dim);
            let rules = space.slot_rules_full(dim);
            // Equal bounds and slot rules give equal tables.
            if let Some(t) = tables
                .iter()
                .position(|t| t.bound == bound && t.rules == rules)
            {
                table_of[di] = t;
                continue;
            }
            let limit = limits.max_entries_per_dim;
            let table = DimTable::build(space.kind(), bound, rules, limit)
                .ok_or(EnumError::DimTooLarge { dim, limit })?;
            table_of[di] = tables.len();
            tables.push(table);
        }

        let too_many = EnumError::TooManyRegions {
            limit: limits.max_regions,
        };
        let (nodes, arcs, root) =
            count_regions(space, &layout, &spatial_slots, &tables, &table_of).ok_or(too_many)?;
        if nodes[root as usize].regions > limits.max_regions as u64 {
            return Err(too_many);
        }
        Ok(EnumTables {
            layout,
            spatial_slots,
            tables,
            table_of,
            nodes,
            arcs,
            root,
            regions: OnceLock::new(),
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
    /// group indices, so the order is deterministic). Listed and sorted
    /// on the first call, which costs time and memory in proportion to
    /// [`EnumTables::region_count`]; counting and the permuted walk
    /// never need the list.
    pub fn regions(&self) -> &[Region] {
        self.regions.get_or_init(|| self.list_regions())
    }

    /// The number of feasible regions, without listing them.
    pub fn region_count(&self) -> usize {
        // `build` refused counts above `max_regions: usize`.
        self.node(self.root).regions as usize
    }

    /// Total mappings across all regions (saturating).
    pub fn total_leaves(&self) -> u64 {
        self.exact_total_leaves().unwrap_or(u64::MAX)
    }

    /// Total mappings across all regions, or `None` when the count
    /// overflows `u64` (such a space cannot be addressed by a single
    /// global index and callers must fall back to sampling).
    pub fn exact_total_leaves(&self) -> Option<u64> {
        self.node(self.root).leaves
    }

    /// The slot layout the chains were built for.
    pub fn layout(&self) -> &SlotLayout {
        &self.layout
    }

    fn node(&self, id: u32) -> &Node {
        &self.nodes[id as usize]
    }

    fn arcs_of(&self, id: u32) -> &[GroupArc] {
        let range = &self.node(id).arcs;
        &self.arcs[range.start as usize..range.end as usize]
    }

    /// Writes the mapping at global leaf `index` (group-tuple order, see
    /// the module's order contract) into `out`, leaving permutations
    /// untouched: the one-lane case of [`EnumTables::leaves_into`].
    ///
    /// # Panics
    ///
    /// May panic, or decode an arbitrary mapping, unless `index` is
    /// below [`EnumTables::exact_total_leaves`] and `out` has this
    /// space's layout.
    pub fn leaf_into(&self, index: u64, out: &mut Mapping) {
        self.leaves_into(&[index], std::slice::from_mut(out), &mut [0]);
    }

    /// Writes the mapping at global leaf `indices[lane]` into
    /// `out[lane]` for every lane, leaving permutations untouched. Each
    /// dimension picks the arc whose leaf range holds the index, then
    /// splits the rest of the index in [`SubspaceIterator`]'s mixed-radix
    /// order over the groups' members in walk order (see
    /// [`GroupView::walk_chain`]).
    ///
    /// The lanes are decoded side by side, one dimension at a time (and
    /// in a counted table one choice slot at a time), [`DECODE_LANES`]
    /// at once, so that the independent lanes' table loads overlap
    /// instead of waiting on one another.
    ///
    /// When the tables list their chains (PFM, Ruby-S) it also writes
    /// each lane's sequential step count into `steps[lane]`, the
    /// saturating product of its chains' listed steps in [`Dim::ALL`]
    /// order — exactly [`Mapping::compute_cycles`] — and returns `true`.
    /// Counted tables (Ruby, Ruby-T) carry no steps: it returns `false`
    /// and leaves `steps` alone.
    ///
    /// # Panics
    ///
    /// Panics unless the three slices have equal lengths. May panic, or
    /// decode arbitrary mappings, unless every index is below
    /// [`EnumTables::exact_total_leaves`] and every mapping has this
    /// space's layout.
    pub fn leaves_into(&self, indices: &[u64], out: &mut [Mapping], steps: &mut [u64]) -> bool {
        assert!(
            indices.len() == out.len() && out.len() == steps.len(),
            "{} indices, {} mappings, {} step counts",
            indices.len(),
            out.len(),
            steps.len()
        );
        let listed = self.tables.iter().all(|t| t.counted.is_none());
        let chunks = indices
            .chunks(DECODE_LANES)
            .zip(out.chunks_mut(DECODE_LANES));
        for ((indices, out), steps) in chunks.zip(steps.chunks_mut(DECODE_LANES)) {
            if listed {
                steps.fill(1);
            }
            self.decode_chunk(indices, out, steps);
        }
        listed
    }

    /// [`EnumTables::leaves_into`] for at most [`DECODE_LANES`] lanes.
    fn decode_chunk(&self, indices: &[u64], out: &mut [Mapping], steps: &mut [u64]) {
        let lanes = indices.len();
        let mut node = [self.root; DECODE_LANES];
        let mut idx = [0u64; DECODE_LANES];
        idx[..lanes].copy_from_slice(indices);
        let mut group = [0u32; DECODE_LANES];
        let mut member = [0u32; DECODE_LANES];
        for (di, dim) in Dim::ALL.into_iter().enumerate() {
            let table = self.table(di);
            for lane in 0..lanes {
                let arcs = self.arcs_of(node[lane]);
                // The first arc starts at 0 <= idx, so the point is >= 1.
                let arc = arcs[arcs.partition_point(|a| a.before <= idx[lane]) - 1];
                let rest = idx[lane] - arc.before;
                let radix = table.entries(arc.group as usize).len() as u64;
                node[lane] = arc.child;
                group[lane] = arc.group;
                // Below the group's size, which is indexed by `u32`.
                member[lane] = (rest % radix) as u32;
                idx[lane] = rest / radix;
            }
            let mut chains = DimChains { out, dim };
            table.decode_lanes(&group[..lanes], &member[..lanes], steps, &mut chains);
        }
    }

    /// Every region, sorted by `(min_steps, group tuple)`.
    fn list_regions(&self) -> Vec<Region> {
        let mut regions = Vec::with_capacity(self.region_count());
        self.list_from(self.root, 0, [0; 7], 1, 1, &mut regions);
        // Depth-first over ascending arcs emits regions in group-tuple
        // order, so a region's emission index ranks its group tuple and
        // the packed `(min_steps, index)` key sorts exactly by
        // `(min_steps, group)`.
        let mut keys: Vec<u128> = regions
            .iter()
            .enumerate()
            .map(|(i, r)| u128::from(r.min_steps) << 64 | i as u128)
            .collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|key| regions[key as u64 as usize].clone())
            .collect()
    }

    fn list_from(
        &self,
        node: u32,
        depth: usize,
        mut group: [u32; 7],
        leaves: u64,
        min_steps: u64,
        out: &mut Vec<Region>,
    ) {
        if depth == 7 {
            out.push(Region {
                group,
                leaves,
                min_steps,
            });
            return;
        }
        let table = self.table(depth);
        for arc in self.arcs_of(node) {
            let g = arc.group as usize;
            group[depth] = arc.group;
            self.list_from(
                arc.child,
                depth + 1,
                group,
                leaves.saturating_mul(table.entries(g).len() as u64),
                min_steps.saturating_mul(table.min_steps(g)),
                out,
            );
        }
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
            let listing = table.listing();
            let entries = table.entries(self.region.group[di] as usize);
            let radix = entries.len() as u64;
            let entry = entries.start + (idx % radix) as usize;
            idx /= radix;
            out.set_tile_chain(dim, listing.chain(entry));
            steps = steps.saturating_mul(listing.steps[entry]);
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

/// The factors [`ChainWalk::free`] draws at `rule`'s slot from tile
/// `cum`, ascending: `[1, ceil(bound/cum)]`, within the cap at a spatial
/// slot, where Ruby-T takes only the divisors of the bound (`divisors`,
/// ascending).
fn free_factors<'d>(
    kind: MapspaceKind,
    rule: SlotRule,
    bound: u64,
    cum: u64,
    divisors: &'d [u64],
) -> impl Iterator<Item = u64> + 'd {
    let needed = bound.div_ceil(cum);
    let cap = if rule.spatial {
        rule.cap.unwrap_or(u64::MAX).min(needed)
    } else {
        needed
    };
    // Exactly one of the two parts is nonempty.
    let (free, divisors) = if rule.spatial && kind == MapspaceKind::RubyT {
        (0, &divisors[..divisors.partition_point(|&f| f <= cap)])
    } else {
        (cap, &[][..])
    };
    (1..=free).chain(divisors.iter().copied())
}

/// Ruby and Ruby-T: one dimension's chains, counted instead of listed.
///
/// [`ChainWalk::free`] is a DAG over `(slot, tile)` states: the factors
/// a slot may take depend only on the tile the inner slots left, and
/// distinct factors leave distinct tiles, so the DAG's paths are exactly
/// the distinct chains. Only *choice* slots, which can take a factor
/// above 1, have states; every other slot keeps its tile. A *node* is a
/// state together with a signature suffix (the digits of the spatial
/// slots at or outside its slot); it counts the state's completions that
/// carry that suffix. A spatial slot's factor is its digit, so a node
/// there has one arc; a temporal node's arcs are the successor nodes
/// with its suffix, by ascending tile, each holding the completions
/// under the arcs before it. Group `g` is root node `g`, and descending
/// from it by those counts decodes the group's `k`-th chain in ascending
/// chain order.
#[derive(Debug, Clone)]
struct ChainCounts {
    bound: u64,
    /// The choice slots, innermost first: every slot but the outermost
    /// (whose factor is stretched to the bound) whose radix exceeds 1.
    choices: Vec<usize>,
    /// Node `n`'s tile: the chain entry before its slot.
    tiles: Vec<u64>,
    /// Node `n`'s arcs are `arcs[first_arc[n]..first_arc[n + 1]]`; the
    /// nodes after the last choice slot have none.
    first_arc: Vec<u32>,
    arcs: Vec<ChainArc>,
    /// Group `g` is node `root + g`.
    root: u32,
}

/// One way a node's chains continue: to node `to` at the next choice
/// slot.
#[derive(Debug, Clone, Copy)]
struct ChainArc {
    /// Completions under the node's earlier arcs: this arc's first one,
    /// counted from the node's first.
    before: u32,
    to: u32,
}

impl ChainCounts {
    /// Counts the chains [`ChainWalk::free`] would list, per signature,
    /// returning the counts and the groups: every signature that has
    /// chains, ascending, with their sizes. `None` once the chains
    /// outgrow `limit` (`<= u32::MAX - 1`): every state at a slot is
    /// reachable, so its completions lie on distinct chains, and the
    /// build gives up as soon as a slot's states hold more of them than
    /// `limit` (which also bounds the slot's nodes and arcs), before the
    /// slots further in are built.
    fn build(
        kind: MapspaceKind,
        bound: u64,
        rules: &[SlotRule],
        weights: &[u64],
        limit: usize,
    ) -> Option<(Self, Groups)> {
        let slots = rules.len();
        let mut weight_at = vec![0u64; slots];
        let spatial = (0..slots).filter(|&s| rules[s].spatial);
        for (s, &weight) in spatial.zip(weights) {
            weight_at[s] = weight;
        }
        let choices: Vec<usize> = (0..slots - 1)
            .filter(|&s| rules[s].cap.unwrap_or(bound).min(bound) > 1)
            .collect();
        let divisors = match kind {
            MapspaceKind::RubyT => factor::divisors(bound),
            _ => Vec::new(),
        };
        let factors =
            |slot: usize, cum: u64| free_factors(kind, rules[slot], bound, cum, &divisors);
        let advance = |cum: u64, f: u64| cum.saturating_mul(f).min(bound);

        // The tiles reachable before each choice slot (and after the
        // last one), ascending. Up to the first temporal slot only
        // products of spatial factors are; after it every tile in
        // 1..=bound is (from tile 1 it may draw any factor up to the
        // bound, and factor 1 keeps every tile).
        let levels = choices.len() + 1;
        let mut sparse = vec![vec![1u64]];
        for (level, &slot) in choices.iter().enumerate() {
            if !rules[slot].spatial {
                break;
            }
            let mut next: Vec<u64> = sparse[level]
                .iter()
                .flat_map(|&cum| factors(slot, cum).map(move |f| advance(cum, f)))
                .collect();
            next.sort_unstable();
            next.dedup();
            if next.len() > limit {
                return None;
            }
            sparse.push(next);
        }
        let dense_from = sparse.len();
        if dense_from < levels && bound > limit as u64 {
            return None;
        }
        let states_at = |level: usize| {
            if level >= dense_from {
                bound as usize
            } else {
                sparse[level].len()
            }
        };
        let tile_at = |level: usize, state: usize| {
            if level >= dense_from {
                state as u64 + 1
            } else {
                sparse[level][state]
            }
        };
        let state_of = |level: usize, tile: u64| {
            if level >= dense_from {
                tile as usize - 1
            } else {
                sparse[level].partition_point(|&t| t < tile)
            }
        };

        // Outermost level first, so every successor already has its nodes.
        let mut dag = ChainCounts {
            bound,
            choices,
            tiles: Vec::new(),
            first_arc: Vec::new(),
            arcs: Vec::new(),
            root: 0,
        };
        // Per node, during the build only: its suffix and its count.
        let mut suffix: Vec<u32> = Vec::new();
        let mut count: Vec<u32> = Vec::new();
        // The states of the level after the current one: state `k` owns
        // nodes `next[k]..next[k + 1]`.
        let mut next: Vec<u32> = Vec::new();
        // A state's successor nodes as `(suffix with this slot's digit,
        // node)`, by ascending successor tile.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for level in (0..levels).rev() {
            // Completions of the level's states so far: each state is
            // reachable, so they lie on distinct chains.
            let mut level_chains = 0usize;
            let mut nodes = Vec::with_capacity(states_at(level) + 1);
            for state in 0..states_at(level) {
                let cum = tile_at(level, state);
                nodes.push(dag.tiles.len() as u32);
                let Some(&slot) = dag.choices.get(level) else {
                    // After the last choice: one completion.
                    dag.tiles.push(cum);
                    dag.first_arc.push(dag.arcs.len() as u32);
                    suffix.push(0);
                    count.push(1);
                    continue;
                };
                pairs.clear();
                for f in factors(slot, cum) {
                    let to = state_of(level + 1, advance(cum, f));
                    // The digit is below the weight, which bounds every
                    // suffix after it, so the sum stays below 2^32.
                    let digit = ((f - 1) * weight_at[slot]) as u32;
                    let below = next[to]..next[to + 1];
                    pairs.extend(below.map(|m| (digit + suffix[m as usize], m)));
                }
                let spatial = rules[slot].spatial;
                if !spatial {
                    // Stable: successors keep their tile order per suffix.
                    pairs.sort_by_key(|&(s, _)| s);
                }
                // A spatial slot's digits already make every suffix
                // distinct and ascending: one node per pair.
                for run in pairs.chunk_by(|a, b| !spatial && a.0 == b.0) {
                    dag.tiles.push(cum);
                    dag.first_arc.push(dag.arcs.len() as u32);
                    let mut before = 0u32;
                    for &(_, m) in run {
                        dag.arcs.push(ChainArc { before, to: m });
                        before = before
                            .checked_add(count[m as usize])
                            .filter(|&c| c as usize <= limit)?;
                    }
                    suffix.push(run[0].0);
                    count.push(before);
                    level_chains += before as usize;
                }
                // Every node and arc of the level starts at least one of
                // these completions, so this also bounds the level's size.
                if level_chains > limit {
                    return None;
                }
            }
            nodes.push(dag.tiles.len() as u32);
            next = nodes;
        }
        dag.first_arc.push(dag.arcs.len() as u32);
        dag.root = next[0];
        let roots = next[0] as usize..next[1] as usize;
        let mut groups = Groups {
            sigs: Vec::with_capacity(roots.len()),
            starts: Vec::with_capacity(roots.len() + 1),
        };
        let mut total = 0u32;
        for n in roots {
            groups.sigs.push(u64::from(suffix[n]));
            groups.starts.push(total);
            total = total
                .checked_add(count[n])
                .filter(|&t| t as usize <= limit)?;
        }
        groups.starts.push(total);
        Some((dag, groups))
    }

    /// Writes, for every lane, group `groups[lane]`'s `ks[lane]`-th
    /// chain in ascending chain order into `chains`' lane. The lanes
    /// descend side by side, one choice slot at a time, so their
    /// independent arc and tile loads overlap.
    fn decode_lanes(&self, groups: &[u32], ks: &[u32], chains: &mut (impl LaneChains + ?Sized)) {
        let lanes = groups.len();
        let mut node = [0u32; DECODE_LANES];
        let mut k = [0u32; DECODE_LANES];
        let mut tile = [1u64; DECODE_LANES];
        for lane in 0..lanes {
            node[lane] = self.root + groups[lane];
            k[lane] = ks[lane];
        }
        let mut written = 0;
        for &slot in &self.choices {
            for lane in 0..lanes {
                let n = node[lane] as usize;
                let arcs = &self.arcs[self.first_arc[n] as usize..self.first_arc[n + 1] as usize];
                // Every arc counts at least one completion, so `before`
                // rises by at least 1 per arc; when the last one reads
                // `len - 1`, all arcs but the last count exactly one
                // (always so for a single arc, and for the successors of
                // the last choice slot) and arc `k` is found without a
                // search.
                let last = arcs.len() - 1;
                let at = if arcs[last].before as usize == last {
                    (k[lane] as usize).min(last)
                } else {
                    // The first arc starts at 0 <= k, so the point is >= 1.
                    arcs.partition_point(|a| a.before <= k[lane]) - 1
                };
                let arc = arcs[at];
                k[lane] -= arc.before;
                node[lane] = arc.to;
                // Slots up to this one kept the tile; this one moves it.
                chains.chain(lane)[written..=slot].fill(tile[lane]);
                tile[lane] = self.tiles[arc.to as usize];
            }
            written = slot + 1;
        }
        for (lane, &tile) in tile[..lanes].iter().enumerate() {
            let chain = chains.chain(lane);
            let last = chain.len() - 1;
            chain[written..last].fill(tile);
            chain[last] = self.bound;
        }
    }
}

/// Memoized region search over capacity states, one signature group
/// per dimension. A state is the remaining capacity of every live
/// spatial slot after sequential floor division — the same arithmetic
/// as the sampler's shared [`crate::space`] axis states. Under
/// exclusivity a slot some dimension already splits behaves exactly
/// like one with capacity 1 (any later count above 1 clashes there), so
/// ownership folds into the capacities and the state needs no more.
struct RegionCounter<'a> {
    tables: [&'a DimTable; 7],
    exclusive: bool,
    /// Signature positions whose axis extent exceeds 1; counts elsewhere
    /// are all 1 and never clash.
    live: Vec<usize>,
    /// Mixed-radix weight of each live slot's remaining capacity (radix
    /// `extent + 1`, scaled by 7 so the depth fills the lowest digit).
    weights: Vec<u64>,
    /// The state at each depth: `remaining[d * live.len()..][..live.len()]`
    /// is the capacity left when dimension `d` chooses.
    remaining: Vec<u64>,
    /// Node id of each visited state, keyed `depth + Σ left · weight`.
    seen: HashMap<u64, u32>,
    nodes: Vec<Node>,
    arcs: Vec<GroupArc>,
}

impl RegionCounter<'_> {
    /// The node of the state where dimension `depth` chooses next with
    /// `self.remaining`'s row `depth` left, built on first visit.
    fn visit(&mut self, depth: usize) -> u32 {
        if depth == 7 {
            return DONE;
        }
        let width = self.live.len();
        let at = depth * width;
        let key = self.remaining[at..at + width]
            .iter()
            .zip(&self.weights)
            .fold(depth as u64, |key, (&left, &weight)| key + left * weight);
        if let Some(&id) = self.seen.get(&key) {
            return id;
        }
        let table = self.tables[depth];
        let mut arcs = Vec::new();
        let mut leaves = Some(0u64);
        let mut regions = 0u64;
        let mut g = 0;
        while g < table.num_groups() {
            let counts = table.counts(g);
            let (remaining, next) = self.remaining[at..].split_at_mut(width);
            let clash = self
                .live
                .iter()
                .zip(&*remaining)
                .find(|&(&j, &left)| counts[j] > left);
            if let Some((&j, _)) = clash {
                // Groups are sorted by signature, so every later group
                // sharing `counts[..j]` has a count at least as large at
                // `j` and clashes there too.
                g = table.skips[g * table.width + j] as usize;
                continue;
            }
            for ((next, &j), &left) in next.iter_mut().zip(&self.live).zip(&*remaining) {
                *next = match counts[j] {
                    1 => left,
                    _ if self.exclusive => 1,
                    c => left / c,
                };
            }
            let child = self.visit(depth + 1);
            let below = &self.nodes[child as usize];
            // A state no group fits contributes nothing; drop its arc.
            if below.regions > 0 {
                let size = table.entries(g).len() as u64;
                arcs.push(GroupArc {
                    group: g as u32,
                    child,
                    before: leaves.unwrap_or(u64::MAX),
                });
                leaves = leaves
                    .zip(below.leaves)
                    .and_then(|(sum, below)| sum.checked_add(below.checked_mul(size)?));
                regions = regions.saturating_add(below.regions);
            }
            g += 1;
        }
        let start = self.arcs.len() as u32;
        self.arcs.extend(arcs);
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            arcs: start..self.arcs.len() as u32,
            leaves,
            regions,
        });
        self.seen.insert(key, id);
        id
    }
}

/// The region-search nodes, their arcs, and the root's id (node
/// [`DONE`] is the terminal state), or `None` when the capacity states
/// do not fit a 64-bit key.
fn count_regions(
    space: &Mapspace,
    layout: &SlotLayout,
    spatial_slots: &[usize],
    tables: &[DimTable],
    table_of: &[usize; 7],
) -> Option<(Vec<Node>, Vec<GroupArc>, u32)> {
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
    let mut span = 7u64;
    let mut weights = Vec::with_capacity(live.len());
    for &j in &live {
        weights.push(span);
        span = span.checked_mul(extents[j].checked_add(1)?)?;
    }
    // Row 0 is the root state; row 7, the states below the last
    // dimension, is written but never read.
    let mut remaining: Vec<u64> = live.iter().map(|&j| extents[j]).collect();
    remaining.resize(8 * live.len(), 0);
    let mut counter = RegionCounter {
        tables: std::array::from_fn(|di| &tables[table_of[di]]),
        exclusive: space.constraints().exclusive_spatial(),
        live,
        weights,
        remaining,
        seen: HashMap::new(),
        nodes: vec![Node {
            arcs: 0..0,
            leaves: Some(1),
            regions: 1,
        }],
        arcs: Vec::new(),
    };
    let root = counter.visit(0);
    Some((counter.nodes, counter.arcs, root))
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

    /// The spaces of `tests/table_order_golden.rs`: every kind, the three
    /// architecture families, and one exclusive constraint set.
    fn golden_spaces() -> Vec<Mapspace> {
        let conv = |m, c, p, r| ProblemShape::conv("c", 1, m, c, p, p, r, r, (1, 1));
        let eyeriss = || presets::eyeriss_like(14, 12);
        vec![
            Mapspace::new(
                presets::toy_linear(16, 1024),
                ProblemShape::rank1("d", 96),
                MapspaceKind::Pfm,
            ),
            toy(MapspaceKind::Ruby, 16, 113),
            Mapspace::new(
                presets::toy_linear(9, 1024),
                ProblemShape::gemm("g", 60, 50, 7),
                MapspaceKind::RubyS,
            ),
            Mapspace::new(eyeriss(), conv(16, 8, 14, 3), MapspaceKind::Pfm),
            Mapspace::new(eyeriss(), conv(64, 32, 14, 3), MapspaceKind::RubyS),
            Mapspace::new(
                eyeriss(),
                ProblemShape::gemm("g", 48, 40, 20),
                MapspaceKind::RubyT,
            ),
            Mapspace::new(
                presets::simba_like(15, 4, 4),
                ProblemShape::gemm("g", 40, 24, 18),
                MapspaceKind::Ruby,
            ),
            Mapspace::new(eyeriss(), conv(16, 6, 7, 3), MapspaceKind::RubyS)
                .with_constraints(crate::Constraints::eyeriss_row_stationary(3, 1)),
        ]
    }

    /// `DimTable::build` skips deduplication for every kind but Ruby-S,
    /// taking each row index as the chain's rank; that holds only while
    /// those walks emit strictly ascending chains.
    #[test]
    fn non_ruby_s_walks_emit_strictly_ascending_chains() {
        let mut checked = 0;
        for space in golden_spaces() {
            if space.kind() == MapspaceKind::RubyS {
                continue;
            }
            for dim in Dim::ALL {
                let rules = space.slot_rules_full(dim);
                let bound = space.shape().bound(dim);
                let mut walk = ChainWalk::new(space.kind(), bound, &rules, usize::MAX);
                walk.run().unwrap();
                let rows: Vec<&[u64]> = walk.rows.chunks(walk.chain.len()).collect();
                assert!(
                    rows.windows(2).all(|w| w[0] < w[1]),
                    "{} {dim:?}: rows not strictly ascending",
                    space.kind()
                );
                checked += rows.len();
            }
        }
        assert!(checked > 1000, "{checked} rows");
    }

    /// A group's signature is decoded from its packed key, not copied
    /// from a member: it must equal every member's own loop counts.
    #[test]
    fn decoded_group_counts_match_every_member_chain() {
        for space in golden_spaces() {
            let tables = EnumTables::build(&space, &EnumLimits::default()).unwrap();
            for dim in Dim::ALL {
                for group in tables.groups(dim) {
                    assert_eq!(group.counts().len(), tables.spatial_slots.len());
                    for (chain, _) in group.entries() {
                        let counts: Vec<u64> = tables
                            .spatial_slots
                            .iter()
                            .map(|&s| chain[s + 1].div_ceil(chain[s]))
                            .collect();
                        assert_eq!(group.counts(), counts, "{} {dim:?} {chain:?}", space.kind());
                    }
                }
            }
        }
    }

    /// A counted table's decode structure must stay smaller than the
    /// listing it replaces on the walk's path.
    #[test]
    fn chain_counts_hold_less_than_the_listing() {
        use std::mem::size_of;
        let mut checked = 0;
        for space in golden_spaces() {
            let tables = EnumTables::build(&space, &EnumLimits::default()).unwrap();
            for table in tables.tables.iter().filter(|t| t.num_groups() > 1) {
                let Some(counted) = &table.counted else {
                    continue;
                };
                let listing = table.listing();
                let listed = listing.rows.len() * size_of::<u64>()
                    + listing.entry_rows.len() * size_of::<u32>()
                    + listing.steps.len() * size_of::<u64>();
                let held = counted.tiles.len() * size_of::<u64>()
                    + counted.first_arc.len() * size_of::<u32>()
                    + counted.arcs.len() * size_of::<ChainArc>();
                assert!(held < listed, "{}: {held} vs {listed} bytes", space.kind());
                checked += 1;
            }
        }
        assert!(checked >= 5, "{checked} counted tables");
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
