//! Perfect-permutation sampling: a format-preserving cipher over the
//! enumeration index space.
//!
//! Random search used to draw per-dimension factor vectors and reject
//! duplicates through a memo table; at 15k samples the committed bench
//! showed ~65% of evaluations wasted on invalid or duplicate
//! candidates. This module removes the waste at the source: a seeded
//! **balanced Feistel network** ([`FeistelPermutation`]) is a bijection
//! `shuffle(i) -> j` on `[0, range)` computable in O(1) memory, so
//! "random sampling" becomes *exhaustive enumeration in shuffled
//! order* — zero duplicates by construction, no rejection-sampling
//! retry loops, and no dedup memo on the random path.
//!
//! The cipher works on the smallest even-bit binary domain `2^(2k) >=
//! range` and **cycle-walks**: encryption is iterated until the output
//! lands below `range`. Because the minimal domain is less than
//! `4 * range`, the expected walk is under four rounds. Iterating a
//! bijection from an in-range point always returns to the in-range
//! set (the cycle through `i` contains `i` itself), so the walk
//! terminates, and distinct inputs can never collide (they live on
//! disjoint cycle arcs).
//!
//! [`PermutedIterator`] lifts the cipher onto a mapspace: the
//! [`EnumTables`] regions partition the deduplicated chain space into
//! a single global index range `[0, total_leaves)`, and the iterator
//! walks that range in shuffled order. Each visited index is decoded
//! by descending the tables' memoized region counts — one binary search
//! per dimension — and, in Ruby and Ruby-T spaces, each group's chain
//! counts, in the *group-tuple* and walk order of the module-level order
//! contract in [`crate::enumerate`], not the cycle-floor order of
//! [`EnumTables::regions`], which the walk never lists. A permuted walk
//! is still an indexed walk: the cursor is the permutation *position*,
//! so range partitioning across threads and checkpoint/resume work
//! exactly as they do for the exhaustive order.

use ruby_mapping::Mapping;

use crate::enumerate::EnumTables;

/// Feistel rounds used when none are specified. Four rounds of a
/// strong mixing function is the standard choice for statistical (not
/// cryptographic) format-preserving permutations.
pub const DEFAULT_ROUNDS: usize = 4;

/// A seeded bijection on `[0, range)` with O(1) memory: a balanced
/// Feistel network over the smallest even-bit domain covering the
/// range, cycle-walked back into the range.
#[derive(Debug, Clone)]
pub struct FeistelPermutation {
    range: u64,
    seed: u64,
    /// Bits in each Feistel half; the domain is `2^(2 * half_bits)`.
    half_bits: u32,
    /// `2^half_bits - 1`: the right-half mask.
    mask: u64,
    keys: Vec<u64>,
}

impl FeistelPermutation {
    /// A permutation of `[0, range)` with [`DEFAULT_ROUNDS`] rounds.
    #[must_use]
    pub fn new(range: u64, seed: u64) -> Self {
        Self::with_rounds(range, seed, DEFAULT_ROUNDS)
    }

    /// A permutation of `[0, range)` with an explicit round count
    /// (minimum 2; fewer rounds cannot mix both halves).
    #[must_use]
    pub fn with_rounds(range: u64, seed: u64, rounds: usize) -> Self {
        // Smallest k with 2^(2k) >= range; k = 32 covers all of u64.
        let mut half_bits = 1u32;
        while half_bits < 32 && range > 1u64 << (2 * half_bits) {
            half_bits += 1;
        }
        let mask = (1u64 << half_bits) - 1;
        let mut state = seed;
        let keys = (0..rounds.max(2))
            .map(|_| rand::splitmix64(&mut state))
            .collect();
        FeistelPermutation {
            range,
            seed,
            half_bits,
            mask,
            keys,
        }
    }

    /// The permuted range.
    #[must_use]
    pub fn range(&self) -> u64 {
        self.range
    }

    /// The seed the round keys were derived from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The image of `i` under the permutation. Bijective on
    /// `[0, range)`; out-of-range inputs are a caller bug (checked in
    /// debug builds, identity in release so the walk stays total).
    #[must_use]
    pub fn shuffle(&self, i: u64) -> u64 {
        debug_assert!(
            self.range <= 1 || i < self.range,
            "shuffle index {i} outside range {}",
            self.range
        );
        if self.range <= 1 || i >= self.range {
            return i;
        }
        let mut x = i;
        loop {
            x = self.encrypt(x);
            if x < self.range {
                return x;
            }
        }
    }

    /// One pass of the Feistel network over the full binary domain.
    fn encrypt(&self, x: u64) -> u64 {
        let mut left = x >> self.half_bits;
        let mut right = x & self.mask;
        for &key in &self.keys {
            let next = left ^ self.round(right, key);
            left = right;
            right = next;
        }
        (left << self.half_bits) | right
    }

    /// The round function: a splitmix64-style finalizer over the right
    /// half and the round key, masked back to half width. All-u64
    /// arithmetic — no truncating casts anywhere in the cipher.
    fn round(&self, right: u64, key: u64) -> u64 {
        let mut z = right.wrapping_add(key);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        z & self.mask
    }
}

/// A shuffled, resumable walk over the *global* leaf index space of an
/// [`EnumTables`] — every deduplicated mapping exactly once, in an
/// order determined by `seed`. Disjoint position ranges visit disjoint
/// mappings, so threads partition work by index arithmetic alone, and
/// the checkpoint cursor is simply [`PermutedIterator::position`].
#[derive(Debug)]
pub struct PermutedIterator<'a> {
    tables: &'a EnumTables,
    perm: FeistelPermutation,
    pos: u64,
    end: u64,
}

impl<'a> PermutedIterator<'a> {
    /// A walk over permutation positions `start..end` of the global
    /// range `[0, exact_total_leaves)`.
    ///
    /// Returns `None` when the leaf count saturated `u64`
    /// ([`EnumTables::exact_total_leaves`]); callers should fall back
    /// to rejection sampling for such astronomically large spaces.
    ///
    /// # Panics
    ///
    /// Panics if the position range is inverted or exceeds the space.
    #[must_use]
    pub fn new(tables: &'a EnumTables, seed: u64, start: u64, end: u64) -> Option<Self> {
        let total = tables.exact_total_leaves()?;
        assert!(
            start <= end && end <= total,
            "position range {start}..{end} outside space of {total} leaves"
        );
        Some(PermutedIterator {
            tables,
            perm: FeistelPermutation::new(total, seed),
            pos: start,
            end,
        })
    }

    /// The next permutation position to visit — the resume cursor.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// One past the last position this walk will visit.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Decodes the mapping at the next shuffled position into `out`
    /// (permutation loop orders are left untouched, exactly like
    /// [`crate::SubspaceIterator::next_into`]) and returns its global
    /// leaf index, or `None` when the range is exhausted.
    pub fn next_into(&mut self, out: &mut Mapping) -> Option<u64> {
        let global = self.next_index()?;
        self.tables.leaf_into(global, out);
        Some(global)
    }

    /// Advances past the next shuffled position without decoding it and
    /// returns its global leaf index, or `None` when the range is
    /// exhausted. A batch of these decodes in one
    /// [`EnumTables::leaves_into`] call on [`PermutedIterator::tables`].
    pub fn next_index(&mut self) -> Option<u64> {
        if self.pos >= self.end {
            return None;
        }
        let global = self.perm.shuffle(self.pos);
        self.pos += 1;
        Some(global)
    }

    /// The tables the walk decodes from.
    #[must_use]
    pub fn tables(&self) -> &'a EnumTables {
        self.tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Mapspace, MapspaceKind};
    use crate::{EnumLimits, SubspaceIterator};
    use ruby_arch::presets;
    use ruby_workload::ProblemShape;
    use std::collections::BTreeSet;

    #[test]
    fn shuffle_is_a_bijection_on_awkward_ranges() {
        for range in [1u64, 2, 3, 5, 16, 17, 100, 255, 256, 257, 1000] {
            for seed in [0u64, 1, 42, u64::MAX] {
                let perm = FeistelPermutation::new(range, seed);
                let mut seen: Vec<u64> = (0..range).map(|i| perm.shuffle(i)).collect();
                seen.sort_unstable();
                assert_eq!(
                    seen,
                    (0..range).collect::<Vec<_>>(),
                    "range {range} seed {seed}"
                );
            }
        }
    }

    /// The format-preserving cipher must biject on `[0, range)` for
    /// arbitrary (not just round or power-of-two) ranges and any seed:
    /// every output lands in range and none repeats. Plain asserts so
    /// the proptest macro body stays a single call.
    fn check_bijection(range: u64, seed: u64) {
        let perm = FeistelPermutation::new(range, seed);
        let mut hit = vec![false; range as usize];
        for i in 0..range {
            let j = perm.shuffle(i);
            assert!(j < range, "shuffle({i}) = {j} escaped [0, {range})");
            assert!(!hit[j as usize], "shuffle({i}) = {j} collided");
            hit[j as usize] = true;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn shuffle_bijects_arbitrary_ranges(range in 1u64..50_000, seed in 0u64..u64::MAX) {
            check_bijection(range, seed);
        }
    }

    #[test]
    fn shuffle_actually_permutes_nontrivially() {
        let perm = FeistelPermutation::new(1000, 7);
        let fixed = (0..1000).filter(|&i| perm.shuffle(i) == i).count();
        assert!(fixed < 50, "{fixed} fixed points is not a shuffle");
    }

    #[test]
    fn same_seed_same_order_different_seed_different_order() {
        let a = FeistelPermutation::new(500, 3);
        let b = FeistelPermutation::new(500, 3);
        let c = FeistelPermutation::new(500, 4);
        let va: Vec<u64> = (0..500).map(|i| a.shuffle(i)).collect();
        let vb: Vec<u64> = (0..500).map(|i| b.shuffle(i)).collect();
        let vc: Vec<u64> = (0..500).map(|i| c.shuffle(i)).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn permuted_walk_covers_the_support_exactly_once() {
        for kind in MapspaceKind::ALL {
            let space = Mapspace::new(
                presets::toy_linear(4, 1024),
                ProblemShape::rank1("d", 12),
                kind,
            );
            let tables = EnumTables::build(&space, &EnumLimits::default()).unwrap();
            let total = tables.exact_total_leaves().unwrap();
            let mut mapping = Mapping::builder(space.arch().num_levels())
                .build_for_bounds(space.shape().bounds())
                .unwrap();

            let mut in_order = BTreeSet::new();
            for region in tables.regions() {
                let mut it = SubspaceIterator::new(&tables, region, 0, region.leaves);
                while it.next_into(&mut mapping).is_some() {
                    in_order.insert(mapping.canonical_key());
                }
            }

            let mut shuffled = BTreeSet::new();
            let mut walk = PermutedIterator::new(&tables, 99, 0, total).unwrap();
            let mut visits = 0u64;
            while walk.next_into(&mut mapping).is_some() {
                shuffled.insert(mapping.canonical_key());
                visits += 1;
            }
            assert_eq!(visits, total, "{kind}: every position visited once");
            assert_eq!(shuffled, in_order, "{kind}: same support");
            assert_eq!(shuffled.len() as u64, total, "{kind}: zero duplicates");
        }
    }

    #[test]
    fn split_ranges_partition_the_walk() {
        let space = Mapspace::new(
            presets::toy_linear(4, 1024),
            ProblemShape::rank1("d", 12),
            MapspaceKind::RubyS,
        );
        let tables = EnumTables::build(&space, &EnumLimits::default()).unwrap();
        let total = tables.exact_total_leaves().unwrap();
        let mut mapping = Mapping::builder(space.arch().num_levels())
            .build_for_bounds(space.shape().bounds())
            .unwrap();
        let whole: Vec<u64> = {
            let mut it = PermutedIterator::new(&tables, 5, 0, total).unwrap();
            let mut v = Vec::new();
            while let Some(global) = it.next_into(&mut mapping) {
                v.push(global);
            }
            v
        };
        let mid = total / 2;
        let mut split = Vec::new();
        for (a, b) in [(0, mid), (mid, total)] {
            let mut it = PermutedIterator::new(&tables, 5, a, b).unwrap();
            while let Some(global) = it.next_into(&mut mapping) {
                split.push(global);
            }
        }
        assert_eq!(whole, split, "resume mid-walk replays the same order");
    }
}
