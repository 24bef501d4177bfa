//! Property tests of the tile-chain machinery against brute-force
//! per-dimension references: profiles, sequential steps, loop counts and
//! residual arithmetic must agree with naive recursive computation for
//! arbitrary chains.

use proptest::prelude::*;

use ruby_mapping::profile::{
    boundary_profiles, sequential_steps, sequential_steps_with, TileProfile,
};
use ruby_mapping::{ProfileScratch, SlotId, SlotKind, SlotLayout};

/// Brute force: recursively split `extent` by the chain (innermost
/// granularity first is chain[0]) and collect the tile sizes at each
/// boundary.
fn brute_profile(chain: &[u64], boundary: usize) -> Vec<u64> {
    fn tiles(extent: u64, g: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut left = extent;
        while left > 0 {
            let t = g.min(left);
            out.push(t);
            left -= t;
        }
        out
    }
    let top = *chain.last().unwrap();
    let mut current = vec![top];
    for b in (boundary..chain.len() - 1).rev() {
        current = current.iter().flat_map(|&e| tiles(e, chain[b])).collect();
    }
    current.sort_unstable();
    current
}

/// Brute force sequential steps: temporal slots sum children, spatial
/// slots take the lockstep max.
fn brute_steps(chain: &[u64], layout: &SlotLayout, slot: usize, extent: u64) -> u64 {
    if slot == 0 && chain[0] == 1 {
        // Leaf granularity 1: one step per element... handled by the
        // recursion below reaching granularity equal to the extent.
    }
    if extent <= chain[0] && slot == 0 {
        return 1;
    }
    if slot == 0 {
        return 1;
    }
    let inner_slot = slot - 1;
    let g = chain[inner_slot];
    let kind = layout.kind_of(SlotId::new(inner_slot));
    let mut left = extent;
    let mut total = 0u64;
    let mut max = 0u64;
    while left > 0 {
        let t = g.min(left);
        let child = brute_steps(chain, layout, inner_slot, t);
        total += child;
        max = max.max(child);
        left -= t;
    }
    if kind == SlotKind::Temporal {
        total
    } else {
        max
    }
}

fn arb_chain() -> impl Strategy<Value = Vec<u64>> {
    // A 2-level layout: 6 slots, 7 boundaries.
    (1u64..120, 1u64..12, 1u64..12, 1u64..6).prop_map(|(bound, a, b, c)| {
        let mut mids = [a.min(bound), (a * b).min(bound), (a * b * c).min(bound)];
        mids.sort_unstable();
        vec![
            1,
            1,
            mids[0],
            mids[0],
            mids[1],
            mids[2].max(mids[1]),
            bound.max(mids[2]),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Profiles match brute-force recursive splitting at every boundary.
    #[test]
    fn profiles_match_brute_force(chain in arb_chain()) {
        let profiles = boundary_profiles(&chain);
        for (b, profile) in profiles.iter().enumerate().take(chain.len()) {
            let expected = brute_profile(&chain, b);
            let actual: Vec<u64> = profile
                .entries()
                .iter()
                .flat_map(|&(s, c)| std::iter::repeat_n(s, c as usize))
                .collect();
            prop_assert_eq!(&actual, &expected, "boundary {}", b);
        }
    }

    /// Sequential steps match the brute-force temporal-sum /
    /// spatial-max recursion.
    #[test]
    fn steps_match_brute_force(chain in arb_chain()) {
        let layout = SlotLayout::new(2);
        let top = *chain.last().unwrap();
        let expected = brute_steps(&chain, &layout, chain.len() - 1, top);
        prop_assert_eq!(sequential_steps(&chain, &layout), expected);
    }

    /// Clamping then splitting by the same granularity is idempotent on
    /// counts, and splitting preserves total elements.
    #[test]
    fn split_preserves_elements(extent in 1u64..5000, g in 1u64..64) {
        let p = TileProfile::single(extent);
        let split = p.split(g);
        prop_assert_eq!(split.total_elements(), extent);
        prop_assert_eq!(split.num_tiles(), extent.div_ceil(g));
        prop_assert!(split.max_size() <= g);
        let clamped = split.clamp(g);
        prop_assert_eq!(clamped.num_tiles(), split.num_tiles());
    }
}

/// Calls `check` on every monotone chain `1 = c[0] <= c[1] <= … <=
/// c[len - 1] = bound`.
fn for_each_monotone_chain(len: usize, bound: u64, check: &mut impl FnMut(&[u64])) {
    fn fill(chain: &mut [u64], at: usize, bound: u64, check: &mut impl FnMut(&[u64])) {
        if at + 1 == chain.len() {
            return check(chain);
        }
        for v in chain[at - 1]..=bound {
            chain[at] = v;
            fill(chain, at + 1, bound, check);
        }
    }
    let mut chain = vec![1; len];
    chain[len - 1] = bound;
    fill(&mut chain, 1, bound, check);
}

/// Checks [`sequential_steps_with`] against [`brute_steps`] on every
/// monotone chain of a `levels`-level layout with each of `bounds`. One
/// scratch serves every chain, so a count left over from an earlier
/// chain would show up as a mismatch.
fn check_every_monotone_chain(levels: usize, bounds: impl IntoIterator<Item = u64>) {
    let layout = SlotLayout::new(levels);
    let mut scratch = ProfileScratch::new();
    for bound in bounds {
        for_each_monotone_chain(layout.num_slots() + 1, bound, &mut |chain| {
            let expected = brute_steps(chain, &layout, chain.len() - 1, bound);
            assert_eq!(
                sequential_steps_with(chain, &layout, &mut scratch),
                expected,
                "{chain:?}"
            );
        });
    }
}

/// Every 2-level chain (6 slots) up to bound 24, and all 2.6M chains of
/// bound 48.
#[test]
fn steps_match_brute_force_on_every_two_level_chain() {
    check_every_monotone_chain(2, (1..=24).chain([48]));
}

/// Every 3-level chain (9 slots) up to bound 12.
#[test]
fn steps_match_brute_force_on_every_three_level_chain() {
    check_every_monotone_chain(3, 1..=12);
}
