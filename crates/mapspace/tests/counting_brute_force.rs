//! Brute-force cross-checks of the mapspace counting machinery: the
//! closed-form/DP counters must agree with naive enumeration on small
//! inputs, and the counted chain tables must decode exactly the chains
//! their listing holds.

use proptest::prelude::*;

use ruby_arch::presets;
use ruby_mapspace::{factor, EnumLimits, EnumTables, Mapspace, MapspaceKind};
use ruby_workload::{Dim, ProblemShape};

/// Naive ordered-factorization count by recursive enumeration.
fn brute_ordered(n: u64, k: usize) -> u128 {
    if k == 0 {
        return u128::from(n == 1);
    }
    let mut total = 0u128;
    for f in factor::divisors(n) {
        total += brute_ordered(n / f, k - 1);
    }
    total
}

/// Naive capped count.
fn brute_capped(n: u64, caps: &[Option<u64>]) -> u128 {
    match caps.split_first() {
        None => u128::from(n == 1),
        Some((cap, rest)) => factor::divisors(n)
            .into_iter()
            .filter(|&f| cap.is_none_or(|c| f <= c))
            .map(|f| brute_capped(n / f, rest))
            .sum(),
    }
}

/// Naive free-chain count.
fn brute_chains(n: u64, caps: &[Option<u64>]) -> u128 {
    fn recurse(cur: u64, n: u64, caps: &[Option<u64>]) -> u128 {
        match caps.split_first() {
            None => u128::from(cur == n),
            Some((cap, rest)) => {
                let hi = match cap {
                    Some(c) => (cur * c).min(n),
                    None => n,
                };
                (cur..=hi).map(|next| recurse(next, n, rest)).sum()
            }
        }
    }
    recurse(1, n, caps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ordered_factorizations_match_brute_force(n in 1u64..200, k in 0usize..4) {
        prop_assert_eq!(
            factor::count_ordered_factorizations(n, k),
            brute_ordered(n, k)
        );
    }

    #[test]
    fn capped_factorizations_match_brute_force(
        n in 1u64..150,
        cap0 in 1u64..10,
        cap1 in 1u64..20,
    ) {
        let caps = vec![Some(cap0), None, Some(cap1)];
        prop_assert_eq!(
            factor::count_capped_factorizations(n, &caps),
            brute_capped(n, &caps)
        );
    }

    #[test]
    fn free_chains_match_brute_force(n in 1u64..60, cap in 1u64..8) {
        let caps = vec![None, Some(cap), None];
        prop_assert_eq!(factor::count_free_chains(n, &caps), brute_chains(n, &caps));
    }

    #[test]
    fn divisors_multiply_and_divide(n in 1u64..5000) {
        let divs = factor::divisors(n);
        prop_assert!(divs.iter().all(|&d| n % d == 0));
        prop_assert!(divs.contains(&1) && divs.contains(&n));
        prop_assert!(divs.windows(2).all(|w| w[0] < w[1]));
        // Prime factorization reassembles n.
        let product: u64 = factor::factorize(n)
            .into_iter()
            .map(|(p, m)| p.pow(m))
            .product();
        prop_assert_eq!(product, n);
    }
}

/// Decodes every member of every group in walk order and checks it is a
/// bijection onto the group's listing: strictly ascending chains that
/// are exactly the listed ones, as many as the group's counted size.
fn check_walk_order(tables: &EnumTables, label: &str) {
    let mut chain = vec![0; tables.layout().num_slots() + 1];
    for dim in Dim::ALL {
        for (g, group) in tables.groups(dim).enumerate() {
            let walked: Vec<Vec<u64>> = (0..group.num_entries())
                .map(|k| {
                    group.walk_chain(k, &mut chain);
                    chain.clone()
                })
                .collect();
            let mut listed: Vec<Vec<u64>> = group.entries().map(|(c, _)| c.to_vec()).collect();
            listed.sort_unstable();
            assert!(
                walked.windows(2).all(|w| w[0] < w[1]),
                "{label} {dim:?} group {g}: not strictly ascending"
            );
            assert_eq!(walked, listed, "{label} {dim:?} group {g}");
        }
    }
}

/// Ruby and Ruby-T count their chains; decoding a group's members from
/// the counts must reproduce its listing at every bound up to 64, on a
/// 2-level and a 3-level layout.
#[test]
fn counted_groups_decode_their_listing() {
    let archs = [
        ("toy16", presets::toy_linear(16, 1024)),
        ("eyeriss", presets::eyeriss_like(14, 12)),
    ];
    for (arch_name, arch) in archs {
        for kind in [MapspaceKind::Ruby, MapspaceKind::RubyT] {
            for bound in 1..=64 {
                let space = Mapspace::new(arch.clone(), ProblemShape::rank1("d", bound), kind);
                let tables = EnumTables::build(&space, &EnumLimits::default())
                    .expect("small spaces tabulate");
                check_walk_order(&tables, &format!("{arch_name}/{kind}/{bound}"));
            }
        }
    }
}
