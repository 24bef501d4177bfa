//! Golden enumeration order. Set equality with the sampler
//! (`enumeration_matches_sampler.rs`) does not pin the *order* of the
//! tables and regions, yet that order is what makes region-indexed
//! search answers reproducible. This test folds every table and region,
//! in order, into a stable FNV-1a digest and compares it with values
//! recorded from a known-good build:
//!
//! * per dimension, every signature group's `counts` and `min_steps`,
//!   then each entry's chain and sequential steps;
//! * every region's group tuple, leaf count and cycle floor.
//!
//! A change that reorders, drops or adds anything changes the digest.
//! Re-record only for an intended order change, with
//! `cargo test -p ruby-mapspace --test table_order_golden -- --nocapture`.
//!
//! The permuted walk's order — global leaf indices decoded through the
//! region counts, in group-tuple order — is checked on the same spaces
//! against the listed regions directly. Ruby and Ruby-T groups are
//! counted and walk their members in ascending chain order rather than
//! table order, so those spaces also pin the walk with a digest
//! (`WALK_ORDER_GOLDEN`, printed by the same command).
//!
//! The walk decodes a batch of leaves side by side
//! (`EnumTables::leaves_into`) and relies on two facts the tables hold:
//! every decoded lane equals its one-leaf decode with the steps the
//! listing stores, and every walked leaf fits every level's fanout, so
//! the walk screens no fanout. Both are checked here, the second also
//! on the spaces of the benchmark's cold-query sweep.

use std::collections::{BTreeSet, HashSet};

use ruby_arch::presets;
use ruby_mapping::Mapping;
use ruby_mapspace::enumerate::DECODE_LANES;
use ruby_mapspace::{
    Constraints, EnumLimits, EnumTables, FeistelPermutation, Mapspace, MapspaceKind,
    PermutedIterator, SubspaceIterator,
};
use ruby_model::{EvalContext, InvalidMapping, ModelOptions};
use ruby_workload::{suites, Dim, ProblemShape};

/// 64-bit FNV-1a over little-endian words: stable across platforms,
/// toolchains and runs (unlike `DefaultHasher`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, values: &[u64]) {
        self.word(values.len() as u64);
        for &v in values {
            self.word(v);
        }
    }
}

/// `(total groups, total entries, regions, digest)` of one space.
fn fingerprint(space: &Mapspace) -> (usize, usize, usize, u64) {
    let tables = EnumTables::build(space, &EnumLimits::default()).expect("golden spaces tabulate");
    let mut h = Fnv::new();
    let (mut groups, mut entries) = (0, 0);
    for dim in Dim::ALL {
        let dim_groups = tables.groups(dim);
        h.word(dim_groups.len() as u64);
        for group in dim_groups {
            groups += 1;
            h.words(group.counts());
            h.word(group.min_steps());
            let members = group.entries();
            h.word(members.len() as u64);
            for (chain, steps) in members {
                entries += 1;
                h.words(chain);
                h.word(steps);
            }
        }
    }
    h.word(tables.regions().len() as u64);
    for region in tables.regions() {
        for dim in Dim::ALL {
            h.word(region.group(dim) as u64);
        }
        h.word(region.leaves);
        h.word(region.min_steps);
    }
    (groups, entries, tables.regions().len(), h.0)
}

fn conv(name: &str, m: u64, c: u64, p: u64, r: u64) -> ProblemShape {
    ProblemShape::conv(name, 1, m, c, p, p, r, r, (1, 1))
}

/// The golden spaces: every mapspace kind, the three architecture
/// families, and one exclusive row-stationary constraint set.
fn spaces() -> Vec<(&'static str, Mapspace)> {
    let eyeriss = || presets::eyeriss_like(14, 12);
    let simba = || presets::simba_like(15, 4, 4);
    vec![
        (
            "toy16/pfm/rank1:96",
            Mapspace::new(
                presets::toy_linear(16, 1024),
                ProblemShape::rank1("d", 96),
                MapspaceKind::Pfm,
            ),
        ),
        (
            "toy16/ruby/rank1:113",
            Mapspace::new(
                presets::toy_linear(16, 1024),
                ProblemShape::rank1("d", 113),
                MapspaceKind::Ruby,
            ),
        ),
        (
            "toy9/ruby-s/gemm:60x50x7",
            Mapspace::new(
                presets::toy_linear(9, 1024),
                ProblemShape::gemm("g", 60, 50, 7),
                MapspaceKind::RubyS,
            ),
        ),
        (
            "eyeriss/pfm/conv:16x8x14x3",
            Mapspace::new(eyeriss(), conv("c", 16, 8, 14, 3), MapspaceKind::Pfm),
        ),
        (
            "eyeriss/ruby-s/conv:64x32x14x3",
            Mapspace::new(eyeriss(), conv("c", 64, 32, 14, 3), MapspaceKind::RubyS),
        ),
        (
            "eyeriss/ruby-t/gemm:48x40x20",
            Mapspace::new(
                eyeriss(),
                ProblemShape::gemm("g", 48, 40, 20),
                MapspaceKind::RubyT,
            ),
        ),
        (
            "simba/ruby/gemm:40x24x18",
            Mapspace::new(
                simba(),
                ProblemShape::gemm("g", 40, 24, 18),
                MapspaceKind::Ruby,
            ),
        ),
        (
            "eyeriss-rs/ruby-s/conv:16x6x7x3",
            Mapspace::new(eyeriss(), conv("c", 16, 6, 7, 3), MapspaceKind::RubyS)
                .with_constraints(Constraints::eyeriss_row_stationary(3, 1)),
        ),
    ]
}

/// `(name, total groups, total entries, regions, digest)`.
const GOLDEN: [(&str, usize, usize, usize, u64); 8] = [
    ("toy16/pfm/rank1:96", 14, 61, 8, 0x13c435f9c674d6e8),
    ("toy16/ruby/rank1:113", 22, 487, 16, 0x1a7e41f79679eac5),
    ("toy9/ruby-s/gemm:60x50x7", 29, 95, 42, 0xc5655be563d75b10),
    (
        "eyeriss/pfm/conv:16x8x14x3",
        46,
        162,
        2296,
        0x7695b0738edfa564,
    ),
    (
        "eyeriss/ruby-s/conv:64x32x14x3",
        317,
        1143,
        69017,
        0x40dfeec7e645045c,
    ),
    (
        "eyeriss/ruby-t/gemm:48x40x20",
        96,
        2029,
        1325,
        0xb83a072fd0bdee4b,
    ),
    (
        "simba/ruby/gemm:40x24x18",
        254,
        2138,
        8463,
        0x5743e53a19c82159,
    ),
    (
        "eyeriss-rs/ruby-s/conv:16x6x7x3",
        72,
        226,
        284,
        0x7fbed60b50b459fb,
    ),
];

#[test]
fn tables_and_regions_keep_their_golden_order() {
    let spaces = spaces();
    assert_eq!(spaces.len(), GOLDEN.len());
    let mut mismatches = Vec::new();
    for ((name, space), golden) in spaces.iter().zip(GOLDEN) {
        let (groups, entries, regions, digest) = fingerprint(space);
        let actual = (*name, groups, entries, regions, digest);
        println!("    ({name:?}, {groups}, {entries}, {regions}, {digest:#018x}),");
        if actual != golden {
            mismatches.push(format!("{actual:?} != golden {golden:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Golden spaces up to this many leaves have every global index
/// decoded; larger ones (up to ~2e9 leaves) every region's first,
/// middle and last leaf, which still crosses every arc boundary.
const DECODE_EVERY_LEAF: u64 = 1 << 16;

/// Walk-order digests of the counted golden spaces (Ruby and Ruby-T),
/// recorded like [`GOLDEN`]: the decoded chains of every leaf
/// `global_leaves_follow_group_tuple_order` visits, in visiting order.
const WALK_ORDER_GOLDEN: [(&str, u64); 3] = [
    ("toy16/ruby/rank1:113", 0xfac8f508ff4e1021),
    ("eyeriss/ruby-t/gemm:48x40x20", 0xbfe37376be0a496d),
    ("simba/ruby/gemm:40x24x18", 0xc30357cbde378199),
];

/// The permuted walk's global leaf index, decoded through the region
/// counts, runs over the regions in group-tuple order, each region's
/// leaves contiguous and in `SubspaceIterator`'s mixed-radix order over
/// the groups' members in walk order. That is table order for PFM and
/// Ruby-S, so their leaves must equal the listed ones exactly. Ruby and
/// Ruby-T walk a counted group in ascending chain order: each decoded
/// chain must belong to the region's group, each fully decoded region
/// must hold the same mappings as the listed one, and a digest pins the
/// order.
#[test]
fn global_leaves_follow_group_tuple_order() {
    let mut digests = Vec::new();
    for (name, space) in spaces() {
        let tables =
            EnumTables::build(&space, &EnumLimits::default()).expect("golden spaces tabulate");
        let total = tables.exact_total_leaves().expect("golden spaces fit u64");
        let counted = matches!(space.kind(), MapspaceKind::Ruby | MapspaceKind::RubyT);
        let members: Vec<Vec<HashSet<&[u64]>>> = Dim::ALL
            .iter()
            .map(|&dim| {
                let groups = tables.groups(dim);
                groups
                    .map(|g| g.entries().map(|(chain, _)| chain).collect())
                    .collect()
            })
            .collect();
        let mut emitted = tables.regions().to_vec();
        emitted.sort_by_key(|r| Dim::ALL.map(|d| r.group(d)));
        let mut expected = Mapping::builder(space.arch().num_levels())
            .build_for_bounds(space.shape().bounds())
            .expect("default mapping");
        let mut decoded = expected.clone();
        let chains = |m: &Mapping| Dim::ALL.map(|d| m.tile_chain(d).to_vec());
        let mut h = Fnv::new();
        let mut first = 0u64;
        for region in &emitted {
            let every = total <= DECODE_EVERY_LEAF;
            let leaves: Vec<u64> = if every {
                (0..region.leaves).collect()
            } else {
                vec![0, region.leaves / 2, region.leaves - 1]
            };
            let (mut listed, mut walked) = (BTreeSet::new(), BTreeSet::new());
            for leaf in leaves {
                SubspaceIterator::new(&tables, region, leaf, leaf + 1).next_into(&mut expected);
                let index = first + leaf;
                tables.leaf_into(index, &mut decoded);
                if !counted {
                    assert_eq!(decoded, expected, "{name}: mapping of leaf {index}");
                    continue;
                }
                for (di, dim) in Dim::ALL.into_iter().enumerate() {
                    let chain = decoded.tile_chain(dim);
                    h.words(chain);
                    assert!(
                        members[di][region.group(dim)].contains(chain),
                        "{name}: leaf {index} left its region's {dim:?} group"
                    );
                }
                listed.insert(chains(&expected));
                walked.insert(chains(&decoded));
            }
            if counted && every {
                assert_eq!(walked, listed, "{name}: region {:?}", region);
            }
            first += region.leaves;
        }
        assert_eq!(first, total, "{name}: leaf total");
        if counted {
            println!("    ({name:?}, {:#018x}),", h.0);
            digests.push((name, h.0));
        }
    }
    assert_eq!(digests, WALK_ORDER_GOLDEN);
}

/// Every golden group, decoded member by member in walk order, is a
/// bijection onto its listing: strictly ascending chains for the counted
/// kinds (table order for the others), the listed chains as a set, and
/// as many as the group's size. `counting_brute_force.rs` sweeps small
/// bounds the same way.
#[test]
fn golden_groups_walk_their_listing() {
    for (name, space) in spaces() {
        let tables =
            EnumTables::build(&space, &EnumLimits::default()).expect("golden spaces tabulate");
        let counted = matches!(space.kind(), MapspaceKind::Ruby | MapspaceKind::RubyT);
        let mut chain = vec![0; tables.layout().num_slots() + 1];
        for dim in Dim::ALL {
            for (g, group) in tables.groups(dim).enumerate() {
                let walked: Vec<Vec<u64>> = (0..group.num_entries())
                    .map(|k| {
                        group.walk_chain(k, &mut chain);
                        chain.clone()
                    })
                    .collect();
                let listed: Vec<Vec<u64>> = group.entries().map(|(c, _)| c.to_vec()).collect();
                if counted {
                    assert!(walked.windows(2).all(|w| w[0] < w[1]), "{name} {dim:?} {g}");
                    let mut sorted = listed;
                    sorted.sort_unstable();
                    assert_eq!(walked, sorted, "{name} {dim:?} group {g}");
                } else {
                    assert_eq!(walked, listed, "{name} {dim:?} group {g}");
                }
            }
        }
    }
}

/// The root's counts agree with the listed regions.
#[test]
fn counts_match_the_region_list() {
    for (name, space) in spaces() {
        let tables =
            EnumTables::build(&space, &EnumLimits::default()).expect("golden spaces tabulate");
        let leaves: u64 = tables.regions().iter().map(|r| r.leaves).sum();
        assert_eq!(tables.exact_total_leaves(), Some(leaves), "{name}");
        assert_eq!(tables.total_leaves(), leaves, "{name}");
        assert_eq!(tables.region_count(), tables.regions().len(), "{name}");
    }
}

/// Every region's leaf count fits `u64` but their sum does not: the
/// space has no exact total, so the permuted walk refuses it.
#[test]
fn overflowing_leaf_sum_has_no_exact_total() {
    let space = Mapspace::new(
        presets::toy_glb(1 << 20, 2, 2),
        ProblemShape::conv("c", 90, 90, 90, 90, 90, 90, 90, (1, 1)),
        MapspaceKind::Ruby,
    );
    let tables = EnumTables::build(&space, &EnumLimits::default()).expect("space tabulates");
    let regions = tables.regions();
    assert!(regions.iter().all(|r| r.leaves < u64::MAX));
    let sum: u128 = regions.iter().map(|r| u128::from(r.leaves)).sum();
    assert!(sum > u128::from(u64::MAX), "sum {sum} fits u64");
    assert_eq!(tables.exact_total_leaves(), None);
    assert_eq!(tables.total_leaves(), u64::MAX);
    assert!(PermutedIterator::new(&tables, 1, 0, 0).is_none());
}

/// A space's default mapping, for decoders to overwrite.
fn blank(space: &Mapspace) -> Mapping {
    Mapping::builder(space.arch().num_levels())
        .build_for_bounds(space.shape().bounds())
        .expect("default mapping")
}

/// Positions `0..limit` of the seed-`seed` permuted walk over `tables`,
/// as global leaf indices.
fn walked(tables: &EnumTables, seed: u64, limit: u64) -> Vec<u64> {
    let total = tables.exact_total_leaves().expect("space fits u64");
    let perm = FeistelPermutation::new(total, seed);
    (0..total.min(limit)).map(|i| perm.shuffle(i)).collect()
}

/// Decodes `indices` with `leaves_into` in calls of one lane, of part of
/// a chunk, of exactly [`DECODE_LANES`] and of more than that, returning
/// each lane's mapping and, when the tables list their chains, the step
/// count the decoder read from them.
fn decode_batched(
    tables: &EnumTables,
    space: &Mapspace,
    indices: &[u64],
) -> Vec<(Mapping, Option<u64>)> {
    let widest = 2 * DECODE_LANES + 22;
    let mut out = vec![blank(space); widest];
    let mut steps = vec![0; widest];
    let mut decoded = Vec::with_capacity(indices.len());
    let sizes = [1, 37, DECODE_LANES, widest].into_iter().cycle();
    let mut at = 0;
    for size in sizes {
        if at == indices.len() {
            break;
        }
        let n = size.min(indices.len() - at);
        let listed = tables.leaves_into(&indices[at..at + n], &mut out[..n], &mut steps[..n]);
        let counted = matches!(space.kind(), MapspaceKind::Ruby | MapspaceKind::RubyT);
        assert_eq!(
            listed,
            !counted,
            "{}: listed tables hand over steps",
            space.kind()
        );
        for lane in 0..n {
            decoded.push((out[lane].clone(), listed.then_some(steps[lane])));
        }
        at += n;
    }
    decoded
}

/// The batch decoder writes exactly what the one-leaf decode (pinned by
/// `global_leaves_follow_group_tuple_order`) and, for listed tables,
/// `SubspaceIterator` write for the same leaves, in any batch shape, and
/// a listed table's steps are the SubspaceIterator's steps and the
/// mapping's `compute_cycles`.
#[test]
fn batched_decode_matches_single_leaf_decode() {
    for (name, space) in spaces() {
        let tables =
            EnumTables::build(&space, &EnumLimits::default()).expect("golden spaces tabulate");
        let mut regions = tables.regions().to_vec();
        regions.sort_by_key(|r| Dim::ALL.map(|d| r.group(d)));
        let starts: Vec<u64> = regions
            .iter()
            .scan(0, |first, r| {
                let start = *first;
                *first += r.leaves;
                Some(start)
            })
            .collect();
        let indices = walked(&tables, 3, 4_096);
        let decoded = decode_batched(&tables, &space, &indices);
        let (mut single, mut listed) = (blank(&space), blank(&space));
        for (&index, (mapping, steps)) in indices.iter().zip(&decoded) {
            tables.leaf_into(index, &mut single);
            assert_eq!(*mapping, single, "{name}: leaf {index}");
            let Some(steps) = *steps else {
                continue;
            };
            let r = starts.partition_point(|&s| s <= index) - 1;
            let leaf = index - starts[r];
            let expected =
                SubspaceIterator::new(&tables, &regions[r], leaf, leaf + 1).next_into(&mut listed);
            assert_eq!(*mapping, listed, "{name}: leaf {index} vs its region");
            assert_eq!(Some(steps), expected, "{name}: steps of leaf {index}");
            assert_eq!(
                steps,
                mapping.compute_cycles(),
                "{name}: steps of leaf {index}"
            );
        }
    }
}

/// Fails unless every mapping passes the model's fanout wall (the first
/// one `precheck` runs, so any fanout violation is the one reported).
fn assert_fanout_feasible(name: &str, space: &Mapspace, decoded: &[(Mapping, Option<u64>)]) {
    let ctx = EvalContext::new(space.arch(), space.shape(), ModelOptions::default());
    for (mapping, _) in decoded {
        if let Err(err @ InvalidMapping::FanoutExceeded { .. }) = ctx.precheck(mapping) {
            panic!("{name}: walked leaf {mapping:?} fails {err}");
        }
    }
}

/// Regions are fanout-feasible by construction: every leaf a walk
/// decodes fits every level's fanout.
#[test]
fn walked_leaves_fit_every_fanout() {
    for (name, space) in spaces() {
        let tables =
            EnumTables::build(&space, &EnumLimits::default()).expect("golden spaces tabulate");
        let decoded = decode_batched(&tables, &space, &walked(&tables, 1, 4_096));
        assert_fanout_feasible(name, &space, &decoded);
    }
}

/// The same on the cold-query sweep's spaces: every ResNet-50 and
/// DeepBench layer × {PFM, Ruby-S, Ruby} × {Eyeriss 14×12, Simba 15,4,4}
/// that tabulates, over the first 3,000 positions of its walk.
#[test]
fn cold_sweep_walks_fit_every_fanout() {
    let mut shapes: Vec<ProblemShape> = suites::resnet50().iter().cloned().collect();
    shapes.extend(suites::deepbench().iter().cloned());
    let mut walks = 0;
    for arch in [presets::eyeriss_like(14, 12), presets::simba_like(15, 4, 4)] {
        for shape in &shapes {
            for kind in [MapspaceKind::Pfm, MapspaceKind::RubyS, MapspaceKind::Ruby] {
                let space = Mapspace::new(arch.clone(), shape.clone(), kind);
                let Ok(tables) = EnumTables::build(&space, &EnumLimits::default()) else {
                    continue;
                };
                if tables.exact_total_leaves().is_none() {
                    continue;
                }
                let decoded = decode_batched(&tables, &space, &walked(&tables, 1, 3_000));
                assert_fanout_feasible(shape.name(), &space, &decoded);
                walks += 1;
            }
        }
    }
    assert!(walks > 200, "{walks} spaces walked");
}
