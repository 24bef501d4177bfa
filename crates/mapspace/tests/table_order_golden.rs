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

use ruby_arch::presets;
use ruby_mapspace::{Constraints, EnumLimits, EnumTables, Mapspace, MapspaceKind};
use ruby_workload::{Dim, ProblemShape};

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
