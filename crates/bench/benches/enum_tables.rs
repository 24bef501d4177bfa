//! Criterion micro-benchmarks of `EnumTables`, the tabulation a cold
//! query pays before its search can start: per mapspace kind on Eyeriss
//! 14×12, swept over square GEMM bounds so the cost's growth with space
//! size is visible (every point tabulates within the default limits).
//! Three rows per point: `build` is what the permuted walk pays (the
//! tables it decodes from plus region counts; Ruby and Ruby-T count
//! their chains instead of listing them), `build+regions` what
//! exhaustive and hybrid search pay (the region list, listed and
//! sorted, which forces every counted table's listing too), and
//! `decode` the walk's per-candidate cost: [`DECODES`] Feistel-shuffled
//! leaves, shuffled and decoded the way the walk does, in
//! `EnumTables::leaves_into` calls of [`BATCH`] leaves.
//!
//! Every iteration does at least about a millisecond of work, and every
//! row reports the median of [`SAMPLES`] samples: on a shared host the
//! best of a few samples swung by 1-70% between runs. The reported
//! times are per iteration, not per unit: divide `build` and
//! `build+regions` rows by [`BUILDS`] and `decode` rows by [`DECODES`].
//!
//! `cargo bench -p ruby-bench --bench enum_tables`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ruby_core::mapspace::{EnumLimits, EnumTables, FeistelPermutation};
use ruby_core::model::BATCH;
use ruby_core::prelude::*;

const BOUNDS: [u64; 4] = [64, 256, 1024, 2560];

/// Samples per row.
const SAMPLES: usize = 15;

/// Table builds per `build` / `build+regions` iteration.
const BUILDS: usize = 32;

/// Leaves decoded per `decode` iteration; spaces with fewer leaves wrap
/// around the permutation.
const DECODES: u64 = 16_384;

fn bench_build(c: &mut Criterion) {
    let arch = presets::eyeriss_like(14, 12);
    let limits = EnumLimits::default();
    for kind in MapspaceKind::ALL {
        let mut group = c.benchmark_group(&format!("enum_tables/{}", kind.name()));
        group.sample_size(SAMPLES);
        for bound in BOUNDS {
            let shape = ProblemShape::gemm("g", bound, bound, bound);
            let space = Mapspace::new(arch.clone(), shape, kind);
            group.bench_with_input(BenchmarkId::new("build", bound), &space, |b, space| {
                b.iter(|| {
                    (0..BUILDS)
                        .map(|_| EnumTables::build(space, &limits).map(|t| t.region_count()))
                        .last()
                })
            });
            group.bench_with_input(
                BenchmarkId::new("build+regions", bound),
                &space,
                |b, space| {
                    b.iter(|| {
                        (0..BUILDS)
                            .map(|_| EnumTables::build(space, &limits).map(|t| t.regions().len()))
                            .last()
                    })
                },
            );
            let Ok(tables) = EnumTables::build(&space, &limits) else {
                continue;
            };
            let Some(total) = tables.exact_total_leaves() else {
                continue;
            };
            let perm = FeistelPermutation::new(total, 1);
            let mapping = Mapping::builder(arch.num_levels())
                .build_for_bounds(space.shape().bounds())
                .expect("default mapping");
            let mut lanes = vec![mapping; BATCH];
            let (mut leaves, mut steps) = ([0u64; BATCH], [0u64; BATCH]);
            group.bench_function(BenchmarkId::new("decode", bound), |b| {
                b.iter(|| {
                    for first in (0..DECODES).step_by(BATCH) {
                        for (lane, leaf) in leaves.iter_mut().enumerate() {
                            *leaf = perm.shuffle((first + lane as u64) % total);
                        }
                        tables.leaves_into(&leaves, &mut lanes, &mut steps);
                    }
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
