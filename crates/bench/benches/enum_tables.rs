//! Criterion micro-benchmarks of `EnumTables::build`, the tabulation a
//! cold query pays before its search can start: per mapspace kind on
//! Eyeriss 14×12, swept over square GEMM bounds so the cost's growth
//! with space size is visible (every point tabulates within the default
//! limits).
//!
//! `cargo bench -p ruby-bench --bench enum_tables`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ruby_core::mapspace::{EnumLimits, EnumTables};
use ruby_core::prelude::*;

const BOUNDS: [u64; 4] = [64, 256, 1024, 2560];

fn bench_build(c: &mut Criterion) {
    let arch = presets::eyeriss_like(14, 12);
    let limits = EnumLimits::default();
    for kind in MapspaceKind::ALL {
        let mut group = c.benchmark_group(&format!("enum_tables/{}", kind.name()));
        group.sample_size(5);
        for bound in BOUNDS {
            let shape = ProblemShape::gemm("g", bound, bound, bound);
            let space = Mapspace::new(arch.clone(), shape, kind);
            group.bench_with_input(BenchmarkId::from_parameter(bound), &space, |b, space| {
                b.iter(|| EnumTables::build(space, &limits).map(|t| t.regions().len()))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
