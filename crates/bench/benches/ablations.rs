//! Ablation benches for the design choices called out in DESIGN.md:
//! multicast / spatial reduction in the cost model, remainder placement
//! (the Ruby variants), and search-termination sensitivity.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use ruby_core::prelude::*;

/// Multicast on/off: evaluation cost must not change materially, while
/// the modeled DRAM traffic does (correctness asserted in unit tests).
fn ablation_multicast(c: &mut Criterion) {
    let arch = presets::eyeriss_like(14, 12);
    let shape = ProblemShape::conv("c", 1, 128, 64, 28, 28, 3, 3, (1, 1));
    let space = Mapspace::new(arch.clone(), shape.clone(), MapspaceKind::RubyS);
    let mut rng = SmallRng::seed_from_u64(2);
    let mapping = space.sample(&mut rng);
    let mut group = c.benchmark_group("ablation_multicast");
    for (name, opts) in [
        ("on", ModelOptions::default()),
        (
            "off",
            ModelOptions {
                multicast: false,
                spatial_reduction: false,
            },
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| evaluate(&arch, &shape, &mapping, &opts))
        });
    }
    group.finish();
}

/// Remainder placement: time-to-first-good-mapping per Ruby variant on a
/// misaligned problem (the practical cost of mapspace expansion).
fn ablation_remainder_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_remainder_placement");
    group.sample_size(10);
    for kind in MapspaceKind::ALL {
        let space = Mapspace::new(
            presets::toy_linear(16, 1024),
            ProblemShape::rank1("d", 113),
            kind,
        );
        let config = SearchConfig {
            max_evaluations: Some(2_000),
            termination: Some(300),
            ..SearchConfig::default()
        };
        group.bench_function(kind.name(), |b| {
            b.iter(|| Engine::new(&space).with_config(config.clone()).run())
        });
    }
    group.finish();
}

/// Termination-threshold sensitivity: how much longer the paper's 3000
/// costs over smaller thresholds.
fn ablation_termination(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_termination");
    group.sample_size(10);
    let space = Mapspace::new(
        presets::eyeriss_like(14, 12),
        ProblemShape::conv("c", 1, 256, 64, 28, 28, 1, 1, (1, 1)),
        MapspaceKind::RubyS,
    )
    .with_constraints(Constraints::eyeriss_row_stationary(3, 1));
    for termination in [100u64, 500, 1500] {
        let config = SearchConfig {
            max_evaluations: Some(50_000),
            termination: Some(termination),
            threads: 2,
            ..SearchConfig::default()
        };
        group.bench_function(termination.to_string(), |b| {
            b.iter(|| Engine::new(&space).with_config(config.clone()).run())
        });
    }
    group.finish();
}

/// NoC energy accounting on/off: explicit network-hop costing vs folding
/// wires into access energies (the default presets).
fn ablation_noc_energy(c: &mut Criterion) {
    let shape = ProblemShape::conv("c", 1, 64, 32, 14, 14, 3, 3, (1, 1));
    let base = presets::eyeriss_like(14, 12);
    // Rebuild the same hierarchy with a 2x-MAC inter-PE network charge.
    let tech = base.technology().clone();
    let levels: Vec<MemLevel> = base
        .levels()
        .iter()
        .map(|l| {
            if l.fanout().total() > 1 {
                l.clone().with_noc_energy(tech.noc_hop_energy())
            } else {
                l.clone()
            }
        })
        .collect();
    let noc_arch = Architecture::new("eyeriss_noc", levels, tech);
    let space = Mapspace::new(base.clone(), shape.clone(), MapspaceKind::RubyS);
    let mut rng = SmallRng::seed_from_u64(4);
    let mapping = space.sample(&mut rng);
    let opts = ModelOptions::default();
    let mut group = c.benchmark_group("ablation_noc_energy");
    for (name, arch) in [("folded", &base), ("explicit", &noc_arch)] {
        group.bench_function(name, |b| b.iter(|| evaluate(arch, &shape, &mapping, &opts)));
    }
    group.finish();
}

/// Search strategy: the permuted walk (`random`, the service's default)
/// vs the paper's rejection sampler at the same budget, on a misaligned
/// Eyeriss pointwise layer.
fn ablation_search_strategy(c: &mut Criterion) {
    let space = Mapspace::new(
        presets::eyeriss_like(14, 12),
        ProblemShape::conv("c", 1, 256, 64, 28, 28, 1, 1, (1, 1)),
        MapspaceKind::RubyS,
    )
    .with_constraints(Constraints::eyeriss_row_stationary(3, 1));
    let mut group = c.benchmark_group("ablation_search_strategy");
    group.sample_size(10);
    for (name, strategy) in [
        ("random_walk", SearchStrategy::Random),
        ("sampled", SearchStrategy::Sampled),
    ] {
        let config = SearchConfig {
            max_evaluations: Some(2_000),
            termination: Some(400),
            strategy,
            ..SearchConfig::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| Engine::new(&space).with_config(config.clone()).run())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ablation_multicast,
    ablation_remainder_placement,
    ablation_termination,
    ablation_noc_energy,
    ablation_search_strategy
);
criterion_main!(benches);
