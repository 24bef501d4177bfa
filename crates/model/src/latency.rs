//! Latency: compute cycles (with exact residual-iteration accounting)
//! bounded below by optional per-level bandwidth limits.

use ruby_arch::Architecture;

use crate::report::AccessCounts;

/// Execution cycles: the mapping's lockstep sequential-step count
/// `compute` (its [`ruby_mapping::Mapping::compute_cycles`], which
/// callers have already computed), max-ed with each bandwidth-limited
/// level's transfer time.
pub(crate) fn cycles(arch: &Architecture, compute: u64, accesses: &[[AccessCounts; 3]]) -> u64 {
    let mut worst = compute as f64;
    for (i, level) in arch.levels().iter().enumerate() {
        if let Some(bw) = level.bandwidth_words_per_cycle() {
            let words: f64 = accesses[i].iter().map(AccessCounts::total).sum();
            let per_instance = words / arch.instances(i) as f64;
            worst = worst.max(per_instance / bw);
        }
    }
    // lint: allow(cast) — f64→u64 `as` saturates rather than wrapping,
    // and `worst` is finite and >= compute >= 0 by construction, so the
    // ceiling is a genuine cycle count (never negative, never NaN).
    worst.ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruby_arch::{Architecture, Capacity, Fanout, MemLevel};
    use ruby_energy::TechnologyModel;
    use ruby_mapping::{Mapping, SlotKind};
    use ruby_workload::{Dim, DimMap};

    fn bounds_m(d: u64) -> DimMap<u64> {
        let mut b = DimMap::splat(1u64);
        b[Dim::M] = d;
        b
    }

    #[test]
    fn compute_bound_when_no_bandwidth_limits() {
        let tech = TechnologyModel::default();
        let arch = Architecture::new(
            "a",
            vec![
                MemLevel::new(
                    "DRAM",
                    Capacity::Unbounded,
                    [true; 3],
                    200.0,
                    Fanout::linear(4),
                ),
                MemLevel::new("S", Capacity::Shared(512), [true; 3], 1.0, Fanout::unit()),
            ],
            tech,
        );
        let mut b = Mapping::builder(2);
        b.set_tile(Dim::M, 0, SlotKind::SpatialX, 4);
        let m = b.build_for_bounds(&bounds_m(100)).unwrap();
        let acc = vec![[AccessCounts::default(); 3]; 2];
        assert_eq!(cycles(&arch, m.compute_cycles(), &acc), 25);
    }

    #[test]
    fn bandwidth_limit_dominates_when_slow() {
        let tech = TechnologyModel::default();
        let arch = Architecture::new(
            "a",
            vec![
                MemLevel::new(
                    "DRAM",
                    Capacity::Unbounded,
                    [true; 3],
                    200.0,
                    Fanout::linear(4),
                )
                .with_bandwidth(0.5),
                MemLevel::new("S", Capacity::Shared(512), [true; 3], 1.0, Fanout::unit()),
            ],
            tech,
        );
        let mut b = Mapping::builder(2);
        b.set_tile(Dim::M, 0, SlotKind::SpatialX, 4);
        let m = b.build_for_bounds(&bounds_m(100)).unwrap();
        let mut acc = vec![[AccessCounts::default(); 3]; 2];
        acc[0][0].reads = 100.0; // 100 words at 0.5 words/cycle = 200 cycles
        assert_eq!(cycles(&arch, m.compute_cycles(), &acc), 200);
    }
}
