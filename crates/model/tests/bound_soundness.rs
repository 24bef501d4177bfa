//! Admissibility of the pruning bounds: over randomly constructed
//! mappings, the precomputed energy floors must never exceed the true
//! modeled energy of any mapping the model accepts, and the cheap
//! validity screen must agree exactly with the full evaluation. Over
//! walked mapspace leaves, the exact per-mapping cost floor the permuted
//! walk skips by must stay below every valid mapping's true cost under
//! each objective, within the rounding skew [`FLOOR_SLACK`] covers.

use proptest::prelude::*;

use ruby_arch::{presets, Architecture};
use ruby_mapping::{Mapping, SlotKind};
use ruby_mapspace::{Mapspace, MapspaceKind, PermutedIterator};
use ruby_model::{evaluate_with, EvalContext, ModelOptions, FLOOR_SLACK};
use ruby_search::Objective;
use ruby_workload::{Dim, ProblemShape};

/// Leaves walked per mapspace (all of them when the space is smaller).
const LEAVES: u64 = 2_048;

/// Largest relative excess of `objective.cost_floor(energy_floor,
/// compute_cycles)` over the true cost among the first [`LEAVES`]
/// Feistel-shuffled leaves of every kind of `(arch, shape)`'s space,
/// asserting each valid mapping's floor within 1e-9 relative.
fn max_floor_skew(arch: &Architecture, shape: &ProblemShape) -> f64 {
    let mut worst = f64::NEG_INFINITY;
    let mut valid = 0u64;
    for kind in [MapspaceKind::Pfm, MapspaceKind::RubyS, MapspaceKind::Ruby] {
        let space = Mapspace::new(arch.clone(), shape.clone(), kind);
        let ctx = EvalContext::new(arch, shape, ModelOptions::default());
        let tables = space
            .enum_tables()
            .unwrap_or_else(|| panic!("{kind:?} {} does not tabulate", shape.name()));
        let total = tables.exact_total_leaves().expect("index space fits u64");
        let mut walk = PermutedIterator::new(tables, 3, 0, total.min(LEAVES)).expect("walkable");
        let mut mapping = Mapping::builder(arch.num_levels())
            .build_for_bounds(shape.bounds())
            .expect("default mapping");
        while walk.next_into(&mut mapping).is_some() {
            let Ok(report) = evaluate_with(&ctx, &mapping) else {
                continue;
            };
            valid += 1;
            let steps = mapping.compute_cycles();
            for objective in [Objective::Edp, Objective::Energy, Objective::Delay] {
                let floor = objective.cost_floor(ctx.energy_floor(), steps);
                let cost = objective.cost(&report);
                assert!(
                    floor <= cost * (1.0 + 1e-9),
                    "{kind:?} {objective}: floor {floor} exceeds cost {cost} of {mapping:?}"
                );
                worst = worst.max(floor / cost - 1.0);
            }
        }
    }
    assert!(valid > 0, "no valid leaf walked for {}", shape.name());
    worst
}

#[test]
fn exact_cost_floor_holds_on_walked_leaves() {
    let cases = [
        (presets::toy_linear(16, 1024), ProblemShape::rank1("d", 113)),
        (
            presets::eyeriss_like(14, 12),
            ProblemShape::conv("l", 1, 32, 16, 14, 14, 3, 3, (1, 1)),
        ),
        (
            presets::simba_like(15, 4, 4),
            ProblemShape::conv("s", 1, 32, 8, 8, 8, 3, 3, (1, 1)),
        ),
        (
            presets::clustered(4, 16),
            ProblemShape::conv("k", 1, 16, 8, 14, 14, 1, 1, (1, 1)),
        ),
    ];
    let worst = cases
        .iter()
        .map(|(arch, shape)| max_floor_skew(arch, shape))
        .fold(f64::NEG_INFINITY, f64::max);
    // The bound-before-cost skip trusts a floor only past FLOOR_SLACK;
    // that headroom must cover every skew observed here.
    assert!(
        worst <= FLOOR_SLACK,
        "floor skew {worst} exceeds FLOOR_SLACK {FLOOR_SLACK}"
    );
}

/// The mapping's utilized spatial fanout per level: the product of its
/// spatial loop counts, the exact subset signature
/// [`EvalContext::energy_floor_for_spatial`] specializes to.
fn utilized(mapping: &Mapping, num_levels: usize) -> Vec<u64> {
    (0..num_levels)
        .map(|l| {
            let (x, y) = mapping.spatial_extent(l);
            x * y
        })
        .collect()
}

/// Checks both floors against one mapping, and the screen against the
/// evaluator. Returns whether the mapping was valid.
fn check(ctx: &EvalContext, mapping: &Mapping, num_levels: usize) -> Result<(), String> {
    let screened = ctx.precheck(mapping);
    match evaluate_with(ctx, mapping) {
        Ok(report) => {
            prop_assert!(
                screened.is_ok(),
                "precheck rejected a mapping the model accepts"
            );
            // The floor and the evaluator sum the same terms in
            // different orders; tolerate last-ulp rounding skew.
            let limit = report.energy() * (1.0 + 1e-9);
            prop_assert!(
                ctx.energy_floor() <= limit,
                "global floor {} exceeds energy {}",
                ctx.energy_floor(),
                report.energy()
            );
            let subset = ctx.energy_floor_for_spatial(&utilized(mapping, num_levels));
            prop_assert!(
                subset <= limit,
                "subset floor {subset} exceeds energy {}",
                report.energy()
            );
            // The exact-signature floor can only tighten the global one.
            prop_assert!(subset >= ctx.energy_floor());
        }
        Err(why) => {
            prop_assert!(
                screened.is_err(),
                "precheck accepted a mapping the model rejects: {why}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Linear hierarchy, single dimension: spatial/temporal splits at
    /// every slot, including infeasible ones (which must screen out).
    #[test]
    fn floors_hold_on_toy_linear(
        d in 2u64..300,
        sx in 1u64..12,
        t0 in 1u64..20,
        t1 in 1u64..20,
    ) {
        let arch = presets::toy_linear(8, 256);
        let shape = ProblemShape::rank1("d", d);
        let ctx = EvalContext::new(&arch, &shape, ModelOptions::default());
        let mut b = Mapping::builder(2);
        b.set_tile(Dim::M, 0, SlotKind::SpatialX, sx);
        b.set_tile(Dim::M, 0, SlotKind::Temporal, t0);
        b.set_tile(Dim::M, 1, SlotKind::Temporal, t1);
        let mapping = b.build_for_bounds(shape.bounds()).unwrap();
        check(&ctx, &mapping, 2)?;
    }

    /// Eyeriss-like grid, conv workload: multi-dim tiles with spatial
    /// splits across both axes of the PE array.
    #[test]
    fn floors_hold_on_eyeriss_conv(
        m in 1u64..32,
        c in 1u64..16,
        q in 1u64..14,
        sx in 1u64..14,
        sy in 1u64..12,
    ) {
        let arch = presets::eyeriss_like(14, 12);
        let shape = ProblemShape::conv("l", 1, 32, 16, 14, 14, 3, 3, (1, 1));
        let ctx = EvalContext::new(&arch, &shape, ModelOptions::default());
        let mut b = Mapping::builder(3);
        b.set_tile(Dim::C, 1, SlotKind::SpatialX, sx);
        b.set_tile(Dim::M, 1, SlotKind::SpatialY, sy);
        b.set_tile(Dim::M, 2, SlotKind::Temporal, m);
        b.set_tile(Dim::C, 2, SlotKind::Temporal, c);
        b.set_tile(Dim::Q, 1, SlotKind::Temporal, q);
        b.set_tile(Dim::R, 2, SlotKind::Temporal, 3);
        let mapping = b.build_for_bounds(shape.bounds()).unwrap();
        check(&ctx, &mapping, 3)?;
    }
}
