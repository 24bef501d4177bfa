//! Differential proof that batched evaluation is bit-identical to the
//! scalar path.
//!
//! For every architecture preset, >10k sampled mappings (the same
//! generate-then-filter distribution the random search sees, with every
//! fourth one pushed past a spatial fanout, since the sampler splits
//! each fanout sequentially and never exceeds it; so the mix includes
//! fanout-invalid, capacity-invalid and valid candidates) are pushed
//! through [`BatchEvalContext::evaluate`] in full batches and
//! compared lane-by-lane against scalar [`evaluate_with`]: identical
//! `Ok`/`Err` verdicts, identical first-failure errors, and bitwise
//! identical `CostReport`s. Valid lanes additionally check the lean
//! [`summarize_with`] / [`BatchEvalContext::summary`] path against the
//! full report field-by-field (`f64::to_bits` equality).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ruby_arch::{presets, Architecture};
use ruby_mapping::Mapping;
use ruby_mapspace::{Mapspace, MapspaceKind};
use ruby_model::{
    evaluate_with, summarize_with, BatchEvalContext, BatchVerdict, EvalContext, InvalidMapping,
    ModelOptions,
};
use ruby_workload::{Dim, DimMap, ProblemShape};

const SAMPLES: usize = 10_016; // > 10k, a whole number of 64-lane batches

/// Gives one spatial-X slot `fanout + 1` iterations, starting the search
/// for an overflowable level at `level`: the dimension's inner factors
/// become 1 and its outer tiles grow to at least the new one, so the
/// chain stays well-formed.
fn overflow_fanout(mapping: &mut Mapping, arch: &Architecture, bounds: &DimMap<u64>, level: usize) {
    let levels = arch.num_levels();
    for level in (level..level + levels).map(|l| l % levels) {
        let fan = arch.level(level).fanout().x();
        let Some(dim) = Dim::ALL.into_iter().find(|&d| bounds[d] > fan) else {
            continue;
        };
        let slot = mapping.layout().spatial_x_slot(level).index();
        let chain = mapping.tile_chain_mut(dim);
        chain[..=slot].fill(1);
        for tile in &mut chain[slot + 1..] {
            *tile = (*tile).max(fan + 1);
        }
        chain[slot + 1] = fan + 1;
        return;
    }
    panic!("no dimension can overflow any fanout");
}

fn differential(space: &Mapspace, seed: u64) {
    let ctx = EvalContext::new(space.arch(), space.shape(), ModelOptions::default());
    let mut batch = BatchEvalContext::new(&ctx);
    let mut sampler = space.sampler();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut scalar = Vec::new();
    let mut done = 0usize;
    let mut fanout_rejects = 0usize;
    while done < SAMPLES {
        batch.clear();
        scalar.clear();
        while !batch.is_full() && done + batch.len() < SAMPLES {
            let drawn = done + batch.len();
            sampler.sample_into(batch.slot(), &mut rng);
            if drawn % 4 == 3 {
                overflow_fanout(
                    batch.slot(),
                    space.arch(),
                    space.shape().bounds(),
                    drawn / 4,
                );
            }
            scalar.push(evaluate_with(&ctx, batch.slot()));
            batch.commit();
        }
        let lanes = batch.len();
        let batched = batch.evaluate();
        assert_eq!(batched.len(), lanes);
        for lane in 0..lanes {
            // PartialEq on CostReport compares every f64 directly; for
            // bit-level identity compare the serialized quantities too.
            assert_eq!(batched[lane], scalar[lane], "lane {}", done + lane);
            if let (Ok(b), Ok(s)) = (&batched[lane], &scalar[lane]) {
                assert_eq!(b.energy().to_bits(), s.energy().to_bits());
                assert_eq!(b.utilization().to_bits(), s.utilization().to_bits());
                assert_eq!(b.edp().to_bits(), s.edp().to_bits());
                // The lean summary path must agree with the full report
                // bit-for-bit as well.
                let summary = batch.summary(lane, batch.mapping(lane).compute_cycles());
                assert_eq!(summary.macs(), s.macs());
                assert_eq!(summary.cycles(), s.cycles());
                assert_eq!(summary.energy().to_bits(), s.energy().to_bits());
                assert_eq!(summary.utilization().to_bits(), s.utilization().to_bits());
                assert_eq!(summary.edp().to_bits(), s.edp().to_bits());
                let lean = summarize_with(&ctx, batch.mapping(lane)).unwrap();
                assert_eq!(lean, summary);
            }
        }
        // The ladder's verdicts must classify exactly like the scalar
        // screens: fanout beats capacity, pressures agree.
        let verdicts: Vec<BatchVerdict> = batch.screen().to_vec();
        for lane in 0..lanes {
            match (&scalar[lane], verdicts[lane]) {
                (Ok(_), BatchVerdict::Valid { pressure }) => {
                    assert_eq!(pressure, ctx.precheck(batch.mapping(lane)).unwrap());
                }
                (Err(InvalidMapping::FanoutExceeded { .. }), BatchVerdict::RejectFanout) => {
                    fanout_rejects += 1;
                }
                (Err(InvalidMapping::CapacityExceeded { .. }), BatchVerdict::RejectCapacity) => {}
                (want, got) => panic!("lane {}: scalar {want:?} vs ladder {got:?}", done + lane),
            }
        }
        done += lanes;
    }
    assert!(
        fanout_rejects >= SAMPLES / 4,
        "only {fanout_rejects} fanout-invalid lanes"
    );
}

#[test]
fn batched_matches_scalar_on_toy_linear() {
    let space = Mapspace::new(
        presets::toy_linear(16, 1024),
        ProblemShape::rank1("d", 113),
        MapspaceKind::Ruby,
    );
    differential(&space, 0xA1);
}

#[test]
fn batched_matches_scalar_on_toy_glb() {
    let space = Mapspace::new(
        presets::toy_glb(64 * 1024, 4, 4),
        ProblemShape::conv("c", 1, 8, 4, 14, 14, 3, 3, (1, 1)),
        MapspaceKind::RubyS,
    );
    differential(&space, 0xB2);
}

#[test]
fn batched_matches_scalar_on_eyeriss() {
    let space = Mapspace::new(
        presets::eyeriss_like(14, 12),
        ProblemShape::conv("l", 1, 16, 4, 8, 8, 3, 3, (1, 1)),
        MapspaceKind::RubyS,
    );
    differential(&space, 0xC3);
}

#[test]
fn batched_matches_scalar_on_simba() {
    let space = Mapspace::new(
        presets::simba_like(16, 16, 4),
        ProblemShape::conv("s", 1, 32, 8, 8, 8, 3, 3, (1, 1)),
        MapspaceKind::RubyT,
    );
    differential(&space, 0xD4);
}

#[test]
fn batched_matches_scalar_on_clustered() {
    let space = Mapspace::new(
        presets::clustered(4, 16),
        ProblemShape::conv("k", 1, 16, 8, 14, 14, 1, 1, (1, 1)),
        MapspaceKind::Pfm,
    );
    differential(&space, 0xE5);
}
