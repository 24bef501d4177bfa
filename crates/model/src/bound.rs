//! Mapping-independent cost lower bounds.
//!
//! The enumeration backend in `ruby_search` wants to discard candidate
//! mappings (and whole enumeration subtrees) *before* running the full
//! access-counting pipeline. That requires an *admissible* bound: a value
//! provably ≤ the true cost of every mapping the model would accept
//! (fanout- and capacity-valid). Mappings the model rejects never become
//! the incumbent best, so the bound may ignore them.
//!
//! Two quantities compose into a bound on any search objective:
//!
//! * **Energy floor** ([`energy_floor`], precomputed once per
//!   [`crate::EvalContext`]): compute energy plus compulsory traffic.
//!   Every adjacent `(parent, child)` pair of a tensor's storage chain
//!   moves at least one full *sweep* of the tensor (`a ≥ 1` temporal
//!   passes, spatial multipliers ≥ 1 in `access.rs`), and the sweep
//!   itself is bounded below per rank: simple ranks always telescope to
//!   the dimension bound, sliding-window ranks are bilinear in the two
//!   tile counts, so their minimum over the `[1, D_pos] × [1, D_win]`
//!   rectangle sits at a corner. The terminal (innermost storing) level
//!   additionally serves every MAC, divided by at most the total fanout
//!   below it — for *fanout-valid* mappings the irrelevant-spatial
//!   divisor `s_below` never exceeds `Π fanout(l).total()` over the
//!   levels at or inside the terminal one.
//!
//! * **Cycle floor**: `latency::cycles` is a `max(compute_cycles, …)`,
//!   so the mapping's own sequential step count (the product of per-dim
//!   temporal tile counts, known exactly from a tile-chain prefix) is
//!   already a valid bound; no extra machinery is needed here.
//!
//! The search side combines them per objective (EDP multiplies the two
//! floors, which is sound because both factors are positive).

use ruby_arch::Architecture;
use ruby_workload::{Operand, ProblemShape, Rank, TensorDef};

use crate::ModelOptions;

/// Relative headroom a cost floor must clear before a search may trust
/// it to exceed a true cost. The floor and the evaluator sum the same
/// energy terms in different orders, so a floor can sit above the true
/// energy by rounding skew: the soundness tests allow up to 1e-9
/// relative and observe far less. A candidate is provably worse than an
/// incumbent `best` only when its floor exceeds `best × (1 +
/// FLOOR_SLACK)`; 1e-6 leaves three orders of margin over that skew.
pub const FLOOR_SLACK: f64 = 1e-6;

/// `fanout_below[l]`: product of fanout totals of levels `l..end` — the
/// largest spatial divisor any valid mapping can apply at level `l`.
pub(crate) fn max_fanout_below(arch: &Architecture) -> Vec<f64> {
    let num_levels = arch.num_levels();
    let mut fanout_below = vec![1.0f64; num_levels];
    for (i, level) in arch.levels().iter().enumerate().rev() {
        let inner = if i + 1 < num_levels {
            fanout_below[i + 1]
        } else {
            1.0
        };
        fanout_below[i] = inner * level.fanout().total() as f64;
    }
    fanout_below
}

/// A lower bound on the total energy of any valid mapping whose spatial
/// fanout below level `l` is at most `fanout_below[l]`, given the
/// mapping-independent context pieces. Passing [`max_fanout_below`]
/// bounds every valid mapping; passing a mapping subset's exact utilized
/// fanout (e.g. an enumeration region's shared spatial signature)
/// tightens the floor for that subset. See the module docs for the
/// admissibility argument.
pub(crate) fn energy_floor(
    arch: &Architecture,
    shape: &ProblemShape,
    tensors: &[TensorDef; 3],
    chains: &[Vec<usize>; 3],
    opts: &ModelOptions,
    compute_energy: f64,
    fanout_below: &[f64],
) -> f64 {
    let macs = shape.macs() as f64;
    let mut floor = compute_energy;
    for op in Operand::ALL {
        let tensor = &tensors[op.index()];
        let sweep_min: f64 = tensor
            .ranks()
            .iter()
            .map(|rank| rank_sweep_min(shape, rank))
            .product();
        let chain = &chains[op.index()];
        for (pos, &parent) in chain.iter().enumerate() {
            let pl = &arch.levels()[parent];
            match chain.get(pos + 1) {
                Some(&child) => {
                    // One compulsory sweep crosses the boundary: ≥ sweep
                    // words enter the child, ≥ sweep leave (or are
                    // updated into) the parent, ≥ sweep ride the wires.
                    let cl = &arch.levels()[child];
                    let mut per_word = cl.access_energy() + pl.access_energy();
                    if let Some(hop) = pl.noc_hop_energy() {
                        per_word += hop;
                    }
                    floor += sweep_min * per_word;
                }
                None => {
                    // The innermost storing level serves the MAC units:
                    // `macs` words, divided by at most the full fanout
                    // below when multicast / spatial reduction applies.
                    let divided = if op == Operand::Output {
                        opts.spatial_reduction
                    } else {
                        opts.multicast
                    };
                    let words = if divided {
                        macs / fanout_below[parent]
                    } else {
                        macs
                    };
                    floor += words * pl.access_energy();
                    if let Some(hop) = pl.noc_hop_energy() {
                        floor += macs * hop;
                    }
                }
            }
        }
    }
    floor
}

/// The minimum, over all tilings, of one rank's sweep term (see
/// `access::Analyzer::sweep`). Simple ranks are tiling-independent;
/// strided ranks are bilinear in the two tile counts, minimized at a
/// corner of `[1, D_pos] × [1, D_win]`.
fn rank_sweep_min(shape: &ProblemShape, rank: &Rank) -> f64 {
    match *rank {
        Rank::Simple(d) => shape.bound(d) as f64,
        Rank::Strided {
            pos,
            win,
            stride,
            dilation,
        } => {
            let dp = shape.bound(pos) as f64;
            let dw = shape.bound(win) as f64;
            let s = stride as f64;
            let e = dilation as f64;
            let sweep = |np: f64, nw: f64| s * nw * dp + e * np * dw + np * nw * (1.0 - s - e);
            sweep(1.0, 1.0)
                .min(sweep(dp, 1.0))
                .min(sweep(1.0, dw))
                .min(sweep(dp, dw))
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{evaluate_with, EvalContext, ModelOptions};
    use ruby_arch::presets;
    use ruby_mapping::{Mapping, SlotKind};
    use ruby_workload::{Dim, ProblemShape};

    #[test]
    fn floor_is_positive_and_below_a_known_evaluation() {
        let arch = presets::toy_linear(4, 1024);
        let shape = ProblemShape::rank1("d", 100);
        let ctx = EvalContext::new(&arch, &shape, ModelOptions::default());
        let mut b = Mapping::builder(2);
        b.set_tile(Dim::M, 0, SlotKind::SpatialX, 4);
        let mapping = b.build_for_bounds(shape.bounds()).unwrap();
        let report = evaluate_with(&ctx, &mapping).unwrap();
        assert!(ctx.energy_floor() > 0.0);
        assert!(
            ctx.energy_floor() <= report.energy(),
            "floor {} exceeds true energy {}",
            ctx.energy_floor(),
            report.energy()
        );
    }

    #[test]
    fn floor_tracks_model_options() {
        // With multicast and spatial reduction off, terminal traffic is
        // not divided by the fanout, so the floor can only grow.
        let arch = presets::eyeriss_like(14, 12);
        let shape = ProblemShape::conv("c", 1, 16, 8, 14, 14, 3, 3, (1, 1));
        let on = EvalContext::new(&arch, &shape, ModelOptions::default());
        let off = EvalContext::new(
            &arch,
            &shape,
            ModelOptions {
                multicast: false,
                spatial_reduction: false,
            },
        );
        assert!(off.energy_floor() >= on.energy_floor());
    }
}
