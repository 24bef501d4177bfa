//! Per-level per-tensor access counting.
//!
//! See the crate docs for the modeling rules. The central quantities, for
//! a tensor `t` stored at level `l` with boundary `b` (the chain boundary
//! of the tile stored at `l`):
//!
//! * `sweep(t, b)` — data words delivered across boundary `b` in one full
//!   pass over the counted relevant loops. Along simple ranks the tile
//!   partition telescopes to the dimension bound; sliding-window ranks
//!   use the exact halo closed form over the tile multisets.
//! * `A(t, b)` — the repeat multiplier from *counted* irrelevant temporal
//!   loops outside `b` (everything above the innermost contiguous
//!   irrelevant run, which is reused from the resident tile).
//! * `S_irr(t, range)` — the product of irrelevant spatial loop counts in
//!   a slot range: multicast copies (inputs/weights) or spatially reduced
//!   partial-sum copies (outputs).

use ruby_arch::Architecture;
use ruby_mapping::{Mapping, ProfileScratch, SlotId};
use ruby_workload::{Dim, Operand, ProblemShape, Rank, TensorDef};

use crate::report::AccessCounts;
use crate::ModelOptions;

/// Counts accesses for every level (outermost first) and operand
/// (indexed by [`Operand::index`]). `tensors` and `chains` are the
/// operand projections and storage chains precomputed by
/// [`crate::EvalContext`], indexed by [`Operand::index`].
pub(crate) fn count_accesses(
    arch: &Architecture,
    shape: &ProblemShape,
    tensors: &[TensorDef; 3],
    chains: &[Vec<usize>; 3],
    mapping: &Mapping,
    opts: &ModelOptions,
) -> Vec<[AccessCounts; 3]> {
    let analyzer = Analyzer::new(shape, mapping);
    let mut acc = vec![[AccessCounts::default(); 3]; arch.num_levels()];
    let macs = shape.macs() as f64;

    for op in Operand::ALL {
        let tensor = &tensors[op.index()];
        let chain = &chains[op.index()];
        debug_assert!(!chain.is_empty(), "DRAM stores everything");
        for (pos, &parent) in chain.iter().enumerate() {
            let b_parent = mapping.layout().storage_boundary(parent);
            match chain.get(pos + 1) {
                Some(&child) => {
                    let b_child = mapping.layout().storage_boundary(child);
                    let a = analyzer.counted_irrelevant_temporal(tensor, b_child);
                    let sweep = analyzer.sweep(tensor, b_child);
                    let s_all = analyzer.irrelevant_spatial(tensor, b_child, usize::MAX);
                    let s_outer = analyzer.irrelevant_spatial(tensor, b_parent, usize::MAX);
                    if op == Operand::Output {
                        // Reduction passes outside the child force psum
                        // spills: A passes drain, A−1 refetch.
                        let refetch = (a - 1.0).max(0.0);
                        acc[child][op.index()].fills += refetch * sweep * s_all;
                        let read_mult = if opts.multicast { s_outer } else { s_all };
                        acc[parent][op.index()].reads += refetch * sweep * read_mult;
                        acc[child][op.index()].reads += a * sweep * s_all;
                        let upd_mult = if opts.spatial_reduction {
                            s_outer
                        } else {
                            s_all
                        };
                        acc[parent][op.index()].updates += a * sweep * upd_mult;
                        // Refetched psums go down, drained psums come up.
                        acc[parent][op.index()].network += (refetch + a) * sweep * s_all;
                    } else {
                        acc[child][op.index()].fills += a * sweep * s_all;
                        let read_mult = if opts.multicast { s_outer } else { s_all };
                        acc[parent][op.index()].reads += a * sweep * read_mult;
                        acc[parent][op.index()].network += a * sweep * s_all;
                    }
                }
                None => {
                    // The compute (MAC) units are this level's child.
                    let s_below = analyzer.irrelevant_spatial(tensor, 0, b_parent);
                    if op == Operand::Output {
                        let updates = if opts.spatial_reduction {
                            macs / s_below
                        } else {
                            macs
                        };
                        acc[parent][op.index()].updates += updates;
                        acc[parent][op.index()].network += macs;
                        // Read-modify-write: every update except the first
                        // write of each fresh psum-tile establishment.
                        let a = analyzer.counted_irrelevant_temporal(tensor, b_parent);
                        let fresh = analyzer.sweep(tensor, b_parent)
                            * a
                            * analyzer.irrelevant_spatial(tensor, b_parent, usize::MAX);
                        acc[parent][op.index()].reads += (updates - fresh).max(0.0);
                    } else {
                        let reads = if opts.multicast { macs / s_below } else { macs };
                        acc[parent][op.index()].reads += reads;
                        acc[parent][op.index()].network += macs;
                    }
                }
            }
        }
    }
    acc
}

/// Precomputed per-dimension tile counts plus the loop-walking helpers.
struct Analyzer<'a> {
    shape: &'a ProblemShape,
    mapping: &'a Mapping,
    /// Tile count of dimension `d` at chain boundary `b`, flattened as
    /// `tiles_at[d.index() * boundaries + b]` (one allocation instead of
    /// a profile multiset per dim × boundary — this constructor runs
    /// once per costed candidate).
    tiles_at: Vec<u64>,
    /// Boundaries per dimension (`num_slots + 1`, identical for all).
    boundaries: usize,
    /// Loop count of dimension `d` at slot `s`, flattened as
    /// `loops[d.index() * slots + s]`: computed once here rather than
    /// once per loop walk.
    loops: Vec<u64>,
}

impl<'a> Analyzer<'a> {
    fn new(shape: &'a ProblemShape, mapping: &'a Mapping) -> Self {
        let boundaries = mapping.layout().num_slots() + 1;
        let mut tiles_at = Vec::with_capacity(Dim::ALL.len() * boundaries);
        let mut scratch = ProfileScratch::new();
        let mut counts = Vec::with_capacity(boundaries);
        let mut loops = Vec::with_capacity(Dim::ALL.len() * (boundaries - 1));
        for d in Dim::ALL {
            mapping.boundary_tile_counts_into(d, &mut scratch, &mut counts);
            tiles_at.extend_from_slice(&counts);
            let chain = mapping.tile_chain(d);
            loops.extend(chain.windows(2).map(|w| w[1].div_ceil(w[0])));
        }
        Analyzer {
            shape,
            mapping,
            tiles_at,
            boundaries,
            loops,
        }
    }

    /// Exact number of tiles of `d` at chain boundary `b`.
    fn tiles(&self, d: Dim, b: usize) -> u64 {
        self.tiles_at[d.index() * self.boundaries + b]
    }

    /// The loop count of `d` at `slot` ([`Mapping::loop_count`]).
    fn loop_count(&self, d: Dim, slot: SlotId) -> u64 {
        self.loops[d.index() * (self.boundaries - 1) + slot.index()]
    }

    /// Nontrivial temporal loops outside boundary `b`, innermost first
    /// (dims within a block follow the block's permutation).
    fn temporal_loops_outside(&self, b: usize) -> impl Iterator<Item = (Dim, u64)> + '_ {
        let layout = self.mapping.layout();
        layout
            .slots_outside(b)
            .filter(move |&s| !layout.kind_of(s).is_spatial())
            .flat_map(move |s| {
                let level = layout.level_of(s);
                self.mapping
                    .permutation(level)
                    .iter()
                    .map(move |&d| (d, self.loop_count(d, s)))
            })
            .filter(|&(_, c)| c > 1)
    }

    /// The repeat multiplier from counted irrelevant temporal loops
    /// outside `b` (the innermost contiguous irrelevant run is reused).
    fn counted_irrelevant_temporal(&self, tensor: &TensorDef, b: usize) -> f64 {
        let mut mult = 1.0;
        let mut in_reuse_run = true;
        for (d, count) in self.temporal_loops_outside(b) {
            if tensor.is_relevant(d) {
                in_reuse_run = false;
            } else if !in_reuse_run {
                mult *= count as f64;
            }
        }
        mult
    }

    /// Product of irrelevant spatial loop counts at slots in
    /// `[from, to)` (clamped to the layout).
    fn irrelevant_spatial(&self, tensor: &TensorDef, from: usize, to: usize) -> f64 {
        let layout = self.mapping.layout();
        let to = to.min(layout.num_slots());
        let mut mult = 1.0;
        for s in from..to {
            let slot = SlotId::new(s);
            if !layout.kind_of(slot).is_spatial() {
                continue;
            }
            for d in Dim::ALL {
                if tensor.is_relevant(d) {
                    continue;
                }
                let c = self.loop_count(d, slot);
                if c > 1 {
                    mult *= c as f64;
                }
            }
        }
        mult
    }

    /// Words delivered across boundary `b` per full pass of the counted
    /// relevant loops.
    fn sweep(&self, tensor: &TensorDef, b: usize) -> f64 {
        tensor
            .ranks()
            .iter()
            .map(|rank| match *rank {
                Rank::Simple(d) => self.shape.bound(d) as f64,
                Rank::Strided {
                    pos,
                    win,
                    stride,
                    dilation,
                } => {
                    // Σ over the (pos, win) tile grid of
                    // (tp−1)·s + (tw−1)·e + 1, separable because tile
                    // sizes along each dim sum to the dim bound.
                    let np = self.tiles(pos, b) as f64;
                    let nw = self.tiles(win, b) as f64;
                    let dp = self.shape.bound(pos) as f64;
                    let dw = self.shape.bound(win) as f64;
                    let s = stride as f64;
                    let e = dilation as f64;
                    s * nw * dp + e * np * dw + np * nw * (1.0 - s - e)
                }
            })
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruby_arch::presets;
    use ruby_mapping::SlotKind;

    /// Builds the operand projections and storage chains the way
    /// `EvalContext` does, then counts.
    fn count(
        arch: &Architecture,
        shape: &ProblemShape,
        mapping: &Mapping,
        opts: &ModelOptions,
    ) -> Vec<[AccessCounts; 3]> {
        let tensors = Operand::ALL.map(|op| shape.tensor(op));
        let chains = Operand::ALL.map(|op| arch.storage_chain(op));
        count_accesses(arch, shape, &tensors, &chains, mapping, opts)
    }

    fn rank1_mapping(d: u64, spatial: u64) -> (ProblemShape, Mapping) {
        let shape = ProblemShape::rank1("d", d);
        let mut b = Mapping::builder(2);
        b.set_tile(Dim::M, 0, SlotKind::SpatialX, spatial);
        (shape.clone(), b.build_for_bounds(shape.bounds()).unwrap())
    }

    #[test]
    fn rank1_counts_match_hand_calculation() {
        let arch = presets::toy_linear(4, 1024);
        let (shape, mapping) = rank1_mapping(100, 4);
        let acc = count(&arch, &shape, &mapping, &ModelOptions::default());
        let w = Operand::Weight.index();
        let i = Operand::Input.index();
        let o = Operand::Output.index();
        // Weights: each of the 100 elements lands in one PE once.
        assert_eq!(acc[1][w].fills, 100.0);
        assert_eq!(acc[0][w].reads, 100.0);
        assert_eq!(acc[1][w].reads, 100.0); // one read per MAC
                                            // Input: one element, broadcast to 4 PEs.
        assert_eq!(acc[1][i].fills, 4.0);
        assert_eq!(acc[0][i].reads, 1.0); // multicast
        assert_eq!(acc[1][i].reads, 100.0);
        // Output: no reduction loops -> written once, drained once.
        assert_eq!(acc[1][o].updates, 100.0);
        assert_eq!(acc[1][o].reads, 100.0); // drain
        assert_eq!(acc[1][o].fills, 0.0);
        assert_eq!(acc[0][o].updates, 100.0);
    }

    #[test]
    fn network_words_counted_at_parent() {
        let arch = presets::toy_linear(4, 1024);
        let (shape, mapping) = rank1_mapping(100, 4);
        let acc = count(&arch, &shape, &mapping, &ModelOptions::default());
        // Weights: 100 words delivered over the DRAM→PE network.
        assert_eq!(acc[0][Operand::Weight.index()].network, 100.0);
        // Input: the single element is copied to all 4 PEs (per-receiver
        // wire traffic, even though the DRAM port is read once).
        assert_eq!(acc[0][Operand::Input.index()].network, 4.0);
        // Outputs: 100 partial sums return over the network.
        assert_eq!(acc[0][Operand::Output.index()].network, 100.0);
        // The PE level's own (unit) fanout carries the MAC operands.
        assert_eq!(acc[1][Operand::Weight.index()].network, 100.0);
    }

    #[test]
    fn multicast_off_multiplies_parent_reads() {
        let arch = presets::toy_linear(4, 1024);
        let (shape, mapping) = rank1_mapping(100, 4);
        let opts = ModelOptions {
            multicast: false,
            spatial_reduction: true,
        };
        let acc = count(&arch, &shape, &mapping, &opts);
        let i = Operand::Input.index();
        assert_eq!(acc[0][i].reads, 4.0); // one DRAM read per PE copy
    }

    #[test]
    fn temporal_reuse_skips_innermost_irrelevant_run() {
        // GEMM 8x8x8 on the 2-level toy, everything temporal at DRAM.
        // Default permutation [S,R,Q,P,C,M,N] puts P (irrelevant to
        // weights) inside C and M: weights enjoy temporal reuse over P.
        let arch = presets::toy_linear(4, 65536);
        let shape = ProblemShape::gemm("g", 8, 8, 8);
        let mapping = Mapping::builder(2)
            .build_for_bounds(shape.bounds())
            .unwrap();
        let acc = count(&arch, &shape, &mapping, &ModelOptions::default());
        let w = Operand::Weight.index();
        let i = Operand::Input.index();
        // Weight spad tile is a single element; P iterations (innermost
        // irrelevant run) are reused, so each weight is fetched once.
        assert_eq!(acc[1][w].fills, 64.0);
        // Inputs: M loops sit outside C; every M iteration refetches the
        // K×N input: 8 × 64 = 512.
        assert_eq!(acc[1][i].fills, 512.0);
    }

    #[test]
    fn permutation_changes_reuse() {
        // Same GEMM, but put M innermost: now weights refetch per M-sweep
        // of... M is relevant to weights, so weights still fetch 64; the
        // INPUT becomes the reused tensor (M innermost = irrelevant run
        // for inputs).
        let arch = presets::toy_linear(4, 65536);
        let shape = ProblemShape::gemm("g", 8, 8, 8);
        let mut b = Mapping::builder(2);
        b.set_permutation(0, [Dim::M, Dim::S, Dim::R, Dim::Q, Dim::P, Dim::C, Dim::N]);
        let mapping = b.build_for_bounds(shape.bounds()).unwrap();
        let acc = count(&arch, &shape, &mapping, &ModelOptions::default());
        let i = Operand::Input.index();
        let w = Operand::Weight.index();
        assert_eq!(acc[1][i].fills, 64.0); // inputs reused across M
                                           // Weights refetched for every P iteration outside C/M: 8 × 64.
        assert_eq!(acc[1][w].fills, 512.0);
    }

    #[test]
    fn output_reduction_spills() {
        // GEMM with reduction dim C outside the output's storage level.
        // Default perm [.., P, C, M, N]: C sits outside P... relative to
        // outputs, C is irrelevant; with C *not* innermost (P is inside),
        // partial sums spill once per C tile.
        let arch = presets::toy_linear(4, 65536);
        let shape = ProblemShape::gemm("g", 4, 4, 8);
        let mut b = Mapping::builder(2);
        // Put C outermost at DRAM so outputs cannot keep partials inside.
        b.set_permutation(0, [Dim::S, Dim::R, Dim::Q, Dim::P, Dim::M, Dim::N, Dim::C]);
        let mapping = b.build_for_bounds(shape.bounds()).unwrap();
        let acc = count(&arch, &shape, &mapping, &ModelOptions::default());
        let o = Operand::Output.index();
        // |O| = 16, A = 8 reduction passes: drains 128, refetches 112.
        assert_eq!(acc[1][o].reads, 128.0);
        assert_eq!(acc[1][o].fills, 112.0);
        assert_eq!(acc[0][o].updates, 128.0);
        assert_eq!(acc[0][o].reads, 112.0);
    }

    #[test]
    fn output_kept_stationary_never_spills() {
        // Same GEMM but C innermost (inside all output-relevant loops):
        // partials accumulate in the spad and drain once.
        let arch = presets::toy_linear(4, 65536);
        let shape = ProblemShape::gemm("g", 4, 4, 8);
        let mut b = Mapping::builder(2);
        b.set_permutation(0, [Dim::C, Dim::S, Dim::R, Dim::Q, Dim::P, Dim::M, Dim::N]);
        let mapping = b.build_for_bounds(shape.bounds()).unwrap();
        let acc = count(&arch, &shape, &mapping, &ModelOptions::default());
        let o = Operand::Output.index();
        assert_eq!(acc[1][o].fills, 0.0);
        // 112 read-modify-write reads (7 per element) + 16 drain reads.
        assert_eq!(acc[1][o].reads, 128.0);
        assert_eq!(acc[0][o].updates, 16.0);
        assert_eq!(acc[0][o].reads, 0.0);
    }

    #[test]
    fn input_halo_sweep_exact() {
        // Conv P=4, R=3, stride 1 (input height 6), tiled into 2 P-tiles
        // at DRAM: each P-tile of 2 rows needs (2−1)+3 = 4 input rows;
        // 2 tiles × 4 = 8 rows fetched (halo overlap of 2 rows refetched).
        let shape = ProblemShape::conv("c", 1, 1, 1, 4, 1, 3, 1, (1, 1));
        let mut b = Mapping::builder(2);
        b.set_tile(Dim::P, 1, SlotKind::Temporal, 2);
        b.set_tile(Dim::R, 1, SlotKind::Temporal, 3);
        let mapping = b.build_for_bounds(shape.bounds()).unwrap();
        let analyzer = Analyzer::new(&shape, &mapping);
        let input = shape.tensor(Operand::Input);
        let b_spad = mapping.layout().storage_boundary(1);
        assert_eq!(analyzer.sweep(&input, b_spad), 8.0);
        // At the innermost boundary (unit tiles) the sweep equals MACs
        // along the coupled pair: 4 × 3 = 12.
        assert_eq!(analyzer.sweep(&input, 0), 12.0);
    }

    #[test]
    fn weight_sweep_is_tensor_size_at_any_boundary() {
        let shape = ProblemShape::conv("c", 1, 8, 4, 10, 10, 3, 3, (1, 1));
        let mapping = Mapping::builder(2)
            .build_for_bounds(shape.bounds())
            .unwrap();
        let analyzer = Analyzer::new(&shape, &mapping);
        let w = shape.tensor(Operand::Weight);
        for b in [0, 3, 6] {
            assert_eq!(analyzer.sweep(&w, b), (8 * 4 * 3 * 3) as f64);
        }
    }

    #[test]
    fn bypass_routes_traffic_around_glb() {
        // Eyeriss-like: weights bypass the GLB, so GLB weight accesses
        // must be zero and DRAM serves PE weight fills directly.
        let arch = presets::eyeriss_like(14, 12);
        let shape = ProblemShape::conv("c", 1, 12, 4, 14, 14, 3, 3, (1, 1));
        let mut b = Mapping::builder(3);
        b.set_tile(Dim::M, 1, SlotKind::SpatialY, 12);
        b.set_tile(Dim::Q, 1, SlotKind::SpatialX, 14);
        b.set_tile(Dim::R, 2, SlotKind::Temporal, 3);
        b.set_tile(Dim::S, 2, SlotKind::Temporal, 3);
        b.set_tile(Dim::C, 2, SlotKind::Temporal, 4);
        let mapping = b.build_for_bounds(shape.bounds()).unwrap();
        let acc = count(&arch, &shape, &mapping, &ModelOptions::default());
        let w = Operand::Weight.index();
        assert_eq!(acc[1][w].total(), 0.0, "weights must bypass the GLB");
        assert!(acc[0][w].reads > 0.0);
        assert!(acc[2][w].fills > 0.0);
    }

    #[test]
    fn total_sums_are_finite_and_positive() {
        let arch = presets::eyeriss_like(14, 12);
        let shape = ProblemShape::conv("c", 1, 64, 32, 28, 28, 3, 3, (1, 1));
        let mut b = Mapping::builder(3);
        b.set_tile(Dim::Q, 1, SlotKind::SpatialX, 14);
        b.set_tile(Dim::M, 1, SlotKind::SpatialY, 12);
        b.set_tile(Dim::C, 2, SlotKind::Temporal, 8);
        let mapping = b.build_for_bounds(shape.bounds()).unwrap();
        let acc = count(&arch, &shape, &mapping, &ModelOptions::default());
        for level in &acc {
            for counts in level {
                assert!(counts.total().is_finite());
                assert!(counts.total() >= 0.0);
            }
        }
    }
}
