//! Batched, data-oriented candidate evaluation.
//!
//! The search hot path rejects most candidates on one of two cheap
//! validity walls (spatial fanout, then buffer capacity) before any
//! real modeling happens. Scalar [`evaluate_with`](crate::evaluate_with)
//! pays pointer-chasing and branchy control flow per candidate for
//! those walls; [`BatchEvalContext`] instead gathers the wall inputs for
//! up to [`BATCH`] candidates into struct-of-arrays scratch (per-level
//! contiguous rows of spatial extents and tile footprints) and runs the
//! rejection ladder as branchless mask passes the autovectorizer can
//! chew on. Only survivors reach the full per-candidate cost model.
//!
//! The ladder mirrors the scalar screens *exactly*: the same per-level
//! predicates, the same `Operand::ALL` accumulation order, the same
//! saturating pressure arithmetic — so verdicts, pressures, and (via
//! [`cost_core`](crate::context)) costs are bit-identical to the scalar
//! path. The differential test in `tests/batch_differential.rs` proves
//! it over tens of thousands of mappings per preset.

use ruby_arch::Capacity;
use ruby_mapping::Mapping;
use ruby_telemetry::LazyCounter;
use ruby_workload::Operand;

use crate::context::{evaluate_unchecked, summarize_unchecked, EvalContext};
use crate::report::{CostReport, CostSummary};
use crate::validity::InvalidMapping;

/// Candidates per batch. 64 keeps every scratch row inside one or two
/// cache lines per level while giving the vectorizer full-width lanes.
pub const BATCH: usize = 64;

/// Batch-shape instrumentation, bumped once per chunk: how many
/// batches ran and which ladder stage kills how many lanes (the lane
/// total is the sum of the three lane counters).
static BATCH_CHUNKS: LazyCounter = LazyCounter::new("model.batch.chunks");
static BATCH_KILL_FANOUT: LazyCounter = LazyCounter::new("model.batch.kill.fanout");
static BATCH_KILL_CAPACITY: LazyCounter = LazyCounter::new("model.batch.kill.capacity");
static BATCH_SURVIVORS: LazyCounter = LazyCounter::new("model.batch.survivors");

/// Outcome of the rejection ladder for one lane of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchVerdict {
    /// Both walls passed; `pressure` is exactly what
    /// [`EvalContext::precheck`] would have returned.
    Valid {
        /// Summed tile footprint over capacity-bounded levels.
        pressure: u64,
    },
    /// Some level's spatial fanout is exceeded (the scalar path's first
    /// wall, so it wins over capacity when both are violated).
    RejectFanout,
    /// Some level's buffer capacity is exceeded.
    RejectCapacity,
}

/// One capacity-bounded level of the ladder plan, precomputed at
/// construction: which operands the level stores, their budgets, and
/// where each operand's footprint row lives in the scratch.
#[derive(Debug)]
struct CapEntry {
    /// Architecture level index.
    level: usize,
    /// `Some(words)` for a shared buffer (stored footprints are summed
    /// before the comparison), `None` for per-operand buffers.
    shared: Option<u64>,
    /// Stored operands as `(operand, per-operand budget, scratch row)`;
    /// the budget is meaningless for shared levels.
    ops: Vec<(Operand, u64, usize)>,
}

/// Struct-of-arrays batch evaluator over a prepared [`EvalContext`].
///
/// Usage: decode candidates into [`Self::slot`] / [`Self::commit`]
/// until [`Self::is_full`] (or several at once into
/// [`Self::free_slots`] / [`Self::commit_fanout_feasible`]), run
/// [`Self::screen`] for per-lane verdicts, cost the valid lanes
/// ([`Self::summary`], or [`Self::report`] for keepers), then
/// [`Self::clear`] and refill. All scratch is allocated once and reused
/// across batches.
///
/// # Examples
///
/// ```
/// use ruby_arch::presets;
/// use ruby_mapping::SlotKind;
/// use ruby_model::{BatchEvalContext, BatchVerdict, EvalContext, ModelOptions};
/// use ruby_workload::{Dim, ProblemShape};
///
/// let arch = presets::toy_linear(16, 1024);
/// let shape = ProblemShape::rank1("d113", 113);
/// let ctx = EvalContext::new(&arch, &shape, ModelOptions::default());
/// let mut batch = BatchEvalContext::new(&ctx);
/// batch.commit(); // lane 0: the default (all-ones) mapping
/// let verdicts = batch.screen();
/// assert!(matches!(verdicts[0], BatchVerdict::Valid { .. }));
/// let steps = batch.mapping(0).compute_cycles();
/// assert_eq!(batch.summary(0, steps).cycles(), 113);
/// ```
#[derive(Debug)]
pub struct BatchEvalContext<'c, 'a> {
    ctx: &'c EvalContext<'a>,
    /// Candidate mappings, built once for the context's bounds and
    /// overwritten in place by the decoder.
    slots: Vec<Mapping>,
    len: usize,
    /// Per-level fanout budgets (`x`, `y`).
    fan_x: Vec<u64>,
    fan_y: Vec<u64>,
    caps: Vec<CapEntry>,
    /// Level-major spatial extents: `sx[level * BATCH + lane]`.
    sx: Vec<u64>,
    sy: Vec<u64>,
    /// Row-major tile footprints: `foot[row * BATCH + lane]`, one row
    /// per `(capacity level, stored operand)` pair.
    foot: Vec<u64>,
    /// Lanes committed as fanout-feasible: their extents are not
    /// gathered, and [`Self::screen`] passes their fanout wall.
    fanout_feasible: [bool; BATCH],
    verdicts: Vec<BatchVerdict>,
}

impl<'c, 'a> BatchEvalContext<'c, 'a> {
    /// Builds the ladder plan and scratch for `ctx`. All allocation
    /// happens here; the per-batch loop is allocation-free.
    pub fn new(ctx: &'c EvalContext<'a>) -> Self {
        let arch = ctx.arch();
        let num_levels = arch.num_levels();
        let template = Mapping::builder(num_levels)
            // lint: allow(panics) — the builder only rejects zero-level
            // architectures, which EvalContext construction already
            // rules out; dying at setup beats corrupting every batch.
            .build_for_bounds(ctx.shape().bounds())
            .expect("default mapping is always buildable for the context's bounds");
        let mut fan_x = Vec::with_capacity(num_levels);
        let mut fan_y = Vec::with_capacity(num_levels);
        let mut caps = Vec::new();
        let mut rows = 0usize;
        for (i, level) in arch.levels().iter().enumerate() {
            fan_x.push(level.fanout().x());
            fan_y.push(level.fanout().y());
            // Mirror `validity::check_capacity`: level 0 (DRAM) and
            // unbounded levels never reject and contribute no pressure.
            if i == 0 || level.capacity() == Capacity::Unbounded {
                continue;
            }
            let shared = match level.capacity() {
                Capacity::Shared(words) => Some(words),
                _ => None,
            };
            let mut ops = Vec::new();
            for op in Operand::ALL {
                if !level.stores(op) {
                    continue;
                }
                ops.push((op, level.capacity_for(op).unwrap_or(0), rows));
                rows += 1;
            }
            caps.push(CapEntry {
                level: i,
                shared,
                ops,
            });
        }
        BatchEvalContext {
            ctx,
            slots: vec![template; BATCH],
            len: 0,
            fan_x,
            fan_y,
            caps,
            sx: vec![0; num_levels * BATCH],
            sy: vec![0; num_levels * BATCH],
            foot: vec![0; rows * BATCH],
            fanout_feasible: [false; BATCH],
            verdicts: vec![BatchVerdict::RejectFanout; BATCH],
        }
    }

    /// The evaluation context the batch screens against.
    pub fn context(&self) -> &'c EvalContext<'a> {
        self.ctx
    }

    /// Lanes currently committed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no lane is committed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when every lane is committed; [`Self::screen`] and refill.
    pub fn is_full(&self) -> bool {
        self.len == BATCH
    }

    /// Drops all committed lanes (scratch is reused, nothing shrinks).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The next free lane's mapping, for the decoder to overwrite in
    /// place. Call [`Self::commit`] once it holds the candidate.
    ///
    /// # Panics
    ///
    /// Panics when the batch is full.
    pub fn slot(&mut self) -> &mut Mapping {
        assert!(
            self.len < BATCH,
            "batch is full; screen() and clear() first"
        );
        &mut self.slots[self.len]
    }

    /// Commits the candidate in [`Self::slot`]: gathers its per-level
    /// spatial extents and tile footprints into the SoA scratch.
    ///
    /// # Panics
    ///
    /// Panics when the batch is full.
    pub fn commit(&mut self) {
        let lane = self.len;
        assert!(lane < BATCH, "batch is full; screen() and clear() first");
        let mapping = &self.slots[lane];
        for level in 0..self.fan_x.len() {
            let (x, y) = mapping.spatial_extent(level);
            self.sx[level * BATCH + lane] = x;
            self.sy[level * BATCH + lane] = y;
        }
        self.fanout_feasible[lane] = false;
        self.gather_footprints(lane);
        self.len = lane + 1;
    }

    /// The free lanes' mappings, for a decoder that fills several at
    /// once; [`Self::commit_fanout_feasible`] commits them.
    pub fn free_slots(&mut self) -> &mut [Mapping] {
        &mut self.slots[self.len..]
    }

    /// Commits the first `lanes` of [`Self::free_slots`] as candidates
    /// known to fit every level's spatial fanout, such as leaves decoded
    /// from `EnumTables`, whose regions are fanout-feasible by
    /// construction. Only their tile footprints are gathered, and
    /// [`Self::screen`] takes their fanout wall as passed (checked in
    /// debug builds).
    ///
    /// # Panics
    ///
    /// Panics when fewer than `lanes` lanes are free.
    pub fn commit_fanout_feasible(&mut self, lanes: usize) {
        assert!(
            self.len + lanes <= BATCH,
            "{lanes} lanes do not fit; screen() and clear() first"
        );
        for lane in self.len..self.len + lanes {
            debug_assert!(
                crate::validity::check_fanout(self.ctx.arch(), &self.slots[lane]).is_ok(),
                "lane {lane} committed as fanout-feasible exceeds a fanout"
            );
            self.fanout_feasible[lane] = true;
            self.gather_footprints(lane);
        }
        self.len += lanes;
    }

    /// Gathers `lane`'s tile footprints into the SoA scratch.
    fn gather_footprints(&mut self, lane: usize) {
        let mapping = &self.slots[lane];
        let tensors = self.ctx.tensors();
        for entry in &self.caps {
            let tile = mapping.tile_at_level(entry.level);
            for &(op, _, row) in &entry.ops {
                self.foot[row * BATCH + lane] = tensors[op.index()].footprint(&tile);
            }
        }
    }

    /// A committed lane's mapping.
    pub fn mapping(&self, lane: usize) -> &Mapping {
        assert!(lane < self.len, "lane {lane} not committed");
        &self.slots[lane]
    }

    /// Runs the rejection ladder over every committed lane: a
    /// branchless fanout pass, then a branchless capacity pass, both as
    /// contiguous per-level sweeps over the gathered scratch. Verdicts
    /// classify each lane exactly as [`EvalContext::precheck`] would —
    /// fanout failures win over capacity failures, and valid lanes
    /// carry the identical buffer pressure. Lanes committed by
    /// [`Self::commit_fanout_feasible`] pass the fanout wall unchecked,
    /// and a batch of only such lanes skips the fanout pass.
    ///
    /// Feeds the scalar rejection counters (`model.reject.*`,
    /// `model.eval.valid`) plus the batch-shape counters
    /// (`model.batch.*`), so batched and scalar runs stay comparable.
    pub fn screen(&mut self) -> &[BatchVerdict] {
        let n = self.len;
        let mut fan_ok = [true; BATCH];
        if !self.fanout_feasible[..n].iter().all(|&f| f) {
            for level in 0..self.fan_x.len() {
                let fx = self.fan_x[level];
                let fy = self.fan_y[level];
                let sx = &self.sx[level * BATCH..level * BATCH + n];
                let sy = &self.sy[level * BATCH..level * BATCH + n];
                for lane in 0..n {
                    fan_ok[lane] &= (sx[lane] <= fx) & (sy[lane] <= fy);
                }
            }
            for (ok, &feasible) in fan_ok.iter_mut().zip(&self.fanout_feasible[..n]) {
                *ok |= feasible;
            }
        }

        let mut cap_ok = [true; BATCH];
        let mut pressure = [0u64; BATCH];
        let mut shared = [0u64; BATCH];
        for entry in &self.caps {
            match entry.shared {
                Some(available) => {
                    shared[..n].fill(0);
                    for &(_, _, row) in &entry.ops {
                        let foot = &self.foot[row * BATCH..row * BATCH + n];
                        for lane in 0..n {
                            shared[lane] = shared[lane].saturating_add(foot[lane]);
                        }
                    }
                    for lane in 0..n {
                        cap_ok[lane] &= shared[lane] <= available;
                        pressure[lane] = pressure[lane].saturating_add(shared[lane]);
                    }
                }
                None => {
                    for &(_, available, row) in &entry.ops {
                        let foot = &self.foot[row * BATCH..row * BATCH + n];
                        for lane in 0..n {
                            cap_ok[lane] &= foot[lane] <= available;
                            pressure[lane] = pressure[lane].saturating_add(foot[lane]);
                        }
                    }
                }
            }
        }

        let mut killed_fanout = 0u64;
        let mut killed_capacity = 0u64;
        let mut survivors = 0u64;
        for lane in 0..n {
            self.verdicts[lane] = if !fan_ok[lane] {
                killed_fanout += 1;
                BatchVerdict::RejectFanout
            } else if !cap_ok[lane] {
                killed_capacity += 1;
                BatchVerdict::RejectCapacity
            } else {
                survivors += 1;
                BatchVerdict::Valid {
                    pressure: pressure[lane],
                }
            };
        }
        BATCH_CHUNKS.inc();
        BATCH_KILL_FANOUT.add(killed_fanout);
        BATCH_KILL_CAPACITY.add(killed_capacity);
        BATCH_SURVIVORS.add(survivors);
        &self.verdicts[..n]
    }

    /// Lean cost of a lane [`Self::screen`] declared valid —
    /// bit-identical to the corresponding [`CostReport`] fields (see
    /// [`crate::summarize_with`]). `steps` is the lane's
    /// [`Mapping::compute_cycles`], which the search already holds for
    /// its cost floor (read from the enumeration tables, or computed);
    /// passing it in keeps the latency pass from recomputing it. Costing
    /// a rejected lane is a logic error: the result would describe an
    /// unrunnable mapping.
    pub fn summary(&self, lane: usize, steps: u64) -> CostSummary {
        assert!(lane < self.len, "lane {lane} not committed");
        summarize_unchecked(self.ctx, &self.slots[lane], steps)
    }

    /// Full cost report of a lane [`Self::screen`] declared valid —
    /// bit-identical to `evaluate_with` on the same mapping. Intended
    /// for the rare candidates worth keeping; the hot path sticks to
    /// [`Self::summary`].
    pub fn report(&self, lane: usize) -> CostReport {
        assert!(lane < self.len, "lane {lane} not committed");
        evaluate_unchecked(self.ctx, &self.slots[lane])
    }

    /// Full-parity batched evaluation: screens every committed lane and
    /// returns, per lane, exactly what
    /// [`evaluate_with`](crate::evaluate_with) returns on that mapping —
    /// the identical `CostReport` for valid lanes, the identical
    /// first-failure [`InvalidMapping`] for rejected ones (recovered by
    /// re-running the scalar screen on the cold rejected lanes).
    pub fn evaluate(&mut self) -> Vec<Result<CostReport, InvalidMapping>> {
        self.screen();
        (0..self.len)
            .map(|lane| match self.verdicts[lane] {
                BatchVerdict::Valid { .. } => Ok(evaluate_unchecked(self.ctx, &self.slots[lane])),
                _ => Err(self
                    .ctx
                    .precheck(&self.slots[lane])
                    .expect_err("ladder rejected a lane the scalar screen accepts")),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_with, ModelOptions};
    use ruby_arch::presets;
    use ruby_mapping::SlotKind;
    use ruby_workload::{Dim, ProblemShape};

    #[test]
    fn ladder_matches_scalar_precheck_on_handmade_candidates() {
        let arch = presets::eyeriss_like(14, 12);
        let shape = ProblemShape::conv("l", 1, 16, 4, 8, 8, 3, 3, (1, 1));
        let ctx = EvalContext::new(&arch, &shape, ModelOptions::default());
        let mut batch = BatchEvalContext::new(&ctx);
        let mut builder = Mapping::builder(3);
        let mut expected = Vec::new();
        for sx in [1u64, 7, 15, 28] {
            for t in [1u64, 3, 32, 96] {
                builder.reset();
                builder.set_tile(Dim::Q, 1, SlotKind::SpatialX, sx);
                builder.set_tile(Dim::M, 2, SlotKind::Temporal, t);
                builder.set_tile(Dim::R, 2, SlotKind::Temporal, 3);
                let m = builder.build_for_bounds(shape.bounds()).unwrap();
                expected.push(ctx.precheck(&m));
                batch.slot().clone_from(&m);
                batch.commit();
            }
        }
        let verdicts = batch.screen().to_vec();
        assert_eq!(verdicts.len(), expected.len());
        for (lane, want) in expected.iter().enumerate() {
            match (verdicts[lane], want) {
                (BatchVerdict::Valid { pressure }, Ok(p)) => assert_eq!(pressure, *p),
                (BatchVerdict::RejectFanout, Err(InvalidMapping::FanoutExceeded { .. })) => {}
                (BatchVerdict::RejectCapacity, Err(InvalidMapping::CapacityExceeded { .. })) => {}
                (got, want) => panic!("lane {lane}: batch {got:?} vs scalar {want:?}"),
            }
        }
    }

    #[test]
    fn full_parity_evaluate_matches_scalar_bitwise() {
        let arch = presets::toy_linear(9, 1024);
        let shape = ProblemShape::rank1("d", 100);
        let ctx = EvalContext::new(&arch, &shape, ModelOptions::default());
        let mut batch = BatchEvalContext::new(&ctx);
        let mut builder = Mapping::builder(2);
        let mut mappings = Vec::new();
        for s in [1u64, 3, 9, 10] {
            builder.reset();
            builder.set_tile(Dim::M, 0, SlotKind::SpatialX, s);
            let m = builder.build_for_bounds(shape.bounds()).unwrap();
            batch.slot().clone_from(&m);
            batch.commit();
            mappings.push(m);
        }
        let got = batch.evaluate();
        for (lane, m) in mappings.iter().enumerate() {
            assert_eq!(got[lane], evaluate_with(&ctx, m), "lane {lane}");
        }
    }

    /// Lanes committed as fanout-feasible skip only their own fanout
    /// wall: a plainly committed lane in the same batch still meets the
    /// full ladder, fanout before capacity.
    #[test]
    fn fanout_feasible_lanes_leave_other_lanes_the_full_ladder() {
        // One word of scratch: every tile above one element overflows it.
        let arch = presets::toy_linear(9, 2);
        let shape = ProblemShape::rank1("d", 100);
        let ctx = EvalContext::new(&arch, &shape, ModelOptions::default());
        let mut batch = BatchEvalContext::new(&ctx);
        let mut builder = Mapping::builder(2);
        let mut spatial = |s| {
            builder.reset();
            builder.set_tile(Dim::M, 0, SlotKind::SpatialX, s);
            builder.build_for_bounds(shape.bounds()).unwrap()
        };
        let (fits, overflows) = (spatial(3), spatial(10));
        batch.free_slots()[0].clone_from(&fits);
        batch.commit_fanout_feasible(1);
        batch.slot().clone_from(&overflows);
        batch.commit();
        let violations = ctx.violations(&overflows);
        assert!(matches!(
            violations[..],
            [
                InvalidMapping::FanoutExceeded { .. },
                InvalidMapping::CapacityExceeded { .. },
                ..
            ]
        ));
        assert!(matches!(
            ctx.precheck(&fits),
            Err(InvalidMapping::CapacityExceeded { .. })
        ));
        let verdicts = batch.screen();
        assert_eq!(
            verdicts,
            [BatchVerdict::RejectCapacity, BatchVerdict::RejectFanout]
        );
    }

    #[test]
    fn batch_refills_after_clear() {
        let arch = presets::toy_linear(4, 1024);
        let shape = ProblemShape::rank1("d", 12);
        let ctx = EvalContext::new(&arch, &shape, ModelOptions::default());
        let mut batch = BatchEvalContext::new(&ctx);
        while !batch.is_full() {
            batch.commit(); // all-ones default mapping in every lane
        }
        assert_eq!(batch.screen().len(), BATCH);
        batch.clear();
        assert!(batch.is_empty());
        batch.commit();
        assert_eq!(batch.screen().len(), 1);
        assert!(matches!(batch.screen()[0], BatchVerdict::Valid { .. }));
    }
}
