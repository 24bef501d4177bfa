//! The permuted batched sampling driver: the default random path when
//! the space tabulates.
//!
//! Instead of rejection-sampling with a dedup memo, the driver walks the
//! deduplicated enumeration index space (`EnumTables` leaves) in the
//! order of a seeded format-preserving permutation
//! ([`ruby_mapspace::FeistelPermutation`]). Every candidate is therefore
//! distinct by construction — zero duplicates, no memo probes, no
//! rejection waste — and the walk's position *is* the resume cursor:
//! [`crate::checkpoint::PermutedCursor`] stores one `(position, end)`
//! pair per worker, and re-seeding the permutation regenerates the
//! remaining visit sequence bit-identically.
//!
//! Each round reserves up to [`BATCH`] walk positions (one budget
//! reservation and interrupt poll per candidate), then:
//!
//! 1. **Decode.** The reserved positions' leaves are decoded side by
//!    side into a [`BatchEvalContext`] (SoA layout) by one
//!    [`EnumTables::leaves_into`] call, so the lanes' table loads
//!    overlap. Listed tables (PFM, Ruby-S) hand over each lane's
//!    sequential steps with its chains.
//! 2. **Screen.** Regions are fanout-feasible by construction, so the
//!    lanes are committed without their spatial extents
//!    ([`BatchEvalContext::commit_fanout_feasible`]) and the branchless
//!    ladder runs only its capacity pass.
//! 3. **Floor.** A valid lane's admissible cost floor
//!    ([`crate::Objective::cost_floor`] of the context's energy floor and the
//!    lane's sequential steps: the tables' for listed spaces, computed
//!    for counted ones) is compared with the running best.
//!    When it exceeds `best × (1 + FLOOR_SLACK)` the lane cannot
//!    improve, so it is counted as a valid non-improving candidate
//!    without being costed. The comparison is strict because ties reach
//!    [`crate::record_improvement`]'s canonical-key tie-break, and the
//!    [`FLOOR_SLACK`] headroom absorbs the floor's rounding skew (at
//!    most 1e-9 relative in the soundness tests). The best only
//!    decreases, so a lane skipped against an older best could not have
//!    improved on a newer one either, at any thread count. The step is
//!    off when the hybrid warm-up's memo is present, since that memo
//!    must store every valid lane's exact cost.
//! 4. **Summary.** Surviving lanes pay the full cost pass, reusing the
//!    step count from the floor. Only improvements materialize a full
//!    [`ruby_model::CostReport`]; the other lanes stop at the
//!    allocation-free [`ruby_model::CostSummary`], whose objective cost is
//!    bit-identical (see the batch differential test).
//!
//! None of this changes an outcome or a counter: the walk order,
//! `valid`, the victory counter and the best are exactly those of
//! decoding, fully screening and costing every lane one at a time (see
//! `tests/walk_bound_skip.rs`).
//!
//! Everything else is the per-candidate protocol every strategy shares
//! (see the crate docs): the fan-out and drain checkpoint, supervised
//! restarts, budget reservation with undo, panic containment, and
//! settlement under Timeloop's victory rule. Counters keep their exact
//! meanings, with `duplicates` pinned at zero. Two intentional
//! batch-granularity deviations from the sampler: periodic checkpoints
//! and the stop-flag check happen at batch barriers (so a stop can
//! overshoot by up to `BATCH - 1` candidates, deterministically), and
//! when the worker-restart budget drains mid-batch the lanes already
//! reserved are still settled so the `evaluations = valid + invalid +
//! duplicates` identity holds.

use ruby_mapspace::{EnumTables, Mapspace, PermutedIterator};
use ruby_model::{BatchEvalContext, BatchVerdict, CostReport, EvalContext, BATCH, FLOOR_SLACK};
use ruby_telemetry::LazyCounter;

use crate::checkpoint::{Checkpointer, Cursor, PermutedCursor, RandomPhase, SearchCheckpoint};
use crate::sync::Ordering;
use crate::{contain, engine, fan_out, supervise, Rule, Scored, SearchConfig, Shared, Worker};

/// Permuted walks launched (the space tabulated) vs. rejected back to
/// the rejection sampler, once per run.
static WALK_RUNS: LazyCounter = LazyCounter::new("search.permuted.runs");
static WALK_FALLBACKS: LazyCounter = LazyCounter::new("search.permuted.fallbacks");
/// Valid lanes the bound-before-cost step counted without costing.
static BOUND_SKIPS: LazyCounter = LazyCounter::new("search.permuted.bound_skips");

/// Builds a drain or periodic checkpoint cursor from worker positions.
type CursorOf<'a> = &'a dyn Fn(&[(u64, u64)]) -> Cursor;

/// Attempts the permuted batched walk over `mapspace`.
///
/// Returns `None` when the space cannot be tabulated (table build
/// failure or an index space wider than `u64`); the caller falls back to
/// the rejection sampler, and because both failure modes are
/// deterministic the same config resumes onto the same path. Otherwise
/// returns whether the walk provably covered its whole index space
/// (ran dry on every worker without an early stop).
pub(crate) fn run(
    mapspace: &Mapspace,
    config: &SearchConfig,
    shared: &Shared,
    budget: Option<u64>,
    phase: RandomPhase,
    cpr: Option<&Checkpointer>,
    resume: Option<Vec<(u64, u64)>>,
) -> Option<bool> {
    let tabulated = mapspace
        .enum_tables()
        .and_then(|tables| Some((tables, tables.exact_total_leaves()?)));
    let Some((tables, total)) = tabulated else {
        WALK_FALLBACKS.add(1);
        return None;
    };
    WALK_RUNS.add(1);
    let ranges = resume.unwrap_or_else(|| partition(total, config.threads));
    let cursor = |positions: &[(u64, u64)]| {
        Cursor::Permuted(PermutedCursor {
            phase,
            budget,
            positions: positions.to_vec(),
        })
    };
    let worker = |(start, end), cpr: Option<&Checkpointer>| {
        let ctx = EvalContext::new(mapspace.arch(), mapspace.shape(), config.model);
        let mut batch = BatchEvalContext::new(&ctx);
        // justified: the tables tabulated above (their
        // exact_total_leaves returned Some), so the iterator constructs.
        let mut walk =
            PermutedIterator::new(tables, config.seed, start, end).expect("the tables tabulate");
        let periodic = cpr.map(|cpr| (cpr, &cursor as CursorOf<'_>));
        supervise(config, shared, |worker| {
            walk_loop(
                config, shared, budget, &mut batch, &mut walk, worker, periodic,
            );
        });
        (walk.position(), walk.end())
    };
    let finals = fan_out(config, shared, cpr, ranges, worker, cursor);
    if shared.is_stopped_early() {
        return Some(false);
    }
    // The walk covered its whole index space only when every worker ran
    // dry and nothing (budget, termination) raised the stop flag first.
    // ordering: Relaxed — read after the join barrier above.
    let complete =
        !shared.stop.load(Ordering::Relaxed) && finals.iter().all(|&(pos, end)| pos == end);
    Some(complete)
}

/// Whether [`run`] walks `mapspace` rather than returning `None`.
pub(crate) fn walkable(mapspace: &Mapspace) -> bool {
    mapspace
        .enum_tables()
        .and_then(EnumTables::exact_total_leaves)
        .is_some()
}

/// Splits `[0, total)` into one contiguous range per worker. Disjoint
/// position ranges under one shared permutation give disjoint candidate
/// sets, so workers never collide and never need the memo.
fn partition(total: u64, threads: usize) -> Vec<(u64, u64)> {
    let t = threads as u64;
    let chunk = total / t;
    let rem = total % t;
    (0..t)
        .map(|i| {
            let start = i * chunk + i.min(rem);
            let len = chunk + u64::from(i < rem);
            (start, start + len)
        })
        .collect()
}

/// One walk worker's supervised body: batch after batch, reserve up to
/// [`BATCH`] walk positions, decode and screen them side by side, then
/// score and settle each lane. `periodic` carries the checkpointer of a
/// single-threaded run.
fn walk_loop(
    config: &SearchConfig,
    shared: &Shared,
    budget: Option<u64>,
    batch: &mut BatchEvalContext<'_, '_>,
    walk: &mut PermutedIterator<'_>,
    worker: &mut Worker,
    periodic: Option<(&Checkpointer, CursorOf<'_>)>,
) {
    // The plain random path has no memo — the walk itself guarantees
    // zero duplicates — so it may bound before costing. Hybrid-warmup
    // evaluations still insert (never probe) so the enumeration leg
    // dedups against them, and that memo needs every valid lane's exact
    // cost.
    let floor = shared
        .memo
        .is_none()
        .then(|| batch.context().energy_floor());
    let mut ordinals = [0u64; BATCH];
    let mut leaves = [0u64; BATCH];
    let mut steps = [0u64; BATCH];
    let mut verdicts = [BatchVerdict::RejectFanout; BATCH];
    let mut saved_epoch = match periodic {
        // ordering: Relaxed — value-only counter read at a barrier.
        Some((cpr, _)) => shared.evals.load(Ordering::Relaxed) / cpr.stride(),
        None => 0,
    };
    // ordering: Relaxed — the stop flag is advisory: seeing it late only
    // costs part of a batch, and the spawning scope's join is the real
    // synchronization point for the final counter reads.
    while !shared.stop.load(Ordering::Relaxed) {
        if walk.position() == walk.end() {
            break;
        }
        if let Some((cpr, cursor)) = periodic {
            // Batch barriers advance the counter by up to BATCH per
            // round, so the periodic save fires on stride-epoch
            // crossings rather than exact multiples.
            // ordering: Relaxed — value-only counter read; with one
            // thread (the only checkpointing mode) this loop is the
            // only writer.
            let done = shared.evals.load(Ordering::Relaxed);
            let epoch = done / cpr.stride();
            if done > 0 && epoch > saved_epoch {
                saved_epoch = epoch;
                let position = [(walk.position(), walk.end())];
                cpr.save(SearchCheckpoint::capture(shared, config, cursor(&position)));
            }
        }
        // Reserve up to a batch of candidates; the walk only advances for
        // candidates whose budget reservation succeeded. The interrupt
        // poll inside each reservation fires per candidate even when the
        // whole walk fits in one batch; lanes already reserved this round
        // are still settled below, so the accounting identity holds and
        // the drained cursor stays exact.
        batch.clear();
        let mut dry = false;
        let mut lanes = 0;
        while lanes < BATCH {
            let Some(evals) = shared.reserve(budget) else {
                break;
            };
            let Some(leaf) = walk.next_index() else {
                // This worker's slice of the walk ran dry: hand the
                // unused reservation back.
                shared.unreserve();
                dry = true;
                break;
            };
            // One masked branch per candidate; the publish itself runs
            // once per stride per thread.
            if evals & (engine::PROGRESS_STRIDE - 1) == 0 {
                shared.publish_progress();
            }
            ordinals[lanes] = evals;
            leaves[lanes] = leaf;
            lanes += 1;
        }
        // Decode the reserved leaves side by side. Regions are
        // fanout-feasible by construction, so the lanes skip the fanout
        // wall; listed tables also hand over each lane's steps.
        let listed = walk.tables().leaves_into(
            &leaves[..lanes],
            &mut batch.free_slots()[..lanes],
            &mut steps[..lanes],
        );
        batch.commit_fanout_feasible(lanes);
        if lanes > 0 {
            verdicts[..lanes].copy_from_slice(batch.screen());
        }
        let mut skipped = 0u64;
        for lane in 0..lanes {
            let valid = matches!(verdicts[lane], BatchVerdict::Valid { .. });
            let steps = listed.then_some(steps[lane]);
            let scored = score_lane(batch, lane, valid, steps, floor, config, shared);
            skipped += u64::from(matches!(scored, Scored::Bounded));
            shared.settle(
                config,
                Rule::Victory(worker),
                batch.mapping(lane),
                None,
                ordinals[lane],
                scored,
            );
        }
        BOUND_SKIPS.add(skipped);
        if dry {
            break;
        }
    }
}

/// Scores one screened lane under [`contain`]. `steps` is the lane's
/// step count when the decoder read it from the tables; otherwise a
/// valid lane computes it. With an energy `floor` a valid lane whose
/// cost floor exceeds the running best by more than [`FLOOR_SLACK`] is
/// [`Scored::Bounded`] without its summary; the others pay the summary,
/// and only an improvement materializes the full report.
fn score_lane<'b>(
    batch: &'b BatchEvalContext<'_, '_>,
    lane: usize,
    valid: bool,
    steps: Option<u64>,
    floor: Option<f64>,
    config: &SearchConfig,
    shared: &Shared,
) -> Scored<impl FnOnce() -> CostReport + 'b> {
    contain(|| {
        if !valid {
            return Scored::Invalid;
        }
        let mapping = batch.mapping(lane);
        let steps = steps.unwrap_or_else(|| mapping.compute_cycles());
        debug_assert_eq!(steps, mapping.compute_cycles(), "table steps");
        // The best only decreases, so a stale read skips less, never
        // wrongly.
        if floor.is_some_and(|floor| {
            config.objective.cost_floor(floor, steps) > shared.best_cost() * (1.0 + FLOOR_SLACK)
        }) {
            return Scored::Bounded;
        }
        let cost = config
            .objective
            .cost_of_summary(&batch.summary(lane, steps));
        Scored::Valid(cost, move || batch.report(lane))
    })
}
