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
//!    ([`Objective::cost_floor`] of the context's energy floor and the
//!    lane's sequential steps: the tables' for listed spaces, computed
//!    for counted ones) is compared with the running best.
//!    When it exceeds `best × (1 + FLOOR_SLACK)` the lane cannot
//!    improve, so it is counted as a valid non-improving candidate
//!    without being costed. The comparison is strict because ties reach
//!    [`record_improvement`]'s canonical-key tie-break, and the
//!    [`FLOOR_SLACK`] headroom absorbs the floor's rounding skew (at
//!    most 1e-9 relative in the soundness tests). The best only
//!    decreases, so a lane skipped against an older best could not have
//!    improved on a newer one either, at any thread count. The step is
//!    off when the hybrid warm-up's memo is present, since that memo
//!    must store every valid lane's exact cost.
//! 4. **Summary.** Surviving lanes pay the full cost pass, reusing the
//!    step count from the floor. Only improvements materialize a full
//!    [`ruby_model::CostReport`]; the other lanes stop at the
//!    allocation-free [`CostSummary`], whose objective cost is
//!    bit-identical (see the batch differential test).
//!
//! None of this changes an outcome or a counter: the walk order,
//! `valid`, the victory counter and the best are exactly those of
//! decoding, fully screening and costing every lane one at a time (see
//! `tests/walk_bound_skip.rs`).
//!
//! The per-candidate protocol (budget reservation with undo, interrupt
//! polls before reservations, progress strides, victory-counter
//! termination, panic quarantine with supervised restarts) mirrors
//! `worker_loop` in `lib.rs`; counters retain their exact meanings, with
//! `duplicates` pinned at zero. Two intentional batch-granularity
//! deviations: interrupt polls and periodic checkpoints happen at batch
//! barriers (so a stop can overshoot by up to `BATCH - 1` candidates,
//! deterministically), and when the worker-restart budget drains
//! mid-batch the already-charged lanes are still classified so the
//! `evaluations = valid + invalid + duplicates` identity holds.

use ruby_mapspace::{EnumTables, Mapspace, PermutedIterator};
use ruby_model::{BatchEvalContext, BatchVerdict, CostSummary, EvalContext, BATCH, FLOOR_SLACK};
use ruby_telemetry::LazyCounter;

use crate::checkpoint::{Checkpointer, Cursor, PermutedCursor, RandomPhase, SearchCheckpoint};
use crate::sync::Ordering;
use crate::{
    engine, note_miss, quarantine, record_improvement, try_improve, Objective, SearchConfig,
    Shared, STOP_REASON_WORKER_FAILURES,
};

/// Permuted walks launched (the space tabulated) vs. rejected back to
/// the rejection sampler, once per run.
static WALK_RUNS: LazyCounter = LazyCounter::new("search.permuted.runs");
static WALK_FALLBACKS: LazyCounter = LazyCounter::new("search.permuted.fallbacks");
/// Valid lanes the bound-before-cost step counted without costing.
static BOUND_SKIPS: LazyCounter = LazyCounter::new("search.permuted.bound_skips");

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
    let Some(tables) = mapspace.enum_tables() else {
        WALK_FALLBACKS.add(1);
        return None;
    };
    let Some(total) = tables.exact_total_leaves() else {
        WALK_FALLBACKS.add(1);
        return None;
    };
    WALK_RUNS.add(1);
    let ranges = match resume {
        Some(positions) => positions,
        None => partition(total, config.threads),
    };
    let final_positions: Vec<(u64, u64)> = if config.threads == 1 {
        // Only the single-threaded worker checkpoints in-loop: with one
        // thread the loop is deterministic, so the periodic snapshots
        // sit on the uninterrupted run's own trajectory.
        let range = ranges.first().copied().unwrap_or((0, 0));
        vec![walk_worker(
            mapspace, tables, config, shared, budget, range, phase, cpr,
        )]
    } else {
        std::thread::scope(|scope| {
            let tables = &tables;
            let handles: Vec<_> = ranges
                .iter()
                .map(|&range| {
                    scope.spawn(move || {
                        walk_worker(mapspace, tables, config, shared, budget, range, phase, None)
                    })
                })
                .collect();
            handles
                .into_iter()
                // A join error means a panic escaped the supervised
                // worker body (a harness bug); degrade to an empty range.
                .map(|h| h.join().unwrap_or((0, 0)))
                .collect()
        })
    };
    if shared.is_stopped_early() {
        if let Some(cpr) = cpr {
            cpr.save(SearchCheckpoint::capture(
                shared,
                config,
                Cursor::Permuted(PermutedCursor {
                    phase,
                    budget,
                    positions: final_positions,
                }),
            ));
        }
        return Some(false);
    }
    // The walk covered its whole index space only when every worker ran
    // dry and nothing (budget, termination) raised the stop flag first.
    // ordering: Relaxed — read after the join barrier above.
    let complete = !shared.stop.load(Ordering::Relaxed)
        && final_positions.iter().all(|&(pos, end)| pos == end);
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

/// One supervised walk worker (the permuted analogue of `worker` in
/// `lib.rs`): the loop body runs under `catch_unwind`, and a panic that
/// escapes the per-lane containment in [`score_lane`] quarantines the
/// candidate in flight and restarts the body — up to
/// [`SearchConfig::max_worker_restarts`] times, after which the run
/// drains with `stop_reason: "worker-failures"`. Returns the final
/// `(position, end)` pair for the drain checkpoint.
#[allow(clippy::too_many_arguments)]
fn walk_worker(
    mapspace: &Mapspace,
    tables: &EnumTables,
    config: &SearchConfig,
    shared: &Shared,
    budget: Option<u64>,
    range: (u64, u64),
    phase: RandomPhase,
    cpr: Option<&Checkpointer>,
) -> (u64, u64) {
    let ctx = EvalContext::new(mapspace.arch(), mapspace.shape(), config.model);
    let mut batch = BatchEvalContext::new(&ctx);
    // justified: the caller proved the tables tabulate (its
    // exact_total_leaves returned Some), so the iterator constructs.
    let mut walk = PermutedIterator::new(tables, config.seed, range.0, range.1)
        .expect("caller verified the tables tabulate");
    shared.progress_thread_started();
    let mut restarts_left = config.max_worker_restarts;
    loop {
        let mut last_key: Option<u64> = None;
        let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            walk_loop(
                config,
                shared,
                budget,
                &mut batch,
                &mut walk,
                phase,
                cpr,
                &mut restarts_left,
                &mut last_key,
            )
        }));
        match body {
            Ok(()) => break,
            Err(_) => {
                // Best-effort accounting, as in `worker`: when the panic
                // struck outside the per-lane containment (decode or
                // screen), the charged-but-unclassified lanes stay a
                // one-off slack in the accounting identity.
                if let Some(key) = last_key {
                    quarantine(shared, key);
                }
                // ordering: Relaxed — statistics counter, read after the
                // join barrier.
                shared.worker_restarts.fetch_add(1, Ordering::Relaxed);
                if restarts_left == 0 {
                    shared.mark_stopped_early(STOP_REASON_WORKER_FAILURES);
                    break;
                }
                restarts_left -= 1;
            }
        }
    }
    shared.progress_thread_stopped();
    (walk.position(), walk.end())
}

#[allow(clippy::too_many_arguments)]
fn walk_loop(
    config: &SearchConfig,
    shared: &Shared,
    budget: Option<u64>,
    batch: &mut BatchEvalContext<'_, '_>,
    walk: &mut PermutedIterator<'_>,
    phase: RandomPhase,
    cpr: Option<&Checkpointer>,
    restarts_left: &mut u64,
    last_key: &mut Option<u64>,
) {
    // The plain random path has no memo — the walk itself guarantees
    // zero duplicates — so it may bound before costing. Hybrid-warmup
    // evaluations still insert (never probe) so the enumeration leg
    // dedups against them, and that memo needs every valid lane's exact
    // cost.
    let bound = shared
        .memo
        .is_none()
        .then(|| (config.objective, batch.context().energy_floor()));
    let mut ordinals = [0u64; BATCH];
    let mut leaves = [0u64; BATCH];
    let mut steps = [0u64; BATCH];
    let mut verdicts = [BatchVerdict::RejectFanout; BATCH];
    let mut saved_epoch = match cpr {
        // ordering: Relaxed — value-only counter read at a barrier.
        Some(cpr) => shared.evals.load(Ordering::Relaxed) / cpr.stride(),
        None => 0,
    };
    // ordering: Relaxed — the stop flag is advisory: seeing it late only
    // costs part of a batch, and the spawning scope's join is the real
    // synchronization point for the final counter reads.
    while !shared.stop.load(Ordering::Relaxed) {
        *last_key = None;
        if walk.position() == walk.end() {
            break;
        }
        if let Some(cpr) = cpr {
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
                cpr.save(SearchCheckpoint::capture(
                    shared,
                    config,
                    Cursor::Permuted(PermutedCursor {
                        phase,
                        budget,
                        positions: vec![(walk.position(), walk.end())],
                    }),
                ));
            }
        }
        // Reserve up to a batch of candidates; the walk only advances for
        // candidates whose budget reservation succeeded.
        batch.clear();
        let mut dry = false;
        let mut lanes = 0;
        while lanes < BATCH {
            // Interrupt poll sits before the budget reservation (exactly
            // like worker_loop) so stop tokens and deadlines fire
            // per-candidate even when the whole walk fits in one batch,
            // and draining never needs an undo. Lanes already committed
            // this round are still classified below, so the accounting
            // identity holds and the drained cursor stays exact.
            if shared.check_interrupt() {
                break;
            }
            // ordering: Relaxed — budget reservation counter; only its
            // arithmetic value matters, no payload rides on it.
            let evals = shared.evals.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(max) = budget {
                if evals > max {
                    // Undo the reservation so the reported total never
                    // exceeds the cap, however many threads raced here.
                    // ordering: Relaxed — same counter/flag discipline
                    // as the reservation above.
                    shared.evals.fetch_sub(1, Ordering::Relaxed);
                    shared.stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
            let Some(leaf) = walk.next_index() else {
                // This worker's slice of the walk ran dry: hand the
                // unused reservation back.
                // ordering: Relaxed — same counter discipline as above.
                shared.evals.fetch_sub(1, Ordering::Relaxed);
                dry = true;
                break;
            };
            // One masked branch per candidate; the publish itself runs
            // once per stride per thread (see worker_loop).
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
            match score_lane(batch, lane, valid, steps, bound, shared) {
                LaneScore::Invalid => {
                    // ordering: Relaxed — statistics counter, read only
                    // after the thread join barrier.
                    shared.invalid.fetch_add(1, Ordering::Relaxed);
                    if let Some(memo) = &shared.memo {
                        memo.insert(batch.mapping(lane).canonical_key(), f64::INFINITY);
                    }
                }
                LaneScore::Panicked => {
                    quarantine(shared, batch.mapping(lane).canonical_key());
                    // ordering: Relaxed — statistics counter, read after
                    // the join barrier.
                    shared.worker_restarts.fetch_add(1, Ordering::Relaxed);
                    if *restarts_left == 0 {
                        // Drain — but finish classifying the lanes
                        // already charged to the budget so the
                        // accounting identity holds.
                        shared.mark_stopped_early(STOP_REASON_WORKER_FAILURES);
                    } else {
                        *restarts_left -= 1;
                    }
                }
                LaneScore::Bounded => {
                    // A valid lane whose floor already lost: counted
                    // exactly as the non-improving lane it would have
                    // been had it been costed.
                    skipped += 1;
                    // ordering: Relaxed — statistics counter, read only
                    // after the thread join barrier.
                    shared.valid.fetch_add(1, Ordering::Relaxed);
                    note_miss(shared, config);
                }
                LaneScore::Valid(summary) => {
                    // ordering: Relaxed — statistics counter, read only
                    // after the thread join barrier.
                    shared.valid.fetch_add(1, Ordering::Relaxed);
                    let cost = config.objective.cost_of_summary(&summary);
                    if let Some(memo) = &shared.memo {
                        memo.insert(batch.mapping(lane).canonical_key(), cost);
                    }
                    let mut improved = false;
                    if try_improve(shared, cost) {
                        // Only improvements materialize the full report;
                        // its cost quantities are bit-identical to the
                        // summary's (batch differential test). The key
                        // guards the uncontained report/record calls.
                        *last_key = Some(batch.mapping(lane).canonical_key());
                        let report = batch.report(lane);
                        improved = record_improvement(
                            shared,
                            config,
                            batch.mapping(lane),
                            report,
                            cost,
                            ordinals[lane],
                        );
                        *last_key = None;
                    }
                    if improved {
                        // ordering: Relaxed — approximate victory-counter
                        // reset (Timeloop semantics, see worker_loop).
                        shared.fails.store(0, Ordering::Relaxed);
                    } else {
                        note_miss(shared, config);
                    }
                }
            }
        }
        BOUND_SKIPS.add(skipped);
        if dry {
            break;
        }
    }
}

/// How one lane scored, with panics contained (the batched analogue of
/// [`crate::Scored`]; the summary replaces the full report).
enum LaneScore {
    Valid(CostSummary),
    /// Valid, but its cost floor already exceeds the running best, so
    /// it was never costed: it cannot improve on or tie the best.
    Bounded,
    Invalid,
    Panicked,
}

/// The per-lane model-call site: runs the `search.eval` failpoint (so
/// resilience tests can inject evaluation panics on this path too, on
/// every lane), then bounds and summarizes screened-valid lanes. `steps`
/// is the lane's step count when the decoder read it from the tables;
/// otherwise a valid lane computes it. With `bound = Some((objective,
/// energy floor))` a valid lane whose cost floor exceeds the running
/// best by more than [`FLOOR_SLACK`] skips the summary.
fn score_lane(
    batch: &BatchEvalContext<'_, '_>,
    lane: usize,
    valid: bool,
    steps: Option<u64>,
    bound: Option<(Objective, f64)>,
    shared: &Shared,
) -> LaneScore {
    let scored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if matches!(
            ruby_failpoints::hit("search.eval"),
            ruby_failpoints::Action::Panic
        ) {
            // justified: deliberate: this is the injected
            // fault the supervised workers must recover from.
            panic!("failpoint search.eval: injected evaluation panic");
        }
        if !valid {
            return LaneScore::Invalid;
        }
        let mapping = batch.mapping(lane);
        let steps = steps.unwrap_or_else(|| mapping.compute_cycles());
        debug_assert_eq!(steps, mapping.compute_cycles(), "table steps");
        if let Some((objective, energy_floor)) = bound {
            // ordering: Relaxed — value-only snapshot of the best cost.
            // The best only decreases, so a stale read skips less, never
            // wrongly.
            let best = f64::from_bits(shared.best_bits.load(Ordering::Relaxed));
            if objective.cost_floor(energy_floor, steps) > best * (1.0 + FLOOR_SLACK) {
                return LaneScore::Bounded;
            }
        }
        LaneScore::Valid(batch.summary(lane, steps))
    }));
    scored.unwrap_or_else(|payload| {
        // Silence the payload; the panic is contained and accounted for
        // via quarantine at the call site.
        drop(payload);
        LaneScore::Panicked
    })
}
