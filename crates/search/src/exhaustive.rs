//! Pruned deterministic enumeration backend.
//!
//! Builds [`ruby_mapspace::EnumTables`] (deduplicated per-dimension tile
//! chains, grouped into fanout-feasible *regions*) and sweeps the leaves
//! in a fixed, probe-guided order:
//!
//! 1. **Probe** — evaluate leaf 0 (the fastest member) of the cheapest
//!    `PROBE_REGIONS` regions by objective floor. A region's probe cost
//!    turns out to rank regions far better than its floor alone.
//! 2. **Scan** — walk regions in probe order, screening every leaf with
//!    [`EvalContext::precheck`]: the exact fanout/capacity tests the
//!    model would run, at a fraction of the price. Rejected leaves are
//!    `pruned_mappings`; survivors are queued *highest buffer pressure
//!    first* (mappings near the capacity boundary reuse the most data
//!    and hold the best candidates). Whole regions whose floor already
//!    exceeds the best are dropped as `pruned_subtrees`.
//! 3. **Rounds** — breadth-first across the scanned batch: each round
//!    hands every region's next `CHUNK` candidates to the worker pool.
//!    Chunks run one at a time (threads split a chunk internally), so
//!    the sequence of chunk barriers is deterministic.
//!
//! Determinism: the candidate sequence is fixed by the tables and the
//! probe costs (both deterministic); pruning compares an *admissible*
//! lower bound against a best-cost snapshot taken at the previous chunk
//! barrier, so a candidate that could be (or tie) the optimum is never
//! discarded, and the snapshot — unlike a live racy read — makes every
//! prune decision, and hence every counter, identical across runs and
//! thread counts. Termination is a patience rule on the same fixed
//! sequence: stop once `termination` candidates have been considered
//! past the first achiever of the current best (see
//! `Record::best_ordinal`).
//!
//! Budget: `max_evaluations` bounds candidates *considered* (scored plus
//! bound-pruned); leaves the capacity screen rejects never consume
//! budget — they are exactly the rejections the random sampler pays a
//! (cheap) model call to discover, surfaced here from the tables alone.
//!
//! Enumeration covers tile chains only (iterators leave permutations at
//! their defaults); a single-threaded pairwise-swap *permutation polish*
//! afterwards spends a small budget reserve refining the winner's loop
//! orders. `exhausted` means every deduplicated chain combination was
//! considered: evaluated, memoized, capacity-screened, or soundly
//! pruned.

use std::sync::PoisonError;

use crate::sync::Ordering;

use ruby_mapping::Mapping;
use ruby_mapspace::{EnumTables, Mapspace, Region, SubspaceIterator};
use ruby_model::EvalContext;

use crate::checkpoint::{Checkpointer, Cursor, ExhaustiveCursor, RandomPhase, SearchCheckpoint};
use crate::{run_random, Rule, SearchConfig, Shared};

/// Candidates per work chunk: the unit of parallel dispatch and of the
/// deterministic barrier at which pruning snapshots and the patience
/// rule are refreshed.
const CHUNK: usize = 256;

/// Regions probed up front. Probes are single evaluations, so this caps
/// the ordering overhead at a few hundred model calls.
const PROBE_REGIONS: usize = 512;

/// Hard cap on leaves decoded by the capacity scan, bounding time and
/// candidate memory when the budget is huge. Hitting it clears
/// `exhausted`.
const MAX_REGION_SCAN: u64 = 1 << 20;

/// One scanned region's surviving candidates, consumed chunk by chunk.
struct RegionWork {
    ri: usize,
    /// `(buffer pressure, leaf index, sequential steps)`, highest
    /// pressure first.
    cands: Vec<(u64, u64, u64)>,
    next: usize,
}

/// Runs the random fallback with the enumeration leg's budget
/// adjustments (an otherwise unbounded exhaustive run gets a finite
/// patience so the fallback terminates).
fn run_fallback(
    mapspace: &Mapspace,
    config: &SearchConfig,
    shared: &Shared,
    budget: Option<u64>,
    cpr: Option<&Checkpointer>,
    rngs: Option<Vec<[u64; 4]>>,
) {
    // Exhaustive mode skips the unbounded-search assert, so give the
    // fallback a finite victory condition.
    let bounded;
    let config = if budget.is_none() && config.termination.is_none() {
        bounded = SearchConfig {
            termination: Some(1_000),
            ..config.clone()
        };
        &bounded
    } else {
        config
    };
    run_random(
        mapspace,
        config,
        shared,
        budget,
        RandomPhase::Fallback,
        cpr,
        rngs,
    );
}

/// Runs pruned enumeration under `budget` considered candidates; returns
/// whether the whole deduplicated chain space was covered. Falls back to
/// random sampling (returning `false`) when the space is too large to
/// tabulate. A resume `cursor` re-enters the leg that wrote it, under the
/// budget it was launched with: an [`ExhaustiveCursor`] restarts the sweep
/// from its last batch barrier (the batch in flight is redone,
/// bit-identically, against the restored counters/memo/best), a
/// [`RandomCursor`](crate::checkpoint::RandomCursor) restarts the
/// fallback from its saved sampler states.
pub(crate) fn run(
    mapspace: &Mapspace,
    config: &SearchConfig,
    shared: &Shared,
    budget: Option<u64>,
    cpr: Option<&Checkpointer>,
    cursor: Option<&Cursor>,
) -> bool {
    let sweep_resume = match cursor {
        Some(Cursor::Random(c)) => {
            // The interrupted run already proved the space untabulable;
            // skip the (expensive) table build and rejoin the fallback.
            run_fallback(
                mapspace,
                config,
                shared,
                c.budget,
                cpr,
                Some(c.rngs.clone()),
            );
            return false;
        }
        Some(Cursor::Exhaustive(c)) => Some(c),
        _ => None,
    };
    let budget = sweep_resume.map_or(budget, |c| c.budget);
    let Some(tables) = mapspace.enum_tables() else {
        run_fallback(mapspace, config, shared, budget, cpr, None);
        return false;
    };

    if sweep_resume.is_none() {
        // A hybrid warm-up records random-phase evaluation counts as the
        // achiever position; restart the patience clock at the
        // enumeration's own ordinal zero. (On resume the checkpoint
        // already holds the enumeration-relative ordinal.)
        shared
            .record
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .best_ordinal = 0;
    }

    // The coordinator drives chunk-scoped worker pools, so liveness is
    // tracked at phase granularity: the configured width while the
    // enumeration runs, zero once it returns.
    shared.progress_set_live(config.threads as u64);

    let num_levels = mapspace.arch().num_levels();
    // 21 pairwise swaps per level, two sweeps, plus the re-check round.
    let polish_cap = num_levels as u64 * 21 * 2 + 1;
    let (select_budget, polish_budget) = match budget {
        Some(b) => {
            let reserve = (b / 8).min(polish_cap);
            (b - reserve, reserve)
        }
        None => (u64::MAX, polish_cap),
    };

    // Each region's private objective floor: all of a region's mappings
    // share one spatial signature, so the energy floor specializes to
    // their exact utilized fanout, and no member runs in fewer than
    // `min_steps` sequential steps.
    let ctx = EvalContext::new(mapspace.arch(), mapspace.shape(), config.model);
    let regions = tables.regions();
    let energy_floor: Vec<f64> = regions
        .iter()
        .map(|r| ctx.energy_floor_for_spatial(&tables.region_spatial_utilization(r)))
        .collect();
    let floor_cost: Vec<f64> = regions
        .iter()
        .enumerate()
        .map(|(i, r)| config.objective.cost_floor(energy_floor[i], r.min_steps))
        .collect();
    let mut order: Vec<usize> = (0..regions.len()).collect();
    order.sort_by(|&a, &b| floor_cost[a].total_cmp(&floor_cost[b]).then(a.cmp(&b)));

    // justified: every architecture has >= 1 level, so the
    // all-ones default factorization always builds.
    let mut mapping = Mapping::builder(num_levels)
        .build_for_bounds(mapspace.shape().bounds())
        .expect("the default mapping is well-formed");

    let mut probe_done = vec![false; regions.len()];
    let mut ordinal = 0u64; // candidates considered so far
    let mut stopped = false;
    let mut complete = true;
    let mut oi = 0usize; // scan cursor into `order`
    let mut scanned = 0u64;
    let mut start_pi = 0usize; // probe cursor into `order`
    let mut probe_cost = vec![f64::INFINITY; regions.len()];
    let mut skip_probe = false;
    if let Some(cursor) = sweep_resume {
        // Restore the sweep coordinates verbatim. A mid-probe checkpoint
        // rejoins the probe loop (the floor-sorted `order` it stored is
        // the pre-sort one); a batch-barrier checkpoint skips straight
        // to the scan, its `order` already probe-sorted.
        order = cursor.order.iter().map(|&ri| ri as usize).collect();
        probe_done = cursor.probe_done.clone();
        ordinal = cursor.ordinal;
        if cursor.probing {
            start_pi = cursor.pi as usize;
            probe_cost = cursor
                .probe_cost
                .iter()
                .map(|&b| f64::from_bits(b))
                .collect();
            if probe_cost.len() != regions.len() {
                probe_cost = vec![f64::INFINITY; regions.len()];
            }
        } else {
            skip_probe = true;
            oi = cursor.oi as usize;
            scanned = cursor.scanned;
        }
    }
    if !skip_probe {
        // Phase 1: probe leaf 0 of the cheapest-floor regions,
        // sequentially (so probe ordinals and the improvement trace are
        // deterministic). Every iteration top is a barrier — the phase
        // is single-threaded — so an interrupt checkpoints right here.
        let probe_count = PROBE_REGIONS.min(order.len());
        for pi in start_pi..probe_count {
            let ri = order[pi];
            if ordinal >= select_budget {
                stopped = true;
                complete = false;
                break;
            }
            if shared.check_interrupt() {
                if let Some(cpr) = cpr {
                    cpr.save(SearchCheckpoint::capture(
                        shared,
                        config,
                        Cursor::Exhaustive(ExhaustiveCursor {
                            budget,
                            order: order.iter().map(|&r| r as u64).collect(),
                            probe_done: probe_done.clone(),
                            oi: 0,
                            ordinal,
                            scanned: 0,
                            probing: true,
                            pi: pi as u64,
                            probe_cost: probe_cost.iter().map(|c| c.to_bits()).collect(),
                        }),
                    ));
                }
                stopped = true;
                complete = false;
                break;
            }
            probe_done[ri] = true;
            // justified: EnumTables only emits regions with
            // `leaves >= 1`, so leaf 0 always decodes.
            SubspaceIterator::new(tables, &regions[ri], 0, 1)
                .next_into(&mut mapping)
                .expect("every region has at least one leaf");
            match ctx.precheck(&mapping) {
                Err(_) if config.prune => {
                    // ordering: Relaxed — statistics counter, read only
                    // after the thread join barrier.
                    shared.pruned_mappings.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    ordinal += 1;
                    shared.charge();
                    // ordering: Relaxed — statistics counter, read only
                    // after the thread join barrier.
                    shared.invalid.fetch_add(1, Ordering::Relaxed);
                }
                Ok(_) => {
                    ordinal += 1;
                    if let Some(cost) = consider(&ctx, config, shared, &mapping, ordinal) {
                        probe_cost[ri] = cost;
                    }
                }
            }
        }

        // The probe phase is a natural snapshot point: the first costs
        // are in and the region ranking is about to be fixed.
        shared.publish_progress();

        // Phase 2 order: probed regions by measured quality, then the
        // unprobed tail by floor (`order` is already floor-sorted).
        order[..probe_count].sort_by(|&a, &b| {
            probe_cost[a]
                .total_cmp(&probe_cost[b])
                .then(floor_cost[a].total_cmp(&floor_cost[b]))
                .then(a.cmp(&b))
        });
    }

    let mut capped = false;
    'outer: while !stopped {
        // Batch barrier: the previous batch's workers joined, so the
        // counters, memo, and best are settled and deterministic. Save
        // the resumable state now — an interrupt anywhere inside the
        // batch below resumes from this point and redoes the batch
        // bit-identically.
        if let Some(cpr) = cpr {
            cpr.save(SearchCheckpoint::capture(
                shared,
                config,
                Cursor::Exhaustive(ExhaustiveCursor {
                    budget,
                    order: order.iter().map(|&ri| ri as u64).collect(),
                    probe_done: probe_done.clone(),
                    oi: oi as u64,
                    ordinal,
                    scanned,
                    probing: false,
                    pi: 0,
                    probe_cost: Vec::new(),
                }),
            ));
        }
        if shared.check_interrupt() {
            complete = false;
            break;
        }
        // Scan regions into a batch holding at least the remaining
        // budget's worth of screened candidates.
        let remaining = select_budget.saturating_sub(ordinal);
        if remaining == 0 {
            if oi < order.len() {
                complete = false;
            }
            break;
        }
        let mut batch: Vec<RegionWork> = Vec::new();
        let mut batch_cands = 0u64;
        while batch_cands < remaining && oi < order.len() {
            let ri = order[oi];
            oi += 1;
            let region = &regions[ri];
            let start = u64::from(probe_done[ri]); // leaf 0 already considered
            let to_decode = region.leaves - start;
            if to_decode == 0 {
                continue;
            }
            // Region subtree cut: the floor is admissible and the best
            // only improves, so nothing in here can win or tie.
            if config.prune && floor_cost[ri] > shared.best_cost() {
                // ordering: Relaxed — statistics counters, read after the
                // join barrier.
                shared.pruned_subtrees.fetch_add(1, Ordering::Relaxed);
                // ordering: Relaxed — statistics counter, as above.
                shared
                    .pruned_mappings
                    .fetch_add(to_decode, Ordering::Relaxed);
                continue;
            }
            if scanned + to_decode > MAX_REGION_SCAN {
                capped = true;
                complete = false;
                break;
            }
            scanned += to_decode;
            let mut cands: Vec<(u64, u64, u64)> = Vec::new();
            let mut it = SubspaceIterator::new(tables, region, start, region.leaves);
            let mut leaf = start;
            while let Some(steps) = it.next_into(&mut mapping) {
                // Drain politely on long scans: one flag/clock poll per
                // 1024 decoded leaves.
                if leaf & 1023 == 0 && shared.check_interrupt() {
                    stopped = true;
                    complete = false;
                    break;
                }
                match ctx.precheck(&mapping) {
                    Ok(pressure) => cands.push((pressure, leaf, steps)),
                    Err(_) if config.prune => {
                        // ordering: Relaxed — statistics counter, read
                        // only after the thread join barrier.
                        shared.pruned_mappings.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        // With pruning off, screened-out leaves are
                        // charged like the random sampler's invalid
                        // draws.
                        ordinal += 1;
                        shared.charge();
                        // ordering: Relaxed — statistics counter, read
                        // only after the thread join barrier.
                        shared.invalid.fetch_add(1, Ordering::Relaxed);
                        if ordinal >= select_budget {
                            stopped = true;
                            complete = false;
                            break;
                        }
                    }
                }
                leaf += 1;
            }
            if stopped {
                break 'outer;
            }
            // Highest buffer pressure first: the best mappings sit near
            // the capacity boundary, and this surfaces them orders of
            // magnitude earlier than native leaf order.
            cands.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            batch_cands += cands.len() as u64;
            if !cands.is_empty() {
                batch.push(RegionWork { ri, cands, next: 0 });
            }
        }
        if batch.is_empty() {
            break;
        }

        // Breadth-first rounds: every region advances by one chunk per
        // round, so a strong region found later still gets depth before
        // the budget runs out.
        let mut pending = batch_cands;
        'rounds: while pending > 0 {
            for rw in batch.iter_mut() {
                if rw.next >= rw.cands.len() {
                    continue;
                }
                if ordinal >= select_budget {
                    stopped = true;
                    break 'rounds;
                }
                if shared.check_interrupt() {
                    stopped = true;
                    complete = false;
                    break 'rounds;
                }
                let take = CHUNK
                    .min(rw.cands.len() - rw.next)
                    .min(usize::try_from(select_budget - ordinal).unwrap_or(usize::MAX));
                let chunk = &rw.cands[rw.next..rw.next + take];
                // The snapshot is deterministic at this barrier (the
                // previous chunk's threads joined); workers prune against
                // it rather than the live (racy) best.
                let snapshot = shared.best_cost();
                process_chunk(
                    tables,
                    &regions[rw.ri],
                    chunk,
                    ordinal,
                    energy_floor[rw.ri],
                    snapshot,
                    &ctx,
                    config,
                    shared,
                );
                rw.next += take;
                pending -= take as u64;
                ordinal += take as u64;
                // Chunk barriers are the enumeration's progress beat:
                // the workers just joined, so the counters are settled.
                shared.publish_progress();
                if let Some(limit) = config.termination {
                    let first = shared
                        .record
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .best_ordinal;
                    if ordinal.saturating_sub(first) >= limit {
                        stopped = true;
                        break 'rounds;
                    }
                }
            }
        }
        if stopped && (pending > 0 || oi < order.len()) {
            complete = false;
        }
    }
    if capped {
        complete = false;
    }

    if shared.is_stopped_early() {
        // Interrupted: the batch-barrier checkpoint above is the resume
        // point, and the polish (which the resumed run will redo in
        // full) is skipped so the drain stays prompt.
        shared.progress_set_live(0);
        return false;
    }

    polish_permutations(mapspace, config, shared, polish_budget, ordinal);
    shared.progress_set_live(0);
    complete
}

/// Charges and scores one enumeration candidate under the sweep's
/// patience rule. Returns the candidate's cost when it is valid (probes
/// use it to rank regions).
fn consider(
    ctx: &EvalContext,
    config: &SearchConfig,
    shared: &Shared,
    mapping: &Mapping,
    ordinal: u64,
) -> Option<f64> {
    let key = mapping.canonical_key();
    shared.charge();
    let scored = shared.score(ctx, config.objective, mapping, key);
    shared.settle(config, Rule::Patience, mapping, Some(key), ordinal, scored)
}

/// Scores one chunk of screened candidates, threads striding the slice.
/// Ordinals are pre-assigned from the slice position, and the floor
/// prune compares against the caller's barrier snapshot, so the chunk's
/// contribution to every counter is independent of scheduling.
#[allow(clippy::too_many_arguments)]
fn process_chunk(
    tables: &EnumTables,
    region: &Region,
    chunk: &[(u64, u64, u64)],
    base_ordinal: u64,
    energy_floor: f64,
    best_snapshot: f64,
    ctx: &EvalContext,
    config: &SearchConfig,
    shared: &Shared,
) {
    let work = |offset: usize| {
        // justified: every architecture has >= 1 level, so
        // the all-ones default factorization always builds.
        let mut mapping = Mapping::builder(ctx.arch().num_levels())
            .build_for_bounds(ctx.shape().bounds())
            .expect("the default mapping is well-formed");
        let mut i = offset;
        while i < chunk.len() {
            let (_, leaf, steps) = chunk[i];
            if config.prune && config.objective.cost_floor(energy_floor, steps) > best_snapshot {
                // ordering: Relaxed — statistics counter, read only
                // after the thread join barrier.
                shared.pruned_mappings.fetch_add(1, Ordering::Relaxed);
            } else {
                // justified: `leaf` came from this region's
                // own scan, so it is in range by construction.
                SubspaceIterator::new(tables, region, leaf, leaf + 1)
                    .next_into(&mut mapping)
                    .expect("leaf index is in range");
                consider(ctx, config, shared, &mapping, base_ordinal + i as u64 + 1);
            }
            i += config.threads;
        }
    };
    if config.threads == 1 {
        work(0);
    } else {
        std::thread::scope(|scope| {
            let work = &work;
            for t in 0..config.threads.min(chunk.len()) {
                scope.spawn(move || work(t));
            }
        });
    }
}

/// Single-threaded coordinate descent over the best mapping's loop
/// orders: try every pairwise swap at every level, keep strict
/// improvements, repeat until a full sweep finds none or the budget
/// reserve runs out. Swaps that do not change the canonical form (both
/// loops trivial at that level) are skipped for free; everything else is
/// scored through the memo, so the accounting identity holds here too.
fn polish_permutations(
    mapspace: &Mapspace,
    config: &SearchConfig,
    shared: &Shared,
    budget: u64,
    base_ordinal: u64,
) {
    if budget == 0 {
        return;
    }
    let Some(best) = shared
        .record
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .best
        .clone()
    else {
        return;
    };
    let ctx = EvalContext::new(mapspace.arch(), mapspace.shape(), config.model);
    let mut current = best.mapping;
    let mut current_cost = best.cost;
    let mut current_key = current.canonical_key();
    let mut spent = 0u64;
    let mut improved = true;
    while improved && spent < budget {
        improved = false;
        'sweep: for level in 0..mapspace.arch().num_levels() {
            for i in 0..6 {
                for j in (i + 1)..7 {
                    if spent >= budget {
                        break 'sweep;
                    }
                    if shared.check_interrupt() {
                        break 'sweep;
                    }
                    let mut cand = current.clone();
                    let mut perm = *cand.permutation(level);
                    perm.swap(i, j);
                    cand.set_permutation(level, perm);
                    let key = cand.canonical_key();
                    if key == current_key {
                        continue; // the swapped loops are trivial here
                    }
                    spent += 1;
                    shared.charge();
                    let scored = shared.score(&ctx, config.objective, &cand, key);
                    let ordinal = base_ordinal + spent;
                    // Memoized costs never beat the best, which the
                    // current mapping holds, so only fresh improvements
                    // move it.
                    let settled =
                        shared.settle(config, Rule::Local, &cand, Some(key), ordinal, scored);
                    if let Some(cost) = settled.filter(|&cost| cost < current_cost) {
                        current = cand;
                        current_cost = cost;
                        current_key = key;
                        improved = true;
                    }
                }
            }
        }
    }
}
