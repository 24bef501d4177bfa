//! Oracle for the permuted walk's bound-before-cost step: skipping the
//! cost summary of lanes whose admissible floor already loses must not
//! change any search outcome.
//!
//! At one thread a `SearchStrategy::Random` walk is compared with a
//! scalar replay of the same Feistel sequence that costs *every* valid
//! candidate with [`evaluate_with`]: same visit order, the tie rule of
//! `try_improve`/`record_improvement` (strict improvements extend the
//! trace, exact ties keep the smaller canonical key), the victory
//! counter, and the batch-barrier stop (a stop raised mid-batch still
//! classifies the rest of that batch, so the run overshoots by up to
//! `BATCH - 1` candidates). Best, counters and trace must agree
//! exactly.
//!
//! The bound-skip counter is process-global, so this file holds a
//! single test and reads it as a delta.

use ruby_arch::presets;
use ruby_mapping::Mapping;
use ruby_mapspace::{Mapspace, MapspaceKind, PermutedIterator};
use ruby_model::{evaluate_with, CostReport, EvalContext, BATCH};
use ruby_search::{Engine, Objective, SearchConfig, SearchOutcome, SearchStrategy};
use ruby_workload::ProblemShape;

const SEED: u64 = 7;
const BUDGET: u64 = 2_000;
const MAX_TRACE: usize = 4_096;

/// What the scalar replay predicts for the walk's outcome.
#[derive(Debug, PartialEq)]
struct Replay {
    best: Option<(u64, Mapping, CostReport)>,
    evaluations: u64,
    valid: u64,
    invalid: u64,
    trace: Vec<(u64, u64)>,
}

fn replay(space: &Mapspace, objective: Objective, termination: Option<u64>) -> Replay {
    let ctx = EvalContext::new(space.arch(), space.shape(), Default::default());
    let tables = space.enum_tables().expect("space tabulates");
    let total = tables.exact_total_leaves().expect("index space fits u64");
    let mut walk = PermutedIterator::new(tables, SEED, 0, total).expect("walkable");
    let mut mapping = Mapping::builder(space.arch().num_levels())
        .build_for_bounds(space.shape().bounds())
        .expect("default mapping");
    let mut out = Replay {
        best: None,
        evaluations: 0,
        valid: 0,
        invalid: 0,
        trace: Vec::new(),
    };
    let mut best_cost = f64::INFINITY;
    let mut fails = 0u64;
    let mut stop = false;
    // One iteration per batch: the walk checks its stop flag only at
    // batch barriers.
    while !stop {
        let mut lanes = 0;
        let mut dry = false;
        while lanes < BATCH {
            if out.evaluations == BUDGET {
                stop = true;
                break;
            }
            if walk.next_into(&mut mapping).is_none() {
                dry = true;
                break;
            }
            lanes += 1;
            out.evaluations += 1;
            let ordinal = out.evaluations;
            let Ok(report) = evaluate_with(&ctx, &mapping) else {
                out.invalid += 1;
                continue;
            };
            out.valid += 1;
            let cost = objective.cost(&report);
            if cost < best_cost {
                best_cost = cost;
                out.trace.push((ordinal, cost.to_bits()));
                out.best = Some((cost.to_bits(), mapping.clone(), report));
                fails = 0;
                continue;
            }
            if cost == best_cost {
                let (_, kept, _) = out.best.as_ref().expect("a tie has a best");
                if mapping.canonical_key() < kept.canonical_key() {
                    out.best = Some((cost.to_bits(), mapping.clone(), report));
                }
            }
            fails += 1;
            if termination.is_some_and(|limit| fails >= limit) {
                stop = true;
            }
        }
        if dry {
            break;
        }
    }
    out
}

fn observed(outcome: &SearchOutcome) -> Replay {
    Replay {
        best: outcome
            .best
            .as_ref()
            .map(|b| (b.cost.to_bits(), b.mapping.clone(), b.report.clone())),
        evaluations: outcome.evaluations,
        valid: outcome.valid,
        invalid: outcome.invalid,
        trace: outcome
            .trace
            .iter()
            .map(|&(n, c)| (n, c.to_bits()))
            .collect(),
    }
}

fn bound_skips() -> u64 {
    ruby_telemetry::registry()
        .counter("search.permuted.bound_skips")
        .get()
}

#[test]
fn bound_skip_walk_matches_scalar_replay() {
    let eyeriss = || presets::eyeriss_like(14, 12);
    let spaces = [
        (presets::toy_linear(16, 1024), ProblemShape::rank1("d", 113)),
        (
            eyeriss(),
            ProblemShape::conv("c", 1, 64, 32, 14, 14, 3, 3, (1, 1)),
        ),
        (eyeriss(), ProblemShape::gemm("g", 48, 40, 20)),
    ];
    let mut edp_skips = 0;
    for (arch, shape) in &spaces {
        for kind in [MapspaceKind::Pfm, MapspaceKind::RubyS, MapspaceKind::Ruby] {
            let space = Mapspace::new(arch.clone(), shape.clone(), kind);
            for objective in [Objective::Edp, Objective::Energy, Objective::Delay] {
                for termination in [None, Some(150)] {
                    let builder = SearchConfig::builder()
                        .seed(SEED)
                        .threads(1)
                        .strategy(SearchStrategy::Random)
                        .objective(objective)
                        .max_evaluations(BUDGET as i64)
                        .max_trace(MAX_TRACE);
                    let config = match termination {
                        Some(limit) => builder.termination(limit as i64),
                        None => builder.no_termination(),
                    }
                    .build()
                    .expect("valid config");
                    let before = bound_skips();
                    let outcome = Engine::new(&space).with_config(config).run();
                    if objective == Objective::Edp {
                        edp_skips += bound_skips() - before;
                    }
                    let case = format!("{} {kind:?} {objective} {termination:?}", shape.name());
                    let want = replay(&space, objective, termination);
                    assert!(want.best.is_some(), "{case}: no valid mapping");
                    assert_eq!(observed(&outcome), want, "{case}");
                    assert!(!outcome.stopped_early, "{case}");
                    assert_eq!(outcome.pruned_mappings, 0, "{case}");
                    assert_eq!(outcome.duplicates, 0, "{case}");
                }
            }
        }
    }
    assert!(edp_skips > 0, "no EDP lane was ever bound-skipped");
}
