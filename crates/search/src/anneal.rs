//! Simulated-annealing search over a mapspace.
//!
//! The paper's results use plain random sampling so that mapspace quality
//! — not search cleverness — drives the comparisons, but it notes the
//! mapspaces are "orthogonal to these search strategies and can leverage
//! them for improved performance" (GAMMA, Mind Mappings, CoSA). This
//! module provides one such strategy: local search with an annealing
//! acceptance rule, whose neighborhood moves are
//!
//! * **re-tile** — replace one dimension's tile chain with that
//!   dimension's chain from a fresh sample of the same mapspace (so every
//!   visited mapping stays inside the mapspace's factorization rules);
//! * **re-order** — swap two dimensions in one level's temporal
//!   permutation.
//!
//! # Examples
//!
//! ```
//! use ruby_arch::presets;
//! use ruby_mapspace::{Mapspace, MapspaceKind};
//! use ruby_search::anneal::{anneal, AnnealConfig};
//! use ruby_workload::ProblemShape;
//!
//! let space = Mapspace::new(
//!     presets::toy_linear(16, 1024),
//!     ProblemShape::rank1("d", 113),
//!     MapspaceKind::RubyS,
//! );
//! let outcome = anneal(&space, &AnnealConfig::default());
//! assert_eq!(outcome.best.unwrap().report.cycles(), 8);
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ruby_mapping::Mapping;
use ruby_mapspace::Mapspace;
use ruby_model::{EvalContext, ModelOptions};
use ruby_workload::{Dim, DimMap};

use crate::checkpoint::{AnnealCursor, Checkpointer, Cursor, SearchCheckpoint};
use crate::{
    engine, MemoCache, Objective, Rule, SearchConfig, SearchOutcome, SearchStrategy, Shared,
};

/// Annealing parameters.
#[derive(Debug, Clone)]
pub struct AnnealConfig {
    /// RNG seed.
    pub seed: u64,
    /// Total neighbor evaluations.
    pub steps: u64,
    /// Initial temperature as a fraction of the starting cost.
    pub initial_temperature: f64,
    /// Geometric cooling factor per step (just below 1).
    pub cooling: f64,
    /// Samples drawn to find a valid starting point before giving up.
    pub max_restart_attempts: u64,
    /// What to minimize.
    pub objective: Objective,
    /// Cost-model options.
    pub model: ModelOptions,
    /// Memoize evaluated canonical keys: revisited mappings (the local
    /// moves cycle a lot) reuse their recorded cost instead of paying a
    /// model evaluation, counted in [`SearchOutcome::duplicates`].
    pub dedup: bool,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            seed: 0,
            steps: 2_000,
            initial_temperature: 0.2,
            cooling: 0.997,
            max_restart_attempts: 2_000,
            objective: Objective::Edp,
            model: ModelOptions::default(),
            dedup: true,
        }
    }
}

/// The annealing acceptance rule. The RNG draw happens only when the
/// candidate is strictly worse (short-circuit), which resume replay
/// relies on for bit-identical streams.
fn accepts(rng: &mut SmallRng, cost: f64, current_cost: f64, temperature: f64) -> bool {
    cost <= current_cost
        || rng.gen::<f64>() < ((current_cost - cost) / temperature.max(1e-30)).exp()
}

/// Runs simulated annealing over `mapspace`.
///
/// # Panics
///
/// Panics if `steps` is zero or `cooling` is not in `(0, 1]`.
pub fn anneal(mapspace: &Mapspace, config: &AnnealConfig) -> SearchOutcome {
    let search = SearchConfig {
        seed: config.seed,
        max_evaluations: Some(config.steps),
        termination: None,
        threads: 1,
        max_trace: usize::MAX,
        objective: config.objective,
        model: config.model,
        strategy: SearchStrategy::Anneal,
        dedup: config.dedup,
        memo_bits: 16,
        ..SearchConfig::default()
    };
    let mut shared = Shared::new(&search);
    if config.dedup {
        shared.memo = MemoCache::try_new(search.memo_bits);
    }
    run(mapspace, &search, config, &shared, None, None);
    engine::collect(shared, false)
}

/// The engine's annealing parameters for `config` (strategy `Anneal`):
/// `max_evaluations` becomes the step budget, the seed carries over and
/// the annealing-specific knobs keep their [`AnnealConfig`] defaults.
pub(crate) fn params(config: &SearchConfig) -> AnnealConfig {
    let defaults = AnnealConfig::default();
    AnnealConfig {
        seed: config.seed,
        steps: config.max_evaluations.unwrap_or(defaults.steps).max(1),
        objective: config.objective,
        model: config.model,
        dedup: config.dedup,
        ..defaults
    }
}

/// Anneals against `shared` under the search protocol: candidates are
/// scored and settled like every strategy's (memo, counters, best
/// tracking, panic quarantine), interrupts are polled per step, and live
/// progress is published. Step boundaries are the annealer's barriers —
/// the walk is single-threaded — so periodic checkpoints land there, an
/// interrupted run saves its drain cursor at the step it stopped before,
/// and a run resumed from an [`AnnealCursor`] (with `shared` restored
/// from the same checkpoint) replays the exact RNG, temperature and
/// acceptance stream of an uninterrupted one.
pub(crate) fn run(
    mapspace: &Mapspace,
    search: &SearchConfig,
    config: &AnnealConfig,
    shared: &Shared,
    cpr: Option<&Checkpointer>,
    resume: Option<&AnnealCursor>,
) {
    // justified: pre-engine API contract — these have always been
    // documented panics on nonsensical annealing parameters.
    assert!(config.steps > 0, "need at least one annealing step");
    // justified: same documented contract as the steps assert.
    assert!(
        config.cooling > 0.0 && config.cooling <= 1.0,
        "cooling factor must be in (0, 1]"
    );
    let ctx = EvalContext::new(mapspace.arch(), mapspace.shape(), search.model);
    // Scores and settles one candidate; `Some(cost)` when it is valid.
    let consider = |candidate: &Mapping, ordinal: u64| {
        let key = candidate.canonical_key();
        let scored = shared.score(&ctx, search.objective, candidate, key);
        shared.settle(search, Rule::Local, candidate, Some(key), ordinal, scored)
    };
    shared.progress_thread_started();
    // Between steps the walk is exactly what a cursor freezes; only its
    // `rng` field goes stale, and a save reads the live generator.
    let (mut rng, mut walk) = match resume {
        Some(cursor) => (SmallRng::from_state(cursor.rng), cursor.clone()),
        None => {
            let mut rng = SmallRng::seed_from_u64(config.seed);
            // Find a valid starting point by rejection sampling: the
            // first valid sample is the first best.
            let start = (0..config.max_restart_attempts).find_map(|_| {
                let ordinal = shared.charge();
                let candidate = mapspace.sample(&mut rng);
                consider(&candidate, ordinal).map(|cost| (candidate, cost))
            });
            let Some((current, current_cost)) = start else {
                shared.progress_thread_stopped();
                return;
            };
            let walk = AnnealCursor {
                rng: rng.to_state(),
                step: 0,
                temperature: current_cost * config.initial_temperature,
                current_cost,
                current,
            };
            (rng, walk)
        }
    };
    let start_step = walk.step;
    let save = |walk: &AnnealCursor, rng: &SmallRng| {
        if let Some(cpr) = cpr {
            let cursor = Cursor::Anneal(AnnealCursor {
                rng: rng.to_state(),
                ..walk.clone()
            });
            cpr.save(SearchCheckpoint::capture(shared, search, cursor));
        }
    };
    while walk.step < config.steps {
        if cpr.is_some_and(|cpr| walk.step > start_step && walk.step.is_multiple_of(cpr.stride())) {
            save(&walk, &rng);
        }
        // The poll runs before the step consumes any RNG.
        let Some(ordinal) = shared.reserve(None) else {
            break;
        };
        if ordinal & (engine::PROGRESS_STRIDE - 1) == 0 {
            shared.publish_progress();
        }
        let candidate = neighbor(mapspace, &walk.current, &mut rng);
        walk.temperature *= config.cooling;
        // Memo duplicates are accepted on their recorded cost; only a
        // fresh candidate can improve the best, which it can only do
        // when accepted (the best never exceeds the current cost).
        if let Some(cost) = consider(&candidate, ordinal) {
            if accepts(&mut rng, cost, walk.current_cost, walk.temperature) {
                walk.current = candidate;
                walk.current_cost = cost;
            }
        }
        walk.step += 1;
    }
    if shared.is_stopped_early() {
        save(&walk, &rng);
    }
    shared.progress_thread_stopped();
}

/// Produces a neighbor of `mapping` inside `mapspace`.
fn neighbor(mapspace: &Mapspace, mapping: &Mapping, rng: &mut SmallRng) -> Mapping {
    let num_levels = mapping.layout().num_levels();
    if rng.gen_bool(0.5) {
        // Re-tile one dimension from a fresh sample.
        let donor = mapspace.sample(rng);
        let dim = Dim::ALL[rng.gen_range(0..7)];
        let tiling = DimMap::from_fn(|d| {
            if d == dim {
                donor.tile_chain(d).to_vec()
            } else {
                mapping.tile_chain(d).to_vec()
            }
        });
        let perms = (0..num_levels).map(|l| *mapping.permutation(l)).collect();
        // justified: the spliced chain came from a valid
        // sampled mapping over the same bounds, so the build succeeds.
        Mapping::from_tile_chains(num_levels, tiling, perms)
            .expect("splicing one valid chain keeps the mapping well-formed")
    } else {
        // Swap two dims in one level's permutation.
        let level = rng.gen_range(0..num_levels);
        let a = rng.gen_range(0..7);
        let b = rng.gen_range(0..7);
        let tiling = DimMap::from_fn(|d| mapping.tile_chain(d).to_vec());
        let perms: Vec<[Dim; 7]> = (0..num_levels)
            .map(|l| {
                let mut p = *mapping.permutation(l);
                if l == level {
                    p.swap(a, b);
                }
                p
            })
            .collect();
        // justified: tile chains are untouched here; only
        // permutations changed, which cannot invalidate a mapping.
        Mapping::from_tile_chains(num_levels, tiling, perms)
            .expect("permutation swaps keep the mapping well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruby_arch::presets;
    use ruby_mapspace::MapspaceKind;
    use ruby_workload::ProblemShape;

    fn toy(kind: MapspaceKind) -> Mapspace {
        Mapspace::new(
            presets::toy_linear(16, 1024),
            ProblemShape::rank1("d", 113),
            kind,
        )
    }

    #[test]
    fn finds_optimum_on_toy() {
        let outcome = anneal(&toy(MapspaceKind::RubyS), &AnnealConfig::default());
        assert_eq!(outcome.best.unwrap().report.cycles(), 8);
        assert!(outcome.valid > 0);
    }

    #[test]
    fn trace_improves_monotonically() {
        let outcome = anneal(&toy(MapspaceKind::Ruby), &AnnealConfig::default());
        let costs: Vec<f64> = outcome.trace.iter().map(|&(_, c)| c).collect();
        assert!(costs.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn neighbors_stay_in_bounds() {
        let space = toy(MapspaceKind::Ruby);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut m = space.sample(&mut rng);
        for _ in 0..100 {
            m = neighbor(&space, &m, &mut rng);
            let chain = m.tile_chain(ruby_workload::Dim::M);
            assert_eq!(*chain.last().unwrap(), 113);
            assert_eq!(chain[0], 1);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = AnnealConfig {
            steps: 300,
            ..AnnealConfig::default()
        };
        let a = anneal(&toy(MapspaceKind::RubyS), &cfg);
        let b = anneal(&toy(MapspaceKind::RubyS), &cfg);
        assert_eq!(a.best.unwrap().cost, b.best.unwrap().cost);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    #[should_panic(expected = "cooling factor")]
    fn bad_cooling_rejected() {
        let cfg = AnnealConfig {
            cooling: 1.5,
            ..AnnealConfig::default()
        };
        let _ = anneal(&toy(MapspaceKind::Pfm), &cfg);
    }
}
