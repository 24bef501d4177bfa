//! `figure_sweep`: the Fig. 10 searches — every ResNet-50 layer under
//! PFM and Ruby-S on Eyeriss 14×12 with row-stationary constraints,
//! `Sampled` strategy, one thread.
//!
//! A run goes in rounds of [`SEEDS_PER_ROUND`] passes, pass `k` at the
//! `k`-th search seed derived from the run seed. A search's duration
//! depends on where its termination rule fires, so one seed's figure is
//! a noisy sample of the workload; several seeds per run, each repeated
//! every round, give per-search best times over a spread of termination
//! points.

use std::time::Instant;

use ruby_arch::presets;
use ruby_core::Explorer;
use ruby_experiments::common::NetworkTotals;
use ruby_experiments::ExperimentBudget;
use ruby_mapspace::MapspaceKind;
use ruby_search::BestMapping;

use crate::layers::{self, Counts};
use crate::stats::{self, Metrics, PassTimes, Stamp, MIN_PASSES, MIN_SAMPLES};
use crate::trace::Tracer;
use crate::{repeat_setup, Options, Tally};

/// Search seeds per round.
pub const SEEDS_PER_ROUND: usize = 3;

/// One pass over the figure's searches at one seed.
struct Pass {
    times: PassTimes,
    evaluations: u64,
    /// Network EDP of Ruby-S over PFM, weighted by layer repeats.
    edp_ratio: f64,
}

/// The explorer (architecture and constraints) and the shuffled search
/// list every pass runs.
struct Setup {
    explorer: Explorer,
    searches: Vec<(usize, MapspaceKind)>,
}

fn setup(opts: &Options) -> Setup {
    let (searches, constraints) = opts.scope.figure_searches(opts.seed);
    let explorer = Explorer::new(presets::eyeriss_like(14, 12)).with_constraints(constraints);
    Setup { explorer, searches }
}

/// The search seed of seed slot `slot`; slot 0 is the run seed.
fn slot_seed(seed: u64, slot: usize) -> u64 {
    seed ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The traced run's recorders.
struct Traced<'t> {
    tracer: &'t mut Tracer,
    counts: Counts,
}

/// Runs every search once at seed slot `slot`. Traced, each search gets
/// a span and its draws are replayed through the sampler and the scalar
/// model.
fn pass(
    opts: &Options,
    setup: &Setup,
    slot: usize,
    tally: &mut Tally,
    mut traced: Option<&mut Traced<'_>>,
) -> Result<Pass, String> {
    let seed = slot_seed(opts.seed, slot);
    let budget = ExperimentBudget {
        seed,
        ..opts.scope.figure_budget
    };
    let explorer = setup.explorer.clone().with_search(budget.search_config());
    let layers = &opts.scope.figure_layers;
    let mut best: Vec<[Option<BestMapping>; 2]> = vec![[None, None]; layers.len()];
    let mut items = Vec::with_capacity(setup.searches.len());
    let mut evaluations = 0;
    let start = Stamp::now();
    for (i, &(layer, kind)) in setup.searches.iter().enumerate() {
        let shape = &layers[layer].0;
        let searched = Stamp::now();
        let outcome = match traced.as_deref_mut() {
            None => explorer.explore_with_outcome(shape, kind),
            Some(t) => {
                let id = t.counts.passes * setup.searches.len() as u64 + i as u64;
                let (outcome, ns) = t.tracer.time("search.run", id, None, || {
                    explorer.explore_with_outcome(shape, kind)
                });
                t.counts.add_search(&outcome, ns, false);
                let space = explorer.mapspace(shape, kind);
                layers::replay_sampler(
                    &space,
                    seed,
                    outcome.evaluations,
                    t.tracer,
                    id,
                    &mut t.counts,
                );
                outcome
            }
        };
        items.push(searched.took());
        evaluations += outcome.evaluations;
        let found = tally.attempt(
            outcome
                .best
                .ok_or_else(|| format!("no valid {kind} mapping for {}", shape.name())),
        )?;
        best[layer][usize::from(kind != MapspaceKind::Pfm)] = Some(found);
    }
    let pass_took = start.took();
    let mut pfm = NetworkTotals::default();
    let mut ruby_s = NetworkTotals::default();
    for ((_, repeats), [p, r]) in layers.iter().zip(&best) {
        let (Some(p), Some(r)) = (p, r) else {
            return Err("a figure layer was not searched".to_owned());
        };
        pfm.add(&p.report, *repeats);
        ruby_s.add(&r.report, *repeats);
    }
    let edp_ratio = ruby_s.edp() / pfm.edp();
    // The modeled result is an output to check, not a speed.
    if edp_ratio.is_nan() || edp_ratio >= 1.0 {
        return Err(format!(
            "seed {seed}: network EDP ratio Ruby-S/PFM {edp_ratio} is not below 1"
        ));
    }
    Ok(Pass {
        times: PassTimes {
            group: slot,
            items,
            pass: pass_took,
        },
        evaluations,
        edp_ratio,
    })
}

/// Single-threaded searches are deterministic: every pass at one seed
/// slot must spend the same evaluations and reach the same EDP.
fn check_determinism(tally: &mut Tally, passes: &[&Pass]) -> Result<(), String> {
    for slot in 0..SEEDS_PER_ROUND {
        let same: Vec<&&Pass> = passes.iter().filter(|p| p.times.group == slot).collect();
        if same.windows(2).any(|w| {
            w[0].evaluations != w[1].evaluations
                || w[0].edp_ratio.to_bits() != w[1].edp_ratio.to_bits()
        }) {
            return Err(format!("passes at seed slot {slot} disagree"));
        }
        if let Some(first) = same.first() {
            tally.note(format!(
                "seed slot {slot}: network EDP ratio Ruby-S/PFM {} (PFM base = 1), {} search evaluations, identical over {} passes",
                first.edp_ratio,
                first.evaluations,
                same.len()
            ));
        }
    }
    Ok(())
}

/// Rounds of passes until [`stats::enough`] says the measurement is
/// complete.
fn rounds_until(
    opts: &Options,
    setup: &Setup,
    tally: &mut Tally,
    seconds: f64,
) -> Result<Vec<Pass>, String> {
    let mut passes: Vec<Pass> = Vec::new();
    let mut times: Vec<PassTimes> = Vec::new();
    let start = Instant::now();
    while !stats::enough(&times, SEEDS_PER_ROUND, start, seconds) {
        let pass = pass(opts, setup, passes.len() % SEEDS_PER_ROUND, tally, None)?;
        times.push(pass.times.clone());
        passes.push(pass);
    }
    Ok(passes)
}

pub(crate) fn figure_sweep(
    opts: &Options,
    tally: &mut Tally,
    tracer: Option<&mut Tracer>,
) -> Result<Metrics, String> {
    let (setup_s, setups, setup) = repeat_setup(|| (), |()| Ok(setup(opts)))?;
    tally.note(format!(
        "setup_s {setup_s} s (median of {} set-ups), {} searches per pass, {SEEDS_PER_ROUND} seeds per round",
        setups,
        setup.searches.len()
    ));
    let Some(tracer) = tracer else {
        let passes = rounds_until(opts, &setup, tally, opts.seconds)?;
        let mut m = Metrics::default();
        m.put("setup_s", setup_s, "s", setups);
        let times: Vec<PassTimes> = passes.iter().map(|p| p.times.clone()).collect();
        for line in stats::put_timings(&mut m, &times, SEEDS_PER_ROUND)? {
            tally.note(line);
        }
        stats::put_memory(&mut m, tally);
        check_determinism(tally, &passes.iter().collect::<Vec<_>>())?;
        return Ok(m);
    };

    let untraced = rounds_until(opts, &setup, tally, opts.seconds / 2.0)?;
    let mut traced = Traced {
        tracer,
        counts: Counts::default(),
    };
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty()
        || traced.tracer.durations("search.run").len() < MIN_SAMPLES
        || (passes.len() < MIN_PASSES && stats::secs(start.elapsed()) < opts.seconds / 2.0)
    {
        let slot = passes.len() % SEEDS_PER_ROUND;
        passes.push(pass(opts, &setup, slot, tally, Some(&mut traced))?);
        traced.counts.passes += 1;
    }
    check_determinism(tally, &untraced.iter().chain(&passes).collect::<Vec<_>>())?;
    let mean_wall =
        |ps: &[Pass]| ps.iter().map(|p| p.times.pass.wall_s).sum::<f64>() / ps.len() as f64;
    let traced_wall = mean_wall(&passes);
    let untraced_wall = mean_wall(&untraced);
    tally.note(format!(
        "mean traced pass {traced_wall} s ({} passes), untraced {untraced_wall} s ({} passes)",
        passes.len(),
        untraced.len()
    ));
    layers::per_layer(traced.tracer, &traced.counts, traced_wall - untraced_wall)
}
