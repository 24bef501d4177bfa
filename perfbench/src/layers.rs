//! Per-layer metrics of a traced run.
//!
//! The benchmark replays each query through the layers' public
//! functions — wire parsing, fingerprinting, store lookup and write,
//! `Mapspace::enum_tables`, `Engine::run`, `BatchEvalContext::screen`,
//! `Sampler::sample_into`, `evaluate_with` — with a span around each
//! call. Every metric is emitted on every workload; a layer the workload
//! never reaches reads 0 with a sample count of 0.

use ruby_mapspace::{Mapspace, PermutedIterator};
use ruby_model::{evaluate_with, BatchEvalContext, BatchVerdict, EvalContext, ModelOptions};
use ruby_search::SearchOutcome;

use crate::stats::{median, percentile, Metrics};
use crate::trace::Tracer;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("server.wire_parse_us", "us"),
    ("server.respond_us", "us"),
    ("server.other_us", "us"),
    ("store.fingerprint_us", "us"),
    ("store.get_us", "us"),
    ("store.put_ms", "ms"),
    ("store.open_ms", "ms"),
    ("mapspace.tables_p50_ms", "ms"),
    ("mapspace.tables_p90_ms", "ms"),
    ("mapspace.tables_sum_ms", "ms"),
    ("mapspace.tables_share", "ratio"),
    ("mapspace.tables_share_base_ms", "ms"),
    ("mapspace.regions", "count"),
    ("mapspace.table_fallbacks", "count"),
    ("mapspace.sample_ns", "ns"),
    ("search.run_ms", "ms"),
    ("search.ns_per_eval", "ns"),
    ("search.sampled_ns_per_eval", "ns"),
    ("search.evaluations", "count"),
    ("search.valid_ratio", "ratio"),
    ("search.duplicates", "count"),
    ("search.pruned_mappings", "count"),
    ("model.screen_ns_per_lane", "ns"),
    ("model.evaluate_ns", "ns"),
    ("model.valid_ratio", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Counts recorded at the same boundaries as the spans.
#[derive(Debug, Default)]
pub(crate) struct Counts {
    /// Traced passes over the workload.
    pub(crate) passes: u64,
    /// Search outcome totals.
    pub(crate) evaluations: u64,
    pub(crate) valid: u64,
    pub(crate) duplicates: u64,
    pub(crate) pruned_mappings: u64,
    /// Permuted-walk (tabulated) searches: time and evaluations.
    pub(crate) walk_ns: u64,
    pub(crate) walk_evaluations: u64,
    /// `Sampled` searches: time and evaluations.
    pub(crate) sampled_ns: u64,
    pub(crate) sampled_evaluations: u64,
    /// Regions of every successful table build; builds that fell back.
    pub(crate) regions: u64,
    pub(crate) fallbacks: u64,
    /// `BatchEvalContext::screen` replay.
    pub(crate) screen_ns: u64,
    pub(crate) lanes: u64,
    pub(crate) valid_lanes: u64,
    /// `Sampler::sample_into` / `evaluate_with` replay.
    pub(crate) sample_ns: u64,
    pub(crate) evaluate_ns: u64,
    pub(crate) evaluated: u64,
    pub(crate) valid_evaluated: u64,
    /// Per query: end-to-end time minus the time attributed to layers.
    pub(crate) other_ns: Vec<f64>,
}

impl Counts {
    /// Adds one search outcome; `walk` says whether it ran the permuted
    /// walk over tables rather than the sampler.
    pub(crate) fn add_search(&mut self, outcome: &SearchOutcome, search_ns: u64, walk: bool) {
        self.evaluations += outcome.evaluations;
        self.valid += outcome.valid;
        self.duplicates += outcome.duplicates;
        self.pruned_mappings += outcome.pruned_mappings;
        if walk {
            self.walk_ns += search_ns;
            self.walk_evaluations += outcome.evaluations;
        } else {
            self.sampled_ns += search_ns;
            self.sampled_evaluations += outcome.evaluations;
        }
    }
}

/// Replays a permuted-walk search's candidates through
/// `BatchEvalContext::screen`: the walk is re-derived from the search
/// seed, so the same `outcome.evaluations` candidates are screened in
/// the same batches. Fails unless the replay finds exactly the search's
/// valid count.
pub(crate) fn replay_screen(
    space: &Mapspace,
    seed: u64,
    outcome: &SearchOutcome,
    tracer: &mut Tracer,
    query: u64,
    counts: &mut Counts,
) -> Result<(), String> {
    let tables = space
        .enum_tables()
        .ok_or("replay of an untabulated space")?;
    let total = tables
        .exact_total_leaves()
        .ok_or("replay of a saturated space")?;
    let mut walk =
        PermutedIterator::new(tables, seed, 0, total).ok_or("replay of a saturated space")?;
    let ctx = EvalContext::new(space.arch(), space.shape(), ModelOptions::default());
    let mut batch = BatchEvalContext::new(&ctx);
    let root = tracer.open("model.replay", query, None);
    let mut left = outcome.evaluations;
    let mut valid = 0u64;
    while left > 0 {
        batch.clear();
        while left > 0 && !batch.is_full() && walk.next_into(batch.slot()).is_some() {
            batch.commit();
            left -= 1;
        }
        let lanes = batch.len();
        if lanes == 0 {
            break;
        }
        let span = tracer.open("model.screen", query, Some(root));
        let passed = batch
            .screen()
            .iter()
            .filter(|v| matches!(v, BatchVerdict::Valid { .. }))
            .count() as u64;
        tracer.close(span);
        counts.screen_ns += tracer.spans()[span].dur_ns();
        counts.lanes += lanes as u64;
        counts.valid_lanes += passed;
        valid += passed;
    }
    tracer.close(root);
    if valid != outcome.valid {
        return Err(format!(
            "screen replay of {} found {valid} valid candidates, the search {}",
            space.shape().name(),
            outcome.valid
        ));
    }
    Ok(())
}

/// Replays `draws` generative samples of `space` through
/// `Sampler::sample_into` and `evaluate_with`, timing each call.
pub(crate) fn replay_sampler(
    space: &Mapspace,
    seed: u64,
    draws: u64,
    tracer: &mut Tracer,
    query: u64,
    counts: &mut Counts,
) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let ctx = EvalContext::new(space.arch(), space.shape(), ModelOptions::default());
    let mut sampler = space.sampler();
    let mut mapping = space.sample(&mut rng);
    let root = tracer.open("model.replay", query, None);
    for _ in 0..draws {
        let start = std::time::Instant::now();
        sampler.sample_into(&mut mapping, &mut rng);
        let sampled = start.elapsed();
        let valid = std::hint::black_box(evaluate_with(&ctx, &mapping)).is_ok();
        let evaluated = start.elapsed();
        counts.sample_ns += sampled.as_nanos() as u64;
        counts.evaluate_ns += (evaluated - sampled).as_nanos() as u64;
        counts.evaluated += 1;
        counts.valid_evaluated += u64::from(valid);
    }
    tracer.close(root);
}

/// `num / den` with its sample count `den`; 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> (f64, usize) {
    if den == 0 {
        (0.0, 0)
    } else {
        (num as f64 / den as f64, den as usize)
    }
}

/// Assembles every per-layer metric from the spans and counts, in
/// [`PER_LAYER`] order, each with its sample count.
///
/// # Errors
///
/// Fails when a percentile has samples but too few beyond it.
pub(crate) fn per_layer(tracer: &Tracer, c: &Counts, overhead_s: f64) -> Result<Metrics, String> {
    let passes = c.passes.max(1);
    let per_pass = |count: u64| ((count / passes) as f64, 1);
    // The `q`-percentile of `samples` (ns) in units of `scale` ns; 0 when
    // the workload never reached the span.
    let pct = |samples: &[f64], q: f64, scale: f64| -> Result<(f64, usize), String> {
        if samples.is_empty() {
            return Ok((0.0, 0));
        }
        let value = percentile(samples, q)
            .ok_or_else(|| format!("{} samples are too few for p{}", samples.len(), q * 100.0))?;
        Ok((value / scale, samples.len()))
    };
    let span_p50 = |name: &str, scale: f64| pct(&tracer.durations(name), 0.5, scale);
    let tables = tracer.durations("mapspace.tables");
    let searches = tracer.durations("search.run");
    let tables_ns = tables.iter().fold(0.0, |a, b| a + b);
    let base_ns = tables_ns + searches.iter().fold(0.0, |a, b| a + b);
    let opens = tracer.durations("store.open");
    let values = [
        span_p50("server.wire_parse", 1e3)?,
        span_p50("server.respond", 1e3)?,
        pct(&c.other_ns, 0.5, 1e3)?,
        span_p50("store.fingerprint", 1e3)?,
        span_p50("store.get", 1e3)?,
        span_p50("store.put", 1e6)?,
        (median(&opens).unwrap_or(0.0) / 1e6, opens.len()),
        pct(&tables, 0.5, 1e6)?,
        pct(&tables, 0.9, 1e6)?,
        (tables_ns / 1e6 / passes as f64, tables.len()),
        (
            if base_ns > 0.0 {
                tables_ns / base_ns
            } else {
                0.0
            },
            tables.len(),
        ),
        (base_ns / 1e6 / passes as f64, tables.len() + searches.len()),
        per_pass(c.regions),
        per_pass(c.fallbacks),
        ratio(c.sample_ns, c.evaluated),
        span_p50("search.run", 1e6)?,
        ratio(c.walk_ns, c.walk_evaluations),
        ratio(c.sampled_ns, c.sampled_evaluations),
        per_pass(c.evaluations),
        ratio(c.valid, c.evaluations),
        per_pass(c.duplicates),
        per_pass(c.pruned_mappings),
        ratio(c.screen_ns, c.lanes),
        ratio(c.evaluate_ns, c.evaluated),
        ratio(c.valid_lanes + c.valid_evaluated, c.lanes + c.evaluated),
        (overhead_s, 1),
    ];
    let mut m = Metrics::default();
    for ((name, unit), (value, samples)) in PER_LAYER.iter().zip(values) {
        m.put(name, value, unit, samples);
    }
    Ok(m)
}
