//! Search-engine throughput: samples/sec, thread scaling, and strategy
//! comparison.
//!
//! The paper's methodology evaluates hundreds of thousands of sampled
//! mappings per layer, so mapper throughput bounds every experiment.
//! [`run`] times the full sample→evaluate→compare loop on the Eyeriss-like
//! preset over a misaligned ResNet-50-style layer for every row of
//! [`ROWS`] at each thread count, reporting samples/sec, valid-rate,
//! dedup hit-rate and pruning counters; the `search_throughput` binary
//! writes the result to `BENCH_search.json` as the baseline future
//! changes are measured against. Warm rows search one mapspace whose
//! enumeration tables are built once and then reused; the
//! `random-cold` row builds a fresh mapspace per run, so its time
//! includes the tabulation a cold query pays.

use std::time::Instant;

use ruby_core::prelude::*;

/// Throughput of one row at one thread count.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// Row measured ([`Row::name`]).
    pub strategy: String,
    /// Worker threads used.
    pub threads: u64,
    /// Whether `threads` exceeded the machine's hardware parallelism
    /// during the measurement (the point then measures engine overhead,
    /// not hardware scaling).
    pub oversubscribed: bool,
    /// Candidates scored (valid + invalid + duplicates); bound-pruned
    /// candidates are avoided work, reported separately below.
    pub evaluations: u64,
    /// Fully evaluated, model-valid mappings among them.
    pub valid: u64,
    /// Model-rejected candidates.
    pub invalid: u64,
    /// Memo-cache hits (candidates skipped without re-evaluation).
    pub duplicates: u64,
    /// Enumeration subtrees discarded by the cost lower bound.
    pub pruned_subtrees: u64,
    /// Candidates discarded by the cost lower bound.
    pub pruned_mappings: u64,
    /// `valid / evaluations` (0 when nothing was considered).
    pub valid_rate: f64,
    /// Best EDP found, or `-1.0` when no valid mapping was found.
    pub best_edp: f64,
    /// Whether the strategy provably covered the whole deduplicated
    /// space.
    pub exhausted: bool,
    /// Best wall-clock seconds over the repeats.
    pub seconds: f64,
    /// `evaluations / seconds` for the best repeat.
    pub samples_per_sec: f64,
    /// Throughput relative to this strategy's `threads == 1` point
    /// (`0.0` when the request list measured no single-thread point).
    pub speedup: f64,
    /// `speedup / threads` — 1.0 is ideal linear scaling (`0.0` when
    /// no single-thread point was measured).
    pub parallel_efficiency: f64,
}

serde::impl_serde_struct!(ThroughputPoint {
    strategy,
    threads,
    oversubscribed,
    evaluations,
    valid,
    invalid,
    duplicates,
    pruned_subtrees,
    pruned_mappings,
    valid_rate,
    best_edp,
    exhausted,
    seconds,
    samples_per_sec,
    speedup,
    parallel_efficiency,
});

/// The full strategy × thread-scaling measurement.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Report schema version ([`SCHEMA_VERSION`], shared with the CLI
    /// `--json` document and the telemetry JSONL stream).
    pub schema: u64,
    /// Architecture preset measured.
    pub arch: String,
    /// Workload layer measured.
    pub workload: String,
    /// Mapspace kind sampled.
    pub mapspace: String,
    /// Candidate budget per run (termination disabled).
    pub max_evaluations: u64,
    /// Timed repeats per point (best kept).
    pub repeats: u64,
    /// Hardware threads the machine offered during the measurement.
    pub available_parallelism: u64,
    /// One entry per row per thread count, grouped by row in [`ROWS`]
    /// order, thread counts in request order.
    pub points: Vec<ThroughputPoint>,
}

serde::impl_serde_struct!(ThroughputReport {
    schema,
    arch,
    workload,
    mapspace,
    max_evaluations,
    repeats,
    available_parallelism,
    points,
});

/// One measured row: a strategy, searched warm or cold.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// The row's name in the report.
    pub name: &'static str,
    /// The search strategy.
    pub strategy: SearchStrategy,
    /// Whether every timed run searches a fresh mapspace, paying for
    /// its enumeration tables, instead of the shared warm one.
    pub cold: bool,
}

/// The rows measured, in reporting order.
pub const ROWS: [Row; 5] = [
    Row {
        name: "random",
        strategy: SearchStrategy::Random,
        cold: false,
    },
    Row {
        name: "random-cold",
        strategy: SearchStrategy::Random,
        cold: true,
    },
    Row {
        name: "sampled",
        strategy: SearchStrategy::Sampled,
        cold: false,
    },
    Row {
        name: "exhaustive",
        strategy: SearchStrategy::Exhaustive,
        cold: false,
    },
    Row {
        name: "hybrid",
        strategy: SearchStrategy::Hybrid,
        cold: false,
    },
];

/// The misaligned pointwise layer used by the integration tests: M = 256
/// against 12 PE rows, the paper's motivating mismatch.
fn layer() -> ProblemShape {
    ProblemShape::conv("pw_256", 1, 256, 64, 28, 28, 1, 1, (1, 1))
}

/// The measured mapspace (Ruby-S, [`layer`], Eyeriss 14×12), with its
/// enumeration tables not yet built.
pub fn space() -> Mapspace {
    Mapspace::new(presets::eyeriss_like(14, 12), layer(), MapspaceKind::RubyS)
}

/// Measures every row's search throughput at each of `thread_counts`,
/// spending exactly `max_evaluations` candidates per run (no early
/// termination, so every run of a row does identical work) and keeping
/// the fastest of `repeats` timed runs per point. Thread counts above
/// the machine's parallelism are measured anyway but flagged
/// [`ThroughputPoint::oversubscribed`]; callers that only want
/// hardware-scaling points should filter the request list first.
pub fn run(max_evaluations: u64, repeats: u64, thread_counts: &[usize]) -> ThroughputReport {
    assert!(repeats > 0, "need at least one timed repeat");
    let warm = space();
    let mut points = Vec::with_capacity(ROWS.len() * thread_counts.len());
    for row in ROWS {
        let base_index = points.len();
        for &threads in thread_counts {
            points.push(measure(row, &warm, threads, max_evaluations, repeats));
        }
        // Speedup is pinned to this row's measured single-thread point,
        // not merely the first point: a request list without 1 leaves
        // the ratios at their 0.0 sentinel instead of silently
        // normalizing against a multi-threaded base.
        let base = points[base_index..]
            .iter()
            .find(|p| p.threads == 1)
            .map(|p| p.samples_per_sec);
        if let Some(base) = base {
            for point in &mut points[base_index..] {
                point.speedup = point.samples_per_sec / base;
                point.parallel_efficiency = point.speedup / point.threads as f64;
            }
        }
    }
    ThroughputReport {
        schema: SCHEMA_VERSION,
        arch: "eyeriss:14x12".to_owned(),
        workload: layer().name().to_owned(),
        mapspace: MapspaceKind::RubyS.name().to_owned(),
        max_evaluations,
        repeats,
        available_parallelism: ruby_core::search::default_threads() as u64,
        points,
    }
}

/// Measures `row` at `threads` threads: exactly `max_evaluations`
/// candidates per run, the fastest of `repeats` runs kept. A warm row
/// searches `warm` (the first search of it builds its tables, later
/// ones reuse them); a cold row searches a fresh [`space`] every run.
/// `speedup` and `parallel_efficiency` are left at 0 for [`run`].
pub fn measure(
    row: Row,
    warm: &Mapspace,
    threads: usize,
    max_evaluations: u64,
    repeats: u64,
) -> ThroughputPoint {
    let config = SearchConfig {
        seed: 1,
        max_evaluations: Some(max_evaluations),
        termination: None,
        threads,
        strategy: row.strategy,
        ..SearchConfig::default()
    };
    let mut best_seconds = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let result = if row.cold {
            Engine::new(&space()).with_config(config.clone()).run()
        } else {
            Engine::new(warm).with_config(config.clone()).run()
        };
        let seconds = start.elapsed().as_secs_f64();
        if seconds < best_seconds {
            best_seconds = seconds;
            outcome = Some(result);
        }
    }
    // lint: allow(panics) — the repeat loop runs at least once
    // (`repeats.max(1)`), so an outcome was recorded.
    let outcome = outcome.expect("repeats > 0");
    let valid_rate = if outcome.evaluations > 0 {
        outcome.valid as f64 / outcome.evaluations as f64
    } else {
        0.0
    };
    ThroughputPoint {
        strategy: row.name.to_owned(),
        threads: threads as u64,
        oversubscribed: threads > ruby_core::search::default_threads(),
        evaluations: outcome.evaluations,
        valid: outcome.valid,
        invalid: outcome.invalid,
        duplicates: outcome.duplicates,
        pruned_subtrees: outcome.pruned_subtrees,
        pruned_mappings: outcome.pruned_mappings,
        valid_rate,
        best_edp: outcome.best.map_or(-1.0, |b| b.report.edp()),
        exhausted: outcome.exhausted,
        seconds: best_seconds,
        samples_per_sec: outcome.evaluations as f64 / best_seconds,
        speedup: 0.0,
        parallel_efficiency: 0.0,
    }
}

/// Renders the report as an aligned text table.
pub fn render(report: &ThroughputReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "search throughput — {} / {} / {} ({} candidates per run, best of {})\n",
        report.arch, report.workload, report.mapspace, report.max_evaluations, report.repeats
    ));
    out.push_str(
        "strategy     threads    samples/sec  valid%   dup%  pruned    speedup   efficiency\n",
    );
    for p in &report.points {
        let dup_rate = if p.evaluations > 0 {
            p.duplicates as f64 / p.evaluations as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<12} {:>7} {:>14.0} {:>6.1}% {:>5.1}% {:>7} {:>9.2}x {:>11.2}{}\n",
            p.strategy,
            p.threads,
            p.samples_per_sec,
            p.valid_rate * 100.0,
            dup_rate * 100.0,
            p.pruned_mappings,
            p.speedup,
            p.parallel_efficiency,
            if p.oversubscribed {
                "  (oversubscribed)"
            } else {
                ""
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_report_covers_every_strategy() {
        let report = run(200, 1, &[1]);
        assert_eq!(report.points.len(), ROWS.len());
        for (p, row) in report.points.iter().zip(ROWS) {
            assert_eq!(p.strategy, row.name);
            assert!(p.samples_per_sec > 0.0, "{}", p.strategy);
            assert_eq!(p.speedup, 1.0, "{}", p.strategy);
            assert_eq!(p.parallel_efficiency, 1.0, "{}", p.strategy);
            assert!(p.evaluations <= 200, "{}: {}", p.strategy, p.evaluations);
            assert_eq!(
                p.evaluations,
                p.valid + p.invalid + p.duplicates,
                "{}",
                p.strategy
            );
            assert!((0.0..=1.0).contains(&p.valid_rate), "{}", p.strategy);
        }
        // Random spends the whole budget; its valid-rate is meaningful.
        assert_eq!(report.points[0].evaluations, 200);
        assert!(report.points[0].valid > 0);
    }

    #[test]
    fn cold_random_searches_exactly_what_warm_random_does() {
        // Same seed, same walk: only the tabulation time may differ.
        let report = run(200, 1, &[1]);
        let (warm, cold) = (&report.points[0], &report.points[1]);
        assert_eq!(
            (warm.strategy.as_str(), cold.strategy.as_str()),
            ("random", "random-cold")
        );
        assert_eq!(warm.evaluations, cold.evaluations);
        assert_eq!(warm.valid, cold.valid);
        assert_eq!(warm.best_edp.to_bits(), cold.best_edp.to_bits());
    }

    #[test]
    fn scaling_points_cover_requested_threads() {
        let report = run(200, 1, &[1, 2]);
        assert_eq!(report.points.len(), 2 * ROWS.len());
        // Random at 2 threads: same total work as at 1.
        assert_eq!(report.points[1].strategy, "random");
        assert_eq!(report.points[1].threads, 2);
        assert_eq!(report.points[1].evaluations, 200);
    }

    #[test]
    fn oversubscription_is_flagged_not_dropped() {
        let report = run(50, 1, &[1, 9999]);
        let p = &report.points[1];
        assert_eq!(p.threads, 9999);
        assert!(p.oversubscribed);
        assert!(!report.points[0].oversubscribed, "1 thread always fits");
    }

    #[test]
    fn speedup_base_is_the_single_thread_point_regardless_of_order() {
        // 1 thread listed *after* 2: the base must still be the
        // threads == 1 measurement, not whichever point came first.
        let report = run(50, 1, &[2, 1]);
        for chunk in report.points.chunks(2) {
            let (two, one) = (&chunk[0], &chunk[1]);
            assert_eq!(two.threads, 2, "{}", two.strategy);
            assert_eq!(one.threads, 1, "{}", one.strategy);
            assert_eq!(one.speedup, 1.0, "{}", one.strategy);
            assert_eq!(one.parallel_efficiency, 1.0, "{}", one.strategy);
            assert_eq!(
                two.speedup.to_bits(),
                (two.samples_per_sec / one.samples_per_sec).to_bits(),
                "{}",
                two.strategy
            );
        }
    }

    #[test]
    fn missing_single_thread_point_leaves_the_sentinel() {
        let report = run(50, 1, &[2]);
        for p in &report.points {
            assert_eq!(p.speedup, 0.0, "{}", p.strategy);
            assert_eq!(p.parallel_efficiency, 0.0, "{}", p.strategy);
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = run(50, 1, &[1]);
        assert_eq!(report.schema, SCHEMA_VERSION);
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ThroughputReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema, report.schema);
        assert_eq!(back.points.len(), report.points.len());
        assert_eq!(back.points[0].strategy, report.points[0].strategy);
        assert_eq!(back.points[0].evaluations, report.points[0].evaluations);
        assert_eq!(
            back.points[1].oversubscribed,
            report.points[1].oversubscribed
        );
        assert_eq!(
            back.points[0].samples_per_sec.to_bits(),
            report.points[0].samples_per_sec.to_bits()
        );
    }

    #[test]
    fn render_mentions_strategies_and_rates() {
        let report = run(50, 1, &[1]);
        let text = render(&report);
        assert!(text.contains("samples/sec"));
        assert!(text.contains("eyeriss:14x12"));
        assert!(text.contains("random"));
        assert!(text.contains("random-cold"));
        assert!(text.contains("exhaustive"));
        assert!(text.contains("hybrid"));
        assert!(text.contains("valid%"));
    }
}
