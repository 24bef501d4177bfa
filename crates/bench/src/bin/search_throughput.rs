//! Measures each search strategy's throughput across thread counts on
//! the Eyeriss-like preset and writes the baseline to
//! `BENCH_search.json` in the working directory.
//!
//! Budgets: `--quick` (smoke), `--medium` (default), `--full`.
//! `--smoke` runs a few hundred candidates per strategy single-threaded,
//! fails on any panic or a strategy finding zero valid mappings, and
//! writes no JSON — the tier-1 regression gate.

use ruby_bench::throughput;
use ruby_core::search::SearchStrategy;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let budget = ruby_bench::budget_from_args();
    // Fixed work per run: no early termination, so each thread count
    // performs an identical number of candidate steps.
    let max_evaluations = budget.max_evaluations.max(2_000);
    let repeats = budget.repeats.clamp(1, 3) as u64;
    // Measure only thread counts the hardware can actually schedule
    // (always keeping the single-thread baseline); the oversubscribed
    // flag in the JSON covers machines whose width changes later.
    let available = ruby_core::search::default_threads();
    let thread_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t == 1 || t <= available)
        .collect();
    let report = throughput::run(max_evaluations, repeats, &thread_counts);
    print!("{}", throughput::render(&report));

    let json = serde_json::to_string_pretty(&report).expect("reports always serialize");
    let path = "BENCH_search.json";
    ruby_telemetry::write_atomic(path, json.as_bytes()).expect("writable working directory");
    println!("wrote {path}");
}

/// A few hundred candidates per row, single-threaded: fails the process
/// when any row finds no valid mapping, when the random walk repeats a
/// candidate, or when single-thread warm or cold random throughput
/// falls below half the committed `BENCH_search.json` baseline.
fn smoke() {
    let report = throughput::run(300, 1, &[1]);
    print!("{}", throughput::render(&report));
    println!(
        "telemetry counters: {}",
        if report.telemetry {
            "on"
        } else {
            "off (no-op)"
        }
    );
    for p in &report.points {
        if p.valid == 0 {
            eprintln!(
                "smoke failure: strategy '{}' found no valid mapping",
                p.strategy
            );
            std::process::exit(1);
        }
        // The permuted walk makes random sampling duplicate-free by
        // construction; any repeat is a broken bijection.
        if p.strategy.starts_with("random") && p.duplicates > 0 {
            eprintln!(
                "smoke failure: the random walk repeated {} candidates \
                 (the permutation guarantees zero)",
                p.duplicates
            );
            std::process::exit(1);
        }
    }
    throughput_floor();
    println!("smoke ok: all strategies found valid mappings");
}

/// Regression guard: single-thread throughput of the `random` and
/// `random-cold` rows must stay above half their committed
/// `BENCH_search.json` points. Re-measured best-of-3 at a larger budget
/// than the validity smoke so timer noise and cold caches don't trip
/// the gate: `random` at 2,000 candidates, `random-cold` at the
/// baseline's own budget (tabulation is a fixed cost per run, so its
/// samples/sec depends on the budget). Each row is skipped (loudly)
/// when no comparable baseline is available.
fn throughput_floor() {
    let path = "BENCH_search.json";
    let Ok(json) = std::fs::read_to_string(path) else {
        println!("throughput floor: no committed {path}, skipping");
        return;
    };
    let baseline: throughput::ThroughputReport = match serde_json::from_str(&json) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("throughput floor: unreadable {path} ({err}), skipping");
            return;
        }
    };
    if baseline.schema != ruby_telemetry::SCHEMA_VERSION {
        println!(
            "throughput floor: {path} has schema {} (current {}), skipping",
            baseline.schema,
            ruby_telemetry::SCHEMA_VERSION
        );
        return;
    }
    if baseline.telemetry != ruby_telemetry::enabled() {
        println!("throughput floor: instrumentation modes differ, skipping");
        return;
    }
    let warm = throughput::space();
    for row in throughput::ROWS
        .into_iter()
        .filter(|r| r.strategy == SearchStrategy::Random)
    {
        let Some(base) = baseline
            .points
            .iter()
            .find(|p| p.strategy == row.name && p.threads == 1)
        else {
            println!(
                "throughput floor: no committed {} 1-thread point, skipping",
                row.name
            );
            continue;
        };
        let budget = if row.cold {
            baseline.max_evaluations
        } else {
            2_000
        };
        let floor = base.samples_per_sec * 0.5;
        let measured = throughput::measure(row, &warm, 1, budget, 3).samples_per_sec;
        if measured < floor {
            eprintln!(
                "smoke failure: {} 1-thread throughput {measured:.0} samples/s \
                 fell below the regression floor {floor:.0} \
                 (0.5x the committed {:.0})",
                row.name, base.samples_per_sec
            );
            std::process::exit(1);
        }
        println!(
            "throughput floor ok: {} {measured:.0} samples/s >= {floor:.0} \
             (0.5x committed baseline)",
            row.name
        );
    }
}
