//! Measures each search strategy's throughput across thread counts on
//! the Eyeriss-like preset and writes the baseline to
//! `BENCH_search.json` in the working directory.
//!
//! Budgets: `--quick` (smoke), `--medium` (default), `--full`.
//! `--smoke` runs a few hundred candidates per strategy single-threaded,
//! fails on any panic or a strategy finding zero valid mappings, and
//! writes no JSON — the tier-1 regression gate.

use ruby_bench::throughput;

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
/// candidate, or when any row's single-thread throughput falls below
/// half the committed `BENCH_search.json` baseline.
fn smoke() {
    let report = throughput::run(300, 1, &[1]);
    print!("{}", throughput::render(&report));
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

/// Regression guard: single-thread throughput of every row (`random`,
/// `random-cold`, `sampled`, `exhaustive` and `hybrid`) must stay above
/// half its committed `BENCH_search.json` point. Re-measured best-of-3 at a larger budget
/// than the validity smoke so timer noise and cold caches don't trip
/// the gate: the warm rows at 2,000 candidates, `random-cold` at the
/// baseline's own budget (tabulation is a fixed cost per run, so its
/// samples/sec depends on the budget). A baseline that does not parse
/// or carries another schema fails the smoke: it has to be regenerated,
/// not silently stop guarding. A missing file or row is skipped
/// (loudly).
fn throughput_floor() {
    let path = "BENCH_search.json";
    let Ok(json) = std::fs::read_to_string(path) else {
        println!("throughput floor: no committed {path}, skipping");
        return;
    };
    let baseline: throughput::ThroughputReport = match serde_json::from_str(&json) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("smoke failure: unreadable {path} ({err}); regenerate it");
            std::process::exit(1);
        }
    };
    if baseline.schema != ruby_telemetry::SCHEMA_VERSION {
        eprintln!(
            "smoke failure: {path} has schema {} (current {}); regenerate it \
             with `search_throughput --medium`",
            baseline.schema,
            ruby_telemetry::SCHEMA_VERSION
        );
        std::process::exit(1);
    }
    let warm = throughput::space();
    for row in throughput::ROWS {
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
