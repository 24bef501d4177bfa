//! Search strategies over the same Ruby-S mapspace: the permuted walk
//! (the default `random` strategy), the paper's rejection sampler, and
//! the search-free utilization-first heuristic, on AlexNet layer 2 over
//! the Eyeriss-like baseline.
//!
//! Run with: `cargo run --release --example search_strategies`

use std::time::Instant;

use ruby_core::mapspace::heuristic;
use ruby_core::prelude::*;

fn main() {
    let arch = presets::eyeriss_like(14, 12);
    let layer = suites::alexnet_layer2();
    let constraints = Constraints::eyeriss_row_stationary(3, 1);
    let space = Mapspace::new(arch.clone(), layer.clone(), MapspaceKind::RubyS)
        .with_constraints(constraints.clone());
    println!("workload: {layer}\n");
    println!(
        "{:<10} {:>13} {:>12} {:>10}",
        "strategy", "best EDP", "evaluations", "time"
    );

    // 1. The permuted walk (the default `random` strategy) and 2. the
    //    paper's rejection sampler: same Engine facade and budget, built
    //    with the validating config builder.
    for (name, strategy) in [
        ("walk", SearchStrategy::Random),
        ("sampled", SearchStrategy::Sampled),
    ] {
        let t = Instant::now();
        let config = SearchConfig::builder()
            .seed(5)
            .max_evaluations(10_000)
            .termination(1_500)
            .threads(4)
            .strategy(strategy)
            .build()
            .expect("positive budgets are a valid config");
        let outcome = Engine::new(&space).with_config(config).run();
        print_row(
            name,
            outcome.best.as_ref().map(|b| b.report.edp()),
            outcome.evaluations,
            t,
        );
    }

    // 3. Search-free heuristic (a handful of constructive candidates).
    let t = Instant::now();
    let candidates = heuristic::utilization_first(&arch, &layer, &constraints);
    let evals = candidates.len() as u64;
    let best = candidates
        .iter()
        .filter_map(|m| evaluate(&arch, &layer, m, &ModelOptions::default()).ok())
        .map(|r| r.edp())
        .fold(f64::INFINITY, f64::min);
    print_row("heuristic", best.is_finite().then_some(best), evals, t);

    println!("\nThe mapspace (Ruby-S) is fixed; only the traversal changes —");
    println!("the paper's point that its contribution is orthogonal to search.");
}

fn print_row(name: &str, edp: Option<f64>, evals: u64, start: Instant) {
    let edp = edp
        .map(|e| format!("{e:.4e}"))
        .unwrap_or_else(|| "-".into());
    println!(
        "{:<10} {:>13} {:>12} {:>9.2?}",
        name,
        edp,
        evals,
        start.elapsed()
    );
}
