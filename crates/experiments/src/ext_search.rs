//! Extension experiment: search strategies over the Ruby-S mapspace.
//!
//! The paper argues its mapspaces are "orthogonal to these search
//! strategies and can leverage them for improved performance" (GAMMA,
//! Mind Mappings, CoSA improve *search*, Ruby improves the *space*).
//! This experiment tests that claim within this codebase: on the same
//! Ruby-S mapspace, compare
//!
//! * the permuted walk ([`SearchStrategy::Random`], the service's
//!   default search),
//! * the paper's rejection sampler ([`SearchStrategy::Sampled`]),
//! * the search-free utilization-first heuristic
//!   ([`ruby_core::mapspace::heuristic`]),
//! * pruned deterministic enumeration
//!   ([`SearchStrategy::Exhaustive`]),
//!
//! at equal evaluation budgets.

use ruby_core::mapspace::heuristic;
use ruby_core::prelude::*;

use crate::common::ExperimentBudget;
use crate::table::TextTable;

/// One strategy's result on one layer.
#[derive(Debug, Clone)]
pub struct StrategyResult {
    /// Strategy name.
    pub strategy: &'static str,
    /// Best EDP found.
    pub edp: Option<f64>,
    /// Mappings evaluated.
    pub evaluations: u64,
}

/// Per-layer strategy comparison.
#[derive(Debug, Clone)]
pub struct Study {
    /// Layer name.
    pub layer: String,
    /// Results in `[random (walk), sampled, heuristic, exhaustive]` order.
    pub results: Vec<StrategyResult>,
}

/// Runs the comparison on an awkward Eyeriss layer (AlexNet conv2).
pub fn run(budget: &ExperimentBudget) -> Study {
    run_layer(budget, &suites::alexnet_layer2())
}

/// Runs the comparison on any layer.
pub fn run_layer(budget: &ExperimentBudget, layer: &ProblemShape) -> Study {
    let arch = presets::eyeriss_like(14, 12);
    let constraints = Constraints::eyeriss_row_stationary(3, 1);
    let space = Mapspace::new(arch.clone(), layer.clone(), MapspaceKind::RubyS)
        .with_constraints(constraints.clone());

    let random_config = SearchConfig {
        seed: budget.seed,
        max_evaluations: Some(budget.max_evaluations),
        termination: Some(budget.termination),
        threads: budget.threads,
        ..SearchConfig::default()
    };
    let random_outcome = Engine::new(&space).with_config(random_config.clone()).run();
    let sampled_outcome = Engine::new(&space)
        .with_config(SearchConfig {
            strategy: SearchStrategy::Sampled,
            ..random_config
        })
        .run();
    let exhaustive_outcome = Engine::new(&space)
        .with_config(SearchConfig {
            seed: budget.seed,
            max_evaluations: Some(budget.max_evaluations),
            termination: None,
            threads: budget.threads,
            strategy: SearchStrategy::Exhaustive,
            ..SearchConfig::default()
        })
        .run();
    let ctx = EvalContext::new(&arch, layer, ModelOptions::default());
    let heuristic_candidates = heuristic::utilization_first(&arch, layer, &constraints);
    let heuristic_evals = heuristic_candidates.len() as u64;
    let heuristic_edp = heuristic_candidates
        .iter()
        .filter_map(|m| evaluate_with(&ctx, m).ok())
        .map(|r| r.edp())
        .fold(f64::INFINITY, f64::min);

    Study {
        layer: layer.name().to_string(),
        results: vec![
            StrategyResult {
                strategy: "random (walk)",
                edp: random_outcome.best.map(|b| b.report.edp()),
                evaluations: random_outcome.evaluations,
            },
            StrategyResult {
                strategy: "sampled",
                edp: sampled_outcome.best.map(|b| b.report.edp()),
                evaluations: sampled_outcome.evaluations,
            },
            StrategyResult {
                strategy: "heuristic",
                edp: heuristic_edp.is_finite().then_some(heuristic_edp),
                evaluations: heuristic_evals,
            },
            StrategyResult {
                strategy: "exhaustive",
                edp: exhaustive_outcome.best.map(|b| b.report.edp()),
                evaluations: exhaustive_outcome.evaluations,
            },
        ],
    }
}

/// Renders the study.
pub fn render(study: &Study) -> String {
    let mut t = TextTable::new(vec![
        "strategy".into(),
        "best EDP".into(),
        "evaluations".into(),
    ]);
    for r in &study.results {
        t.row(vec![
            r.strategy.to_string(),
            r.edp
                .map(|e| format!("{e:.3e}"))
                .unwrap_or_else(|| "-".into()),
            r.evaluations.to_string(),
        ]);
    }
    format!(
        "Extension: search strategies over Ruby-S on {} (Eyeriss-like 14x12)\n{}",
        study.layer,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_strategies_find_mappings() {
        let study = run(&ExperimentBudget::quick());
        for r in &study.results {
            assert!(r.edp.is_some(), "{} found nothing", r.strategy);
        }
        // The heuristic uses orders of magnitude fewer evaluations.
        let random_evals = study.results[0].evaluations;
        let heuristic_evals = study.results[2].evaluations;
        assert!(heuristic_evals * 10 < random_evals);
    }

    #[test]
    fn heuristic_is_competitive() {
        // The search-free heuristic must land within 2.5x of random
        // search's best EDP (it trades optimality for zero search).
        let study = run(&ExperimentBudget::quick());
        let random = study.results[0].edp.unwrap();
        let heuristic = study.results[2].edp.unwrap();
        assert!(
            heuristic <= random * 2.5,
            "heuristic {heuristic} vs random {random}"
        );
    }

    #[test]
    fn render_lists_strategies() {
        let s = render(&run(&ExperimentBudget::quick()));
        for name in ["random (walk)", "sampled", "heuristic", "exhaustive"] {
            assert!(s.contains(name));
        }
    }

    #[test]
    fn exhaustive_is_competitive_at_equal_budget() {
        let study = run(&ExperimentBudget::quick());
        let random = study.results[0].edp.unwrap();
        let exhaustive = study.results[3].edp.unwrap();
        // At the quick budget enumeration only reaches the cheapest
        // cycle-floor regions; it must stay in random sampling's
        // ballpark (larger budgets close the gap, see EXPERIMENTS.md).
        assert!(
            exhaustive <= random * 1.5,
            "exhaustive {exhaustive} vs random {random}"
        );
    }
}
