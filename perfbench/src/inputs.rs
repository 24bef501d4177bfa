//! The benchmark's inputs, generated from the workload seed.

use ruby_arch::{presets, Architecture};
use ruby_experiments::ExperimentBudget;
use ruby_mapspace::{Constraints, MapspaceKind};
use ruby_search::Objective;
use ruby_server::{MapQuery, QueryBudget};
use ruby_workload::{suites, ProblemShape};

/// Which configs a run covers. [`Scope::full`] is the benchmark;
/// smaller scopes exist for the benchmark's own tests.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Architectures of the serve workloads.
    pub arches: Vec<Architecture>,
    /// Layers of the serve workloads.
    pub shapes: Vec<ProblemShape>,
    /// Mapspaces of the serve workloads.
    pub kinds: Vec<MapspaceKind>,
    /// Layers of the figure sweep, with their repeat counts in the
    /// network.
    pub figure_layers: Vec<(ProblemShape, u64)>,
    /// The figure sweep's search budget (its seed is replaced by the
    /// workload seed).
    pub figure_budget: ExperimentBudget,
}

impl Scope {
    /// Every ResNet-50 and DeepBench layer × {PFM, Ruby-S, Ruby} on
    /// `eyeriss:14x12` and `simba:15,4,4` for the serve workloads; the
    /// Fig. 10 setup (ResNet-50, medium budget, one thread) for the
    /// figure sweep.
    pub fn full() -> Self {
        let resnet = suites::resnet50();
        let mut shapes: Vec<ProblemShape> = resnet.iter().cloned().collect();
        shapes.extend(suites::deepbench().iter().cloned());
        Scope {
            arches: vec![presets::eyeriss_like(14, 12), presets::simba_like(15, 4, 4)],
            shapes,
            kinds: vec![MapspaceKind::Pfm, MapspaceKind::RubyS, MapspaceKind::Ruby],
            figure_layers: resnet.layers().to_vec(),
            figure_budget: ExperimentBudget {
                threads: 1,
                ..ruby_bench::medium()
            },
        }
    }

    /// The named layers of the full scope, on Eyeriss only, with a
    /// quick figure budget: a seconds-scale subset for tests.
    pub fn subset(layer_names: &[&str]) -> Self {
        let full = Scope::full();
        let pick = |shape: &ProblemShape| layer_names.contains(&shape.name());
        Scope {
            arches: full.arches.into_iter().take(1).collect(),
            shapes: full.shapes.into_iter().filter(pick).collect(),
            kinds: full.kinds,
            figure_layers: full
                .figure_layers
                .into_iter()
                .filter(|(shape, _)| pick(shape))
                .collect(),
            figure_budget: ExperimentBudget {
                threads: 1,
                ..ExperimentBudget::quick()
            },
        }
    }

    /// Every serve query, as protocol lines in seed-shuffled order.
    pub fn query_lines(&self, seed: u64) -> Vec<String> {
        let mut lines = Vec::new();
        for arch in &self.arches {
            for shape in &self.shapes {
                for &kind in &self.kinds {
                    let query = MapQuery {
                        arch: arch.clone(),
                        workload: shape.clone(),
                        mapspace: kind,
                        objective: Objective::Edp,
                        budget: QueryBudget::Quick,
                        deadline_ms: None,
                        client: None,
                    };
                    // justified: serializing an in-memory value tree cannot fail
                    let line = serde_json::to_string(&serde::Serialize::to_value(&query))
                        .expect("queries serialize");
                    lines.push(line);
                }
            }
        }
        shuffle(&mut lines, seed);
        lines
    }

    /// The figure sweep's searches as `(layer index, mapspace)` pairs in
    /// seed-shuffled order, plus the row-stationary constraints.
    pub fn figure_searches(&self, seed: u64) -> (Vec<(usize, MapspaceKind)>, Constraints) {
        let mut searches: Vec<(usize, MapspaceKind)> = (0..self.figure_layers.len())
            .flat_map(|i| [(i, MapspaceKind::Pfm), (i, MapspaceKind::RubyS)])
            .collect();
        shuffle(&mut searches, seed);
        (searches, Constraints::eyeriss_row_stationary(3, 1))
    }
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (rand::splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_fixes_the_order() {
        let scope = Scope::full();
        assert_eq!(scope.query_lines(7), scope.query_lines(7));
        assert_ne!(scope.query_lines(7), scope.query_lines(8));
        assert_eq!(scope.query_lines(7).len(), 2 * 41 * 3);
    }
}
