//! Experiment harness for the Ruby reproduction: one module per table or
//! figure in the paper's evaluation, each producing a structured result
//! plus a text rendering that mirrors the published rows/series.
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`fig7`]   | Fig. 7 — best-EDP-so-far vs mappings evaluated, four toy scenarios |
//! | [`table1`] | Table I — mapspace size vs tensor size |
//! | [`fig8`]   | Fig. 8 — EDP vs dimension size: Ruby-S vs PFM vs PFM+padding |
//! | [`fig9`]   | Fig. 9 — AlexNet layer-2 case study vs the handcrafted mapping |
//! | [`fig10`]  | Fig. 10 — ResNet-50 per layer on the Eyeriss-like baseline |
//! | [`fig11`]  | Fig. 11 — DeepBench on the Eyeriss-like baseline |
//! | [`fig12`]  | Fig. 12 — ResNet-50 on the Simba-like architecture |
//! | [`fig13`]  | Fig. 13 — area/EDP Pareto over PE-array configurations |
//! | [`fig14`]  | Fig. 14 — per-configuration EDP improvement over the sweep |
//!
//! Three extension studies go beyond the paper: [`ext_bypass`] (joint
//! GLB-bypass/mapping exploration), [`ext_search`] (the permuted walk vs
//! the paper's sampler vs the search-free heuristic vs pruned enumeration
//! on the same Ruby-S space), and
//! [`ext_hierarchy`] (Ruby-S on a four-level clustered design).
//! [`records`] flattens any suite into timed per-layer search-quality
//! JSONL records (the `layer_records` binary writes
//! `BENCH_layers.jsonl`).
//!
//! Every experiment takes an [`ExperimentBudget`] so the same code runs as
//! a fast smoke test ([`ExperimentBudget::quick`]) or at paper scale
//! ([`ExperimentBudget::full`]). Seeds are fixed: runs are reproducible.

pub mod common;
pub mod ext_bypass;
pub mod ext_hierarchy;
pub mod ext_search;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod records;
pub mod table;
pub mod table1;

pub use common::{ExperimentBudget, LayerComparison};
