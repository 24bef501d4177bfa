//! Mapspace generation for the Ruby reproduction.
//!
//! This crate implements the paper's contribution: alongside the
//! perfect-factorization mapspace (PFM) used by Timeloop, it generates
//! the **imperfect factorization** expansions:
//!
//! * [`MapspaceKind::Ruby`] — remainders anywhere (eq. 5);
//! * [`MapspaceKind::RubyS`] — remainders only at spatial slots, giving
//!   full-array parallelism with a moderate space expansion;
//! * [`MapspaceKind::RubyT`] — remainders only at temporal slots.
//!
//! A [`Mapspace`] couples an architecture, a workload and
//! [`Constraints`] (Timeloop-style spatial dimension filters) and
//! supports random sampling, exhaustive perfect-space enumeration and
//! tiling-count estimation (the Table I study). [`padding`] implements
//! the pad-to-array baseline compared against Ruby-S in Fig. 8.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use ruby_arch::presets;
//! use ruby_mapspace::{Mapspace, MapspaceKind};
//! use ruby_workload::ProblemShape;
//!
//! let space = Mapspace::new(
//!     presets::toy_linear(9, 1024),
//!     ProblemShape::rank1("d", 113),
//!     MapspaceKind::RubyS,
//! );
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
//! let mapping = space.sample(&mut rng);
//! assert_eq!(mapping.tile_chain(ruby_workload::Dim::M).last(), Some(&113));
//! ```

pub mod constraints;
pub mod enumerate;
pub mod factor;
pub mod heuristic;
pub mod padding;
pub mod permute;
pub mod space;

pub use constraints::{Constraints, DimSet};
pub use enumerate::{EnumError, EnumLimits, EnumTables, GroupView, Region, SubspaceIterator};
pub use permute::{FeistelPermutation, PermutedIterator};
pub use space::{Mapspace, MapspaceKind, Sampler};
