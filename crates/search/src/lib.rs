//! Mapping search for the Ruby reproduction.
//!
//! The paper deliberately uses *only* Timeloop's random-sampling search so
//! that mapspace quality — not search cleverness — drives the results
//! ("To disentangle mapspace generation from the search heuristics we
//! only employ Timeloop's random sampling based search"). This crate
//! reimplements that: threads draw mappings from a
//! [`ruby_mapspace::Mapspace`], evaluate them with
//! [`ruby_model::evaluate_with`], keep the best under an [`Objective`],
//! and stop after a configurable number of *consecutive valid mappings
//! that fail to improve* (the paper uses 3000 across 24 threads).
//!
//! # Hot-path design
//!
//! The sample→evaluate→compare loop is engineered so the common cases
//! touch no locks and allocate nothing:
//!
//! * each worker owns a [`ruby_mapspace::Sampler`] plus one reused
//!   [`Mapping`] buffer ([`ruby_mapspace::Sampler::sample_into`]) and an
//!   [`EvalContext`] built once per search;
//! * the best cost lives in an atomic `u64` holding `f64` bits; workers
//!   compare against it locally and only compare-and-swap — then take
//!   the mutex guarding the best *mapping* and trace — on an actual
//!   improvement, which is rare (the trace is a short staircase);
//! * the no-improvement counter is a plain atomic, so the Timeloop
//!   victory condition costs one `fetch_add` per valid mapping.
//!
//! With one thread the engine is exactly deterministic under a fixed
//! seed; with many, per-thread RNG streams are decorrelated by
//! SplitMix64 seed spreading and only the improvement *order* can vary.
//!
//! # One protocol for every strategy
//!
//! The strategies differ only in where candidates come from: the
//! rejection sampler draws one per round, the permuted walk decodes up
//! to a batch, and the sweep visits screened leaves in a fixed order and
//! then polishes the winner's loop orders. What happens to a candidate is
//! written once, at the crate root:
//!
//! * **fan-out** — N workers (inline with one thread), joined, with the
//!   drain checkpoint written from their final cursors on an early stop;
//! * **supervision** — a worker body runs under `catch_unwind`; a panic
//!   that escapes per-candidate containment quarantines the candidate in
//!   flight and restarts the body, up to `max_worker_restarts` times;
//! * **reservation** — poll the interrupt sources, then reserve one
//!   evaluation against the budget, undoing it on overflow;
//! * **containment** — scoring runs behind the `search.eval` failpoint
//!   with panics caught per candidate;
//! * **settlement** — a scored candidate (valid, floor-bounded, invalid,
//!   memo duplicate or panicked) becomes counters, memo entries, best
//!   tracking and the strategy's stopping state: Timeloop's victory
//!   counter for the sampler and the walk, the patience ordinal for the
//!   sweep, strict improvements for the sweep's permutation polish. Only
//!   supervised workers drain on a spent restart budget; the sweep counts
//!   panics but keeps going.
//!
//! # Examples
//!
//! All strategies run through the [`Engine`] facade; configurations come
//! from the validating [`SearchConfig::builder`]:
//!
//! ```
//! use ruby_arch::presets;
//! use ruby_mapspace::{Mapspace, MapspaceKind};
//! use ruby_search::{Engine, SearchConfig};
//! use ruby_workload::ProblemShape;
//!
//! let space = Mapspace::new(
//!     presets::toy_linear(16, 1024),
//!     ProblemShape::rank1("d", 113),
//!     MapspaceKind::RubyS,
//! );
//! let config = SearchConfig::builder().build().expect("defaults are valid");
//! let outcome = Engine::new(&space).with_config(config).run();
//! let best = outcome.best.expect("the toy space has valid mappings");
//! assert_eq!(best.report.cycles(), 8); // ceil(113/16): full-array Ruby-S
//! ```
//!
//! Attach a [`ProgressSink`] with [`Engine::with_progress`] to stream
//! [`SearchSnapshot`] events while the search runs (see the `engine`
//! module docs); the sink also receives the summary and the metrics
//! registry dump.

pub mod checkpoint;
mod engine;
mod exhaustive;
mod memo;
mod permuted;
pub mod stop;

/// Atomic primitives for the lock-free hot path. Production builds bind
/// the std atomics directly; test and `shuttle`-feature builds route
/// through the `ruby-analysis` interleaving shim, whose per-access yield
/// points let the mini-loom explorer model-check every schedule of the
/// memo-cache and best-tracker protocols (see `interleave_tests`).
/// Outside an active exploration the shim passes straight through, so
/// ordinary tests exercise the same semantics as production.
#[cfg(not(any(test, feature = "shuttle")))]
pub(crate) mod sync {
    pub(crate) use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
}
#[cfg(any(test, feature = "shuttle"))]
pub(crate) mod sync {
    pub(crate) use ruby_analysis::interleave::shim::{AtomicBool, AtomicU64, Ordering};
}

#[cfg(test)]
mod interleave_tests;

use std::sync::{Mutex, OnceLock, PoisonError};

use crate::sync::{AtomicBool, AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ruby_mapping::Mapping;
use ruby_mapspace::Mapspace;
use ruby_model::{evaluate_with, CostReport, CostSummary, EvalContext, ModelOptions};

pub use checkpoint::{CheckpointError, SearchCheckpoint, CHECKPOINT_SCHEMA};
pub use engine::{ConfigError, Engine, SearchConfigBuilder};
pub use memo::MemoCache;
pub use stop::StopToken;
// Re-exported so Engine callers can attach sinks without a direct
// ruby-telemetry dependency.
pub use ruby_telemetry::{
    write_atomic, HumanSink, JsonlSink, MemorySink, MultiSink, ProgressSink, SearchSnapshot,
    SCHEMA_VERSION,
};

/// The quantity the search minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Energy–delay product (the paper's primary target).
    #[default]
    Edp,
    /// Total energy.
    Energy,
    /// Cycle count (the latency experiments of §IV-D).
    Delay,
}

impl Objective {
    /// The scalar cost of a report under this objective (lower is
    /// better).
    pub fn cost(self, report: &CostReport) -> f64 {
        match self {
            Objective::Edp => report.edp(),
            Objective::Energy => report.energy(),
            Objective::Delay => report.cycles() as f64,
        }
    }

    /// The scalar cost of a lean summary under this objective —
    /// bit-identical to [`Self::cost`] on the full report of the same
    /// mapping ([`CostSummary`] is computed by the same core pass).
    pub fn cost_of_summary(self, summary: &CostSummary) -> f64 {
        match self {
            Objective::Edp => summary.edp(),
            Objective::Energy => summary.energy(),
            Objective::Delay => summary.cycles() as f64,
        }
    }

    /// An admissible lower bound on this objective for any valid mapping
    /// with ≥ `min_steps` sequential steps, given the context's energy
    /// floor: true cycles ≥ compute steps and true energy ≥ the floor,
    /// and both factors are positive, so the products compose soundly.
    pub fn cost_floor(self, energy_floor: f64, min_steps: u64) -> f64 {
        match self {
            Objective::Edp => energy_floor * min_steps as f64,
            Objective::Energy => energy_floor,
            Objective::Delay => min_steps as f64,
        }
    }

    /// Stable lowercase name (CLI flag value / JSON field).
    pub const fn name(self) -> &'static str {
        match self {
            Objective::Edp => "edp",
            Objective::Energy => "energy",
            Objective::Delay => "delay",
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Objective {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, ConfigError> {
        match s {
            "edp" => Ok(Objective::Edp),
            "energy" => Ok(Objective::Energy),
            "delay" => Ok(Objective::Delay),
            other => Err(ConfigError::UnknownObjective(other.to_owned())),
        }
    }
}

/// How the search covers the mapspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchStrategy {
    /// Random exploration. When the space tabulates this is the
    /// permuted walk ([`permuted`]): a seeded format-preserving
    /// permutation over the deduplicated enumeration index space, so
    /// every candidate is distinct and the walk can exhaust the space;
    /// otherwise it falls back to the rejection sampler.
    #[default]
    Random,
    /// Timeloop-style generative rejection sampling (the paper's search
    /// methodology): per-slot uniform factor draws with a dedup memo.
    /// Unlike [`SearchStrategy::Random`]'s uniform-over-leaves walk,
    /// the generative distribution concentrates on balanced
    /// factorizations, which is the sampling bias the paper's
    /// mapspace-quality comparisons are defined under — the figure
    /// experiments use this strategy.
    Sampled,
    /// Deterministic pruned enumeration over the deduplicated chain
    /// support ([`ruby_mapspace::EnumTables`]): cheap single-leaf probes
    /// rank the fanout regions, capacity screening and an admissible
    /// cost lower bound discard candidates before the model runs, and a
    /// patience rule over the considered-candidate ordinal stops the
    /// sweep. Falls back to random sampling when the space is too large
    /// to tabulate.
    Exhaustive,
    /// A random warm-up (one third of the budget) to seed the pruning
    /// bound, then enumeration over the remainder.
    Hybrid,
}

impl SearchStrategy {
    /// Stable lowercase name (CLI flag value / bench JSON field).
    pub const fn name(self) -> &'static str {
        match self {
            SearchStrategy::Random => "random",
            SearchStrategy::Sampled => "sampled",
            SearchStrategy::Exhaustive => "exhaustive",
            SearchStrategy::Hybrid => "hybrid",
        }
    }
}

impl std::fmt::Display for SearchStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SearchStrategy {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, ConfigError> {
        match s {
            "random" => Ok(SearchStrategy::Random),
            "sampled" => Ok(SearchStrategy::Sampled),
            "exhaustive" => Ok(SearchStrategy::Exhaustive),
            "hybrid" => Ok(SearchStrategy::Hybrid),
            other => Err(ConfigError::UnknownStrategy(other.to_owned())),
        }
    }
}

/// Search configuration. The defaults suit unit-test-scale problems;
/// experiments raise `termination` and `threads`.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Base RNG seed; thread `i` draws from a stream seeded by
    /// SplitMix64-spreading `(seed, i)`.
    pub seed: u64,
    /// Hard cap on total sampled mappings (valid or not); `None` =
    /// unlimited.
    pub max_evaluations: Option<u64>,
    /// Random sampling: stop after this many consecutive valid mappings
    /// without improvement (Timeloop's victory condition). Enumeration:
    /// stop after this many *considered candidates* past the first
    /// achiever of the current best (a deterministic patience rule).
    /// `None` disables it — then `max_evaluations` must be set.
    pub termination: Option<u64>,
    /// Worker threads. Defaults to the machine's available parallelism;
    /// set to 1 for bit-exact reproducibility.
    pub threads: usize,
    /// Cap on the improvement trace kept in [`SearchOutcome::trace`].
    /// Once full, later improvements overwrite the last entry so the
    /// final best is always recorded.
    pub max_trace: usize,
    /// What to minimize.
    pub objective: Objective,
    /// Cost-model options.
    pub model: ModelOptions,
    /// How to cover the mapspace.
    pub strategy: SearchStrategy,
    /// Skip candidates (and enumeration subtrees) whose cost lower bound
    /// already exceeds the best found. Pruning never discards a
    /// potential optimum (the bound is admissible), so it only affects
    /// the `valid`/`pruned_*` counters, not the result.
    pub prune: bool,
    /// Memoize evaluated canonical keys so duplicate factorizations are
    /// not re-evaluated (counted in [`SearchOutcome::duplicates`]).
    pub dedup: bool,
    /// Memo cache size: `2^memo_bits` slots (16 bytes each).
    pub memo_bits: u32,
    /// Wall-clock cap in seconds. Polled at loop boundaries, so runs
    /// overshoot by at most one unit of work; an expired deadline drains
    /// gracefully (checkpoint + `stopped_early` outcome). `None` = no
    /// deadline. Non-positive or non-finite values are ignored (the
    /// builder rejects them up front).
    pub max_seconds: Option<f64>,
    /// How many times a panicking worker body is restarted — with the
    /// offending candidate quarantined — before the run gives up and
    /// drains with `stop_reason: "worker-failures"`.
    pub max_worker_restarts: u64,
}

impl SearchConfig {
    /// A validating builder starting from the defaults; the only way to
    /// obtain a config that is *guaranteed* runnable (direct struct
    /// construction defers the same checks to panics inside the engine).
    pub fn builder() -> SearchConfigBuilder {
        SearchConfigBuilder::default()
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            seed: 0,
            max_evaluations: Some(200_000),
            termination: Some(1_000),
            threads: default_threads(),
            max_trace: 4096,
            objective: Objective::Edp,
            model: ModelOptions::default(),
            strategy: SearchStrategy::default(),
            prune: true,
            dedup: true,
            memo_bits: 18,
            max_seconds: None,
            max_worker_restarts: 8,
        }
    }
}

/// The machine's available parallelism, or 1 when it cannot be queried.
/// Queried once per process: the query reads cgroup files, and every
/// `SearchConfig::default()` asks for it.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Spreads `(seed, thread)` into a decorrelated per-thread RNG seed.
///
/// Plain `seed + thread` hands adjacent threads adjacent SplitMix64
/// starting points, which `SmallRng::seed_from_u64` expands into highly
/// overlapping xoshiro state schedules. Mixing the pair through a full
/// SplitMix64 round first puts every thread on an unrelated seed.
fn spread_seed(seed: u64, thread_index: u64) -> u64 {
    let mut state = seed ^ thread_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    rand::splitmix64(&mut state)
}

/// The best mapping found and its evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct BestMapping {
    /// The winning mapping.
    pub mapping: Mapping,
    /// Its cost report.
    pub report: CostReport,
    /// Its scalar cost under the search objective.
    pub cost: f64,
}

/// The result of a search run.
///
/// Budget accounting: `evaluations` counts every candidate *scored* —
/// fully evaluated by the model (`valid` + `invalid`) or settled by the
/// memo cache (`duplicates`) — so for **every** strategy
/// `evaluations = valid + invalid + duplicates`. Candidates the
/// enumeration engine discards without scoring (table-level capacity
/// screening, cost-lower-bound cuts) are reported separately in
/// `pruned_mappings` / `pruned_subtrees`: they represent avoided model
/// work, not spent budget. [`SearchConfig::max_evaluations`] bounds the
/// candidates *considered* (scored plus bound-pruned), so `evaluations`
/// never exceeds it.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best valid mapping, if any was found.
    pub best: Option<BestMapping>,
    /// Total candidates scored (see the budget-accounting note).
    pub evaluations: u64,
    /// Fully evaluated, model-valid mappings among them.
    pub valid: u64,
    /// Candidates the model rejected (capacity / fanout violations).
    pub invalid: u64,
    /// Candidates skipped because their canonical key was already in the
    /// memo cache.
    pub duplicates: u64,
    /// Enumeration subtrees (whole regions / work chunks) discarded by
    /// the cost lower bound before iteration.
    pub pruned_subtrees: u64,
    /// Individual candidates discarded by the cost lower bound
    /// (including all members of pruned subtrees).
    pub pruned_mappings: u64,
    /// Whether the strategy provably covered the entire (deduplicated)
    /// mapspace — only the enumeration strategies can set this.
    pub exhausted: bool,
    /// `(evaluations-so-far, best-cost)` at every improvement — the
    /// best-so-far staircase of Fig. 7, capped at
    /// [`SearchConfig::max_trace`] entries.
    pub trace: Vec<(u64, f64)>,
    /// Whether the run was interrupted (stop token, deadline, or
    /// exhausted worker-restart budget) and drained instead of finishing
    /// on its own terms. Interrupted runs are still valid outcomes.
    pub stopped_early: bool,
    /// Why the run stopped early (`"stop-requested"`, `"deadline"` or
    /// `"worker-failures"`); `None` when it was not interrupted.
    pub stop_reason: Option<String>,
    /// Times a panicking worker body was restarted with the offending
    /// candidate quarantined (see [`SearchConfig::max_worker_restarts`]).
    pub worker_restarts: u64,
    /// Candidates quarantined after their evaluation panicked; each is
    /// counted as `invalid` and memoized so it is never retried.
    pub quarantined: u64,
}

impl serde::Serialize for BestMapping {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("cost".to_owned(), serde::Value::F64(self.cost)),
            ("mapping".to_owned(), self.mapping.to_value()),
            ("report".to_owned(), self.report.to_value()),
        ])
    }
}

impl serde::Deserialize for BestMapping {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(BestMapping {
            mapping: serde::Deserialize::from_value(value.field("mapping")?)?,
            report: serde::Deserialize::from_value(value.field("report")?)?,
            cost: value.field("cost")?.as_f64()?,
        })
    }
}

// SearchOutcome's JSON form is the project's one stable search-result
// schema: the CLI's `--json` output, `BENCH_search.json` entries and the
// telemetry JSONL summary record all serialize through here, leading
// with `"schema": SCHEMA_VERSION` so consumers can detect breaking
// changes. Extra fields (e.g. the JSONL sink's `"event"` tag) are
// ignored on the way back in.
impl serde::Serialize for SearchOutcome {
    fn to_value(&self) -> serde::Value {
        let best = match &self.best {
            Some(best) => best.to_value(),
            None => serde::Value::Null,
        };
        serde::Value::Obj(vec![
            ("schema".to_owned(), serde::Value::U64(SCHEMA_VERSION)),
            (
                "evaluations".to_owned(),
                serde::Value::U64(self.evaluations),
            ),
            ("valid".to_owned(), serde::Value::U64(self.valid)),
            ("invalid".to_owned(), serde::Value::U64(self.invalid)),
            ("duplicates".to_owned(), serde::Value::U64(self.duplicates)),
            (
                "pruned_subtrees".to_owned(),
                serde::Value::U64(self.pruned_subtrees),
            ),
            (
                "pruned_mappings".to_owned(),
                serde::Value::U64(self.pruned_mappings),
            ),
            ("exhausted".to_owned(), serde::Value::Bool(self.exhausted)),
            (
                "stopped_early".to_owned(),
                serde::Value::Bool(self.stopped_early),
            ),
            (
                "stop_reason".to_owned(),
                match &self.stop_reason {
                    Some(reason) => serde::Value::Str(reason.clone()),
                    None => serde::Value::Null,
                },
            ),
            (
                "worker_restarts".to_owned(),
                serde::Value::U64(self.worker_restarts),
            ),
            (
                "quarantined".to_owned(),
                serde::Value::U64(self.quarantined),
            ),
            ("best".to_owned(), best),
            ("trace".to_owned(), self.trace.to_value()),
        ])
    }
}

impl serde::Deserialize for SearchOutcome {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let schema = value.field("schema")?.as_u64()?;
        if schema != SCHEMA_VERSION {
            return Err(serde::Error::custom(format!(
                "unsupported search-outcome schema {schema} (expected {SCHEMA_VERSION})"
            )));
        }
        let best = match value.field("best")? {
            serde::Value::Null => None,
            other => Some(serde::Deserialize::from_value(other)?),
        };
        Ok(SearchOutcome {
            best,
            evaluations: value.field("evaluations")?.as_u64()?,
            valid: value.field("valid")?.as_u64()?,
            invalid: value.field("invalid")?.as_u64()?,
            duplicates: value.field("duplicates")?.as_u64()?,
            pruned_subtrees: value.field("pruned_subtrees")?.as_u64()?,
            pruned_mappings: value.field("pruned_mappings")?.as_u64()?,
            exhausted: value.field("exhausted")?.as_bool()?,
            trace: serde::Deserialize::from_value(value.field("trace")?)?,
            stopped_early: value.field("stopped_early")?.as_bool()?,
            stop_reason: match value.field("stop_reason")? {
                serde::Value::Null => None,
                other => Some(other.as_str()?.to_owned()),
            },
            worker_restarts: value.field("worker_restarts")?.as_u64()?,
            quarantined: value.field("quarantined")?.as_u64()?,
        })
    }
}

struct Shared {
    evals: AtomicU64,
    valid: AtomicU64,
    invalid: AtomicU64,
    duplicates: AtomicU64,
    pruned_subtrees: AtomicU64,
    pruned_mappings: AtomicU64,
    /// Strict best-cost improvements recorded (trace pushes/overwrites).
    improvements: AtomicU64,
    stop: AtomicBool,
    /// Bit pattern of the best cost so far (`f64::to_bits`); starts at
    /// `+inf`. Compared by value after `from_bits`, never by bits.
    best_bits: AtomicU64,
    /// Consecutive valid mappings without improvement. The reset on
    /// improvement races with concurrent increments only across threads,
    /// matching Timeloop's approximate multi-threaded victory condition;
    /// single-threaded it is exact.
    fails: AtomicU64,
    /// Shared memo cache; `None` when [`SearchConfig::dedup`] is off or
    /// no leg of the run uses it (see `engine::shared_for`).
    memo: Option<MemoCache>,
    /// Taken only when a thread has already won the best-cost CAS.
    record: Mutex<Record>,
    /// Progress-streaming state; `Some` only when the [`Engine`] runs
    /// with a sink attached (see `engine::ProgressState`).
    progress: Option<engine::ProgressState>,
    /// External cancellation handle; `None` unless the [`Engine`] was
    /// given one ([`Engine::with_stop_token`]).
    token: Option<stop::StopToken>,
    /// Wall-clock cutoff derived from [`SearchConfig::max_seconds`].
    deadline: Option<std::time::Instant>,
    /// Whether the run was interrupted (distinct from `stop`, which any
    /// natural termination rule also raises).
    stopped_early: AtomicBool,
    /// First interrupt cause to fire (`STOP_REASON_*`; 0 = none).
    stop_reason: AtomicU64,
    /// Times a panicking worker body was restarted.
    worker_restarts: AtomicU64,
    /// Candidates quarantined after a panic during evaluation.
    quarantined: AtomicU64,
    /// Canonical keys of quarantined candidates (for the checkpoint and
    /// post-mortem reporting).
    poison: Mutex<Vec<u64>>,
}

/// `Shared::stop_reason` codes, mapped to strings by
/// [`stop_reason_name`].
pub(crate) const STOP_REASON_REQUESTED: u64 = 1;
pub(crate) const STOP_REASON_DEADLINE: u64 = 2;
pub(crate) const STOP_REASON_WORKER_FAILURES: u64 = 3;

pub(crate) fn stop_reason_name(code: u64) -> Option<String> {
    match code {
        STOP_REASON_REQUESTED => Some("stop-requested".to_owned()),
        STOP_REASON_DEADLINE => Some("deadline".to_owned()),
        STOP_REASON_WORKER_FAILURES => Some("worker-failures".to_owned()),
        _ => None,
    }
}

impl Shared {
    fn new(config: &SearchConfig) -> Self {
        Shared {
            evals: AtomicU64::new(0),
            valid: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            pruned_subtrees: AtomicU64::new(0),
            pruned_mappings: AtomicU64::new(0),
            improvements: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            best_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            fails: AtomicU64::new(0),
            memo: None,
            record: Mutex::new(Record {
                best: None,
                trace: Vec::new(),
                best_ordinal: 0,
            }),
            progress: None,
            token: None,
            deadline: config
                .max_seconds
                .filter(|s| s.is_finite() && *s > 0.0)
                .map(|s| std::time::Instant::now() + std::time::Duration::from_secs_f64(s)),
            stopped_early: AtomicBool::new(false),
            stop_reason: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            poison: Mutex::new(Vec::new()),
        }
    }

    /// Polls the interrupt sources (stop token, wall-clock deadline) and
    /// latches the first one to fire. Cheap enough for loop boundaries:
    /// two relaxed loads on the common path, plus an `Instant::now()`
    /// when a deadline is configured.
    fn check_interrupt(&self) -> bool {
        // ordering: Relaxed — advisory latch; the join barrier at scope
        // exit is the real synchronization point.
        if self.stopped_early.load(Ordering::Relaxed) {
            return true;
        }
        let reason = if self
            .token
            .as_ref()
            // ordering: Relaxed — see the field docs: evals is a value-
            // only counter feeding the deterministic trip-wire.
            .is_some_and(|t| t.should_stop_at(self.evals.load(Ordering::Relaxed)))
        {
            STOP_REASON_REQUESTED
        } else if self
            .deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
        {
            STOP_REASON_DEADLINE
        } else {
            return false;
        };
        self.mark_stopped_early(reason);
        true
    }

    /// Latches an interrupt: records the first cause, marks the run
    /// `stopped_early`, and raises the strategies' shared stop flag.
    fn mark_stopped_early(&self, reason: u64) {
        // ordering: Relaxed — advisory flags; only the first CAS winner's
        // reason is reported, which is all the semantics promised.
        self.stopped_early.store(true, Ordering::Relaxed);
        let _ = self
            .stop_reason
            .compare_exchange(0, reason, Ordering::Relaxed, Ordering::Relaxed);
        // ordering: Relaxed — advisory latch (see above).
        self.stop.store(true, Ordering::Relaxed);
    }

    fn is_stopped_early(&self) -> bool {
        // ordering: Relaxed — advisory latch (see check_interrupt).
        self.stopped_early.load(Ordering::Relaxed)
    }
}

struct Record {
    best: Option<BestMapping>,
    trace: Vec<(u64, f64)>,
    /// Position in the strategy's candidate sequence where the current
    /// best cost was *first* achievable: set on strict improvement,
    /// pulled back to the minimum on exact cost ties (including memo
    /// duplicates of the best). The enumeration backend's patience
    /// termination measures candidates considered past this point —
    /// deterministic because the candidate sequence and costs are.
    best_ordinal: u64,
}

/// How one candidate scored.
enum Scored<R> {
    /// Its canonical key was already memoized with this cost (`+inf` =
    /// invalid), so it was not scored again.
    Duplicate(f64),
    /// The model accepted it at this objective cost. `R` materializes
    /// the full report; settlement calls it only on an improvement.
    Valid(f64, R),
    /// Valid, but its admissible cost floor already loses to the best,
    /// so it was never costed: it can neither improve nor tie.
    Bounded,
    /// The model rejected it (capacity / fanout violations).
    Invalid,
    /// Scoring panicked (a model bug or the `search.eval` failpoint);
    /// settlement quarantines the candidate.
    Panicked,
}

/// The per-candidate panic containment every strategy's scoring runs
/// under, behind the `search.eval` failpoint (so resilience tests can
/// inject evaluation panics on every path).
fn contain<R>(score: impl FnOnce() -> Scored<R>) -> Scored<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if matches!(
            ruby_failpoints::hit("search.eval"),
            ruby_failpoints::Action::Panic
        ) {
            // justified: deliberate: this is the injected
            // fault the supervised workers must recover from.
            panic!("failpoint search.eval: injected evaluation panic");
        }
        score()
    }))
    // The payload is dropped: the panic is contained, and settlement
    // accounts for it via quarantine.
    .unwrap_or(Scored::Panicked)
}

/// What a worker under [`supervise`] carries between restarts.
struct Worker {
    restarts_left: u64,
    /// Canonical key of the candidate being handled outside [`contain`];
    /// a panic escaping the body quarantines it.
    in_flight: Option<u64>,
}

/// How a strategy's valid candidates feed best tracking and stopping,
/// and what a contained panic costs it.
enum Rule<'w> {
    /// The sampler and the walk: Timeloop's victory counter. A valid
    /// candidate that does not improve the best (a valid memo duplicate
    /// too) counts toward `termination`, an improvement resets it, and
    /// exact cost ties keep the smaller canonical key. A panic spends one
    /// of the worker's restarts; with none left the run drains with
    /// `"worker-failures"`.
    Victory(&'w mut Worker),
    /// The sweep: ties (memo duplicates of the best included) pull the
    /// first-achiever ordinal of its patience rule back, and keep the
    /// smaller canonical key. Panics are counted, never drained.
    Patience,
    /// The sweep's permutation polish (a local search around the
    /// winner): only strict improvements are recorded, so the first
    /// mapping to reach a cost keeps it. Panics are counted, never
    /// drained.
    Local,
}

/// Runs one worker per entry of `starts` — inline when `threads == 1`,
/// else on scoped threads — and returns their final cursors. Only the
/// inline worker checkpoints periodically: with one thread the loop is
/// deterministic, so its snapshots sit on the uninterrupted run's own
/// trajectory. A run that stopped early writes its drain checkpoint from
/// the final cursors.
fn fan_out<S: Default + Send>(
    config: &SearchConfig,
    shared: &Shared,
    cpr: Option<&checkpoint::Checkpointer>,
    starts: Vec<S>,
    worker: impl Fn(S, Option<&checkpoint::Checkpointer>) -> S + Sync,
    cursor: impl Fn(&[S]) -> checkpoint::Cursor,
) -> Vec<S> {
    let finals = if config.threads == 1 {
        vec![worker(starts.into_iter().next().unwrap_or_default(), cpr)]
    } else {
        let worker = &worker;
        std::thread::scope(|scope| {
            let handles: Vec<_> = starts
                .into_iter()
                .map(|start| scope.spawn(move || worker(start, None)))
                .collect();
            handles
                .into_iter()
                // A join error means a panic escaped the supervised
                // worker body (a harness bug); degrade to a fresh cursor.
                .map(|h| h.join().unwrap_or_default())
                .collect()
        })
    };
    if shared.is_stopped_early() {
        if let Some(cpr) = cpr {
            cpr.save(checkpoint::SearchCheckpoint::capture(
                shared,
                config,
                cursor(&finals),
            ));
        }
    }
    finals
}

/// Runs a worker body under `catch_unwind`. A panic that escapes the
/// per-candidate containment quarantines the candidate in flight and
/// restarts the body — up to [`SearchConfig::max_worker_restarts`]
/// times, after which the run drains with `"worker-failures"`.
fn supervise(config: &SearchConfig, shared: &Shared, mut body: impl FnMut(&mut Worker)) {
    shared.progress_thread_started();
    let mut worker = Worker {
        restarts_left: config.max_worker_restarts,
        in_flight: None,
    };
    loop {
        worker.in_flight = None;
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut worker)));
        if run.is_ok() {
            break;
        }
        // Best-effort accounting: when the panic struck with no candidate
        // in flight (e.g. inside the sampler or the batch decode), the
        // charged reservations stay unclassified — a one-off slack in the
        // `valid + invalid + duplicates` identity beats miscounting an
        // unknown candidate.
        if let Some(key) = worker.in_flight {
            shared.quarantine(key);
        }
        if !shared.restart(Some(&mut worker.restarts_left)) {
            break;
        }
    }
    shared.progress_thread_stopped();
}

impl Shared {
    /// Polls the interrupt sources, then reserves one evaluation against
    /// `budget`. Returns the reservation's ordinal (the evaluation count
    /// including it), or `None` with nothing reserved when an interrupt
    /// fired or the budget is spent (which also raises the stop flag).
    /// Polling first means draining never needs an undo, so a drain
    /// checkpoint freezes a state the uninterrupted run also passes
    /// through.
    fn reserve(&self, budget: Option<u64>) -> Option<u64> {
        if self.check_interrupt() {
            return None;
        }
        let evals = self.charge();
        if budget.is_some_and(|max| evals > max) {
            // Undo the reservation so the reported total never exceeds
            // the cap, however many threads raced here.
            self.unreserve();
            // ordering: Relaxed — advisory stop flag; the join barrier
            // is the real synchronization point.
            self.stop.store(true, Ordering::Relaxed);
            return None;
        }
        Some(evals)
    }

    /// Charges one evaluation (no poll, no budget check) and returns its
    /// ordinal.
    fn charge(&self) -> u64 {
        // ordering: Relaxed — budget counter; only its arithmetic value
        // matters, no payload is published through it.
        self.evals.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Hands one reservation back.
    fn unreserve(&self) {
        // ordering: Relaxed — same counter discipline as `charge`.
        self.evals.fetch_sub(1, Ordering::Relaxed);
    }

    /// The best cost so far (`+inf` before any valid candidate).
    fn best_cost(&self) -> f64 {
        // ordering: Relaxed — value-only snapshot; the best only
        // decreases, and the authoritative comparison runs under the
        // record lock.
        f64::from_bits(self.best_bits.load(Ordering::Relaxed))
    }

    /// Scores a fully built candidate: a memo probe, then on a miss the
    /// model under [`contain`].
    fn score(
        &self,
        ctx: &EvalContext,
        objective: Objective,
        mapping: &Mapping,
        key: u64,
    ) -> Scored<impl FnOnce() -> CostReport> {
        if let Some(cost) = self.memo.as_ref().and_then(|memo| memo.probe(key)) {
            return Scored::Duplicate(cost);
        }
        contain(|| match evaluate_with(ctx, mapping) {
            Ok(report) => Scored::Valid(objective.cost(&report), move || report),
            Err(_) => Scored::Invalid,
        })
    }

    /// Settles one scored candidate into the counters, the memo, best
    /// tracking and `rule`'s stopping state (the caller has already
    /// charged its evaluation). `key` is its canonical key when the caller
    /// has it (computed on demand otherwise); `ordinal` is its position
    /// in the strategy's candidate sequence, which the trace records.
    /// Returns its cost when it is valid and costed, memo duplicates
    /// included.
    fn settle(
        &self,
        config: &SearchConfig,
        mut rule: Rule<'_>,
        mapping: &Mapping,
        key: Option<u64>,
        ordinal: u64,
        scored: Scored<impl FnOnce() -> CostReport>,
    ) -> Option<f64> {
        let key = || key.unwrap_or_else(|| mapping.canonical_key());
        match scored {
            Scored::Duplicate(cost) => {
                // ordering: Relaxed — statistics counter, read after the
                // thread join barrier (as are the counters below).
                self.duplicates.fetch_add(1, Ordering::Relaxed);
                if cost == f64::INFINITY {
                    return None;
                }
                // The first occurrence already went through best
                // tracking; a revisit only feeds the stopping rule.
                match rule {
                    Rule::Victory(_) => note_miss(self, config),
                    Rule::Patience => note_tie_ordinal(self, cost, ordinal),
                    Rule::Local => {}
                }
                Some(cost)
            }
            Scored::Valid(cost, report) => {
                // ordering: Relaxed — statistics counter.
                self.valid.fetch_add(1, Ordering::Relaxed);
                if let Some(memo) = &self.memo {
                    memo.insert(key(), cost);
                }
                let contends = !matches!(rule, Rule::Local) || cost < self.best_cost();
                let improved = contends && try_improve(self, cost) && {
                    // The report and the record update run outside
                    // `contain`; a supervised worker quarantines this
                    // candidate if they panic.
                    let held = match &mut rule {
                        Rule::Victory(worker) => worker.in_flight.replace(key()),
                        _ => None,
                    };
                    let improved =
                        record_improvement(self, config, mapping, report(), cost, ordinal);
                    if let Rule::Victory(worker) = &mut rule {
                        worker.in_flight = held;
                    }
                    improved
                };
                if let Rule::Victory(_) = rule {
                    if improved {
                        // ordering: Relaxed — approximate victory-counter
                        // reset; racing increments are acceptable
                        // (Timeloop semantics).
                        self.fails.store(0, Ordering::Relaxed);
                    } else {
                        note_miss(self, config);
                    }
                }
                Some(cost)
            }
            Scored::Bounded => {
                // Counted exactly as the non-improving candidate it would
                // have been had it been costed.
                // ordering: Relaxed — statistics counter.
                self.valid.fetch_add(1, Ordering::Relaxed);
                if let Rule::Victory(_) = rule {
                    note_miss(self, config);
                }
                None
            }
            Scored::Invalid => {
                // Invalid candidates never feed a stopping rule.
                // ordering: Relaxed — statistics counter.
                self.invalid.fetch_add(1, Ordering::Relaxed);
                if let Some(memo) = &self.memo {
                    memo.insert(key(), f64::INFINITY);
                }
                None
            }
            Scored::Panicked => {
                self.quarantine(key());
                let restarts = match rule {
                    Rule::Victory(worker) => Some(&mut worker.restarts_left),
                    Rule::Patience | Rule::Local => None,
                };
                self.restart(restarts);
                None
            }
        }
    }

    /// Quarantines a candidate whose scoring panicked: counts it invalid,
    /// memoizes `+inf` (when the run has a memo) so no strategy retries
    /// it, and records its key in the poison list.
    fn quarantine(&self, key: u64) {
        // ordering: Relaxed — statistics counters, read after join
        // barriers.
        self.invalid.fetch_add(1, Ordering::Relaxed);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        if let Some(memo) = &self.memo {
            memo.insert(key, f64::INFINITY);
        }
        self.poison
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(key);
    }

    /// Counts one contained panic as a worker restart. A supervised
    /// worker passes its remaining restarts and spends one, or drains the
    /// run with `"worker-failures"` when none are left; returns whether
    /// it carries on.
    fn restart(&self, restarts_left: Option<&mut u64>) -> bool {
        // ordering: Relaxed — statistics counter, read after the join
        // barrier.
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
        match restarts_left {
            Some(0) => {
                self.mark_stopped_early(STOP_REASON_WORKER_FAILURES);
                false
            }
            Some(left) => {
                *left -= 1;
                true
            }
            None => true,
        }
    }
}

/// Runs the rejection-sampling workers until `budget` (or termination):
/// each round reserves one evaluation, samples a mapping, probes the
/// memo and scores it.
///
/// `phase` tags which role the sampler is playing (plain / hybrid
/// warmup / enumeration fallback) so an interrupted run's checkpoint
/// can resume into the same role; `resume_rngs` restores per-worker RNG
/// states from such a checkpoint. With a checkpointer attached and one
/// thread, periodic checkpoints are written every
/// [`Checkpointer`](checkpoint::Checkpointer) stride; an interrupted
/// run always writes an exact final cursor at the drain point.
fn run_random(
    mapspace: &Mapspace,
    config: &SearchConfig,
    shared: &Shared,
    budget: Option<u64>,
    phase: checkpoint::RandomPhase,
    cpr: Option<&checkpoint::Checkpointer>,
    resume_rngs: Option<Vec<[u64; 4]>>,
) {
    let starts = (0..config.threads)
        .map(|t| match resume_rngs.as_ref().and_then(|r| r.get(t)) {
            Some(state) => *state,
            None => SmallRng::seed_from_u64(spread_seed(config.seed, t as u64)).to_state(),
        })
        .collect();
    let cursor = |rngs: &[[u64; 4]]| {
        checkpoint::Cursor::Random(checkpoint::RandomCursor {
            phase,
            budget,
            rngs: rngs.to_vec(),
        })
    };
    let worker = |state, cpr: Option<&checkpoint::Checkpointer>| {
        let ctx = EvalContext::new(mapspace.arch(), mapspace.shape(), config.model);
        let mut sampler = mapspace.sampler();
        // justified: every architecture has >= 1 level, so the
        // all-ones default factorization always builds; failure here is
        // a programming error, not an input error.
        let mut mapping = Mapping::builder(mapspace.arch().num_levels())
            .build_for_bounds(mapspace.shape().bounds())
            .expect("the default mapping is well-formed");
        let mut rng = SmallRng::from_state(state);
        supervise(config, shared, |worker| {
            // ordering: Relaxed — the stop flag is advisory: seeing it
            // late only costs a few extra samples.
            while !shared.stop.load(Ordering::Relaxed) {
                worker.in_flight = None;
                if let Some(cpr) = cpr {
                    // ordering: Relaxed — value-only counter read; this
                    // single-threaded loop is its only writer.
                    let done = shared.evals.load(Ordering::Relaxed);
                    if done > 0 && done.is_multiple_of(cpr.stride()) {
                        let state = [rng.to_state()];
                        cpr.save(checkpoint::SearchCheckpoint::capture(
                            shared,
                            config,
                            cursor(&state),
                        ));
                    }
                }
                let Some(evals) = shared.reserve(budget) else {
                    break;
                };
                // One masked branch per candidate; the publish itself (a
                // lossy CAS + word stores) runs once per stride per
                // thread and is a no-op without an attached sink.
                if evals & (engine::PROGRESS_STRIDE - 1) == 0 {
                    shared.publish_progress();
                }
                sampler.sample_into(&mut mapping, &mut rng);
                let key = mapping.canonical_key();
                worker.in_flight = Some(key);
                let scored = shared.score(&ctx, config.objective, &mapping, key);
                shared.settle(
                    config,
                    Rule::Victory(worker),
                    &mapping,
                    Some(key),
                    evals,
                    scored,
                );
            }
        });
        rng.to_state()
    };
    fan_out(config, shared, cpr, starts, worker, cursor);
}

/// Counts one valid candidate that did not improve the best toward
/// Timeloop's victory condition, raising the stop flag once
/// `termination` consecutive misses accrue.
fn note_miss(shared: &Shared, config: &SearchConfig) {
    // ordering: Relaxed — Timeloop's victory counter is deliberately
    // approximate across threads; the stop flag it feeds is advisory.
    let fails = shared.fails.fetch_add(1, Ordering::Relaxed) + 1;
    if config.termination.is_some_and(|limit| fails >= limit) {
        // ordering: Relaxed — advisory stop flag.
        shared.stop.store(true, Ordering::Relaxed);
    }
}

/// Lowers the atomic best-cost word to `cost` if it improves on it;
/// returns `true` on a lowering *or an exact tie* (ties proceed to the
/// record lock, where the canonical key breaks them deterministically).
fn try_improve(shared: &Shared, cost: f64) -> bool {
    // ordering: Relaxed — best_bits carries only the cost's bit pattern,
    // compared by value after from_bits; the winning mapping itself is
    // published under the record mutex, so no release/acquire edge needs
    // to ride on this word.
    let mut current = shared.best_bits.load(Ordering::Relaxed);
    loop {
        let best = f64::from_bits(current);
        if cost > best {
            return false;
        }
        if cost == best {
            return true;
        }
        match shared.best_bits.compare_exchange_weak(
            current,
            cost.to_bits(),
            // ordering: Relaxed — value-only word, see the load above.
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return true,
            Err(seen) => current = seen,
        }
    }
}

/// Stores an improvement under the record lock; returns whether the
/// recorded best strictly improved. Re-checks against the recorded best:
/// a slower thread can win the CAS first yet arrive here after a better
/// mapping was recorded, and must not regress it. Exact cost ties pull
/// the first-achiever ordinal back to the minimum and are broken by the
/// smaller canonical key, making both the winning *mapping* and the
/// termination arithmetic independent of evaluation order; tie
/// replacements do not extend the trace (its costs stay strictly
/// decreasing).
fn record_improvement(
    shared: &Shared,
    config: &SearchConfig,
    mapping: &Mapping,
    report: CostReport,
    cost: f64,
    at: u64,
) -> bool {
    // A panicking worker cannot leave the record half-written (updates
    // complete before unlock), so a poisoned lock is still consistent.
    let mut guard = shared.record.lock().unwrap_or_else(PoisonError::into_inner);
    let record = &mut *guard;
    if let Some(best) = &record.best {
        if cost > best.cost {
            return false;
        }
        if cost == best.cost {
            record.best_ordinal = record.best_ordinal.min(at);
            if mapping.canonical_key() >= best.mapping.canonical_key() {
                return false;
            }
            record.best = Some(BestMapping {
                mapping: mapping.clone(),
                report,
                cost,
            });
            return false;
        }
    }
    record.best_ordinal = at;
    // Keep the trace's evaluation counts non-decreasing even when
    // improvements from different threads arrive out of order.
    let pos = record.trace.last().map_or(at, |&(prev, _)| prev.max(at));
    if record.trace.len() < config.max_trace.max(1) {
        record.trace.push((pos, cost));
    } else if let Some(last) = record.trace.last_mut() {
        // Reaching this branch implies len >= max(max_trace, 1) >= 1.
        *last = (pos, cost);
    }
    record.best = Some(BestMapping {
        mapping: mapping.clone(),
        report,
        cost,
    });
    // ordering: Relaxed — statistics counter feeding progress snapshots;
    // the record mutex above already serializes the improvement itself.
    shared.improvements.fetch_add(1, Ordering::Relaxed);
    true
}

/// Pulls the first-achiever ordinal back when `cost` ties the recorded
/// best. A memo duplicate of the best mapping costs no model work, but
/// it still marks a point in the deterministic candidate sequence where
/// the best was reachable — without this, which of two equal-key
/// occurrences lands first in the memo (a thread race) would shift the
/// patience-termination arithmetic.
fn note_tie_ordinal(shared: &Shared, cost: f64, ordinal: u64) {
    // The memo only holds costs that already went through
    // `record_improvement`, so `cost` can never beat the recorded best;
    // equality is the only interesting case and needs no CAS (the
    // authoritative comparison repeats under the record lock).
    if shared.best_cost() == cost {
        let mut record = shared.record.lock().unwrap_or_else(PoisonError::into_inner);
        if record.best.as_ref().is_some_and(|b| b.cost == cost) {
            record.best_ordinal = record.best_ordinal.min(ordinal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruby_arch::presets;
    use ruby_mapspace::MapspaceKind;
    use ruby_workload::ProblemShape;
    use serde::Serialize as _;

    fn toy_space(kind: MapspaceKind, pes: u64, d: u64) -> Mapspace {
        Mapspace::new(
            presets::toy_linear(pes, 1024),
            ProblemShape::rank1("d", d),
            kind,
        )
    }

    /// One-shot engine run, mirroring the retired free-function entry
    /// point these tests were originally written against.
    fn search(mapspace: &Mapspace, config: &SearchConfig) -> SearchOutcome {
        Engine::new(mapspace).with_config(config.clone()).run()
    }

    #[test]
    fn finds_the_full_array_mapping_on_prime_bound() {
        let outcome = search(
            &toy_space(MapspaceKind::RubyS, 16, 113),
            &SearchConfig::default(),
        );
        let best = outcome.best.expect("valid mappings exist");
        assert_eq!(best.report.cycles(), 8);
        assert!(best.mapping.is_imperfect());
        assert!(outcome.valid > 0);
    }

    #[test]
    fn pfm_on_prime_bound_cannot_parallelize() {
        let outcome = search(
            &toy_space(MapspaceKind::Pfm, 16, 113),
            &SearchConfig::default(),
        );
        let best = outcome.best.expect("valid mappings exist");
        // 113 is prime and > 16, so the only PFM spatial factor is 1.
        assert_eq!(best.report.cycles(), 113);
    }

    #[test]
    fn trace_is_monotonically_improving() {
        let outcome = search(
            &toy_space(MapspaceKind::Ruby, 9, 100),
            &SearchConfig::default(),
        );
        let costs: Vec<f64> = outcome.trace.iter().map(|&(_, c)| c).collect();
        assert!(!costs.is_empty());
        assert!(costs.windows(2).all(|w| w[1] < w[0]));
        let evals: Vec<u64> = outcome.trace.iter().map(|&(e, _)| e).collect();
        assert!(evals.windows(2).all(|w| w[1] >= w[0]));
    }

    /// Every strategy, so the contracts below cover each one.
    const STRATEGIES: [SearchStrategy; 4] = [
        SearchStrategy::Random,
        SearchStrategy::Sampled,
        SearchStrategy::Exhaustive,
        SearchStrategy::Hybrid,
    ];

    #[test]
    fn max_evaluations_bounds_work() {
        // A space that tabulates (the walk and the sweep run on their
        // tables) and one whose Ruby chain table overflows (every
        // strategy falls back to the rejection sampler).
        let spaces = [
            toy_space(MapspaceKind::Ruby, 9, 100),
            toy_space(MapspaceKind::Ruby, 16, 1_000_000),
        ];
        for strategy in STRATEGIES {
            for space in &spaces {
                let config = SearchConfig {
                    max_evaluations: Some(50),
                    termination: None,
                    strategy,
                    ..SearchConfig::default()
                };
                let outcome = search(space, &config);
                assert!(
                    outcome.evaluations <= 50,
                    "{strategy}: {} evaluations",
                    outcome.evaluations
                );
            }
        }
    }

    #[test]
    fn multithreaded_matches_singlethreaded_quality() {
        let space = toy_space(MapspaceKind::RubyS, 16, 113);
        let single = search(
            &space,
            &SearchConfig {
                threads: 1,
                ..SearchConfig::default()
            },
        );
        let multi = search(
            &space,
            &SearchConfig {
                threads: 4,
                ..SearchConfig::default()
            },
        );
        // Both must find the 8-cycle optimum on this tiny space.
        assert_eq!(
            single.best.unwrap().report.cycles(),
            multi.best.unwrap().report.cycles()
        );
    }

    #[test]
    fn single_thread_runs_are_deterministic() {
        let space = toy_space(MapspaceKind::Ruby, 9, 100);
        let config = SearchConfig {
            seed: 42,
            threads: 1,
            ..SearchConfig::default()
        };
        let a = search(&space, &config);
        let b = search(&space, &config);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.valid, b.valid);
        assert_eq!(a.trace, b.trace);
        let (a, b) = (a.best.unwrap(), b.best.unwrap());
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.report.energy().to_bits(), b.report.energy().to_bits());
    }

    #[test]
    fn different_seeds_change_the_sample_stream() {
        let space = toy_space(MapspaceKind::Ruby, 9, 100);
        let outcome = |seed| {
            search(
                &space,
                &SearchConfig {
                    seed,
                    threads: 1,
                    max_evaluations: Some(500),
                    termination: None,
                    ..SearchConfig::default()
                },
            )
        };
        // Improvement staircases under different seeds almost surely
        // differ; identical traces would suggest correlated streams.
        let traces: Vec<Vec<(u64, f64)>> = (0..4).map(|s| outcome(s).trace).collect();
        assert!(traces.windows(2).any(|w| w[0] != w[1]), "{traces:?}");
    }

    #[test]
    fn invalid_mappings_do_not_count_toward_termination() {
        // 64 total words => 32-word scratchpads: this cramped space
        // holds 281 distinct chains of which only 60 are valid, so
        // most candidates overflow capacity and must not advance the
        // no-improvement counter. If invalid candidates counted, 40
        // consecutive failures would accumulate almost immediately
        // (~79% of the walk is invalid) and the run would stop with
        // far fewer than 40 valid mappings seen.
        let space = Mapspace::new(
            presets::toy_linear(4, 64),
            ProblemShape::rank1("d", 100),
            MapspaceKind::Ruby,
        );
        let config = SearchConfig {
            termination: Some(40),
            max_evaluations: Some(100_000),
            threads: 1,
            // Dedup is irrelevant on the permuted walk (no repeats);
            // keep it off so the raw Timeloop counter semantics show.
            dedup: false,
            ..SearchConfig::default()
        };
        let outcome = search(&space, &config);
        assert!(
            outcome.evaluations > outcome.valid,
            "expected invalid candidates in this cramped space"
        );
        // Stopping needs `termination` *valid* non-improving mappings
        // after the last improvement (or full coverage, which sees all
        // 60 valid chains); either way at least 40 valid were scored.
        assert!(outcome.valid >= 40, "{}", outcome.valid);
    }

    #[test]
    fn trace_is_capped_but_keeps_the_final_best() {
        let space = toy_space(MapspaceKind::Ruby, 9, 100);
        let config = SearchConfig {
            threads: 1,
            max_trace: 2,
            ..SearchConfig::default()
        };
        let capped = search(&space, &config);
        let full = search(
            &space,
            &SearchConfig {
                max_trace: 4096,
                ..config.clone()
            },
        );
        assert!(full.trace.len() > 2, "toy run should improve > 2 times");
        assert_eq!(capped.trace.len(), 2);
        // Same stream, so the capped run's last entry is the true best.
        assert_eq!(capped.trace.last().unwrap().1, full.trace.last().unwrap().1);
        assert_eq!(capped.trace[0], full.trace[0]);
    }

    #[test]
    fn spread_seeds_are_decorrelated() {
        let seeds: Vec<u64> = (0..64).map(|t| spread_seed(7, t)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "collision in spread seeds");
        // Adjacent thread indices must not yield near-adjacent seeds.
        assert!(seeds
            .windows(2)
            .all(|w| w[0].abs_diff(w[1]) > u32::MAX as u64));
    }

    #[test]
    fn objective_selects_metric() {
        let space = toy_space(MapspaceKind::RubyS, 16, 113);
        let config = SearchConfig {
            objective: Objective::Delay,
            ..SearchConfig::default()
        };
        let outcome = search(&space, &config);
        assert_eq!(outcome.best.unwrap().report.cycles(), 8);
    }

    #[test]
    #[should_panic(expected = "unbounded search")]
    fn unbounded_config_rejected() {
        let config = SearchConfig {
            max_evaluations: None,
            termination: None,
            ..SearchConfig::default()
        };
        let _ = search(&toy_space(MapspaceKind::Pfm, 4, 10), &config);
    }

    #[test]
    fn exhaustive_finds_the_optimum_and_exhausts_tiny_spaces() {
        let config = SearchConfig {
            strategy: SearchStrategy::Exhaustive,
            max_evaluations: None,
            termination: None,
            threads: 1,
            ..SearchConfig::default()
        };
        let outcome = search(&toy_space(MapspaceKind::RubyS, 16, 113), &config);
        assert_eq!(outcome.best.expect("valid mappings").report.cycles(), 8);
        assert!(outcome.exhausted, "113-wide toy space fits any budget");
        assert!(outcome.valid > 0);
        // Every scored candidate is accounted for exactly once; pruned
        // candidates are avoided work, reported separately.
        assert_eq!(
            outcome.evaluations,
            outcome.valid + outcome.invalid + outcome.duplicates
        );
    }

    #[test]
    fn exhaustive_best_is_deterministic_across_threads_and_runs() {
        let space = toy_space(MapspaceKind::Ruby, 9, 100);
        let outcome = |threads| {
            search(
                &space,
                &SearchConfig {
                    strategy: SearchStrategy::Exhaustive,
                    threads,
                    max_evaluations: Some(20_000),
                    termination: None,
                    ..SearchConfig::default()
                },
            )
        };
        let base = outcome(1);
        let best = base.best.as_ref().expect("valid mappings");
        for threads in [1, 2, 4] {
            let other = outcome(threads);
            let b = other.best.expect("valid mappings");
            assert_eq!(b.cost, best.cost, "threads={threads}");
            assert_eq!(b.mapping, best.mapping, "threads={threads}");
            // Chunk-barrier snapshots make every counter — not just the
            // winner — thread-count invariant.
            assert_eq!(other.evaluations, base.evaluations, "threads={threads}");
            assert_eq!(other.valid, base.valid, "threads={threads}");
            assert_eq!(other.invalid, base.invalid, "threads={threads}");
            assert_eq!(other.duplicates, base.duplicates, "threads={threads}");
            assert_eq!(
                other.pruned_mappings, base.pruned_mappings,
                "threads={threads}"
            );
            assert_eq!(
                other.pruned_subtrees, base.pruned_subtrees,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn pruning_does_not_change_the_best() {
        let space = toy_space(MapspaceKind::Ruby, 9, 60);
        let outcome = |prune| {
            search(
                &space,
                &SearchConfig {
                    strategy: SearchStrategy::Exhaustive,
                    prune,
                    threads: 1,
                    max_evaluations: Some(50_000),
                    termination: None,
                    ..SearchConfig::default()
                },
            )
        };
        let pruned = outcome(true);
        let full = outcome(false);
        assert_eq!(full.pruned_mappings, 0);
        assert_eq!(
            pruned.best.expect("valid mappings").mapping,
            full.best.expect("valid mappings").mapping
        );
        assert!(
            pruned.valid <= full.valid,
            "pruning can only skip evaluations"
        );
    }

    #[test]
    fn exhaustive_respects_the_budget() {
        // Pruning off so every leaf charges the budget: coverage must
        // then be truncated on a space larger than the budget.
        let config = SearchConfig {
            strategy: SearchStrategy::Exhaustive,
            max_evaluations: Some(100),
            termination: None,
            threads: 2,
            prune: false,
            ..SearchConfig::default()
        };
        let outcome = search(&toy_space(MapspaceKind::Ruby, 9, 100), &config);
        assert!(outcome.evaluations <= 100, "{}", outcome.evaluations);
        assert!(!outcome.exhausted, "this space exceeds 100 mappings");
    }

    #[test]
    fn hybrid_combines_sampling_and_enumeration() {
        let config = SearchConfig {
            strategy: SearchStrategy::Hybrid,
            max_evaluations: Some(3_000),
            termination: None,
            threads: 1,
            ..SearchConfig::default()
        };
        let outcome = search(&toy_space(MapspaceKind::RubyS, 16, 113), &config);
        assert_eq!(outcome.best.expect("valid mappings").report.cycles(), 8);
        assert!(outcome.evaluations <= 3_000);
    }

    #[test]
    fn random_walk_never_repeats_a_candidate() {
        // The permuted walk visits every deduplicated chain at most
        // once, so the random path reports *exactly* zero duplicates —
        // the rejection sampler this replaced burned its budget
        // revisiting this tiny space's handful of chains. Full
        // coverage under budget also proves the walk exhausts.
        let config = SearchConfig {
            max_evaluations: Some(2_000),
            termination: None,
            threads: 1,
            ..SearchConfig::default()
        };
        let outcome = search(&toy_space(MapspaceKind::Pfm, 4, 12), &config);
        assert_eq!(outcome.duplicates, 0, "{outcome:?}");
        assert!(outcome.valid > 0, "{outcome:?}");
        assert!(
            outcome.exhausted,
            "a 15-chain space must be fully covered under a 2k budget"
        );
        assert!(outcome.evaluations < 2_000, "{outcome:?}");
        assert_eq!(
            outcome.evaluations,
            outcome.valid + outcome.invalid + outcome.duplicates
        );
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in STRATEGIES {
            assert_eq!(s.name().parse(), Ok(s));
            assert_eq!(s.to_string(), s.name());
        }
        for unknown in ["genetic", "anneal"] {
            assert_eq!(
                unknown.parse::<SearchStrategy>(),
                Err(ConfigError::UnknownStrategy(unknown.to_owned()))
            );
        }
    }

    #[test]
    fn objective_names_round_trip() {
        for o in [Objective::Edp, Objective::Energy, Objective::Delay] {
            assert_eq!(o.name().parse(), Ok(o));
            assert_eq!(o.to_string(), o.name());
        }
        assert_eq!(
            "speed".parse::<Objective>(),
            Err(ConfigError::UnknownObjective("speed".to_owned()))
        );
    }

    #[test]
    fn outcome_serde_round_trips_with_a_stable_schema() {
        let outcome = search(
            &toy_space(MapspaceKind::RubyS, 16, 113),
            &SearchConfig {
                threads: 1,
                ..SearchConfig::default()
            },
        );
        let value = outcome.to_value();
        assert_eq!(
            value.get("schema"),
            Some(&serde::Value::U64(SCHEMA_VERSION))
        );
        let text = serde_json::to_string(&value).expect("serializes");
        let parsed: serde::Value = serde_json::from_str(&text).expect("parses");
        let back = <SearchOutcome as serde::Deserialize>::from_value(&parsed).expect("decodes");
        assert_eq!(back.evaluations, outcome.evaluations);
        assert_eq!(back.valid, outcome.valid);
        assert_eq!(back.invalid, outcome.invalid);
        assert_eq!(back.duplicates, outcome.duplicates);
        assert_eq!(back.exhausted, outcome.exhausted);
        assert_eq!(back.trace, outcome.trace);
        let (a, b) = (outcome.best.expect("best"), back.best.expect("best"));
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.report.cycles(), b.report.cycles());
        // Wrong schema versions must be rejected, not misread.
        let mut fields = match value {
            serde::Value::Obj(fields) => fields,
            other => panic!("expected object, got {other:?}"),
        };
        fields[0].1 = serde::Value::U64(999);
        assert!(
            <SearchOutcome as serde::Deserialize>::from_value(&serde::Value::Obj(fields)).is_err()
        );
    }
}
