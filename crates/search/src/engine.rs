//! The unified search entry point: [`Engine`], the validating
//! [`SearchConfigBuilder`], and progress streaming.
//!
//! Every strategy — the permuted walk, the paper's rejection sampler,
//! pruned enumeration and hybrid — runs through one facade:
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
//! let config = SearchConfig::builder().seed(7).build().expect("valid");
//! let outcome = Engine::new(&space).with_config(config).run();
//! assert!(outcome.best.is_some());
//! ```
//!
//! Attaching a [`ProgressSink`] (see [`Engine::with_progress`]) spawns
//! a monitor thread that polls the workers' [`SnapshotSlot`] and
//! forwards fresh [`SearchSnapshot`]s; workers publish through the slot
//! about once per thousand candidates, so streaming costs the hot path
//! one masked branch per candidate plus a lossy CAS per stride.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ruby_mapspace::Mapspace;
use ruby_telemetry::snapshot::{SearchSnapshot, SnapshotSlot};
use ruby_telemetry::ProgressSink;

use crate::checkpoint::{
    self, CheckpointError, Checkpointer, Cursor, RandomPhase, SearchCheckpoint,
};
use crate::stop::StopToken;
use crate::sync::{AtomicU64, Ordering};
use crate::{
    exhaustive, permuted, run_random, MemoCache, SearchConfig, SearchOutcome, SearchStrategy,
    Shared,
};

/// Workers publish a progress snapshot every this many reservations
/// (power of two: the stride check is one mask on the hot path).
pub(crate) const PROGRESS_STRIDE: u64 = 1024;

/// How often the monitor thread polls the snapshot slot by default.
const DEFAULT_PROGRESS_INTERVAL: Duration = Duration::from_millis(100);

/// A configuration rejected by [`SearchConfigBuilder::build`] (also the
/// `FromStr` error for [`crate::Objective`] / [`SearchStrategy`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `threads == 0`.
    ZeroThreads,
    /// `max_evaluations` or `termination` set to zero.
    ZeroBudget,
    /// A negative budget reached a builder setter (field name, value).
    NegativeBudget(&'static str, i64),
    /// Neither `max_evaluations` nor `termination` set for a strategy
    /// with a random phase.
    Unbounded,
    /// `Hybrid` with pruning disabled: the warm-up exists to seed the
    /// enumeration's pruning bound, so the combination is always a
    /// misconfiguration.
    UnprunedHybrid,
    /// An unrecognized objective name.
    UnknownObjective(String),
    /// An unrecognized strategy name.
    UnknownStrategy(String),
    /// `max_seconds` was not a positive, finite number (rendered as a
    /// string so the error type stays `Eq`).
    InvalidMaxSeconds(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroThreads => f.write_str("need at least one search thread"),
            ConfigError::ZeroBudget => {
                f.write_str("zero budget: max_evaluations and termination must be positive")
            }
            ConfigError::NegativeBudget(field, value) => {
                write!(f, "negative {field}: {value}")
            }
            ConfigError::Unbounded => {
                f.write_str("unbounded search: set max_evaluations or termination")
            }
            ConfigError::UnprunedHybrid => f.write_str(
                "hybrid strategy requires pruning: its warm-up exists to seed the bound",
            ),
            ConfigError::UnknownObjective(name) => {
                write!(
                    f,
                    "unknown objective `{name}` (expected edp | energy | delay)"
                )
            }
            ConfigError::UnknownStrategy(name) => write!(
                f,
                "unknown strategy `{name}` (expected random | sampled | exhaustive | hybrid)"
            ),
            ConfigError::InvalidMaxSeconds(value) => write!(
                f,
                "invalid max_seconds `{value}`: must be a positive, finite number of seconds"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builds a validated [`SearchConfig`].
///
/// Setters mirror the config fields; budget setters take `i64` so a
/// negative value is representable — and rejected — rather than
/// silently wrapped by the caller. The first error sticks and is
/// returned by [`build`](Self::build).
#[derive(Debug, Clone, Default)]
pub struct SearchConfigBuilder {
    config: SearchConfig,
    error: Option<ConfigError>,
}

impl SearchConfigBuilder {
    /// Sets the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Caps total sampled mappings; negative values are rejected at
    /// [`build`](Self::build).
    pub fn max_evaluations(mut self, max: i64) -> Self {
        if max < 0 {
            self.error
                .get_or_insert(ConfigError::NegativeBudget("max_evaluations", max));
        } else {
            self.config.max_evaluations = Some(max as u64);
        }
        self
    }

    /// Removes the evaluation cap (termination must then be set for
    /// strategies with a random phase).
    pub fn no_max_evaluations(mut self) -> Self {
        self.config.max_evaluations = None;
        self
    }

    /// Sets the no-improvement termination threshold; negative values
    /// are rejected at [`build`](Self::build).
    pub fn termination(mut self, limit: i64) -> Self {
        if limit < 0 {
            self.error
                .get_or_insert(ConfigError::NegativeBudget("termination", limit));
        } else {
            self.config.termination = Some(limit as u64);
        }
        self
    }

    /// Disables the no-improvement termination rule.
    pub fn no_termination(mut self) -> Self {
        self.config.termination = None;
        self
    }

    /// Sets the worker thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Caps the improvement trace length.
    pub fn max_trace(mut self, max_trace: usize) -> Self {
        self.config.max_trace = max_trace;
        self
    }

    /// Sets the objective to minimize.
    pub fn objective(mut self, objective: crate::Objective) -> Self {
        self.config.objective = objective;
        self
    }

    /// Sets the cost-model options.
    pub fn model(mut self, model: ruby_model::ModelOptions) -> Self {
        self.config.model = model;
        self
    }

    /// Sets the search strategy.
    pub fn strategy(mut self, strategy: SearchStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Enables or disables lower-bound pruning.
    pub fn prune(mut self, prune: bool) -> Self {
        self.config.prune = prune;
        self
    }

    /// Enables or disables memo-cache deduplication.
    pub fn dedup(mut self, dedup: bool) -> Self {
        self.config.dedup = dedup;
        self
    }

    /// Sets the memo cache size (`2^memo_bits` slots).
    pub fn memo_bits(mut self, memo_bits: u32) -> Self {
        self.config.memo_bits = memo_bits;
        self
    }

    /// Caps wall-clock time; non-positive or non-finite values are
    /// rejected at [`build`](Self::build).
    pub fn max_seconds(mut self, seconds: f64) -> Self {
        if seconds.is_finite() && seconds > 0.0 {
            self.config.max_seconds = Some(seconds);
        } else {
            self.error
                .get_or_insert(ConfigError::InvalidMaxSeconds(format!("{seconds}")));
        }
        self
    }

    /// Sets the panicking-worker restart budget (see
    /// [`SearchConfig::max_worker_restarts`]).
    pub fn max_worker_restarts(mut self, restarts: u64) -> Self {
        self.config.max_worker_restarts = restarts;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<SearchConfig, ConfigError> {
        if let Some(error) = self.error {
            return Err(error);
        }
        let config = self.config;
        if config.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if config.max_evaluations == Some(0) || config.termination == Some(0) {
            return Err(ConfigError::ZeroBudget);
        }
        if matches!(
            config.strategy,
            SearchStrategy::Random | SearchStrategy::Hybrid
        ) && config.max_evaluations.is_none()
            && config.termination.is_none()
        {
            return Err(ConfigError::Unbounded);
        }
        if config.strategy == SearchStrategy::Hybrid && !config.prune {
            return Err(ConfigError::UnprunedHybrid);
        }
        Ok(config)
    }
}

/// Progress-streaming state attached to [`Shared`] when the engine has
/// a sink: workers assemble snapshots from the shared counters and
/// publish them through the slot; the monitor thread reads the other
/// end.
pub(crate) struct ProgressState {
    slot: SnapshotSlot<{ SearchSnapshot::WORDS }>,
    start: Instant,
    seq: std::sync::atomic::AtomicU64,
    live: std::sync::atomic::AtomicU64,
    threads: u64,
}

impl ProgressState {
    fn new(threads: u64) -> Self {
        ProgressState {
            slot: SnapshotSlot::new(),
            start: Instant::now(),
            seq: std::sync::atomic::AtomicU64::new(0),
            live: std::sync::atomic::AtomicU64::new(0),
            threads,
        }
    }
}

impl std::fmt::Debug for ProgressState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressState")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Shared {
    /// Publishes a progress snapshot assembled from the live counters
    /// (no-op without an attached sink). Lossy under contention: a
    /// failed slot claim drops the snapshot, never blocks a worker.
    pub(crate) fn publish_progress(&self) {
        let Some(progress) = &self.progress else {
            return;
        };
        // ordering: Relaxed — the reads via this closure and the seq
        // bump below are statistics for a human-facing snapshot;
        // mid-flight skew between the counters is acceptable, and the
        // final (post-join) snapshot is exact.
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let seq = progress
            .seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        // ordering: Relaxed — same statistics-read rationale as above.
        let live_threads = progress.live.load(std::sync::atomic::Ordering::Relaxed);
        let snapshot = SearchSnapshot {
            seq,
            elapsed_nanos: u64::try_from(progress.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            evaluations: read(&self.evals),
            valid: read(&self.valid),
            invalid: read(&self.invalid),
            duplicates: read(&self.duplicates),
            pruned_subtrees: read(&self.pruned_subtrees),
            pruned_mappings: read(&self.pruned_mappings),
            improvements: read(&self.improvements),
            best_cost_bits: read(&self.best_bits),
            live_threads,
            threads: progress.threads,
        };
        progress.slot.publish(&snapshot.encode());
    }

    /// Marks one worker as inside the search loop.
    pub(crate) fn progress_thread_started(&self) {
        if let Some(progress) = &self.progress {
            // ordering: Relaxed — liveness counter for display only.
            progress
                .live
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Marks one worker as done.
    pub(crate) fn progress_thread_stopped(&self) {
        if let Some(progress) = &self.progress {
            // ordering: Relaxed — liveness counter for display only.
            progress
                .live
                .fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Sets the liveness counter directly (the enumeration coordinator
    /// tracks phase-level, not worker-level, liveness).
    pub(crate) fn progress_set_live(&self, live: u64) {
        if let Some(progress) = &self.progress {
            // ordering: Relaxed — liveness counter for display only.
            progress
                .live
                .store(live, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// Checkpoint wiring for one engine run (see [`Engine::with_checkpoint`]).
struct CheckpointSpec {
    path: PathBuf,
    every: u64,
    resume: bool,
}

/// The unified search facade: one entry point for every strategy, with
/// optional progress streaming, cooperative cancellation and
/// checkpoint/resume. See the module docs for an example.
pub struct Engine<'s> {
    space: &'s Mapspace,
    config: SearchConfig,
    sink: Option<Box<dyn ProgressSink>>,
    interval: Duration,
    token: Option<StopToken>,
    checkpoint: Option<CheckpointSpec>,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("progress", &self.sink.is_some())
            .finish()
    }
}

impl<'s> Engine<'s> {
    /// An engine over `space` with the default [`SearchConfig`].
    pub fn new(space: &'s Mapspace) -> Self {
        Engine {
            space,
            config: SearchConfig::default(),
            sink: None,
            interval: DEFAULT_PROGRESS_INTERVAL,
            token: None,
            checkpoint: None,
        }
    }

    /// Replaces the configuration (typically from
    /// [`SearchConfig::builder`]).
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Streams progress snapshots to `sink` while the search runs; the
    /// sink also receives the final summary and the metrics dump. At
    /// least one snapshot is always emitted, however short the run.
    pub fn with_progress(mut self, sink: Box<dyn ProgressSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Adjusts how often the monitor forwards snapshots (default
    /// 100 ms).
    pub fn progress_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// The configuration this engine will run with.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Registers a cancellation token: tripping it (from a signal
    /// watcher, another thread, or a test trip-wire) makes every
    /// strategy drain — finish the unit of work in flight, write a
    /// final checkpoint if one is configured, and return a valid
    /// outcome marked `stopped_early`.
    pub fn with_stop_token(mut self, token: StopToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Writes checkpoints to `path`: periodically (about every `every`
    /// evaluations, at the strategy's deterministic barriers), at the
    /// drain point of an interrupted run, and once more — as a terminal
    /// `Done` record — when the run finishes. Call before
    /// [`resume`](Self::resume).
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>, every: u64) -> Self {
        self.checkpoint = Some(CheckpointSpec {
            path: path.into(),
            every: every.max(1),
            resume: false,
        });
        self
    }

    /// Resumes from the configured checkpoint file if it exists (a
    /// missing file starts fresh; corrupt or mismatched files fail
    /// [`try_run`](Self::try_run)). No-op without
    /// [`with_checkpoint`](Self::with_checkpoint).
    pub fn resume(mut self) -> Self {
        if let Some(spec) = &mut self.checkpoint {
            spec.resume = true;
        }
        self
    }

    /// Runs the search.
    ///
    /// # Panics
    ///
    /// Panics on a configuration [`SearchConfig::builder`] would have
    /// rejected as [`ConfigError::ZeroThreads`] or
    /// [`ConfigError::Unbounded`] (hand-built configs skip validation),
    /// or when a configured resume checkpoint cannot be used — callers
    /// that resume should prefer [`try_run`](Self::try_run).
    pub fn run(self) -> SearchOutcome {
        // justified: only reachable with a resume checkpoint
        // configured; those callers are documented onto try_run.
        self.try_run().expect("checkpoint error")
    }

    /// Runs the search, surfacing checkpoint problems as errors: a
    /// corrupt/truncated file, a schema from another version, or a
    /// checkpoint taken under a different configuration or mapspace.
    pub fn try_run(self) -> Result<SearchOutcome, CheckpointError> {
        let fingerprint = checkpoint::fingerprint(self.space, &self.config);
        let (checkpointer, resume) = match &self.checkpoint {
            None => (None, None),
            Some(spec) => {
                let resume = if spec.resume {
                    load_resume(&spec.path, fingerprint, self.config.strategy)?
                } else {
                    None
                };
                (
                    Some(Checkpointer::new(
                        spec.path.clone(),
                        spec.every,
                        fingerprint,
                    )),
                    resume,
                )
            }
        };
        let ctx = RunCtx {
            token: self.token,
            checkpointer,
            resume,
        };
        Ok(match self.sink {
            None => execute_ctx(self.space, &self.config, &ctx),
            Some(sink) => run_streaming(self.space, &self.config, sink, self.interval, &ctx),
        })
    }
}

/// Loads and validates a resume checkpoint; `Ok(None)` when the file
/// does not exist yet (first run of a checkpointed job).
fn load_resume(
    path: &std::path::Path,
    fingerprint: u64,
    strategy: SearchStrategy,
) -> Result<Option<SearchCheckpoint>, CheckpointError> {
    let cp = match SearchCheckpoint::load(path) {
        Ok(cp) => cp,
        Err(CheckpointError::Io(err)) if err.kind() == std::io::ErrorKind::NotFound => {
            return Ok(None);
        }
        Err(err) => return Err(err),
    };
    if cp.fingerprint != fingerprint || cp.strategy != strategy.name() {
        return Err(CheckpointError::ConfigMismatch);
    }
    if !cursor_matches(strategy, &cp.cursor) {
        return Err(CheckpointError::Corrupt(format!(
            "cursor does not belong to strategy `{}`",
            strategy.name()
        )));
    }
    Ok(Some(cp))
}

/// Whether `cursor` is a resume position the given strategy can occupy.
fn cursor_matches(strategy: SearchStrategy, cursor: &Cursor) -> bool {
    match (strategy, cursor) {
        (_, Cursor::Done { .. }) => true,
        // Random checkpoints a permuted cursor from the walk (the
        // default path) and a random cursor from the sampler fallback;
        // the path choice is deterministic, so resume re-derives it.
        (SearchStrategy::Random, Cursor::Permuted(c)) => c.phase == RandomPhase::Plain,
        (SearchStrategy::Random, Cursor::Random(c)) => c.phase == RandomPhase::Plain,
        // Sampled always runs the rejection sampler, so only a random
        // cursor (never a permuted one) can belong to it.
        (SearchStrategy::Sampled, Cursor::Random(c)) => c.phase == RandomPhase::Plain,
        // Exhaustive checkpoints a random cursor only from its fallback.
        (SearchStrategy::Exhaustive, Cursor::Random(c)) => c.phase == RandomPhase::Fallback,
        (SearchStrategy::Exhaustive, Cursor::Exhaustive(_)) => true,
        (SearchStrategy::Hybrid, Cursor::Permuted(c)) => c.phase == RandomPhase::Warmup,
        (SearchStrategy::Hybrid, Cursor::Random(c)) => {
            matches!(c.phase, RandomPhase::Warmup | RandomPhase::Fallback)
        }
        (SearchStrategy::Hybrid, Cursor::Exhaustive(_)) => true,
        _ => false,
    }
}

/// Per-run resilience wiring threaded from [`Engine::try_run`] down to
/// the strategies: cancellation token, checkpoint writer, restored
/// checkpoint.
#[derive(Default)]
pub(crate) struct RunCtx {
    pub(crate) token: Option<StopToken>,
    pub(crate) checkpointer: Option<Checkpointer>,
    pub(crate) resume: Option<SearchCheckpoint>,
}

/// Validates the invariants `search()` has always enforced by panic.
fn validate_run(config: &SearchConfig) {
    // justified: pre-Engine API contract — hand-built configs that skip
    // the builder have always been rejected by panic at run start.
    assert!(config.threads > 0, "{}", ConfigError::ZeroThreads);
    if matches!(
        config.strategy,
        SearchStrategy::Random | SearchStrategy::Sampled | SearchStrategy::Hybrid
    ) {
        // justified: same pre-Engine contract as the threads assert —
        // an unbounded random search would simply never return.
        assert!(
            config.max_evaluations.is_some() || config.termination.is_some(),
            "{}",
            ConfigError::Unbounded
        );
    }
}

/// Runs `config.strategy` over `mapspace` against `shared`; returns
/// whether the space was provably exhausted. A resume cursor in `ctx`
/// routes back into the exact leg (warmup / sweep / fallback) the
/// checkpoint was taken from.
fn dispatch(mapspace: &Mapspace, config: &SearchConfig, shared: &Shared, ctx: &RunCtx) -> bool {
    let cpr = ctx.checkpointer.as_ref();
    let cursor = ctx.resume.as_ref().map(|cp| &cp.cursor);
    match config.strategy {
        SearchStrategy::Random => random_leg(
            mapspace,
            config,
            shared,
            RandomPhase::Plain,
            config.max_evaluations,
            cpr,
            cursor,
        ),
        SearchStrategy::Sampled => {
            let (budget, rngs) = match cursor {
                Some(Cursor::Random(c)) => (c.budget, Some(c.rngs.clone())),
                _ => (config.max_evaluations, None),
            };
            run_random(
                mapspace,
                config,
                shared,
                budget,
                RandomPhase::Plain,
                cpr,
                rngs,
            );
            false
        }
        SearchStrategy::Exhaustive => exhaustive::run(
            mapspace,
            config,
            shared,
            config.max_evaluations,
            cpr,
            cursor,
        ),
        SearchStrategy::Hybrid => {
            // A checkpoint from the enumeration leg (or its fallback)
            // means the warmup already completed: skip straight back,
            // under the budget the cursor carries.
            let in_sweep = match cursor {
                Some(Cursor::Exhaustive(_)) => true,
                Some(Cursor::Random(c)) => c.phase == RandomPhase::Fallback,
                _ => false,
            };
            if in_sweep {
                return exhaustive::run(mapspace, config, shared, None, cpr, cursor);
            }
            // Random warm-up seeds the pruning bound, then enumeration
            // spends the remainder. The walk inserts into the memo, so
            // the enumeration leg dedups against it.
            let warmup = config.max_evaluations.map(|b| b / 3);
            random_leg(
                mapspace,
                config,
                shared,
                RandomPhase::Warmup,
                warmup,
                cpr,
                cursor,
            );
            if shared.is_stopped_early() {
                // Interrupted mid-warmup: the warmup cursor was saved at
                // the drain point; do not enter the enumeration leg.
                return false;
            }
            // ordering: Relaxed — the warm-up threads were joined when
            // the leg returned, so these resets are already ordered
            // before the enumeration phase observes them.
            shared.stop.store(false, Ordering::Relaxed);
            shared.fails.store(0, Ordering::Relaxed);
            let spent = shared.evals.load(Ordering::Relaxed);
            // Deterministic on resume too: a restored warmup replays to
            // the same `spent`, so the remainder matches the
            // uninterrupted run's.
            let remainder = config.max_evaluations.map(|b| b.saturating_sub(spent));
            exhaustive::run(mapspace, config, shared, remainder, cpr, None)
        }
    }
}

/// The random leg of `Random` and of `Hybrid`'s warm-up, playing `phase`
/// under `budget`. The permuted walk is the default path; the rejection
/// sampler only runs when the space fails to tabulate. Both the failure
/// and the choice are deterministic, so a resume `cursor` of either kind
/// goes straight back onto the leg that wrote it, under the budget that
/// leg was launched with. Returns whether the walk covered the space.
fn random_leg(
    mapspace: &Mapspace,
    config: &SearchConfig,
    shared: &Shared,
    phase: RandomPhase,
    budget: Option<u64>,
    cpr: Option<&Checkpointer>,
    cursor: Option<&Cursor>,
) -> bool {
    let (budget, positions, rngs) = match cursor {
        Some(Cursor::Permuted(c)) => (c.budget, Some(c.positions.clone()), None),
        Some(Cursor::Random(c)) => (c.budget, None, Some(c.rngs.clone())),
        _ => (budget, None, None),
    };
    if rngs.is_none() {
        if let Some(complete) =
            permuted::run(mapspace, config, shared, budget, phase, cpr, positions)
        {
            return complete;
        }
    }
    run_random(mapspace, config, shared, budget, phase, cpr, rngs);
    false
}

/// Drains `shared` into the final outcome.
pub(crate) fn collect(shared: Shared, exhausted: bool) -> SearchOutcome {
    // A panicking worker poisons the mutex but cannot leave the record
    // half-written (every update completes before unlock), so the poison
    // flag carries no information here and is safely discarded.
    let record = shared
        .record
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // ordering: Relaxed — all workers joined; these are the final values.
    let stopped_early = shared.stopped_early.load(Ordering::Relaxed);
    let stop_reason = crate::stop_reason_name(shared.stop_reason.into_inner());
    SearchOutcome {
        best: record.best,
        evaluations: shared.evals.into_inner(),
        valid: shared.valid.into_inner(),
        invalid: shared.invalid.into_inner(),
        duplicates: shared.duplicates.into_inner(),
        pruned_subtrees: shared.pruned_subtrees.into_inner(),
        pruned_mappings: shared.pruned_mappings.into_inner(),
        exhausted,
        trace: record.trace,
        stopped_early,
        stop_reason,
        worker_restarts: shared.worker_restarts.into_inner(),
        quarantined: shared.quarantined.into_inner(),
    }
}

/// The un-streamed execution path, with the resilience wiring attached.
pub(crate) fn execute_ctx(
    mapspace: &Mapspace,
    config: &SearchConfig,
    ctx: &RunCtx,
) -> SearchOutcome {
    if let Some(outcome) = replay_done(ctx) {
        return outcome;
    }
    validate_run(config);
    let shared = shared_for(mapspace, config, ctx);
    let exhausted = dispatch(mapspace, config, &shared, ctx);
    let outcome = collect(shared, exhausted);
    finish_checkpoint(config, ctx, &outcome);
    outcome
}

/// The run's shared state, restored from the resume checkpoint if
/// there is one. The memo is allocated only when some leg of the run
/// probes or inserts into it.
fn shared_for(mapspace: &Mapspace, config: &SearchConfig, ctx: &RunCtx) -> Shared {
    let mut shared = Shared::new(config);
    shared.token = ctx.token.clone();
    if config.dedup && uses_memo(mapspace, config, ctx) {
        // `try_new` degrades to no deduplication when the simulated
        // allocation failure (`search.memo.alloc` failpoint) fires.
        shared.memo = MemoCache::try_new(config.memo_bits);
    }
    if let Some(cp) = &ctx.resume {
        checkpoint::restore_shared(&shared, cp);
    }
    shared
}

/// Whether any leg [`dispatch`] runs probes or inserts into the memo:
/// every one but the plain permuted walk, which never repeats a
/// candidate. A random run takes the walk exactly when the space
/// tabulates (or its cursor says it did).
fn uses_memo(mapspace: &Mapspace, config: &SearchConfig, ctx: &RunCtx) -> bool {
    if config.strategy != SearchStrategy::Random {
        return true;
    }
    match ctx.resume.as_ref().map(|cp| &cp.cursor) {
        Some(Cursor::Permuted(_)) => false,
        Some(Cursor::Random(_)) => true,
        _ => !permuted::walkable(mapspace),
    }
}

/// Resuming a `Done` checkpoint replays the recorded outcome instead of
/// recomputing the (already finished) run.
fn replay_done(ctx: &RunCtx) -> Option<SearchOutcome> {
    let cp = ctx.resume.as_ref()?;
    matches!(cp.cursor, Cursor::Done { .. }).then(|| checkpoint::outcome_of_checkpoint(cp))
}

/// Writes the terminal `Done` checkpoint after an uninterrupted finish
/// (interrupted runs saved their resume cursor at the drain point).
fn finish_checkpoint(config: &SearchConfig, ctx: &RunCtx, outcome: &SearchOutcome) {
    if outcome.stopped_early {
        return;
    }
    if let Some(cpr) = &ctx.checkpointer {
        cpr.save(checkpoint::checkpoint_of_outcome(
            outcome,
            config.strategy.name(),
        ));
    }
}

/// The single snapshot streamed for a run replayed from its `Done`
/// checkpoint.
fn snapshot_of_outcome(outcome: &SearchOutcome) -> SearchSnapshot {
    SearchSnapshot {
        seq: 1,
        elapsed_nanos: 0,
        evaluations: outcome.evaluations,
        valid: outcome.valid,
        invalid: outcome.invalid,
        duplicates: outcome.duplicates,
        pruned_subtrees: outcome.pruned_subtrees,
        pruned_mappings: outcome.pruned_mappings,
        improvements: outcome.trace.len() as u64,
        best_cost_bits: outcome
            .best
            .as_ref()
            .map_or(f64::INFINITY, |b| b.cost)
            .to_bits(),
        live_threads: 0,
        threads: 1,
    }
}

/// Sends the post-run records: the summary, then the metrics dump.
fn deliver_final(sink: &mut dyn ProgressSink, outcome: &SearchOutcome) {
    sink.finish(&serde::Serialize::to_value(outcome));
    sink.metrics(&ruby_telemetry::registry().dump());
}

/// The streamed execution path: workers publish, a monitor thread
/// forwards to the sink.
fn run_streaming(
    mapspace: &Mapspace,
    config: &SearchConfig,
    mut sink: Box<dyn ProgressSink>,
    interval: Duration,
    ctx: &RunCtx,
) -> SearchOutcome {
    if let Some(outcome) = replay_done(ctx) {
        // A finished run replayed from its `Done` checkpoint: stream the
        // recorded state so sinks still observe a complete run.
        sink.emit(&snapshot_of_outcome(&outcome));
        deliver_final(sink.as_mut(), &outcome);
        return outcome;
    }
    validate_run(config);
    let mut shared = shared_for(mapspace, config, ctx);
    shared.progress = Some(ProgressState::new(config.threads as u64));
    let done = std::sync::atomic::AtomicBool::new(false);
    let exhausted = {
        let shared = &shared;
        let done = &done;
        let sink = sink.as_mut();
        std::thread::scope(|scope| {
            scope.spawn(move || monitor(sink, shared, done, interval));
            let exhausted = dispatch(mapspace, config, shared, ctx);
            // The post-join counters are exact now; force one last
            // snapshot so even instant runs stream >= 1.
            shared.publish_progress();
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            exhausted
        })
    };
    let outcome = collect(shared, exhausted);
    deliver_final(sink.as_mut(), &outcome);
    finish_checkpoint(config, ctx, &outcome);
    outcome
}

/// The monitor loop: forward each fresh snapshot (dedup by `seq`),
/// sleep in short slices so shutdown stays prompt, and drain the final
/// snapshot after the engine signals completion.
fn monitor(
    sink: &mut dyn ProgressSink,
    shared: &Shared,
    done: &std::sync::atomic::AtomicBool,
    interval: Duration,
) {
    const SLICE: Duration = Duration::from_millis(5);
    let mut last_seq = 0u64;
    loop {
        let finished = done.load(std::sync::atomic::Ordering::SeqCst);
        if let Some(progress) = &shared.progress {
            if let Some(words) = progress.slot.read() {
                let snapshot = SearchSnapshot::decode(&words);
                if snapshot.seq > last_seq {
                    last_seq = snapshot.seq;
                    sink.emit(&snapshot);
                }
            }
        }
        if finished {
            return;
        }
        let mut waited = Duration::ZERO;
        while waited < interval && !done.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::sleep(SLICE.min(interval - waited));
            waited += SLICE;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Objective;
    use ruby_arch::presets;
    use ruby_mapspace::MapspaceKind;
    use ruby_telemetry::MemorySink;
    use ruby_workload::ProblemShape;

    fn toy_space() -> Mapspace {
        Mapspace::new(
            presets::toy_linear(16, 1024),
            ProblemShape::rank1("d", 113),
            MapspaceKind::RubyS,
        )
    }

    #[test]
    fn builder_accepts_a_valid_config() {
        let config = SearchConfig::builder()
            .seed(9)
            .max_evaluations(5_000)
            .termination(500)
            .threads(2)
            .objective(Objective::Energy)
            .strategy(SearchStrategy::Hybrid)
            .prune(true)
            .dedup(true)
            .memo_bits(10)
            .max_trace(64)
            .build()
            .expect("valid config");
        assert_eq!(config.seed, 9);
        assert_eq!(config.max_evaluations, Some(5_000));
        assert_eq!(config.termination, Some(500));
        assert_eq!(config.threads, 2);
        assert_eq!(config.objective, Objective::Energy);
        assert_eq!(config.strategy, SearchStrategy::Hybrid);
        assert_eq!(config.memo_bits, 10);
    }

    #[test]
    fn builder_rejects_bad_configs() {
        let err = |b: SearchConfigBuilder| b.build().expect_err("must be rejected");
        assert_eq!(
            err(SearchConfig::builder().threads(0)),
            ConfigError::ZeroThreads
        );
        assert_eq!(
            err(SearchConfig::builder().max_evaluations(-5)),
            ConfigError::NegativeBudget("max_evaluations", -5)
        );
        assert_eq!(
            err(SearchConfig::builder().termination(-1)),
            ConfigError::NegativeBudget("termination", -1)
        );
        assert_eq!(
            err(SearchConfig::builder().max_evaluations(0)),
            ConfigError::ZeroBudget
        );
        assert_eq!(
            err(SearchConfig::builder()
                .no_max_evaluations()
                .no_termination()),
            ConfigError::Unbounded
        );
        assert_eq!(
            err(SearchConfig::builder()
                .strategy(SearchStrategy::Hybrid)
                .prune(false)),
            ConfigError::UnprunedHybrid
        );
        // Exhaustive terminates on its own: unbounded is fine there.
        assert!(SearchConfig::builder()
            .strategy(SearchStrategy::Exhaustive)
            .no_max_evaluations()
            .no_termination()
            .build()
            .is_ok());
    }

    #[test]
    fn builder_reports_the_first_error() {
        let err = SearchConfig::builder()
            .max_evaluations(-3)
            .termination(-9)
            .threads(0)
            .build()
            .expect_err("must be rejected");
        assert_eq!(err, ConfigError::NegativeBudget("max_evaluations", -3));
    }

    #[test]
    fn config_errors_render_actionable_messages() {
        for (error, needle) in [
            (ConfigError::ZeroThreads, "thread"),
            (ConfigError::ZeroBudget, "zero budget"),
            (ConfigError::NegativeBudget("termination", -2), "-2"),
            (ConfigError::Unbounded, "unbounded"),
            (ConfigError::UnprunedHybrid, "hybrid"),
            (ConfigError::UnknownObjective("speed".into()), "speed"),
            (ConfigError::UnknownStrategy("genetic".into()), "genetic"),
        ] {
            let message = error.to_string();
            assert!(message.contains(needle), "{message:?} lacks {needle:?}");
        }
    }

    #[test]
    fn engine_runs_are_reproducible_under_a_fixed_seed() {
        let space = toy_space();
        let config = SearchConfig {
            seed: 3,
            threads: 1,
            ..SearchConfig::default()
        };
        let first = Engine::new(&space).with_config(config.clone()).run();
        let second = Engine::new(&space).with_config(config).run();
        assert_eq!(first.evaluations, second.evaluations);
        assert_eq!(first.valid, second.valid);
        assert_eq!(first.trace, second.trace);
        assert_eq!(
            first.best.expect("valid mappings").cost,
            second.best.expect("valid mappings").cost
        );
    }

    #[test]
    fn streaming_emits_snapshots_and_a_matching_summary() {
        let space = toy_space();
        let sink = MemorySink::new();
        let outcome = Engine::new(&space)
            .with_config(
                SearchConfig::builder()
                    .seed(1)
                    .max_evaluations(4_000)
                    .no_termination()
                    .threads(2)
                    .build()
                    .expect("valid config"),
            )
            .with_progress(Box::new(sink.clone()))
            .progress_interval(Duration::from_millis(1))
            .run();
        let snapshots = sink.snapshots();
        assert!(!snapshots.is_empty(), "streaming must emit >= 1 snapshot");
        // The final snapshot is published after the worker join, so it
        // agrees with the outcome exactly.
        let last = snapshots.last().expect("non-empty");
        assert_eq!(last.evaluations, outcome.evaluations);
        assert_eq!(last.valid, outcome.valid);
        assert_eq!(last.invalid, outcome.invalid);
        assert_eq!(last.duplicates, outcome.duplicates);
        assert_eq!(last.threads, 2);
        assert!(
            snapshots.windows(2).all(|w| w[0].seq < w[1].seq),
            "monitor must deduplicate by seq"
        );
        let summary = sink.summary().expect("finish must run");
        assert_eq!(
            summary.get("event"),
            Some(&serde::Value::Str("summary".to_owned()))
        );
        let round_trip =
            <SearchOutcome as serde::Deserialize>::from_value(&summary).expect("summary parses");
        assert_eq!(round_trip.evaluations, outcome.evaluations);
        assert_eq!(round_trip.valid, outcome.valid);
        assert_eq!(round_trip.duplicates, outcome.duplicates);
        assert!(sink.metrics_dump().is_some(), "metrics follow the summary");
    }
}
