//! Observability for the Ruby search engine: lock-free metrics,
//! epoch-published progress snapshots, and pluggable sinks.
//!
//! The paper's claims rest on *search dynamics* — valid-rate,
//! improvement staircases, memo hit rates, pruning yield — that the
//! engine computes on its hot path. This crate makes those dynamics
//! first-class outputs without slowing that path down:
//!
//! * [`metrics`] — atomic [`Counter`]s behind [`LazyCounter`] handles
//!   that register themselves in the process-wide [`MetricsRegistry`]
//!   on first use. Always on; hot paths count per batch or per run.
//! * [`snapshot`] — a seqlock-style [`SnapshotSlot`] through which
//!   search workers publish a fixed-size [`SearchSnapshot`] (counters,
//!   best cost, thread liveness) that a monitor thread reads without
//!   ever observing a torn value. Publication is lossy under
//!   contention by design: a skipped snapshot costs nothing, a lock
//!   would.
//! * [`sink`] — the [`ProgressSink`] trait plus three implementations:
//!   [`HumanSink`] (ANSI progress line), [`JsonlSink`] (one JSON event
//!   per line) and [`MemorySink`] (test capture). Sinks receive
//!   snapshots, a final summary record and a metrics dump.
//!
//! Every record the JSONL sink emits carries `"schema"`:
//! [`SCHEMA_VERSION`] and an `"event"` tag (`snapshot` / `summary` /
//! `metrics`); the schema table lives in DESIGN.md §5.4.

pub mod artifact;
pub mod metrics;
pub mod sink;
pub mod snapshot;

#[cfg(test)]
mod interleave_tests;

pub use artifact::{tmp_path, write_atomic};
pub use metrics::{registry, Counter, LazyCounter, MetricsRegistry};
pub use sink::{HumanSink, JsonlSink, MemorySink, MultiSink, ProgressSink};
pub use snapshot::{SearchSnapshot, SnapshotSlot};

/// Version stamped into every serialized record that crosses a process
/// boundary (telemetry JSONL events, `SearchOutcome` JSON,
/// `BENCH_search.json`). Bump on any breaking field change.
///
/// History: v2 added the resilience fields to `SearchOutcome`
/// (`stopped_early`, `stop_reason`, `worker_restarts`, `quarantined`).
/// v3 pinned `BENCH_search.json` speedup/parallel_efficiency to the
/// same strategy's measured single-thread point (previously the first
/// point per strategy, whatever its thread count) and switched the
/// random strategy to the duplicate-free permuted walk. v4 dropped
/// `BENCH_search.json`'s `telemetry` field (metrics are always on).
pub const SCHEMA_VERSION: u64 = 4;
