//! Checkpoint/resume for long-running searches.
//!
//! A [`SearchCheckpoint`] freezes everything a strategy needs to
//! continue a run *bit-identically*: the best mapping found so far,
//! every deterministic counter, the memo-cache contents (slot-exact,
//! so probe/insert outcomes replay the same), the quarantine list, and
//! a per-strategy [`Cursor`] (sampler RNG states, walk positions, sweep
//! position). Checkpoints are only taken at *deterministic
//! barriers* — points the uninterrupted run also passes through — so a
//! resumed single-threaded run reaches exactly the outcome the
//! uninterrupted run would have.
//!
//! On disk a checkpoint is two JSON lines: a header
//! `{"schema", "crc", "bytes"}` followed by the payload. The CRC-32
//! and byte count let [`SearchCheckpoint::load`] reject torn or
//! corrupted files with a typed [`CheckpointError`] instead of
//! resuming from garbage; writes go through
//! [`ruby_telemetry::write_atomic`] (tmp + fsync + rename) so a crash
//! mid-write leaves the previous checkpoint intact. A [`fingerprint`]
//! of the search configuration and mapspace is stamped into every file
//! and verified on resume, so a checkpoint cannot silently continue a
//! *different* search.

use std::fmt;
use std::path::PathBuf;
use std::sync::PoisonError;

use ruby_mapspace::Mapspace;
use ruby_workload::Dim;
use serde::{impl_serde_struct, impl_serde_unit_enum, Deserialize, Serialize, Value};

use crate::sync::Ordering;
use crate::{BestMapping, SearchConfig, SearchOutcome, Shared};

/// Version of the on-disk checkpoint format (independent of the
/// telemetry [`SCHEMA_VERSION`](ruby_telemetry::SCHEMA_VERSION), which
/// tracks the *streaming* records). Bump on any field change, and
/// whenever a saved cursor would resume onto different candidates.
/// Version 2: the permuted walk decodes its positions in group-tuple
/// order (see `ruby_mapspace::enumerate`), so a version-1 permuted
/// position names a different mapping. Version 3: Ruby and Ruby-T
/// groups are counted and walked in ascending chain order instead of
/// table order, so a version-2 permuted position names a different
/// mapping in those spaces.
pub const CHECKPOINT_SCHEMA: u64 = 3;

/// Why a checkpoint could not be written, read, or resumed from.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file exists but its contents are not a valid checkpoint
    /// (truncated, CRC mismatch, unparseable, or a cursor that does not
    /// belong to the configured strategy).
    Corrupt(String),
    /// The file uses a different checkpoint format version.
    SchemaMismatch {
        /// Version found in the file header.
        found: u64,
        /// Version this build reads and writes.
        expected: u64,
    },
    /// The checkpoint was taken by a search with a different
    /// configuration or mapspace; resuming would not be equivalent.
    ConfigMismatch,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(err) => write!(f, "checkpoint i/o error: {err}"),
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::SchemaMismatch { found, expected } => write!(
                f,
                "checkpoint schema mismatch: file has v{found}, this build reads v{expected}"
            ),
            CheckpointError::ConfigMismatch => write!(
                f,
                "checkpoint was taken under a different search configuration or mapspace"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(err: std::io::Error) -> Self {
        CheckpointError::Io(err)
    }
}

/// CRC-32 (IEEE, reflected polynomial 0xEDB88320) over `bytes`.
///
/// Hand-rolled bitwise form: the payload is written once per stride,
/// so table-driven speed buys nothing worth the 1 KiB static.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The deterministic counters of a run, frozen at a barrier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointCounters {
    /// Total candidate evaluations (valid + invalid + duplicates).
    pub evaluations: u64,
    /// Candidates the cost model accepted.
    pub valid: u64,
    /// Candidates the cost model rejected.
    pub invalid: u64,
    /// Candidates skipped via the memo cache.
    pub duplicates: u64,
    /// Whole regions cut by the lower-bound prune.
    pub pruned_subtrees: u64,
    /// Individual mappings cut by pruning.
    pub pruned_mappings: u64,
    /// Strict improvements recorded into the trace.
    pub improvements: u64,
    /// Consecutive non-improving evaluations (termination patience).
    pub fails: u64,
    /// Times a panicking worker body was restarted.
    pub worker_restarts: u64,
    /// Candidates quarantined after a panic during their evaluation.
    pub quarantined: u64,
}

impl_serde_struct!(CheckpointCounters {
    evaluations,
    valid,
    invalid,
    duplicates,
    pruned_subtrees,
    pruned_mappings,
    improvements,
    fails,
    worker_restarts,
    quarantined,
});

/// Which role the random sampler was playing when checkpointed — the
/// resume path must re-enter the same role (a plain `Random` run, the
/// warmup leg of `Hybrid`, or the fallback after enumeration failed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandomPhase {
    /// The `Random` strategy proper.
    Plain,
    /// The random warmup leg of `Hybrid`.
    Warmup,
    /// Random fallback after `EnumTables::build` failed (the failure is
    /// deterministic, so resume skips straight back to the fallback).
    Fallback,
}

impl_serde_unit_enum!(RandomPhase {
    Plain,
    Warmup,
    Fallback
});

/// Resume state for the random sampler: one RNG state per worker.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomCursor {
    /// Role the sampler was playing (see [`RandomPhase`]).
    pub phase: RandomPhase,
    /// Evaluation budget this leg was launched with. Stored because the
    /// hybrid remainder is computed from live counters and cannot be
    /// re-derived after a restart.
    pub budget: Option<u64>,
    /// xoshiro256++ state per worker, captured after the last completed
    /// iteration.
    pub rngs: Vec<[u64; 4]>,
}

impl_serde_struct!(RandomCursor {
    phase,
    budget,
    rngs,
});

/// Resume state for the permuted walk: one `(position, end)` pair per
/// worker. The Feistel permutation is a pure function of the config seed
/// and the (deterministically rebuilt) table size, so the position alone
/// regenerates the remaining visit sequence bit-identically — batch
/// boundaries leave no state behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermutedCursor {
    /// Role the walk was playing (see [`RandomPhase`]; the walk never
    /// runs the `Fallback` role — fallback means the tables failed, and
    /// without tables there is no index space to permute).
    pub phase: RandomPhase,
    /// Evaluation budget this leg was launched with (see
    /// [`RandomCursor::budget`]).
    pub budget: Option<u64>,
    /// Next global leaf position and range end per worker, captured at a
    /// batch barrier.
    pub positions: Vec<(u64, u64)>,
}

impl_serde_struct!(PermutedCursor {
    phase,
    budget,
    positions,
});

/// Resume state for the exhaustive sweep, captured at a batch barrier
/// (after the probe phase; region order already probe-sorted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExhaustiveCursor {
    /// Evaluation budget this sweep was launched with (see
    /// [`RandomCursor::budget`]).
    pub budget: Option<u64>,
    /// Floor-then-probe-sorted region visit order.
    pub order: Vec<u64>,
    /// Which regions already had their first leaf probed.
    pub probe_done: Vec<bool>,
    /// Next index into `order` to pull a region from.
    pub oi: u64,
    /// Enumeration ordinal reached (candidates charged to the budget).
    pub ordinal: u64,
    /// Leaves decoded so far (for the `MAX_REGION_SCAN` cap).
    pub scanned: u64,
    /// Captured during the probe phase (every probe step is a barrier:
    /// the sweep is single-threaded there). When set, `pi`/`probe_cost`
    /// are meaningful and `oi`/`scanned` are still zero.
    pub probing: bool,
    /// Next index into `order` to probe (probe phase only).
    pub pi: u64,
    /// Measured probe cost per region as `f64` bits (`+inf` = not yet
    /// probed or invalid); bits, because JSON has no infinity literal.
    pub probe_cost: Vec<u64>,
}

impl_serde_struct!(ExhaustiveCursor {
    budget,
    order,
    probe_done,
    oi,
    ordinal,
    scanned,
    probing,
    pi,
    probe_cost,
});

/// Per-strategy resume position. `Done` marks a finished run, so
/// resuming a completed search short-circuits to its recorded outcome
/// instead of recomputing.
#[derive(Debug, Clone, PartialEq)]
pub enum Cursor {
    /// Random sampling (any [`RandomPhase`]) on the rejection-sampler
    /// fallback path.
    Random(RandomCursor),
    /// The duplicate-free permuted walk over the enumeration index
    /// space (the default random path when the space tabulates).
    Permuted(PermutedCursor),
    /// The exhaustive sweep.
    Exhaustive(ExhaustiveCursor),
    /// The run finished; nothing to resume.
    Done {
        /// Whether the finished sweep covered the whole space.
        exhausted: bool,
    },
}

impl Serialize for Cursor {
    fn to_value(&self) -> Value {
        let (kind, state) = match self {
            Cursor::Random(c) => ("random", c.to_value()),
            Cursor::Permuted(c) => ("permuted", c.to_value()),
            Cursor::Exhaustive(c) => ("exhaustive", c.to_value()),
            Cursor::Done { exhausted } => ("done", exhausted.to_value()),
        };
        Value::Obj(vec![
            ("kind".to_owned(), Value::Str(kind.to_owned())),
            ("state".to_owned(), state),
        ])
    }
}

impl Deserialize for Cursor {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let kind = value.field("kind")?;
        let kind = kind.as_str()?;
        let state = value.field("state")?;
        match kind {
            "random" => Ok(Cursor::Random(RandomCursor::from_value(state)?)),
            "permuted" => Ok(Cursor::Permuted(PermutedCursor::from_value(state)?)),
            "exhaustive" => Ok(Cursor::Exhaustive(ExhaustiveCursor::from_value(state)?)),
            "done" => Ok(Cursor::Done {
                exhausted: bool::from_value(state)?,
            }),
            other => Err(serde::Error::custom(format!(
                "unknown cursor kind `{other}`"
            ))),
        }
    }
}

/// Everything needed to continue a run bit-identically (see the module
/// docs for the barrier discipline that makes that true).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchCheckpoint {
    /// [`fingerprint`] of the config + mapspace this was taken under.
    pub fingerprint: u64,
    /// Strategy name (`random` / `sampled` / `exhaustive` / `hybrid`).
    pub strategy: String,
    /// Deterministic counters at the barrier.
    pub counters: CheckpointCounters,
    /// Best mapping found so far (cost, mapping, cost report).
    pub best: Option<BestMapping>,
    /// Ordinal at which the best was found (termination patience).
    pub best_ordinal: u64,
    /// Best-so-far trace `(evaluation, cost)`.
    pub trace: Vec<(u64, f64)>,
    /// Published memo entries as `(slot, key, cost bits)`, slot-exact.
    pub memo: Vec<(u64, u64, u64)>,
    /// Canonical keys of quarantined (panicking) candidates.
    pub poison: Vec<u64>,
    /// Strategy resume position.
    pub cursor: Cursor,
}

impl_serde_struct!(SearchCheckpoint {
    fingerprint,
    strategy,
    counters,
    best,
    best_ordinal,
    trace,
    memo,
    poison,
    cursor,
});

impl SearchCheckpoint {
    /// Freezes the shared search state at a barrier. The fingerprint is
    /// left zero; [`Checkpointer::save`] stamps it.
    pub(crate) fn capture(shared: &Shared, config: &SearchConfig, cursor: Cursor) -> Self {
        let (best, trace, best_ordinal) = {
            let record = shared.record.lock().unwrap_or_else(PoisonError::into_inner);
            (
                record.best.clone(),
                record.trace.clone(),
                record.best_ordinal,
            )
        };
        // ordering: Relaxed — captured at a deterministic barrier; any
        // worker threads were joined before this point.
        let counters = CheckpointCounters {
            evaluations: shared.evals.load(Ordering::Relaxed),
            valid: shared.valid.load(Ordering::Relaxed),
            invalid: shared.invalid.load(Ordering::Relaxed),
            // ordering: Relaxed — same joined-workers barrier as above.
            duplicates: shared.duplicates.load(Ordering::Relaxed),
            pruned_subtrees: shared.pruned_subtrees.load(Ordering::Relaxed),
            pruned_mappings: shared.pruned_mappings.load(Ordering::Relaxed),
            improvements: shared.improvements.load(Ordering::Relaxed),
            // ordering: Relaxed — same joined-workers barrier as above.
            fails: shared.fails.load(Ordering::Relaxed),
            worker_restarts: shared.worker_restarts.load(Ordering::Relaxed),
            quarantined: shared.quarantined.load(Ordering::Relaxed),
        };
        SearchCheckpoint {
            fingerprint: 0,
            strategy: config.strategy.name().to_owned(),
            counters,
            best,
            best_ordinal,
            trace,
            memo: shared
                .memo
                .as_ref()
                .map(crate::MemoCache::dump)
                .unwrap_or_default(),
            poison: shared
                .poison
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            cursor,
        }
    }

    /// Serializes and writes the checkpoint atomically (tmp + fsync +
    /// rename) as header line + payload line.
    pub fn save(&self, path: &std::path::Path) -> Result<(), CheckpointError> {
        let payload = serde_json::to_string(&self.to_value())
            .map_err(|err| CheckpointError::Corrupt(format!("unserializable: {err}")))?;
        let header = format!(
            "{{\"schema\":{},\"crc\":{},\"bytes\":{}}}",
            CHECKPOINT_SCHEMA,
            crc32(payload.as_bytes()),
            payload.len()
        );
        let file = format!("{header}\n{payload}\n");
        ruby_telemetry::write_atomic(path, file.as_bytes())?;
        Ok(())
    }

    /// Reads and validates a checkpoint: schema first (so old formats
    /// report a version mismatch, not garbage), then byte count and
    /// CRC-32 (torn or corrupted files), then the payload itself.
    pub fn load(path: &std::path::Path) -> Result<Self, CheckpointError> {
        let raw = std::fs::read_to_string(path)?;
        let (header, payload) = raw
            .split_once('\n')
            .ok_or_else(|| CheckpointError::Corrupt("missing header line".to_owned()))?;
        let payload = payload.strip_suffix('\n').unwrap_or(payload);
        let header: Value = serde_json::from_str(header)
            .map_err(|err| CheckpointError::Corrupt(format!("unreadable header: {err}")))?;
        let schema = header
            .get("schema")
            .and_then(|v| v.as_u64().ok())
            .ok_or_else(|| CheckpointError::Corrupt("header lacks `schema`".to_owned()))?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::SchemaMismatch {
                found: schema,
                expected: CHECKPOINT_SCHEMA,
            });
        }
        let bytes = header
            .get("bytes")
            .and_then(|v| v.as_u64().ok())
            .ok_or_else(|| CheckpointError::Corrupt("header lacks `bytes`".to_owned()))?;
        if bytes != payload.len() as u64 {
            return Err(CheckpointError::Corrupt(format!(
                "truncated payload: header says {bytes} bytes, file has {}",
                payload.len()
            )));
        }
        let crc = header
            .get("crc")
            .and_then(|v| v.as_u64().ok())
            .ok_or_else(|| CheckpointError::Corrupt("header lacks `crc`".to_owned()))?;
        if crc != u64::from(crc32(payload.as_bytes())) {
            return Err(CheckpointError::Corrupt("payload CRC mismatch".to_owned()));
        }
        let value: Value = serde_json::from_str(payload)
            .map_err(|err| CheckpointError::Corrupt(format!("unreadable payload: {err}")))?;
        SearchCheckpoint::from_value(&value)
            .map_err(|err| CheckpointError::Corrupt(format!("invalid payload: {err}")))
    }
}

/// Restores the shared search state from a checkpoint. Runs
/// single-threaded, before any worker starts.
#[rustfmt::skip] // one store per line keeps the `// ordering:` comments adjacent
pub(crate) fn restore_shared(shared: &Shared, cp: &SearchCheckpoint) {
    // ordering: Relaxed — single-threaded restore; workers start after.
    shared.evals.store(cp.counters.evaluations, Ordering::Relaxed);
    shared.valid.store(cp.counters.valid, Ordering::Relaxed);
    shared.invalid.store(cp.counters.invalid, Ordering::Relaxed);
    shared.duplicates.store(cp.counters.duplicates, Ordering::Relaxed);
    // ordering: Relaxed — single-threaded restore (see above).
    shared.pruned_subtrees.store(cp.counters.pruned_subtrees, Ordering::Relaxed);
    shared.pruned_mappings.store(cp.counters.pruned_mappings, Ordering::Relaxed);
    shared.improvements.store(cp.counters.improvements, Ordering::Relaxed);
    shared.fails.store(cp.counters.fails, Ordering::Relaxed);
    // ordering: Relaxed — single-threaded restore (see above).
    shared.worker_restarts.store(cp.counters.worker_restarts, Ordering::Relaxed);
    shared.quarantined.store(cp.counters.quarantined, Ordering::Relaxed);
    let best_bits = cp.best.as_ref().map_or(f64::INFINITY, |b| b.cost).to_bits();
    // ordering: Relaxed — single-threaded restore (see above).
    shared.best_bits.store(best_bits, Ordering::Relaxed);
    if let Some(memo) = &shared.memo {
        memo.restore(&cp.memo);
    }
    *shared.poison.lock().unwrap_or_else(PoisonError::into_inner) = cp.poison.clone();
    let mut record = shared.record.lock().unwrap_or_else(PoisonError::into_inner);
    record.best = cp.best.clone();
    record.trace = cp.trace.clone();
    record.best_ordinal = cp.best_ordinal;
}

/// The outcome a `Done` checkpoint recorded, replayed without
/// recomputing anything.
pub(crate) fn outcome_of_checkpoint(cp: &SearchCheckpoint) -> SearchOutcome {
    SearchOutcome {
        best: cp.best.clone(),
        evaluations: cp.counters.evaluations,
        valid: cp.counters.valid,
        invalid: cp.counters.invalid,
        duplicates: cp.counters.duplicates,
        pruned_subtrees: cp.counters.pruned_subtrees,
        pruned_mappings: cp.counters.pruned_mappings,
        exhausted: matches!(cp.cursor, Cursor::Done { exhausted: true }),
        trace: cp.trace.clone(),
        stopped_early: false,
        stop_reason: None,
        worker_restarts: cp.counters.worker_restarts,
        quarantined: cp.counters.quarantined,
    }
}

/// The terminal checkpoint of a finished run: a `Done` cursor carrying
/// the outcome, so `--resume` on a completed search replays it.
pub(crate) fn checkpoint_of_outcome(outcome: &SearchOutcome, strategy: &str) -> SearchCheckpoint {
    SearchCheckpoint {
        fingerprint: 0,
        strategy: strategy.to_owned(),
        counters: CheckpointCounters {
            evaluations: outcome.evaluations,
            valid: outcome.valid,
            invalid: outcome.invalid,
            duplicates: outcome.duplicates,
            pruned_subtrees: outcome.pruned_subtrees,
            pruned_mappings: outcome.pruned_mappings,
            improvements: outcome.trace.len() as u64,
            fails: 0,
            worker_restarts: outcome.worker_restarts,
            quarantined: outcome.quarantined,
        },
        best: outcome.best.clone(),
        best_ordinal: 0,
        trace: outcome.trace.clone(),
        memo: Vec::new(),
        poison: Vec::new(),
        cursor: Cursor::Done {
            exhausted: outcome.exhausted,
        },
    }
}

/// Order-sensitive 64-bit fold used by [`fingerprint`]: xor-multiply
/// then a splitmix64 round, so permuted inputs land on different
/// digests.
struct Fold {
    state: u64,
}

impl Fold {
    fn push(&mut self, v: u64) {
        self.state ^= v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        rand::splitmix64(&mut self.state);
    }

    fn push_str(&mut self, s: &str) {
        self.push(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut le = [0u8; 8];
            le[..chunk.len()].copy_from_slice(chunk);
            self.push(u64::from_le_bytes(le));
        }
    }

    fn push_opt(&mut self, v: Option<u64>) {
        match v {
            None => self.push(0),
            Some(v) => {
                self.push(1);
                self.push(v);
            }
        }
    }
}

/// Digest of everything that shapes a run's deterministic trajectory:
/// the strategy and its knobs, plus the mapspace identity (levels,
/// problem bounds, constraint kind). Resume refuses a checkpoint whose
/// fingerprint differs ([`CheckpointError::ConfigMismatch`]).
///
/// Best-effort by design: `ModelOptions` is not folded in (it has no
/// stable serialization), so changing model constants between runs is
/// the caller's responsibility.
pub fn fingerprint(space: &Mapspace, config: &SearchConfig) -> u64 {
    let mut fold = Fold {
        state: 0x5275_6279_2043_5054,
    };
    fold.push_str(config.strategy.name());
    fold.push(config.seed);
    fold.push_opt(config.max_evaluations);
    fold.push_opt(config.termination);
    fold.push(config.threads as u64);
    fold.push_str(config.objective.name());
    fold.push(u64::from(config.prune));
    fold.push(u64::from(config.dedup));
    fold.push(u64::from(config.memo_bits));
    fold.push(config.max_trace as u64);
    fold.push(space.arch().num_levels() as u64);
    let bounds = space.shape().bounds();
    for dim in Dim::ALL {
        fold.push(bounds[dim]);
    }
    fold.push_str(&format!("{:?}", space.kind()));
    fold.state
}

/// Owns the checkpoint file for one run: stamps the fingerprint, writes
/// through [`SearchCheckpoint::save`], and *degrades* on write failure
/// (warn once, keep searching) — a broken disk should cost the resume
/// capability, not the run.
pub(crate) struct Checkpointer {
    path: PathBuf,
    every: u64,
    fingerprint: u64,
    // ordering: plain std atomic — only gates the one-time warning,
    // never publishes data (crate::sync is for the model-checked path).
    warned: std::sync::atomic::AtomicBool,
}

impl Checkpointer {
    pub(crate) fn new(path: PathBuf, every: u64, fingerprint: u64) -> Self {
        Checkpointer {
            path,
            every: every.max(1),
            fingerprint,
            warned: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Evaluation stride between periodic checkpoints.
    pub(crate) fn stride(&self) -> u64 {
        self.every
    }

    /// Stamps the fingerprint and writes the checkpoint, degrading on
    /// failure.
    pub(crate) fn save(&self, mut cp: SearchCheckpoint) {
        cp.fingerprint = self.fingerprint;
        if let Err(err) = cp.save(&self.path) {
            // ordering: Relaxed — standalone warn-once flag.
            if !self.warned.swap(true, std::sync::atomic::Ordering::Relaxed) {
                eprintln!(
                    "warning: checkpoint write to {} failed ({err}); continuing without checkpoints",
                    self.path.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done_checkpoint() -> SearchCheckpoint {
        SearchCheckpoint {
            fingerprint: 0xDEAD_BEEF,
            strategy: "random".to_owned(),
            counters: CheckpointCounters {
                evaluations: 100,
                valid: 60,
                invalid: 30,
                duplicates: 10,
                pruned_subtrees: 2,
                pruned_mappings: 40,
                improvements: 5,
                fails: 7,
                worker_restarts: 1,
                quarantined: 1,
            },
            best: None,
            best_ordinal: 42,
            trace: vec![(1, 9.5), (17, 3.25)],
            memo: vec![(0, 123, 456), (7, 89, 1011)],
            poison: vec![0xBAD],
            cursor: Cursor::Done { exhausted: true },
        }
    }

    #[test]
    fn crc32_matches_the_known_ieee_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn checkpoint_save_load_round_trips() {
        let dir = std::env::temp_dir().join("ruby-checkpoint-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        let cp = done_checkpoint();
        cp.save(&path).unwrap();
        let loaded = SearchCheckpoint::load(&path).unwrap();
        assert_eq!(loaded, cp);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cursor_kinds_round_trip() {
        let cursors = [
            Cursor::Random(RandomCursor {
                phase: RandomPhase::Warmup,
                budget: Some(1000),
                rngs: vec![[1, 2, 3, 4], [5, 6, 7, 8]],
            }),
            Cursor::Permuted(PermutedCursor {
                phase: RandomPhase::Plain,
                budget: Some(4096),
                positions: vec![(17, 512), (600, 1024)],
            }),
            Cursor::Exhaustive(ExhaustiveCursor {
                budget: None,
                order: vec![3, 1, 2],
                probe_done: vec![true, false, true],
                oi: 1,
                ordinal: 99,
                scanned: 1234,
                probing: true,
                pi: 2,
                probe_cost: vec![f64::INFINITY.to_bits(), 4.5f64.to_bits(), 0],
            }),
            Cursor::Done { exhausted: false },
        ];
        for cursor in cursors {
            let value = cursor.to_value();
            let back = Cursor::from_value(&value).unwrap();
            assert_eq!(back, cursor);
        }
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let dir = std::env::temp_dir().join("ruby-checkpoint-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        done_checkpoint().save(&path).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        // Flip a payload byte without touching the header.
        let flip = raw.len() - 2;
        raw[flip] ^= 0x01;
        std::fs::write(&path, raw).unwrap();
        match SearchCheckpoint::load(&path) {
            Err(CheckpointError::Corrupt(why)) => {
                assert!(why.contains("CRC"), "unexpected reason: {why}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let dir = std::env::temp_dir().join("ruby-checkpoint-truncated");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        done_checkpoint().save(&path).unwrap();
        let raw = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 10]).unwrap();
        match SearchCheckpoint::load(&path) {
            Err(CheckpointError::Corrupt(why)) => {
                assert!(why.contains("truncated"), "unexpected reason: {why}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_schema_is_rejected_with_both_versions() {
        let dir = std::env::temp_dir().join("ruby-checkpoint-schema");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        std::fs::write(&path, "{\"schema\":999,\"crc\":0,\"bytes\":2}\n{}\n").unwrap();
        match SearchCheckpoint::load(&path) {
            Err(CheckpointError::SchemaMismatch { found, expected }) => {
                assert_eq!(found, 999);
                assert_eq!(expected, CHECKPOINT_SCHEMA);
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_reports_io_not_found() {
        let path = std::env::temp_dir().join("ruby-checkpoint-missing/nope.json");
        match SearchCheckpoint::load(&path) {
            Err(CheckpointError::Io(err)) => {
                assert_eq!(err.kind(), std::io::ErrorKind::NotFound)
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn fold_is_order_sensitive() {
        let mut a = Fold { state: 0 };
        a.push(1);
        a.push(2);
        let mut b = Fold { state: 0 };
        b.push(2);
        b.push(1);
        assert_ne!(a.state, b.state);
    }
}
