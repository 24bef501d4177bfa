//! Checkpoint wire-format properties: serde round-trips bit-exactly
//! for arbitrary checkpoints (all four cursor kinds, with and without
//! a best mapping), and *any* single-byte corruption of a saved file —
//! header or payload — is rejected at load time rather than silently
//! yielding a different checkpoint.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;

use ruby_arch::presets;
use ruby_mapspace::{Mapspace, MapspaceKind};
use ruby_search::checkpoint::{
    CheckpointCounters, Cursor, ExhaustiveCursor, PermutedCursor, RandomCursor, RandomPhase,
};
use ruby_search::{
    BestMapping, CheckpointError, Engine, SearchCheckpoint, SearchConfig, SearchStrategy, StopToken,
};
use ruby_workload::ProblemShape;

/// A real best mapping to embed in checkpoints, found once by a tiny
/// deterministic search over the toy space.
fn sample_best() -> &'static BestMapping {
    static BEST: OnceLock<BestMapping> = OnceLock::new();
    BEST.get_or_init(|| {
        let space = Mapspace::new(
            presets::toy_linear(16, 1024),
            ProblemShape::rank1("d", 113),
            MapspaceKind::RubyS,
        );
        let config = SearchConfig::builder()
            .seed(7)
            .threads(1)
            .strategy(SearchStrategy::Random)
            .max_evaluations(64)
            .no_termination()
            .build()
            .expect("valid config");
        Engine::new(&space)
            .with_config(config)
            .run()
            .best
            .expect("toy space has a valid mapping")
    })
}

/// A fresh file path per proptest case (cases run concurrently).
fn scratch() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "ruby-checkpoint-format-{}-{n}.ckpt",
        std::process::id()
    ));
    path
}

/// splitmix64, for deriving arbitrary-but-deterministic field values
/// from a single proptest-drawn seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A finite, strictly positive cost derived from a mixed word.
fn cost(state: &mut u64) -> f64 {
    (mix(state) >> 11) as f64 / 1e6 + 0.5
}

fn build_cursor(kind: u8, state: &mut u64, len: usize) -> Cursor {
    match kind % 4 {
        0 => Cursor::Random(RandomCursor {
            phase: match mix(state) % 3 {
                0 => RandomPhase::Plain,
                1 => RandomPhase::Warmup,
                _ => RandomPhase::Fallback,
            },
            budget: (mix(state).is_multiple_of(2)).then(|| mix(state) % 1_000_000),
            rngs: (0..len)
                .map(|_| [mix(state), mix(state), mix(state), mix(state)])
                .collect(),
        }),
        1 => Cursor::Exhaustive(ExhaustiveCursor {
            budget: (mix(state).is_multiple_of(2)).then(|| mix(state) % 1_000_000),
            order: (0..len as u64).collect(),
            probe_done: (0..len).map(|_| mix(state).is_multiple_of(2)).collect(),
            oi: mix(state) % (len as u64 + 1),
            ordinal: mix(state) % 100_000,
            scanned: mix(state) % 100_000,
            probing: mix(state).is_multiple_of(2),
            pi: mix(state) % (len as u64 + 1),
            probe_cost: (0..len)
                .map(|_| {
                    if mix(state).is_multiple_of(3) {
                        f64::INFINITY.to_bits()
                    } else {
                        cost(state).to_bits()
                    }
                })
                .collect(),
        }),
        // The permuted walk only ever serves the Plain and Warmup
        // roles (the Fallback role *is* the sampler path).
        2 => Cursor::Permuted(PermutedCursor {
            phase: if mix(state).is_multiple_of(2) {
                RandomPhase::Plain
            } else {
                RandomPhase::Warmup
            },
            budget: (mix(state).is_multiple_of(2)).then(|| mix(state) % 1_000_000),
            positions: (0..len)
                .map(|_| {
                    let start = mix(state) % 1_000_000;
                    (start, start + mix(state) % 1_000_000)
                })
                .collect(),
        }),
        _ => Cursor::Done {
            exhausted: mix(state).is_multiple_of(2),
        },
    }
}

fn build_checkpoint(seed: u64, kind: u8, with_best: bool) -> SearchCheckpoint {
    let mut state = seed;
    let len = (seed % 5) as usize + 1;
    let counters = CheckpointCounters {
        evaluations: mix(&mut state) % 1_000_000,
        valid: mix(&mut state) % 1_000_000,
        invalid: mix(&mut state) % 1_000_000,
        duplicates: mix(&mut state) % 1_000_000,
        pruned_subtrees: mix(&mut state) % 1_000_000,
        pruned_mappings: mix(&mut state) % 1_000_000,
        improvements: mix(&mut state) % 1_000_000,
        fails: mix(&mut state) % 1_000_000,
        worker_restarts: mix(&mut state) % 16,
        quarantined: mix(&mut state) % 16,
    };
    SearchCheckpoint {
        fingerprint: mix(&mut state),
        strategy: ["random", "sampled", "exhaustive", "hybrid"][(kind % 4) as usize].to_owned(),
        counters,
        best: with_best.then(|| sample_best().clone()),
        best_ordinal: mix(&mut state) % 1_000_000,
        trace: (0..len as u64).map(|i| (i * 7, cost(&mut state))).collect(),
        memo: (0..len as u64)
            .map(|i| (i, mix(&mut state), cost(&mut state).to_bits()))
            .collect(),
        poison: (0..len).map(|_| mix(&mut state)).collect(),
        cursor: build_cursor(kind, &mut state, len),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// save → load returns the identical checkpoint, including f64
    /// bits in traces, memo entries and cursor state.
    #[test]
    fn save_load_round_trips(seed in 0u64..u64::MAX, kind in 0u8..4, best_flag in 0u8..2) {
        let cp = build_checkpoint(seed, kind, best_flag == 1);
        let path = scratch();
        cp.save(&path).expect("save succeeds");
        let loaded = SearchCheckpoint::load(&path).expect("load succeeds");
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(cp, loaded);
    }

    /// Flipping any single byte of a saved checkpoint — wherever it
    /// lands, header or payload — makes load fail. Nothing corrupted
    /// ever parses as a (different) checkpoint.
    #[test]
    fn any_single_byte_flip_is_rejected(seed in 0u64..u64::MAX, offset_seed in 0u64..u64::MAX) {
        let cp = build_checkpoint(seed, (seed % 4) as u8, seed % 2 == 0);
        let path = scratch();
        cp.save(&path).expect("save succeeds");
        let mut bytes = std::fs::read(&path).expect("readable");
        let at = (offset_seed % bytes.len() as u64) as usize;
        bytes[at] ^= 0x2A;
        std::fs::write(&path, &bytes).expect("writable");
        let result = SearchCheckpoint::load(&path);
        let _ = std::fs::remove_file(&path);
        prop_assert!(result.is_err(), "byte {} flip must not load", at);
    }

    /// Truncating a saved checkpoint at any interior point is caught
    /// by the header's byte count (or the missing header itself).
    #[test]
    fn any_truncation_is_rejected(seed in 0u64..u64::MAX, cut_seed in 0u64..u64::MAX) {
        let cp = build_checkpoint(seed, (seed % 4) as u8, false);
        let path = scratch();
        cp.save(&path).expect("save succeeds");
        let bytes = std::fs::read(&path).expect("readable");
        let cut = (cut_seed % (bytes.len() as u64 - 1)) as usize;
        std::fs::write(&path, &bytes[..cut]).expect("writable");
        let result = SearchCheckpoint::load(&path);
        let _ = std::fs::remove_file(&path);
        prop_assert!(result.is_err(), "truncation at {} must not load", cut);
    }
}

#[test]
fn future_schema_reports_a_version_mismatch() {
    let cp = build_checkpoint(99, 0, true);
    let path = scratch();
    cp.save(&path).expect("save succeeds");
    let raw = std::fs::read_to_string(&path).expect("readable");
    let current = format!("{{\"schema\":{},", ruby_search::CHECKPOINT_SCHEMA);
    let bumped = raw.replacen(&current, "{\"schema\":999,", 1);
    assert_ne!(raw, bumped, "replacement must hit the header");
    std::fs::write(&path, bumped).expect("writable");
    match SearchCheckpoint::load(&path) {
        Err(CheckpointError::SchemaMismatch {
            found: 999,
            expected,
        }) => {
            assert_eq!(expected, ruby_search::CHECKPOINT_SCHEMA);
        }
        other => panic!("expected a schema mismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// Schema 1 predates the permuted walk's group-tuple decode order, so
/// its permuted positions name other mappings: resuming one is refused.
#[test]
fn schema_1_permuted_checkpoint_is_refused() {
    assert_permuted_checkpoint_refused(1);
}

/// Schema 2 predates counted Ruby and Ruby-T groups, which the walk
/// decodes in ascending chain order rather than table order, so its
/// permuted positions name other mappings too.
#[test]
fn schema_2_permuted_checkpoint_is_refused() {
    assert_permuted_checkpoint_refused(2);
}

/// Interrupts a real walk on a Ruby space, rewrites its checkpoint's
/// header to `schema`, and checks that resuming reports the mismatch.
fn assert_permuted_checkpoint_refused(schema: u64) {
    let space = Mapspace::new(
        presets::toy_linear(16, 1024),
        ProblemShape::rank1("d", 113),
        MapspaceKind::Ruby,
    );
    let config = SearchConfig::builder()
        .seed(7)
        .threads(1)
        .strategy(SearchStrategy::Random)
        .max_evaluations(2_000)
        .no_termination()
        .build()
        .expect("valid config");
    let path = scratch();
    let token = StopToken::new();
    token.trip_after_evaluations(100);
    Engine::new(&space)
        .with_config(config.clone())
        .with_stop_token(token)
        .with_checkpoint(&path, 10_000)
        .try_run()
        .expect("interrupted run still yields an outcome");
    let cp = SearchCheckpoint::load(&path).expect("current schema loads");
    assert!(
        matches!(cp.cursor, Cursor::Permuted(_)),
        "the walk wrote the cursor: {:?}",
        cp.cursor
    );
    let raw = std::fs::read_to_string(&path).expect("readable");
    let current = format!("{{\"schema\":{},", ruby_search::CHECKPOINT_SCHEMA);
    let old = raw.replacen(&current, &format!("{{\"schema\":{schema},"), 1);
    assert_ne!(raw, old, "replacement must hit the header");
    std::fs::write(&path, old).expect("writable");
    let resumed = Engine::new(&space)
        .with_config(config)
        .with_checkpoint(&path, 10_000)
        .resume()
        .try_run();
    let _ = std::fs::remove_file(&path);
    match resumed {
        Err(CheckpointError::SchemaMismatch { found, expected }) if found == schema => {
            assert_eq!(expected, ruby_search::CHECKPOINT_SCHEMA);
        }
        other => panic!("expected a schema-{schema} mismatch, got {other:?}"),
    }
}

#[test]
fn unknown_cursor_kind_is_rejected_not_misparsed() {
    // `anneal` names the cursor of a strategy that no longer exists: a
    // leftover checkpoint of it fails like any unknown kind.
    for kind in ["genetic", "anneal"] {
        // kind 3 is the Done cursor whose `"kind":"done"` tag the test
        // rewrites below.
        let cp = build_checkpoint(7, 3, false);
        let path = scratch();
        cp.save(&path).expect("save succeeds");
        let raw = std::fs::read_to_string(&path).expect("readable");
        let (_, payload) = raw.split_once('\n').expect("two lines");
        let payload =
            payload
                .trim_end()
                .replacen("\"kind\":\"done\"", &format!("\"kind\":\"{kind}\""), 1);
        let header = format!(
            "{{\"schema\":{},\"crc\":{},\"bytes\":{}}}",
            ruby_search::CHECKPOINT_SCHEMA,
            checkpoint_crc(payload.as_bytes()),
            payload.len()
        );
        std::fs::write(&path, format!("{header}\n{payload}\n")).expect("writable");
        match SearchCheckpoint::load(&path) {
            Err(CheckpointError::Corrupt(msg)) => {
                assert!(msg.contains(kind), "message names the bad kind: {msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// CRC-32 (IEEE), mirrored from the checkpoint module so the test can
/// re-stamp a tampered payload with a *valid* header — proving the
/// rejection above comes from the payload parser, not the CRC gate.
fn checkpoint_crc(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}
