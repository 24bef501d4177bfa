//! Kill-and-resume equivalence plus fault-injection coverage.
//!
//! The load-bearing property: a run interrupted at a deterministic
//! trip-wire and resumed from its checkpoint reaches the *same* final
//! outcome (best mapping, cost bits, and every deterministic counter)
//! as the uninterrupted run. Checkpoints are taken at barriers, so the
//! resumed run replays the in-flight batch bit-identically.
//!
//! Fault-injection sites are process-global, so tests that arm them
//! take the `INJECTION` write lock while everything else holds a read
//! lock — an armed `search.eval` panic must not leak into a
//! concurrently running equivalence test.

use std::path::PathBuf;
use std::sync::{PoisonError, RwLock};

use ruby_arch::presets;
use ruby_mapspace::{Mapspace, MapspaceKind};
use ruby_search::{Engine, SearchConfig, SearchOutcome, SearchStrategy, StopToken};
use ruby_workload::ProblemShape;

static INJECTION: RwLock<()> = RwLock::new(());

fn shield() -> std::sync::RwLockReadGuard<'static, ()> {
    INJECTION.read().unwrap_or_else(PoisonError::into_inner)
}

fn toy_space() -> Mapspace {
    Mapspace::new(
        presets::toy_linear(16, 1024),
        ProblemShape::rank1("d", 113),
        MapspaceKind::RubyS,
    )
}

/// A unique checkpoint path per test, cleaned up by the caller.
fn scratch(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "ruby-resilience-{}-{name}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn config_for(strategy: SearchStrategy) -> SearchConfig {
    SearchConfig::builder()
        .seed(42)
        .threads(1)
        .strategy(strategy)
        .max_evaluations(2_000)
        .no_termination()
        .build()
        .expect("valid config")
}

/// The deterministic fields two equivalent outcomes must agree on
/// (stop metadata is intentionally excluded: the interrupted run is
/// *supposed* to differ there until resumed).
fn assert_equivalent(a: &SearchOutcome, b: &SearchOutcome, what: &str) {
    assert_eq!(a.evaluations, b.evaluations, "{what}: evaluations");
    assert_eq!(a.valid, b.valid, "{what}: valid");
    assert_eq!(a.invalid, b.invalid, "{what}: invalid");
    assert_eq!(a.duplicates, b.duplicates, "{what}: duplicates");
    assert_eq!(a.pruned_subtrees, b.pruned_subtrees, "{what}: subtrees");
    assert_eq!(a.pruned_mappings, b.pruned_mappings, "{what}: mappings");
    assert_eq!(a.exhausted, b.exhausted, "{what}: exhausted");
    assert_eq!(a.trace, b.trace, "{what}: trace");
    match (&a.best, &b.best) {
        (Some(x), Some(y)) => {
            assert_eq!(x.cost.to_bits(), y.cost.to_bits(), "{what}: best cost bits");
            assert_eq!(x.mapping, y.mapping, "{what}: best mapping");
        }
        (None, None) => {}
        _ => panic!("{what}: one run found a best, the other did not"),
    }
}

/// Runs `strategy` three ways — uninterrupted, tripped at ~50% of the
/// uninterrupted run's evaluations, and resumed from the checkpoint —
/// and demands bit-identical final state.
fn kill_and_resume(strategy: SearchStrategy) {
    let _guard = shield();
    let space = toy_space();
    let path = scratch(strategy.name());

    let baseline = Engine::new(&space).with_config(config_for(strategy)).run();
    assert!(baseline.evaluations > 0, "baseline did no work");

    let token = StopToken::new();
    token.trip_after_evaluations(baseline.evaluations / 2);
    let interrupted = Engine::new(&space)
        .with_config(config_for(strategy))
        .with_stop_token(token)
        .with_checkpoint(&path, 10_000)
        .try_run()
        .expect("interrupted run still yields an outcome");
    assert!(
        interrupted.stopped_early,
        "{}: the trip-wire should have fired",
        strategy.name()
    );
    assert!(
        interrupted.stop_reason.is_some(),
        "{}: a stopped run names its reason",
        strategy.name()
    );
    assert!(path.exists(), "{}: no checkpoint written", strategy.name());

    let resumed = Engine::new(&space)
        .with_config(config_for(strategy))
        .with_checkpoint(&path, 10_000)
        .resume()
        .try_run()
        .expect("resume succeeds");
    assert!(
        !resumed.stopped_early,
        "{}: the resumed run ran to completion",
        strategy.name()
    );
    assert_equivalent(&baseline, &resumed, strategy.name());

    // Resuming again replays the terminal checkpoint instead of
    // recomputing the finished run.
    let replayed = Engine::new(&space)
        .with_config(config_for(strategy))
        .with_checkpoint(&path, 10_000)
        .resume()
        .try_run()
        .expect("replaying a finished run succeeds");
    assert_equivalent(&resumed, &replayed, "done-replay");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn random_kill_and_resume_matches_uninterrupted() {
    kill_and_resume(SearchStrategy::Random);
}

#[test]
fn sampled_kill_and_resume_matches_uninterrupted() {
    kill_and_resume(SearchStrategy::Sampled);
}

#[test]
fn exhaustive_kill_and_resume_matches_uninterrupted() {
    kill_and_resume(SearchStrategy::Exhaustive);
}

#[test]
fn hybrid_kill_and_resume_matches_uninterrupted() {
    kill_and_resume(SearchStrategy::Hybrid);
}

#[test]
fn resume_rejects_a_checkpoint_from_a_different_config() {
    let _guard = shield();
    let space = toy_space();
    let path = scratch("config-mismatch");
    let token = StopToken::new();
    token.trip_after_evaluations(100);
    let _ = Engine::new(&space)
        .with_config(config_for(SearchStrategy::Random))
        .with_stop_token(token)
        .with_checkpoint(&path, 10_000)
        .try_run()
        .expect("interrupted run still yields an outcome");
    assert!(path.exists());

    let other = SearchConfig::builder()
        .seed(43) // different seed -> different fingerprint
        .threads(1)
        .strategy(SearchStrategy::Random)
        .max_evaluations(2_000)
        .no_termination()
        .build()
        .expect("valid config");
    let err = Engine::new(&space)
        .with_config(other)
        .with_checkpoint(&path, 10_000)
        .resume()
        .try_run()
        .expect_err("a mismatched fingerprint must not resume");
    assert!(
        matches!(err, ruby_search::CheckpointError::ConfigMismatch),
        "got {err:?}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_without_a_file_starts_fresh() {
    let _guard = shield();
    let space = toy_space();
    let path = scratch("missing");
    let fresh = Engine::new(&space)
        .with_config(config_for(SearchStrategy::Random))
        .with_checkpoint(&path, 10_000)
        .resume()
        .try_run()
        .expect("a missing checkpoint means a fresh start, not an error");
    let baseline = Engine::new(&space)
        .with_config(config_for(SearchStrategy::Random))
        .run();
    assert_equivalent(&baseline, &fresh, "fresh-start");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn max_seconds_deadline_stops_the_run() {
    let _guard = shield();
    // The permuted walk exhausts the toy space in well under the
    // deadline, so this test needs a space large enough that only the
    // clock can stop it.
    let space = Mapspace::new(
        presets::eyeriss_like(14, 12),
        ProblemShape::conv("pw", 1, 256, 64, 28, 28, 1, 1, (1, 1)),
        MapspaceKind::RubyS,
    );
    let config = SearchConfig::builder()
        .seed(7)
        .threads(1)
        .strategy(SearchStrategy::Random)
        .max_evaluations(50_000_000)
        .no_termination()
        .max_seconds(0.02)
        .build()
        .expect("valid config");
    let outcome = Engine::new(&space).with_config(config).run();
    assert!(outcome.stopped_early, "the deadline should have fired");
    assert_eq!(outcome.stop_reason.as_deref(), Some("deadline"));
    assert!(
        outcome.evaluations < 50_000_000,
        "the run drained long before the budget"
    );
}

#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;

    fn inject() -> std::sync::RwLockWriteGuard<'static, ()> {
        INJECTION.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Keeps injected panics from spamming the test output.
    fn quiet_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("failpoint"))
                    || info
                        .payload()
                        .downcast_ref::<&str>()
                        .is_some_and(|s| s.contains("failpoint"));
                if !injected {
                    default(info);
                }
            }));
        });
    }

    /// Panics on every fresh evaluation from the 10th on; a generous
    /// restart budget lets the run absorb all of them.
    fn eval_panics_are_contained_and_counted(strategy: SearchStrategy) {
        let _guard = inject();
        quiet_panics();
        ruby_failpoints::reset();
        assert!(ruby_failpoints::arm("search.eval", "panic@10"));
        let space = toy_space();
        let config = SearchConfig::builder()
            .seed(42)
            .threads(1)
            .strategy(strategy)
            .max_evaluations(2_000)
            .no_termination()
            .max_worker_restarts(100_000)
            .build()
            .expect("valid config");
        let outcome = Engine::new(&space).with_config(config).run();
        ruby_failpoints::reset();
        assert!(outcome.worker_restarts >= 1, "the panics were not recorded");
        assert!(outcome.quarantined >= 1, "nothing was quarantined");
        assert!(
            !outcome.stopped_early,
            "contained panics must not end the run"
        );
        assert!(
            outcome.best.is_some(),
            "the clean evaluations before the failpoint armed still count"
        );
        assert_eq!(
            outcome.evaluations,
            outcome.valid + outcome.invalid + outcome.duplicates,
            "the accounting identity must survive quarantine"
        );
    }

    #[test]
    fn injected_eval_panics_are_contained_and_counted() {
        eval_panics_are_contained_and_counted(SearchStrategy::Random);
    }

    #[test]
    fn injected_eval_panics_in_the_sampler_are_contained_and_counted() {
        eval_panics_are_contained_and_counted(SearchStrategy::Sampled);
    }

    #[test]
    fn injected_eval_panics_in_the_sweep_are_contained() {
        let _guard = inject();
        quiet_panics();
        ruby_failpoints::reset();
        assert!(ruby_failpoints::arm("search.eval", "panic@20"));
        let space = toy_space();
        let outcome = Engine::new(&space)
            .with_config(config_for(SearchStrategy::Exhaustive))
            .run();
        ruby_failpoints::reset();
        assert!(outcome.worker_restarts >= 1);
        assert!(outcome.quarantined >= 1);
        assert!(outcome.best.is_some());
    }

    /// Every evaluation panics: the per-worker restart budget drains and
    /// the run stops early instead of aborting the process.
    fn restart_budget_drains_to_worker_failures(strategy: SearchStrategy) {
        let _guard = inject();
        quiet_panics();
        ruby_failpoints::reset();
        assert!(ruby_failpoints::arm("search.eval", "panic"));
        let space = toy_space();
        let config = SearchConfig::builder()
            .seed(42)
            .threads(1)
            .strategy(strategy)
            .max_evaluations(2_000)
            .no_termination()
            .max_worker_restarts(3)
            .build()
            .expect("valid config");
        let outcome = Engine::new(&space).with_config(config).run();
        ruby_failpoints::reset();
        assert!(outcome.stopped_early);
        assert_eq!(outcome.stop_reason.as_deref(), Some("worker-failures"));
        assert!(outcome.worker_restarts >= 3);
    }

    #[test]
    fn exhausted_restart_budget_stops_the_run_gracefully() {
        restart_budget_drains_to_worker_failures(SearchStrategy::Random);
    }

    #[test]
    fn exhausted_restart_budget_stops_the_sampler_gracefully() {
        restart_budget_drains_to_worker_failures(SearchStrategy::Sampled);
    }

    #[test]
    fn simulated_alloc_failure_degrades_to_no_dedup() {
        let _guard = inject();
        ruby_failpoints::reset();
        assert!(ruby_failpoints::arm("search.memo.alloc", "err"));
        let space = toy_space();
        let outcome = Engine::new(&space)
            .with_config(config_for(SearchStrategy::Random))
            .run();
        ruby_failpoints::reset();
        // Without a memo cache nothing deduplicates, but the search
        // completes and the identity still holds.
        assert_eq!(outcome.duplicates, 0);
        assert!(outcome.best.is_some());
        assert_eq!(
            outcome.evaluations,
            outcome.valid + outcome.invalid + outcome.duplicates
        );
    }

    #[test]
    fn simulated_alloc_failure_degrades_sampling_to_no_dedup() {
        let _guard = inject();
        ruby_failpoints::reset();
        let space = toy_space();
        let deduped = Engine::new(&space)
            .with_config(config_for(SearchStrategy::Sampled))
            .run();
        assert!(deduped.duplicates > 0, "the sampler revisits the toy space");
        assert!(ruby_failpoints::arm("search.memo.alloc", "err"));
        let outcome = Engine::new(&space)
            .with_config(config_for(SearchStrategy::Sampled))
            .run();
        ruby_failpoints::reset();
        assert_eq!(outcome.duplicates, 0);
        assert!(outcome.best.is_some());
        assert_eq!(
            outcome.evaluations,
            outcome.valid + outcome.invalid + outcome.duplicates
        );
    }

    /// The memo is allocated only for legs that probe or insert into
    /// it; the plain permuted walk never repeats a candidate.
    #[test]
    fn only_memo_using_strategies_allocate_the_memo() {
        let _guard = inject();
        ruby_failpoints::reset();
        let space = toy_space();
        let _ = Engine::new(&space)
            .with_config(config_for(SearchStrategy::Random))
            .run();
        assert_eq!(ruby_failpoints::hits("search.memo.alloc"), 0);
        for strategy in [
            SearchStrategy::Sampled,
            SearchStrategy::Exhaustive,
            SearchStrategy::Hybrid,
        ] {
            let before = ruby_failpoints::hits("search.memo.alloc");
            let _ = Engine::new(&space).with_config(config_for(strategy)).run();
            assert_eq!(
                ruby_failpoints::hits("search.memo.alloc"),
                before + 1,
                "{strategy:?}"
            );
        }
        ruby_failpoints::reset();
    }

    #[test]
    fn torn_checkpoint_write_leaves_the_previous_file_intact() {
        let _guard = inject();
        ruby_failpoints::reset();
        let space = toy_space();
        let path = scratch("torn");

        // First, a good checkpoint from an interrupted run.
        let token = StopToken::new();
        token.trip_after_evaluations(500);
        let _ = Engine::new(&space)
            .with_config(config_for(SearchStrategy::Random))
            .with_stop_token(token)
            .with_checkpoint(&path, 10_000)
            .try_run()
            .expect("interrupted run still yields an outcome");
        let good = std::fs::read(&path).expect("checkpoint written");

        // Now resume, but tear every subsequent checkpoint write after
        // 64 bytes: the drain save must not clobber the good file.
        assert!(ruby_failpoints::arm("artifact.write", "torn:64"));
        let token = StopToken::new();
        token.trip_after_evaluations(1_000);
        let _ = Engine::new(&space)
            .with_config(config_for(SearchStrategy::Random))
            .with_stop_token(token)
            .with_checkpoint(&path, 10_000)
            .resume()
            .try_run()
            .expect("resume succeeds even when its own saves tear");
        ruby_failpoints::reset();

        let after = std::fs::read(&path).expect("file still present");
        assert_eq!(good, after, "a torn write must leave the old bytes");
        // And the file still loads as a valid checkpoint.
        ruby_search::SearchCheckpoint::load(&path).expect("still a valid checkpoint");
        let _ = std::fs::remove_file(&path);
    }
}
