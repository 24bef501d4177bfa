//! The repository benchmark: end-to-end and per-layer host-time
//! measurements of the Ruby mapper.
//!
//! Three workloads, each driven by one closed-loop client in one
//! process, single-threaded throughout (a `MapperService` with one
//! worker and one engine thread per query; `Sampled` searches with one
//! thread):
//!
//! - `cold_sweep`: every ResNet-50 and DeepBench layer × {PFM, Ruby-S,
//!   Ruby} × {Eyeriss 14×12, Simba 15,4,4} as quick-budget EDP queries
//!   through `wire::handle_line` into an empty store. Most of the time
//!   is mapspace tabulation.
//! - `warm_replay`: the same queries answered once, the service reopened
//!   over its log, then the key set replayed — wire, fingerprint, store
//!   lookup and response serialization only.
//! - `figure_sweep`: the Fig. 10 setup — ResNet-50 × {PFM, Ruby-S} on
//!   Eyeriss 14×12 under row-stationary constraints, medium budget —
//!   which never tabulates. It runs on request but is not scored in
//!   `BENCHMARK.json`: on a noisy 2-vCPU host its run-to-run spread
//!   reaches the largest allowed bound.
//!
//! A run reports every end-to-end metric of `BENCHMARK.json` untraced,
//! timed in process CPU time with the wall-clock figures in its report
//! (see [`stats::put_timings`]); a traced run replays each query
//! through the layers' public functions with a span around each call
//! and reports the per-layer metrics.
//! Modeled costs are checked as outputs, never scored as speed.

pub mod answers;
mod figure;
pub mod heap;
pub mod inputs;
pub mod layers;
mod serve;
pub mod stats;
pub mod trace;

use std::path::{Path, PathBuf};

use inputs::Scope;
use stats::Metrics;
use trace::Tracer;

/// How many times a run repeats its set-up at least; the median is
/// reported, with at least 25 repeats on either side of it.
pub const SETUP_REPEATS: usize = 51;

/// Wall time a run's set-up repeats span at least. A set-up takes
/// microseconds to milliseconds; timed only at one instant it caught the
/// host in whichever state it was, and its median moved by 60% from one
/// process to the next. Spread over seconds, the median covers the
/// host's conditions the way the run's passes do.
pub const SETUP_SPAN_S: f64 = 2.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold quick-budget queries into an empty store.
    ColdSweep,
    /// Warm store hits after a reopen.
    WarmReplay,
    /// The Fig. 10 searches.
    FigureSweep,
}

impl Workload {
    /// Every workload: the scored ones in `BENCHMARK.json` order, then
    /// `figure_sweep`.
    pub const ALL: [Workload; 3] = [
        Workload::ColdSweep,
        Workload::WarmReplay,
        Workload::FigureSweep,
    ];

    /// The name `--workload` takes.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::ColdSweep => "cold_sweep",
            Workload::WarmReplay => "warm_replay",
            Workload::FigureSweep => "figure_sweep",
        }
    }
}

impl std::str::FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload '{s}' (cold_sweep|warm_replay|figure_sweep)"))
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Shuffles query order and seeds every search.
    pub seed: u64,
    /// Measurement time; a run always completes whole passes and enough
    /// of them for its percentiles.
    pub seconds: f64,
    /// Report the per-layer metrics of a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// The configs covered.
    pub scope: Scope,
    /// Scratch directory for store logs and the span file.
    pub out_dir: PathBuf,
}

/// What a run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Queries (or searches) attempted.
    pub attempted: u64,
    /// Attempts whose answer failed a check.
    pub failed: u64,
    /// The first failed check, if any.
    pub error: Option<String>,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Human-readable report lines (seed, sample counts, check results).
    pub report: Vec<String>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.error.is_none() && self.failed == 0
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (name → value and unit).
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    serde::Value::Obj(vec![
                        ("value".to_owned(), serde::Value::F64(m.value)),
                        ("unit".to_owned(), serde::Value::Str(m.unit.to_owned())),
                    ]),
                )
            })
            .collect();
        let value = serde::Value::Obj(vec![
            ("correct".to_owned(), serde::Value::Bool(self.correct())),
            ("attempted".to_owned(), serde::Value::U64(self.attempted)),
            ("failed".to_owned(), serde::Value::U64(self.failed)),
            ("metrics".to_owned(), serde::Value::Obj(metrics)),
        ]);
        // justified: a value tree of plain fields always serializes
        serde_json::to_string(&value).expect("result serializes")
    }
}

/// Attempt accounting and report lines shared by the workloads.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) report: Vec<String>,
}

impl Tally {
    /// Counts one attempt; a failed check is counted and returned.
    pub(crate) fn attempt<T>(&mut self, result: Result<T, String>) -> Result<T, String> {
        self.attempted += 1;
        if result.is_err() {
            self.failed += 1;
        }
        result
    }

    pub(crate) fn note(&mut self, line: String) {
        self.report.push(line);
    }
}

/// A per-run scratch directory, removed with everything in it when the
/// run ends.
#[derive(Debug)]
pub(crate) struct Workdir {
    path: PathBuf,
}

impl Workdir {
    fn create(root: &Path, workload: Workload) -> Result<Self, String> {
        let path = root.join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Workdir { path })
    }

    /// A fresh store log path inside the directory: any earlier log of
    /// that name, and its quarantine sidecar, are deleted.
    pub(crate) fn fresh(&self, name: &str) -> PathBuf {
        let path = self.path.join(name);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(ruby_store::quarantine_path(&path));
        path
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Runs the workload `opts` names and checks its outputs.
pub fn run(opts: &Options) -> Outcome {
    let mut tally = Tally::default();
    tally.note(format!(
        "workload {} seed {} seconds {} trace {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    ));
    let mut tracer = Tracer::default();
    let result = Workdir::create(&opts.out_dir, opts.workload).and_then(|dir| {
        let tracer = opts.trace.then_some(&mut tracer);
        match opts.workload {
            Workload::ColdSweep => serve::cold_sweep(opts, &dir, &mut tally, tracer),
            Workload::WarmReplay => serve::warm_replay(opts, &dir, &mut tally, tracer),
            Workload::FigureSweep => figure::figure_sweep(opts, &mut tally, tracer),
        }
    });
    let (metrics, error) = match result {
        Ok(metrics) => (metrics, None),
        Err(error) => (Metrics::default(), Some(error)),
    };
    if opts.trace && error.is_none() {
        for (layer, ns) in tracer.self_time_by_layer() {
            tally.note(format!("self time {layer}: {:.6} s", ns as f64 / 1e9));
        }
        let path = opts.out_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        match tracer.write_jsonl(&path, opts.seed) {
            Ok(()) => tally.note(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => tally.note(format!("span file {} not written: {e}", path.display())),
        }
    }
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        error,
        metrics,
        report: tally.report,
    }
}

/// Times `f` on what `prepare` returns, at least [`SETUP_REPEATS`] times
/// and for at least [`SETUP_SPAN_S`] seconds of wall time; returns the
/// median CPU seconds (like every end-to-end time, see
/// [`stats::put_timings`]), the number of repeats and the last result.
/// `prepare` runs untimed before each repeat.
pub(crate) fn repeat_setup<P, T>(
    mut prepare: impl FnMut() -> P,
    mut f: impl FnMut(P) -> Result<T, String>,
) -> Result<(f64, usize, T), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    let span = std::time::Instant::now();
    while times.len() < SETUP_REPEATS || stats::secs(span.elapsed()) < SETUP_SPAN_S {
        let input = prepare();
        let start = stats::Stamp::now();
        let value = f(input)?;
        times.push(start.took().cpu_s);
        last = Some(value);
    }
    let median = stats::percentile(&times, 0.5).ok_or("too few set-up repeats")?;
    Ok((median, times.len(), last.ok_or("no set-up ran")?))
}
