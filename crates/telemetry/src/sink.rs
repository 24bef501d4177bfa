//! Progress sinks: where streamed [`SearchSnapshot`]s go.
//!
//! The search engine talks to a sink from a dedicated monitor thread,
//! never from workers, so sink implementations may block (terminal
//! writes, file I/O) without touching search throughput. I/O errors are
//! swallowed: losing a progress line must never fail a search.

use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

use crate::metrics::LazyCounter;
use crate::snapshot::SearchSnapshot;

/// Events dropped by a sink that could not write (I/O error, injected
/// fault). Sinks degrade — drop the event, bump this — rather than let
/// an output problem propagate into the search.
static SINK_ERRORS: LazyCounter = LazyCounter::new("telemetry.sink.errors");

/// A consumer of streamed search progress.
///
/// Lifecycle: zero or more [`emit`](Self::emit) calls while the search
/// runs (each strictly newer than the last), then exactly one
/// [`finish`](Self::finish) with the serialized `SearchOutcome` summary
/// record, then one [`metrics`](Self::metrics) with the registry dump.
pub trait ProgressSink: Send {
    /// Handles one progress snapshot.
    fn emit(&mut self, snapshot: &SearchSnapshot);

    /// Handles the final summary record (the search outcome, tagged
    /// `"event": "summary"`).
    fn finish(&mut self, _summary: &serde::Value) {}

    /// Handles the metrics-registry dump (tagged `"event": "metrics"`).
    fn metrics(&mut self, _dump: &serde::Value) {}
}

/// Tags `record` with an `"event"` field right after `"schema"` (or at
/// the front when there is none); non-objects pass through unchanged.
fn tag_event(record: &serde::Value, event: &str) -> serde::Value {
    match record {
        serde::Value::Obj(fields) => {
            let mut tagged = Vec::with_capacity(fields.len() + 1);
            let mut inserted = false;
            for (key, value) in fields {
                if key == "event" {
                    continue; // never double-tag
                }
                tagged.push((key.clone(), value.clone()));
                if key == "schema" && !inserted {
                    tagged.push(("event".to_owned(), serde::Value::Str(event.to_owned())));
                    inserted = true;
                }
            }
            if !inserted {
                tagged.insert(0, ("event".to_owned(), serde::Value::Str(event.to_owned())));
            }
            serde::Value::Obj(tagged)
        }
        other => other.clone(),
    }
}

/// An ANSI progress line, redrawn in place on a terminal.
pub struct HumanSink {
    out: Box<dyn Write + Send>,
    dirty: bool,
}

impl HumanSink {
    /// A sink drawing on standard error (the conventional progress
    /// stream: stdout stays clean for `--json` output).
    pub fn stderr() -> Self {
        HumanSink::new(Box::new(std::io::stderr()))
    }

    /// A sink drawing on an arbitrary writer (used by tests).
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        HumanSink { out, dirty: false }
    }

    fn render(snapshot: &SearchSnapshot) -> String {
        let best = match snapshot.best_cost() {
            Some(cost) => format!("{cost:.4e}"),
            None => "-".to_owned(),
        };
        format!(
            "[search] {:.1}s  {} evals ({:.0}/s)  valid {:.1}%  best {}  \
             improvements {}  pruned {}  threads {}/{}",
            snapshot.elapsed_secs(),
            snapshot.evaluations,
            snapshot.evals_per_sec(),
            snapshot.valid_rate() * 100.0,
            best,
            snapshot.improvements,
            snapshot.pruned_mappings,
            snapshot.live_threads,
            snapshot.threads,
        )
    }
}

impl ProgressSink for HumanSink {
    fn emit(&mut self, snapshot: &SearchSnapshot) {
        // `\r` + clear-line redraws in place; losing a line to an I/O
        // error is harmless, so the result is deliberately dropped.
        let _ = write!(self.out, "\r\x1b[2K{}", Self::render(snapshot));
        let _ = self.out.flush();
        self.dirty = true;
    }

    fn finish(&mut self, _summary: &serde::Value) {
        if self.dirty {
            let _ = writeln!(self.out);
            let _ = self.out.flush();
            self.dirty = false;
        }
    }
}

/// One JSON record per line: `snapshot` events while running, then a
/// `summary` event, then a `metrics` event.
///
/// File-backed sinks ([`create`](Self::create)) stream into a
/// `<path>.tmp` sibling and rename it over the destination when the
/// sink drops, after the last event (`metrics` arrives *after*
/// `finish`, so the commit point cannot be earlier). A killed process
/// leaves only the `.tmp` staging file — never a torn artifact at the
/// requested path.
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
    staged: Option<Staged>,
}

/// The tmp → destination rename pending on a file-backed sink.
struct Staged {
    tmp: std::path::PathBuf,
    dest: std::path::PathBuf,
}

impl JsonlSink {
    /// A sink streaming to the file at `path` (created or truncated),
    /// committed atomically when the sink drops.
    pub fn create(path: &str) -> std::io::Result<Self> {
        let dest = std::path::PathBuf::from(path);
        let tmp = crate::artifact::tmp_path(&dest);
        let file = std::fs::File::create(&tmp)?;
        Ok(JsonlSink {
            out: Box::new(std::io::BufWriter::new(file)),
            staged: Some(Staged { tmp, dest }),
        })
    }

    /// A sink writing to an arbitrary writer (used by tests).
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlSink { out, staged: None }
    }

    fn write_line(&mut self, value: &serde::Value) {
        // Progress is best-effort: an unwritable line must not fail the
        // search. Failures degrade to a dropped event plus a counter
        // bump. (Value trees always serialize, so a to_string error is
        // counted but cannot otherwise occur.)
        let result = match ruby_failpoints::hit("telemetry.sink.write") {
            ruby_failpoints::Action::Off => match serde_json::to_string(value) {
                Ok(text) => writeln!(self.out, "{text}"),
                Err(_) => Err(std::io::Error::other("unserializable value")),
            },
            _ => Err(std::io::Error::other(
                "failpoint telemetry.sink.write: injected error",
            )),
        };
        if result.is_err() {
            SINK_ERRORS.inc();
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let Some(staged) = self.staged.take() else {
            return;
        };
        // Commit: flush the buffered tail, then publish with a rename.
        // Either step failing leaves the destination untouched (old
        // contents or absent) and is reported through the counter.
        if self.out.flush().is_err() {
            SINK_ERRORS.inc();
        }
        if std::fs::rename(&staged.tmp, &staged.dest).is_err() {
            SINK_ERRORS.inc();
        }
    }
}

impl ProgressSink for JsonlSink {
    fn emit(&mut self, snapshot: &SearchSnapshot) {
        self.write_line(&serde::Serialize::to_value(snapshot));
    }

    fn finish(&mut self, summary: &serde::Value) {
        self.write_line(&tag_event(summary, "summary"));
        let _ = self.out.flush();
    }

    fn metrics(&mut self, dump: &serde::Value) {
        let tagged = tag_event(dump, "metrics");
        self.write_line(&tagged);
        let _ = self.out.flush();
    }
}

#[derive(Debug, Default)]
struct MemoryStore {
    snapshots: Vec<SearchSnapshot>,
    summary: Option<serde::Value>,
    metrics: Option<serde::Value>,
}

/// An in-memory sink for tests and embedders: clone it, hand one copy
/// to the engine, and inspect the other after the run.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    store: Arc<Mutex<MemoryStore>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    fn with_store<R>(&self, f: impl FnOnce(&mut MemoryStore) -> R) -> R {
        // Every write completes before unlock, so a poisoned store is
        // still consistent.
        f(&mut self.store.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// All snapshots received so far, in emission order.
    pub fn snapshots(&self) -> Vec<SearchSnapshot> {
        self.with_store(|s| s.snapshots.clone())
    }

    /// The summary record, once [`ProgressSink::finish`] ran.
    pub fn summary(&self) -> Option<serde::Value> {
        self.with_store(|s| s.summary.clone())
    }

    /// The metrics dump, once [`ProgressSink::metrics`] ran.
    pub fn metrics_dump(&self) -> Option<serde::Value> {
        self.with_store(|s| s.metrics.clone())
    }
}

impl ProgressSink for MemorySink {
    fn emit(&mut self, snapshot: &SearchSnapshot) {
        self.with_store(|s| s.snapshots.push(*snapshot));
    }

    fn finish(&mut self, summary: &serde::Value) {
        let tagged = tag_event(summary, "summary");
        self.with_store(|s| s.summary = Some(tagged));
    }

    fn metrics(&mut self, dump: &serde::Value) {
        let tagged = tag_event(dump, "metrics");
        self.with_store(|s| s.metrics = Some(tagged));
    }
}

/// Fans every event out to several sinks (e.g. a terminal progress line
/// *and* a JSONL file for the same run).
#[derive(Default)]
pub struct MultiSink {
    sinks: Vec<Box<dyn ProgressSink>>,
}

impl MultiSink {
    /// An empty fan-out.
    pub fn new() -> Self {
        MultiSink::default()
    }

    /// Adds a sink to the fan-out.
    pub fn push(&mut self, sink: Box<dyn ProgressSink>) {
        self.sinks.push(sink);
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no sink is attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl ProgressSink for MultiSink {
    fn emit(&mut self, snapshot: &SearchSnapshot) {
        for sink in &mut self.sinks {
            sink.emit(snapshot);
        }
    }

    fn finish(&mut self, summary: &serde::Value) {
        for sink in &mut self.sinks {
            sink.finish(summary);
        }
    }

    fn metrics(&mut self, dump: &serde::Value) {
        for sink in &mut self.sinks {
            sink.metrics(dump);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    /// A `Write` handle into a shared buffer, so tests can inspect what
    /// a boxed sink wrote.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            let bytes = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            String::from_utf8_lossy(&bytes).into_owned()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Serializes the tests that write through a [`JsonlSink`]: the
    /// `telemetry.sink.write` failpoint is process-wide, so while one
    /// test has it armed no other test may write a line.
    fn jsonl_writers() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn snapshot(seq: u64) -> SearchSnapshot {
        SearchSnapshot {
            seq,
            elapsed_nanos: 1_000_000_000,
            evaluations: 100 * seq,
            valid: 40 * seq,
            invalid: 50 * seq,
            duplicates: 10 * seq,
            improvements: seq,
            best_cost_bits: 2.5f64.to_bits(),
            live_threads: 2,
            threads: 2,
            ..SearchSnapshot::default()
        }
    }

    #[test]
    fn human_sink_redraws_and_terminates_the_line() {
        let buf = SharedBuf::default();
        let mut sink = HumanSink::new(Box::new(buf.clone()));
        sink.emit(&snapshot(1));
        sink.emit(&snapshot(2));
        sink.finish(&serde::Value::Null);
        let text = buf.contents();
        assert_eq!(text.matches("\r\x1b[2K").count(), 2);
        assert!(text.contains("200 evals"));
        assert!(text.contains("valid 40.0%"));
        assert!(text.ends_with('\n'), "finish must release the line");
    }

    #[test]
    fn jsonl_sink_emits_one_parsable_record_per_line() {
        let _serial = jsonl_writers();
        let buf = SharedBuf::default();
        let mut sink = JsonlSink::new(Box::new(buf.clone()));
        sink.emit(&snapshot(1));
        sink.emit(&snapshot(2));
        sink.finish(&serde::Value::Obj(vec![(
            "schema".to_owned(),
            serde::Value::U64(1),
        )]));
        sink.metrics(&serde::Value::Obj(vec![(
            "search.memo.drop".to_owned(),
            serde::Value::U64(9),
        )]));
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let first = serde_json::from_str::<serde::Value>(lines[0]).expect("line 1 parses");
        let snap = SearchSnapshot::from_value(&first).expect("snapshot event");
        assert_eq!(snap.seq, 1);
        let summary = serde_json::from_str::<serde::Value>(lines[2]).expect("line 3 parses");
        assert_eq!(
            summary.get("event"),
            Some(&serde::Value::Str("summary".to_owned()))
        );
        assert_eq!(summary.get("schema"), Some(&serde::Value::U64(1)));
        let metrics = serde_json::from_str::<serde::Value>(lines[3]).expect("line 4 parses");
        assert_eq!(
            metrics.get("event"),
            Some(&serde::Value::Str("metrics".to_owned()))
        );
    }

    #[test]
    fn memory_and_multi_sinks_capture_everything() {
        let _serial = jsonl_writers();
        let memory = MemorySink::new();
        let buf = SharedBuf::default();
        let mut multi = MultiSink::new();
        multi.push(Box::new(memory.clone()));
        multi.push(Box::new(JsonlSink::new(Box::new(buf.clone()))));
        assert_eq!(multi.len(), 2);
        multi.emit(&snapshot(1));
        multi.finish(&serde::Value::Obj(vec![(
            "evaluations".to_owned(),
            serde::Value::U64(100),
        )]));
        assert_eq!(memory.snapshots().len(), 1);
        let summary = memory.summary().expect("finish recorded");
        // With no "schema" field the tag lands at the front.
        assert_eq!(
            summary.get("event"),
            Some(&serde::Value::Str("summary".to_owned()))
        );
        assert!(buf.contents().lines().count() == 2);
        assert!(memory.metrics_dump().is_none());
    }

    #[test]
    fn file_backed_jsonl_sink_commits_on_drop() {
        let _serial = jsonl_writers();
        let mut path = std::env::temp_dir();
        path.push(format!("ruby-sink-commit-{}.jsonl", std::process::id()));
        let path_str = path.to_str().expect("temp path is utf-8").to_owned();
        let tmp = crate::artifact::tmp_path(&path);
        {
            let mut sink = JsonlSink::create(&path_str).expect("create");
            sink.emit(&snapshot(1));
            sink.finish(&serde::Value::Null);
            assert!(tmp.exists(), "events stream into the staging file");
            assert!(!path.exists(), "destination appears only on commit");
        }
        assert!(!tmp.exists(), "drop renames the staging file away");
        let text = std::fs::read_to_string(&path).expect("committed file");
        assert_eq!(text.lines().count(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_write_errors_degrade_and_are_counted() {
        let _serial = jsonl_writers();
        let buf = SharedBuf::default();
        let mut sink = JsonlSink::new(Box::new(buf.clone()));
        sink.emit(&snapshot(1));
        let before = SINK_ERRORS.get();
        assert!(ruby_failpoints::arm("telemetry.sink.write", "err"));
        sink.emit(&snapshot(2));
        sink.emit(&snapshot(3));
        ruby_failpoints::disarm("telemetry.sink.write");
        sink.emit(&snapshot(4));
        assert_eq!(SINK_ERRORS.get() - before, 2, "one bump per dropped event");
        let text = buf.contents();
        assert_eq!(text.lines().count(), 2, "injected events are dropped");
    }

    #[test]
    fn tag_event_never_double_tags() {
        let once = tag_event(
            &serde::Value::Obj(vec![(
                "event".to_owned(),
                serde::Value::Str("stale".to_owned()),
            )]),
            "summary",
        );
        let serde::Value::Obj(fields) = &once else {
            panic!("object expected");
        };
        assert_eq!(fields.len(), 1);
        assert_eq!(
            once.get("event"),
            Some(&serde::Value::Str("summary".to_owned()))
        );
    }
}
