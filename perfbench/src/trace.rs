//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the program itself is not instrumented), kept in memory, and written
//! as JSON lines when the run ends. A span's self time is its duration
//! minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `mapspace.tables`.
    pub name: &'static str,
    /// The query (or search) this span belongs to.
    pub query: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one time origin.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, query: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            query,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in nanoseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        query: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, query, parent);
        let out = f();
        self.close(id);
        (out, self.spans[id].dur_ns())
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time per layer (the name's prefix before the first `.`), in
    /// nanoseconds: each span's duration minus its children's.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.dur_ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *by_layer.entry(layer).or_insert(0) += span.dur_ns().saturating_sub(children);
        }
        by_layer
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be written.
    pub fn write_jsonl(&self, path: &Path, seed: u64) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"query\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"seed\":{seed}}}",
                span.name, span.query, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer {
            epoch: Instant::now(),
            spans: vec![
                Span {
                    name: "server.query",
                    query: 0,
                    parent: None,
                    start_ns: 0,
                    end_ns: 100,
                },
                Span {
                    name: "store.get",
                    query: 0,
                    parent: Some(0),
                    start_ns: 10,
                    end_ns: 40,
                },
            ],
        };
        let by_layer = tracer.self_time_by_layer();
        assert_eq!(by_layer["server"], 70);
        assert_eq!(by_layer["store"], 30);
    }
}
