//! Lock-free event counters and the process-wide registry.
//!
//! A [`Counter`] is a plain atomic cell. Instrumented crates go through
//! a [`LazyCounter`]: a `static` handle names the metric (`static DROPS:
//! LazyCounter = LazyCounter::new("search.memo.drop");`) and its first
//! update registers the counter in the global [`MetricsRegistry`] and
//! caches the reference, so the steady-state cost of a count is one
//! Relaxed `fetch_add`. Hot paths count per batch or per run, never per
//! candidate: a process-wide cell bumped by every worker is a shared
//! cache line.
//!
//! All cells use `Ordering::Relaxed`: metrics are statistics, never
//! synchronization — no payload is published through them, and readers
//! (the registry dump) tolerate slightly stale values.

// ordering: Relaxed throughout this module — every atomic here is a
// statistics cell; only its arithmetic value matters and no other
// memory is published through it, so no acquire/release edges needed.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    // ordering: Relaxed — statistics cell (see module docs).
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter {
            // ordering: Relaxed statistics cell (see module docs).
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — statistics cell (see module docs).
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — statistics cell (see module docs).
        self.value.load(Ordering::Relaxed)
    }
}

/// The process-wide counter table.
///
/// Registration happens once per counter (first touch of its
/// [`LazyCounter`]) under a mutex; the hot path never sees the lock
/// because the handle caches the `&'static` cell. Counters live for the
/// process — they are `Box::leak`ed on registration, which is bounded
/// by the number of distinct metric names in the codebase.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<(&'static str, &'static Counter)>>,
}

impl MetricsRegistry {
    fn entries(&self) -> MutexGuard<'_, Vec<(&'static str, &'static Counter)>> {
        // Registration writes complete before unlock, so a poisoned
        // table is still consistent and safe to reuse.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        let mut entries = self.entries();
        if let Some(&(_, cell)) = entries.iter().find(|(n, _)| *n == name) {
            return cell;
        }
        let cell = &*Box::leak(Box::new(Counter::new()));
        entries.push((name, cell));
        entries.sort_by_key(|(n, _)| *n);
        cell
    }

    /// All counters as one object of integers, sorted by name.
    pub fn dump(&self) -> serde::Value {
        serde::Value::Obj(
            self.entries()
                .iter()
                .map(|(name, c)| ((*name).to_owned(), serde::Value::U64(c.get())))
                .collect(),
        )
    }
}

/// The process-wide [`MetricsRegistry`].
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::default)
}

/// A `const`-constructible handle to a named [`Counter`] in
/// [`registry`]: the first call resolves the counter and caches the
/// reference.
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// A handle for the metric called `name`.
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    fn resolve(&self) -> &'static Counter {
        self.cell.get_or_init(|| registry().counter(self.name))
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.resolve().add(n);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.resolve().get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn registry_dedups_by_name_and_dumps_sorted() {
        let reg = MetricsRegistry::default();
        let a = reg.counter("z.late");
        let b = reg.counter("z.late");
        assert!(std::ptr::eq(a, b), "same name must resolve to one cell");
        a.add(3);
        reg.counter("a.early").add(9);
        let dump = reg.dump();
        let serde::Value::Obj(fields) = &dump else {
            panic!("dump must be an object");
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["a.early", "z.late"]);
        assert_eq!(dump.get("z.late"), Some(&serde::Value::U64(3)));
        assert_eq!(dump.get("a.early"), Some(&serde::Value::U64(9)));
    }

    #[test]
    fn lazy_handles_match_the_feature_gate() {
        static PROBE: LazyCounter = LazyCounter::new("test.metrics.probe");
        PROBE.add(2);
        PROBE.inc();
        assert_eq!(PROBE.get(), 3);
        assert!(std::ptr::eq(
            registry().counter("test.metrics.probe"),
            PROBE.resolve()
        ));
        assert_eq!(
            registry().dump().get("test.metrics.probe"),
            Some(&serde::Value::U64(3))
        );
    }
}
