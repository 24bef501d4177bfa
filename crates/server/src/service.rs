//! The [`MapperService`]: warm hits from the store, cold queries
//! through a supervised pool of search engines.
//!
//! Warm path: fingerprint the query, look it up in the store under a
//! short-lived lock, clone the record out — microseconds, no search.
//! The warm path is never queued, shed, or breaker-gated: an overloaded
//! service keeps answering known configs.
//!
//! Cold path: admission first — at most `workers` cold searches run at
//! once, at most `queue_depth` more wait, and beyond that the query is
//! *shed* (`source:"shed"` with `retry_after_ms`) rather than queued
//! unboundedly; per-client in-flight caps keep one flooding client from
//! starving the rest. An admitted query builds the mapspace, runs one
//! [`Engine`] (single-threaded per query by default, so repeated cold
//! runs of the same query are bit-identical; batches get their
//! parallelism *across* queries), then writes the winner back to the
//! store so every later repeat is warm.
//!
//! Deadlines: `MapQuery::deadline_ms` bounds the whole cold path,
//! queueing included. A search that runs out of deadline drains through
//! the engine's cooperative stop machinery (the same path the
//! [`StopToken`] uses) and still answers — best-so-far, marked
//! `source:"partial"` with its `stop_reason` — instead of blocking the
//! pool.
//!
//! Degradation: when cold work cannot run (saturation or an open
//! circuit breaker), the service first looks for a warm record whose
//! fingerprint matches the query *modulo objective* and answers with it
//! marked `degraded:true`; only when no such neighbor exists does it
//! shed. Repeated cold-path failures trip the breaker
//! (`breaker_threshold` consecutive failures → cold work shed for
//! `breaker_cooldown_ms`), containing a crash loop while warm hits keep
//! flowing.
//!
//! Supervision: a panic anywhere in a cold query (mapspace
//! construction, enumeration, the model) is caught and returned as a
//! [`ServeError::Search`] for that query alone; the pool and the other
//! queries keep going — the same containment contract the engine's own
//! worker pool gives individual evaluations.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ruby_mapspace::{Constraints, Mapspace};
use ruby_search::{Engine, Objective, SearchConfig, SearchStrategy, StopToken};
use ruby_store::{MappingStore, ScrubReport, StoreRecord};
use ruby_telemetry::{Counter, ProgressSink, SearchSnapshot};

use crate::{MapQuery, MapResponse, ResponseSource, ServeError};

/// How long a queued cold query sleeps between slot polls; also bounds
/// how stale its stop/deadline checks can get.
const QUEUE_POLL: Duration = Duration::from_millis(20);

/// How a [`MapperService`] is wired.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The durable store log.
    pub store_path: PathBuf,
    /// Cold-search concurrency: the worker-pool width for
    /// [`MapperService::handle_batch`] and the number of cold queries
    /// admitted to run at once.
    pub workers: usize,
    /// Engine threads per cold query; 1 (the default) keeps every cold
    /// search bit-deterministic and lets batches parallelize across
    /// queries instead.
    pub threads_per_query: usize,
    /// Seed for cold searches.
    pub seed: u64,
    /// When set, every cold query checkpoints into this directory
    /// (file name = the store key) and resumes from it.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint stride in evaluations.
    pub checkpoint_every: u64,
    /// Cold queries allowed to wait for a worker slot beyond the
    /// `workers` already running; the next one is shed, not queued.
    pub queue_depth: usize,
    /// Cold queries (running + waiting) one client may have in flight;
    /// 0 disables the cap. Applies only to identified clients (a
    /// query's `client` field or the transport's per-connection id).
    pub max_inflight_per_client: usize,
    /// Consecutive cold-path failures that trip the circuit breaker.
    pub breaker_threshold: u64,
    /// How long a tripped breaker sheds cold work before re-admitting.
    pub breaker_cooldown_ms: u64,
    /// `retry_after_ms` suggested to shed clients.
    pub retry_after_ms: u64,
    /// Scrub the store log on open: CRC-verify every frame, quarantine
    /// damaged ones to the `.quarantine` sidecar, and recover intact
    /// records *past* the damage (a plain open truncates at the first
    /// damaged frame instead).
    pub scrub_on_open: bool,
}

impl ServiceConfig {
    /// Defaults: 2 workers, deterministic single-threaded cold
    /// searches, no checkpoints, a 16-deep cold queue, 8 in-flight cold
    /// queries per client, a 5-failure breaker with a 1 s cooldown, and
    /// scrub-on-open.
    pub fn new(store_path: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            store_path: store_path.into(),
            workers: 2,
            threads_per_query: 1,
            seed: 1,
            checkpoint_dir: None,
            checkpoint_every: 10_000,
            queue_depth: 16,
            max_inflight_per_client: 8,
            breaker_threshold: 5,
            breaker_cooldown_ms: 1_000,
            retry_after_ms: 250,
            scrub_on_open: true,
        }
    }
}

/// Service counters, for the shutdown summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries answered (errors included).
    pub queries: u64,
    /// Answered from the store.
    pub store_hits: u64,
    /// Answered by a fresh search.
    pub cold_searches: u64,
    /// Load-shed (`source:"shed"`) responses.
    pub shed: u64,
    /// Nearest-warm fallback (`degraded:true`) responses.
    pub degraded: u64,
    /// Truncated cold searches answered best-so-far
    /// (`source:"partial"`).
    pub partial: u64,
    /// Queries whose wall-clock deadline expired (in queue or
    /// mid-search).
    pub deadline_expired: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: u64,
}

/// Cold-slot admission verdict.
enum Admit {
    /// A worker slot is held; release via [`ColdSlot`].
    Run,
    /// Queue full (or per-client cap hit): shed, don't wait.
    Saturated,
    /// The query's deadline expired while it waited.
    Expired,
    /// The service is draining.
    Stopped,
}

/// Running/waiting cold-query accounting behind the admission gate.
struct Slots {
    running: usize,
    waiting: usize,
    per_client: HashMap<String, usize>,
}

struct Admission {
    slots: Mutex<Slots>,
    cv: Condvar,
}

/// Circuit-breaker state: consecutive failures and the open-until
/// horizon.
struct BreakerState {
    consecutive_failures: u64,
    open_until: Option<Instant>,
}

/// The mapper service: a [`MappingStore`] fronted by a pool of engines.
pub struct MapperService {
    config: ServiceConfig,
    store: Mutex<MappingStore>,
    token: StopToken,
    progress: Option<Arc<Mutex<Box<dyn ProgressSink>>>>,
    admission: Admission,
    breaker: Mutex<BreakerState>,
    scrub: ScrubReport,
    queries: Counter,
    store_hits: Counter,
    cold_searches: Counter,
    shed: Counter,
    degraded: Counter,
    partial: Counter,
    deadline_expired: Counter,
    breaker_trips: Counter,
}

impl MapperService {
    /// Opens the service over the store at `config.store_path`. With
    /// `scrub_on_open` (the default) the whole log is CRC-verified and
    /// damaged frames are quarantined to the sidecar
    /// ([`MappingStore::open_scrubbed`]); otherwise recovery is the
    /// plain torn-tail truncation of [`MappingStore::open`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Store`] when the log cannot be opened.
    pub fn open(config: ServiceConfig) -> Result<Self, ServeError> {
        let (store, scrub) = if config.scrub_on_open {
            MappingStore::open_scrubbed(&config.store_path)?
        } else {
            (
                MappingStore::open(&config.store_path)?,
                ScrubReport::default(),
            )
        };
        Ok(MapperService {
            config,
            store: Mutex::new(store),
            token: StopToken::new(),
            progress: None,
            admission: Admission {
                slots: Mutex::new(Slots {
                    running: 0,
                    waiting: 0,
                    per_client: HashMap::new(),
                }),
                cv: Condvar::new(),
            },
            breaker: Mutex::new(BreakerState {
                consecutive_failures: 0,
                open_until: None,
            }),
            scrub,
            queries: Counter::new(),
            store_hits: Counter::new(),
            cold_searches: Counter::new(),
            shed: Counter::new(),
            degraded: Counter::new(),
            partial: Counter::new(),
            deadline_expired: Counter::new(),
            breaker_trips: Counter::new(),
        })
    }

    /// Streams every cold search's progress into `sink` (snapshots,
    /// summaries and metrics interleave across workers; each record
    /// carries its own identity).
    pub fn with_progress(mut self, sink: Box<dyn ProgressSink>) -> Self {
        self.progress = Some(Arc::new(Mutex::new(sink)));
        self
    }

    /// A clone of the service's stop token: trip it (e.g. from a signal
    /// handler) and in-flight cold searches drain, while queued batch
    /// entries come back [`ServeError::Stopped`].
    pub fn stop_token(&self) -> StopToken {
        self.token.clone()
    }

    /// Service counters so far.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            queries: self.queries.get(),
            store_hits: self.store_hits.get(),
            cold_searches: self.cold_searches.get(),
            shed: self.shed.get(),
            degraded: self.degraded.get(),
            partial: self.partial.get(),
            deadline_expired: self.deadline_expired.get(),
            breaker_trips: self.breaker_trips.get(),
        }
    }

    /// What the open-time scrub found (all-zero when `scrub_on_open`
    /// was off or the log was clean).
    pub fn scrub_report(&self) -> ScrubReport {
        self.scrub
    }

    /// Whether the circuit breaker is currently shedding cold work.
    pub fn breaker_open(&self) -> bool {
        match self.breaker.lock() {
            Ok(state) => state.open_until.is_some_and(|until| Instant::now() < until),
            Err(_) => false,
        }
    }

    /// Live entries in the underlying store.
    pub fn store_len(&self) -> usize {
        match self.store.lock() {
            Ok(store) => store.len(),
            Err(_) => 0,
        }
    }

    /// Compacts the underlying store log (e.g. at shutdown).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Store`] when the rewrite fails; the
    /// previous log generation survives.
    pub fn compact(&self) -> Result<(), ServeError> {
        let mut store = self.lock_store()?;
        store.compact()?;
        Ok(())
    }

    /// Answers one query: warm from the store if its fingerprint is
    /// known, otherwise by a fresh supervised search whose winner is
    /// persisted before the response is returned. Under overload the
    /// cold path degrades (see the module docs): `partial`, degraded
    /// warm fallbacks, and `shed` responses are `Ok` — they are
    /// terminal protocol answers, not failures.
    ///
    /// # Errors
    ///
    /// [`ServeError::Search`] when the cold search panics or finds no
    /// valid mapping; [`ServeError::Store`] when the store refuses the
    /// lookup or write-back; [`ServeError::Stopped`] for cold work
    /// during shutdown.
    pub fn handle(&self, query: &MapQuery) -> Result<MapResponse, ServeError> {
        let start = Instant::now();
        self.queries.inc();
        let key = self.fingerprint(query, query.objective);

        {
            let store = self.lock_store()?;
            if let Some(record) = store.get(key) {
                self.store_hits.inc();
                return Ok(respond(ResponseSource::Store, key, record.clone(), start));
            }
        }

        // The whole cold path is contained: a panic anywhere inside it
        // (admission, engine, store write-back) fails this query alone.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.cold_path(query, key, start)
        }))
        .unwrap_or_else(|panic| {
            Err(ServeError::Search(format!(
                "worker panicked: {}",
                panic_text(&panic)
            )))
        });
        if let Err(err) = &result {
            if !matches!(err, ServeError::Stopped) {
                self.record_breaker_failure();
            }
        }
        result
    }

    /// Answers a batch, sharding cold queries across the worker pool.
    /// Results come back in query order; each entry fails or succeeds
    /// on its own.
    pub fn handle_batch(&self, queries: &[MapQuery]) -> Vec<Result<MapResponse, ServeError>> {
        let slots: Vec<Mutex<Option<Result<MapResponse, ServeError>>>> =
            queries.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.config.workers.max(1).min(queries.len().max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // ordering: Relaxed — the work index carries no other state.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(query) = queries.get(i) else {
                        break;
                    };
                    let result = if self.token.stop_requested() {
                        Err(ServeError::Stopped)
                    } else {
                        self.handle(query)
                    };
                    if let Ok(mut slot) = slots[i].lock() {
                        *slot = Some(result);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| match slot.into_inner() {
                Ok(Some(result)) => result,
                _ => Err(ServeError::Search("worker died mid-query".to_owned())),
            })
            .collect()
    }

    /// The cold pipeline: breaker gate, admission, supervised search,
    /// durable write-back.
    fn cold_path(
        &self,
        query: &MapQuery,
        key: u64,
        start: Instant,
    ) -> Result<MapResponse, ServeError> {
        if self.token.stop_requested() {
            return Err(ServeError::Stopped);
        }
        let deadline = query
            .deadline_ms
            .map(|ms| start + Duration::from_millis(ms));
        if expired(deadline) {
            return self.deadline_expired_answer(query, key, start);
        }
        match ruby_failpoints::hit("server.queue") {
            ruby_failpoints::Action::Panic => {
                // justified: fault injection — contained by the cold-path catch_unwind
                panic!("failpoint server.queue");
            }
            ruby_failpoints::Action::Err => {
                return Ok(self.fallback(query, key, start, self.config.retry_after_ms));
            }
            _ => {}
        }
        if let Some(retry_after_ms) = self.breaker_open_for() {
            return Ok(self.fallback(query, key, start, retry_after_ms));
        }
        let client = query.client.as_deref();
        match self.acquire_slot(client, deadline) {
            Admit::Run => {}
            Admit::Saturated => {
                return Ok(self.fallback(query, key, start, self.config.retry_after_ms))
            }
            Admit::Expired => return self.deadline_expired_answer(query, key, start),
            Admit::Stopped => return Err(ServeError::Stopped),
        }
        let slot = ColdSlot {
            service: self,
            client,
        };
        self.cold_searches.inc();
        let result = self.cold_search(query, key, deadline);
        drop(slot);
        let (record, stop_reason) = result?;
        self.record_breaker_success();
        let record = {
            let mut store = self.lock_store()?;
            store.put(record.clone())?;
            // An improving record may have landed between our lookup
            // and the write-back; always answer with the store's view
            // so repeats of this query are bit-identical to it.
            // justified: the key was either present or just written above
            store
                .get(key)
                .cloned()
                .expect("record just written vanished")
        };
        match stop_reason {
            Some(reason) => {
                self.partial.inc();
                if reason == "deadline" {
                    self.deadline_expired.inc();
                }
                let mut response = respond(ResponseSource::Partial, key, record, start);
                response.stop_reason = Some(reason);
                Ok(response)
            }
            None => Ok(respond(ResponseSource::Search, key, record, start)),
        }
    }

    /// Admission: take a worker slot, wait in the bounded queue for
    /// one, or refuse. The queue is polled so shutdown and deadlines
    /// cut waits short.
    fn acquire_slot(&self, client: Option<&str>, deadline: Option<Instant>) -> Admit {
        let Ok(mut slots) = self.admission.slots.lock() else {
            return Admit::Saturated;
        };
        let cap = self.config.max_inflight_per_client;
        if let Some(client) = client {
            if cap > 0 && slots.per_client.get(client).copied().unwrap_or(0) >= cap {
                return Admit::Saturated;
            }
        }
        if slots.running >= self.config.workers.max(1) && slots.waiting >= self.config.queue_depth {
            return Admit::Saturated;
        }
        if let Some(client) = client {
            *slots.per_client.entry(client.to_owned()).or_insert(0) += 1;
        }
        let release_client = |slots: &mut Slots| {
            if let Some(client) = client {
                if let Some(count) = slots.per_client.get_mut(client) {
                    *count = count.saturating_sub(1);
                    if *count == 0 {
                        slots.per_client.remove(client);
                    }
                }
            }
        };
        if slots.running < self.config.workers.max(1) {
            slots.running += 1;
            return Admit::Run;
        }
        slots.waiting += 1;
        loop {
            let (guard, _timeout) = match self.admission.cv.wait_timeout(slots, QUEUE_POLL) {
                Ok(pair) => pair,
                Err(_) => {
                    // justified: poisoned admission lock — refuse rather than abort
                    return Admit::Saturated;
                }
            };
            slots = guard;
            if self.token.stop_requested() {
                slots.waiting -= 1;
                release_client(&mut slots);
                return Admit::Stopped;
            }
            if expired(deadline) {
                slots.waiting -= 1;
                release_client(&mut slots);
                return Admit::Expired;
            }
            if slots.running < self.config.workers.max(1) {
                slots.waiting -= 1;
                slots.running += 1;
                return Admit::Run;
            }
        }
    }

    /// The degraded/shed fallback for cold work that cannot run: a warm
    /// record for the same config under another objective when one
    /// exists, a `shed` verdict otherwise.
    fn fallback(
        &self,
        query: &MapQuery,
        key: u64,
        start: Instant,
        retry_after_ms: u64,
    ) -> MapResponse {
        if let Some(response) = self.degraded_answer(query, start) {
            return response;
        }
        self.shed.inc();
        MapResponse {
            source: ResponseSource::Shed,
            key,
            objective: query.objective.name().to_owned(),
            cost: 0.0,
            cycles: 0,
            energy: 0.0,
            evaluations: 0,
            micros: start.elapsed().as_micros() as u64,
            degraded: false,
            retry_after_ms: Some(retry_after_ms.max(1)),
            stop_reason: None,
            mapping: None,
        }
    }

    /// The nearest-warm lookup: the same fingerprint modulo objective.
    fn degraded_answer(&self, query: &MapQuery, start: Instant) -> Option<MapResponse> {
        let store = self.store.lock().ok()?;
        for objective in [Objective::Edp, Objective::Energy, Objective::Delay] {
            if objective == query.objective {
                continue;
            }
            let alt_key = self.fingerprint(query, objective);
            if let Some(record) = store.get(alt_key) {
                self.degraded.inc();
                let mut response = respond(ResponseSource::Store, alt_key, record.clone(), start);
                response.degraded = true;
                return Some(response);
            }
        }
        None
    }

    /// A query whose deadline expired before any search ran: count it,
    /// degrade if a warm neighbor exists, otherwise fail it.
    fn deadline_expired_answer(
        &self,
        query: &MapQuery,
        _key: u64,
        start: Instant,
    ) -> Result<MapResponse, ServeError> {
        self.deadline_expired.inc();
        if let Some(response) = self.degraded_answer(query, start) {
            return Ok(response);
        }
        Err(ServeError::Search(
            "deadline expired before the search could start".to_owned(),
        ))
    }

    /// Remaining cooldown when the breaker is open, `None` when closed.
    fn breaker_open_for(&self) -> Option<u64> {
        let state = self.breaker.lock().ok()?;
        let until = state.open_until?;
        let now = Instant::now();
        if now < until {
            Some((until - now).as_millis().max(1) as u64)
        } else {
            None
        }
    }

    fn record_breaker_failure(&self) {
        let Ok(mut state) = self.breaker.lock() else {
            return;
        };
        state.consecutive_failures += 1;
        if state.consecutive_failures >= self.config.breaker_threshold.max(1) {
            let now = Instant::now();
            let was_open = state.open_until.is_some_and(|until| now < until);
            state.open_until = Some(now + Duration::from_millis(self.config.breaker_cooldown_ms));
            if !was_open {
                self.breaker_trips.inc();
            }
        }
    }

    fn record_breaker_success(&self) {
        if let Ok(mut state) = self.breaker.lock() {
            state.consecutive_failures = 0;
            state.open_until = None;
        }
    }

    fn fingerprint(&self, query: &MapQuery, objective: Objective) -> u64 {
        let constraints = Constraints::unconstrained(query.arch.num_levels());
        ruby_store::config_key(
            &query.arch,
            &query.workload,
            &constraints,
            query.mapspace,
            objective.name(),
        )
    }

    /// One supervised cold search: any panic becomes a per-query error.
    /// Returns the record and, for a truncated search, its stop reason.
    fn cold_search(
        &self,
        query: &MapQuery,
        key: u64,
        deadline: Option<Instant>,
    ) -> Result<(StoreRecord, Option<String>), ServeError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_engine(query, key, deadline)
        }))
        .map_err(|panic| ServeError::Search(format!("worker panicked: {}", panic_text(&panic))))?
    }

    fn run_engine(
        &self,
        query: &MapQuery,
        key: u64,
        deadline: Option<Instant>,
    ) -> Result<(StoreRecord, Option<String>), ServeError> {
        match ruby_failpoints::hit("server.worker") {
            ruby_failpoints::Action::Panic => {
                // justified: fault injection — contained by cold_search's catch_unwind
                panic!("failpoint server.worker");
            }
            ruby_failpoints::Action::Err => {
                return Err(ServeError::Search(
                    "failpoint server.worker: injected error".to_owned(),
                ));
            }
            _ => {}
        }
        let space = Mapspace::new(query.arch.clone(), query.workload.clone(), query.mapspace);
        let (max_evaluations, termination) = query.budget.params();
        let mut builder = SearchConfig::builder()
            .seed(self.config.seed)
            .max_evaluations(max_evaluations)
            .termination(termination)
            .threads(self.config.threads_per_query.max(1))
            .objective(query.objective)
            .strategy(SearchStrategy::Random)
            .prune(true);
        if let Some(deadline) = deadline {
            let remaining = deadline
                .saturating_duration_since(Instant::now())
                .as_secs_f64()
                .max(0.001);
            builder = builder.max_seconds(remaining);
        }
        let config = builder
            .build()
            .map_err(|e| ServeError::Query(e.to_string()))?;
        let mut engine = Engine::new(&space)
            .with_config(config)
            .with_stop_token(self.token.clone());
        if let Some(dir) = &self.config.checkpoint_dir {
            engine = engine
                .with_checkpoint(
                    dir.join(format!("{key:016x}.ckpt")),
                    self.config.checkpoint_every,
                )
                .resume();
        }
        if let Some(progress) = &self.progress {
            engine = engine.with_progress(Box::new(SharedSink {
                inner: Arc::clone(progress),
            }));
        }
        let outcome = engine
            .try_run()
            .map_err(|e| ServeError::Search(e.to_string()))?;
        let best = outcome.best.ok_or_else(|| {
            ServeError::Search(format!(
                "no valid {} mapping in {} evaluations",
                query.mapspace.name(),
                outcome.evaluations
            ))
        })?;
        let stop_reason = if outcome.stopped_early {
            outcome.stop_reason.clone()
        } else {
            None
        };
        Ok((
            StoreRecord {
                key,
                objective: query.objective.name().to_owned(),
                cost: best.cost,
                evaluations: outcome.evaluations,
                mapping: best.mapping,
                report: best.report,
            },
            stop_reason,
        ))
    }

    fn release_slot(&self, client: Option<&str>) {
        if let Ok(mut slots) = self.admission.slots.lock() {
            slots.running = slots.running.saturating_sub(1);
            if let Some(client) = client {
                if let Some(count) = slots.per_client.get_mut(client) {
                    *count = count.saturating_sub(1);
                    if *count == 0 {
                        slots.per_client.remove(client);
                    }
                }
            }
        }
        self.admission.cv.notify_one();
    }

    fn lock_store(&self) -> Result<std::sync::MutexGuard<'_, MappingStore>, ServeError> {
        self.store
            .lock()
            .map_err(|_| ServeError::Search("store mutex poisoned".to_owned()))
    }
}

/// RAII release of an admitted cold slot: runs on every exit path out
/// of the search, panics included.
struct ColdSlot<'a> {
    service: &'a MapperService,
    client: Option<&'a str>,
}

impl Drop for ColdSlot<'_> {
    fn drop(&mut self) {
        self.service.release_slot(self.client);
    }
}

/// Whether `deadline` has passed.
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|at| Instant::now() >= at)
}

fn respond(source: ResponseSource, key: u64, record: StoreRecord, start: Instant) -> MapResponse {
    MapResponse {
        source,
        key,
        objective: record.objective,
        cost: record.cost,
        cycles: record.report.cycles(),
        energy: record.report.energy(),
        evaluations: record.evaluations,
        micros: start.elapsed().as_micros() as u64,
        degraded: false,
        retry_after_ms: None,
        stop_reason: None,
        mapping: Some(record.mapping),
    }
}

fn panic_text(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(text) = panic.downcast_ref::<&str>() {
        (*text).to_owned()
    } else if let Some(text) = panic.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Forwards one engine's progress into the service-wide shared sink.
struct SharedSink {
    inner: Arc<Mutex<Box<dyn ProgressSink>>>,
}

impl ProgressSink for SharedSink {
    fn emit(&mut self, snapshot: &SearchSnapshot) {
        if let Ok(mut sink) = self.inner.lock() {
            sink.emit(snapshot);
        }
    }

    fn finish(&mut self, summary: &serde::Value) {
        if let Ok(mut sink) = self.inner.lock() {
            sink.finish(summary);
        }
    }

    fn metrics(&mut self, dump: &serde::Value) {
        if let Ok(mut sink) = self.inner.lock() {
            sink.metrics(dump);
        }
    }
}
