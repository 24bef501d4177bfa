//! The serve workloads: `cold_sweep` and `warm_replay`.
//!
//! One closed-loop client sends each protocol line through
//! `wire::handle_line` and waits for the answer before sending the next.

use std::path::Path;
use std::time::Instant;

use ruby_mapspace::{Constraints, Mapspace};
use ruby_search::{Engine, SearchConfig, SearchStrategy};
use ruby_server::{wire, MapQuery, MapResponse, MapperService, ResponseSource, ServiceConfig};
use ruby_store::{MappingStore, StoreRecord};

use crate::answers::{parse_answer, AnswerBook};
use crate::layers::{self, Counts};
use crate::stats::{self, Metrics, PassTimes, Stamp, MIN_PASSES, MIN_SAMPLES};
use crate::trace::Tracer;
use crate::{repeat_setup, Options, Tally, Workdir};

/// One worker, one engine thread per query, the workload seed.
fn open_service(path: &Path, seed: u64) -> Result<MapperService, String> {
    let mut config = ServiceConfig::new(path);
    config.workers = 1;
    config.seed = seed;
    MapperService::open(config).map_err(|e| format!("{}: {e}", path.display()))
}

/// One untraced pass over the query lines.
struct Pass {
    times: PassTimes,
    /// Evaluations behind the pass's cold answers.
    evaluations: u64,
}

fn serve_pass(
    service: &MapperService,
    lines: &[String],
    book: &mut AnswerBook,
    warm_only: bool,
    tally: &mut Tally,
) -> Result<Pass, String> {
    let mut items = Vec::with_capacity(lines.len());
    let mut answers = Vec::with_capacity(lines.len());
    let start = Stamp::now();
    for line in lines {
        let sent = Stamp::now();
        answers.push(wire::handle_line(service, line, None).unwrap_or_default());
        items.push(sent.took());
    }
    let pass = start.took();
    // Checked after the pass, so the client's checks stay out of its wall
    // time.
    let mut evaluations = 0;
    for answer in &answers {
        let answer = tally.attempt(book.check(answer, warm_only))?;
        if answer.source == ResponseSource::Search {
            evaluations += answer.evaluations;
        }
    }
    Ok(Pass {
        times: PassTimes {
            group: 0,
            items,
            pass,
        },
        evaluations,
    })
}

/// Passes until [`stats::enough`] says the measurement is complete.
fn passes_until(
    seconds: f64,
    mut next: impl FnMut() -> Result<Pass, String>,
) -> Result<Vec<Pass>, String> {
    let mut passes: Vec<Pass> = Vec::new();
    let mut times: Vec<PassTimes> = Vec::new();
    let start = Instant::now();
    while !stats::enough(&times, 1, start, seconds) {
        let pass = next()?;
        times.push(pass.times.clone());
        passes.push(pass);
    }
    Ok(passes)
}

/// The end-to-end metrics of a set of passes, with the report lines.
fn serve_metrics(
    (setup_s, setups): (f64, usize),
    passes: &[Pass],
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s", setups);
    let times: Vec<PassTimes> = passes.iter().map(|p| p.times.clone()).collect();
    for line in stats::put_timings(&mut m, &times, 1)? {
        tally.note(line);
    }
    stats::put_memory(&mut m, tally);
    tally.note(format!(
        "error_rate {} ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    ));
    Ok(m)
}

/// Every pass's cold evaluations must agree: single-threaded searches
/// are deterministic.
fn check_evaluations(tally: &mut Tally, totals: &[u64]) -> Result<(), String> {
    if totals.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!(
            "search evaluations differ between passes: {totals:?}"
        ));
    }
    tally.note(format!(
        "search evaluations per pass {} (identical over {} passes)",
        totals.first().copied().unwrap_or(0),
        totals.len()
    ));
    Ok(())
}

/// `cold_sweep`: every pass answers every query against a fresh, empty
/// store.
pub(crate) fn cold_sweep(
    opts: &Options,
    dir: &Workdir,
    tally: &mut Tally,
    tracer: Option<&mut Tracer>,
) -> Result<Metrics, String> {
    let lines = opts.scope.query_lines(opts.seed);
    // Deleting the last repeat's log is the benchmark's housekeeping, not
    // set-up.
    let (setup_s, setups, ()) = repeat_setup(
        || dir.fresh("setup.log"),
        |log| {
            drop(open_service(&log, opts.seed)?);
            Ok(())
        },
    )?;
    tally.note(format!(
        "setup_s {setup_s} s (median of {setups} set-ups), {} queries per pass",
        lines.len()
    ));
    let mut book = AnswerBook::default();
    let cold_pass = |tally: &mut Tally, book: &mut AnswerBook| {
        let service = open_service(&dir.fresh("pass.log"), opts.seed)?;
        serve_pass(&service, &lines, book, false, tally)
    };
    let Some(tracer) = tracer else {
        let passes = passes_until(opts.seconds, || cold_pass(tally, &mut book))?;
        check_evaluations(
            tally,
            &passes.iter().map(|p| p.evaluations).collect::<Vec<_>>(),
        )?;
        tally.note(format!("{} distinct keys", book.len()));
        return serve_metrics((setup_s, setups), &passes, tally);
    };

    let untraced = passes_until(opts.seconds / 2.0, || cold_pass(tally, &mut book))?;
    let (counts, walls, mut totals) = traced_passes(
        opts,
        dir,
        None,
        &lines,
        &mut book,
        tally,
        tracer,
        "mapspace.tables",
    )?;
    totals.extend(untraced.iter().map(|p| p.evaluations));
    check_evaluations(tally, &totals)?;
    overhead_metrics(tally, tracer, &counts, &untraced, &walls)
}

/// `warm_replay`: populate once, reopen over the log, replay the key
/// set.
pub(crate) fn warm_replay(
    opts: &Options,
    dir: &Workdir,
    tally: &mut Tally,
    tracer: Option<&mut Tracer>,
) -> Result<Metrics, String> {
    let log = dir.fresh("store.log");
    let lines = opts.scope.query_lines(opts.seed);
    let mut book = AnswerBook::default();
    let populate = Instant::now();
    {
        let service = open_service(&log, opts.seed)?;
        serve_pass(&service, &lines, &mut book, false, tally)?;
    }
    tally.note(format!(
        "populate_s {} s (one cold pass of {} queries, {} distinct keys)",
        stats::secs(populate.elapsed()),
        lines.len(),
        book.len()
    ));
    let (setup_s, setups, service) = repeat_setup(|| (), |()| open_service(&log, opts.seed))?;
    if service.scrub_report().frames_quarantined > 0 || service.store_len() != book.len() {
        return Err(format!(
            "reopened store holds {} records, {} keys were answered",
            service.store_len(),
            book.len()
        ));
    }
    tally.note(format!(
        "setup_s {setup_s} s (median of {setups} reopens with scrub)"
    ));
    let warm_pass =
        |tally: &mut Tally, book: &mut AnswerBook| serve_pass(&service, &lines, book, true, tally);
    let Some(tracer) = tracer else {
        let passes = passes_until(opts.seconds, || warm_pass(tally, &mut book))?;
        return serve_metrics((setup_s, setups), &passes, tally);
    };

    let untraced = passes_until(opts.seconds / 2.0, || warm_pass(tally, &mut book))?;
    let (counts, walls, _) = traced_passes(
        opts,
        dir,
        Some((&service, &log)),
        &lines,
        &mut book,
        tally,
        tracer,
        "server.wire_parse",
    )?;
    overhead_metrics(tally, tracer, &counts, &untraced, &walls)
}

/// Traced passes until `span` has its percentile samples and either
/// half the run or [`MIN_PASSES`] passes are spent. Each pass answers every line through the service — `warm`'s
/// reopened service, or a fresh one over an empty log — and replays it
/// over a store of its own: `warm`'s log reopened, or an empty one.
/// Returns the counts, the pass walls and each pass's evaluations.
#[allow(clippy::too_many_arguments)]
fn traced_passes(
    opts: &Options,
    dir: &Workdir,
    warm: Option<(&MapperService, &Path)>,
    lines: &[String],
    book: &mut AnswerBook,
    tally: &mut Tally,
    tracer: &mut Tracer,
    span: &str,
) -> Result<(Counts, Vec<f64>, Vec<u64>), String> {
    let mut counts = Counts::default();
    let mut walls = Vec::new();
    let mut totals = Vec::new();
    let start = Instant::now();
    while walls.is_empty()
        || tracer.durations(span).len() < MIN_SAMPLES
        || (walls.len() < MIN_PASSES && stats::secs(start.elapsed()) < opts.seconds / 2.0)
    {
        let pass_start = Instant::now();
        let before = counts.evaluations;
        let fresh;
        let (service, replay_log) = match warm {
            Some((service, log)) => (service, log.to_path_buf()),
            None => {
                fresh = open_service(&dir.fresh("pass.log"), opts.seed)?;
                (&fresh, dir.fresh("replay.log"))
            }
        };
        let open = tracer.open("store.open", counts.passes, None);
        let (store, _) = MappingStore::open_scrubbed(&replay_log).map_err(|e| e.to_string())?;
        tracer.close(open);
        let mut replay = Replayer {
            store,
            seed: opts.seed,
        };
        for (i, line) in lines.iter().enumerate() {
            let query_id = counts.passes * lines.len() as u64 + i as u64;
            traced_query(
                service,
                &mut replay,
                line,
                query_id,
                book,
                tally,
                tracer,
                &mut counts,
            )?;
        }
        walls.push(stats::secs(pass_start.elapsed()));
        totals.push(counts.evaluations - before);
        counts.passes += 1;
    }
    Ok((counts, walls, totals))
}

/// The per-layer metrics, with the tracing overhead: mean traced pass
/// wall minus mean untraced pass wall.
fn overhead_metrics(
    tally: &mut Tally,
    tracer: &Tracer,
    counts: &Counts,
    untraced: &[Pass],
    traced_walls: &[f64],
) -> Result<Metrics, String> {
    let untraced_wall =
        untraced.iter().map(|p| p.times.pass.wall_s).sum::<f64>() / untraced.len() as f64;
    let traced_wall = traced_walls.iter().sum::<f64>() / traced_walls.len() as f64;
    tally.note(format!(
        "mean traced pass {traced_wall} s ({} passes), untraced {untraced_wall} s ({} passes)",
        traced_walls.len(),
        untraced.len()
    ));
    layers::per_layer(tracer, counts, traced_wall - untraced_wall)
}

/// One query, answered by the service (end-to-end time) and then
/// replayed layer by layer. The replay must reproduce the service's
/// answer byte for byte; the end-to-end time the layers do not account
/// for is `server.other_us`.
#[allow(clippy::too_many_arguments)]
fn traced_query(
    service: &MapperService,
    replay: &mut Replayer,
    line: &str,
    query_id: u64,
    book: &mut AnswerBook,
    tally: &mut Tally,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let sent = Instant::now();
    let answer = wire::handle_line(service, line, None).unwrap_or_default();
    let e2e_ns = sent.elapsed().as_nanos() as f64;
    let answer = tally.attempt(book.check(&answer, false))?;
    let (replayed, attributed_ns) = replay.query(line, query_id, tracer, counts)?;
    let replayed = parse_answer(&replayed)?;
    if replayed.canonical != answer.canonical || replayed.source != answer.source {
        return Err(format!(
            "layer replay of key {:016x} does not reproduce the service answer",
            answer.key
        ));
    }
    counts.other_ns.push(e2e_ns - attributed_ns as f64);
    Ok(())
}

/// The layer-by-layer replay of the service's query path, over a store
/// of its own.
struct Replayer {
    store: MappingStore,
    seed: u64,
}

impl Replayer {
    /// Replays one query line; returns the response line and the
    /// nanoseconds spent inside layer spans.
    fn query(
        &mut self,
        line: &str,
        id: u64,
        tracer: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<(String, u64), String> {
        let root = tracer.open("replay.query", id, None);
        let (query, parse_ns) = tracer.time("server.wire_parse", id, Some(root), || {
            let value: serde::Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
            <MapQuery as serde::Deserialize>::from_value(&value).map_err(|e| e.to_string())
        });
        let query = query?;
        // The service fingerprints every query as unconstrained.
        let (key, fingerprint_ns) = tracer.time("store.fingerprint", id, Some(root), || {
            ruby_store::config_key(
                &query.arch,
                &query.workload,
                &Constraints::unconstrained(query.arch.num_levels()),
                query.mapspace,
                query.objective.name(),
            )
        });
        let (hit, get_ns) =
            tracer.time("store.get", id, Some(root), || self.store.get(key).cloned());
        let mut attributed = parse_ns + fingerprint_ns + get_ns;
        let mut cold = None;
        let (source, record) = match hit {
            Some(record) => (ResponseSource::Store, record),
            None => {
                let ((space, tabulated), tables_ns) =
                    tracer.time("mapspace.tables", id, Some(root), || {
                        let space = Mapspace::new(
                            query.arch.clone(),
                            query.workload.clone(),
                            query.mapspace,
                        );
                        let regions = space
                            .enum_tables()
                            .filter(|t| t.exact_total_leaves().is_some())
                            .map(|t| t.regions().len());
                        (space, regions)
                    });
                match tabulated {
                    Some(regions) => counts.regions += regions as u64,
                    None => counts.fallbacks += 1,
                }
                let config = search_config(&query, self.seed)?;
                let (outcome, search_ns) = tracer.time("search.run", id, Some(root), || {
                    Engine::new(&space).with_config(config).run()
                });
                counts.add_search(&outcome, search_ns, tabulated.is_some());
                let best = outcome.best.clone().ok_or_else(|| {
                    format!("replayed search of {} found nothing", query.workload.name())
                })?;
                let record = StoreRecord {
                    key,
                    objective: query.objective.name().to_owned(),
                    cost: best.cost,
                    evaluations: outcome.evaluations,
                    mapping: best.mapping,
                    report: best.report,
                };
                let (stored, put_ns) = tracer.time("store.put", id, Some(root), || {
                    self.store.put(record)?;
                    Ok::<_, ruby_store::StoreError>(self.store.get(key).cloned())
                });
                let stored = stored
                    .map_err(|e| e.to_string())?
                    .ok_or("replayed put did not land")?;
                attributed += tables_ns + search_ns + put_ns;
                cold = Some((space, outcome, tabulated.is_some()));
                (ResponseSource::Search, stored)
            }
        };
        let (response, respond_ns) = tracer.time("server.respond", id, Some(root), || {
            let response = MapResponse {
                source,
                key,
                objective: record.objective.clone(),
                cost: record.cost,
                cycles: record.report.cycles(),
                energy: record.report.energy(),
                evaluations: record.evaluations,
                micros: 0,
                degraded: false,
                retry_after_ms: None,
                stop_reason: None,
                mapping: Some(record.mapping.clone()),
            };
            serde_json::to_string(&serde::Serialize::to_value(&response))
        });
        let response = response.map_err(|e| e.to_string())?;
        attributed += respond_ns;
        tracer.close(root);
        // The model replay re-runs work the search already did; it sits
        // outside the query's span so it is not attributed to the query.
        if let Some((space, outcome, walk)) = cold {
            if walk {
                layers::replay_screen(&space, self.seed, &outcome, tracer, id, counts)?;
            } else {
                layers::replay_sampler(&space, self.seed, outcome.evaluations, tracer, id, counts);
            }
        }
        Ok((response, attributed))
    }
}

/// The cold search configuration `MapperService` builds for `query`
/// (no deadline, no checkpoints).
fn search_config(query: &MapQuery, seed: u64) -> Result<SearchConfig, String> {
    let (max_evaluations, termination) = query.budget.params();
    SearchConfig::builder()
        .seed(seed)
        .max_evaluations(max_evaluations)
        .termination(termination)
        .threads(1)
        .objective(query.objective)
        .strategy(SearchStrategy::Random)
        .prune(true)
        .build()
        .map_err(|e| e.to_string())
}
