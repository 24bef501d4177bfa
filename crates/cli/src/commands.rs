//! Subcommand implementations for the `ruby` binary.

use std::fmt::Write as _;

use ruby_core::prelude::*;
use ruby_simulator::{simulate as run_sim, SimLimits};
use serde::Serialize as _;

use crate::parse::{parse_arch, parse_kind, parse_suite, parse_workload, OutputOpts};
use crate::{CliError, Flags};

fn budget_config(flags: &Flags) -> Result<SearchConfig, CliError> {
    let (max_evals, termination, threads) = match flags.get("budget").unwrap_or("medium") {
        "quick" => (3_000, 400, 2),
        "medium" => (15_000, 1_500, 8),
        "full" => (60_000, 3_000, 8),
        other => return Err(CliError::Usage(format!("unknown budget '{other}'"))),
    };
    let threads = match flags.get("threads") {
        Some(t) => t
            .parse()
            .ok()
            .filter(|&t: &usize| t > 0)
            .ok_or_else(|| CliError::Usage("--threads must be a positive number".into()))?,
        None => threads,
    };
    let objective: Objective = flags
        .get("objective")
        .unwrap_or("edp")
        .parse()
        .map_err(|e: ConfigError| CliError::Usage(e.to_string()))?;
    let strategy: SearchStrategy = match flags.get("strategy") {
        Some(s) => s
            .parse()
            .map_err(|e: ConfigError| CliError::Usage(e.to_string()))?,
        None => SearchStrategy::Random,
    };
    let prune = match flags.get("prune").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => {
            return Err(CliError::Usage(format!(
                "--prune takes 'on' or 'off', not '{other}'"
            )))
        }
    };
    let seed = flags
        .get("seed")
        .map(str::parse)
        .transpose()
        .map_err(|_| CliError::Usage("--seed must be a number".into()))?
        .unwrap_or(1);
    let max_evals = match flags.get("max-evals") {
        Some(n) => n
            .parse()
            .ok()
            .filter(|&n: &i64| n > 0)
            .ok_or_else(|| CliError::Usage("--max-evals must be a positive number".into()))?,
        None => max_evals,
    };
    let mut builder = SearchConfig::builder()
        .seed(seed)
        .max_evaluations(max_evals)
        .termination(termination)
        .threads(threads)
        .objective(objective)
        .strategy(strategy)
        .prune(prune);
    if let Some(seconds) = flags.get("max-seconds") {
        let seconds: f64 = seconds
            .parse()
            .map_err(|_| CliError::Usage("--max-seconds must be a number of seconds".into()))?;
        builder = builder.max_seconds(seconds);
    }
    builder.build().map_err(|e| CliError::Usage(e.to_string()))
}

fn explorer(flags: &Flags, arch: Architecture) -> Result<Explorer, CliError> {
    let mut e = Explorer::new(arch);
    if flags.has("eyeriss-constraints") {
        if e.arch().num_levels() != 3 {
            return Err(CliError::Usage(
                "--eyeriss-constraints expects a 3-level hierarchy".into(),
            ));
        }
        e = e.with_constraints(Constraints::eyeriss_row_stationary(3, 1));
    }
    Ok(e.with_search(budget_config(flags)?))
}

fn report_block(report: &CostReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "  macs:        {}", report.macs());
    let _ = writeln!(out, "  cycles:      {}", report.cycles());
    let _ = writeln!(out, "  energy:      {:.4e}", report.energy());
    let _ = writeln!(out, "  EDP:         {:.4e}", report.edp());
    let _ = writeln!(out, "  utilization: {:.1}%", report.utilization() * 100.0);
    for level in report.level_stats() {
        let _ = writeln!(
            out,
            "  {:<8} accesses {:>14.0}  energy {:>12.4e}",
            level.name(),
            level.total_accesses(),
            level.energy()
        );
    }
    out
}

/// `ruby search`: find the best mapping in one mapspace.
///
/// Output flags: `--json` prints the full [`SearchOutcome`] as JSON
/// (schema-versioned, same document the bench tools emit), `--out`
/// writes the best mapping for `ruby evaluate`/`analyze`/`simulate`,
/// `--progress` streams a live progress line to stderr, and
/// `--metrics-out <path>` appends snapshot, summary and metrics-dump
/// JSONL records.
pub fn search(args: &[String]) -> Result<String, CliError> {
    let mut bools = vec!["eyeriss-constraints", "resume"];
    bools.extend(OutputOpts::BOOLS);
    let flags = Flags::parse(args, &bools)?;
    let arch = parse_arch(flags.require("arch")?)?;
    let shape = parse_workload(flags.require("workload")?)?;
    let kind = parse_kind(flags.get("space").unwrap_or("ruby-s"))?;
    let output = OutputOpts::from_flags(&flags);
    let explorer = explorer(&flags, arch)?;
    let space = explorer.mapspace(&shape, kind);
    let token = StopToken::new();
    crate::interrupts::register(&token);
    let mut engine = Engine::new(&space)
        .with_config(explorer.search_config().clone())
        .with_stop_token(token);
    let every = match flags.get("checkpoint-every") {
        Some(n) => n.parse().ok().filter(|&n: &u64| n > 0).ok_or_else(|| {
            CliError::Usage("--checkpoint-every must be a positive number".into())
        })?,
        None => 10_000,
    };
    match flags.get("checkpoint") {
        Some(path) => {
            engine = engine.with_checkpoint(path, every);
            if flags.has("resume") {
                engine = engine.resume();
            }
        }
        None if flags.has("resume") => {
            return Err(CliError::Usage(
                "--resume needs --checkpoint <path> to resume from".into(),
            ));
        }
        None => {}
    }
    if let Some(sinks) = output.sink()? {
        engine = engine.with_progress(Box::new(sinks));
    }
    let outcome = engine.try_run()?;
    if let (Some(path), Some(best)) = (&output.out, outcome.best.as_ref()) {
        let json = serde_json::to_string_pretty(&best.mapping)
            .map_err(|e| CliError::Spec(format!("serializing mapping: {e}")))?;
        write_atomic(path, json.as_bytes())?;
    }
    if output.json {
        // The JSON document reports the outcome whether or not a valid
        // mapping was found; consumers check `best` themselves.
        return serde_json::to_string_pretty(&outcome)
            .map_err(|e| CliError::Spec(format!("serializing outcome: {e}")));
    }
    let best = outcome.best.ok_or_else(|| {
        CliError::Empty(format!(
            "no valid {kind} mapping found in {} evaluations",
            outcome.evaluations
        ))
    })?;
    let mut out = format!(
        "best {kind} mapping for {} ({} evaluations, {} valid):\n",
        shape.name(),
        outcome.evaluations,
        outcome.valid
    );
    let _ = writeln!(
        out,
        "  considered:  {} invalid, {} duplicates, {} pruned ({} subtrees){}",
        outcome.invalid,
        outcome.duplicates,
        outcome.pruned_mappings,
        outcome.pruned_subtrees,
        if outcome.exhausted {
            " — mapspace exhausted"
        } else {
            ""
        }
    );
    if outcome.stopped_early {
        let _ = writeln!(
            out,
            "  stopped early: {}",
            outcome.stop_reason.as_deref().unwrap_or("unknown")
        );
    }
    if outcome.worker_restarts > 0 {
        let _ = writeln!(
            out,
            "  supervision:  {} worker restart(s), {} candidate(s) quarantined",
            outcome.worker_restarts, outcome.quarantined
        );
    }
    out.push_str(&report_block(&best.report));
    out.push_str("\nloop nest:\n");
    let names: Vec<&str> = explorer.arch().levels().iter().map(|l| l.name()).collect();
    out.push_str(&render_loopnest(&best.mapping, &names));
    Ok(out)
}

/// `ruby evaluate`: cost a serialized mapping with the analytical model.
pub fn evaluate(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &[])?;
    let arch = parse_arch(flags.require("arch")?)?;
    let shape = parse_workload(flags.require("workload")?)?;
    let text = std::fs::read_to_string(flags.require("mapping")?)?;
    let mapping: Mapping =
        serde_json::from_str(&text).map_err(|e| CliError::Spec(format!("mapping: {e}")))?;
    match ruby_core::model::evaluate(&arch, &shape, &mapping, &ModelOptions::default()) {
        Ok(report) => Ok(format!("{}:\n{}", shape.name(), report_block(&report))),
        Err(e) => Err(CliError::Empty(format!("invalid mapping: {e}"))),
    }
}

/// `ruby analyze`: run the semantic mapping verifier over a serialized
/// mapping and report every problem at once (stable `RBYxxx` codes),
/// instead of the cost model's first-error-only rejection.
///
/// Output flags match `ruby search`: `--json` prints the analysis as
/// JSON, `--out <path>` writes that JSON to a file, and `--metrics-out
/// <path>` appends the analysis as a JSONL summary record.
pub fn analyze(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &OutputOpts::BOOLS)?;
    let arch = parse_arch(flags.require("arch")?)?;
    let shape = parse_workload(flags.require("workload")?)?;
    let output = OutputOpts::from_flags(&flags);
    let text = std::fs::read_to_string(flags.require("mapping")?)?;
    let mapping: Mapping =
        serde_json::from_str(&text).map_err(|e| CliError::Spec(format!("mapping: {e}")))?;
    let analysis = ruby_analysis::MappingAnalyzer::new(&arch, &shape).analyze(&mapping);
    if let Some(mut sinks) = output.sink()? {
        sinks.finish(&analysis.to_value());
    }
    if output.json || output.out.is_some() {
        let json = serde_json::to_string_pretty(&analysis)
            .map_err(|e| CliError::Spec(format!("serializing analysis: {e}")))?;
        if let Some(path) = &output.out {
            write_atomic(path, json.as_bytes())?;
        }
        if output.json {
            return Ok(json);
        }
    }
    Ok(analysis.render())
}

/// `ruby simulate`: execute a serialized mapping in the functional
/// simulator and report exact counts.
pub fn simulate(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &[])?;
    let arch = parse_arch(flags.require("arch")?)?;
    let shape = parse_workload(flags.require("workload")?)?;
    let text = std::fs::read_to_string(flags.require("mapping")?)?;
    let mapping: Mapping =
        serde_json::from_str(&text).map_err(|e| CliError::Spec(format!("mapping: {e}")))?;
    let sim = run_sim(&arch, &shape, &mapping, &SimLimits::default())
        .map_err(|e| CliError::Empty(e.to_string()))?;
    let mut out = format!(
        "simulated {}: {} MACs in {} cycles\n",
        shape.name(),
        sim.macs,
        sim.cycles
    );
    for (i, level) in arch.levels().iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:<8} fills {:?}  drains {:?}  peak {:?}",
            level.name(),
            sim.fills[i],
            sim.drains[i],
            sim.peak_footprint[i]
        );
    }
    Ok(out)
}

/// `ruby compare`: all four mapspaces side by side.
pub fn compare(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["eyeriss-constraints"])?;
    let arch = parse_arch(flags.require("arch")?)?;
    let shape = parse_workload(flags.require("workload")?)?;
    let explorer = explorer(&flags, arch)?;
    let comparison = explorer.compare(&shape);
    let mut out = format!(
        "{:<8} {:>13} {:>10} {:>8} {:>8}\n",
        "space", "EDP", "cycles", "util", "vs PFM"
    );
    for kind in MapspaceKind::ALL {
        match comparison.best(kind) {
            Some(best) => {
                let vs = comparison
                    .edp_vs_pfm(kind)
                    .map(|x| format!("{x:.3}"))
                    .unwrap_or_else(|| "-".into());
                let _ = writeln!(
                    out,
                    "{:<8} {:>13.4e} {:>10} {:>7.1}% {:>8}",
                    kind.name(),
                    best.report.edp(),
                    best.report.cycles(),
                    best.report.utilization() * 100.0,
                    vs
                );
            }
            None => {
                let _ = writeln!(out, "{:<8} no valid mapping", kind.name());
            }
        }
    }
    Ok(out)
}

/// `ruby show`: print an architecture (optionally writing its JSON).
pub fn show(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &[])?;
    let arch = parse_arch(flags.require("arch")?)?;
    if let Some(path) = flags.get("out") {
        let json = serde_json::to_string_pretty(&arch)
            .map_err(|e| CliError::Spec(format!("serializing architecture: {e}")))?;
        write_atomic(path, json.as_bytes())?;
    }
    Ok(format!("{arch}area: {:.1} mm²\n", arch.area_mm2()))
}

/// `ruby suite`: list a workload suite.
pub fn suite(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &[])?;
    let suite = parse_suite(flags.require("name")?)?;
    let mut out = format!(
        "{} — {} unique layers, {:.2} GMACs total\n",
        suite.name(),
        suite.len(),
        suite.total_macs() as f64 / 1e9
    );
    for (layer, n) in suite.layers() {
        let _ = writeln!(out, "  {:<2}x {layer}", n);
    }
    Ok(out)
}

/// `ruby sweep`: PFM vs Ruby-S across Eyeriss-like array configurations
/// for a whole suite (a CLI-sized Fig. 13/14).
pub fn sweep(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &[])?;
    let suite = parse_suite(flags.require("suite")?)?;
    let configs = flags.get("configs").unwrap_or("2x7,14x12,16x16");
    let quick = flags.get("budget").unwrap_or("medium") == "quick";
    let layers: Vec<ProblemShape> = if quick {
        suite.iter().step_by(4).take(4).cloned().collect()
    } else {
        suite.iter().cloned().collect()
    };
    let mut out = format!(
        "{:<10} {:>9} {:>13} {:>13} {:>9}\n",
        "config", "area mm²", "PFM EDP", "Ruby-S EDP", "Δ"
    );
    for config in configs.split(',') {
        let arch = parse_arch(&format!("eyeriss:{config}"))?;
        let area = arch.area_mm2();
        let explorer = Explorer::new(arch)
            .with_constraints(Constraints::eyeriss_row_stationary(3, 1))
            .with_search(budget_config(&flags)?);
        let mut pfm_energy = 0.0;
        let mut pfm_cycles = 0.0;
        let mut ruby_energy = 0.0;
        let mut ruby_cycles = 0.0;
        let mut complete = true;
        for layer in &layers {
            match (
                explorer.explore(layer, MapspaceKind::Pfm),
                explorer.explore(layer, MapspaceKind::RubyS),
            ) {
                (Some(p), Some(r)) => {
                    pfm_energy += p.report.energy();
                    pfm_cycles += p.report.cycles() as f64;
                    ruby_energy += r.report.energy();
                    ruby_cycles += r.report.cycles() as f64;
                }
                _ => {
                    complete = false;
                    break;
                }
            }
        }
        if !complete {
            let _ = writeln!(out, "{config:<10} some layer has no valid mapping");
            continue;
        }
        let pfm_edp = pfm_energy * pfm_cycles;
        let ruby_edp = ruby_energy * ruby_cycles;
        let _ = writeln!(
            out,
            "{:<10} {:>9.1} {:>13.4e} {:>13.4e} {:>+8.1}%",
            config,
            area,
            pfm_edp,
            ruby_edp,
            (ruby_edp / pfm_edp - 1.0) * 100.0
        );
    }
    Ok(out)
}

/// `ruby count`: mapspace-size comparison (the Table I machinery).
pub fn count(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &[])?;
    let arch = parse_arch(flags.require("arch")?)?;
    let shape = parse_workload(flags.require("workload")?)?;
    let mut out = format!("tiling counts for {} on {}:\n", shape.name(), arch.name());
    for kind in MapspaceKind::ALL {
        let n = Mapspace::new(arch.clone(), shape.clone(), kind).count_tilings();
        let _ = writeln!(out, "  {:<8} {n}", kind.name());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn search_writes_mapping_and_evaluate_reads_it() {
        let dir = std::env::temp_dir().join("ruby_cli_cmd_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mapping.json");
        let out = search(&argv(&format!(
            "--arch toy:16,1024 --workload rank1:113 --budget quick --out {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("cycles:      8"), "{out}");
        let eval = evaluate(&argv(&format!(
            "--arch toy:16,1024 --workload rank1:113 --mapping {}",
            path.display()
        )))
        .unwrap();
        assert!(eval.contains("cycles:      8"), "{eval}");
        let sim = simulate(&argv(&format!(
            "--arch toy:16,1024 --workload rank1:113 --mapping {}",
            path.display()
        )))
        .unwrap();
        assert!(sim.contains("113 MACs in 8 cycles"), "{sim}");
    }

    #[test]
    fn analyze_accepts_a_searched_mapping_and_emits_json() {
        let dir = std::env::temp_dir().join("ruby_cli_analyze_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mapping.json");
        search(&argv(&format!(
            "--arch toy:16,1024 --workload rank1:113 --budget quick --out {}",
            path.display()
        )))
        .unwrap();
        let spec = format!(
            "--arch toy:16,1024 --workload rank1:113 --mapping {}",
            path.display()
        );
        let human = analyze(&argv(&spec)).unwrap();
        assert!(human.contains("mapping is valid"), "{human}");
        let json = analyze(&argv(&format!("{spec} --json"))).unwrap();
        assert!(json.contains("\"valid\": true"), "{json}");
        // A mapping for the wrong workload must produce structured
        // diagnostics, not a bare rejection.
        let wrong = analyze(&argv(&format!(
            "--arch toy:16,1024 --workload rank1:64 --mapping {}",
            path.display()
        )))
        .unwrap();
        assert!(wrong.contains("RBY"), "{wrong}");
        assert!(wrong.contains("mapping is invalid"), "{wrong}");
    }

    #[test]
    fn compare_lists_all_spaces() {
        let out = compare(&argv(
            "--arch toy:9,1024 --workload rank1:100 --budget quick",
        ))
        .unwrap();
        for name in ["PFM", "Ruby", "Ruby-S", "Ruby-T"] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn bad_budget_and_objective_rejected() {
        assert!(search(&argv(
            "--arch toy:4,1024 --workload rank1:8 --budget enormous"
        ))
        .is_err());
        assert!(search(&argv(
            "--arch toy:4,1024 --workload rank1:8 --objective happiness"
        ))
        .is_err());
        assert!(search(&argv(
            "--arch toy:4,1024 --workload rank1:8 --strategy genetic"
        ))
        .is_err());
        assert!(search(&argv("--arch toy:4,1024 --workload rank1:8 --prune maybe")).is_err());
    }

    #[test]
    fn exhaustive_strategy_reports_pruning_counters() {
        let out = search(&argv(
            "--arch toy:16,1024 --workload rank1:113 --budget quick \
             --strategy exhaustive --threads 1",
        ))
        .unwrap();
        assert!(out.contains("cycles:      8"), "{out}");
        assert!(out.contains("considered:"), "{out}");
        assert!(out.contains("pruned"), "{out}");
    }

    #[test]
    fn a_removed_strategy_is_a_usage_error_naming_the_accepted_ones() {
        match search(&argv(
            "--arch toy:16,1024 --workload rank1:113 --budget quick --strategy anneal",
        )) {
            Err(CliError::Usage(msg)) => {
                assert!(msg.contains("anneal"), "{msg}");
                for name in ["random", "sampled", "exhaustive", "hybrid"] {
                    assert!(msg.contains(name), "{msg} lacks {name}");
                }
            }
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn search_streams_metrics_jsonl_and_versioned_json() {
        use serde::Deserialize as _;
        let dir = std::env::temp_dir().join("ruby_cli_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.jsonl");
        let json = search(&argv(&format!(
            "--arch toy:16,1024 --workload rank1:113 --budget quick --json --metrics-out {}",
            path.display()
        )))
        .unwrap();
        let value = serde_json::from_str::<serde::Value>(&json).expect("stdout parses");
        assert_eq!(
            value.get("schema"),
            Some(&serde::Value::U64(SCHEMA_VERSION))
        );
        let outcome = SearchOutcome::from_value(&value).expect("stdout is a SearchOutcome");

        let stream = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<serde::Value> = stream
            .lines()
            .map(|l| serde_json::from_str(l).expect("every JSONL record parses"))
            .collect();
        assert!(lines.len() >= 2, "want snapshots + summary:\n{stream}");
        let snapshot = SearchSnapshot::from_value(&lines[0]).expect("first record is a snapshot");
        assert!(snapshot.seq >= 1);
        let summary = lines
            .iter()
            .find(|v| v.get("event") == Some(&serde::Value::Str("summary".to_owned())))
            .expect("stream has a summary event");
        let streamed = SearchOutcome::from_value(summary).expect("summary is a SearchOutcome");
        assert_eq!(streamed.evaluations, outcome.evaluations);
        assert_eq!(streamed.valid, outcome.valid);
        assert_eq!(
            streamed.best.map(|b| b.cost.to_bits()),
            outcome.best.map(|b| b.cost.to_bits())
        );
        let metrics = lines
            .iter()
            .find(|v| v.get("event") == Some(&serde::Value::Str("metrics".to_owned())))
            .expect("stream has a metrics event");
        let runs = match metrics.get("search.permuted.runs") {
            Some(serde::Value::U64(n)) => *n,
            other => panic!("search.permuted.runs missing: {other:?}"),
        };
        assert!(runs >= 1, "the random search ran the permuted walk");
    }

    #[test]
    fn analyze_writes_its_report_to_a_file() {
        let dir = std::env::temp_dir().join("ruby_cli_analyze_out_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mapping_path = dir.join("mapping.json");
        let report_path = dir.join("analysis.json");
        search(&argv(&format!(
            "--arch toy:16,1024 --workload rank1:113 --budget quick --out {}",
            mapping_path.display()
        )))
        .unwrap();
        let human = analyze(&argv(&format!(
            "--arch toy:16,1024 --workload rank1:113 --mapping {} --out {}",
            mapping_path.display(),
            report_path.display()
        )))
        .unwrap();
        assert!(human.contains("mapping is valid"), "{human}");
        let written = std::fs::read_to_string(&report_path).unwrap();
        assert!(written.contains("\"valid\": true"), "{written}");
    }

    #[test]
    fn sweep_runs_quickly_on_subset() {
        let out = sweep(&argv("--suite mobilenet --configs 14x12 --budget quick")).unwrap();
        assert!(out.contains("14x12"), "{out}");
        assert!(out.contains('%'), "{out}");
    }

    #[test]
    fn search_checkpoints_and_replays_a_finished_run() {
        let dir = std::env::temp_dir().join("ruby_cli_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let _ = std::fs::remove_file(&path);
        let spec = format!(
            "--arch toy:16,1024 --workload rank1:113 --budget quick --strategy exhaustive \
             --threads 1 --json --checkpoint {}",
            path.display()
        );
        let first = search(&argv(&spec)).unwrap();
        assert!(path.exists(), "terminal checkpoint written");
        // Resuming a finished run replays its recorded outcome instead
        // of recomputing; the JSON documents must agree.
        let replayed = search(&argv(&format!("{spec} --resume"))).unwrap();
        assert_eq!(first, replayed);
    }

    #[test]
    fn resume_without_checkpoint_is_a_usage_error() {
        assert!(matches!(
            search(&argv("--arch toy:4,1024 --workload rank1:8 --resume")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn resume_under_a_different_config_is_a_checkpoint_error() {
        let dir = std::env::temp_dir().join("ruby_cli_ckpt_mismatch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let _ = std::fs::remove_file(&path);
        search(&argv(&format!(
            "--arch toy:16,1024 --workload rank1:113 --budget quick --threads 1 \
             --seed 5 --checkpoint {}",
            path.display()
        )))
        .unwrap();
        let err = search(&argv(&format!(
            "--arch toy:16,1024 --workload rank1:113 --budget quick --threads 1 \
             --seed 6 --checkpoint {} --resume",
            path.display()
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn count_orders_match_table1() {
        let out = count(&argv("--arch toy:9,1024 --workload rank1:99")).unwrap();
        assert!(out.contains("PFM"), "{out}");
        assert!(out.contains("Ruby-T"), "{out}");
    }
}
