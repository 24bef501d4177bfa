//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload from the repository root and prints a
//! report, then, as the last line of standard output, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Scratch files go
//! to `bench-out/perfbench/` and are removed when the run ends, apart
//! from the span file a traced run writes there.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::inputs::Scope;
use perfbench::{Options, Workload};

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scope: Scope::full(),
        out_dir: PathBuf::from("bench-out").join("perfbench"),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: perfbench --workload <cold_sweep|warm_replay|figure_sweep> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = perfbench::run(&opts);
    for line in &outcome.report {
        println!("{line}");
    }
    for metric in outcome.metrics.iter() {
        println!(
            "{} {} {} (n={})",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    if let Some(error) = &outcome.error {
        println!("check failed: {error}");
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
