//! Library backing the `ruby` command-line tool: spec parsing (presets
//! and JSON files), subcommand implementations, and report rendering.
//!
//! Spec syntax accepted everywhere a resource is named:
//!
//! * architectures — `eyeriss:14x12`, `simba:15,4,4`, `toy:16,1024`, or
//!   `@path/to/arch.json` (a serialized architecture);
//! * workloads — `rank1:113`, `gemm:M,N,K`,
//!   `conv:N,M,C,P,Q,R,S[,SH,SW]`, a suite layer `resnet50/conv1`, or
//!   `@layer.json`;
//! * mapspaces — `pfm`, `ruby`, `ruby-s`, `ruby-t`.
//!
//! See [`run`] for the subcommands.

pub mod commands;
pub mod parse;
pub mod serve;

use std::fmt;

pub use parse::{parse_arch, parse_kind, parse_workload, OutputOpts};

/// CLI errors, rendered to stderr by the binary.
#[derive(Debug)]
pub enum CliError {
    /// Unknown subcommand or malformed arguments.
    Usage(String),
    /// A spec string or file could not be parsed.
    Spec(String),
    /// A file could not be read or written.
    Io(std::io::Error),
    /// The requested operation found nothing (e.g. no valid mapping).
    Empty(String),
    /// A `--resume` checkpoint could not be used (corrupt, another
    /// schema version, or taken under a different configuration).
    Checkpoint(ruby_core::prelude::CheckpointError),
    /// The mapper service could not answer (store refused, cold search
    /// failed, or the service is draining).
    Serve(ruby_server::ServeError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Spec(msg) => write!(f, "spec error: {msg}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Empty(msg) => write!(f, "{msg}"),
            CliError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            CliError::Serve(e) => write!(f, "serve error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<ruby_core::prelude::CheckpointError> for CliError {
    fn from(e: ruby_core::prelude::CheckpointError) -> Self {
        CliError::Checkpoint(e)
    }
}

impl From<ruby_server::ServeError> for CliError {
    fn from(e: ruby_server::ServeError) -> Self {
        CliError::Serve(e)
    }
}

/// Signal-to-search plumbing shared between the binary's signal
/// handler and long-running subcommands.
///
/// The handler itself may only do async-signal-safe work, so it bumps
/// [`note_signal`]'s atomic counter and nothing else; a watcher thread
/// in the binary polls the count and trips the registered
/// [`StopToken`](ruby_core::prelude::StopToken) (first signal = drain
/// and checkpoint) or hard-exits (second signal).
pub mod interrupts {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Mutex, PoisonError};

    use ruby_core::prelude::StopToken;

    static SIGNALS: AtomicU32 = AtomicU32::new(0);
    static TOKEN: Mutex<Option<StopToken>> = Mutex::new(None);

    /// Records one delivered signal. Async-signal-safe: a single
    /// atomic increment, no locks, no allocation.
    pub fn note_signal() {
        SIGNALS.fetch_add(1, Ordering::SeqCst);
    }

    /// How many interrupt signals have been delivered so far.
    pub fn signal_count() -> u32 {
        SIGNALS.load(Ordering::SeqCst)
    }

    /// Makes `token` the one the watcher trips on the next signal.
    pub fn register(token: &StopToken) {
        *TOKEN.lock().unwrap_or_else(PoisonError::into_inner) = Some(token.clone());
    }

    /// Asks the registered token (if any) to drain gracefully.
    pub fn request_stop() {
        if let Some(token) = TOKEN
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            token.request_stop();
        }
    }
}

/// The usage text printed by `ruby help`.
pub const USAGE: &str = "\
ruby — imperfect-factorization mapping exploration

USAGE:
  ruby search   --arch <spec> --workload <spec> [--space <kind>] \\
                [--budget quick|medium|full] [--objective edp|energy|delay] \\
                [--strategy random|sampled|exhaustive|hybrid] [--prune on|off] \\
                [--threads <n>] [--seed <n>] [--eyeriss-constraints] \\
                [--json] [--out mapping.json] [--progress] \\
                [--metrics-out metrics.jsonl] \\
                [--max-evals <n>] [--max-seconds <s>] \\
                [--checkpoint run.ckpt] [--checkpoint-every <n>] [--resume]
  ruby evaluate --arch <spec> --workload <spec> --mapping <file.json>
  ruby analyze  --arch <spec> --workload <spec> --mapping <file.json> \\
                [--json] [--out analysis.json]
  ruby simulate --arch <spec> --workload <spec> --mapping <file.json>
  ruby compare  --arch <spec> --workload <spec> [--budget ...] [--eyeriss-constraints]
  ruby show     --arch <spec>
  ruby suite    --name resnet50|deepbench|alexnet|vgg16|mobilenet
  ruby sweep    --suite <name> [--configs 2x7,14x12,16x16] [--budget ...]
  ruby count    --arch <spec> --workload <spec>
  ruby serve    --store <log> [--socket <path>] [--workers <n>] [--seed <n>] \\
                [--queue-depth <n>] [--max-inflight <n>] \\
                [--checkpoint-dir <dir>] [--json] [--out summary.json] \\
                [--progress] [--metrics-out metrics.jsonl]
  ruby query    --arch <spec> --workload <spec> [--space <kind>] \\
                [--objective ...] [--budget quick|medium|full] \\
                [--deadline-ms <n>] [--client <id>] \\
                (--store <log> | --socket <path> | --print) \\
                [--json] [--out response.json] [--progress] [--metrics-out ...]
  ruby help

SPECS:
  arch:      eyeriss:14x12 | simba:15,4,4 | toy:16,1024 | @file.json
  workload:  rank1:113 | gemm:M,N,K | conv:N,M,C,P,Q,R,S[,SH,SW]
             | <suite>/<layer> | @file.json
  space:     pfm | ruby | ruby-s | ruby-t        (default ruby-s)

LONG RUNS:
  --max-evals / --max-seconds bound the search; interrupted or
  exhausted runs still report a complete outcome (marked stopped-early).
  --checkpoint writes a crash-safe resume file every --checkpoint-every
  evaluations (default 10000) and on SIGINT/SIGTERM; add --resume to
  continue a previous run bit-identically. A second signal exits hard.

SERVING:
  ruby serve answers newline-delimited JSON MapQuery lines (one object
  or an array per line) over stdin/stdout, or over a Unix socket with
  --socket. Known configs are answered from the store in microseconds;
  cold misses run a search and persist the winner. SIGTERM drains,
  compacts the store, and prints a summary. Build protocol lines with
  `ruby query ... --print`.

  Under overload the service degrades instead of queueing unboundedly:
  cold work beyond --queue-depth (default 16) is shed with a
  retry_after_ms, --max-inflight (default 8, 0 = off) caps one client's
  concurrent cold queries, --deadline-ms turns a slow search into a
  best-so-far `partial` answer, and repeated cold failures trip a
  circuit breaker. Warm hits always answer. On open the store log is
  scrubbed: damaged frames move to a `.quarantine` sidecar and intact
  records past them are recovered.
";

/// Parses argv (without the program name) and runs the subcommand,
/// returning the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] describing what went wrong; the binary prints
/// it and exits nonzero.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(USAGE.to_string());
    };
    match command.as_str() {
        "search" => commands::search(rest),
        "evaluate" => commands::evaluate(rest),
        "analyze" => commands::analyze(rest),
        "simulate" => commands::simulate(rest),
        "compare" => commands::compare(rest),
        "show" => commands::show(rest),
        "suite" => commands::suite(rest),
        "sweep" => commands::sweep(rest),
        "count" => commands::count(rest),
        "serve" => serve::serve(rest),
        "query" => serve::query(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'; run `ruby help`"
        ))),
    }
}

/// A tiny flag parser: `--key value` pairs plus boolean `--flag`s.
#[derive(Debug, Default)]
pub struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses `args`, treating `bools` as valueless switches.
    ///
    /// # Errors
    ///
    /// Rejects non-flag tokens and flags missing their value.
    pub fn parse(args: &[String], bools: &[&str]) -> Result<Flags, CliError> {
        let mut flags = Flags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(CliError::Usage(format!("unexpected token '{arg}'")));
            };
            if bools.contains(&name) {
                flags.switches.push(name.to_string());
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("flag --{name} needs a value")))?;
                flags.pairs.push((name.to_string(), value.clone()));
            }
        }
        Ok(flags)
    }

    /// The value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `--name`, or a usage error.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] if absent.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{name}")))
    }

    /// Whether the boolean `--name` switch was present.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_pairs_and_switches() {
        let f = Flags::parse(&argv("--arch toy:4,1024 --verbose --n 3"), &["verbose"]).unwrap();
        assert_eq!(f.get("arch"), Some("toy:4,1024"));
        assert_eq!(f.get("n"), Some("3"));
        assert!(f.has("verbose"));
        assert!(!f.has("quiet"));
        assert!(f.require("missing").is_err());
    }

    #[test]
    fn flags_reject_stray_tokens() {
        assert!(Flags::parse(&argv("stray"), &[]).is_err());
        assert!(Flags::parse(&argv("--flag"), &[]).is_err());
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&argv("help")).unwrap().contains("USAGE"));
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(matches!(run(&argv("frobnicate")), Err(CliError::Usage(_))));
    }

    #[test]
    fn end_to_end_search_and_count() {
        let out = run(&argv(
            "search --arch toy:16,1024 --workload rank1:113 --space ruby-s --budget quick",
        ))
        .unwrap();
        assert!(out.contains("cycles"), "{out}");
        assert!(out.contains('8'), "{out}");
        let count = run(&argv("count --arch toy:9,1024 --workload rank1:99")).unwrap();
        assert!(count.contains("PFM"), "{count}");
    }

    #[test]
    fn end_to_end_show_and_suite() {
        let show = run(&argv("show --arch eyeriss:14x12")).unwrap();
        assert!(show.contains("GLB"));
        let suite = run(&argv("suite --name resnet50")).unwrap();
        assert!(suite.contains("conv1"));
    }
}
