//! Golden digests of serialized search outcomes.
//!
//! Every strategy path is run at one thread under a fixed seed, and the
//! JSON bytes of its [`SearchOutcome`] (best mapping, cost report,
//! every counter, the trace and the stop metadata) are folded into a
//! 64-bit FNV-1a digest that must match the recorded one. The cases
//! cover each strategy over the PFM, Ruby-S and Ruby spaces of the toy
//! architecture and of one small Eyeriss layer, plus the rejection
//! sampler fallback on a rank-1 Ruby space too wide to tabulate (its
//! tile chains overflow the table limit), each with the no-improvement
//! termination rule on and off.
//!
//! A refactor of the search drivers must leave every digest unchanged.
//! When a change is *meant* to move an outcome, the failure message
//! lists every case's current digest in the table's own syntax.

use ruby_arch::presets;
use ruby_mapspace::{Mapspace, MapspaceKind};
use ruby_search::{Engine, SearchConfig, SearchOutcome, SearchStrategy};
use ruby_workload::ProblemShape;

const SEED: u64 = 11;
/// Consecutive non-improving valid candidates (or, for the sweep,
/// candidates past the first achiever) before a terminating run stops.
const TERMINATION: u64 = 150;

/// A mapspace the cases run over.
#[derive(Clone, Copy)]
enum Space {
    /// `toy_linear(16, 1024)` on a rank-1 problem of 113.
    Toy,
    /// Eyeriss 14×12 on a small pointwise layer.
    Eyeriss,
    /// The toy architecture on a rank-1 problem of 10^6: the Ruby
    /// chain table overflows, so every strategy that walks or sweeps
    /// tables falls back to the rejection sampler.
    Untabulable,
}

impl Space {
    fn name(self) -> &'static str {
        match self {
            Space::Toy => "toy",
            Space::Eyeriss => "eyeriss",
            Space::Untabulable => "untabulable",
        }
    }

    fn build(self, kind: MapspaceKind) -> Mapspace {
        match self {
            Space::Toy => Mapspace::new(
                presets::toy_linear(16, 1024),
                ProblemShape::rank1("d", 113),
                kind,
            ),
            Space::Eyeriss => Mapspace::new(
                presets::eyeriss_like(14, 12),
                ProblemShape::conv("pw", 1, 24, 16, 6, 6, 1, 1, (1, 1)),
                kind,
            ),
            Space::Untabulable => Mapspace::new(
                presets::toy_linear(16, 1024),
                ProblemShape::rank1("d", 1_000_000),
                kind,
            ),
        }
    }

    /// Evaluation budget per run.
    fn budget(self) -> i64 {
        match self {
            Space::Eyeriss => 1_000,
            Space::Toy | Space::Untabulable => 2_000,
        }
    }
}

const KINDS: [MapspaceKind; 3] = [MapspaceKind::Pfm, MapspaceKind::RubyS, MapspaceKind::Ruby];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

fn digest(outcome: &SearchOutcome) -> u64 {
    let json = serde_json::to_string(&serde::Serialize::to_value(outcome)).expect("serializes");
    fnv1a(json.as_bytes())
}

fn run(strategy: SearchStrategy, space: &Mapspace, budget: i64, terminate: bool) -> SearchOutcome {
    let builder = SearchConfig::builder()
        .seed(SEED)
        .threads(1)
        .strategy(strategy)
        .max_evaluations(budget);
    let builder = if terminate {
        builder.termination(TERMINATION as i64)
    } else {
        builder.no_termination()
    };
    Engine::new(space)
        .with_config(builder.build().expect("valid config"))
        .run()
}

/// Runs each strategy over every kind of each space (termination on
/// and off) and compares each digest with [`GOLDEN`].
fn check(strategies: &[SearchStrategy], spaces: &[Space], kinds: &[MapspaceKind]) {
    let mut actual = Vec::new();
    for &strategy in strategies {
        for &space in spaces {
            for &kind in kinds {
                let mapspace = space.build(kind);
                for terminate in [false, true] {
                    let outcome = run(strategy, &mapspace, space.budget(), terminate);
                    let name = format!(
                        "{}/{}/{}/{}",
                        strategy.name(),
                        space.name(),
                        kind.name(),
                        if terminate { "term" } else { "budget" }
                    );
                    actual.push((name, digest(&outcome)));
                }
            }
        }
    }
    let mismatched: Vec<&str> = actual
        .iter()
        .filter(|(name, got)| {
            GOLDEN
                .iter()
                .find(|(golden, _)| golden == name)
                .is_none_or(|(_, want)| want != got)
        })
        .map(|(name, _)| name.as_str())
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, got)| format!("    (\"{name}\", 0x{got:016X}),\n"))
        .collect();
    assert!(
        mismatched.is_empty(),
        "outcome digests changed for {mismatched:?}; current digests:\n{table}"
    );
}

#[test]
fn walk_outcomes_match_the_golden_digests() {
    check(
        &[SearchStrategy::Random],
        &[Space::Toy, Space::Eyeriss],
        &KINDS,
    );
}

#[test]
fn sampler_fallback_outcomes_match_the_golden_digests() {
    // Only Ruby's chain table overflows on this shape: PFM and Ruby-S
    // keep few enough chains to tabulate any rank-1 bound.
    check(
        &[
            SearchStrategy::Random,
            SearchStrategy::Exhaustive,
            SearchStrategy::Hybrid,
        ],
        &[Space::Untabulable],
        &[MapspaceKind::Ruby],
    );
}

#[test]
fn sampled_outcomes_match_the_golden_digests() {
    check(
        &[SearchStrategy::Sampled],
        &[Space::Toy, Space::Eyeriss],
        &KINDS,
    );
}

#[test]
fn exhaustive_outcomes_match_the_golden_digests() {
    check(
        &[SearchStrategy::Exhaustive],
        &[Space::Toy, Space::Eyeriss],
        &KINDS,
    );
}

#[test]
fn hybrid_outcomes_match_the_golden_digests() {
    check(
        &[SearchStrategy::Hybrid],
        &[Space::Toy, Space::Eyeriss],
        &KINDS,
    );
}

/// `(case, digest)`; the case is `strategy/space/kind/stopping rule`.
const GOLDEN: &[(&str, u64)] = &[
    ("exhaustive/toy/PFM/budget", 0x2672A1C688B776A0),
    ("exhaustive/toy/PFM/term", 0x2672A1C688B776A0),
    ("exhaustive/toy/Ruby-S/budget", 0x7A0AF8C8055021C8),
    ("exhaustive/toy/Ruby-S/term", 0x7A0AF8C8055021C8),
    ("exhaustive/toy/Ruby/budget", 0xAB4FE040226E0EF5),
    ("exhaustive/toy/Ruby/term", 0xAB4FE040226E0EF5),
    ("exhaustive/eyeriss/PFM/budget", 0x465D477396976ED3),
    ("exhaustive/eyeriss/PFM/term", 0xAC72D7BD42FE16C8),
    ("exhaustive/eyeriss/Ruby-S/budget", 0x03B3BC3E8C12A80B),
    ("exhaustive/eyeriss/Ruby-S/term", 0x2B98FA8A40AE87BA),
    ("exhaustive/eyeriss/Ruby/budget", 0xA8BEC56AD251F6B0),
    ("exhaustive/eyeriss/Ruby/term", 0xF62AE5C6355132A5),
    ("sampled/toy/PFM/budget", 0xBF70D9DE8165412E),
    ("sampled/toy/PFM/term", 0xAB40E1B4D400CC1A),
    ("sampled/toy/Ruby-S/budget", 0x0C935A3120128CC9),
    ("sampled/toy/Ruby-S/term", 0x4B5593C56F7C5253),
    ("sampled/toy/Ruby/budget", 0xDE54282A3D25C3D6),
    ("sampled/toy/Ruby/term", 0xF5E4110DECF00CD2),
    ("sampled/eyeriss/PFM/budget", 0x9FC50968F6D42CBA),
    ("sampled/eyeriss/PFM/term", 0x4696D79DE49ABA7B),
    ("sampled/eyeriss/Ruby-S/budget", 0x513DD39E2823B988),
    ("sampled/eyeriss/Ruby-S/term", 0x60007A2C2117DF40),
    ("sampled/eyeriss/Ruby/budget", 0x83CA713523545EAD),
    ("sampled/eyeriss/Ruby/term", 0x83CA713523545EAD),
    ("hybrid/toy/PFM/budget", 0x00E55A3B80ABC884),
    ("hybrid/toy/PFM/term", 0x00E55A3B80ABC884),
    ("hybrid/toy/Ruby-S/budget", 0x5BE1C25838B788D0),
    ("hybrid/toy/Ruby-S/term", 0x5BE1C25838B788D0),
    ("hybrid/toy/Ruby/budget", 0xE05F69FFA09B466F),
    ("hybrid/toy/Ruby/term", 0x590B7826659B68DC),
    ("hybrid/eyeriss/PFM/budget", 0x72AD56D1E0A9F776),
    ("hybrid/eyeriss/PFM/term", 0xE5CD45E3E6B6AF49),
    ("hybrid/eyeriss/Ruby-S/budget", 0x15A6F8BE30E80E48),
    ("hybrid/eyeriss/Ruby-S/term", 0x1333BCF6A319606F),
    ("hybrid/eyeriss/Ruby/budget", 0xC4007282E51258C2),
    ("hybrid/eyeriss/Ruby/term", 0xC4007282E51258C2),
    ("random/toy/PFM/budget", 0x2672A1C688B776A0),
    ("random/toy/PFM/term", 0x2672A1C688B776A0),
    ("random/toy/Ruby-S/budget", 0x0528A5979D338A30),
    ("random/toy/Ruby-S/term", 0x0528A5979D338A30),
    ("random/toy/Ruby/budget", 0xF962B94D54F2272B),
    ("random/toy/Ruby/term", 0x061734F8C46DCCC4),
    ("random/eyeriss/PFM/budget", 0xFD72EE8838B859A8),
    ("random/eyeriss/PFM/term", 0x64401A6C1F3C44C6),
    ("random/eyeriss/Ruby-S/budget", 0xA2447B1658A03A88),
    ("random/eyeriss/Ruby-S/term", 0x5AA6F3BC7D24EE36),
    ("random/eyeriss/Ruby/budget", 0x4B40237165B96ADA),
    ("random/eyeriss/Ruby/term", 0xFE2AFA40801596A3),
    ("random/untabulable/Ruby/budget", 0x1BD16A27DF38D264),
    ("random/untabulable/Ruby/term", 0x3239CBDE6067B59C),
    ("exhaustive/untabulable/Ruby/budget", 0x1BD16A27DF38D264),
    ("exhaustive/untabulable/Ruby/term", 0x3239CBDE6067B59C),
    ("hybrid/untabulable/Ruby/budget", 0xE81F43B13F27A01B),
    ("hybrid/untabulable/Ruby/term", 0x5D0626E0FF96813F),
];
