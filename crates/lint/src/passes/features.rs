//! Feature-matrix hygiene.
//!
//! **Gate leaks** ([`LintCode::FeatureGateLeak`]): a symbol defined
//! *only* under `#[cfg(feature = "F")]` — with no ungated or
//! `#[cfg(not(feature = "F"))]` stub twin — that is referenced outside
//! an `F`-gated region compiles in the feature build and breaks every
//! other point of the feature matrix. Features are matched by name
//! across crates, mirroring how `ruby-search`'s `failpoints` feature
//! forwards to the same-named downstream features.
//!
//! **Shim coverage** ([`LintCode::ShimCoverageGap`]): a crate whose
//! `sync` module can bind the interleave shim outside plain
//! `cfg(test)` (search's `shuttle` feature) promises that its lock-free
//! protocols are model-checked; every shim-bound `Atomic*` type must
//! therefore appear in one of the crate's `*interleave_tests.rs`
//! schedules. An atomic type the explorer never schedules is an
//! unchecked protocol.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokenKind;
use crate::model::{SourceFile, Workspace};
use crate::{Finding, LintCode};

pub struct FeatureMatrixPass;

const DEF_KEYWORDS: [&str; 8] = [
    "fn", "struct", "enum", "mod", "trait", "const", "static", "type",
];

impl super::Pass for FeatureMatrixPass {
    fn name(&self) -> &'static str {
        "feature-matrix"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        gate_leaks(ws, out);
        shim_coverage(ws, out);
    }
}

fn code_indices(file: &SourceFile) -> Vec<usize> {
    file.tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind.is_code())
        .map(|(i, _)| i)
        .collect()
}

/// Identifier defined right after a def keyword at `code[w]`, if any.
fn def_at<'a>(file: &'a SourceFile, code: &[usize], w: usize) -> Option<&'a str> {
    let t = file.tokens[code[w]].text(&file.text);
    if file.tokens[code[w]].kind != TokenKind::Ident || !DEF_KEYWORDS.contains(&t) {
        return None;
    }
    let next = *code.get(w + 1)?;
    if file.tokens[next].kind != TokenKind::Ident {
        return None;
    }
    Some(file.tokens[next].text(&file.text))
}

fn gate_leaks(ws: &Workspace, out: &mut Vec<Finding>) {
    let per_file_code: Vec<Vec<usize>> = ws.files.iter().map(code_indices).collect();

    // Definitions, bucketed by how they are gated.
    let mut gated: BTreeMap<String, BTreeMap<String, (usize, usize)>> = BTreeMap::new();
    let mut ungated: BTreeSet<&str> = BTreeSet::new();
    let mut stubs: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if file.is_test_file {
            continue;
        }
        let code = &per_file_code[fi];
        for w in 0..code.len() {
            let Some(name) = def_at(file, code, w) else {
                continue;
            };
            let line = file.tokens[code[w]].line;
            let gate = file.innermost_gate(line);
            if gate.test {
                continue;
            }
            if gate.features.is_empty() {
                ungated.insert(name);
                for nf in &gate.not_features {
                    stubs.entry(nf.clone()).or_default().insert(name);
                }
            } else {
                for f in &gate.features {
                    gated
                        .entry(f.clone())
                        .or_default()
                        .entry(name.to_owned())
                        .or_insert((fi, line));
                }
            }
        }
    }

    // A symbol with an ungated or not(F)-stub twin is fine under any
    // feature setting; drop it.
    for (feature, symbols) in &mut gated {
        let stub_set = stubs.get(feature);
        symbols.retain(|name, _| {
            !ungated.contains(name.as_str()) && !stub_set.is_some_and(|s| s.contains(name.as_str()))
        });
    }
    gated.retain(|_, symbols| !symbols.is_empty());
    if gated.is_empty() {
        return;
    }

    // All identifier occurrences of the gated names, indexed once.
    let wanted: BTreeSet<&str> = gated
        .values()
        .flat_map(|m| m.keys().map(String::as_str))
        .collect();
    let mut occurrences: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if file.is_test_file {
            continue;
        }
        for (w, &i) in per_file_code[fi].iter().enumerate() {
            if file.tokens[i].kind != TokenKind::Ident {
                continue;
            }
            let t = file.tokens[i].text(&file.text);
            if wanted.contains(t) {
                occurrences.entry(t.to_owned()).or_default().push((fi, w));
            }
        }
    }

    for (feature, symbols) in &gated {
        for (name, (def_fi, def_line)) in symbols {
            for &(fi, w) in occurrences.get(name).map_or(&[][..], Vec::as_slice) {
                let file = &ws.files[fi];
                let code = &per_file_code[fi];
                let line = file.tokens[code[w]].line;
                // Definitions (this one or a same-named re-definition)
                // are not uses.
                if w > 0 && def_at(file, code, w - 1).is_some() {
                    continue;
                }
                if fi == *def_fi && line == *def_line {
                    continue;
                }
                // Only count identifier *uses*: called, pathed, or
                // macro-invoked.
                let tok = |v: usize| code.get(v).map(|&ci| file.tokens[ci].text(&file.text));
                let next = tok(w + 1);
                let prev = w.checked_sub(1).and_then(tok);
                let pathed_fwd = matches!(next, Some(":")) && matches!(tok(w + 2), Some(":"));
                let pathed_back = matches!(prev, Some(":"));
                let is_use = matches!(next, Some("(") | Some("!")) || pathed_fwd || pathed_back;
                if !is_use {
                    continue;
                }
                if file.line_gated_on(feature, line) || file.in_test_region(line) {
                    continue;
                }
                out.push(Finding::new(
                    LintCode::FeatureGateLeak,
                    file.path.clone(),
                    line,
                    format!(
                        "`{name}` is only defined under `feature = \"{feature}\"` \
                         ({}:{}) but is referenced here outside that gate",
                        ws.files[*def_fi].path.display(),
                        def_line
                    ),
                ));
            }
        }
    }
}

fn shim_coverage(ws: &Workspace, out: &mut Vec<Finding>) {
    // crate → shim-bound Atomic types reachable outside plain cfg(test).
    let mut bound: BTreeMap<String, BTreeMap<String, (usize, usize)>> = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (ty, gate, line) in &file.shim_bindings {
            // A binding visible *only* to cfg(test) is the test build's
            // own plumbing; a feature-reachable binding (search's
            // `shuttle`) makes the shim part of the crate's contract.
            if gate.test && gate.features.is_empty() {
                continue;
            }
            bound
                .entry(file.crate_name.clone())
                .or_default()
                .entry(ty.clone())
                .or_insert((fi, *line));
        }
    }
    for (krate, types) in &bound {
        let mentioned: BTreeSet<String> = ws
            .files
            .iter()
            .filter(|f| {
                f.crate_name == *krate
                    && f.path
                        .file_name()
                        .is_some_and(|n| n.to_string_lossy().ends_with("interleave_tests.rs"))
            })
            .flat_map(|f| {
                f.tokens
                    .iter()
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text(&f.text).to_owned())
                    .collect::<Vec<_>>()
            })
            .collect();
        for (ty, (fi, line)) in types {
            if !mentioned.contains(ty) {
                out.push(Finding::new(
                    LintCode::ShimCoverageGap,
                    ws.files[*fi].path.clone(),
                    *line,
                    format!(
                        "`{ty}` is bound from the interleave shim in crate `{krate}` but never \
                         appears in an interleave_tests.rs schedule — the protocol is not \
                         model-checked"
                    ),
                ));
            }
        }
    }
}
