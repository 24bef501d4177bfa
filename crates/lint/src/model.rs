//! The workspace semantic model: everything the passes need, computed
//! once per file from the [`lexer`](crate::lexer) token stream.
//!
//! The model is deliberately line-oriented where the legacy rules were
//! line-oriented (sanitized code text, marker coverage) and
//! token-oriented where the new analyses need structure (cfg regions by
//! real brace tracking, atomic operation sites with their orderings,
//! lock acquisitions, function spans, schema-versioned serde surfaces).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::lexer::{tokenize, Token, TokenKind};

/// How many lines below a marker comment's last line it still covers.
pub const ADJACENCY: usize = 4;

/// Minimum justification length (characters after the marker) for an
/// allowlist entry to count as justified.
pub const MIN_JUSTIFICATION: usize = 10;

/// The marker kinds the legacy rules key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerKind {
    /// `// lint: allow(panics) — <why>`
    AllowPanics,
    /// `// lint: allow(cast) — <why>`
    AllowCast,
    /// `// justified: <why>` (the stricter crates/search rationale)
    Justified,
    /// `// ordering: <why>`
    Ordering,
}

/// One marker occurrence, after comment-block sliding.
#[derive(Debug, Clone)]
pub struct MarkerDef {
    pub kind: MarkerKind,
    /// Line the marker was written on (before sliding).
    pub line: usize,
    /// Whether its justification text meets [`MIN_JUSTIFICATION`].
    pub justified: bool,
}

/// Per-line marker coverage for a file, legacy-compatible: a marker
/// covers its own line and the [`ADJACENCY`] lines below the end of the
/// comment block it lives in.
#[derive(Debug, Default)]
pub struct MarkerSet {
    pub defs: Vec<MarkerDef>,
    covered: [Vec<bool>; 4],
}

impl MarkerSet {
    fn slot(kind: MarkerKind) -> usize {
        match kind {
            MarkerKind::AllowPanics => 0,
            MarkerKind::AllowCast => 1,
            MarkerKind::Justified => 2,
            MarkerKind::Ordering => 3,
        }
    }

    /// Whether `kind` covers 1-based `line`.
    pub fn covers(&self, kind: MarkerKind, line: usize) -> bool {
        self.covered[Self::slot(kind)]
            .get(line.wrapping_sub(1))
            .copied()
            .unwrap_or(false)
    }
}

/// The condition a `#[cfg(...)]` / `#[cfg_attr(...)]` gate expresses,
/// flattened: `test` if the bare `test` predicate occurs outside
/// `not(...)`, plus the positively and negatively required features.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CfgGate {
    pub test: bool,
    pub features: Vec<String>,
    pub not_features: Vec<String>,
}

impl CfgGate {
    pub fn is_empty(&self) -> bool {
        !self.test && self.features.is_empty() && self.not_features.is_empty()
    }
}

/// A cfg-gated item region: the attribute line through the closing
/// brace (or the `;` of a braceless item).
#[derive(Debug, Clone)]
pub struct CfgRegion {
    pub gate: CfgGate,
    /// 1-based inclusive line span, starting at the attribute.
    pub start_line: usize,
    pub end_line: usize,
}

impl CfgRegion {
    pub fn contains(&self, line: usize) -> bool {
        line >= self.start_line && line <= self.end_line
    }
}

/// What an atomic method call does to its cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    Load,
    Store,
    /// `swap` / `fetch_*`: reads and writes in one step.
    Rmw,
    /// `compare_exchange(_weak)` / `fetch_update`: success ordering
    /// first, failure (load-only) ordering second.
    Cas,
}

/// One atomic operation site, grouped later by `field`.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// Last identifier of the receiver chain (`self.epoch.load` →
    /// `epoch`; `cells[i].store` → `cells`; `slot().load` → `slot`).
    pub field: String,
    pub op: AtomicOp,
    pub method: String,
    /// `Ordering::X` names in argument order (success first for CAS).
    pub orderings: Vec<String>,
    pub line: usize,
}

/// An `Atomic*::new(...)` construction site.
#[derive(Debug, Clone)]
pub struct AtomicInit {
    pub type_name: String,
    pub line: usize,
}

/// One `.lock()` acquisition site.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Last identifier of the receiver chain.
    pub name: String,
    pub line: usize,
    /// Index of the `lock` identifier into [`SourceFile::tokens`].
    pub token: usize,
}

/// A `fn` item with its brace-tracked body span.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub start_line: usize,
    pub end_line: usize,
    /// Token index range of the body, `{` and `}` inclusive; empty for
    /// bodyless trait methods.
    pub body: std::ops::Range<usize>,
}

/// How a schema-versioned serde surface was declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurfaceKind {
    /// `impl_serde_struct!(Name { … })` with a `schema` field.
    Struct,
    /// A manual `impl serde::Serialize` emitting a `"schema"` key.
    Manual,
    /// A JSON template string literal with a `"schema"` key (the
    /// checkpoint header).
    Template,
}

impl SurfaceKind {
    pub const fn as_str(self) -> &'static str {
        match self {
            SurfaceKind::Struct => "struct",
            SurfaceKind::Manual => "manual",
            SurfaceKind::Template => "template",
        }
    }
}

/// One schema-versioned serialization surface: a name, its ordered
/// field/key list, and the version constant that stamps it.
#[derive(Debug, Clone)]
pub struct SchemaSurface {
    pub name: String,
    pub kind: SurfaceKind,
    pub fields: Vec<String>,
    pub line: usize,
    /// The `*SCHEMA*` const stamping this surface, when resolvable.
    pub version_const: Option<String>,
}

/// One parsed source file plus everything derived from its tokens.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root (`crates/…/src/…`).
    pub path: PathBuf,
    /// Crate directory name (`search`, `telemetry`, …).
    pub crate_name: String,
    /// `main.rs` / `tests.rs` / `*_tests.rs` / under `src/bin/`: the
    /// legacy rules skip these entirely.
    pub is_test_file: bool,
    pub text: String,
    pub tokens: Vec<Token>,
    /// Per line (0-indexed by `line - 1`): code text with comments
    /// removed and string/char literal interiors blanked.
    pub code_lines: Vec<String>,
    /// Per line: concatenated comment text (line comments, trailing
    /// comments, the slice of any block comment crossing the line).
    pub comment_lines: Vec<String>,
    /// Per line: only comments/whitespace, with at least one comment.
    pub is_comment_line: Vec<bool>,
    pub markers: MarkerSet,
    /// Per line: inside a `cfg(test)`-gated region.
    pub test_mask: Vec<bool>,
    pub cfg_regions: Vec<CfgRegion>,
    pub fns: Vec<FnSpan>,
    pub atomic_sites: Vec<AtomicSite>,
    pub atomic_inits: Vec<AtomicInit>,
    pub lock_sites: Vec<LockSite>,
    /// `Atomic*` names this file binds from the interleave shim, with
    /// the gate of the region the binding sits in and the binding line.
    pub shim_bindings: Vec<(String, CfgGate, usize)>,
    pub schema_surfaces: Vec<SchemaSurface>,
}

impl SourceFile {
    /// 1-based line count.
    pub fn line_count(&self) -> usize {
        self.code_lines.len()
    }

    /// Whether 1-based `line` is inside a `cfg(test)` region.
    pub fn in_test_region(&self, line: usize) -> bool {
        self.test_mask
            .get(line.wrapping_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// Sanitized code text of 1-based `line` (empty when out of range).
    pub fn code_line(&self, line: usize) -> &str {
        self.code_lines
            .get(line.wrapping_sub(1))
            .map(String::as_str)
            .unwrap_or("")
    }

    /// Whether any enclosing cfg region at `line` requires `feature`
    /// (positively) or is a test region.
    pub fn line_gated_on(&self, feature: &str, line: usize) -> bool {
        self.cfg_regions.iter().any(|r| {
            r.contains(line) && (r.gate.features.iter().any(|f| f == feature) || r.gate.test)
        })
    }
}

/// The whole parsed workspace.
#[derive(Debug)]
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<SourceFile>,
    /// Files that could not be read (path, error).
    pub io_errors: Vec<(PathBuf, String)>,
    /// `const *SCHEMA*: u64 = N` definitions across the workspace.
    pub schema_consts: BTreeMap<String, u64>,
}

impl Workspace {
    /// Parses every crate source under `root/crates/*/src`, skipping
    /// the lint crate itself (historical: the lint wall does not lint
    /// its own implementation) and `tests/` / `benches/` / `examples/`
    /// directories.
    pub fn load(root: &Path) -> Workspace {
        let mut files = Vec::new();
        let mut io_errors = Vec::new();
        let mut paths = Vec::new();
        let crates_dir = root.join("crates");
        if let Ok(entries) = std::fs::read_dir(&crates_dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if !path.is_dir() || path.file_name().is_some_and(|n| n == "lint") {
                    continue;
                }
                walk_sources(&path.join("src"), false, &mut paths);
            }
        }
        paths.sort();
        for (path, in_bin) in paths {
            let display = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            match std::fs::read_to_string(&path) {
                Ok(text) => files.push(SourceFile::parse(display, text, in_bin)),
                Err(err) => io_errors.push((display, err.to_string())),
            }
        }
        let mut ws = Workspace {
            root: root.to_path_buf(),
            files,
            io_errors,
            schema_consts: BTreeMap::new(),
        };
        ws.schema_consts = ws.collect_schema_consts();
        ws
    }

    fn collect_schema_consts(&self) -> BTreeMap<String, u64> {
        let mut consts = BTreeMap::new();
        for file in &self.files {
            let toks = &file.tokens;
            let code: Vec<usize> = code_indices(toks);
            for w in 0..code.len().saturating_sub(5) {
                let at = |i: usize| &toks[code[w + i]];
                if at(0).kind == TokenKind::Ident
                    && at(0).text(&file.text) == "const"
                    && at(1).kind == TokenKind::Ident
                    && at(1).text(&file.text).contains("SCHEMA")
                    && at(2).text(&file.text) == ":"
                    && at(4).text(&file.text) == "="
                    && at(5).kind == TokenKind::Number
                {
                    if let Ok(value) = at(5).text(&file.text).parse::<u64>() {
                        consts.insert(at(1).text(&file.text).to_owned(), value);
                    }
                }
            }
        }
        consts
    }

    /// Every schema surface in non-test files, outside test regions.
    pub fn schema_surfaces(&self) -> impl Iterator<Item = (&SourceFile, &SchemaSurface)> {
        self.files.iter().flat_map(|f| {
            f.schema_surfaces
                .iter()
                .filter(move |s| !f.is_test_file && !f.in_test_region(s.line))
                .map(move |s| (f, s))
        })
    }
}

fn walk_sources(dir: &Path, in_bin: bool, out: &mut Vec<(PathBuf, bool)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "tests" || name == "benches" || name == "examples" {
                continue;
            }
            walk_sources(&path, in_bin || name == "bin", out);
        } else if name.ends_with(".rs") {
            out.push((path, in_bin));
        }
    }
}

/// Indices of non-comment, non-whitespace tokens.
fn code_indices(tokens: &[Token]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind.is_code())
        .map(|(i, _)| i)
        .collect()
}

const ATOMIC_METHODS: [(&str, AtomicOp); 14] = [
    ("load", AtomicOp::Load),
    ("store", AtomicOp::Store),
    ("swap", AtomicOp::Rmw),
    ("fetch_add", AtomicOp::Rmw),
    ("fetch_sub", AtomicOp::Rmw),
    ("fetch_and", AtomicOp::Rmw),
    ("fetch_or", AtomicOp::Rmw),
    ("fetch_xor", AtomicOp::Rmw),
    ("fetch_max", AtomicOp::Rmw),
    ("fetch_min", AtomicOp::Rmw),
    ("fetch_nand", AtomicOp::Rmw),
    ("compare_exchange", AtomicOp::Cas),
    ("compare_exchange_weak", AtomicOp::Cas),
    ("fetch_update", AtomicOp::Cas),
];

impl SourceFile {
    fn parse(path: PathBuf, text: String, in_bin: bool) -> SourceFile {
        let crate_name = path
            .components()
            .nth(1)
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .unwrap_or_default();
        let file_name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let is_test_file = in_bin
            || file_name == "main.rs"
            || file_name == "tests.rs"
            || file_name.ends_with("_tests.rs");
        let tokens = tokenize(&text);
        let line_total = text.lines().count().max(1);
        let (code_lines, comment_lines, is_comment_line) = line_views(&text, &tokens, line_total);
        let markers = compute_markers(&comment_lines, &is_comment_line);
        let cfg_regions = compute_cfg_regions(&text, &tokens, line_total);
        let mut test_mask = vec![false; line_total];
        for region in cfg_regions.iter().filter(|r| r.gate.test) {
            for line in region.start_line..=region.end_line.min(line_total) {
                test_mask[line - 1] = true;
            }
        }
        let mut file = SourceFile {
            path,
            crate_name,
            is_test_file,
            text,
            tokens,
            code_lines,
            comment_lines,
            is_comment_line,
            markers,
            test_mask,
            cfg_regions,
            fns: Vec::new(),
            atomic_sites: Vec::new(),
            atomic_inits: Vec::new(),
            lock_sites: Vec::new(),
            shim_bindings: Vec::new(),
            schema_surfaces: Vec::new(),
        };
        file.fns = file.compute_fns();
        file.compute_call_sites();
        file.compute_shim_bindings();
        file.compute_schema_surfaces();
        file
    }

    fn tok_text(&self, i: usize) -> &str {
        self.tokens[i].text(&self.text)
    }

    fn compute_fns(&self) -> Vec<FnSpan> {
        let code = code_indices(&self.tokens);
        let mut fns = Vec::new();
        let mut w = 0;
        while w + 1 < code.len() {
            let i = code[w];
            if self.tokens[i].kind == TokenKind::Ident && self.tok_text(i) == "fn" {
                let name_i = code[w + 1];
                if self.tokens[name_i].kind == TokenKind::Ident {
                    // Find the body `{` (or a bodyless `;`) at
                    // paren/bracket depth 0.
                    let mut depth = 0i64;
                    let mut v = w + 2;
                    let mut body = 0..0;
                    let mut end_line = self.tokens[name_i].line;
                    while v < code.len() {
                        let t = self.tok_text(code[v]);
                        match t {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            "{" if depth == 0 => {
                                let (close, _) = self.matching_brace(&code, v);
                                body =
                                    code[v]..code.get(close).map_or(self.tokens.len(), |&c| c + 1);
                                end_line = self
                                    .tokens
                                    .get(code.get(close).copied().unwrap_or(i))
                                    .map_or(end_line, |t| t.line);
                                break;
                            }
                            ";" if depth == 0 => break,
                            _ => {}
                        }
                        v += 1;
                    }
                    fns.push(FnSpan {
                        name: self.tok_text(name_i).to_owned(),
                        start_line: self.tokens[i].line,
                        end_line,
                        body,
                    });
                }
            }
            w += 1;
        }
        fns
    }

    /// Given `code[open_w]` on a `{`, returns the `code` index of the
    /// matching `}` (saturating at the stream end).
    fn matching_brace(&self, code: &[usize], open_w: usize) -> (usize, i64) {
        let mut depth = 0i64;
        for (v, &ci) in code.iter().enumerate().skip(open_w) {
            match self.tok_text(ci) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return (v, depth);
                    }
                }
                _ => {}
            }
        }
        (code.len().saturating_sub(1), depth)
    }

    /// Atomic operations, `Atomic*::new` inits, and `.lock()` sites.
    fn compute_call_sites(&mut self) {
        let code = code_indices(&self.tokens);
        let mut atomic_sites = Vec::new();
        let mut atomic_inits = Vec::new();
        let mut lock_sites = Vec::new();
        for w in 0..code.len() {
            let i = code[w];
            if self.tokens[i].kind != TokenKind::Ident {
                continue;
            }
            let name = self.tok_text(i);
            // `Atomic*::new(`
            if let Some(rest) = name.strip_prefix("Atomic") {
                if !rest.is_empty()
                    && w + 3 < code.len()
                    && self.tok_text(code[w + 1]) == ":"
                    && self.tok_text(code[w + 2]) == ":"
                    && self.tok_text(code[w + 3]) == "new"
                {
                    atomic_inits.push(AtomicInit {
                        type_name: name.to_owned(),
                        line: self.tokens[i].line,
                    });
                }
            }
            // `.method(` receivers
            let is_method_call = w >= 1
                && self.tok_text(code[w - 1]) == "."
                && w + 1 < code.len()
                && self.tok_text(code[w + 1]) == "(";
            if !is_method_call {
                continue;
            }
            let receiver = self.receiver_name(&code, w - 1);
            if name == "lock" {
                if let Some(recv) = receiver.clone() {
                    lock_sites.push(LockSite {
                        name: recv,
                        line: self.tokens[i].line,
                        token: i,
                    });
                }
                continue;
            }
            if let Some((_, op)) = ATOMIC_METHODS.iter().find(|(m, _)| *m == name) {
                let Some(field) = receiver else { continue };
                let orderings = self.call_orderings(&code, w + 1);
                // Only treat it as an atomic op when an explicit
                // `Ordering::` argument is present — `Vec::swap`,
                // `HashMap::fetch_update`-alikes etc. stay invisible.
                if orderings.is_empty() {
                    continue;
                }
                atomic_sites.push(AtomicSite {
                    field,
                    op: *op,
                    method: name.to_owned(),
                    orderings,
                    line: self.tokens[i].line,
                });
            }
        }
        self.atomic_sites = atomic_sites;
        self.atomic_inits = atomic_inits;
        self.lock_sites = lock_sites;
    }

    /// Last identifier of the receiver chain ending at `code[dot_w]`
    /// (a `.`): `a.b.load` → `b`; `cells[i].load` → `cells`;
    /// `slot().load` → `slot`.
    fn receiver_name(&self, code: &[usize], dot_w: usize) -> Option<String> {
        let mut v = dot_w.checked_sub(1)?;
        loop {
            let t = self.tok_text(code[v]);
            match t {
                "]" | ")" => {
                    // Walk back over the bracketed group.
                    let (open, close) = if t == "]" { ("[", "]") } else { ("(", ")") };
                    let mut depth = 0i64;
                    loop {
                        let s = self.tok_text(code[v]);
                        if s == close {
                            depth += 1;
                        } else if s == open {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        v = v.checked_sub(1)?;
                    }
                    v = v.checked_sub(1)?;
                }
                _ => {
                    if self.tokens[code[v]].kind == TokenKind::Ident {
                        return Some(t.to_owned());
                    }
                    return None;
                }
            }
        }
    }

    /// `Ordering::X` names between the `(` at `code[open_w]` and its
    /// matching `)`.
    fn call_orderings(&self, code: &[usize], open_w: usize) -> Vec<String> {
        let mut depth = 0i64;
        let mut out = Vec::new();
        let mut v = open_w;
        while v < code.len() {
            match self.tok_text(code[v]) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "Ordering"
                    if v + 3 < code.len()
                        && self.tok_text(code[v + 1]) == ":"
                        && self.tok_text(code[v + 2]) == ":"
                        && self.tokens[code[v + 3]].kind == TokenKind::Ident =>
                {
                    out.push(self.tok_text(code[v + 3]).to_owned());
                }
                _ => {}
            }
            v += 1;
        }
        out
    }

    /// `use …::shim::{…}` bindings of `Atomic*` types, with the cfg
    /// gate of the innermost region containing the binding.
    fn compute_shim_bindings(&mut self) {
        let code = code_indices(&self.tokens);
        let mut bindings = Vec::new();
        for w in 0..code.len() {
            if self.tok_text(code[w]) != "shim" {
                continue;
            }
            if w + 2 >= code.len()
                || self.tok_text(code[w + 1]) != ":"
                || self.tok_text(code[w + 2]) != ":"
            {
                continue;
            }
            let line = self.tokens[code[w]].line;
            let gate = self.innermost_gate(line);
            let mut v = w + 3;
            if v < code.len() && self.tok_text(code[v]) == "{" {
                v += 1;
                while v < code.len() && self.tok_text(code[v]) != "}" {
                    let t = self.tok_text(code[v]);
                    if self.tokens[code[v]].kind == TokenKind::Ident && t.starts_with("Atomic") {
                        bindings.push((t.to_owned(), gate.clone(), line));
                    }
                    v += 1;
                }
            } else if v < code.len() && self.tok_text(code[v]).starts_with("Atomic") {
                bindings.push((self.tok_text(code[v]).to_owned(), gate.clone(), line));
            }
        }
        self.shim_bindings = bindings;
    }

    /// Gate of the innermost cfg region containing `line` (empty gate
    /// when ungated).
    pub fn innermost_gate(&self, line: usize) -> CfgGate {
        self.cfg_regions
            .iter()
            .filter(|r| r.contains(line))
            .min_by_key(|r| r.end_line - r.start_line)
            .map(|r| r.gate.clone())
            .unwrap_or_default()
    }

    fn compute_schema_surfaces(&mut self) {
        let code = code_indices(&self.tokens);
        let mut surfaces = Vec::new();
        for w in 0..code.len() {
            let i = code[w];
            let t = self.tok_text(i);
            match self.tokens[i].kind {
                TokenKind::Ident if t == "impl_serde_struct" => {
                    if let Some(s) = self.struct_surface(&code, w) {
                        surfaces.push(s);
                    }
                }
                TokenKind::Ident if t == "impl" => {
                    if let Some(s) = self.manual_surface(&code, w) {
                        surfaces.push(s);
                    }
                }
                TokenKind::Str | TokenKind::RawStr => {
                    if let Some(s) = self.template_surface(i) {
                        surfaces.push(s);
                    }
                }
                _ => {}
            }
        }
        for s in &mut surfaces {
            s.version_const = self.resolve_version_const(s.line);
        }
        self.schema_surfaces = surfaces;
    }

    /// `impl_serde_struct!(Name { f1, f2, … })` with a `schema` field.
    fn struct_surface(&self, code: &[usize], w: usize) -> Option<SchemaSurface> {
        if self.tok_text(*code.get(w + 1)?) != "!" || self.tok_text(*code.get(w + 2)?) != "(" {
            return None;
        }
        let name_i = *code.get(w + 3)?;
        if self.tokens[name_i].kind != TokenKind::Ident || self.tok_text(*code.get(w + 4)?) != "{" {
            return None;
        }
        let mut fields = Vec::new();
        let mut v = w + 5;
        while v < code.len() && self.tok_text(code[v]) != "}" {
            if self.tokens[code[v]].kind == TokenKind::Ident {
                fields.push(self.tok_text(code[v]).to_owned());
            }
            v += 1;
        }
        if !fields.iter().any(|f| f == "schema") {
            return None;
        }
        Some(SchemaSurface {
            name: self.tok_text(name_i).to_owned(),
            kind: SurfaceKind::Struct,
            fields,
            line: self.tokens[name_i].line,
            version_const: None,
        })
    }

    /// `impl [serde::]Serialize for X { … }` whose body emits a
    /// `"schema"` key via the `("key".to_owned(), …)` tuple idiom.
    fn manual_surface(&self, code: &[usize], w: usize) -> Option<SchemaSurface> {
        let mut v = w + 1;
        if self.tok_text(*code.get(v)?) == "serde" {
            if self.tok_text(*code.get(v + 1)?) != ":" || self.tok_text(*code.get(v + 2)?) != ":" {
                return None;
            }
            v += 3;
        }
        if self.tok_text(*code.get(v)?) != "Serialize" || self.tok_text(*code.get(v + 1)?) != "for"
        {
            return None;
        }
        let name_i = *code.get(v + 2)?;
        if self.tokens[name_i].kind != TokenKind::Ident {
            return None;
        }
        // Find the impl body and collect its string keys in order.
        let mut open = v + 3;
        while open < code.len() && self.tok_text(code[open]) != "{" {
            open += 1;
        }
        if open >= code.len() {
            return None;
        }
        let (close, _) = self.matching_brace(code, open);
        let mut fields = Vec::new();
        for u in open..close {
            let i = code[u];
            if self.tokens[i].kind != TokenKind::Str {
                continue;
            }
            let key = self.tok_text(i).trim_matches('"');
            if key.is_empty() || !key.bytes().all(|b| b == b'_' || b.is_ascii_alphanumeric()) {
                continue;
            }
            // `"key".to_owned(),` / `"key".to_string(),`
            let tail: Vec<&str> = (1..=5)
                .filter_map(|d| code.get(u + d).map(|&ci| self.tok_text(ci)))
                .collect();
            if tail.len() == 5
                && tail[0] == "."
                && (tail[1] == "to_owned" || tail[1] == "to_string")
                && tail[2] == "("
                && tail[3] == ")"
                && tail[4] == ","
            {
                fields.push(key.to_owned());
            }
        }
        if !fields.iter().any(|f| f == "schema") {
            return None;
        }
        Some(SchemaSurface {
            name: self.tok_text(name_i).to_owned(),
            kind: SurfaceKind::Manual,
            fields,
            line: self.tokens[name_i].line,
            version_const: None,
        })
    }

    /// A string literal that is itself a JSON template with a `schema`
    /// key, e.g. the checkpoint header format string.
    fn template_surface(&self, i: usize) -> Option<SchemaSurface> {
        let raw = self.tokens[i].text(&self.text);
        let keys = template_keys(raw);
        if keys.is_empty() || !keys.iter().any(|k| k == "schema") {
            return None;
        }
        let line = self.tokens[i].line;
        let stem = self
            .path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let enclosing = self
            .fns
            .iter()
            .filter(|f| line >= f.start_line && line <= f.end_line)
            .min_by_key(|f| f.end_line - f.start_line)
            .map(|f| f.name.clone())
            .unwrap_or_else(|| "top".to_owned());
        Some(SchemaSurface {
            name: format!("{stem}::{enclosing}"),
            kind: SurfaceKind::Template,
            fields: keys,
            line,
            version_const: None,
        })
    }

    /// The `*SCHEMA*` const referenced nearest after `line` in this
    /// file's code (else the first reference anywhere in the file).
    fn resolve_version_const(&self, line: usize) -> Option<String> {
        let mut first: Option<&str> = None;
        let mut after: Option<&str> = None;
        for tok in &self.tokens {
            if tok.kind != TokenKind::Ident {
                continue;
            }
            let t = tok.text(&self.text);
            if !t.contains("SCHEMA") || t == "impl_serde_struct" {
                continue;
            }
            if first.is_none() {
                first = Some(t);
            }
            if after.is_none() && tok.line >= line {
                after = Some(t);
            }
        }
        after.or(first).map(str::to_owned)
    }
}

/// Quoted JSON keys of a template literal: `\"key\":` inside a normal
/// string, `"key":` inside a raw string.
fn template_keys(raw: &str) -> Vec<String> {
    let (open, close) = if raw.starts_with('r') || raw.starts_with("br") {
        ("\"".to_owned(), "\":".to_owned())
    } else {
        ("\\\"".to_owned(), "\\\":".to_owned())
    };
    let mut keys = Vec::new();
    let mut rest = raw;
    while let Some(at) = rest.find(open.as_str()) {
        rest = &rest[at + open.len()..];
        let Some(end) = rest.find(close.as_str()) else {
            continue;
        };
        let key = &rest[..end];
        if !key.is_empty() && key.bytes().all(|b| b == b'_' || b.is_ascii_alphanumeric()) {
            keys.push(key.to_owned());
        }
    }
    keys
}

/// Builds per-line sanitized code text, per-line comment text, and the
/// comment-only-line flags.
fn line_views(
    text: &str,
    tokens: &[Token],
    line_total: usize,
) -> (Vec<String>, Vec<String>, Vec<bool>) {
    let mut sanitized = text.as_bytes().to_vec();
    for tok in tokens {
        match tok.kind {
            TokenKind::LineComment | TokenKind::BlockComment => {
                for b in &mut sanitized[tok.start..tok.end] {
                    if *b != b'\n' {
                        *b = b' ';
                    }
                }
            }
            TokenKind::Str | TokenKind::RawStr | TokenKind::Char => {
                for b in &mut sanitized[tok.start..tok.end] {
                    if *b != b'\n' {
                        *b = b' ';
                    }
                }
                // Keep the delimiters so "a string literal sits here"
                // remains visible to line heuristics.
                sanitized[tok.start] = text.as_bytes()[tok.start];
                if tok.end > tok.start + 1 {
                    sanitized[tok.end - 1] = text.as_bytes()[tok.end - 1];
                }
            }
            _ => {}
        }
    }
    let sanitized = String::from_utf8_lossy(&sanitized).into_owned();
    let mut code_lines: Vec<String> = sanitized.lines().map(str::to_owned).collect();
    code_lines.resize(line_total, String::new());

    let mut comment_lines = vec![String::new(); line_total];
    for tok in tokens.iter().filter(|t| t.kind.is_comment()) {
        for (j, part) in tok.text(text).split('\n').enumerate() {
            if let Some(slot) = comment_lines.get_mut(tok.line - 1 + j) {
                slot.push_str(part);
            }
        }
    }

    let mut is_comment_line = vec![false; line_total];
    for line in 0..line_total {
        is_comment_line[line] =
            code_lines[line].trim().is_empty() && !comment_lines[line].trim().is_empty();
    }
    (code_lines, comment_lines, is_comment_line)
}

/// Legacy-compatible marker scan: detect markers in each line's comment
/// text, slide a marker that ended on the previous line down through a
/// contiguous comment block, and mark the [`ADJACENCY`] coverage window.
fn compute_markers(comment_lines: &[String], is_comment_line: &[bool]) -> MarkerSet {
    let n = comment_lines.len();
    let mut set = MarkerSet {
        defs: Vec::new(),
        covered: [
            vec![false; n],
            vec![false; n],
            vec![false; n],
            vec![false; n],
        ],
    };
    let mut last: [Option<usize>; 4] = [None; 4];
    for idx in 0..n {
        let line_no = idx + 1;
        let comment = &comment_lines[idx];
        let mut had_marker = false;
        for (needle, kind) in [
            ("// lint: allow(panics)", MarkerKind::AllowPanics),
            ("// lint: allow(cast)", MarkerKind::AllowCast),
        ] {
            if let Some(at) = comment.find(needle) {
                had_marker = true;
                let justification = comment[at + needle.len()..]
                    .trim_start_matches([' ', '—', '-', ':'])
                    .trim();
                let justified = justification.chars().count() >= MIN_JUSTIFICATION;
                set.defs.push(MarkerDef {
                    kind,
                    line: line_no,
                    justified,
                });
                last[MarkerSet::slot(kind)] = Some(line_no);
            }
        }
        if let Some(at) = comment.find("// justified:") {
            had_marker = true;
            let rationale = comment[at + "// justified:".len()..].trim();
            set.defs.push(MarkerDef {
                kind: MarkerKind::Justified,
                line: line_no,
                justified: rationale.chars().count() >= MIN_JUSTIFICATION,
            });
            last[MarkerSet::slot(MarkerKind::Justified)] = Some(line_no);
        }
        if comment.contains("// ordering:") {
            had_marker = true;
            set.defs.push(MarkerDef {
                kind: MarkerKind::Ordering,
                line: line_no,
                justified: true,
            });
            last[MarkerSet::slot(MarkerKind::Ordering)] = Some(line_no);
        }
        // A continuation line of a comment block slides any marker that
        // ended on the previous line down with the block.
        if is_comment_line[idx] && !had_marker && idx > 0 && is_comment_line[idx - 1] {
            for slot in &mut last {
                if *slot == Some(line_no - 1) {
                    *slot = Some(line_no);
                }
            }
        }
        for (slot, covered) in last.iter().zip(set.covered.iter_mut()) {
            if slot.is_some_and(|m| line_no >= m && line_no - m <= ADJACENCY) {
                covered[idx] = true;
            }
        }
    }
    set
}

/// Finds every cfg-gated region by real (token-level) brace tracking.
fn compute_cfg_regions(text: &str, tokens: &[Token], line_total: usize) -> Vec<CfgRegion> {
    let code = code_indices(tokens);
    let txt = |w: usize| tokens[code[w]].text(text);
    let mut regions = Vec::new();
    let mut w = 0;
    while w < code.len() {
        if txt(w) != "#" {
            w += 1;
            continue;
        }
        let mut v = w + 1;
        if v < code.len() && txt(v) == "!" {
            v += 1; // inner attribute `#![…]` — parsed, span is the file
        }
        if v >= code.len() || txt(v) != "[" {
            w += 1;
            continue;
        }
        let inner = v == w + 2;
        let attr_line = tokens[code[w]].line;
        // Collect the attribute's tokens up to the matching `]`.
        let mut depth = 0i64;
        let mut attr = Vec::new();
        let mut end = v;
        for u in v..code.len() {
            match txt(u) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        end = u;
                        break;
                    }
                }
                _ => {}
            }
            if u > v {
                attr.push(u);
            }
            end = u;
        }
        let gate = parse_gate(text, tokens, &code, &attr);
        w = end + 1;
        if gate.is_empty() {
            continue;
        }
        if inner {
            regions.push(CfgRegion {
                gate,
                start_line: 1,
                end_line: line_total,
            });
            continue;
        }
        // The gated item: skip further attributes, then span to the
        // matching `}` of its first block, or to a braceless `;`.
        let mut u = w;
        let mut end_line = tokens[code[end.min(code.len() - 1)]].line;
        while u < code.len() {
            if txt(u) == "#" {
                // Another attribute: skip it (its own region, if any,
                // is produced by the outer loop — a second cfg on the
                // same item is rare and over-approximates to the item).
                let mut d = 0i64;
                let mut uu = u + 1;
                if uu < code.len() && txt(uu) == "!" {
                    uu += 1;
                }
                while uu < code.len() {
                    match txt(uu) {
                        "[" => d += 1,
                        "]" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    uu += 1;
                }
                u = uu + 1;
                continue;
            }
            break;
        }
        let mut brace_depth = 0i64;
        let mut found = false;
        while u < code.len() {
            match txt(u) {
                "{" => {
                    brace_depth += 1;
                    found = true;
                }
                "}" => {
                    brace_depth -= 1;
                    if found && brace_depth <= 0 {
                        end_line = tokens[code[u]].line;
                        break;
                    }
                }
                ";" if brace_depth == 0 => {
                    end_line = tokens[code[u]].line;
                    break;
                }
                _ => {}
            }
            end_line = tokens[code[u]].line;
            u += 1;
        }
        regions.push(CfgRegion {
            gate,
            start_line: attr_line,
            end_line,
        });
    }
    regions
}

/// Flattens a cfg attribute token list into a [`CfgGate`].
fn parse_gate(text: &str, tokens: &[Token], code: &[usize], attr: &[usize]) -> CfgGate {
    let txt = |w: usize| tokens[code[w]].text(text);
    if attr.is_empty() {
        return CfgGate::default();
    }
    let head = txt(attr[0]);
    if head != "cfg" && head != "cfg_attr" {
        return CfgGate::default();
    }
    let mut gate = CfgGate::default();
    let mut not_depth = 0usize;
    let mut paren_stack: Vec<bool> = Vec::new(); // true = this paren is a not(...)
    let mut k = 1;
    while k < attr.len() {
        let t = txt(attr[k]);
        match t {
            "(" => {
                let is_not = k >= 1 && txt(attr[k - 1]) == "not";
                paren_stack.push(is_not);
                if is_not {
                    not_depth += 1;
                }
            }
            ")" if paren_stack.pop() == Some(true) => {
                not_depth = not_depth.saturating_sub(1);
            }
            "test" if not_depth == 0 => gate.test = true,
            "feature"
                if k + 2 < attr.len()
                    && txt(attr[k + 1]) == "="
                    && tokens[code[attr[k + 2]]].kind == TokenKind::Str =>
            {
                let name = txt(attr[k + 2]).trim_matches('"').to_owned();
                if not_depth == 0 {
                    gate.features.push(name);
                } else {
                    gate.not_features.push(name);
                }
            }
            _ => {}
        }
        k += 1;
    }
    gate
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse(
            PathBuf::from("crates/demo/src/lib.rs"),
            src.to_owned(),
            false,
        )
    }

    #[test]
    fn markers_slide_through_comment_blocks() {
        let src = "\
// ordering: Relaxed is fine here because
// the counter is advisory only.
x.fetch_add(1, Ordering::Relaxed);
";
        let f = file(src);
        assert!(f.markers.covers(MarkerKind::Ordering, 3));
        assert!(!f.markers.covers(MarkerKind::Ordering, 8));
    }

    #[test]
    fn markers_inside_strings_do_not_count() {
        let src = "let s = \"// ordering: fake\";\nx.load(Ordering::Relaxed);\n";
        let f = file(src);
        assert!(!f.markers.covers(MarkerKind::Ordering, 2));
    }

    #[test]
    fn cfg_test_mask_tracks_real_braces() {
        let src = "\
fn a() { let s = \"}\"; }
#[cfg(test)]
mod tests {
    fn b() { panic!(\"x\"); }
}
fn c() {}
";
        let f = file(src);
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(2));
        assert!(f.in_test_region(4));
        assert!(f.in_test_region(5));
        assert!(!f.in_test_region(6));
    }

    #[test]
    fn cfg_feature_regions_and_not() {
        let src = "\
#[cfg(feature = \"failpoints\")]
pub fn emit() {}
#[cfg(not(feature = \"failpoints\"))]
pub fn emit() {}
#[cfg(any(test, feature = \"shuttle\"))]
mod sync { pub use shim::{AtomicBool, AtomicU64}; }
";
        let f = file(src);
        let feats: Vec<_> = f
            .cfg_regions
            .iter()
            .map(|r| {
                (
                    r.gate.test,
                    r.gate.features.clone(),
                    r.gate.not_features.clone(),
                )
            })
            .collect();
        assert_eq!(feats[0], (false, vec!["failpoints".to_owned()], vec![]));
        assert_eq!(feats[1], (false, vec![], vec!["failpoints".to_owned()]));
        assert_eq!(feats[2], (true, vec!["shuttle".to_owned()], vec![]));
        assert_eq!(f.shim_bindings.len(), 2);
        assert!(f
            .shim_bindings
            .iter()
            .any(|(n, g, _)| n == "AtomicBool" && g.test));
    }

    #[test]
    fn atomic_sites_group_by_receiver_tail() {
        let src = "\
fn f(s: &S) {
    let k = s.slots[i].key.load(Ordering::Acquire);
    s.epoch.store(k + 1, Ordering::Release);
    let _ = cell().compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);
    v.swap(0, 1); // Vec::swap: no Ordering, not atomic
}
";
        let f = file(src);
        let names: Vec<_> = f.atomic_sites.iter().map(|s| s.field.as_str()).collect();
        assert_eq!(names, ["key", "epoch", "cell"]);
        assert_eq!(f.atomic_sites[2].orderings, ["AcqRel", "Acquire"]);
        assert_eq!(f.atomic_sites[2].op, AtomicOp::Cas);
    }

    #[test]
    fn lock_sites_and_fn_spans() {
        let src = "\
fn outer(s: &S) -> u64 {
    let g = s.record.lock().unwrap();
    inner();
    g.best
}
fn inner() {}
";
        let f = file(src);
        assert_eq!(f.lock_sites.len(), 1);
        assert_eq!(f.lock_sites[0].name, "record");
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "outer");
        assert_eq!(f.fns[0].start_line, 1);
        assert_eq!(f.fns[0].end_line, 5);
    }

    #[test]
    fn schema_surfaces_struct_manual_and_template() {
        let src = r#"
impl_serde_struct!(Report { schema, runs, best });
impl_serde_struct!(NoVersion { a, b });
impl serde::Serialize for Outcome {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("schema".to_owned(), serde::Value::U64(SCHEMA_VERSION)),
            ("evals".to_owned(), serde::Value::U64(self.evals)),
        ])
    }
}
fn save() {
    let h = format!("{{\"schema\":{},\"crc\":{}}}", CHECKPOINT_SCHEMA, 9);
}
const SCHEMA_VERSION: u64 = 3;
const CHECKPOINT_SCHEMA: u64 = 1;
"#;
        let f = file(src);
        let names: Vec<_> = f.schema_surfaces.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["Report", "Outcome", "lib::save"]);
        assert_eq!(f.schema_surfaces[0].fields, ["schema", "runs", "best"]);
        assert_eq!(f.schema_surfaces[1].fields, ["schema", "evals"]);
        assert_eq!(f.schema_surfaces[2].fields, ["schema", "crc"]);
        assert_eq!(
            f.schema_surfaces[2].version_const.as_deref(),
            Some("CHECKPOINT_SCHEMA")
        );
    }
}
