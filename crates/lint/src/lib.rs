//! `rrq-lint`: a zero-dependency static-analysis pass enforcing the
//! workspace's determinism, unsafe-containment and counter-integrity
//! invariants (DESIGN.md §11).
//!
//! The paper's evaluation — and the `rrq-benchdiff` perf gate built on
//! it — only holds if same-seed runs are bit-deterministic. Two past
//! PRs fixed exactly that class of bug *after* the benchmark diff
//! caught it (MPA's `HashMap` iteration order, the blocked-scan
//! `QueryStats` divergence). This crate turns those hard-won runtime
//! invariants into named lint rules that fail the pre-PR gate instead:
//!
//! | rule | invariant |
//! |---|---|
//! | `no-hash-iteration` | no `HashMap`/`HashSet` in counter-affecting crates |
//! | `unsafe-containment` | `unsafe` rooted + `// SAFETY:`-commented |
//! | `atomic-ordering-justified` | `Ordering::*` rooted + `// ORDERING:`-commented |
//! | `no-wall-clock-in-counters` | clock reads confined to obs + timed sections |
//! | `no-thread-spawn-outside-par` | spawning confined to pool.rs + runner striping |
//! | `no-unwrap-in-lib` | no undocumented panic sites in library code |
//! | `seqcst-justified` | `SeqCst` argued everywhere, tests included |
//!
//! Since v2 the per-file rules are backed by a workspace symbol graph
//! ([`index`] + [`graph`]): call-graph confinement walks from the query
//! entry points and flags any reachable wall-clock read, thread spawn
//! or unjustified atomic *with the full call chain*; the counter census
//! ([`census`]) verifies every `QueryStats` field is booked at every
//! enumeration site; `barrier-unwind-guard` checks each rendezvous sits
//! under a poison guard; and `whitelist-stale` turns rotting root
//! entries into errors. Findings can also be carried in a committed
//! [`baseline`] file, and reports render to SARIF 2.1.0 ([`sarif`]).
//!
//! False positives are silenced inline, reason mandatory:
//!
//! ```text
//! // rrq-lint: allow(no-unwrap-in-lib) -- poisoning means a worker panicked; propagate
//! ```
//!
//! A directive on its own comment line covers the next code line; a
//! trailing directive covers its own line. Directives that cover
//! nothing, name unknown rules, or omit the `-- reason` are themselves
//! errors — suppressions cannot rot silently.
//!
//! Scanning is a hand-rolled lexer ([`lexer`]) — line/token based, no
//! `syn`, fully offline like the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod census;
pub mod fix;
pub mod graph;
pub mod index;
pub mod lexer;
pub mod rules;
pub mod sarif;

use rules::Rule;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Pseudo-rule name used for problems with suppression directives
/// themselves (malformed, unknown rule, unused).
pub const SUPPRESSION_RULE: &str = "suppression";

/// One reported problem, ready for human or JSON output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name ([`SUPPRESSION_RULE`] for directive problems).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-indexed source line.
    pub line: usize,
    /// Human-facing explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Result of linting a file tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Everything that fired, ordered by path then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings excused by an applied [`baseline::Baseline`].
    pub baseline_suppressed: usize,
}

impl Report {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

// ---------------------------------------------------------------------
// Suppression directives.
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Directive {
    /// Line the directive comment sits on.
    line: usize,
    /// Line whose diagnostics it suppresses (`None`: nothing to cover).
    target: Option<usize>,
    rules: Vec<Rule>,
    used: bool,
}

const DIRECTIVE_MARKER: &str = "rrq-lint:";

/// Parses every `// rrq-lint: allow(…) -- reason` directive in the
/// file. Malformed directives become diagnostics immediately.
fn parse_directives(
    path: &str,
    view: &lexer::FileView,
    diags: &mut Vec<Diagnostic>,
) -> Vec<Directive> {
    let mut out = Vec::new();
    for n in 1..=view.len() {
        // A directive must *start* the comment (`// rrq-lint: …`). Doc
        // comments yield text starting with `/` or `!`, so prose that
        // merely quotes the syntax never parses as a directive.
        let comment = view.line(n).comment.trim_start();
        let Some(rest) = comment.strip_prefix(DIRECTIVE_MARKER) else {
            continue;
        };
        let rest = rest.trim_start();
        let mut fail = |message: String| {
            diags.push(Diagnostic {
                rule: SUPPRESSION_RULE,
                path: path.to_string(),
                line: n,
                message,
            });
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            fail(format!(
                "malformed directive: expected `rrq-lint: allow(<rule>) -- <reason>`, got `{}`",
                rest.trim_end()
            ));
            continue;
        };
        let Some(close) = args.find(')') else {
            fail("malformed directive: missing `)` after rule list".to_string());
            continue;
        };
        let mut parsed = Vec::new();
        let mut bad = false;
        for name in args[..close].split(',') {
            let name = name.trim();
            match Rule::from_name(name) {
                Some(rule) => parsed.push(rule),
                None => {
                    fail(format!("unknown rule `{name}` in suppression"));
                    bad = true;
                }
            }
        }
        if bad {
            continue;
        }
        if parsed.is_empty() {
            fail("empty rule list in suppression".to_string());
            continue;
        }
        let after = args[close + 1..].trim_start();
        let reason = after.strip_prefix("--").map(str::trim).unwrap_or("");
        if reason.is_empty() {
            fail("suppression needs a reason: `-- <why this site is sound>`".to_string());
            continue;
        }
        // Trailing directive covers its own line; a directive on a
        // comment-only line covers the next line holding code.
        let target = if !view.line(n).code.trim().is_empty() {
            Some(n)
        } else {
            (n + 1..=view.len()).find(|&m| !view.line(m).code.trim().is_empty())
        };
        out.push(Directive {
            line: n,
            target,
            rules: parsed,
            used: false,
        });
    }
    out
}

// ---------------------------------------------------------------------
// The analysis pipeline.
// ---------------------------------------------------------------------

/// One file flowing through the pipeline: raw source plus its lexed
/// view (the symbol index travels in a parallel slice).
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Raw source text.
    pub source: String,
    /// Lexed code/comment view.
    pub view: lexer::FileView,
}

/// Options for [`lint_sources`].
#[derive(Debug, Default, Clone, Copy)]
pub struct AnalyzeOptions {
    /// Run the root-liveness audit (`whitelist-stale`). On for full
    /// workspace scans; off for fixture file sets, where every absent
    /// root file would read as stale.
    pub check_roots: bool,
}

/// Lints a set of in-memory sources as one workspace: per-file rules
/// first, then the cross-file graph and census rules, all matched
/// against the same inline suppression directives.
///
/// `deps` is the transitive Cargo crate-dependency map bounding call
/// resolution (`None` resolves permissively — fixture mode).
pub fn lint_sources(
    sources: Vec<(String, String)>,
    deps: Option<&graph::CrateDeps>,
    opts: AnalyzeOptions,
) -> Report {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut files: Vec<SourceFile> = Vec::new();
    let mut indexes: Vec<index::FileIndex> = Vec::new();
    for (path, source) in sources {
        let view = lexer::scan(&source);
        indexes.push(index::index_file(&path, &view));
        files.push(SourceFile { path, source, view });
    }
    let mut directives: Vec<Vec<Directive>> = files
        .iter()
        .map(|f| parse_directives(&f.path, &f.view, &mut diags))
        .collect();

    // Suppression matcher shared by the per-file and workspace passes.
    let emit = |file_idx: Option<usize>,
                path: &str,
                raw: rules::RawDiag,
                directives: &mut [Vec<Directive>],
                diags: &mut Vec<Diagnostic>| {
        let suppressed = file_idx.is_some_and(|i| {
            directives[i].iter_mut().any(|d| {
                let hit = d.target == Some(raw.line) && d.rules.contains(&raw.rule);
                if hit {
                    d.used = true;
                }
                hit
            })
        });
        if !suppressed {
            diags.push(Diagnostic {
                rule: raw.rule.name(),
                path: path.to_string(),
                line: raw.line,
                message: raw.message,
            });
        }
    };

    for (i, f) in files.iter().enumerate() {
        for raw in rules::check_file(&f.path, &f.view) {
            emit(Some(i), &f.path, raw, &mut directives, &mut diags);
        }
    }
    let mut workspace_diags = graph::check_graph(&indexes, deps, opts.check_roots);
    workspace_diags.extend(census::check_census(&files, &indexes));
    for (path, raw) in workspace_diags {
        let file_idx = files.iter().position(|f| f.path == path);
        emit(file_idx, &path, raw, &mut directives, &mut diags);
    }

    for (i, f) in files.iter().enumerate() {
        for d in directives[i].iter().filter(|d| !d.used) {
            diags.push(Diagnostic {
                rule: SUPPRESSION_RULE,
                path: f.path.clone(),
                line: d.line,
                message: format!(
                    "unused suppression for {}: nothing fires on the covered line — remove it",
                    d.rules
                        .iter()
                        .map(|r| r.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
    }
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Report {
        diagnostics: diags,
        files_scanned: files.len(),
        baseline_suppressed: 0,
    }
}

/// Lints one file's source text under its workspace-relative `path`,
/// running the full pipeline (per-file rules plus whatever workspace
/// rules the single-file set can trigger).
///
/// The path determines rule scopes (crate membership, test status), so
/// fixtures can exercise any scope by choosing a virtual path.
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    lint_sources(
        vec![(path.to_string(), source.to_string())],
        None,
        AnalyzeOptions::default(),
    )
    .diagnostics
}

// ---------------------------------------------------------------------
// Workspace walking.
// ---------------------------------------------------------------------

/// Directories scanned relative to the workspace root.
pub const SCAN_ROOTS: [&str; 3] = ["crates", "src", "tests"];

/// Path components that are never scanned: build output and the lint
/// fixtures (which violate the rules on purpose).
const SKIP_COMPONENTS: [&str; 2] = ["target", "fixtures"];

/// Collects every `.rs` file under the scan roots, as
/// `(relative, absolute)` pairs sorted by relative path — directory
/// iteration order is OS-dependent, and a determinism linter had better
/// report deterministically.
pub fn workspace_files(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            collect_rs(&dir, scan, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, rel: &str, out: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        let child_rel = format!("{rel}/{name}");
        if path.is_dir() {
            if !SKIP_COMPONENTS.contains(&name.as_str()) {
                collect_rs(&path, &child_rel, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push((child_rel, path));
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `root`'s scan roots with the full
/// pipeline: Cargo-bounded call resolution and the root-liveness audit
/// are both on.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let mut sources = Vec::new();
    for (rel, abs) in workspace_files(root)? {
        let source =
            fs::read_to_string(&abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
        sources.push((rel, source));
    }
    let deps = crate_deps(root)?;
    Ok(lint_sources(
        sources,
        Some(&deps),
        AnalyzeOptions { check_roots: true },
    ))
}

/// Parses every `crates/*/Cargo.toml` for intra-workspace `rrq-*`
/// dependencies (the `[dependencies]` section only — dev-deps must not
/// widen the non-test call universe) and closes transitively. Keys and
/// values are crate *dir* names (`core`, `obs`, …).
pub fn crate_deps(root: &Path) -> Result<graph::CrateDeps, String> {
    let mut deps = graph::CrateDeps::new();
    let crates_dir = root.join("crates");
    let entries =
        fs::read_dir(&crates_dir).map_err(|e| format!("read_dir {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", crates_dir.display()))?;
        let manifest = entry.path().join("Cargo.toml");
        let Some(name) = entry.file_name().to_str().map(String::from) else {
            continue;
        };
        if !manifest.is_file() {
            continue;
        }
        let text = fs::read_to_string(&manifest)
            .map_err(|e| format!("read {}: {e}", manifest.display()))?;
        let mut in_deps = false;
        let mut set = BTreeSet::new();
        for line in text.lines() {
            let t = line.trim();
            if t.starts_with('[') {
                in_deps = t == "[dependencies]";
            } else if in_deps {
                if let Some(rest) = t.strip_prefix("rrq-") {
                    let dep: String = rest
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                        .collect();
                    if !dep.is_empty() {
                        set.insert(dep);
                    }
                }
            }
        }
        deps.insert(name, set);
    }
    // Transitive closure, to a fixpoint (the crate DAG is tiny).
    loop {
        let mut grew = false;
        let snapshot = deps.clone();
        for set in deps.values_mut() {
            let indirect: Vec<String> = set
                .iter()
                .filter_map(|d| snapshot.get(d))
                .flatten()
                .filter(|d| !set.contains(*d))
                .cloned()
                .collect();
            if !indirect.is_empty() {
                set.extend(indirect);
                grew = true;
            }
        }
        if !grew {
            return Ok(deps);
        }
    }
}

/// Walks upward from `start` to the first directory that looks like the
/// workspace root (has `Cargo.toml` and a `crates/` directory).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    for _ in 0..8 {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trailing_directive_covers_its_own_line() {
        let src = "use std::collections::HashMap; // rrq-lint: allow(no-hash-iteration) -- test\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn standalone_directive_covers_next_code_line() {
        let src = "\
// rrq-lint: allow(no-hash-iteration) -- exercising the syntax
use std::collections::HashMap;
";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn directive_without_reason_is_an_error() {
        let src = "// rrq-lint: allow(no-hash-iteration)\nuse std::collections::HashMap;\n";
        let diags = lint_source("crates/core/src/x.rs", src);
        assert!(diags.iter().any(|d| d.rule == SUPPRESSION_RULE));
        // The violation itself still fires: a reasonless directive
        // suppresses nothing.
        assert!(diags.iter().any(|d| d.rule == "no-hash-iteration"));
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let src = "// rrq-lint: allow(no-such-rule) -- whatever\nlet x = 1;\n";
        let diags = lint_source("crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unknown rule"));
    }

    #[test]
    fn unused_directive_is_an_error() {
        let src = "// rrq-lint: allow(no-hash-iteration) -- stale\nlet x = 1;\n";
        let diags = lint_source("crates/core/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unused suppression"));
    }

    #[test]
    fn clean_file_is_clean() {
        let src = "#![forbid(unsafe_code)]\npub fn f() -> u32 { 1 }\n";
        assert!(lint_source("crates/core/src/lib.rs", src).is_empty());
    }
}
