//! The rule set: each rule encodes a project invariant that a past bug
//! or standing contract made explicit (DESIGN.md §11 tells each story).
//! Rules match on the comment-free, literal-blanked code view produced
//! by [`crate::lexer`], so nothing fires on doc text or error messages.

use crate::lexer::FileView;

/// How far above a site a justifying `// SAFETY:` / `// ORDERING:`
/// comment may sit (same line always counts).
const COMMENT_WINDOW: usize = 5;

/// The named rules. Order is the reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `HashMap`/`HashSet` banned in counter-affecting crates: their
    /// iteration order is per-process randomised, which broke same-seed
    /// counter determinism in MPA (PR 2). Use `BTreeMap`/`BTreeSet`.
    NoHashIteration,
    /// `unsafe` confined to a whitelist, every site `// SAFETY:`-
    /// commented, every other crate root `#![forbid(unsafe_code)]`.
    UnsafeContainment,
    /// Atomic `Ordering::*` confined to the concurrency cores, every
    /// permitted site `// ORDERING:`-commented (the shared-bound
    /// broadcast contract from PR 3).
    AtomicOrderingJustified,
    /// `Instant::now`/`SystemTime` banned outside the observability
    /// crate and the bench runner's timed sections: counters must be a
    /// pure function of data, query and shard layout.
    NoWallClockInCounters,
    /// Thread spawning confined to the worker pool the parallel engine
    /// runs on and the bench runner's batch striping.
    NoThreadSpawnOutsidePar,
    /// `unwrap()`/`expect("…")` banned in library `src/`; every
    /// intentional panic site carries a suppression with a reason.
    NoUnwrapInLib,
    /// `Ordering::SeqCst` anywhere (tests included) needs an
    /// `// ORDERING:` comment arguing why nothing weaker suffices —
    /// SeqCst is almost always a placeholder for "did not think about
    /// it", and it teaches the wrong idiom even in test code.
    SeqCstJustified,
    /// Call-graph rule: a wall-clock read (`Instant::now`/`SystemTime`)
    /// transitively reachable from the query entry points makes
    /// counters scheduling-dependent. Only `crates/obs` (the sanctioned
    /// instrumentation layer, no-op'd on untraced paths) may sit below
    /// the engine.
    ConfinementWallClock,
    /// Call-graph rule: thread creation reachable from the query entry
    /// points must stay inside the worker pool (`pool.rs`), which the
    /// parallel engine runs its shards on — anything else bypasses the
    /// deterministic sharding/merge discipline.
    ConfinementThreadSpawn,
    /// Call-graph rule: an atomic-ordering site reachable from the
    /// query entry points must be in an ordering-root file *and* carry
    /// its `// ORDERING:` justification — an inline-suppressed atomic
    /// elsewhere may be fine off the query path, but not on it.
    ConfinementAtomics,
    /// Workspace rule: every `QueryStats` field must be booked at every
    /// enumeration site (`merge` destructure, `counters()` export, the
    /// explain `Funnel::reconcile` cross-check or its documented exempt
    /// list) so a new counter cannot silently skip a site.
    CounterCensus,
    /// Workspace rule: every `Barrier`/`EpochSync` rendezvous in the
    /// concurrency cores must sit under a poison/unwind guard (the PR 5
    /// review fix) — a panicking peer must release the rendezvous, not
    /// hang it.
    BarrierUnwindGuard,
    /// Workspace rule: a whitelist (root) entry that matches no current
    /// site is rot and becomes a hard error — the annotated-roots lists
    /// must shrink with the code they describe.
    WhitelistStale,
}

/// Every rule, in reporting order.
pub const ALL_RULES: [Rule; 13] = [
    Rule::NoHashIteration,
    Rule::UnsafeContainment,
    Rule::AtomicOrderingJustified,
    Rule::NoWallClockInCounters,
    Rule::NoThreadSpawnOutsidePar,
    Rule::NoUnwrapInLib,
    Rule::SeqCstJustified,
    Rule::ConfinementWallClock,
    Rule::ConfinementThreadSpawn,
    Rule::ConfinementAtomics,
    Rule::CounterCensus,
    Rule::BarrierUnwindGuard,
    Rule::WhitelistStale,
];

impl Rule {
    /// The kebab-case name used in diagnostics and suppressions.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoHashIteration => "no-hash-iteration",
            Rule::UnsafeContainment => "unsafe-containment",
            Rule::AtomicOrderingJustified => "atomic-ordering-justified",
            Rule::NoWallClockInCounters => "no-wall-clock-in-counters",
            Rule::NoThreadSpawnOutsidePar => "no-thread-spawn-outside-par",
            Rule::NoUnwrapInLib => "no-unwrap-in-lib",
            Rule::SeqCstJustified => "seqcst-justified",
            Rule::ConfinementWallClock => "confinement-wall-clock",
            Rule::ConfinementThreadSpawn => "confinement-thread-spawn",
            Rule::ConfinementAtomics => "confinement-atomics",
            Rule::CounterCensus => "counter-census",
            Rule::BarrierUnwindGuard => "barrier-unwind-guard",
            Rule::WhitelistStale => "whitelist-stale",
        }
    }

    /// One-line description used by the SARIF rule catalogue.
    pub fn description(self) -> &'static str {
        match self {
            Rule::NoHashIteration => {
                "HashMap/HashSet banned in counter-affecting crates (iteration order is \
                 per-process randomised)"
            }
            Rule::UnsafeContainment => {
                "unsafe confined to annotated root files, every site // SAFETY:-commented"
            }
            Rule::AtomicOrderingJustified => {
                "atomic memory orderings confined to the concurrency cores, every site \
                 // ORDERING:-commented"
            }
            Rule::NoWallClockInCounters => {
                "Instant::now/SystemTime reads confined to obs and the bench runner's timed \
                 sections"
            }
            Rule::NoThreadSpawnOutsidePar => {
                "thread creation confined to the worker pool and bench striping"
            }
            Rule::NoUnwrapInLib => "no undocumented panic sites (unwrap/expect) in library code",
            Rule::SeqCstJustified => {
                "Ordering::SeqCst needs an // ORDERING: argument that nothing weaker suffices"
            }
            Rule::ConfinementWallClock => {
                "no wall-clock read transitively reachable from the query entry points"
            }
            Rule::ConfinementThreadSpawn => {
                "no thread creation reachable from the query entry points outside pool.rs"
            }
            Rule::ConfinementAtomics => {
                "no unjustified atomic-ordering site reachable from the query entry points"
            }
            Rule::CounterCensus => {
                "every QueryStats field booked in merge, counters() and Funnel::reconcile"
            }
            Rule::BarrierUnwindGuard => {
                "every barrier/epoch rendezvous sits under a poison/unwind guard"
            }
            Rule::WhitelistStale => "root (whitelist) entries must match at least one live site",
        }
    }

    /// Parses a rule name as written inside `allow(…)`.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }
}

/// A rule hit before suppression handling.
#[derive(Debug, Clone)]
pub struct RawDiag {
    /// Which rule fired.
    pub rule: Rule,
    /// 1-indexed source line.
    pub line: usize,
    /// Human-facing explanation.
    pub message: String,
}

// ---------------------------------------------------------------------
// Path classification. All paths are workspace-relative with `/`
// separators (the walker normalises).
// ---------------------------------------------------------------------

/// Crates whose counters feed the benchmark-diff gate; hash collections
/// are banned anywhere inside them (tests included — flaky assertions
/// are the same bug wearing a different hat).
const HASH_BAN_SCOPES: [&str; 4] = [
    "crates/core/",
    "crates/baselines/",
    "crates/rtree/",
    "crates/bench/src/experiments/",
];

/// What kind of confined construct a [`Root`] entry permits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootKind {
    /// `unsafe` blocks/fns/impls.
    Unsafe,
    /// Atomic memory orderings (`Ordering::Relaxed` … `SeqCst`).
    Ordering,
    /// `Instant::now` / `SystemTime` reads.
    WallClock,
    /// `thread::spawn` / `thread::scope` / `thread::Builder`.
    ThreadSpawn,
}

impl RootKind {
    /// Human name used in stale-root diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            RootKind::Unsafe => "unsafe",
            RootKind::Ordering => "atomic-ordering",
            RootKind::WallClock => "wall-clock",
            RootKind::ThreadSpawn => "thread-spawn",
        }
    }
}

/// One annotated root: a file explicitly allowed to contain a confined
/// construct, with the argument for why. Roots are not a free pass —
/// per-site justification comments still apply, the call-graph
/// confinement pass still forbids reaching most of them from the query
/// entry points, and a root whose file no longer contains a matching
/// site is a hard `whitelist-stale` error.
#[derive(Debug, Clone, Copy)]
pub struct Root {
    /// What the root permits.
    pub kind: RootKind,
    /// Workspace-relative file path.
    pub path: &'static str,
    /// Why this file is allowed to hold such sites.
    pub why: &'static str,
}

/// Every annotated root in the workspace. This is the single source the
/// per-file checks, the call-graph confinement pass and the staleness
/// audit all read.
pub const ROOTS: [Root; 9] = [
    Root {
        kind: RootKind::Unsafe,
        path: "crates/obs/src/alloc.rs",
        why: "the opt-in counting allocator implements GlobalAlloc",
    },
    Root {
        kind: RootKind::Unsafe,
        path: "crates/obs/tests/noop_alloc.rs",
        why: "the allocation-free-path proof needs its own GlobalAlloc",
    },
    Root {
        kind: RootKind::Ordering,
        path: "crates/obs/src/shared.rs",
        why: "the lock-free telemetry registry",
    },
    Root {
        kind: RootKind::Ordering,
        path: "crates/obs/src/alloc.rs",
        why: "the counting allocator's counters",
    },
    Root {
        kind: RootKind::WallClock,
        path: "crates/bench/src/runner.rs",
        why: "the bench runner's timed batch loop",
    },
    Root {
        kind: RootKind::WallClock,
        path: "crates/bench/src/loadgen.rs",
        why: "the load generator's pacing and latency clock",
    },
    Root {
        kind: RootKind::WallClock,
        path: "crates/bench/src/bin/rrq-exp.rs",
        why: "the experiment driver's wall-clock progress reporting",
    },
    Root {
        kind: RootKind::ThreadSpawn,
        path: "crates/core/src/pool.rs",
        why: "the persistent worker pool's long-lived threads",
    },
    Root {
        kind: RootKind::ThreadSpawn,
        path: "crates/bench/src/runner.rs",
        why: "the bench runner's batch striping",
    },
];

/// Whether `path` is an annotated root of the given kind.
pub fn is_root(path: &str, kind: RootKind) -> bool {
    ROOTS.iter().any(|r| r.kind == kind && r.path == path)
}

/// Library crates exempt from `no-unwrap-in-lib` wholesale: the bench
/// harness is driver code (the issue's "tests/benches/bins exempt").
const UNWRAP_EXEMPT_CRATES: [&str; 1] = ["bench"];

fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

pub(crate) fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/") || path.contains("/benches/")
}

fn is_bin_path(path: &str) -> bool {
    path.contains("/src/bin/")
}

fn is_crate_root(path: &str) -> bool {
    if path == "src/lib.rs" {
        return true;
    }
    match path.strip_prefix("crates/") {
        Some(rest) => {
            let mut parts = rest.split('/');
            let _name = parts.next();
            parts.next() == Some("src") && parts.next() == Some("lib.rs") && parts.next().is_none()
        }
        None => false,
    }
}

// ---------------------------------------------------------------------
// Token matching on the code view.
// ---------------------------------------------------------------------

pub(crate) fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Substring search with identifier boundaries on both ends, so
/// `unsafe_code` never matches `unsafe` and `HashMapLike` never matches
/// `HashMap`.
pub(crate) fn has_token(code: &str, token: &str) -> bool {
    find_token(code, token, 0).is_some()
}

pub(crate) fn find_token(code: &str, token: &str, from: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut start = from;
    while let Some(pos) = code.get(start..).and_then(|s| s.find(token)) {
        let i = start + pos;
        let j = i + token.len();
        let before_ok = i == 0 || !is_word_byte(bytes[i - 1]);
        let after_ok = j >= bytes.len() || !is_word_byte(bytes[j]);
        if before_ok && after_ok {
            return Some(i);
        }
        start = i + 1;
    }
    None
}

/// Whether the line uses an *atomic* memory ordering (`Ordering::Relaxed`
/// and friends). `std::cmp::Ordering::Less` etc. deliberately do not
/// match — comparison orderings are everywhere and harmless.
pub(crate) fn has_atomic_ordering(code: &str) -> bool {
    const VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    let mut from = 0;
    while let Some(i) = code.get(from..).and_then(|s| s.find("Ordering::")) {
        let after = from + i + "Ordering::".len();
        let ident: String = code[after..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if VARIANTS.contains(&ident.as_str()) {
            return true;
        }
        from = after;
    }
    false
}

/// `.unwrap()` or `.expect(` with a non-byte argument. The byte-literal
/// carve-out keeps `rrq-obs`'s JSON parser method `self.expect(b'{')`
/// (a `Result`-returning combinator, not `Option::expect`) from firing.
fn has_unwrap_or_expect(code: &str) -> bool {
    if code.contains(".unwrap()") {
        return true;
    }
    let mut from = 0;
    while let Some(i) = code.get(from..).and_then(|s| s.find(".expect(")) {
        let after = from + i + ".expect(".len();
        if !code[after..].starts_with("b'") {
            return true;
        }
        from = after;
    }
    false
}

/// Whether a justifying comment with `marker` (e.g. `SAFETY:`) covers
/// line `number`: same line, or any comment within the window above.
pub(crate) fn has_marker_near(view: &FileView, number: usize, marker: &str) -> bool {
    let lo = number.saturating_sub(COMMENT_WINDOW).max(1);
    (lo..=number).any(|n| view.line(n).comment.contains(marker))
}

// ---------------------------------------------------------------------
// The checks.
// ---------------------------------------------------------------------

/// Runs every rule over one file; returns unsuppressed raw hits.
pub fn check_file(path: &str, view: &FileView) -> Vec<RawDiag> {
    let mut out = Vec::new();
    check_no_hash_iteration(path, view, &mut out);
    check_unsafe_containment(path, view, &mut out);
    check_atomic_ordering(path, view, &mut out);
    check_wall_clock(path, view, &mut out);
    check_thread_spawn(path, view, &mut out);
    check_unwrap(path, view, &mut out);
    check_seqcst(view, &mut out);
    out.sort_by_key(|d| d.line);
    out
}

/// `Ordering::SeqCst` needs its own argument *everywhere*, tests
/// included: in this codebase SeqCst has always turned out to be a
/// placeholder for "did not think about it", and test code teaches the
/// idiom the next non-test site copies.
fn check_seqcst(view: &FileView, out: &mut Vec<RawDiag>) {
    for n in 1..=view.len() {
        let code = &view.line(n).code;
        if has_token(code, "SeqCst")
            && code.contains("Ordering::")
            && !has_marker_near(view, n, "ORDERING:")
        {
            out.push(RawDiag {
                rule: Rule::SeqCstJustified,
                line: n,
                message: "Ordering::SeqCst lacks an // ORDERING: comment arguing why nothing \
                          weaker suffices; downgrade to the weakest correct ordering or justify"
                    .to_string(),
            });
        }
    }
}

fn check_no_hash_iteration(path: &str, view: &FileView, out: &mut Vec<RawDiag>) {
    if !HASH_BAN_SCOPES.iter().any(|s| path.starts_with(s)) {
        return;
    }
    for n in 1..=view.len() {
        let code = &view.line(n).code;
        for ty in ["HashMap", "HashSet"] {
            if has_token(code, ty) {
                out.push(RawDiag {
                    rule: Rule::NoHashIteration,
                    line: n,
                    message: format!(
                        "{ty} has per-process iteration order and breaks same-seed counter \
                         determinism in this crate; use BTree{} instead",
                        &ty[4..]
                    ),
                });
            }
        }
    }
}

fn check_unsafe_containment(path: &str, view: &FileView, out: &mut Vec<RawDiag>) {
    let whitelisted = is_root(path, RootKind::Unsafe);
    if is_crate_root(path)
        && crate_of(path) != Some("obs")
        && !(1..=view.len()).any(|n| view.line(n).code.contains("forbid(unsafe_code)"))
    {
        out.push(RawDiag {
            rule: Rule::UnsafeContainment,
            line: 1,
            message: "crate root must declare #![forbid(unsafe_code)] \
                      (run `rrq-lint --fix-forbid` to insert it)"
                .to_string(),
        });
    }
    for n in 1..=view.len() {
        if !has_token(&view.line(n).code, "unsafe") {
            continue;
        }
        if !whitelisted {
            out.push(RawDiag {
                rule: Rule::UnsafeContainment,
                line: n,
                message: "unsafe code outside the annotated unsafe roots \
                          (crates/obs/src/alloc.rs, crates/obs/tests/noop_alloc.rs)"
                    .to_string(),
            });
        } else if !has_marker_near(view, n, "SAFETY:") {
            out.push(RawDiag {
                rule: Rule::UnsafeContainment,
                line: n,
                message: "unsafe site lacks a justifying // SAFETY: comment \
                          (same line or within 5 lines above)"
                    .to_string(),
            });
        }
    }
}

fn check_atomic_ordering(path: &str, view: &FileView, out: &mut Vec<RawDiag>) {
    if is_test_path(path) {
        return;
    }
    let whitelisted = is_root(path, RootKind::Ordering);
    for n in 1..=view.len() {
        if view.is_test_line(n) || !has_atomic_ordering(&view.line(n).code) {
            continue;
        }
        if !whitelisted {
            out.push(RawDiag {
                rule: Rule::AtomicOrderingJustified,
                line: n,
                message: "atomic memory orderings are confined to crates/obs/src/shared.rs \
                          and crates/obs/src/alloc.rs"
                    .to_string(),
            });
        } else if !has_marker_near(view, n, "ORDERING:") {
            out.push(RawDiag {
                rule: Rule::AtomicOrderingJustified,
                line: n,
                message: "atomic ordering lacks a justifying // ORDERING: comment \
                          (same line or within 5 lines above)"
                    .to_string(),
            });
        }
    }
}

fn check_wall_clock(path: &str, view: &FileView, out: &mut Vec<RawDiag>) {
    if is_test_path(path) || path.starts_with("crates/obs/") || is_root(path, RootKind::WallClock) {
        return;
    }
    for n in 1..=view.len() {
        if view.is_test_line(n) {
            continue;
        }
        let code = &view.line(n).code;
        if code.contains("Instant::now") || has_token(code, "SystemTime") {
            out.push(RawDiag {
                rule: Rule::NoWallClockInCounters,
                line: n,
                message: "wall-clock reads outside crates/obs and the bench runner's timed \
                          sections make counters scheduling-dependent"
                    .to_string(),
            });
        }
    }
}

fn check_thread_spawn(path: &str, view: &FileView, out: &mut Vec<RawDiag>) {
    if is_test_path(path) || is_root(path, RootKind::ThreadSpawn) {
        return;
    }
    for n in 1..=view.len() {
        if view.is_test_line(n) {
            continue;
        }
        let code = &view.line(n).code;
        if has_token(code, "thread::spawn")
            || has_token(code, "thread::scope")
            || has_token(code, "thread::Builder")
        {
            out.push(RawDiag {
                rule: Rule::NoThreadSpawnOutsidePar,
                line: n,
                message: "thread spawning is confined to the worker pool \
                          (crates/core/src/pool.rs) and the bench runner's batch \
                          striping (crates/bench/src/runner.rs)"
                    .to_string(),
            });
        }
    }
}

fn check_unwrap(path: &str, view: &FileView, out: &mut Vec<RawDiag>) {
    let in_lib_src = (path.starts_with("src/") || path.contains("/src/"))
        && !is_bin_path(path)
        && !is_test_path(path);
    if !in_lib_src {
        return;
    }
    if let Some(name) = crate_of(path) {
        if UNWRAP_EXEMPT_CRATES.contains(&name) {
            return;
        }
    }
    for n in 1..=view.len() {
        if view.is_test_line(n) {
            continue;
        }
        if has_unwrap_or_expect(&view.line(n).code) {
            out.push(RawDiag {
                rule: Rule::NoUnwrapInLib,
                line: n,
                message: "unwrap()/expect() in library code is an undocumented panic site; \
                          return an error, or suppress with a reason if the panic is the \
                          designed behaviour"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_boundaries() {
        assert!(has_token("use std::collections::HashMap;", "HashMap"));
        assert!(!has_token("forbid(unsafe_code)", "unsafe"));
        assert!(!has_token("HashMapLike", "HashMap"));
        assert!(has_token("unsafe impl Foo {}", "unsafe"));
    }

    #[test]
    fn atomic_vs_cmp_ordering() {
        assert!(has_atomic_ordering("x.load(Ordering::Relaxed)"));
        assert!(has_atomic_ordering("std::sync::atomic::Ordering::SeqCst"));
        assert!(!has_atomic_ordering("Ordering::Less.then(Ordering::Equal)"));
        assert!(!has_atomic_ordering("use std::sync::atomic::Ordering;"));
    }

    #[test]
    fn expect_byte_combinator_is_not_option_expect() {
        assert!(has_unwrap_or_expect("x.expect(\"msg\")"));
        assert!(has_unwrap_or_expect("x.unwrap()"));
        assert!(!has_unwrap_or_expect("self.expect(b'{')?"));
        assert!(!has_unwrap_or_expect("x.unwrap_or(3)"));
    }

    #[test]
    fn crate_root_detection() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/core/src/lib.rs"));
        assert!(!is_crate_root("crates/core/src/gir.rs"));
        assert!(!is_crate_root("crates/core/src/deep/lib.rs"));
    }
}
