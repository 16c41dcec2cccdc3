//! Call-graph confinement: links the per-file [`crate::index`] output
//! into a workspace symbol graph and walks it from the query entry
//! points (`Gir::rtk`/`rkr`, the `ParGir` engine, `WorkerPool` job
//! bodies). Any fn transitively reachable from an entry point must not
//! reach a wall-clock read, a thread spawn outside the worker pool, or
//! an unjustified atomic — and the diagnostic prints the offending
//! call chain hop by hop, which is what the per-file path whitelists
//! could never do.
//!
//! Resolution is deliberately over-approximate (a method call resolves
//! to every impl method of that name in the caller's crate universe)
//! but bounded by the Cargo dependency graph: a call in `rrq-core`
//! can only resolve into crates `rrq-core` actually depends on, so the
//! bench runner's timing loops never produce false chains.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::index::{CallKind, FileIndex, FnItem, SiteKind};
use crate::rules::{is_root, RawDiag, RootKind, Rule, ROOTS};

/// Transitive crate-dependency map: crate dir name (`core`, `obs`, …)
/// to the set of crate dirs it may call into (itself excluded; the
/// resolver always allows same-crate edges). `None` means "no Cargo
/// metadata available" (fixture runs) and resolves permissively.
pub type CrateDeps = BTreeMap<String, BTreeSet<String>>;

/// Files where a barrier/epoch rendezvous is expected and checked.
const RENDEZVOUS_FILES: [&str; 2] = ["crates/core/src/pool.rs", "crates/core/src/par.rs"];

/// Types whose own methods *implement* the rendezvous machinery and its
/// guards — their internal waits are the mechanism, not a use of it.
const RENDEZVOUS_TYPES: [&str; 2] = ["EpochSync", "EpochPanicGuard"];

/// Files whose thread creation is sanctioned on the query path.
const SPAWN_CONFINED: [&str; 1] = ["crates/core/src/pool.rs"];

/// Runs every workspace (cross-file) graph rule. Returns diagnostics as
/// `(path, raw diag)` pairs. `check_roots` enables the root-liveness
/// audit, which only makes sense on a full workspace scan.
pub fn check_graph(
    files: &[FileIndex],
    deps: Option<&CrateDeps>,
    check_roots: bool,
) -> Vec<(String, RawDiag)> {
    let graph = Graph::new(files, deps);
    let mut out = Vec::new();
    graph.check_confinement(&mut out);
    check_barrier_guards(files, &mut out);
    if check_roots {
        check_root_liveness(files, &mut out);
    }
    out
}

/// `(file index, fn index)` — one node of the call graph.
type FnRef = (usize, usize);

struct Graph<'a> {
    files: &'a [FileIndex],
    deps: Option<&'a CrateDeps>,
    /// Every non-test fn by name.
    by_name: BTreeMap<&'a str, Vec<FnRef>>,
    /// Every non-test impl method by name.
    methods: BTreeMap<&'a str, Vec<FnRef>>,
    /// Every non-test impl method by (self type, name).
    typed: BTreeMap<(&'a str, &'a str), Vec<FnRef>>,
}

/// Crate dir of a workspace-relative path (`""` for the root crate).
fn crate_of_path(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// File stem (`pool` for `crates/core/src/pool.rs`), for resolving
/// module-qualified calls like `pool::worker_loop(…)`.
fn stem_of(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs")
}

/// Maps a `use` head segment to a workspace crate dir, when it is one.
fn head_to_crate<'a>(head: &'a str, caller_crate: &'a str) -> Option<&'a str> {
    match head {
        "crate" | "self" | "super" => Some(caller_crate),
        _ => head.strip_prefix("rrq_"),
    }
}

impl<'a> Graph<'a> {
    fn new(files: &'a [FileIndex], deps: Option<&'a CrateDeps>) -> Self {
        let mut by_name: BTreeMap<&str, Vec<FnRef>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<FnRef>> = BTreeMap::new();
        let mut typed: BTreeMap<(&str, &str), Vec<FnRef>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (fx, f) in file.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                by_name.entry(&f.name).or_default().push((fi, fx));
                if let Some(t) = &f.self_type {
                    methods.entry(&f.name).or_default().push((fi, fx));
                    typed.entry((t, &f.name)).or_default().push((fi, fx));
                }
            }
        }
        Graph {
            files,
            deps,
            by_name,
            methods,
            typed,
        }
    }

    /// Whether a fn in `target_crate` is callable from `caller_crate`.
    fn visible(&self, caller_crate: &str, target_crate: &str) -> bool {
        if caller_crate == target_crate {
            return true;
        }
        match self.deps {
            None => true,
            Some(map) => match map.get(caller_crate) {
                Some(set) => set.contains(target_crate),
                None => true,
            },
        }
    }

    fn named_in_crate(&self, name: &str, krate: &str) -> Vec<FnRef> {
        self.by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&(fi, _)| crate_of_path(&self.files[fi].path) == krate)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Resolves one call to its possible workspace targets.
    fn resolve(&self, fi: usize, caller: &FnItem, call: &crate::index::Call) -> Vec<FnRef> {
        let file = &self.files[fi];
        let caller_crate = crate_of_path(&file.path);
        let filter_visible = |v: &[FnRef]| -> Vec<FnRef> {
            v.iter()
                .copied()
                .filter(|&(tfi, _)| {
                    self.visible(caller_crate, crate_of_path(&self.files[tfi].path))
                })
                .collect()
        };
        match call.kind {
            CallKind::Bare => {
                // Same file first (innermost plausible scope) …
                let local: Vec<FnRef> = self
                    .by_name
                    .get(call.name.as_str())
                    .map(|v| v.iter().copied().filter(|&(tfi, _)| tfi == fi).collect())
                    .unwrap_or_default();
                if !local.is_empty() {
                    return local;
                }
                // … then an explicit import …
                if let Some((_, head)) = file.imports.iter().find(|(leaf, _)| leaf == &call.name) {
                    return match head_to_crate(head, caller_crate) {
                        Some(d) if self.visible(caller_crate, d) => {
                            self.named_in_crate(&call.name, d)
                        }
                        _ => Vec::new(), // std/external import
                    };
                }
                // … then anywhere in the caller's crate.
                self.named_in_crate(&call.name, caller_crate)
            }
            CallKind::Method => self
                .methods
                .get(call.name.as_str())
                .map(|v| filter_visible(v))
                .unwrap_or_default(),
            CallKind::Qualified => {
                let q = match call.qualifier.as_deref() {
                    // Turbofish (`Vec::<u8>::new(…)`): qualifier lost,
                    // fall back to method-name resolution.
                    None => {
                        return self
                            .methods
                            .get(call.name.as_str())
                            .map(|v| filter_visible(v))
                            .unwrap_or_default();
                    }
                    Some("Self") => match caller.self_type.as_deref() {
                        Some(t) => t,
                        None => return Vec::new(),
                    },
                    Some("crate") | Some("self") | Some("super") => {
                        return self.named_in_crate(&call.name, caller_crate);
                    }
                    Some(q) => q,
                };
                let mut targets: Vec<FnRef> = self
                    .typed
                    .get(&(q, call.name.as_str()))
                    .map(|v| filter_visible(v))
                    .unwrap_or_default();
                // Module-qualified free fns: `pool::worker_loop(…)`.
                if let Some(v) = self.by_name.get(call.name.as_str()) {
                    targets.extend(v.iter().copied().filter(|&(tfi, _)| {
                        stem_of(&self.files[tfi].path) == q
                            && self.visible(caller_crate, crate_of_path(&self.files[tfi].path))
                    }));
                }
                targets.sort_unstable();
                targets.dedup();
                targets
            }
        }
    }

    /// Whether `(file, fn)` is a query entry point.
    fn is_entry(&self, fi: usize, f: &FnItem) -> bool {
        if f.is_test {
            return false;
        }
        if let Some(t) = f.self_type.as_deref() {
            if (t == "Gir" || t == "ParGir")
                && (f.name.starts_with("rtk")
                    || f.name.starts_with("rkr")
                    || f.name.starts_with("reverse_"))
            {
                return true;
            }
        }
        self.files[fi].path == "crates/core/src/pool.rs"
            && matches!(f.name.as_str(), "worker_loop" | "run" | "submit")
    }

    fn display(&self, (fi, fx): FnRef) -> String {
        let f = &self.files[fi].fns[fx];
        match &f.self_type {
            Some(t) => format!("{t}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// Multi-source BFS from the entry points; every reached fn's sites
    /// are checked against the confinement policy, and violations carry
    /// the full entry-to-site call chain.
    fn check_confinement(&self, out: &mut Vec<(String, RawDiag)>) {
        let mut parent: BTreeMap<FnRef, Option<FnRef>> = BTreeMap::new();
        let mut queue: VecDeque<FnRef> = VecDeque::new();
        for (fi, file) in self.files.iter().enumerate() {
            for (fx, f) in file.fns.iter().enumerate() {
                if self.is_entry(fi, f) {
                    parent.insert((fi, fx), None);
                    queue.push_back((fi, fx));
                }
            }
        }
        while let Some(cur) = queue.pop_front() {
            let (fi, fx) = cur;
            let caller = &self.files[fi].fns[fx];
            for call in &caller.calls {
                for tgt in self.resolve(fi, caller, call) {
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(tgt) {
                        e.insert(Some(cur));
                        queue.push_back(tgt);
                    }
                }
            }
        }

        for &(fi, fx) in parent.keys() {
            let file = &self.files[fi];
            for site in &file.sites {
                if site.is_test || file.enclosing_fn(site.line) != Some(fx) {
                    continue;
                }
                let (rule, allowed, what) = match site.kind {
                    SiteKind::WallClock => (
                        Rule::ConfinementWallClock,
                        file.path.starts_with("crates/obs/"),
                        "wall-clock read",
                    ),
                    SiteKind::ThreadSpawn => (
                        Rule::ConfinementThreadSpawn,
                        SPAWN_CONFINED.contains(&file.path.as_str()),
                        "thread creation",
                    ),
                    SiteKind::Atomic => (
                        Rule::ConfinementAtomics,
                        is_root(&file.path, RootKind::Ordering) && site.justified,
                        "unjustified or unconfined atomic-ordering site",
                    ),
                    // SeqCst and unsafe have their own per-file rules.
                    _ => continue,
                };
                if allowed {
                    continue;
                }
                let chain = self.chain(&parent, (fi, fx));
                out.push((
                    file.path.clone(),
                    RawDiag {
                        rule,
                        line: site.line,
                        message: format!(
                            "{what} reachable from the query entry points via {chain}"
                        ),
                    },
                ));
            }
        }
    }

    /// Reconstructs the entry-to-fn call chain for a diagnostic.
    fn chain(&self, parent: &BTreeMap<FnRef, Option<FnRef>>, mut cur: FnRef) -> String {
        let mut hops = vec![self.display(cur)];
        while let Some(Some(p)) = parent.get(&cur) {
            cur = *p;
            hops.push(self.display(cur));
        }
        hops.reverse();
        hops.join(" -> ")
    }
}

/// Every barrier/epoch rendezvous in the concurrency cores must sit
/// under an armed unwind guard (the PR 5 review fix): a peer that
/// panics mid-epoch must poison the barrier, not hang it. Methods *of*
/// the rendezvous types are the mechanism itself and exempt.
fn check_barrier_guards(files: &[FileIndex], out: &mut Vec<(String, RawDiag)>) {
    for file in files {
        if !RENDEZVOUS_FILES.contains(&file.path.as_str()) {
            continue;
        }
        for f in &file.fns {
            if f.is_test
                || f.self_type
                    .as_deref()
                    .is_some_and(|t| RENDEZVOUS_TYPES.contains(&t))
            {
                continue;
            }
            for call in &f.calls {
                let is_rendezvous = call.kind == CallKind::Method
                    && (call.name == "exchange"
                        || (call.name == "wait"
                            && call
                                .receiver
                                .as_deref()
                                .is_some_and(|r| r.to_ascii_lowercase().contains("barrier"))));
                if !is_rendezvous {
                    continue;
                }
                let guarded = f
                    .calls
                    .iter()
                    .any(|c| c.name == "panic_guard" && c.line <= call.line);
                if !guarded {
                    out.push((
                        file.path.clone(),
                        RawDiag {
                            rule: Rule::BarrierUnwindGuard,
                            line: call.line,
                            message: format!(
                                "rendezvous `{}` in `{}` has no armed unwind guard; a \
                                 panicking peer would hang the barrier — arm \
                                 `sync.panic_guard()` before the first exchange",
                                call.name, f.name
                            ),
                        },
                    ));
                }
            }
        }
    }
}

/// A root (whitelist) entry that matches no live site is rot: the lists
/// must shrink with the code they describe.
fn check_root_liveness(files: &[FileIndex], out: &mut Vec<(String, RawDiag)>) {
    for root in &ROOTS {
        let Some(file) = files.iter().find(|f| f.path == root.path) else {
            out.push((
                root.path.to_string(),
                RawDiag {
                    rule: Rule::WhitelistStale,
                    line: 1,
                    message: format!(
                        "{} root entry names {}, which is not in the workspace scan; \
                         remove the stale entry from rules::ROOTS",
                        root.kind.label(),
                        root.path
                    ),
                },
            ));
            continue;
        };
        let live = file.sites.iter().any(|s| match root.kind {
            RootKind::Unsafe => s.kind == SiteKind::Unsafe,
            RootKind::Ordering => s.kind == SiteKind::Atomic && !s.is_test,
            RootKind::WallClock => s.kind == SiteKind::WallClock && !s.is_test,
            RootKind::ThreadSpawn => s.kind == SiteKind::ThreadSpawn && !s.is_test,
        });
        if !live {
            out.push((
                root.path.to_string(),
                RawDiag {
                    rule: Rule::WhitelistStale,
                    line: 1,
                    message: format!(
                        "{} root entry for {} matches no live site; remove the stale \
                         entry from rules::ROOTS",
                        root.kind.label(),
                        root.path
                    ),
                },
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::index_file;
    use crate::lexer::scan;

    fn indexes(files: &[(&str, &str)]) -> Vec<FileIndex> {
        files.iter().map(|(p, s)| index_file(p, &scan(s))).collect()
    }

    #[test]
    fn wall_clock_reached_through_helper_is_flagged_with_chain() {
        let files = indexes(&[(
            "crates/core/src/gir.rs",
            "impl Gir {\n    pub fn rtk(&self) {\n        helper();\n    }\n}\n\
                 fn helper() {\n    let t = std::time::Instant::now();\n}\n",
        )]);
        let diags = check_graph(&files, None, false);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].1.rule, Rule::ConfinementWallClock);
        assert!(
            diags[0].1.message.contains("Gir::rtk -> helper"),
            "{}",
            diags[0].1.message
        );
    }

    #[test]
    fn unreachable_site_is_not_flagged() {
        let files = indexes(&[(
            "crates/core/src/gir.rs",
            "impl Gir {\n    pub fn rtk(&self) {}\n}\n\
                 fn unrelated() {\n    let t = std::time::Instant::now();\n}\n",
        )]);
        assert!(check_graph(&files, None, false).is_empty());
    }

    #[test]
    fn dep_universe_blocks_cross_crate_false_edges() {
        // `run` exists in bench (with a clock), but core does not depend
        // on bench, so `pool.rs`'s bare `run(…)` must not resolve there.
        let files = indexes(&[
            (
                "crates/core/src/pool.rs",
                "pub fn submit() {\n    run();\n}\npub fn run() {}\n",
            ),
            (
                "crates/bench/src/runner.rs",
                "pub fn run() {\n    let t = std::time::Instant::now();\n}\n",
            ),
        ]);
        let mut deps = CrateDeps::new();
        deps.insert(
            "core".into(),
            ["types", "obs"].iter().map(|s| s.to_string()).collect(),
        );
        let diags = check_graph(&files, Some(&deps), false);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unguarded_exchange_fires_and_guarded_does_not() {
        let files = indexes(&[(
            "crates/core/src/par.rs",
            "fn good(sync: &EpochSync) {\n    let _g = sync.panic_guard();\n    \
             sync.exchange(1, 2, false);\n}\n\
             fn bad(sync: &EpochSync) {\n    sync.exchange(1, 2, false);\n}\n",
        )]);
        let diags = check_graph(&files, None, false);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].1.rule, Rule::BarrierUnwindGuard);
        assert!(diags[0].1.message.contains("`bad`"));
    }

    #[test]
    fn stale_root_is_reported_when_enabled() {
        let files = indexes(&[("crates/core/src/lib.rs", "fn f() {}\n")]);
        let diags = check_graph(&files, None, true);
        assert!(diags
            .iter()
            .any(|(p, d)| { d.rule == Rule::WhitelistStale && p == "crates/obs/src/alloc.rs" }));
    }
}
