//! Fixture-based rule tests: for every rule, one fixture proving it
//! fires (with the expected line numbers) and one proving the inline
//! suppression syntax silences it. Fixtures live under
//! `tests/fixtures/` — a directory the workspace walker skips, since
//! the files violate the rules on purpose — and are linted under
//! *virtual* paths so each one lands in exactly the scope it exercises.

use rrq_lint::{fix, lint_source, lint_sources, AnalyzeOptions, Diagnostic, SUPPRESSION_RULE};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {path}: {e}"))
}

fn lint_fixture(name: &str, virtual_path: &str) -> Vec<Diagnostic> {
    lint_source(virtual_path, &fixture(name))
}

/// Lints several fixtures as one workspace-shaped file set — the
/// cross-file rules (confinement, census, root liveness) need it.
fn lint_fixture_set(files: &[(&str, &str)], check_roots: bool) -> Vec<Diagnostic> {
    lint_sources(
        files
            .iter()
            .map(|(name, vpath)| (vpath.to_string(), fixture(name)))
            .collect(),
        None,
        AnalyzeOptions { check_roots },
    )
    .diagnostics
}

fn lines_of(diags: &[Diagnostic], rule: &str) -> Vec<usize> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

// --- no-hash-iteration ------------------------------------------------

#[test]
fn hash_iteration_fires_in_counter_affecting_crate() {
    let diags = lint_fixture("no_hash_iteration_fire.rs", "crates/core/src/fixture.rs");
    // The import, the signature and the constructor all mention HashMap.
    assert_eq!(lines_of(&diags, "no-hash-iteration"), vec![3, 5, 6]);
    assert_eq!(diags.len(), 3, "no other rule should fire: {diags:?}");
}

#[test]
fn hash_iteration_ignored_outside_scope() {
    // The same source under a non-counter-affecting crate is clean.
    let diags = lint_fixture("no_hash_iteration_fire.rs", "crates/data/src/fixture.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn hash_iteration_suppressions_silence_each_site() {
    let diags = lint_fixture(
        "no_hash_iteration_suppressed.rs",
        "crates/core/src/fixture.rs",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn reverting_the_mpa_btreemap_fix_fails_the_gate() {
    // PR 2's fix replaced MPA's HashMap histogram with BTreeMap; the
    // acceptance criterion is that putting HashMap back trips rule (1).
    let regressed = "use std::collections::HashMap;\n\
                     pub struct RankHistogram { buckets: HashMap<usize, u64> }\n";
    let diags = lint_source("crates/baselines/src/mpa.rs", regressed);
    assert_eq!(lines_of(&diags, "no-hash-iteration"), vec![1, 2]);
}

// --- unsafe-containment -----------------------------------------------

#[test]
fn unsafe_outside_whitelist_fires_even_with_safety_comment() {
    let diags = lint_fixture("unsafe_containment_fire.rs", "crates/types/src/fixture.rs");
    assert_eq!(lines_of(&diags, "unsafe-containment"), vec![7]);
    assert!(diags[0].message.contains("unsafe roots"));
}

#[test]
fn unsafe_suppression_silences_the_site() {
    let diags = lint_fixture(
        "unsafe_containment_suppressed.rs",
        "crates/types/src/fixture.rs",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn whitelisted_unsafe_still_needs_safety_comment() {
    let diags = lint_fixture(
        "unsafe_missing_safety_comment.rs",
        "crates/obs/src/alloc.rs",
    );
    assert_eq!(lines_of(&diags, "unsafe-containment"), vec![5]);
    assert!(diags[0].message.contains("SAFETY"));
}

#[test]
fn crate_root_without_forbid_fires_and_fix_forbid_repairs_it() {
    let source = fixture("forbid_missing.rs");
    let diags = lint_source("crates/types/src/lib.rs", &source);
    assert_eq!(lines_of(&diags, "unsafe-containment"), vec![1]);

    let fixed = fix::insert_forbid(&source).expect("fixture lacks the attribute");
    assert!(fixed.contains("#![forbid(unsafe_code)]"));
    let diags = lint_source("crates/types/src/lib.rs", &fixed);
    assert!(diags.is_empty(), "post-fix lint must be clean: {diags:?}");
}

// --- atomic-ordering-justified ----------------------------------------

#[test]
fn atomic_ordering_fires_outside_whitelist_but_not_on_cmp_ordering() {
    let diags = lint_fixture("atomic_ordering_fire.rs", "crates/core/src/fixture.rs");
    assert_eq!(lines_of(&diags, "atomic-ordering-justified"), vec![6]);
    assert_eq!(diags.len(), 1, "cmp::Ordering must not fire: {diags:?}");
}

#[test]
fn atomic_ordering_suppression_works() {
    let diags = lint_fixture(
        "atomic_ordering_suppressed.rs",
        "crates/core/src/fixture.rs",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn whitelisted_atomics_still_need_ordering_comments() {
    let diags = lint_fixture("atomic_ordering_uncommented.rs", "crates/obs/src/shared.rs");
    assert_eq!(lines_of(&diags, "atomic-ordering-justified"), vec![6]);
    assert!(diags[0].message.contains("ORDERING"));
}

// --- no-wall-clock-in-counters ----------------------------------------

#[test]
fn wall_clock_fires_in_engine_code() {
    let diags = lint_fixture("no_wall_clock_fire.rs", "crates/core/src/fixture.rs");
    assert_eq!(lines_of(&diags, "no-wall-clock-in-counters"), vec![6]);
}

#[test]
fn wall_clock_allowed_in_obs_and_runner() {
    for path in [
        "crates/obs/src/fixture.rs",
        "crates/bench/src/runner.rs",
        "crates/bench/src/loadgen.rs",
        "crates/bench/src/bin/rrq-exp.rs",
    ] {
        let diags = lint_fixture("no_wall_clock_fire.rs", path);
        assert!(diags.is_empty(), "{path}: {diags:?}");
    }
}

#[test]
fn wall_clock_suppression_works() {
    let diags = lint_fixture("no_wall_clock_suppressed.rs", "crates/core/src/fixture.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn wall_clock_confinement_is_per_file_within_bench() {
    // The whitelist names files, not the crate: the same `Instant` read
    // fires in a presentation module but passes in the load generator.
    let diags = lint_fixture("no_wall_clock_bench_fire.rs", "crates/bench/src/table.rs");
    assert_eq!(lines_of(&diags, "no-wall-clock-in-counters"), vec![8]);
    let diags = lint_fixture("no_wall_clock_bench_fire.rs", "crates/bench/src/loadgen.rs");
    assert!(diags.is_empty(), "loadgen is timing code: {diags:?}");
}

#[test]
fn wall_clock_bench_suppression_works() {
    let diags = lint_fixture(
        "no_wall_clock_bench_suppressed.rs",
        "crates/bench/src/table.rs",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// --- no-thread-spawn-outside-par --------------------------------------

#[test]
fn thread_spawn_fires_outside_par_and_runner() {
    let diags = lint_fixture("no_thread_spawn_fire.rs", "crates/baselines/src/fixture.rs");
    assert_eq!(lines_of(&diags, "no-thread-spawn-outside-par"), vec![7, 9]);
}

#[test]
fn thread_spawn_allowed_in_par_and_tests() {
    for path in [
        "crates/core/src/pool.rs",
        "crates/bench/src/runner.rs",
        "crates/core/tests/fixture.rs",
        "tests/fixture.rs",
    ] {
        let diags = lint_fixture("no_thread_spawn_fire.rs", path);
        assert!(
            lines_of(&diags, "no-thread-spawn-outside-par").is_empty(),
            "{path}: {diags:?}"
        );
    }
}

#[test]
fn diy_worker_pool_fires_outside_the_pool_module() {
    let diags = lint_fixture("no_thread_spawn_pool_fire.rs", "crates/obs/src/fixture.rs");
    assert_eq!(lines_of(&diags, "no-thread-spawn-outside-par"), vec![7, 11]);
}

#[test]
fn diy_worker_pool_allowed_inside_the_pool_module() {
    let diags = lint_fixture("no_thread_spawn_pool_fire.rs", "crates/core/src/pool.rs");
    assert!(
        lines_of(&diags, "no-thread-spawn-outside-par").is_empty(),
        "{diags:?}"
    );
}

#[test]
fn diy_worker_pool_suppression_works() {
    let diags = lint_fixture(
        "no_thread_spawn_pool_suppressed.rs",
        "crates/obs/src/fixture.rs",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn thread_spawn_suppression_works() {
    let diags = lint_fixture(
        "no_thread_spawn_suppressed.rs",
        "crates/baselines/src/fixture.rs",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// --- rrq-explain binary confinement -----------------------------------

#[test]
fn explain_binary_is_not_wall_clock_or_thread_whitelisted() {
    // `rrq-explain` compares and renders documents; unlike `rrq-exp` it
    // has no timed sections, so a clock read or a spawned thread there
    // is a bug the gate must catch.
    let diags = lint_fixture("explain_bin_fire.rs", "crates/bench/src/bin/rrq-explain.rs");
    assert_eq!(lines_of(&diags, "no-wall-clock-in-counters"), vec![9]);
    assert_eq!(lines_of(&diags, "no-thread-spawn-outside-par"), vec![11]);
    // The same source under the whitelisted driver binary keeps the
    // thread diagnostic but drops the wall-clock one — the whitelist is
    // per-file, not per-directory.
    let diags = lint_fixture("explain_bin_fire.rs", "crates/bench/src/bin/rrq-exp.rs");
    assert!(
        lines_of(&diags, "no-wall-clock-in-counters").is_empty(),
        "{diags:?}"
    );
    assert_eq!(lines_of(&diags, "no-thread-spawn-outside-par"), vec![11]);
}

#[test]
fn explain_binary_suppressions_silence_both_rules() {
    let diags = lint_fixture(
        "explain_bin_suppressed.rs",
        "crates/bench/src/bin/rrq-explain.rs",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// --- no-unwrap-in-lib -------------------------------------------------

#[test]
fn unwrap_fires_in_lib_but_not_in_cfg_test_mod() {
    let diags = lint_fixture("no_unwrap_fire.rs", "crates/types/src/fixture.rs");
    assert_eq!(lines_of(&diags, "no-unwrap-in-lib"), vec![4, 8]);
}

#[test]
fn unwrap_exempt_in_tests_bins_and_bench_crate() {
    for path in [
        "crates/types/tests/fixture.rs",
        "crates/types/src/bin/fixture.rs",
        "crates/bench/src/experiments/fixture.rs",
        "tests/fixture.rs",
    ] {
        let diags = lint_fixture("no_unwrap_fire.rs", path);
        assert!(
            lines_of(&diags, "no-unwrap-in-lib").is_empty(),
            "{path}: {diags:?}"
        );
    }
}

#[test]
fn unwrap_suppression_works() {
    let diags = lint_fixture("no_unwrap_suppressed.rs", "crates/types/src/fixture.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

// --- seqcst-justified ---------------------------------------------------

#[test]
fn seqcst_fires_in_test_code_where_the_base_atomic_rule_does_not() {
    let diags = lint_fixture("seqcst_justified_fire.rs", "crates/core/tests/fixture.rs");
    assert_eq!(lines_of(&diags, "seqcst-justified"), vec![7]);
    assert!(
        lines_of(&diags, "atomic-ordering-justified").is_empty(),
        "test paths are exempt from the base rule: {diags:?}"
    );
}

#[test]
fn seqcst_suppression_works() {
    let diags = lint_fixture(
        "seqcst_justified_suppressed.rs",
        "crates/core/tests/fixture.rs",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// --- confinement (call-graph) -------------------------------------------

#[test]
fn reachable_wall_clock_fires_with_the_call_chain() {
    let diags = lint_fixture(
        "confinement_wall_clock_fire.rs",
        "crates/core/src/fixture.rs",
    );
    assert_eq!(lines_of(&diags, "confinement-wall-clock"), vec![11]);
    let msg = &diags
        .iter()
        .find(|d| d.rule == "confinement-wall-clock")
        .unwrap()
        .message;
    assert!(msg.contains("Gir::rtk -> helper"), "chain missing: {msg}");
}

#[test]
fn confinement_wall_clock_suppression_works() {
    let diags = lint_fixture(
        "confinement_wall_clock_suppressed.rs",
        "crates/core/src/fixture.rs",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn reachable_thread_spawn_fires_with_the_call_chain() {
    let diags = lint_fixture(
        "confinement_thread_spawn_fire.rs",
        "crates/core/src/fixture.rs",
    );
    assert_eq!(lines_of(&diags, "confinement-thread-spawn"), vec![11]);
    let msg = &diags
        .iter()
        .find(|d| d.rule == "confinement-thread-spawn")
        .unwrap()
        .message;
    assert!(
        msg.contains("ParGir::rkr_batch -> stripe"),
        "chain missing: {msg}"
    );
}

#[test]
fn confinement_thread_spawn_suppression_works() {
    let diags = lint_fixture(
        "confinement_thread_spawn_suppressed.rs",
        "crates/core/src/fixture.rs",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn reachable_unjustified_atomic_fires() {
    let diags = lint_fixture("confinement_atomics_fire.rs", "crates/core/src/fixture.rs");
    assert_eq!(lines_of(&diags, "confinement-atomics"), vec![12]);
    let msg = &diags
        .iter()
        .find(|d| d.rule == "confinement-atomics")
        .unwrap()
        .message;
    assert!(msg.contains("Gir::rkr -> tally"), "chain missing: {msg}");
}

#[test]
fn confinement_atomics_suppression_works() {
    let diags = lint_fixture(
        "confinement_atomics_suppressed.rs",
        "crates/core/src/fixture.rs",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// --- barrier-unwind-guard -----------------------------------------------

#[test]
fn unguarded_rendezvous_fires_but_guarded_one_does_not() {
    let diags = lint_fixture("barrier_unwind_guard_fire.rs", "crates/core/src/pool.rs");
    assert_eq!(lines_of(&diags, "barrier-unwind-guard"), vec![10]);
    assert!(diags[0].message.contains("`unguarded`"), "{diags:?}");
}

#[test]
fn barrier_unwind_guard_suppression_works() {
    let diags = lint_fixture(
        "barrier_unwind_guard_suppressed.rs",
        "crates/core/src/pool.rs",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// --- counter-census -----------------------------------------------------

#[test]
fn deleting_a_field_from_merge_fires_the_census_naming_the_site() {
    let diags = lint_fixture("counter_census_fire.rs", "crates/types/src/metrics.rs");
    assert_eq!(lines_of(&diags, "counter-census"), vec![10]);
    assert!(diags[0].message.contains("`refined`"), "{diags:?}");
    assert!(diags[0].message.contains("`merge`"), "{diags:?}");
}

#[test]
fn counter_census_suppression_works() {
    let diags = lint_fixture(
        "counter_census_suppressed.rs",
        "crates/types/src/metrics.rs",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unmirrored_counter_fires_the_reconcile_cross_check() {
    let diags = lint_fixture_set(
        &[
            (
                "counter_census_metrics_ok.rs",
                "crates/types/src/metrics.rs",
            ),
            (
                "counter_census_reconcile_fire.rs",
                "crates/obs/src/explain.rs",
            ),
        ],
        false,
    );
    assert_eq!(lines_of(&diags, "counter-census"), vec![7]);
    let d = &diags[0];
    assert_eq!(d.path, "crates/obs/src/explain.rs");
    assert!(d.message.contains("`refined`"), "{diags:?}");
    assert!(d.message.contains("reconcile"), "{diags:?}");
}

#[test]
fn reconcile_cross_check_suppression_works() {
    let diags = lint_fixture_set(
        &[
            (
                "counter_census_metrics_ok.rs",
                "crates/types/src/metrics.rs",
            ),
            (
                "counter_census_reconcile_suppressed.rs",
                "crates/obs/src/explain.rs",
            ),
        ],
        false,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn update_counters_missing_from_merge_and_counters_fire_the_census() {
    let diags = lint_fixture(
        "counter_census_update_fire.rs",
        "crates/types/src/metrics.rs",
    );
    assert_eq!(lines_of(&diags, "counter-census"), vec![13, 19]);
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("`tombstones_skipped`") && d.message.contains("`merge`")),
        "{diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("`epoch_published`") && d.message.contains("`counters`")),
        "{diags:?}"
    );
}

#[test]
fn update_counter_census_suppression_works() {
    let diags = lint_fixture(
        "counter_census_update_suppressed.rs",
        "crates/types/src/metrics.rs",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unmirrored_update_counters_fire_the_reconcile_cross_check() {
    let diags = lint_fixture_set(
        &[
            (
                "counter_census_update_metrics_ok.rs",
                "crates/types/src/metrics.rs",
            ),
            (
                "counter_census_update_reconcile_fire.rs",
                "crates/obs/src/explain.rs",
            ),
        ],
        false,
    );
    assert_eq!(lines_of(&diags, "counter-census"), vec![8, 8]);
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("`threshold_rows_repaired`")),
        "{diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("`epoch_published`")),
        "{diags:?}"
    );
}

#[test]
fn update_reconcile_cross_check_suppression_works() {
    let diags = lint_fixture_set(
        &[
            (
                "counter_census_update_metrics_ok.rs",
                "crates/types/src/metrics.rs",
            ),
            (
                "counter_census_update_reconcile_suppressed.rs",
                "crates/obs/src/explain.rs",
            ),
        ],
        false,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// --- whitelist-stale ----------------------------------------------------

#[test]
fn dead_root_file_is_reported_stale() {
    let diags = lint_fixture_set(
        &[("whitelist_stale_fire.rs", "crates/obs/src/alloc.rs")],
        true,
    );
    let alloc: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == "whitelist-stale" && d.path == "crates/obs/src/alloc.rs")
        .collect();
    // alloc.rs is both an unsafe and an atomic-ordering root — a dead
    // file rots both entries.
    assert_eq!(alloc.len(), 2, "{diags:?}");
    assert!(alloc
        .iter()
        .all(|d| d.message.contains("matches no live site")));
}

#[test]
fn whitelist_stale_suppression_works() {
    let diags = lint_fixture_set(
        &[("whitelist_stale_suppressed.rs", "crates/obs/src/alloc.rs")],
        true,
    );
    assert!(
        !diags
            .iter()
            .any(|d| d.rule == "whitelist-stale" && d.path == "crates/obs/src/alloc.rs"),
        "{diags:?}"
    );
    // Roots whose files are absent from the set still fire — stale
    // entries cannot be silenced from a file that no longer exists.
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "whitelist-stale" && d.path == "crates/core/src/pool.rs"),
        "{diags:?}"
    );
}

// --- suppression hygiene ----------------------------------------------

#[test]
fn suppression_reason_is_mandatory_everywhere() {
    let src = "// rrq-lint: allow(no-unwrap-in-lib)\nlet x = y.unwrap();\n";
    let diags = lint_source("crates/types/src/fixture.rs", src);
    assert!(diags.iter().any(|d| d.rule == SUPPRESSION_RULE));
    assert!(diags.iter().any(|d| d.rule == "no-unwrap-in-lib"));
}

#[test]
fn multi_rule_directive_covers_both() {
    let src = "// rrq-lint: allow(no-unwrap-in-lib, no-wall-clock-in-counters) -- fixture\n\
               let x = std::time::Instant::now().elapsed().as_nanos() as u64; let y = z.unwrap();\n";
    let diags = lint_source("crates/types/src/fixture.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}
