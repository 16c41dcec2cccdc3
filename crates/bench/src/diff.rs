//! The `rrq-benchdiff` engine: compare two `BENCH_<exp>.json` documents
//! (or a baseline directory against a fresh run), classify every metric
//! delta against configurable thresholds, and render a markdown report.
//!
//! The paper's claim is a *CPU cost model* — GIR wins by trading
//! multiplications for look-ups and additions — so the gate treats the
//! machine-independent counters as the ground truth (default tolerance:
//! zero; identical seeds must reproduce identical counters), wall-clock
//! tail latency as a softer signal (machine-dependent, default 25 %),
//! and `alloc_*` heap metrics in between (default 10 %). Lower is better
//! for every compared metric.

use rrq_obs::{AlgoMetrics, ExperimentMetrics};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Regression tolerances, in percent growth over the baseline. An
/// infinite threshold turns the class into informational rows that can
/// never fail the gate.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Machine-independent `QueryStats` counters (multiplications,
    /// bound additions, node/leaf accesses, ...). Default 0.0: with the
    /// same seed and configuration they must reproduce exactly.
    pub counter_pct: f64,
    /// Latency percentiles p50/p90/p99. Default 25.0 — wall time is
    /// machine-dependent; same-machine regressions beyond a quarter are
    /// flagged.
    pub latency_pct: f64,
    /// `alloc_total_bytes` / `alloc_peak_bytes` (present when the run
    /// was made with the `alloc-track` feature). Default 10.0.
    pub mem_pct: f64,
    /// Scheduling-dependent `sched_*` counters emitted by the load
    /// generator (achieved rate, sampler ticks, ...). These depend on
    /// wall-clock scheduling, not the algorithm, so the default is
    /// infinite: reported for information, never gated. This is what
    /// keeps same-seed loadgen runs benchdiff-exact on the *algorithmic*
    /// counters while still carrying their time-series-derived stats.
    pub timing_pct: f64,
    /// Whether a configuration mismatch between the two documents
    /// (different cardinalities, k, seed, ...) fails the diff. Default
    /// true: deltas between different workloads are meaningless.
    pub config_must_match: bool,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self {
            counter_pct: 0.0,
            latency_pct: 25.0,
            mem_pct: 10.0,
            timing_pct: f64::INFINITY,
            config_must_match: true,
        }
    }
}

/// What a metric's delta means under the thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within tolerance.
    Ok,
    /// Grew beyond the threshold — fails the gate.
    Regressed,
    /// Shrank beyond the threshold — reported, never failing.
    Improved,
    /// Compared for information only (infinite threshold, or the metric
    /// exists on one side only).
    Info,
}

/// Metric class, deciding the threshold and the rendering unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Machine-independent counter (unitless count).
    Counter,
    /// Latency value in nanoseconds.
    Latency,
    /// Heap bytes.
    Memory,
    /// Scheduling-dependent `sched_*` counter (unitless count, own
    /// threshold, informational by default).
    Timing,
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Metric name, e.g. `multiplications` or `latency_p99`.
    pub name: String,
    /// Unit/threshold class.
    pub class: MetricClass,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Growth in percent (`None` when the baseline is zero).
    pub delta_pct: Option<f64>,
    /// Verdict under the thresholds.
    pub status: Status,
}

/// Diff of one (algorithm, query kind, label) cell.
#[derive(Debug, Clone)]
pub struct RunDiff {
    /// Algorithm display name.
    pub algorithm: String,
    /// `"rtk"` or `"rkr"`.
    pub query_kind: String,
    /// Configuration label within the experiment.
    pub label: String,
    /// 0-based occurrence index among runs sharing the same
    /// (algorithm, kind, label) key — experiments that sweep a parameter
    /// without labelling produce duplicates; runs are then matched
    /// positionally so the Nth baseline sweep point meets the Nth
    /// current one.
    pub ordinal: usize,
    /// Compared metrics, exporter order.
    pub metrics: Vec<MetricDelta>,
    /// Structural problems (e.g. differing query counts) that make the
    /// numeric deltas unreliable. Non-empty notes fail the gate.
    pub notes: Vec<String>,
}

impl RunDiff {
    fn key(&self) -> String {
        run_key(&self.algorithm, &self.query_kind, &self.label, self.ordinal)
    }
}

fn run_key(algorithm: &str, kind: &str, label: &str, ordinal: usize) -> String {
    let mut key = if label.is_empty() {
        format!("{algorithm} ({kind})")
    } else {
        format!("{algorithm} ({kind}) [{label}]")
    };
    if ordinal > 0 {
        key.push_str(&format!(" #{}", ordinal + 1));
    }
    key
}

fn same_key(a: &AlgoMetrics, b: &AlgoMetrics) -> bool {
    a.algorithm == b.algorithm && a.query_kind == b.query_kind && a.label == b.label
}

/// Diff of one experiment document pair.
#[derive(Debug, Clone)]
pub struct ExpDiff {
    /// Experiment id.
    pub experiment: String,
    /// Config keys whose values differ (key, baseline, current).
    pub config_mismatches: Vec<(String, String, String)>,
    /// Per-run comparisons, baseline order.
    pub runs: Vec<RunDiff>,
    /// Baseline runs with no counterpart in the current document —
    /// coverage shrank, which fails the gate.
    pub missing_runs: Vec<String>,
    /// Current runs with no baseline counterpart (new coverage; fine).
    pub added_runs: Vec<String>,
}

/// The full report over one or more experiment pairs.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// One entry per compared experiment.
    pub experiments: Vec<ExpDiff>,
    /// Whether config mismatches fail the gate (from [`Thresholds`]).
    pub config_must_match: bool,
}

fn classify(name: &str) -> MetricClass {
    if name.starts_with("alloc_") {
        MetricClass::Memory
    } else if name.starts_with("sched_") {
        MetricClass::Timing
    } else {
        MetricClass::Counter
    }
}

fn compare(name: &str, class: MetricClass, baseline: f64, current: f64, pct: f64) -> MetricDelta {
    let delta_pct = (baseline != 0.0).then(|| (current - baseline) / baseline * 100.0);
    let status = if pct.is_infinite() {
        Status::Info
    } else if current > baseline && (baseline == 0.0 || current > baseline * (1.0 + pct / 100.0)) {
        Status::Regressed
    } else if baseline > current && baseline * (1.0 - pct / 100.0) > current {
        Status::Improved
    } else {
        Status::Ok
    };
    MetricDelta {
        name: name.to_string(),
        class,
        baseline,
        current,
        delta_pct,
        status,
    }
}

fn diff_run(base: &AlgoMetrics, cur: &AlgoMetrics, ordinal: usize, th: &Thresholds) -> RunDiff {
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    if base.queries != cur.queries {
        notes.push(format!(
            "query count differs: baseline {} vs current {} — deltas unreliable",
            base.queries, cur.queries
        ));
    }
    for (name, bval) in &base.counters {
        match cur.counter(name) {
            Some(cval) => {
                let class = classify(name);
                let pct = match class {
                    MetricClass::Memory => th.mem_pct,
                    MetricClass::Timing => th.timing_pct,
                    _ => th.counter_pct,
                };
                metrics.push(compare(name, class, *bval as f64, cval as f64, pct));
            }
            None => {
                // A counter that vanished is informational: exporters may
                // gain/lose optional metrics (e.g. alloc-track on/off).
                let mut m = compare(name, classify(name), *bval as f64, 0.0, f64::INFINITY);
                m.status = Status::Info;
                metrics.push(m);
            }
        }
    }
    // A counter the baseline never recorded would stay ungated for good,
    // so it fails until the baseline is refreshed. `alloc_*` and
    // `sched_*` stay informational: exporters gain them optionally.
    if th.counter_pct.is_finite() {
        for (name, cval) in &cur.counters {
            if classify(name) == MetricClass::Counter && base.counter(name).is_none() {
                notes.push(format!(
                    "counter {name} = {cval} is missing from the baseline — refresh it"
                ));
            }
        }
    }
    if let (Some(b), Some(c)) = (&base.latency, &cur.latency) {
        for (name, bv, cv) in [
            ("latency_p50", b.p50_ns, c.p50_ns),
            ("latency_p90", b.p90_ns, c.p90_ns),
            ("latency_p99", b.p99_ns, c.p99_ns),
            ("latency_p999", b.p999_ns, c.p999_ns),
        ] {
            metrics.push(compare(
                name,
                MetricClass::Latency,
                bv as f64,
                cv as f64,
                th.latency_pct,
            ));
        }
    }
    RunDiff {
        algorithm: base.algorithm.clone(),
        query_kind: base.query_kind.clone(),
        label: base.label.clone(),
        ordinal,
        metrics,
        notes,
    }
}

/// Compares two experiment documents.
pub fn diff_experiments(
    base: &ExperimentMetrics,
    cur: &ExperimentMetrics,
    th: &Thresholds,
) -> ExpDiff {
    let mut config_mismatches = Vec::new();
    for (key, bval) in &base.config {
        let cval = cur
            .config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| "<absent>".to_string());
        if *bval != cval {
            config_mismatches.push((key.clone(), bval.clone(), cval));
        }
    }

    let mut runs = Vec::new();
    let mut missing_runs = Vec::new();
    for (i, brun) in base.runs.iter().enumerate() {
        let ordinal = base.runs[..i].iter().filter(|r| same_key(r, brun)).count();
        let matching = cur.runs.iter().filter(|c| same_key(c, brun)).nth(ordinal);
        match matching {
            Some(crun) => runs.push(diff_run(brun, crun, ordinal, th)),
            None => missing_runs.push(run_key(
                &brun.algorithm,
                &brun.query_kind,
                &brun.label,
                ordinal,
            )),
        }
    }
    let added_runs = cur
        .runs
        .iter()
        .enumerate()
        .filter(|(j, crun)| {
            let ordinal = cur.runs[..*j].iter().filter(|r| same_key(r, crun)).count();
            base.runs.iter().filter(|b| same_key(b, crun)).count() <= ordinal
        })
        .map(|(j, crun)| {
            let ordinal = cur.runs[..j].iter().filter(|r| same_key(r, crun)).count();
            run_key(&crun.algorithm, &crun.query_kind, &crun.label, ordinal)
        })
        .collect();

    ExpDiff {
        experiment: base.experiment.clone(),
        config_mismatches,
        runs,
        missing_runs,
        added_runs,
    }
}

impl ExpDiff {
    /// Whether this experiment pair fails the gate.
    pub fn has_regressions(&self, config_must_match: bool) -> bool {
        (config_must_match && !self.config_mismatches.is_empty())
            || !self.missing_runs.is_empty()
            || self.runs.iter().any(|r| {
                !r.notes.is_empty() || r.metrics.iter().any(|m| m.status == Status::Regressed)
            })
    }
}

impl DiffReport {
    /// Builds a report over pre-loaded document pairs.
    pub fn build(pairs: &[(ExperimentMetrics, ExperimentMetrics)], th: &Thresholds) -> DiffReport {
        DiffReport {
            experiments: pairs
                .iter()
                .map(|(b, c)| diff_experiments(b, c, th))
                .collect(),
            config_must_match: th.config_must_match,
        }
    }

    /// Whether anything in the report fails the gate.
    pub fn has_regressions(&self) -> bool {
        self.experiments
            .iter()
            .any(|e| e.has_regressions(self.config_must_match))
    }

    /// Everything that fails the gate: regressed metrics plus blocking
    /// mismatches (config diffs, missing runs, per-run notes), so the
    /// count is non-zero whenever [`Self::has_regressions`] is true.
    pub fn regression_count(&self) -> usize {
        self.experiments
            .iter()
            .map(|e| {
                let blocking_config = if self.config_must_match {
                    e.config_mismatches.len()
                } else {
                    0
                };
                blocking_config
                    + e.missing_runs.len()
                    + e.runs
                        .iter()
                        .map(|r| {
                            r.notes.len()
                                + r.metrics
                                    .iter()
                                    .filter(|m| m.status == Status::Regressed)
                                    .count()
                        })
                        .sum::<usize>()
            })
            .sum()
    }

    /// Renders the whole report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let verdict = if self.has_regressions() {
            "**REGRESSED**"
        } else {
            "clean"
        };
        let _ = writeln!(out, "# rrq-benchdiff: {verdict}\n");
        for exp in &self.experiments {
            let _ = writeln!(out, "## {}\n", exp.experiment);
            if !exp.config_mismatches.is_empty() {
                let blocking = if self.config_must_match {
                    " (failing: deltas between different workloads are meaningless)"
                } else {
                    ""
                };
                let _ = writeln!(out, "Configuration mismatch{blocking}:\n");
                for (k, b, c) in &exp.config_mismatches {
                    let _ = writeln!(out, "- `{k}`: baseline `{b}` vs current `{c}`");
                }
                let _ = writeln!(out);
            }
            for key in &exp.missing_runs {
                let _ = writeln!(out, "- **missing in current run:** {key}");
            }
            for key in &exp.added_runs {
                let _ = writeln!(out, "- new in current run (not compared): {key}");
            }
            if !exp.missing_runs.is_empty() || !exp.added_runs.is_empty() {
                let _ = writeln!(out);
            }
            for run in &exp.runs {
                let _ = writeln!(out, "### {}\n", run.key());
                for note in &run.notes {
                    let _ = writeln!(out, "- **{note}**");
                }
                let _ = writeln!(out, "| metric | baseline | current | delta | status |");
                let _ = writeln!(out, "|---|---:|---:|---:|---|");
                for m in &run.metrics {
                    let _ = writeln!(
                        out,
                        "| {} | {} | {} | {} | {} |",
                        m.name,
                        fmt_value(m.class, m.baseline),
                        fmt_value(m.class, m.current),
                        fmt_delta(m.delta_pct, m.baseline, m.current),
                        fmt_status(m.status),
                    );
                }
                let _ = writeln!(out);
            }
        }
        out
    }
}

fn fmt_value(class: MetricClass, v: f64) -> String {
    match class {
        MetricClass::Counter | MetricClass::Timing => format!("{}", v as u64),
        MetricClass::Latency => format!("{:.3} ms", v / 1e6),
        MetricClass::Memory => {
            if v >= 1024.0 * 1024.0 {
                format!("{:.2} MiB", v / (1024.0 * 1024.0))
            } else if v >= 1024.0 {
                format!("{:.1} KiB", v / 1024.0)
            } else {
                format!("{} B", v as u64)
            }
        }
    }
}

fn fmt_delta(delta_pct: Option<f64>, baseline: f64, current: f64) -> String {
    match delta_pct {
        Some(pct) => format!("{pct:+.1}%"),
        None if current == baseline => "±0.0%".to_string(),
        None => "+inf%".to_string(),
    }
}

fn fmt_status(s: Status) -> &'static str {
    match s {
        Status::Ok => "ok",
        Status::Regressed => "**REGRESSED**",
        Status::Improved => "improved",
        Status::Info => "info",
    }
}

/// Loads one `BENCH_<exp>.json` document.
pub fn load_bench_file(path: &Path) -> Result<ExperimentMetrics, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    ExperimentMetrics::from_json_text(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Lists the `BENCH_*.json` files directly inside `dir`, sorted by name.
pub fn list_bench_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: cannot list: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_obs::LatencySummary;

    fn sample_metrics() -> ExperimentMetrics {
        let mut exp = ExperimentMetrics::new("fig11");
        exp.config_pair("p_card", 600);
        exp.config_pair("seed", 42);
        exp.push(AlgoMetrics {
            algorithm: "GIR".into(),
            query_kind: "rtk".into(),
            label: "d=10".into(),
            queries: 5,
            mean_ms: 1.0,
            counters: vec![
                ("multiplications".into(), 40_000),
                ("bound_additions".into(), 90_000),
                ("leaf_accesses".into(), 120),
                ("alloc_peak_bytes".into(), 1_000_000),
            ],
            latency: Some(LatencySummary {
                count: 5,
                mean_ns: 1_000_000.0,
                min_ns: 800_000,
                p50_ns: 1_000_000,
                p90_ns: 1_200_000,
                p99_ns: 1_300_000,
                p999_ns: 1_300_000,
                max_ns: 1_300_000,
            }),
            phases: vec![],
        });
        exp
    }

    #[test]
    fn identical_documents_diff_clean() {
        let base = sample_metrics();
        let report = DiffReport::build(&[(base.clone(), base.clone())], &Thresholds::default());
        assert!(!report.has_regressions(), "{}", report.to_markdown());
        assert_eq!(report.regression_count(), 0);
        assert!(report.to_markdown().contains("clean"));
        // Every counter delta is exactly zero.
        for m in report.experiments[0].runs[0]
            .metrics
            .iter()
            .filter(|m| m.class == MetricClass::Counter)
        {
            assert_eq!(m.baseline, m.current, "{}", m.name);
            assert_eq!(m.status, Status::Ok);
        }
    }

    #[test]
    fn doubled_counter_regresses() {
        let base = sample_metrics();
        let mut cur = base.clone();
        cur.runs[0].counters[0].1 *= 2; // multiplications ×2
        let report = DiffReport::build(&[(base, cur)], &Thresholds::default());
        assert!(report.has_regressions());
        let m = &report.experiments[0].runs[0].metrics[0];
        assert_eq!(m.name, "multiplications");
        assert_eq!(m.status, Status::Regressed);
        assert!((m.delta_pct.unwrap() - 100.0).abs() < 1e-9);
        assert!(report.to_markdown().contains("**REGRESSED**"));
    }

    #[test]
    fn counter_tolerance_is_zero_by_default_and_configurable() {
        let base = sample_metrics();
        let mut cur = base.clone();
        cur.runs[0].counters[0].1 += 1; // 40_000 -> 40_001
        let strict = DiffReport::build(&[(base.clone(), cur.clone())], &Thresholds::default());
        assert!(strict.has_regressions(), "any counter growth fails at 0%");
        let loose = DiffReport::build(
            &[(base, cur)],
            &Thresholds {
                counter_pct: 1.0,
                ..Thresholds::default()
            },
        );
        assert!(!loose.has_regressions(), "0.0025% growth passes at 1%");
    }

    #[test]
    fn latency_threshold_and_infinite_disable() {
        let base = sample_metrics();
        let mut cur = base.clone();
        if let Some(lat) = &mut cur.runs[0].latency {
            lat.p99_ns *= 2; // +100% > 25%
        }
        let report = DiffReport::build(&[(base.clone(), cur.clone())], &Thresholds::default());
        assert!(report.has_regressions());
        let off = DiffReport::build(
            &[(base, cur)],
            &Thresholds {
                latency_pct: f64::INFINITY,
                ..Thresholds::default()
            },
        );
        assert!(!off.has_regressions(), "infinite threshold only informs");
        let p99 = off.experiments[0].runs[0]
            .metrics
            .iter()
            .find(|m| m.name == "latency_p99")
            .unwrap();
        assert_eq!(p99.status, Status::Info);
    }

    #[test]
    fn memory_uses_its_own_threshold() {
        let base = sample_metrics();
        let mut cur = base.clone();
        cur.runs[0].counters[3].1 = 1_050_000; // alloc_peak +5% < 10%
        let report = DiffReport::build(&[(base.clone(), cur)], &Thresholds::default());
        assert!(!report.has_regressions());
        let mut cur2 = base.clone();
        cur2.runs[0].counters[3].1 = 1_200_000; // +20% > 10%
        let report2 = DiffReport::build(&[(base, cur2)], &Thresholds::default());
        assert!(report2.has_regressions());
    }

    #[test]
    fn improvement_never_fails() {
        let base = sample_metrics();
        let mut cur = base.clone();
        cur.runs[0].counters[0].1 /= 2;
        let report = DiffReport::build(&[(base, cur)], &Thresholds::default());
        assert!(!report.has_regressions());
        let m = &report.experiments[0].runs[0].metrics[0];
        assert_eq!(m.status, Status::Improved);
    }

    #[test]
    fn missing_run_and_config_mismatch_fail() {
        let base = sample_metrics();
        let mut cur = base.clone();
        cur.runs.clear();
        let report = DiffReport::build(&[(base.clone(), cur)], &Thresholds::default());
        assert!(report.has_regressions());
        assert_eq!(report.experiments[0].missing_runs.len(), 1);
        assert!(
            report.regression_count() > 0,
            "blocking mismatches must show up in the reported count"
        );

        let mut cur2 = base.clone();
        cur2.config[1].1 = "43".into(); // different seed
        let report2 = DiffReport::build(&[(base.clone(), cur2.clone())], &Thresholds::default());
        assert!(
            report2.has_regressions(),
            "config mismatch blocks by default"
        );
        assert!(report2.regression_count() > 0);
        let relaxed = DiffReport::build(
            &[(base, cur2)],
            &Thresholds {
                config_must_match: false,
                ..Thresholds::default()
            },
        );
        assert!(!relaxed.has_regressions());
    }

    #[test]
    fn vanished_counter_is_informational() {
        let base = sample_metrics();
        let mut cur = base.clone();
        cur.runs[0]
            .counters
            .retain(|(k, _)| k != "alloc_peak_bytes");
        let report = DiffReport::build(&[(base, cur)], &Thresholds::default());
        assert!(
            !report.has_regressions(),
            "alloc-track off in current run must not fail counter gate"
        );
    }

    #[test]
    fn counter_missing_from_the_baseline_fails() {
        let mut base = sample_metrics();
        base.runs[0]
            .counters
            .retain(|(k, _)| k != "leaf_accesses" && k != "alloc_peak_bytes");
        let mut cur = sample_metrics();
        cur.runs[0]
            .counters
            .push(("sched_achieved_qps_milli".into(), 198_000));
        let report = DiffReport::build(&[(base.clone(), cur.clone())], &Thresholds::default());
        assert!(report.has_regressions(), "{}", report.to_markdown());
        let notes = &report.experiments[0].runs[0].notes;
        assert_eq!(notes.len(), 1, "{notes:?}");
        assert!(notes[0].contains("leaf_accesses"), "{notes:?}");
        // An informational counter gate does not fail on it either.
        let relaxed = Thresholds {
            counter_pct: f64::INFINITY,
            ..Thresholds::default()
        };
        assert!(!DiffReport::build(&[(base, cur)], &relaxed).has_regressions());
    }

    #[test]
    fn query_count_mismatch_fails_with_note() {
        let base = sample_metrics();
        let mut cur = base.clone();
        cur.runs[0].queries = 50;
        let report = DiffReport::build(&[(base, cur)], &Thresholds::default());
        assert!(report.has_regressions());
        assert!(!report.experiments[0].runs[0].notes.is_empty());
    }

    #[test]
    fn duplicate_keys_match_positionally() {
        // An unlabelled parameter sweep: two runs share the key. The Nth
        // baseline occurrence must meet the Nth current occurrence, not
        // the first.
        let mut base = sample_metrics();
        let mut second = base.runs[0].clone();
        second.counters[0].1 = 99_000;
        base.runs.push(second);
        let cur = base.clone();
        let report = DiffReport::build(&[(base.clone(), cur)], &Thresholds::default());
        assert!(!report.has_regressions(), "{}", report.to_markdown());
        assert_eq!(report.experiments[0].runs.len(), 2);
        assert!(report.to_markdown().contains("#2"), "ordinal shown");

        // Dropping the second occurrence is a missing run.
        let mut shrunk = base.clone();
        shrunk.runs.pop();
        let report2 = DiffReport::build(&[(base, shrunk)], &Thresholds::default());
        assert!(report2.has_regressions());
        assert_eq!(report2.experiments[0].missing_runs.len(), 1);
        assert!(report2.experiments[0].missing_runs[0].contains("#2"));
    }

    #[test]
    fn sched_counters_are_informational_by_default() {
        // `sched_*` counters carry wall-clock-derived values (achieved
        // rate, sampler ticks); two same-seed loadgen runs differ there
        // while staying exact on algorithmic counters — the default
        // thresholds must accept that.
        let mut base = sample_metrics();
        base.runs[0]
            .counters
            .push(("sched_achieved_qps_milli".into(), 198_000));
        let mut cur = base.clone();
        cur.runs[0].counters.last_mut().unwrap().1 = 120_000; // wildly different timing
        let report = DiffReport::build(&[(base.clone(), cur.clone())], &Thresholds::default());
        assert!(!report.has_regressions(), "{}", report.to_markdown());
        let m = report.experiments[0].runs[0]
            .metrics
            .iter()
            .find(|m| m.name == "sched_achieved_qps_milli")
            .unwrap();
        assert_eq!(m.class, MetricClass::Timing);
        assert_eq!(m.status, Status::Info);
        // But the class has its own tightenable threshold.
        let tight = DiffReport::build(
            &[(base, cur)],
            &Thresholds {
                timing_pct: 10.0,
                ..Thresholds::default()
            },
        );
        // current < baseline: an *improvement* beyond threshold, never failing.
        assert!(!tight.has_regressions());
        let m = tight.experiments[0].runs[0]
            .metrics
            .iter()
            .find(|m| m.name == "sched_achieved_qps_milli")
            .unwrap();
        assert_eq!(m.status, Status::Improved);
    }

    #[test]
    fn p999_is_compared_under_the_latency_threshold() {
        let base = sample_metrics();
        let mut cur = base.clone();
        if let Some(lat) = &mut cur.runs[0].latency {
            lat.p999_ns *= 3; // +200% > 25%
        }
        let report = DiffReport::build(&[(base, cur)], &Thresholds::default());
        assert!(report.has_regressions());
        let m = report.experiments[0].runs[0]
            .metrics
            .iter()
            .find(|m| m.name == "latency_p999")
            .unwrap();
        assert_eq!(m.class, MetricClass::Latency);
        assert_eq!(m.status, Status::Regressed);
    }

    #[test]
    fn markdown_surfaces_p999_even_for_pre_p999_baselines() {
        // p999 is a first-class row of the markdown report…
        let base = sample_metrics();
        let md = DiffReport::build(&[(base.clone(), base.clone())], &Thresholds::default())
            .to_markdown();
        assert!(md.contains("| latency_p999 |"), "{md}");

        // …also when the baseline snapshot predates the `p999` member:
        // the registry decodes it with the exact-max fallback, and the
        // row compares that against the current document's true p999.
        let old_text: String = base
            .to_json()
            .to_pretty()
            .lines()
            .filter(|l| !l.contains("\"p999\""))
            .collect::<Vec<_>>()
            .join("\n");
        let old = ExperimentMetrics::from_json_text(&old_text).expect("old doc decodes");
        let max_ns = base.runs[0].latency.as_ref().unwrap().max_ns;
        assert_eq!(
            old.runs[0].latency.as_ref().map(|l| l.p999_ns),
            Some(max_ns),
            "fallback is the exact max"
        );
        let report = DiffReport::build(&[(old, base)], &Thresholds::default());
        let row = report.experiments[0].runs[0]
            .metrics
            .iter()
            .find(|m| m.name == "latency_p999")
            .expect("p999 row present with a fallback baseline");
        assert_eq!(row.baseline, max_ns as f64);
        assert!(report.to_markdown().contains("| latency_p999 |"));
    }

    #[test]
    fn markdown_renders_units() {
        let base = sample_metrics();
        let md = DiffReport::build(&[(base.clone(), base)], &Thresholds::default()).to_markdown();
        assert!(md.contains("## fig11"));
        assert!(md.contains("### GIR (rtk) [d=10]"));
        assert!(md.contains("| multiplications | 40000 | 40000 |"), "{md}");
        assert!(md.contains("ms"), "latency rendered in ms: {md}");
        assert!(md.contains("KiB") || md.contains("MiB"), "memory humanized");
    }
}
