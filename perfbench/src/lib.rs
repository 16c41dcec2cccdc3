//! End-to-end benchmark of the reverse rank engines.
//!
//! Two workloads drive the program only through public `rrq-core`
//! entry points, one client in a closed loop:
//!
//! * `indexed-pool` — the serving configuration: a threshold index,
//!   with a two-worker pool compared per query in the traced run;
//! * `churn` — a [`rrq_core::DynamicEngine`] taking batches of inserts
//!   and deletes between reads.
//!
//! A run measures end-to-end metrics with tracing off. With tracing on
//! it reruns the same steps with spans around every call into a layer
//! and reports per-layer metrics instead. See `README.md` for the
//! workloads, the layer map and the measured spread.

pub mod gen;
pub mod measure;
mod workloads;

use measure::{median, quantile, ratio, trimmed_mean, Answer, Digest, Span, Tally, Tracer, TRIM};
use rrq_types::QueryStats;
use std::path::PathBuf;
use std::time::Duration;

/// Quantile of a run's RTK latencies reported as `rtk_ms`. On a host
/// that switches between a fast and a slow state it stays on the fast
/// state's latency unless the host was slow for nearly the whole run.
pub const RTK_QUANTILE: f64 = 0.05;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Threshold-indexed GIR and a two-worker pool, |P| = |W| = 6 000.
    IndexedPool,
    /// Mutable engine with 16-op batches between reads, |P| = |W| = 2 000.
    Churn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::IndexedPool, Workload::Churn];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IndexedPool => "indexed-pool",
            Workload::Churn => "churn",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of one workload. [`Scale::full`] is what the command runs;
/// tests use [`Scale::small`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// |P| of the generated set.
    pub points: usize,
    /// |W| of the generated set.
    pub weights: usize,
    /// Query depth k.
    pub k: usize,
    /// Steps in the first cycle: every pass runs at least these, and
    /// their counters are the per-layer counts. In `churn` a cycle is
    /// also the rounds between engine rebuilds.
    pub cycle: usize,
    /// Query points (`indexed-pool`) or rounds (`churn`) of the
    /// first cycle checked against the oracle.
    pub checked: usize,
    /// Steps between set-up builds inside the window (`indexed-pool`,
    /// which also builds its serving engine before the window). `churn`
    /// builds a fresh engine once per cycle instead.
    pub build_every: usize,
}

impl Scale {
    /// The sizes the command runs.
    pub fn full(w: Workload) -> Self {
        match w {
            Workload::IndexedPool => Self {
                points: 6_000,
                weights: 6_000,
                k: 100,
                cycle: 64,
                checked: 8,
                build_every: 100,
            },
            Workload::Churn => Self {
                points: 2_000,
                weights: 2_000,
                k: 10,
                cycle: 10,
                checked: 10,
                build_every: 0,
            },
        }
    }

    /// Small sizes for tests: same code paths, a fraction of a second.
    pub fn small(w: Workload) -> Self {
        match w {
            Workload::IndexedPool => Self {
                points: 400,
                weights: 400,
                k: 10,
                cycle: 6,
                checked: 3,
                build_every: 3,
            },
            Workload::Churn => Self {
                points: 200,
                weights: 200,
                k: 5,
                cycle: 10,
                checked: 10,
                build_every: 0,
            },
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured window; at least one full cycle runs regardless.
    pub window: Duration,
    /// Rerun the window with spans and report per-layer metrics.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
    /// Where the traced run writes its Perfetto trace.
    pub trace_out: Option<PathBuf>,
}

/// A reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Whether the value is a pure function of the seed (a count or a
    /// ratio of counts) rather than a timing.
    pub exact: bool,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No failed operation, no oracle mismatch, and (traced) the traced
    /// pass agreed with the untraced one.
    pub correct: bool,
    /// Operations attempted: queries, stages and publishes.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Digest of the first cycle's answers.
    pub digest: u64,
    /// Steps the untraced window ran.
    pub steps: usize,
    /// Spans of the traced run (empty when untraced).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        use rrq_obs::json::Json;
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_compact()
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A set-up step that fails, or a trace file that cannot be written.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let c = match cfg.workload {
        Workload::IndexedPool => workloads::indexed_pool(cfg)?,
        Workload::Churn => workloads::churn(cfg)?,
    };
    if let (true, Some(path)) = (cfg.trace, &cfg.trace_out) {
        c.tracer
            .write_perfetto(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(c.outcome(cfg))
}

/// Query kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Rtk,
    Rkr,
}

/// Counters of one cycle; identical for every pass of one seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Counts {
    pub rtk: QueryStats,
    pub rtk_n: u64,
    pub rkr: QueryStats,
    pub rkr_n: u64,
    /// Publishes, threshold columns they repaired, and live weights
    /// after each (summed).
    pub publishes: u64,
    pub repaired: u64,
    pub live_weights: u64,
    /// Queries on a snapshot with point tombstones or appends.
    pub delta_queries: u64,
}

/// What one pass over the steps measured.
#[derive(Default)]
pub(crate) struct Pass {
    pub steps: usize,
    pub wall_s: f64,
    /// Tracer marks of the window, for the residual.
    pub from_ns: u64,
    pub to_ns: u64,
    /// Set-up builds inside the window.
    pub setup_s: Vec<f64>,
    pub rtk_ms: Vec<f64>,
    pub rkr_ms: Vec<f64>,
    pub query_s: f64,
    /// Time for a batch to become visible.
    pub publish_ms: Vec<f64>,
    pub stage_ms: Vec<f64>,
    pub publish_call_ms: Vec<f64>,
    pub compact_ms: Vec<f64>,
    pub tally: Tally,
    /// Counters and answers (`None`: the query panicked) of the first
    /// cycle.
    pub counts: Counts,
    pub answers: Vec<Option<Answer>>,
    pub digest: Digest,
}

impl Pass {
    /// Books one query; `first` marks the first cycle, whose counters
    /// and answers are kept.
    /// A query that panicked is booked as failed once; its answer is
    /// kept as `None`, so the oracle does not book it a second time.
    pub fn query(&mut self, kind: Kind, first: bool, out: Option<(Answer, QueryStats)>, secs: f64) {
        self.tally.query(out.is_some());
        let Some((answer, stats)) = out else {
            if first {
                self.answers.push(None);
            }
            return;
        };
        self.query_s += secs;
        let (lat, sum, n) = match kind {
            Kind::Rtk => (
                &mut self.rtk_ms,
                &mut self.counts.rtk,
                &mut self.counts.rtk_n,
            ),
            Kind::Rkr => (
                &mut self.rkr_ms,
                &mut self.counts.rkr,
                &mut self.counts.rkr_n,
            ),
        };
        lat.push(secs * 1e3);
        if first {
            sum.merge(&stats);
            *n += 1;
            self.digest.add(&answer);
            self.answers.push(Some(answer));
        }
    }
}

/// `indexed-pool`, traced: each query of the first cycle asked of the
/// pooled and of the sequential engine back to back.
#[derive(Default)]
pub(crate) struct Reference {
    pub rtk_speedup: Vec<f64>,
    pub rkr_speedup: Vec<f64>,
    pub pooled_rkr_mults: u64,
    pub seq_rkr_mults: u64,
    pub pooled_queries: u64,
    pub pool_jobs: u64,
    /// Pooled queries that panicked.
    pub panics: u64,
}

/// Everything a workload run collected.
pub(crate) struct Collected {
    /// Set-up builds before the window.
    pub setup_s: Vec<f64>,
    /// A static engine makes a change visible only by a rebuild, the
    /// same call on an input of the same size as its set-up build, so
    /// its `publish_ms` is read from the set-up samples.
    pub publish_is_rebuild: bool,
    pub base: Pass,
    pub traced: Option<Pass>,
    /// Tally of work outside the passes (reference queries) and of the
    /// oracle checks.
    pub extra: Tally,
    pub index_bytes: u64,
    pub threshold_bytes: u64,
    pub tracer: Tracer,
    pub reference: Reference,
    pub worker_skew: f64,
}

impl Collected {
    pub fn new(trace: bool) -> Self {
        Self {
            setup_s: Vec::new(),
            publish_is_rebuild: false,
            base: Pass::default(),
            traced: None,
            extra: Tally::default(),
            index_bytes: 0,
            threshold_bytes: 0,
            tracer: Tracer::new(trace),
            reference: Reference::default(),
            worker_skew: 0.0,
        }
    }

    fn tally(&self) -> Tally {
        let mut t = self.extra;
        for p in std::iter::once(&self.base).chain(&self.traced) {
            t.attempted += p.tally.attempted;
            t.failed += p.tally.failed;
            t.mismatches += p.tally.mismatches;
            t.panics += p.tally.panics;
            t.errors += p.tally.errors;
        }
        t
    }

    fn outcome(self, cfg: &Config) -> Outcome {
        let tally = self.tally();
        let agree = self
            .traced
            .as_ref()
            .is_none_or(|t| t.counts == self.base.counts && t.digest == self.base.digest);
        let metrics = if cfg.trace {
            self.per_layer(&tally)
        } else {
            self.end_to_end(&tally)
        };
        Outcome {
            correct: tally.failed == 0 && agree,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
            digest: self.base.digest.0,
            steps: self.base.steps,
            spans: self.tracer.spans().to_vec(),
        }
    }

    fn end_to_end(&self, tally: &Tally) -> Vec<Metric> {
        let b = &self.base;
        let setup: Vec<f64> = self.setup_s.iter().chain(&b.setup_s).copied().collect();
        let publish: Vec<f64> = if self.publish_is_rebuild {
            setup.iter().map(|s| s * 1e3).collect()
        } else {
            b.publish_ms.clone()
        };
        let queries = (b.rtk_ms.len() + b.rkr_ms.len()) as f64;
        vec![
            timing("setup_s", "s", median(&setup)),
            // Every RTK here is one threshold probe per weight, so a run's
            // RTK latencies differ only by how hard the host slowed each:
            // a low percentile is the RTK's own cost, the p90 the slowed one.
            timing("rtk_ms", "ms", quantile(&b.rtk_ms, RTK_QUANTILE)),
            timing("rkr_ms", "ms", trimmed_mean(&b.rkr_ms, TRIM)),
            timing("rtk_p90_ms", "ms", quantile(&b.rtk_ms, 0.9)),
            timing("rkr_p90_ms", "ms", quantile(&b.rkr_ms, 0.9)),
            timing("qps", "1/s", ratio(queries, b.query_s)),
            timing("publish_ms", "ms", trimmed_mean(&publish, TRIM)),
            exact("index_bytes", "bytes", self.index_bytes as f64),
            exact("ok_frac", "ratio", tally.ok_frac()),
        ]
    }

    fn per_layer(&self, tally: &Tally) -> Vec<Metric> {
        let t = self.traced.as_ref().unwrap_or(&self.base);
        let c = &t.counts;
        let (rtk_n, rkr_n) = (c.rtk_n as f64, c.rkr_n as f64);
        let frac = |s: &QueryStats, num: u64| ratio(num as f64, s.points_visited as f64);
        let per = |v: u64, n: f64| ratio(v as f64, n);
        let queries = rtk_n + rkr_n;
        let overhead = match self.traced {
            Some(_) => ratio(t.wall_s, self.base.wall_s) - 1.0,
            None => 0.0,
        };
        let window_ns = t.to_ns.saturating_sub(t.from_ns) as f64;
        let residual = if self.traced.is_some() {
            1.0 - ratio(self.tracer.layer_ns(t.from_ns, t.to_ns) as f64, window_ns)
        } else {
            0.0
        };
        let (r, tr) = (&self.reference, &self.tracer);
        vec![
            timing(
                "grid.build_ms",
                "ms",
                median(&tr.durations_ms("grid.build")),
            ),
            exact(
                "gir.rtk.points_visited",
                "count",
                per(c.rtk.points_visited, rtk_n),
            ),
            exact(
                "gir.rtk.filter_frac",
                "ratio",
                frac(&c.rtk, c.rtk.filtered_case1 + c.rtk.filtered_case2),
            ),
            exact("gir.rtk.refined", "count", per(c.rtk.refined, rtk_n)),
            exact("gir.rtk.mults", "count", per(c.rtk.multiplications, rtk_n)),
            exact(
                "gir.rtk.domin_skips",
                "count",
                per(c.rtk.domin_skips, rtk_n),
            ),
            exact(
                "gir.rtk.early_term_frac",
                "ratio",
                ratio(
                    c.rtk.early_terminations as f64,
                    c.rtk.weights_visited as f64,
                ),
            ),
            exact(
                "gir.rkr.points_visited",
                "count",
                per(c.rkr.points_visited, rkr_n),
            ),
            exact(
                "gir.rkr.filter_frac",
                "ratio",
                frac(&c.rkr, c.rkr.filtered_case1 + c.rkr.filtered_case2),
            ),
            exact("gir.rkr.refined", "count", per(c.rkr.refined, rkr_n)),
            exact("gir.rkr.mults", "count", per(c.rkr.multiplications, rkr_n)),
            exact(
                "gir.rkr.early_term_frac",
                "ratio",
                ratio(
                    c.rkr.early_terminations as f64,
                    c.rkr.weights_visited as f64,
                ),
            ),
            exact("gir.mismatches", "count", tally.mismatches as f64),
            timing(
                "threshold.build_ms",
                "ms",
                median(&tr.durations_ms("threshold.build")),
            ),
            exact("threshold.bytes", "bytes", self.threshold_bytes as f64),
            exact(
                "threshold.rtk.hit_frac",
                "ratio",
                ratio(c.rtk.threshold_hits as f64, c.rtk.weights_visited as f64),
            ),
            exact(
                "threshold.rkr.hit_frac",
                "ratio",
                ratio(c.rkr.threshold_hits as f64, c.rkr.weights_visited as f64),
            ),
            exact(
                "threshold.repair_cols",
                "count",
                per(c.repaired, c.publishes as f64),
            ),
            exact(
                "threshold.repair_frac",
                "ratio",
                ratio(c.repaired as f64, c.live_weights as f64),
            ),
            timing("snapshot.stage_ms", "ms", median(&t.stage_ms)),
            timing("snapshot.publish_call_ms", "ms", median(&t.publish_call_ms)),
            timing("snapshot.compact_ms", "ms", median(&t.compact_ms)),
            timing(
                "snapshot.view_us",
                "us",
                median(&tr.durations_ms("snapshot.view")) * 1e3,
            ),
            exact(
                "snapshot.point_delta_frac",
                "ratio",
                ratio(c.delta_queries as f64, queries),
            ),
            exact(
                "snapshot.tombstones_skipped",
                "count",
                per(c.rtk.tombstones_skipped + c.rkr.tombstones_skipped, queries),
            ),
            exact(
                "snapshot.appended_scanned",
                "count",
                per(c.rtk.appended_scanned + c.rkr.appended_scanned, queries),
            ),
            exact("snapshot.errors", "count", tally.errors as f64),
            timing("par.rtk.speedup", "ratio", median(&r.rtk_speedup)),
            timing("par.rkr.speedup", "ratio", median(&r.rkr_speedup)),
            exact(
                "par.rkr.mults_ratio",
                "ratio",
                ratio(r.pooled_rkr_mults as f64, r.seq_rkr_mults as f64),
            ),
            exact("par.panics", "count", r.panics as f64),
            exact(
                "pool.jobs_per_query",
                "count",
                per(r.pool_jobs, r.pooled_queries as f64),
            ),
            timing("pool.worker_skew", "ratio", self.worker_skew),
            timing("trace.overhead_frac", "ratio", overhead),
            timing("trace.residual_frac", "ratio", residual),
        ]
    }
}

fn timing(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        exact: false,
    }
}

fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        exact: true,
    }
}
