//! Shared experiment machinery: configuration, query sampling, timing,
//! and metrics collection.
//!
//! Timing is two-pass. Pass 1 runs the untraced query path and records a
//! per-query latency histogram — the numbers the paper's figures report,
//! with zero probe overhead inside the measured region. Pass 2 (only when
//! a [`collect`] scope is open) re-runs the batch through the traced path
//! with a [`MetricsRecorder`], producing the per-phase wall-time tree
//! (quantize / filter / refine / heap). Results of both passes are
//! identical — the traced tests of every algorithm crate pin that — so
//! the phase tree faithfully explains the untraced latency.

use rrq_data::rng::{Rng, StdRng};
use rrq_obs::{LogHistogram, MetricsRecorder, PhaseStat, SharedRecorder};
use rrq_types::{PointId, PointSet, QueryStats, RkrQuery, RtkQuery};
use std::time::Instant;

/// Heap accounting around a timed batch: a no-op unless the
/// `alloc-track` feature is on *and* [`rrq_obs::alloc::TrackingAlloc`]
/// is installed as the program's global allocator (the crate root does
/// so under the feature).
#[cfg(feature = "alloc-track")]
mod memtrack {
    pub type Mark = rrq_obs::alloc::AllocStats;

    pub fn mark() -> Mark {
        rrq_obs::alloc::reset_peak();
        rrq_obs::alloc::snapshot()
    }

    pub fn delta(before: &Mark) -> Vec<(String, u64)> {
        if !rrq_obs::alloc::is_active() {
            return Vec::new();
        }
        let after = rrq_obs::alloc::snapshot();
        vec![
            (
                "alloc_total_bytes".to_string(),
                after.total_bytes.saturating_sub(before.total_bytes),
            ),
            // `mark()` reset the high-water mark, so this is the peak of
            // live bytes *during* the batch (pre-existing structures
            // such as the index itself included — that is the number
            // capacity planning needs).
            ("alloc_peak_bytes".to_string(), after.peak_bytes),
        ]
    }
}

#[cfg(not(feature = "alloc-track"))]
mod memtrack {
    pub struct Mark;

    pub fn mark() -> Mark {
        Mark
    }

    pub fn delta(_: &Mark) -> Vec<(String, u64)> {
        Vec::new()
    }
}

/// Scale and parameters of an experiment run.
///
/// Defaults are a laptop-friendly scale-down of the paper's Table 5
/// (which uses `|P| = |W| = 100K`, 1000 repetitions, `k = 100`,
/// `n = 32`).
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Base cardinality for `P` (paper: 100 000).
    pub p_card: usize,
    /// Base cardinality for `W` (paper: 100 000).
    pub w_card: usize,
    /// Number of query points sampled from `P` (paper: 1000).
    pub queries: usize,
    /// `k` for both query types (paper default: 100).
    pub k: usize,
    /// Grid partitions `n` (paper default: 32).
    pub partitions: usize,
    /// RNG seed for data and query sampling.
    pub seed: u64,
    /// Worker threads per timed batch. 1 (the default) reproduces the
    /// paper's sequential measurement; above 1 the batch is striped
    /// across a `std::thread::scope` with per-thread stats/histograms
    /// merged afterwards, and the traced pass runs through a
    /// [`SharedRecorder`]. Counters are identical either way.
    pub threads: usize,
    /// Worker threads *inside* each GIR query (`rrq_core::ParGir`).
    /// 1 (the default) runs the paper's sequential engine; above 1 the
    /// experiments wrap GIR with the parallel query engine at this
    /// thread count. Results are byte-identical either way.
    pub par_query: usize,
    /// Serve parallel queries from one persistent
    /// [`rrq_core::WorkerPool`] per timed section instead of a one-off
    /// pool per query, amortising spawn/join across the batch.
    /// Only meaningful with `par_query > 1`.
    pub par_pool: bool,
    /// Epoch-snapshot bound sharing (`rrq_core::BoundMode::Epoch`):
    /// workers exchange merged scan bounds every this-many shard
    /// weights at barrier-synchronised boundaries. `0` (the default)
    /// keeps worker-local bounds (`rrq_core::BoundMode::Local`); non-zero
    /// adds cross-shard pruning. Counters are exactly reproducible either
    /// way.
    pub par_epoch: usize,
    /// Attach a precomputed [`rrq_core::ThresholdIndex`] to every GIR
    /// engine under test. RTK weights decided by one table comparison
    /// (and RKR weights whose rank is certified above the running
    /// bound) skip the grid scan entirely; results stay byte-identical
    /// and the short-circuits are booked in the `threshold_hits`
    /// counter. Off by default so committed baselines keep matching.
    pub threshold_index: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            p_card: 10_000,
            w_card: 10_000,
            queries: 5,
            k: 100,
            partitions: 32,
            seed: 42,
            threads: 1,
            par_query: 1,
            par_pool: false,
            par_epoch: 0,
            threshold_index: false,
        }
    }
}

impl ExpConfig {
    /// The paper-scale configuration (slow: hours for the full suite).
    pub fn full() -> Self {
        Self {
            p_card: 100_000,
            w_card: 100_000,
            queries: 50, // still well below the paper's 1000 repetitions
            ..Self::default()
        }
    }

    /// A very small configuration for smoke tests.
    pub fn smoke() -> Self {
        Self {
            p_card: 600,
            w_card: 300,
            queries: 2,
            k: 10,
            partitions: 32,
            seed: 42,
            threads: 1,
            par_query: 1,
            par_pool: false,
            par_epoch: 0,
            threshold_index: false,
        }
    }

    /// Samples `queries` query points from `points` (the paper draws `q`
    /// randomly from `P`).
    pub fn sample_queries(&self, points: &PointSet) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xC0FF_EE00);
        (0..self.queries)
            .map(|_| {
                points
                    .point(PointId(rng.gen_range(0..points.len())))
                    .to_vec()
            })
            .collect()
    }
}

/// Timing + instrumentation aggregated over a query batch for one
/// algorithm.
#[derive(Debug, Clone)]
pub struct AlgoRun {
    /// Display name of the algorithm.
    pub name: &'static str,
    /// Mean wall-clock per query, milliseconds.
    pub mean_ms: f64,
    /// Counters summed over the batch.
    pub stats: QueryStats,
    /// Number of queries executed.
    pub queries: usize,
    /// Per-query wall-clock latency (nanoseconds), from the untraced pass.
    pub latency: LogHistogram,
    /// Per-phase wall time from the traced pass. Empty unless a
    /// [`collect`] scope was open while the batch ran.
    pub phases: Vec<PhaseStat>,
    /// Harness-level counters that are not part of [`QueryStats`]
    /// (currently the `alloc_*` heap metrics of the `alloc-track`
    /// feature). Appended after the stats counters in exports.
    pub extra: Vec<(String, u64)>,
}

impl AlgoRun {
    /// Mean pairwise multiplications per query.
    pub fn mean_multiplications(&self) -> f64 {
        self.stats.multiplications as f64 / self.queries.max(1) as f64
    }
}

/// One timed batch: the untraced pass (stats + per-query latency) and,
/// when a [`collect`] scope is open, the traced pass producing the phase
/// tree. `run_one` / `run_one_traced` abstract over rtk vs rkr.
fn time_batch<A, FPlain, FTraced>(
    alg: &A,
    queries: &[Vec<f64>],
    threads: usize,
    run_one: FPlain,
    run_one_traced: FTraced,
) -> (
    f64,
    QueryStats,
    LogHistogram,
    Vec<PhaseStat>,
    Vec<(String, u64)>,
)
where
    A: Sync + ?Sized,
    FPlain: Fn(&A, &[f64], &mut QueryStats) + Sync,
    FTraced: Fn(&A, &[f64], &mut QueryStats, &dyn rrq_obs::Recorder) + Sync,
{
    let threads = threads.clamp(1, queries.len().max(1));
    let mem_before = memtrack::mark();
    let start = Instant::now();
    let (stats, latency) = if threads == 1 {
        let mut stats = QueryStats::default();
        let mut latency = LogHistogram::new();
        for q in queries {
            let qs = Instant::now();
            run_one(alg, q, &mut stats);
            latency.record(qs.elapsed().as_nanos() as u64);
        }
        (stats, latency)
    } else {
        // Stripe the batch across the workers (query i goes to thread
        // i % threads): deterministic partition, merged stats identical
        // to the sequential run because `QueryStats::merge` is
        // field-wise addition and `LogHistogram::merge` adds bucket
        // counts exactly.
        let shards: Vec<(QueryStats, LogHistogram)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let run_one = &run_one;
                    s.spawn(move || {
                        let mut stats = QueryStats::default();
                        let mut latency = LogHistogram::new();
                        for q in queries.iter().skip(t).step_by(threads) {
                            let qs = Instant::now();
                            run_one(alg, q, &mut stats);
                            latency.record(qs.elapsed().as_nanos() as u64);
                        }
                        (stats, latency)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("query worker panicked"))
                .collect()
        });
        let mut stats = QueryStats::default();
        let mut latency = LogHistogram::new();
        for (s, h) in &shards {
            stats.merge(s);
            latency.merge(h);
        }
        (stats, latency)
    };
    let elapsed = start.elapsed().as_secs_f64() * 1000.0;
    let extra = memtrack::delta(&mem_before);

    // A striped batch shares one recorder across its threads; a batch on
    // the calling thread records into a `MetricsRecorder`, parallel
    // queries included (their workers run untraced).
    let phases = if !collect::is_active() {
        Vec::new()
    } else if threads == 1 {
        let rec = MetricsRecorder::new();
        let mut scratch = QueryStats::default();
        for q in queries {
            run_one_traced(alg, q, &mut scratch, &rec);
        }
        rec.phases()
    } else {
        // Concurrent traced pass: every worker drives the *same*
        // `SharedRecorder`; its shard-merged tree equals the sequential
        // one (pinned by the `threaded_run_matches_sequential` test).
        let rec = SharedRecorder::new();
        std::thread::scope(|s| {
            for t in 0..threads {
                let (rec, run_one_traced) = (&rec, &run_one_traced);
                s.spawn(move || {
                    let mut scratch = QueryStats::default();
                    for q in queries.iter().skip(t).step_by(threads) {
                        run_one_traced(alg, q, &mut scratch, rec);
                    }
                });
            }
        });
        rec.phases()
    };
    (
        elapsed / queries.len().max(1) as f64,
        stats,
        latency,
        phases,
        extra,
    )
}

/// Runs a reverse top-k algorithm over a query batch on the open
/// scope's thread count ([`collect::threads`]; 1 outside a scope).
pub fn time_rtk<A: RtkQuery + Sync + ?Sized>(alg: &A, queries: &[Vec<f64>], k: usize) -> AlgoRun {
    time_rtk_threads(alg, queries, k, collect::threads())
}

/// [`time_rtk`] with an explicit worker-thread count.
pub fn time_rtk_threads<A: RtkQuery + Sync + ?Sized>(
    alg: &A,
    queries: &[Vec<f64>],
    k: usize,
    threads: usize,
) -> AlgoRun {
    let (mean_ms, stats, latency, phases, extra) = time_batch(
        alg,
        queries,
        threads,
        |alg, q, stats| {
            let _ = alg.reverse_top_k(q, k, stats);
        },
        |alg, q, stats, rec| {
            let _ = alg.reverse_top_k_traced(q, k, stats, rec);
        },
    );
    let run = AlgoRun {
        name: alg.name(),
        mean_ms,
        stats,
        queries: queries.len(),
        latency,
        phases,
        extra,
    };
    collect::record("rtk", &run);
    run
}

/// Runs a reverse k-ranks algorithm over a query batch on the open
/// scope's thread count ([`collect::threads`]; 1 outside a scope).
pub fn time_rkr<A: RkrQuery + Sync + ?Sized>(alg: &A, queries: &[Vec<f64>], k: usize) -> AlgoRun {
    time_rkr_threads(alg, queries, k, collect::threads())
}

/// [`time_rkr`] with an explicit worker-thread count.
pub fn time_rkr_threads<A: RkrQuery + Sync + ?Sized>(
    alg: &A,
    queries: &[Vec<f64>],
    k: usize,
    threads: usize,
) -> AlgoRun {
    let (mean_ms, stats, latency, phases, extra) = time_batch(
        alg,
        queries,
        threads,
        |alg, q, stats| {
            let _ = alg.reverse_k_ranks(q, k, stats);
        },
        |alg, q, stats, rec| {
            let _ = alg.reverse_k_ranks_traced(q, k, stats, rec);
        },
    );
    let run = AlgoRun {
        name: alg.name(),
        mean_ms,
        stats,
        queries: queries.len(),
        latency,
        phases,
        extra,
    };
    collect::record("rkr", &run);
    run
}

/// Opens one persistent [`rrq_core::WorkerPool`] around a timed section
/// when the open [`collect`] scope asks for it (`--par-pool` with
/// `--par-query > 1`), and hands it to `f`; otherwise `f` gets `None`.
///
/// Experiments call this *outside* their timed batches and attach the
/// pool with [`rrq_core::ParGir::with_pool_opt`], so worker spawn/join
/// happens once per sweep iteration instead of once per query — spawn
/// cost stays out of the per-query latency percentiles.
pub fn with_query_pool<'env, R>(f: impl FnOnce(Option<&rrq_core::WorkerPool<'env>>) -> R) -> R {
    let workers = collect::par_query();
    if collect::par_pool() && workers > 1 {
        rrq_core::pool_scope(workers, |pool| f(Some(pool)))
    } else {
        f(None)
    }
}

/// Builds and attaches a [`rrq_core::ThresholdIndex`] to `gir` when the
/// open [`collect`] scope asks for one (`--threshold-index`). Buckets
/// are the standard rank ladder for the `k` values the experiment
/// sweeps ([`rrq_core::ThresholdIndex::default_buckets`] over
/// `n_points`), so RTK gets an exact bucket per swept `k` and RKR gets
/// log-spaced rungs for its running-bound certificates. No-op outside a
/// scope or without the flag, so experiments attach unconditionally.
pub fn attach_threshold_index<G: rrq_core::grid::GridTable>(
    gir: &mut rrq_core::Gir<'_, G>,
    ks: &[usize],
    n_points: usize,
) {
    if !collect::threshold_index() {
        return;
    }
    let buckets = rrq_core::ThresholdIndex::default_buckets(ks, n_points);
    let index = gir
        .build_threshold_index(&buckets)
        .expect("threshold index build over in-memory experiment data");
    gir.attach_threshold_index(index)
        .expect("freshly built index matches its own engine");
}

/// Experiment-wide metrics collection.
///
/// A thread-local scope opened with [`collect::begin`] makes every
/// subsequent [`time_rtk`]/[`time_rkr`] call append an
/// [`rrq_obs::AlgoMetrics`] entry (and run the traced second pass), so
/// the fourteen experiment modules emit structured metrics without any
/// per-experiment wiring. [`collect::finish`] closes the scope and
/// returns the accumulated [`rrq_obs::ExperimentMetrics`].
pub mod collect {
    use super::{AlgoRun, ExpConfig};
    use rrq_obs::{AlgoMetrics, ExperimentMetrics};
    use std::cell::RefCell;

    struct Scope {
        metrics: ExperimentMetrics,
        label: String,
        threads: usize,
        par_query: usize,
        par_pool: bool,
        par_epoch: usize,
        threshold_index: bool,
    }

    impl Scope {
        /// The bound-sharing mode the scope's flags select: epoch
        /// snapshots at an explicit epoch size, else local bounds.
        fn bound_mode(&self) -> rrq_core::BoundMode {
            if self.par_epoch > 0 {
                rrq_core::BoundMode::Epoch(self.par_epoch)
            } else {
                rrq_core::BoundMode::Local
            }
        }
    }

    thread_local! {
        static SCOPE: RefCell<Option<Scope>> = const { RefCell::new(None) };
    }

    /// Opens a collection scope for `experiment`, recording the run
    /// configuration. Replaces any scope already open on this thread.
    pub fn begin(experiment: &str, cfg: &ExpConfig) {
        let mut metrics = ExperimentMetrics::new(experiment);
        metrics.config_pair("p_card", cfg.p_card);
        metrics.config_pair("w_card", cfg.w_card);
        metrics.config_pair("queries", cfg.queries);
        metrics.config_pair("k", cfg.k);
        metrics.config_pair("partitions", cfg.partitions);
        metrics.config_pair("seed", cfg.seed);
        metrics.config_pair("threads", cfg.threads.max(1));
        // Exported only when the parallel query engine is actually on:
        // `rrq-benchdiff` compares the *base* document's config keys, so
        // sequential baselines keep matching documents produced by newer
        // binaries.
        if cfg.par_query > 1 {
            metrics.config_pair("par_query", cfg.par_query);
            metrics.config_pair(
                "par_mode",
                if cfg.par_epoch > 0 {
                    "epoch"
                } else {
                    "deterministic"
                },
            );
            if cfg.par_epoch > 0 {
                metrics.config_pair("par_epoch", cfg.par_epoch);
            }
            if cfg.par_pool {
                metrics.config_pair("par_pool", 1);
            }
        }
        // Same base-side-only rule: export the key only when the
        // threshold index is attached, so pre-index baselines keep
        // matching plain runs.
        if cfg.threshold_index {
            metrics.config_pair("threshold_index", 1);
        }
        SCOPE.with(|s| {
            *s.borrow_mut() = Some(Scope {
                metrics,
                label: String::new(),
                threads: cfg.threads.max(1),
                par_query: cfg.par_query.max(1),
                par_pool: cfg.par_pool,
                par_epoch: cfg.par_epoch,
                threshold_index: cfg.threshold_index,
            });
        });
    }

    /// Whether a scope is open (drives the traced second pass).
    pub fn is_active() -> bool {
        SCOPE.with(|s| s.borrow().is_some())
    }

    /// Worker threads the open scope asks timed batches to use (1
    /// outside a scope — plain `time_rtk`/`time_rkr` callers measure
    /// sequentially, like the paper).
    pub fn threads() -> usize {
        SCOPE.with(|s| s.borrow().as_ref().map_or(1, |scope| scope.threads))
    }

    /// Intra-query worker threads the open scope asks GIR to use (1
    /// outside a scope).
    pub fn par_query() -> usize {
        SCOPE.with(|s| s.borrow().as_ref().map_or(1, |scope| scope.par_query))
    }

    /// The scope's intra-query parallel configuration, ready to hand to
    /// [`rrq_core::Gir::parallel`]. Outside a scope (or at
    /// `--par-query 1`) this is a single-thread configuration, which
    /// [`rrq_core::ParGir`] runs through the sequential engine outright
    /// — experiments can wrap GIR unconditionally.
    pub fn par_config() -> rrq_core::ParConfig {
        SCOPE.with(|s| {
            s.borrow()
                .as_ref()
                .map_or(rrq_core::ParConfig::deterministic(1), |scope| {
                    rrq_core::ParConfig {
                        threads: scope.par_query,
                        mode: scope.bound_mode(),
                    }
                })
        })
    }

    /// Whether the open scope asks for a persistent worker pool
    /// (`--par-pool`; false outside a scope).
    pub fn par_pool() -> bool {
        SCOPE.with(|s| s.borrow().as_ref().is_some_and(|scope| scope.par_pool))
    }

    /// Whether the open scope asks experiments to attach a
    /// [`rrq_core::ThresholdIndex`] to the GIR engines under test
    /// (`--threshold-index`; false outside a scope).
    pub fn threshold_index() -> bool {
        SCOPE.with(|s| {
            s.borrow()
                .as_ref()
                .is_some_and(|scope| scope.threshold_index)
        })
    }

    /// Tags subsequent runs with a free-form label (e.g. `"d=10"`).
    /// No-op outside a scope.
    pub fn set_label(label: impl Into<String>) {
        let label = label.into();
        SCOPE.with(|s| {
            if let Some(scope) = s.borrow_mut().as_mut() {
                scope.label = label;
            }
        });
    }

    /// Appends one timed batch to the open scope; no-op outside one.
    pub(crate) fn record(kind: &'static str, run: &AlgoRun) {
        SCOPE.with(|s| {
            if let Some(scope) = s.borrow_mut().as_mut() {
                scope.metrics.push(AlgoMetrics {
                    algorithm: run.name.to_string(),
                    query_kind: kind.to_string(),
                    label: scope.label.clone(),
                    queries: run.queries as u64,
                    mean_ms: run.mean_ms,
                    counters: run
                        .stats
                        .counters()
                        .iter()
                        .map(|&(n, v)| (n.to_string(), v))
                        .chain(run.extra.iter().cloned())
                        .collect(),
                    latency: Some(run.latency.summary()),
                    phases: run.phases.clone(),
                });
            }
        });
    }

    /// Closes the scope, returning everything recorded since
    /// [`begin`]. `None` if no scope was open.
    pub fn finish() -> Option<ExperimentMetrics> {
        SCOPE.with(|s| s.borrow_mut().take()).map(|s| s.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_baselines::Sim;
    use rrq_data::synthetic;

    #[test]
    fn smoke_config_is_small() {
        let c = ExpConfig::smoke();
        assert!(c.p_card <= 1000 && c.w_card <= 1000);
    }

    #[test]
    fn sample_queries_is_deterministic_and_from_p() {
        let c = ExpConfig::smoke();
        let p = synthetic::uniform_points(3, c.p_card, 10_000.0, 1).unwrap();
        let q1 = c.sample_queries(&p);
        let q2 = c.sample_queries(&p);
        assert_eq!(q1, q2);
        assert_eq!(q1.len(), c.queries);
        for q in &q1 {
            assert!(p.iter().any(|(_, row)| row == q.as_slice()));
        }
    }

    #[test]
    fn time_rtk_and_rkr_fill_stats() {
        let c = ExpConfig::smoke();
        let p = synthetic::uniform_points(3, c.p_card, 10_000.0, 1).unwrap();
        let w = synthetic::uniform_weights(3, c.w_card, 2).unwrap();
        let sim = Sim::new(&p, &w);
        let queries = c.sample_queries(&p);
        let rtk = time_rtk(&sim, &queries, c.k);
        assert_eq!(rtk.name, "SIM");
        assert_eq!(rtk.queries, c.queries);
        assert!(rtk.stats.multiplications > 0);
        assert!(rtk.mean_ms >= 0.0);
        assert_eq!(rtk.latency.count(), c.queries as u64);
        assert!(rtk.phases.is_empty(), "no traced pass outside a scope");
        let rkr = time_rkr(&sim, &queries, c.k);
        assert!(rkr.stats.multiplications > 0);
        assert!(rkr.mean_multiplications() > 0.0);
    }

    #[test]
    fn par_config_and_pool_follow_the_scope_flags() {
        let mut c = ExpConfig::smoke();
        c.par_query = 4;
        collect::begin("unit-par", &c);
        assert_eq!(
            collect::par_config(),
            rrq_core::ParConfig::deterministic(4),
            "--par-query alone keeps worker-local bounds"
        );
        assert!(!collect::par_pool());
        with_query_pool(|pool| assert!(pool.is_none(), "pool only opens with --par-pool"));

        c.par_epoch = 64;
        c.par_pool = true;
        collect::begin("unit-par", &c);
        let par_cfg = collect::par_config();
        assert_eq!(par_cfg.threads, 4);
        assert_eq!(
            par_cfg.mode,
            rrq_core::BoundMode::Epoch(64),
            "an explicit epoch size selects epoch snapshots"
        );
        with_query_pool(|pool| {
            let pool = pool.expect("pool requested by the scope");
            assert_eq!(pool.workers(), 4);
        });
        let metrics = collect::finish().expect("scope was open");
        let pairs: Vec<&str> = metrics.config.iter().map(|(k, _)| k.as_str()).collect();
        assert!(pairs.contains(&"par_epoch") && pairs.contains(&"par_pool"));

        // Outside a scope: sequential config, no pool.
        assert_eq!(collect::par_config(), rrq_core::ParConfig::deterministic(1));
        with_query_pool(|pool| assert!(pool.is_none()));
    }

    #[test]
    fn collect_scope_gathers_runs_and_phases() {
        let c = ExpConfig::smoke();
        let p = synthetic::uniform_points(3, c.p_card, 10_000.0, 3).unwrap();
        let w = synthetic::uniform_weights(3, c.w_card, 4).unwrap();
        let sim = Sim::new(&p, &w);
        let queries = c.sample_queries(&p);

        collect::begin("unit", &c);
        collect::set_label("case-a");
        let run = time_rtk(&sim, &queries, c.k);
        assert!(
            run.phases.iter().any(|ph| ph.path == "rtk"),
            "traced pass records phases inside a scope: {:?}",
            run.phases
        );
        let _ = time_rkr(&sim, &queries, c.k);
        let metrics = collect::finish().expect("scope was open");
        assert!(collect::finish().is_none(), "finish closes the scope");
        assert!(!collect::is_active());

        assert_eq!(metrics.experiment, "unit");
        assert_eq!(metrics.runs.len(), 2);
        assert_eq!(metrics.runs[0].query_kind, "rtk");
        assert_eq!(metrics.runs[0].label, "case-a");
        assert_eq!(metrics.runs[1].query_kind, "rkr");
        let mults = metrics.runs[0].counter("multiplications").unwrap();
        assert_eq!(mults, run.stats.multiplications);
        let lat = metrics.runs[0].latency.unwrap();
        assert_eq!(lat.count, c.queries as u64);
        assert!(lat.p50_ns <= lat.p99_ns && lat.p99_ns <= lat.max_ns);
        // The JSON export of a live collection round-trips.
        let json = metrics.to_json().to_pretty();
        let parsed = rrq_obs::json::parse(&json).expect("valid JSON");
        assert_eq!(
            parsed.get("experiment").and_then(|j| j.as_str()),
            Some("unit")
        );
    }
}
