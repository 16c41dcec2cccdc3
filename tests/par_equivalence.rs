//! Differential test harness for the parallel query engine and its
//! persistent worker pool.
//!
//! The contract under test (DESIGN.md §5b): for every bound-sharing mode,
//! worker count, epoch size and engine configuration (threshold index
//! included), with or without an attached long-lived [`WorkerPool`], the
//! parallel engine returns results **byte-identical** to the sequential
//! scan — and the full [`QueryStats`] counters are an exact function of
//! `(data, query, shards, epoch)` too, whether the shards ran on an
//! attached pool or on the one-off pool an unattached engine opens.
//!
//! Workloads are seeded through [`SplitMix64`] so every derived dataset,
//! query choice and configuration sweep is reproducible from one root
//! seed.

use reverse_rank::core::ThresholdIndex;
use reverse_rank::data::{DataSpec, PointDistribution, SplitMix64, WeightDistribution};
use reverse_rank::obs::SharedRecorder;
use reverse_rank::{
    pool_scope, BoundMode, Gir, GirConfig, ParConfig, PointId, PointSet, QueryStats, RkrQuery,
    RkrResult, RtkQuery, RtkResult, WeightSet,
};

/// One randomized workload: generated sets plus the queries to pose.
struct Workload {
    p: PointSet,
    w: WeightSet,
    queries: Vec<Vec<f64>>,
    k: usize,
}

/// The `(d, |P|, |W|)` grid the harness sweeps. Sizes are chosen so the
/// weight shards are non-trivial for every worker count in
/// [`WORKER_COUNTS`] while the full sweep stays fast in CI.
const SHAPES: &[(usize, usize, usize)] = &[(2, 300, 48), (4, 400, 96), (6, 250, 130)];

/// Worker counts: degenerate (1), even splits (2, 4) and a count that
/// leaves a ragged final shard (7).
const WORKER_COUNTS: &[usize] = &[1, 2, 4, 7];

fn workloads(root_seed: u64) -> Vec<Workload> {
    let mut sm = SplitMix64::new(root_seed);
    let mut out = Vec::new();
    for &(dim, n_points, n_weights) in SHAPES {
        let spec = DataSpec {
            points: if dim >= 6 {
                PointDistribution::Clustered
            } else {
                PointDistribution::Uniform
            },
            weights: WeightDistribution::Uniform,
            dim,
            n_points,
            n_weights,
            seed: sm.next_u64(),
        };
        let (p, w) = spec.generate().expect("generation");
        // Two member queries plus one perturbed off-grid query per shape.
        let mut queries = Vec::new();
        for _ in 0..2 {
            let qid = (sm.next_u64() as usize) % p.len();
            queries.push(p.point(PointId(qid)).to_vec());
        }
        let qid = (sm.next_u64() as usize) % p.len();
        let mut q = p.point(PointId(qid)).to_vec();
        for x in &mut q {
            *x = (*x * 0.875).min(9.999);
        }
        queries.push(q);
        let k = 2 + (sm.next_u64() as usize) % 6;
        out.push(Workload { p, w, queries, k });
    }
    out
}

/// The engine configurations swept per workload: the defaults, a
/// bit-packed fine grid (different cell classification, same answers),
/// and the defaults with a threshold index at the workload's `k` (RTK
/// decided by one comparison per weight, RKR shards visited best-first).
/// `true` marks the indexed one.
fn grid_configs() -> Vec<(GirConfig, bool)> {
    vec![
        (GirConfig::default(), false),
        (
            GirConfig {
                partitions: 128,
                packed: true,
                ..Default::default()
            },
            false,
        ),
        (GirConfig::default(), true),
    ]
}

/// Builds one engine of [`grid_configs`] over a workload.
fn engine(wl: &Workload, cfg: GirConfig, indexed: bool) -> Gir<'_> {
    let mut gir = Gir::new(&wl.p, &wl.w, cfg);
    if indexed {
        let buckets = ThresholdIndex::default_buckets(&[wl.k], wl.p.len());
        let index = gir.build_threshold_index(&buckets).expect("index builds");
        gir.attach_threshold_index(index).expect("index attaches");
    }
    gir
}

/// The bound-sharing modes exercised for a workload with `nw` weights:
/// per-worker local bounds, and epoch snapshots at the extremes (every
/// weight, the default 64, one round).
fn modes(nw: usize) -> Vec<BoundMode> {
    vec![
        BoundMode::Local,
        BoundMode::Epoch(1),
        BoundMode::Epoch(64),
        BoundMode::Epoch(nw.max(1)),
    ]
}

/// Sequential ground truth for one query.
fn expected(gir: &Gir, q: &[f64], k: usize) -> (RtkResult, QueryStats, RkrResult, QueryStats) {
    let mut rtk_stats = QueryStats::default();
    let rtk = gir.reverse_top_k(q, k, &mut rtk_stats);
    let mut rkr_stats = QueryStats::default();
    let rkr = gir.reverse_k_ranks(q, k, &mut rkr_stats);
    (rtk, rtk_stats, rkr, rkr_stats)
}

/// The tentpole assertion: every (engine × mode × workers × pool)
/// combination returns the sequential answer bit-for-bit, and an engine
/// without an attached pool books exactly the counters of one with it.
#[test]
fn pool_and_scope_match_sequential_across_the_configuration_grid() {
    for wl in workloads(0xD1FF_E4E2) {
        for (cfg, indexed) in grid_configs() {
            let gir = engine(&wl, cfg, indexed);
            for q in &wl.queries {
                let (rtk_exp, _, rkr_exp, _) = expected(&gir, q, wl.k);
                for &workers in WORKER_COUNTS {
                    for mode in modes(wl.w.len()) {
                        let par_cfg = ParConfig {
                            threads: workers,
                            mode,
                        };
                        let scoped = gir.parallel(par_cfg);
                        let mut scoped_rtk_stats = QueryStats::default();
                        let got_rtk = scoped.reverse_top_k(q, wl.k, &mut scoped_rtk_stats);
                        assert_eq!(
                            got_rtk,
                            rtk_exp,
                            "scoped RTK diverged ({par_cfg:?}, {:?}, indexed {indexed})",
                            gir.config()
                        );
                        let mut scoped_rkr_stats = QueryStats::default();
                        let got_rkr = scoped.reverse_k_ranks(q, wl.k, &mut scoped_rkr_stats);
                        assert_eq!(
                            got_rkr,
                            rkr_exp,
                            "scoped RKR diverged ({par_cfg:?}, {:?}, indexed {indexed})",
                            gir.config()
                        );

                        pool_scope(workers, |pool| {
                            let pooled = gir.parallel(par_cfg).with_pool(pool);
                            let mut pool_rtk_stats = QueryStats::default();
                            assert_eq!(
                                pooled.reverse_top_k(q, wl.k, &mut pool_rtk_stats),
                                rtk_exp,
                                "pooled RTK diverged ({par_cfg:?})"
                            );
                            let mut pool_rkr_stats = QueryStats::default();
                            assert_eq!(
                                pooled.reverse_k_ranks(q, wl.k, &mut pool_rkr_stats),
                                rkr_exp,
                                "pooled RKR diverged ({par_cfg:?})"
                            );
                            assert_eq!(
                                pool_rtk_stats, scoped_rtk_stats,
                                "pooled RTK counters must equal scoped ({par_cfg:?})"
                            );
                            assert_eq!(
                                pool_rkr_stats, scoped_rkr_stats,
                                "pooled RKR counters must equal scoped ({par_cfg:?})"
                            );
                        });
                    }
                }
            }
        }
    }
}

/// Epoch-mode counters are reproducible run-to-run, with or without an
/// attached pool and with or without a threshold index: two fresh
/// executions of the same `(data, query, shards, epoch)` tuple yield
/// identical [`QueryStats`], making the mode gateable by `rrq-benchdiff`
/// at zero counter tolerance.
#[test]
fn epoch_mode_stats_are_a_pure_function_of_the_configuration() {
    for wl in workloads(0xE9_0C) {
        for (cfg, indexed) in grid_configs() {
            let gir = engine(&wl, cfg, indexed);
            epoch_runs_reproduce(&gir, &wl, indexed);
        }
    }
}

/// Runs every epoch configuration of one engine twice on a pool and once
/// unattached, and checks the three agree exactly.
fn epoch_runs_reproduce(gir: &Gir<'_>, wl: &Workload, indexed: bool) {
    let q = &wl.queries[0];
    for &workers in &[2usize, 4, 7] {
        for &every in &[1usize, 64, wl.w.len()] {
            let par_cfg = ParConfig::epoch(workers, every);
            let runs: Vec<(RtkResult, QueryStats, RkrResult, QueryStats)> = (0..2)
                .map(|_| {
                    pool_scope(workers, |pool| {
                        let eng = gir.parallel(par_cfg).with_pool(pool);
                        let mut rtk_stats = QueryStats::default();
                        let rtk = eng.reverse_top_k(q, wl.k, &mut rtk_stats);
                        let mut rkr_stats = QueryStats::default();
                        let rkr = eng.reverse_k_ranks(q, wl.k, &mut rkr_stats);
                        (rtk, rtk_stats, rkr, rkr_stats)
                    })
                })
                .collect();
            assert_eq!(
                runs[0], runs[1],
                "epoch mode must be bit-reproducible \
                 (workers={workers}, every={every}, indexed {indexed})"
            );
            // And an unattached engine agrees with the pool exactly.
            let scoped = gir.parallel(par_cfg);
            let mut rtk_stats = QueryStats::default();
            let rtk = scoped.reverse_top_k(q, wl.k, &mut rtk_stats);
            let mut rkr_stats = QueryStats::default();
            let rkr = scoped.reverse_k_ranks(q, wl.k, &mut rkr_stats);
            assert_eq!(
                runs[0],
                (rtk, rtk_stats, rkr, rkr_stats),
                "scoped epoch run must match pooled \
                 (workers={workers}, every={every}, indexed {indexed})"
            );
        }
    }
}

/// Pool lifecycle: one pool serves many consecutive queries without
/// respawning workers; `par.pool_reuse` counts every query after the
/// first and the pool's own stats show the accumulated job fan-out.
#[test]
fn one_pool_serves_consecutive_queries_and_books_reuse() {
    let wl = &workloads(0x11FE)[1];
    let gir = Gir::with_defaults(&wl.p, &wl.w);
    pool_scope(4, |pool| {
        let eng = gir.parallel(ParConfig::deterministic(4)).with_pool(pool);
        let rec = SharedRecorder::new();
        let mut answers = Vec::new();
        for q in &wl.queries {
            let mut stats = QueryStats::default();
            answers.push(eng.reverse_k_ranks_traced(q, wl.k, &mut stats, &rec));
        }
        assert_eq!(answers.len(), 3);
        let booked = pool.stats();
        assert_eq!(booked.queries, 3, "each query is one pool run");
        assert_eq!(booked.jobs, 12, "4 shard jobs per query, no respawn");
        assert_eq!(
            rec.counter("par.pool_reuse"),
            Some(2),
            "every query after the first reuses live workers"
        );
        for (q, ans) in wl.queries.iter().zip(&answers) {
            let mut stats = QueryStats::default();
            assert_eq!(&gir.reverse_k_ranks(q, wl.k, &mut stats), ans);
        }
    });
}

/// A panicking job surfaces as an error on the submitting query but must
/// not poison the pool: the next query on the same workers succeeds.
#[test]
fn worker_panic_does_not_poison_later_queries() {
    pool_scope(2, |pool| {
        let boom: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("differential harness: deliberate job panic")),
        ];
        let err = pool
            .run(boom)
            .expect_err("panic must propagate as an error");
        assert!(
            err.to_string().contains("deliberate job panic"),
            "payload text surfaces in the error: {err}"
        );
        let ok = pool.run(
            (0..4usize)
                .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
                .collect(),
        );
        assert_eq!(ok.expect("pool survives a panicked job"), vec![0, 1, 4, 9]);
    });
}

/// An undersized pool (0 or 1 workers) degrades to the sequential scan —
/// counted via `par.sequential_fallback`, never deadlocked, and still
/// correct.
#[test]
fn undersized_pools_fall_back_to_the_sequential_scan() {
    let wl = &workloads(0x5E0_FA11)[0];
    let gir = Gir::with_defaults(&wl.p, &wl.w);
    let q = &wl.queries[0];
    let mut expect_stats = QueryStats::default();
    let expect = gir.reverse_top_k(q, wl.k, &mut expect_stats);
    for workers in [0usize, 1] {
        pool_scope(workers, |pool| {
            let eng = gir.parallel(ParConfig::epoch(4, 16)).with_pool(pool);
            let rec = SharedRecorder::new();
            let mut stats = QueryStats::default();
            assert_eq!(eng.reverse_top_k_traced(q, wl.k, &mut stats, &rec), expect);
            assert_eq!(stats, expect_stats, "fallback is the sequential engine");
            assert_eq!(rec.counter("par.sequential_fallback"), Some(1));
            assert_eq!(pool.stats().queries, 0, "no work reaches the pool");
        });
    }
}

/// `pool_scope` returning at all proves drop-joins: workers park on the
/// job channel, so the scope can only exit once the pool handle's drop
/// disconnects them and `thread::scope` joins every worker.
#[test]
fn pool_scope_joins_workers_on_exit() {
    let witnessed = pool_scope(3, |pool| {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..6usize)
            .map(|i| Box::new(move || i + 100) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        pool.run(jobs).expect("jobs complete")
    });
    assert_eq!(witnessed, vec![100, 101, 102, 103, 104, 105]);
}
