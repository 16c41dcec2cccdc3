//! Differential suite for the materialized threshold index.
//!
//! The contract under test: attaching a [`ThresholdIndex`] changes *how
//! much work* the engines do (weights decided by one k-th-score
//! comparison never reach the grid scan) but never *what they answer*.
//!
//! 1. **Byte-identity** — across shapes × grid resolutions × k values
//!    (materialized buckets, bracket straddles, `k = 1`, `k = |P|`,
//!    `k > |P|`) × engines (sequential, `ParGir` in all three bound
//!    modes, pool-backed), RTK and RKR results with the index attached
//!    equal the results without it, entry for entry.
//! 2. **Funnel reconciliation** — explained runs with the index
//!    attached still reconcile their funnel exactly against the
//!    engine's `QueryStats`: the short-circuit books `threshold_hits`
//!    instead of distorting `scanned`, and indexed sequential/parallel
//!    documents agree structurally.
//! 3. **Sentinel boundaries** — the `usize::MAX` unsaturated-heap
//!    sentinel paths are pinned against the definitional `Naive`
//!    oracle at the heap-size edges (`k = 1`, `k = |P|`, `k = |P|+1`,
//!    `k = |W|`), with and without the index.

use rrq_baselines::Naive;
use rrq_core::{pool_scope, BoundMode, Gir, GirConfig, ParConfig, ThresholdIndex};
use rrq_data::synthetic;
use rrq_obs::ExplainDoc;
use rrq_types::{
    PointId, PointSet, QueryStats, RkrQuery, RkrResult, RtkQuery, RtkResult, WeightSet,
};

fn workload(dim: usize, np: usize, nw: usize, seed: u64) -> (PointSet, WeightSet) {
    (
        synthetic::uniform_points(dim, np, 10_000.0, seed).unwrap(),
        synthetic::uniform_weights(dim, nw, seed + 1).unwrap(),
    )
}

#[derive(Clone, Copy, Debug)]
enum Engine {
    Seq,
    Par(BoundMode),
    Pool,
}

const ENGINES: [Engine; 5] = [
    Engine::Seq,
    Engine::Par(BoundMode::Local),
    Engine::Par(BoundMode::Epoch(16)),
    Engine::Par(BoundMode::Shared),
    Engine::Pool,
];

fn run_rtk(gir: &Gir<'_>, engine: Engine, q: &[f64], k: usize) -> RtkResult {
    let mut stats = QueryStats::default();
    match engine {
        Engine::Seq => gir.reverse_top_k(q, k, &mut stats),
        Engine::Par(mode) => gir
            .parallel(ParConfig { threads: 3, mode })
            .reverse_top_k(q, k, &mut stats),
        Engine::Pool => pool_scope(3, |pool| {
            gir.parallel(ParConfig {
                threads: 3,
                mode: BoundMode::Epoch(16),
            })
            .with_pool(pool)
            .reverse_top_k(q, k, &mut stats)
        }),
    }
}

fn run_rkr(gir: &Gir<'_>, engine: Engine, q: &[f64], k: usize) -> RkrResult {
    let mut stats = QueryStats::default();
    match engine {
        Engine::Seq => gir.reverse_k_ranks(q, k, &mut stats),
        Engine::Par(mode) => gir
            .parallel(ParConfig { threads: 3, mode })
            .reverse_k_ranks(q, k, &mut stats),
        Engine::Pool => pool_scope(3, |pool| {
            gir.parallel(ParConfig {
                threads: 3,
                mode: BoundMode::Epoch(16),
            })
            .with_pool(pool)
            .reverse_k_ranks(q, k, &mut stats)
        }),
    }
}

/// Shapes × grids × k × engines: the indexed engines answer exactly what
/// the plain ones answer.
#[test]
fn indexed_results_are_byte_identical_across_engines() {
    for (dim, np, nw, seed) in [(3usize, 200, 64, 5u64), (4, 350, 90, 9)] {
        let (p, w) = workload(dim, np, nw, seed);
        // Buckets: k = 1, a mid bucket, and |P| — so the swept k values
        // exercise exact bucket hits, bracket straddles on both sides,
        // and the beyond-|P| always-member path.
        let buckets = [1usize, 7, np];
        for partitions in [8usize, 32] {
            let cfg = GirConfig {
                partitions,
                ..GirConfig::default()
            };
            let plain = Gir::new(&p, &w, cfg);
            let mut indexed = Gir::new(&p, &w, cfg);
            let ti = indexed.build_threshold_index(&buckets).unwrap();
            indexed.attach_threshold_index(ti).unwrap();
            let q = p.point(PointId(np / 3)).to_vec();
            for k in [1usize, 6, 7, 8, np, np + 1] {
                let label = format!("dim={dim} n={partitions} k={k}");
                let want_rtk = run_rtk(&plain, Engine::Seq, &q, k);
                let want_rkr = run_rkr(&plain, Engine::Seq, &q, k);
                for engine in ENGINES {
                    assert_eq!(
                        run_rtk(&indexed, engine, &q, k),
                        want_rtk,
                        "{label} rtk {engine:?}"
                    );
                    assert_eq!(
                        run_rtk(&plain, engine, &q, k),
                        want_rtk,
                        "{label} rtk plain {engine:?}"
                    );
                    assert_eq!(
                        run_rkr(&indexed, engine, &q, k),
                        want_rkr,
                        "{label} rkr {engine:?}"
                    );
                    assert_eq!(
                        run_rkr(&plain, engine, &q, k),
                        want_rkr,
                        "{label} rkr plain {engine:?}"
                    );
                }
            }
        }
    }
}

/// On a materialized bucket the short-circuit actually fires: RTK decides
/// (almost) every weight by one comparison, and the work drops.
#[test]
fn threshold_hits_replace_scans_on_bucket_ks() {
    let (p, w) = workload(4, 400, 120, 21);
    let k = 10;
    let plain = Gir::with_defaults(&p, &w);
    let mut indexed = Gir::with_defaults(&p, &w);
    let ti = indexed.build_threshold_index(&[k]).unwrap();
    indexed.attach_threshold_index(ti).unwrap();
    let q = p.point(PointId(50)).to_vec();

    let mut plain_stats = QueryStats::default();
    let mut idx_stats = QueryStats::default();
    let a = plain.reverse_top_k(&q, k, &mut plain_stats);
    let b = indexed.reverse_top_k(&q, k, &mut idx_stats);
    assert_eq!(a, b);
    // Every weight is decided by its bucket: k is materialized, so
    // decide_rtk never straddles.
    assert_eq!(idx_stats.threshold_hits, w.len() as u64);
    assert_eq!(idx_stats.pairs_classified(), 0, "no grid scans at all");
    assert!(plain_stats.pairs_classified() > 0);
    // RKR prunes against the rank-domain bucket ladder (its heap bound
    // is a rank, not k, so it needs rungs near wherever the bound
    // lands): certification skips most scans.
    let mut rkr_indexed = Gir::with_defaults(&p, &w);
    let ladder = ThresholdIndex::default_buckets(&[k], p.len());
    let ti = rkr_indexed.build_threshold_index(&ladder).unwrap();
    rkr_indexed.attach_threshold_index(ti).unwrap();
    let mut plain_stats = QueryStats::default();
    let mut idx_stats = QueryStats::default();
    let a = plain.reverse_k_ranks(&q, k, &mut plain_stats);
    let b = rkr_indexed.reverse_k_ranks(&q, k, &mut idx_stats);
    assert_eq!(a, b);
    assert!(idx_stats.threshold_hits > 0, "certification never fired");
    assert!(
        idx_stats.pairs_classified() < plain_stats.pairs_classified(),
        "indexed RKR did not reduce scanned pairs: {} vs {}",
        idx_stats.pairs_classified(),
        plain_stats.pairs_classified()
    );
}

/// Explained runs with the index attached reconcile exactly, and the
/// indexed sequential and parallel documents agree structurally.
#[test]
fn indexed_explain_funnels_reconcile() {
    let (p, w) = workload(3, 240, 80, 13);
    let np = p.len();
    let mut gir = Gir::with_defaults(&p, &w);
    let ti = gir.build_threshold_index(&[1, 8, np]).unwrap();
    gir.attach_threshold_index(ti).unwrap();
    let q = p.point(PointId(17)).to_vec();
    for k in [1usize, 5, 8, np + 1] {
        for rtk in [true, false] {
            let mut stats = QueryStats::default();
            let mut doc = ExplainDoc::new();
            if rtk {
                gir.reverse_top_k_explained(&q, k, &mut stats, &mut doc);
            } else {
                gir.reverse_k_ranks_explained(&q, k, &mut stats, &mut doc);
            }
            doc.funnel
                .reconcile(&stats.counters())
                .unwrap_or_else(|e| panic!("seq k={k} rtk={rtk}: {e}"));
            assert_eq!(doc.funnel.threshold_hits, stats.threshold_hits);

            let par = gir.parallel(ParConfig {
                threads: 3,
                mode: BoundMode::Local,
            });
            let mut par_stats = QueryStats::default();
            let mut par_doc = ExplainDoc::new();
            if rtk {
                par.reverse_top_k_explained(&q, k, &mut par_stats, &mut par_doc);
            } else {
                par.reverse_k_ranks_explained(&q, k, &mut par_stats, &mut par_doc);
            }
            par_doc
                .funnel
                .reconcile(&par_stats.counters())
                .unwrap_or_else(|e| panic!("par k={k} rtk={rtk}: {e}"));
            assert!(
                doc.structural_eq(&par_doc),
                "k={k} rtk={rtk} indexed seq/par diverge: {:?}",
                doc.diff(&par_doc, true)
            );
        }
    }
    // The funnel survives its JSON round trip with the new counter.
    let mut stats = QueryStats::default();
    let mut doc = ExplainDoc::new();
    gir.reverse_top_k_explained(&q, 8, &mut stats, &mut doc);
    assert!(stats.threshold_hits > 0);
    let reparsed = ExplainDoc::parse(&doc.to_pretty()).unwrap();
    assert_eq!(reparsed.funnel.threshold_hits, doc.funnel.threshold_hits);
}

/// Heap-sentinel boundary pinning against the definitional oracle:
/// `k = 1`, `k = |P|`, `k = |P|+1` (RTK always-member), `k = |W|` (RKR
/// heap never saturates, bound stays `usize::MAX`), across engines,
/// with and without the index.
#[test]
fn sentinel_boundaries_match_naive() {
    let (p, w) = workload(3, 60, 40, 29);
    let (np, nw) = (p.len(), w.len());
    let naive = Naive::new(&p, &w);
    let plain = Gir::with_defaults(&p, &w);
    let mut indexed = Gir::with_defaults(&p, &w);
    let ti = indexed.build_threshold_index(&[1, np / 2, np]).unwrap();
    indexed.attach_threshold_index(ti).unwrap();
    for qi in [0usize, np / 2, np - 1] {
        let q = p.point(PointId(qi)).to_vec();
        for k in [1usize, np, np + 1, nw] {
            let mut stats = QueryStats::default();
            let want_rtk = naive.reverse_top_k(&q, k, &mut stats);
            let want_rkr = naive.reverse_k_ranks(&q, k, &mut stats);
            if k > np {
                // rank ≤ |P| < k: every weight qualifies.
                assert_eq!(want_rtk.weights().len(), nw);
            }
            for gir in [&plain, &indexed] {
                for engine in ENGINES {
                    assert_eq!(
                        run_rtk(gir, engine, &q, k),
                        want_rtk,
                        "q={qi} k={k} rtk {engine:?}"
                    );
                    assert_eq!(
                        run_rkr(gir, engine, &q, k),
                        want_rkr,
                        "q={qi} k={k} rkr {engine:?}"
                    );
                }
            }
        }
    }
}

/// Mutating the engine after the index was persisted makes the stale
/// RRQT artifact fail `check_threshold_artifact` with
/// [`RrqError::ArtifactStale`]: the epoch is folded into both the
/// header and the fingerprint, so a structurally pristine file from
/// epoch N is rejected by an engine at epoch N+1.
#[test]
fn persisted_index_goes_stale_when_engine_mutates() {
    use rrq_core::persist::{read_threshold, write_threshold};
    use rrq_core::DynamicEngine;
    use rrq_types::RrqError;

    let (p, w) = workload(3, 80, 24, 41);
    let mut engine = DynamicEngine::new(p, w, GirConfig::default()).unwrap();
    engine.enable_threshold_index(&[1, 8, 80]).unwrap();
    let state = engine.snapshot();
    let idx = state.threshold_index().expect("index was enabled").clone();
    let path = std::env::temp_dir().join(format!("rrqt_stale_{}.bin", std::process::id()));
    write_threshold(&path, &idx).unwrap();

    // Round trip at the same epoch: still valid.
    let back = read_threshold(&path).unwrap();
    engine.check_threshold_artifact(&back).unwrap();

    // One published mutation later the artifact is rejected — first on
    // the epoch field alone.
    let mut stats = QueryStats::default();
    engine.insert_point(&[3.0, 4.0, 5.0]).unwrap();
    engine.publish(&mut stats).unwrap();
    let back = read_threshold(&path).unwrap();
    assert!(matches!(
        engine.check_threshold_artifact(&back),
        Err(RrqError::ArtifactStale { what: "epoch" })
    ));

    // Even with the epoch header byte-patched to match, the fingerprint
    // (data ‖ epoch) catches the forgery.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[34..42].copy_from_slice(&engine.epoch().to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let forged = read_threshold(&path).unwrap();
    assert_eq!(forged.epoch(), engine.epoch());
    assert!(matches!(
        engine.check_threshold_artifact(&forged),
        Err(RrqError::ArtifactStale { .. })
    ));

    // Re-enable at the current epoch: the freshly persisted artifact
    // checks clean again.
    let fresh = engine
        .snapshot()
        .threshold_index()
        .expect("repair kept the index attached")
        .clone();
    write_threshold(&path, &fresh).unwrap();
    let back = read_threshold(&path).unwrap();
    engine.check_threshold_artifact(&back).unwrap();
    std::fs::remove_file(&path).ok();
}

/// Corruption-matrix extension for the epoch header field: flipping
/// epoch bytes leaves the file structurally valid (the checksum covers
/// the exact-rung count and the payload, not the epoch) but the reader's
/// output must then fail the epoch/fingerprint staleness check rather
/// than be served.
#[test]
fn corrupted_epoch_header_is_caught_by_staleness_check() {
    use rrq_core::persist::{read_threshold, write_threshold};
    use rrq_core::DynamicEngine;
    use rrq_types::RrqError;

    let (p, w) = workload(3, 50, 16, 43);
    let mut engine = DynamicEngine::new(p, w, GirConfig::default()).unwrap();
    engine.enable_threshold_index(&[4]).unwrap();
    let idx = engine
        .snapshot()
        .threshold_index()
        .expect("index was enabled")
        .clone();
    let path = std::env::temp_dir().join(format!("rrqt_epoch_{}.bin", std::process::id()));
    write_threshold(&path, &idx).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[34] ^= 0x01; // epoch u64 LE at header offset 34..42
    std::fs::write(&path, &bytes).unwrap();
    let tampered = read_threshold(&path).unwrap();
    assert_ne!(tampered.epoch(), idx.epoch());
    assert!(matches!(
        engine.check_threshold_artifact(&tampered),
        Err(RrqError::ArtifactStale { what: "epoch" })
    ));
    // An immutable Gir attach rejects a nonzero-epoch artifact outright.
    let (p2, w2) = workload(3, 50, 16, 43);
    let mut gir = Gir::with_defaults(&p2, &w2);
    assert!(gir.attach_threshold_index(tampered).is_err());
    std::fs::remove_file(&path).ok();
}

/// A stale or mismatched artifact is rejected at attach time.
#[test]
fn attach_rejects_foreign_index() {
    let (p, w) = workload(3, 50, 20, 31);
    let (p2, w2) = workload(3, 50, 20, 37);
    let foreign = ThresholdIndex::build(&p2, &w2, &[5]).unwrap();
    let mut gir = Gir::with_defaults(&p, &w);
    assert!(gir.attach_threshold_index(foreign).is_err());
    assert!(gir.threshold_index().is_none());
    let own = gir.build_threshold_index(&[5]).unwrap();
    gir.attach_threshold_index(own).unwrap();
    assert!(gir.threshold_index().is_some());
    assert!(gir.detach_threshold_index().is_some());
    assert!(gir.threshold_index().is_none());
}

/// A point whose coordinates are all −0.0 (point validation accepts
/// them: −0.0 is not below 0.0) scores −0.0 under every weight, because
/// the `f64` sum starts at −0.0. Read as an unsigned key, its bit
/// pattern orders above every positive score, so the threshold column
/// kernel must map it to +0.0. RTK and RKR on a static engine and on a
/// mutable engine that inserts the point after its index was enabled
/// (so the publish repairs every column) must answer as Naive does, on
/// two ladders: every rank a rung (wrong RTK members), and rungs 1 and
/// |P| only, where `rank_floor` probes the top rung first (wrong RKR
/// skips).
#[test]
fn negative_zero_scores_match_naive() {
    use rrq_core::DynamicEngine;

    let zero = [-0.0, -0.0, -0.0];
    let rows = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]];
    let mut p = PointSet::new(3, 100.0).unwrap();
    let mut before = PointSet::new(3, 100.0).unwrap();
    p.push_slice(&zero).unwrap();
    for row in &rows {
        p.push_slice(row).unwrap();
        before.push_slice(row).unwrap();
    }
    let mut w = WeightSet::new(3).unwrap();
    for row in [[0.5, 0.5, 0.0], [0.0, 0.25, 0.75], [0.25, 0.5, 0.25]] {
        w.push_slice(&row).unwrap();
    }
    let naive = Naive::new(&p, &w);
    let mut stats = QueryStats::default();
    for buckets in [&[1usize, 2, 3, 4][..], &[1, 4]] {
        let mut gir = Gir::with_defaults(&p, &w);
        let ti = gir.build_threshold_index(buckets).unwrap();
        gir.attach_threshold_index(ti).unwrap();
        let mut engine =
            DynamicEngine::new(before.clone(), w.clone(), GirConfig::default()).unwrap();
        engine.enable_threshold_index(buckets).unwrap();
        engine.insert_point(&zero).unwrap();
        let mut publish_stats = QueryStats::default();
        engine.publish(&mut publish_stats).unwrap();
        assert_eq!(publish_stats.threshold_rows_repaired, w.len() as u64);
        let state = engine.snapshot();
        let view = state.view();
        for q in [
            [1.0, 1.0, 1.0],
            [5.0, 5.0, 5.0],
            [9.0, 9.0, 9.0],
            rows[1],
            [0.0; 3],
        ] {
            for k in 1..=5 {
                let label = format!("buckets {buckets:?} q={q:?} k={k}");
                let want_rtk = naive.reverse_top_k(&q, k, &mut stats);
                let want_rkr = naive.reverse_k_ranks(&q, k, &mut stats);
                let got = gir.reverse_top_k(&q, k, &mut stats);
                assert_eq!(got, want_rtk, "static rtk {label}");
                let got = gir.reverse_k_ranks(&q, k, &mut stats);
                assert_eq!(got, want_rkr, "static rkr {label}");
                let got = view.reverse_top_k(&q, k, &mut stats);
                assert_eq!(got, want_rtk, "mutable rtk {label}");
                let got = view.reverse_k_ranks(&q, k, &mut stats);
                assert_eq!(got, want_rkr, "mutable rkr {label}");
            }
        }
    }
}
