//! Explain-document determinism and equivalence matrix.
//!
//! Three properties across a seeded shape × grid × engine-mode sweep:
//!
//! 1. **Determinism** — running the same seeded query twice produces
//!    byte-identical `ExplainDoc` JSON, for the sequential engine and
//!    for `ParGir` in deterministic (local) and epoch bound modes
//!    (shard sinks merge in worker-index order, so the document is a
//!    pure function of the input).
//! 2. **Cross-engine agreement** — sequential and parallel documents of
//!    the same query are structurally equal (header + result set); the
//!    coverage sections legitimately differ because parallel shards
//!    prune with different bounds.
//! 3. **Reconciliation** — every document's funnel agrees *exactly*
//!    with the `QueryStats` the same run produced, and the explained
//!    entry points return the same results and counters as the plain
//!    ones (explain observes the scan, never perturbs it).
//!
//! Plus the fault-injection check: corrupting one cell of a captured
//! document makes `ExplainDoc::diff` name exactly that cell.

use rrq_core::{BoundMode, Gir, GirConfig, ParConfig};
use rrq_data::synthetic;
use rrq_obs::explain::cell_key;
use rrq_obs::ExplainDoc;
use rrq_types::{PointId, PointSet, QueryStats, RkrQuery, RtkQuery, WeightSet};

/// One engine configuration of the sweep.
#[derive(Clone, Copy, Debug)]
enum Engine {
    Seq,
    Par(BoundMode),
}

const ENGINES: [Engine; 3] = [
    Engine::Seq,
    Engine::Par(BoundMode::Local),
    Engine::Par(BoundMode::Epoch(16)),
];

fn workload(dim: usize, np: usize, nw: usize, seed: u64) -> (PointSet, WeightSet) {
    (
        synthetic::uniform_points(dim, np, 10_000.0, seed).unwrap(),
        synthetic::uniform_weights(dim, nw, seed + 1).unwrap(),
    )
}

/// Runs one explained query on the given engine; returns the document
/// plus the stats of the same run.
fn run_explained(
    gir: &Gir<'_>,
    engine: Engine,
    rtk: bool,
    q: &[f64],
    k: usize,
) -> (ExplainDoc, QueryStats) {
    let mut stats = QueryStats::default();
    let mut doc = ExplainDoc::new();
    match engine {
        Engine::Seq => {
            if rtk {
                gir.reverse_top_k_explained(q, k, &mut stats, &mut doc);
            } else {
                gir.reverse_k_ranks_explained(q, k, &mut stats, &mut doc);
            }
        }
        Engine::Par(mode) => {
            let par = gir.parallel(ParConfig { threads: 3, mode });
            if rtk {
                par.reverse_top_k_explained(q, k, &mut stats, &mut doc);
            } else {
                par.reverse_k_ranks_explained(q, k, &mut stats, &mut doc);
            }
        }
    }
    (doc, stats)
}

/// The full sweep: shapes × grids × k × both query kinds × all engines.
#[test]
fn explain_matrix_is_deterministic_reconciled_and_engine_invariant() {
    for (dim, np, nw, seed) in [(3usize, 240, 80, 11u64), (5, 400, 60, 23)] {
        let (p, w) = workload(dim, np, nw, seed);
        for partitions in [8usize, 32] {
            let gir = Gir::new(
                &p,
                &w,
                GirConfig {
                    partitions,
                    ..GirConfig::default()
                },
            );
            let q = p.point(PointId(np / 2)).to_vec();
            for k in [1usize, 12] {
                for rtk in [true, false] {
                    let label = format!(
                        "dim={dim} n={partitions} k={k} {}",
                        if rtk { "rtk" } else { "rkr" }
                    );
                    let (seq_doc, seq_stats) = run_explained(&gir, Engine::Seq, rtk, &q, k);
                    seq_doc
                        .funnel
                        .reconcile(&seq_stats.counters())
                        .unwrap_or_else(|e| panic!("{label} seq: {e}"));
                    for engine in ENGINES {
                        let (doc, stats) = run_explained(&gir, engine, rtk, &q, k);
                        doc.funnel
                            .reconcile(&stats.counters())
                            .unwrap_or_else(|e| panic!("{label} {engine:?}: {e}"));
                        assert!(
                            seq_doc.structural_eq(&doc),
                            "{label} {engine:?} diverges from seq: {:?}",
                            seq_doc.diff(&doc, true)
                        );
                        let (again, _) = run_explained(&gir, engine, rtk, &q, k);
                        assert_eq!(
                            doc.to_pretty(),
                            again.to_pretty(),
                            "{label} {engine:?} not byte-reproducible"
                        );
                    }
                }
            }
        }
    }
}

/// The explained entry points are pure observers: identical results and
/// identical counters to the plain paths, engine by engine.
#[test]
fn explained_paths_do_not_perturb_results_or_stats() {
    let (p, w) = workload(4, 300, 90, 7);
    let gir = Gir::with_defaults(&p, &w);
    let q = p.point(PointId(42)).to_vec();
    let k = 10;

    let mut plain_stats = QueryStats::default();
    let plain_rtk = gir.reverse_top_k(&q, k, &mut plain_stats);
    let (doc, stats) = run_explained(&gir, Engine::Seq, true, &q, k);
    assert_eq!(stats, plain_stats, "rtk counters perturbed by explain");
    let expect: Vec<u64> = plain_rtk.weights().iter().map(|wid| wid.0 as u64).collect();
    let got: Vec<u64> = doc.results.iter().map(|(wid, _)| *wid).collect();
    assert_eq!(got, expect, "rtk result set mismatch");

    let mut plain_stats = QueryStats::default();
    let plain_rkr = gir.reverse_k_ranks(&q, k, &mut plain_stats);
    let (doc, stats) = run_explained(&gir, Engine::Seq, false, &q, k);
    assert_eq!(stats, plain_stats, "rkr counters perturbed by explain");
    let expect: Vec<(u64, u64)> = plain_rkr
        .entries()
        .iter()
        .map(|e| (e.weight.0 as u64, e.rank as u64))
        .collect();
    assert_eq!(doc.results, expect, "rkr result set mismatch");

    // Parallel local mode: same counters as its own plain run.
    let par = gir.parallel(ParConfig {
        threads: 3,
        mode: BoundMode::Local,
    });
    let mut plain_stats = QueryStats::default();
    let _ = par.reverse_k_ranks(&q, k, &mut plain_stats);
    let (_, stats) = run_explained(&gir, Engine::Par(BoundMode::Local), false, &q, k);
    assert_eq!(stats, plain_stats, "par counters perturbed by explain");
}

/// Fault injection: corrupt one cell of a captured document and the
/// diff names exactly that cell, before any later divergence.
#[test]
fn diff_pinpoints_an_injected_cell_divergence() {
    let (p, w) = workload(3, 240, 80, 31);
    let gir = Gir::with_defaults(&p, &w);
    let q = p.point(PointId(17)).to_vec();
    let (doc, _) = run_explained(&gir, Engine::Seq, false, &q, 8);
    assert!(doc.cells.len() >= 3, "need cells to corrupt");

    let mut corrupt = doc.clone();
    // Pick a middle cell so the diff must walk past intact ones, and
    // also drift the timeline — the cell must still win (cells order
    // before timeline).
    let victim = corrupt
        .cells
        .keys()
        .nth(corrupt.cells.len() / 2)
        .unwrap()
        .clone();
    corrupt.cells.get_mut(&victim).unwrap().refined.count += 1;
    corrupt.timeline.clear();

    let d = doc.diff(&corrupt, false).expect("corruption detected");
    assert_eq!(d.section, "cell", "wrong section: {d}");
    assert_eq!(d.key, cell_key(&victim), "wrong cell: {d}");

    // Structural diff ignores coverage: the corrupted doc still agrees.
    assert!(doc.structural_eq(&corrupt));

    // And the diff survives a serialisation round trip.
    let reparsed = ExplainDoc::parse(&corrupt.to_pretty()).unwrap();
    let d2 = doc
        .diff(&reparsed, false)
        .expect("corruption survives JSON");
    assert_eq!(d2.section, "cell");
    assert_eq!(d2.key, cell_key(&victim));
}
