//! Differential trace-replay harness for the epoch-versioned mutable
//! engine (`rrq_core::snapshot`).
//!
//! A seeded SplitMix64 generator produces interleaved traces of point /
//! weight inserts and deletes, publishes, compactions and RTK / RKR
//! queries. The trace is replayed twice in lockstep:
//!
//! * against the **mutable engine** — tombstones, append tails,
//!   incremental threshold repair, epoch publishes, compaction folds —
//!   queried through all four engines (sequential, `ParGir`
//!   local/epoch, pool-backed);
//! * against a **rebuild-from-scratch oracle** — a shadow model of the
//!   published live rows, re-indexed with `Gir::new` at every query
//!   point.
//!
//! At every query point the external-id-mapped results must be
//! byte-identical between the two, for every engine, and every explained
//! run's funnel must reconcile *exactly* against the counters of the
//! same run (`Funnel::reconcile`, which includes the new
//! `tombstones_skipped` / `appended_scanned` mirrors). With a threshold
//! index, the incrementally repaired table itself must equal a
//! from-scratch build over the live rows, bit for bit, on every live
//! column. The rebuild
//! legitimately books different counters (its grid re-tightens the
//! weight axis), so counters are reconciled per engine, not compared
//! across the pair — results are the contract.
//!
//! Dedicated edge traces: deleting every point of one grid cell,
//! re-inserting byte-identical duplicate rows (tie semantics), a
//! compaction fold in the middle of a query stream, and k at both edges
//! (1 and beyond the live cardinality).

use rrq_core::{
    pool_scope, BoundMode, DynamicEngine, EngineState, Gir, GirConfig, ParConfig, ThresholdIndex,
};
use rrq_data::synthetic;
use rrq_obs::ExplainDoc;
use rrq_types::{PointSet, QueryStats, RkrQuery, RtkQuery, WeightSet};
use std::sync::Arc;

/// SplitMix64 (Steele et al.) — the workspace's seeded trace generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const RANGE: f64 = 100.0;

/// How a trace draws its rows.
#[derive(Clone, Copy, PartialEq)]
enum Values {
    /// Uniform coordinates and weight components: scores rarely tie.
    Uniform,
    /// Coordinates in {0, 25, 50, 75} and weight components in
    /// multiples of 1/4: every product and sum is exact, so scores take
    /// few values and tie at and around every rung.
    Dyadic,
}

fn random_point(rng: &mut SplitMix64, dim: usize, values: Values) -> Vec<f64> {
    match values {
        Values::Uniform => (0..dim).map(|_| rng.f64() * RANGE * 0.999).collect(),
        Values::Dyadic => (0..dim).map(|_| rng.below(4) as f64 * 25.0).collect(),
    }
}

fn random_weight(rng: &mut SplitMix64, dim: usize, values: Values) -> Vec<f64> {
    if values == Values::Dyadic {
        let mut row = vec![0.0; dim];
        for _ in 0..4 {
            row[rng.below(dim as u64) as usize] += 0.25;
        }
        return row;
    }
    let mut row: Vec<f64> = (0..dim).map(|_| rng.f64() + 1e-6).collect();
    let sum: f64 = row.iter().sum();
    for v in &mut row {
        *v /= sum;
    }
    row
}

/// The published live rows, maintained independently of the engine: the
/// ground truth the rebuild oracle indexes. Order is insertion order
/// with deletions folded out — exactly the engine's internal-id order.
#[derive(Default)]
struct Shadow {
    points: Vec<(u64, Vec<f64>)>,
    weights: Vec<(u64, Vec<f64>)>,
}

/// A staged-but-unpublished mutation, mirrored test-side.
enum PendingOp {
    InsP(u64, Vec<f64>),
    DelP(u64),
    InsW(u64, Vec<f64>),
    DelW(u64),
}

impl Shadow {
    fn apply(&mut self, pending: &mut Vec<PendingOp>) {
        for op in pending.drain(..) {
            match op {
                PendingOp::InsP(e, row) => self.points.push((e, row)),
                PendingOp::DelP(e) => self.points.retain(|(x, _)| *x != e),
                PendingOp::InsW(e, row) => self.weights.push((e, row)),
                PendingOp::DelW(e) => self.weights.retain(|(x, _)| *x != e),
            }
        }
    }

    fn rebuild_sets(&self, dim: usize) -> (PointSet, WeightSet, Vec<u64>) {
        let mut p = PointSet::new(dim, RANGE).unwrap();
        for (_, row) in &self.points {
            p.push_slice(row).unwrap();
        }
        let mut w = WeightSet::new(dim).unwrap();
        let mut w_ext = Vec::with_capacity(self.weights.len());
        for (e, row) in &self.weights {
            w.push_slice(row).unwrap();
            w_ext.push(*e);
        }
        (p, w, w_ext)
    }
}

#[derive(Clone, Copy, Debug)]
enum Engine {
    Seq,
    Par(BoundMode),
    Pooled,
}

const ENGINES: [Engine; 4] = [
    Engine::Seq,
    Engine::Par(BoundMode::Local),
    Engine::Par(BoundMode::Epoch(8)),
    Engine::Pooled,
];

/// Plain (production-path) run: RTK ext-id list and RKR (ext, rank)
/// list, plus the stats of the run.
fn run_plain<F: Fn(usize) -> u64>(
    gir: &Gir<'_, impl rrq_core::grid::GridTable + Sync>,
    engine: Engine,
    q: &[f64],
    k: usize,
    ext_of: F,
) -> (Vec<u64>, Vec<(u64, usize)>, QueryStats) {
    let mut stats = QueryStats::default();
    let (rtk, rkr) = match engine {
        Engine::Seq => (
            gir.reverse_top_k(q, k, &mut stats),
            gir.reverse_k_ranks(q, k, &mut stats),
        ),
        Engine::Par(mode) => {
            let par = gir.parallel(ParConfig { threads: 3, mode });
            (
                par.reverse_top_k(q, k, &mut stats),
                par.reverse_k_ranks(q, k, &mut stats),
            )
        }
        Engine::Pooled => pool_scope(3, |pool| {
            let par = gir
                .parallel(ParConfig {
                    threads: 3,
                    mode: BoundMode::Local,
                })
                .with_pool(pool);
            (
                par.reverse_top_k(q, k, &mut stats),
                par.reverse_k_ranks(q, k, &mut stats),
            )
        }),
    };
    let rtk_ext: Vec<u64> = rtk.weights().iter().map(|wid| ext_of(wid.0)).collect();
    let rkr_ext: Vec<(u64, usize)> = rkr
        .entries()
        .iter()
        .map(|e| (ext_of(e.weight.0), e.rank))
        .collect();
    (rtk_ext, rkr_ext, stats)
}

/// Explained run of the same query: reconciles the funnel against the
/// run's own counters and returns the ext-mapped result sets, plus the
/// stats of the RTK and RKR runs together.
fn run_explained<F: Fn(usize) -> u64>(
    gir: &Gir<'_, impl rrq_core::grid::GridTable + Sync>,
    engine: Engine,
    q: &[f64],
    k: usize,
    ext_of: F,
    label: &str,
) -> (Vec<u64>, Vec<(u64, usize)>, QueryStats) {
    let mut rtk_out = Vec::new();
    let mut rkr_out = Vec::new();
    let mut total = QueryStats::default();
    for rtk in [true, false] {
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
            Engine::Pooled => pool_scope(3, |pool| {
                let par = gir
                    .parallel(ParConfig {
                        threads: 3,
                        mode: BoundMode::Local,
                    })
                    .with_pool(pool);
                if rtk {
                    par.reverse_top_k_explained(q, k, &mut stats, &mut doc);
                } else {
                    par.reverse_k_ranks_explained(q, k, &mut stats, &mut doc);
                }
            }),
        }
        doc.funnel
            .reconcile(&stats.counters())
            .unwrap_or_else(|e| panic!("{label} {engine:?} funnel: {e}"));
        total.merge(&stats);
        if rtk {
            rtk_out = doc
                .results
                .iter()
                .map(|(wid, _)| ext_of(*wid as usize))
                .collect();
        } else {
            rkr_out = doc
                .results
                .iter()
                .map(|(wid, rank)| (ext_of(*wid as usize), *rank as usize))
                .collect();
        }
    }
    (rtk_out, rkr_out, total)
}

/// The table invariant, in its two halves, on every live column of the
/// repaired threshold table of `state` (tombstoned columns are dead
/// storage until compaction and are skipped):
///
/// * the exact rungs equal `ThresholdIndex::build` over the live rows
///   with the same buckets, bit for bit;
/// * every floor rung is sound: at least its count of live points score
///   at or below its stored score.
///
/// This pins the publish path's `row_affected` filter and floor-count
/// upkeep: a column it wrongly leaves unrepaired keeps stale exact rungs
/// here, and a count it fails to decrement overstates its rung, even
/// when no query answer happens to expose either. Returns the number of
/// floor-rung checks.
fn assert_threshold_table_matches_rebuild(
    state: &EngineState,
    buckets: &[usize],
    label: &str,
) -> usize {
    let table = state
        .threshold_index()
        .unwrap_or_else(|| panic!("{label}: no threshold index attached"));
    let dim = table.dims();
    let mut p = PointSet::new(dim, RANGE).unwrap();
    for (_, row) in state.live_point_entries() {
        p.push_slice(row).unwrap();
    }
    let mut w = WeightSet::new(dim).unwrap();
    for (_, row) in state.live_weight_entries() {
        w.push_slice(row).unwrap();
    }
    let oracle = ThresholdIndex::build(&p, &w, buckets).unwrap();
    assert_eq!(table.buckets(), oracle.buckets(), "{label}: buckets");
    assert_eq!(table.n_points(), oracle.n_points(), "{label}: live points");
    let n_w = table.n_weights();
    assert_eq!(n_w, state.total_weight_width(), "{label}: width");
    let mut live = 0;
    let mut floor_checks = 0;
    for wid in 0..state.total_weight_width() {
        if !state.weight_is_live(wid) {
            continue;
        }
        let (b_exact, b_floor) = oracle.buckets().split_at(table.n_exact());
        for (bi, b) in b_exact.iter().enumerate() {
            let got = table.scores()[bi * n_w + wid];
            let want = oracle.scores()[bi * oracle.n_weights() + live];
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{label}: column {wid} rung {b} diverged from rebuild"
            );
        }
        let w_row = w.weight(rrq_types::WeightId(live));
        for (r, b) in b_floor.iter().enumerate() {
            let stored = f64::from(table.floor_scores()[r * n_w + wid]);
            let count = table.floor_counts()[r * n_w + wid] as usize;
            let at_or_below = p
                .iter()
                .filter(|(_, row)| rrq_types::dot(w_row, row) <= stored)
                .count();
            assert!(
                count <= at_or_below,
                "{label}: column {wid} floor rung {b} counts {count} live points \
                 at or below {stored}, only {at_or_below} are"
            );
            floor_checks += 1;
        }
        live += 1;
    }
    assert_eq!(live, oracle.n_weights(), "{label}: live columns");
    floor_checks
}

/// The heart of the harness: at one query point, every engine over the
/// mutable snapshot must equal every engine over the rebuilt oracle,
/// after external-id mapping, and every funnel must reconcile. Returns
/// the number of floor-rung soundness checks made.
#[allow(clippy::too_many_arguments)]
fn assert_query_point(
    state: &Arc<EngineState>,
    shadow: &Shadow,
    dim: usize,
    config: GirConfig,
    buckets: Option<&[usize]>,
    q: &[f64],
    k: usize,
    label: &str,
) -> usize {
    let view = state.view();
    let (op, ow, ow_ext) = shadow.rebuild_sets(dim);
    let mut oracle = Gir::new(&op, &ow, config);
    if let Some(b) = buckets {
        let idx = oracle.build_threshold_index(b).unwrap();
        oracle.attach_threshold_index(idx).unwrap();
    }

    // The shadow IS the engine's live-row bookkeeping, pinned directly.
    let live_w: Vec<(u64, Vec<f64>)> = state
        .live_weight_entries()
        .iter()
        .map(|(e, r)| (*e, r.to_vec()))
        .collect();
    assert_eq!(live_w, shadow.weights, "{label}: live weights vs shadow");
    let live_p: Vec<(u64, Vec<f64>)> = state
        .live_point_entries()
        .iter()
        .map(|(e, r)| (*e, r.to_vec()))
        .collect();
    assert_eq!(live_p, shadow.points, "{label}: live points vs shadow");
    let floor_checks = buckets.map_or(0, |b| {
        assert_threshold_table_matches_rebuild(state, b, label)
    });

    let (want_rtk, want_rkr, _) = run_plain(&oracle, Engine::Seq, q, k, |wid| ow_ext[wid]);

    for engine in ENGINES {
        let (got_rtk, got_rkr, plain_stats) =
            run_plain(&view, engine, q, k, |wid| state.weight_external(wid));
        assert_eq!(got_rtk, want_rtk, "{label} {engine:?}: rtk vs rebuild");
        assert_eq!(got_rkr, want_rkr, "{label} {engine:?}: rkr vs rebuild");

        // Oracle under the same engine must agree with oracle-seq too
        // (per-engine determinism of the rebuilt index).
        let (o_rtk, o_rkr, o_stats) = run_plain(&oracle, engine, q, k, |wid| ow_ext[wid]);
        assert_eq!(o_rtk, want_rtk, "{label} {engine:?}: oracle engines differ");
        assert_eq!(o_rkr, want_rkr, "{label} {engine:?}: oracle engines differ");

        // Explained runs: identical results, exactly reconciled funnel —
        // on the mutable view (tombstone/append mirrors included) and on
        // the rebuild. Explain only observes the scan, and every engine's
        // counters are deterministic, so they equal the plain run's.
        let (e_rtk, e_rkr, e_stats) =
            run_explained(&view, engine, q, k, |wid| state.weight_external(wid), label);
        assert_eq!(e_rtk, want_rtk, "{label} {engine:?}: explained rtk");
        assert_eq!(e_rkr, want_rkr, "{label} {engine:?}: explained rkr");
        let (_, _, oe_stats) = run_explained(&oracle, engine, q, k, |wid| ow_ext[wid], label);
        assert_eq!(e_stats, plain_stats, "{label} {engine:?}: explained stats");
        assert_eq!(
            oe_stats, o_stats,
            "{label} {engine:?}: oracle explained stats"
        );
    }
    floor_checks
}

/// Replays one generated trace. Returns the number of query points and
/// of floor-rung soundness checks made (so callers can assert the trace
/// was not vacuous).
#[allow(clippy::too_many_arguments)]
fn replay_trace(
    dim: usize,
    np0: usize,
    nw0: usize,
    partitions: usize,
    seed: u64,
    n_ops: usize,
    buckets: Option<&[usize]>,
    values: Values,
    label_prefix: &str,
) -> (usize, usize) {
    let (p0, w0) = match values {
        Values::Uniform => (
            synthetic::uniform_points(dim, np0, RANGE, seed).unwrap(),
            synthetic::uniform_weights(dim, nw0, seed + 1).unwrap(),
        ),
        Values::Dyadic => {
            let mut rng = SplitMix64(seed);
            let mut p = PointSet::new(dim, RANGE).unwrap();
            for _ in 0..np0 {
                p.push_slice(&random_point(&mut rng, dim, values)).unwrap();
            }
            let mut w = WeightSet::new(dim).unwrap();
            for _ in 0..nw0 {
                w.push_slice(&random_weight(&mut rng, dim, values)).unwrap();
            }
            (p, w)
        }
    };
    let config = GirConfig {
        partitions,
        ..GirConfig::default()
    };
    let mut engine = DynamicEngine::new(p0.clone(), w0.clone(), config).unwrap();
    if let Some(b) = buckets {
        engine.enable_threshold_index(b).unwrap();
    }

    let mut shadow = Shadow::default();
    for (i, (_, row)) in p0.iter().enumerate() {
        shadow.points.push((i as u64, row.to_vec()));
    }
    for (i, (_, row)) in w0.iter().enumerate() {
        shadow.weights.push((i as u64, row.to_vec()));
    }
    // Stageable set: published live ∪ staged inserts − staged deletes.
    let mut stageable_p: Vec<u64> = shadow.points.iter().map(|(e, _)| *e).collect();
    let mut stageable_w: Vec<u64> = shadow.weights.iter().map(|(e, _)| *e).collect();
    let mut pending: Vec<PendingOp> = Vec::new();

    let mut rng = SplitMix64(seed ^ 0xdead_beef);
    let mut stats = QueryStats::default();
    let mut queries_checked = 0usize;
    let mut floor_checks = 0usize;

    for step in 0..n_ops {
        let label = format!("{label_prefix} step {step}");
        match rng.below(100) {
            0..=13 => {
                // Insert a point — half the time a byte-identical
                // duplicate of a live row (tie semantics under re-insert).
                let row = if rng.below(2) == 0 && !shadow.points.is_empty() {
                    let j = rng.below(shadow.points.len() as u64) as usize;
                    shadow.points[j].1.clone()
                } else {
                    random_point(&mut rng, dim, values)
                };
                let ext = engine.insert_point(&row).unwrap();
                stageable_p.push(ext);
                pending.push(PendingOp::InsP(ext, row));
            }
            14..=23 => {
                if stageable_p.len() > 4 {
                    let j = rng.below(stageable_p.len() as u64) as usize;
                    let ext = stageable_p.swap_remove(j);
                    engine.delete_point(ext).unwrap();
                    pending.push(PendingOp::DelP(ext));
                }
            }
            24..=33 => {
                let row = random_weight(&mut rng, dim, values);
                let ext = engine.insert_weight(&row).unwrap();
                stageable_w.push(ext);
                pending.push(PendingOp::InsW(ext, row));
            }
            34..=39 => {
                if stageable_w.len() > 3 {
                    let j = rng.below(stageable_w.len() as u64) as usize;
                    let ext = stageable_w.swap_remove(j);
                    engine.delete_weight(ext).unwrap();
                    pending.push(PendingOp::DelW(ext));
                }
            }
            40..=52 => {
                let before = engine.epoch();
                let epoch = engine.publish(&mut stats).unwrap();
                assert_eq!(epoch, before + 1, "{label}: epoch must be monotone");
                shadow.apply(&mut pending);
            }
            53..=55 => {
                engine.compact(&mut stats).unwrap();
                shadow.apply(&mut pending);
                let state = engine.snapshot();
                assert_eq!(
                    state.tombstoned_counts(),
                    (0, 0),
                    "{label}: fold left tombstones"
                );
                assert_eq!(
                    state.appended_counts(),
                    (0, 0),
                    "{label}: fold left appends"
                );
            }
            _ => {
                // Query point: the published snapshot vs the rebuilt
                // shadow. k sweeps both edges.
                let state = engine.snapshot();
                let q = if rng.below(3) == 0 || shadow.points.is_empty() {
                    random_point(&mut rng, dim, values)
                } else {
                    let j = rng.below(shadow.points.len() as u64) as usize;
                    shadow.points[j].1.clone()
                };
                let k = match rng.below(4) {
                    0 => 1,
                    1 => 2 + rng.below(5) as usize,
                    2 => shadow.weights.len().max(1),
                    _ => shadow.weights.len() + 3,
                };
                floor_checks +=
                    assert_query_point(&state, &shadow, dim, config, buckets, &q, k, &label);
                queries_checked += 1;
            }
        }
    }
    // Final barrier: publish what's left and check once more.
    engine.publish(&mut stats).unwrap();
    shadow.apply(&mut pending);
    let state = engine.snapshot();
    let q = random_point(&mut rng, dim, values);
    floor_checks += assert_query_point(
        &state,
        &shadow,
        dim,
        config,
        buckets,
        &q,
        3,
        &format!("{label_prefix} final"),
    );
    assert!(
        stats.epoch_published > 0,
        "{label_prefix}: no publish in trace"
    );
    (queries_checked + 1, floor_checks)
}

/// The tentpole matrix: shapes × grids × seeds, no threshold index.
#[test]
fn mutable_engine_equals_rebuild_across_traces() {
    let mut total = 0;
    for (dim, np0, nw0, partitions, seed) in [
        (3usize, 60, 16, 8, 42u64),
        (4, 90, 20, 32, 7),
        (2, 40, 12, 16, 1234),
    ] {
        total += replay_trace(
            dim,
            np0,
            nw0,
            partitions,
            seed,
            90,
            None,
            Values::Uniform,
            &format!("trace(d{dim},s{seed})"),
        )
        .0;
    }
    assert!(total >= 30, "traces checked only {total} query points");
}

/// Same harness with a threshold index attached: incremental repair at
/// every publish must keep the mutable engine equal to an oracle that
/// rebuilds its threshold table from scratch. A ladder of powers of two
/// has no served `k`, so every rung stays exact and the whole table is
/// checked bit for bit.
#[test]
fn mutable_engine_with_threshold_equals_rebuild() {
    let (checked, floor_checks) = replay_trace(
        3,
        70,
        18,
        16,
        99,
        80,
        Some(&[1, 4, 16, 64]),
        Values::Uniform,
        "thr-trace",
    );
    assert!(checked >= 8, "threshold trace checked only {checked}");
    assert_eq!(floor_checks, 0, "a power-of-two ladder must stay all-exact");
}

/// Split ladders: the rungs up to the served `k` must equal a rebuild
/// bit for bit, and every floor rung above it must stay sound, at every
/// query point, while every engine's answers match the rebuild. The
/// default ladder at k = 6 over 70 points (exact 5, 6; floors 8 to 64),
/// the same on exact dyadic ties with duplicate re-inserts, and a
/// ladder split at 33 below a top rung past |P|.
#[test]
fn mutable_engine_with_split_threshold_equals_rebuild() {
    let default_ladder = ThresholdIndex::default_buckets(&[6], 70);
    let mut floor_checks = 0;
    for (buckets, values, seed, label) in [
        (
            default_ladder.clone(),
            Values::Uniform,
            131u64,
            "split-trace",
        ),
        (default_ladder, Values::Dyadic, 137, "split-dyadic-trace"),
        (
            vec![1, 4, 9, 33, 64, 100],
            Values::Uniform,
            139,
            "split-33-trace",
        ),
    ] {
        let (checked, floors) =
            replay_trace(3, 70, 18, 16, seed, 100, Some(&buckets), values, label);
        assert!(checked >= 8, "{label} checked only {checked} query points");
        assert!(floors > 0, "{label} checked no floor rung");
        floor_checks += floors;
    }
    assert!(
        floor_checks >= 2_000,
        "only {floor_checks} floor-rung checks"
    );
}

/// Edge trace: every point of one grid cell is deleted (a whole cell
/// goes dark), then byte-identical duplicates are re-inserted. The
/// strictly-preceding rank rule and smaller-id tie-breaks must survive
/// both transitions.
#[test]
fn deleting_a_whole_cell_and_reinserting_duplicates_matches_rebuild() {
    let dim = 3;
    let config = GirConfig {
        partitions: 8,
        ..GirConfig::default()
    };
    // 12 unique points plus 6 byte-identical copies of one row: the
    // copies all quantise into the same cell.
    let dup_row = vec![37.5, 37.5, 37.5];
    let mut p = PointSet::new(dim, RANGE).unwrap();
    let uniq = synthetic::uniform_points(dim, 12, RANGE, 5).unwrap();
    for (_, row) in uniq.iter() {
        p.push_slice(row).unwrap();
    }
    for _ in 0..6 {
        p.push_slice(&dup_row).unwrap();
    }
    let w = synthetic::uniform_weights(dim, 10, 6).unwrap();
    let mut engine = DynamicEngine::new(p.clone(), w.clone(), config).unwrap();
    let mut shadow = Shadow::default();
    for (i, (_, row)) in p.iter().enumerate() {
        shadow.points.push((i as u64, row.to_vec()));
    }
    for (i, (_, row)) in w.iter().enumerate() {
        shadow.weights.push((i as u64, row.to_vec()));
    }
    let mut pending = Vec::new();
    let mut stats = QueryStats::default();

    // Phase 1: delete every copy (ids 12..18) — the whole cell goes dark.
    for ext in 12u64..18 {
        engine.delete_point(ext).unwrap();
        pending.push(PendingOp::DelP(ext));
    }
    engine.publish(&mut stats).unwrap();
    shadow.apply(&mut pending);
    let state = engine.snapshot();
    for k in [1usize, 5, 13] {
        assert_query_point(&state, &shadow, dim, config, None, &dup_row, k, "cell-dark");
    }

    // Phase 2: re-insert byte-identical duplicates (plus one more than
    // before) and query with q equal to the duplicated row — maximal tie
    // pressure on the strictly-preceding rank rule.
    for _ in 0..7 {
        let ext = engine.insert_point(&dup_row).unwrap();
        pending.push(PendingOp::InsP(ext, dup_row.clone()));
    }
    engine.publish(&mut stats).unwrap();
    shadow.apply(&mut pending);
    let state = engine.snapshot();
    for k in [1usize, 5, 10, 13] {
        assert_query_point(
            &state,
            &shadow,
            dim,
            config,
            None,
            &dup_row,
            k,
            "cell-reborn",
        );
    }

    // Phase 3: compaction folds the churn; results must not move.
    engine.compact(&mut stats).unwrap();
    let state = engine.snapshot();
    assert_eq!(state.tombstoned_counts(), (0, 0));
    for k in [1usize, 5, 13] {
        assert_query_point(
            &state,
            &shadow,
            dim,
            config,
            None,
            &dup_row,
            k,
            "cell-compacted",
        );
    }
}

/// Concurrency pinning: pool workers holding an epoch-N snapshot answer
/// identically before and after the main thread publishes N+1 mid-batch
/// — no torn reads — and same-seed runs are counter-exact. The writer
/// never blocks on the readers' `Arc`.
#[test]
fn pinned_epoch_answers_identically_across_a_publish() {
    let dim = 4;
    let config = GirConfig {
        partitions: 16,
        ..GirConfig::default()
    };
    let p = synthetic::uniform_points(dim, 80, RANGE, 21).unwrap();
    let w = synthetic::uniform_weights(dim, 24, 22).unwrap();
    let q = {
        let mut rng = SplitMix64(77);
        random_point(&mut rng, dim, Values::Uniform)
    };
    let mut engine = DynamicEngine::new(p, w, config).unwrap();
    let mut stats = QueryStats::default();
    engine.delete_point(3).unwrap();
    engine.insert_point(&[1.0, 2.0, 3.0, 4.0]).unwrap();
    engine.publish(&mut stats).unwrap();

    // Pin epoch 1.
    let pinned = engine.snapshot();
    assert_eq!(pinned.epoch(), 1);
    let view = pinned.view();

    pool_scope(3, |pool| {
        let par = engine_view_pooled(&view, pool);
        let mut s1 = QueryStats::default();
        let before = par.reverse_k_ranks(&q, 6, &mut s1);

        // Writer publishes N+1 on the MAIN thread, mid-batch: the pinned
        // snapshot must not observe it.
        let mut wstats = QueryStats::default();
        let mut rng = SplitMix64(99);
        for _ in 0..10 {
            let row = random_point(&mut rng, dim, Values::Uniform);
            engine.insert_point(&row).unwrap();
        }
        engine.delete_weight(5).unwrap();
        let epoch = engine.publish(&mut wstats).unwrap();
        assert_eq!(epoch, 2);

        let mut s2 = QueryStats::default();
        let after = par.reverse_k_ranks(&q, 6, &mut s2);
        assert_eq!(
            before.entries(),
            after.entries(),
            "pinned snapshot result torn by publish"
        );
        // Same-seed runs are benchdiff-exact: identical counters.
        assert_eq!(s1, s2, "pinned snapshot counters torn by publish");
    });

    // A fresh snapshot sees the new epoch and different live data.
    let fresh = engine.snapshot();
    assert_eq!(fresh.epoch(), 2);
    assert_eq!(fresh.live_point_count(), pinned.live_point_count() + 10);
}

fn engine_view_pooled<'q, 'a>(
    view: &'a Gir<'a, &'a rrq_core::Grid>,
    pool: &'q rrq_core::WorkerPool<'a>,
) -> rrq_core::ParGir<'q, 'a, &'a rrq_core::Grid> {
    view.parallel(ParConfig {
        threads: 3,
        mode: BoundMode::Local,
    })
    .with_pool(pool)
}

/// Unwind safety: a writer that panics mid-batch (after staging, before
/// the publish swap completes) leaves the published state fully
/// serviceable — readers keep their epoch, the handle is not poisoned,
/// and the engine publishes cleanly afterwards.
#[test]
fn panicking_writer_leaves_published_state_intact() {
    let dim = 3;
    let config = GirConfig::default();
    let p = synthetic::uniform_points(dim, 50, RANGE, 31).unwrap();
    let w = synthetic::uniform_weights(dim, 12, 32).unwrap();
    let mut engine = DynamicEngine::new(p, w, config).unwrap();
    let mut stats = QueryStats::default();
    engine.insert_point(&[5.0, 5.0, 5.0]).unwrap();
    engine.publish(&mut stats).unwrap();

    let pinned = engine.snapshot();
    assert_eq!(pinned.epoch(), 1);
    let q = vec![5.0, 5.0, 5.0];
    let mut s = QueryStats::default();
    let before = pinned.view().reverse_k_ranks(&q, 4, &mut s);

    // The writer stages half a batch, publishes it, then panics before
    // staging the rest. catch_unwind plays the role of the caller's
    // supervisor.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut wstats = QueryStats::default();
        engine.delete_point(2).unwrap();
        engine.publish(&mut wstats).unwrap();
        panic!("writer dies mid-batch");
    }));
    assert!(result.is_err(), "writer was supposed to panic");

    // The pinned reader still answers from epoch 1, identically.
    let mut s2 = QueryStats::default();
    let again = pinned.view().reverse_k_ranks(&q, 4, &mut s2);
    assert_eq!(before.entries(), again.entries());
    assert_eq!(s, s2);

    // The handle is not poisoned: fresh snapshots serve the epoch the
    // panicking writer managed to publish, and the engine still works.
    let fresh = engine.snapshot();
    assert_eq!(fresh.epoch(), 2);
    let mut wstats = QueryStats::default();
    engine.insert_weight(&[0.5, 0.3, 0.2]).unwrap();
    let epoch = engine.publish(&mut wstats).unwrap();
    assert_eq!(epoch, 3);
    assert_eq!(engine.snapshot().live_weight_count(), 13);
}
