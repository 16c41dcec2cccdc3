//! Seeded mutate-and-replay runner: the bench-facing twin of
//! `crates/core/tests/update_equivalence.rs`.
//!
//! A SplitMix64 trace of point/weight inserts and deletes is replayed
//! against a [`DynamicEngine`] (tombstones, append tails, incremental
//! threshold repair, epoch publishes, compaction folds). At every
//! checkpoint the trace pauses, publishes, and runs the configured RTK
//! and RKR queries twice: once through the mutable engine's snapshot
//! view and once through an index **rebuilt from scratch** over the
//! same live rows. The external-id-mapped results must be identical —
//! a mismatch is a hard error, not a report row.
//!
//! The runner deliberately reads no clock: everything it exports —
//! the merged [`QueryStats`] of the mutable path (including the
//! update-path counters `tombstones_skipped`, `appended_scanned`,
//! `threshold_rows_repaired` and `epoch_published`), the rebuild
//! path's counters, and the `trace_*` op census — is a pure function
//! of (seed, configuration), so `rrq-benchdiff` gates the exported
//! `BENCH_update.json` at its exact default thresholds.

use crate::table::Table;
use crate::ExpConfig;
use rrq_core::{DynamicEngine, EngineState, Gir, GirConfig, ThresholdIndex};
use rrq_data::synthetic;
use rrq_obs::{AlgoMetrics, ExperimentMetrics};
use rrq_types::{PointSet, QueryStats, RkrQuery, RtkQuery, WeightSet};
use std::sync::Arc;

/// Point-axis range of the generated data (matches the experiment
/// harness's synthetic scale).
const RANGE: f64 = 10_000.0;

/// Configuration of a mutate-and-replay run, parsed from the
/// `--mutate` specification string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutateConfig {
    /// Seed of the SplitMix64 op stream (the `trace=` key).
    pub trace_seed: u64,
    /// Mutation operations replayed in total, spread evenly across the
    /// checkpoints.
    pub ops: usize,
    /// Publish-and-verify checkpoints.
    pub checkpoints: usize,
    /// Data dimensionality.
    pub dim: usize,
}

impl Default for MutateConfig {
    fn default() -> Self {
        Self {
            trace_seed: 42,
            ops: 240,
            checkpoints: 6,
            dim: 4,
        }
    }
}

impl MutateConfig {
    /// Parses a `key=value,key=value` specification, e.g.
    /// `trace=42,ops=240,checkpoints=6,dim=4`. Unknown keys are
    /// errors; every key is optional.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut cfg = Self::default();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("mutate spec `{part}` is not key=value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad mutate {key}={value}: {e}");
            match key {
                "trace" => cfg.trace_seed = value.parse::<u64>().map_err(|e| bad(&e))?,
                "ops" => cfg.ops = value.parse::<usize>().map_err(|e| bad(&e))?.max(1),
                "checkpoints" => {
                    cfg.checkpoints = value.parse::<usize>().map_err(|e| bad(&e))?.max(1)
                }
                "dim" => {
                    cfg.dim = value.parse::<usize>().map_err(|e| bad(&e))?;
                    if !(2..=16).contains(&cfg.dim) {
                        return Err(format!("mutate dim must be in 2..=16, got {value}"));
                    }
                }
                other => return Err(format!("unknown mutate key `{other}`")),
            }
        }
        Ok(cfg)
    }
}

/// Everything one `--mutate` invocation produced.
pub struct MutateReport {
    /// Structured metrics (mutable path, rebuild path, trace census),
    /// exported to `BENCH_update.json`.
    pub metrics: ExperimentMetrics,
    /// Human-readable checkpoint table.
    pub table: Table,
}

/// SplitMix64 — the trace generator shared (by construction, not by
/// code) with the core equivalence suite.
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

/// Deterministic census of the applied trace.
#[derive(Default)]
struct TraceCensus {
    point_inserts: u64,
    point_deletes: u64,
    weight_inserts: u64,
    weight_deletes: u64,
    publishes: u64,
    compactions: u64,
}

/// The published live rows in engine order — the rebuild oracle's
/// input and the external-id map for its results.
#[derive(Default)]
struct Shadow {
    points: Vec<(u64, Vec<f64>)>,
    weights: Vec<(u64, Vec<f64>)>,
}

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

    fn rebuild_sets(&self, dim: usize) -> Result<(PointSet, WeightSet), String> {
        let mut p = PointSet::new(dim, RANGE).map_err(|e| format!("rebuild points: {e:?}"))?;
        for (_, row) in &self.points {
            p.push_slice(row)
                .map_err(|e| format!("rebuild points: {e:?}"))?;
        }
        let mut w = WeightSet::new(dim).map_err(|e| format!("rebuild weights: {e:?}"))?;
        for (_, row) in &self.weights {
            w.push_slice(row)
                .map_err(|e| format!("rebuild weights: {e:?}"))?;
        }
        Ok((p, w))
    }
}

fn random_point(rng: &mut SplitMix64, dim: usize) -> Vec<f64> {
    (0..dim).map(|_| rng.f64() * RANGE * 0.999).collect()
}

fn random_weight(rng: &mut SplitMix64, dim: usize) -> Vec<f64> {
    let mut row: Vec<f64> = (0..dim).map(|_| rng.f64() + 1e-6).collect();
    let sum: f64 = row.iter().sum();
    for v in &mut row {
        *v /= sum;
    }
    row
}

/// Runs one checkpoint query pair on a view, returning the ext-mapped
/// results and booking into `stats`.
fn run_queries(
    gir: &Gir<'_, impl rrq_core::grid::GridTable + Sync>,
    q: &[f64],
    k: usize,
    ext_of: &dyn Fn(usize) -> u64,
    stats: &mut QueryStats,
) -> (Vec<u64>, Vec<(u64, usize)>) {
    let rtk = gir.reverse_top_k(q, k, stats);
    let rkr = gir.reverse_k_ranks(q, k, stats);
    (
        rtk.weights().iter().map(|wid| ext_of(wid.0)).collect(),
        rkr.entries()
            .iter()
            .map(|e| (ext_of(e.weight.0), e.rank))
            .collect(),
    )
}

/// Replays the trace: mutation phase per checkpoint, publish, verify
/// mutable-vs-rebuild, repeat. Returns metrics + table, or the first
/// divergence as an error.
pub fn run(cfg: &ExpConfig, mc: &MutateConfig) -> Result<MutateReport, String> {
    let dim = mc.dim;
    let p0 = synthetic::uniform_points(dim, cfg.p_card, RANGE, cfg.seed)
        .map_err(|e| format!("generation: {e:?}"))?;
    let w0 = synthetic::uniform_weights(dim, cfg.w_card, cfg.seed + 1)
        .map_err(|e| format!("generation: {e:?}"))?;
    let gcfg = GirConfig {
        partitions: cfg.partitions,
        ..GirConfig::default()
    };
    let mut engine =
        DynamicEngine::new(p0.clone(), w0.clone(), gcfg).map_err(|e| format!("engine: {e:?}"))?;
    // The serving ladder real callers use: the rungs up to `k` stay
    // exact, and above a `k` off the rung sequence (see
    // `ThresholdIndex::served_k`) the rungs are count-tracked floor
    // rungs, so the gate pins both halves of the publish's threshold
    // upkeep.
    let buckets = ThresholdIndex::default_buckets(&[cfg.k], cfg.p_card);
    engine
        .enable_threshold_index(&buckets)
        .map_err(|e| format!("threshold enable: {e:?}"))?;

    let mut shadow = Shadow::default();
    for (i, (_, row)) in p0.iter().enumerate() {
        shadow.points.push((i as u64, row.to_vec()));
    }
    for (i, (_, row)) in w0.iter().enumerate() {
        shadow.weights.push((i as u64, row.to_vec()));
    }
    let mut stageable_p: Vec<u64> = shadow.points.iter().map(|(e, _)| *e).collect();
    let mut stageable_w: Vec<u64> = shadow.weights.iter().map(|(e, _)| *e).collect();
    let mut pending: Vec<PendingOp> = Vec::new();

    let mut rng = SplitMix64(mc.trace_seed ^ 0x5eed_5eed);
    let mut census = TraceCensus::default();
    let mut writer_stats = QueryStats::default();
    let mut mut_stats = QueryStats::default();
    let mut rebuild_stats = QueryStats::default();

    let mut table = Table::new(
        "Update trace: mutable engine vs rebuild",
        &[
            "checkpoint",
            "epoch",
            "live |P|",
            "live |W|",
            "tombstones",
            "appended",
            "rtk",
            "rkr",
            "match",
        ],
    );

    let ops_per = mc.ops.div_ceil(mc.checkpoints);
    for checkpoint in 0..mc.checkpoints {
        for _ in 0..ops_per {
            match rng.below(100) {
                0..=29 => {
                    let row = if rng.below(3) == 0 && !shadow.points.is_empty() {
                        let j = rng.below(shadow.points.len() as u64) as usize;
                        shadow.points[j].1.clone()
                    } else {
                        random_point(&mut rng, dim)
                    };
                    let ext = engine
                        .insert_point(&row)
                        .map_err(|e| format!("insert_point: {e:?}"))?;
                    stageable_p.push(ext);
                    pending.push(PendingOp::InsP(ext, row));
                    census.point_inserts += 1;
                }
                30..=49 if stageable_p.len() > 8 => {
                    let j = rng.below(stageable_p.len() as u64) as usize;
                    let ext = stageable_p.swap_remove(j);
                    engine
                        .delete_point(ext)
                        .map_err(|e| format!("delete_point: {e:?}"))?;
                    pending.push(PendingOp::DelP(ext));
                    census.point_deletes += 1;
                }
                50..=74 => {
                    let row = random_weight(&mut rng, dim);
                    let ext = engine
                        .insert_weight(&row)
                        .map_err(|e| format!("insert_weight: {e:?}"))?;
                    stageable_w.push(ext);
                    pending.push(PendingOp::InsW(ext, row));
                    census.weight_inserts += 1;
                }
                75..=89 if stageable_w.len() > 4 => {
                    let j = rng.below(stageable_w.len() as u64) as usize;
                    let ext = stageable_w.swap_remove(j);
                    engine
                        .delete_weight(ext)
                        .map_err(|e| format!("delete_weight: {e:?}"))?;
                    pending.push(PendingOp::DelW(ext));
                    census.weight_deletes += 1;
                }
                _ => {}
            }
        }
        // One deterministic fold mid-trace: later checkpoints re-grow
        // the delta, so the gate sees both the folded and the
        // tombstone/append-tail regimes.
        if checkpoint == mc.checkpoints / 2 {
            engine.request_compaction();
        }
        engine
            .publish(&mut writer_stats)
            .map_err(|e| format!("publish: {e:?}"))?;
        census.publishes += 1;
        shadow.apply(&mut pending);

        let state: Arc<EngineState> = engine.snapshot();
        if state.tombstoned_counts() == (0, 0) && state.appended_counts() == (0, 0) {
            census.compactions += 1;
        }
        let (tp, tw) = state.tombstoned_counts();
        let (ap, aw) = state.appended_counts();

        // Checkpoint query: a live point two thirds of the time, a
        // fresh random location otherwise.
        let q = if rng.below(3) != 0 && !shadow.points.is_empty() {
            let j = rng.below(shadow.points.len() as u64) as usize;
            shadow.points[j].1.clone()
        } else {
            random_point(&mut rng, dim)
        };

        let view = state.view();
        let (mut_rtk, mut_rkr) = run_queries(
            &view,
            &q,
            cfg.k,
            &|wid| state.weight_external(wid),
            &mut mut_stats,
        );

        let (op, ow) = shadow.rebuild_sets(dim)?;
        let mut oracle = Gir::new(&op, &ow, gcfg);
        let ti = ThresholdIndex::build(&op, &ow, &buckets)
            .map_err(|e| format!("rebuild threshold: {e:?}"))?;
        oracle
            .attach_threshold_index(ti)
            .map_err(|e| format!("rebuild attach: {e:?}"))?;
        let w_ext: Vec<u64> = shadow.weights.iter().map(|(e, _)| *e).collect();
        let (reb_rtk, reb_rkr) =
            run_queries(&oracle, &q, cfg.k, &|wid| w_ext[wid], &mut rebuild_stats);

        if mut_rtk != reb_rtk || mut_rkr != reb_rkr {
            return Err(format!(
                "checkpoint {checkpoint}: mutable engine diverged from rebuild \
                 (rtk {mut_rtk:?} vs {reb_rtk:?}; rkr {mut_rkr:?} vs {reb_rkr:?})"
            ));
        }

        table.push_row(vec![
            checkpoint.to_string(),
            state.epoch().to_string(),
            state.live_point_count().to_string(),
            state.live_weight_count().to_string(),
            format!("{tp}+{tw}"),
            format!("{ap}+{aw}"),
            mut_rtk.len().to_string(),
            mut_rkr.len().to_string(),
            "exact".to_string(),
        ]);
    }

    let mut metrics = ExperimentMetrics::new("update");
    metrics.config_pair("p_card", cfg.p_card);
    metrics.config_pair("w_card", cfg.w_card);
    metrics.config_pair("k", cfg.k);
    metrics.config_pair("partitions", cfg.partitions);
    metrics.config_pair("seed", cfg.seed);
    metrics.config_pair("trace", mc.trace_seed);
    metrics.config_pair("ops", mc.ops);
    metrics.config_pair("checkpoints", mc.checkpoints);
    metrics.config_pair("dim", mc.dim);

    let trace_counters = vec![
        ("trace_point_inserts".to_string(), census.point_inserts),
        ("trace_point_deletes".to_string(), census.point_deletes),
        ("trace_weight_inserts".to_string(), census.weight_inserts),
        ("trace_weight_deletes".to_string(), census.weight_deletes),
        ("trace_publishes".to_string(), census.publishes),
        ("trace_folds".to_string(), census.compactions),
        ("final_epoch".to_string(), engine.epoch()),
        (
            "final_live_points".to_string(),
            engine.snapshot().live_point_count() as u64,
        ),
        (
            "final_live_weights".to_string(),
            engine.snapshot().live_weight_count() as u64,
        ),
    ];

    for (label, stats, extra) in [
        ("mutable", &mut_stats, Vec::new()),
        ("rebuild", &rebuild_stats, Vec::new()),
        ("writer", &writer_stats, trace_counters),
    ] {
        let mut counters: Vec<(String, u64)> = stats
            .counters()
            .iter()
            .map(|&(name, v)| (name.to_string(), v))
            .collect();
        counters.extend(extra);
        metrics.push(AlgoMetrics {
            algorithm: "GIR".to_string(),
            query_kind: "rtk+rkr".to_string(),
            label: label.to_string(),
            queries: 2 * mc.checkpoints as u64,
            mean_ms: 0.0,
            counters,
            latency: None,
            phases: Vec::new(),
        });
    }

    Ok(MutateReport { metrics, table })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_round_trips_and_rejects_junk() {
        let mc = MutateConfig::parse("trace=7,ops=50,checkpoints=3,dim=3").expect("valid spec");
        assert_eq!(mc.trace_seed, 7);
        assert_eq!(mc.ops, 50);
        assert_eq!(mc.checkpoints, 3);
        assert_eq!(mc.dim, 3);
        assert_eq!(MutateConfig::parse("").unwrap(), MutateConfig::default());

        assert!(MutateConfig::parse("trace=abc").is_err());
        assert!(MutateConfig::parse("dim=1").is_err());
        assert!(MutateConfig::parse("bogus=1").is_err());
        assert!(MutateConfig::parse("trace").is_err(), "not key=value");
    }

    #[test]
    fn smoke_trace_verifies_and_exports_update_counters() {
        let cfg = ExpConfig::smoke();
        let mc = MutateConfig {
            trace_seed: 42,
            ops: 60,
            checkpoints: 3,
            dim: 4,
        };
        let report = run(&cfg, &mc).expect("trace verifies");
        assert_eq!(report.metrics.runs.len(), 3);
        let writer = report
            .metrics
            .runs
            .iter()
            .find(|r| r.label == "writer")
            .expect("writer entry");
        let get = |name: &str| {
            writer
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert_eq!(get("epoch_published"), mc.checkpoints as u64);
        assert_eq!(get("trace_publishes"), mc.checkpoints as u64);
        assert!(get("threshold_rows_repaired") > 0, "repair never ran");
        let mutable = report
            .metrics
            .runs
            .iter()
            .find(|r| r.label == "mutable")
            .expect("mutable entry");
        let tomb = mutable
            .counters
            .iter()
            .find(|(n, _)| n == "tombstones_skipped")
            .expect("tombstones counter")
            .1;
        let appended = mutable
            .counters
            .iter()
            .find(|(n, _)| n == "appended_scanned")
            .expect("appended counter")
            .1;
        assert!(
            tomb > 0 || appended > 0,
            "trace never exercised the delta path"
        );
    }

    #[test]
    fn same_seed_runs_are_counter_exact() {
        let cfg = ExpConfig::smoke();
        let mc = MutateConfig {
            ops: 40,
            checkpoints: 2,
            ..MutateConfig::default()
        };
        let a = run(&cfg, &mc).expect("first run");
        let b = run(&cfg, &mc).expect("second run");
        for (ra, rb) in a.metrics.runs.iter().zip(&b.metrics.runs) {
            assert_eq!(ra.label, rb.label);
            assert_eq!(ra.counters, rb.counters, "{} drifted", ra.label);
        }
    }
}
