//! The two workloads. Each builds its engine through the public
//! `rrq-core` entry points, runs an untraced pass over its steps for
//! the measured window and, when tracing, reruns exactly those steps
//! with spans. Answers of the first cycle are checked against an oracle
//! after the window.

use crate::gen::{self, Draw, Mirror, Op, Seeds, BATCH_OPS};
use crate::measure::{rkr_answer, rtk_answer, timed, Answer, Tally, Tracer};
use crate::{Collected, Config, Kind, Pass};
use rrq_baselines::Naive;
use rrq_core::{
    pool_scope, DynamicEngine, EngineState, Gir, GirConfig, ParConfig, ThresholdIndex, WorkerPool,
};
use rrq_types::{PointId, PointSet, QueryStats, RkrQuery, RrqResult, RtkQuery, WeightSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool workers of `indexed-pool`: the machine's two cores.
const POOL_WORKERS: usize = 2;
/// Shard weights between epoch bound exchanges of the pooled engine.
const EPOCH_EVERY: usize = 64;
/// `churn`: a compaction is requested every this many rounds.
const COMPACT_EVERY: usize = 10;
/// `churn`: live query points asked after each publish.
const QUERIES_PER_ROUND: usize = 16;
/// `churn`: query points of each checked round asked of the oracle.
const CHECKED_PER_ROUND: usize = 4;

/// How long a pass runs.
#[derive(Clone, Copy)]
enum Budget {
    /// At least one cycle, then until the window has elapsed.
    Window { window: Duration, cycle: usize },
    /// Exactly this many steps: the traced rerun of an untraced pass.
    Steps(usize),
}

type Step<'s> = dyn FnMut(usize, &mut Pass, &mut Tracer) -> Result<(), String> + 's;

fn drive(budget: Budget, tr: &mut Tracer, step: &mut Step<'_>) -> Result<Pass, String> {
    let mut pass = Pass {
        from_ns: tr.mark(),
        ..Pass::default()
    };
    let start = Instant::now();
    let mut i = 0;
    while match budget {
        Budget::Window { window, cycle } => i < cycle || start.elapsed() < window,
        Budget::Steps(n) => i < n,
    } {
        step(i, &mut pass, tr)?;
        i += 1;
    }
    pass.steps = i;
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.to_ns = tr.mark();
    Ok(pass)
}

/// The untraced pass over the window and, when tracing, the traced
/// rerun of the same steps. A traced run gives each pass half the
/// window, so it takes about as long as an untraced one.
fn passes(cfg: &Config, c: &mut Collected, step: &mut Step<'_>) -> Result<(), String> {
    let window = Budget::Window {
        window: if cfg.trace {
            cfg.window / 2
        } else {
            cfg.window
        },
        cycle: cfg.scale.cycle,
    };
    c.base = drive(window, &mut Tracer::new(false), step)?;
    if cfg.trace {
        c.traced = Some(drive(Budget::Steps(c.base.steps), &mut c.tracer, step)?);
    }
    Ok(())
}

fn root(kind: Kind) -> &'static str {
    match kind {
        Kind::Rtk => "request.rtk",
        Kind::Rkr => "request.rkr",
    }
}

/// Asks one query as its own request, timing the public call.
fn ask<R>(
    tr: &mut Tracer,
    kind: Kind,
    layer: &'static str,
    call: impl FnOnce(&mut QueryStats) -> R,
) -> (Option<(R, QueryStats)>, f64) {
    let req = tr.request(root(kind));
    let span = tr.begin(layer);
    let mut stats = QueryStats::default();
    let (out, secs) = timed(|| call(&mut stats));
    tr.end(span);
    tr.end(req);
    (out.map(|r| (r, stats)), secs)
}

fn same_id(id: usize) -> u64 {
    id as u64
}

/// Whether step `i` of a static workload also times a set-up build.
fn builds_at(i: usize, every: usize) -> bool {
    every > 0 && i % every == every / 2
}

/// Books one mismatch unless the answer recorded for cycle op `op`
/// equals every answer in `oracles`. A query that panicked was booked as
/// failed when it ran and is not booked again.
fn check(t: &mut Tally, answers: &[Option<Answer>], op: usize, oracles: &[Answer]) {
    match answers.get(op) {
        Some(None) => {}
        Some(Some(got)) if oracles.iter().all(|o| o == got) => {}
        _ => t.mismatch(),
    }
}

/// Checks the first `checked` steps of a static workload against the
/// definition-level oracle.
fn check_static(
    c: &mut Collected,
    p: &PointSet,
    w: &WeightSet,
    qseed: u64,
    checked: usize,
    k: usize,
) {
    let naive = Naive::new(p, w);
    let order = gen::by_sum(p.iter().map(|(_, r)| r));
    let mut st = QueryStats::default();
    for slot in 0..checked.min(c.base.answers.len() / 2) {
        let q = p.point(PointId(gen::query_id(&order, qseed, slot)));
        let rtk = rtk_answer(&naive.reverse_top_k(q, k, &mut st), same_id);
        let rkr = rkr_answer(&naive.reverse_k_ranks(q, k, &mut st), same_id);
        check(&mut c.extra, &c.base.answers, 2 * slot, &[rtk]);
        check(&mut c.extra, &c.base.answers, 2 * slot + 1, &[rkr]);
    }
}

/// Gir::new + build_threshold_index + attach_threshold_index, each a span.
fn build_indexed<'a>(
    tr: &mut Tracer,
    p: &'a PointSet,
    w: &'a WeightSet,
    buckets: &[usize],
) -> RrqResult<Gir<'a>> {
    let span = tr.begin("grid.build");
    let mut gir = Gir::new(p, w, GirConfig::default());
    tr.end(span);
    let span = tr.begin("threshold.build");
    let index = gir.build_threshold_index(buckets);
    tr.end(span);
    let span = tr.begin("threshold.attach");
    let attached = index.and_then(|ix| gir.attach_threshold_index(ix));
    tr.end(span);
    attached.map(|()| gir)
}

/// A set-up of the serving engine inside the window: `Gir::new` +
/// `build_threshold_index` + `attach_threshold_index` + starting
/// `pool_scope(2, …)`, timed to the point where the pool could take a
/// query; the engine and pool are then dropped.
fn rebuild_indexed(
    tr: &mut Tracer,
    p: &PointSet,
    w: &WeightSet,
    buckets: &[usize],
) -> RrqResult<f64> {
    let t0 = Instant::now();
    let req = tr.request("request.setup");
    let built = build_indexed(tr, p, w, buckets);
    let secs = built.map(|_gir| {
        let span = tr.begin("pool.start");
        pool_scope(POOL_WORKERS, |_pool| {
            tr.end(span);
            t0.elapsed().as_secs_f64()
        })
    });
    tr.end(req);
    secs
}

/// `indexed-pool`: a threshold-indexed GIR with a two-worker pool. The
/// serving engine is set up before the window; further set-ups, each a
/// set-up sample and the way a static engine publishes, are spread
/// through the window between blocks of queries. The window asks on the
/// calling thread: pooled latency on a two-vCPU guest follows the
/// host's thread wake-up latency, which swung it by ±40 % between runs.
/// The traced run asks each query of the first cycle of the pool
/// (`ParConfig::epoch(2, 64)`) and of the calling thread back to back.
pub(crate) fn indexed_pool(cfg: &Config) -> Result<Collected, String> {
    let sc = cfg.scale;
    let seeds = Seeds::split(cfg.seed);
    let (p, w) = gen::data(sc.points, sc.weights, seeds);
    let buckets = ThresholdIndex::default_buckets(&[sc.k], sc.points);
    let mut c = Collected::new(cfg.trace);
    c.publish_is_rebuild = true;

    let t0 = Instant::now();
    let req = c.tracer.request("request.setup");
    let gir = build_indexed(&mut c.tracer, &p, &w, &buckets)
        .map_err(|e| format!("indexed set-up: {e:?}"))?;
    let span = c.tracer.begin("pool.start");
    pool_scope(POOL_WORKERS, |pool| {
        c.tracer.end(span);
        c.setup_s.push(t0.elapsed().as_secs_f64());
        c.tracer.end(req);
        serve_indexed(cfg, &mut c, &gir, pool, (&p, &w), &buckets, seeds.queries)
    })?;
    check_static(&mut c, &p, &w, seeds.queries, sc.checked, sc.k);
    Ok(c)
}

fn serve_indexed<'a>(
    cfg: &Config,
    c: &mut Collected,
    gir: &'a Gir<'a>,
    pool: &WorkerPool<'a>,
    (p, w): (&PointSet, &WeightSet),
    buckets: &[usize],
    qseed: u64,
) -> Result<(), String> {
    let order = gen::by_sum(p.iter().map(|(_, r)| r));
    c.index_bytes = gir.index_memory_bytes() as u64;
    c.threshold_bytes = gir.threshold_index().map_or(0, |t| t.memory_bytes()) as u64;
    let sc = cfg.scale;
    let k = sc.k;
    passes(cfg, c, &mut |i, pass, tr| {
        let first = i < sc.cycle;
        let q = p.point(PointId(gen::query_id(&order, qseed, i)));
        let (out, secs) = ask(tr, Kind::Rtk, "gir.rtk", |st| gir.reverse_top_k(q, k, st));
        let out = out.map(|(r, st)| (rtk_answer(&r, same_id), st));
        pass.query(Kind::Rtk, first, out, secs);
        let (out, secs) = ask(tr, Kind::Rkr, "gir.rkr", |st| gir.reverse_k_ranks(q, k, st));
        let out = out.map(|(r, st)| (rkr_answer(&r, same_id), st));
        pass.query(Kind::Rkr, first, out, secs);

        if builds_at(i, sc.build_every) {
            let secs = rebuild_indexed(tr, p, w, buckets);
            pass.tally.write(secs.is_ok());
            if let Ok(secs) = secs {
                pass.setup_s.push(secs);
            }
        }
        Ok(())
    })?;
    if cfg.trace {
        let queries = (0..sc.cycle).map(|i| p.point(PointId(gen::query_id(&order, qseed, i))));
        compare_pooled(c, gir, pool, queries, k);
    }
    Ok(())
}

/// Asks each query of the pooled engine and of the calling thread back
/// to back, so both see the same host state, for the `par.*` and
/// `pool.*` metrics. The two must answer alike.
fn compare_pooled<'a, 'q>(
    c: &mut Collected,
    gir: &'a Gir<'a>,
    pool: &WorkerPool<'a>,
    queries: impl Iterator<Item = &'q [f64]>,
    k: usize,
) {
    let par = gir
        .parallel(ParConfig::epoch(POOL_WORKERS, EPOCH_EVERY))
        .with_pool(pool);
    let (jobs, before) = (pool.stats().jobs, pool.telemetry().per_worker);
    let Collected {
        tracer: tr,
        reference: r,
        extra,
        ..
    } = c;
    for q in queries {
        let (pooled, p_secs) = ask(tr, Kind::Rtk, "par.rtk", |st| par.reverse_top_k(q, k, st));
        let (seq, s_secs) = ask(tr, Kind::Rtk, "gir.rtk", |st| gir.reverse_top_k(q, k, st));
        r.pooled_queries += 1;
        r.panics += u64::from(pooled.is_none());
        extra.query(pooled.is_some());
        extra.query(seq.is_some());
        if let (Some((a, _)), Some((b, _))) = (&pooled, &seq) {
            r.rtk_speedup.push(s_secs / p_secs);
            if a != b {
                extra.mismatch();
            }
        }
        let (pooled, p_secs) = ask(tr, Kind::Rkr, "par.rkr", |st| par.reverse_k_ranks(q, k, st));
        let (seq, s_secs) = ask(tr, Kind::Rkr, "gir.rkr", |st| gir.reverse_k_ranks(q, k, st));
        r.pooled_queries += 1;
        r.panics += u64::from(pooled.is_none());
        extra.query(pooled.is_some());
        extra.query(seq.is_some());
        if let (Some((a, ast)), Some((b, bst))) = (&pooled, &seq) {
            r.rkr_speedup.push(s_secs / p_secs);
            r.pooled_rkr_mults += ast.multiplications;
            r.seq_rkr_mults += bst.multiplications;
            if a != b {
                extra.mismatch();
            }
        }
    }
    r.pool_jobs = pool.stats().jobs - jobs;
    let after = pool.telemetry().per_worker;
    let done: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    if let (Some(&lo), Some(&hi)) = (done.iter().min(), done.iter().max()) {
        c.worker_skew = hi as f64 / lo.max(1) as f64;
    }
}

/// One epoch of `churn`: a fresh engine and the mirror of its live rows.
struct Epoch {
    engine: DynamicEngine,
    mirror: Mirror,
}

/// DynamicEngine::new + enable_threshold_index, each a span; returns the
/// engine and the seconds from the sets in memory to a query-ready engine.
fn build_dynamic(
    tr: &mut Tracer,
    p: &PointSet,
    w: &WeightSet,
    buckets: &[usize],
) -> Result<(DynamicEngine, f64), String> {
    let (p, w) = (p.clone(), w.clone());
    let req = tr.request("request.setup");
    let t0 = Instant::now();
    let span = tr.begin("grid.build");
    let engine = DynamicEngine::new(p, w, GirConfig::default());
    tr.end(span);
    let mut engine = engine.map_err(|e| format!("DynamicEngine::new: {e:?}"))?;
    let span = tr.begin("threshold.build");
    let enabled = engine.enable_threshold_index(buckets);
    tr.end(span);
    enabled.map_err(|e| format!("enable_threshold_index: {e:?}"))?;
    let secs = t0.elapsed().as_secs_f64();
    tr.end(req);
    Ok((engine, secs))
}

fn stage(engine: &mut DynamicEngine, mirror: &Mirror, op: &Op) -> RrqResult<u64> {
    match op {
        Op::InsertPoint(row) => engine.insert_point(row),
        Op::DeletePoint(j) => engine.delete_point(mirror.points[*j].0).map(|()| 0),
        Op::InsertWeight(row) => engine.insert_weight(row),
        Op::DeleteWeight(j) => engine.delete_weight(mirror.weights[*j].0).map(|()| 0),
    }
}

/// Asks one query of the current snapshot: `snapshot()` + `view()` and
/// the query call are timed together, as a reader pays for both.
fn ask_snapshot<R>(
    tr: &mut Tracer,
    engine: &DynamicEngine,
    kind: Kind,
    call: impl FnOnce(&Gir<'_, &rrq_core::Grid>, &mut QueryStats) -> R,
) -> (Option<(R, QueryStats, Arc<EngineState>)>, f64) {
    let req = tr.request(root(kind));
    let mut stats = QueryStats::default();
    let (out, secs) = timed(|| {
        let span = tr.begin("snapshot.view");
        let state = engine.snapshot();
        let view = state.view();
        tr.end(span);
        let span = tr.begin(match kind {
            Kind::Rtk => "gir.rtk",
            Kind::Rkr => "gir.rkr",
        });
        let out = call(&view, &mut stats);
        tr.end(span);
        drop(view);
        (out, state)
    });
    tr.end(req);
    (out.map(|(r, state)| (r, stats, state)), secs)
}

/// A round of the first cycle, kept for the oracle: the live rows after
/// its publish and the points it asked.
struct RoundCheck {
    mirror: Mirror,
    queries: Vec<Vec<f64>>,
    first_op: usize,
}

/// `churn`: a DynamicEngine with a threshold index. Each round stages a
/// 16-op batch, publishes it (compacting every 10th round) and asks 16
/// live points as RTK and RKR on the new snapshot. Every cycle starts
/// from a fresh engine over the generated sets, timed as a set-up, so
/// the state at the end of the first one is a function of the seed
/// alone; one op stream runs through all cycles.
pub(crate) fn churn(cfg: &Config) -> Result<Collected, String> {
    let (mut c, checks) = churn_passes(cfg)?;
    check_churn(&mut c, &checks, cfg.scale.k);
    Ok(c)
}

fn churn_passes(cfg: &Config) -> Result<(Collected, Vec<RoundCheck>), String> {
    let sc = cfg.scale;
    let seeds = Seeds::split(cfg.seed);
    let (p, w) = gen::data(sc.points, sc.weights, seeds);
    let buckets = ThresholdIndex::default_buckets(&[sc.k], sc.points);
    let mut c = Collected::new(cfg.trace);

    let k = sc.k;
    let cycle = sc.cycle;
    let mut epoch: Option<Epoch> = None;
    let mut draw = Draw::new(seeds.mutations);
    let mut checks: Vec<RoundCheck> = Vec::new();
    let mut end_bytes = (0u64, 0u64);
    passes(cfg, &mut c, &mut |i, pass, tr| {
        let (round, first) = (i % cycle, i < cycle);
        if i == 0 {
            draw = Draw::new(seeds.mutations);
        }
        if round == 0 {
            let (engine, secs) = build_dynamic(tr, &p, &w, &buckets)?;
            pass.setup_s.push(secs);
            epoch = Some(Epoch {
                engine,
                mirror: Mirror::of(&p, &w),
            });
        }
        let ep = epoch.as_mut().ok_or("no epoch")?;

        let req = tr.request("request.publish");
        let mut stage_s = 0.0;
        for _ in 0..BATCH_OPS {
            let op = ep.mirror.draw(&mut draw);
            let span = tr.begin("snapshot.stage");
            let (staged, secs) = timed(|| stage(&mut ep.engine, &ep.mirror, &op));
            tr.end(span);
            stage_s += secs;
            match staged {
                Some(Ok(ext)) => {
                    pass.tally.write(true);
                    ep.mirror.apply(&op, ext);
                }
                _ => pass.tally.write(false),
            }
        }
        if (round + 1) % COMPACT_EVERY == 0 {
            ep.engine.request_compaction();
        }
        let span = tr.begin("snapshot.publish");
        let mut ws = QueryStats::default();
        let (published, secs) = timed(|| ep.engine.publish(&mut ws));
        tr.end(span);
        tr.end(req);
        pass.tally.write(matches!(published, Some(Ok(_))));
        pass.publish_ms.push((stage_s + secs) * 1e3);
        pass.stage_ms.push(stage_s * 1e3);
        let state = ep.engine.snapshot();
        let delta = state.tombstoned_counts().0 > 0 || state.appended_counts().0 > 0;
        if state.tombstoned_counts() == (0, 0) && state.appended_counts() == (0, 0) {
            pass.compact_ms.push(secs * 1e3);
        } else {
            pass.publish_call_ms.push(secs * 1e3);
        }
        if first {
            pass.counts.publishes += 1;
            pass.counts.repaired += ws.threshold_rows_repaired;
            pass.counts.live_weights += state.live_weight_count() as u64;
        }
        drop(state);

        let mut queries = Vec::with_capacity(CHECKED_PER_ROUND);
        let order = gen::by_sum(ep.mirror.points.iter().map(|(_, r)| r.as_slice()));
        for qi in 0..QUERIES_PER_ROUND {
            let j = gen::stratified(&order, i * QUERIES_PER_ROUND + qi, &mut draw);
            let q = ep.mirror.points[j].1.clone();
            let (out, secs) = ask_snapshot(tr, &ep.engine, Kind::Rtk, |g, st| {
                g.reverse_top_k(&q, k, st)
            });
            let out = out.map(|(r, st, s)| (rtk_answer(&r, |x| s.weight_external(x)), st));
            if first && out.is_some() && delta {
                pass.counts.delta_queries += 1;
            }
            pass.query(Kind::Rtk, first, out, secs);
            let (out, secs) = ask_snapshot(tr, &ep.engine, Kind::Rkr, |g, st| {
                g.reverse_k_ranks(&q, k, st)
            });
            let out = out.map(|(r, st, s)| (rkr_answer(&r, |x| s.weight_external(x)), st));
            if first && out.is_some() && delta {
                pass.counts.delta_queries += 1;
            }
            pass.query(Kind::Rkr, first, out, secs);
            if qi < CHECKED_PER_ROUND {
                queries.push(q);
            }
        }
        if first && checks.len() < sc.checked {
            checks.push(RoundCheck {
                mirror: ep.mirror.clone(),
                queries,
                first_op: 2 * round * QUERIES_PER_ROUND,
            });
        }
        if first && round + 1 == cycle {
            let state = ep.engine.snapshot();
            end_bytes = (
                state.view().index_memory_bytes() as u64,
                state.threshold_index().map_or(0, |t| t.memory_bytes()) as u64,
            );
        }
        Ok(())
    })?;
    (c.index_bytes, c.threshold_bytes) = end_bytes;
    Ok((c, checks))
}

/// The `churn` oracle: a from-scratch GIR and Naive over the mirrored
/// live rows of each checked round, mapped back to external ids. The
/// first [`CHECKED_PER_ROUND`] queries of the round are checked.
fn check_churn(c: &mut Collected, checks: &[RoundCheck], k: usize) {
    for rc in checks {
        let (op, ow) = rc.mirror.sets();
        let rebuilt = Gir::new(&op, &ow, GirConfig::default());
        let naive = Naive::new(&op, &ow);
        let ext = |wid: usize| rc.mirror.weights[wid].0;
        let mut st = QueryStats::default();
        for (qi, q) in rc.queries.iter().enumerate() {
            let at = rc.first_op + 2 * qi;
            let rtk = [
                rtk_answer(&naive.reverse_top_k(q, k, &mut st), ext),
                rtk_answer(&rebuilt.reverse_top_k(q, k, &mut st), ext),
            ];
            check(&mut c.extra, &c.base.answers, at, &rtk);
            let rkr = [
                rkr_answer(&naive.reverse_k_ranks(q, k, &mut st), ext),
                rkr_answer(&rebuilt.reverse_k_ranks(q, k, &mut st), ext),
            ];
            check(&mut c.extra, &c.base.answers, at + 1, &rkr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scale, Workload};

    fn small(workload: Workload, trace: bool) -> Config {
        Config {
            workload,
            seed: 7,
            window: Duration::ZERO,
            trace,
            scale: Scale::small(workload),
            trace_out: None,
        }
    }

    fn ok_frac(c: &Collected) -> f64 {
        c.tally().ok_frac()
    }

    #[test]
    fn corrupted_answer_lowers_ok_frac() {
        let cfg = small(Workload::IndexedPool, false);
        let mut c = indexed_pool(&cfg).expect("indexed-pool runs");
        assert_eq!(ok_frac(&c), 1.0, "clean run");
        c.base.answers[1].as_mut().expect("answered").pop();
        recheck_static(&cfg, &mut c);
        assert_eq!(c.tally().mismatches, 1);
        assert!(ok_frac(&c) < 1.0);
        assert!(!c.outcome(&cfg).correct);
    }

    fn recheck_static(cfg: &Config, c: &mut Collected) {
        let seeds = Seeds::split(cfg.seed);
        let (p, w) = gen::data(cfg.scale.points, cfg.scale.weights, seeds);
        check_static(c, &p, &w, seeds.queries, cfg.scale.checked, cfg.scale.k);
    }

    #[test]
    fn panicked_checked_query_fails_once() {
        let cfg = small(Workload::IndexedPool, false);
        let clean = indexed_pool(&cfg).expect("indexed-pool runs");
        assert!(cfg.scale.checked > 0);
        // Book the first cycle again, with the checked RKR of slot 0
        // (op 1) panicking as a query that panics in the window is booked.
        let mut c = Collected::new(false);
        for (op, answer) in clean.base.answers.iter().enumerate() {
            let kind = if op % 2 == 0 { Kind::Rtk } else { Kind::Rkr };
            let out = (op != 1).then(|| (answer.clone().expect("answered"), QueryStats::default()));
            c.base.query(kind, true, out, 0.0);
        }
        recheck_static(&cfg, &mut c);
        let t = c.tally();
        assert_eq!(
            (t.attempted, t.failed),
            (clean.base.answers.len() as u64, 1)
        );
        assert_eq!((t.panics, t.mismatches), (1, 0), "not also a wrong answer");
    }

    #[test]
    fn churn_oracle_catches_a_corrupted_answer() {
        let cfg = small(Workload::Churn, false);
        let (mut c, checks) = churn_passes(&cfg).expect("churn runs");
        check_churn(&mut c, &checks, cfg.scale.k);
        assert_eq!(c.tally().failed, 0, "clean run");
        assert_eq!(
            checks.len(),
            cfg.scale.cycle,
            "every round of the first cycle is checked"
        );
        c.base.answers[3].as_mut().expect("answered")[0] += 1;
        check_churn(&mut c, &checks, cfg.scale.k);
        assert_eq!(c.tally().mismatches, 1);
        assert!(ok_frac(&c) < 1.0);
    }

    #[test]
    fn panicking_pooled_query_is_counted_and_the_run_goes_on() {
        let (p, w) = gen::data(300, 300, Seeds::split(3));
        let mut gir = Gir::new(&p, &w, GirConfig::default());
        let index = gir.build_threshold_index(&[5]).expect("index builds");
        gir.attach_threshold_index(index).expect("index attaches");
        let mut c = Collected::new(true);
        // A query of the wrong dimensionality panics in the pooled
        // engine, as a pool error that ParGir re-raises would, and on the
        // calling thread alike; the next query is answered as usual.
        let bad = [1.0; 2];
        let queries = [&bad[..], p.point(PointId(0))];
        pool_scope(POOL_WORKERS, |pool| {
            compare_pooled(&mut c, &gir, pool, queries.into_iter(), 5)
        });
        assert_eq!(c.reference.panics, 2, "pooled RTK and RKR of the bad query");
        assert_eq!(c.reference.pooled_queries, 4);
        assert_eq!(c.extra.attempted, 8);
        assert_eq!(c.extra.failed, 4);
        assert_eq!(c.tally().ok_frac(), 0.5);
        assert_eq!(c.reference.rtk_speedup.len(), 1, "the pool still answers");
        assert_eq!(c.reference.rkr_speedup.len(), 1);
        assert_eq!(c.extra.mismatches, 0, "pooled and sequential agree");
        assert_eq!(
            c.reference.pool_jobs,
            2 * 2,
            "two shards per answered pooled query"
        );
    }

    #[test]
    fn traced_pass_repeats_the_untraced_answers_and_counts() {
        for workload in Workload::ALL {
            let cfg = small(workload, true);
            let c = match workload {
                Workload::IndexedPool => indexed_pool(&cfg),
                Workload::Churn => churn(&cfg),
            }
            .expect("workload runs");
            assert_eq!(c.tally().failed, 0, "{workload:?}");
            let traced = c.traced.as_ref().expect("traced pass ran");
            assert_eq!(traced.steps, c.base.steps, "{workload:?}");
            assert_eq!(traced.counts, c.base.counts, "{workload:?}");
            assert_eq!(traced.digest, c.base.digest, "{workload:?}");
            assert_eq!(traced.answers, c.base.answers, "{workload:?}");
            assert!(
                c.base.counts.rtk_n > 0 && c.base.counts.rkr_n > 0,
                "{workload:?}"
            );
        }
    }
}
