//! Parallel query engine for GIR (DESIGN.md §5b).
//!
//! [`ParGir`] answers a *single* reverse top-k / reverse k-ranks query
//! with several workers: it splits the weight set `W` into contiguous
//! shards, runs [`Gir`]'s own weight loop on each shard on a
//! [`WorkerPool`] — the one attached with [`ParGir::with_pool`], else a
//! one-off [`pool_scope`] — and merges the shard outputs in worker order.
//! A weight's rank depends only on `(w, q, P)`, so the merge reproduces
//! the sequential answer **byte for byte**. RTK members are independent,
//! and `Domin` membership depends on `(p, q)` alone, so `k` dominators in
//! any shard empty the global result. RKR workers visit their shard in
//! the sequential engine's `(rank floor, id)` order into a local
//! [`KBestHeap`]; merging those ([`KBestHeap::merge`]) yields the global
//! k-best, and a shard's heap threshold is never below the global k-th
//! rank, so pruning with it is sound.
//!
//! In [`BoundMode::Epoch`] workers also prune with a frozen snapshot of
//! the merged cross-shard bound, exchanged every `N` shard weights
//! through the barrier-coupled [`EpochSync`]; [`BoundMode::Local`] is one
//! epoch of unbounded length. Either way the bound each weight is scanned
//! under is a pure function of `(data, query, shards, epoch)`, so
//! counters reproduce exactly. Jobs own their per-query state (an
//! attached pool outlives the query) and run untraced: a traced query
//! books its caller-side spans (`rtk`/`rkr`, `quantize`) and
//! `par.pool_reuse` / `par.epoch_syncs` on the caller's recorder.

use crate::approx::ApproxVectors;
use crate::gir::{Gir, ScanState};
use crate::grid::{Grid, GridTable};
use crate::pool::{pool_scope, WorkerPool};
use rrq_obs::{
    span, timed_leaf, BoundSource, ExplainDoc, ExplainKind, ExplainSink, NoopRecorder, NoopSink,
    Recorder,
};
use rrq_types::{KBestHeap, QueryStats, RkrQuery, RkrResult, RtkQuery, RtkResult, WeightId};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// How workers share scan bounds across shards (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundMode {
    /// Worker-local bounds only: no cross-shard pruning.
    Local,
    /// Frozen cross-shard bound refreshed every `N` shard weights at
    /// barrier-synchronised boundaries. `N` is clamped to at least 1.
    Epoch(usize),
}

/// Configuration of the parallel query engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Worker threads per query. `0` and `1` both mean "run the
    /// sequential engine on the calling thread".
    pub threads: usize,
    /// Cross-shard bound sharing mode.
    pub mode: BoundMode,
}

impl ParConfig {
    /// Local-bound mode with an explicit thread count.
    pub fn deterministic(threads: usize) -> Self {
        Self {
            threads,
            mode: BoundMode::Local,
        }
    }

    /// Epoch-snapshot mode: exchange merged bounds every `every` shard
    /// weights (clamped to at least 1) — cross-shard pruning with
    /// reproducible counters.
    pub fn epoch(threads: usize, every: usize) -> Self {
        Self {
            threads,
            mode: BoundMode::Epoch(every.max(1)),
        }
    }
}

/// Locks an epoch mutex. It is held only for a few word writes, so
/// poisoning means a worker panicked mid-publish — propagate.
fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // rrq-lint: allow(no-unwrap-in-lib) -- a poisoned epoch mutex means a worker panicked; re-raise it
    mutex.lock().expect("epoch mutex poisoned")
}

/// What an [`EpochSync`] guards: the slots workers publish into, the
/// snapshot of the last completed boundary, and the rendezvous counters.
struct EpochState {
    /// Latest published RKR scan bound per worker (`usize::MAX` = none).
    bounds: Vec<usize>,
    /// Latest published RTK saturation per worker.
    saturated: Vec<bool>,
    /// `(min bound, any saturated)` of the last completed boundary.
    snapshot: (usize, bool),
    /// Workers arrived at the current boundary.
    arrived: usize,
    /// Completed boundaries; a woken waiter compares against it to tell
    /// a real release from a spurious condvar wakeup.
    generation: u64,
    /// Exchanges performed, summed over workers (`par.epoch_syncs`).
    syncs: u64,
    /// Set when a worker unwound: pending and later exchanges panic
    /// instead of waiting for a peer that will never arrive.
    poisoned: bool,
}

/// Barrier-coupled snapshot exchange for [`BoundMode::Epoch`].
///
/// Each worker publishes its value and blocks until every worker has; the
/// last to arrive merges the slots into the boundary's snapshot, which
/// every worker returns. That makes the protocol deterministic: the
/// epoch-`r` snapshot is fixed before any worker is released, and the
/// next is merged only once every worker has arrived again.
///
/// Every worker must arm a [`panic_guard`](Self::panic_guard) before its
/// first [`exchange`](Self::exchange): if the worker unwinds, the guard
/// poisons the sync, and every peer blocked (or about to block) in an
/// exchange panics out instead of hanging on a rendezvous that can never
/// complete. That panic unwinds through the worker like any shard panic:
/// the pool's `catch_unwind` turns it into
/// [`PoolError::JobPanicked`](crate::pool::PoolError::JobPanicked).
struct EpochSync {
    state: Mutex<EpochState>,
    cv: Condvar,
    workers: usize,
}

const EPOCH_PEER_PANICKED: &str =
    "epoch-snapshot peer panicked; abandoning the barrier-coupled scan";

/// RAII token tying a worker's participation in an [`EpochSync`] to its
/// unwind path: dropped during a panic, it poisons the sync.
struct EpochPanicGuard<'a> {
    sync: &'a EpochSync,
}

impl Drop for EpochPanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.sync.poison();
        }
    }
}

impl EpochSync {
    fn new(workers: usize) -> Self {
        Self {
            state: Mutex::new(EpochState {
                bounds: vec![usize::MAX; workers],
                saturated: vec![false; workers],
                snapshot: (usize::MAX, false),
                arrived: 0,
                generation: 0,
                syncs: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
            workers,
        }
    }

    /// Arms the unwind-to-poison coupling for one worker; hold the guard
    /// for the whole scan (see the type docs).
    fn panic_guard(&self) -> EpochPanicGuard<'_> {
        EpochPanicGuard { sync: self }
    }

    /// Publishes worker `me`'s state, waits for every other worker, and
    /// returns the merged `(min bound, any saturated)` snapshot of this
    /// boundary. Panics if the sync is — or becomes, while waiting —
    /// poisoned.
    fn exchange(&self, me: usize, bound: usize, saturated: bool) -> (usize, bool) {
        let mut st = locked(&self.state);
        if st.poisoned {
            panic!("{EPOCH_PEER_PANICKED}");
        }
        st.bounds[me] = bound;
        st.saturated[me] = saturated;
        st.syncs += 1;
        st.arrived += 1;
        if st.arrived == self.workers {
            let min_bound = st.bounds.iter().copied().min().unwrap_or(usize::MAX);
            st.snapshot = (min_bound, st.saturated.iter().any(|&s| s));
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
            return st.snapshot;
        }
        let gen = st.generation;
        while st.generation == gen && !st.poisoned {
            // rrq-lint: allow(no-unwrap-in-lib) -- a poisoned epoch mutex means a peer panicked mid-exchange; re-raise it
            st = self.cv.wait(st).expect("epoch mutex poisoned");
        }
        if st.poisoned {
            panic!("{EPOCH_PEER_PANICKED}");
        }
        st.snapshot
    }

    /// Marks the sync poisoned and wakes every waiter. Called during
    /// unwind, so it must not panic itself: a poisoned mutex is taken
    /// over instead of re-raised (the flag write is a single bool).
    fn poison(&self) {
        let mut st = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        st.poisoned = true;
        self.cv.notify_all();
    }

    /// Boundary exchanges performed so far (summed over workers).
    fn syncs(&self) -> u64 {
        locked(&self.state).syncs
    }
}

/// Number of barrier-coupled scan rounds for the given shards: every
/// worker runs the same count (idling on short shards), otherwise the
/// barriers would deadlock.
fn epoch_rounds(shards: &[Range<usize>], epoch: usize) -> usize {
    let longest = shards.iter().map(|r| r.len()).max().unwrap_or(0);
    longest.div_ceil(epoch.max(1)).max(1)
}

/// A [`Gir`] instance wrapped with intra-query parallel execution.
///
/// Construct with [`Gir::parallel`] or [`ParGir::new`]; answers the same
/// [`RtkQuery`] / [`RkrQuery`] traits with byte-identical results.
/// Attach a persistent [`WorkerPool`] with [`ParGir::with_pool`] to
/// amortise thread spawn/join across a query batch.
///
/// ```
/// use rrq_core::{Gir, ParConfig};
/// use rrq_types::{PointSet, WeightSet, QueryStats, RtkQuery};
///
/// let products = PointSet::from_flat(2, 10.0, &[1.0, 9.0, 8.0, 2.0])?;
/// let users = WeightSet::from_flat(2, &[0.9, 0.1, 0.1, 0.9])?;
/// let gir = Gir::with_defaults(&products, &users);
/// let par = gir.parallel(ParConfig::deterministic(2));
///
/// let mut s1 = QueryStats::default();
/// let mut s2 = QueryStats::default();
/// let q = [1.0, 9.0];
/// assert_eq!(
///     par.reverse_top_k(&q, 1, &mut s1),
///     gir.reverse_top_k(&q, 1, &mut s2),
/// );
/// # Ok::<(), rrq_types::RrqError>(())
/// ```
pub struct ParGir<'p, 'a, G: GridTable = Grid> {
    gir: &'a Gir<'a, G>,
    config: ParConfig,
    /// Persistent execution substrate; `None` opens a one-off pool per
    /// query. The pool's environment lifetime must equal `'a` (the
    /// index borrow) because pooled jobs carry the index reference.
    pool: Option<&'p WorkerPool<'a>>,
}

impl<'a, G: GridTable> Gir<'a, G> {
    /// Wraps this instance with the parallel query engine.
    pub fn parallel(&'a self, config: ParConfig) -> ParGir<'a, 'a, G> {
        ParGir {
            gir: self,
            config,
            pool: None,
        }
    }
}

impl<'p, 'a, G: GridTable> ParGir<'p, 'a, G> {
    /// See [`Gir::parallel`].
    pub fn new(gir: &'a Gir<'a, G>, config: ParConfig) -> ParGir<'a, 'a, G> {
        gir.parallel(config)
    }

    /// Dispatches queries to `pool`'s persistent workers instead of a
    /// one-off pool per query. The effective worker count becomes
    /// `min(config.threads, pool.workers())`; a pool with fewer than two
    /// workers routes queries through the sequential engine (booking
    /// `par.sequential_fallback` on traced runs).
    pub fn with_pool<'q>(self, pool: &'q WorkerPool<'a>) -> ParGir<'q, 'a, G> {
        self.with_pool_opt(Some(pool))
    }

    /// [`ParGir::with_pool`] that tolerates an absent pool — handy for
    /// callers whose pool is itself optional (e.g. the bench runner).
    pub fn with_pool_opt<'q>(self, pool: Option<&'q WorkerPool<'a>>) -> ParGir<'q, 'a, G> {
        ParGir {
            gir: self.gir,
            config: self.config,
            pool,
        }
    }

    /// The parallel configuration in effect.
    pub fn config(&self) -> ParConfig {
        self.config
    }

    /// The wrapped sequential instance.
    pub fn inner(&self) -> &'a Gir<'a, G> {
        self.gir
    }

    /// Contiguous shard ranges covering `0..nw` — fixed by `(nw,
    /// threads)` alone, which is what makes counters reproducible.
    fn shards(nw: usize, threads: usize) -> Vec<Range<usize>> {
        let chunk = nw.div_ceil(threads);
        (0..threads)
            .map(|t| (t * chunk).min(nw)..((t + 1) * chunk).min(nw))
            .collect()
    }
}

/// What every shard job of one query shares. Jobs hold it through an
/// `Arc`, because an attached pool outlives the query.
struct ShardJob {
    q: Vec<f64>,
    qa: Vec<u8>,
    k: usize,
    /// Shard weights scanned per round: `usize::MAX` in local mode.
    every: usize,
    /// Rounds every worker runs, idle or not ([`epoch_rounds`]).
    rounds: usize,
    sync: EpochSync,
}

/// A shard worker: given the query's job, its worker index and its shard,
/// it returns its answer, counters and explain sink ([`NoopSink`] on
/// untraced paths).
type ShardFn<G, A, S> = fn(&Gir<'_, G>, &ShardJob, usize, Range<usize>) -> (A, QueryStats, S);

impl<'a, G: GridTable + Sync> ParGir<'_, 'a, G> {
    /// The shards of a parallel query, after the sequential engine's
    /// checks and explain header; `None` when the sequential engine answers
    /// it on the calling thread instead: at `k == 0`, or when one worker
    /// would answer it alone (`threads ≤ 1`, one weight, or a pool of < 2
    /// workers).
    fn begin<R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        kind: ExplainKind,
        q: &[f64],
        k: usize,
        rec: &R,
        sink: &mut S,
    ) -> Option<Vec<Range<usize>>> {
        let (gir, nw) = (self.gir, self.gir.total_weights());
        let mut threads = self.config.threads.max(1).min(nw.max(1));
        if let Some(pool) = self.pool {
            threads = threads.min(pool.workers());
        }
        if threads <= 1 && self.pool.is_some() {
            rec.add_count("par.sequential_fallback", 1);
        }
        if threads <= 1 || k == 0 {
            return None;
        }
        assert_eq!(q.len(), gir.points_ref().dim(), "query dimensionality");
        if sink.enabled() {
            let partitions = gir.grid().partitions() as u64;
            sink.begin_query(kind, q, k as u64, partitions);
        }
        Some(Self::shards(nw, threads))
    }

    /// Quantises `q` and runs `work` on every shard, on the attached pool
    /// or a one-off [`pool_scope`]; merges the shards' counters and sinks
    /// in worker order, books `par.pool_reuse` and `par.epoch_syncs`, and
    /// returns the shards' answers.
    #[allow(clippy::too_many_arguments)]
    fn dispatch<R: Recorder + ?Sized, A: Send + 'a, S: ExplainSink + Send + 'a>(
        &self,
        q: &[f64],
        k: usize,
        shards: Vec<Range<usize>>,
        stats: &mut QueryStats,
        rec: &R,
        sink: &mut S,
        work: ShardFn<G, A, S>,
    ) -> Vec<A> {
        let gir = self.gir;
        let qa = timed_leaf(rec, "quantize", || {
            ApproxVectors::quantize_point(gir.grid(), q)
        });
        let every = match self.config.mode {
            BoundMode::Local => usize::MAX,
            BoundMode::Epoch(every) => every.max(1),
        };
        let (threads, rounds) = (shards.len(), epoch_rounds(&shards, every));
        let job = Arc::new(ShardJob {
            q: q.to_vec(),
            qa,
            k,
            every,
            rounds,
            sync: EpochSync::new(threads),
        });
        let run = |pool: &WorkerPool<'a>| {
            let jobs = shards.into_iter().enumerate().map(|(me, range)| {
                let job = Arc::clone(&job);
                Box::new(move || work(gir, &job, me, range)) as Box<dyn FnOnce() -> _ + Send + 'a>
            });
            pool.run(jobs.collect())
        };
        let reused = self.pool.is_some_and(|pool| pool.stats().queries > 0);
        let out = match self.pool {
            Some(pool) => run(pool),
            None => pool_scope(threads, run),
        }
        .unwrap_or_else(|err| panic!("parallel query failed on the worker pool: {err}"));
        if reused {
            rec.add_count("par.pool_reuse", 1);
        }
        let syncs = job.sync.syncs();
        if syncs > 0 {
            rec.add_count("par.epoch_syncs", syncs);
        }
        out.into_iter()
            .map(|(answer, shard_stats, shard_sink)| {
                stats.merge(&shard_stats);
                sink.absorb(shard_sink);
                answer
            })
            .collect()
    }

    /// Parallel GIRTop-k, generic over the caller's recorder (see
    /// [`Gir::rtk_impl`]).
    fn rtk_par<R: Recorder + ?Sized, S: ExplainSink + Default + Send + 'a>(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &R,
        sink: &mut S,
    ) -> RtkResult {
        let Some(shards) = self.begin(ExplainKind::Rtk, q, k, rec, sink) else {
            return self.gir.rtk_impl(q, k, stats, rec, sink);
        };
        let _query = span(rec, "rtk");
        let (mut members, mut empty) = (Vec::new(), false);
        for (shard, saturated) in self.dispatch(q, k, shards, stats, rec, sink, rtk_worker::<G, S>)
        {
            members.extend(shard);
            empty |= saturated;
        }
        if empty {
            // Saturation empties the result globally; drop shard-recorded
            // result events so the document matches what is returned.
            sink.invalidate_results();
            return RtkResult::default();
        }
        RtkResult::from_weights(members)
    }

    /// Parallel GIRk-Rank, generic over the caller's recorder.
    fn rkr_par<R: Recorder + ?Sized, S: ExplainSink + Default + Send + 'a>(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &R,
        sink: &mut S,
    ) -> RkrResult {
        let Some(shards) = self.begin(ExplainKind::Rkr, q, k, rec, sink) else {
            return self.gir.rkr_impl(q, k, stats, rec, sink);
        };
        let _query = span(rec, "rkr");
        let mut heap = KBestHeap::new(k);
        for shard in self.dispatch(q, k, shards, stats, rec, sink, rkr_worker::<G, S>) {
            heap.merge(shard);
        }
        let result = heap.into_result();
        if sink.enabled() {
            // Workers record no result events (only the merged heap knows
            // the survivors); the canonical result set is recorded here.
            for e in result.entries() {
                sink.result(e.weight.0 as u64, e.rank as u64);
            }
        }
        result
    }

    /// Parallel GIRTop-k with full pruning provenance (see
    /// [`Gir::reverse_top_k_explained`]). Shard sinks merge in
    /// worker-index order, so documents are reproducible run to run.
    pub fn reverse_top_k_explained(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        doc: &mut ExplainDoc,
    ) -> RtkResult {
        self.describe_into(doc);
        self.rtk_par(q, k, stats, &NoopRecorder, doc)
    }

    /// Parallel GIRk-Rank with full pruning provenance (see
    /// [`Self::reverse_top_k_explained`]).
    pub fn reverse_k_ranks_explained(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        doc: &mut ExplainDoc,
    ) -> RkrResult {
        self.describe_into(doc);
        self.rkr_par(q, k, stats, &NoopRecorder, doc)
    }

    fn describe_into(&self, doc: &mut ExplainDoc) {
        doc.set_engine("ParGir");
        doc.push_config("threads", &self.config.threads.to_string());
        let mode = match self.config.mode {
            BoundMode::Local => "local".to_string(),
            BoundMode::Epoch(every) => format!("epoch({every})"),
        };
        doc.push_config("mode", &mode);
        if self.pool.is_some() {
            doc.push_config("pool", "yes");
        }
    }
}

/// RTK shard worker: [`Gir::rtk_scan`] over the shard, `every` ids per
/// round, exchanging saturation between rounds. Every worker runs the
/// same `rounds` count (idling once its shard is exhausted or saturated),
/// so the barriers always pair up; when a boundary snapshot reports
/// saturation, *all* workers see it at the same round and stop together,
/// which keeps counters deterministic.
fn rtk_worker<G: GridTable, S: ExplainSink + Default>(
    gir: &Gir<'_, G>,
    job: &ShardJob,
    me: usize,
    range: Range<usize>,
) -> ((Vec<WeightId>, bool), QueryStats, S) {
    // If this worker panics anywhere in the scan, poison the sync so
    // barrier peers unwind too instead of hanging (see EpochSync docs).
    let _poison_on_unwind = job.sync.panic_guard();
    let (mut stats, mut sink) = (QueryStats::default(), S::default());
    let mut st = ScanState::new(gir, &job.q, &job.qa, &mut stats, &mut sink);
    let mut members = Vec::new();
    let (mut lo, mut saturated) = (range.start, false);
    for round in 0..job.rounds {
        if !saturated {
            let hi = lo.saturating_add(job.every).min(range.end);
            saturated = gir.rtk_scan(job.k, lo..hi, &mut st, &mut members, &NoopRecorder);
            lo = hi;
        }
        if round + 1 < job.rounds && job.sync.exchange(me, usize::MAX, saturated).1 {
            if !saturated && st.sink.enabled() {
                let (source, at) = (BoundSource::EpochExchange, round as u64);
                st.sink.bound_event(source, at, st.domin.len() as u64, true);
            }
            saturated = true;
            break;
        }
    }
    ((members, saturated), stats, sink)
}

/// RKR shard worker: [`Gir::rkr_order`] over the shard, then
/// [`Gir::rkr_scan`] over `every` positions of that order per round under
/// the frozen snapshot of the merged cross-shard bound. Between rounds it
/// publishes its heap threshold and adopts the new snapshot, whose
/// minimum is a sound global bound (each threshold is ≥ the global k-th
/// rank).
fn rkr_worker<G: GridTable, S: ExplainSink + Default>(
    gir: &Gir<'_, G>,
    job: &ShardJob,
    me: usize,
    range: Range<usize>,
) -> (KBestHeap, QueryStats, S) {
    // Unwind-to-poison coupling, same as the RTK worker.
    let _poison_on_unwind = job.sync.panic_guard();
    let (mut stats, mut sink) = (QueryStats::default(), S::default());
    let mut st = ScanState::new(gir, &job.q, &job.qa, &mut stats, &mut sink);
    let mut heap = KBestHeap::new(job.k);
    let order = gir.rkr_order(range, &mut st);
    let (mut lo, mut frozen) = (0usize, usize::MAX);
    for round in 0..job.rounds {
        let hi = lo.saturating_add(job.every).min(order.len());
        gir.rkr_scan(&order, lo..hi, frozen, &mut heap, &mut st, &NoopRecorder);
        lo = hi;
        if round + 1 < job.rounds {
            let (bound, _) = job.sync.exchange(me, heap.threshold(), false);
            if st.sink.enabled() && bound < frozen {
                // The epoch snapshot tightened: deterministic, recorded
                // against the round number rather than a single weight.
                let (source, at) = (BoundSource::EpochExchange, round as u64);
                st.sink.bound_event(source, at, bound as u64, false);
            }
            frozen = bound;
        }
    }
    (heap, stats, sink)
}

impl<G: GridTable + Sync> RtkQuery for ParGir<'_, '_, G> {
    /// Same label as the wrapped engine: the parallel engine answers the
    /// same algorithm, and benchmark run keys must line up between
    /// sequential and parallel documents.
    fn name(&self) -> &'static str {
        "GIR"
    }

    fn reverse_top_k(&self, q: &[f64], k: usize, stats: &mut QueryStats) -> RtkResult {
        self.rtk_par(q, k, stats, &NoopRecorder, &mut NoopSink)
    }

    fn reverse_top_k_traced(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &dyn Recorder,
    ) -> RtkResult {
        self.rtk_par(q, k, stats, rec, &mut NoopSink)
    }
}

impl<G: GridTable + Sync> RkrQuery for ParGir<'_, '_, G> {
    fn name(&self) -> &'static str {
        "GIR"
    }

    fn reverse_k_ranks(&self, q: &[f64], k: usize, stats: &mut QueryStats) -> RkrResult {
        self.rkr_par(q, k, stats, &NoopRecorder, &mut NoopSink)
    }

    fn reverse_k_ranks_traced(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &dyn Recorder,
    ) -> RkrResult {
        self.rkr_par(q, k, stats, rec, &mut NoopSink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gir::GirConfig;
    use crate::threshold::ThresholdIndex;
    use rrq_data::synthetic;
    use rrq_obs::{MetricsRecorder, SharedRecorder};
    use rrq_types::{PointId, PointSet, WeightSet};

    fn workload(dim: usize, np: usize, nw: usize, seed: u64) -> (PointSet, WeightSet) {
        (
            synthetic::uniform_points(dim, np, 10_000.0, seed).unwrap(),
            synthetic::uniform_weights(dim, nw, seed + 1).unwrap(),
        )
    }

    fn gir_configs() -> Vec<GirConfig> {
        vec![
            GirConfig::default(),
            GirConfig {
                partitions: 4,
                ..Default::default()
            },
            GirConfig {
                use_domin: false,
                ..Default::default()
            },
            GirConfig {
                packed: true,
                ..Default::default()
            },
        ]
    }

    fn par_modes() -> Vec<ParConfig> {
        vec![
            ParConfig::deterministic(2),
            ParConfig::deterministic(3),
            ParConfig::deterministic(4),
            ParConfig::epoch(3, 1),
            ParConfig::epoch(4, 16),
            ParConfig::epoch(2, usize::MAX), // one round: equals Local
            ParConfig::deterministic(1),     // sequential delegation
        ]
    }

    #[test]
    fn parallel_results_are_byte_identical_to_sequential() {
        let (p, w) = workload(4, 300, 81, 31);
        for config in gir_configs() {
            let gir = Gir::new(&p, &w, config);
            for par_cfg in par_modes() {
                let par = gir.parallel(par_cfg);
                for qid in [0usize, 150, 299] {
                    let q = p.point(PointId(qid)).to_vec();
                    for k in [1usize, 5, 25] {
                        let mut sp = QueryStats::default();
                        let mut ss = QueryStats::default();
                        assert_eq!(
                            par.reverse_top_k(&q, k, &mut sp),
                            gir.reverse_top_k(&q, k, &mut ss),
                            "rtk {config:?} {par_cfg:?} q={qid} k={k}"
                        );
                        let mut sp = QueryStats::default();
                        let mut ss = QueryStats::default();
                        assert_eq!(
                            par.reverse_k_ranks(&q, k, &mut sp),
                            gir.reverse_k_ranks(&q, k, &mut ss),
                            "rkr {config:?} {par_cfg:?} q={qid} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_mode_counters_are_reproducible() {
        let (p, w) = workload(5, 400, 120, 32);
        let gir = Gir::with_defaults(&p, &w);
        for par_cfg in [ParConfig::deterministic(4), ParConfig::epoch(4, 16)] {
            let par = gir.parallel(par_cfg);
            let q = p.point(PointId(123)).to_vec();
            for _ in 0..3 {
                let mut first = QueryStats::default();
                let r1 = par.reverse_k_ranks(&q, 10, &mut first);
                let mut second = QueryStats::default();
                let r2 = par.reverse_k_ranks(&q, 10, &mut second);
                assert_eq!(r1, r2);
                assert_eq!(first, second, "{par_cfg:?} counters must not drift");
                let mut first = QueryStats::default();
                let r1 = par.reverse_top_k(&q, 10, &mut first);
                let mut second = QueryStats::default();
                let r2 = par.reverse_top_k(&q, 10, &mut second);
                assert_eq!(r1, r2);
                assert_eq!(first, second, "{par_cfg:?} counters must not drift");
            }
        }
    }

    #[test]
    fn epoch_mode_prunes_at_least_as_well_as_local_mode() {
        // The whole point of epoch snapshots: cross-shard bounds come
        // back (fewer points visited than local mode) without giving up
        // reproducibility. A tiny epoch at k=1 on a large P makes the
        // effect visible deterministically.
        let (p, w) = workload(4, 2_000, 64, 38);
        let gir = Gir::with_defaults(&p, &w);
        let q = p.point(PointId(55)).to_vec();
        let mut local = QueryStats::default();
        let mut epoch = QueryStats::default();
        let r_local = gir
            .parallel(ParConfig::deterministic(4))
            .reverse_k_ranks(&q, 1, &mut local);
        let r_epoch = gir
            .parallel(ParConfig::epoch(4, 1))
            .reverse_k_ranks(&q, 1, &mut epoch);
        assert_eq!(r_local, r_epoch);
        assert!(
            epoch.points_visited <= local.points_visited,
            "epoch bounds must never scan more than local-only bounds \
             (epoch {} vs local {})",
            epoch.points_visited,
            local.points_visited
        );
    }

    #[test]
    fn sequential_delegation_reports_sequential_counters() {
        // threads <= 1 runs the sequential engine outright — even the
        // counters match, shard-reset artefacts included. Ditto 0.
        let (p, w) = workload(3, 200, 40, 33);
        let gir = Gir::with_defaults(&p, &w);
        let q = p.point(PointId(7)).to_vec();
        for threads in [0usize, 1] {
            let par = gir.parallel(ParConfig::deterministic(threads));
            let mut sp = QueryStats::default();
            let mut ss = QueryStats::default();
            assert_eq!(
                par.reverse_k_ranks(&q, 5, &mut sp),
                gir.reverse_k_ranks(&q, 5, &mut ss)
            );
            assert_eq!(sp, ss);
        }
    }

    #[test]
    fn more_workers_than_weights() {
        let (p, w) = workload(3, 150, 5, 34);
        let gir = Gir::with_defaults(&p, &w);
        let par = gir.parallel(ParConfig::deterministic(16));
        let q = p.point(PointId(75)).to_vec();
        let mut sp = QueryStats::default();
        let mut ss = QueryStats::default();
        assert_eq!(
            par.reverse_top_k(&q, 3, &mut sp),
            gir.reverse_top_k(&q, 3, &mut ss)
        );
        let mut sp = QueryStats::default();
        let mut ss = QueryStats::default();
        assert_eq!(
            par.reverse_k_ranks(&q, 3, &mut sp),
            gir.reverse_k_ranks(&q, 3, &mut ss)
        );
    }

    #[test]
    fn saturated_and_edge_queries_match_sequential() {
        let (p, w) = workload(3, 500, 50, 35);
        let gir = Gir::with_defaults(&p, &w);
        for par_cfg in [
            ParConfig::deterministic(4),
            ParConfig::epoch(4, 1),
            ParConfig::epoch(4, 4),
        ] {
            let par = gir.parallel(par_cfg);
            // Dominated query: every shard saturates its Domin buffer.
            let dominated = vec![9_999.0; 3];
            let mut stats = QueryStats::default();
            assert!(par.reverse_top_k(&dominated, 10, &mut stats).is_empty());
            // k = 0.
            let q = p.point(PointId(0)).to_vec();
            let mut stats = QueryStats::default();
            assert!(par.reverse_top_k(&q, 0, &mut stats).is_empty());
            let mut stats = QueryStats::default();
            assert!(par.reverse_k_ranks(&q, 0, &mut stats).is_empty());
            // k exceeding |W|: all weights come back, exact ranks.
            let mut sp = QueryStats::default();
            let mut ss = QueryStats::default();
            let got = par.reverse_k_ranks(&q, 100, &mut sp);
            assert_eq!(got.len(), 50);
            assert_eq!(got, gir.reverse_k_ranks(&q, 100, &mut ss));
            // External query point.
            let external = vec![1_234.5, 42.0, 5_000.0];
            let mut sp = QueryStats::default();
            let mut ss = QueryStats::default();
            assert_eq!(
                par.reverse_top_k(&external, 15, &mut sp),
                gir.reverse_top_k(&external, 15, &mut ss)
            );
        }
    }

    #[test]
    fn pooled_engine_matches_scoped_engine_exactly() {
        // An engine without an attached pool opens a one-off pool per
        // query; it books exactly the counters of an attached pool.
        let (p, w) = workload(4, 300, 90, 39);
        let gir = Gir::with_defaults(&p, &w);
        let q = p.point(PointId(42)).to_vec();
        for par_cfg in [
            ParConfig::deterministic(3),
            ParConfig::epoch(3, 1),
            ParConfig::epoch(3, 8),
        ] {
            pool_scope(3, |pool| {
                let unattached = gir.parallel(par_cfg);
                let pooled = gir.parallel(par_cfg).with_pool(pool);
                for k in [1usize, 7, 30] {
                    let mut sp = QueryStats::default();
                    let mut su = QueryStats::default();
                    assert_eq!(
                        pooled.reverse_top_k(&q, k, &mut sp),
                        unattached.reverse_top_k(&q, k, &mut su),
                        "rtk {par_cfg:?} k={k}"
                    );
                    assert_eq!(sp, su, "rtk counters {par_cfg:?} k={k}");
                    let mut sp = QueryStats::default();
                    let mut su = QueryStats::default();
                    assert_eq!(
                        pooled.reverse_k_ranks(&q, k, &mut sp),
                        unattached.reverse_k_ranks(&q, k, &mut su),
                        "rkr {par_cfg:?} k={k}"
                    );
                    assert_eq!(sp, su, "rkr counters {par_cfg:?} k={k}");
                }
            });
        }
    }

    #[test]
    fn pool_reuse_and_epoch_syncs_are_booked_on_traced_runs() {
        let (p, w) = workload(4, 250, 64, 40);
        let gir = Gir::with_defaults(&p, &w);
        let q = p.point(PointId(10)).to_vec();
        pool_scope(2, |pool| {
            let par = gir.parallel(ParConfig::epoch(2, 8)).with_pool(pool);
            let rec = SharedRecorder::new();
            for _ in 0..3 {
                let mut stats = QueryStats::default();
                let _ = par.reverse_k_ranks_traced(&q, 5, &mut stats, &rec);
            }
            // First query builds no reuse; the second and third do.
            assert_eq!(rec.counter("par.pool_reuse"), Some(2));
            // 64 weights over 2 workers at epoch 8 → 4 rounds → 3
            // boundaries × 2 workers × 3 queries = 18 exchanges.
            assert_eq!(rec.counter("par.epoch_syncs"), Some(18));
            assert_eq!(rec.counter("par.sequential_fallback"), None);
        });
    }

    #[test]
    fn undersized_pool_falls_back_sequentially_and_counts_it() {
        let (p, w) = workload(3, 200, 40, 41);
        let gir = Gir::with_defaults(&p, &w);
        let q = p.point(PointId(3)).to_vec();
        for workers in [0usize, 1] {
            pool_scope(workers, |pool| {
                let par = gir.parallel(ParConfig::deterministic(4)).with_pool(pool);
                let rec = SharedRecorder::new();
                let mut sp = QueryStats::default();
                let mut ss = QueryStats::default();
                let got = par.reverse_k_ranks_traced(&q, 5, &mut sp, &rec);
                assert_eq!(got, gir.reverse_k_ranks(&q, 5, &mut ss));
                assert_eq!(sp, ss, "fallback runs the sequential engine");
                assert_eq!(rec.counter("par.sequential_fallback"), Some(1));
                assert_eq!(pool.stats().queries, 0, "no jobs reach the pool");
            });
        }
    }

    /// The top-level phases of a recorded tree, with their children.
    fn phase_names(tree: &rrq_obs::SpanTree) -> Vec<(String, Vec<String>)> {
        tree.roots
            .iter()
            .map(|n| {
                let children = n.children.iter().map(|c| c.name.clone()).collect();
                (n.name.clone(), children)
            })
            .collect()
    }

    #[test]
    fn traced_runs_parallel_under_shared_recorder() {
        // Workers run untraced: the caller's recorder holds the query
        // span and its quantize leaf, never a worker's scan or refine.
        let (p, w) = workload(4, 250, 60, 36);
        let gir = Gir::with_defaults(&p, &w);
        let par = gir.parallel(ParConfig::deterministic(3));
        let q = p.point(PointId(40)).to_vec();
        let rec = SharedRecorder::new();
        let mut st = QueryStats::default();
        let mut su = QueryStats::default();
        let traced = par.reverse_k_ranks_traced(&q, 8, &mut st, &rec);
        assert_eq!(traced, par.reverse_k_ranks(&q, 8, &mut su));
        assert_eq!(st, su, "tracing must not change deterministic counters");
        assert_eq!(rec.counter("par.sequential_fallback"), None);
        assert_eq!(
            phase_names(&rec.span_tree()),
            vec![("rkr".to_string(), vec!["quantize".to_string()])]
        );
    }

    #[test]
    fn traced_falls_back_sequentially_for_non_sync_recorder() {
        // No recorder crosses a thread, so a single-threaded one traces
        // a parallel query too: it runs on the pool and books the
        // untraced counters.
        let (p, w) = workload(4, 250, 60, 37);
        let gir = Gir::with_defaults(&p, &w);
        let par = gir.parallel(ParConfig::deterministic(4));
        let q = p.point(PointId(41)).to_vec();
        let rec = MetricsRecorder::new();
        let mut st = QueryStats::default();
        let mut su = QueryStats::default();
        let mut ss = QueryStats::default();
        let traced = par.reverse_top_k_traced(&q, 8, &mut st, &rec);
        assert_eq!(traced, par.reverse_top_k(&q, 8, &mut su));
        assert_eq!(traced, gir.reverse_top_k(&q, 8, &mut ss));
        assert_eq!(st, su, "tracing must not change parallel counters");
        assert_eq!(rec.counter("par.sequential_fallback"), None);
        assert_eq!(
            phase_names(&rec.span_tree()),
            vec![("rtk".to_string(), vec!["quantize".to_string()])]
        );
    }

    #[test]
    fn indexed_shards_visit_weights_in_rank_floor_order() {
        // Each worker runs the sequential engine's best-first pre-pass
        // over its own shard: the bound timeline of an explained, indexed
        // RKR lists every shard's deciding weights in non-decreasing
        // rank-floor order.
        let (p, w) = workload(4, 600, 300, 31);
        let mut gir = Gir::with_defaults(&p, &w);
        let buckets = ThresholdIndex::default_buckets(&[10], p.len());
        let idx = gir.build_threshold_index(&buckets).unwrap();
        gir.attach_threshold_index(idx).unwrap();
        let ti = gir.threshold_index().unwrap();
        let par = gir.parallel(ParConfig::deterministic(3));
        let mut longest = 0;
        for qid in [3usize, 150, 420] {
            let q = p.point(PointId(qid)).to_vec();
            let mut sp = QueryStats::default();
            let mut ss = QueryStats::default();
            let mut doc = ExplainDoc::new();
            let got = par.reverse_k_ranks_explained(&q, 10, &mut sp, &mut doc);
            assert_eq!(got, gir.reverse_k_ranks(&q, 10, &mut ss), "q {qid}");
            assert!(sp.threshold_hits > 0, "q {qid}: no certificate fired");
            for shard in ParGir::<Grid>::shards(w.len(), 3) {
                let floors: Vec<usize> = doc
                    .timeline
                    .iter()
                    .map(|e| e.weight as usize)
                    .filter(|wid| shard.contains(wid))
                    .map(|wid| ti.rank_floor(wid, rrq_types::dot(w.weight(WeightId(wid)), &q)))
                    .collect();
                assert!(
                    floors.windows(2).all(|f| f[0] <= f[1]),
                    "q {qid} shard {shard:?}: {floors:?}"
                );
                longest = longest.max(floors.len());
            }
        }
        assert!(longest >= 2, "every shard timeline too short to order");
    }

    #[test]
    fn shard_ranges_cover_weights_exactly() {
        for nw in [1usize, 2, 5, 64, 81, 100] {
            for threads in [1usize, 2, 3, 4, 7, 16] {
                let shards = ParGir::<Grid>::shards(nw, threads);
                assert_eq!(shards.len(), threads);
                let mut next = 0usize;
                for r in &shards {
                    assert_eq!(r.start, next.min(nw));
                    assert!(r.end <= nw);
                    next = r.end.max(next);
                }
                assert_eq!(shards.last().unwrap().end, nw);
                let total: usize = shards.iter().map(|r| r.len()).sum();
                assert_eq!(total, nw, "nw={nw} threads={threads}");
            }
        }
    }

    #[test]
    fn epoch_rounds_cover_the_longest_shard() {
        let shards = ParGir::<Grid>::shards(100, 3); // chunks of 34
        assert_eq!(epoch_rounds(&shards, 10), 4);
        assert_eq!(epoch_rounds(&shards, 34), 1);
        assert_eq!(epoch_rounds(&shards, 1), 34);
        assert_eq!(epoch_rounds(&shards, usize::MAX), 1);
        assert_eq!(epoch_rounds(&[], 8), 1);
    }

    #[test]
    fn epoch_peer_panic_poisons_the_barrier_instead_of_hanging() {
        use crate::pool::PoolError;
        // A barrier-coupled job set where one member panics before its
        // first exchange: without unwind-to-poison the surviving peer
        // would wait forever inside `EpochSync::exchange` and
        // `WorkerPool::run` would never return. With it, the peer
        // panics out of the rendezvous and the pool reports the query
        // as JobPanicked — and stays usable.
        let sync = EpochSync::new(2);
        pool_scope(2, |pool| {
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
                Box::new(|| {
                    let _guard = sync.panic_guard();
                    panic!("epoch shard exploded");
                }),
                Box::new(|| {
                    let _guard = sync.panic_guard();
                    sync.exchange(1, 7, false).0
                }),
            ];
            match pool.run(jobs) {
                Err(PoolError::JobPanicked(_)) => {}
                other => panic!("expected JobPanicked, got {other:?}"),
            }
            // The pool survived the coupled failure.
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![Box::new(|| 1), Box::new(|| 2)];
            assert_eq!(pool.run(jobs).unwrap(), vec![1, 2]);
        });
    }

    #[test]
    fn poisoned_barrier_rejects_late_waiters() {
        // A worker that has not yet reached the rendezvous when the
        // poison lands must also panic on its next exchange, not enqueue
        // itself on a barrier that can never complete again.
        let sync = EpochSync::new(2);
        sync.poison();
        let late = std::panic::AssertUnwindSafe(|| sync.exchange(0, 7, false));
        assert!(std::panic::catch_unwind(late).is_err());
    }
}
