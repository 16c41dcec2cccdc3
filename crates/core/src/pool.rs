//! Persistent scoped worker pool for the parallel query engine.
//!
//! PR 3's [`ParGir`](crate::ParGir) spawns a fresh `std::thread::scope`
//! per query, which the performance notes flag as the dominant cost for
//! small `|W|`. [`pool_scope`] amortises that cost: it spawns `workers`
//! long-lived threads once, hands the caller a [`WorkerPool`] handle, and
//! joins everything when the closure returns. Each query submitted
//! through [`WorkerPool::run`] is a batch of boxed shard jobs fed through
//! one mpsc channel — no per-query spawn, no per-query join, just a
//! channel send per shard.
//!
//! The pool is *scoped*, not `'static`: jobs may borrow anything that
//! outlives the `pool_scope` call (the [`Gir`](crate::Gir) index, the
//! data sets), which is what lets the engine stay `unsafe`-free. The
//! price is an invariant lifetime — `WorkerPool<'env>` only accepts jobs
//! that live for exactly the environment it was created in; per-query
//! state (the query vector, shared-bound cells) must be owned by the job
//! (cloned or `Arc`ed).
//!
//! Guarantees:
//!
//! * **Order**: [`WorkerPool::run`] returns job results in submission
//!   order regardless of which worker finished first — the merge order
//!   the deterministic counter contract requires.
//! * **Panic containment**: a panicking job is caught on the worker
//!   (`catch_unwind`), reported to the caller as a [`PoolError`], and the
//!   worker survives to serve later queries — a poisoned query must not
//!   poison the pool. The pool can only deliver this if every job of a
//!   `run` call eventually *finishes* (normally or by unwinding):
//!   barrier-coupled job sets must guarantee that a panicking member
//!   releases its peers, otherwise they block forever inside the job and
//!   [`WorkerPool::run`] never returns. The engine's epoch-snapshot sync
//!   honours that contract by poisoning its barrier on unwind, which
//!   makes every peer panic out of the rendezvous and surface here as
//!   [`PoolError::JobPanicked`].
//! * **Serialisation**: concurrent `run` calls are serialised by an
//!   internal lock, so barrier-coupled job sets (the epoch-snapshot mode
//!   of [`ParGir`](crate::ParGir)) never interleave with another query's
//!   jobs. Within one `run` call every job can claim a distinct idle
//!   worker, so submitting at most [`WorkerPool::workers`] coupled jobs
//!   cannot deadlock.
//! * **Join on drop**: `pool_scope` drops the handle (disconnecting the
//!   channel) and the underlying `thread::scope` joins every worker
//!   before returning — no detached threads outlive the call.

use rrq_obs::FlightRecorder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};

/// A type-erased unit of work the pool's workers execute. It is handed
/// the hook that books its completion (`finished`, and the worker's
/// `per_worker` slot) and calls it exactly once, before it hands its
/// result to anyone: whoever has seen a [`WorkerPool::run`] result then
/// also sees its job booked.
type Job<'env> = Box<dyn FnOnce(&dyn Fn()) + Send + 'env>;

/// Locks a pool mutex. Pool mutexes are only held for counter updates
/// and never across a job, so poisoning means a bug worth propagating.
fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // rrq-lint: allow(no-unwrap-in-lib) -- a poisoned pool mutex means a panic escaped containment; propagate it
    mutex.lock().expect("worker pool mutex poisoned")
}

/// Why a [`WorkerPool::run`] call failed. The pool itself stays usable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// At least one job panicked; the payload's text, when extractable.
    /// Jobs that completed alongside it ran to completion but their
    /// results are discarded — a query with a panicked shard has no
    /// meaningful merged answer.
    JobPanicked(String),
    /// The result channel closed before every job reported — workers
    /// disappeared mid-query. Unreachable under `pool_scope` (workers
    /// outlive the handle) but reported rather than hung.
    Disconnected,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::JobPanicked(msg) => write!(f, "pool job panicked: {msg}"),
            Self::Disconnected => write!(f, "pool workers disconnected mid-query"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Usage counters of a pool, for lifecycle assertions and telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Completed [`WorkerPool::run`] calls.
    pub queries: u64,
    /// Jobs submitted across all `run` calls.
    pub jobs: u64,
}

/// Instantaneous job-flow telemetry of a pool, for the periodic sampler
/// (queue depth, in-flight jobs, per-worker utilisation). One snapshot
/// is one lock acquisition, so all fields are mutually consistent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolTelemetry {
    /// Jobs handed to the pool (via [`WorkerPool::run`] or
    /// [`WorkerPool::submit`]) so far.
    pub submitted: u64,
    /// Jobs a worker (or the inline path) has begun executing.
    pub started: u64,
    /// Jobs that finished executing (normally or by unwinding).
    pub finished: u64,
    /// Jobs whose panic was caught by [`WorkerPool::submit`]'s
    /// containment wrapper ([`WorkerPool::run`] reports its panics
    /// through [`PoolError`] instead and does not count here).
    pub panicked: u64,
    /// Jobs completed per worker thread, indexed by worker; empty for a
    /// zero-worker (inline) pool.
    pub per_worker: Vec<u64>,
}

impl PoolTelemetry {
    /// Jobs sitting in the channel, not yet picked up.
    pub fn queue_depth(&self) -> u64 {
        self.submitted.saturating_sub(self.started)
    }

    /// Jobs currently executing on a worker.
    pub fn in_flight(&self) -> u64 {
        self.started.saturating_sub(self.finished)
    }
}

/// Handle to a set of long-lived worker threads created by
/// [`pool_scope`]. Submit work with [`run`](Self::run); the workers stay
/// parked on the channel between queries.
pub struct WorkerPool<'env> {
    tx: Sender<Job<'env>>,
    workers: usize,
    /// Serialises `run` calls (see module docs).
    query_lock: Mutex<()>,
    counters: Mutex<PoolStats>,
    /// Shared with the workers (they were spawned before this handle
    /// existed), hence the `Arc`.
    telemetry: Arc<Mutex<PoolTelemetry>>,
    /// Optional flight recorder whose recent-query ring is appended to
    /// [`PoolError::JobPanicked`] messages (see
    /// [`WorkerPool::attach_flight_recorder`]).
    flight: Mutex<Option<&'env FlightRecorder>>,
}

/// Spawns `workers` pool threads inside a `std::thread::scope`, runs `f`
/// with the pool handle, then disconnects and joins every worker.
///
/// `workers == 0` is legal: the handle executes jobs inline on the
/// calling thread ([`WorkerPool::run`] still catches panics), which
/// keeps degenerate configurations deadlock-free.
pub fn pool_scope<'env, R>(workers: usize, f: impl FnOnce(&WorkerPool<'env>) -> R) -> R {
    std::thread::scope(|s| {
        let (tx, rx) = channel::<Job<'env>>();
        let rx = Arc::new(Mutex::new(rx));
        let telemetry = Arc::new(Mutex::new(PoolTelemetry {
            per_worker: vec![0; workers],
            ..PoolTelemetry::default()
        }));
        for idx in 0..workers {
            let rx = Arc::clone(&rx);
            let telemetry = Arc::clone(&telemetry);
            s.spawn(move || worker_loop(idx, &rx, &telemetry));
        }
        let pool = WorkerPool {
            tx,
            workers,
            query_lock: Mutex::new(()),
            counters: Mutex::new(PoolStats::default()),
            telemetry,
            flight: Mutex::new(None),
        };
        let out = f(&pool);
        // Dropping the handle (its `tx`) disconnects the channel; every
        // worker's `recv` errors out and the scope joins them.
        drop(pool);
        out
    })
}

/// A worker: pull one job at a time until the submission side hangs up.
/// The receiver lock is released before the job runs, so other workers
/// keep draining the queue while this one works.
fn worker_loop(idx: usize, rx: &Mutex<Receiver<Job<'_>>>, telemetry: &Mutex<PoolTelemetry>) {
    loop {
        let job = locked(rx).recv();
        match job {
            Ok(job) => {
                locked(telemetry).started += 1;
                job(&|| {
                    let mut t = locked(telemetry);
                    t.finished += 1;
                    t.per_worker[idx] += 1;
                });
            }
            Err(_) => return,
        }
    }
}

/// Best-effort text of a panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl<'env> WorkerPool<'env> {
    /// Number of worker threads serving this pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Usage counters so far.
    pub fn stats(&self) -> PoolStats {
        *locked(&self.counters)
    }

    /// A consistent snapshot of the job-flow telemetry (queue depth,
    /// in-flight jobs, per-worker completion counts).
    pub fn telemetry(&self) -> PoolTelemetry {
        locked(&self.telemetry).clone()
    }

    /// Attaches a [`FlightRecorder`] so a panicking job's
    /// [`PoolError::JobPanicked`] message carries the last-N query
    /// records — what the pool was *doing* when the query died, not just
    /// the panic text. The ring must outlive the pool's environment (it
    /// is borrowed for `'env`); attaching replaces any earlier ring.
    pub fn attach_flight_recorder(&self, ring: &'env FlightRecorder) {
        *locked(&self.flight) = Some(ring);
    }

    /// The panic text plus, when a ring is attached, its flight dump.
    fn panic_report(&self, payload: &(dyn std::any::Any + Send)) -> String {
        let mut msg = panic_text(payload);
        if let Some(ring) = *locked(&self.flight) {
            msg.push('\n');
            msg.push_str(&ring.dump_text());
        }
        msg
    }

    /// Runs `job` inline on the calling thread with the same telemetry
    /// accounting a worker would apply (minus a worker slot).
    fn run_inline(&self, job: Job<'env>) {
        locked(&self.telemetry).started += 1;
        job(&|| locked(&self.telemetry).finished += 1);
    }

    /// Submits one fire-and-forget job without blocking for completion —
    /// the streaming interface the load generator paces an open-loop
    /// arrival process with ([`WorkerPool::run`] blocks until a whole
    /// batch finishes, which would couple submission to service and
    /// reintroduce coordinated omission).
    ///
    /// The job is responsible for reporting its own completion (e.g.
    /// through a channel it captures). A panicking job is contained: the
    /// worker survives and the panic is counted in
    /// [`PoolTelemetry::panicked`] — but whatever completion signal the
    /// job owed its consumer dies with it, so drain loops must either
    /// trust their jobs not to panic or watch the panic counter.
    ///
    /// `submit` does not take the query lock; interleaving it with
    /// concurrent [`WorkerPool::run`] calls is safe but mixes both
    /// workloads' jobs in the one queue.
    pub fn submit(&self, job: Box<dyn FnOnce() + Send + 'env>) -> Result<(), PoolError> {
        locked(&self.telemetry).submitted += 1;
        let telemetry = Arc::clone(&self.telemetry);
        // AssertUnwindSafe: as in `run`, the captures die with the
        // closure and the failure is visible (panic counter).
        // The job's own completion signal runs inside it, so a consumer
        // may see it before the job is booked `finished`.
        let wrapped: Job<'env> = Box::new(move |book_finished| {
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                locked(&telemetry).panicked += 1;
            }
            book_finished();
        });
        if self.workers == 0 {
            self.run_inline(wrapped);
            Ok(())
        } else {
            self.tx.send(wrapped).map_err(|_| {
                // Roll the pre-count back: a job the channel never
                // accepted must not sit in `submitted` forever, or
                // `queue_depth()` reports a phantom backlog for the
                // rest of the pool's life. Counting *before* the send
                // (with rollback) rather than after keeps the
                // `submitted ≥ started` invariant — a concurrent
                // telemetry snapshot never observes a started job that
                // was not yet counted as submitted.
                let mut t = locked(&self.telemetry);
                t.submitted = t.submitted.saturating_sub(1);
                PoolError::Disconnected
            })
        }
    }

    /// Executes one query's jobs on the pool and returns their results
    /// **in submission order**. Blocks until every job finished.
    ///
    /// Jobs may be coupled (barriers) only if `jobs.len() <=
    /// self.workers()`, and any coupling must release its peers when a
    /// member unwinds (see the module docs on panic containment) — a
    /// coupled job blocked forever on a panicked peer would block this
    /// call forever too. On a panic inside any job the first payload is
    /// returned as [`PoolError::JobPanicked`] after all jobs of this
    /// call finished — the workers themselves survive.
    pub fn run<T: Send + 'env>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Result<Vec<T>, PoolError> {
        let n = jobs.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let _query = locked(&self.query_lock);
        {
            let mut c = locked(&self.counters);
            c.queries += 1;
            c.jobs += n as u64;
        }
        locked(&self.telemetry).submitted += n as u64;
        let (result_tx, result_rx) = channel::<(usize, std::thread::Result<T>)>();
        for (idx, job) in jobs.into_iter().enumerate() {
            let result_tx = result_tx.clone();
            // AssertUnwindSafe: a panicked job's captures are dropped
            // with the closure and never observed again — the query is
            // reported failed as a whole, so no broken invariant leaks.
            // The job is booked before its result is sent, so when `run`
            // returns the telemetry already balances.
            let wrapped: Job<'env> = Box::new(move |book_finished| {
                let outcome = catch_unwind(AssertUnwindSafe(job));
                book_finished();
                let _ = result_tx.send((idx, outcome));
            });
            if self.workers == 0 {
                self.run_inline(wrapped);
            } else if self.tx.send(wrapped).is_err() {
                return Err(PoolError::Disconnected);
            }
        }
        drop(result_tx);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut panicked: Option<String> = None;
        for _ in 0..n {
            match result_rx.recv() {
                Ok((idx, Ok(value))) => slots[idx] = Some(value),
                Ok((_, Err(payload))) => {
                    panicked.get_or_insert_with(|| self.panic_report(payload.as_ref()));
                }
                Err(_) => return Err(PoolError::Disconnected),
            }
        }
        if let Some(msg) = panicked {
            return Err(PoolError::JobPanicked(msg));
        }
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            match slot {
                Some(value) => out.push(value),
                // Every index reported exactly once above; an empty slot
                // would mean a duplicate index, i.e. a pool bug.
                None => return Err(PoolError::Disconnected),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread::ThreadId;

    fn id_jobs<'env>(
        barrier: &'env Barrier,
        n: usize,
    ) -> Vec<Box<dyn FnOnce() -> ThreadId + Send + 'env>> {
        (0..n)
            .map(|_| {
                let job: Box<dyn FnOnce() -> ThreadId + Send + 'env> = Box::new(move || {
                    // Rendezvous forces each job onto a distinct worker.
                    barrier.wait();
                    std::thread::current().id()
                });
                job
            })
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        pool_scope(4, |pool| {
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
                (0..16usize).map(|i| Box::new(move || i * i) as _).collect();
            let out = pool.run(jobs).unwrap();
            assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
        });
    }

    #[test]
    fn workers_are_reused_across_queries_without_respawn() {
        let barrier = Barrier::new(3);
        let sorted_ids = |ids: Vec<ThreadId>| {
            let mut ids: Vec<String> = ids.into_iter().map(|id| format!("{id:?}")).collect();
            ids.sort();
            ids
        };
        pool_scope(3, |pool| {
            let seen = sorted_ids(pool.run(id_jobs(&barrier, 3)).unwrap());
            let mut distinct = seen.clone();
            distinct.dedup();
            assert_eq!(distinct.len(), 3, "barrier forces three distinct workers");
            for _ in 0..2 {
                let again = sorted_ids(pool.run(id_jobs(&barrier, 3)).unwrap());
                assert_eq!(
                    again, seen,
                    "later queries run on the original workers — no respawn"
                );
            }
            assert_eq!(
                pool.stats(),
                PoolStats {
                    queries: 3,
                    jobs: 9
                }
            );
        });
    }

    #[test]
    fn jobs_can_borrow_the_environment() {
        let data: Vec<u64> = (0..1000).collect();
        let total = pool_scope(2, |pool| {
            let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = data
                .chunks(250)
                .map(|chunk| Box::new(move || chunk.iter().sum::<u64>()) as _)
                .collect();
            pool.run(jobs).unwrap().into_iter().sum::<u64>()
        });
        assert_eq!(total, data.iter().sum::<u64>());
    }

    #[test]
    fn panic_propagates_as_error_without_poisoning_later_queries() {
        pool_scope(2, |pool| {
            let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
                Box::new(|| 1),
                Box::new(|| panic!("shard exploded")),
                Box::new(|| 3),
            ];
            match pool.run(jobs) {
                Err(PoolError::JobPanicked(msg)) => assert!(msg.contains("shard exploded")),
                other => panic!("expected JobPanicked, got {other:?}"),
            }
            // The pool is not poisoned: the same workers answer again.
            let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 10), Box::new(|| 20)];
            assert_eq!(pool.run(jobs).unwrap(), vec![10, 20]);
            assert_eq!(
                pool.stats(),
                PoolStats {
                    queries: 2,
                    jobs: 5
                }
            );
        });
    }

    #[test]
    fn panic_error_carries_attached_flight_recorder_dump() {
        use rrq_obs::{FlightRecord, QueryKind};
        let ring = FlightRecorder::new(4);
        ring.record(FlightRecord {
            kind: QueryKind::Rkr,
            cell: 42,
            k: 7,
            multiplications: 1234,
            ..FlightRecord::default()
        });
        pool_scope(2, |pool| {
            pool.attach_flight_recorder(&ring);
            let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
                vec![Box::new(|| 1), Box::new(|| panic!("query 1 died"))];
            match pool.run(jobs) {
                Err(PoolError::JobPanicked(msg)) => {
                    assert!(msg.contains("query 1 died"), "{msg}");
                    assert!(msg.contains("flight recorder"), "ring dump missing: {msg}");
                    assert!(msg.contains("rkr cell=42"), "records missing: {msg}");
                }
                other => panic!("expected JobPanicked, got {other:?}"),
            }
            // Without an attached ring the message stays bare.
            let bare = pool_scope(1, |p| {
                let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| panic!("bare"))];
                match p.run(jobs) {
                    Err(PoolError::JobPanicked(msg)) => msg,
                    other => panic!("expected JobPanicked, got {other:?}"),
                }
            });
            assert!(!bare.contains("flight recorder"), "{bare}");
        });
    }

    #[test]
    fn zero_workers_runs_inline_and_still_catches_panics() {
        pool_scope(0, |pool| {
            assert_eq!(pool.workers(), 0);
            let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 7), Box::new(|| 8)];
            assert_eq!(pool.run(jobs).unwrap(), vec![7, 8]);
            let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| panic!("inline"))];
            assert!(matches!(pool.run(jobs), Err(PoolError::JobPanicked(_))));
        });
    }

    #[test]
    fn scope_exit_joins_idle_workers() {
        // Workers park on `recv` between queries. If dropping the handle
        // failed to disconnect them, the underlying `thread::scope`
        // would block forever — so merely *returning* here proves the
        // drop-disconnect-join chain. The counter pins that every job
        // ran on a pool thread, not the caller.
        let ran = AtomicUsize::new(0);
        pool_scope(3, |pool| {
            let caller = std::thread::current().id();
            let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..3)
                .map(|_| {
                    let ran = &ran;
                    Box::new(move || {
                        assert_ne!(std::thread::current().id(), caller);
                        // ORDERING: Relaxed — a pure event counter; the
                        // join inside `thread::scope` is the
                        // happens-before edge that makes it visible to
                        // the assert below.
                        ran.fetch_add(1, Ordering::Relaxed);
                    }) as _
                })
                .collect();
            pool.run(jobs).unwrap();
        });
        // ORDERING: Relaxed — reads after the scope join; no concurrent
        // writers remain.
        assert_eq!(ran.load(Ordering::Relaxed), 3);
        // A fresh scope over the same stack frame works fine — nothing
        // from the previous pool leaked.
        pool_scope(2, |pool| assert_eq!(pool.workers(), 2));
    }

    #[test]
    fn more_jobs_than_workers_queue_and_complete() {
        pool_scope(1, |pool| {
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
                (0..32usize).map(|i| Box::new(move || i) as _).collect();
            assert_eq!(pool.run(jobs).unwrap(), (0..32).collect::<Vec<_>>());
        });
    }

    #[test]
    fn empty_job_list_is_a_noop() {
        pool_scope(2, |pool| {
            let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = Vec::new();
            assert_eq!(pool.run(jobs).unwrap(), Vec::<u32>::new());
            assert_eq!(pool.stats(), PoolStats::default());
        });
    }

    #[test]
    fn telemetry_counts_run_jobs_and_balances_at_rest() {
        pool_scope(3, |pool| {
            let t0 = pool.telemetry();
            assert_eq!((t0.submitted, t0.started, t0.finished), (0, 0, 0));
            assert_eq!(t0.per_worker, vec![0, 0, 0]);

            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
                (0..12usize).map(|i| Box::new(move || i) as _).collect();
            pool.run(jobs).unwrap();
            // `run` blocks until every job finished, so at rest the flow
            // counters balance and the per-worker counts sum to the total.
            let t = pool.telemetry();
            assert_eq!((t.submitted, t.started, t.finished), (12, 12, 12));
            assert_eq!(t.queue_depth(), 0);
            assert_eq!(t.in_flight(), 0);
            assert_eq!(t.per_worker.iter().sum::<u64>(), 12);
            assert_eq!(t.panicked, 0);
        });
    }

    #[test]
    fn submit_executes_without_blocking_and_reports_through_channel() {
        pool_scope(2, |pool| {
            let (done_tx, done_rx) = channel::<usize>();
            for i in 0..8usize {
                let done_tx = done_tx.clone();
                pool.submit(Box::new(move || {
                    let _ = done_tx.send(i);
                }))
                .unwrap();
            }
            let mut got: Vec<usize> = (0..8).map(|_| done_rx.recv().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, (0..8).collect::<Vec<_>>());
            // A submitted job reports through its channel before the
            // worker books it, so wait for the booking.
            let t = loop {
                let t = pool.telemetry();
                if t.finished == 8 {
                    break t;
                }
                std::thread::yield_now();
            };
            assert_eq!(t.submitted, 8);
            assert_eq!(t.finished, 8);
            assert_eq!(t.per_worker.iter().sum::<u64>(), 8);
        });
    }

    #[test]
    fn submit_contains_panics_and_counts_them() {
        pool_scope(2, |pool| {
            let (done_tx, done_rx) = channel::<u32>();
            pool.submit(Box::new(|| panic!("streamed job exploded")))
                .unwrap();
            let tx = done_tx.clone();
            pool.submit(Box::new(move || {
                let _ = tx.send(5);
            }))
            .unwrap();
            assert_eq!(done_rx.recv().unwrap(), 5, "pool survives the panic");
            // Wait for the panicked job's accounting (it may finish after
            // the healthy one).
            loop {
                let t = pool.telemetry();
                if t.finished == 2 {
                    assert_eq!(t.panicked, 1);
                    break;
                }
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn submit_runs_inline_on_a_zero_worker_pool() {
        pool_scope(0, |pool| {
            let (done_tx, done_rx) = channel::<u32>();
            pool.submit(Box::new(move || {
                let _ = done_tx.send(9);
            }))
            .unwrap();
            assert_eq!(done_rx.recv().unwrap(), 9);
            pool.submit(Box::new(|| panic!("inline stream panic")))
                .unwrap();
            let t = pool.telemetry();
            assert_eq!((t.submitted, t.finished, t.panicked), (2, 2, 1));
            assert!(t.per_worker.is_empty());
        });
    }

    #[test]
    fn rejected_submit_does_not_inflate_queue_depth() {
        // A pool whose workers are gone (receiver dropped) rejects the
        // job; the pre-counted submission must be rolled back or
        // queue_depth() reports a phantom backlog forever.
        let (tx, rx) = channel::<Job<'static>>();
        drop(rx);
        let pool = WorkerPool {
            tx,
            workers: 1,
            query_lock: Mutex::new(()),
            counters: Mutex::new(PoolStats::default()),
            telemetry: Arc::new(Mutex::new(PoolTelemetry {
                per_worker: vec![0; 1],
                ..PoolTelemetry::default()
            })),
            flight: Mutex::new(None),
        };
        assert!(matches!(
            pool.submit(Box::new(|| {})),
            Err(PoolError::Disconnected)
        ));
        let t = pool.telemetry();
        assert_eq!(t.submitted, 0, "rejected job must not stay counted");
        assert_eq!(t.queue_depth(), 0);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn queue_depth_saturates_on_transient_inversion() {
        // Snapshot torn against a concurrent submit: derived reads
        // saturate instead of wrapping to u64::MAX.
        let t = PoolTelemetry {
            submitted: 3,
            started: 5,
            finished: 6,
            ..PoolTelemetry::default()
        };
        assert_eq!(t.queue_depth(), 0);
        assert_eq!(t.in_flight(), 0);
    }
}
