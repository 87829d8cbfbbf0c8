//! The admission batcher: concurrently arriving single queries coalesced
//! into micro-batches for the Q×N tiled batch kernel.
//!
//! A single query scans the whole filter store for one output row; the
//! tiled batch kernel amortizes that scan across a tile of query rows, so
//! a served index wants concurrent singles to execute *together*. By
//! default the batcher is **work-conserving**: a free worker takes
//! everything queued, up to [`BatcherConfig::max_batch`], at once and
//! never waits for company. Batches form naturally under load — requests
//! that arrive while every worker is busy queue up and leave together —
//! while a lone request at an idle worker runs at once, with no timer.
//!
//! A nonzero [`BatcherConfig::latency_budget`] is an opt-in upper bound on
//! waiting: the first request to reach a free worker opens a window,
//! further arrivals join it, and the window closes after the budget or
//! when `max_batch` requests have gathered, whichever comes first.
//!
//! When a worker takes a batch, the drained requests are grouped by
//! `(k, p)` (the batched pipelines take one `k`/`p` per call) and, within
//! each group, **deduplicated by exact query bits**: equal queries run
//! once and share the result. This is the batch-global form of the
//! per-tile duplicate memo inside `tiled_query_pipeline` — admission sees
//! the whole batch, so duplicates landing in different tiles (which the
//! per-tile memo cannot see) collapse here. Only bit-equal queries are
//! merged, so the reuse is exact, not approximate.
//!
//! Per-query results are **bit-identical to a sequential
//! [`QseApi::try_query`] per request**, whatever the arrival
//! interleaving, worker count or duplicate scatter: the batched pipelines
//! pin batch == sequential, and dedupe only ever reuses a result across
//! equal inputs. The workspace `admission_batching` test asserts exactly
//! this.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qse_retrieval::QueryError;

use crate::api::{QseApi, QueryResult};

/// What a submitted request can fail with: a typed validation error, or
/// — the armor-plated last resort — a panic caught inside a worker so the
/// service keeps serving.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The request was rejected by validation or by the index.
    Query(QueryError),
    /// A worker panicked while executing the batch; the message is the
    /// panic payload. The worker survives and keeps draining.
    Internal(String),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Query(e) => write!(f, "{e}"),
            Self::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<QueryError> for RequestError {
    fn from(e: QueryError) -> Self {
        Self::Query(e)
    }
}

/// Knobs of the admission batcher.
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// How long the first request of a batch may wait for company at a
    /// free worker. Zero (the default) is work-conserving: a free worker
    /// takes whatever is queued at once. A nonzero budget opens a window
    /// that trades up to this much latency per request for larger batches.
    pub latency_budget: Duration,
    /// Hard cap on requests per batch; a full window closes early.
    pub max_batch: usize,
    /// Worker threads draining the queue. One worker executes one batch
    /// at a time; more workers overlap execution with the next batch.
    pub workers: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            latency_budget: Duration::ZERO,
            max_batch: 64,
            workers: 2,
        }
    }
}

/// Counters the batcher keeps, for health reporting and for the bench
/// suite's dedupe/batching effectiveness lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatcherStats {
    /// Batches executed.
    pub batches: u64,
    /// Requests admitted into executed batches.
    pub queries: u64,
    /// Requests answered from another request's result by the
    /// batch-global equal-query dedupe (never ran the pipeline).
    pub deduped: u64,
}

#[derive(Default)]
struct StatCells {
    batches: AtomicU64,
    queries: AtomicU64,
    deduped: AtomicU64,
}

struct Pending {
    query: Vec<f64>,
    k: usize,
    p: usize,
    tx: mpsc::Sender<Result<QueryResult, RequestError>>,
}

struct QueueState {
    queue: VecDeque<Pending>,
    shutdown: bool,
}

struct Shared {
    api: Arc<QseApi>,
    state: Mutex<QueueState>,
    arrived: Condvar,
    config: BatcherConfig,
    stats: StatCells,
}

/// The admission batcher: submit single queries from any number of
/// threads; they execute in coalesced micro-batches on the worker pool.
/// Dropping the batcher drains the queue and joins the workers.
pub struct Batcher {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Batcher {
    /// Start `config.workers` worker threads over `api`.
    pub fn start(api: Arc<QseApi>, config: BatcherConfig) -> Self {
        let config = BatcherConfig {
            max_batch: config.max_batch.max(1),
            workers: config.workers.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            api,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            arrived: Condvar::new(),
            config,
            stats: StatCells::default(),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self { shared, workers }
    }

    /// The facade the workers execute against.
    pub fn api(&self) -> &Arc<QseApi> {
        &self.shared.api
    }

    /// Submit one query and block until its batch executes.
    ///
    /// Validation runs synchronously at admission — a malformed request
    /// is rejected here, before it can occupy a batch slot, and the
    /// worker threads only ever see requests the index accepts.
    ///
    /// # Errors
    /// [`RequestError::Query`] for any [`QseApi::validate`] rejection,
    /// [`RequestError::Internal`] if the executing worker panicked.
    pub fn query(&self, query: Vec<f64>, k: usize, p: usize) -> Result<QueryResult, RequestError> {
        self.shared.api.validate(&query, k, p)?;
        let (tx, rx) = mpsc::channel();
        {
            let mut state = lock(&self.shared.state);
            if state.shutdown {
                return Err(RequestError::Internal("the batcher is shut down".into()));
            }
            state.queue.push_back(Pending { query, k, p, tx });
        }
        self.shared.arrived.notify_one();
        rx.recv().unwrap_or_else(|_| {
            Err(RequestError::Internal(
                "the batch executor dropped the request".into(),
            ))
        })
    }

    /// A snapshot of the batching counters.
    pub fn stats(&self) -> BatcherStats {
        BatcherStats {
            batches: self.shared.stats.batches.load(Ordering::Relaxed),
            queries: self.shared.stats.queries.load(Ordering::Relaxed),
            deduped: self.shared.stats.deduped.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.arrived.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn lock(m: &Mutex<QueueState>) -> std::sync::MutexGuard<'_, QueueState> {
    // A worker panic inside the critical section is already converted to
    // a response by catch_unwind; a poisoned queue lock carries no
    // broken invariant worth dying for.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut state = lock(&shared.state);
            // Sleep until something arrives (or shutdown drains us out).
            loop {
                if !state.queue.is_empty() {
                    break;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .arrived
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            // A request is waiting. With a nonzero latency budget, hold
            // the batch window open (releasing the lock while sleeping)
            // until the budget runs out or the batch fills; at the zero
            // default the deadline has already passed, so the worker takes
            // whatever is queued without waiting.
            let deadline = Instant::now() + shared.config.latency_budget;
            while state.queue.len() < shared.config.max_batch && !state.shutdown {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (next, timeout) = shared
                    .arrived
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                state = next;
                if timeout.timed_out() {
                    break;
                }
                if state.queue.is_empty() {
                    // Another worker drained the window while we slept.
                    break;
                }
            }
            let take = state.queue.len().min(shared.config.max_batch);
            state.queue.drain(..take).collect::<Vec<_>>()
        };
        if batch.is_empty() {
            continue;
        }
        execute_batch(shared, batch);
    }
}

/// Run one drained admission batch: group by `(k, p)`, dedupe equal
/// queries within each group, execute each group through the batched
/// pipeline once, fan results back out to every requester.
fn execute_batch(shared: &Shared, batch: Vec<Pending>) {
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .queries
        .fetch_add(batch.len() as u64, Ordering::Relaxed);

    // Group request indexes by (k, p): the batched pipelines take one
    // k/p per call. first-seen order within a group is preserved, so
    // dedupe deterministically reuses the earliest occurrence.
    let mut groups: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    for (i, pending) in batch.iter().enumerate() {
        groups.entry((pending.k, pending.p)).or_default().push(i);
    }

    for ((k, p), members) in groups {
        // Batch-global equal-query dedupe, keyed on exact f64 bits: a
        // strictly narrower merge than the pipeline's `PartialEq` memo
        // (bits distinguish -0.0 from 0.0 and never match NaN to NaN
        // payload-insensitively), so reuse is always sound.
        let mut unique: Vec<Vec<f64>> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(members.len());
        let mut seen: HashMap<Vec<u64>, usize> = HashMap::new();
        for &i in &members {
            let bits: Vec<u64> = batch[i].query.iter().map(|x| x.to_bits()).collect();
            let slot = *seen.entry(bits).or_insert_with(|| {
                unique.push(batch[i].query.clone());
                unique.len() - 1
            });
            slot_of.push(slot);
        }
        shared
            .stats
            .deduped
            .fetch_add((members.len() - unique.len()) as u64, Ordering::Relaxed);

        // Admission already validated every request, so errors here are
        // unexpected — but they still come back typed, and a panic in
        // the pipeline is caught so the worker (and the service) lives.
        let api = Arc::clone(&shared.api);
        let outcome = catch_unwind(AssertUnwindSafe(|| api.try_query_batch(&unique, k, p)));
        match outcome {
            Ok(Ok(results)) => {
                for (&i, &slot) in members.iter().zip(&slot_of) {
                    let _ = batch[i].tx.send(Ok(results[slot].clone()));
                }
            }
            Ok(Err(e)) => {
                for &i in &members {
                    let _ = batch[i].tx.send(Err(RequestError::Query(e)));
                }
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                for &i in &members {
                    let _ = batch[i].tx.send(Err(RequestError::Internal(msg.clone())));
                }
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}
