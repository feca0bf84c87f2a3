//! The farm core: bounded priority queue, content-key dedup, supervised
//! worker pool, retry with backoff, and the crash-safe queue journal.
//!
//! ## Dedup
//!
//! Every accepted job is keyed by its backend content key. The first
//! submission of a key becomes the *primary* and is the only one that
//! computes; later submissions while it is in flight become *followers*
//! (subscribers) that mirror the primary's terminal state and result.
//! Submissions after a key completed are answered straight from the
//! completed-work cache. `N` identical concurrent requests therefore cost
//! exactly one compute.
//!
//! ## Fault tolerance
//!
//! Workers execute under `catch_unwind`: a panicking backend fails only
//! its own job, the worker thread retires, and the supervisor respawns a
//! replacement. Failed attempts retry with exponential backoff plus
//! jitter up to `max_attempts`; per-job deadlines trip the job's
//! [`CancelToken`] so a wedged pipeline converts to a retryable timeout.
//!
//! ## Durability
//!
//! With a journal directory configured, every queue transition appends
//! one record to the v2 journal ([`crate::journal`]): an append-only
//! transition log with group-committed fsync plus a periodically
//! compacted snapshot. Queued jobs and running jobs (persisted as
//! queued, so an interrupted attempt re-runs) survive `SIGKILL`. A
//! restarted farm re-adopts the journal and resumes — dedup regroups
//! naturally because restored jobs re-enter through the same enqueue
//! path.

use crate::backend::JobBackend;
use crate::job::{now_us, JobRecord, JobSpec, JobState};
use crate::journal::{Journal, JournalConfig, PersistedJob};
use crate::recorder::FlightRecorder;
use looppoint::CancelToken;
use lp_obs::json::Value;
use lp_obs::{names, Observer, TraceContext};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub use crate::journal::JOURNAL_FILE;

/// Tuning knobs for a [`Farm`].
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Worker pool width.
    pub workers: usize,
    /// Executable-queue capacity; submissions past it are rejected with
    /// a retry-after hint (dedup followers don't consume capacity).
    pub queue_capacity: usize,
    /// Attempts before a job fails permanently.
    pub max_attempts: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Default per-job wall-clock timeout (ms); `0` disables.
    pub default_timeout_ms: u64,
    /// `Retry-After` hint handed to rejected submitters (ms).
    pub retry_after_ms: u64,
    /// Terminal records kept in memory for `GET /jobs/{id}`.
    pub history_limit: usize,
    /// Finished per-job traces retained by the flight recorder
    /// (`GET /jobs/{id}/trace`); oldest-completed evict first.
    pub trace_capacity: usize,
    /// First job id is `id_base + 1`. Cluster nodes carve the id space
    /// into disjoint per-node ranges (ordinal-derived high bits) so a
    /// job id is meaningful cluster-wide: forwarded submissions return
    /// the owner's id, and adopted jobs keep theirs without colliding
    /// with the adopter's own. `0` (the default) is the single-node
    /// behavior: ids from 1.
    pub id_base: u64,
    /// Journal directory; `None` runs in-memory only.
    pub dir: Option<PathBuf>,
    /// Journal group-commit window (ms): transitions landing within it
    /// share one fsync. `0` flushes each batch immediately.
    pub journal_flush_ms: u64,
    /// Journal compaction trigger: compact when the transition log
    /// exceeds this multiple of the snapshot size.
    pub journal_compact_factor: u64,
    /// Metrics-history sampling cadence (ms) for `/metrics/history` and
    /// `run-looppoint top`; `0` disables the sampler.
    pub history_interval_ms: u64,
    /// Samples retained by the bounded history ring.
    pub history_capacity: usize,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            workers: 2,
            queue_capacity: 64,
            max_attempts: 3,
            backoff_base_ms: 100,
            backoff_cap_ms: 5_000,
            default_timeout_ms: 0,
            retry_after_ms: 1_000,
            history_limit: 1_024,
            trace_capacity: 256,
            id_base: 0,
            dir: None,
            journal_flush_ms: 1,
            journal_compact_factor: 4,
            history_interval_ms: 1_000,
            history_capacity: 512,
        }
    }
}

/// How a submission was accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submitted {
    /// Newly queued as the primary compute for its key.
    Queued {
        /// Assigned job id.
        id: u64,
    },
    /// Attached as a follower of an in-flight primary (one compute).
    Deduped {
        /// Assigned job id.
        id: u64,
        /// The primary's id.
        primary: u64,
    },
    /// Answered from the completed-work cache; already terminal.
    Cached {
        /// Assigned job id.
        id: u64,
        /// The completed job whose result was reused.
        source: u64,
    },
}

impl Submitted {
    /// The id assigned to this submission.
    pub fn id(&self) -> u64 {
        match self {
            Submitted::Queued { id }
            | Submitted::Deduped { id, .. }
            | Submitted::Cached { id, .. } => *id,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; retry after the hinted delay.
    QueueFull {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The farm is draining or shut down.
    Draining,
    /// The spec itself is invalid (unknown program, bad field).
    BadSpec(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { retry_after_ms } => {
                write!(f, "queue full; retry after {retry_after_ms} ms")
            }
            SubmitError::Draining => write!(f, "farm is draining"),
            SubmitError::BadSpec(msg) => write!(f, "bad job spec: {msg}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Shutdown style for [`Farm::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop accepting, finish every queued and running job, then stop.
    Drain,
    /// Stop accepting, interrupt running jobs and requeue them to the
    /// journal (they resume on the next start), stop promptly.
    Now,
}

/// The wire spelling: `drain` | `now`.
impl std::fmt::Display for ShutdownMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShutdownMode::Drain => "drain",
            ShutdownMode::Now => "now",
        })
    }
}

/// Aggregate queue statistics (`GET /queue`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueSnapshot {
    /// Executable jobs waiting for a worker.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Terminal-done records retained.
    pub done: usize,
    /// Terminal-failed records retained.
    pub failed: usize,
    /// Terminal-cancelled records retained.
    pub cancelled: usize,
    /// Live worker threads.
    pub workers: usize,
    /// Queue capacity.
    pub capacity: usize,
    /// Whether the farm has stopped accepting submissions.
    pub draining: bool,
}

impl QueueSnapshot {
    /// The snapshot as a wire JSON object.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("queued".to_string(), Value::Int(self.queued as i128)),
            ("running".to_string(), Value::Int(self.running as i128)),
            ("done".to_string(), Value::Int(self.done as i128)),
            ("failed".to_string(), Value::Int(self.failed as i128)),
            ("cancelled".to_string(), Value::Int(self.cancelled as i128)),
            ("workers".to_string(), Value::Int(self.workers as i128)),
            ("capacity".to_string(), Value::Int(self.capacity as i128)),
            ("draining".to_string(), Value::Bool(self.draining)),
        ])
    }
}

/// One entry of the executable queue.
#[derive(Debug, Clone)]
struct QueuedEntry {
    id: u64,
    priority: i64,
    /// Unix µs before which this entry must not run (retry backoff).
    not_before_us: u64,
}

/// Live bookkeeping for a running job.
struct RunningInfo {
    cancel: CancelToken,
    /// Unix µs deadline, if a timeout applies.
    deadline_us: Option<u64>,
    timed_out: bool,
    user_cancelled: bool,
    /// Shutdown-now: don't consume an attempt, put it back for restart.
    requeue: bool,
}

struct FarmState {
    next_id: u64,
    jobs: BTreeMap<u64, JobRecord>,
    queued: Vec<QueuedEntry>,
    running: HashMap<u64, RunningInfo>,
    /// key → primary id, while the primary is queued or running.
    by_key_active: HashMap<String, u64>,
    /// key → done id, the completed-work cache.
    by_key_done: HashMap<String, u64>,
    draining: bool,
    shutdown_now: bool,
    workers_alive: usize,
    /// Terminal ids in completion order, for history pruning.
    history: Vec<u64>,
    /// Per-job streamed partial results (NDJSON lines, one JSON document
    /// each) — live jobs append here as they run; `GET /jobs/{id}`
    /// streams them to followers. Keyed by primary id; cleared at each
    /// attempt start so retries never show a dead attempt's partials.
    progress: HashMap<u64, Vec<String>>,
}

struct FarmInner {
    cfg: FarmConfig,
    backend: Arc<dyn JobBackend>,
    obs: Observer,
    recorder: FlightRecorder,
    /// v2 transition journal; `None` without a configured directory.
    journal: Option<Journal>,
    state: Mutex<FarmState>,
    /// Signalled when work becomes available or the farm terminates.
    work_ready: Condvar,
    /// Signalled when the farm may have become idle/drained.
    idle: Condvar,
    /// Worker handles, shared with the supervisor for respawn.
    workers: Mutex<Vec<JoinHandle<()>>>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    /// Periodic metrics-history sampler; `None` when disabled.
    history: Option<lp_obs::HistorySampler>,
}

/// A running analysis farm. Cheap to clone (all clones share one farm).
#[derive(Clone)]
pub struct Farm {
    inner: Arc<FarmInner>,
}

impl Farm {
    /// Starts the worker pool and supervisor; re-adopts a persisted
    /// queue journal when `cfg.dir` holds one.
    ///
    /// # Errors
    /// Journal directory creation/parse failures.
    pub fn start(cfg: FarmConfig, backend: Arc<dyn JobBackend>, obs: Observer) -> io::Result<Farm> {
        let journal = match &cfg.dir {
            Some(dir) => Some(Journal::open(
                dir,
                JournalConfig {
                    flush_ms: cfg.journal_flush_ms,
                    compact_factor: cfg.journal_compact_factor.max(1),
                },
                obs.clone(),
            )?),
            None => None,
        };
        let workers = cfg.workers.max(1);
        let id_base = cfg.id_base;
        let recorder = FlightRecorder::new(cfg.trace_capacity, obs.clone());
        let history = (cfg.history_interval_ms > 0 && obs.is_enabled()).then(|| {
            lp_obs::HistorySampler::start(
                obs.clone(),
                lp_obs::timeseries::farm_columns(),
                cfg.history_interval_ms,
                cfg.history_capacity,
            )
        });
        let inner = Arc::new(FarmInner {
            cfg,
            backend,
            obs,
            recorder,
            journal,
            state: Mutex::new(FarmState {
                next_id: id_base + 1,
                jobs: BTreeMap::new(),
                queued: Vec::new(),
                running: HashMap::new(),
                by_key_active: HashMap::new(),
                by_key_done: HashMap::new(),
                draining: false,
                shutdown_now: false,
                workers_alive: 0,
                history: Vec::new(),
                progress: HashMap::new(),
            }),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            workers: Mutex::new(Vec::new()),
            supervisor: Mutex::new(None),
            history,
        });
        inner.restore_journal();
        inner.obs.gauge(names::FARM_WORKERS).set(workers as f64);
        {
            let mut handles = inner.workers.lock().expect("farm workers lock");
            for i in 0..workers {
                handles.push(FarmInner::spawn_worker(&inner, i));
            }
        }
        let sup_inner = Arc::clone(&inner);
        *inner.supervisor.lock().expect("farm supervisor lock") = Some(
            std::thread::Builder::new()
                .name("farm-supervisor".to_string())
                .spawn(move || FarmInner::supervisor_loop(&sup_inner))
                .expect("spawn farm supervisor"),
        );
        Ok(Farm { inner })
    }

    /// The backend's content key for `spec` (what dedup keys on and the
    /// cluster ring shards by), without submitting anything.
    ///
    /// # Errors
    /// A message when the spec is invalid.
    pub fn job_key(&self, spec: &JobSpec) -> Result<String, String> {
        self.inner.backend.job_key(spec)
    }

    /// Submits one job with a fresh root trace context.
    ///
    /// # Errors
    /// [`SubmitError`] — invalid spec, full queue, or draining farm.
    pub fn submit(&self, spec: JobSpec) -> Result<Submitted, SubmitError> {
        self.inner.submit(spec, None)
    }

    /// Submits one job, parenting its trace under `client` when the
    /// submitter propagated a `traceparent` header (the job's root span
    /// becomes a child of the client's span; otherwise a fresh root).
    ///
    /// # Errors
    /// [`SubmitError`] — invalid spec, full queue, or draining farm.
    pub fn submit_traced(
        &self,
        spec: JobSpec,
        client: Option<&TraceContext>,
    ) -> Result<Submitted, SubmitError> {
        self.inner.submit(spec, client)
    }

    /// Adopts jobs persisted by *another* farm's journal (failover
    /// re-adoption of a dead cluster node's queue). Jobs keep their
    /// ids, attempt counts, and trace contexts; they re-enter the
    /// shared enqueue path, so they dedup against this farm's in-flight
    /// and completed work, and they are journaled here — adopted work
    /// survives a crash of the adopter too. Capacity is not enforced
    /// (the jobs were already accepted once); ids already known here
    /// are skipped. Returns how many jobs were adopted, after a
    /// durability barrier on the local journal.
    pub fn adopt(&self, jobs: Vec<crate::journal::PersistedJob>) -> usize {
        let n = self.inner.adopt(jobs);
        if n > 0 {
            self.sync_journal();
        }
        n
    }

    /// The job's flight-recorder trace as a Chrome `trace_event` JSON
    /// document, or `None` when the id was never seen or has been
    /// evicted from the bounded ring.
    pub fn trace_document(&self, id: u64) -> Option<Value> {
        self.inner.recorder.trace_document(id)
    }

    /// Summaries of the most recently active job traces (live jobs
    /// first, then finished, newest first), at most `limit`.
    pub fn recent_traces(&self, limit: usize) -> Vec<Value> {
        self.inner.recorder.recent(limit)
    }

    /// The farm's flight recorder (trace ring) for direct inspection.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    /// A snapshot of one job record, if it exists (or ever existed and
    /// survived history pruning).
    pub fn job(&self, id: u64) -> Option<JobRecord> {
        self.inner
            .state
            .lock()
            .expect("farm state lock")
            .jobs
            .get(&id)
            .cloned()
    }

    /// The job's streamed partial-result lines starting at index
    /// `since`, or `None` for an unknown id. Dedup followers see the
    /// primary's stream (partials are a property of the computation, not
    /// the submission). Empty for jobs whose backend never streams
    /// (pipeline mode) and for jobs not yet started.
    pub fn progress(&self, id: u64, since: usize) -> Option<Vec<String>> {
        let st = self.inner.state.lock().expect("farm state lock");
        let rec = st.jobs.get(&id)?;
        let primary = rec.dedup_of.unwrap_or(id);
        let lines = st.progress.get(&primary).map(Vec::as_slice).unwrap_or(&[]);
        Some(lines[since.min(lines.len())..].to_vec())
    }

    /// Cancels a queued or running job. Returns `false` when the id is
    /// unknown or already terminal. Cancelling a primary with followers
    /// promotes the first follower to a fresh primary — one tenant's
    /// cancel never kills another tenant's identical request.
    pub fn cancel(&self, id: u64) -> bool {
        self.inner.cancel(id)
    }

    /// Aggregate queue counts.
    pub fn queue_snapshot(&self) -> QueueSnapshot {
        self.inner.queue_snapshot()
    }

    /// The farm's observer (metrics sink).
    pub fn observer(&self) -> &Observer {
        &self.inner.obs
    }

    /// Initiates shutdown; pair with [`Farm::join`] to wait for it.
    pub fn shutdown(&self, mode: ShutdownMode) {
        self.inner.shutdown(mode)
    }

    /// Blocks until every worker and the supervisor have exited. Call
    /// after [`Farm::shutdown`].
    pub fn join(&self) {
        let mut st = self.inner.state.lock().expect("farm state lock");
        while st.workers_alive > 0 {
            st = self.inner.idle.wait(st).expect("farm idle wait");
        }
        drop(st);
        let handles: Vec<_> = self
            .inner
            .workers
            .lock()
            .expect("farm workers lock")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
        if let Some(sup) = self
            .inner
            .supervisor
            .lock()
            .expect("farm supervisor lock")
            .take()
        {
            let _ = sup.join();
        }
        // Fold every transition into the snapshot so external readers
        // (and the next daemon) see one self-contained document.
        if let Some(journal) = &self.inner.journal {
            journal.checkpoint();
        }
        if let Some(history) = &self.inner.history {
            history.stop();
        }
    }

    /// The metrics-history ring fed by the periodic sampler, or `None`
    /// when sampling is disabled (`history_interval_ms == 0` or a
    /// disabled observer).
    pub fn history(&self) -> Option<std::sync::Arc<lp_obs::History>> {
        self.inner
            .history
            .as_ref()
            .map(lp_obs::HistorySampler::history)
    }

    /// Durability barrier: blocks until every journal record appended so
    /// far has been fsynced. No-op without a journal directory. The HTTP
    /// layer takes this once per submission request, so a whole batch
    /// shares one group commit before the `202` goes out.
    pub fn sync_journal(&self) {
        if let Some(journal) = &self.inner.journal {
            journal.sync();
        }
    }

    /// Journal records appended but not yet fsynced (`None` without a
    /// journal directory).
    pub fn journal_lag(&self) -> Option<u64> {
        self.inner.journal.as_ref().map(Journal::lag)
    }

    /// Blocks until no job is queued or running, or `timeout` elapses.
    /// Returns `true` when idle was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.inner.state.lock().expect("farm state lock");
        loop {
            if st.queued.is_empty() && st.running.is_empty() {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .inner
                .idle
                .wait_timeout(st, deadline - now)
                .expect("farm idle wait");
            st = guard;
        }
    }
}

impl FarmInner {
    // ---- submission -----------------------------------------------------

    fn submit(
        self: &Arc<Self>,
        spec: JobSpec,
        client: Option<&TraceContext>,
    ) -> Result<Submitted, SubmitError> {
        // Key computation happens outside the state lock: for the real
        // backend it builds the program, which is far too slow to
        // serialize against the queue.
        let key = self.backend.job_key(&spec).map_err(SubmitError::BadSpec)?;
        // The job's root context: a child of the client's propagated
        // span, or a fresh root for untraced submissions.
        let ctx = client.map_or_else(TraceContext::new_root, TraceContext::child);
        let mut st = self.state.lock().expect("farm state lock");
        if st.draining || st.shutdown_now {
            return Err(SubmitError::Draining);
        }
        let outcome = self.enqueue_locked(&mut st, spec, key, ctx, None, 0, now_us(), true)?;
        self.obs.counter(names::FARM_SUBMITTED).inc();
        if !matches!(outcome, Submitted::Queued { .. }) {
            self.obs.counter(names::FARM_DEDUP_HITS).inc();
        }
        self.refresh_gauges(&st);
        // Cached submissions are terminal on arrival and never enter the
        // durable set; queued primaries and followers both do.
        match outcome {
            Submitted::Queued { id } | Submitted::Deduped { id, .. } => {
                self.journal_enqueue(&st, id);
            }
            Submitted::Cached { .. } => {}
        }
        if matches!(outcome, Submitted::Queued { .. }) {
            self.work_ready.notify_one();
        }
        Ok(outcome)
    }

    /// Core accept path, shared by live submissions and journal restore.
    /// `id_override` preserves ids across restarts; restore passes
    /// `enforce_capacity = false` (those jobs were already accepted once
    /// and must not be dropped on re-adoption).
    #[allow(clippy::too_many_arguments)]
    fn enqueue_locked(
        &self,
        st: &mut FarmState,
        spec: JobSpec,
        key: String,
        ctx: TraceContext,
        id_override: Option<u64>,
        attempts: u32,
        submitted_us: u64,
        enforce_capacity: bool,
    ) -> Result<Submitted, SubmitError> {
        // Completed-work cache: answer immediately.
        if let Some(&source) = st.by_key_done.get(&key) {
            let result = st.jobs.get(&source).and_then(|r| r.result.clone());
            let source_trace = st.jobs.get(&source).map(|r| r.trace.trace_id);
            let id = id_override.unwrap_or_else(|| Self::take_id(st));
            let now = now_us();
            let program = spec.program.clone();
            let rec = JobRecord {
                id,
                spec,
                key,
                state: JobState::Done,
                attempts: 0,
                error: None,
                result,
                dedup_of: Some(source),
                subscribers: Vec::new(),
                submitted_us,
                started_us: now,
                finished_us: now,
                trace: ctx,
            };
            st.jobs.insert(id, rec);
            st.history.push(id);
            self.prune_history(st);
            self.obs.counter(names::FARM_DONE).inc();
            self.recorder.begin(
                id,
                ctx,
                &program,
                source_trace.map(|t| (source, t)),
                "cache_hit",
                format!("served from completed job {source}"),
            );
            self.recorder.finish(id, JobState::Done.as_str());
            return Ok(Submitted::Cached { id, source });
        }
        // In-flight dedup: follow the primary.
        if let Some(&primary) = st.by_key_active.get(&key) {
            let primary_trace = st.jobs.get(&primary).map(|r| r.trace.trace_id);
            let id = id_override.unwrap_or_else(|| Self::take_id(st));
            let program = spec.program.clone();
            let rec = JobRecord {
                id,
                spec,
                key,
                state: JobState::Queued,
                attempts: 0,
                error: None,
                result: None,
                dedup_of: Some(primary),
                subscribers: Vec::new(),
                submitted_us,
                started_us: 0,
                finished_us: 0,
                trace: ctx,
            };
            st.jobs.insert(id, rec);
            if let Some(p) = st.jobs.get_mut(&primary) {
                p.subscribers.push(id);
            }
            self.recorder.begin(
                id,
                ctx,
                &program,
                primary_trace.map(|t| (primary, t)),
                "dedup_follow",
                format!("following in-flight primary {primary}"),
            );
            return Ok(Submitted::Deduped { id, primary });
        }
        // Fresh primary: bounded by queue capacity.
        if enforce_capacity && st.queued.len() >= self.cfg.queue_capacity {
            self.obs.counter(names::FARM_REJECTED).inc();
            return Err(SubmitError::QueueFull {
                retry_after_ms: self.cfg.retry_after_ms,
            });
        }
        let id = id_override.unwrap_or_else(|| Self::take_id(st));
        let priority = spec.priority;
        let program = spec.program.clone();
        let rec = JobRecord {
            id,
            spec,
            key: key.clone(),
            state: JobState::Queued,
            attempts,
            error: None,
            result: None,
            dedup_of: None,
            subscribers: Vec::new(),
            submitted_us,
            started_us: 0,
            finished_us: 0,
            trace: ctx,
        };
        st.jobs.insert(id, rec);
        st.by_key_active.insert(key, id);
        st.queued.push(QueuedEntry {
            id,
            priority,
            not_before_us: 0,
        });
        self.recorder
            .begin(id, ctx, &program, None, "enqueue", String::new());
        Ok(Submitted::Queued { id })
    }

    fn take_id(st: &mut FarmState) -> u64 {
        let id = st.next_id;
        st.next_id += 1;
        id
    }

    // ---- worker side ----------------------------------------------------

    fn spawn_worker(inner: &Arc<FarmInner>, index: usize) -> JoinHandle<()> {
        {
            let mut st = inner.state.lock().expect("farm state lock");
            st.workers_alive += 1;
        }
        let me = Arc::clone(inner);
        std::thread::Builder::new()
            .name(format!("farm-worker-{index}"))
            .spawn(move || {
                me.worker_loop();
                let mut st = me.state.lock().expect("farm state lock");
                st.workers_alive -= 1;
                drop(st);
                me.idle.notify_all();
            })
            .expect("spawn farm worker")
    }

    fn worker_loop(self: &Arc<Self>) {
        while let Some((id, spec, cancel, ctx)) = self.pop_ready() {
            // Attach the job's root context for the attempt: the
            // farm.execute span (and, through the backend, every
            // pipeline/store span) parents under it.
            let trace_guard = ctx.attach();
            let mut span = self.obs.span(names::SPAN_FARM_EXECUTE, names::CAT_FARM);
            span.arg("job", id);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.backend
                    .execute(&spec, &cancel, &mut |line| self.push_progress(id, line))
            }));
            drop(span);
            drop(trace_guard);
            self.harvest_spans(id, ctx.trace_id);
            match outcome {
                Ok(result) => self.finish_attempt(id, result),
                Err(panic) => {
                    let msg = panic_message(panic.as_ref());
                    self.finish_attempt(id, Err(format!("worker panicked: {msg}")));
                    // Panic isolation: this worker retires (its stack may
                    // be poisoned mid-backend); the supervisor respawns a
                    // replacement thread.
                    return;
                }
            }
        }
    }

    /// Appends one streamed partial-result line to the job's progress
    /// buffer (a brief state-lock hold — the backend calls this from the
    /// middle of a simulation, so it must never block on queue work).
    fn push_progress(&self, id: u64, line: String) {
        let mut st = self.state.lock().expect("farm state lock");
        st.progress.entry(id).or_default().push(line);
    }

    /// Moves the attempt's spans out of the shared sink into the flight
    /// recorder, deriving store hit/miss lifecycle events from the store
    /// spans seen. Only loads that actually served payload count as
    /// hits — the store records a `bytes` arg on success and none on an
    /// absent or corrupt artifact; a save means the artifact had to be
    /// computed and written.
    fn harvest_spans(&self, id: u64, trace_id: lp_obs::TraceId) {
        let spans = self.obs.take_trace_events(trace_id);
        if spans.is_empty() {
            return;
        }
        let loads = spans
            .iter()
            .filter(|e| {
                e.name == names::SPAN_STORE_LOAD && e.args.iter().any(|(k, _)| k == "bytes")
            })
            .count();
        let saves = spans
            .iter()
            .filter(|e| e.name == names::SPAN_STORE_SAVE)
            .count();
        if loads > 0 {
            self.recorder
                .event(id, "store_hit", format!("{loads} artifact load(s)"));
        }
        if saves > 0 {
            self.recorder
                .event(id, "store_miss", format!("{saves} artifact save(s)"));
        }
        self.recorder.attach_spans(id, spans);
    }

    /// Blocks until an executable entry is ready (highest priority,
    /// FIFO within a priority, honoring retry `not_before`), the farm
    /// drains dry, or shutdown-now is requested.
    fn pop_ready(&self) -> Option<(u64, JobSpec, CancelToken, TraceContext)> {
        let mut st = self.state.lock().expect("farm state lock");
        loop {
            if st.shutdown_now || (st.draining && st.queued.is_empty()) {
                return None;
            }
            let now = now_us();
            let mut best: Option<usize> = None;
            let mut next_wake: Option<u64> = None;
            for (i, e) in st.queued.iter().enumerate() {
                if e.not_before_us <= now {
                    let better = match best {
                        None => true,
                        Some(j) => {
                            let b = &st.queued[j];
                            (e.priority, std::cmp::Reverse(e.id))
                                > (b.priority, std::cmp::Reverse(b.id))
                        }
                    };
                    if better {
                        best = Some(i);
                    }
                } else {
                    next_wake = Some(next_wake.map_or(e.not_before_us, |w| w.min(e.not_before_us)));
                }
            }
            if let Some(i) = best {
                let entry = st.queued.remove(i);
                let id = entry.id;
                let spec;
                let timeout_ms;
                let ctx;
                let attempt;
                {
                    let rec = st.jobs.get_mut(&id).expect("queued job has a record");
                    rec.state = JobState::Running;
                    rec.attempts += 1;
                    rec.started_us = now;
                    spec = rec.spec.clone();
                    ctx = rec.trace;
                    attempt = rec.attempts;
                    timeout_ms = if rec.spec.timeout_ms > 0 {
                        rec.spec.timeout_ms
                    } else {
                        self.cfg.default_timeout_ms
                    };
                    self.obs
                        .histogram(names::FARM_QUEUE_WAIT_US)
                        .record(now.saturating_sub(rec.submitted_us));
                }
                // A fresh attempt streams from scratch; stale partials
                // from a failed or timed-out attempt would mislead
                // followers.
                st.progress.remove(&id);
                self.recorder
                    .event(id, "attempt_start", format!("attempt {attempt}"));
                let cancel = CancelToken::new();
                st.running.insert(
                    id,
                    RunningInfo {
                        cancel: cancel.clone(),
                        deadline_us: (timeout_ms > 0).then(|| now + timeout_ms * 1_000),
                        timed_out: false,
                        user_cancelled: false,
                        requeue: false,
                    },
                );
                self.obs.counter(names::FARM_COMPUTES).inc();
                self.refresh_gauges(&st);
                if let Some(journal) = &self.journal {
                    journal.start(id);
                }
                return Some((id, spec, cancel, ctx));
            }
            match next_wake {
                // Only backoff-delayed entries: sleep until the earliest
                // becomes ready (or new work arrives).
                Some(wake) => {
                    let wait = Duration::from_micros(wake.saturating_sub(now).max(1_000));
                    let (guard, _) = self
                        .work_ready
                        .wait_timeout(st, wait)
                        .expect("farm work wait");
                    st = guard;
                }
                None => {
                    st = self.work_ready.wait(st).expect("farm work wait");
                }
            }
        }
    }

    /// Applies the outcome of one execution attempt.
    fn finish_attempt(&self, id: u64, outcome: Result<String, String>) {
        let mut st = self.state.lock().expect("farm state lock");
        let Some(info) = st.running.remove(&id) else {
            return; // cancelled-and-removed race; nothing to record
        };
        let now = now_us();
        match outcome {
            Ok(result) => {
                self.complete_locked(&mut st, id, JobState::Done, None, Some(result), now);
            }
            Err(err) => {
                if info.requeue {
                    // Shutdown-now interrupted this attempt: put the job
                    // back (attempt not consumed) so a restarted farm
                    // resumes it from the journal.
                    if let Some(rec) = st.jobs.get_mut(&id) {
                        rec.state = JobState::Queued;
                        rec.attempts = rec.attempts.saturating_sub(1);
                        rec.started_us = 0;
                        let priority = rec.spec.priority;
                        st.queued.push(QueuedEntry {
                            id,
                            priority,
                            not_before_us: 0,
                        });
                        self.recorder.event(
                            id,
                            "requeue",
                            "attempt interrupted by shutdown".to_string(),
                        );
                        if let Some(journal) = &self.journal {
                            journal.requeue(id);
                        }
                    }
                } else if info.user_cancelled {
                    self.complete_locked(&mut st, id, JobState::Cancelled, Some(err), None, now);
                } else {
                    let err = if info.timed_out {
                        format!("deadline exceeded: {err}")
                    } else {
                        err
                    };
                    let (attempts, priority) = match st.jobs.get(&id) {
                        Some(r) => (r.attempts, r.spec.priority),
                        None => (u32::MAX, 0),
                    };
                    if attempts < self.cfg.max_attempts {
                        // Retry with exponential backoff + jitter.
                        let backoff = self
                            .cfg
                            .backoff_base_ms
                            .saturating_mul(1 << (attempts.saturating_sub(1)).min(16))
                            .min(self.cfg.backoff_cap_ms);
                        let jitter = splitmix(id ^ u64::from(attempts) ^ now) % (backoff / 2 + 1);
                        self.recorder.event(
                            id,
                            "retry",
                            format!("attempt {attempts} failed ({err}); backoff {backoff} ms"),
                        );
                        if let Some(rec) = st.jobs.get_mut(&id) {
                            rec.state = JobState::Queued;
                            rec.error = Some(err);
                        }
                        st.queued.push(QueuedEntry {
                            id,
                            priority,
                            not_before_us: now + (backoff + jitter) * 1_000,
                        });
                        self.obs.counter(names::FARM_RETRY).inc();
                    } else {
                        self.complete_locked(&mut st, id, JobState::Failed, Some(err), None, now);
                    }
                }
            }
        }
        self.refresh_gauges(&st);
        drop(st);
        self.work_ready.notify_all();
        self.idle.notify_all();
    }

    /// Terminal transition for a primary; mirrors onto subscribers.
    fn complete_locked(
        &self,
        st: &mut FarmState,
        id: u64,
        state: JobState,
        error: Option<String>,
        result: Option<String>,
        now: u64,
    ) {
        let (key, subscribers) = match st.jobs.get_mut(&id) {
            Some(rec) => {
                rec.state = state;
                rec.error = error.clone();
                rec.result = result.clone();
                rec.finished_us = now;
                (rec.key.clone(), std::mem::take(&mut rec.subscribers))
            }
            None => return,
        };
        if st.by_key_active.get(&key) == Some(&id) {
            st.by_key_active.remove(&key);
        }
        if state == JobState::Done {
            st.by_key_done.insert(key.clone(), id);
        }
        st.history.push(id);
        self.count_terminal(state);
        self.recorder.finish(id, state.as_str());
        if let Some(journal) = &self.journal {
            journal.terminal(id);
        }
        if let Some(rec) = st.jobs.get(&id) {
            self.obs
                .histogram(names::FARM_JOB_LATENCY_US)
                .record(now.saturating_sub(rec.submitted_us));
        }
        match state {
            JobState::Cancelled => {
                // The compute was cancelled, but followers still want the
                // result: promote the first follower to a fresh primary.
                self.promote_followers(st, &key, subscribers);
            }
            _ => {
                // Done and Failed both propagate: followers asked for the
                // same compute, so they share its outcome.
                for &sub in &subscribers {
                    if let Some(rec) = st.jobs.get_mut(&sub) {
                        rec.state = state;
                        rec.error = error.clone();
                        rec.result = result.clone();
                        rec.finished_us = now;
                    }
                    st.history.push(sub);
                    self.count_terminal(state);
                    self.recorder.event(
                        sub,
                        "mirrored",
                        format!("terminal state mirrored from primary {id}"),
                    );
                    self.recorder.finish(sub, state.as_str());
                    if let Some(journal) = &self.journal {
                        journal.terminal(sub);
                    }
                }
                // Put the list back on the primary: `subscribers` on the
                // wire reports how many requests shared this compute.
                if let Some(rec) = st.jobs.get_mut(&id) {
                    rec.subscribers = subscribers;
                }
            }
        }
        self.prune_history(st);
    }

    /// After a primary was cancelled, its first live follower becomes a
    /// new primary (re-queued), inheriting the remaining followers.
    fn promote_followers(&self, st: &mut FarmState, key: &str, subscribers: Vec<u64>) {
        let mut iter = subscribers.into_iter();
        let Some(new_primary) = iter.next() else {
            return;
        };
        let rest: Vec<u64> = iter.collect();
        if let Some(rec) = st.jobs.get_mut(&new_primary) {
            rec.dedup_of = None;
            rec.subscribers = rest.clone();
            rec.state = JobState::Queued;
            let priority = rec.spec.priority;
            st.by_key_active.insert(key.to_string(), new_primary);
            st.queued.push(QueuedEntry {
                id: new_primary,
                priority,
                not_before_us: 0,
            });
            self.recorder.event(
                new_primary,
                "promoted",
                "primary cancelled; promoted from follower to primary".to_string(),
            );
        }
        for sub in rest {
            if let Some(rec) = st.jobs.get_mut(&sub) {
                rec.dedup_of = Some(new_primary);
            }
        }
    }

    fn count_terminal(&self, state: JobState) {
        match state {
            JobState::Done => self.obs.counter(names::FARM_DONE).inc(),
            JobState::Failed => self.obs.counter(names::FARM_FAILED).inc(),
            JobState::Cancelled => self.obs.counter(names::FARM_CANCELLED).inc(),
            _ => {}
        }
    }

    // ---- cancellation ---------------------------------------------------

    fn cancel(&self, id: u64) -> bool {
        let mut st = self.state.lock().expect("farm state lock");
        let Some(rec) = st.jobs.get(&id) else {
            return false;
        };
        match rec.state {
            JobState::Queued => {
                let key = rec.key.clone();
                let dedup_of = rec.dedup_of;
                let now = now_us();
                if let Some(primary) = dedup_of {
                    // A follower: detach from the primary.
                    if let Some(p) = st.jobs.get_mut(&primary) {
                        p.subscribers.retain(|&s| s != id);
                    }
                    if let Some(rec) = st.jobs.get_mut(&id) {
                        rec.state = JobState::Cancelled;
                        rec.finished_us = now;
                        rec.error = Some("cancelled by request".to_string());
                    }
                    st.history.push(id);
                    self.count_terminal(JobState::Cancelled);
                    self.recorder
                        .event(id, "cancel", "cancelled while following".to_string());
                    self.recorder.finish(id, JobState::Cancelled.as_str());
                    if let Some(journal) = &self.journal {
                        journal.terminal(id);
                    }
                } else {
                    // A queued primary: pull it off the queue and promote
                    // any followers.
                    st.queued.retain(|e| e.id != id);
                    let subscribers = st
                        .jobs
                        .get_mut(&id)
                        .map(|r| std::mem::take(&mut r.subscribers))
                        .unwrap_or_default();
                    if st.by_key_active.get(&key) == Some(&id) {
                        st.by_key_active.remove(&key);
                    }
                    if let Some(rec) = st.jobs.get_mut(&id) {
                        rec.state = JobState::Cancelled;
                        rec.finished_us = now;
                        rec.error = Some("cancelled by request".to_string());
                    }
                    st.history.push(id);
                    self.count_terminal(JobState::Cancelled);
                    self.recorder
                        .event(id, "cancel", "cancelled while queued".to_string());
                    self.recorder.finish(id, JobState::Cancelled.as_str());
                    if let Some(journal) = &self.journal {
                        journal.terminal(id);
                    }
                    // The promoted follower (if any) is already in the
                    // durable set as a plain job; no record needed.
                    self.promote_followers(&mut st, &key, subscribers);
                }
                self.refresh_gauges(&st);
                drop(st);
                self.idle.notify_all();
                true
            }
            JobState::Running => {
                if let Some(info) = st.running.get_mut(&id) {
                    info.user_cancelled = true;
                    info.cancel.cancel();
                    self.recorder
                        .event(id, "cancel", "cancelled while running".to_string());
                }
                true
            }
            _ => false,
        }
    }

    // ---- supervision ----------------------------------------------------

    fn supervisor_loop(inner: &Arc<FarmInner>) {
        let mut next_worker_index = inner.cfg.workers.max(1);
        loop {
            {
                let mut st = inner.state.lock().expect("farm state lock");
                // Per-job deadlines: trip the token; the attempt comes
                // back as a retryable timeout failure.
                let now = now_us();
                for (&id, info) in &mut st.running {
                    if let Some(deadline) = info.deadline_us {
                        if now > deadline && !info.timed_out {
                            info.timed_out = true;
                            info.cancel.cancel();
                            inner.obs.counter(names::FARM_TIMEOUT).inc();
                            inner.recorder.event(
                                id,
                                "deadline",
                                "per-job deadline exceeded; cancelling attempt".to_string(),
                            );
                        }
                    }
                }
                let terminating = st.shutdown_now || st.draining;
                drop(st);
                // Respawn workers that retired after a backend panic.
                let mut handles = inner.workers.lock().expect("farm workers lock");
                let mut alive = Vec::with_capacity(handles.len());
                for h in handles.drain(..) {
                    if h.is_finished() {
                        let _ = h.join();
                        if !terminating {
                            inner.obs.counter(names::FARM_WORKER_RESPAWN).inc();
                            alive.push(FarmInner::spawn_worker(inner, next_worker_index));
                            next_worker_index += 1;
                        }
                    } else {
                        alive.push(h);
                    }
                }
                let worker_count = alive.len();
                *handles = alive;
                drop(handles);
                inner
                    .obs
                    .gauge(names::FARM_WORKERS)
                    .set(worker_count as f64);
                if terminating && worker_count == 0 {
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn shutdown(&self, mode: ShutdownMode) {
        let mut st = self.state.lock().expect("farm state lock");
        st.draining = true;
        if mode == ShutdownMode::Now {
            st.shutdown_now = true;
            for info in st.running.values_mut() {
                info.requeue = true;
                info.cancel.cancel();
            }
        }
        drop(st);
        self.work_ready.notify_all();
        self.idle.notify_all();
    }

    // ---- introspection --------------------------------------------------

    fn queue_snapshot(&self) -> QueueSnapshot {
        let st = self.state.lock().expect("farm state lock");
        let mut snap = QueueSnapshot {
            queued: st.queued.len(),
            running: st.running.len(),
            workers: st.workers_alive,
            capacity: self.cfg.queue_capacity,
            draining: st.draining,
            ..QueueSnapshot::default()
        };
        for rec in st.jobs.values() {
            match rec.state {
                JobState::Done => snap.done += 1,
                JobState::Failed => snap.failed += 1,
                JobState::Cancelled => snap.cancelled += 1,
                _ => {}
            }
        }
        snap
    }

    fn refresh_gauges(&self, st: &FarmState) {
        self.obs
            .gauge(names::FARM_QUEUE_DEPTH)
            .set(st.queued.len() as f64);
        self.obs
            .gauge(names::FARM_RUNNING)
            .set(st.running.len() as f64);
    }

    fn prune_history(&self, st: &mut FarmState) {
        while st.history.len() > self.cfg.history_limit {
            let oldest = st.history.remove(0);
            if let Some(rec) = st.jobs.get(&oldest) {
                if rec.state.is_terminal() {
                    if st.by_key_done.get(&rec.key) == Some(&oldest) {
                        st.by_key_done.remove(&rec.key);
                    }
                    st.jobs.remove(&oldest);
                    st.progress.remove(&oldest);
                }
            }
        }
    }

    // ---- durability -----------------------------------------------------

    /// Appends the job's `enqueue` record to the transition journal.
    /// Queued jobs persist as-is; running jobs persist as queued (an
    /// interrupted attempt re-runs). Dedup followers persist as plain
    /// jobs — on restore they re-enter the enqueue path and regroup
    /// under whichever copy lands first.
    fn journal_enqueue(&self, st: &FarmState, id: u64) {
        let (Some(journal), Some(rec)) = (&self.journal, st.jobs.get(&id)) else {
            return;
        };
        journal.enqueue(PersistedJob {
            id: rec.id,
            key: rec.key.clone(),
            attempts: rec.attempts,
            submitted_us: rec.submitted_us,
            // The root context persists as its wire encoding so a
            // restarted farm resumes the job under the SAME trace id
            // (cross-restart trace continuity).
            traceparent: rec.trace.to_traceparent(),
            spec: rec.spec.clone(),
        });
    }

    /// Re-adopts the durable set replayed by the journal at open.
    fn restore_journal(&self) {
        let Some(journal) = &self.journal else { return };
        let view = journal.view();
        let mut st = self.state.lock().expect("farm state lock");
        st.next_id = st.next_id.max(view.next_id);
        for job in view.jobs {
            // Resume under the persisted trace id when present (malformed
            // or missing → a fresh root; never an error).
            let ctx = TraceContext::parse_traceparent(&job.traceparent)
                .unwrap_or_else(TraceContext::new_root);
            st.next_id = st.next_id.max(job.id + 1);
            // Restored jobs trust the journal's key (no backend call) and
            // re-dedup naturally through the shared enqueue path.
            let _ = self.enqueue_locked(
                &mut st,
                job.spec,
                job.key,
                ctx,
                Some(job.id),
                job.attempts,
                job.submitted_us,
                false,
            );
        }
        self.refresh_gauges(&st);
    }

    /// Foreign-journal adoption (see [`Farm::adopt`]). Unlike
    /// `restore_journal`, `next_id` is *not* advanced past adopted ids:
    /// they come from the dead node's disjoint id range, and walking
    /// into it would defeat the per-node ranges.
    fn adopt(&self, jobs: Vec<PersistedJob>) -> usize {
        let mut adopted = 0;
        let mut queued_any = false;
        let mut st = self.state.lock().expect("farm state lock");
        if st.draining || st.shutdown_now {
            return 0;
        }
        for job in jobs {
            if st.jobs.contains_key(&job.id) {
                continue; // already known (re-delivered adoption)
            }
            let ctx = TraceContext::parse_traceparent(&job.traceparent)
                .unwrap_or_else(TraceContext::new_root);
            let outcome = self.enqueue_locked(
                &mut st,
                job.spec,
                job.key,
                ctx,
                Some(job.id),
                job.attempts,
                job.submitted_us,
                false,
            );
            let Ok(outcome) = outcome else { continue };
            adopted += 1;
            self.recorder.event(
                job.id,
                "adopted",
                "re-adopted from a dead peer's journal".to_string(),
            );
            match outcome {
                Submitted::Queued { id } | Submitted::Deduped { id, .. } => {
                    self.journal_enqueue(&st, id);
                }
                Submitted::Cached { .. } => {}
            }
            if matches!(outcome, Submitted::Queued { .. }) {
                queued_any = true;
            }
        }
        self.refresh_gauges(&st);
        drop(st);
        if queued_any {
            self.work_ready.notify_all();
        }
        adopted
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// SplitMix64 — deterministic jitter without an RNG dependency.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}
