//! Incremental queue journal with group-committed fsync (format v2).
//!
//! Rewriting the entire queue file — a full serialize + `fsync` + rename
//! — on *every* transition, while holding the farm state lock, would
//! make the journal the data plane's bottleneck under a submission
//! burst: N accepted jobs would cost O(N²) bytes of rewrite and N
//! fsyncs. The journal is instead an append-only transition log plus a
//! periodically compacted snapshot:
//!
//! * **Log** (`farm-queue.log`): one NDJSON record per transition,
//!   each carrying a monotonically increasing `seq`. Ops are
//!   `enqueue` (full job payload), `start` (attempt consumed),
//!   `requeue` (attempt handed back on shutdown-now), and `terminal`
//!   (job left the durable set). Appends are buffered and flushed by
//!   a dedicated writer thread with **group commit**: all records
//!   accumulated during one flush window share a single `fsync`, so a
//!   burst of K transitions costs one disk sync, not K.
//! * **Snapshot** (`farm-queue.json`): the materialized durable set
//!   (`next_id` + `jobs` array) with `version: 2` and the `seq` through
//!   which it is current.
//!   When the log outgrows `compact_factor` × the snapshot size, the
//!   writer compacts: atomically rewrites the snapshot and truncates
//!   the log.
//!
//! Restore replays snapshot + log tail, skipping records with
//! `seq <= snapshot.seq` (which makes compaction crash-safe: a crash
//! between the snapshot rename and the log truncate only leaves
//! already-covered records behind). A torn final record — the only
//! kind of damage an append-only log can suffer from `SIGKILL` — is
//! dropped, never fatal. A snapshot without `version: 2` and a `seq`
//! is not restored: opening it fails with `InvalidData`.

use crate::job::JobSpec;
use lp_obs::json::Value;
use lp_obs::{names, Observer};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::{io, time::Duration};

/// Snapshot file name inside the farm directory.
pub const JOURNAL_FILE: &str = "farm-queue.json";
/// Append-only transition log next to the snapshot.
pub const JOURNAL_LOG_FILE: &str = "farm-queue.log";
/// Snapshot format version this module writes, and the only one it restores.
const SNAPSHOT_VERSION: u64 = 2;
/// Compaction floor: tiny snapshots shouldn't force compaction on
/// every few records.
const MIN_COMPACT_BYTES: u64 = 4_096;

/// Journal tuning, lifted from the owning farm's config.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Group-commit window: the writer sleeps this long after waking so
    /// concurrent transitions coalesce into one fsync. `0` flushes
    /// immediately (still one fsync per *batch*, not per record).
    pub flush_ms: u64,
    /// Compact when the log exceeds this multiple of the snapshot size.
    pub compact_factor: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            flush_ms: 1,
            compact_factor: 4,
        }
    }
}

/// One durable job: the per-job payload of the snapshot's `jobs` array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistedJob {
    /// Farm-assigned job id (preserved across restarts).
    pub id: u64,
    /// Backend content key (trusted on restore; no backend call).
    pub key: String,
    /// Attempts consumed so far.
    pub attempts: u32,
    /// Submission wall clock, unix µs.
    pub submitted_us: u64,
    /// The job's root trace context in wire form, for cross-restart
    /// trace continuity.
    pub traceparent: String,
    /// The job spec itself.
    pub spec: JobSpec,
}

impl PersistedJob {
    fn to_members(&self) -> Vec<(String, Value)> {
        vec![
            ("id".to_string(), Value::Int(self.id as i128)),
            ("key".to_string(), Value::Str(self.key.clone())),
            ("attempts".to_string(), Value::Int(self.attempts as i128)),
            (
                "submitted_us".to_string(),
                Value::Int(self.submitted_us as i128),
            ),
            (
                "traceparent".to_string(),
                Value::Str(self.traceparent.clone()),
            ),
            ("spec".to_string(), self.spec.to_value()),
        ]
    }

    fn from_value(v: &Value) -> Option<PersistedJob> {
        let id = v.get("id").and_then(Value::as_u64)?;
        let key = v.get("key").and_then(Value::as_str)?.to_string();
        let spec = JobSpec::from_value(v.get("spec")?).ok()?;
        Some(PersistedJob {
            id,
            key,
            attempts: v.get("attempts").and_then(Value::as_u64).unwrap_or(0) as u32,
            submitted_us: v.get("submitted_us").and_then(Value::as_u64).unwrap_or(0),
            traceparent: v
                .get("traceparent")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            spec,
        })
    }
}

/// The materialized durable set a restarted farm re-adopts.
#[derive(Debug, Default)]
pub struct JournalView {
    /// Highest id ever assigned plus one (ids never recycle).
    pub next_id: u64,
    /// Jobs that were queued or running at the last durable point,
    /// ordered by id.
    pub jobs: Vec<PersistedJob>,
}

struct JournalState {
    /// Materialized view, kept current at append time.
    view: BTreeMap<u64, PersistedJob>,
    next_id: u64,
    /// Last assigned record seq.
    seq: u64,
    /// Last seq the log has fsynced through.
    flushed_seq: u64,
    /// Serialized records awaiting the writer (each one line).
    pending: Vec<String>,
    snapshot_bytes: u64,
    log_bytes: u64,
    /// `checkpoint()` requested a forced compaction.
    force_compact: bool,
    stop: bool,
}

struct JournalInner {
    dir: PathBuf,
    cfg: JournalConfig,
    obs: Observer,
    state: Mutex<JournalState>,
    /// Wakes the writer (pending records, checkpoint, or stop).
    work: Condvar,
    /// Wakes `sync()`/`checkpoint()` waiters after a flush/compaction.
    flushed: Condvar,
}

/// Handle to the journal; transition appends return after an in-memory
/// buffer push, durability is provided by [`Journal::sync`].
pub struct Journal {
    inner: Arc<JournalInner>,
    writer: Option<JoinHandle<()>>,
}

impl Journal {
    /// Opens (or creates) the journal in `dir`, replaying snapshot +
    /// log into the returned [`JournalView`], and starts the
    /// group-commit writer thread.
    ///
    /// # Errors
    /// Directory creation, snapshot parse, or log-open failures. A torn
    /// log *tail* is tolerated; an unparseable snapshot is not (it was
    /// written atomically, so damage there is not a crash artifact).
    pub fn open(dir: &Path, cfg: JournalConfig, obs: Observer) -> io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        let Replayed {
            view,
            next_id,
            seq,
            snapshot_bytes,
            log_bytes,
        } = replay(dir)?;
        let log_path = dir.join(JOURNAL_LOG_FILE);

        let log_file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)?;

        let inner = Arc::new(JournalInner {
            dir: dir.to_path_buf(),
            cfg,
            obs,
            state: Mutex::new(JournalState {
                view,
                next_id,
                seq,
                flushed_seq: seq,
                pending: Vec::new(),
                snapshot_bytes,
                log_bytes,
                force_compact: false,
                stop: false,
            }),
            work: Condvar::new(),
            flushed: Condvar::new(),
        });
        let writer_inner = Arc::clone(&inner);
        let writer = std::thread::Builder::new()
            .name("farm-journal".to_string())
            .spawn(move || writer_loop(&writer_inner, log_file))
            .expect("spawn farm journal writer");
        Ok(Journal {
            inner,
            writer: Some(writer),
        })
    }

    /// Read-only replay of the journal in `dir` — the durable set as a
    /// restarted farm would adopt it — without creating the directory,
    /// taking any lock, or starting a writer. This is the failover
    /// primitive: a cluster peer adopting a dead node's queue reads the
    /// dead farm's journal through here.
    ///
    /// # Errors
    /// Snapshot parse or log read failures (a torn log tail is
    /// tolerated, as at open). A missing directory replays as empty.
    pub fn peek(dir: &Path) -> io::Result<JournalView> {
        let replayed = replay(dir)?;
        Ok(JournalView {
            next_id: replayed.next_id,
            jobs: replayed.view.into_values().collect(),
        })
    }

    /// The durable set as replayed at open time.
    pub fn view(&self) -> JournalView {
        let st = self.inner.state.lock().expect("journal lock");
        JournalView {
            next_id: st.next_id,
            jobs: st.view.values().cloned().collect(),
        }
    }

    /// A job entered the durable set (fresh primary or dedup follower —
    /// followers persist as plain jobs).
    pub fn enqueue(&self, job: PersistedJob) {
        self.append(
            "enqueue",
            job.id,
            |members| members.extend(job.to_members().into_iter().skip(1)),
            |st| {
                st.next_id = st.next_id.max(job.id + 1);
                st.view.insert(job.id, job.clone());
            },
        );
    }

    /// A worker picked the job up: one attempt consumed. The job stays
    /// durable (an interrupted attempt re-runs on restore).
    pub fn start(&self, id: u64) {
        self.append(
            "start",
            id,
            |_| {},
            |st| {
                if let Some(j) = st.view.get_mut(&id) {
                    j.attempts += 1;
                }
            },
        );
    }

    /// Shutdown-now interrupted the attempt: hand the attempt back.
    pub fn requeue(&self, id: u64) {
        self.append(
            "requeue",
            id,
            |_| {},
            |st| {
                if let Some(j) = st.view.get_mut(&id) {
                    j.attempts = j.attempts.saturating_sub(1);
                }
            },
        );
    }

    /// The job reached a terminal state and leaves the durable set.
    pub fn terminal(&self, id: u64) {
        self.append(
            "terminal",
            id,
            |_| {},
            |st| {
                st.view.remove(&id);
            },
        );
    }

    fn append(
        &self,
        op: &str,
        id: u64,
        extend: impl FnOnce(&mut Vec<(String, Value)>),
        apply: impl FnOnce(&mut JournalState),
    ) {
        let mut st = self.inner.state.lock().expect("journal lock");
        st.seq += 1;
        let mut members = vec![
            ("seq".to_string(), Value::Int(st.seq as i128)),
            ("op".to_string(), Value::Str(op.to_string())),
            ("id".to_string(), Value::Int(id as i128)),
        ];
        extend(&mut members);
        st.pending.push(Value::Obj(members).to_string());
        apply(&mut st);
        self.set_lag(&st);
        drop(st);
        self.inner.work.notify_one();
    }

    /// Blocks until every record appended so far has been fsynced —
    /// the durability barrier callers take before acknowledging work.
    pub fn sync(&self) {
        let mut st = self.inner.state.lock().expect("journal lock");
        let target = st.seq;
        while st.flushed_seq < target && !st.stop {
            st = self.inner.flushed.wait(st).expect("journal sync wait");
        }
    }

    /// Records appended but not yet fsynced.
    pub fn lag(&self) -> u64 {
        let st = self.inner.state.lock().expect("journal lock");
        st.seq - st.flushed_seq
    }

    /// Flushes everything and forces a compaction, leaving the snapshot
    /// alone as the complete durable state (empty log). Used at farm
    /// join so external readers see the whole durable set in one document.
    pub fn checkpoint(&self) {
        let mut st = self.inner.state.lock().expect("journal lock");
        st.force_compact = true;
        self.inner.work.notify_one();
        let target = st.seq;
        while (st.force_compact || st.flushed_seq < target) && !st.stop {
            st = self
                .inner
                .flushed
                .wait(st)
                .expect("journal checkpoint wait");
        }
    }

    fn set_lag(&self, st: &JournalState) {
        self.inner
            .obs
            .gauge(names::FARM_JOURNAL_LAG)
            .set((st.seq - st.flushed_seq) as f64);
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().expect("journal lock");
            st.stop = true;
        }
        self.inner.work.notify_one();
        self.inner.flushed.notify_all();
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
    }
}

/// What a snapshot + log replay yields.
struct Replayed {
    view: BTreeMap<u64, PersistedJob>,
    next_id: u64,
    seq: u64,
    snapshot_bytes: u64,
    log_bytes: u64,
}

/// Replays `dir`'s snapshot and log tail into the materialized durable
/// set. Shared by [`Journal::open`] (which then appends) and
/// [`Journal::peek`] (read-only, for failover adoption).
fn replay(dir: &Path) -> io::Result<Replayed> {
    let snap_path = dir.join(JOURNAL_FILE);
    let log_path = dir.join(JOURNAL_LOG_FILE);

    let mut view: BTreeMap<u64, PersistedJob> = BTreeMap::new();
    let mut next_id = 1u64;
    let mut snap_seq = 0u64;
    let mut snapshot_bytes = 0u64;
    match std::fs::read_to_string(&snap_path) {
        Ok(text) => {
            snapshot_bytes = text.len() as u64;
            let doc = lp_obs::json::parse(&text).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("{snap_path:?}: {e}"))
            })?;
            let version = doc.get("version").and_then(Value::as_u64);
            snap_seq = match (version, doc.get("seq").and_then(Value::as_u64)) {
                (Some(SNAPSHOT_VERSION), Some(seq)) => seq,
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "{snap_path:?}: not a version {SNAPSHOT_VERSION} snapshot with a seq"
                        ),
                    ))
                }
            };
            if let Some(n) = doc.get("next_id").and_then(Value::as_u64) {
                next_id = next_id.max(n);
            }
            for j in doc.get("jobs").and_then(Value::as_arr).unwrap_or(&[]) {
                if let Some(job) = PersistedJob::from_value(j) {
                    next_id = next_id.max(job.id + 1);
                    view.insert(job.id, job);
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }

    let mut seq = snap_seq;
    let mut log_bytes = 0u64;
    match File::open(&log_path) {
        Ok(mut f) => {
            let mut text = String::new();
            f.read_to_string(&mut text)?;
            log_bytes = text.len() as u64;
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                // A torn tail (SIGKILL mid-append) parses as garbage
                // exactly once, at the end: stop replaying there.
                let Ok(rec) = lp_obs::json::parse(line) else {
                    break;
                };
                let Some(rseq) = rec.get("seq").and_then(Value::as_u64) else {
                    break;
                };
                if rseq <= snap_seq {
                    continue; // already folded into the snapshot
                }
                seq = seq.max(rseq);
                apply_record(&rec, &mut view, &mut next_id);
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }

    Ok(Replayed {
        view,
        next_id,
        seq,
        snapshot_bytes,
        log_bytes,
    })
}

fn apply_record(rec: &Value, view: &mut BTreeMap<u64, PersistedJob>, next_id: &mut u64) {
    let op = rec.get("op").and_then(Value::as_str).unwrap_or("");
    let Some(id) = rec.get("id").and_then(Value::as_u64) else {
        return;
    };
    match op {
        "enqueue" => {
            if let Some(job) = PersistedJob::from_value(rec) {
                *next_id = (*next_id).max(job.id + 1);
                view.insert(job.id, job);
            }
        }
        "start" => {
            if let Some(j) = view.get_mut(&id) {
                j.attempts += 1;
            }
        }
        "requeue" => {
            if let Some(j) = view.get_mut(&id) {
                j.attempts = j.attempts.saturating_sub(1);
            }
        }
        "terminal" => {
            view.remove(&id);
        }
        _ => {}
    }
}

fn render_snapshot(st: &JournalState) -> String {
    let jobs: Vec<Value> = st
        .view
        .values()
        .map(|j| Value::Obj(j.to_members()))
        .collect();
    Value::Obj(vec![
        ("version".to_string(), Value::Int(SNAPSHOT_VERSION as i128)),
        ("seq".to_string(), Value::Int(st.seq as i128)),
        ("next_id".to_string(), Value::Int(st.next_id as i128)),
        ("jobs".to_string(), Value::Arr(jobs)),
    ])
    .to_string()
}

/// The group-commit writer: batches pending records into one write +
/// one fsync, then compacts when the log outgrows the snapshot.
fn writer_loop(inner: &Arc<JournalInner>, mut log_file: File) {
    loop {
        let mut st = inner.state.lock().expect("journal lock");
        while st.pending.is_empty() && !st.force_compact && !st.stop {
            st = inner.work.wait(st).expect("journal writer wait");
        }
        if st.stop && st.pending.is_empty() && !st.force_compact {
            return;
        }
        let coalesce = !st.pending.is_empty() && inner.cfg.flush_ms > 0 && !st.stop;
        drop(st);
        if coalesce {
            // Group-commit window: let concurrent transitions pile into
            // this batch so they share the fsync below.
            std::thread::sleep(Duration::from_millis(inner.cfg.flush_ms));
        }

        let mut st = inner.state.lock().expect("journal lock");
        let batch: Vec<String> = std::mem::take(&mut st.pending);
        let target_seq = st.seq;
        drop(st);

        let mut wrote = 0u64;
        if !batch.is_empty() {
            let mut buf = String::with_capacity(batch.iter().map(|l| l.len() + 1).sum());
            for line in &batch {
                buf.push_str(line);
                buf.push('\n');
            }
            // Best-effort: a failed write must not take the farm
            // down; the records stay applied in the view and the next
            // compaction rewrites the full state anyway.
            if log_file.write_all(buf.as_bytes()).is_ok() && log_file.sync_data().is_ok() {
                inner.obs.counter(names::FARM_JOURNAL_FSYNCS).inc();
                wrote = buf.len() as u64;
            }
        }

        let mut st = inner.state.lock().expect("journal lock");
        st.log_bytes += wrote;
        st.flushed_seq = target_seq;
        let threshold = inner
            .cfg
            .compact_factor
            .saturating_mul(st.snapshot_bytes.max(MIN_COMPACT_BYTES));
        let compact_now = st.force_compact || st.log_bytes > threshold;
        if compact_now && st.pending.is_empty() {
            let snapshot = render_snapshot(&st);
            drop(st);
            let ok = lp_obs::write_atomic(&inner.dir.join(JOURNAL_FILE), snapshot.as_bytes())
                .and_then(|()| {
                    // Truncate in place: the snapshot now covers every
                    // flushed record; replay skips seq <= snapshot.seq
                    // even if this truncate never lands.
                    log_file.set_len(0)?;
                    log_file.seek(SeekFrom::Start(0))?;
                    Ok(())
                })
                .is_ok();
            st = inner.state.lock().expect("journal lock");
            if ok {
                st.snapshot_bytes = snapshot.len() as u64;
                st.log_bytes = 0;
                inner.obs.counter(names::FARM_JOURNAL_COMPACTIONS).inc();
            }
            st.force_compact = false;
        }
        inner
            .obs
            .gauge(names::FARM_JOURNAL_LAG)
            .set((st.seq - st.flushed_seq) as f64);
        let stopping = st.stop && st.pending.is_empty() && !st.force_compact;
        drop(st);
        inner.flushed.notify_all();
        if stopping {
            return;
        }
    }
}
