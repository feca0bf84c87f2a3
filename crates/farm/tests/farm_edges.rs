//! Fault-tolerance and multi-tenancy edge cases for the farm:
//! in-flight dedup subscriber accounting, queue-full backpressure with a
//! retry hint, panic → retry → permanent failure with worker respawn,
//! per-job deadlines, cancellation promotion, and drain/restart resume
//! from the persisted queue journal.

use looppoint::CancelToken;
use lp_farm::{
    Farm, FarmConfig, FarmServer, JobBackend, JobSpec, JobState, ShutdownMode, SubmitError,
    Submitted, JOURNAL_FILE,
};
use lp_farm_proto::{FarmClient, SubmitOutcome};
use lp_obs::json::Value;
use lp_obs::{names, Observer, TraceContext};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn spec(program: &str) -> JobSpec {
    JobSpec {
        program: program.to_string(),
        ..JobSpec::default()
    }
}

/// Deterministic mock key: the program name, padded — distinct programs
/// get distinct keys, identical programs share one.
fn mock_key(spec: &JobSpec) -> Result<String, String> {
    Ok(format!("{:0<32.32}", spec.program))
}

/// Blocks every execution until `release()` (or cancellation), counting
/// computes.
struct Blocking {
    computes: AtomicUsize,
    gate: Mutex<bool>,
    cv: Condvar,
}

impl Blocking {
    fn new() -> Arc<Blocking> {
        Arc::new(Blocking {
            computes: AtomicUsize::new(0),
            gate: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn release(&self) {
        *self.gate.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl JobBackend for Blocking {
    fn job_key(&self, spec: &JobSpec) -> Result<String, String> {
        mock_key(spec)
    }

    fn execute(
        &self,
        spec: &JobSpec,
        cancel: &CancelToken,
        _progress: &mut dyn FnMut(String),
    ) -> Result<String, String> {
        self.computes.fetch_add(1, Ordering::SeqCst);
        let mut open = self.gate.lock().unwrap();
        loop {
            if *open {
                return Ok(format!("{{\"program\":\"{}\"}}", spec.program));
            }
            if cancel.is_cancelled() {
                return Err("cancelled mid-flight".to_string());
            }
            let (guard, _) = self
                .cv
                .wait_timeout(open, Duration::from_millis(5))
                .unwrap();
            open = guard;
        }
    }
}

/// Completes instantly; panics on programs named `boom`.
struct Fast;

impl JobBackend for Fast {
    fn job_key(&self, spec: &JobSpec) -> Result<String, String> {
        mock_key(spec)
    }

    fn execute(
        &self,
        spec: &JobSpec,
        _cancel: &CancelToken,
        _progress: &mut dyn FnMut(String),
    ) -> Result<String, String> {
        if spec.program == "boom" {
            panic!("kaboom: injected backend panic");
        }
        Ok(format!("{{\"program\":\"{}\"}}", spec.program))
    }
}

fn wait_for(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "lp-farm-test-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn duplicate_submits_share_one_compute() {
    let backend = Blocking::new();
    let obs = Observer::enabled();
    let farm = Farm::start(
        FarmConfig {
            workers: 2,
            ..FarmConfig::default()
        },
        backend.clone(),
        obs.clone(),
    )
    .unwrap();

    let a = farm.submit(spec("alpha")).unwrap();
    let Submitted::Queued { id: primary } = a else {
        panic!("first submit must queue, got {a:?}");
    };
    assert!(
        wait_for(Duration::from_secs(5), || {
            farm.job(primary).map(|r| r.state) == Some(JobState::Running)
        }),
        "primary never started"
    );

    // Two identical submissions while the primary is mid-compute: both
    // become followers, neither computes.
    let b = farm.submit(spec("alpha")).unwrap();
    let c = farm.submit(spec("alpha")).unwrap();
    assert!(
        matches!(b, Submitted::Deduped { primary: p, .. } if p == primary),
        "{b:?}"
    );
    assert!(
        matches!(c, Submitted::Deduped { primary: p, .. } if p == primary),
        "{c:?}"
    );
    let rec = farm.job(primary).unwrap();
    assert_eq!(rec.subscribers.len(), 2, "subscriber count while running");

    backend.release();
    assert!(farm.wait_idle(Duration::from_secs(10)), "farm stuck");

    for sub in [a.id(), b.id(), c.id()] {
        let rec = farm.job(sub).unwrap();
        assert_eq!(rec.state, JobState::Done, "job {sub}");
        assert_eq!(
            rec.result.as_deref(),
            Some("{\"program\":\"alpha\"}"),
            "followers mirror the primary's result"
        );
    }
    assert_eq!(
        backend.computes.load(Ordering::SeqCst),
        1,
        "exactly one compute"
    );
    assert_eq!(obs.counter(names::FARM_DEDUP_HITS).get(), 2);

    // A fourth identical submission after completion: served from the
    // completed-work cache, no queueing at all.
    let d = farm.submit(spec("alpha")).unwrap();
    assert!(matches!(d, Submitted::Cached { .. }), "{d:?}");
    assert_eq!(farm.job(d.id()).unwrap().state, JobState::Done);
    assert_eq!(backend.computes.load(Ordering::SeqCst), 1);
    assert_eq!(obs.counter(names::FARM_DEDUP_HITS).get(), 3);

    farm.shutdown(ShutdownMode::Drain);
    farm.join();
}

#[test]
fn queue_full_rejection_carries_retry_after() {
    let backend = Blocking::new();
    let farm = Farm::start(
        FarmConfig {
            workers: 1,
            queue_capacity: 2,
            retry_after_ms: 7_000,
            ..FarmConfig::default()
        },
        backend.clone(),
        Observer::enabled(),
    )
    .unwrap();
    let server = FarmServer::start("127.0.0.1:0", farm.clone()).unwrap();
    let addr = server.local_addr().to_string();

    // One running (off-queue), two queued: the queue is now at capacity.
    let a = farm.submit(spec("w1")).unwrap();
    assert!(wait_for(Duration::from_secs(5), || {
        farm.job(a.id()).map(|r| r.state) == Some(JobState::Running)
    }));
    farm.submit(spec("w2")).unwrap();
    let queued = farm.submit(spec("w3")).unwrap().id();

    // Library-level rejection carries the hint...
    let err = farm.submit(spec("w4")).unwrap_err();
    assert_eq!(
        err,
        SubmitError::QueueFull {
            retry_after_ms: 7_000
        }
    );

    // ...and the HTTP layer converts it to 503 + Retry-After (seconds,
    // rounded up).
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    let body = "{\"program\":\"w4\"}\n";
    write!(
        stream,
        "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut buf = String::new();
    stream.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 503"), "{buf}");
    assert!(buf.contains("Retry-After: 7\r\n"), "{buf}");
    assert!(buf.contains("\"retry_after_ms\":7000"), "{buf}");

    // Dedup followers do NOT consume capacity: a duplicate of a queued
    // job is still accepted while fresh work is rejected.
    let dup = farm.submit(spec("w2")).unwrap();
    assert!(matches!(dup, Submitted::Deduped { .. }), "{dup:?}");

    // A queued job is cancellable over the wire (`POST /jobs/{id}/cancel`)
    // and reads back as cancelled; an unknown id cancels nothing.
    let mut client = lp_farm_proto::FarmClient::connect(addr.as_str());
    let ack = client.cancel(queued).unwrap();
    assert_eq!(ack.get("cancelled"), Some(&Value::Bool(true)), "{ack}");
    let record = client.job(queued).unwrap();
    assert_eq!(record.state, "cancelled");
    assert!(record.is_terminal() && record.result.is_none());
    let ack = client.cancel(9_999).unwrap();
    assert_eq!(ack.get("cancelled"), Some(&Value::Bool(false)), "{ack}");
    assert_eq!(ack.get("state").and_then(Value::as_str), Some("unknown"));

    backend.release();
    assert!(farm.wait_idle(Duration::from_secs(10)));
    assert_eq!(
        backend.computes.load(Ordering::SeqCst),
        2,
        "the cancelled job never ran"
    );
    farm.shutdown(ShutdownMode::Drain);
    farm.join();
    server.stop();
}

#[test]
fn panicking_backend_retries_then_fails_and_workers_respawn() {
    let obs = Observer::enabled();
    let farm = Farm::start(
        FarmConfig {
            workers: 1,
            max_attempts: 2,
            backoff_base_ms: 1,
            backoff_cap_ms: 5,
            ..FarmConfig::default()
        },
        Arc::new(Fast),
        obs.clone(),
    )
    .unwrap();

    let bad = farm.submit(spec("boom")).unwrap();
    assert!(
        wait_for(Duration::from_secs(10), || {
            farm.job(bad.id()).map(|r| r.state) == Some(JobState::Failed)
        }),
        "job never failed permanently"
    );
    let rec = farm.job(bad.id()).unwrap();
    assert_eq!(rec.attempts, 2, "consumed exactly max_attempts");
    assert!(
        rec.error
            .as_deref()
            .unwrap_or("")
            .contains("worker panicked"),
        "{:?}",
        rec.error
    );
    assert_eq!(
        obs.counter(names::FARM_RETRY).get(),
        1,
        "one retry between attempts"
    );

    // The panics killed worker threads; the supervisor respawned them —
    // a fresh job still executes.
    assert!(
        wait_for(Duration::from_secs(5), || {
            obs.counter(names::FARM_WORKER_RESPAWN).get() >= 2
        }),
        "workers were not respawned"
    );
    let ok = farm.submit(spec("fine")).unwrap();
    assert!(
        wait_for(Duration::from_secs(10), || {
            farm.job(ok.id()).map(|r| r.state) == Some(JobState::Done)
        }),
        "respawned worker never served the follow-up job"
    );

    farm.shutdown(ShutdownMode::Drain);
    farm.join();
}

#[test]
fn deadline_trips_cancel_and_counts_as_timeout() {
    let backend = Blocking::new(); // never released: only the deadline ends it
    let obs = Observer::enabled();
    let farm = Farm::start(
        FarmConfig {
            workers: 1,
            max_attempts: 1,
            ..FarmConfig::default()
        },
        backend,
        obs.clone(),
    )
    .unwrap();
    let mut s = spec("sleepy");
    s.timeout_ms = 50;
    let id = farm.submit(s).unwrap().id();
    assert!(
        wait_for(Duration::from_secs(10), || {
            farm.job(id).map(|r| r.state) == Some(JobState::Failed)
        }),
        "deadline never fired"
    );
    let rec = farm.job(id).unwrap();
    assert!(
        rec.error
            .as_deref()
            .unwrap_or("")
            .contains("deadline exceeded"),
        "{:?}",
        rec.error
    );
    assert_eq!(obs.counter(names::FARM_TIMEOUT).get(), 1);
    farm.shutdown(ShutdownMode::Now);
    farm.join();
}

#[test]
fn cancelling_a_primary_promotes_its_follower() {
    let backend = Blocking::new();
    let farm = Farm::start(
        FarmConfig {
            workers: 1,
            ..FarmConfig::default()
        },
        backend.clone(),
        Observer::enabled(),
    )
    .unwrap();

    let primary = farm.submit(spec("shared")).unwrap().id();
    assert!(wait_for(Duration::from_secs(5), || {
        farm.job(primary).map(|r| r.state) == Some(JobState::Running)
    }));
    let follower = farm.submit(spec("shared")).unwrap().id();

    // One tenant cancels; the other's identical request must survive.
    assert!(farm.cancel(primary));
    assert!(
        wait_for(Duration::from_secs(5), || {
            farm.job(primary).map(|r| r.state) == Some(JobState::Cancelled)
        }),
        "cancel never took effect"
    );
    backend.release();
    assert!(farm.wait_idle(Duration::from_secs(10)));

    assert_eq!(farm.job(primary).unwrap().state, JobState::Cancelled);
    let f = farm.job(follower).unwrap();
    assert_eq!(f.state, JobState::Done, "promoted follower completed");
    assert_eq!(f.dedup_of, None, "follower became a primary");
    assert!(
        backend.computes.load(Ordering::SeqCst) >= 2,
        "recomputed after cancel"
    );

    farm.shutdown(ShutdownMode::Drain);
    farm.join();
}

#[test]
fn shutdown_now_requeues_and_a_restarted_farm_resumes() {
    let dir = tmpdir("resume");
    let backend = Blocking::new();
    let farm = Farm::start(
        FarmConfig {
            workers: 1,
            dir: Some(dir.clone()),
            ..FarmConfig::default()
        },
        backend.clone(),
        Observer::enabled(),
    )
    .unwrap();

    let ids: Vec<u64> = ["r1", "r2", "r3"]
        .iter()
        .map(|p| farm.submit(spec(p)).unwrap().id())
        .collect();
    assert!(wait_for(Duration::from_secs(5), || {
        farm.job(ids[0]).map(|r| r.state) == Some(JobState::Running)
    }));

    // Immediate shutdown: the running job is interrupted and requeued to
    // disk, the queued ones persist untouched.
    farm.shutdown(ShutdownMode::Now);
    farm.join();

    let journal = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
    let doc = lp_obs::json::parse(&journal).unwrap();
    assert_eq!(
        doc.get("jobs").unwrap().as_arr().unwrap().len(),
        3,
        "all three jobs survive in the journal: {journal}"
    );

    // A fresh daemon over the same directory resumes the queue; ids are
    // preserved so tenants can keep polling the same job URLs.
    let backend2 = Blocking::new();
    backend2.release();
    let farm2 = Farm::start(
        FarmConfig {
            workers: 2,
            dir: Some(dir.clone()),
            ..FarmConfig::default()
        },
        backend2,
        Observer::enabled(),
    )
    .unwrap();
    assert!(
        farm2.wait_idle(Duration::from_secs(10)),
        "restored jobs never ran"
    );
    for &id in &ids {
        let rec = farm2.job(id).unwrap();
        assert_eq!(rec.state, JobState::Done, "restored job {id}");
    }
    // New submissions never collide with restored ids.
    let fresh = farm2.submit(spec("r4")).unwrap().id();
    assert!(fresh > *ids.iter().max().unwrap());

    farm2.shutdown(ShutdownMode::Drain);
    farm2.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flight_recorder_ring_stays_bounded_across_many_jobs() {
    let backend = Blocking::new();
    backend.release();
    let obs = Observer::enabled();
    let farm = Farm::start(
        FarmConfig {
            workers: 2,
            trace_capacity: 3,
            ..FarmConfig::default()
        },
        backend,
        obs.clone(),
    )
    .unwrap();

    // 10x the ring capacity, all distinct programs so nothing dedups:
    // the recorder must retain exactly `capacity` finished traces no
    // matter how many jobs flow through.
    let ids: Vec<u64> = (0..30)
        .map(|i| farm.submit(spec(&format!("t{i}"))).unwrap().id())
        .collect();
    assert!(farm.wait_idle(Duration::from_secs(30)), "farm stuck");

    let (live, finished, capacity, evicted) = farm.flight_recorder().occupancy();
    assert_eq!(live, 0, "no live traces once idle");
    assert_eq!(finished, 3, "exactly capacity traces retained");
    assert_eq!(capacity, 3);
    assert_eq!(evicted, 27, "everything beyond capacity was evicted");
    assert_eq!(obs.counter(names::FARM_TRACE_EVICTED).get(), 27);

    // Retrievability matches the ring: exactly `capacity` of the ids
    // still render a trace document, and each is a valid Chrome trace
    // with a root job span.
    let retained: Vec<u64> = ids
        .iter()
        .copied()
        .filter(|&id| farm.trace_document(id).is_some())
        .collect();
    assert_eq!(retained.len(), 3, "retained {retained:?}");
    let doc = farm.trace_document(retained[0]).unwrap();
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some(names::SPAN_FARM_JOB)),
        "root span present in retained trace"
    );

    farm.shutdown(ShutdownMode::Drain);
    farm.join();
}

#[test]
fn dedup_follower_trace_links_to_the_primary() {
    let backend = Blocking::new();
    let farm = Farm::start(
        FarmConfig {
            workers: 1,
            ..FarmConfig::default()
        },
        backend.clone(),
        Observer::enabled(),
    )
    .unwrap();

    let primary = farm.submit(spec("linked")).unwrap().id();
    assert!(wait_for(Duration::from_secs(5), || {
        farm.job(primary).map(|r| r.state) == Some(JobState::Running)
    }));
    let follower = farm.submit(spec("linked")).unwrap().id();
    backend.release();
    assert!(farm.wait_idle(Duration::from_secs(10)));

    // Each tenant's job is its own trace...
    let primary_trace = farm.job(primary).unwrap().trace.trace_id.hex();
    let follower_trace = farm.job(follower).unwrap().trace.trace_id.hex();
    assert_ne!(primary_trace, follower_trace, "one trace per submission");

    // ...but the follower's flight-recorder document carries a
    // `farm.job.dedup_of` marker naming the primary job and its trace
    // id, so a tenant can pivot from their trace to the compute that
    // actually served them.
    let doc = farm.trace_document(follower).unwrap();
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let link = events
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some(names::SPAN_FARM_DEDUP))
        .expect("dedup_of marker present in follower trace");
    let args = link.get("args").unwrap();
    assert_eq!(args.get("primary").and_then(Value::as_u64), Some(primary));
    assert_eq!(
        args.get("primary_trace_id").and_then(Value::as_str),
        Some(primary_trace.as_str())
    );

    // The primary's own trace has no dedup marker.
    let pdoc = farm.trace_document(primary).unwrap();
    assert!(
        !pdoc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some(names::SPAN_FARM_DEDUP)),
        "primary carries no dedup link"
    );

    farm.shutdown(ShutdownMode::Drain);
    farm.join();
}

#[test]
fn drain_finishes_queued_work_before_stopping() {
    let backend = Blocking::new();
    backend.release();
    let farm = Farm::start(
        FarmConfig {
            workers: 2,
            ..FarmConfig::default()
        },
        backend,
        Observer::enabled(),
    )
    .unwrap();
    let ids: Vec<u64> = (0..6)
        .map(|i| farm.submit(spec(&format!("d{i}"))).unwrap().id())
        .collect();
    farm.shutdown(ShutdownMode::Drain);
    // New work is refused immediately...
    assert_eq!(
        farm.submit(spec("late")).unwrap_err(),
        SubmitError::Draining
    );
    farm.join();
    // ...but everything accepted before the drain completed.
    for id in ids {
        assert_eq!(farm.job(id).unwrap().state, JobState::Done, "job {id}");
    }
}

/// Emits three partial-result lines, then blocks until released — the
/// shape of a live job mid-run.
struct Streaming {
    gate: Mutex<bool>,
    cv: Condvar,
}

impl Streaming {
    fn new() -> Arc<Streaming> {
        Arc::new(Streaming {
            gate: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn release(&self) {
        *self.gate.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl JobBackend for Streaming {
    fn job_key(&self, spec: &JobSpec) -> Result<String, String> {
        mock_key(spec)
    }

    fn execute(
        &self,
        spec: &JobSpec,
        cancel: &CancelToken,
        progress: &mut dyn FnMut(String),
    ) -> Result<String, String> {
        for i in 1..=3u64 {
            progress(format!("{{\"regions\":{i},\"done\":false}}"));
        }
        let mut open = self.gate.lock().unwrap();
        loop {
            if *open {
                return Ok(format!("{{\"program\":\"{}\"}}", spec.program));
            }
            if cancel.is_cancelled() {
                return Err("cancelled mid-flight".to_string());
            }
            let (guard, _) = self
                .cv
                .wait_timeout(open, Duration::from_millis(5))
                .unwrap();
            open = guard;
        }
    }
}

#[test]
fn streamed_partials_reach_followers_in_process_and_over_http() {
    let backend = Streaming::new();
    let farm = Farm::start(
        FarmConfig {
            workers: 1,
            ..FarmConfig::default()
        },
        backend.clone(),
        Observer::enabled(),
    )
    .unwrap();
    let server = FarmServer::start("127.0.0.1:0", farm.clone()).unwrap();
    let addr = server.local_addr().to_string();

    let primary = farm.submit(spec("live1")).unwrap().id();
    assert!(
        wait_for(Duration::from_secs(5), || {
            farm.progress(primary, 0).is_some_and(|p| p.len() == 3)
        }),
        "partials never arrived"
    );

    // `since` slices incrementally: a poller that has seen 2 lines only
    // pays for the third; past-the-end yields an empty page.
    let tail = farm.progress(primary, 2).unwrap();
    assert_eq!(tail, vec!["{\"regions\":3,\"done\":false}".to_string()]);
    assert_eq!(farm.progress(primary, 17).unwrap(), Vec::<String>::new());
    assert_eq!(farm.progress(9999, 0), None, "unknown id is None");

    // A dedup follower watches the primary's stream.
    let follower = farm.submit(spec("live1")).unwrap();
    assert!(
        matches!(follower, Submitted::Deduped { .. }),
        "{follower:?}"
    );
    assert_eq!(
        farm.progress(follower.id(), 0).unwrap().len(),
        3,
        "followers see the primary's partials"
    );

    // The HTTP view: NDJSON, partials first, record last.
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    write!(
        stream,
        "GET /jobs/{primary}?since=1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = String::new();
    stream.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 200"), "{buf}");
    assert!(buf.contains("Content-Type: application/x-ndjson"), "{buf}");
    let body = buf.split("\r\n\r\n").nth(1).unwrap();
    let lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 3, "2 partials past since=1 + record: {body}");
    assert_eq!(lines[0], "{\"regions\":2,\"done\":false}");
    let record = lp_obs::json::parse(lines[2]).unwrap();
    assert_eq!(
        record.get("state").and_then(Value::as_str),
        Some("running"),
        "last line is the job record"
    );

    backend.release();
    assert!(farm.wait_idle(Duration::from_secs(10)), "farm stuck");
    assert_eq!(farm.job(primary).unwrap().state, JobState::Done);
    // Partials survive completion for late followers.
    assert_eq!(farm.progress(primary, 0).unwrap().len(), 3);
    farm.shutdown(ShutdownMode::Drain);
    farm.join();
    server.stop();
}

/// A `farm.request` span is recorded only for a request that carries a
/// trace context: an untraced one used to leave a span in the shared sink
/// that nothing ever harvested (~440 B per request, forever). A traced
/// submission still shows its request span in the job's trace.
#[test]
fn only_traced_requests_leave_a_request_span() {
    let backend = Blocking::new();
    let obs = Observer::enabled();
    let farm = Farm::start(
        FarmConfig {
            workers: 1,
            ..FarmConfig::default()
        },
        backend.clone(),
        obs.clone(),
    )
    .unwrap();
    let server = FarmServer::start("127.0.0.1:0", farm.clone()).unwrap();
    let mut client = FarmClient::connect(server.local_addr().to_string());

    let before = obs.trace_events().len();
    for _ in 0..1_000 {
        client.healthz().unwrap();
    }
    assert_eq!(
        obs.trace_events().len(),
        before,
        "untraced requests kept spans"
    );

    // Traced: the job runs only after its submission's request span has
    // closed, so the harvest finds it under the job's trace id.
    let ctx = TraceContext::new_root();
    let (status, outcomes) = client.submit(&[spec("traced")], Some(&ctx)).unwrap();
    assert_eq!(status, 202);
    let Some(SubmitOutcome::Accepted { id, .. }) = outcomes.first() else {
        panic!("{outcomes:?}");
    };
    assert!(wait_for(Duration::from_secs(5), || {
        farm.job(*id).map(|r| r.state) == Some(JobState::Running)
    }));
    backend.release();
    assert!(farm.wait_idle(Duration::from_secs(10)), "farm stuck");
    let doc = client.trace_document(*id).unwrap();
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some(names::SPAN_FARM_REQUEST)),
        "traced submission lost its request span"
    );

    farm.shutdown(ShutdownMode::Drain);
    farm.join();
    server.stop();
}
