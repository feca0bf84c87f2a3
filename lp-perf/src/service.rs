//! The two service workloads: `farm-sweep` (one bare farm daemon, two
//! workers) and `ring-sweep` (a two-node ring, one worker per node, every
//! submission sent to node 0). Both replay the same seeded job stream
//! (`stream.rs`), so their `farm.jobs_per_s` differ by the cluster tax
//! alone.
//!
//! The load is a **closed loop**: two keep-alive client connections, each
//! holding a window of eight outstanding jobs, alternating single and
//! NDJSON-batch POSTs, and polling `GET /jobs/{id}` until a job ends.
//! Latencies come from the client's clock and from job-record timestamps,
//! never from the daemon's histograms.
//!
//! A *pass* boots fresh daemon(s), sends the whole stream through the
//! loop, drains, reads the counters and shuts down; passes repeat until
//! `--seconds` have been measured, and the timings are read off the
//! upper-quartile pass (see `sweep`). The daemons run without an artifact
//! store, as `run-looppoint serve` does by default: with one, every
//! computed job pays some two dozen fsyncs, which halves the rate and
//! doubles its run-to-run spread on a host whose disk latency drifts
//! (quartile spread 22 % against 10 %). A traced run ends with a few
//! passes that do have a store and reports the ratio as `store.tax_x`.

use crate::stream::{job_stream, unique_specs};
use crate::trace::Tracer;
use crate::{stats, Run};
use looppoint::{
    analyze, error_pct, prepare_region_checkpoints, run_job, simulate_whole, LoopPointConfig,
    SimOptions, DEFAULT_MAX_STEPS,
};
use lp_cluster::{spawn_node, ClusterConfig, NodeSpec, RunningNode};
use lp_farm::{Farm, FarmConfig, FarmServer, JobSpec, PipelineBackend, ShutdownMode};
use lp_farm_proto::{FarmClient, SubmitOutcome};
use lp_obs::http::HttpClient;
use lp_obs::json::{self, Value};
use lp_obs::Observer;
use lp_omp::WaitPolicy;
use lp_store::{ArtifactKind, Store, StoreKeyBuilder};
use lp_uarch::SimConfig;
use lp_workloads::{matrix_demo, InputClass};
use std::collections::{BTreeSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    BareFarm,
    Ring,
}

/// Client connections, one thread each (= the host's two cores).
const CLIENTS: usize = 2;
/// Outstanding jobs per connection.
const WINDOW: usize = 8;
/// Pause between poll sweeps that saw no job end. Bounds the resolution of
/// client-observed latency; jobs compute for tens of milliseconds.
const POLL_PAUSE: Duration = Duration::from_millis(10);
/// Workers in total, on either topology.
const WORKERS: usize = 2;
/// Jobs per pass: about half a second of the bare farm on the baseline
/// host, so that a run fits some thirty passes. A multiple of three, so
/// exactly a third are unique.
const JOBS_PER_PASS: usize = 45;
const SMOKE_JOBS_PER_PASS: usize = 30;
/// Daemon-independent set-ups per run; `setup_s` takes their median (and
/// the median boot of the passes' daemons).
const SETUPS: usize = 5;
/// Passes with an artifact store behind the daemons, at the end of a
/// traced run.
const STORED_PASSES: usize = 4;
/// Requests of the `/healthz` loop.
const HEALTHZ_REQUESTS: usize = 2_000;

/// Scratch space inside the checkout, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> io::Result<Scratch> {
        let dir = PathBuf::from(".lp-perf-scratch").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too when no concurrent run is using it.
        let _ = std::fs::remove_dir(".lp-perf-scratch");
    }
}

enum FrontDoor {
    Bare(FarmServer),
    Ring(RunningNode),
}

struct Node {
    addr: String,
    farm: Farm,
    store: Option<Arc<Store>>,
    farm_dir: PathBuf,
    door: FrontDoor,
}

impl Node {
    fn shutdown(self) {
        match self.door {
            FrontDoor::Bare(server) => {
                self.farm.shutdown(ShutdownMode::Drain);
                self.farm.join();
                server.stop();
            }
            FrontDoor::Ring(running) => running.shutdown(ShutdownMode::Drain),
        }
    }
}

fn free_addr() -> io::Result<String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    Ok(format!("127.0.0.1:{}", listener.local_addr()?.port()))
}

/// Starts the daemon(s) over a fresh journal directory each, configured as
/// `run-looppoint serve` configures them (defaults, an enabled observer of
/// their own, and like `serve` no artifact store unless asked for one);
/// the process-global observer stays off.
fn boot(topology: Topology, root: &Path, with_store: bool) -> io::Result<Vec<Node>> {
    type Parts = (
        Observer,
        Option<Arc<Store>>,
        Arc<PipelineBackend>,
        FarmConfig,
    );
    let open = |i: usize| -> io::Result<Parts> {
        let obs = Observer::enabled();
        let store = match with_store {
            true => Some(Arc::new(Store::open(
                root.join(format!("store-{i}")),
                obs.clone(),
            )?)),
            false => None,
        };
        let backend = Arc::new(PipelineBackend::new(store.clone(), obs.clone()));
        let farm_cfg = FarmConfig {
            dir: Some(root.join(format!("farm-{i}"))),
            ..FarmConfig::default()
        };
        Ok((obs, store, backend, farm_cfg))
    };
    match topology {
        Topology::BareFarm => {
            let (obs, store, backend, mut farm_cfg) = open(0)?;
            farm_cfg.workers = WORKERS;
            let farm_dir = farm_cfg.dir.clone().expect("journal dir set above");
            let farm = Farm::start(farm_cfg, backend, obs)?;
            let server = FarmServer::start("127.0.0.1:0", farm.clone())?;
            Ok(vec![Node {
                addr: server.local_addr().to_string(),
                farm,
                store,
                farm_dir,
                door: FrontDoor::Bare(server),
            }])
        }
        Topology::Ring => {
            let addrs = (0..WORKERS)
                .map(|_| free_addr())
                .collect::<io::Result<Vec<_>>>()?;
            let peers: Vec<NodeSpec> = addrs
                .iter()
                .enumerate()
                .map(|(i, addr)| NodeSpec {
                    addr: addr.clone(),
                    dir: Some(root.join(format!("farm-{i}"))),
                })
                .collect();
            addrs
                .iter()
                .enumerate()
                .map(|(i, addr)| {
                    let (obs, store, backend, mut farm_cfg) = open(i)?;
                    farm_cfg.workers = 1;
                    let farm_dir = farm_cfg.dir.clone().expect("journal dir set above");
                    let cluster_cfg = ClusterConfig {
                        self_addr: addr.clone(),
                        peers: peers.clone(),
                        heartbeat_ms: 100,
                        ..ClusterConfig::default()
                    };
                    let running =
                        spawn_node(addr, cluster_cfg, farm_cfg, backend, store.clone(), obs)?;
                    Ok(Node {
                        addr: addr.clone(),
                        farm: running.farm.clone(),
                        store,
                        farm_dir,
                        door: FrontDoor::Ring(running),
                    })
                })
                .collect()
        }
    }
}

fn unix_us() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64() * 1e6)
}

/// One job as its client saw it end.
struct JobSeen {
    /// Position in the stream.
    index: usize,
    /// Client-observed milliseconds from the start of the submitting POST
    /// to the poll that found the job ended.
    answer_ms: f64,
    /// The final `GET /jobs/{id}` record.
    record: Value,
}

/// One `POST /jobs` as its client saw it.
struct SubmitSeen {
    rtt_us: f64,
    /// For single-spec POSTs: whether the ring forwarded it.
    single_forwarded: Option<bool>,
}

#[derive(Default)]
struct ClientReport {
    jobs: Vec<JobSeen>,
    submits: Vec<SubmitSeen>,
    /// Milliseconds between a job ending (record `finished_us`) and the
    /// POST that refilled its window slot: how late the generator ran.
    refill_lag_ms: Vec<f64>,
    http_calls: u64,
    /// Jobs refused at submission or lost to a transport error.
    lost: Vec<String>,
}

struct Pending {
    index: usize,
    id: u64,
    submitted: Instant,
}

fn record_u64(record: &Value, field: &str) -> u64 {
    record.get(field).and_then(Value::as_u64).unwrap_or(0)
}

/// The closed loop of one client connection over its share of the stream.
fn client_loop(addr: &str, share: &[(usize, JobSpec)], tracer: &mut Tracer) -> ClientReport {
    let mut report = ClientReport::default();
    let mut client = FarmClient::connect(addr);
    client.set_timeout(Duration::from_secs(60));
    let mut pending: Vec<Pending> = Vec::new();
    let mut freed_at_us: VecDeque<f64> = VecDeque::new();
    let mut next = 0usize;
    let mut single = true;

    while next < share.len() || !pending.is_empty() {
        while next < share.len() && pending.len() < WINDOW {
            let take = if single {
                1
            } else {
                (WINDOW - pending.len()).min(share.len() - next)
            };
            let batch = &share[next..next + take];
            let specs: Vec<JobSpec> = batch.iter().map(|(_, spec)| spec.clone()).collect();
            next += take;
            let submitted = Instant::now();
            let submitted_us = unix_us();
            let open = tracer.begin(if take == 1 {
                "proto.submit_single"
            } else {
                "proto.submit_batch"
            });
            let reply = client.submit(&specs, None);
            let rtt_us = tracer.end(open) * 1e6;
            report.http_calls += 1;
            let outcomes = match reply {
                Ok((_, outcomes)) if outcomes.len() == take => outcomes,
                Ok((status, outcomes)) => {
                    report.lost.extend(batch.iter().map(|(i, _)| {
                        format!(
                            "job {i}: status {status} with {} outcome lines for {take} specs",
                            outcomes.len()
                        )
                    }));
                    continue;
                }
                Err(e) => {
                    report.lost.extend(
                        batch
                            .iter()
                            .map(|(i, _)| format!("job {i}: submit failed: {e}")),
                    );
                    continue;
                }
            };
            let mut forwarded = false;
            for ((index, _), outcome) in batch.iter().zip(outcomes) {
                match outcome {
                    SubmitOutcome::Accepted {
                        id, forwarded_to, ..
                    } => {
                        forwarded = forwarded_to.is_some();
                        pending.push(Pending {
                            index: *index,
                            id,
                            submitted,
                        });
                        if let Some(freed) = freed_at_us.pop_front() {
                            report.refill_lag_ms.push((submitted_us - freed) / 1e3);
                        }
                    }
                    SubmitOutcome::Rejected { error, .. } => {
                        report.lost.push(format!("job {index}: rejected: {error}"));
                    }
                }
            }
            report.submits.push(SubmitSeen {
                rtt_us,
                single_forwarded: (take == 1).then_some(forwarded),
            });
            single = !single;
        }

        let mut ended_any = false;
        let mut i = 0;
        while i < pending.len() {
            let path = format!("/jobs/{}?since={}", pending[i].id, usize::MAX);
            let open = tracer.begin("http.job_poll");
            let reply = client.http().send("GET", &path, &[], &[], None, true);
            tracer.end(open);
            report.http_calls += 1;
            let record = reply.ok().filter(|r| r.status == 200).and_then(|r| {
                let text = r.text();
                json::parse(text.lines().rfind(|l| !l.trim().is_empty())?).ok()
            });
            let Some(record) = record else {
                let lost = pending.swap_remove(i);
                report
                    .lost
                    .push(format!("job {}: no record for id {}", lost.index, lost.id));
                continue;
            };
            let state = record.get("state").and_then(Value::as_str).unwrap_or("");
            if matches!(state, "done" | "failed" | "cancelled") {
                let ended = pending.swap_remove(i);
                freed_at_us.push_back(record_u64(&record, "finished_us") as f64);
                report.jobs.push(JobSeen {
                    index: ended.index,
                    answer_ms: ended.submitted.elapsed().as_secs_f64() * 1e3,
                    record,
                });
                ended_any = true;
            } else {
                i += 1;
            }
        }
        if !ended_any && !pending.is_empty() {
            std::thread::sleep(POLL_PAUSE);
        }
    }
    report
}

/// One demo program with what set-up measured on it.
struct Demo {
    program: Arc<lp_isa::Program>,
    nthreads: usize,
    simcfg: SimConfig,
    insts: u64,
    full_cycles: f64,
}

fn demo_index(spec: &JobSpec) -> usize {
    match spec.program.as_str() {
        "demo-matrix-1" => 0,
        "demo-matrix-2" => 1,
        _ => 2,
    }
}

/// Everything the timed passes need that does not depend on a daemon.
struct Fixture {
    demos: Vec<Demo>,
    stream: Vec<JobSpec>,
    /// In-process answers the farm's are checked against: stream position
    /// and `run_job` summary of the first two-phase job of each program.
    references: Vec<(usize, Result<Value, String>)>,
}

fn fixture(run: &Run) -> Fixture {
    let demos: Vec<Demo> = (1..=3)
        .map(|variant| {
            let spec = matrix_demo(variant);
            let nthreads = spec.effective_threads(2);
            let program = lp_workloads::build(&spec, InputClass::Test, 2, WaitPolicy::Passive);
            let simcfg = SimConfig::gainestown(nthreads.max(2));
            let insts = lp_isa::Machine::new(program.clone(), nthreads)
                .run_to_completion(DEFAULT_MAX_STEPS)
                .expect("functional run of a demo program");
            let full = simulate_whole(&program, nthreads, &simcfg)
                .expect("full-detail reference simulation");
            Demo {
                program,
                nthreads,
                simcfg,
                insts,
                full_cycles: full.cycles as f64,
            }
        })
        .collect();
    let jobs = if run.args.smoke {
        SMOKE_JOBS_PER_PASS
    } else {
        JOBS_PER_PASS
    };
    let stream = job_stream(run.args.seed, jobs);
    let references = (0..demos.len())
        .filter_map(|demo| {
            let index = stream
                .iter()
                .position(|spec| demo_index(spec) == demo && spec.mode == "pipeline")?;
            let d = &demos[demo];
            let cfg = LoopPointConfig::with_slice_base(stream[index].slice_base);
            let local = run_job(
                &d.program,
                d.nthreads,
                &cfg,
                &d.simcfg,
                &SimOptions::default(),
                2,
                None,
            );
            Some((
                index,
                local.map(|s| s.to_value()).map_err(|e| e.to_string()),
            ))
        })
        .collect();
    Fixture {
        demos,
        stream,
        references,
    }
}

/// What a pass is for. Plain and spanned passes alternate in a traced
/// run and carry every timing; stored passes follow them, run the same
/// stream with an artifact store behind each daemon, and show what the
/// store costs a job.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PassKind {
    Plain,
    Spanned,
    Stored,
}

/// One pass: fresh daemon(s), the whole stream through the closed loop,
/// drain, read the counters, shut down.
struct PassSeen {
    kind: PassKind,
    boot_s: f64,
    wall_s: f64,
    /// Sorted by stream position.
    jobs: Vec<JobSeen>,
    submits: Vec<SubmitSeen>,
    refill_lag_ms: Vec<f64>,
    http_calls: u64,
    lost: Vec<String>,
    idle: bool,
    /// `GET /metrics.json` of every node.
    metrics: Vec<Value>,
    store_raw: u64,
    store_stored: u64,
    store_artifacts: usize,
    journal_bytes: u64,
}

impl PassSeen {
    fn done(&self) -> impl Iterator<Item = &JobSeen> {
        self.jobs
            .iter()
            .filter(|j| j.record.get("state").and_then(Value::as_str) == Some("done"))
    }

    /// Jobs that were computed, not answered by dedup or the done-cache.
    fn primaries(&self) -> impl Iterator<Item = &JobSeen> {
        self.jobs
            .iter()
            .filter(|j| matches!(j.record.get("dedup_of"), None | Some(Value::Null)))
    }

    fn complete(&self, stream: &[JobSpec]) -> bool {
        self.idle && self.done().count() == stream.len()
    }

    fn jobs_per_s(&self) -> f64 {
        self.done().count() as f64 / self.wall_s
    }

    fn cold_p50_ms(&self) -> f64 {
        stats::median(&self.primaries().map(|j| j.answer_ms).collect::<Vec<_>>())
    }

    fn counter(&self, name: &str) -> f64 {
        // `+ 0.0`: an empty f64 sum is -0.0, which would print as "-0".
        self.metrics
            .iter()
            .filter_map(|d| d.get("counters")?.get(name)?.as_f64())
            .sum::<f64>()
            + 0.0
    }

    fn unique_keys(&self) -> f64 {
        self.jobs
            .iter()
            .filter_map(|j| j.record.get("key")?.as_str())
            .collect::<BTreeSet<_>>()
            .len() as f64
    }
}

fn one_pass(
    run: &mut Run,
    topology: Topology,
    root: &Path,
    stream: &[JobSpec],
    kind: PassKind,
) -> io::Result<PassSeen> {
    let spanned = kind == PassKind::Spanned;
    let t = Instant::now();
    // The ring's ports are picked by binding port 0 and letting go again;
    // now and then something else takes one in between.
    let mut attempt = 0;
    let nodes = loop {
        attempt += 1;
        match boot(
            topology,
            &root.join(format!("boot-{attempt}")),
            kind == PassKind::Stored,
        ) {
            Err(e) if e.kind() == io::ErrorKind::AddrInUse && attempt < 3 => continue,
            booted => break booted?,
        }
    };
    // The daemon counts as up once it answers a request.
    FarmClient::connect(nodes[0].addr.as_str())
        .healthz()
        .map_err(|e| io::Error::other(format!("freshly booted daemon does not answer: {e}")))?;
    let boot_s = t.elapsed().as_secs_f64();

    let origin = run.process_start;
    let pass = run.tracer.pass();
    let entry = nodes[0].addr.clone();
    let shares: Vec<Vec<(usize, JobSpec)>> = (0..CLIENTS)
        .map(|c| {
            stream
                .iter()
                .cloned()
                .enumerate()
                .skip(c)
                .step_by(CLIENTS)
                .collect()
        })
        .collect();
    let started = Instant::now();
    let reports: Vec<(ClientReport, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .enumerate()
            .map(|(c, share)| {
                let entry = entry.as_str();
                scope.spawn(move || {
                    let mut tracer = Tracer::new(spanned, origin, c as u32 + 1);
                    tracer.set_pass(pass);
                    let report = client_loop(entry, share, &mut tracer);
                    (report, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let idle = nodes
        .iter()
        .all(|n| n.farm.wait_idle(Duration::from_secs(120)));
    let wall_s = started.elapsed().as_secs_f64();

    let mut seen = PassSeen {
        kind,
        boot_s,
        wall_s,
        jobs: Vec::new(),
        submits: Vec::new(),
        refill_lag_ms: Vec::new(),
        http_calls: nodes.len() as u64,
        lost: Vec::new(),
        idle,
        metrics: nodes
            .iter()
            .filter_map(|n| FarmClient::connect(n.addr.as_str()).metrics_json().ok())
            .collect(),
        store_raw: nodes
            .iter()
            .flat_map(|n| &n.store)
            .map(|s| s.stats().bytes_raw)
            .sum(),
        store_stored: nodes
            .iter()
            .flat_map(|n| &n.store)
            .map(|s| s.stats().bytes_stored)
            .sum(),
        store_artifacts: nodes.iter().flat_map(|n| &n.store).map(|s| s.len()).sum(),
        journal_bytes: nodes
            .iter()
            .filter_map(|n| std::fs::read_dir(&n.farm_dir).ok())
            .flatten()
            .filter_map(|entry| entry.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum(),
    };
    for (report, tracer) in reports {
        seen.jobs.extend(report.jobs);
        seen.submits.extend(report.submits);
        seen.refill_lag_ms.extend(report.refill_lag_ms);
        seen.http_calls += report.http_calls;
        seen.lost.extend(report.lost);
        run.tracer.absorb(tracer);
    }
    seen.jobs.sort_by_key(|j| j.index);
    if spanned {
        seen.http_calls += healthz_layer(run, &entry);
    }
    nodes.into_iter().for_each(Node::shutdown);
    Ok(seen)
}

fn percentile_pair(samples: &[f64], tail: f64) -> (f64, f64) {
    (stats::median(samples), stats::percentile(samples, tail))
}

/// The result fields that make up an estimate, as numbers (a whole cycle
/// count prints without a fraction and parses back as an integer).
fn estimate_fields(result: &Value) -> Vec<Option<f64>> {
    [
        "slices",
        "clusters",
        "regions",
        "predicted_cycles",
        "predicted_branch_mpki",
        "predicted_l2_mpki",
    ]
    .iter()
    .map(|f| result.get(f).and_then(Value::as_f64))
    .collect()
}

pub fn sweep(run: &mut Run, topology: Topology) {
    // ---- set-up: programs, references, stream; SETUPS times over ----------
    let before = run.process_start.elapsed().as_secs_f64();
    let mut fixed_s: Vec<f64> = Vec::new();
    let mut kept: Option<Fixture> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        kept = Some(fixture(run));
        fixed_s.push(t.elapsed().as_secs_f64());
    }
    let Fixture {
        demos,
        stream,
        references,
    } = kept.expect("SETUPS is at least one");
    let scratch = Scratch::new().expect("scratch directory inside the checkout");

    // ---- timed: passes until --seconds are measured -------------------------
    let traced = run.args.traced;
    let mut passes: Vec<PassSeen> = Vec::new();
    let measuring = Instant::now();
    let mut stored_left = if traced { STORED_PASSES } else { 0 };
    loop {
        let pass = passes.len() as u32 + 1;
        let timing_done = measuring.elapsed().as_secs_f64() >= run.args.seconds
            // A traced run's timing ends on a spanned pass, so both kinds are as many.
            && (!traced || passes.last().is_some_and(|p| p.kind != PassKind::Plain));
        let kind = match timing_done {
            true if stored_left == 0 => break,
            true => {
                stored_left -= 1;
                PassKind::Stored
            }
            false if traced && pass.is_multiple_of(2) => PassKind::Spanned,
            false => PassKind::Plain,
        };
        run.tracer.set_pass(pass);
        run.tracer.set_enabled(kind == PassKind::Spanned);
        match one_pass(
            run,
            topology,
            &scratch.0.join(format!("pass-{pass}")),
            &stream,
            kind,
        ) {
            Ok(seen) => {
                passes.push(seen);
                run.note_peak_rss();
            }
            Err(e) => {
                run.check("daemon_boots", false, &e.to_string());
                return;
            }
        }
    }
    run.tracer.set_enabled(false);
    let boots: Vec<f64> = passes.iter().map(|p| p.boot_s).collect();
    run.ledger.set(
        "setup_s",
        before + stats::median(&fixed_s) + stats::median(&boots),
    );

    // ---- operations and output checks ---------------------------------------
    for (n, pass) in passes.iter().enumerate() {
        for lost in &pass.lost {
            run.op(false, &format!("pass {}: {lost}", n + 1));
        }
        for job in &pass.jobs {
            let state = job
                .record
                .get("state")
                .and_then(Value::as_str)
                .unwrap_or("?");
            run.op(
                state == "done",
                &format!("pass {}: job {} ended {state}", n + 1, job.index),
            );
        }
    }
    // Each check holds on every pass; `failing` counts those where it does not.
    let failing = |ok: &dyn Fn(&PassSeen) -> bool| passes.iter().filter(|p| !ok(p)).count();
    let bad = failing(&|p| p.idle);
    run.check(
        "cluster_idle_after_every_pass",
        bad == 0,
        &format!("{bad} pass(es) left queued or running jobs"),
    );
    let bad = failing(&|p| {
        p.metrics.len()
            == if topology == Topology::Ring {
                WORKERS
            } else {
                1
            }
    });
    run.check(
        "every_node_serves_metrics_json",
        bad == 0,
        &format!("{bad} pass(es) missed a node"),
    );
    let specs = unique_specs(&stream) as f64;
    let computes = |p: &PassSeen| p.counter(lp_obs::names::FARM_COMPUTES);
    let bad = failing(&|p| computes(p) == specs && p.unique_keys() == specs);
    run.check(
        "one_compute_per_unique_key",
        bad == 0,
        &format!(
            "{bad} pass(es) off: {specs} unique specs, pass 1 made {} computes",
            computes(&passes[0])
        ),
    );
    let forwarded = |p: &PassSeen| p.counter(lp_obs::names::CLUSTER_FORWARDED);
    let bad = failing(&|p| (forwarded(p) > 0.0) == (topology == Topology::Ring));
    run.check(
        "forwarding_only_on_the_ring",
        bad == 0,
        &format!("{bad} pass(es) off"),
    );
    let estimates = |p: &PassSeen| -> Vec<Vec<Option<f64>>> {
        p.jobs
            .iter()
            .map(|j| {
                j.record
                    .get("result")
                    .map(estimate_fields)
                    .unwrap_or_default()
            })
            .collect()
    };
    if passes.len() > 1 {
        let first = estimates(&passes[0]);
        let bad = failing(&|p| estimates(p) == first);
        run.check(
            "passes_repeat",
            bad == 0,
            &format!("{bad} pass(es) answered differently from pass 1"),
        );
    }
    let first = &passes[0];
    for (index, local) in &references {
        let served = first
            .jobs
            .iter()
            .find(|j| j.index == *index)
            .and_then(|j| j.record.get("result"));
        let same = match (local, served) {
            (Ok(local), Some(served)) => {
                let fields = estimate_fields(local);
                fields.iter().all(Option::is_some) && fields == estimate_fields(served)
            }
            _ => false,
        };
        run.check(
            &format!("farm_result_equals_run_job_{}", stream[*index].program),
            same,
            &format!("served {served:?}, in-process {local:?}"),
        );
    }

    // Estimate served against the full-detail reference of its program.
    // Computed jobs only: which repeats a seed draws must not weigh in.
    let computed: Vec<&JobSeen> = first
        .primaries()
        .filter(|j| j.record.get("state").and_then(Value::as_str) == Some("done"))
        .collect();
    let estimates_vs_truth: Vec<(f64, f64)> = computed
        .iter()
        .filter_map(|j| {
            let result = j.record.get("result")?;
            let predicted = result
                .get("predicted_cycles")
                .or_else(|| result.get("est_cycles"))?
                .as_f64()?;
            Some((predicted, demos[demo_index(&stream[j.index])].full_cycles))
        })
        .collect();
    run.check(
        "every_computed_job_carries_an_estimate",
        estimates_vs_truth.len() == computed.len(),
        "a result lacked its cycle estimate",
    );
    let mean = |f: fn(f64, f64) -> f64| {
        estimates_vs_truth
            .iter()
            .map(|&(p, t)| f(p, t))
            .sum::<f64>()
            / estimates_vs_truth.len().max(1) as f64
    };
    run.ledger.set("accuracy_pct", mean(stats::agreement_pct));
    run.ledger.set("core.err_pct", mean(error_pct));

    // ---- timings: the upper-quartile pass of each kind ------------------------
    // Pass rates spread broadly (five threads on two shared vCPUs), so the
    // fastest pass is an extreme value that jumps from run to run and the
    // median sits among the disturbed ones; over ten 20 s runs the
    // quartile spread of the run's maximum was 11 %, of its median 7 %, of
    // its upper quartile 6 %. All of a kind's timings are read off that one
    // pass: the complete pass at the 75th percentile (nearest rank) by jobs/s.
    let quartile_pass = |kind: PassKind| {
        let mut complete: Vec<&PassSeen> = passes
            .iter()
            .filter(|p| p.kind == kind && p.complete(&stream))
            .collect();
        complete.sort_by(|a, b| a.jobs_per_s().total_cmp(&b.jobs_per_s()));
        let rank = (complete.len() * 3).div_ceil(4);
        complete.get(rank.saturating_sub(1)).copied()
    };
    let pass_insts: f64 = stream
        .iter()
        .map(|spec| demos[demo_index(spec)].insts as f64)
        .sum();
    println!(
        "{} pass(es) of {} jobs ({specs} unique specs) over {CLIENTS} connections, window {WINDOW}; jobs/s per pass: {}",
        passes.len(),
        stream.len(),
        passes
            .iter()
            .map(|p| format!("{:.1}{}", p.jobs_per_s(), if p.kind == PassKind::Stored { "s" } else { "" }))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let Some(plain) = quartile_pass(PassKind::Plain) else {
        return;
    };
    run.ledger.set("app_mips", pass_insts / plain.wall_s / 1e6);
    run.ledger.set("core.answer_p50_ms", plain.cold_p50_ms());
    let Some(layers) = quartile_pass(PassKind::Spanned) else {
        return;
    };

    let l = &mut run.ledger;
    l.set(
        "trace.overhead_pct",
        (layers.wall_s - plain.wall_s) / plain.wall_s * 100.0,
    );
    // Counters come from that pass; latency distributions pool every
    // complete spanned pass, so that their tails have samples.
    let pooled: Vec<&PassSeen> = passes
        .iter()
        .filter(|p| p.kind == PassKind::Spanned && p.complete(&stream))
        .collect();
    let record_ms = |j: &JobSeen, from: &str, to: &str| {
        (record_u64(&j.record, to) as f64 - record_u64(&j.record, from) as f64) / 1e3
    };
    let job_ms: Vec<f64> = pooled
        .iter()
        .flat_map(|p| p.jobs.iter())
        .map(|j| record_ms(j, "submitted_us", "finished_us"))
        .collect();
    // Cache hits and followers never queue; only computed jobs wait.
    let wait_ms: Vec<f64> = pooled
        .iter()
        .flat_map(|p| p.primaries())
        .filter(|j| record_u64(&j.record, "started_us") > 0)
        .map(|j| record_ms(j, "submitted_us", "started_us"))
        .collect();
    let submits = || pooled.iter().flat_map(|p| p.submits.iter());
    // One tail percentile for the run: the highest with ten samples
    // beyond it in the smallest population, the computed jobs.
    let tail = stats::tail_percentile(wait_ms.len());
    l.set("farm.tail_pctile", tail);
    l.set("farm.jobs_per_s", layers.jobs_per_s());
    let (p50, p_tail) = percentile_pair(&job_ms, tail);
    l.set("farm.job_p50_ms", p50);
    l.set("farm.job_tail_ms", p_tail);
    let (p50, p_tail) = percentile_pair(&wait_ms, tail);
    l.set("farm.queue_wait_p50_ms", p50);
    l.set("farm.queue_wait_tail_ms", p_tail);
    l.set("farm.computes", computes(layers));
    l.set(
        "farm.dedup_ratio",
        (layers.jobs.len() as f64 - computes(layers)) / layers.jobs.len().max(1) as f64,
    );
    l.set(
        "farm.useful_compute_ratio",
        layers.unique_keys() / computes(layers).max(1.0),
    );
    l.set(
        "farm.rejected_503",
        layers.counter(lp_obs::names::FARM_REJECTED),
    );
    l.set("farm.retries", layers.counter(lp_obs::names::FARM_RETRY));
    l.set(
        "farm.journal_fsyncs",
        layers.counter(lp_obs::names::FARM_JOURNAL_FSYNCS),
    );
    l.set("farm.journal_bytes", layers.journal_bytes as f64);

    let rtt: Vec<f64> = submits().map(|s| s.rtt_us).collect();
    let (p50, p_tail) = percentile_pair(&rtt, tail);
    l.set("proto.submit_rtt_p50_us", p50);
    l.set("proto.submit_rtt_tail_us", p_tail);
    let refill_lag_ms: Vec<f64> = pooled
        .iter()
        .flat_map(|p| p.refill_lag_ms.iter().copied())
        .collect();
    let (p50, p_tail) = percentile_pair(&refill_lag_ms, tail);
    l.set("gen.refill_lag_p50_ms", p50);
    l.set("gen.refill_lag_tail_ms", p_tail);

    // Forward hop: single-spec POSTs the ring forwarded against those
    // node 0 owned, by the client's clock.
    let single_rtt = |hopped: bool| -> Vec<f64> {
        submits()
            .filter(|s| s.single_forwarded == Some(hopped))
            .map(|s| s.rtt_us)
            .collect()
    };
    let (local, hopped) = (single_rtt(false), single_rtt(true));
    l.set("cluster.forwarded", forwarded(layers));
    if !hopped.is_empty() {
        l.set(
            "cluster.forward_hop_p50_us",
            stats::median(&hopped) - stats::median(&local),
        );
        l.set(
            "cluster.forward_hop_tail_us",
            stats::percentile(&hopped, tail) - stats::percentile(&local, tail),
        );
    }
    l.set(
        "cluster.fetch_hits",
        layers.counter(lp_obs::names::CLUSTER_FETCH_HITS),
    );
    l.set(
        "cluster.job_proxied",
        layers.counter(lp_obs::names::CLUSTER_JOB_PROXIED),
    );
    l.set(
        "cluster.recomputes",
        computes(layers) - layers.unique_keys(),
    );
    if let Some(stored) = quartile_pass(PassKind::Stored) {
        l.set("store.on_jobs_per_s", stored.jobs_per_s());
        l.set("store.tax_x", layers.jobs_per_s() / stored.jobs_per_s());
        l.set("store.artifacts", stored.store_artifacts as f64);
        l.set("store.bytes", stored.store_stored as f64);
        if stored.store_stored > 0 {
            l.set(
                "store.compression_x",
                stored.store_raw as f64 / stored.store_stored as f64,
            );
        }
    }
    l.set("http.calls", layers.http_calls as f64);
    l.set(
        "httpd.healthz_rps",
        HEALTHZ_REQUESTS as f64
            / crate::trace::best_pass_seconds(&run.tracer.spans, "httpd.healthz_loop"),
    );
    store_layer(run, &scratch.0, &demos[0]);
}

/// `GET /healthz` over one keep-alive connection: what the HTTP layer
/// alone sustains. Returns the requests made.
fn healthz_layer(run: &mut Run, addr: &str) -> u64 {
    const REQUESTS: usize = HEALTHZ_REQUESTS;
    let mut client = HttpClient::new(addr);
    let mut rtt_us: Vec<f64> = Vec::with_capacity(REQUESTS);
    let mut ok = 0usize;
    let open = run.tracer.begin("httpd.healthz_loop");
    for _ in 0..REQUESTS {
        let t = Instant::now();
        if matches!(client.request("GET", "/healthz", ""), Ok((200, _))) {
            ok += 1;
        }
        rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    run.tracer.end(open);
    run.check(
        "healthz_always_200",
        ok == REQUESTS,
        &format!("{ok} of {REQUESTS} answered 200"),
    );
    run.ledger.set("httpd.req_p50_us", stats::median(&rtt_us));
    run.ledger.set(
        "httpd.req_tail_us",
        stats::percentile(&rtt_us, stats::tail_percentile(REQUESTS)),
    );
    REQUESTS as u64
}

/// Timed `Store::save` and `Store::load` of the four artifacts one job
/// produces, in a store of the benchmark's own.
fn store_layer(run: &mut Run, root: &Path, demo: &Demo) {
    const ROUNDS: u64 = 20;
    let cfg = LoopPointConfig::with_slice_base(4_000);
    let artifacts = analyze(&demo.program, demo.nthreads, &cfg).and_then(|analysis| {
        let prepared = prepare_region_checkpoints(&analysis, &demo.program, 2)?;
        Ok(vec![
            (ArtifactKind::Pinball, analysis.pinball.to_bytes()),
            (
                ArtifactKind::BbvMatrix,
                looppoint::persist::encode_profile(&analysis.profile),
            ),
            (
                ArtifactKind::Clustering,
                looppoint::persist::encode_clustering(&analysis.clustering),
            ),
            (
                ArtifactKind::Checkpoints,
                looppoint::persist::encode_checkpoints(&prepared),
            ),
        ])
    });
    let store = Store::open(root.join("store-layer"), Observer::disabled());
    let (Ok(artifacts), Ok(store)) = (artifacts, store) else {
        run.check(
            "store_layer_inputs",
            false,
            "could not produce artifacts or open a store",
        );
        return;
    };
    let key = |round: u64, kind: ArtifactKind| {
        StoreKeyBuilder::new("lp-perf/store-layer")
            .field_u64("round", round)
            .field_str("kind", kind.tag())
            .finish()
    };
    let bytes = ROUNDS as f64 * artifacts.iter().map(|(_, b)| b.len() as f64).sum::<f64>();
    let (saved, save_s) = run.tracer.timed("store.save", || {
        (0..ROUNDS).all(|round| {
            artifacts
                .iter()
                .all(|(kind, payload)| store.save(&key(round, *kind), *kind, payload).is_ok())
        })
    });
    let (loaded, load_s) = run.tracer.timed("store.load", || {
        (0..ROUNDS).all(|round| {
            artifacts.iter().all(|(kind, payload)| {
                store.load(&key(round, *kind), *kind).as_ref() == Some(payload)
            })
        })
    });
    run.check(
        "store_round_trip",
        saved && loaded,
        "an artifact did not load back as saved",
    );
    run.ledger
        .set("store.calls", (2 * ROUNDS * artifacts.len() as u64) as f64);
    run.ledger.set("store.save_mbps", bytes / save_s / 1e6);
    run.ledger.set("store.load_mbps", bytes / load_s / 1e6);
}
