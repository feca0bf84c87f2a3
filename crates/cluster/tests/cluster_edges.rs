//! In-process multi-node integration tests: forwarding, cluster-wide
//! dedup through one shared store directory, live partials, protocol
//! negotiation, and failover re-adoption — the cluster contracts that
//! need real sockets and real journals but not real workloads.

use lp_cluster::{spawn_node, ClusterConfig, NodeSpec, Ring, RunningNode};
use lp_farm::{FarmConfig, JobBackend, JobSpec, ShutdownMode};
use lp_farm_proto::{FarmClient, FORWARDED_HEADER, PROTO_HEADER};
use lp_obs::{names, Observer};
use lp_store::{ArtifactKind, Store, StoreKey};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "lp-cluster-test-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Grabs a free loopback port by binding to `:0` and releasing it.
fn free_addr() -> String {
    let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    format!("127.0.0.1:{}", l.local_addr().unwrap().port())
}

fn wait_until(mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
    let start = std::time::Instant::now();
    while start.elapsed() < timeout {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    cond()
}

/// The content key the mock backend derives — same function on every
/// node, 32 hex chars so the key participates in the ring and the
/// store.
fn mock_key(spec: &JobSpec) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{}|{}|{}", spec.program, spec.input, spec.ncores).bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    let h2 = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
    format!("{h:016x}{h2:016x}")
}

/// Content-keyed mock workload: memoizes its summary in the node's
/// store (as the real pipeline backend does), counts true computes,
/// streams [`MOCK_PARTIALS`] partial results per compute (as a live job
/// does), and optionally blocks while `gate` is up so a job can be
/// pinned inside a node we are about to crash.
/// Partial-result lines the mock streams per compute.
const MOCK_PARTIALS: u64 = 3;

struct MockBackend {
    computes: Arc<AtomicU64>,
    store: Option<Arc<Store>>,
    gate: Option<Arc<AtomicBool>>,
}

impl JobBackend for MockBackend {
    fn job_key(&self, spec: &JobSpec) -> Result<String, String> {
        Ok(mock_key(spec))
    }

    fn execute(
        &self,
        spec: &JobSpec,
        cancel: &looppoint::CancelToken,
        progress: &mut dyn FnMut(String),
    ) -> Result<String, String> {
        if let Some(gate) = &self.gate {
            while gate.load(Ordering::SeqCst) {
                if cancel.is_cancelled() {
                    return Err("cancelled while gated".to_string());
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        let key = StoreKey::from_hex(&mock_key(spec)).expect("mock keys are store-shaped");
        if let Some(store) = &self.store {
            if let Some(cached) = store.load(&key, ArtifactKind::JobSummary) {
                return String::from_utf8(cached).map_err(|e| e.to_string());
            }
        }
        self.computes.fetch_add(1, Ordering::SeqCst);
        for i in 1..=MOCK_PARTIALS {
            progress(format!(r#"{{"partial":{i}}}"#));
        }
        let summary = format!(r#"{{"program":"{}","regions":3}}"#, spec.program);
        if let Some(store) = &self.store {
            store
                .save(&key, ArtifactKind::JobSummary, summary.as_bytes())
                .map_err(|e| e.to_string())?;
        }
        Ok(summary)
    }
}

struct TestNode {
    running: RunningNode,
    addr: String,
    computes: Arc<AtomicU64>,
    obs: Observer,
}

impl TestNode {
    fn client(&self) -> FarmClient {
        let mut c = FarmClient::connect(self.addr.clone());
        c.set_timeout(Duration::from_secs(5));
        c
    }
}

/// The member list for `addrs`, each with its journal directory under
/// `root` (the `addr=dir` form adoption reads).
fn peer_specs(root: &Path, addrs: &[String]) -> Vec<NodeSpec> {
    addrs
        .iter()
        .enumerate()
        .map(|(i, a)| NodeSpec {
            addr: a.clone(),
            dir: Some(root.join(format!("farm-{i}"))),
        })
        .collect()
}

/// Boots member `i` of `peers`: its own journal and observer, a mock
/// backend, and a handle of its own onto the one store directory the
/// whole ring shares; `gate` pins its executes while up.
fn boot_node(root: &Path, i: usize, peers: &[NodeSpec], gate: Option<Arc<AtomicBool>>) -> TestNode {
    let addr = peers[i].addr.clone();
    let obs = Observer::enabled();
    let store = Arc::new(Store::open(root.join("store"), obs.clone()).unwrap());
    let computes = Arc::new(AtomicU64::new(0));
    let backend = Arc::new(MockBackend {
        computes: Arc::clone(&computes),
        store: Some(Arc::clone(&store)),
        gate,
    });
    let running = spawn_node(
        &addr,
        ClusterConfig {
            self_addr: addr.clone(),
            peers: peers.to_vec(),
            vnodes: 64,
            heartbeat_ms: 100,
            failure_threshold: 3,
            rpc_timeout_ms: 2_000,
        },
        FarmConfig {
            workers: 2,
            dir: peers[i].dir.clone(),
            journal_flush_ms: 0,
            history_interval_ms: 50,
            ..FarmConfig::default()
        },
        backend,
        Some(store),
        obs.clone(),
    )
    .unwrap();
    TestNode {
        running,
        addr,
        computes,
        obs,
    }
}

/// Boots `addrs.len()` nodes under `root` over one shared store
/// directory; `gates[i]` pins node i's executes while up.
fn boot_cluster(root: &Path, addrs: &[String], gates: &[Option<Arc<AtomicBool>>]) -> Vec<TestNode> {
    let peers = peer_specs(root, addrs);
    (0..addrs.len())
        .map(|i| boot_node(root, i, &peers, gates.get(i).cloned().flatten()))
        .collect()
}

/// A spec whose content key the given ring member owns.
fn spec_owned_by(ring: &Ring, owner: &str) -> JobSpec {
    for i in 0..10_000 {
        let spec = JobSpec {
            program: format!("wl-{i}"),
            ..JobSpec::default()
        };
        let key = StoreKey::from_hex(&mock_key(&spec)).unwrap();
        if ring.owner(&key.0) == Some(owner) {
            return spec;
        }
    }
    panic!("no spec found owned by {owner}");
}

fn ordinal(addrs: &[String], addr: &str) -> u64 {
    let mut sorted: Vec<&String> = addrs.iter().collect();
    sorted.sort();
    sorted.iter().position(|a| *a == addr).unwrap() as u64
}

#[test]
fn forwarded_submit_returns_owner_range_id() {
    let root = tmpdir("forward");
    let addrs = vec![free_addr(), free_addr()];
    let nodes = boot_cluster(&root, &addrs, &[None, None]);
    let ring = Ring::build(&addrs, 64);

    // A spec owned by node B, submitted to node A, must come back with
    // an id carved from B's range — proof the submission crossed nodes.
    let spec = spec_owned_by(&ring, &addrs[1]);
    let (status, outcomes) = nodes[0]
        .client()
        .submit(std::slice::from_ref(&spec), None)
        .unwrap();
    assert_eq!(status, 202);
    let id = outcomes[0].id().expect("forwarded submit accepted");
    assert_eq!(
        id >> lp_cluster::ID_RANGE_BITS,
        ordinal(&addrs, &addrs[1]) + 1,
        "id {id:#x} not in the owner's range"
    );

    // The job record lives on the owner and completes there.
    let mut owner_client = nodes[1].client();
    assert!(
        wait_until(
            || owner_client
                .job(id)
                .map(|j| j.is_terminal())
                .unwrap_or(false),
            Duration::from_secs(10),
        ),
        "forwarded job never finished on the owner"
    );
    assert_eq!(owner_client.job(id).unwrap().state, "done");
    assert_eq!(nodes[1].computes.load(Ordering::SeqCst), 1);
    assert_eq!(nodes[0].computes.load(Ordering::SeqCst), 0);
    assert!(nodes[0].obs.counter(names::CLUSTER_FORWARDED).get() >= 1);

    // /healthz on any member reports the cluster block.
    let health = nodes[0].client().healthz().unwrap();
    let cluster = health.get("cluster").expect("healthz cluster block");
    assert_eq!(cluster.get("ring_nodes").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(cluster.get("peers_alive").and_then(|v| v.as_u64()), Some(2));

    for node in nodes {
        node.running.shutdown(ShutdownMode::Drain);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn incompatible_protocol_version_is_rejected_with_426() {
    let root = tmpdir("proto");
    let addrs = vec![free_addr()];
    let nodes = boot_cluster(&root, &addrs, &[None]);

    let mut raw = lp_obs::http::HttpClient::new(addrs[0].clone());
    let resp = raw
        .send(
            "GET",
            "/healthz",
            &[(PROTO_HEADER.to_string(), "999".to_string())],
            &[],
            None,
            true,
        )
        .unwrap();
    assert_eq!(resp.status, 426);
    // Every response (including the refusal) advertises the server's
    // version so the client knows what to upgrade to.
    assert_eq!(resp.header(PROTO_HEADER), Some("1"));

    // Legacy clients (no header) still pass.
    let resp = raw.send("GET", "/healthz", &[], &[], None, true).unwrap();
    assert_eq!(resp.status, 200);

    for node in nodes {
        node.running.shutdown(ShutdownMode::Drain);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cross_node_dedup_reads_the_owner_result_from_the_shared_store() {
    let root = tmpdir("dedup");
    let addrs = vec![free_addr(), free_addr(), free_addr()];
    let nodes = boot_cluster(&root, &addrs, &[None, None, None]);
    let ring = Ring::build(&addrs, 64);

    // Owned by A. Nothing travels from A to C but the shared store
    // directory, so C answering without a compute proves the ring
    // shares results through it.
    let spec = spec_owned_by(&ring, &addrs[0]);

    let (status, outcomes) = nodes[0]
        .client()
        .submit(std::slice::from_ref(&spec), None)
        .unwrap();
    assert_eq!(status, 202);
    let first_id = outcomes[0].id().unwrap();
    let mut a_client = nodes[0].client();
    assert!(wait_until(
        || a_client
            .job(first_id)
            .map(|j| j.is_terminal())
            .unwrap_or(false),
        Duration::from_secs(10),
    ));
    assert_eq!(nodes[0].computes.load(Ordering::SeqCst), 1);

    // Same work submitted to C, marked forwarded so C must handle it
    // locally instead of handing it back to A.
    let (status, outcomes) = nodes[2]
        .client()
        .submit_with(
            &[spec],
            None,
            &[(FORWARDED_HEADER.to_string(), "1".to_string())],
        )
        .unwrap();
    assert_eq!(status, 202);
    let second_id = outcomes[0].id().unwrap();
    assert_eq!(
        second_id >> lp_cluster::ID_RANGE_BITS,
        ordinal(&addrs, &addrs[2]) + 1,
        "forced-local submit must use C's id range"
    );
    let mut c_client = nodes[2].client();
    assert!(wait_until(
        || c_client
            .job(second_id)
            .map(|j| j.is_terminal())
            .unwrap_or(false),
        Duration::from_secs(10),
    ));
    let record = c_client.job(second_id).unwrap();
    assert_eq!(record.state, "done");
    assert_eq!(
        record
            .result
            .as_ref()
            .and_then(|r| r.get("regions"))
            .and_then(|v| v.as_u64()),
        Some(3),
        "the shared-store summary must parse as the job summary"
    );

    // The cluster computed once, total; C's answer came from the store
    // A wrote.
    assert_eq!(nodes[2].computes.load(Ordering::SeqCst), 0);
    let total: u64 = nodes
        .iter()
        .map(|n| n.computes.load(Ordering::SeqCst))
        .sum();
    assert_eq!(
        total, 1,
        "cluster-wide dedup must collapse N submits to 1 compute"
    );

    for node in nodes {
        node.running.shutdown(ShutdownMode::Drain);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn live_partials_stream_through_a_ring_node() {
    let root = tmpdir("partials");
    let addrs = vec![free_addr()];
    let nodes = boot_cluster(&root, &addrs, &[None]);
    let node = &nodes[0];

    let spec = JobSpec {
        program: "live-wl".to_string(),
        ..JobSpec::default()
    };
    let (status, outcomes) = node.client().submit(&[spec], None).unwrap();
    assert_eq!(status, 202);
    let id = outcomes[0].id().unwrap();
    let mut client = node.client();
    assert!(wait_until(
        || client.job(id).map(|j| j.is_terminal()).unwrap_or(false),
        Duration::from_secs(10),
    ));

    // Every partial the backend streamed reaches the farm's buffer and
    // the NDJSON view, record last.
    let partials = node.running.farm.progress(id, 0).unwrap();
    assert_eq!(partials.len(), MOCK_PARTIALS as usize, "{partials:?}");
    let (streamed, record) = client.job_stream(id, 0).unwrap();
    assert_eq!(streamed.len(), MOCK_PARTIALS as usize);
    assert_eq!(
        streamed
            .last()
            .and_then(|p| p.get("partial"))
            .and_then(|v| v.as_u64()),
        Some(MOCK_PARTIALS)
    );
    assert_eq!(record.state, "done");

    for node in nodes {
        node.running.shutdown(ShutdownMode::Drain);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_posted_artifact_is_refused_and_never_becomes_a_result() {
    let root = tmpdir("forge");
    let addrs = vec![free_addr()];
    let nodes = boot_cluster(&root, &addrs, &[None]);
    let node = &nodes[0];

    let spec = JobSpec {
        program: "forge-wl".to_string(),
        ..JobSpec::default()
    };
    let path = format!("/cluster/artifact/{}?kind=jobsummary", mock_key(&spec));
    let resp = node
        .client()
        .http()
        .send("POST", &path, &[], br#"{"forged":true}"#, None, true)
        .unwrap();
    assert!(
        !(200..300).contains(&resp.status),
        "POST {path} answered {}",
        resp.status
    );

    let (status, outcomes) = node.client().submit(&[spec], None).unwrap();
    assert_eq!(status, 202);
    let id = outcomes[0].id().unwrap();
    let mut client = node.client();
    assert!(wait_until(
        || client.job(id).map(|j| j.is_terminal()).unwrap_or(false),
        Duration::from_secs(10),
    ));
    let record = client.job(id).unwrap();
    let result = record.result.expect("done job carries its result");
    assert_eq!(result.get("forged"), None, "{result}");
    assert_eq!(
        result.get("regions").and_then(|v| v.as_u64()),
        Some(3),
        "{result}"
    );
    assert_eq!(node.computes.load(Ordering::SeqCst), 1);

    for node in nodes {
        node.running.shutdown(ShutdownMode::Drain);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Pulls a string out of an event's `args`.
fn arg_str<'a>(event: &'a lp_obs::json::Value, key: &str) -> Option<&'a str> {
    event.get("args")?.get(key)?.as_str()
}

#[test]
fn forwarded_job_trace_assembles_across_nodes_into_one_tree() {
    let root = tmpdir("xtrace");
    let addrs = vec![free_addr(), free_addr(), free_addr()];
    let nodes = boot_cluster(&root, &addrs, &[None, None, None]);
    let ring = Ring::build(&addrs, 64);

    // Submitted to node 0, owned (and executed) by node 1; node 2 is a
    // bystander that saw nothing of the job.
    let spec = spec_owned_by(&ring, &addrs[1]);
    let (status, outcomes) = nodes[0].client().submit(&[spec], None).unwrap();
    assert_eq!(status, 202);
    let (id, trace_hex) = match &outcomes[0] {
        lp_farm_proto::SubmitOutcome::Accepted { id, trace_id, .. } => (
            *id,
            trace_id.clone().expect("accepted outcome carries trace id"),
        ),
        other => panic!("submit not accepted: {other:?}"),
    };
    let mut owner_client = nodes[1].client();
    assert!(wait_until(
        || owner_client
            .job(id)
            .map(|j| j.is_terminal())
            .unwrap_or(false),
        Duration::from_secs(10),
    ));

    // Satellite: /jobs/{id}/trace answered by nodes that never ran the
    // job — the id's high bits name the home node and the request is
    // proxied there instead of 404ing.
    for node in [&nodes[0], &nodes[2]] {
        let doc = node
            .client()
            .trace_document(id)
            .expect("non-owner must proxy the job trace to the home node");
        assert!(
            doc.get("traceEvents")
                .and_then(lp_obs::json::Value::as_arr)
                .is_some_and(|evs| !evs.is_empty()),
            "proxied trace must carry the owner's events"
        );
    }
    assert!(nodes[0].obs.counter(names::CLUSTER_TRACE_PROXIED).get() >= 1);

    // Tentpole: the merged cross-node trace, assembled by the
    // bystander, holds the submit node's forward span AND the owner's
    // job root in one tree under the submission's trace id, each node
    // on its own ordinal-pid lane.
    let doc = nodes[2]
        .client()
        .cluster_trace(&trace_hex)
        .expect("any member assembles the cluster trace");
    let events = doc
        .get("traceEvents")
        .and_then(lp_obs::json::Value::as_arr)
        .expect("merged document has traceEvents");

    let forward = events
        .iter()
        .find(|e| e.get("name").and_then(|n| n.as_str()) == Some(names::SPAN_CLUSTER_FORWARD))
        .expect("merged trace holds the submit node's forward span");
    let job_root = events
        .iter()
        .find(|e| e.get("name").and_then(|n| n.as_str()) == Some(names::SPAN_FARM_JOB))
        .expect("merged trace holds the owner's job root");
    assert_eq!(arg_str(forward, "trace_id"), Some(trace_hex.as_str()));
    assert_eq!(arg_str(job_root, "trace_id"), Some(trace_hex.as_str()));
    assert_eq!(
        arg_str(job_root, "parent_span_id"),
        arg_str(forward, "span_id"),
        "the owner's job root must parent under the submit node's forward span"
    );
    assert_eq!(
        forward.get("pid").and_then(|p| p.as_u64()),
        Some(ordinal(&addrs, &addrs[0])),
        "forward span rides the submit node's ordinal lane"
    );
    assert_eq!(
        job_root.get("pid").and_then(|p| p.as_u64()),
        Some(ordinal(&addrs, &addrs[1])),
        "job root rides the owner's ordinal lane"
    );

    // Each contributing node labels its pid lane with its address.
    let lane_names: Vec<(u64, String)> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .filter_map(|e| {
            Some((
                e.get("pid")?.as_u64()?,
                e.get("args")?.get("name")?.as_str()?.to_string(),
            ))
        })
        .collect();
    for (node_addr, expect_ordinal) in [(&addrs[0], 0), (&addrs[1], 1)] {
        let expect_ordinal = ordinal(&addrs, addrs[expect_ordinal].as_str());
        assert!(
            lane_names
                .iter()
                .any(|(pid, name)| *pid == expect_ordinal && name.contains(node_addr.as_str())),
            "missing process_name lane for {node_addr}: {lane_names:?}"
        );
    }
    assert!(
        doc.get("otherData")
            .and_then(|o| o.get("nodes"))
            .and_then(|n| n.as_u64())
            .is_some_and(|n| n >= 2),
        "at least the submit node and the owner contribute fragments"
    );

    for node in nodes {
        node.running.shutdown(ShutdownMode::Drain);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn federated_metrics_roll_up_to_the_sum_and_history_accumulates() {
    let root = tmpdir("federate");
    let addrs = vec![free_addr(), free_addr(), free_addr()];
    let nodes = boot_cluster(&root, &addrs, &[None, None, None]);

    // Six distinct jobs, two owned by each member (so every node's
    // snapshot carries a farm.submitted series), all entering through
    // node 0 — forwarding scatters them to their owners.
    let ring = Ring::build(&addrs, 64);
    let mut by_owner: std::collections::HashMap<String, Vec<JobSpec>> =
        std::collections::HashMap::new();
    for i in 0.. {
        let spec = JobSpec {
            program: format!("fed-wl-{i}"),
            ..JobSpec::default()
        };
        let key = StoreKey::from_hex(&mock_key(&spec)).unwrap();
        let owner = ring.owner(&key.0).unwrap().to_string();
        let owned = by_owner.entry(owner).or_default();
        if owned.len() < 2 {
            owned.push(spec);
        }
        if by_owner.len() == addrs.len() && by_owner.values().all(|v| v.len() == 2) {
            break;
        }
    }
    for spec in by_owner.values().flatten() {
        let (status, _) = nodes[0]
            .client()
            .submit(std::slice::from_ref(spec), None)
            .unwrap();
        assert_eq!(status, 202);
    }
    for node in &nodes {
        let mut c = node.client();
        assert!(wait_until(
            || c.queue()
                .ok()
                .and_then(|q| {
                    let n = |k: &str| q.get(k).and_then(lp_obs::json::Value::as_u64);
                    Some(n("queued")? == 0 && n("running")? == 0)
                })
                .unwrap_or(false),
            Duration::from_secs(10),
        ));
    }

    // Satellite: every member's /healthz reports its cluster identity
    // top-level.
    for (i, node) in nodes.iter().enumerate() {
        let health = node.client().healthz().unwrap();
        assert_eq!(
            health.get("node").and_then(|v| v.as_str()),
            Some(addrs[i].as_str())
        );
        assert_eq!(
            health.get("ordinal").and_then(|v| v.as_u64()),
            Some(ordinal(&addrs, &addrs[i]))
        );
        assert_eq!(health.get("peers_alive").and_then(|v| v.as_u64()), Some(3));
    }

    // Tentpole: the federated document carries all three nodes and its
    // rollup equals the per-node sum, counter by counter.
    let doc = nodes[0].client().cluster_metrics().unwrap();
    let per_node = doc
        .get("nodes")
        .and_then(lp_obs::json::Value::as_arr)
        .expect("federated document has nodes");
    assert_eq!(per_node.len(), 3);
    let node_counter = |n: &lp_obs::json::Value, name: &str| {
        n.get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    let summed: u64 = per_node
        .iter()
        .map(|n| node_counter(n, names::FARM_SUBMITTED))
        .sum();
    let rollup = doc
        .get("rollup")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get(names::FARM_SUBMITTED))
        .and_then(|v| v.as_u64())
        .expect("rollup carries farm.submitted");
    assert_eq!(rollup, summed, "rollup must equal the per-node sum");
    assert!(summed >= 6, "all six submissions land somewhere");
    assert_eq!(
        doc.get("errors")
            .and_then(lp_obs::json::Value::as_arr)
            .map(|e| e.len()),
        Some(0),
        "all members reachable"
    );

    // The Prometheus rendering labels per-node series and repeats the
    // rollup unlabelled.
    let text = {
        let mut c = nodes[1].client();
        let resp = c
            .http()
            .send(
                "GET",
                "/cluster/metrics?format=prometheus",
                &[],
                &[],
                None,
                true,
            )
            .unwrap();
        assert_eq!(resp.status, 200);
        resp.text()
    };
    for addr in &addrs {
        assert!(
            text.contains(&format!("farm_submitted{{node=\"{addr}\"}}")),
            "missing labelled series for {addr}"
        );
    }
    assert!(
        text.lines()
            .any(|l| l.starts_with("farm_submitted ") && !l.contains('{')),
        "missing unlabelled rollup series"
    );

    // Time-series history: the sampler (50 ms cadence here) accumulates
    // NDJSON samples, and `since=` resumes mid-stream.
    let mut c = nodes[0].client();
    assert!(wait_until(
        || c.metrics_history(0)
            .map(|body| body.lines().filter(|l| !l.trim().is_empty()).count() >= 2)
            .unwrap_or(false),
        Duration::from_secs(5),
    ));
    let all = c.metrics_history(0).unwrap();
    let first_seq = lp_obs::json::parse(all.lines().next().unwrap())
        .unwrap()
        .get("seq")
        .and_then(|s| s.as_u64())
        .unwrap();
    let resumed = c.metrics_history(first_seq).unwrap();
    assert!(
        resumed.lines().filter(|l| !l.trim().is_empty()).count()
            < all.lines().filter(|l| !l.trim().is_empty()).count(),
        "since= must skip already-consumed samples"
    );
    let first_resumed = lp_obs::json::parse(resumed.lines().next().unwrap()).unwrap();
    assert!(
        first_resumed.get("seq").and_then(|s| s.as_u64()).unwrap() > first_seq,
        "resumed stream starts after the since marker"
    );
    let sample_values = first_resumed.get("values").expect("sample carries values");
    for label in ["farm.done.rate", "farm.queue.depth", "farm.dedup.ratio"] {
        assert!(
            sample_values.get(label).is_some(),
            "history sample missing series {label}"
        );
    }

    for node in nodes {
        node.running.shutdown(ShutdownMode::Drain);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dead_node_journal_is_adopted_and_completed_by_the_survivor() {
    let root = tmpdir("adopt");
    let addrs = vec![free_addr(), free_addr()];
    // Node B's backend is gated: its job starts but can never finish,
    // so the journal still holds it when B "crashes".
    let gate = Arc::new(AtomicBool::new(true));
    let mut nodes = boot_cluster(&root, &addrs, &[None, Some(Arc::clone(&gate))]);
    let ring = Ring::build(&addrs, 64);

    let spec = spec_owned_by(&ring, &addrs[1]);
    let (status, outcomes) = nodes[1].client().submit(&[spec], None).unwrap();
    assert_eq!(status, 202);
    let id = outcomes[0].id().unwrap();
    assert_eq!(
        id >> lp_cluster::ID_RANGE_BITS,
        ordinal(&addrs, &addrs[1]) + 1
    );

    // Give the journal a beat to persist the enqueue, then crash B
    // without draining. Its gated worker thread is left behind, still
    // blocked, exactly like a process that died mid-job.
    std::thread::sleep(Duration::from_millis(200));
    let b = nodes.remove(1);
    b.running.abandon();

    // A's heartbeat declares B dead (3 failures x 100ms), adopts B's
    // journal, re-runs the job under its original id, and finishes it —
    // A's backend has no gate.
    let mut a_client = nodes[0].client();
    assert!(
        wait_until(
            || { a_client.job(id).map(|j| j.state == "done").unwrap_or(false) },
            Duration::from_secs(15),
        ),
        "survivor never completed the dead node's job"
    );
    assert!(nodes[0].obs.counter(names::CLUSTER_ADOPTED).get() >= 1);
    assert!(nodes[0].obs.counter(names::CLUSTER_PEER_DEATHS).get() >= 1);
    assert_eq!(nodes[0].computes.load(Ordering::SeqCst), 1);

    // The dead node's journal was quarantined so a resurrected B will
    // not re-run the adopted work.
    let adopted_marker = std::fs::read_dir(root.join("farm-1"))
        .unwrap()
        .filter_map(|e| e.ok())
        .any(|e| e.file_name().to_string_lossy().ends_with(".adopted"));
    assert!(adopted_marker, "adoption must rename the dead journal");

    gate.store(false, Ordering::SeqCst);
    for node in nodes {
        node.running.shutdown(ShutdownMode::Drain);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unreadable_dead_journal_counts_one_adopt_error() {
    let root = tmpdir("adopt-garbage");
    // The second member never starts; its journal directory holds a
    // snapshot that is not JSON.
    let addrs = vec![free_addr(), free_addr()];
    let peers = peer_specs(&root, &addrs);
    let dead_dir = root.join("farm-1");
    std::fs::create_dir_all(&dead_dir).unwrap();
    let garbage = dead_dir.join(lp_farm::JOURNAL_FILE);
    std::fs::write(&garbage, b"\x00 not a journal {").unwrap();
    let node = boot_node(&root, 0, &peers, None);

    // The survivor declares the peer dead, is the agreed adopter, fails
    // to read the journal, counts it once, and keeps serving.
    assert!(
        wait_until(
            || node.obs.counter(names::CLUSTER_ADOPT_ERRORS).get() >= 1,
            Duration::from_secs(5),
        ),
        "the unreadable journal was never counted"
    );
    assert!(node.obs.counter(names::CLUSTER_PEER_DEATHS).get() >= 1);
    assert_eq!(node.obs.counter(names::CLUSTER_ADOPT_ERRORS).get(), 1);
    assert_eq!(node.obs.counter(names::CLUSTER_ADOPTED).get(), 0);
    assert!(garbage.exists(), "an unread journal is not quarantined");
    assert!(node.client().healthz().is_ok());

    node.running.shutdown(ShutdownMode::Drain);
    let _ = std::fs::remove_dir_all(&root);
}
