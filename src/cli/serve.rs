//! `run-looppoint serve`: the lp-farm analysis daemon, plain or as one
//! node of a cluster.

use super::{config_error, open_store, Matches};
use lp_cluster::{ClusterConfig, ClusterNode, NodeSpec, RunningNode};
use lp_farm::{Farm, FarmConfig, FarmServer, PipelineBackend, ShutdownMode};
use lp_obs::{lp_info, lp_warn, Observer};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// What `serve` runs: a farm behind its HTTP front door, or the same
/// behind a cluster node (consistent-hash forwarding, artifact exchange,
/// heartbeat liveness, failover adoption).
enum Daemon {
    Plain(Farm, FarmServer),
    Node(Box<RunningNode>),
}

impl Daemon {
    fn parts(&self) -> (&Farm, &FarmServer) {
        match self {
            Daemon::Plain(farm, server) => (farm, server),
            Daemon::Node(running) => (&running.farm, &running.server),
        }
    }

    fn stop(self, mode: ShutdownMode) {
        match self {
            Daemon::Plain(farm, server) => {
                farm.shutdown(mode);
                farm.join();
                server.stop();
            }
            Daemon::Node(running) => running.shutdown(mode),
        }
    }
}

/// The ring `me` joins: members learned from `--join`, the static
/// `--cluster-peer`s, and itself.
fn cluster_config(m: &Matches, me: NodeSpec) -> Result<ClusterConfig, String> {
    let mut peers: Vec<NodeSpec> = Vec::new();
    for peer in m.all("--cluster-peer") {
        peers.push(NodeSpec::parse(peer)?);
    }
    if let Some(seed) = m.opt::<String>("--join") {
        let learned = ClusterNode::join_via(&seed, &me)
            .map_err(|e| format!("joining cluster via {seed}: {e}"))?;
        for peer in learned {
            if !peers.iter().any(|p| p.addr == peer.addr) {
                peers.push(peer);
            }
        }
    }
    Ok(ClusterConfig {
        self_addr: me.addr.clone(),
        peers: peers.into_iter().chain([me]).collect(),
        vnodes: m.get("--vnodes"),
        heartbeat_ms: m.get("--heartbeat-ms"),
        failure_threshold: m.get("--failure-threshold"),
        rpc_timeout_ms: m.get("--rpc-timeout-ms"),
    })
}

/// Start → announce → wait for `POST /shutdown` → stop.
pub fn run(m: &Matches) -> ExitCode {
    lp_obs::set_log_level(m.get("--log-level"));
    let cfg = FarmConfig {
        workers: m.get("--workers"),
        queue_capacity: m.get("--queue-capacity"),
        max_attempts: m.get("--max-attempts"),
        default_timeout_ms: m.get("--job-timeout-ms"),
        dir: m.opt::<String>("--farm-dir").map(PathBuf::from),
        journal_flush_ms: m.get("--journal-flush-ms"),
        journal_compact_factor: m.get("--journal-compact-factor"),
        trace_capacity: m.get("--trace-capacity"),
        history_interval_ms: m.get("--history-interval-ms"),
        history_capacity: m.get("--history-capacity"),
        ..FarmConfig::default()
    };
    let node_addr = m.opt::<String>("--node-addr");
    if node_addr.is_none() && (!m.all("--cluster-peer").is_empty() || m.on("--join")) {
        return config_error("--cluster-peer/--join require --node-addr (see --help)");
    }

    // The daemon always records: /metrics is part of its contract.
    let obs = Observer::enabled();
    if lp_obs::set_global(obs.clone()).is_err() {
        lp_warn!("global observer already installed; farm metrics may be incomplete");
    }
    let store = match open_store(m, &obs) {
        Ok(store) => store.map(Arc::new),
        Err(e) => return config_error(&e),
    };
    let backend = Arc::new(PipelineBackend::new(store.clone(), obs.clone()));
    // A cluster node binds its advertised address unless told otherwise.
    let listen = m.opt("--farm-listen").or(node_addr.clone());
    let listen = listen.unwrap_or("127.0.0.1:0".to_string());
    let started = match &node_addr {
        Some(addr) => {
            let me = NodeSpec {
                addr: addr.clone(),
                dir: cfg.dir.clone(),
            };
            cluster_config(m, me).and_then(|ccfg| {
                lp_cluster::spawn_node(&listen, ccfg, cfg, backend, store, obs)
                    .map(|running| Daemon::Node(Box::new(running)))
                    .map_err(|e| format!("starting cluster node at {listen}: {e}"))
            })
        }
        None => Farm::start(cfg, backend, obs)
            .map_err(|e| format!("starting farm: {e}"))
            .and_then(|farm| {
                FarmServer::start(listen.as_str(), farm.clone())
                    .map(|server| Daemon::Plain(farm, server))
                    .map_err(|e| format!("binding farm endpoint {listen}: {e}"))
            }),
    };
    let daemon = match started {
        Ok(daemon) => daemon,
        Err(e) => return config_error(&e),
    };

    // Plain println (not lp_info): scripts parse these lines.
    let (farm, server) = daemon.parts();
    println!(
        "farm: listening on {} (POST /jobs, GET /jobs/{{id}}, GET /queue, GET /metrics, POST /shutdown)",
        server.local_addr()
    );
    if let (Daemon::Node(running), Some(addr)) = (&daemon, &node_addr) {
        let health = running.node.healthz_value();
        let members = health.get("ring_nodes").and_then(|n| n.as_u64());
        println!(
            "cluster: node {addr} in a {}-member ring (GET /cluster/healthz, /cluster/peers)",
            members.unwrap_or(1)
        );
    }

    let mode = server.wait_shutdown();
    lp_info!("farm: shutdown requested (mode {mode})");
    let farm = farm.clone();
    daemon.stop(mode);
    let snap = farm.queue_snapshot();
    println!(
        "farm: stopped ({} done, {} failed, {} cancelled, {} requeued to journal)",
        snap.done,
        snap.failed,
        snap.cancelled,
        snap.queued + snap.running
    );
    ExitCode::SUCCESS
}
