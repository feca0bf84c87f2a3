//! # lp-cluster — coordinator-light multi-node analysis farm
//!
//! One `lp-farm` daemon saturates one machine. This crate federates
//! several of them into a cluster with no coordinator, no consensus
//! log, and no new wire stack — just the existing keep-alive HTTP
//! client, a consistent-hash ring, and the farm's own crash-safe
//! journal:
//!
//! * **Sharding** ([`ring`]): the 128-bit content-key space is carved
//!   among members by a consistent-hash ring with virtual nodes. Every
//!   member derives the identical ring from the shared member list, so
//!   ownership is a pure function — nothing to elect, nothing to sync.
//! * **Forwarding**: a submission arriving at a non-owner is forwarded
//!   to the key's owner over a pooled keep-alive [`FarmClient`]; the
//!   client gets the *owner's* job id back (per-node disjoint id ranges
//!   make ids meaningful cluster-wide). A forwarded request carries the
//!   `x-lp-forwarded` marker, capping forwarding at one hop.
//! * **Cluster-wide dedup of completed work**: nodes that should reuse
//!   each other's results open one shared `--store-dir`. A store
//!   directory is safe to share between processes without a lock
//!   (content-addressed names, atomic installs), so a job pinned onto
//!   a non-owner finds the owner's finished summary in the store and
//!   costs no compute. Nodes move no artifacts over HTTP: results
//!   travel through the filesystem, as adopted journals do.
//! * **Failover** ([`membership`]): peers heartbeat each other's
//!   `/cluster/healthz`. When a member dies, the ring rebalances and
//!   the agreed adopter — owner of the dead node's name point in the
//!   survivor ring — re-adopts the dead farm's journaled queue
//!   ([`lp_farm::Journal::peek`] + [`lp_farm::Farm::adopt`]): accepted
//!   jobs complete with their original ids and trace contexts even if
//!   their node is `kill -9`ed mid-queue.
//! * **Observability plane**: `GET /cluster/metrics` federates every
//!   member's metrics into per-node snapshots plus ring-wide rollups
//!   (JSON or node-labelled Prometheus text); `GET
//!   /cluster/trace/{trace_id}` assembles one Perfetto-loadable trace
//!   from every node a submission touched, forward hop and remote
//!   execution stitched into a single span tree with one pid lane per
//!   node; and `GET /jobs/{id}/trace` asked of the wrong node proxies
//!   to the id's home node instead of answering 404.
//!
//! The design assumption for journal adoption and result sharing is
//! shared-filesystem visibility of peer farm directories and of the
//! store directory (the multi-process-per-host and NFS deployments the
//! smoke tests exercise); peers without a known directory still shard,
//! forward, dedup on the owner, and rebalance — their queued jobs are
//! simply not recoverable by others.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod membership;
pub mod ring;

pub use membership::{Membership, NodeSpec, PeerState, Transition};
pub use ring::{Ring, DEFAULT_VNODES};

use lp_farm::{Farm, FarmServer, Journal, ServerExtensions};
use lp_farm_proto::{FarmClient, JobSpec, SubmitOutcome, FORWARDED_HEADER};
use lp_obs::http::{Request, Response};
use lp_obs::json::Value;
use lp_obs::metrics::MetricsSnapshot;
use lp_obs::trace::TraceEvent;
use lp_obs::tracectx::TraceId;
use lp_obs::{export, federate, names, tracectx, Observer, TraceContext};
use lp_store::{Store, StoreKey};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Width of each node's job-id range: ordinal `k` owns ids
/// `((k+1) << ID_RANGE_BITS, (k+2) << ID_RANGE_BITS]`. 2^40 ids per
/// node is unreachable in practice, and the high bits make any id's
/// home node readable at a glance.
pub const ID_RANGE_BITS: u32 = 40;

/// Cluster tuning for one node.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's advertised `host:port` (must match the farm server's
    /// bind address as peers dial it).
    pub self_addr: String,
    /// Full member list, self included (`addr` or `addr=dir` specs).
    pub peers: Vec<NodeSpec>,
    /// Virtual nodes per member on the ring.
    pub vnodes: usize,
    /// Heartbeat probe period (ms).
    pub heartbeat_ms: u64,
    /// Consecutive failed probes before a peer is declared dead.
    pub failure_threshold: u32,
    /// Per-request timeout for forwards, proxies and probes (ms).
    pub rpc_timeout_ms: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            self_addr: String::new(),
            peers: Vec::new(),
            vnodes: DEFAULT_VNODES,
            heartbeat_ms: 500,
            failure_threshold: 3,
            rpc_timeout_ms: 5_000,
        }
    }
}

/// How many forwarded-submission traces the submit side retains for
/// cross-node assembly after their events leave the live trace sink.
const FORWARD_TRACE_RETAIN: usize = 256;

/// Submit-side spans of forwarded jobs. A forwarded job runs on the
/// owner, so nothing on the submit node ever harvests its trace events
/// out of the live sink — this ring does, on the heartbeat cadence, so
/// `/cluster/trace/{id}` can still show the forward hop long after the
/// submission.
#[derive(Default)]
struct ForwardTraces {
    /// Trace ids recorded this heartbeat tick. Harvesting them now
    /// could miss the still-open `farm.request` span of the submission
    /// that created them, so they ripen for one tick first.
    fresh: Vec<TraceId>,
    /// Trace ids due for harvest on the next tick.
    ripe: Vec<TraceId>,
    /// Harvested `(trace id, submit-side events)`, oldest first;
    /// bounded by [`FORWARD_TRACE_RETAIN`].
    retained: VecDeque<(TraceId, Vec<TraceEvent>)>,
}

struct NodeInner {
    cfg: ClusterConfig,
    obs: Observer,
    membership: Mutex<Membership>,
    /// Attached after `Farm::start` (the farm's id base comes from the
    /// node's ordinal, so the node exists first).
    farm: OnceLock<Farm>,
    /// Pooled keep-alive clients for forwards and proxies, one per peer
    /// address; per-peer locks so a slow peer stalls only requests to
    /// itself.
    clients: Mutex<HashMap<String, Arc<Mutex<FarmClient>>>>,
    forward_traces: Mutex<ForwardTraces>,
    stop: AtomicBool,
}

/// One cluster member's runtime: membership + heartbeats + forwarding.
/// Cheap to clone; all clones share the node.
#[derive(Clone)]
pub struct ClusterNode {
    inner: Arc<NodeInner>,
}

/// The heartbeat thread of a started node; joined by
/// [`ClusterNode::stop`].
pub struct ClusterThreads {
    heartbeat: JoinHandle<()>,
}

impl ClusterNode {
    /// Builds the node state (no threads yet — call
    /// [`ClusterNode::start_threads`] after the farm is attached).
    pub fn new(cfg: ClusterConfig, obs: Observer) -> ClusterNode {
        let membership = Membership::new(
            &cfg.self_addr,
            &cfg.peers,
            cfg.vnodes,
            cfg.failure_threshold,
        );
        let node = ClusterNode {
            inner: Arc::new(NodeInner {
                cfg,
                obs,
                membership: Mutex::new(membership),
                farm: OnceLock::new(),
                clients: Mutex::new(HashMap::new()),
                forward_traces: Mutex::new(ForwardTraces::default()),
                stop: AtomicBool::new(false),
            }),
        };
        node.refresh_gauges();
        node
    }

    /// This node's [`lp_farm::FarmConfig::id_base`]: the ordinal-derived
    /// disjoint id range.
    pub fn id_base(&self) -> u64 {
        let ordinal = self.membership().self_ordinal();
        (ordinal + 1) << ID_RANGE_BITS
    }

    /// Attaches the started farm (exactly once).
    pub fn attach_farm(&self, farm: Farm) {
        let _ = self.inner.farm.set(farm);
    }

    /// Starts the heartbeat thread. Call after
    /// [`ClusterNode::attach_farm`].
    pub fn start_threads(&self) -> ClusterThreads {
        let me = self.clone();
        let heartbeat = std::thread::Builder::new()
            .name("cluster-heartbeat".to_string())
            .spawn(move || me.heartbeat_loop())
            .expect("spawn cluster heartbeat");
        ClusterThreads { heartbeat }
    }

    /// Stops the node's heartbeat thread and joins it.
    pub fn stop(&self, threads: ClusterThreads) {
        self.inner.stop.store(true, Ordering::SeqCst);
        let _ = threads.heartbeat.join();
    }

    /// Server hooks wiring `/cluster/*` routes, healthz fields, and
    /// submission forwarding into a [`FarmServer::start_with`].
    pub fn extensions(&self) -> ServerExtensions {
        let route_node = self.clone();
        let healthz_node = self.clone();
        let forward_node = self.clone();
        ServerExtensions {
            route: Some(Arc::new(move |req: &Request| route_node.route(req))),
            healthz: Some(Arc::new(move || {
                // The node's cluster identity rides top-level (not just
                // inside the `cluster` object) so probes and dashboards
                // can read it without digging.
                let (node, ordinal, alive) = {
                    let m = healthz_node.membership();
                    (m.self_addr.clone(), m.self_ordinal(), m.counts().0)
                };
                vec![
                    ("node".to_string(), Value::Str(node)),
                    ("ordinal".to_string(), Value::Int(ordinal as i128)),
                    ("peers_alive".to_string(), Value::Int(alive as i128)),
                    ("cluster".to_string(), healthz_node.healthz_value()),
                ]
            })),
            forward: Some(Arc::new(
                move |spec: &JobSpec, trace: Option<&TraceContext>| {
                    forward_node.forward_submit(spec, trace)
                },
            )),
        }
    }

    /// A locked snapshot accessor (private helper).
    fn membership(&self) -> std::sync::MutexGuard<'_, Membership> {
        self.inner
            .membership
            .lock()
            .expect("cluster membership lock")
    }

    /// The cluster healthz/status document (also the `cluster` field of
    /// the farm's `/healthz`).
    pub fn healthz_value(&self) -> Value {
        let m = self.membership();
        let (alive, dead) = m.counts();
        Value::Obj(vec![
            ("node".to_string(), Value::Str(m.self_addr.clone())),
            ("ordinal".to_string(), Value::Int(m.self_ordinal() as i128)),
            (
                "id_base".to_string(),
                Value::Int(((m.self_ordinal() + 1) << ID_RANGE_BITS) as i128),
            ),
            ("ring_nodes".to_string(), Value::Int(m.ring.len() as i128)),
            ("vnodes".to_string(), Value::Int(m.ring.vnodes() as i128)),
            ("peers_alive".to_string(), Value::Int(alive as i128)),
            ("peers_dead".to_string(), Value::Int(dead as i128)),
            (
                "owned_fraction".to_string(),
                Value::Num(m.ring.owned_fraction(&m.self_addr)),
            ),
        ])
    }

    // ---- HTTP routes ----------------------------------------------------

    /// `/cluster/*` routes, hung off the farm server:
    ///
    /// | Endpoint | Behavior |
    /// |---|---|
    /// | `GET /cluster/healthz` | node id, ring, liveness counts (the heartbeat probe target) |
    /// | `GET /cluster/peers` | member list + ring document |
    /// | `POST /cluster/join` | add a member (broadcast to peers unless forwarded) |
    /// | `GET /cluster/metrics` | federated metrics: per-node snapshots + ring-wide rollups (`?format=prometheus` for labelled text) |
    /// | `GET /cluster/trace/{trace_id}` | merged cross-node Chrome trace, one pid lane per node (`?local=1` for this node's fragment) |
    ///
    /// It also intercepts `GET /jobs/{id}/trace` and plain
    /// `GET /jobs/{id}` (the job record plus any streamed live
    /// partial-result lines) for ids homed on another node, proxying to
    /// the owner instead of answering 404.
    fn route(&self, req: &Request) -> Option<Response> {
        let path = req.path.as_str();
        if req.method == "GET" && path.starts_with("/jobs/") {
            if path.ends_with("/trace") {
                return self.proxy_job_trace(req);
            }
            if let Some(resp) = self.proxy_job_record(req) {
                return Some(resp);
            }
        }
        match (req.method.as_str(), path) {
            ("GET", "/cluster/healthz") => {
                Some(Response::json_ok(self.healthz_value().to_string()))
            }
            ("GET", "/cluster/peers") => {
                let m = self.membership();
                let peers: Vec<Value> = m.peers.iter().map(|p| p.spec.to_value()).collect();
                Some(Response::json_ok(
                    Value::Obj(vec![
                        ("peers".to_string(), Value::Arr(peers)),
                        ("ring".to_string(), m.ring.to_value()),
                    ])
                    .to_string(),
                ))
            }
            ("POST", "/cluster/join") => Some(self.handle_join(req)),
            ("GET", "/cluster/metrics") => Some(self.cluster_metrics(req)),
            ("GET", p) if p.starts_with("/cluster/trace/") => Some(self.cluster_trace(req)),
            _ => None,
        }
    }

    fn handle_join(&self, req: &Request) -> Response {
        let body = req.body_text();
        let Ok(doc) = lp_obs::json::parse(&body) else {
            return Response::bad_request("join body must be a peer JSON object");
        };
        let spec = match NodeSpec::from_value(&doc) {
            Ok(s) => s,
            Err(e) => return Response::bad_request(&e),
        };
        let (added, peer_addrs) = {
            let mut m = self.membership();
            let added = m.add_peer(spec.clone());
            (added, m.alive_addrs())
        };
        self.refresh_gauges();
        // First-hop joins broadcast to the other members so one POST
        // teaches the whole cluster; the forwarded marker stops the
        // broadcast from echoing forever.
        if added && req.header(FORWARDED_HEADER).is_none() {
            let self_addr = self.inner.cfg.self_addr.clone();
            for peer in peer_addrs {
                if peer == self_addr || peer == spec.addr {
                    continue;
                }
                let doc = spec.to_value().to_string();
                let _ = self.with_client(&peer, |client| {
                    client.http().send(
                        "POST",
                        "/cluster/join",
                        &[(FORWARDED_HEADER.to_string(), "1".to_string())],
                        doc.as_bytes(),
                        None,
                        true,
                    )
                });
            }
        }
        let m = self.membership();
        let peers: Vec<Value> = m.peers.iter().map(|p| p.spec.to_value()).collect();
        Response::json_ok(
            Value::Obj(vec![
                ("joined".to_string(), Value::Bool(true)),
                ("peers".to_string(), Value::Arr(peers)),
                ("ring".to_string(), m.ring.to_value()),
            ])
            .to_string(),
        )
    }

    // ---- forwarding -----------------------------------------------------

    /// Forwards a first-hop submission to the key's owner, returning the
    /// owner's outcome line. `None` accepts locally: owned here, no key,
    /// single-node ring, or a forward error (local fallback beats
    /// bouncing the client).
    fn forward_submit(&self, spec: &JobSpec, trace: Option<&TraceContext>) -> Option<Value> {
        let farm = self.inner.farm.get()?;
        // The farm's backend computes the canonical content key (memoized
        // behind the backend; cheap on the hot path).
        let key_hex = farm.job_key(spec).ok()?;
        let key = StoreKey::from_hex(&key_hex)?;
        let owner = {
            let m = self.membership();
            let owner = m.ring.owner(&key.0)?.to_string();
            if owner == m.self_addr {
                return None;
            }
            owner
        };
        // The forward hop is a real span in the submission's trace: the
        // owner's `farm.job` root parents under it, so the merged
        // cross-node trace shows submit node → owner as one tree under
        // one trace id.
        // Parent preference: the attached `farm.request` span context
        // (the hook runs on the request thread), else the client's
        // traceparent, else a fresh root — every forwarded submission
        // has a trace.
        let fwd_parent = tracectx::current()
            .or_else(|| trace.copied())
            .unwrap_or_else(TraceContext::new_root);
        let guard = fwd_parent.attach();
        let mut span = self
            .inner
            .obs
            .span(names::SPAN_CLUSTER_FORWARD, names::CAT_CLUSTER);
        span.arg("owner", owner.as_str());
        let fwd_ctx = tracectx::current().unwrap_or(fwd_parent);
        let start = std::time::Instant::now();
        let spec = spec.clone();
        let outcome = self.with_client(&owner, move |client| {
            client.submit_with(
                &[spec],
                Some(&fwd_ctx),
                &[(FORWARDED_HEADER.to_string(), "1".to_string())],
            )
        });
        self.inner
            .obs
            .histogram(names::CLUSTER_FORWARD_US)
            .record(start.elapsed().as_micros() as u64);
        drop(span);
        drop(guard);
        match outcome {
            Ok((_, lines)) if !lines.is_empty() => {
                self.inner.obs.counter(names::CLUSTER_FORWARDED).inc();
                self.remember_forward_trace(fwd_ctx.trace_id);
                let mut outcome = lines[0].clone();
                if let SubmitOutcome::Accepted { forwarded_to, .. } = &mut outcome {
                    *forwarded_to = Some(owner);
                }
                Some(outcome.to_value())
            }
            _ => {
                self.inner.obs.counter(names::CLUSTER_FORWARD_ERRORS).inc();
                None
            }
        }
    }

    /// Marks `trace_id` for submit-side retention (the next-but-one
    /// heartbeat tick harvests its events out of the live sink).
    fn remember_forward_trace(&self, trace_id: TraceId) {
        if !self.inner.obs.is_enabled() {
            return;
        }
        let mut ft = self
            .inner
            .forward_traces
            .lock()
            .expect("cluster forward-trace lock");
        if !ft.fresh.contains(&trace_id) && !ft.ripe.contains(&trace_id) {
            ft.fresh.push(trace_id);
        }
    }

    /// Heartbeat-cadence sweep: harvests ripe forwarded-trace events
    /// from the live sink into the bounded retained ring, then promotes
    /// fresh → ripe. Two-phase so a trace is never harvested on the
    /// same tick its submission's `farm.request` span is still open.
    fn harvest_forward_traces(&self) {
        let due: Vec<TraceId> = {
            let mut ft = self
                .inner
                .forward_traces
                .lock()
                .expect("cluster forward-trace lock");
            let due = std::mem::take(&mut ft.ripe);
            ft.ripe = std::mem::take(&mut ft.fresh);
            due
        };
        for trace_id in due {
            let events = self.inner.obs.take_trace_events(trace_id);
            if events.is_empty() {
                continue;
            }
            let mut ft = self
                .inner
                .forward_traces
                .lock()
                .expect("cluster forward-trace lock");
            while ft.retained.len() >= FORWARD_TRACE_RETAIN {
                ft.retained.pop_front();
            }
            ft.retained.push_back((trace_id, events));
        }
    }

    // ---- observability plane (trace assembly + metrics federation) ------

    /// Satellite fix: `GET /jobs/{id}/trace` asked of a node that never
    /// ran the job. The id's high bits name its home node
    /// (`ordinal = (id >> ID_RANGE_BITS) - 1`), so instead of answering
    /// 404 the node proxies to the owner — one hop, capped by the
    /// forwarded marker. `None` falls through to the farm's own
    /// handler: the job is local (or adopted), the id is not
    /// cluster-shaped, or the owner is unreachable (a local 404 beats a
    /// 502 here; the caller can retry the owner directly).
    fn proxy_job_trace(&self, req: &Request) -> Option<Response> {
        if req.header(FORWARDED_HEADER).is_some() {
            return None;
        }
        let id: u64 = req
            .path
            .strip_prefix("/jobs/")?
            .strip_suffix("/trace")?
            .parse()
            .ok()?;
        let farm = self.inner.farm.get()?;
        if farm.flight_recorder().has_job(id) {
            return None;
        }
        let ordinal = (id >> ID_RANGE_BITS).checked_sub(1)?;
        let owner = {
            let m = self.membership();
            let addr = m.addr_of_ordinal(ordinal)?;
            if addr == m.self_addr {
                return None;
            }
            addr
        };
        let path = format!("/jobs/{id}/trace");
        let got = self.with_client(&owner, move |client| {
            client.http().send(
                "GET",
                &path,
                &[(FORWARDED_HEADER.to_string(), "1".to_string())],
                &[],
                None,
                true,
            )
        });
        match got {
            Ok(resp) if resp.status == 200 => {
                self.inner.obs.counter(names::CLUSTER_TRACE_PROXIED).inc();
                Some(Response::json_ok(resp.text()))
            }
            Ok(resp) if resp.status == 404 => Some(Response::not_found(&format!(
                "job {id} unknown on its home node {owner}"
            ))),
            _ => None,
        }
    }

    /// Plain `GET /jobs/{id}` asked of a node that does not own the
    /// job: proxy to the id's home node so followers can watch a live
    /// job's streamed partials (and read any record) through whichever
    /// cluster node they happen to talk to. The query string (`?since=N`
    /// incremental polling) passes through verbatim, and the owner's
    /// NDJSON body comes back untouched. Same fall-through rules as
    /// [`Self::proxy_job_trace`]: `None` lets the local farm answer.
    fn proxy_job_record(&self, req: &Request) -> Option<Response> {
        if req.header(FORWARDED_HEADER).is_some() {
            return None;
        }
        let id: u64 = req.path.strip_prefix("/jobs/")?.parse().ok()?;
        let farm = self.inner.farm.get()?;
        if farm.job(id).is_some() {
            return None;
        }
        let ordinal = (id >> ID_RANGE_BITS).checked_sub(1)?;
        let owner = {
            let m = self.membership();
            let addr = m.addr_of_ordinal(ordinal)?;
            if addr == m.self_addr {
                return None;
            }
            addr
        };
        let path = match &req.query {
            Some(q) => format!("/jobs/{id}?{q}"),
            None => format!("/jobs/{id}"),
        };
        let got = self.with_client(&owner, move |client| {
            client.http().send(
                "GET",
                &path,
                &[(FORWARDED_HEADER.to_string(), "1".to_string())],
                &[],
                None,
                true,
            )
        });
        match got {
            Ok(resp) if resp.status == 200 => {
                self.inner.obs.counter(names::CLUSTER_JOB_PROXIED).inc();
                Some(Response::new("200 OK", "application/x-ndjson", resp.text()))
            }
            Ok(resp) if resp.status == 404 => Some(Response::not_found(&format!(
                "job {id} unknown on its home node {owner}"
            ))),
            _ => None,
        }
    }

    /// This node's events for `trace_id` as a Chrome trace document
    /// fragment on the node's ordinal-pid lane: flight-recorder job
    /// spans, retained submit-side forward spans, and whatever is still
    /// in the live sink. `None` when the node saw nothing of the trace.
    fn local_trace_fragment(&self, trace_id: TraceId) -> Option<Value> {
        let farm = self.inner.farm.get()?;
        let mut events = farm.flight_recorder().events_for_trace(trace_id);
        {
            let ft = self
                .inner
                .forward_traces
                .lock()
                .expect("cluster forward-trace lock");
            for (tid, evs) in &ft.retained {
                if *tid == trace_id {
                    events.extend(evs.iter().cloned());
                }
            }
        }
        // Not-yet-harvested events (recorder and retention both remove
        // what they keep from the sink, so this cannot duplicate).
        events.extend(self.inner.obs.trace_events_for(trace_id));
        if events.is_empty() {
            return None;
        }
        events.sort_by_key(|e| (e.ts_us, std::cmp::Reverse(e.dur_us)));
        let (ordinal, addr) = {
            let m = self.membership();
            (m.self_ordinal(), m.self_addr.clone())
        };
        let mut doc = export::chrome_trace_document_with_pid(&events, ordinal);
        if let Value::Obj(members) = &mut doc {
            if let Some((_, Value::Arr(evs))) = members.iter_mut().find(|(k, _)| k == "traceEvents")
            {
                evs.insert(
                    0,
                    export::process_name_metadata(ordinal, &format!("lp-farm {addr}")),
                );
            }
        }
        Some(doc)
    }

    /// `GET /cluster/trace/{32-hex}`: the merged cross-node Chrome
    /// trace. `?local=1` (or the forwarded marker) answers only this
    /// node's fragment; otherwise the node fans out to the alive ring
    /// and stitches every fragment into one Perfetto-loadable document,
    /// each node on its own ordinal-pid lane. Per-node clocks are
    /// independent (each fragment's `ts` is that node's process
    /// uptime), so lanes may be skewed by boot-time deltas; the span
    /// *tree* — linked by `trace_id`/`span_id`/`parent_span_id` args —
    /// is exact.
    fn cluster_trace(&self, req: &Request) -> Response {
        let hex = req.path.strip_prefix("/cluster/trace/").unwrap_or("");
        let Some(trace_id) = TraceId::parse_hex(hex) else {
            return Response::bad_request("bad trace id (want 32 lowercase hex chars)");
        };
        let local_only = req.header(FORWARDED_HEADER).is_some()
            || req
                .query
                .as_deref()
                .is_some_and(|q| q.split('&').any(|kv| kv == "local=1"));
        if local_only {
            return match self.local_trace_fragment(trace_id) {
                Some(doc) => Response::json_ok(doc.to_string()),
                None => Response::not_found(&format!("no events for trace {hex} on this node")),
            };
        }
        let (self_addr, members): (String, Vec<String>) = {
            let m = self.membership();
            (m.self_addr.clone(), m.alive_addrs())
        };
        let mut merged: Vec<Value> = Vec::new();
        let mut nodes = 0u64;
        for addr in members {
            let fragment = if addr == self_addr {
                self.local_trace_fragment(trace_id)
            } else {
                let path = format!("/cluster/trace/{hex}?local=1");
                let got = self.with_client(&addr, move |client| {
                    client.http().send(
                        "GET",
                        &path,
                        &[(FORWARDED_HEADER.to_string(), "1".to_string())],
                        &[],
                        None,
                        true,
                    )
                });
                match got {
                    Ok(resp) if resp.status == 200 => lp_obs::json::parse(&resp.text()).ok(),
                    _ => None,
                }
            };
            if let Some(events) = fragment
                .as_ref()
                .and_then(|doc| doc.get("traceEvents"))
                .and_then(Value::as_arr)
            {
                merged.extend(events.iter().cloned());
                nodes += 1;
            }
        }
        if merged.is_empty() {
            return Response::not_found(&format!("no node holds events for trace {hex}"));
        }
        self.inner.obs.counter(names::CLUSTER_TRACE_ASSEMBLED).inc();
        Response::json_ok(
            Value::Obj(vec![
                ("traceEvents".to_string(), Value::Arr(merged)),
                ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
                (
                    "otherData".to_string(),
                    Value::Obj(vec![
                        ("producer".to_string(), Value::Str("lp-cluster".to_string())),
                        ("trace_id".to_string(), Value::Str(hex.to_string())),
                        ("nodes".to_string(), Value::Int(nodes as i128)),
                    ]),
                ),
            ])
            .to_string(),
        )
    }

    /// `GET /cluster/metrics[?format=prometheus]`: fans out to the
    /// alive members for their `/metrics.json` snapshots and answers
    /// per-node metrics plus ring-wide rollups (counters summed, gauges
    /// summed or max'd per [`names::gauge_rollup`], histograms
    /// bucket-merged). Unreachable peers degrade to entries in
    /// `errors` rather than failing the whole document.
    fn cluster_metrics(&self, req: &Request) -> Response {
        let start = std::time::Instant::now();
        let (self_addr, members): (String, Vec<(u64, String)>) = {
            let m = self.membership();
            let members = m
                .peers
                .iter()
                .enumerate()
                .filter(|(_, p)| p.alive)
                .map(|(i, p)| (i as u64, p.spec.addr.clone()))
                .collect();
            (m.self_addr.clone(), members)
        };
        let mut nodes: Vec<(u64, String, MetricsSnapshot)> = Vec::new();
        let mut errors: Vec<Value> = Vec::new();
        for (ordinal, addr) in members {
            if addr == self_addr {
                nodes.push((ordinal, addr, self.inner.obs.snapshot()));
                continue;
            }
            let fetched = self
                .with_client(&addr, |client| client.metrics_json())
                .map_err(|e| e.to_string())
                .and_then(|doc| MetricsSnapshot::from_json(&doc));
            match fetched {
                Ok(snap) => nodes.push((ordinal, addr, snap)),
                Err(e) => {
                    self.inner.obs.counter(names::CLUSTER_FEDERATE_ERRORS).inc();
                    errors.push(Value::Obj(vec![
                        ("node".to_string(), Value::Str(addr)),
                        ("error".to_string(), Value::Str(e)),
                    ]));
                }
            }
        }
        let labelled: Vec<(String, MetricsSnapshot)> = nodes
            .iter()
            .map(|(_, addr, snap)| (addr.clone(), snap.clone()))
            .collect();
        let rollup = federate::rollup(
            &labelled
                .iter()
                .map(|(_, snap)| snap.clone())
                .collect::<Vec<_>>(),
        );
        self.inner
            .obs
            .histogram(names::CLUSTER_FEDERATE_US)
            .record(start.elapsed().as_micros() as u64);
        let want_text = req
            .query
            .as_deref()
            .is_some_and(|q| q.split('&').any(|kv| kv == "format=prometheus"));
        if want_text {
            return Response::new(
                "200 OK",
                "text/plain; version=0.0.4",
                federate::render_labelled(&labelled, &rollup),
            );
        }
        let nodes_json: Vec<Value> = nodes
            .iter()
            .map(|(ordinal, addr, snap)| {
                Value::Obj(vec![
                    ("node".to_string(), Value::Str(addr.clone())),
                    ("ordinal".to_string(), Value::Int(*ordinal as i128)),
                    ("metrics".to_string(), snap.to_json()),
                ])
            })
            .collect();
        Response::json_ok(
            Value::Obj(vec![
                ("nodes".to_string(), Value::Arr(nodes_json)),
                ("rollup".to_string(), rollup.to_json()),
                ("ring_nodes".to_string(), Value::Int(nodes.len() as i128)),
                ("errors".to_string(), Value::Arr(errors)),
            ])
            .to_string(),
        )
    }

    // ---- heartbeats + failover ------------------------------------------

    fn heartbeat_loop(&self) {
        // Probe clients are private to this thread: a wedged peer must
        // not stall the forwarding pool.
        let mut probes: HashMap<String, FarmClient> = HashMap::new();
        let period = Duration::from_millis(self.inner.cfg.heartbeat_ms.max(10));
        let probe_timeout = Duration::from_millis(
            self.inner
                .cfg
                .rpc_timeout_ms
                .min(self.inner.cfg.heartbeat_ms.max(100))
                .max(50),
        );
        while !self.inner.stop.load(Ordering::SeqCst) {
            let peers: Vec<String> = {
                let m = self.membership();
                m.peers
                    .iter()
                    .filter(|p| p.spec.addr != m.self_addr)
                    .map(|p| p.spec.addr.clone())
                    .collect()
            };
            for addr in peers {
                if self.inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                let client = probes.entry(addr.clone()).or_insert_with(|| {
                    let mut c = FarmClient::connect(addr.clone());
                    c.set_timeout(probe_timeout);
                    c
                });
                let ok = client
                    .http()
                    .send("GET", "/cluster/healthz", &[], &[], None, true)
                    .map(|r| r.status == 200)
                    .unwrap_or(false);
                let transition = self.membership().heartbeat_result(&addr, ok);
                match transition {
                    Some(Transition::Died { peer, adopt_here }) => {
                        self.inner.obs.counter(names::CLUSTER_PEER_DEATHS).inc();
                        self.refresh_gauges();
                        if adopt_here {
                            self.adopt_peer(&peer);
                        }
                    }
                    Some(Transition::Revived { .. }) => {
                        self.refresh_gauges();
                    }
                    None => {}
                }
            }
            self.harvest_forward_traces();
            std::thread::sleep(period);
        }
    }

    /// Re-adopts a dead peer's journaled queue (this node is the agreed
    /// adopter). The dead journal's files are renamed aside afterwards
    /// so a resurrected peer starts clean instead of re-running jobs the
    /// cluster already owns.
    fn adopt_peer(&self, peer: &NodeSpec) {
        let Some(dir) = &peer.dir else {
            return; // no shared filesystem view of this peer
        };
        if !self.membership().claim_adoption(&peer.addr) {
            return;
        }
        let Some(farm) = self.inner.farm.get() else {
            return;
        };
        let view = match Journal::peek(dir) {
            Ok(v) => v,
            Err(e) => {
                self.inner.obs.counter(names::CLUSTER_ADOPT_ERRORS).inc();
                eprintln!(
                    "cluster: cannot read journal of dead peer {}: {e}",
                    peer.addr
                );
                return;
            }
        };
        if view.jobs.is_empty() {
            return;
        }
        let adopted = farm.adopt(view.jobs);
        self.inner
            .obs
            .counter(names::CLUSTER_ADOPTED)
            .add(adopted as u64);
        // The adopted jobs are durable in OUR journal now; quarantine
        // the dead node's files so resurrection doesn't double-run.
        for name in [lp_farm::JOURNAL_FILE, lp_farm::JOURNAL_LOG_FILE] {
            let from = dir.join(name);
            if from.exists() {
                let _ = std::fs::rename(&from, dir.join(format!("{name}.adopted")));
            }
        }
    }

    // ---- join -----------------------------------------------------------

    /// Joins an existing cluster through `seed`: POSTs this node's spec
    /// to the seed (which broadcasts it) and returns the full member
    /// list the seed answered with.
    ///
    /// # Errors
    /// Transport failures or a malformed answer.
    pub fn join_via(seed: &str, me: &NodeSpec) -> io::Result<Vec<NodeSpec>> {
        let mut client = FarmClient::connect(seed.to_string());
        let resp = client.http().send(
            "POST",
            "/cluster/join",
            &[],
            me.to_value().to_string().as_bytes(),
            None,
            true,
        )?;
        if resp.status != 200 {
            return Err(io::Error::other(format!(
                "join via {seed} answered {}: {}",
                resp.status,
                resp.text()
            )));
        }
        let doc = lp_obs::json::parse(&resp.text())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let peers = doc
            .get("peers")
            .and_then(Value::as_arr)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "join answer lacks peers"))?;
        peers
            .iter()
            .map(|p| {
                NodeSpec::from_value(p).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            })
            .collect()
    }

    // ---- plumbing -------------------------------------------------------

    /// Runs `f` with the pooled client for `addr` (created on first
    /// use). The pool lock is held only for the lookup; the per-peer
    /// lock for the call.
    fn with_client<R>(&self, addr: &str, f: impl FnOnce(&mut FarmClient) -> R) -> R {
        let slot = {
            let mut pool = self.inner.clients.lock().expect("cluster client pool lock");
            Arc::clone(pool.entry(addr.to_string()).or_insert_with(|| {
                let mut c = FarmClient::connect(addr.to_string());
                c.set_timeout(Duration::from_millis(
                    self.inner.cfg.rpc_timeout_ms.max(100),
                ));
                Arc::new(Mutex::new(c))
            }))
        };
        let mut client = slot.lock().expect("cluster client lock");
        f(&mut client)
    }

    fn refresh_gauges(&self) {
        let m = self.membership();
        let (alive, dead) = m.counts();
        self.inner
            .obs
            .gauge(names::CLUSTER_PEERS_ALIVE)
            .set(alive as f64);
        self.inner
            .obs
            .gauge(names::CLUSTER_PEERS_DEAD)
            .set(dead as f64);
        self.inner
            .obs
            .gauge(names::CLUSTER_RING_NODES)
            .set(m.ring.len() as f64);
        self.inner
            .obs
            .gauge(names::CLUSTER_OWNED_FRACTION)
            .set(m.ring.owned_fraction(&m.self_addr));
    }
}

/// Everything a fully wired cluster member runs: node, farm, server,
/// threads. [`spawn_node`] builds one; the driver and the tests/bench
/// share this composition.
pub struct RunningNode {
    /// The cluster runtime.
    pub node: ClusterNode,
    /// The node's farm.
    pub farm: Farm,
    /// The HTTP front door (farm + `/cluster/*`).
    pub server: FarmServer,
    threads: Option<ClusterThreads>,
}

impl RunningNode {
    /// Graceful teardown: farm drain, server stop, cluster threads
    /// joined.
    pub fn shutdown(mut self, mode: lp_farm::ShutdownMode) {
        self.farm.shutdown(mode);
        self.farm.join();
        if let Some(threads) = self.threads.take() {
            self.node.stop(threads);
        }
        self.server.stop();
    }

    /// Crash simulation: stops the HTTP front door and the cluster
    /// threads *without* draining the farm, leaving the journal exactly
    /// as `kill -9` would. The farm's worker threads are detached (the
    /// [`Farm`] handle carries no `Drop`); peers observe the node as
    /// dead once its port stops answering.
    pub fn abandon(mut self) {
        if let Some(threads) = self.threads.take() {
            self.node.stop(threads);
        }
        self.server.stop();
    }
}

/// Wires up one cluster member: node state, the farm running
/// `inner_backend` (journal in `farm_dir`, id base from the cluster
/// ordinal), the HTTP server with cluster extensions, and the heartbeat
/// thread.
///
/// Nodes share results by sharing a store directory: the caller opens
/// it and hands it to `inner_backend`, which checks it before
/// computing. The `store` argument is unused. It stays only because
/// lp-perf's frozen ring-sweep call passes it, and it leaves when the
/// benchmark definition is next revised (ROADMAP item 4a).
///
/// # Errors
/// Farm start or server bind failures.
pub fn spawn_node(
    bind: &str,
    cluster_cfg: ClusterConfig,
    mut farm_cfg: lp_farm::FarmConfig,
    inner_backend: Arc<dyn lp_farm::JobBackend>,
    _store: Option<Arc<Store>>,
    obs: Observer,
) -> io::Result<RunningNode> {
    let node = ClusterNode::new(cluster_cfg, obs.clone());
    farm_cfg.id_base = node.id_base();
    let farm = Farm::start(farm_cfg, inner_backend, obs)?;
    node.attach_farm(farm.clone());
    let server = FarmServer::start_with(bind, farm.clone(), node.extensions())?;
    let threads = node.start_threads();
    Ok(RunningNode {
        node,
        farm,
        server,
        threads: Some(threads),
    })
}
