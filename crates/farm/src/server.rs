//! The farm's HTTP front door.
//!
//! Served on the shared multiplexed core ([`lp_obs::httpd`]): HTTP/1.1
//! keep-alive connections with pipelined framing, and *concurrent*
//! request dispatch on a bounded handler pool — a submission burst from
//! four tenants no longer serializes behind the accept thread, and a
//! batch `POST /jobs` (NDJSON, one spec per line → one response line per
//! job) lands a whole burst in one round trip. Bodies and multi-job
//! responses are line-delimited JSON (one object per line), so clients
//! stream submissions without framing beyond newlines.
//!
//! | Endpoint                 | Behavior                                     |
//! |--------------------------|----------------------------------------------|
//! | `POST /jobs`             | submit; NDJSON in → NDJSON out, one line per job; `503` + `Retry-After` when the queue is full; a `traceparent` header parents every submitted job's trace under the client's span |
//! | `GET /jobs/{id}`         | NDJSON: streamed partial results (`?since=N` skips already-seen lines), then the full job record (includes `trace_id`) as the final line |
//! | `GET /jobs/{id}/trace`   | the job's flight-recorder trace as Chrome `trace_event` JSON (Perfetto-loadable) |
//! | `GET /trace/recent`      | NDJSON trace summaries, newest first (`?limit=N`, default 32) |
//! | `POST /jobs/{id}/cancel` | cancel queued/running job                    |
//! | `GET /queue`             | aggregate queue snapshot                     |
//! | `GET /metrics`           | Prometheus text (farm.* and pipeline)        |
//! | `GET /metrics.json`      | the full metrics snapshot as JSON (what `/cluster/metrics` federates) |
//! | `GET /metrics/history`   | NDJSON time-series samples (`?since=SEQ` resumes incrementally); `404` when sampling is disabled |
//! | `GET /healthz`           | liveness JSON (includes flight-recorder occupancy) |
//! | `POST /shutdown`         | `?mode=drain` (default) or `?mode=now`       |

use crate::farm::{Farm, ShutdownMode, SubmitError, Submitted};
use crate::job::JobSpec;
use lp_farm_proto::{FORWARDED_HEADER, PROTO_HEADER, PROTO_VERSION};
use lp_obs::http::{self, Request, Response};
use lp_obs::httpd::{Handler, HttpServer, ServerConfig};
use lp_obs::json::Value;
use lp_obs::names;
use lp_obs::{SpanGuard, TraceContext};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};

struct ServerShared {
    shutdown: Mutex<Option<ShutdownMode>>,
    shutdown_cv: Condvar,
}

/// Extra-route hook: tried before the built-in routes; `None` falls
/// through.
pub type RouteHook = Arc<dyn Fn(&Request) -> Option<Response> + Send + Sync>;
/// Extra `/healthz` top-level fields.
pub type HealthzHook = Arc<dyn Fn() -> Vec<(String, Value)> + Send + Sync>;
/// Submission-forwarding hook: given a parsed spec and the client's
/// trace context, returns `Some(outcome line)` when another node handled
/// the submission (consistent-hash owner), `None` to accept locally.
pub type ForwardHook = Arc<dyn Fn(&JobSpec, Option<&TraceContext>) -> Option<Value> + Send + Sync>;

/// Pluggable server extensions. The cluster layer (`lp-cluster`, which
/// depends on this crate) hangs its `/cluster/*` routes, healthz
/// fields, and submission forwarding off these hooks — the farm server
/// itself stays cluster-agnostic.
#[derive(Clone, Default)]
pub struct ServerExtensions {
    /// Extra routes, tried before the built-ins.
    pub route: Option<RouteHook>,
    /// Extra `/healthz` fields.
    pub healthz: Option<HealthzHook>,
    /// Submission forwarding (skipped for already-forwarded requests).
    pub forward: Option<ForwardHook>,
}

/// The farm's HTTP front: a multiplexed [`HttpServer`] dispatching
/// concurrently into a shared [`Farm`].
pub struct FarmServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    server: Option<HttpServer>,
}

impl FarmServer {
    /// Binds `addr` (port `0` picks an ephemeral port) and starts
    /// serving requests against `farm`.
    ///
    /// # Errors
    /// Bind failures.
    pub fn start(addr: impl ToSocketAddrs, farm: Farm) -> io::Result<FarmServer> {
        FarmServer::start_with(addr, farm, ServerExtensions::default())
    }

    /// [`FarmServer::start`] with cluster/extension hooks installed.
    ///
    /// Every response carries the wire-protocol version header
    /// (`x-lp-proto`); requests advertising an *incompatible* version
    /// are rejected with `426 Upgrade Required` (absent means a legacy
    /// client and is accepted).
    ///
    /// # Errors
    /// Bind failures.
    pub fn start_with(
        addr: impl ToSocketAddrs,
        farm: Farm,
        ext: ServerExtensions,
    ) -> io::Result<FarmServer> {
        let shared = Arc::new(ServerShared {
            shutdown: Mutex::new(None),
            shutdown_cv: Condvar::new(),
        });
        let obs = farm.observer().clone();
        let handler_farm = farm.clone();
        let handler_shared = Arc::clone(&shared);
        let handler: Handler = Arc::new(move |req: &Request| {
            // A propagated traceparent parents the request span (and any
            // jobs this request submits) under the client's trace. An
            // untraced request gets no span: nothing would ever harvest
            // it from the sink, so a daemon would keep one per request.
            let trace_guard = req.trace.as_ref().map(|t| t.attach());
            let mut span = if trace_guard.is_some() {
                handler_farm
                    .observer()
                    .span(names::SPAN_FARM_REQUEST, names::CAT_FARM)
            } else {
                SpanGuard::disabled()
            };
            span.arg("path", req.path.as_str());
            let response = if !lp_farm_proto::version_compatible(req.header(PROTO_HEADER)) {
                Response::new(
                    "426 Upgrade Required",
                    "application/json",
                    format!(
                        "{{\"error\":\"incompatible protocol version (server speaks {PROTO_VERSION})\"}}"
                    ),
                )
            } else {
                match ext.route.as_ref().and_then(|hook| hook(req)) {
                    Some(resp) => resp,
                    None => route(req, &handler_farm, &handler_shared, &ext),
                }
            };
            drop(span);
            drop(trace_guard);
            response.with_header(PROTO_HEADER, PROTO_VERSION)
        });
        let server = HttpServer::start(
            addr,
            ServerConfig {
                max_body: http::DEFAULT_MAX_BODY_BYTES,
                thread_name: "farm-server".to_string(),
                ..ServerConfig::default()
            },
            handler,
            obs,
        )?;
        Ok(FarmServer {
            addr: server.local_addr(),
            shared,
            server: Some(server),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a `POST /shutdown` request arrives, returning the
    /// requested mode. The daemon then typically calls
    /// [`Farm::shutdown`], [`Farm::join`], and [`FarmServer::stop`].
    pub fn wait_shutdown(&self) -> ShutdownMode {
        let mut guard = self.shared.shutdown.lock().expect("farm server lock");
        loop {
            if let Some(mode) = *guard {
                return mode;
            }
            guard = self
                .shared
                .shutdown_cv
                .wait(guard)
                .expect("farm server wait");
        }
    }

    /// Stops the server and joins its threads.
    pub fn stop(mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

impl Drop for FarmServer {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

fn route(req: &Request, farm: &Farm, shared: &ServerShared, ext: &ServerExtensions) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => submit_batch(req, farm, ext),
        ("GET", "/queue") => Response::json_ok(farm.queue_snapshot().to_value().to_string()),
        ("GET", "/metrics") => Response::text_ok(farm.observer().prometheus_text()),
        ("GET", "/metrics.json") => Response::json_ok(farm.observer().metrics_json()),
        ("GET", "/metrics/history") => match farm.history() {
            None => Response::not_found(
                "metrics history sampling is disabled (history_interval_ms = 0)",
            ),
            Some(history) => {
                let since = req
                    .query
                    .as_deref()
                    .and_then(|q| q.split('&').find_map(|kv| kv.strip_prefix("since=")))
                    .and_then(|n| n.parse::<u64>().ok())
                    .unwrap_or(0);
                let samples = history.since(since);
                Response::new(
                    "200 OK",
                    "application/x-ndjson",
                    history.to_ndjson(&samples),
                )
            }
        },
        ("GET", "/healthz") => {
            let snap = farm.queue_snapshot();
            let (live, finished, capacity, evicted) = farm.flight_recorder().occupancy();
            let mut members = vec![
                ("status".to_string(), Value::Str("ok".to_string())),
                ("draining".to_string(), Value::Bool(snap.draining)),
                ("workers".to_string(), Value::Int(snap.workers as i128)),
                (
                    "flight_recorder".to_string(),
                    Value::Obj(vec![
                        ("live".to_string(), Value::Int(live as i128)),
                        ("finished".to_string(), Value::Int(finished as i128)),
                        ("capacity".to_string(), Value::Int(capacity as i128)),
                        ("evicted".to_string(), Value::Int(evicted as i128)),
                    ]),
                ),
            ];
            if let Some(lag) = farm.journal_lag() {
                members.push(("journal_lag".to_string(), Value::Int(lag as i128)));
            }
            if let Some(hook) = &ext.healthz {
                members.extend(hook());
            }
            Response::json_ok(Value::Obj(members).to_string())
        }
        ("GET", "/trace/recent") => {
            let limit = req
                .query
                .as_deref()
                .and_then(|q| q.strip_prefix("limit="))
                .and_then(|n| n.parse::<usize>().ok())
                .unwrap_or(32);
            let mut body = String::new();
            for line in farm.recent_traces(limit) {
                body.push_str(&line.to_string());
                body.push('\n');
            }
            Response::new("200 OK", "application/x-ndjson", body)
        }
        ("POST", "/shutdown") => {
            let mode = match req.query.as_deref() {
                Some("mode=now") => ShutdownMode::Now,
                Some("mode=drain") | None => ShutdownMode::Drain,
                Some(other) => {
                    return Response::bad_request(&format!("unknown shutdown query '{other}'"))
                }
            };
            let mut guard = shared.shutdown.lock().expect("farm server lock");
            *guard = Some(mode);
            shared.shutdown_cv.notify_all();
            Response::json_ok(format!("{{\"shutting_down\":true,\"mode\":\"{mode}\"}}"))
        }
        ("GET", path) => {
            if let Some(id) = parse_trace_path(path) {
                return match farm.trace_document(id) {
                    Some(doc) => Response::json_ok(doc.to_string()),
                    None => Response::not_found(&format!(
                        "no trace for job {id} (never seen, or evicted from the flight recorder)"
                    )),
                };
            }
            match parse_job_path(path) {
                Some(id) => match farm.job(id) {
                    Some(rec) => {
                        // NDJSON: any streamed partial-result lines the
                        // job has emitted (from `?since=N`, so pollers
                        // only pay for what is new), then the job record
                        // as the final line. Non-streaming jobs degrade
                        // to a one-line body — the record — so every
                        // consumer parses the LAST line for the record.
                        let since = req
                            .query
                            .as_deref()
                            .and_then(|q| q.split('&').find_map(|kv| kv.strip_prefix("since=")))
                            .and_then(|n| n.parse::<usize>().ok())
                            .unwrap_or(0);
                        let mut body = String::new();
                        for line in farm.progress(id, since).unwrap_or_default() {
                            body.push_str(&line);
                            body.push('\n');
                        }
                        body.push_str(&rec.to_value().to_string());
                        body.push('\n');
                        Response::new("200 OK", "application/x-ndjson", body)
                    }
                    None => Response::not_found(&format!("no job {id}")),
                },
                None => Response::not_found(&format!("no route for GET {path}")),
            }
        }
        ("POST", path) => match parse_cancel_path(path) {
            Some(id) => {
                let cancelled = farm.cancel(id);
                let state = farm
                    .job(id)
                    .map(|r| r.state.as_str().to_string())
                    .unwrap_or_else(|| "unknown".to_string());
                Response::json_ok(
                    Value::Obj(vec![
                        ("cancelled".to_string(), Value::Bool(cancelled)),
                        ("state".to_string(), Value::Str(state)),
                    ])
                    .to_string(),
                )
            }
            None => Response::not_found(&format!("no route for POST {path}")),
        },
        (method, _) => Response::new(
            "405 Method Not Allowed",
            "application/json",
            format!("{{\"error\":\"method {method} not supported\"}}"),
        ),
    }
}

/// `/jobs/{id}` → id.
fn parse_job_path(path: &str) -> Option<u64> {
    path.strip_prefix("/jobs/")?.parse().ok()
}

/// `/jobs/{id}/trace` → id.
fn parse_trace_path(path: &str) -> Option<u64> {
    path.strip_prefix("/jobs/")?
        .strip_suffix("/trace")?
        .parse()
        .ok()
}

/// `/jobs/{id}/cancel` → id.
fn parse_cancel_path(path: &str) -> Option<u64> {
    path.strip_prefix("/jobs/")?
        .strip_suffix("/cancel")?
        .parse()
        .ok()
}

/// `POST /jobs`: one JSON job spec per line in, one JSON outcome per
/// line out (same order). All accepted → `202`; any queue-full rejection
/// → `503` with a `Retry-After` header; otherwise any bad line → `400`.
fn submit_batch(req: &Request, farm: &Farm, ext: &ServerExtensions) -> Response {
    let body = req.body_text();
    let mut lines_out = String::new();
    let mut any_full_ms: Option<u64> = None;
    let mut any_bad = false;
    let mut any = false;
    // Forwarding applies only to first-hop submissions: a request that
    // already carries the forwarded marker is owned here by definition
    // (the owner forwarded it), which also caps any forwarding at one
    // hop — no loops even under a membership disagreement.
    let forward = if req.header(FORWARDED_HEADER).is_none() {
        ext.forward.as_ref()
    } else {
        None
    };
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        any = true;
        let parsed = lp_obs::json::parse(line)
            .map_err(|e| SubmitError::BadSpec(e.to_string()))
            .and_then(|v| JobSpec::from_value(&v).map_err(SubmitError::BadSpec));
        if let (Ok(spec), Some(hook)) = (&parsed, forward) {
            if let Some(outcome_line) = hook(spec, req.trace.as_ref()) {
                lines_out.push_str(&outcome_line.to_string());
                lines_out.push('\n');
                continue;
            }
        }
        let outcome = parsed.and_then(|spec| farm.submit_traced(spec, req.trace.as_ref()));
        let obj = match outcome {
            Ok(sub) => {
                let mut members = vec![("id".to_string(), Value::Int(sub.id() as i128))];
                if let Some(rec) = farm.job(sub.id()) {
                    members.push(("trace_id".to_string(), Value::Str(rec.trace.trace_id.hex())));
                }
                match sub {
                    Submitted::Queued { .. } => {
                        members.push(("state".to_string(), Value::Str("queued".to_string())));
                    }
                    Submitted::Deduped { primary, .. } => {
                        members.push(("state".to_string(), Value::Str("queued".to_string())));
                        members.push(("dedup_of".to_string(), Value::Int(primary as i128)));
                    }
                    Submitted::Cached { source, .. } => {
                        members.push(("state".to_string(), Value::Str("done".to_string())));
                        members.push(("dedup_of".to_string(), Value::Int(source as i128)));
                    }
                }
                Value::Obj(members)
            }
            Err(SubmitError::QueueFull { retry_after_ms }) => {
                any_full_ms = Some(any_full_ms.map_or(retry_after_ms, |m| m.max(retry_after_ms)));
                Value::Obj(vec![
                    ("error".to_string(), Value::Str("queue full".to_string())),
                    (
                        "retry_after_ms".to_string(),
                        Value::Int(retry_after_ms as i128),
                    ),
                ])
            }
            Err(SubmitError::Draining) => {
                any_full_ms = Some(any_full_ms.unwrap_or(1_000));
                Value::Obj(vec![(
                    "error".to_string(),
                    Value::Str("farm is draining".to_string()),
                )])
            }
            Err(SubmitError::BadSpec(msg)) => {
                any_bad = true;
                Value::Obj(vec![("error".to_string(), Value::Str(msg))])
            }
        };
        lines_out.push_str(&obj.to_string());
        lines_out.push('\n');
    }
    if !any {
        return Response::bad_request("empty submission body");
    }
    // One durability barrier per HTTP request, after the whole batch is
    // enqueued: every accepted line shares a single group commit before
    // the acknowledgment goes out.
    farm.sync_journal();
    if let Some(ms) = any_full_ms {
        // Retry-After is specified in whole seconds; round up.
        return Response::new("503 Service Unavailable", "application/x-ndjson", lines_out)
            .with_header("Retry-After", ms.div_ceil(1_000).max(1));
    }
    if any_bad {
        return Response::new("400 Bad Request", "application/x-ndjson", lines_out);
    }
    Response::new("202 Accepted", "application/x-ndjson", lines_out)
}
