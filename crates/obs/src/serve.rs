//! The live telemetry endpoint: a std-only HTTP server on the shared
//! multiplexed core ([`crate::httpd`]), so long-running analyses and
//! sweeps can be watched from *outside* the process.
//!
//! Endpoints:
//!
//! * `GET /metrics` — the metrics registry in Prometheus text exposition
//!   format (scrapeable; see [`crate::prometheus`]);
//! * `GET /healthz` — JSON liveness: current pipeline phase, heartbeat
//!   age, uptime, and recorded-event count;
//! * `GET /report` — the most recent diagnostics report JSON installed
//!   via [`TelemetryServer::set_report`] (404 until one exists).
//!
//! Requests dispatch concurrently on the shared reactor: a scraper's
//! `/metrics` poll is never stuck behind a slow client dribbling a
//! `/report` download — one wedged connection costs one pollfd, not the
//! whole endpoint. Connections are keep-alive with idle timeouts;
//! [`TelemetryServer`] never leaks its threads.

use crate::http::{Request, Response};
use crate::httpd::{Handler, HttpServer, ServerConfig};
use crate::names;
use crate::Observer;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex};

struct Shared {
    report: Mutex<Option<String>>,
    obs: Observer,
}

/// Handle to the background telemetry server; dropping (or calling
/// [`TelemetryServer::stop`]) shuts it down and joins its threads.
#[must_use = "dropping the server handle shuts the endpoint down"]
pub struct TelemetryServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    server: Option<HttpServer>,
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TelemetryServer({})", self.local_addr)
    }
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving. The bound address is available via
    /// [`TelemetryServer::local_addr`].
    ///
    /// # Errors
    /// Bind/spawn failures.
    pub fn start(addr: impl ToSocketAddrs, obs: Observer) -> io::Result<TelemetryServer> {
        let shared = Arc::new(Shared {
            report: Mutex::new(None),
            obs: obs.clone(),
        });
        let handler_shared = Arc::clone(&shared);
        let handler: Handler = Arc::new(move |req: &Request| handle(req, &handler_shared));
        let server = HttpServer::start(
            addr,
            ServerConfig {
                // The endpoint serves small GET documents only.
                max_body: 0,
                thread_name: "lp-obs-serve".to_string(),
                ..ServerConfig::default()
            },
            handler,
            obs,
        )?;
        let local_addr = server.local_addr();
        Ok(TelemetryServer {
            local_addr,
            shared,
            server: Some(server),
        })
    }

    /// The address the server actually bound (relevant with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Installs the JSON served at `/report` (replacing any previous one).
    pub fn set_report(&self, json: String) {
        *self.shared.report.lock().expect("report slot poisoned") = Some(json);
    }

    /// Shuts the server down and joins its threads.
    pub fn stop(mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

fn handle(req: &Request, shared: &Shared) -> Response {
    if req.method != "GET" {
        return Response::new(
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        );
    }
    match req.path.as_str() {
        "/metrics" => Response::new(
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            shared.obs.prometheus_text(),
        ),
        "/healthz" => Response::json_ok(healthz_json(&shared.obs)),
        "/report" => {
            let report = shared.report.lock().expect("report slot poisoned").clone();
            match report {
                Some(json) => Response::json_ok(json),
                None => Response::not_found("no report yet"),
            }
        }
        other => Response::new(
            "404 Not Found",
            "application/json; charset=utf-8",
            unknown_path_json(other),
        ),
    }
}

/// JSON error body for unknown paths: names the path that missed and the
/// routes this server actually has, so a curl typo is self-diagnosing.
fn unknown_path_json(path: &str) -> String {
    use crate::json::Value;
    Value::Obj(vec![
        ("error".to_string(), Value::Str("unknown path".to_string())),
        ("path".to_string(), Value::Str(path.to_string())),
        (
            "routes".to_string(),
            Value::Arr(
                ["/metrics", "/healthz", "/report"]
                    .iter()
                    .map(|r| Value::Str((*r).to_string()))
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

fn healthz_json(obs: &Observer) -> String {
    use crate::json::Value;
    let mut members = vec![
        ("status".to_string(), Value::Str("ok".to_string())),
        ("phase".to_string(), Value::Str(obs.phase())),
        (
            "heartbeat_age_us".to_string(),
            Value::from(obs.heartbeat_age_us()),
        ),
        ("uptime_us".to_string(), Value::from(obs.uptime_us())),
        (
            "trace_events".to_string(),
            Value::from(obs.trace_events().len() as u64),
        ),
    ];
    // When a flight recorder publishes its occupancy gauges on this
    // observer, surface them as a nested object so liveness probes see
    // trace-ring pressure without scraping /metrics.
    let snap = obs.snapshot();
    if let Some(cap) = snap.gauges.get(names::FARM_TRACE_CAPACITY) {
        members.push((
            "flight_recorder".to_string(),
            Value::Obj(vec![
                (
                    "live".to_string(),
                    Value::Num(
                        snap.gauges
                            .get(names::FARM_TRACE_LIVE)
                            .copied()
                            .unwrap_or(0.0),
                    ),
                ),
                (
                    "finished".to_string(),
                    Value::Num(
                        snap.gauges
                            .get(names::FARM_TRACE_FINISHED)
                            .copied()
                            .unwrap_or(0.0),
                    ),
                ),
                ("capacity".to_string(), Value::Num(*cap)),
                (
                    "evicted".to_string(),
                    Value::from(
                        snap.counters
                            .get(names::FARM_TRACE_EVICTED)
                            .copied()
                            .unwrap_or(0),
                    ),
                ),
            ]),
        ));
    }
    Value::Obj(members).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_healthz_and_report() {
        let obs = Observer::enabled();
        obs.counter("store.hit").add(7);
        obs.set_phase("warming:demo");
        obs.set_stage("testing");
        let server = TelemetryServer::start("127.0.0.1:0", obs.clone()).unwrap();
        let addr = server.local_addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("# TYPE store_hit counter"));
        assert!(body.contains("store_hit 7"));
        // serve.requests self-counts: a second scrape sees the first.
        let (_, body2) = http_get(addr, "/metrics");
        assert!(body2.contains("serve_requests"));

        let (head, body) = http_get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        // set_stage swapped the stage and kept the driver's scope.
        assert_eq!(doc.get("phase").unwrap().as_str(), Some("testing:demo"));
        assert!(doc.get("heartbeat_age_us").unwrap().as_u64().is_some());

        let (head, _) = http_get(addr, "/report");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        server.set_report("{\"workload\":\"demo\"}".to_string());
        let (head, body) = http_get(addr, "/report");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(
            json::parse(&body)
                .unwrap()
                .get("workload")
                .unwrap()
                .as_str(),
            Some("demo")
        );

        // Unknown paths get a JSON error body listing the valid routes.
        let (head, body) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("path").unwrap().as_str(), Some("/nope"));
        let routes: Vec<&str> = doc
            .get("routes")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(|v| v.as_str())
            .collect();
        assert_eq!(routes, vec!["/metrics", "/healthz", "/report"]);

        server.stop();
        // The port is released: a new bind on the same address succeeds.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "server thread must release the listener");
    }

    #[test]
    fn healthz_surfaces_flight_recorder_occupancy() {
        let obs = Observer::enabled();
        let server = TelemetryServer::start("127.0.0.1:0", obs.clone()).unwrap();

        // Without the capacity gauge the object is absent entirely.
        let (_, body) = http_get(server.local_addr(), "/healthz");
        assert!(json::parse(&body).unwrap().get("flight_recorder").is_none());

        obs.gauge(names::FARM_TRACE_CAPACITY).set(256.0);
        obs.gauge(names::FARM_TRACE_LIVE).set(3.0);
        obs.gauge(names::FARM_TRACE_FINISHED).set(11.0);
        obs.counter(names::FARM_TRACE_EVICTED).add(5);
        let (_, body) = http_get(server.local_addr(), "/healthz");
        let fr = json::parse(&body).unwrap();
        let fr = fr.get("flight_recorder").expect("flight_recorder object");
        assert_eq!(fr.get("capacity").unwrap().as_f64(), Some(256.0));
        assert_eq!(fr.get("live").unwrap().as_f64(), Some(3.0));
        assert_eq!(fr.get("finished").unwrap().as_f64(), Some(11.0));
        assert_eq!(fr.get("evicted").unwrap().as_u64(), Some(5));
        server.stop();
    }

    #[test]
    fn rejects_non_get() {
        let server = TelemetryServer::start("127.0.0.1:0", Observer::enabled()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(
            stream,
            "POST /metrics HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 405"), "{buf}");
        server.stop();
    }

    /// The multiplexing regression the serial server failed: a client
    /// that opens a connection, sends half a request, and stalls must
    /// not block other clients' `/metrics` polls.
    #[test]
    fn slow_client_does_not_block_metrics() {
        let obs = Observer::enabled();
        obs.counter("store.hit").add(42);
        let server = TelemetryServer::start("127.0.0.1:0", obs).unwrap();
        let addr = server.local_addr();

        // The slow client: a partial request head, then silence, holding
        // the connection open for the duration of the test.
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"GET /report HTTP/1.1\r\nHost: x").unwrap();
        std::thread::sleep(Duration::from_millis(50)); // let the server adopt it

        // A healthy scraper must get through promptly regardless.
        let started = Instant::now();
        let (head, body) = http_get(addr, "/metrics");
        let elapsed = started.elapsed();
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("store_hit 42"), "{body}");
        assert!(
            elapsed < Duration::from_secs(1),
            "metrics poll stalled behind the slow client: {elapsed:?}"
        );
        drop(slow);
        server.stop();
    }
}
