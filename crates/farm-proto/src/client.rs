//! The typed farm client: a keep-alive [`HttpClient`] speaking the
//! versioned protocol. Tenant CLIs (`submit`, `status`, `trace`,
//! `farm-load`) and cluster inter-node paths all go through this type,
//! so negotiation, retry policy, and body parsing live in one place.

use crate::wire::{JobStatus, SubmitOutcome};
use crate::{JobSpec, PROTO_HEADER, PROTO_VERSION};
use lp_obs::http::{ClientResponse, HttpClient};
use lp_obs::json::Value;
use lp_obs::TraceContext;
use std::io;
use std::time::Duration;

/// Errors from [`FarmClient`] calls.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure.
    Io(io::Error),
    /// The server answered with a non-success status.
    Http {
        /// HTTP status code.
        status: u16,
        /// Response body (usually a JSON error object).
        body: String,
    },
    /// The server speaks an incompatible protocol version.
    VersionMismatch {
        /// What the server advertised.
        server: String,
    },
    /// The body did not parse as the expected shape.
    Parse(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "farm transport: {e}"),
            ProtoError::Http { status, body } => write!(f, "farm answered {status}: {body}"),
            ProtoError::VersionMismatch { server } => write!(
                f,
                "protocol version mismatch: server speaks {server}, this client speaks {PROTO_VERSION}"
            ),
            ProtoError::Parse(msg) => write!(f, "bad farm response: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// A typed client for one farm node.
#[derive(Debug)]
pub struct FarmClient {
    http: HttpClient,
}

impl FarmClient {
    /// A client for `addr` (`host:port`); connects lazily. Every request
    /// carries `x-lp-proto:` [`PROTO_VERSION`].
    pub fn connect(addr: impl Into<String>) -> FarmClient {
        let mut http = HttpClient::new(addr);
        http.push_default_header(PROTO_HEADER, PROTO_VERSION.to_string());
        FarmClient { http }
    }

    /// Sets the per-request timeout.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.http.set_timeout(timeout);
    }

    /// The underlying transport, for requests this type does not model
    /// (inter-node proxies and probes, raw-wire benchmarks).
    pub fn http(&mut self) -> &mut HttpClient {
        &mut self.http
    }

    /// Requests served over an already-open keep-alive connection.
    pub fn reuses(&self) -> u64 {
        self.http.reuses()
    }

    /// Verifies the server's advertised protocol version, if present.
    fn negotiated(resp: ClientResponse) -> Result<ClientResponse, ProtoError> {
        if let Some(v) = resp.header(PROTO_HEADER) {
            if !crate::version_compatible(Some(v)) {
                return Err(ProtoError::VersionMismatch {
                    server: v.to_string(),
                });
            }
        }
        Ok(resp)
    }

    fn get(&mut self, path: &str) -> Result<ClientResponse, ProtoError> {
        let resp = self.http.send("GET", path, &[], &[], None, true)?;
        Self::negotiated(resp)
    }

    /// The JSON body of a 200 response; any other status is an error.
    fn ok_json(resp: ClientResponse) -> Result<Value, ProtoError> {
        if resp.status != 200 {
            return Err(ProtoError::Http {
                status: resp.status,
                body: resp.text(),
            });
        }
        lp_obs::json::parse(&resp.text()).map_err(|e| ProtoError::Parse(e.to_string()))
    }

    fn get_ok_json(&mut self, path: &str) -> Result<Value, ProtoError> {
        Self::ok_json(self.get(path)?)
    }

    /// Submits a batch of specs (one NDJSON line each), optionally
    /// parented under `trace`, with `extra` request headers (the cluster
    /// forwarding path adds [`crate::FORWARDED_HEADER`] here). Returns
    /// the HTTP status and the per-line outcomes, in submission order.
    /// Content-keyed submissions are idempotent, so stale keep-alive
    /// connections are retried transparently.
    ///
    /// # Errors
    /// Transport failures, version mismatch, or an unparseable body.
    /// Per-line rejections are *not* errors; they come back as
    /// [`SubmitOutcome::Rejected`].
    pub fn submit_with(
        &mut self,
        specs: &[JobSpec],
        trace: Option<&TraceContext>,
        extra: &[(String, String)],
    ) -> Result<(u16, Vec<SubmitOutcome>), ProtoError> {
        let mut body = String::new();
        for spec in specs {
            body.push_str(&spec.to_value().to_string());
            body.push('\n');
        }
        let resp = self
            .http
            .send("POST", "/jobs", extra, body.as_bytes(), trace, true)?;
        let resp = Self::negotiated(resp)?;
        let text = resp.text();
        if resp.status != 202 && resp.status != 503 && resp.status != 400 {
            return Err(ProtoError::Http {
                status: resp.status,
                body: text,
            });
        }
        let mut outcomes = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v = lp_obs::json::parse(line).map_err(|e| ProtoError::Parse(e.to_string()))?;
            outcomes.push(SubmitOutcome::from_value(&v).map_err(ProtoError::Parse)?);
        }
        Ok((resp.status, outcomes))
    }

    /// [`FarmClient::submit_with`] without extra headers.
    ///
    /// # Errors
    /// See [`FarmClient::submit_with`].
    pub fn submit(
        &mut self,
        specs: &[JobSpec],
        trace: Option<&TraceContext>,
    ) -> Result<(u16, Vec<SubmitOutcome>), ProtoError> {
        self.submit_with(specs, trace, &[])
    }

    /// Fetches one job record. `GET /jobs/{id}` answers in NDJSON with
    /// the record as the final line; skipping the partials with a large
    /// `since` keeps the round trip as cheap as the pre-streaming wire.
    ///
    /// # Errors
    /// Transport, non-200 status, or an unparseable body.
    pub fn job(&mut self, id: u64) -> Result<JobStatus, ProtoError> {
        Ok(self.job_stream(id, usize::MAX)?.1)
    }

    /// Fetches a job's streamed partial-result lines starting at index
    /// `since`, plus the current record (always the response's last
    /// NDJSON line). Live jobs emit one `LiveProgress` JSON document per
    /// region; pipeline jobs stream nothing, so the partials come back
    /// empty. Poll with `since` = total lines seen so far to only pay
    /// for what is new.
    ///
    /// # Errors
    /// Transport, non-200 status, or an unparseable body.
    pub fn job_stream(
        &mut self,
        id: u64,
        since: usize,
    ) -> Result<(Vec<Value>, JobStatus), ProtoError> {
        let resp = self.get(&format!("/jobs/{id}?since={since}"))?;
        if resp.status != 200 {
            return Err(ProtoError::Http {
                status: resp.status,
                body: resp.text(),
            });
        }
        let text = resp.text();
        let mut lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let last = lines
            .pop()
            .ok_or_else(|| ProtoError::Parse("empty /jobs/{id} response".to_string()))?;
        let record = lp_obs::json::parse(last).map_err(|e| ProtoError::Parse(e.to_string()))?;
        let status = JobStatus::from_value(&record).map_err(ProtoError::Parse)?;
        let mut partials = Vec::with_capacity(lines.len());
        for line in lines {
            partials.push(lp_obs::json::parse(line).map_err(|e| ProtoError::Parse(e.to_string()))?);
        }
        Ok((partials, status))
    }

    /// Fetches a job's Chrome `trace_event` document.
    ///
    /// # Errors
    /// Transport, non-200 status, or an unparseable body.
    pub fn trace_document(&mut self, id: u64) -> Result<Value, ProtoError> {
        self.get_ok_json(&format!("/jobs/{id}/trace"))
    }

    /// Fetches `/healthz`.
    ///
    /// # Errors
    /// Transport, non-200 status, or an unparseable body.
    pub fn healthz(&mut self) -> Result<Value, ProtoError> {
        self.get_ok_json("/healthz")
    }

    /// Fetches `/queue`.
    ///
    /// # Errors
    /// Transport, non-200 status, or an unparseable body.
    pub fn queue(&mut self) -> Result<Value, ProtoError> {
        self.get_ok_json("/queue")
    }

    /// Fetches the node's full metrics snapshot as JSON
    /// (`GET /metrics.json`) — the federation wire format.
    ///
    /// # Errors
    /// Transport, non-200 status, or an unparseable body.
    pub fn metrics_json(&mut self) -> Result<Value, ProtoError> {
        self.get_ok_json("/metrics.json")
    }

    /// Fetches the node's metrics-history NDJSON (`GET /metrics/history`),
    /// resuming after sample sequence `since` (0 for everything retained).
    ///
    /// # Errors
    /// Transport or a non-200 status (404 when sampling is disabled).
    pub fn metrics_history(&mut self, since: u64) -> Result<String, ProtoError> {
        let resp = self.get(&format!("/metrics/history?since={since}"))?;
        if resp.status != 200 {
            return Err(ProtoError::Http {
                status: resp.status,
                body: resp.text(),
            });
        }
        Ok(resp.text())
    }

    /// Fetches the federated cluster metrics document
    /// (`GET /cluster/metrics`): per-node snapshots plus ring-wide
    /// rollups. Only cluster nodes serve this route.
    ///
    /// # Errors
    /// Transport, non-200 status, or an unparseable body.
    pub fn cluster_metrics(&mut self) -> Result<Value, ProtoError> {
        self.get_ok_json("/cluster/metrics")
    }

    /// Fetches the merged cross-node Chrome trace for `trace_id` (32
    /// lowercase hex chars) via `GET /cluster/trace/{trace_id}`. Only
    /// cluster nodes serve this route.
    ///
    /// # Errors
    /// Transport, non-200 status, or an unparseable body.
    pub fn cluster_trace(&mut self, trace_id: &str) -> Result<Value, ProtoError> {
        self.get_ok_json(&format!("/cluster/trace/{trace_id}"))
    }

    /// Cancels a job; returns the server's `{cancelled, state}` object.
    ///
    /// # Errors
    /// Transport, version mismatch, or an unparseable body.
    pub fn cancel(&mut self, id: u64) -> Result<Value, ProtoError> {
        let resp = self
            .http
            .send("POST", &format!("/jobs/{id}/cancel"), &[], &[], None, true)?;
        let resp = Self::negotiated(resp)?;
        lp_obs::json::parse(&resp.text()).map_err(|e| ProtoError::Parse(e.to_string()))
    }

    /// Requests shutdown (`mode` = `drain` | `now`); returns the server's
    /// `{shutting_down, mode}` acknowledgement.
    ///
    /// # Errors
    /// Transport, version mismatch, a non-200 status, or an unparseable
    /// body.
    pub fn shutdown(&mut self, mode: &str) -> Result<Value, ProtoError> {
        let path = format!("/shutdown?mode={mode}");
        let resp = self.http.send("POST", &path, &[], &[], None, true)?;
        Self::ok_json(Self::negotiated(resp)?)
    }
}
