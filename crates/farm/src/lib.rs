//! # lp-farm — multi-tenant analysis service
//!
//! The LoopPoint front half (record → replay → slice → cluster →
//! checkpoint → simulate) is expensive and, for a given (program,
//! threads, config), perfectly deterministic. When several tenants — a
//! design-space sweep, a CI bot, an interactive user — share one
//! machine, running the same analysis twice is pure waste and running
//! twenty at once is an OOM. This crate is the service that sits in
//! front: a daemon with a bounded priority job queue, content-key
//! deduplication of in-flight *and* completed work, and a supervised
//! worker pool that survives panics, retries transient failures with
//! backoff, and drains gracefully.
//!
//! ```text
//!   POST /jobs (NDJSON)        ┌──────────── farm ────────────┐
//!  tenants ───────────────────▶│ bounded priority queue        │
//!   GET /jobs/{id}, /queue     │   │ dedup by 128-bit content  │
//!   GET /metrics (Prometheus)  │   ▼ key (1 compute, N subs)   │
//!   POST /shutdown?mode=drain  │ supervised workers            │
//!                              │   catch_unwind + respawn      │
//!                              │   retry w/ backoff + jitter   │
//!                              │   per-job deadlines           │
//!                              │ crash-safe queue journal      │
//!                              └──────────────────────────────┘
//! ```
//!
//! Everything is std-only; HTTP plumbing comes from [`lp_obs::http`],
//! metrics flow through the shared Prometheus exporter under the
//! `farm.*` names in [`lp_obs::names`], and job dedup keys reuse the
//! `lp-store` 128-bit content-hash machinery.
//!
//! ## Example
//!
//! ```
//! use lp_farm::{Farm, FarmConfig, FarmServer, JobBackend, JobSpec};
//! use std::sync::Arc;
//!
//! // A trivial backend: the real daemon uses `PipelineBackend`.
//! struct Echo;
//! impl JobBackend for Echo {
//!     fn job_key(&self, spec: &JobSpec) -> Result<String, String> {
//!         Ok(format!("{:0>32}", spec.program.len()))
//!     }
//!     fn execute(
//!         &self,
//!         spec: &JobSpec,
//!         _cancel: &looppoint::CancelToken,
//!     ) -> Result<String, String> {
//!         Ok(format!("{{\"program\":\"{}\"}}", spec.program))
//!     }
//! }
//!
//! let farm = Farm::start(
//!     FarmConfig::default(),
//!     Arc::new(Echo),
//!     lp_obs::Observer::disabled(),
//! )?;
//! let server = FarmServer::start("127.0.0.1:0", farm.clone())?;
//! let addr = server.local_addr().to_string();
//!
//! let mut client = lp_obs::http::HttpClient::new(addr);
//! let (status, body) = client.request("POST", "/jobs", "{\"program\":\"demo-matrix-1\"}\n")?;
//! assert_eq!(status, 202);
//! assert!(body.contains("\"state\":\"queued\""));
//!
//! farm.wait_idle(std::time::Duration::from_secs(10));
//! let (status, body) = client.request("GET", "/jobs/1", "")?;
//! assert_eq!(status, 200);
//! assert!(body.contains("\"state\":\"done\""), "{body}");
//!
//! use lp_farm::ShutdownMode;
//! farm.shutdown(ShutdownMode::Drain);
//! farm.join();
//! server.stop();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod farm;
pub mod job;
pub mod journal;
pub mod recorder;
pub mod server;

pub use backend::{JobBackend, PipelineBackend};
pub use farm::{
    Farm, FarmConfig, QueueSnapshot, ShutdownMode, SubmitError, Submitted, JOURNAL_FILE,
};
pub use job::{JobRecord, JobSpec, JobState};
pub use journal::{Journal, JournalConfig, JournalView, PersistedJob, JOURNAL_LOG_FILE};
pub use recorder::{FlightRecorder, JobTrace, LifecycleEvent};
pub use server::{FarmServer, ForwardHook, HealthzHook, RouteHook, ServerExtensions};
