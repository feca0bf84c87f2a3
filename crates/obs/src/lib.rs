//! # lp-obs — observability for the LoopPoint pipeline
//!
//! A std-only (zero external dependencies) observability layer:
//!
//! * **Span tracing** — RAII [`SpanGuard`]s with monotonic microsecond
//!   timestamps, per-thread lanes, and counter attachments, recorded into a
//!   lock-protected in-memory [`trace::TraceSink`];
//! * **Metrics registry** — named [`Counter`]s / [`Gauge`]s / log₂-bucketed
//!   [`Histogram`]s with one-atomic-op updates and a consistent
//!   [`MetricsRegistry::snapshot`];
//! * **Exporters** — Chrome `trace_event` JSON (load in `chrome://tracing`
//!   or <https://ui.perfetto.dev>) and a flat JSON metrics report, plus an
//!   embedded [`json`] parser so tests and tools can validate both offline;
//! * **Leveled logging** — [`lp_info!`] / [`lp_debug!`] / [`lp_warn!`]
//!   gated by a process-global [`LogLevel`].
//!
//! ## Handles and cost
//!
//! The central type is [`Observer`], a cheap clonable handle that is either
//! *enabled* (backed by a shared sink+registry) or *disabled* (every
//! operation a no-op costing one branch). Pipeline layers take an
//! `Observer` by value/clone — `looppoint::LoopPointConfig` threads one
//! through the whole pipeline — or fall back to the process-global default
//! installed with [`set_global`].
//!
//! ```
//! use lp_obs::Observer;
//!
//! let obs = Observer::enabled();
//! {
//!     let mut span = obs.span("phase.demo", "example");
//!     obs.counter("work.items").add(3);
//!     span.arg("items", 3u64);
//! } // span recorded here
//! let trace = obs.chrome_trace_json();
//! assert!(trace.contains("phase.demo"));
//! assert_eq!(obs.snapshot().counters["work.items"], 3);
//! ```

// `deny`, not `forbid`: the one sanctioned exception is the scoped
// `poll(2)` syscall shim inside `httpd::sys`, which opts back in with a
// module-level `#[allow(unsafe_code)]`. Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod federate;
pub mod flush;
pub mod http;
pub mod httpd;
pub mod json;
mod log;
pub mod metrics;
pub mod names;
pub mod prometheus;
pub mod serve;
pub mod timeseries;
pub mod trace;
pub mod tracectx;

pub use crate::log::{log_enabled, log_level, set_log_level, LogLevel};
pub use flush::{write_atomic, FlushTargets, PeriodicFlusher};
pub use httpd::{HttpServer, ServerConfig};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use serve::TelemetryServer;
pub use timeseries::{History, HistoryColumn, HistorySampler, Sample};
pub use trace::{SpanGuard, TraceArg, TraceEvent};
pub use tracectx::{SpanId, TraceContext, TraceId};

use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use trace::{ActiveSpan, Phase};

#[derive(Debug)]
pub(crate) struct Inner {
    pub(crate) epoch: Instant,
    pub(crate) trace: trace::TraceSink,
    pub(crate) metrics: MetricsRegistry,
    /// Coarse pipeline phase, surfaced on the `/healthz` endpoint.
    pub(crate) phase: Mutex<String>,
    /// Microseconds-since-epoch of the most recent heartbeat (span open,
    /// phase change, or explicit [`Observer::heartbeat`]).
    pub(crate) heartbeat_us: AtomicU64,
}

/// A cheap, clonable observability handle: either enabled (shared sink and
/// registry) or disabled (no-op).
#[derive(Clone, Default)]
pub struct Observer {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Observer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(i) => write!(f, "Observer(enabled, {} events)", i.trace.len()),
            None => write!(f, "Observer(disabled)"),
        }
    }
}

impl Observer {
    /// A fresh enabled observer with its own sink, registry, and epoch.
    pub fn enabled() -> Self {
        Observer {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                trace: trace::TraceSink::default(),
                metrics: MetricsRegistry::default(),
                phase: Mutex::new("init".to_string()),
                heartbeat_us: AtomicU64::new(0),
            })),
        }
    }

    /// The no-op observer.
    pub fn disabled() -> Self {
        Observer { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Two handles are *same* if they share one sink (clones of one
    /// enabled observer), or are both disabled.
    pub fn same_sink(&self, other: &Observer) -> bool {
        match (&self.inner, &other.inner) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// Opens a span in category `cat`; the returned guard records a single
    /// complete (`"X"`) event from now until it is dropped.
    ///
    /// When a [`tracectx::TraceContext`] is attached to the calling thread
    /// (see [`tracectx::TraceContext::attach`]), the span becomes a child
    /// of it — it records trace/span/parent ids and keeps its own child
    /// context attached for its lifetime, so nested spans parent under it
    /// automatically.
    pub fn span(&self, name: &str, cat: &'static str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard::disabled(),
            Some(inner) => {
                let (ctx, ctx_guard) = match tracectx::current() {
                    Some(parent) => {
                        let child = parent.child();
                        let guard = child.attach();
                        (Some(child), Some(guard))
                    }
                    None => (None, None),
                };
                SpanGuard {
                    active: Some(ActiveSpan {
                        sink: Arc::clone(inner),
                        name: name.to_string(),
                        cat,
                        start_us: trace::micros_since(inner.epoch),
                        tid: trace::lane_id(),
                        args: Vec::new(),
                        ctx,
                        ctx_guard,
                    }),
                }
            }
        }
    }

    /// Records a zero-duration instant event (heartbeats, milestones).
    pub fn instant(&self, name: &str, cat: &'static str) {
        if let Some(inner) = &self.inner {
            inner.trace.record(TraceEvent {
                name: name.to_string(),
                cat,
                ph: Phase::Instant,
                ts_us: trace::micros_since(inner.epoch),
                dur_us: 0,
                tid: trace::lane_id(),
                args: Vec::new(),
                ctx: tracectx::current(),
            });
        }
    }

    /// Records a counter sample (`"C"` event) — rendered as a track of
    /// stacked values in the trace viewer.
    pub fn counter_sample(&self, name: &str, cat: &'static str, series: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.trace.record(TraceEvent {
                name: name.to_string(),
                cat,
                ph: Phase::Counter,
                ts_us: trace::micros_since(inner.epoch),
                dur_us: 0,
                tid: trace::lane_id(),
                args: vec![(series.to_string(), TraceArg::F64(value))],
                ctx: tracectx::current(),
            });
        }
    }

    /// The counter registered under `name` (a no-op handle when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter::default(),
            Some(inner) => inner.metrics.counter(name),
        }
    }

    /// The gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge::default(),
            Some(inner) => inner.metrics.gauge(name),
        }
    }

    /// The histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            None => Histogram::default(),
            Some(inner) => inner.metrics.histogram(name),
        }
    }

    /// A point-in-time copy of all metrics (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(inner) => inner.metrics.snapshot(),
        }
    }

    /// All trace events recorded so far, sorted by timestamp.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.trace.events(),
        }
    }

    /// Removes and returns every recorded event belonging to `trace_id`
    /// (sorted by timestamp). The farm harvests each job's spans out of
    /// the shared sink into the bounded flight recorder with this, which
    /// also keeps long-running daemons from accumulating per-job spans
    /// unboundedly.
    pub fn take_trace_events(&self, trace_id: tracectx::TraceId) -> Vec<TraceEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.trace.take_by_trace(trace_id),
        }
    }

    /// Copies (without removing) every recorded event belonging to
    /// `trace_id`, sorted by timestamp. Cross-node trace assembly peeks
    /// with this so spans that have not been harvested yet still show up.
    pub fn trace_events_for(&self, trace_id: tracectx::TraceId) -> Vec<TraceEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.trace.events_for_trace(trace_id),
        }
    }

    /// The Chrome `trace_event` JSON document as a string.
    pub fn chrome_trace_json(&self) -> String {
        export::chrome_trace_document(&self.trace_events()).to_string()
    }

    /// The flat metrics report JSON as a string.
    pub fn metrics_json(&self) -> String {
        self.snapshot().to_json().to_string()
    }

    /// The metrics registry rendered in the Prometheus text exposition
    /// format (the `/metrics` endpoint payload).
    pub fn prometheus_text(&self) -> String {
        prometheus::render(&self.snapshot())
    }

    /// Writes the Chrome trace to `path` **atomically** (temp + fsync +
    /// rename): a crash mid-write never leaves a truncated file.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        flush::write_atomic(path.as_ref(), self.chrome_trace_json().as_bytes())
    }

    /// Writes the metrics report to `path` **atomically** (temp + fsync +
    /// rename).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_metrics(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        flush::write_atomic(path.as_ref(), self.metrics_json().as_bytes())
    }

    /// Sets the coarse pipeline phase shown on `/healthz` and bumps the
    /// heartbeat. No-op when disabled.
    pub fn set_phase(&self, phase: &str) {
        if let Some(inner) = &self.inner {
            *inner.phase.lock().expect("phase poisoned") = phase.to_string();
            self.heartbeat();
        }
    }

    /// Replaces the stage part of a `stage:scope` phase label, keeping the
    /// scope its driver set — how a pipeline stage reports progress
    /// without knowing which workload it runs for. No-op when disabled.
    pub fn set_stage(&self, stage: &str) {
        if let Some(inner) = &self.inner {
            let mut phase = inner.phase.lock().expect("phase poisoned");
            *phase = match phase.split_once(':') {
                Some((_, scope)) => format!("{stage}:{scope}"),
                None => stage.to_string(),
            };
            drop(phase);
            self.heartbeat();
        }
    }

    /// The current coarse pipeline phase (`""` when disabled).
    pub fn phase(&self) -> String {
        match &self.inner {
            None => String::new(),
            Some(inner) => inner.phase.lock().expect("phase poisoned").clone(),
        }
    }

    /// Records a liveness heartbeat (hot loops call this on their sampling
    /// cadence; `/healthz` reports the age of the latest one).
    #[inline]
    pub fn heartbeat(&self) {
        if let Some(inner) = &self.inner {
            inner
                .heartbeat_us
                .store(trace::micros_since(inner.epoch), Ordering::Relaxed);
        }
    }

    /// Microseconds since the most recent heartbeat (process uptime when
    /// none was ever recorded; 0 when disabled).
    pub fn heartbeat_age_us(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => trace::micros_since(inner.epoch)
                .saturating_sub(inner.heartbeat_us.load(Ordering::Relaxed)),
        }
    }

    /// Microseconds since this observer was created (0 when disabled).
    pub fn uptime_us(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => trace::micros_since(inner.epoch),
        }
    }
}

static GLOBAL: OnceLock<Observer> = OnceLock::new();

/// Installs the process-global default observer (used by layers that are
/// not reached by an explicit handle, e.g. `lp-pinball` and `lp-simpoint`).
/// Can be set once per process.
///
/// # Errors
/// Returns `Err(obs)` (handing the observer back) if one is already set.
pub fn set_global(obs: Observer) -> Result<(), Observer> {
    GLOBAL.set(obs)
}

/// The process-global observer: the one installed via [`set_global`], or a
/// disabled handle.
pub fn global() -> Observer {
    GLOBAL.get().cloned().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_is_free_and_silent() {
        let obs = Observer::disabled();
        assert!(!obs.is_enabled());
        {
            let mut s = obs.span("x", "t");
            s.arg("k", 1u64);
        }
        obs.instant("i", "t");
        obs.counter("c").add(5);
        assert!(obs.trace_events().is_empty());
        assert_eq!(obs.snapshot(), MetricsSnapshot::default());
        // Exports are still valid JSON.
        json::parse(&obs.chrome_trace_json()).unwrap();
        json::parse(&obs.metrics_json()).unwrap();
    }

    #[test]
    fn spans_record_complete_events_with_args() {
        let obs = Observer::enabled();
        {
            let mut outer = obs.span("outer", "t");
            outer.arg("n", 7u64);
            let _inner = obs.span("inner", "t");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let evs = obs.trace_events();
        assert_eq!(evs.len(), 2);
        for e in &evs {
            assert_eq!(e.ph, Phase::Complete);
        }
        let outer = evs.iter().find(|e| e.name == "outer").unwrap();
        let inner = evs.iter().find(|e| e.name == "inner").unwrap();
        assert!(outer.dur_us >= inner.dur_us, "outer encloses inner");
        assert!(outer.ts_us <= inner.ts_us);
        assert_eq!(outer.args, vec![("n".to_string(), TraceArg::U64(7))]);
    }

    #[test]
    fn clones_share_the_sink() {
        let obs = Observer::enabled();
        let clone = obs.clone();
        assert!(obs.same_sink(&clone));
        clone.counter("shared").add(2);
        assert_eq!(obs.snapshot().counters["shared"], 2);
        drop(clone.span("from-clone", "t"));
        assert_eq!(obs.trace_events().len(), 1);
        assert!(!obs.same_sink(&Observer::enabled()));
        assert!(Observer::disabled().same_sink(&Observer::disabled()));
    }

    #[test]
    fn chrome_export_parses_and_balances() {
        let obs = Observer::enabled();
        drop(obs.span("a", "t"));
        obs.instant("i", "t");
        obs.counter_sample("ipc", "t", "ipc", 1.5);
        let doc = json::parse(&obs.chrome_trace_json()).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(evs.len(), 3);
        // Every complete event carries a duration; only they do.
        for e in evs {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            assert_eq!(ph == "X", e.get("dur").is_some());
        }
    }

    #[test]
    fn spans_parent_under_the_attached_context() {
        let obs = Observer::enabled();
        // No context attached: events carry no ids.
        drop(obs.span("free", "t"));
        let root = tracectx::TraceContext::new_root();
        {
            let _g = root.attach();
            let outer = obs.span("outer", "t");
            let inner = obs.span("inner", "t");
            drop(inner);
            drop(outer);
            obs.instant("tick", "t");
        }
        let evs = obs.trace_events();
        let free = evs.iter().find(|e| e.name == "free").unwrap();
        assert_eq!(free.ctx, None);
        let outer = evs.iter().find(|e| e.name == "outer").unwrap().ctx.unwrap();
        let inner = evs.iter().find(|e| e.name == "inner").unwrap().ctx.unwrap();
        let tick = evs.iter().find(|e| e.name == "tick").unwrap().ctx.unwrap();
        assert_eq!(outer.trace_id, root.trace_id);
        assert_eq!(outer.parent_id, Some(root.span_id));
        assert_eq!(inner.trace_id, root.trace_id);
        assert_eq!(inner.parent_id, Some(outer.span_id), "spans nest");
        // The instant fired after both spans closed: it parents on root.
        assert_eq!(tick.span_id, root.span_id);
        // Harvesting by trace id drains exactly the trace's events.
        let taken = obs.take_trace_events(root.trace_id);
        assert_eq!(taken.len(), 3);
        let left = obs.trace_events();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].name, "free");
    }

    #[test]
    fn parallel_spans_land_on_distinct_lanes() {
        let obs = Observer::enabled();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let obs = obs.clone();
                s.spawn(move || drop(obs.span("worker", "t")));
            }
        });
        let tids: std::collections::HashSet<u64> =
            obs.trace_events().iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 3, "three threads, three lanes");
    }
}
