//! Canonical signal names used across the pipeline.
//!
//! Every counter, gauge, and span that more than one crate touches is named
//! here once, so producers (the store, the pipeline, the diagnostics layer)
//! and consumers (benches, CI gates, the `/metrics` endpoint, dashboards)
//! cannot drift apart on spelling. [`all_names`] enumerates the set; a unit
//! test pins uniqueness and the `[a-z0-9_.]+` naming convention.

/// Span category for artifact-store operations.
pub const CAT_STORE: &str = "store";
/// Span category for diagnostics (accuracy attribution) operations.
pub const CAT_DIAG: &str = "diag";

/// Counter: a requested artifact was found, verified, and decoded.
pub const STORE_HIT: &str = "store.hit";
/// Counter: a requested artifact was absent and had to be recomputed.
pub const STORE_MISS: &str = "store.miss";
/// Counter: an artifact was removed by LRU eviction under the byte budget.
pub const STORE_EVICT: &str = "store.evict";
/// Counter: a stored artifact failed checksum / framing validation and was
/// quarantined.
pub const STORE_CORRUPT: &str = "store.corrupt";

/// Gauge: total uncompressed bytes of all live artifacts in the store.
pub const STORE_BYTES_RAW: &str = "store.bytes_raw";
/// Gauge: total on-disk (possibly compressed) bytes of all live artifacts.
pub const STORE_BYTES_COMPRESSED: &str = "store.bytes_compressed";

/// Span: loading + verifying one artifact from disk.
pub const SPAN_STORE_LOAD: &str = "store.load";
/// Span: sealing + atomically writing one artifact to disk.
pub const SPAN_STORE_SAVE: &str = "store.save";

/// Counter: accuracy-attribution reports generated.
pub const DIAG_REPORTS: &str = "diag.reports";
/// Gauge: end-to-end runtime error (%) of the most recent report.
pub const DIAG_ERROR_PCT: &str = "diag.error_pct";
/// Gauge: number of clusters attributed in the most recent report.
pub const DIAG_CLUSTERS: &str = "diag.clusters";
/// Span: building one accuracy-attribution report.
pub const SPAN_DIAG_REPORT: &str = "diag.report";

/// Counter: HTTP requests answered by the live telemetry endpoint.
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Counter: failed/aborted telemetry endpoint connections.
pub const SERVE_ERRORS: &str = "serve.errors";
/// Gauge: connections currently held open by the shared HTTP server.
pub const SERVE_OPEN_CONNECTIONS: &str = "serve.http.open_connections";
/// Counter: requests served on an already-established connection
/// (keep-alive reuse; the first request on a connection does not count).
pub const SERVE_KEEPALIVE_REUSES: &str = "serve.http.keepalive_reuses";

/// Span category for the lp-farm analysis service.
pub const CAT_FARM: &str = "farm";

/// Gauge: jobs currently waiting in the farm's bounded priority queue.
pub const FARM_QUEUE_DEPTH: &str = "farm.queue.depth";
/// Gauge: jobs currently executing on farm workers.
pub const FARM_RUNNING: &str = "farm.running";
/// Gauge: live farm worker threads.
pub const FARM_WORKERS: &str = "farm.workers";
/// Counter: jobs accepted into the farm queue.
pub const FARM_SUBMITTED: &str = "farm.submitted";
/// Counter: submissions rejected with backpressure (queue full).
pub const FARM_REJECTED: &str = "farm.rejected";
/// Counter: submissions answered by an in-flight or completed identical
/// job (one compute, N subscribers).
pub const FARM_DEDUP_HITS: &str = "farm.dedup.hits";
/// Counter: underlying computes actually executed by workers.
pub const FARM_COMPUTES: &str = "farm.computes";
/// Counter: jobs that reached the `done` state.
pub const FARM_DONE: &str = "farm.done";
/// Counter: jobs that failed permanently (attempts exhausted).
pub const FARM_FAILED: &str = "farm.failed";
/// Counter: jobs cancelled before completion.
pub const FARM_CANCELLED: &str = "farm.cancelled";
/// Counter: failed attempts re-queued with backoff.
pub const FARM_RETRY: &str = "farm.retry";
/// Counter: worker threads respawned after a panic.
pub const FARM_WORKER_RESPAWN: &str = "farm.worker.respawn";
/// Counter: job attempts aborted by the per-job timeout.
pub const FARM_TIMEOUT: &str = "farm.timeout";
/// Histogram: queued → running wait per job (µs).
pub const FARM_QUEUE_WAIT_US: &str = "farm.queue.wait_us";
/// Histogram: submit → terminal-state latency per job (µs).
pub const FARM_JOB_LATENCY_US: &str = "farm.job.latency_us";
/// Span: one worker executing one job attempt.
pub const SPAN_FARM_EXECUTE: &str = "farm.execute";
/// Span: handling one farm API request.
pub const SPAN_FARM_REQUEST: &str = "farm.request";

/// Gauge: in-flight jobs currently tracked by the flight recorder.
pub const FARM_TRACE_LIVE: &str = "farm.trace.live";
/// Gauge: finished job traces retained in the flight-recorder ring.
pub const FARM_TRACE_FINISHED: &str = "farm.trace.finished";
/// Gauge: configured flight-recorder ring capacity.
pub const FARM_TRACE_CAPACITY: &str = "farm.trace.capacity";
/// Counter: finished job traces evicted (oldest-completed first) to keep
/// the flight recorder within its capacity.
pub const FARM_TRACE_EVICTED: &str = "farm.trace.evicted";
/// Span: one job's whole lifetime, submit → terminal (synthesized by the
/// flight recorder as the root of the per-job trace).
pub const SPAN_FARM_JOB: &str = "farm.job";
/// Span: the job's enqueue → first-attempt wait (synthesized).
pub const SPAN_FARM_QUEUE_WAIT: &str = "farm.job.queue_wait";
/// Span: marks a dedup follower; its args carry the primary job's id and
/// trace id (synthesized).
pub const SPAN_FARM_DEDUP: &str = "farm.job.dedup_of";

/// Counter: group-committed fsyncs of the farm's append-only journal
/// (one per flush window, however many transitions it coalesced).
pub const FARM_JOURNAL_FSYNCS: &str = "farm.journal.fsyncs";
/// Counter: journal compactions (append log folded back into a snapshot).
pub const FARM_JOURNAL_COMPACTIONS: &str = "farm.journal.compactions";
/// Gauge: journal records appended but not yet fsynced (group-commit lag).
pub const FARM_JOURNAL_LAG: &str = "farm.journal.lag";

/// Span category for the lp-cluster multi-node layer.
pub const CAT_CLUSTER: &str = "cluster";

/// Counter: submissions forwarded to the content-key owner node.
pub const CLUSTER_FORWARDED: &str = "cluster.forwarded";
/// Counter: forwards that failed (owner unreachable / bad response);
/// the submission is then accepted locally as a fallback.
pub const CLUSTER_FORWARD_ERRORS: &str = "cluster.forward_errors";
/// Counter: artifacts fetched from a peer instead of recomputed. No
/// longer emitted — ring nodes share results through one store
/// directory, not an HTTP artifact exchange — so it reads 0. It stays
/// only because lp-perf's frozen `cluster.fetch_hits` metric reads it,
/// and it leaves when the benchmark definition is next revised (ROADMAP
/// item 4a).
pub const CLUSTER_FETCH_HITS: &str = "cluster.fetch.hits";
/// Counter: failover adoptions abandoned because the dead peer's
/// journal could not be read.
pub const CLUSTER_ADOPT_ERRORS: &str = "cluster.adopt_errors";
/// Counter: jobs re-adopted from a dead peer's journal by its ring
/// successor.
pub const CLUSTER_ADOPTED: &str = "cluster.adopted";
/// Counter: peer liveness transitions alive → dead.
pub const CLUSTER_PEER_DEATHS: &str = "cluster.peer.deaths";
/// Gauge: peers currently considered alive (self included).
pub const CLUSTER_PEERS_ALIVE: &str = "cluster.peers.alive";
/// Gauge: peers currently considered dead.
pub const CLUSTER_PEERS_DEAD: &str = "cluster.peers.dead";
/// Gauge: nodes in the consistent-hash ring (alive members).
pub const CLUSTER_RING_NODES: &str = "cluster.ring.nodes";
/// Gauge: fraction of the 128-bit key space owned by this node.
pub const CLUSTER_OWNED_FRACTION: &str = "cluster.owned_fraction";
/// Histogram: wall time of one submission forward hop (µs).
pub const CLUSTER_FORWARD_US: &str = "cluster.forward.us";
/// Span: forwarding one submission to its owner node.
pub const SPAN_CLUSTER_FORWARD: &str = "cluster.forward";

/// Histogram: wall time of one `/cluster/metrics` federation fan-out
/// across the live members (µs).
pub const CLUSTER_FEDERATE_US: &str = "cluster.federate.us";
/// Counter: peers that failed to answer a metrics-federation fan-out
/// (their column is omitted from that response).
pub const CLUSTER_FEDERATE_ERRORS: &str = "cluster.federate.errors";
/// Counter: merged cluster traces assembled by this node
/// (`/cluster/trace/{trace_id}` fan-outs).
pub const CLUSTER_TRACE_ASSEMBLED: &str = "cluster.trace.assembled";
/// Counter: job-trace requests proxied to the owner node because the id
/// belongs to another member's range.
pub const CLUSTER_TRACE_PROXIED: &str = "cluster.trace.proxied";
/// Counter: job-record requests (`GET /jobs/{id}`, including live
/// partial-result streams) proxied to the owner node because the id
/// belongs to another member's range.
pub const CLUSTER_JOB_PROXIED: &str = "cluster.job.proxied";

/// Span category for the lp-live online-sampling subsystem.
pub const CAT_LIVE: &str = "live";

/// Counter: regions classified by a live run.
pub const LIVE_REGIONS: &str = "live.regions";
/// Counter: regions simulated in detail by a live run.
pub const LIVE_DETAILED: &str = "live.regions.detailed";
/// Counter: regions predicted (skipped) by a live run.
pub const LIVE_PREDICTED: &str = "live.regions.predicted";
/// Counter: re-simulations of an already-known cluster, triggered by the
/// confidence/staleness policy (excludes first-contact detail runs).
pub const LIVE_RESIMS: &str = "live.resims";
/// Gauge: clusters spawned by the most recent live run.
pub const LIVE_CLUSTERS: &str = "live.clusters";
/// Gauge: detailed-simulation region fraction of the most recent live run.
pub const LIVE_DETAILED_PCT: &str = "live.detailed_pct";
/// Gauge: running IPC estimate of the most recent live run.
pub const LIVE_EST_IPC: &str = "live.est_ipc";
/// Span: one whole live-mode run (single pass plus detailed re-runs).
pub const SPAN_LIVE_RUN: &str = "live.run";
/// Span: one detailed region re-simulation inside a live run.
pub const SPAN_LIVE_DETAIL: &str = "live.region.detail";

/// Counter: successful periodic telemetry flushes (atomic rewrites of
/// `--trace-out` / `--metrics-out`).
pub const OBS_FLUSH_WRITES: &str = "obs.flush.writes";
/// Counter: periodic telemetry flushes that failed (counted, not fatal).
pub const OBS_FLUSH_ERRORS: &str = "obs.flush.errors";
/// Counter: samples appended to the in-process metrics history ring.
pub const OBS_HISTORY_SAMPLES: &str = "obs.history.samples";

/// How one gauge federates across cluster members in a
/// [`crate::federate`] rollup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeRollup {
    /// Per-node values are independent occupancies (queue depth, running
    /// jobs, store bytes): the ring-wide value is their sum.
    Sum,
    /// Per-node values describe the same ring-wide quantity (ring size,
    /// liveness counts) or a worst-of (journal lag): take the maximum.
    Max,
}

/// The federation policy for a gauge name. Agreement gauges — every node
/// reports (approximately) the same ring-wide value — and worst-of
/// gauges take the max so the rollup is not inflated by the member
/// count; every other gauge is a per-node occupancy and sums.
pub fn gauge_rollup(name: &str) -> GaugeRollup {
    match name {
        CLUSTER_RING_NODES | CLUSTER_PEERS_ALIVE | CLUSTER_PEERS_DEAD | FARM_JOURNAL_LAG => {
            GaugeRollup::Max
        }
        _ => GaugeRollup::Sum,
    }
}

/// Every canonical signal name defined in this module, for exhaustive
/// checks (uniqueness, naming convention, dashboards).
pub const fn all_names() -> &'static [&'static str] {
    &[
        STORE_HIT,
        STORE_MISS,
        STORE_EVICT,
        STORE_CORRUPT,
        STORE_BYTES_RAW,
        STORE_BYTES_COMPRESSED,
        SPAN_STORE_LOAD,
        SPAN_STORE_SAVE,
        DIAG_REPORTS,
        DIAG_ERROR_PCT,
        DIAG_CLUSTERS,
        SPAN_DIAG_REPORT,
        SERVE_REQUESTS,
        SERVE_ERRORS,
        SERVE_OPEN_CONNECTIONS,
        SERVE_KEEPALIVE_REUSES,
        FARM_QUEUE_DEPTH,
        FARM_RUNNING,
        FARM_WORKERS,
        FARM_SUBMITTED,
        FARM_REJECTED,
        FARM_DEDUP_HITS,
        FARM_COMPUTES,
        FARM_DONE,
        FARM_FAILED,
        FARM_CANCELLED,
        FARM_RETRY,
        FARM_WORKER_RESPAWN,
        FARM_TIMEOUT,
        FARM_QUEUE_WAIT_US,
        FARM_JOB_LATENCY_US,
        SPAN_FARM_EXECUTE,
        SPAN_FARM_REQUEST,
        FARM_TRACE_LIVE,
        FARM_TRACE_FINISHED,
        FARM_TRACE_CAPACITY,
        FARM_TRACE_EVICTED,
        SPAN_FARM_JOB,
        SPAN_FARM_QUEUE_WAIT,
        SPAN_FARM_DEDUP,
        FARM_JOURNAL_FSYNCS,
        FARM_JOURNAL_COMPACTIONS,
        FARM_JOURNAL_LAG,
        CLUSTER_FORWARDED,
        CLUSTER_FORWARD_ERRORS,
        CLUSTER_FETCH_HITS,
        CLUSTER_ADOPT_ERRORS,
        CLUSTER_ADOPTED,
        CLUSTER_PEER_DEATHS,
        CLUSTER_PEERS_ALIVE,
        CLUSTER_PEERS_DEAD,
        CLUSTER_RING_NODES,
        CLUSTER_OWNED_FRACTION,
        CLUSTER_FORWARD_US,
        SPAN_CLUSTER_FORWARD,
        CLUSTER_FEDERATE_US,
        CLUSTER_FEDERATE_ERRORS,
        CLUSTER_TRACE_ASSEMBLED,
        CLUSTER_TRACE_PROXIED,
        CLUSTER_JOB_PROXIED,
        LIVE_REGIONS,
        LIVE_DETAILED,
        LIVE_PREDICTED,
        LIVE_RESIMS,
        LIVE_CLUSTERS,
        LIVE_DETAILED_PCT,
        LIVE_EST_IPC,
        SPAN_LIVE_RUN,
        SPAN_LIVE_DETAIL,
        OBS_FLUSH_WRITES,
        OBS_FLUSH_ERRORS,
        OBS_HISTORY_SAMPLES,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_follow_the_convention() {
        let names = all_names();
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(seen.insert(*name), "duplicate canonical name {name:?}");
            assert!(!name.is_empty());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.'),
                "name {name:?} violates the [a-z0-9_.]+ convention"
            );
            assert!(
                !name.starts_with('.') && !name.ends_with('.'),
                "name {name:?} has a dangling dot"
            );
        }
    }

    #[test]
    fn names_sanitize_to_distinct_prometheus_names() {
        // The `/metrics` endpoint must not merge two canonical names.
        let mut sanitized = std::collections::BTreeSet::new();
        for name in all_names() {
            assert!(
                sanitized.insert(crate::prometheus::sanitize_name(name)),
                "{name:?} collides with another name after sanitization"
            );
        }
    }
}
