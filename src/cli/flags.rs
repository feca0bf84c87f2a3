//! The one flag table: every `run-looppoint` flag is declared here once —
//! names, value placeholder, default, range rule, help text — in groups
//! the command registry shares. The parser validates against it and the
//! help pages are generated from it, so a flag cannot be accepted without
//! being documented, or range-checked in one command and not another.

use lp_obs::LogLevel;
use lp_omp::WaitPolicy;
use lp_workloads::InputClass;
use std::fmt::Display;
use std::str::FromStr;

/// What a flag's value must look like; checked by the parser wherever
/// the flag is accepted.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// A boolean switch: takes no value.
    Switch,
    /// Any text (names, paths, addresses).
    Text,
    /// An integer of at least 1.
    Positive,
    /// One of a fixed set of words.
    Choice(&'static [&'static str]),
    /// Whatever the function accepts (values with a typed parser).
    Parsed(fn(&str) -> Result<(), String>),
}

impl Rule {
    /// Validates `value` for the flag spelled `name`.
    ///
    /// # Errors
    /// A usage message naming the flag and what it expects.
    pub fn check(self, name: &str, value: &str) -> Result<(), String> {
        let bad = |expected: &str| Err(format!("bad value '{value}' for {name}: {expected}"));
        match self {
            Rule::Switch | Rule::Text => Ok(()),
            Rule::Positive => match value.parse::<u64>() {
                Ok(0) => Err(format!("{name} must be positive")),
                Ok(_) => Ok(()),
                Err(_) => bad("expected a positive integer"),
            },
            Rule::Choice(words) if words.contains(&value) => Ok(()),
            Rule::Choice(words) => bad(&format!("expected {}", words.join("|"))),
            Rule::Parsed(parse) => parse(value).or_else(|e| bad(&e)),
        }
    }
}

/// [`Rule::Parsed`] over a type's `FromStr`.
fn parses<T: FromStr<Err: Display>>(value: &str) -> Result<(), String> {
    value.parse::<T>().map(drop).map_err(|e| e.to_string())
}

/// A non-negative integer.
const UINT: Rule = Parsed(parses::<u64>);

fn peer_spec(value: &str) -> Result<(), String> {
    lp_cluster::NodeSpec::parse(value).map(drop)
}

fn job_or_trace_id(value: &str) -> Result<(), String> {
    let trace_id = value.len() == 32 && value.chars().all(|c| c.is_ascii_hexdigit());
    if trace_id || value.parse::<u64>().is_ok() {
        Ok(())
    } else {
        Err("expected a job id or a 32-hex-digit trace id".to_string())
    }
}

/// One flag: how it is spelled, its default, rule, and help text.
#[derive(Debug)]
pub struct Flag {
    /// The spellings and value placeholder exactly as help shows them:
    /// `-p, --program <names>`. The last spelling is the canonical name
    /// commands look values up by.
    pub spec: &'static str,
    /// Value when the flag is absent; `""` when there is none. A command
    /// may override it.
    pub default: &'static str,
    /// What a given value must look like.
    pub rule: Rule,
    /// Whether a command that accepts the flag refuses to run without it.
    pub required: bool,
    /// Help text; the generated `[default: …]` suffix is not part of it.
    pub help: &'static str,
}

impl Flag {
    /// Every accepted spelling, short alias first.
    pub fn names(&self) -> impl Iterator<Item = &'static str> {
        let spellings = self.spec.split(" <").next().unwrap_or(self.spec);
        spellings.split(", ")
    }

    /// The canonical (long) name.
    pub fn name(&self) -> &'static str {
        self.names().last().unwrap_or(self.spec)
    }

    /// Whether this row declares its command's positional argument
    /// rather than a flag: its spec is the bare `<placeholder>`.
    pub fn is_positional(&self) -> bool {
        self.spec.starts_with('<')
    }
}

/// A titled set of flags that commands accept as a unit.
#[derive(Debug)]
pub struct Group {
    /// Section heading in help output.
    pub title: &'static str,
    /// The flags, in help order.
    pub flags: &'static [Flag],
}

/// Declares one [`Group`], a row per flag: `spec = default, rule, help;`.
macro_rules! group {
    ($(#[$doc:meta])* $name:ident, $title:literal:
     $($spec:literal = $default:literal, $rule:expr, $help:literal;)+) => {
        $(#[$doc])*
        pub static $name: Group = Group {
            title: $title,
            flags: &[$(Flag {
                spec: $spec,
                default: $default,
                rule: $rule,
                required: false,
                help: $help,
            }),+],
        };
    };
}

use Rule::{Choice, Parsed, Positive, Switch, Text};

group! {
    /// Which program(s) to run and how to slice them.
    PROGRAM, "PROGRAM OPTIONS":
    "-p, --program <names>" = "demo-matrix-1", Text,
        "comma-separated programs (demo-matrix-1..3, any SPEC-like app e.g. 627.cam4_s.1, or any \
         NPB-like kernel e.g. npb-cg)";
    "-n, --ncores <n>" = "8", UINT, "number of threads";
    "-i, --input-class <class>" = "test", Parsed(parses::<InputClass>), "test | train | ref | C";
    "-w, --wait-policy <p>" = "passive", Parsed(parses::<WaitPolicy>), "passive | active";
    "--slice-base <n>" = "8000", UINT, "per-thread slice size in filtered instructions";
    "--max-steps <n>" = "4000000000", Positive,
        "hard step budget for any single simulation or replay";
}

group! {
    /// Console verbosity.
    LOG, "LOGGING":
    "--log-level <level>" = "info", Parsed(parses::<LogLevel>), "quiet | info | debug";
}

group! {
    /// What a one-shot or live run reports beyond its result lines.
    REPORT, "REPORT OPTIONS":
    "-v, --verbose" = "", Switch,
        "print the full analysis report (slices, clusters, symbolized markers); live: the \
         per-region decision log";
    "--diag-report <path>" = "", Text,
        "write accuracy-attribution reports (one JSON array element per program): per-cluster \
         signed error split into representativeness, warmup, and extrapolation causes, plus a \
         self-profile of the pipeline's own time";
}

group! {
    /// Knobs only the one-shot pipeline run has.
    ONESHOT, "ONE-SHOT OPTIONS":
    "--pool-size <n>" = "0", UINT,
        "simulate regions concurrently on a bounded worker pool of n threads; 0 = serial";
    "--native" = "", Switch, "run the program natively (functional only)";
    "--no-store" = "", Switch, "ignore --store-dir (one-off fresh run)";
}

group! {
    /// Telemetry exports and the live endpoint of a one-shot run.
    TELEMETRY, "TELEMETRY OPTIONS":
    "--trace-out <path>" = "", Text,
        "write a Chrome trace_event JSON of every pipeline phase, region simulation, and IPC \
         heartbeat (open in chrome://tracing or https://ui.perfetto.dev)";
    "--metrics-out <path>" = "", Text,
        "write a flat JSON metrics report (counters, gauges, log2-bucketed histograms)";
    "--serve-metrics <addr>" = "", Text,
        "live telemetry endpoint while the run is in flight (e.g. 127.0.0.1:9184; port 0 picks an \
         ephemeral one, printed on startup): GET /metrics (Prometheus text), /healthz (phase + \
         heartbeat JSON), /report (latest accuracy report)";
    "--serve-linger-ms <n>" = "0", UINT,
        "keep the telemetry endpoint alive n ms after the runs finish (lets scrapers catch the \
         final state)";
    "--flush-interval-ms <n>" = "5000", Positive,
        "rewrite --trace-out/--metrics-out atomically every n ms, so a killed run still leaves \
         valid telemetry at most one interval stale";
}

group! {
    /// The persistent artifact store.
    STORE, "STORE OPTIONS":
    "--store-dir <path>" = "", Text,
        "persistent artifact store: cache pinballs, analyses, BBV matrices, clusterings, and \
         region checkpoints keyed by (program, threads, config); re-runs skip recording, replay, \
         slicing, clustering, and checkpoint generation";
    "--store-max-bytes <n>" = "", Positive,
        "on-disk byte budget for the store; least recently used artifacts are evicted [default: \
         unbounded]";
}

group! {
    /// Flags the paper artifact's `run-looppoint.py` takes; accepted so its
    /// scripts run unchanged.
    COMPAT, "ARTIFACT-SCRIPT COMPATIBILITY (accepted, no effect)":
    "--force" = "", Switch, "start a new end-to-end run (runs are always fresh here)";
    "--reuse-profile" = "", Switch, "reuse profiling results (use --store-dir for that here)";
    "--reuse-fullsim" = "", Switch, "reuse the full-application simulation (nothing to reuse here)";
}

group! {
    /// The farm daemon.
    SERVE, "SERVE OPTIONS":
    "--farm-listen <addr>" = "", Text,
        "bind address [default: 127.0.0.1:0 — ephemeral port, printed on startup; --node-addr in \
         cluster mode]";
    "--workers <n>" = "2", Positive, "worker pool width";
    "--queue-capacity <n>" = "64", Positive,
        "bounded queue size; submissions past it are rejected with Retry-After";
    "--max-attempts <n>" = "3", Positive, "attempts before a job fails permanently";
    "--job-timeout-ms <n>" = "0", UINT, "default per-job deadline; 0 = none";
    "--farm-dir <path>" = "", Text,
        "queue journal directory: queued and running jobs survive restarts";
    "--journal-flush-ms <n>" = "1", UINT,
        "journal group-commit window: transitions landing within it share one fsync";
    "--journal-compact-factor <n>" = "4", Positive,
        "compact the transition log back into the snapshot once it exceeds this multiple of the \
         snapshot size";
    "--trace-capacity <n>" = "256", Positive,
        "finished job traces retained in the in-memory flight recorder; oldest are evicted past \
         this";
    "--history-interval-ms <n>" = "1000", UINT,
        "metrics time-series sampling period for GET /metrics/history; 0 disables sampling";
    "--history-capacity <n>" = "512", Positive,
        "history ring size: samples retained per series before the oldest are overwritten";
}

group! {
    /// Multi-node serving.
    CLUSTER, "CLUSTER SERVE OPTIONS (multi-node farm; all require --node-addr)":
    "--node-addr <addr>" = "", Text,
        "this node's advertised host:port — peers dial it, and it becomes the bind address unless \
         --farm-listen says otherwise";
    "--cluster-peer <addr[=dir]>" = "", Parsed(peer_spec),
        "a static cluster member (repeatable); '=dir' names that peer's --farm-dir so the agreed \
         survivor can adopt its journaled queue after a crash";
    "--join <addr>" = "", Text,
        "learn the member list from a running node and announce this one to the cluster";
    "--vnodes <n>" = "64", Positive, "virtual nodes per member on the consistent-hash ring";
    "--heartbeat-ms <n>" = "500", Positive, "peer liveness probe period";
    "--failure-threshold <n>" = "3", Positive,
        "consecutive failed probes before a peer is declared dead";
    "--rpc-timeout-ms <n>" = "5000", UINT, "forward/fetch/probe timeout";
}

group! {
    /// How submitted jobs are scheduled and run (submit, farm-load).
    CLIENT, "JOB OPTIONS":
    "--priority <n>" = "0", Parsed(parses::<i64>), "scheduling priority (higher first)";
    "--timeout-ms <n>" = "0", UINT, "per-job deadline override; 0 = the daemon's default";
    "--live" = "", Switch,
        "run jobs in live mode (online sampling, streaming LiveProgress partials over GET \
         /jobs/{id})";
}

group! {
    /// `submit` only.
    SUBMIT, "SUBMIT OPTIONS":
    "--wait" = "", Switch, "poll until every job is terminal";
}

group! {
    /// Which job `status` and `trace` look at.
    JOB, "JOB SELECTION":
    "--job <id>" = "", UINT,
        "status: one job instead of the queue; trace: alternative to the positional id";
}

group! {
    /// `trace`'s positional target.
    TRACE, "TRACE TARGET":
    "<job-id|trace-id>" = "", Parsed(job_or_trace_id),
        "the job whose span tree to print; a 32-hex trace id instead fetches the merged \
         cross-node cluster trace";
}

group! {
    /// `status` only.
    STATUS, "STATUS OPTIONS":
    "--follow" = "", Switch,
        "with --job, poll the job's NDJSON stream and render LiveProgress lines in place until \
         the job is terminal";
}

group! {
    /// `shutdown` only.
    SHUTDOWN, "SHUTDOWN OPTIONS":
    "--mode <drain|now>" = "drain", Choice(&["drain", "now"]),
        "finish everything (drain) or interrupt and requeue (now)";
}

group! {
    /// `farm-load` only.
    LOAD, "LOAD OPTIONS":
    "--clients <n>" = "4", Positive, "concurrent keep-alive clients";
    "--jobs <n>" = "48", Positive,
        "total jobs across all clients, sent as a mix of batch and single POSTs";
}

group! {
    /// `top` only.
    TOP, "TOP OPTIONS":
    "--interval-ms <n>" = "1000", Positive, "refresh period";
    "--iterations <n>" = "0", UINT, "render n frames then exit; 0 = refresh until Ctrl-C";
}

/// Which daemon a client command talks to.
pub static FARM_ADDR: Group = Group {
    title: "DAEMON",
    flags: &[Flag {
        spec: "--farm <addr>",
        default: "",
        rule: Text,
        required: true,
        help: "daemon address (required); for top, any cluster member",
    }],
};
