//! The artifact's `run-looppoint.py` driver, reimplemented for this
//! reproduction: runs the end-to-end methodology for one or more programs
//! and prints error and speedup numbers on the console.
//!
//! ```text
//! run-looppoint -p demo-matrix-1 -n 8
//! run-looppoint -p demo-matrix-2,demo-matrix-3 -w active -i test
//! run-looppoint -p 627.cam4_s.1 -i train -w active
//! run-looppoint -p 619.lbm_s.1 --native
//! run-looppoint -p demo-matrix-1 --trace-out lp.trace.json --metrics-out lp.metrics.json
//!
//! run-looppoint serve --farm-listen 127.0.0.1:0 --workers 2
//! run-looppoint submit --farm 127.0.0.1:9190 -p demo-matrix-1,demo-matrix-1 --wait
//! run-looppoint status --farm 127.0.0.1:9190 [--job 3]
//! run-looppoint shutdown --farm 127.0.0.1:9190 --mode drain
//! ```
//!
//! Exit codes: `0` success; `1` pipeline/service error (a run failed, a
//! job failed, the farm rejected work); `2` configuration or usage error
//! (bad flags, unknown program name, unopenable store, unbindable
//! address). A killed process dies by signal and reports no exit code.

use looppoint::{
    analyze, analyze_cached, diagnose, error_pct, extrapolate, prepare_region_checkpoints_cached,
    simulate_prepared, simulate_representatives_checkpointed, simulate_whole, speedups, DiagReport,
    LoopPointConfig, SimOptions, DEFAULT_MAX_STEPS,
};
use lp_farm::{Farm, FarmConfig, FarmServer, PipelineBackend, ShutdownMode};
use lp_farm_proto::FarmClient;
use lp_obs::{
    lp_debug, lp_info, lp_warn, FlushTargets, LogLevel, Observer, PeriodicFlusher, TelemetryServer,
};
use lp_omp::WaitPolicy;
use lp_store::{Store, StoreConfig};
use lp_uarch::SimConfig;
use lp_workloads::{build, matrix_demo, InputClass, WorkloadSpec};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exit code for pipeline/service failures.
const EXIT_PIPELINE: u8 = 1;
/// Exit code for configuration/usage errors.
const EXIT_CONFIG: u8 = 2;

fn config_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(EXIT_CONFIG)
}

#[derive(Debug)]
struct Args {
    programs: Vec<String>,
    ncores: usize,
    input: InputClass,
    policy: WaitPolicy,
    native: bool,
    verbose: bool,
    slice_base: u64,
    max_steps: u64,
    pool_size: usize,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    diag_report: Option<String>,
    serve_metrics: Option<String>,
    serve_linger_ms: u64,
    flush_interval_ms: u64,
    log_level: LogLevel,
    store_dir: Option<String>,
    store_max_bytes: Option<u64>,
    no_store: bool,
}

const USAGE: &str = "\
run-looppoint — end-to-end LoopPoint sampling for one or more programs

USAGE:
    run-looppoint [OPTIONS]                 one-shot pipeline run
    run-looppoint live [OPTIONS]            one-shot Pac-Sim-style online
                                            sampling: no profiling prequel,
                                            regions classified as the
                                            program runs, compared against
                                            a full-detail reference (one
                                            JSON summary line per program)
    run-looppoint serve [SERVE OPTIONS]     lp-farm analysis daemon
    run-looppoint submit --farm <addr> ...  submit jobs to a daemon
    run-looppoint status --farm <addr>      queue or per-job status
    run-looppoint trace <job-id> --farm <addr>  print a job's span tree
                                            (a 32-hex trace id instead of a
                                            job id fetches the merged
                                            cross-node cluster trace)
    run-looppoint top --farm <addr>         live cluster dashboard: per-node
                                            jobs/s, queue depth, dedup %,
                                            queue-wait quantiles, sparklines
    run-looppoint shutdown --farm <addr>    drain or stop a daemon
    run-looppoint farm-load --farm <addr>   concurrent keep-alive load burst

EXIT CODES:
    0  success
    1  pipeline/service error (a run or job failed, work was rejected)
    2  configuration or usage error (bad flags, unknown program,
       unopenable store, unbindable address)

SERVE OPTIONS (see also --store-dir/--store-max-bytes/--log-level below):
        --farm-listen <addr>   bind address [default: 127.0.0.1:0 —
                               ephemeral port, printed on startup]
        --workers <n>          worker pool width [default: 2]
        --queue-capacity <n>   bounded queue size; submissions past it
                               are rejected with Retry-After [default: 64]
        --max-attempts <n>     attempts before a job fails permanently
                               [default: 3]
        --job-timeout-ms <n>   default per-job deadline; 0 = none
                               [default: 0]
        --farm-dir <path>      queue journal directory: queued and
                               running jobs survive restarts
        --journal-flush-ms <n> journal group-commit window: transitions
                               landing within it share one fsync
                               [default: 1]
        --journal-compact-factor <n>
                               compact the transition log back into the
                               snapshot once it exceeds this multiple of
                               the snapshot size [default: 4]
        --trace-capacity <n>   finished job traces retained in the
                               in-memory flight recorder; oldest are
                               evicted past this [default: 256]
        --history-interval-ms <n>
                               metrics time-series sampling period for
                               GET /metrics/history; 0 disables sampling
                               [default: 1000]
        --history-capacity <n> history ring size: samples retained per
                               series before the oldest are overwritten
                               [default: 512]

CLUSTER SERVE OPTIONS (multi-node farm; all require --node-addr):
        --node-addr <addr>     this node's advertised host:port — peers
                               dial it, and it becomes the bind address
                               unless --farm-listen says otherwise
        --cluster-peer <addr[=dir]>
                               a static cluster member (repeatable);
                               '=dir' names that peer's --farm-dir so
                               the agreed survivor can adopt its
                               journaled queue after a crash
        --join <addr>          learn the member list from a running node
                               and announce this one to the cluster
        --vnodes <n>           virtual nodes per member on the
                               consistent-hash ring [default: 64]
        --heartbeat-ms <n>     peer liveness probe period [default: 500]
        --failure-threshold <n>
                               consecutive failed probes before a peer
                               is declared dead [default: 3]
        --rpc-timeout-ms <n>   forward/fetch/probe timeout
                               [default: 5000]

SUBMIT/STATUS/SHUTDOWN OPTIONS:
        --farm <addr>          daemon address (required)
        --wait                 submit: poll until every job is terminal
        --live                 submit/farm-load: run jobs in live mode
                               (online sampling, streaming LiveProgress
                               partials over GET /jobs/{id})
        --job <id>             status: one job instead of the queue;
                               trace: alternative to the positional id
        --follow               status: with --job, poll the job's NDJSON
                               stream and render LiveProgress lines in
                               place until the job is terminal
        --mode <drain|now>     shutdown: finish everything (drain) or
                               interrupt and requeue (now) [default: drain]
        --priority <n>         submit: scheduling priority (higher first)
        --timeout-ms <n>       submit: per-job deadline override
        --clients <n>          farm-load: concurrent keep-alive clients
                               [default: 4]
        --jobs <n>             farm-load: total jobs across all clients,
                               sent as a mix of batch and single POSTs
                               [default: 48]

TOP OPTIONS:
        --farm <addr>          any cluster member (required); single
                               farms work too (one-row dashboard)
        --interval-ms <n>      refresh period [default: 1000]
        --iterations <n>       render n frames then exit; 0 = refresh
                               until Ctrl-C [default: 0]

OPTIONS:
    -p, --program <names>      comma-separated programs (demo-matrix-1..3,
                               any SPEC-like app e.g. 627.cam4_s.1, or any
                               NPB-like kernel e.g. npb-cg)
                               [default: demo-matrix-1]
    -n, --ncores <n>           number of threads [default: 8]
    -i, --input-class <class>  test | train | ref | C [default: test]
    -w, --wait-policy <p>      passive | active [default: passive]
        --slice-base <n>       per-thread slice size in filtered
                               instructions [default: 8000]
        --max-steps <n>        hard step budget for any single simulation
                               or replay [default: 4000000000]
        --pool-size <n>        simulate regions concurrently on a bounded
                               worker pool of n threads; 0 = serial
                               [default: 0]
        --native               run the program natively (functional only)
        --trace-out <path>     write a Chrome trace_event JSON of every
                               pipeline phase, region simulation, and IPC
                               heartbeat (open in chrome://tracing or
                               https://ui.perfetto.dev)
        --metrics-out <path>   write a flat JSON metrics report (counters,
                               gauges, log2-bucketed histograms)
        --diag-report <path>   write accuracy-attribution reports (one JSON
                               array element per program): per-cluster
                               signed error split into representativeness,
                               warmup, and extrapolation causes, plus a
                               self-profile of the pipeline's own time
        --serve-metrics <addr> live telemetry endpoint while the run is in
                               flight (e.g. 127.0.0.1:9184; port 0 picks an
                               ephemeral one, printed on startup):
                               GET /metrics (Prometheus text), /healthz
                               (phase + heartbeat JSON), /report (latest
                               accuracy report)
        --serve-linger-ms <n>  keep the telemetry endpoint alive n ms after
                               the runs finish (lets scrapers catch the
                               final state) [default: 0]
        --flush-interval-ms <n> rewrite --trace-out/--metrics-out atomically
                               every n ms, so a killed run still leaves
                               valid telemetry at most one interval stale
                               [default: 5000]
        --store-dir <path>     persistent artifact store: cache pinballs,
                               analyses, BBV matrices, clusterings, and
                               region checkpoints keyed by (program,
                               threads, config); re-runs skip recording,
                               replay, slicing, clustering, and checkpoint
                               generation
        --store-max-bytes <n>  on-disk byte budget for the store; least
                               recently used artifacts are evicted
                               [default: unbounded]
        --no-store             ignore --store-dir (one-off fresh run)
        --log-level <level>    quiet | info | debug [default: info]
    -v, --verbose              print the full analysis report (slices,
                               clusters, symbolized markers)
        --force                start a new end-to-end run (accepted for
                               artifact-script compatibility; runs are
                               always fresh here)
    -h, --help                 print this help
";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        programs: vec!["demo-matrix-1".to_string()],
        ncores: 8,
        input: InputClass::Test,
        policy: WaitPolicy::Passive,
        native: false,
        verbose: false,
        slice_base: 8_000,
        max_steps: DEFAULT_MAX_STEPS,
        pool_size: 0,
        trace_out: None,
        metrics_out: None,
        diag_report: None,
        serve_metrics: None,
        serve_linger_ms: 0,
        flush_interval_ms: 5_000,
        log_level: LogLevel::Info,
        store_dir: None,
        store_max_bytes: None,
        no_store: false,
    };
    let mut it = argv.iter().cloned();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match arg.as_str() {
            "-p" | "--program" => {
                args.programs = value("-p")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            "-n" | "--ncores" => {
                args.ncores = value("-n")?
                    .parse()
                    .map_err(|e| format!("bad thread count: {e}"))?;
            }
            "-i" | "--input-class" => {
                args.input = match value("-i")?.as_str() {
                    "test" => InputClass::Test,
                    "train" => InputClass::Train,
                    "ref" => InputClass::Ref,
                    "C" | "c" => InputClass::NpbC,
                    other => return Err(format!("unknown input class '{other}'")),
                };
            }
            "-w" | "--wait-policy" => {
                args.policy = match value("-w")?.as_str() {
                    "passive" => WaitPolicy::Passive,
                    "active" => WaitPolicy::Active,
                    other => return Err(format!("unknown wait policy '{other}'")),
                };
            }
            "--slice-base" => {
                args.slice_base = value("--slice-base")?
                    .parse()
                    .map_err(|e| format!("bad slice base: {e}"))?;
            }
            "--max-steps" => {
                args.max_steps = value("--max-steps")?
                    .parse()
                    .map_err(|e| format!("bad step budget: {e}"))?;
                if args.max_steps == 0 {
                    return Err("--max-steps must be positive".to_string());
                }
            }
            "--pool-size" => {
                args.pool_size = value("--pool-size")?
                    .parse()
                    .map_err(|e| format!("bad pool size: {e}"))?;
            }
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--diag-report" => args.diag_report = Some(value("--diag-report")?),
            "--serve-metrics" => args.serve_metrics = Some(value("--serve-metrics")?),
            "--serve-linger-ms" => {
                args.serve_linger_ms = value("--serve-linger-ms")?
                    .parse()
                    .map_err(|e| format!("bad linger interval: {e}"))?;
            }
            "--flush-interval-ms" => {
                args.flush_interval_ms = value("--flush-interval-ms")?
                    .parse()
                    .map_err(|e| format!("bad flush interval: {e}"))?;
                if args.flush_interval_ms == 0 {
                    return Err("--flush-interval-ms must be positive".to_string());
                }
            }
            "--store-dir" => args.store_dir = Some(value("--store-dir")?),
            "--store-max-bytes" => {
                let n: u64 = value("--store-max-bytes")?
                    .parse()
                    .map_err(|e| format!("bad store byte budget: {e}"))?;
                if n == 0 {
                    return Err("--store-max-bytes must be positive".to_string());
                }
                args.store_max_bytes = Some(n);
            }
            "--no-store" => args.no_store = true,
            "--log-level" => {
                args.log_level = value("--log-level")?.parse()?;
            }
            "--native" => args.native = true,
            "-v" | "--verbose" => args.verbose = true,
            "--force" | "--reuse-profile" | "--reuse-fullsim" => {
                // Artifact-script compatibility: accepted, nothing to reuse.
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'\n\n{USAGE}")),
        }
    }
    Ok(args)
}

fn resolve(name: &str) -> Option<WorkloadSpec> {
    match name {
        "demo-matrix-1" => Some(matrix_demo(1)),
        "demo-matrix-2" => Some(matrix_demo(2)),
        "demo-matrix-3" => Some(matrix_demo(3)),
        other => lp_workloads::find(other),
    }
}

fn run_one(
    spec: &WorkloadSpec,
    args: &Args,
    obs: &Observer,
    store: Option<&Store>,
) -> Result<Option<DiagReport>, Box<dyn std::error::Error>> {
    let want_diag = args.diag_report.is_some() || args.serve_metrics.is_some();
    let nthreads = spec.effective_threads(args.ncores);
    let program = build(spec, args.input, args.ncores, args.policy);
    let mut run_span = obs.span(&format!("run.{}", spec.name), "driver");
    run_span.arg("nthreads", nthreads);
    run_span.arg("input", args.input.name());
    lp_info!(
        "\n=== {} | input {} | {} threads | {} wait policy ===",
        spec.name,
        args.input.name(),
        nthreads,
        args.policy
    );

    if args.native {
        obs.set_phase(&format!("native:{}", spec.name));
        let start = std::time::Instant::now();
        let mut m = lp_isa::Machine::new(program, nthreads);
        m.run_to_completion(u64::MAX)?;
        lp_info!(
            "native run: {} instructions in {:.2?} ({:.1} Minst/s)",
            m.global_retired(),
            start.elapsed(),
            m.global_retired() as f64 / start.elapsed().as_secs_f64() / 1e6
        );
        return Ok(None);
    }

    let simcfg = SimConfig::gainestown(nthreads.max(args.ncores));
    let mut cfg = LoopPointConfig::with_slice_base(args.slice_base).with_observer(obs.clone());
    cfg.max_steps = args.max_steps;

    obs.set_phase(&format!("analyze:{}", spec.name));
    lp_info!("[1/4] profiling (record + constrained replays) ...");
    let (analysis, from_store) = match store {
        Some(store) => analyze_cached(&program, nthreads, &cfg, store)?,
        None => (analyze(&program, nthreads, &cfg)?, false),
    };
    if from_store {
        lp_info!("      analysis served from the artifact store (no recording or replay)");
    }
    lp_info!(
        "      {} slices, {} clusters -> {} looppoints; spin filter removed {:.1}% of instructions",
        analysis.profile.slices.len(),
        analysis.clustering.k,
        analysis.looppoints.len(),
        analysis.profile.filter_ratio() * 100.0
    );
    lp_debug!(
        "      clustering: bic={:.2} sse={:.2} sizes={:?}",
        analysis.clustering.bic,
        analysis.clustering.sse,
        analysis.clustering.cluster_sizes
    );

    if args.verbose {
        lp_info!(
            "\n{}",
            looppoint::report::analysis_report(&program, &analysis)
        );
    }
    obs.set_phase(&format!("simulate-regions:{}", spec.name));
    lp_info!(
        "[2/4] simulating {} regions (checkpoint-driven, 2-slice warmup{}) ...",
        analysis.looppoints.len(),
        if args.pool_size > 0 {
            format!(", {}-wide pool", args.pool_size)
        } else {
            String::new()
        }
    );
    let sim_opts = SimOptions {
        max_steps: args.max_steps,
        parallel: args.pool_size > 0,
        pool_size: (args.pool_size > 0).then_some(args.pool_size),
        ..Default::default()
    };
    let results = match store {
        Some(store) => {
            let (prepared, ck_hit) =
                prepare_region_checkpoints_cached(&analysis, &program, nthreads, &cfg, 2, store)?;
            if ck_hit {
                lp_info!("      region checkpoints served from the artifact store");
            }
            simulate_prepared(&prepared, &program, nthreads, &simcfg, &sim_opts)?
        }
        None => simulate_representatives_checkpointed(
            &analysis, &program, nthreads, &simcfg, 2, &sim_opts,
        )?,
    };

    obs.set_phase(&format!("extrapolate:{}", spec.name));
    lp_info!("[3/4] extrapolating whole-program performance ...");
    let prediction = extrapolate(&results);

    if args.input == InputClass::Ref {
        // As in the paper, no full detailed reference at ref scale.
        let total = analysis.profile.total_filtered;
        let sum: u64 = analysis.looppoints.iter().map(|r| r.filtered_insts).sum();
        let max = analysis
            .looppoints
            .iter()
            .map(|r| r.filtered_insts)
            .max()
            .unwrap_or(1);
        lp_info!(
            "[4/4] ref inputs: skipping full-application reference (impractical, as in the paper)"
        );
        lp_info!(
            "      predicted runtime: {:.0} cycles",
            prediction.total_cycles
        );
        lp_info!(
            "      theoretical speedup: serial {:.1}x, parallel {:.1}x",
            total as f64 / sum.max(1) as f64,
            total as f64 / max as f64
        );
        // No reference at ref scale: the report still carries weights,
        // distances, and the self-profile (errors attribute to zero).
        return Ok(want_diag.then(|| diagnose(spec.name, nthreads, &analysis, &results, None, obs)));
    }

    obs.set_phase(&format!("reference-sim:{}", spec.name));
    lp_info!("[4/4] full-application reference simulation ...");
    let full = simulate_whole(&program, nthreads, &simcfg)?;
    let err = error_pct(prediction.total_cycles, full.cycles as f64);
    let sp = speedups(&analysis, &results, &full);
    obs.gauge("driver.runtime_error_pct").set(err);

    lp_info!("\nresults:");
    lp_info!(
        "  predicted runtime : {:>12.0} cycles",
        prediction.total_cycles
    );
    lp_info!("  measured runtime  : {:>12} cycles", full.cycles);
    lp_info!("  runtime error     : {err:.2}%");
    lp_info!(
        "  branch MPKI       : predicted {:.3}, measured {:.3}",
        prediction.branch_mpki,
        full.branch_mpki()
    );
    lp_info!(
        "  L2 MPKI           : predicted {:.3}, measured {:.3}",
        prediction.l2_mpki,
        full.l2_mpki()
    );
    lp_info!(
        "  speedup           : theoretical serial {:.1}x / parallel {:.1}x, actual serial {:.1}x / parallel {:.1}x",
        sp.theoretical_serial, sp.theoretical_parallel, sp.actual_serial, sp.actual_parallel
    );

    if !want_diag {
        return Ok(None);
    }
    obs.set_phase(&format!("diagnose:{}", spec.name));
    let report = diagnose(spec.name, nthreads, &analysis, &results, Some(&full), obs);
    if args.diag_report.is_some() {
        lp_info!("\n{}", report.render_table());
    }
    Ok(Some(report))
}

/// `run-looppoint live`: Pac-Sim-style one-shot online sampling — no
/// profiling prequel. Classifies regions as the program runs, streams
/// per-region progress, then compares the live estimate against a
/// full-detail reference run. One machine-parseable JSON summary line
/// per program on stdout (what ci's live-smoke gate reads).
fn live_run(argv: &[String]) -> ExitCode {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => return config_error(&e),
    };
    lp_obs::set_log_level(args.log_level);
    for name in &args.programs {
        if resolve(name).is_none() {
            return config_error(&format!("unknown program '{name}' (see --help)"));
        }
    }
    let obs = Observer::enabled();
    let mut reports: Vec<lp_obs::json::Value> = Vec::new();
    for name in &args.programs {
        let spec = resolve(name).expect("names were validated above");
        let nthreads = spec.effective_threads(args.ncores);
        let program = build(&spec, args.input, args.ncores, args.policy);
        let simcfg = SimConfig::gainestown(nthreads.max(args.ncores));
        let mut cfg =
            looppoint::LiveConfig::with_slice_base(args.slice_base).with_observer(obs.clone());
        cfg.max_steps = args.max_steps;
        lp_info!(
            "\n=== {} | live (online sampling) | input {} | {} threads ===",
            spec.name,
            args.input.name(),
            nthreads
        );
        let outcome = match looppoint::analyze_live(&program, nthreads, &cfg, &simcfg, &mut |p| {
            lp_info!("      {}", p.render());
        }) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: live run for {}: {e}", spec.name);
                return ExitCode::from(EXIT_PIPELINE);
            }
        };
        let full = match simulate_whole(&program, nthreads, &simcfg) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: full-detail reference for {}: {e}", spec.name);
                return ExitCode::from(EXIT_PIPELINE);
            }
        };
        let err = error_pct(outcome.est_total_cycles, full.cycles as f64);
        lp_info!(
            "  live estimate    : {:.0} cycles (IPC {:.3})",
            outcome.est_total_cycles,
            outcome.est_ipc()
        );
        lp_info!(
            "  full detail      : {} cycles (IPC {:.3})",
            full.cycles,
            full.ipc()
        );
        lp_info!("  cycles error     : {err:.2}%");
        lp_info!(
            "  detailed regions : {}/{} ({:.1}%), {} clusters",
            outcome.detailed_regions,
            outcome.regions.len(),
            outcome.detailed_fraction() * 100.0,
            outcome.clusters.len()
        );
        if args.verbose {
            for line in outcome.decision_log() {
                lp_info!("      {line}");
            }
        }
        if args.diag_report.is_some() {
            let report = looppoint::diagnose_live(spec.name, nthreads, &outcome, Some(&full), &obs);
            lp_info!("\n{}", report.render_table());
            reports.push(report.to_value());
        }
        let mut summary = match looppoint::LiveSummary::from_outcome(&outcome).to_value() {
            lp_obs::json::Value::Obj(members) => members,
            _ => unreachable!("LiveSummary::to_value returns an object"),
        };
        summary.insert(
            0,
            (
                "program".to_string(),
                lp_obs::json::Value::Str(spec.name.to_string()),
            ),
        );
        summary.push((
            "full_cycles".to_string(),
            lp_obs::json::Value::Int(full.cycles as i128),
        ));
        summary.push(("full_ipc".to_string(), lp_obs::json::Value::Num(full.ipc())));
        summary.push(("err_pct".to_string(), lp_obs::json::Value::Num(err)));
        println!("{}", lp_obs::json::Value::Obj(summary));
    }
    if let Some(path) = &args.diag_report {
        let doc = lp_obs::json::Value::Arr(reports).to_string();
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::from(EXIT_PIPELINE);
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return farm_serve(&argv[1..]),
        Some("submit") => return farm_submit(&argv[1..]),
        Some("status") => return farm_status(&argv[1..]),
        Some("trace") => return farm_trace(&argv[1..]),
        Some("top") => return farm_top(&argv[1..]),
        Some("shutdown") => return farm_shutdown(&argv[1..]),
        Some("farm-load") => return farm_load(&argv[1..]),
        Some("live") => return live_run(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            return config_error(&e);
        }
    };
    lp_obs::set_log_level(args.log_level);

    // Unknown program names are a usage error, caught before any work
    // (or telemetry files) happen, so they exit with the config code.
    for name in &args.programs {
        if resolve(name).is_none() {
            return config_error(&format!("unknown program '{name}' (see --help)"));
        }
    }

    // One enabled observer per process when any export is requested (or at
    // debug verbosity, so spans are available for inspection); installed
    // globally so every layer — including the Copy-config crates
    // lp-pinball and lp-simpoint — records into the same sink.
    let want_obs = args.trace_out.is_some()
        || args.metrics_out.is_some()
        || args.diag_report.is_some()
        || args.serve_metrics.is_some()
        || args.log_level >= LogLevel::Debug;
    let obs = if want_obs {
        Observer::enabled()
    } else {
        Observer::disabled()
    };
    if want_obs && lp_obs::set_global(obs.clone()).is_err() {
        lp_warn!("global observer already installed; exports may be incomplete");
    }

    let store = match (&args.store_dir, args.no_store) {
        (Some(dir), false) => {
            let config = StoreConfig {
                max_bytes: args.store_max_bytes,
            };
            match Store::open_with(dir, config, obs.clone()) {
                Ok(s) => Some(s),
                Err(e) => {
                    return config_error(&format!("opening artifact store at {dir}: {e}"));
                }
            }
        }
        _ => None,
    };

    // Crash-safe telemetry: the background flusher atomically rewrites the
    // export files every interval, so a panic or `kill` still leaves valid
    // JSON at most one interval stale. The final (authoritative) write
    // happens in `finalize`, on success and failure paths alike.
    let targets = FlushTargets {
        trace_out: args.trace_out.as_ref().map(PathBuf::from),
        metrics_out: args.metrics_out.as_ref().map(PathBuf::from),
    };
    let flusher = PeriodicFlusher::start(
        obs.clone(),
        targets,
        Duration::from_millis(args.flush_interval_ms),
    );

    let server = match &args.serve_metrics {
        Some(addr) => match TelemetryServer::start(addr.as_str(), obs.clone()) {
            Ok(server) => {
                // Plain println (not lp_info): scripts parse this line for
                // the bound port, independent of --log-level.
                println!(
                    "telemetry: listening on {} (GET /metrics, /healthz, /report)",
                    server.local_addr()
                );
                Some(server)
            }
            Err(e) => {
                return config_error(&format!("binding telemetry endpoint {addr}: {e}"));
            }
        },
        None => None,
    };

    let (reports, run_result) = run_all(&args, &obs, store.as_ref(), server.as_ref());
    finalize(
        &args,
        &obs,
        store.as_ref(),
        flusher,
        server,
        &reports,
        run_result,
    )
}

fn run_all(
    args: &Args,
    obs: &Observer,
    store: Option<&Store>,
    server: Option<&TelemetryServer>,
) -> (Vec<DiagReport>, Result<(), String>) {
    let mut reports = Vec::new();
    for name in &args.programs {
        let Some(spec) = resolve(name) else {
            return (
                reports,
                Err(format!("unknown program '{name}' (see --help)")),
            );
        };
        match run_one(&spec, args, obs, store) {
            Ok(Some(report)) => {
                if let Some(server) = server {
                    server.set_report(report.to_json());
                }
                reports.push(report);
            }
            Ok(None) => {}
            Err(e) => return (reports, Err(format!("{name}: {e}"))),
        }
    }
    (reports, Ok(()))
}

/// The single exit path: every run — clean, failed, or partial — routes
/// through here so telemetry exports, accuracy reports, and the live
/// endpoint are finalized consistently.
fn finalize(
    args: &Args,
    obs: &Observer,
    store: Option<&Store>,
    flusher: PeriodicFlusher,
    server: Option<TelemetryServer>,
    reports: &[DiagReport],
    run_result: Result<(), String>,
) -> ExitCode {
    obs.set_phase("finalize");
    let mut failed = false;
    if let Err(e) = &run_result {
        eprintln!("error: {e}");
        failed = true;
    }

    if let Some(store) = store {
        let s = store.stats();
        lp_info!(
            "\nstore: {} hits, {} misses, {} evictions, {} corruptions; {} artifacts on disk \
             ({} B stored, {} B raw, {:.2}x compression)",
            s.hits,
            s.misses,
            s.evictions,
            s.corruptions,
            store.len(),
            s.bytes_stored,
            s.bytes_raw,
            if s.bytes_stored > 0 {
                s.bytes_raw as f64 / s.bytes_stored as f64
            } else {
                1.0
            }
        );
    }

    // Accuracy reports: written even when a later workload failed, so
    // completed reports survive partial runs. Always a JSON array, one
    // element per diagnosed program.
    if let Some(path) = &args.diag_report {
        let doc = lp_obs::json::Value::Arr(reports.iter().map(DiagReport::to_value).collect());
        match lp_obs::write_atomic(std::path::Path::new(path), doc.to_string().as_bytes()) {
            Ok(()) => lp_info!("diag: {} report(s) -> {path}", reports.len()),
            Err(e) => {
                eprintln!("error: writing diag report to {path}: {e}");
                failed = true;
            }
        }
    }

    obs.set_phase("done");
    let had_targets = args.trace_out.is_some() || args.metrics_out.is_some();
    match flusher.stop() {
        Ok(()) => {
            if had_targets {
                if let Some(path) = &args.trace_out {
                    lp_info!(
                        "trace: {} events -> {path} (open in chrome://tracing or ui.perfetto.dev)",
                        obs.trace_events().len()
                    );
                }
                if let Some(path) = &args.metrics_out {
                    lp_info!("metrics: report -> {path}");
                }
            }
        }
        Err(e) => {
            eprintln!("error: writing telemetry exports: {e}");
            failed = true;
        }
    }

    if let Some(server) = server {
        if args.serve_linger_ms > 0 {
            lp_info!(
                "telemetry: lingering {} ms before endpoint shutdown",
                args.serve_linger_ms
            );
            std::thread::sleep(Duration::from_millis(args.serve_linger_ms));
        }
        server.stop();
    }

    if failed {
        ExitCode::from(EXIT_PIPELINE)
    } else {
        ExitCode::SUCCESS
    }
}

// ---------------------------------------------------------------------------
// lp-farm service mode
// ---------------------------------------------------------------------------

/// `run-looppoint serve`: the lp-farm analysis daemon.
fn farm_serve(args: &[String]) -> ExitCode {
    let mut listen: Option<String> = None;
    let mut cfg = FarmConfig::default();
    let mut store_dir: Option<String> = None;
    let mut store_max_bytes: Option<u64> = None;
    let mut log_level = LogLevel::Info;
    let mut node_addr: Option<String> = None;
    let mut cluster_peers: Vec<lp_cluster::NodeSpec> = Vec::new();
    let mut join_seed: Option<String> = None;
    let mut ccfg = lp_cluster::ClusterConfig::default();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        let parsed: Result<(), String> = (|| {
            match arg.as_str() {
                "--farm-listen" => listen = Some(value("--farm-listen")?),
                "--node-addr" => node_addr = Some(value("--node-addr")?),
                "--cluster-peer" => {
                    cluster_peers.push(lp_cluster::NodeSpec::parse(&value("--cluster-peer")?)?);
                }
                "--join" => join_seed = Some(value("--join")?),
                "--vnodes" => {
                    ccfg.vnodes = value("--vnodes")?
                        .parse()
                        .map_err(|e| format!("bad vnode count: {e}"))?;
                    if ccfg.vnodes == 0 {
                        return Err("--vnodes must be positive".to_string());
                    }
                }
                "--heartbeat-ms" => {
                    ccfg.heartbeat_ms = value("--heartbeat-ms")?
                        .parse()
                        .map_err(|e| format!("bad heartbeat period: {e}"))?;
                    if ccfg.heartbeat_ms == 0 {
                        return Err("--heartbeat-ms must be positive".to_string());
                    }
                }
                "--failure-threshold" => {
                    ccfg.failure_threshold = value("--failure-threshold")?
                        .parse()
                        .map_err(|e| format!("bad failure threshold: {e}"))?;
                    if ccfg.failure_threshold == 0 {
                        return Err("--failure-threshold must be positive".to_string());
                    }
                }
                "--rpc-timeout-ms" => {
                    ccfg.rpc_timeout_ms = value("--rpc-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("bad rpc timeout: {e}"))?;
                }
                "--workers" => {
                    cfg.workers = value("--workers")?
                        .parse()
                        .map_err(|e| format!("bad worker count: {e}"))?;
                    if cfg.workers == 0 {
                        return Err("--workers must be positive".to_string());
                    }
                }
                "--queue-capacity" => {
                    cfg.queue_capacity = value("--queue-capacity")?
                        .parse()
                        .map_err(|e| format!("bad queue capacity: {e}"))?;
                    if cfg.queue_capacity == 0 {
                        return Err("--queue-capacity must be positive".to_string());
                    }
                }
                "--max-attempts" => {
                    cfg.max_attempts = value("--max-attempts")?
                        .parse()
                        .map_err(|e| format!("bad attempt count: {e}"))?;
                    if cfg.max_attempts == 0 {
                        return Err("--max-attempts must be positive".to_string());
                    }
                }
                "--job-timeout-ms" => {
                    cfg.default_timeout_ms = value("--job-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("bad timeout: {e}"))?;
                }
                "--farm-dir" => cfg.dir = Some(PathBuf::from(value("--farm-dir")?)),
                "--journal-flush-ms" => {
                    cfg.journal_flush_ms = value("--journal-flush-ms")?
                        .parse()
                        .map_err(|e| format!("bad flush window: {e}"))?;
                }
                "--journal-compact-factor" => {
                    cfg.journal_compact_factor = value("--journal-compact-factor")?
                        .parse()
                        .map_err(|e| format!("bad compact factor: {e}"))?;
                    if cfg.journal_compact_factor == 0 {
                        return Err("--journal-compact-factor must be positive".to_string());
                    }
                }
                "--trace-capacity" => {
                    cfg.trace_capacity = value("--trace-capacity")?
                        .parse()
                        .map_err(|e| format!("bad trace capacity: {e}"))?;
                    if cfg.trace_capacity == 0 {
                        return Err("--trace-capacity must be positive".to_string());
                    }
                }
                "--history-interval-ms" => {
                    cfg.history_interval_ms = value("--history-interval-ms")?
                        .parse()
                        .map_err(|e| format!("bad history interval: {e}"))?;
                }
                "--history-capacity" => {
                    cfg.history_capacity = value("--history-capacity")?
                        .parse()
                        .map_err(|e| format!("bad history capacity: {e}"))?;
                    if cfg.history_capacity == 0 {
                        return Err("--history-capacity must be positive".to_string());
                    }
                }
                "--store-dir" => store_dir = Some(value("--store-dir")?),
                "--store-max-bytes" => {
                    store_max_bytes = Some(
                        value("--store-max-bytes")?
                            .parse()
                            .map_err(|e| format!("bad store byte budget: {e}"))?,
                    );
                }
                "--log-level" => log_level = value("--log-level")?.parse()?,
                "-h" | "--help" => {
                    print!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown serve argument '{other}'")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            return config_error(&e);
        }
    }
    lp_obs::set_log_level(log_level);

    // The daemon always records: /metrics is part of its contract.
    let obs = Observer::enabled();
    if lp_obs::set_global(obs.clone()).is_err() {
        lp_warn!("global observer already installed; farm metrics may be incomplete");
    }
    let store = match &store_dir {
        Some(dir) => {
            let config = StoreConfig {
                max_bytes: store_max_bytes,
            };
            match Store::open_with(dir, config, obs.clone()) {
                Ok(s) => Some(Arc::new(s)),
                Err(e) => return config_error(&format!("opening artifact store at {dir}: {e}")),
            }
        }
        None => None,
    };
    let backend = Arc::new(PipelineBackend::new(store.clone(), obs.clone()));

    if node_addr.is_none() && (!cluster_peers.is_empty() || join_seed.is_some()) {
        return config_error("--cluster-peer/--join require --node-addr (see --help)");
    }

    // Cluster mode: the farm runs behind a ClusterNode — consistent-hash
    // forwarding, artifact exchange, heartbeat liveness, failover
    // adoption — and binds the advertised address unless told otherwise.
    if let Some(node_addr) = node_addr {
        let listen = listen.unwrap_or_else(|| node_addr.clone());
        let me = lp_cluster::NodeSpec {
            addr: node_addr.clone(),
            dir: cfg.dir.clone(),
        };
        if let Some(seed) = &join_seed {
            match lp_cluster::ClusterNode::join_via(seed, &me) {
                Ok(learned) => {
                    for peer in learned {
                        if !cluster_peers.iter().any(|p| p.addr == peer.addr) {
                            cluster_peers.push(peer);
                        }
                    }
                }
                Err(e) => return config_error(&format!("joining cluster via {seed}: {e}")),
            }
        }
        cluster_peers.push(me);
        ccfg.self_addr = node_addr.clone();
        ccfg.peers = cluster_peers;
        let running = match lp_cluster::spawn_node(&listen, ccfg, cfg, backend, store, obs) {
            Ok(r) => r,
            Err(e) => return config_error(&format!("starting cluster node at {listen}: {e}")),
        };
        // Plain println (not lp_info): scripts parse these lines.
        println!(
            "farm: listening on {} (POST /jobs, GET /jobs/{{id}}, GET /queue, GET /metrics, POST /shutdown)",
            running.server.local_addr()
        );
        let members = running
            .node
            .healthz_value()
            .get("ring_nodes")
            .and_then(lp_obs::json::Value::as_u64)
            .unwrap_or(1);
        println!(
            "cluster: node {node_addr} in a {members}-member ring (GET /cluster/healthz, /cluster/peers)"
        );

        let mode = running.server.wait_shutdown();
        lp_info!(
            "farm: shutdown requested (mode {})",
            match mode {
                ShutdownMode::Drain => "drain",
                ShutdownMode::Now => "now",
            }
        );
        let farm = running.farm.clone();
        running.shutdown(mode);
        let snap = farm.queue_snapshot();
        println!(
            "farm: stopped ({} done, {} failed, {} cancelled, {} requeued to journal)",
            snap.done,
            snap.failed,
            snap.cancelled,
            snap.queued + snap.running
        );
        return ExitCode::SUCCESS;
    }

    let listen = listen.unwrap_or_else(|| "127.0.0.1:0".to_string());
    let farm = match Farm::start(cfg, backend, obs) {
        Ok(f) => f,
        Err(e) => return config_error(&format!("starting farm: {e}")),
    };
    let server = match FarmServer::start(listen.as_str(), farm.clone()) {
        Ok(s) => s,
        Err(e) => return config_error(&format!("binding farm endpoint {listen}: {e}")),
    };
    // Plain println (not lp_info): scripts parse this line for the port.
    println!(
        "farm: listening on {} (POST /jobs, GET /jobs/{{id}}, GET /queue, GET /metrics, POST /shutdown)",
        server.local_addr()
    );

    let mode = server.wait_shutdown();
    lp_info!(
        "farm: shutdown requested (mode {})",
        match mode {
            ShutdownMode::Drain => "drain",
            ShutdownMode::Now => "now",
        }
    );
    farm.shutdown(mode);
    farm.join();
    let snap = farm.queue_snapshot();
    server.stop();
    println!(
        "farm: stopped ({} done, {} failed, {} cancelled, {} requeued to journal)",
        snap.done,
        snap.failed,
        snap.cancelled,
        snap.queued + snap.running
    );
    ExitCode::SUCCESS
}

/// Shared client-flag parsing for submit/status/shutdown.
struct ClientArgs {
    farm: Option<String>,
    programs: Vec<String>,
    ncores: usize,
    input: String,
    wait_policy: String,
    slice_base: u64,
    max_steps: u64,
    priority: i64,
    timeout_ms: u64,
    wait: bool,
    job: Option<u64>,
    mode: String,
    live: bool,
    follow: bool,
    clients: usize,
    jobs: usize,
}

fn parse_client_args(args: &[String]) -> Result<ClientArgs, String> {
    let mut c = ClientArgs {
        farm: None,
        programs: vec!["demo-matrix-1".to_string()],
        ncores: 2,
        input: "test".to_string(),
        wait_policy: "passive".to_string(),
        slice_base: 8_000,
        max_steps: DEFAULT_MAX_STEPS,
        priority: 0,
        timeout_ms: 0,
        wait: false,
        job: None,
        mode: "drain".to_string(),
        live: false,
        follow: false,
        clients: 4,
        jobs: 48,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--farm" => c.farm = Some(value("--farm")?),
            "-p" | "--program" => {
                c.programs = value("-p")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            "-n" | "--ncores" => {
                c.ncores = value("-n")?
                    .parse()
                    .map_err(|e| format!("bad thread count: {e}"))?;
            }
            "-i" | "--input-class" => c.input = value("-i")?,
            "-w" | "--wait-policy" => c.wait_policy = value("-w")?,
            "--slice-base" => {
                c.slice_base = value("--slice-base")?
                    .parse()
                    .map_err(|e| format!("bad slice base: {e}"))?;
            }
            "--max-steps" => {
                c.max_steps = value("--max-steps")?
                    .parse()
                    .map_err(|e| format!("bad step budget: {e}"))?;
            }
            "--priority" => {
                c.priority = value("--priority")?
                    .parse()
                    .map_err(|e| format!("bad priority: {e}"))?;
            }
            "--timeout-ms" => {
                c.timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("bad timeout: {e}"))?;
            }
            "--wait" => c.wait = true,
            "--job" => {
                c.job = Some(
                    value("--job")?
                        .parse()
                        .map_err(|e| format!("bad job id: {e}"))?,
                );
            }
            "--mode" => c.mode = value("--mode")?,
            "--live" => c.live = true,
            "--follow" => c.follow = true,
            "--clients" => {
                c.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("bad client count: {e}"))?;
                if c.clients == 0 {
                    return Err("--clients must be positive".to_string());
                }
            }
            "--jobs" => {
                c.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("bad job count: {e}"))?;
                if c.jobs == 0 {
                    return Err("--jobs must be positive".to_string());
                }
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(c)
}

fn require_farm(c: &ClientArgs) -> Result<String, String> {
    c.farm
        .clone()
        .ok_or_else(|| "--farm <addr> is required (see --help)".to_string())
}

/// `run-looppoint submit`: POST jobs, optionally poll to completion.
fn farm_submit(args: &[String]) -> ExitCode {
    let c = match parse_client_args(args) {
        Ok(c) => c,
        Err(e) => return config_error(&e),
    };
    let addr = match require_farm(&c) {
        Ok(a) => a,
        Err(e) => return config_error(&e),
    };
    let specs: Vec<lp_farm::JobSpec> = c
        .programs
        .iter()
        .map(|program| lp_farm::JobSpec {
            program: program.clone(),
            ncores: c.ncores,
            input: c.input.clone(),
            wait_policy: c.wait_policy.clone(),
            slice_base: c.slice_base,
            max_steps: c.max_steps,
            priority: c.priority,
            timeout_ms: c.timeout_ms,
            mode: if c.live { "live" } else { "pipeline" }.to_string(),
        })
        .collect();
    // One version-negotiated keep-alive connection for the submit AND
    // every poll below: dozens of round trips, one TCP handshake.
    let mut client = FarmClient::connect(addr.clone());
    let (status, outcomes) = match client.submit(&specs, None) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: submitting to {addr}: {e}");
            return ExitCode::from(EXIT_PIPELINE);
        }
    };
    for outcome in &outcomes {
        println!("{}", outcome.to_value());
    }
    match status {
        202 => {}
        400 => return config_error("farm rejected the job spec (see response above)"),
        503 => {
            eprintln!("error: farm is overloaded or draining (see retry_after_ms above)");
            return ExitCode::from(EXIT_PIPELINE);
        }
        other => {
            eprintln!("error: unexpected status {other} from farm");
            return ExitCode::from(EXIT_PIPELINE);
        }
    }
    if !c.wait {
        return ExitCode::SUCCESS;
    }
    // Poll every accepted id until terminal. A forwarded submission's
    // record lives on the owner node, so polls follow `forwarded_to`.
    let targets: Vec<(u64, Option<String>)> = outcomes
        .iter()
        .filter_map(|o| match o {
            lp_farm_proto::SubmitOutcome::Accepted {
                id, forwarded_to, ..
            } => Some((*id, forwarded_to.clone())),
            lp_farm_proto::SubmitOutcome::Rejected { .. } => None,
        })
        .collect();
    let mut owner_clients: std::collections::HashMap<String, FarmClient> =
        std::collections::HashMap::new();
    let mut ok = true;
    for (id, owner) in targets {
        let poll_client: &mut FarmClient = match &owner {
            Some(owner_addr) => owner_clients
                .entry(owner_addr.clone())
                .or_insert_with(|| FarmClient::connect(owner_addr.clone())),
            None => &mut client,
        };
        loop {
            // `since=MAX` skips the streamed partials: a plain poll only
            // needs the record line.
            let (status, body) = match poll_client.http().request(
                "GET",
                &format!("/jobs/{id}?since={}", usize::MAX),
                "",
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: polling job {id}: {e}");
                    return ExitCode::from(EXIT_PIPELINE);
                }
            };
            if status != 200 {
                eprintln!("error: job {id} vanished (status {status})");
                ok = false;
                break;
            }
            // NDJSON body: any streamed partials, then the record as the
            // last line (the only line a plain poll cares about).
            let record = body
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .unwrap_or_default()
                .to_string();
            let state = lp_obs::json::parse(&record)
                .ok()
                .and_then(|v| v.get("state").and_then(|s| s.as_str().map(String::from)))
                .unwrap_or_default();
            match state.as_str() {
                "done" => {
                    println!("{record}");
                    break;
                }
                "failed" | "cancelled" => {
                    println!("{record}");
                    ok = false;
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(200)),
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_PIPELINE)
    }
}

/// `run-looppoint farm-load`: concurrent keep-alive burst against one
/// farm — `--clients` threads each hold one persistent connection and
/// push their share of `--jobs` submissions, half as a single NDJSON
/// batch POST and half as individual POSTs, then the main thread polls
/// /queue until the farm drains. Prints one parseable summary line and
/// exits non-zero on any dropped request or a failed drain, so ci can
/// gate on it directly.
fn farm_load(args: &[String]) -> ExitCode {
    let c = match parse_client_args(args) {
        Ok(c) => c,
        Err(e) => return config_error(&e),
    };
    let addr = match require_farm(&c) {
        Ok(a) => a,
        Err(e) => return config_error(&e),
    };
    let spec_line = |program: &str| {
        lp_farm::JobSpec {
            program: program.to_string(),
            ncores: c.ncores,
            input: c.input.clone(),
            wait_policy: c.wait_policy.clone(),
            slice_base: c.slice_base,
            max_steps: c.max_steps,
            priority: c.priority,
            timeout_ms: c.timeout_ms,
            mode: if c.live { "live" } else { "pipeline" }.to_string(),
        }
        .to_value()
        .to_string()
    };
    // Deal jobs round-robin so every client gets within one of an even
    // share, cycling programs across the whole burst.
    let mut shares: Vec<Vec<String>> = vec![Vec::new(); c.clients];
    for i in 0..c.jobs {
        shares[i % c.clients].push(spec_line(&c.programs[i % c.programs.len()]));
    }
    let started = Instant::now();
    let threads: Vec<_> = shares
        .into_iter()
        .map(|share| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                // (accepted, dropped, batch, single, reuses) for this
                // client — raw NDJSON over the proto-negotiated channel.
                let mut client = FarmClient::connect(addr);
                let client = client.http();
                let (mut accepted, mut dropped) = (0usize, 0usize);
                let batch_n = share.len() / 2;
                let mut tally = |sent: usize, result: std::io::Result<(u16, String)>| match result {
                    Ok((status, body)) if status == 202 || status == 503 || status == 400 => {
                        for line in body.lines().filter(|l| !l.trim().is_empty()) {
                            let ok = lp_obs::json::parse(line)
                                .ok()
                                .is_some_and(|v| v.get("id").is_some());
                            if ok {
                                accepted += 1;
                            } else {
                                dropped += 1;
                            }
                        }
                    }
                    _ => dropped += sent,
                };
                if batch_n > 0 {
                    let mut body = share[..batch_n].join("\n");
                    body.push('\n');
                    tally(batch_n, client.request("POST", "/jobs", &body));
                }
                for line in &share[batch_n..] {
                    tally(1, client.request("POST", "/jobs", &format!("{line}\n")));
                }
                (
                    accepted,
                    dropped,
                    batch_n,
                    share.len() - batch_n,
                    client.reuses(),
                )
            })
        })
        .collect();
    let (mut accepted, mut dropped, mut batch, mut single, mut reuses) = (0, 0, 0, 0, 0u64);
    for t in threads {
        let (a, d, b, s, r) = t.join().expect("load client panicked");
        accepted += a;
        dropped += d;
        batch += b;
        single += s;
        reuses += r;
    }
    // Drain: the farm is healthy when the whole burst reaches a terminal
    // state. Cached/deduped submissions settle instantly; cold ones take
    // one pipeline run each.
    let mut poll = FarmClient::connect(addr.clone());
    let poll = poll.http();
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut drained = false;
    while Instant::now() < deadline {
        if let Ok((200, body)) = poll.request("GET", "/queue", "") {
            let idle = lp_obs::json::parse(&body).ok().is_some_and(|v| {
                let n = |k: &str| v.get(k).and_then(lp_obs::json::Value::as_u64);
                n("queued") == Some(0) && n("running") == Some(0)
            });
            if idle {
                drained = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    reuses += poll.reuses();
    println!(
        "farm-load: jobs={} accepted={accepted} dropped={dropped} batch={batch} \
         single={single} reuses={reuses} drained={drained} elapsed_ms={}",
        c.jobs,
        started.elapsed().as_millis()
    );
    if dropped == 0 && accepted == c.jobs && drained {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: farm-load burst was not fully accepted and drained");
        ExitCode::from(EXIT_PIPELINE)
    }
}

/// `run-looppoint status`: GET /queue or GET /jobs/{id}; with
/// `--follow` and a job id, polls `?since=N` and renders the job's
/// streamed `LiveProgress` lines in place until the job is terminal
/// (a plain wait loop for jobs that stream nothing, e.g. pipeline mode).
fn farm_status(args: &[String]) -> ExitCode {
    let c = match parse_client_args(args) {
        Ok(c) => c,
        Err(e) => return config_error(&e),
    };
    let addr = match require_farm(&c) {
        Ok(a) => a,
        Err(e) => return config_error(&e),
    };
    if c.follow {
        let Some(id) = c.job else {
            return config_error("--follow needs --job <id>");
        };
        return follow_job(&addr, id);
    }
    let path = match c.job {
        Some(id) => format!("/jobs/{id}"),
        None => "/queue".to_string(),
    };
    let mut client = FarmClient::connect(addr.clone());
    match client.http().request("GET", &path, "") {
        Ok((200, body)) => {
            println!("{body}");
            ExitCode::SUCCESS
        }
        Ok((status, body)) => {
            eprintln!("error: status {status}: {body}");
            ExitCode::from(EXIT_PIPELINE)
        }
        Err(e) => {
            eprintln!("error: querying {addr}: {e}");
            ExitCode::from(EXIT_PIPELINE)
        }
    }
}

/// The `status --follow` loop: one keep-alive connection, incremental
/// `GET /jobs/{id}?since=N` polls. Each streamed `LiveProgress` line
/// redraws a single terminal line (carriage return, no newline) so a
/// live job reads as a ticking dashboard; lines that are not progress
/// documents print verbatim. Exits 0 on `done`, 1 on any other terminal
/// state.
fn follow_job(addr: &str, id: u64) -> ExitCode {
    use std::io::Write as _;
    let mut client = FarmClient::connect(addr.to_string());
    let mut since = 0usize;
    let mut in_place = false;
    loop {
        let (status, body) =
            match client
                .http()
                .request("GET", &format!("/jobs/{id}?since={since}"), "")
            {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: following job {id}: {e}");
                    return ExitCode::from(EXIT_PIPELINE);
                }
            };
        if status != 200 {
            eprintln!("error: job {id}: status {status}: {body}");
            return ExitCode::from(EXIT_PIPELINE);
        }
        let mut lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
        let Some(record_line) = lines.pop() else {
            eprintln!("error: empty response for job {id}");
            return ExitCode::from(EXIT_PIPELINE);
        };
        for line in &lines {
            match lp_obs::json::parse(line)
                .ok()
                .and_then(|v| looppoint::LiveProgress::from_value(&v))
            {
                Some(p) => {
                    print!("\r{}", p.render());
                    let _ = std::io::stdout().flush();
                    in_place = true;
                }
                None => {
                    if in_place {
                        println!();
                        in_place = false;
                    }
                    println!("{line}");
                }
            }
        }
        since += lines.len();
        let state = lp_obs::json::parse(record_line)
            .ok()
            .and_then(|v| v.get("state").and_then(|s| s.as_str().map(String::from)))
            .unwrap_or_default();
        match state.as_str() {
            "done" | "failed" | "cancelled" => {
                if in_place {
                    println!();
                }
                println!("{record_line}");
                return if state == "done" {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(EXIT_PIPELINE)
                };
            }
            _ => std::thread::sleep(Duration::from_millis(200)),
        }
    }
}

/// `run-looppoint trace`: pretty-print a span tree with per-hop
/// latencies. A numeric id fetches `GET /jobs/{id}/trace` (any cluster
/// member answers — non-owners proxy to the id's home node); a 32-hex
/// trace id fetches the merged cross-node `GET /cluster/trace/{id}`.
fn farm_trace(args: &[String]) -> ExitCode {
    // The id is positional (`trace 3 --farm ...`) or via --job.
    enum Target {
        Job(u64),
        Trace(String),
    }
    let (positional, rest): (Option<Target>, &[String]) = match args.first() {
        Some(first) if !first.starts_with('-') => {
            if let Ok(id) = first.parse::<u64>() {
                (Some(Target::Job(id)), &args[1..])
            } else if first.len() == 32 && first.chars().all(|c| c.is_ascii_hexdigit()) {
                (Some(Target::Trace(first.to_lowercase())), &args[1..])
            } else {
                return config_error(&format!("bad job or trace id '{first}'"));
            }
        }
        _ => (None, args),
    };
    let c = match parse_client_args(rest) {
        Ok(c) => c,
        Err(e) => return config_error(&e),
    };
    let Some(target) = positional.or(c.job.map(Target::Job)) else {
        return config_error(
            "trace needs a job id or 32-hex trace id: run-looppoint trace <id> --farm <addr>",
        );
    };
    let addr = match require_farm(&c) {
        Ok(a) => a,
        Err(e) => return config_error(&e),
    };
    let (path, title) = match &target {
        Target::Job(id) => (format!("/jobs/{id}/trace"), format!("job {id}")),
        Target::Trace(hex) => (format!("/cluster/trace/{hex}"), format!("trace {hex}")),
    };
    let mut client = FarmClient::connect(addr.clone());
    match client.http().request("GET", &path, "") {
        Ok((200, body)) => match render_trace_tree(&title, &body) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: rendering trace for {title}: {e}");
                ExitCode::from(EXIT_PIPELINE)
            }
        },
        Ok((status, body)) => {
            eprintln!("error: status {status}: {body}");
            ExitCode::from(EXIT_PIPELINE)
        }
        Err(e) => {
            eprintln!("error: querying {addr}: {e}");
            ExitCode::from(EXIT_PIPELINE)
        }
    }
}

/// `run-looppoint top`: a polling ASCII dashboard over the cluster's
/// federated metrics (`GET /cluster/metrics`) and each node's
/// time-series history (`GET /metrics/history?since=`) — per-node
/// jobs/s, queue depth, dedup %, queue-wait p50/p99, and a jobs/s
/// sparkline. Refreshes in place on a TTY until Ctrl-C (or for
/// `--iterations` frames). A plain single farm renders as a one-row
/// dashboard via its own `/metrics.json`.
fn farm_top(args: &[String]) -> ExitCode {
    let mut farm_addr: Option<String> = None;
    let mut interval_ms: u64 = 1_000;
    let mut iterations: u64 = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        let parsed: Result<(), String> = (|| {
            match arg.as_str() {
                "--farm" => farm_addr = Some(value("--farm")?),
                "--interval-ms" => {
                    interval_ms = value("--interval-ms")?
                        .parse()
                        .map_err(|e| format!("bad refresh interval: {e}"))?;
                    if interval_ms == 0 {
                        return Err("--interval-ms must be positive".to_string());
                    }
                }
                "--iterations" => {
                    iterations = value("--iterations")?
                        .parse()
                        .map_err(|e| format!("bad iteration count: {e}"))?;
                }
                "-h" | "--help" => {
                    print!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown top argument '{other}'")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            return config_error(&e);
        }
    }
    let Some(addr) = farm_addr else {
        return config_error("--farm <addr> is required (see --help)");
    };

    /// Live per-node poll state: a keep-alive history client, the last
    /// sample sequence consumed, and a bounded jobs/s ring for the
    /// sparkline.
    struct NodeView {
        client: FarmClient,
        since: u64,
        rates: std::collections::VecDeque<f64>,
        latest: std::collections::HashMap<String, f64>,
    }
    const SPARK_WIDTH: usize = 24;

    let is_tty = {
        use std::io::IsTerminal;
        std::io::stdout().is_terminal()
    };
    let mut entry = FarmClient::connect(addr.clone());
    let mut views: std::collections::HashMap<String, NodeView> = std::collections::HashMap::new();
    let mut frame: u64 = 0;
    loop {
        frame += 1;
        // Federated view; a plain (non-cluster) farm 404s the cluster
        // route, so fall back to its own snapshot as a one-node list.
        let (nodes, errors): (Vec<(String, i128, lp_obs::json::Value)>, usize) = match entry
            .cluster_metrics()
        {
            Ok(doc) => {
                let nodes = doc
                    .get("nodes")
                    .and_then(lp_obs::json::Value::as_arr)
                    .map(|arr| {
                        arr.iter()
                            .filter_map(|n| {
                                Some((
                                    n.get("node")?.as_str()?.to_string(),
                                    n.get("ordinal").and_then(|o| o.as_u64()).unwrap_or(0) as i128,
                                    n.get("metrics")?.clone(),
                                ))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                let errors = doc
                    .get("errors")
                    .and_then(lp_obs::json::Value::as_arr)
                    .map_or(0, |e| e.len());
                (nodes, errors)
            }
            Err(_) => match entry.metrics_json() {
                Ok(doc) => (vec![(addr.clone(), 0, doc)], 0),
                Err(e) => {
                    eprintln!("error: polling {addr}: {e}");
                    return ExitCode::from(EXIT_PIPELINE);
                }
            },
        };

        // Pull each node's fresh history samples over its own keep-alive
        // connection, resuming from the last consumed sequence.
        for (node, _, _) in &nodes {
            let view = views.entry(node.clone()).or_insert_with(|| NodeView {
                client: FarmClient::connect(node.clone()),
                since: 0,
                rates: std::collections::VecDeque::new(),
                latest: std::collections::HashMap::new(),
            });
            let Ok(ndjson) = view.client.metrics_history(view.since) else {
                continue;
            };
            for line in ndjson.lines().filter(|l| !l.trim().is_empty()) {
                let Ok(sample) = lp_obs::json::parse(line) else {
                    continue;
                };
                if let Some(seq) = sample.get("seq").and_then(|s| s.as_u64()) {
                    view.since = view.since.max(seq);
                }
                if let Some(values) = sample.get("values") {
                    if let lp_obs::json::Value::Obj(members) = values {
                        for (k, v) in members {
                            if let Some(f) = v.as_f64() {
                                view.latest.insert(k.clone(), f);
                            }
                        }
                    }
                    if let Some(rate) = values.get("farm.done.rate").and_then(|v| v.as_f64()) {
                        while view.rates.len() >= SPARK_WIDTH {
                            view.rates.pop_front();
                        }
                        view.rates.push_back(rate);
                    }
                }
            }
        }

        let mut out = String::new();
        let counter = |m: &lp_obs::json::Value, name: &str| {
            m.get("counters")
                .and_then(|c| c.get(name))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        let gauge = |m: &lp_obs::json::Value, name: &str| {
            m.get("gauges")
                .and_then(|g| g.get(name))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        let (mut submitted, mut done, mut queued, mut running) = (0.0, 0.0, 0.0, 0.0);
        for (_, _, m) in &nodes {
            submitted += counter(m, "farm.submitted");
            done += counter(m, "farm.done");
            queued += gauge(m, "farm.queue.depth");
            running += gauge(m, "farm.running");
        }
        out.push_str(&format!(
            "lp-farm top — {} node{} via {addr} — frame {frame}{}\n",
            nodes.len(),
            if nodes.len() == 1 { "" } else { "s" },
            if errors > 0 {
                format!(" — {errors} unreachable")
            } else {
                String::new()
            },
        ));
        out.push_str(&format!(
            "cluster: {submitted:.0} submitted, {done:.0} done, {queued:.0} queued, {running:.0} running\n\n",
        ));
        out.push_str(&format!(
            "{:<21} {:>3} {:>7} {:>5} {:>4} {:>6} {:>8} {:>8}  {}\n",
            "NODE", "ORD", "JOBS/S", "QUEUE", "RUN", "DEDUP%", "P50MS", "P99MS", "JOBS/S HISTORY"
        ));
        for (node, ordinal, m) in &nodes {
            let (rate, p50, p99, spark) = match views.get_mut(node) {
                Some(v) => (
                    v.latest.get("farm.done.rate").copied().unwrap_or(0.0),
                    v.latest
                        .get("farm.queue.wait_us.p50")
                        .copied()
                        .unwrap_or(0.0)
                        / 1_000.0,
                    v.latest
                        .get("farm.queue.wait_us.p99")
                        .copied()
                        .unwrap_or(0.0)
                        / 1_000.0,
                    sparkline(v.rates.make_contiguous(), SPARK_WIDTH),
                ),
                None => (0.0, 0.0, 0.0, String::new()),
            };
            let sub = counter(m, "farm.submitted");
            let dedup = if sub > 0.0 {
                100.0 * counter(m, "farm.dedup.hits") / sub
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<21} {:>3} {:>7.1} {:>5.0} {:>4.0} {:>6.1} {:>8.2} {:>8.2}  {}\n",
                node,
                ordinal,
                rate,
                gauge(m, "farm.queue.depth"),
                gauge(m, "farm.running"),
                dedup,
                p50,
                p99,
                spark,
            ));
        }
        if is_tty {
            // Clear + home, then the frame: flicker-free in-place refresh.
            print!("\x1b[2J\x1b[H{out}");
            use std::io::Write;
            let _ = std::io::stdout().flush();
        } else {
            println!("{out}");
        }
        if iterations > 0 && frame >= iterations {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

/// An ASCII sparkline of `values` scaled to their max, right-aligned in
/// a `width`-char field (recent samples rightmost).
fn sparkline(values: &[f64], width: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#@";
    let max = values.iter().cloned().fold(0.0_f64, f64::max);
    let mut out = String::with_capacity(width);
    for _ in values.len()..width {
        out.push(' ');
    }
    for v in values.iter().rev().take(width).rev() {
        let idx = if max > 0.0 {
            ((v / max) * (RAMP.len() - 1) as f64).round() as usize
        } else {
            0
        };
        out.push(RAMP[idx.min(RAMP.len() - 1)] as char);
    }
    out
}

/// Rebuilds the span tree of a Chrome `trace_event` document (using the
/// `span_id`/`parent_span_id` args the exporter embeds) and renders it
/// as indented text: one line per span with offset-from-root and
/// duration, instant markers inlined under the span they belong to.
fn render_trace_tree(title: &str, body: &str) -> Result<String, String> {
    use lp_obs::json::Value;
    use std::collections::HashMap;

    struct Ev {
        name: String,
        ts: u64,
        dur: u64,
        span: String,
        parent: String,
        instant: bool,
        detail: String,
    }

    let doc = lp_obs::json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let raw = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("document has no traceEvents array")?;
    let mut events = Vec::with_capacity(raw.len());
    for e in raw {
        let sget = |key: &str| {
            e.get("args")
                .and_then(|a| a.get(key))
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string()
        };
        let ph = e.get("ph").and_then(Value::as_str).unwrap_or("");
        if ph == "M" {
            continue; // viewer metadata (process_name lanes), not a span
        }
        // The dedup marker's payload is worth surfacing inline.
        let detail = match (sget("detail"), sget("primary_trace_id")) {
            (d, _) if !d.is_empty() => d,
            (_, p) if !p.is_empty() => format!(
                "primary job {} trace {p}",
                e.get("args")
                    .and_then(|a| a.get("primary"))
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
            ),
            _ => String::new(),
        };
        events.push(Ev {
            name: e
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            ts: e.get("ts").and_then(Value::as_u64).unwrap_or(0),
            dur: e.get("dur").and_then(Value::as_u64).unwrap_or(0),
            span: sget("span_id"),
            parent: sget("parent_span_id"),
            instant: ph == "i" || ph == "I",
            detail,
        });
    }
    if events.is_empty() {
        return Err("trace has no events".to_string());
    }

    // Tree nodes are the Complete spans, keyed by span id; instants hang
    // off the span they ran inside (their own span id when it names a
    // span, else their parent's).
    let mut span_of: HashMap<&str, usize> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        if !ev.instant && !ev.span.is_empty() {
            span_of.entry(ev.span.as_str()).or_insert(i);
        }
    }
    let mut children: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut roots = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let home = if ev.instant {
            span_of
                .get(ev.span.as_str())
                .or_else(|| span_of.get(ev.parent.as_str()))
                .copied()
        } else {
            span_of.get(ev.parent.as_str()).copied().filter(|&p| p != i)
        };
        match home {
            Some(p) => children.entry(p).or_default().push(i),
            None => roots.push(i),
        }
    }
    for kids in children.values_mut() {
        kids.sort_by_key(|&i| (events[i].ts, events[i].instant));
    }
    roots.sort_by_key(|&i| events[i].ts);

    let base = roots.iter().map(|&i| events[i].ts).min().unwrap_or(0);
    let ms = |us: u64| us as f64 / 1_000.0;
    let mut out = format!("trace for {title} ({} events)\n", events.len());
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        let ev = &events[i];
        let indent = "  ".repeat(depth);
        if ev.instant {
            let detail = if ev.detail.is_empty() {
                String::new()
            } else {
                format!("  ({})", ev.detail)
            };
            out.push_str(&format!(
                "{indent}@ {:<28} +{:.3} ms{detail}\n",
                ev.name,
                ms(ev.ts.saturating_sub(base)),
            ));
        } else {
            out.push_str(&format!(
                "{indent}{:<30} +{:.3} ms  {:.3} ms\n",
                ev.name,
                ms(ev.ts.saturating_sub(base)),
                ms(ev.dur),
            ));
            if let Some(kids) = children.get(&i) {
                for &k in kids.iter().rev() {
                    stack.push((k, depth + 1));
                }
            }
        }
    }
    Ok(out)
}

/// `run-looppoint shutdown`: POST /shutdown?mode=...
fn farm_shutdown(args: &[String]) -> ExitCode {
    let c = match parse_client_args(args) {
        Ok(c) => c,
        Err(e) => return config_error(&e),
    };
    let addr = match require_farm(&c) {
        Ok(a) => a,
        Err(e) => return config_error(&e),
    };
    if c.mode != "drain" && c.mode != "now" {
        return config_error(&format!("unknown shutdown mode '{}'", c.mode));
    }
    let mut client = FarmClient::connect(addr.clone());
    match client
        .http()
        .request("POST", &format!("/shutdown?mode={}", c.mode), "")
    {
        Ok((200, body)) => {
            println!("{body}");
            ExitCode::SUCCESS
        }
        Ok((status, body)) => {
            eprintln!("error: status {status}: {body}");
            ExitCode::from(EXIT_PIPELINE)
        }
        Err(e) => {
            eprintln!("error: contacting {addr}: {e}");
            ExitCode::from(EXIT_PIPELINE)
        }
    }
}
