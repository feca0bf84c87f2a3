//! The in-process runs: the one-shot sampled pipeline (the artifact's
//! `run-looppoint.py -p … -n … -i … -w …`) and `live` online sampling,
//! each compared against a full-detail reference on the console.

use super::{config_error, exit_for, open_store, pipeline_error, Matches};
use looppoint::{
    diagnose, error_pct, run_pipeline, simulate_whole, speedups, DiagReport, Estimate,
    LoopPointConfig, SimOptions, WARMUP_SLICES,
};
use lp_isa::Program;
use lp_obs::json::Value;
use lp_obs::{
    lp_debug, lp_info, lp_warn, FlushTargets, LogLevel, Observer, PeriodicFlusher, TelemetryServer,
};
use lp_store::Store;
use lp_uarch::SimConfig;
use lp_workloads::{build, InputClass, WorkloadSpec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resolves every `-p` name up front: an unknown program is a usage
/// error, caught before any work (or telemetry file) happens.
fn programs(m: &Matches) -> Result<Vec<WorkloadSpec>, String> {
    let resolve = |name: &str| {
        let name = name.trim();
        lp_workloads::find(name).ok_or_else(|| format!("unknown program '{name}' (see --help)"))
    };
    let names: String = m.get("--program");
    names.split(',').map(resolve).collect()
}

/// The program `spec` expands to under the PROGRAM flags, the team size
/// it actually runs with, and the machine to simulate it on.
fn build_program(spec: &WorkloadSpec, m: &Matches) -> (Arc<Program>, usize, SimConfig) {
    let ncores: usize = m.get("--ncores");
    let nthreads = spec.effective_threads(ncores);
    let program = build(spec, m.get("--input-class"), ncores, m.get("--wait-policy"));
    let simcfg = SimConfig::gainestown(nthreads.max(ncores));
    (program, nthreads, simcfg)
}

fn run_one(
    spec: &WorkloadSpec,
    m: &Matches,
    obs: &Observer,
    store: Option<&Store>,
) -> Result<Option<DiagReport>, Box<dyn std::error::Error>> {
    let want_diag = m.on("--diag-report") || m.on("--serve-metrics");
    let input: InputClass = m.get("--input-class");
    let (program, nthreads, simcfg) = build_program(spec, m);
    let mut run_span = obs.span(&format!("run.{}", spec.name), "driver");
    run_span.arg("nthreads", nthreads);
    run_span.arg("input", input.name());
    lp_info!(
        "\n=== {} | input {} | {nthreads} threads | {} wait policy ===",
        spec.name,
        input.name(),
        m.get::<String>("--wait-policy")
    );

    if m.on("--native") {
        obs.set_phase(&format!("native:{}", spec.name));
        let start = Instant::now();
        let mut machine = lp_isa::Machine::new(program, nthreads);
        machine.run_to_completion(u64::MAX)?;
        lp_info!(
            "native run: {} instructions in {:.2?} ({:.1} Minst/s)",
            machine.global_retired(),
            start.elapsed(),
            machine.global_retired() as f64 / start.elapsed().as_secs_f64() / 1e6
        );
        return Ok(None);
    }

    let mut cfg =
        LoopPointConfig::with_slice_base(m.get("--slice-base")).with_observer(obs.clone());
    cfg.max_steps = m.get("--max-steps");
    let pool_size: usize = m.get("--pool-size");
    let sim_opts = SimOptions {
        max_steps: cfg.max_steps,
        pool_size,
        ..Default::default()
    };

    obs.set_phase(&format!("analyze:{}", spec.name));
    lp_info!(
        "[1/3] sampled pipeline: profiling (record + constrained replays), region checkpoints \
         ({WARMUP_SLICES}-slice warmup), region simulation{} ...",
        match pool_size {
            0 | 1 => String::new(),
            n => format!(" on a {n}-wide pool"),
        }
    );
    let run = run_pipeline(
        &program,
        nthreads,
        &cfg,
        &simcfg,
        &sim_opts,
        WARMUP_SLICES,
        store,
    )?;
    let (analysis, results) = (&run.analysis, &run.results);
    if run.analysis_from_store {
        lp_info!("      analysis served from the artifact store (no recording or replay)");
    }
    if run.checkpoints_from_store {
        lp_info!("      region checkpoints served from the artifact store");
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
    if m.on("--verbose") {
        let report = looppoint::report::analysis_report(&program, analysis);
        lp_info!("\n{report}");
    }

    obs.set_phase(&format!("extrapolate:{}", spec.name));
    lp_info!("[2/3] extrapolating whole-program performance ...");
    let estimate = Estimate::two_phase(analysis, results);
    let prediction = &estimate.prediction;

    if input == InputClass::Ref {
        // As in the paper, no full detailed reference at ref scale — so
        // no measured wall-clock either: only the instruction-count
        // speedups mean anything.
        let sp = speedups(analysis, results, &lp_sim::SimStats::default());
        lp_info!(
            "[3/3] ref inputs: skipping full-application reference (impractical, as in the paper)"
        );
        let cycles = prediction.total_cycles;
        lp_info!("      predicted runtime: {cycles:.0} cycles");
        lp_info!(
            "      theoretical speedup: serial {:.1}x, parallel {:.1}x",
            sp.theoretical_serial,
            sp.theoretical_parallel
        );
        // No reference at ref scale: the report still carries weights,
        // distances, and the self-profile (errors attribute to zero).
        return Ok(
            want_diag.then(|| diagnose(spec.name, nthreads, "two-phase", &estimate, None, obs))
        );
    }

    obs.set_phase(&format!("reference-sim:{}", spec.name));
    lp_info!("[3/3] full-application reference simulation ...");
    let full = simulate_whole(&program, nthreads, &simcfg)?;
    let err = error_pct(prediction.total_cycles, full.cycles as f64);
    let sp = speedups(analysis, results, &full);
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
    let report = diagnose(
        spec.name,
        nthreads,
        "two-phase",
        &estimate,
        Some(&full),
        obs,
    );
    if m.on("--diag-report") {
        lp_info!("\n{}", report.render_table());
    }
    Ok(Some(report))
}

/// `run-looppoint live`: Pac-Sim-style one-shot online sampling — no
/// profiling prequel. Classifies regions as the program runs, streams
/// per-region progress, then compares the live estimate against a
/// full-detail reference run. One machine-parseable JSON summary line
/// per program on stdout (what ci's live-smoke gate reads).
pub fn live(m: &Matches) -> ExitCode {
    lp_obs::set_log_level(m.get("--log-level"));
    let specs = match programs(m) {
        Ok(specs) => specs,
        Err(e) => return config_error(&e),
    };
    let obs = Observer::enabled();
    let mut reports: Vec<Value> = Vec::new();
    let mut run_one = |spec: &WorkloadSpec| -> Result<(), String> {
        let (program, nthreads, simcfg) = build_program(spec, m);
        let mut cfg = looppoint::LiveConfig::with_slice_base(m.get("--slice-base"))
            .with_observer(obs.clone());
        cfg.max_steps = m.get("--max-steps");
        lp_info!(
            "\n=== {} | live (online sampling) | input {} | {nthreads} threads ===",
            spec.name,
            m.get::<InputClass>("--input-class").name()
        );
        let mut progress = |p: &looppoint::LiveProgress| lp_info!("      {}", p.render());
        let outcome = looppoint::analyze_live(&program, nthreads, &cfg, &simcfg, &mut progress)
            .map_err(|e| format!("live run for {}: {e}", spec.name))?;
        let full = simulate_whole(&program, nthreads, &simcfg)
            .map_err(|e| format!("full-detail reference for {}: {e}", spec.name))?;
        let err = error_pct(outcome.est_total_cycles, full.cycles as f64);
        lp_info!(
            "  live estimate    : {:.0} cycles (IPC {:.3})",
            outcome.est_total_cycles,
            outcome.est_ipc()
        );
        let (cycles, ipc) = (full.cycles, full.ipc());
        lp_info!("  full detail      : {cycles} cycles (IPC {ipc:.3})");
        lp_info!("  cycles error     : {err:.2}%");
        lp_info!(
            "  detailed regions : {}/{} ({:.1}%), {} clusters",
            outcome.detailed_regions,
            outcome.regions.len(),
            outcome.detailed_fraction() * 100.0,
            outcome.clusters.len()
        );
        if m.on("--verbose") {
            for line in outcome.decision_log() {
                lp_info!("      {line}");
            }
        }
        if m.on("--diag-report") {
            let estimate = outcome.estimate();
            let report = diagnose(spec.name, nthreads, "live", &estimate, Some(&full), &obs);
            lp_info!("\n{}", report.render_table());
            reports.push(report.to_value());
        }
        let mut summary = vec![("program".to_string(), Value::Str(spec.name.to_string()))];
        if let Value::Obj(members) = looppoint::LiveSummary::from_outcome(&outcome).to_value() {
            summary.extend(members);
        }
        summary.push(("full_cycles".to_string(), Value::Int(cycles.into())));
        summary.push(("full_ipc".to_string(), Value::Num(ipc)));
        summary.push(("err_pct".to_string(), Value::Num(err)));
        let kib = |bytes: usize| Value::Num(bytes as f64 / 1024.0);
        let copied = outcome.checkpoint_bytes;
        summary.push(("checkpoint_kib".to_string(), kib(copied.copied)));
        summary.push(("checkpoint_dense_kib".to_string(), kib(copied.dense)));
        println!("{}", Value::Obj(summary));
        Ok(())
    };
    if let Err(e) = specs.iter().try_for_each(&mut run_one) {
        return pipeline_error(&e);
    }
    if let Some(path) = m.opt::<String>("--diag-report") {
        if let Err(e) = std::fs::write(&path, Value::Arr(reports).to_string()) {
            return pipeline_error(&format!("writing {path}: {e}"));
        }
    }
    ExitCode::SUCCESS
}

/// The one-shot run: every `-p` program through the sampled pipeline.
/// Once the runs start there is a single exit path: clean, failed, or
/// partial, telemetry exports, accuracy reports, and the live endpoint
/// are finalized the same way.
pub fn run(m: &Matches) -> ExitCode {
    lp_obs::set_log_level(m.get("--log-level"));
    let specs = match programs(m) {
        Ok(specs) => specs,
        Err(e) => return config_error(&e),
    };

    // One enabled observer per process when any export is requested (or at
    // debug verbosity, so spans are available for inspection); installed
    // globally so every layer — including the Copy-config crates
    // lp-pinball and lp-simpoint — records into the same sink.
    let exports = ["--trace-out", "--metrics-out", "--diag-report"];
    let want_obs = exports.iter().any(|flag| m.on(flag))
        || m.on("--serve-metrics")
        || m.get::<LogLevel>("--log-level") >= LogLevel::Debug;
    let obs = if want_obs {
        Observer::enabled()
    } else {
        Observer::disabled()
    };
    if want_obs && lp_obs::set_global(obs.clone()).is_err() {
        lp_warn!("global observer already installed; exports may be incomplete");
    }
    let store = match (m.on("--no-store"), open_store(m, &obs)) {
        (true, _) => None,
        (false, Ok(store)) => store,
        (false, Err(e)) => return config_error(&e),
    };

    // Crash-safe telemetry: the background flusher atomically rewrites the
    // export files every interval, so a panic or `kill` still leaves valid
    // JSON at most one interval stale. The final (authoritative) write
    // happens when it stops, on success and failure paths alike.
    let [trace_out, metrics_out, diag_out] = exports.map(|flag| m.opt::<String>(flag));
    let targets = FlushTargets {
        trace_out: trace_out.as_ref().map(PathBuf::from),
        metrics_out: metrics_out.as_ref().map(PathBuf::from),
    };
    let flush_every = Duration::from_millis(m.get("--flush-interval-ms"));
    let flusher = PeriodicFlusher::start(obs.clone(), targets, flush_every);

    let server = match m.opt::<String>("--serve-metrics") {
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
            Err(e) => return config_error(&format!("binding telemetry endpoint {addr}: {e}")),
        },
        None => None,
    };

    let mut ok = true;
    let mut reports = Vec::new();
    for spec in &specs {
        match run_one(spec, m, &obs, store.as_ref()) {
            Ok(Some(report)) => {
                if let Some(server) = &server {
                    server.set_report(report.to_json());
                }
                reports.push(report);
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("error: {}: {e}", spec.name);
                ok = false;
                break;
            }
        }
    }

    obs.set_phase("finalize");
    if let Some(store) = &store {
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
            s.compression_ratio()
        );
    }

    // Accuracy reports: written even when a later workload failed, so
    // completed reports survive partial runs. Always a JSON array, one
    // element per diagnosed program.
    if let Some(path) = diag_out {
        let doc = Value::Arr(reports.iter().map(DiagReport::to_value).collect());
        match lp_obs::write_atomic(Path::new(&path), doc.to_string().as_bytes()) {
            Ok(()) => lp_info!("diag: {} report(s) -> {path}", reports.len()),
            Err(e) => {
                eprintln!("error: writing diag report to {path}: {e}");
                ok = false;
            }
        }
    }

    obs.set_phase("done");
    match flusher.stop() {
        Ok(()) => {
            if let Some(path) = trace_out {
                lp_info!(
                    "trace: {} events -> {path} (open in chrome://tracing or ui.perfetto.dev)",
                    obs.trace_events().len()
                );
            }
            if let Some(path) = metrics_out {
                lp_info!("metrics: report -> {path}");
            }
        }
        Err(e) => {
            eprintln!("error: writing telemetry exports: {e}");
            ok = false;
        }
    }

    if let Some(server) = server {
        let linger_ms: u64 = m.get("--serve-linger-ms");
        if linger_ms > 0 {
            lp_info!("telemetry: lingering {linger_ms} ms before endpoint shutdown");
            std::thread::sleep(Duration::from_millis(linger_ms));
        }
        server.stop();
    }
    exit_for(ok)
}
