//! End-to-end observability smoke test: runs the demo-matrix-1 pipeline
//! with an enabled observer, then checks that
//!
//! * both exports (Chrome trace + metrics report) are valid JSON,
//! * every complete (`"X"`) event is balanced — i.e. carries a duration,
//!   and only complete events do,
//! * every pipeline phase recorded a span,
//! * `SimStats` round-trips exactly through the metrics registry
//!   (instructions, cycles, filtered_instructions).

use looppoint_repro::looppoint::{run_pipeline, LoopPointConfig, SimOptions, WARMUP_SLICES};
use looppoint_repro::obs::{self, json, Observer, TraceArg};
use looppoint_repro::omp::WaitPolicy;
use looppoint_repro::sim::{Mode, Simulator};
use looppoint_repro::uarch::SimConfig;
use looppoint_repro::workloads::{build, matrix_demo, InputClass};

#[test]
fn end_to_end_pipeline_exports_valid_trace_and_metrics() {
    let observer = Observer::enabled();
    // Install globally so the Copy-config layers (lp-pinball, lp-simpoint)
    // and the region simulators all record into the same sink. Only this
    // test installs a global in this binary (OnceLock: one per process).
    obs::set_global(observer.clone()).expect("no other global observer in this binary");

    let spec = matrix_demo(1);
    let nthreads = spec.effective_threads(4);
    let program = build(&spec, InputClass::Test, 4, WaitPolicy::Passive);
    let cfg = LoopPointConfig::with_slice_base(8_000).with_observer(observer.clone());
    let simcfg = SimConfig::gainestown(4);
    let opts = SimOptions::default();
    let run = run_pipeline(
        &program,
        nthreads,
        &cfg,
        &simcfg,
        &opts,
        WARMUP_SLICES,
        None,
    )
    .expect("sampled pipeline succeeds");
    let analysis = &run.analysis;
    assert!(!run.results.is_empty());

    // Every pipeline layer left a span.
    let events = observer.trace_events();
    for phase in [
        "analyze",
        "analyze.record",
        "analyze.dcfg",
        "analyze.slicing",
        "analyze.clustering",
        "analyze.select",
        "pinball.record",
        "pinball.replay",
        "simpoint.cluster",
        "simpoint.kmeans",
        "region.checkpoints",
        "region.sim",
        "sim.detailed",
    ] {
        assert!(
            events.iter().any(|e| e.name == phase),
            "missing span '{phase}'"
        );
    }
    let region_spans = events.iter().filter(|e| e.name == "region.sim").count();
    assert!(
        region_spans >= analysis.looppoints.len(),
        "one region.sim span per looppoint"
    );

    // Chrome export: valid JSON, balanced complete events (dur iff "X").
    let doc = json::parse(&observer.chrome_trace_json()).expect("trace is valid JSON");
    let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(evs.len() >= events.len());
    for e in evs {
        let ph = e.get("ph").unwrap().as_str().unwrap();
        assert!(e.get("ts").and_then(|v| v.as_u64()).is_some(), "ts present");
        assert_eq!(
            ph == "X",
            e.get("dur").is_some(),
            "complete events and only they carry durations"
        );
    }

    // Metrics export: valid JSON with the pipeline's counters.
    let report = json::parse(&observer.metrics_json()).expect("metrics are valid JSON");
    let counters = report.get("counters").unwrap();
    let slices = counters.get("analyze.slices").unwrap().as_u64().unwrap();
    assert_eq!(slices, analysis.profile.slices.len() as u64);
    assert!(
        counters
            .get("pinball.recorded_instructions")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );

    // File round-trip, as the driver's --trace-out/--metrics-out write them.
    let dir = std::env::temp_dir().join(format!("lp-obs-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tpath = dir.join("trace.json");
    let mpath = dir.join("metrics.json");
    observer.write_chrome_trace(&tpath).unwrap();
    observer.write_metrics(&mpath).unwrap();
    json::parse(&std::fs::read_to_string(&tpath).unwrap()).unwrap();
    json::parse(&std::fs::read_to_string(&mpath).unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simstats_round_trip_through_metrics_is_exact() {
    // A fresh, private observer: nothing else records into it, so counter
    // equality is exact.
    let observer = Observer::enabled();
    let spec = matrix_demo(1);
    let nthreads = spec.effective_threads(4);
    let program = build(&spec, InputClass::Test, 4, WaitPolicy::Passive);
    let mut sim = Simulator::new(program, nthreads, SimConfig::gainestown(4));
    sim.set_observer(observer.clone());
    sim.set_ipc_sampling(1_000);
    let stats = sim
        .run(Mode::Detailed, None, 4_000_000_000)
        .expect("run succeeds");

    let snap = observer.snapshot();
    assert_eq!(
        snap.counters["sim.detailed.instructions"],
        stats.instructions
    );
    assert_eq!(snap.counters["sim.detailed.cycles"], stats.cycles);
    assert_eq!(
        snap.counters["sim.detailed.filtered_instructions"],
        stats.filtered_instructions
    );
    assert_eq!(snap.counters["sim.detailed.segments"], 1);

    // The detailed span carries the same numbers as args.
    let events = observer.trace_events();
    let span = events.iter().find(|e| e.name == "sim.detailed").unwrap();
    let arg = |k: &str| {
        span.args
            .iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(arg("instructions"), Some(TraceArg::U64(stats.instructions)));
    assert_eq!(arg("cycles"), Some(TraceArg::U64(stats.cycles)));

    // IPC heartbeats became counter ("C") events, one per trace sample.
    let heartbeats = events.iter().filter(|e| e.name == "sim.ipc").count();
    assert_eq!(heartbeats, stats.ipc_trace.len());
    assert!(heartbeats > 0, "sampling produced heartbeats");
}
