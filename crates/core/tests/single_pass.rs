//! Single-pass checkpoint generation: equivalence with one one-marker
//! `Pinball::checkpoints_at` replay per region (the independent oracle),
//! the one-replay guarantee, serial/pooled simulation determinism, and the
//! pass budget of a cold pipeline run (which makes no checkpoint pass at
//! all).

mod oracle;

use looppoint::{
    analyze, prepare_region_checkpoints, run_pipeline, LoopPointConfig, SimOptions, WARMUP_SLICES,
};
use lp_omp::WaitPolicy;
use lp_store::Store;
use lp_uarch::SimConfig;
use lp_workloads::{build, matrix_demo, InputClass};
use std::sync::{Arc, Mutex, MutexGuard};

const NTHREADS: usize = 4;

/// One test at a time: the pass-budget test reads process-global counters
/// that every pipeline run of this binary adds to.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn demo_program() -> (Arc<lp_isa::Program>, usize) {
    let spec = matrix_demo(1);
    let n = spec.effective_threads(NTHREADS);
    let p = build(&spec, InputClass::Test, NTHREADS, WaitPolicy::Passive);
    (p, n)
}

/// 19 looppoints in five chains at [`WARMUP_SLICES`], every head with a
/// checkpoint.
fn demo_config() -> LoopPointConfig {
    LoopPointConfig::with_slice_base(300)
}

fn demo_analysis() -> (Arc<lp_isa::Program>, looppoint::Analysis) {
    let (p, n) = demo_program();
    let analysis = analyze(&p, n, &demo_config()).unwrap();
    (p, analysis)
}

fn state_bytes(s: &lp_isa::MachineState) -> Vec<u8> {
    let mut buf = Vec::new();
    s.write_to(&mut buf).unwrap();
    buf
}

/// Asserts the deterministic parts of two [`lp_sim::SimStats`] are equal
/// (wall-clock fields are excluded by construction).
fn assert_stats_eq(a: &lp_sim::SimStats, b: &lp_sim::SimStats, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.instructions, b.instructions, "{what}: instructions");
    assert_eq!(
        a.filtered_instructions, b.filtered_instructions,
        "{what}: filtered instructions"
    );
    assert_eq!(
        a.per_thread_instructions, b.per_thread_instructions,
        "{what}: per-thread instructions"
    );
    assert_eq!(
        a.ff_instructions, b.ff_instructions,
        "{what}: warmup instructions"
    );
    assert_eq!(a.branch, b.branch, "{what}: branch stats");
    assert_eq!(a.mem, b.mem, "{what}: memory stats");
}

#[test]
fn single_pass_prepares_identical_checkpoints_in_one_replay() {
    let _serial = serial();
    let (p, analysis) = demo_analysis();
    let single = prepare_region_checkpoints(&analysis, &p, WARMUP_SLICES).unwrap();
    let reference = oracle::prepare_independently(&analysis, &p, WARMUP_SLICES);
    let heads = single.regions.iter().filter(|r| !r.continues).count();
    assert!(
        heads >= 2 && heads < single.regions.len(),
        "need several chains, one of several regions, to make the one-pass guarantee interesting"
    );

    // The headline property: one replay pass regardless of region count.
    assert_eq!(
        single.replay_passes, 1,
        "single-pass generation must replay the pinball exactly once"
    );
    assert!(reference.replay_passes >= 1, "no region has a checkpoint");

    // Each chain head's snapshot is byte-identical to the region's own
    // one-marker checkpoint, and its watch counts hold the region's own.
    assert_eq!(single.regions.len(), reference.regions.len());
    for (a, b) in single.regions.iter().zip(&reference.regions) {
        let slice = a.region.slice_index;
        assert_eq!(slice, b.region.slice_index);
        match (&a.checkpoint, &b.checkpoint) {
            _ if a.continues => assert!(a.checkpoint.is_none(), "slice {slice} continues"),
            (None, None) => {}
            (Some((sa, ca)), Some((sb, cb))) => {
                assert_eq!(
                    state_bytes(sa),
                    state_bytes(sb),
                    "snapshot for slice {slice} must be byte-identical"
                );
                for own in cb {
                    assert!(ca.contains(own), "watch count {own:?} for slice {slice}");
                }
            }
            _ => panic!("checkpoint presence differs for slice {slice}"),
        }
    }
}

#[test]
fn checkpointed_simulation_unchanged_by_single_pass_and_pool() {
    let _serial = serial();
    let (p, n) = demo_program();
    let (cfg, simcfg) = (demo_config(), SimConfig::gainestown(n));

    // Serial, through the pipeline (single-pass prepare inside).
    let opts = SimOptions::default();
    let run = run_pipeline(&p, n, &cfg, &simcfg, &opts, WARMUP_SLICES, None).unwrap();
    let serial = run.results;

    // Per-region prepare + independent simulation: the chain heads'
    // reference result.
    let reference = oracle::independent(&run.analysis, &p, n, &simcfg, &opts, WARMUP_SLICES);

    // Bounded-pool parallel run.
    let opts = SimOptions {
        pool_size: 3,
        ..Default::default()
    };
    let pooled = run_pipeline(&p, n, &cfg, &simcfg, &opts, WARMUP_SLICES, None)
        .unwrap()
        .results;

    assert_eq!(serial.len(), reference.len());
    assert_eq!(serial.len(), pooled.len());
    let mut heads = 0;
    for ((s, l), q) in serial.iter().zip(&reference).zip(&pooled) {
        assert_eq!(s.region.slice_index, q.region.slice_index);
        assert_stats_eq(&s.stats, &q.stats, "serial vs pooled simulation");
        if !s.continues {
            assert_stats_eq(&s.stats, l, "chain head vs per-region prepare");
            heads += 1;
        }
    }
    assert!(heads >= 2, "{heads} chains");
}

/// The pass budget, counted: a cold pipeline run steps the program through
/// one recording (the DCFG rides it) and one replay (the slicer, which
/// keeps every slice-boundary state) before it simulates regions — no
/// checkpoint pass, with or without a store. Only an analysis served from
/// the store without its checkpoints makes the one checkpoint pass.
#[test]
fn cold_pipeline_records_and_replays_once_and_makes_no_checkpoint_pass() {
    let _serial = serial();
    // lp-pinball reports to the process-global observer; the spans of each
    // run are told from any other's by its trace.
    let observer = lp_obs::Observer::enabled();
    lp_obs::set_global(observer.clone()).expect("no other test installs an observer");
    let (p, n) = demo_program();
    let (simcfg, opts) = (SimConfig::gainestown(n), SimOptions::default());
    let counter = |name: &str| observer.counter(name).get();
    let dir = std::env::temp_dir().join(format!("lp-pass-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir, lp_obs::Observer::disabled()).unwrap();

    // Runs the pipeline under a fresh trace; returns it, its spans per pass
    // (record, replay, checkpoint pass) and the instructions it replayed.
    let run = |store: Option<&Store>| {
        let trace = lp_obs::TraceContext::new_root();
        let cfg = demo_config().with_trace(Some(trace));
        let replayed = counter("pinball.replayed_instructions");
        let run = run_pipeline(&p, n, &cfg, &simcfg, &opts, WARMUP_SLICES, store).unwrap();
        let replayed = counter("pinball.replayed_instructions") - replayed;
        let spans = observer.trace_events_for(trace.trace_id);
        let opened = [
            "pinball.record",
            "pinball.replay",
            "pinball.checkpoint_pass",
        ]
        .map(|pass| spans.iter().filter(|e| e.name == pass).count());
        (run, opened, replayed)
    };

    let mut answers = Vec::new();
    for store in [None, Some(&store)] {
        let recorded = counter("pinball.recorded_instructions");
        let (run, opened, replayed) = run(store);
        assert!(!run.analysis_from_store && !run.checkpoints_from_store);
        assert_eq!(opened, [1, 1, 0], "record, replay, checkpoint-pass spans");
        let recorded = counter("pinball.recorded_instructions") - recorded;
        assert_eq!(recorded, run.analysis.pinball.instructions());
        assert_eq!(replayed, recorded, "one replay of the recording");
        answers.push(run.summary().predicted_cycles);
    }

    // The analysis is cached, its checkpoints are not: one checkpoint pass.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.to_string_lossy().ends_with("-checkpoints.lpa") {
            std::fs::remove_file(path).unwrap();
        }
    }
    let (run, opened, replayed) = run(Some(&store));
    assert!(run.analysis_from_store && !run.checkpoints_from_store);
    assert_eq!(opened, [0, 0, 1], "record, replay, checkpoint-pass spans");
    assert_eq!(replayed, 0);
    answers.push(run.summary().predicted_cycles);
    assert!(answers.iter().all(|&a| a == answers[0]), "{answers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
