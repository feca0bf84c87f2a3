//! Single-pass checkpoint generation: equivalence with one one-marker
//! `Pinball::checkpoints_at` replay per region, the one-replay guarantee,
//! serial/pooled simulation determinism, and the pass budget of a cold
//! pipeline run.

use looppoint::{
    analyze, prepare_region_checkpoints, run_pipeline, simulate_prepared, LoopPointConfig,
    PreparedCheckpoints, PreparedRegion, SimOptions, WARMUP_SLICES,
};
use lp_omp::WaitPolicy;
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

fn demo_config() -> LoopPointConfig {
    LoopPointConfig::with_slice_base(4_000)
}

fn demo_analysis() -> (Arc<lp_isa::Program>, looppoint::Analysis) {
    let (p, n) = demo_program();
    let analysis = analyze(&p, n, &demo_config()).unwrap();
    (p, analysis)
}

/// The reference the single-pass generator is held to: one full pinball
/// replay **per region**, each a one-marker `checkpoints_at` call watching
/// only that region's own start/end PCs.
fn prepare_with_one_replay_each(
    analysis: &looppoint::Analysis,
    program: &Arc<lp_isa::Program>,
) -> PreparedCheckpoints {
    let mut prepared = PreparedCheckpoints {
        regions: Vec::new(),
        replay_passes: 0,
    };
    for region in &analysis.looppoints {
        let warm_idx = region.slice_index.saturating_sub(WARMUP_SLICES);
        let markers = [region.start, region.end];
        let watch: Vec<_> = markers.iter().flatten().map(|m| m.pc).collect();
        let checkpoint = analysis.profile.slices[warm_idx].start.map(|marker| {
            let pinball = &analysis.pinball;
            let one = pinball.checkpoints_at(program.clone(), &[marker], &watch);
            let (ckpt, counts) = one.unwrap().pop().unwrap();
            prepared.replay_passes += 1;
            (ckpt.state().clone(), counts.into_iter().collect())
        });
        let region = region.clone();
        prepared.regions.push(PreparedRegion { region, checkpoint });
    }
    prepared
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
    assert!(
        analysis.looppoints.len() >= 2,
        "need multiple regions to make the one-pass guarantee interesting"
    );

    let single = prepare_region_checkpoints(&analysis, &p, WARMUP_SLICES).unwrap();
    let reference = prepare_with_one_replay_each(&analysis, &p);

    // The headline property: one replay pass regardless of region count.
    assert_eq!(
        single.replay_passes, 1,
        "single-pass generation must replay the pinball exactly once"
    );
    assert!(reference.replay_passes >= 1, "no region has a checkpoint");

    // Byte-identical payloads, region by region.
    assert_eq!(single.regions.len(), reference.regions.len());
    for (a, b) in single.regions.iter().zip(&reference.regions) {
        assert_eq!(a.region.slice_index, b.region.slice_index);
        match (&a.checkpoint, &b.checkpoint) {
            (None, None) => {}
            (Some((sa, ca)), Some((sb, cb))) => {
                assert_eq!(
                    state_bytes(sa),
                    state_bytes(sb),
                    "snapshot for slice {} must be byte-identical",
                    a.region.slice_index
                );
                let mut ca = ca.clone();
                let mut cb = cb.clone();
                ca.sort_unstable();
                cb.sort_unstable();
                assert_eq!(ca, cb, "watch counts for slice {}", a.region.slice_index);
            }
            _ => panic!(
                "checkpoint presence differs for slice {}",
                a.region.slice_index
            ),
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

    // Per-region prepare + serial simulate: the reference result.
    let reference_prep = prepare_with_one_replay_each(&run.analysis, &p);
    let reference = simulate_prepared(&reference_prep, &p, n, &simcfg, &opts).unwrap();

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
    for ((s, l), q) in serial.iter().zip(&reference).zip(&pooled) {
        assert_eq!(s.region.slice_index, l.region.slice_index);
        assert_eq!(s.region.slice_index, q.region.slice_index);
        assert_stats_eq(&s.stats, &l.stats, "single-pass vs per-region prepare");
        assert_stats_eq(&s.stats, &q.stats, "serial vs pooled simulation");
    }
}

/// The pass budget, counted: a cold pipeline run steps the program through
/// one recording (the DCFG rides it), one replay (the slicer) and one
/// checkpoint pass before it simulates regions.
#[test]
fn cold_pipeline_records_replays_and_checkpoints_once_each() {
    let _serial = serial();
    // lp-pinball reports to the process-global observer; the spans of this
    // run are told from any other's by its trace.
    let observer = lp_obs::Observer::enabled();
    lp_obs::set_global(observer.clone()).expect("no other test installs an observer");
    let trace = lp_obs::TraceContext::new_root();

    let (p, n) = demo_program();
    let cfg = demo_config().with_trace(Some(trace));
    let counter = |name: &str| observer.counter(name).get();
    let (recorded, replayed) = (
        counter("pinball.recorded_instructions"),
        counter("pinball.replayed_instructions"),
    );
    let simcfg = SimConfig::gainestown(n);
    let opts = SimOptions::default();
    let run = run_pipeline(&p, n, &cfg, &simcfg, &opts, WARMUP_SLICES, None).unwrap();
    assert!(!run.analysis_from_store && !run.checkpoints_from_store);

    let spans = observer.trace_events_for(trace.trace_id);
    for pass in [
        "pinball.record",
        "pinball.replay",
        "pinball.checkpoint_pass",
    ] {
        let opened = spans.iter().filter(|e| e.name == pass).count();
        assert_eq!(opened, 1, "{pass} spans");
    }
    let recorded = counter("pinball.recorded_instructions") - recorded;
    let replayed = counter("pinball.replayed_instructions") - replayed;
    assert_eq!(recorded, run.analysis.pinball.instructions());
    assert_eq!(replayed, recorded, "one replay of the recording");
}
