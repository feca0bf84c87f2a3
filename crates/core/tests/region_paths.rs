//! One way to run a region: every path that simulates a looppoint goes
//! through `Simulator::run_region`, and must produce what the written-out
//! restore → watch → fast-forward → detail sequence produces.

#[path = "../src/testutil.rs"]
mod testutil;

use looppoint::{
    analyze, analyze_live, prepare_region_checkpoints, run_pipeline, simulate_prepared,
    simulate_whole, LiveConfig, LoopPointConfig, SimOptions, FROM_RESET,
};
use lp_omp::WaitPolicy;
use lp_sim::{Mode, SimStats, Simulator, StopCond};
use lp_uarch::SimConfig;
use testutil::{contended_program, phased_program};

const NTHREADS: usize = 2;
const BUDGET: u64 = 200_000_000;

/// Every deterministic `SimStats` field (all but `wall` / `ff_wall`).
fn outcome(s: &SimStats) -> impl PartialEq + std::fmt::Debug + '_ {
    let counts = (s.cycles, s.instructions, s.filtered_instructions);
    let per_thread = (&s.per_thread_instructions, s.ff_instructions);
    (counts, per_thread, &s.branch, &s.mem, &s.ipc_trace)
}

#[test]
fn written_out_reference_equals_run_region_equals_run_pipeline_from_reset() {
    for program in [
        phased_program(NTHREADS, WaitPolicy::Passive, 4),
        contended_program(NTHREADS),
    ] {
        let simcfg = SimConfig::gainestown(NTHREADS);
        let cfg = LoopPointConfig::with_slice_base(500);
        let opts = SimOptions::default();
        let run = run_pipeline(&program, NTHREADS, &cfg, &simcfg, &opts, FROM_RESET, None).unwrap();
        let analysis = &run.analysis;
        assert_eq!(run.results.len(), analysis.looppoints.len());
        // The window reaches program start: no checkpoint, no replay.
        let prepared = prepare_region_checkpoints(analysis, &program, FROM_RESET).unwrap();
        assert_eq!(prepared.replay_passes, 0, "FROM_RESET replays nothing");
        assert!(prepared.regions.iter().all(|p| p.checkpoint.is_none()));
        let mut compared = 0;
        for (region, result) in analysis.looppoints.iter().zip(&run.results) {
            let via_method = Simulator::new(program.clone(), NTHREADS, simcfg.clone())
                .run_region(region.start, region.end, BUDGET)
                .unwrap();
            assert_eq!(
                outcome(&via_method),
                outcome(&result.stats),
                "run_region vs pipeline"
            );
            let (Some(start), Some(end)) = (region.start, region.end) else {
                continue;
            };
            let mut sim = Simulator::new(program.clone(), NTHREADS, simcfg.clone());
            sim.watch_pc(start.pc);
            sim.watch_pc(end.pc);
            sim.run(Mode::FastForward, Some(StopCond::Marker(start)), BUDGET)
                .unwrap();
            let reference = sim
                .run(Mode::Detailed, Some(StopCond::Marker(end)), BUDGET)
                .unwrap();
            assert_eq!(
                outcome(&reference),
                outcome(&via_method),
                "reference vs run_region"
            );
            compared += 1;
        }
        assert!(compared > 0, "no region with both markers to compare");
    }
}

/// `FROM_RESET` is one value of a saturating window: any window reaching
/// back past the first slice prepares the same checkpoint-free regions,
/// and they simulate alike inline and on the pool.
#[test]
fn any_window_reaching_slice_zero_is_from_reset() {
    let program = phased_program(NTHREADS, WaitPolicy::Passive, 4);
    let simcfg = SimConfig::gainestown(NTHREADS);
    let analysis = analyze(&program, NTHREADS, &LoopPointConfig::with_slice_base(500)).unwrap();
    assert!(analysis.looppoints.len() >= 2);
    let widest = analysis.looppoints.iter().map(|r| r.slice_index).max();
    let from_reset = prepare_region_checkpoints(&analysis, &program, FROM_RESET).unwrap();
    for window in [widest.unwrap(), widest.unwrap() + 1] {
        let prepared = prepare_region_checkpoints(&analysis, &program, window).unwrap();
        assert_eq!(prepared.replay_passes, from_reset.replay_passes);
        assert_eq!(prepared.regions.len(), from_reset.regions.len());
        for (a, b) in prepared.regions.iter().zip(&from_reset.regions) {
            assert_eq!(a.region.slice_index, b.region.slice_index);
            assert!(a.checkpoint.is_none() && b.checkpoint.is_none());
        }
    }
    let pooled = SimOptions {
        pool_size: 3,
        ..Default::default()
    };
    let serial = simulate_prepared(
        &from_reset,
        &program,
        NTHREADS,
        &simcfg,
        &Default::default(),
    );
    let pooled = simulate_prepared(&from_reset, &program, NTHREADS, &simcfg, &pooled);
    let (serial, pooled) = (serial.unwrap(), pooled.unwrap());
    assert_eq!(serial.len(), pooled.len());
    for (a, b) in serial.iter().zip(&pooled) {
        assert_eq!(a.region.slice_index, b.region.slice_index);
        assert_eq!(outcome(&a.stats), outcome(&b.stats), "serial vs pooled");
    }
}

#[test]
fn region_without_markers_is_the_whole_program() {
    let program = phased_program(NTHREADS, WaitPolicy::Active, 2);
    let simcfg = SimConfig::gainestown(NTHREADS);
    let whole = simulate_whole(&program, NTHREADS, &simcfg).unwrap();
    let region = Simulator::new(program, NTHREADS, simcfg)
        .run_region(None, None, BUDGET)
        .unwrap();
    assert_eq!(
        outcome(&region),
        outcome(&whole),
        "run_region(None, None) vs simulate_whole"
    );
}

/// `analyze_live`'s decisions and estimate on `phased_program`, taken from
/// the commit before its detailed re-run moved onto `run_region`.
#[test]
fn live_mode_reproduces_the_pinned_decisions_and_estimate() {
    const DECISIONS: [&str; 22] = [
        "region=0 cluster=0 spawned=true dist=0.000000 detail:new_cluster",
        "region=1 cluster=0 spawned=false dist=0.006887 predict:ipc=2.932018",
        "region=2 cluster=0 spawned=false dist=0.005240 detail:stale",
        "region=3 cluster=1 spawned=true dist=0.000000 detail:new_cluster",
        "region=4 cluster=1 spawned=false dist=0.082627 predict:ipc=0.920769",
        "region=5 cluster=1 spawned=false dist=0.061970 detail:stale",
        "region=6 cluster=1 spawned=false dist=0.046477 predict:ipc=1.028028",
        "region=7 cluster=0 spawned=false dist=0.183430 detail:low_confidence",
        "region=8 cluster=0 spawned=false dist=0.048318 detail:low_confidence",
        "region=9 cluster=0 spawned=false dist=0.036232 detail:low_confidence",
        "region=10 cluster=2 spawned=true dist=0.000000 detail:new_cluster",
        "region=11 cluster=1 spawned=false dist=0.034858 detail:stale",
        "region=12 cluster=1 spawned=false dist=0.026144 detail:low_confidence",
        "region=13 cluster=1 spawned=false dist=0.019608 detail:low_confidence",
        "region=14 cluster=3 spawned=true dist=0.000000 detail:new_cluster",
        "region=15 cluster=0 spawned=false dist=0.027181 detail:low_confidence",
        "region=16 cluster=0 spawned=false dist=0.020379 detail:low_confidence",
        "region=17 cluster=2 spawned=false dist=0.179641 predict:ipc=6.904274",
        "region=18 cluster=1 spawned=false dist=0.014706 detail:low_confidence",
        "region=19 cluster=1 spawned=false dist=0.011029 detail:low_confidence",
        "region=20 cluster=1 spawned=false dist=0.008272 detail:low_confidence",
        "region=21 cluster=1 spawned=false dist=0.006227 predict:ipc=8.012024",
    ];
    const EST_TOTAL_CYCLES: f64 = 27973.054331342213;

    let program = phased_program(NTHREADS, WaitPolicy::Passive, 3);
    let simcfg = SimConfig::gainestown(NTHREADS);
    // One region of warmup (fast-forward leg, then detail), and none (the
    // snapshot sits on the start marker: detail only). Warm timing state
    // rides along either way, so both land on the same estimate.
    for warmup_regions in [1, 0] {
        let cfg = LiveConfig {
            warmup_regions,
            ..LiveConfig::with_slice_base(2_000)
        };
        let live = analyze_live(&program, NTHREADS, &cfg, &simcfg, &mut |_| {}).unwrap();
        assert_eq!(live.decision_log(), DECISIONS, "warmup {warmup_regions}");
        assert_eq!(
            live.est_total_cycles.to_bits(),
            EST_TOTAL_CYCLES.to_bits(),
            "warmup {warmup_regions}: {}",
            live.est_total_cycles
        );
    }
}
