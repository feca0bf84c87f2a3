//! One way to run a region: every path that simulates a looppoint goes
//! through `Simulator::run_region`, and must produce what the written-out
//! restore → watch → fast-forward → detail sequence produces — region by
//! region for a chain's head, and along the chain for the regions that
//! continue it.

#[path = "../src/testutil.rs"]
mod testutil;

mod oracle;

use looppoint::{
    analyze, analyze_live, prepare_region_checkpoints, run_pipeline, simulate_prepared,
    simulate_whole, LiveConfig, LoopPointConfig, SimOptions, FROM_RESET, WARMUP_SLICES,
};
use lp_omp::WaitPolicy;
use lp_sim::{Mode, Simulator, StopCond};
use lp_uarch::SimConfig;
use oracle::outcome;
use testutil::{contended_program, phased_program};

const NTHREADS: usize = 2;
const BUDGET: u64 = 200_000_000;

/// `FROM_RESET` is one chain from reset. Its written-out reference is one
/// simulator walking the looppoints in slice order, fast-forwarding to
/// each start marker (unless it stands on it) and detailing to its end;
/// its head is also what `run_region` on a fresh simulator, and the
/// independent oracle, produce.
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
        let looppoints = &analysis.looppoints;
        assert!(looppoints.len() >= 2, "{}", program.name());
        assert_eq!(run.results.len(), looppoints.len());
        // The window reaches program start: no checkpoint, no replay.
        let prepared = prepare_region_checkpoints(analysis, &program, FROM_RESET).unwrap();
        assert_eq!(prepared.replay_passes, 0, "FROM_RESET replays nothing");
        assert!(prepared.regions.iter().all(|p| p.checkpoint.is_none()));

        let mut order: Vec<usize> = (0..looppoints.len()).collect();
        order.sort_by_key(|&i| looppoints[i].slice_index);
        let mut sim = Simulator::new(program.clone(), NTHREADS, simcfg.clone());
        for m in looppoints.iter().flat_map(|r| [r.start, r.end]).flatten() {
            sim.watch_pc(m.pc);
        }
        let mut ff_before = 0;
        for (k, &i) in order.iter().enumerate() {
            let region = &looppoints[i];
            assert_eq!(prepared.regions[i].continues, k > 0, "one chain");
            if let Some(start) = region.start {
                if sim.watch_count(start.pc) != start.count {
                    sim.run(Mode::FastForward, Some(StopCond::Marker(start)), BUDGET)
                        .unwrap();
                }
            }
            let mut reference = sim
                .run(Mode::Detailed, region.end.map(StopCond::Marker), BUDGET)
                .unwrap();
            // A bare detailed run reports the simulator's running total of
            // fast-forward; a region's own is the part since the last one.
            (reference.ff_instructions, ff_before) = (
                reference.ff_instructions - ff_before,
                reference.ff_instructions,
            );
            assert_eq!(
                outcome(&reference),
                outcome(&run.results[i].stats),
                "{}: written-out chain vs pipeline, region {k} of the chain",
                program.name()
            );
            assert_eq!(run.results[i].continues, k > 0);
        }

        let head = &looppoints[order[0]];
        let via_method = Simulator::new(program.clone(), NTHREADS, simcfg.clone())
            .run_region(head.start, head.end, BUDGET)
            .unwrap();
        let independent =
            oracle::independent(analysis, &program, NTHREADS, &simcfg, &opts, FROM_RESET);
        let head_stats = &run.results[order[0]].stats;
        assert_eq!(
            outcome(&via_method),
            outcome(head_stats),
            "run_region vs pipeline"
        );
        assert_eq!(
            outcome(&independent[order[0]]),
            outcome(head_stats),
            "oracle vs pipeline"
        );
    }
}

/// At every warm-up window, chained simulation is a function of the
/// preparation alone (pool 1 and pool 3 agree), every chain head — a chain
/// of one included — matches the independent per-region oracle bit for
/// bit, and the chains fast-forward no more than the independent regions.
/// Window 0 puts each head's checkpoint on its own start marker.
#[test]
fn chain_heads_match_the_independent_oracle_at_every_window() {
    let (mut continuing, mut multi_chain) = (0, 0);
    for program in [
        phased_program(NTHREADS, WaitPolicy::Passive, 4),
        contended_program(NTHREADS),
    ] {
        let simcfg = SimConfig::gainestown(NTHREADS);
        let analysis = analyze(&program, NTHREADS, &LoopPointConfig::with_slice_base(500)).unwrap();
        for window in [0, 1, 2, 3, WARMUP_SLICES, FROM_RESET] {
            let what = format!("{} window {window}", program.name());
            let prepared = prepare_region_checkpoints(&analysis, &program, window).unwrap();
            let serial = SimOptions::default();
            let pooled = SimOptions {
                pool_size: 3,
                ..serial
            };
            let chained = simulate_prepared(&prepared, &program, NTHREADS, &simcfg, &serial);
            let chained = chained.unwrap_or_else(|e| panic!("{what}: {e}"));
            let on_pool = simulate_prepared(&prepared, &program, NTHREADS, &simcfg, &pooled);
            let independent =
                oracle::independent(&analysis, &program, NTHREADS, &simcfg, &serial, window);
            let mut heads = 0;
            for (i, (a, b)) in chained.iter().zip(&on_pool.unwrap()).enumerate() {
                assert_eq!(a.region.slice_index, analysis.looppoints[i].slice_index);
                assert_eq!(outcome(&a.stats), outcome(&b.stats), "{what}: pool 1 vs 3");
                assert_eq!(a.continues, prepared.regions[i].continues);
                if a.continues {
                    continuing += 1;
                    continue;
                }
                heads += 1;
                assert_eq!(
                    outcome(&a.stats),
                    outcome(&independent[i]),
                    "{what}: head vs oracle"
                );
                if window == 0 && a.region.start.is_some() {
                    assert_eq!(
                        a.stats.ff_instructions, 0,
                        "{what}: checkpoint on the start marker"
                    );
                }
            }
            multi_chain += usize::from(heads > 1);
            let ff_chained: u64 = chained.iter().map(|r| r.stats.ff_instructions).sum();
            let ff_independent: u64 = independent.iter().map(|s| s.ff_instructions).sum();
            assert!(
                ff_chained <= ff_independent,
                "{what}: ff {ff_chained} vs {ff_independent}"
            );
        }
    }
    assert!(
        continuing > 0 && multi_chain > 0,
        "{continuing} continuing, {multi_chain} multi-chain"
    );
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
/// the commit before its detailed re-run moved onto `run_region`. They held
/// with a warm-up leg from one region back and with none; a re-run now
/// starts from its own region's snapshot, which is the second.
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
    let cfg = LiveConfig::with_slice_base(2_000);
    let live = analyze_live(&program, NTHREADS, &cfg, &simcfg, &mut |_| {}).unwrap();
    assert_eq!(live.decision_log(), DECISIONS);
    assert_eq!(
        live.est_total_cycles.to_bits(),
        EST_TOTAL_CYCLES.to_bits(),
        "{}",
        live.est_total_cycles
    );
}
