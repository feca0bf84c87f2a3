//! The independent per-region simulation, kept as the oracle chained
//! regions are held to: every region prepared and simulated on its own —
//! one one-marker checkpoint replay each, its own simulator, a written-out
//! restore → watch → fast-forward → detail sequence — the way looppoints
//! ran before regions whose warm-up windows overlap were chained.
//!
//! A chain's head, and a chain of one, must match it bit for bit; a region
//! that continues a chain starts warmer than it, by design.

#![allow(dead_code)] // each test binary uses a subset

use looppoint::{Analysis, LoopPointRegion, PreparedCheckpoints, PreparedRegion, SimOptions};
use lp_isa::{Machine, Program};
use lp_sim::{Mode, SimStats, Simulator, StopCond};
use lp_uarch::SimConfig;
use std::sync::Arc;

/// Each region's checkpoint `warmup_slices` slices before its start
/// marker, one full pinball replay **per region**, each a one-marker
/// `checkpoints_at` call watching only that region's own start/end PCs.
/// No region continues another.
pub fn prepare_independently(
    analysis: &Analysis,
    program: &Arc<Program>,
    warmup_slices: usize,
) -> PreparedCheckpoints {
    let mut prepared = PreparedCheckpoints {
        regions: Vec::new(),
        replay_passes: 0,
    };
    for region in &analysis.looppoints {
        let warm_idx = region.slice_index.saturating_sub(warmup_slices);
        let mut watch = Vec::new();
        for m in [region.start, region.end].into_iter().flatten() {
            if !watch.contains(&m.pc) {
                watch.push(m.pc);
            }
        }
        let checkpoint = analysis.profile.slices[warm_idx].start.map(|marker| {
            let pinball = &analysis.pinball;
            let one = pinball.checkpoints_at(program.clone(), &[marker], &watch);
            let (ckpt, counts) = one.unwrap().pop().unwrap();
            prepared.replay_passes += 1;
            let counts = watch.iter().map(|pc| (*pc, counts[pc])).collect();
            (ckpt.state().clone(), counts)
        });
        prepared.regions.push(PreparedRegion {
            region: region.clone(),
            checkpoint,
            continues: false,
        });
    }
    prepared
}

/// One prepared region on a simulator of its own, written out: restore its
/// checkpoint (or reset), seed its marker counts, fast-forward to its start
/// marker unless the checkpoint sits on it, then detail to its end.
pub fn simulate_independently(
    p: &PreparedRegion,
    program: &Arc<Program>,
    nthreads: usize,
    simcfg: &SimConfig,
    opts: &SimOptions,
) -> SimStats {
    let region: &LoopPointRegion = &p.region;
    let mut sim = match &p.checkpoint {
        None => Simulator::new(program.clone(), nthreads, simcfg.clone()),
        Some((state, counts)) => {
            let machine = Machine::from_snapshot(program.clone(), state);
            let mut sim = Simulator::from_machine(machine, simcfg.clone());
            for &(pc, count) in counts {
                sim.watch_pc_from(pc, count);
            }
            sim
        }
    };
    for m in [region.start, region.end].into_iter().flatten() {
        sim.watch_pc(m.pc);
    }
    sim.set_ff_warming(opts.warmup);
    if let Some(start) = region.start {
        if sim.watch_count(start.pc) != start.count {
            sim.run(
                Mode::FastForward,
                Some(StopCond::Marker(start)),
                opts.max_steps,
            )
            .unwrap();
        }
    }
    sim.run(
        Mode::Detailed,
        region.end.map(StopCond::Marker),
        opts.max_steps,
    )
    .unwrap()
}

/// Every looppoint prepared and simulated on its own, in looppoint order.
pub fn independent(
    analysis: &Analysis,
    program: &Arc<Program>,
    nthreads: usize,
    simcfg: &SimConfig,
    opts: &SimOptions,
    warmup_slices: usize,
) -> Vec<SimStats> {
    prepare_independently(analysis, program, warmup_slices)
        .regions
        .iter()
        .map(|p| simulate_independently(p, program, nthreads, simcfg, opts))
        .collect()
}

/// Every deterministic `SimStats` field (all but `wall` / `ff_wall`).
pub fn outcome(s: &SimStats) -> impl PartialEq + std::fmt::Debug + '_ {
    let counts = (s.cycles, s.instructions, s.filtered_instructions);
    let per_thread = (&s.per_thread_instructions, s.ff_instructions);
    (counts, per_thread, &s.branch, &s.mem, &s.ipc_trace)
}
