//! Unconstrained simulation of looppoint regions: one path, two halves.
//! [`prepare_region_checkpoints`] picks where each region's warm-up starts
//! (a checkpoint `warmup_slices` slices back, or program start) and
//! [`simulate_prepared`] warms up and simulates from there. Binary-driven
//! simulation is the [`FROM_RESET`] window of the same path.
//!
//! Regions whose warm-up windows overlap run as one *chain*: sorted by
//! slice, a region whose window reaches back to where the region before
//! it ended continues on that region's simulator, fast-forwarding only the
//! gap, instead of restoring a checkpoint and fast-forwarding the same
//! slices again. Only a chain's head carries a checkpoint.

use crate::config::DEFAULT_MAX_STEPS;
use crate::error::LoopPointError;
use crate::pipeline::{Analysis, LoopPointRegion};
use crate::pool;
use lp_bbv::BoundaryState;
use lp_isa::{MachineState, Marker, Pc, Program};
use lp_sim::{SimError, SimStats, Simulator};
use lp_uarch::SimConfig;
use std::sync::Arc;

/// The paper's checkpoint warm-up window, in slices (§III-F): each region
/// restores a checkpoint taken two slices before its start marker.
pub const WARMUP_SLICES: usize = 2;

/// The warm-up window that reaches program start — binary-driven
/// simulation as a value of `warmup_slices`. Every region's warm marker
/// saturates to slice 0, whose start is always `None` (program start), so
/// [`prepare_region_checkpoints`] requests no marker, replays nothing
/// (`replay_passes == 0`) and gives every region `checkpoint: None`: each
/// region fast-forwards from reset to its start marker.
pub const FROM_RESET: usize = usize::MAX;

/// Knobs shared by every region-simulation entry point.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Hard step budget for any single fast-forward or detailed run
    /// (default: [`DEFAULT_MAX_STEPS`]).
    pub max_steps: u64,
    /// Fast-forward warming of caches and predictors (`false` is the
    /// cold-start ablation).
    pub warmup: bool,
    /// Worker-pool width, clamped to the region count; `<= 1` (the
    /// default) runs regions inline, one after another.
    pub pool_size: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_steps: DEFAULT_MAX_STEPS,
            warmup: true,
            pool_size: 1,
        }
    }
}

impl SimOptions {
    /// Options running regions on a pool as wide as
    /// [`std::thread::available_parallelism`].
    #[must_use]
    pub fn parallel() -> Self {
        SimOptions {
            pool_size: std::thread::available_parallelism().map_or(1, usize::from),
            ..Default::default()
        }
    }
}

/// A region paired with where its simulation starts: its checkpoint,
/// program reset, or the end of the region before it in slice order.
#[derive(Debug, Clone)]
pub struct PreparedRegion {
    /// The region to simulate.
    pub region: LoopPointRegion,
    /// Snapshotted machine state at the warmup marker plus the global
    /// `(PC, count)` watch counts at that point, of every marker PC of the
    /// region's chain; `None` when the region continues another or starts
    /// near program begin and is simulated from reset.
    pub checkpoint: Option<(MachineState, Vec<(Pc, u64)>)>,
    /// Whether the region continues the chain of the region before it in
    /// slice order: that region ends at or after this one's warm slice, so
    /// this one runs on its simulator and carries no checkpoint.
    pub continues: bool,
}

/// Region checkpoints ready for simulation, plus accounting of what their
/// construction cost.
#[derive(Debug)]
pub struct PreparedCheckpoints {
    /// One prepared entry per looppoint, in looppoint order.
    pub regions: Vec<PreparedRegion>,
    /// Full pinball replays performed to build the checkpoints: **1**
    /// from [`prepare_region_checkpoints`] regardless of region count, 0
    /// when no region needs a checkpoint, when the slicing replay's
    /// boundary states served, or when the store did.
    pub replay_passes: u64,
}

/// Detailed statistics for one simulated looppoint.
#[derive(Debug, Clone)]
pub struct RegionResult {
    /// The region that was simulated.
    pub region: LoopPointRegion,
    /// Region statistics (with the region's own warmup in the `ff_*`
    /// fields).
    pub stats: SimStats,
    /// Whether the region ran on the simulator of the region before it in
    /// slice order ([`PreparedRegion::continues`]).
    pub continues: bool,
}

/// The start marker of the slice `warmup_slices` before `region`'s, where
/// its warm-up begins (`None`: program start), and that slice's index.
fn warm_start(
    analysis: &Analysis,
    region: &LoopPointRegion,
    warmup_slices: usize,
) -> (usize, Option<Marker>) {
    let warm_idx = region.slice_index.saturating_sub(warmup_slices);
    (warm_idx, analysis.profile.slices[warm_idx].start)
}

/// Region indices grouped into chains, each in slice order and the chains
/// by their head's slice: `joins(prev, next)` says whether region `next`
/// continues the chain whose last region is `prev`.
fn chains(
    regions: usize,
    slice_of: impl Fn(usize) -> usize,
    joins: impl Fn(usize, usize) -> bool,
) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..regions).collect();
    order.sort_by_key(|&i| slice_of(i));
    let mut chains: Vec<Vec<usize>> = Vec::new();
    for i in order {
        match chains.last_mut() {
            Some(chain) if joins(chain[chain.len() - 1], i) => chain.push(i),
            _ => chains.push(vec![i]),
        }
    }
    chains
}

/// The looppoints' chains at `warmup_slices`: a region continues the one
/// before it in slice order when that one has an end marker and ends at or
/// after this one's warm slice.
fn looppoint_chains(analysis: &Analysis, warmup_slices: usize) -> Vec<Vec<usize>> {
    let lps = &analysis.looppoints;
    chains(
        lps.len(),
        |i| lps[i].slice_index,
        |prev, next| {
            let (prev, next) = (&lps[prev], &lps[next]);
            prev.end.is_some()
                && prev.slice_index + 1 >= next.slice_index.saturating_sub(warmup_slices)
        },
    )
}

/// The watch counts a chain head's checkpoint carries: the global
/// execution count at the checkpoint of each start/end PC of the chain's
/// regions, in chain order.
fn chain_counts<'a>(
    chain: impl IntoIterator<Item = &'a LoopPointRegion>,
    count: impl Fn(Pc) -> u64,
) -> Vec<(Pc, u64)> {
    let mut counts: Vec<(Pc, u64)> = Vec::new();
    for m in chain.into_iter().flat_map(|r| [r.start, r.end]).flatten() {
        if counts.iter().all(|&(pc, _)| pc != m.pc) {
            counts.push((m.pc, count(m.pc)));
        }
    }
    counts
}

/// The prepared regions, in looppoint order: each chain's head takes
/// `checkpoint(chain)` (`chain` as looppoint indices, head first), every
/// other region continues.
fn prepare_chains(
    analysis: &Analysis,
    chains: &[Vec<usize>],
    mut checkpoint: impl FnMut(&[usize]) -> Option<(MachineState, Vec<(Pc, u64)>)>,
) -> Vec<PreparedRegion> {
    let mut regions: Vec<PreparedRegion> = analysis
        .looppoints
        .iter()
        .map(|region| PreparedRegion {
            region: region.clone(),
            checkpoint: None,
            continues: true,
        })
        .collect();
    for chain in chains {
        let head = &mut regions[chain[0]];
        head.continues = false;
        head.checkpoint = checkpoint(chain);
    }
    regions
}

/// Builds the region checkpoints, taken `warmup_slices` slices before
/// each chain head's start marker, in a **single pinball replay**
/// regardless of region count ([`WARMUP_SLICES`] is the paper's
/// deployment, [`FROM_RESET`] replays nothing and makes every region one
/// chain from reset).
///
/// Chain heads' warmup markers are batched into a multi-marker agenda
/// through [`lp_pinball::Pinball::checkpoints_at`], which watches the union
/// of all regions' start/end PCs; each head's watch counts are filtered
/// back down to its own chain's PCs. Snapshot sizes are recorded into the
/// `region.checkpoint_bytes` histogram.
///
/// A cold [`crate::run_pipeline`] does not call this: its slicing replay
/// already holds every slice-boundary state. This is the path for an
/// analysis served from the store without its checkpoints, and the
/// byte-for-byte oracle of the states the slicing replay keeps.
///
/// # Errors
/// Replay failures, or a warmup marker the recording never reaches.
pub fn prepare_region_checkpoints(
    analysis: &Analysis,
    program: &Arc<Program>,
    warmup_slices: usize,
) -> Result<PreparedCheckpoints, LoopPointError> {
    let obs = lp_obs::global();
    let mut span = obs.span("region.checkpoints", "pipeline");
    span.arg("regions", analysis.looppoints.len());

    // Warmup marker per chain head, plus the union of watch PCs (watch
    // counts are *global* execution counts, so the union pass produces the
    // same values any per-chain watch list would see).
    let chains = looppoint_chains(analysis, warmup_slices);
    let mut markers: Vec<Marker> = Vec::new();
    for chain in &chains {
        let head = &analysis.looppoints[chain[0]];
        markers.extend(warm_start(analysis, head, warmup_slices).1);
    }
    let mut watch: Vec<Pc> = Vec::new();
    for region in &analysis.looppoints {
        for m in [region.start, region.end].into_iter().flatten() {
            if !watch.contains(&m.pc) {
                watch.push(m.pc);
            }
        }
    }

    let batch = analysis
        .pinball
        .checkpoints_at(program.clone(), &markers, &watch)?;
    let replay_passes = u64::from(!markers.is_empty());
    span.arg("replay_passes", replay_passes);

    let checkpoint_bytes = obs.histogram("region.checkpoint_bytes");
    let mut batch = batch.iter();
    let regions = prepare_chains(analysis, &chains, |chain| {
        let head = &analysis.looppoints[chain[0]];
        warm_start(analysis, head, warmup_slices).1?;
        let (ckpt, counts) = batch.next().expect("one checkpoint per warm marker");
        checkpoint_bytes.record(ckpt.state().encoded_len() as u64);
        let chain = chain.iter().map(|&i| &analysis.looppoints[i]);
        Some((ckpt.state().clone(), chain_counts(chain, |pc| counts[&pc])))
    });
    Ok(PreparedCheckpoints {
        regions,
        replay_passes,
    })
}

/// [`prepare_region_checkpoints`] with no replay: each chain head's
/// checkpoint is the state the slicing replay kept at its warm slice's
/// start (`states` from [`crate::pipeline::analyze_keeping`]),
/// byte-identical to what the checkpoint pass would snapshot there. A
/// clone of a kept state copies no page.
pub(crate) fn prepare_from_boundary_states(
    analysis: &Analysis,
    states: &[BoundaryState],
    warmup_slices: usize,
) -> PreparedCheckpoints {
    let obs = lp_obs::global();
    let mut span = obs.span("region.checkpoints", "pipeline");
    span.arg("regions", analysis.looppoints.len());
    span.arg("replay_passes", 0u64);
    let checkpoint_bytes = obs.histogram("region.checkpoint_bytes");
    let chains = looppoint_chains(analysis, warmup_slices);
    let regions = prepare_chains(analysis, &chains, |chain| {
        let head = &analysis.looppoints[chain[0]];
        let (warm_idx, warm_marker) = warm_start(analysis, head, warmup_slices);
        let marker = warm_marker?;
        // Slice `i` starts at the boundary that ended slice `i - 1`.
        let at = &states[warm_idx - 1];
        assert_eq!(at.marker, marker, "boundary states follow the profile");
        checkpoint_bytes.record(at.state.encoded_len() as u64);
        let chain = chain.iter().map(|&i| &analysis.looppoints[i]);
        Some((at.state.clone(), chain_counts(chain, |pc| at.count(pc))))
    });
    PreparedCheckpoints {
        regions,
        replay_passes: 0,
    }
}

/// Simulates already-prepared regions chain by chain, inline or on the
/// bounded pool (see [`SimOptions::pool_size`]): each chain's head
/// restores its checkpoint (or starts from reset), fast-forwards through
/// its warm-up window and runs detailed to its end marker; each region
/// continuing the chain fast-forwards the gap from there and runs
/// detailed in turn. Results come back in looppoint order and do not
/// depend on the pool width. Split from [`prepare_region_checkpoints`] so
/// checkpoint construction and simulation can be timed and cached
/// separately, and one preparation can feed several machines.
///
/// # Errors
/// The first region failure is returned; outstanding parallel work is
/// cancelled.
pub fn simulate_prepared(
    prepared: &PreparedCheckpoints,
    program: &Arc<Program>,
    nthreads: usize,
    simcfg: &SimConfig,
    opts: &SimOptions,
) -> Result<Vec<RegionResult>, LoopPointError> {
    simulate_prepared_with_cancel(
        prepared,
        program,
        nthreads,
        simcfg,
        opts,
        &crate::CancelToken::default(),
    )
}

/// [`simulate_prepared`] honoring a cooperative [`crate::CancelToken`]:
/// the token is checked before every region (serial and pooled alike), so
/// a tripped token aborts the sweep with [`LoopPointError::Cancelled`]
/// after at most one in-flight region per worker completes. This is the
/// hook [`crate::run_job`] gives the lp-farm service for per-job timeouts
/// and explicit cancellation.
pub(crate) fn simulate_prepared_with_cancel(
    prepared: &PreparedCheckpoints,
    program: &Arc<Program>,
    nthreads: usize,
    simcfg: &SimConfig,
    opts: &SimOptions,
    cancel: &crate::CancelToken,
) -> Result<Vec<RegionResult>, LoopPointError> {
    let regions = &prepared.regions;
    let chains = chains(
        regions.len(),
        |i| regions[i].region.slice_index,
        |_, next| regions[next].continues,
    );
    let run_chain = |chain: &Vec<usize>| {
        let chain: Vec<&PreparedRegion> = chain.iter().map(|&i| &regions[i]).collect();
        simulate_chain(&chain, program, nthreads, simcfg, opts, cancel)
    };
    let per_chain = if opts.pool_size <= 1 {
        chains
            .iter()
            .map(run_chain)
            .collect::<Result<Vec<_>, _>>()?
    } else {
        pool::run_cancelable(&chains, opts.pool_size, run_chain)?
    };
    let mut results: Vec<Option<RegionResult>> = vec![None; regions.len()];
    for (chain, chain_results) in chains.iter().zip(per_chain) {
        for (&i, result) in chain.iter().zip(chain_results) {
            results[i] = Some(result);
        }
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("every region is in one chain"))
        .collect())
}

/// Simulates one chain on one simulator: restore the head's checkpoint
/// (or start from reset), seed every marker count of the chain, then one
/// [`Simulator::run_region`] per region. With warmup off (the cold-start
/// ablation) each continuing region starts from cold timing state.
fn simulate_chain(
    chain: &[&PreparedRegion],
    program: &Arc<Program>,
    nthreads: usize,
    simcfg: &SimConfig,
    opts: &SimOptions,
    cancel: &crate::CancelToken,
) -> Result<Vec<RegionResult>, LoopPointError> {
    let mut sim = match &chain[0].checkpoint {
        None => Simulator::new(program.clone(), nthreads, simcfg.clone()),
        Some((state, counts)) => {
            let machine = lp_isa::Machine::from_snapshot(program.clone(), state);
            let mut sim = Simulator::from_machine(machine, simcfg.clone());
            for &(pc, count) in counts {
                sim.watch_pc_from(pc, count);
            }
            sim
        }
    };
    // Markers are counted from the head on, before any of them is crossed.
    for m in chain
        .iter()
        .flat_map(|p| [p.region.start, p.region.end])
        .flatten()
    {
        sim.watch_pc(m.pc);
    }
    sim.set_ff_warming(opts.warmup);
    let mut results = Vec::with_capacity(chain.len());
    for (i, p) in chain.iter().enumerate() {
        cancel.check()?;
        if i > 0 && !opts.warmup {
            sim.reset_timing();
        }
        let stats = simulate_region(&mut sim, p, opts)?;
        results.push(RegionResult {
            region: p.region.clone(),
            stats,
            continues: i > 0,
        });
    }
    Ok(results)
}

/// Runs one region on `sim` with [`Simulator::run_region`]. A simulator
/// standing on the start marker — a window-0 checkpoint, or the previous
/// region's end — begins the detailed segment where it stands.
fn simulate_region(
    sim: &mut Simulator,
    p: &PreparedRegion,
    opts: &SimOptions,
) -> Result<SimStats, SimError> {
    let region = &p.region;
    let obs = lp_obs::global();
    let mut span = obs.span("region.sim", "pipeline");
    span.arg("cluster", region.cluster);
    span.arg("slice_index", region.slice_index);
    span.arg("multiplier", region.multiplier);
    span.arg("checkpointed", u64::from(p.checkpoint.is_some()));
    span.arg("continues", u64::from(p.continues));
    let start = region.start.filter(|m| sim.watch_count(m.pc) != m.count);
    let stats = sim.run_region(start, region.end, opts.max_steps)?;
    span.arg("instructions", stats.instructions);
    span.arg("cycles", stats.cycles);
    obs.counter("region.sims").inc();
    Ok(stats)
}

/// Simulates the whole application in detailed mode (the reference run the
/// prediction error is measured against).
///
/// # Errors
/// Propagates simulator failures.
pub fn simulate_whole(
    program: &Arc<Program>,
    nthreads: usize,
    simcfg: &SimConfig,
) -> Result<SimStats, LoopPointError> {
    let _span = lp_obs::global().span("sim.whole", "pipeline");
    lp_sim::simulate_full(program.clone(), nthreads, simcfg.clone(), DEFAULT_MAX_STEPS)
        .map_err(LoopPointError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LoopPointConfig;
    use crate::persist::encode_checkpoints;
    use crate::pipeline::analyze_keeping;
    use crate::testutil::{contended_program, phased_program};
    use lp_omp::WaitPolicy;

    /// The slicing replay's boundary states are the checkpoint pass's
    /// snapshots, byte for byte, at every warm-up window.
    #[test]
    fn boundary_states_encode_to_the_checkpoint_pass_bytes() {
        for program in [
            phased_program(2, WaitPolicy::Passive, 4),
            contended_program(2),
        ] {
            let cfg = LoopPointConfig::with_slice_base(500);
            let (analysis, states) = analyze_keeping(&program, 2, &cfg, true).unwrap();
            let slices = &analysis.profile.slices;
            assert!(analysis.looppoints.len() >= 2, "{}", program.name());
            assert_eq!(states.len(), slices.len() - 1, "one state per boundary");
            let simcfg = SimConfig::gainestown(2);
            let mut checkpointed = 0;
            for window in [0, 1, 2, 3, WARMUP_SLICES, FROM_RESET] {
                let oracle = prepare_region_checkpoints(&analysis, &program, window).unwrap();
                let kept = prepare_from_boundary_states(&analysis, &states, window);
                assert_eq!(kept.replay_passes, 0);
                assert!(
                    encode_checkpoints(&kept) == encode_checkpoints(&oracle),
                    "{} window {window}",
                    program.name()
                );
                // Every window simulates, window 0 (each head's checkpoint
                // on its own start marker) included.
                let results =
                    simulate_prepared(&kept, &program, 2, &simcfg, &SimOptions::default());
                assert_eq!(results.unwrap().len(), analysis.looppoints.len());
                checkpointed += kept
                    .regions
                    .iter()
                    .filter(|r| r.checkpoint.is_some())
                    .count();
            }
            assert!(
                checkpointed > 0,
                "{}: no checkpoint compared",
                program.name()
            );
        }
    }
}
