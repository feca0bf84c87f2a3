//! Unconstrained simulation of looppoint regions: one path, two halves.
//! [`prepare_region_checkpoints`] picks where each region's warm-up starts
//! (a checkpoint `warmup_slices` slices back, or program start) and
//! [`simulate_prepared`] warms up and simulates from there. Binary-driven
//! simulation is the [`FROM_RESET`] window of the same path.

use crate::config::DEFAULT_MAX_STEPS;
use crate::error::LoopPointError;
use crate::pipeline::{Analysis, LoopPointRegion};
use crate::pool;
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

/// A region paired with its optional checkpoint payload.
#[derive(Debug, Clone)]
pub struct PreparedRegion {
    /// The region to simulate.
    pub region: LoopPointRegion,
    /// Snapshotted machine state at the warmup marker plus the global
    /// `(PC, count)` watch counts at that point; `None` when the region
    /// starts near program begin and is simulated from reset.
    pub checkpoint: Option<(MachineState, Vec<(Pc, u64)>)>,
}

/// Region checkpoints ready for simulation, plus accounting of what their
/// construction cost.
#[derive(Debug)]
pub struct PreparedCheckpoints {
    /// One prepared entry per looppoint, in looppoint order.
    pub regions: Vec<PreparedRegion>,
    /// Full pinball replays performed to build the checkpoints. The
    /// single-pass generator keeps this at **1** regardless of region
    /// count (0 when no region needs a checkpoint).
    pub replay_passes: u64,
}

/// Detailed statistics for one simulated looppoint.
#[derive(Debug, Clone)]
pub struct RegionResult {
    /// The region that was simulated.
    pub region: LoopPointRegion,
    /// Region statistics (with warmup accounting in the `ff_*` fields).
    pub stats: SimStats,
}

/// Builds the per-region checkpoints, taken `warmup_slices` slices before
/// each region's start marker, in a **single pinball replay** regardless
/// of region count ([`WARMUP_SLICES`] is the paper's deployment,
/// [`FROM_RESET`] replays nothing).
///
/// Regions are sorted by warmup-marker position into a multi-marker agenda
/// and batched through [`lp_pinball::Pinball::checkpoints_at`]; each
/// region's watch counts are filtered back down to its own start/end PCs,
/// so the prepared payloads are byte-identical to k one-marker
/// `checkpoints_at` calls. Snapshot sizes are recorded into the
/// `region.checkpoint_bytes` histogram.
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

    // Warmup marker per region, plus the union of watch PCs (watch counts
    // are *global* execution counts, so the union pass produces the same
    // values any per-region watch list would see).
    let mut markers: Vec<Marker> = Vec::new();
    let mut marker_slots: Vec<Option<usize>> = Vec::with_capacity(analysis.looppoints.len());
    let mut watch: Vec<Pc> = Vec::new();
    for region in &analysis.looppoints {
        let warm_idx = region.slice_index.saturating_sub(warmup_slices);
        let warm_marker = analysis.profile.slices[warm_idx].start;
        match warm_marker {
            None => marker_slots.push(None), // near program start: from reset
            Some(marker) => {
                marker_slots.push(Some(markers.len()));
                markers.push(marker);
            }
        }
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
    let regions = analysis
        .looppoints
        .iter()
        .zip(&marker_slots)
        .map(|(region, slot)| {
            let checkpoint = slot.map(|i| {
                let (ckpt, counts) = &batch[i];
                checkpoint_bytes.record(ckpt.state().encoded_len() as u64);
                // Filter the union watch counts down to this region's own
                // start/end PCs.
                let mut own: Vec<(Pc, u64)> = Vec::new();
                for m in [region.start, region.end].into_iter().flatten() {
                    if own.iter().all(|&(pc, _)| pc != m.pc) {
                        own.push((m.pc, counts[&m.pc]));
                    }
                }
                (ckpt.state().clone(), own)
            });
            PreparedRegion {
                region: region.clone(),
                checkpoint,
            }
        })
        .collect();
    Ok(PreparedCheckpoints {
        regions,
        replay_passes,
    })
}

/// Simulates already-prepared regions, inline or on the bounded pool (see
/// [`SimOptions::pool_size`]): each region restores its checkpoint (or
/// starts from reset), fast-forwards through its warm-up window, and runs
/// detailed to its end marker. Split from [`prepare_region_checkpoints`]
/// so checkpoint construction and simulation can be timed and cached
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
    let run_one = |p: &PreparedRegion| -> Result<RegionResult, LoopPointError> {
        cancel.check()?;
        let stats = simulate_prepared_region(p, program, nthreads, simcfg, opts)?;
        Ok(RegionResult {
            region: p.region.clone(),
            stats,
        })
    };
    if opts.pool_size <= 1 {
        return prepared.regions.iter().map(run_one).collect();
    }
    pool::run_cancelable(&prepared.regions, opts.pool_size, run_one)
}

/// Simulates one region: restore its checkpoint (or start from reset when
/// it has none), seed the marker counts the checkpoint carries, then
/// [`Simulator::run_region`].
fn simulate_prepared_region(
    p: &PreparedRegion,
    program: &Arc<Program>,
    nthreads: usize,
    simcfg: &SimConfig,
    opts: &SimOptions,
) -> Result<SimStats, SimError> {
    let region = &p.region;
    let obs = lp_obs::global();
    let mut span = obs.span("region.sim", "pipeline");
    span.arg("cluster", region.cluster);
    span.arg("slice_index", region.slice_index);
    span.arg("multiplier", region.multiplier);
    span.arg("checkpointed", u64::from(p.checkpoint.is_some()));
    let mut sim = match &p.checkpoint {
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
    sim.set_ff_warming(opts.warmup);
    let stats = sim.run_region(region.start, region.end, opts.max_steps)?;
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
