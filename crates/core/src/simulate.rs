//! Unconstrained, binary-driven simulation of looppoint regions.

use crate::config::DEFAULT_MAX_STEPS;
use crate::error::LoopPointError;
use crate::pipeline::{Analysis, LoopPointRegion};
use crate::pool;
use lp_isa::{MachineState, Marker, Pc, Program};
use lp_sim::{SimError, SimStats, Simulator};
use lp_uarch::SimConfig;
use std::sync::Arc;

/// Knobs shared by every region-simulation entry point.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Hard step budget for any single fast-forward or detailed run
    /// (default: [`DEFAULT_MAX_STEPS`]).
    pub max_steps: u64,
    /// Simulate regions concurrently on a bounded worker pool.
    pub parallel: bool,
    /// Fast-forward warming of caches and predictors (`false` is the
    /// cold-start ablation).
    pub warmup: bool,
    /// Worker-pool width when `parallel`; `None` uses
    /// [`std::thread::available_parallelism`]. Always clamped to the
    /// region count.
    pub pool_size: Option<usize>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_steps: DEFAULT_MAX_STEPS,
            parallel: false,
            warmup: true,
            pool_size: None,
        }
    }
}

impl SimOptions {
    /// Options running regions on the bounded worker pool.
    #[must_use]
    pub fn parallel() -> Self {
        SimOptions {
            parallel: true,
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

/// Simulates every looppoint unconstrained on `simcfg`, **from reset**:
/// each region fast-forwards (warming caches and predictors) from program
/// start to its start marker, then runs detailed to its end marker
/// (§III-F's binary-driven warmup) — prepared regions with no checkpoints.
///
/// With `opts.parallel`, regions run concurrently on a bounded worker
/// pool — the deployment §III-J describes (checkpoints simulated in
/// parallel given enough resources); wall-clock times then feed the
/// *actual parallel* speedup numbers.
///
/// # Errors
/// The first region failure is returned; outstanding parallel work is
/// cancelled.
pub fn simulate_representatives(
    analysis: &Analysis,
    program: &Arc<Program>,
    nthreads: usize,
    simcfg: &SimConfig,
    opts: &SimOptions,
) -> Result<Vec<RegionResult>, LoopPointError> {
    let regions = analysis
        .looppoints
        .iter()
        .map(|region| PreparedRegion {
            region: region.clone(),
            checkpoint: None,
        })
        .collect();
    let prepared = PreparedCheckpoints {
        regions,
        replay_passes: 0,
    };
    simulate_prepared(&prepared, program, nthreads, simcfg, opts)
}

/// Builds the per-region checkpoints for
/// [`simulate_representatives_checkpointed`] in a **single pinball
/// replay**, regardless of region count.
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

/// Simulates every looppoint **checkpoint-driven**: each region restores a
/// pinball checkpoint taken `warmup_slices` slices before its start marker,
/// fast-forwards (warming caches and predictors) through that short warmup
/// window, and then runs detailed to the end marker.
///
/// This is the deployment the paper's title describes: regions ship as
/// checkpoints, so no simulation time is spent re-executing the program
/// prefix — the property behind the large *actual* speedups of §V-B.
/// Checkpoint construction is a **single** replay of the analysis pinball
/// (see [`prepare_region_checkpoints`]) and a one-time, shareable cost
/// (like pinball generation itself); it is not charged to the per-region
/// simulation time.
///
/// # Errors
/// Checkpoint construction failures, then the first region failure;
/// outstanding parallel work is cancelled.
pub fn simulate_representatives_checkpointed(
    analysis: &Analysis,
    program: &Arc<Program>,
    nthreads: usize,
    simcfg: &SimConfig,
    warmup_slices: usize,
    opts: &SimOptions,
) -> Result<Vec<RegionResult>, LoopPointError> {
    let prepared = prepare_region_checkpoints(analysis, program, warmup_slices)?;
    simulate_prepared(&prepared, program, nthreads, simcfg, opts)
}

/// Simulates already-prepared regions, serially or on the bounded pool
/// (see [`SimOptions`]) — the second half of
/// [`simulate_representatives_checkpointed`], split out so checkpoint
/// construction and simulation can be timed and cached separately.
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
    if !opts.parallel {
        return prepared.regions.iter().map(run_one).collect();
    }
    let workers = pool::effective_pool_size(opts.pool_size, prepared.regions.len());
    pool::run_cancelable(&prepared.regions, workers, run_one)
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
