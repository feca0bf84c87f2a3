//! The naive multi-threaded SimPoint baseline (§II).
//!
//! Fixed global instruction-count slices with unfiltered BBVs, boundaries
//! expressed as raw global retired-instruction indices. The profile is
//! taken on a constrained replay; the regions are then simulated
//! *unconstrained* at the same instruction indices — but since the target
//! machine interleaves threads differently (and, under the active wait
//! policy, spins a different number of iterations), index N no longer marks
//! the same work, which is exactly why the paper reports errors up to
//! 68.44% for this adaptation.

use crate::error::LoopPointError;
use lp_bbv::{FixedSlice, FixedSlicer};
use lp_dcfg::Dcfg;
use lp_isa::Program;
use lp_pinball::Pinball;
use lp_sim::{Mode, SimStats, Simulator, StopCond};
use lp_simpoint::{cluster, Clustering, SimpointConfig};
use lp_uarch::SimConfig;
use std::sync::Arc;

/// A representative region in instruction-index coordinates.
#[derive(Debug, Clone)]
pub struct NaiveRegion {
    /// Representative slice index.
    pub slice_index: usize,
    /// Global instruction index where the region starts.
    pub start_inst: u64,
    /// Global instruction index where the region ends.
    pub end_inst: u64,
    /// Cluster-size multiplier over unfiltered counts.
    pub multiplier: f64,
}

/// Naive-SimPoint analysis results.
#[derive(Debug)]
pub struct NaiveAnalysis {
    /// All fixed-size slices.
    pub slices: Vec<FixedSlice>,
    /// Clustering over unfiltered BBVs.
    pub clustering: Clustering,
    /// Selected regions.
    pub regions: Vec<NaiveRegion>,
}

/// Profiles fixed-size slices on the pinball replay and clusters them.
///
/// # Errors
/// Replay failures.
pub fn analyze_naive(
    pinball: &Pinball,
    program: &Arc<Program>,
    dcfg: &Dcfg,
    slice_size: u64,
    simpoint: &SimpointConfig,
    max_steps: u64,
) -> Result<NaiveAnalysis, LoopPointError> {
    let nthreads = pinball.nthreads();
    let mut slicer = FixedSlicer::new(dcfg, nthreads, slice_size);
    pinball.replay(program.clone(), &mut [&mut slicer], max_steps)?;
    let slices = slicer.finish();

    let vectors: Vec<&[(u64, f64)]> = slices.iter().map(|s| s.bbv.entries()).collect();
    let clustering = cluster(&vectors, simpoint);

    let mut regions = Vec::with_capacity(clustering.k);
    for (cluster_id, &rep) in clustering.representatives.iter().enumerate() {
        let rep_slice = &slices[rep];
        let cluster_insts: u64 = clustering
            .members(cluster_id)
            .map(|i| slices[i].insts)
            .sum();
        regions.push(NaiveRegion {
            slice_index: rep,
            start_inst: rep_slice.start_inst,
            end_inst: rep_slice.end_inst,
            multiplier: if rep_slice.insts == 0 {
                0.0
            } else {
                cluster_insts as f64 / rep_slice.insts as f64
            },
        });
    }

    Ok(NaiveAnalysis {
        slices,
        clustering,
        regions,
    })
}

/// Simulates the naive regions unconstrained at their recorded instruction
/// indices and returns per-region stats paired with multipliers (Eq. 1
/// over them is [`crate::Prediction::weighted`]).
///
/// # Errors
/// Simulation failures.
pub fn simulate_naive_regions(
    analysis: &NaiveAnalysis,
    program: &Arc<Program>,
    nthreads: usize,
    simcfg: &SimConfig,
    max_steps: u64,
) -> Result<Vec<(NaiveRegion, SimStats)>, LoopPointError> {
    analysis
        .regions
        .iter()
        .map(|region| {
            let mut sim = Simulator::new(program.clone(), nthreads, simcfg.clone());
            if region.start_inst > 0 {
                sim.run(
                    Mode::FastForward,
                    Some(StopCond::AtGlobalInst(region.start_inst)),
                    max_steps,
                )?;
            }
            let stats = sim.run(
                Mode::Detailed,
                Some(StopCond::AtGlobalInst(region.end_inst)),
                max_steps,
            )?;
            Ok((region.clone(), stats))
        })
        .collect()
}
