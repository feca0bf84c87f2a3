//! The up-front analysis: record + DCFG → replay + slice → cluster.

use crate::config::LoopPointConfig;
use crate::error::LoopPointError;
use lp_bbv::{BoundaryState, LoopAlignedSlicer, SliceProfile};
use lp_dcfg::{Dcfg, DcfgBuilder};
use lp_isa::{Marker, Program};
use lp_pinball::{Pinball, RecordConfig};
use lp_simpoint::{cluster, Clustering};
use std::sync::Arc;

/// One selected representative region — a *looppoint*.
#[derive(Debug, Clone)]
pub struct LoopPointRegion {
    /// Index of the representative slice in the profile.
    pub slice_index: usize,
    /// Cluster this region represents.
    pub cluster: usize,
    /// Start boundary (`None` = program start).
    pub start: Option<Marker>,
    /// End boundary (`None` = program end).
    pub end: Option<Marker>,
    /// Eq. 2 multiplier: cluster filtered instructions over this region's
    /// filtered instructions.
    pub multiplier: f64,
    /// Spin-filtered instructions in the representative slice itself.
    pub filtered_insts: u64,
    /// Spin-filtered instructions across the whole cluster.
    pub cluster_filtered_insts: u64,
}

impl LoopPointRegion {
    /// Start marker (panics if the region starts at program begin; test
    /// helper).
    pub fn region_start(&self) -> lp_isa::Marker {
        self.start.expect("region has a start marker")
    }

    /// End marker (panics if the region runs to program end; test helper).
    pub fn region_end(&self) -> lp_isa::Marker {
        self.end.expect("region has an end marker")
    }

    /// The fraction of whole-program (filtered) work this region stands
    /// for.
    pub fn weight(&self, total_filtered: u64) -> f64 {
        if total_filtered == 0 {
            0.0
        } else {
            self.cluster_filtered_insts as f64 / total_filtered as f64
        }
    }
}

/// Results of the one-time application analysis.
#[derive(Debug)]
pub struct Analysis {
    /// The whole-program pinball the analysis replayed.
    pub pinball: Pinball,
    /// The dynamic control-flow graph (loops, blocks).
    pub dcfg: Dcfg,
    /// The loop-aligned, spin-filtered slice profile.
    pub profile: SliceProfile,
    /// The chosen clustering of slice BBVs.
    pub clustering: Clustering,
    /// The selected representative regions.
    pub looppoints: Vec<LoopPointRegion>,
}

/// Runs the one-time, up-front application analysis (§III-A through
/// §III-E): records a flow-controlled pinball with the DCFG builder riding
/// the recording, replays it once (loop-aligned spin-filtered BBV slicing),
/// clusters the slice vectors, and selects one representative region per
/// cluster with its Eq. 2 multiplier. `cfg.max_steps` bounds every pass,
/// the recording included.
///
/// # Errors
/// Pinball/record failures, or [`LoopPointError::NoSlices`] when the
/// program has no main-image loops to bound slices with.
pub fn analyze(
    program: &Arc<Program>,
    nthreads: usize,
    cfg: &LoopPointConfig,
) -> Result<Analysis, LoopPointError> {
    Ok(analyze_keeping(program, nthreads, cfg, false)?.0)
}

/// [`analyze`], plus — with `keep_boundary_states` — the machine state
/// at every slice boundary, taken by the slicing replay (in execution
/// order; see [`LoopAlignedSlicer::finish_with_boundary_states`]). Every
/// warm-up marker of a region is a slice start, so these states are the
/// region checkpoints of any warm-up window without a checkpoint pass.
///
/// # Errors
/// As [`analyze`].
pub(crate) fn analyze_keeping(
    program: &Arc<Program>,
    nthreads: usize,
    cfg: &LoopPointConfig,
    keep_boundary_states: bool,
) -> Result<(Analysis, Vec<BoundaryState>), LoopPointError> {
    let obs = &cfg.obs;
    let mut analyze_span = obs.span("analyze", "pipeline");
    analyze_span.arg("nthreads", nthreads);

    cfg.cancel.check()?;
    // 1. Reproducible capture (§III-H), with the DCFG's edge collection
    // on the same pass: per-thread edge counts do not depend on how the
    // pass interleaves threads, so the recording's order serves.
    let mut dcfg_builder = DcfgBuilder::new(program.clone(), nthreads);
    let pinball = {
        let mut span = obs.span("analyze.record", "pipeline");
        let record = RecordConfig {
            max_steps: cfg.record.max_steps.min(cfg.max_steps),
            ..cfg.record
        };
        let pinball = Pinball::record_with(program, nthreads, record, &mut [&mut dcfg_builder])?;
        span.arg("instructions", pinball.instructions());
        pinball
    };
    lp_obs::lp_debug!(
        "analyze: recorded pinball of {} instructions",
        pinball.instructions()
    );

    cfg.cancel.check()?;
    // 2. DCFG: identify loops (§III-D).
    let dcfg = {
        let mut span = obs.span("analyze.dcfg", "pipeline");
        let dcfg = dcfg_builder.finish();
        span.arg("loop_headers", dcfg.main_image_loop_headers().len());
        dcfg
    };
    if dcfg.main_image_loop_headers().is_empty() {
        return Err(LoopPointError::NoSlices {
            reason: "program has no main-image loop headers".to_string(),
        });
    }

    cfg.cancel.check()?;
    // 3. Loop-aligned, spin-filtered slicing + per-thread BBVs (§III-B/C).
    let (profile, boundary_states) = {
        let mut span = obs.span("analyze.slicing", "pipeline");
        let mut slicer = LoopAlignedSlicer::new(program.clone(), &dcfg, nthreads, cfg.slice_base);
        slicer.set_spin_filter(cfg.filter_spin);
        slicer.set_policy(cfg.slice_policy);
        if keep_boundary_states {
            slicer.keep_boundary_states();
        }
        pinball.replay(program.clone(), &mut [&mut slicer], cfg.max_steps)?;
        let (profile, states) = slicer.finish_with_boundary_states();
        span.arg("slices", profile.slices.len());
        (profile, states)
    };
    if profile.slices.is_empty() {
        return Err(LoopPointError::NoSlices {
            reason: "profiling produced no slices".to_string(),
        });
    }
    obs.counter("analyze.slices")
        .add(profile.slices.len() as u64);
    lp_obs::lp_debug!("analyze: {} slices profiled", profile.slices.len());

    cfg.cancel.check()?;
    // 4. Cluster slice BBVs (§III-E) and pick representatives.
    let clustering = {
        let mut span = obs.span("analyze.clustering", "pipeline");
        let vectors: Vec<&[(u64, f64)]> = profile.slices.iter().map(|s| s.bbv.entries()).collect();
        let clustering = cluster(&vectors, &cfg.simpoint);
        span.arg("k", clustering.k);
        clustering
    };
    obs.gauge("analyze.k").set(clustering.k as f64);

    let mut select_span = obs.span("analyze.select", "pipeline");
    let mut looppoints = Vec::with_capacity(clustering.k);
    for (cluster_id, &rep) in clustering.representatives.iter().enumerate() {
        let rep_slice = &profile.slices[rep];
        let cluster_filtered: u64 = clustering
            .members(cluster_id)
            .map(|i| profile.slices[i].filtered_insts)
            .sum();
        let multiplier = if rep_slice.filtered_insts == 0 {
            0.0
        } else {
            cluster_filtered as f64 / rep_slice.filtered_insts as f64
        };
        looppoints.push(LoopPointRegion {
            slice_index: rep,
            cluster: cluster_id,
            start: rep_slice.start,
            end: rep_slice.end,
            multiplier,
            filtered_insts: rep_slice.filtered_insts,
            cluster_filtered_insts: cluster_filtered,
        });
    }
    select_span.arg("looppoints", looppoints.len());
    drop(select_span);
    obs.counter("analyze.looppoints")
        .add(looppoints.len() as u64);
    analyze_span.arg("looppoints", looppoints.len());

    let analysis = Analysis {
        pinball,
        dcfg,
        profile,
        clustering,
        looppoints,
    };
    Ok((analysis, boundary_states))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::phased_program;
    use lp_omp::WaitPolicy;
    use lp_pinball::PinballError;

    /// `--max-steps` bounds the first pass: a budget the program exceeds
    /// stops the recording, not the replay after it.
    #[test]
    fn max_steps_bounds_the_recording() {
        // lp-pinball reports to the process-global observer. This test is
        // the only one of the binary to install one, and reads only the
        // spans of its own trace.
        let observer = lp_obs::Observer::enabled();
        lp_obs::set_global(observer.clone()).expect("no other test installs an observer");
        let trace = lp_obs::TraceContext::new_root();
        let _attached = trace.attach();

        let program = phased_program(2, WaitPolicy::Passive, 3);
        let cfg = LoopPointConfig {
            max_steps: 1_000,
            ..LoopPointConfig::with_slice_base(500)
        };
        let err = analyze(&program, 2, &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                LoopPointError::Pinball(PinballError::StepLimit { limit: 1_000 })
            ),
            "{err}"
        );
        let spans = observer.trace_events_for(trace.trace_id);
        assert!(spans.iter().any(|e| e.name == "pinball.record"));
        assert!(spans.iter().all(|e| e.name != "pinball.replay"));
    }
}
