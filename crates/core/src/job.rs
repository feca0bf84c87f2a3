//! Job-level pipeline entry point.
//!
//! The driver and the lp-farm service both need "run the whole sampled
//! pipeline for one (program, threads, config) and hand back a compact,
//! serializable summary" — without each reimplementing the
//! analyze → checkpoint → simulate → extrapolate choreography and the
//! store/cancellation plumbing. [`run_job`] is that single entry point:
//! store-aware (cached analysis and checkpoints when a [`Store`] is
//! given), cancellation-aware (the [`crate::CancelToken`] in the config is
//! honored at phase boundaries and between regions), and cheap to call in
//! a loop.

use crate::config::LoopPointConfig;
use crate::error::LoopPointError;
use crate::extrapolate::extrapolate;
use crate::persist::{analyze_cached_keeping, prepare_cached_from};
use crate::pipeline::Analysis;
use crate::simulate::{simulate_prepared_with_cancel, RegionResult, SimOptions};
use lp_isa::Program;
use lp_store::Store;
use lp_uarch::SimConfig;
use std::sync::Arc;

/// Compact, serializable outcome of one end-to-end pipeline job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Slices profiled by the analysis.
    pub slices: usize,
    /// Clusters chosen (`k`).
    pub clusters: usize,
    /// Looppoint regions simulated.
    pub regions: usize,
    /// Extrapolated whole-program runtime in cycles (Eq. 1/2).
    pub predicted_cycles: f64,
    /// Extrapolated branch MPKI.
    pub predicted_branch_mpki: f64,
    /// Extrapolated L2 MPKI.
    pub predicted_l2_mpki: f64,
    /// Whether the analysis was served from the artifact store.
    pub analysis_from_store: bool,
    /// Whether region checkpoints were served from the artifact store.
    pub checkpoints_from_store: bool,
}

impl JobSummary {
    /// The summary as a JSON object (stable field names — the lp-farm wire
    /// format embeds this verbatim).
    pub fn to_value(&self) -> lp_obs::json::Value {
        use lp_obs::json::Value;
        Value::Obj(vec![
            ("slices".to_string(), Value::Int(self.slices as i128)),
            ("clusters".to_string(), Value::Int(self.clusters as i128)),
            ("regions".to_string(), Value::Int(self.regions as i128)),
            (
                "predicted_cycles".to_string(),
                Value::Num(self.predicted_cycles),
            ),
            (
                "predicted_branch_mpki".to_string(),
                Value::Num(self.predicted_branch_mpki),
            ),
            (
                "predicted_l2_mpki".to_string(),
                Value::Num(self.predicted_l2_mpki),
            ),
            (
                "analysis_from_store".to_string(),
                Value::Bool(self.analysis_from_store),
            ),
            (
                "checkpoints_from_store".to_string(),
                Value::Bool(self.checkpoints_from_store),
            ),
        ])
    }
}

/// Everything one pipeline run produced, before it is condensed into a
/// [`JobSummary`]: callers that go on to compare against a reference run
/// (the driver's speedup and accuracy-attribution reports) need the
/// analysis and the per-region results themselves.
#[derive(Debug)]
pub struct JobOutcome {
    /// The analysis (profile, clustering, looppoints).
    pub analysis: Analysis,
    /// Per-region simulation results, in looppoint order.
    pub results: Vec<RegionResult>,
    /// Whether the analysis was served from the artifact store.
    pub analysis_from_store: bool,
    /// Whether region checkpoints were served from the artifact store.
    pub checkpoints_from_store: bool,
}

impl JobOutcome {
    /// Extrapolates (Eq. 1/2) and condenses the run into its summary.
    pub fn summary(&self) -> JobSummary {
        let prediction = extrapolate(&self.results);
        JobSummary {
            slices: self.analysis.profile.slices.len(),
            clusters: self.analysis.clustering.k,
            regions: self.results.len(),
            predicted_cycles: prediction.total_cycles,
            predicted_branch_mpki: prediction.branch_mpki,
            predicted_l2_mpki: prediction.l2_mpki,
            analysis_from_store: self.analysis_from_store,
            checkpoints_from_store: self.checkpoints_from_store,
        }
    }
}

/// [`run_pipeline`] condensed to its [`JobSummary`] — what the farm
/// stores and serves.
///
/// # Errors
/// As [`run_pipeline`].
pub fn run_job(
    program: &Arc<Program>,
    nthreads: usize,
    cfg: &LoopPointConfig,
    simcfg: &SimConfig,
    sim_opts: &SimOptions,
    warmup_slices: usize,
    store: Option<&Store>,
) -> Result<JobSummary, LoopPointError> {
    let run = run_pipeline(
        program,
        nthreads,
        cfg,
        simcfg,
        sim_opts,
        warmup_slices,
        store,
    )?;
    Ok(run.summary())
}

/// Runs the full sampled pipeline for one program: analysis (cached when
/// `store` is given), region checkpoints (ditto), and region simulation
/// honoring `cfg.cancel`. The observer's phase label moves to the
/// `simulate-regions` stage once the analysis is in hand.
///
/// A computed analysis keeps the machine state at every slice boundary of
/// its slicing replay, and the region checkpoints are those states: a cold
/// run steps the program three times — record, replay, regions — and makes
/// no checkpoint pass (`replay_passes == 0`), with or without a store. Only
/// an analysis served from the store without its checkpoints replays once
/// more, through [`crate::prepare_region_checkpoints`].
///
/// `warmup_slices` is the checkpoint warmup window: [`WARMUP_SLICES`] is
/// the paper's deployment, [`FROM_RESET`] the binary-driven window that
/// reaches program start (no checkpoint at all).
///
/// [`WARMUP_SLICES`]: crate::WARMUP_SLICES
/// [`FROM_RESET`]: crate::FROM_RESET
///
/// # Errors
/// Any stage failure, or [`LoopPointError::Cancelled`] when the config's
/// token is tripped.
pub fn run_pipeline(
    program: &Arc<Program>,
    nthreads: usize,
    cfg: &LoopPointConfig,
    simcfg: &SimConfig,
    sim_opts: &SimOptions,
    warmup_slices: usize,
    store: Option<&Store>,
) -> Result<JobOutcome, LoopPointError> {
    // Attach the caller's trace context (if any) for the whole run, so the
    // job.run span and everything under it carry the caller's trace id.
    let _trace_guard = cfg.trace.as_ref().map(|t| t.attach());
    let mut span = cfg.obs.span("job.run", "pipeline");
    span.arg("nthreads", nthreads);

    // `states`: the slicing replay's boundary states, `None` when the
    // analysis came from the store. A window that reaches program start
    // takes no checkpoint, so it keeps none.
    let keep_states = warmup_slices != crate::FROM_RESET;
    let (analysis, states) = analyze_cached_keeping(program, nthreads, cfg, store, keep_states)?;
    let analysis_from_store = states.is_none();
    cfg.cancel.check()?;

    cfg.obs.set_stage("simulate-regions");
    let (prepared, checkpoints_from_store) = prepare_cached_from(
        &analysis,
        states.as_deref(),
        program,
        nthreads,
        cfg,
        warmup_slices,
        store,
    )?;
    // Only the regions' own checkpoints outlive preparation.
    drop(states);
    cfg.cancel.check()?;

    let results =
        simulate_prepared_with_cancel(&prepared, program, nthreads, simcfg, sim_opts, &cfg.cancel)?;

    span.arg("regions", results.len());
    span.arg("analysis_from_store", u64::from(analysis_from_store));
    Ok(JobOutcome {
        analysis,
        results,
        analysis_from_store,
        checkpoints_from_store,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::phased_program;
    use crate::CancelToken;

    #[test]
    fn run_job_produces_a_summary() {
        let nthreads = 2;
        let program = phased_program(nthreads, lp_omp::WaitPolicy::Passive, 3);
        let cfg = LoopPointConfig::with_slice_base(500);
        let simcfg = SimConfig::gainestown(nthreads);
        let summary = run_job(
            &program,
            nthreads,
            &cfg,
            &simcfg,
            &SimOptions::default(),
            crate::WARMUP_SLICES,
            None,
        )
        .unwrap();
        assert!(summary.regions > 0);
        assert!(summary.predicted_cycles > 0.0);
        assert!(!summary.analysis_from_store);
        let opts = SimOptions::default();
        let outcome = run_pipeline(&program, nthreads, &cfg, &simcfg, &opts, 2, None).unwrap();
        assert_eq!(outcome.summary(), summary);
        assert_eq!(outcome.results.len(), outcome.analysis.looppoints.len());
        // JSON embeds every field.
        let v = summary.to_value();
        for key in [
            "slices",
            "clusters",
            "regions",
            "predicted_cycles",
            "analysis_from_store",
        ] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn pre_tripped_token_cancels_before_any_work() {
        let nthreads = 2;
        let program = phased_program(nthreads, lp_omp::WaitPolicy::Passive, 3);
        let cancel = CancelToken::new();
        cancel.cancel();
        let cfg = LoopPointConfig::with_slice_base(500).with_cancel(cancel);
        let simcfg = SimConfig::gainestown(nthreads);
        let err = run_job(
            &program,
            nthreads,
            &cfg,
            &simcfg,
            &SimOptions::default(),
            crate::WARMUP_SLICES,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, LoopPointError::Cancelled), "{err}");
    }

    #[test]
    fn store_backed_second_run_hits() {
        let nthreads = 2;
        let program = phased_program(nthreads, lp_omp::WaitPolicy::Passive, 3);
        let cfg = LoopPointConfig::with_slice_base(500);
        let simcfg = SimConfig::gainestown(nthreads);
        let dir = std::env::temp_dir().join(format!(
            "lp-job-store-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let store = Store::open(&dir, lp_obs::Observer::disabled()).unwrap();
        let opts = SimOptions::default();
        let storeless = run_job(&program, nthreads, &cfg, &simcfg, &opts, 2, None).unwrap();
        let cold = run_pipeline(&program, nthreads, &cfg, &simcfg, &opts, 2, Some(&store))
            .unwrap()
            .summary();
        assert_eq!(cold, storeless, "a cold store only adds writes");
        let warm = run_job(&program, nthreads, &cfg, &simcfg, &opts, 2, Some(&store)).unwrap();
        assert!(warm.analysis_from_store && warm.checkpoints_from_store);
        assert_eq!(cold.predicted_cycles, warm.predicted_cycles);
        // Warm, through the un-condensed entry point: the same summary.
        let outcome =
            run_pipeline(&program, nthreads, &cfg, &simcfg, &opts, 2, Some(&store)).unwrap();
        assert_eq!(outcome.summary(), warm);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
