//! One estimate, read everywhere: both modes build one `Estimate`, and the
//! accuracy report, the job summary and the live outcome read the same
//! numbers — the same bits, not sums that agree to a tolerance. The
//! per-cluster attribution of the estimate's error is exact.

#[path = "../src/testutil.rs"]
#[allow(dead_code)]
mod testutil;

use looppoint::{
    analyze_live, diagnose, run_pipeline, simulate_whole, DiagReport, Estimate, JobOutcome,
    LiveConfig, LiveOutcome, LoopPointConfig, SimOptions, FROM_RESET,
};
use lp_obs::Observer;
use lp_omp::WaitPolicy;
use lp_sim::SimStats;
use lp_uarch::SimConfig;
use testutil::phased_program;

const NTHREADS: usize = 2;

/// `phased_program(2, …, rounds)` through the pipeline from reset,
/// recording into `obs`, with its full-detail reference.
fn sampled(rounds: u64, obs: &Observer) -> (JobOutcome, SimStats) {
    let program = phased_program(NTHREADS, WaitPolicy::Passive, rounds);
    let mut cfg = LoopPointConfig::with_slice_base(2_000);
    cfg.obs = obs.clone();
    let (simcfg, opts) = (SimConfig::gainestown(NTHREADS), SimOptions::default());
    let run = run_pipeline(&program, NTHREADS, &cfg, &simcfg, &opts, FROM_RESET, None).unwrap();
    let full = simulate_whole(&program, NTHREADS, &simcfg).unwrap();
    (run, full)
}

fn diagnose_run(run: &JobOutcome, full: Option<&SimStats>, obs: &Observer) -> DiagReport {
    let estimate = Estimate::two_phase(&run.analysis, &run.results);
    diagnose("phased", NTHREADS, "two-phase", &estimate, full, obs)
}

/// `phased_program(2, …, 8)` in live mode, recording into `obs`, with its
/// full-detail reference.
fn live(obs: &Observer) -> (LiveOutcome, SimStats) {
    let program = phased_program(NTHREADS, WaitPolicy::Passive, 8);
    let simcfg = SimConfig::gainestown(NTHREADS);
    let cfg = LiveConfig::with_slice_base(2_000).with_observer(obs.clone());
    let outcome = analyze_live(&program, NTHREADS, &cfg, &simcfg, &mut |_| {}).unwrap();
    let full = simulate_whole(&program, NTHREADS, &simcfg).unwrap();
    (outcome, full)
}

fn diagnose_live_run(outcome: &LiveOutcome, full: Option<&SimStats>, obs: &Observer) -> DiagReport {
    diagnose("phased", NTHREADS, "live", &outcome.estimate(), full, obs)
}

#[test]
fn attributed_errors_sum_to_end_to_end_error() {
    let obs = Observer::enabled();
    let (run, full) = sampled(8, &obs);
    let analysis = &run.analysis;

    let report = diagnose_run(&run, Some(&full), &obs);
    assert_eq!(report.k as usize, analysis.looppoints.len());
    let sum: f64 = report.clusters.iter().map(|c| c.error_cycles).sum();
    assert!(
        (sum - report.error_cycles).abs() <= 1e-9 * report.error_cycles.abs().max(1.0),
        "cluster errors {sum} must sum to total {}",
        report.error_cycles
    );
    // The report knows where the pipeline's own time went.
    assert!(report.profile.phases.iter().any(|p| p.name == "analyze"));
    assert!(!report.profile.critical_path.is_empty());
    // Weights cover the filtered work.
    let wsum: f64 = report.clusters.iter().map(|c| c.weight).sum();
    assert!((wsum - 1.0).abs() < 1e-9, "weights sum to {wsum}");
    // JSON round-trip of a real report.
    let back = DiagReport::from_json(&report.to_json()).unwrap();
    assert_eq!(back, report);
}

#[test]
fn no_reference_run_yields_zero_error_but_full_structure() {
    let obs = Observer::enabled();
    let (run, _) = sampled(6, &obs);
    let analysis = &run.analysis;

    let report = diagnose_run(&run, None, &obs);
    assert_eq!(report.error_cycles, 0.0);
    assert_eq!(report.error_pct, 0.0);
    assert_eq!(report.clusters.len(), analysis.looppoints.len());
    // Individual clusters may disagree with their weight-share (that
    // is the informative part), but with actual == predicted the
    // signed contributions cancel exactly.
    let sum: f64 = report.clusters.iter().map(|c| c.error_cycles).sum();
    assert!(
        sum.abs() <= 1e-9 * report.predicted_cycles.max(1.0),
        "{sum}"
    );
}

/// The two-phase report predicts the job summary's estimate, bit for bit,
/// with or without a reference run.
#[test]
fn two_phase_report_predicts_the_summary_estimate_exactly() {
    let obs = Observer::enabled();
    let (run, full) = sampled(6, &obs);
    for reference in [None, Some(&full)] {
        let report = diagnose_run(&run, reference, &obs);
        assert_eq!(
            report.predicted_cycles.to_bits(),
            run.summary().predicted_cycles.to_bits()
        );
    }
}

#[test]
fn diagnose_live_errors_sum_exactly() {
    let obs = Observer::enabled();
    let (outcome, full) = live(&obs);

    let report = diagnose_live_run(&outcome, Some(&full), &obs);
    assert_eq!(report.clusters.len(), outcome.clusters.len());
    // Σ pred_c equals the live estimate, so attributed errors sum to
    // the end-to-end live error exactly.
    assert!(
        (report.predicted_cycles - outcome.est_total_cycles).abs()
            <= 1e-9 * outcome.est_total_cycles.max(1.0)
    );
    let sum: f64 = report.clusters.iter().map(|c| c.error_cycles).sum();
    assert!(
        (sum - report.error_cycles).abs() <= 1e-9 * report.error_cycles.abs().max(1.0),
        "Σe_c = {sum} vs {}",
        report.error_cycles
    );
}

/// The live report predicts the outcome's estimate, bit for bit, with or
/// without a reference run.
#[test]
fn live_report_predicts_the_live_estimate_exactly() {
    let obs = Observer::enabled();
    let (outcome, full) = live(&obs);
    for reference in [None, Some(&full)] {
        let report = diagnose_live_run(&outcome, reference, &obs);
        assert_eq!(
            report.predicted_cycles.to_bits(),
            outcome.est_total_cycles.to_bits()
        );
    }
}

/// A live representative starts warm at its own start marker: nothing
/// is fast-forwarded, so no cluster's error is charged to warm-up.
#[test]
fn diagnose_live_charges_nothing_to_warmup() {
    let obs = Observer::enabled();
    let (outcome, full) = live(&obs);
    let report = diagnose_live_run(&outcome, Some(&full), &obs);
    assert!(report.clusters.iter().any(|c| c.error_cycles != 0.0));
    for c in &report.clusters {
        assert_eq!(c.components.warmup, 0.0, "cluster {}", c.cluster);
    }
}
