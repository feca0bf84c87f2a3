//! Bridges the pipeline's domain types into `lp-diag`'s accuracy
//! attribution: one call turns an [`Analysis`], its region results, and
//! (optionally) the full-simulation reference into a [`DiagReport`].

use crate::extrapolate::extrapolate;
use crate::pipeline::Analysis;
use crate::simulate::RegionResult;
use lp_diag::{attribute, ClusterInput, DiagReport, SelfProfile};
use lp_obs::{names, Observer};
use lp_sim::SimStats;

/// Builds the accuracy-attribution report for one workload run.
///
/// * `results` are the simulated representatives (one per cluster);
/// * `full` is the measured whole-program reference — pass `None` when no
///   full simulation exists, in which case the prediction is judged
///   against itself and every attributed error is zero (the report is
///   still useful for its weights, distances, and self-profile);
/// * `obs` supplies the recorded trace spans for the self-profile and
///   receives the `diag.*` counters/gauges.
///
/// The per-cluster signed errors in the returned report sum exactly to
/// the end-to-end signed extrapolation error (see [`lp_diag::attribution`]).
pub fn diagnose(
    workload: &str,
    nthreads: usize,
    analysis: &Analysis,
    results: &[RegionResult],
    full: Option<&SimStats>,
    obs: &Observer,
) -> DiagReport {
    let inputs: Vec<ClusterInput> = results
        .iter()
        .map(|r| {
            let region = &r.region;
            let (mean_dist, _max_dist) = analysis.clustering.member_distance_stats(region.cluster);
            ClusterInput {
                cluster: region.cluster,
                slice_index: region.slice_index,
                multiplier: region.multiplier,
                cluster_filtered_insts: region.cluster_filtered_insts,
                rep_cycles: r.stats.cycles,
                rep_instructions: r.stats.instructions,
                ff_instructions: r.stats.ff_instructions,
                rep_distance: analysis.clustering.representative_distance(region.cluster),
                mean_member_distance: mean_dist,
            }
        })
        .collect();
    let predicted = extrapolate(results).total_cycles;
    report(
        workload,
        nthreads,
        "two-phase",
        &inputs,
        full.map_or(predicted, |s| s.cycles as f64),
        obs,
    )
}

/// The tail [`diagnose`] and [`crate::diagnose_live`] share once each has
/// mapped its clusters onto [`ClusterInput`]s and picked the `actual`
/// cycle count to judge against: attribution, the `diag.*` metrics, the
/// self-profile of `obs`'s recorded spans, and the assembled report.
pub(crate) fn report(
    workload: &str,
    nthreads: usize,
    mode: &str,
    inputs: &[ClusterInput],
    actual: f64,
    obs: &Observer,
) -> DiagReport {
    let mut span = obs.span(names::SPAN_DIAG_REPORT, names::CAT_DIAG);
    span.arg("workload", workload);
    span.arg("clusters", inputs.len());
    span.arg("mode", mode);

    let attribution = attribute(inputs, actual);

    obs.counter(names::DIAG_REPORTS).inc();
    if attribution.error_pct.is_finite() {
        obs.gauge(names::DIAG_ERROR_PCT).set(attribution.error_pct);
    }
    obs.gauge(names::DIAG_CLUSTERS)
        .set(attribution.clusters.len() as f64);

    let profile = SelfProfile::from_events(&obs.trace_events());
    DiagReport::new(workload, nthreads as u64, attribution, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        run_pipeline, simulate_whole, JobOutcome, LoopPointConfig, SimOptions, FROM_RESET,
    };
    use lp_omp::WaitPolicy;
    use lp_uarch::SimConfig;
    use std::sync::Arc;

    /// `phased_program(2, …, rounds)` through the pipeline from reset,
    /// recording into `obs`.
    fn sampled(rounds: u64, obs: &lp_obs::Observer) -> (Arc<lp_isa::Program>, JobOutcome) {
        let program = crate::testutil::phased_program(2, WaitPolicy::Passive, rounds);
        let mut cfg = LoopPointConfig::with_slice_base(2_000);
        cfg.obs = obs.clone();
        let (simcfg, opts) = (SimConfig::gainestown(2), SimOptions::default());
        let run = run_pipeline(&program, 2, &cfg, &simcfg, &opts, FROM_RESET, None).unwrap();
        (program, run)
    }

    #[test]
    fn attributed_errors_sum_to_end_to_end_error() {
        let obs = lp_obs::Observer::enabled();
        let (program, run) = sampled(8, &obs);
        let full = simulate_whole(&program, 2, &SimConfig::gainestown(2)).unwrap();
        let analysis = &run.analysis;

        let report = diagnose("phased", 2, analysis, &run.results, Some(&full), &obs);
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
        let obs = lp_obs::Observer::enabled();
        let (_, run) = sampled(6, &obs);
        let analysis = &run.analysis;

        let report = diagnose("phased", 2, analysis, &run.results, None, &obs);
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
}
