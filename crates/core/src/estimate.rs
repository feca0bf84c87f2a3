//! The estimate (Eqs. 1–2 of the paper) and its accuracy attribution.
//!
//! Both ways of running LoopPoint answer with one [`Estimate`]: the
//! whole-program [`Prediction`] plus one [`ClusterInput`] sample per
//! cluster. It is built two ways:
//!
//! * **two-phase** — [`Estimate::two_phase`] over the simulated
//!   representatives, summed in looppoint order by [`extrapolate`];
//! * **live** — [`crate::analyze_live`] folds each region in as it is
//!   classified, keeping a running total in region order.
//!
//! [`diagnose`] attributes an estimate's error per cluster and cause. It
//! reads the estimate's total and per-cluster cycles; nothing downstream
//! re-derives them.

use crate::live::LiveRegionRecord;
use crate::pipeline::Analysis;
use crate::simulate::RegionResult;
use lp_diag::{attribute, ClusterInput, DiagReport, SelfProfile};
use lp_obs::{names, Observer};
use lp_sim::SimStats;

/// Whole-program performance reconstructed from looppoint simulations.
#[derive(Debug, Clone, Default)]
pub struct Prediction {
    /// Eq. 1: `Σ runtimeᵢ × multiplierᵢ` in cycles.
    pub total_cycles: f64,
    /// Extrapolated total instructions (all images).
    pub total_instructions: f64,
    /// Extrapolated branch mispredictions per kilo-instruction.
    pub branch_mpki: f64,
    /// Extrapolated L2 misses per kilo-instruction.
    pub l2_mpki: f64,
    /// Extrapolated L3 misses per kilo-instruction.
    pub l3_mpki: f64,
    /// Extrapolated aggregate IPC.
    pub ipc: f64,
}

impl Prediction {
    /// Eq. 1 over `(multiplier, stats)` samples: every *event count*
    /// (cycles, instructions, misses) is multiplier-weighted, then rates
    /// (MPKI, IPC) are derived from the extrapolated counts — the "any
    /// event of interest" generalization of §III-G.
    pub fn weighted<'a>(samples: impl IntoIterator<Item = (f64, &'a SimStats)>) -> Prediction {
        let (mut cycles, mut insts, mut branch_miss, mut l2_miss, mut l3_miss) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        for (m, s) in samples {
            cycles += s.cycles as f64 * m;
            insts += s.instructions as f64 * m;
            branch_miss += s.branch.total_mispredicts() as f64 * m;
            l2_miss += s.mem.l2_misses as f64 * m;
            l3_miss += s.mem.l3_misses as f64 * m;
        }
        let per_kilo = if insts > 0.0 { 1000.0 / insts } else { 0.0 };
        Prediction {
            branch_mpki: branch_miss * per_kilo,
            l2_mpki: l2_miss * per_kilo,
            l3_mpki: l3_miss * per_kilo,
            ..Prediction::totals(cycles, insts)
        }
    }

    /// A prediction of cycles and instructions only (and the IPC they
    /// make); every MPKI is 0.
    pub fn totals(cycles: f64, instructions: f64) -> Prediction {
        Prediction {
            total_cycles: cycles,
            total_instructions: instructions,
            ipc: if cycles > 0.0 {
                instructions / cycles
            } else {
                0.0
            },
            ..Prediction::default()
        }
    }
}

/// Reconstructs whole-program metrics from region results using the Eq. 2
/// multipliers ([`Prediction::weighted`] over the regions).
pub fn extrapolate(results: &[RegionResult]) -> Prediction {
    Prediction::weighted(results.iter().map(|r| (r.region.multiplier, &r.stats)))
}

/// One sampled run's answer: the whole-program prediction and the
/// per-cluster samples it is the sum of.
#[derive(Debug, Clone, Default)]
pub struct Estimate {
    /// The whole-program prediction; `total_cycles` is the estimate.
    pub prediction: Prediction,
    /// One sample per cluster: two-phase in looppoint order, live by
    /// cluster id.
    pub clusters: Vec<ClusterInput>,
}

impl Estimate {
    /// The two-phase estimate: [`extrapolate`] over `results`, and each
    /// simulated representative as its cluster's sample.
    pub fn two_phase(analysis: &Analysis, results: &[RegionResult]) -> Estimate {
        let clustering = &analysis.clustering;
        let clusters = results
            .iter()
            .map(|r| {
                let region = &r.region;
                ClusterInput {
                    cluster: region.cluster,
                    slice_index: region.slice_index,
                    multiplier: region.multiplier,
                    predicted_cycles: r.stats.cycles as f64 * region.multiplier,
                    cluster_filtered_insts: region.cluster_filtered_insts,
                    rep_cycles: r.stats.cycles,
                    rep_instructions: r.stats.instructions,
                    ff_instructions: r.stats.ff_instructions,
                    rep_distance: clustering.representative_distance(region.cluster),
                    mean_member_distance: clustering.member_distance_stats(region.cluster).0,
                }
            })
            .collect();
        Estimate {
            prediction: extrapolate(results),
            clusters,
        }
    }

    /// Live: folds one classified region into the running estimate. Its
    /// estimated cycles join the total and its cluster's sum. A region
    /// simulated in detail becomes its cluster's representative (its
    /// classify-time distance included). `mean_member_distance` is the
    /// cluster's after this region, `program_insts` the instructions
    /// executed so far.
    pub(crate) fn add_live_region(
        &mut self,
        r: &LiveRegionRecord,
        mean_member_distance: f64,
        program_insts: u64,
    ) {
        self.prediction = Prediction::totals(
            self.prediction.total_cycles + r.est_cycles,
            program_insts as f64,
        );

        let c = r.decision.cluster;
        if c == self.clusters.len() {
            self.clusters.push(ClusterInput {
                cluster: c,
                ..ClusterInput::default()
            });
        }
        let s = &mut self.clusters[c];
        s.predicted_cycles += r.est_cycles;
        s.cluster_filtered_insts += r.filtered_insts;
        s.mean_member_distance = mean_member_distance;
        if let Some(rep) = r.detailed {
            s.slice_index = rep.region;
            s.rep_cycles = rep.cycles;
            s.rep_instructions = rep.instructions;
            s.rep_distance = r.decision.distance;
        }
        // Reported only: the multiplier that scales the representative to
        // its cluster's estimated cycles. A live representative starts warm
        // at its own start marker, so `ff_instructions` stays 0.
        s.multiplier = if s.rep_cycles > 0 {
            s.predicted_cycles / s.rep_cycles as f64
        } else {
            0.0
        };
    }
}

/// Builds the accuracy-attribution report for one estimate.
///
/// * `mode` names how the estimate was built ("two-phase" or "live"); it
///   tags the `diag.report` span;
/// * `full` is the measured whole-program reference — pass `None` when no
///   full simulation exists, in which case the prediction is judged
///   against itself and every attributed error is zero (the report is
///   still useful for its weights, distances, and self-profile);
/// * `obs` supplies the recorded trace spans for the self-profile and
///   receives the `diag.*` counters/gauges.
///
/// The report's `predicted_cycles` is the estimate's total, and its
/// per-cluster signed errors sum to the end-to-end signed error (see
/// [`lp_diag::attribution`]).
pub fn diagnose(
    workload: &str,
    nthreads: usize,
    mode: &str,
    estimate: &Estimate,
    full: Option<&SimStats>,
    obs: &Observer,
) -> DiagReport {
    let mut span = obs.span(names::SPAN_DIAG_REPORT, names::CAT_DIAG);
    span.arg("workload", workload);
    span.arg("clusters", estimate.clusters.len());
    span.arg("mode", mode);

    let predicted = estimate.prediction.total_cycles;
    let actual = full.map_or(predicted, |s| s.cycles as f64);
    let attribution = attribute(&estimate.clusters, predicted, actual);

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
    use crate::pipeline::LoopPointRegion;

    fn result(mult: f64, cycles: u64, insts: u64, l2: u64, br: u64) -> RegionResult {
        let mut stats = SimStats {
            cycles,
            instructions: insts,
            ..Default::default()
        };
        stats.mem.l2_misses = l2;
        stats.branch.cond_branches = br * 10;
        stats.branch.cond_mispredicts = br;
        RegionResult {
            region: LoopPointRegion {
                slice_index: 0,
                cluster: 0,
                start: None,
                end: None,
                multiplier: mult,
                filtered_insts: 100,
                cluster_filtered_insts: (100.0 * mult) as u64,
            },
            stats,
            continues: false,
        }
    }

    #[test]
    fn eq1_weighted_sum() {
        let results = vec![result(3.0, 1000, 2000, 10, 4), result(1.0, 500, 1000, 0, 0)];
        let p = extrapolate(&results);
        assert!((p.total_cycles - 3500.0).abs() < 1e-9);
        assert!((p.total_instructions - 7000.0).abs() < 1e-9);
        // l2 misses = 30; mpki = 30/7000*1000
        assert!((p.l2_mpki - 30.0 * 1000.0 / 7000.0).abs() < 1e-9);
        assert!((p.branch_mpki - 12.0 * 1000.0 / 7000.0).abs() < 1e-9);
        assert!((p.ipc - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_region_identity() {
        // A single region with multiplier 1 predicts exactly itself.
        let results = vec![result(1.0, 1234, 5678, 7, 3)];
        let p = extrapolate(&results);
        assert_eq!(p.total_cycles, 1234.0);
        assert_eq!(p.total_instructions, 5678.0);
    }

    #[test]
    fn empty_results_are_zero() {
        let p = extrapolate(&[]);
        assert_eq!(p.total_cycles, 0.0);
        assert_eq!(p.ipc, 0.0);
        assert_eq!(p.branch_mpki, 0.0);
    }
}
