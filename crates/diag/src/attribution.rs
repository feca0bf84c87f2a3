//! The error-attribution math: per-cluster signed error decomposition
//! with an exact-sum guarantee.
//!
//! # The accounting scheme
//!
//! Let `pred_c` be cluster *c*'s contribution to the estimate (its
//! Eq. 1 term, as the estimator computed it), and let
//! `weight_c = cluster_filtered_c / total_filtered` be the fraction of
//! whole-program (spin-filtered) work the cluster stands for. The actual
//! total is charged to clusters by weight, so the per-cluster signed
//! error is
//!
//! ```text
//! e_c = pred_c − weight_c × actual_total_cycles
//! ```
//!
//! Because `Σ pred_c` is the prediction and `Σ weight_c = 1` over a
//! partition of the filtered work, `Σ e_c` equals the end-to-end signed
//! error *exactly* (up to the order the estimator summed in) —
//! attribution never invents or loses error mass.
//!
//! Each `e_c` is then split by cause:
//!
//! * a **representativeness** fraction `ρ_c`, the representative's
//!   BBV-space distance to its centroid relative to the cluster's mean
//!   member distance (clamped to `[0, 1]`; a rep sitting on the centroid
//!   contributes none of the error to this cause);
//! * a **warmup/boundary** fraction `β_c`, the fast-forwarded share of
//!   the region's executed instructions (approximated state at the
//!   boundary);
//! * the **extrapolation** component is the exact remainder
//!   `e_c − ρ_c·e_c − β_c·e_c`, so the three components always sum to
//!   `e_c` regardless of rounding.
//!
//! When `ρ_c + β_c > 1` both fractions are rescaled to sum to 1 — the
//! remainder is then 0, never negative-by-construction noise.

use crate::report::{ClusterDiag, ErrorComponents};

/// One cluster's sample of an estimate, feeding [`attribute`]. One entry
/// per cluster, produced by the pipeline's estimator (see
/// `looppoint::Estimate`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterInput {
    /// Cluster id (dense, `0..k`).
    pub cluster: usize,
    /// Profile index of the representative slice.
    pub slice_index: usize,
    /// Eq. 2 multiplier of the representative region (reported only:
    /// attribution reads `predicted_cycles`).
    pub multiplier: f64,
    /// The cluster's contribution to the estimate, in cycles.
    pub predicted_cycles: f64,
    /// Spin-filtered instructions across the whole cluster.
    pub cluster_filtered_insts: u64,
    /// Detailed cycles the representative's simulation took.
    pub rep_cycles: u64,
    /// Detailed instructions the representative's simulation retired.
    pub rep_instructions: u64,
    /// Instructions fast-forwarded before the detailed window (warmup).
    pub ff_instructions: u64,
    /// BBV-space distance of the representative to its cluster centroid.
    pub rep_distance: f64,
    /// Mean BBV-space distance of all cluster members to the centroid.
    pub mean_member_distance: f64,
}

/// The result of [`attribute`]: per-cluster diagnostics plus the totals
/// they provably sum to.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Per-cluster decomposition, in cluster order.
    pub clusters: Vec<ClusterDiag>,
    /// Extrapolated total cycles (`Σ pred_c`).
    pub predicted_cycles: f64,
    /// Measured total cycles the errors are charged against.
    pub actual_cycles: f64,
    /// End-to-end signed error in cycles (`predicted − actual`;
    /// equals `Σ e_c` exactly).
    pub error_cycles: f64,
    /// End-to-end absolute percentage error.
    pub error_pct: f64,
}

fn guarded_ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 && num.is_finite() {
        (num / den).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Absolute percentage error of a prediction against the measured value:
/// `0/0` is 0 % and anything against a zero measurement is infinite.
pub fn error_pct(predicted: f64, actual: f64) -> f64 {
    if actual == 0.0 {
        if predicted == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((predicted - actual) / actual * 100.0).abs()
    }
}

/// Decomposes the error of one estimate into per-cluster, per-cause
/// signed contributions (see the module docs for the scheme and its
/// exact-sum invariants).
///
/// `predicted_cycles` is the estimate's whole-program total, the sum of
/// the inputs' `predicted_cycles`. `actual_cycles` is the measured
/// whole-program total the prediction is judged against. Pass the
/// prediction itself when no reference run exists — every error then
/// attributes to exactly zero, which keeps the report well-formed for
/// pipelines that skip the full-simulation baseline.
pub fn attribute(
    inputs: &[ClusterInput],
    predicted_cycles: f64,
    actual_cycles: f64,
) -> Attribution {
    let total_filtered: u64 = inputs.iter().map(|c| c.cluster_filtered_insts).sum();

    let clusters = inputs
        .iter()
        .map(|c| {
            let pred_c = c.predicted_cycles;
            let weight = if total_filtered == 0 {
                0.0
            } else {
                c.cluster_filtered_insts as f64 / total_filtered as f64
            };
            let attributed_actual = weight * actual_cycles;
            let error = pred_c - attributed_actual;

            let mut rho = guarded_ratio(c.rep_distance, c.mean_member_distance);
            let mut beta = guarded_ratio(
                c.ff_instructions as f64,
                c.ff_instructions as f64 + c.rep_instructions as f64,
            );
            let causes = rho + beta;
            if causes > 1.0 {
                rho /= causes;
                beta /= causes;
            }
            let representativeness = rho * error;
            let warmup = beta * error;
            // Exact remainder: the three components sum to `error` by
            // construction, immune to floating-point cause-fraction noise.
            let extrapolation = error - representativeness - warmup;

            ClusterDiag {
                cluster: c.cluster,
                slice_index: c.slice_index,
                multiplier: c.multiplier,
                weight,
                predicted_cycles: pred_c,
                attributed_actual_cycles: attributed_actual,
                error_cycles: error,
                error_pct: error_pct(pred_c, attributed_actual),
                rep_distance: c.rep_distance,
                mean_member_distance: c.mean_member_distance,
                components: ErrorComponents {
                    representativeness,
                    warmup,
                    extrapolation,
                },
            }
        })
        .collect::<Vec<_>>();

    Attribution {
        clusters,
        predicted_cycles,
        actual_cycles,
        error_cycles: predicted_cycles - actual_cycles,
        error_pct: error_pct(predicted_cycles, actual_cycles),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(cluster: usize, mult: f64, filtered: u64, cycles: u64) -> ClusterInput {
        ClusterInput {
            cluster,
            slice_index: cluster * 2,
            multiplier: mult,
            predicted_cycles: cycles as f64 * mult,
            cluster_filtered_insts: filtered,
            rep_cycles: cycles,
            rep_instructions: cycles * 2,
            ff_instructions: cycles / 2,
            rep_distance: 0.1,
            mean_member_distance: 0.4,
        }
    }

    /// The estimate's total over `inputs`.
    fn total(inputs: &[ClusterInput]) -> f64 {
        inputs.iter().map(|c| c.predicted_cycles).sum()
    }

    #[test]
    fn cluster_errors_sum_to_total_error() {
        let inputs = vec![
            input(0, 3.0, 3_000, 1_000),
            input(1, 1.0, 1_000, 700),
            input(2, 2.5, 2_500, 400),
        ];
        let actual = 4_500.0;
        let a = attribute(&inputs, total(&inputs), actual);
        let sum: f64 = a.clusters.iter().map(|c| c.error_cycles).sum();
        assert!(
            (sum - a.error_cycles).abs() < 1e-9,
            "Σe_c = {sum} vs total {}",
            a.error_cycles
        );
        assert!((a.predicted_cycles - (3_000.0 + 700.0 + 1_000.0)).abs() < 1e-9);
    }

    #[test]
    fn components_sum_exactly_to_cluster_error() {
        let inputs = vec![input(0, 7.3, 10, 999), input(1, 0.2, 90, 123)];
        let a = attribute(&inputs, total(&inputs), 1_234.5);
        for c in &a.clusters {
            let s =
                c.components.representativeness + c.components.warmup + c.components.extrapolation;
            assert!(
                (s - c.error_cycles).abs() <= 1e-9 * c.error_cycles.abs().max(1.0),
                "components {s} != error {}",
                c.error_cycles
            );
        }
    }

    #[test]
    fn perfect_prediction_attributes_zero_everywhere() {
        let inputs = vec![input(0, 2.0, 100, 500)];
        let a = attribute(&inputs, total(&inputs), 1_000.0); // pred = 500*2 = actual
        assert_eq!(a.error_cycles, 0.0);
        assert_eq!(a.error_pct, 0.0);
        let c = &a.clusters[0];
        assert_eq!(c.error_cycles, 0.0);
        assert_eq!(c.components.representativeness, 0.0);
        assert_eq!(c.components.warmup, 0.0);
        assert_eq!(c.components.extrapolation, 0.0);
    }

    #[test]
    fn cause_fractions_are_clamped_and_normalized() {
        let mut i = input(0, 1.0, 100, 100);
        i.rep_distance = 10.0; // ρ clamps to 1
        i.mean_member_distance = 0.5;
        i.ff_instructions = 1_000_000; // β near 1; ρ+β > 1 → rescale
        let a = attribute(&[i], 100.0, 50.0);
        let c = &a.clusters[0];
        let s = c.components.representativeness + c.components.warmup + c.components.extrapolation;
        assert!((s - c.error_cycles).abs() < 1e-9);
        // After normalization the remainder is ~0.
        assert!(c.components.extrapolation.abs() < 1e-9, "{c:?}");
    }

    #[test]
    fn degenerate_inputs_are_finite() {
        let mut i = input(0, 0.0, 0, 0);
        i.rep_distance = f64::NAN;
        i.mean_member_distance = 0.0;
        i.ff_instructions = 0;
        i.rep_instructions = 0;
        let a = attribute(&[i], 0.0, 0.0);
        assert_eq!(a.error_cycles, 0.0);
        assert_eq!(a.error_pct, 0.0);
        let c = &a.clusters[0];
        assert!(c.error_cycles.is_finite());
        assert!(c.components.representativeness.is_finite());
    }

    #[test]
    fn no_reference_run_means_zero_error() {
        let inputs = vec![input(0, 2.0, 60, 300), input(1, 1.0, 40, 400)];
        let predicted = 300.0 * 2.0 + 400.0;
        let a = attribute(&inputs, predicted, predicted);
        assert_eq!(a.error_cycles, 0.0);
        let sum: f64 = a.clusters.iter().map(|c| c.error_cycles).sum();
        assert!(sum.abs() < 1e-9);
    }

    #[test]
    fn error_pct_semantics() {
        assert!((error_pct(110.0, 100.0) - 10.0).abs() < 1e-12);
        assert!((error_pct(90.0, 100.0) - 10.0).abs() < 1e-12);
        assert_eq!(error_pct(0.0, 0.0), 0.0);
        assert!(error_pct(1.0, 0.0).is_infinite());
    }
}
