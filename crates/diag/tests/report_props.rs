//! Property tests for the diagnostics layer:
//!
//! 1. `DiagReport` JSON round-trips *byte-identically* — serialize, parse,
//!    re-serialize must produce the same document, and the parsed report
//!    must equal the original value-for-value.
//! 2. The attribution invariants hold for arbitrary inputs: per-cluster
//!    signed errors sum (within 1e-9, relative) to the end-to-end signed
//!    error, and each cluster's three cause components sum to its error.

use lp_diag::{attribute, ClusterInput, DiagReport, PhaseCost, SelfProfile};
use proptest::prelude::*;

fn arb_cluster_input() -> impl Strategy<Value = ClusterInput> {
    (
        (
            0.0f64..50.0,
            1u64..1_000_000,
            0u64..1_000_000,
            0u64..2_000_000,
            0u64..500_000,
        ),
        (0.0f64..10.0, 0.0f64..10.0),
    )
        .prop_map(
            |((multiplier, filtered, cycles, insts, ff), (rep_d, mean_d))| ClusterInput {
                cluster: 0, // densified below, once the vector length is known
                slice_index: 0,
                multiplier,
                predicted_cycles: cycles as f64 * multiplier,
                cluster_filtered_insts: filtered,
                rep_cycles: cycles,
                rep_instructions: insts,
                ff_instructions: ff,
                rep_distance: rep_d,
                mean_member_distance: mean_d,
            },
        )
}

/// The estimate's total over `inputs`.
fn total(inputs: &[ClusterInput]) -> f64 {
    inputs.iter().map(|c| c.predicted_cycles).sum()
}

fn arb_inputs() -> impl Strategy<Value = Vec<ClusterInput>> {
    proptest::collection::vec(arb_cluster_input(), 1..8).prop_map(|mut v| {
        for (i, c) in v.iter_mut().enumerate() {
            c.cluster = i;
            c.slice_index = i * 3;
        }
        v
    })
}

proptest! {
    #[test]
    fn cluster_errors_sum_to_total(inputs in arb_inputs(), actual in 0.0f64..1e9) {
        let a = attribute(&inputs, total(&inputs), actual);
        let sum: f64 = a.clusters.iter().map(|c| c.error_cycles).sum();
        let tolerance = 1e-9 * a.error_cycles.abs().max(1.0);
        prop_assert!(
            (sum - a.error_cycles).abs() <= tolerance,
            "sum of cluster errors {} != total {}",
            sum,
            a.error_cycles
        );
    }

    #[test]
    fn components_sum_to_cluster_error(inputs in arb_inputs(), actual in 0.0f64..1e9) {
        let a = attribute(&inputs, total(&inputs), actual);
        for c in &a.clusters {
            let s = c.components.representativeness
                + c.components.warmup
                + c.components.extrapolation;
            let tolerance = 1e-9 * c.error_cycles.abs().max(1.0);
            prop_assert!(
                (s - c.error_cycles).abs() <= tolerance,
                "components {} != cluster error {}",
                s,
                c.error_cycles
            );
        }
    }

    #[test]
    fn report_json_round_trips_byte_identically(
        inputs in arb_inputs(),
        actual in 0.0f64..1e9,
        nthreads in 1u64..64,
        wall in 0u64..1_000_000,
    ) {
        let attribution = attribute(&inputs, total(&inputs), actual);
        let profile = SelfProfile {
            wall_us: wall,
            phases: vec![PhaseCost {
                name: "analyze".to_string(),
                total_us: wall / 2,
                count: 1,
                max_us: wall / 2,
            }],
            critical_path: Vec::new(),
        };
        let report = DiagReport::new("prop-workload", nthreads, attribution, profile);
        let text = report.to_json();
        let back = DiagReport::from_json(&text).unwrap();
        prop_assert_eq!(&back, &report, "parsed report differs from the original");
        prop_assert_eq!(back.to_json(), text, "re-serialization is not byte-identical");
    }
}
