//! Runtime and metric extrapolation (Eqs. 1–2 of the paper).

use crate::simulate::RegionResult;

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

/// Reconstructs whole-program metrics from region results using the Eq. 2
/// multipliers. Every *event count* (cycles, instructions, misses) is
/// multiplier-weighted, then rates (MPKI, IPC) are derived from the
/// extrapolated counts — the "any event of interest" generalization of
/// §III-G.
pub fn extrapolate(results: &[RegionResult]) -> Prediction {
    let mut cycles = 0.0;
    let mut insts = 0.0;
    let mut branch_miss = 0.0;
    let mut l2_miss = 0.0;
    let mut l3_miss = 0.0;
    for r in results {
        let m = r.region.multiplier;
        cycles += r.stats.cycles as f64 * m;
        insts += r.stats.instructions as f64 * m;
        branch_miss += r.stats.branch.total_mispredicts() as f64 * m;
        l2_miss += r.stats.mem.l2_misses as f64 * m;
        l3_miss += r.stats.mem.l3_misses as f64 * m;
    }
    let per_kilo = if insts > 0.0 { 1000.0 / insts } else { 0.0 };
    Prediction {
        total_cycles: cycles,
        total_instructions: insts,
        branch_mpki: branch_miss * per_kilo,
        l2_mpki: l2_miss * per_kilo,
        l3_mpki: l3_miss * per_kilo,
        ipc: if cycles > 0.0 { insts / cycles } else { 0.0 },
    }
}

/// Absolute percentage error of a prediction against the measured value.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::LoopPointRegion;
    use lp_sim::SimStats;

    fn region(mult: f64) -> LoopPointRegion {
        LoopPointRegion {
            slice_index: 0,
            cluster: 0,
            start: None,
            end: None,
            multiplier: mult,
            filtered_insts: 100,
            cluster_filtered_insts: (100.0 * mult) as u64,
        }
    }

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
            region: region(mult),
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
    fn error_pct_semantics() {
        assert!((error_pct(110.0, 100.0) - 10.0).abs() < 1e-12);
        assert!((error_pct(90.0, 100.0) - 10.0).abs() < 1e-12);
        assert_eq!(error_pct(0.0, 0.0), 0.0);
        assert!(error_pct(1.0, 0.0).is_infinite());
    }

    #[test]
    fn empty_results_are_zero() {
        let p = extrapolate(&[]);
        assert_eq!(p.total_cycles, 0.0);
        assert_eq!(p.ipc, 0.0);
        assert_eq!(p.branch_mpki, 0.0);
    }
}
