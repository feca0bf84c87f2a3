//! Simulation statistics: the metrics the paper's figures report.

use lp_uarch::{BranchStats, CoreMemStats};
use std::time::Duration;

/// One point of an IPC-over-time trace (Fig. 4b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpcSample {
    /// Global instructions retired at the end of the sample window.
    pub instructions: u64,
    /// Global cycle count at the end of the sample window.
    pub cycles: u64,
    /// Aggregate IPC within the window.
    pub ipc: f64,
}

/// Aggregate results of a (full or region) detailed simulation.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Simulated runtime in cycles (max over cores of the local clock).
    pub cycles: u64,
    /// Instructions retired during detailed simulation (all images).
    pub instructions: u64,
    /// Spin-filtered instructions (main image only) — the quantity
    /// LoopPoint's multipliers are computed over.
    pub filtered_instructions: u64,
    /// Per-thread instruction counts (all images).
    pub per_thread_instructions: Vec<u64>,
    /// Aggregated branch-predictor statistics.
    pub branch: BranchStats,
    /// Aggregated memory statistics (summed over cores).
    pub mem: CoreMemStats,
    /// Instructions executed in fast-forward (warmup) before this detailed
    /// segment. A `Simulator::run_region` result counts the fast-forward
    /// of that call alone — a region's own warmup, even when several
    /// regions run on one simulator; a bare `Simulator::run` reports the
    /// simulator's running total.
    pub ff_instructions: u64,
    /// Wall-clock time spent in detailed simulation.
    pub wall: Duration,
    /// Wall-clock time spent fast-forwarding, counted as `ff_instructions`.
    pub ff_wall: Duration,
    /// Optional IPC trace (enabled via sampling interval).
    pub ipc_trace: Vec<IpcSample>,
}

impl SimStats {
    /// Aggregate instructions-per-cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Simulated runtime in seconds at `freq_ghz`.
    pub fn runtime_seconds(&self, freq_ghz: f64) -> f64 {
        self.cycles as f64 / (freq_ghz * 1e9)
    }

    /// Branch mispredictions per kilo-instruction (Fig. 7b).
    pub fn branch_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.branch.total_mispredicts() as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// L2 misses per kilo-instruction (Fig. 7c).
    pub fn l2_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mem.l2_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// L3 misses per kilo-instruction.
    pub fn l3_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mem.l3_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// L1-D misses per kilo-instruction.
    pub fn l1d_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mem.l1d_misses as f64 * 1000.0 / self.instructions as f64
        }
    }
}

/// Accumulates `from` into `into`, field by field. Commutative and
/// associative (plain sums), which the property tests rely on.
pub fn add_mem(into: &mut CoreMemStats, from: CoreMemStats) {
    into.loads += from.loads;
    into.stores += from.stores;
    into.l1d_misses += from.l1d_misses;
    into.l2_misses += from.l2_misses;
    into.l3_misses += from.l3_misses;
    into.l1i_misses += from.l1i_misses;
    into.invalidations += from.invalidations;
    into.prefetches += from.prefetches;
}

/// Accumulates branch-predictor stats `from` into `into`. Commutative and
/// associative, like [`add_mem`].
pub fn add_branch(into: &mut BranchStats, from: BranchStats) {
    into.cond_branches += from.cond_branches;
    into.cond_mispredicts += from.cond_mispredicts;
    into.indirect += from.indirect;
    into.indirect_mispredicts += from.indirect_mispredicts;
    into.returns += from.returns;
    into.return_mispredicts += from.return_mispredicts;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s = SimStats {
            cycles: 1000,
            instructions: 2000,
            ..Default::default()
        };
        s.branch.cond_branches = 100;
        s.branch.cond_mispredicts = 10;
        s.mem.l2_misses = 4;
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.branch_mpki() - 5.0).abs() < 1e-12);
        assert!((s.l2_mpki() - 2.0).abs() < 1e-12);
        assert!((s.runtime_seconds(2.0) - 5e-7).abs() < 1e-18);
    }

    #[test]
    fn zero_division_guards() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.branch_mpki(), 0.0);
        assert_eq!(s.l2_mpki(), 0.0);
        assert_eq!(s.l3_mpki(), 0.0);
        assert_eq!(s.l1d_mpki(), 0.0);
    }

    #[test]
    fn aggregation_helpers() {
        let mut m = CoreMemStats::default();
        add_mem(
            &mut m,
            CoreMemStats {
                loads: 1,
                stores: 2,
                l1d_misses: 3,
                l2_misses: 4,
                l3_misses: 5,
                l1i_misses: 6,
                invalidations: 7,
                prefetches: 8,
            },
        );
        add_mem(
            &mut m,
            CoreMemStats {
                loads: 10,
                ..Default::default()
            },
        );
        assert_eq!(m.loads, 11);
        assert_eq!(m.invalidations, 7);

        let mut b = BranchStats::default();
        add_branch(
            &mut b,
            BranchStats {
                cond_branches: 5,
                cond_mispredicts: 1,
                ..Default::default()
            },
        );
        assert_eq!(b.total_branches(), 5);
        assert_eq!(b.total_mispredicts(), 1);
    }
}
