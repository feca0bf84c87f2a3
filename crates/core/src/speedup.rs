//! Speedup accounting (§V-B) and the Fig. 1 simulation-time model.

use crate::pipeline::Analysis;
use crate::simulate::RegionResult;
use lp_sim::SimStats;
use std::time::Duration;

/// Theoretical and actual, serial and parallel speedups of sampled
/// simulation over full detailed simulation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpeedupReport {
    /// Reduction in instructions that must be simulated in detail
    /// (spin-filtered), all regions back-to-back.
    pub theoretical_serial: f64,
    /// Same, assuming all regions simulate concurrently (bounded by the
    /// largest region).
    pub theoretical_parallel: f64,
    /// Measured wall-clock reduction, regions back-to-back (including
    /// their fast-forward warmup cost).
    pub actual_serial: f64,
    /// Measured wall-clock reduction with concurrent chains: the regions
    /// of a chain run one after another on one simulator, so the longest
    /// chain bounds it.
    pub actual_parallel: f64,
}

/// Computes the §V-B speedup numbers from an analysis, its region results,
/// and the full-application reference simulation.
pub fn speedups(analysis: &Analysis, results: &[RegionResult], full: &SimStats) -> SpeedupReport {
    let total_filtered = analysis.profile.total_filtered as f64;
    let sum_region: f64 = results.iter().map(|r| r.region.filtered_insts as f64).sum();
    let max_region = results
        .iter()
        .map(|r| r.region.filtered_insts as f64)
        .fold(0.0, f64::max);

    let full_wall = full.wall.as_secs_f64();
    let region_wall = |r: &RegionResult| (r.stats.wall + r.stats.ff_wall).as_secs_f64();
    let sum_wall: f64 = results.iter().map(region_wall).sum();
    let mut by_slice: Vec<&RegionResult> = results.iter().collect();
    by_slice.sort_by_key(|r| r.region.slice_index);
    let mut chain_walls: Vec<f64> = Vec::new();
    for r in by_slice {
        match chain_walls.last_mut() {
            Some(wall) if r.continues => *wall += region_wall(r),
            _ => chain_walls.push(region_wall(r)),
        }
    }
    let max_wall = chain_walls.into_iter().fold(0.0, f64::max);

    SpeedupReport {
        theoretical_serial: ratio(total_filtered, sum_region),
        theoretical_parallel: ratio(total_filtered, max_region),
        actual_serial: ratio(full_wall, sum_wall),
        actual_parallel: ratio(full_wall, max_wall),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The Fig. 1 evaluation-time model: wall-clock estimates for different
/// methodologies assuming a fixed detailed-simulation speed (the paper uses
/// 100 KIPS) and unlimited parallel simulation hosts (the longest single
/// region bounds time-to-result).
#[derive(Debug, Clone, Copy)]
pub struct SimTimeModel {
    /// Detailed simulation speed in instructions per second.
    pub detailed_ips: f64,
    /// Functional fast-forward speed in instructions per second (bounds
    /// time-based sampling, which must visit the whole application).
    pub fast_forward_ips: f64,
}

impl Default for SimTimeModel {
    fn default() -> Self {
        SimTimeModel {
            detailed_ips: 100_000.0, // the paper's 100 KIPS
            fast_forward_ips: 10_000_000.0,
        }
    }
}

impl SimTimeModel {
    /// Time to simulate the whole application in detail.
    pub fn full_detailed(&self, total_insts: u64) -> Duration {
        Duration::from_secs_f64(total_insts as f64 / self.detailed_ips)
    }

    /// Time for time-based sampling: the entire application is visited
    /// functionally, plus a `detailed_fraction` of it in detail.
    pub fn time_based(&self, total_insts: u64, detailed_fraction: f64) -> Duration {
        let t = total_insts as f64;
        Duration::from_secs_f64(
            t / self.fast_forward_ips + t * detailed_fraction / self.detailed_ips,
        )
    }

    /// Time for a checkpoint-based methodology with parallel hosts: the
    /// largest representative region bounds the result.
    pub fn checkpoint_parallel(&self, largest_region_insts: u64) -> Duration {
        Duration::from_secs_f64(largest_region_insts as f64 / self.detailed_ips)
    }

    /// Time for a checkpoint-based methodology run serially.
    pub fn checkpoint_serial(&self, total_region_insts: u64) -> Duration {
        Duration::from_secs_f64(total_region_insts as f64 / self.detailed_ips)
    }
}

/// Formats a duration in human units (seconds → years) for Fig. 1-style
/// tables.
pub fn human_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    const MIN: f64 = 60.0;
    const HOUR: f64 = 3600.0;
    const DAY: f64 = 86_400.0;
    const YEAR: f64 = 365.25 * DAY;
    if s < MIN {
        format!("{s:.1} s")
    } else if s < HOUR {
        format!("{:.1} min", s / MIN)
    } else if s < DAY {
        format!("{:.1} h", s / HOUR)
    } else if s < YEAR {
        format!("{:.1} days", s / DAY)
    } else {
        format!("{:.2} years", s / YEAR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_model_matches_paper_scale() {
        // Fig. 1's premise: multi-billion-instruction apps at 100 KIPS take
        // months to years.
        let m = SimTimeModel::default();
        let t = m.full_detailed(10_000_000_000_000); // 10T instructions (ref-like)
        assert!(t.as_secs_f64() / 86_400.0 > 365.0, "ref inputs take years");
        let train = m.full_detailed(1_000_000_000_000); // 1T
        assert!(train.as_secs_f64() / 86_400.0 > 30.0, "train takes months");
    }

    #[test]
    fn time_based_is_bounded_by_full_visit() {
        let m = SimTimeModel::default();
        let t = m.time_based(1_000_000_000, 0.0);
        // Even with zero detailed sampling, the functional visit costs time.
        assert!(t.as_secs_f64() >= 100.0);
        let t2 = m.time_based(1_000_000_000, 0.1);
        assert!(t2 > t);
    }

    #[test]
    fn checkpoint_times_scale_with_regions() {
        let m = SimTimeModel::default();
        assert!(m.checkpoint_parallel(200_000) < m.checkpoint_serial(2_000_000));
        assert_eq!(m.checkpoint_parallel(100_000).as_secs_f64(), 1.0);
    }

    #[test]
    fn human_durations() {
        assert_eq!(human_duration(Duration::from_secs_f64(30.0)), "30.0 s");
        assert_eq!(human_duration(Duration::from_secs_f64(120.0)), "2.0 min");
        assert_eq!(human_duration(Duration::from_secs_f64(7200.0)), "2.0 h");
        assert!(human_duration(Duration::from_secs_f64(2.0 * 86_400.0)).contains("days"));
        assert!(human_duration(Duration::from_secs_f64(4.0e8)).contains("years"));
    }

    /// Parallel time is the longest chain's: the sum of its regions'
    /// detailed and fast-forward walls, whatever order results come in.
    #[test]
    fn actual_parallel_divides_by_the_longest_chain() {
        let program = crate::testutil::phased_program(2, lp_omp::WaitPolicy::Passive, 3);
        let cfg = crate::LoopPointConfig::with_slice_base(500);
        let analysis = crate::analyze(&program, 2, &cfg).unwrap();
        let region = |slice_index| crate::LoopPointRegion {
            slice_index,
            ..analysis.looppoints[0].clone()
        };
        let result = |slice_index, secs: f64, continues| RegionResult {
            region: region(slice_index),
            stats: SimStats {
                wall: Duration::from_secs_f64(secs / 2.0),
                ff_wall: Duration::from_secs_f64(secs / 2.0),
                ..Default::default()
            },
            continues,
        };
        let full = SimStats {
            wall: Duration::from_secs(14),
            ..Default::default()
        };
        // Chains {3, 4} and {9}: 1 + 2 = 3 s against 4 s.
        let results = [
            result(9, 4.0, false),
            result(4, 2.0, true),
            result(3, 1.0, false),
        ];
        let sp = speedups(&analysis, &results, &full);
        assert_eq!((sp.actual_serial, sp.actual_parallel), (2.0, 3.5));
        // One chain {3, 4, 9}: 7 s.
        let results = [
            result(9, 4.0, true),
            result(4, 2.0, true),
            result(3, 1.0, false),
        ];
        let sp = speedups(&analysis, &results, &full);
        assert_eq!((sp.actual_serial, sp.actual_parallel), (2.0, 2.0));
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 2.0), 3.0);
    }
}
