//! Constrained timing simulation: replay-driven, with artificial stalls.
//!
//! PinPlay's default replay repeats the shared-memory access order captured
//! on the recording machine. Timing simulation on top of such a replay
//! (§V-A.1) therefore serializes shared accesses in recorded order,
//! delaying threads artificially — which the paper shows can mislead
//! performance extrapolation (e.g. ~19.6% runtime error for `657.xz_s.2`).
//! This module implements exactly that: an `lp-pinball` replayer drives
//! the same [`TimingModel`] the unconstrained simulator uses, plus a
//! serializing dependency through every shared access.

use crate::error::LoopPointError;
use lp_isa::Program;
use lp_pinball::Pinball;
use lp_sim::{Mode, SimStats, TimingModel};
use lp_uarch::SimConfig;
use std::sync::Arc;
use std::time::Instant;

/// Simulates the whole recorded execution in constrained mode.
///
/// # Errors
/// Replay divergence or budget exhaustion.
pub fn simulate_constrained(
    pinball: &Pinball,
    program: &Arc<Program>,
    simcfg: &SimConfig,
    max_steps: u64,
) -> Result<SimStats, LoopPointError> {
    let wall = Instant::now();
    let nthreads = pinball.nthreads();
    let mut timing = TimingModel::new(simcfg.clone(), nthreads);
    let mut replayer = pinball.replayer(program.clone());
    let mut stats = SimStats {
        per_thread_instructions: vec![0; nthreads],
        ..Default::default()
    };
    // The recorded order is enforced functionally by the replayer; in
    // timing, each shared access additionally waits for the previous
    // *conflicting* access to the same word by another thread (reads wait
    // on the last write; writes wait on the last write and the last read)
    // — the artificial cross-thread stalls constrained replay injects to
    // enforce the recorded dependence order. Read-after-read needs no
    // ordering, as in PinPlay.
    #[derive(Clone, Copy, Default)]
    struct WordOrder {
        last_write: Option<(usize, u64)>,
        last_read: Option<(usize, u64)>,
    }
    let mut order: std::collections::HashMap<u64, WordOrder> = std::collections::HashMap::new();
    let mut steps: u64 = 0;
    replayer.drive(|r, _| {
        steps += 1;
        if steps > max_steps {
            return true;
        }
        stats.instructions += 1;
        stats.per_thread_instructions[r.tid] += 1;
        if !program.is_library_pc(r.pc) {
            stats.filtered_instructions += 1;
        }
        let shared = r.mem.filter(|m| m.shared);
        if let Some(acc) = shared {
            if let Some(w) = order.get(&acc.addr.0) {
                let mut wait = 0u64;
                if let Some((tid, cycle)) = w.last_write {
                    if tid != r.tid {
                        wait = wait.max(cycle);
                    }
                }
                if acc.write || acc.atomic {
                    if let Some((tid, cycle)) = w.last_read {
                        if tid != r.tid {
                            wait = wait.max(cycle);
                        }
                    }
                }
                if wait > 0 {
                    timing.advance_core_to(r.tid, wait);
                }
            }
        }
        let complete = timing.account(r, Mode::Detailed);
        if let Some(acc) = shared {
            let w = order.entry(acc.addr.0).or_default();
            if acc.write || acc.atomic {
                w.last_write = Some((r.tid, complete));
            } else {
                w.last_read = Some((r.tid, complete));
            }
        }
        false
    })?;
    if steps > max_steps {
        return Err(LoopPointError::Sim(lp_sim::SimError::StepLimit {
            limit: max_steps,
        }));
    }
    stats.cycles = timing.max_cycle();
    timing.collect_into(&mut stats);
    stats.wall = wall.elapsed();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_pinball::RecordConfig;

    #[test]
    fn constrained_runtime_deviates_under_contention() {
        // Constrained timing replays the *recording host's* interleaving
        // with artificial cross-thread dependence stalls. For a contended
        // workload the result deviates substantially from the
        // unconstrained simulation in one direction or the other — the
        // unreliability §V-A.1 warns about (either artificial stalls slow
        // it down, or the recorded flow-controlled schedule dodges the
        // contention the target machine would really see).
        let program = crate::testutil::contended_program(4);
        let pinball = Pinball::record(&program, 4, RecordConfig::default()).unwrap();
        let cfg = SimConfig::gainestown(4);
        let constrained = simulate_constrained(&pinball, &program, &cfg, u64::MAX).unwrap();
        let unconstrained = lp_sim::simulate_full(program.clone(), 4, cfg, u64::MAX).unwrap();
        let deviation = (constrained.cycles as f64 - unconstrained.cycles as f64).abs()
            / unconstrained.cycles as f64;
        assert!(
            deviation > 0.10,
            "constrained ({}) should deviate notably from unconstrained ({})",
            constrained.cycles,
            unconstrained.cycles
        );
        // Functionally it retires the recorded stream.
        assert_eq!(constrained.instructions, pinball.instructions());
    }
}
