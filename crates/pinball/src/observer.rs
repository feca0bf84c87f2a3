//! Execution observers: the Pin-tool analogue.

use crate::replay::Replayer;
use lp_isa::Retired;

/// Receives every retired instruction of an execution.
///
/// Profiling passes (`lp-dcfg`, `lp-bbv`) implement this; several observers
/// can run over a single pass, mirroring how Pin tools stack analysis
/// callbacks on one instrumented run.
///
/// Two passes deliver retirements, in different global orders:
/// [`Pinball::replay`](crate::Pinball::replay) in *replay* order (the
/// lowest-index thread whose next instruction is private runs first) and
/// [`Pinball::record_with`](crate::Pinball::record_with) in *recording*
/// order (round-robin in flow-control quanta). Each thread's own stream is
/// the same in both; the interleaving of threads is not, for any program
/// with more than one thread. So only an observer whose output is a
/// function of the per-thread streams — the DCFG's per-thread edge counts —
/// may ride a recording; one that counts globally (the slicer's
/// `(PC, count)` boundaries) belongs on a replay, the order every later
/// pass reproduces.
pub trait ExecObserver {
    /// Called once per retired instruction, in the pass's global
    /// retirement order.
    fn on_retire(&mut self, r: &Retired);

    /// What [`Pinball::replay`](crate::Pinball::replay) calls in place of
    /// [`ExecObserver::on_retire`]: the same retirement, plus the replayer
    /// already past it, so an observer can
    /// [`snapshot`](Replayer::snapshot) the machine right after any
    /// retirement of the one replay. Defaults to `on_retire`.
    fn on_replayed(&mut self, r: &Retired, replayer: &Replayer<'_>) {
        let _ = replayer;
        self.on_retire(r);
    }
}

/// Adapts a closure into an [`ExecObserver`].
#[derive(Debug)]
pub struct FnObserver<F: FnMut(&Retired)>(pub F);

impl<F: FnMut(&Retired)> ExecObserver for FnObserver<F> {
    fn on_retire(&mut self, r: &Retired) {
        (self.0)(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_isa::{Inst, InstClass, Pc, Retired};

    #[test]
    fn fn_observer_forwards() {
        let mut count = 0usize;
        let mut obs = FnObserver(|_r: &Retired| count += 1);
        let r = Retired {
            tid: 0,
            pc: Pc::INVALID,
            inst: Inst::Nop,
            class: InstClass::IntAlu,
            next_pc: Pc::INVALID,
            mem: None,
            ctrl: None,
            global_seq: 0,
        };
        obs.on_retire(&r);
        obs.on_retire(&r);
        assert_eq!(count, 2);
    }
}
