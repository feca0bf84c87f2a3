//! Per-core timing models: an out-of-order scoreboard and an in-order core.

use lp_isa::Reg;
use lp_uarch::CoreModel;

/// Timing state of one core.
///
/// The out-of-order model is a scoreboard: register-ready times provide data
/// dependences, a ring of the last `rob` in-order retire times models ROB
/// occupancy, and a dispatch-width counter models the front end. The
/// in-order model executes strictly serially. Both honour front-end stalls
/// (instruction-cache misses, mispredict redirects) through
/// [`CoreTiming::stall_fetch_until`].
#[derive(Debug, Clone)]
pub struct CoreTiming {
    model: CoreModel,
    /// Cycle of the most recent dispatch.
    now: u64,
    /// Instructions dispatched in cycle `now`.
    dispatched_in_cycle: u32,
    /// Earliest cycle the front end can deliver the next instruction.
    fetch_ready: u64,
    /// Cycle each architectural register's latest value is available.
    reg_ready: [u64; Reg::COUNT],
    /// Retire times of the last `rob` instructions (ROB model), oldest at
    /// `rob_head`; empty for the in-order core. Retirement is in order, so
    /// the times are monotone and the oldest one is when the instruction
    /// `rob` places back frees its entry — all occupancy ever asks.
    rob_ring: Vec<u64>,
    rob_head: usize,
    last_retire: u64,
}

impl CoreTiming {
    /// Creates an idle core at cycle zero.
    pub fn new(model: CoreModel) -> Self {
        let rob = match model {
            // A zero-entry ROB stalls exactly like a one-entry one.
            CoreModel::OutOfOrder { rob, .. } => rob.max(1) as usize,
            CoreModel::InOrder => 0,
        };
        CoreTiming {
            model,
            now: 0,
            dispatched_in_cycle: 0,
            fetch_ready: 0,
            reg_ready: [0; Reg::COUNT],
            rob_ring: vec![0; rob],
            rob_head: 0,
            last_retire: 0,
        }
    }

    /// The core's current local clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the core's clock to at least `cycle` (used when a sleeping
    /// thread is woken by another core, or when detailed mode begins after
    /// fast-forward).
    pub fn advance_to(&mut self, cycle: u64) {
        if cycle > self.now {
            self.now = cycle;
            self.dispatched_in_cycle = 0;
        }
        self.fetch_ready = self.fetch_ready.max(cycle);
    }

    /// Blocks instruction delivery until `cycle` (mispredict redirect or
    /// instruction-cache miss).
    pub fn stall_fetch_until(&mut self, cycle: u64) {
        self.fetch_ready = self.fetch_ready.max(cycle);
    }

    /// Accounts one instruction and returns `(issue, complete)` cycles.
    ///
    /// `srcs`/`dst` give register dependences; `latency` is the full
    /// execution latency including any memory-hierarchy time.
    #[inline]
    pub fn dispatch(
        &mut self,
        srcs: [Option<Reg>; 3],
        dst: Option<Reg>,
        latency: u32,
    ) -> (u64, u64) {
        match self.model {
            CoreModel::OutOfOrder { width, .. } => {
                // Front-end: width per cycle, not before fetch_ready.
                let mut d = self.now.max(self.fetch_ready);
                if d == self.now && self.dispatched_in_cycle >= width {
                    d += 1;
                }
                // ROB occupancy: the ROB is full at `d` iff the instruction
                // `rob` places back has not retired by then, and dispatch
                // then waits for exactly that retirement.
                d = d.max(self.rob_ring[self.rob_head]);
                if d != self.now {
                    self.now = d;
                    self.dispatched_in_cycle = 1;
                } else {
                    self.dispatched_in_cycle += 1;
                }

                let mut issue = d;
                for src in srcs.into_iter().flatten() {
                    issue = issue.max(self.reg_ready[src.index()]);
                }
                let complete = issue + u64::from(latency);
                if let Some(rd) = dst {
                    self.reg_ready[rd.index()] = complete;
                }
                // In-order retirement: an instruction retires no earlier
                // than its predecessors.
                let retire = complete.max(self.last_retire);
                self.last_retire = retire;
                self.rob_ring[self.rob_head] = retire;
                self.rob_head += 1;
                if self.rob_head == self.rob_ring.len() {
                    self.rob_head = 0;
                }
                (issue, complete)
            }
            CoreModel::InOrder => {
                let issue = self.now.max(self.fetch_ready);
                let complete = issue + u64::from(latency.max(1));
                self.now = complete;
                if let Some(rd) = dst {
                    self.reg_ready[rd.index()] = complete;
                }
                self.last_retire = complete;
                (issue, complete)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ooo() -> CoreTiming {
        CoreTiming::new(CoreModel::OutOfOrder { rob: 4, width: 2 })
    }

    #[test]
    fn width_limits_dispatch_per_cycle() {
        let mut c = ooo();
        let (i1, _) = c.dispatch([None; 3], None, 1);
        let (i2, _) = c.dispatch([None; 3], None, 1);
        let (i3, _) = c.dispatch([None; 3], None, 1);
        assert_eq!(i1, 0);
        assert_eq!(i2, 0);
        assert_eq!(i3, 1, "third inst spills to the next cycle (width 2)");
    }

    #[test]
    fn data_dependence_serializes() {
        let mut c = ooo();
        let (_, done) = c.dispatch([None; 3], Some(Reg::R1), 10);
        assert_eq!(done, 10);
        let (issue, done2) = c.dispatch([Some(Reg::R1), None, None], Some(Reg::R2), 1);
        assert_eq!(issue, 10, "consumer waits for producer");
        assert_eq!(done2, 11);
    }

    #[test]
    fn independent_long_ops_overlap() {
        let mut c = ooo();
        let (_, d1) = c.dispatch([None; 3], Some(Reg::R1), 100);
        let (_, d2) = c.dispatch([None; 3], Some(Reg::R2), 100);
        assert_eq!(d1, 100);
        assert_eq!(d2, 100, "independent ops complete in parallel");
    }

    #[test]
    fn rob_fills_and_stalls() {
        let mut c = ooo();
        // Four 100-cycle ops fill the 4-entry ROB.
        for _ in 0..4 {
            c.dispatch([None; 3], None, 100);
        }
        let (issue, _) = c.dispatch([None; 3], None, 1);
        assert!(issue >= 100, "fifth op waits for ROB head, got {issue}");
    }

    #[test]
    fn fetch_stall_delays_dispatch() {
        let mut c = ooo();
        c.stall_fetch_until(50);
        let (issue, _) = c.dispatch([None; 3], None, 1);
        assert_eq!(issue, 50);
    }

    #[test]
    fn inorder_is_serial() {
        let mut c = CoreTiming::new(CoreModel::InOrder);
        let (_, d1) = c.dispatch([None; 3], Some(Reg::R1), 10);
        let (i2, d2) = c.dispatch([None; 3], Some(Reg::R2), 10);
        assert_eq!(d1, 10);
        assert_eq!(i2, 10, "strictly serial");
        assert_eq!(d2, 20);
        assert_eq!(c.now(), 20);
    }

    #[test]
    fn ooo_beats_inorder_on_independent_work() {
        let mut o = CoreTiming::new(CoreModel::OutOfOrder { rob: 128, width: 4 });
        let mut i = CoreTiming::new(CoreModel::InOrder);
        for _ in 0..100 {
            o.dispatch([None; 3], None, 4);
            i.dispatch([None; 3], None, 4);
        }
        // Flush time: last retire.
        assert!(o.now() < i.now() / 2, "OoO overlaps independent latency");
    }

    #[test]
    fn advance_to_moves_clock_forward_only() {
        let mut c = ooo();
        c.advance_to(100);
        assert_eq!(c.now(), 100);
        c.advance_to(50);
        assert_eq!(c.now(), 100);
        let (issue, _) = c.dispatch([None; 3], None, 1);
        assert!(issue >= 100);
    }
}
