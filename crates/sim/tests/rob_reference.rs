//! `CoreTiming`'s ROB — a ring of the last `rob` retire times, read once
//! per dispatch — against the structure it replaced: a `VecDeque` of
//! in-flight retire times drained by three data-dependent loops. The old
//! out-of-order core lives on here as the oracle.

use lp_isa::Reg;
use lp_sim::CoreTiming;
use lp_uarch::CoreModel;
use proptest::prelude::*;
use std::collections::VecDeque;

struct ReferenceCore {
    rob_entries: u32,
    width: u32,
    now: u64,
    dispatched_in_cycle: u32,
    fetch_ready: u64,
    reg_ready: [u64; Reg::COUNT],
    rob: VecDeque<u64>,
    last_retire: u64,
}

impl ReferenceCore {
    fn new(rob_entries: u32, width: u32) -> Self {
        ReferenceCore {
            rob_entries,
            width,
            now: 0,
            dispatched_in_cycle: 0,
            fetch_ready: 0,
            reg_ready: [0; Reg::COUNT],
            rob: VecDeque::new(),
            last_retire: 0,
        }
    }

    fn advance_to(&mut self, cycle: u64) {
        if cycle > self.now {
            self.now = cycle;
            self.dispatched_in_cycle = 0;
        }
        self.fetch_ready = self.fetch_ready.max(cycle);
    }

    fn stall_fetch_until(&mut self, cycle: u64) {
        self.fetch_ready = self.fetch_ready.max(cycle);
    }

    fn dispatch(&mut self, srcs: [Option<Reg>; 3], dst: Option<Reg>, latency: u32) -> (u64, u64) {
        // Front-end: width per cycle, not before fetch_ready.
        let mut d = self.now.max(self.fetch_ready);
        if d == self.now && self.dispatched_in_cycle >= self.width {
            d += 1;
        }
        // ROB occupancy: retire completed heads; if still full, dispatch
        // waits for the head to retire.
        while let Some(&head) = self.rob.front() {
            if head <= d {
                self.rob.pop_front();
            } else {
                break;
            }
        }
        if self.rob.len() >= self.rob_entries as usize {
            if let Some(head) = self.rob.pop_front() {
                d = d.max(head);
            }
            while self.rob.front().is_some_and(|&h| h <= d) {
                self.rob.pop_front();
            }
        }
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
        // In-order retirement: an instruction retires no earlier than its
        // predecessors.
        let retire = complete.max(self.last_retire);
        self.last_retire = retire;
        self.rob.push_back(retire);
        (issue, complete)
    }
}

/// A register out of a small pool (so dependences are common), or none.
fn reg(pick: u8) -> Option<Reg> {
    (pick < 6).then(|| Reg::from_index(pick))
}

proptest! {
    /// Every `(issue, complete)` pair and the clock after it are equal, for
    /// dependent and independent instructions of short and memory-miss
    /// latencies interleaved with front-end stalls and wake-up clock jumps.
    /// `rob = 0` rides along: it stalls as a one-entry ROB did and does.
    #[test]
    fn ring_rob_equals_the_deque_rob(
        rob_pick in 0usize..6,
        width_pick in 0usize..3,
        ops in prop::collection::vec((0u8..10, 0u8..8, 0u8..8, 0u8..8, 0u8..8, 0u64..300), 1..800),
    ) {
        let rob = [0, 1, 2, 4, 64, 128][rob_pick];
        let width = [1, 2, 4][width_pick];
        let mut new = CoreTiming::new(CoreModel::OutOfOrder { rob, width });
        let mut old = ReferenceCore::new(rob, width);
        for &(kind, a, b, c, dst, n) in &ops {
            match kind {
                0 => {
                    new.stall_fetch_until(new.now() + n);
                    old.stall_fetch_until(old.now + n);
                }
                // Forward by up to 250 cycles, or (a no-op) backward.
                1 => {
                    new.advance_to((new.now() + n).saturating_sub(50));
                    old.advance_to((old.now + n).saturating_sub(50));
                }
                _ => {
                    let latency = [1, 1, 3, 4, 18, n as u32][usize::from(kind) % 6];
                    let srcs = [reg(a), reg(b), reg(c)];
                    prop_assert_eq!(
                        new.dispatch(srcs, reg(dst), latency),
                        old.dispatch(srcs, reg(dst), latency)
                    );
                }
            }
            prop_assert_eq!(new.now(), old.now);
        }
    }
}
