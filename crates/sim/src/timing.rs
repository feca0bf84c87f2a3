//! Reusable per-retirement timing accounting.
//!
//! [`TimingModel`] bundles the core clocks, memory hierarchy, and branch
//! predictors and charges one [`Retired`] instruction at a time. Both the
//! unconstrained [`crate::Simulator`] and the constrained (pinball-replay)
//! simulation in the `looppoint` crate drive it, so the two simulation
//! styles differ **only** in thread scheduling — exactly the comparison the
//! paper draws in §V-A.1.

use crate::core_model::CoreTiming;
use crate::simulator::Mode;
use crate::stats::{add_branch, add_mem, SimStats};
use lp_isa::{CtrlEvent, CtrlKind, Inst, InstClass, Retired};
use lp_uarch::{BranchPredictor, CacheLevel, MemoryHierarchy, SimConfig};

/// Timing state for one multicore machine.
///
/// `Clone` captures the complete microarchitectural state — core clocks,
/// cache hierarchy contents, branch-predictor tables — so a simulator can
/// be forked *warm* (see `Simulator::from_machine_warm`): live mode pairs
/// one of these with a functional `MachineState` at each region start, so
/// a detailed re-run of the region keeps the pass's cache warmth.
#[derive(Debug, Clone)]
pub struct TimingModel {
    cfg: SimConfig,
    warm_during_ff: bool,
    cores: Vec<CoreTiming>,
    hierarchy: MemoryHierarchy,
    bps: Vec<BranchPredictor>,
    icache_last_line: Vec<u64>,
}

impl TimingModel {
    /// Creates cold timing state for `nthreads` threads on `cfg`.
    ///
    /// # Panics
    /// Panics if `nthreads` exceeds the configured core count.
    pub fn new(cfg: SimConfig, nthreads: usize) -> Self {
        assert!(
            nthreads <= cfg.ncores,
            "team of {nthreads} exceeds {} cores",
            cfg.ncores
        );
        TimingModel {
            warm_during_ff: true,
            cores: (0..nthreads).map(|_| CoreTiming::new(cfg.core)).collect(),
            hierarchy: MemoryHierarchy::new(&cfg),
            bps: (0..nthreads)
                .map(|_| BranchPredictor::new(cfg.branch))
                .collect(),
            icache_last_line: vec![u64::MAX; nthreads],
            cfg,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Number of cores in use.
    pub fn ncores(&self) -> usize {
        self.cores.len()
    }

    /// Local clock of `tid`'s core.
    pub fn core_now(&self, tid: usize) -> u64 {
        self.cores[tid].now()
    }

    /// Largest core clock (the machine's runtime so far).
    pub fn max_cycle(&self) -> u64 {
        self.cores.iter().map(CoreTiming::now).max().unwrap_or(0)
    }

    /// Advances `tid`'s core clock (wake-ups, cross-thread ordering).
    pub fn advance_core_to(&mut self, tid: usize, cycle: u64) {
        self.cores[tid].advance_to(cycle);
    }

    /// Disables cache/branch-predictor warming during fast-forward — the
    /// cold-start ablation (§III-F motivates warmup).
    pub fn set_ff_warming(&mut self, enabled: bool) {
        self.warm_during_ff = enabled;
    }

    /// Whether fast-forward warms caches and branch predictors.
    pub(crate) fn ff_warming(&self) -> bool {
        self.warm_during_ff
    }

    /// Clears hierarchy and branch statistics while keeping warmed state
    /// (called at the detailed-region start).
    pub fn reset_stats(&mut self) {
        self.hierarchy.reset_stats();
        for bp in &mut self.bps {
            bp.reset_stats();
        }
    }

    /// Folds the hierarchy/branch statistics into `stats`.
    pub fn collect_into(&self, stats: &mut SimStats) {
        for core in 0..self.cores.len() {
            add_mem(&mut stats.mem, self.hierarchy.stats(core));
            add_branch(&mut stats.branch, self.bps[core].stats());
        }
    }

    /// Charges one retired instruction in the given mode and returns its
    /// completion cycle (detailed mode) or the advanced local clock
    /// (fast-forward).
    #[inline]
    pub fn account(&mut self, r: &Retired, mode: Mode) -> u64 {
        match mode {
            Mode::Detailed => self.account_detailed(r),
            Mode::FastForward => self.account_fast_forward(r),
        }
    }

    #[inline]
    fn account_fast_forward(&mut self, r: &Retired) -> u64 {
        let tid = r.tid;
        if !self.warm_during_ff {
            let next = self.cores[tid].now() + 1;
            self.cores[tid].advance_to(next);
            return next;
        }
        // Warm the instruction cache too — a detailed region that starts
        // from cold fetch state would overstate front-end stalls.
        let line = r.pc.to_word() >> 4;
        if self.icache_last_line[tid] != line {
            self.icache_last_line[tid] = line;
            self.hierarchy.access_inst(tid, r.pc);
        }
        if let Some(acc) = r.mem {
            self.hierarchy
                .access_data(tid, acc.addr, acc.write, acc.shared);
        }
        if let Some(ctrl) = r.ctrl {
            self.warm_branch(tid, r, ctrl);
        }
        let next = self.cores[tid].now() + 1;
        self.cores[tid].advance_to(next);
        next
    }

    #[inline]
    fn account_detailed(&mut self, r: &Retired) -> u64 {
        let tid = r.tid;
        // Front end: same-line fetches are pipelined; line transitions
        // consult the I-cache (16 four-byte slots per 64-byte line).
        let line = r.pc.to_word() >> 4;
        if self.icache_last_line[tid] != line {
            self.icache_last_line[tid] = line;
            let res = self.hierarchy.access_inst(tid, r.pc);
            if res.level > CacheLevel::L1 {
                let now = self.cores[tid].now();
                self.cores[tid].stall_fetch_until(now + u64::from(res.latency));
            }
        }

        let mut latency = self.cfg.lat.latency(r.class);
        if let Some(acc) = r.mem {
            let res = self
                .hierarchy
                .access_data(tid, acc.addr, acc.write, acc.shared);
            if matches!(
                r.class,
                InstClass::Load | InstClass::Atomic | InstClass::Futex
            ) {
                latency += res.latency;
            }
        }

        let (_, complete) = self.cores[tid].dispatch(r.inst.srcs(), r.inst.dst(), latency);

        if r.ctrl.is_some_and(|ctrl| !self.warm_branch(tid, r, ctrl)) {
            self.cores[tid].stall_fetch_until(complete + u64::from(self.cfg.mispredict_penalty));
        }
        complete
    }

    /// Updates branch-predictor state for `r`'s control transfer `ctrl`;
    /// returns whether it was predicted correctly.
    fn warm_branch(&mut self, tid: usize, r: &Retired, ctrl: CtrlEvent) -> bool {
        match ctrl.kind {
            CtrlKind::CondTaken => self.bps[tid].predict_cond(r.pc, true),
            CtrlKind::CondNotTaken => self.bps[tid].predict_cond(r.pc, false),
            CtrlKind::Jump => true,
            CtrlKind::Call => {
                let correct = if matches!(r.inst, Inst::CallInd { .. }) {
                    self.bps[tid].predict_indirect(r.pc, ctrl.target)
                } else {
                    true
                };
                self.bps[tid].on_call(r.pc.next());
                correct
            }
            CtrlKind::Ret => self.bps[tid].predict_return(ctrl.target),
        }
    }
}
