//! The unconstrained multicore simulator driver.

use crate::stats::{IpcSample, SimStats};
use crate::timing::TimingModel;
use lp_isa::{Inst, Machine, MachineError, Marker, Pc, Program, StepResult, ThreadState};
use lp_uarch::SimConfig;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Simulation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Functional execution with cache/branch-predictor warming only.
    FastForward,
    /// Full core timing.
    Detailed,
}

/// A stop condition for a simulation segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCond {
    /// Stop after the `count`-th global execution of the marker PC.
    Marker(Marker),
    /// Stop once the machine's global retired-instruction count reaches
    /// this value (the boundary representation naive instruction-count
    /// sampling uses — unstable across interleavings, which is the point
    /// of the §II comparison).
    AtGlobalInst(u64),
}

impl From<Marker> for StopCond {
    fn from(m: Marker) -> Self {
        StopCond::Marker(m)
    }
}

/// Errors from simulation runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The functional machine faulted.
    Machine(MachineError),
    /// All live threads were blocked.
    Deadlock {
        /// Global instructions retired when the deadlock was detected.
        at_instructions: u64,
    },
    /// The program finished before the stop marker was reached.
    MarkerNotReached {
        /// The marker that was never hit.
        marker: Marker,
        /// How many times its PC had executed.
        executed: u64,
    },
    /// The step budget was exhausted.
    StepLimit {
        /// The exhausted budget.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Machine(e) => write!(f, "machine fault: {e}"),
            SimError::Deadlock { at_instructions } => {
                write!(f, "deadlock after {at_instructions} instructions")
            }
            SimError::MarkerNotReached { marker, executed } => write!(
                f,
                "program ended before marker {marker} (pc executed {executed} times)"
            ),
            SimError::StepLimit { limit } => write!(f, "step limit of {limit} exhausted"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Machine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MachineError> for SimError {
    fn from(e: MachineError) -> Self {
        SimError::Machine(e)
    }
}

/// Unconstrained multicore timing simulator.
///
/// Threads map 1:1 onto cores; a min-cycle scheduler always steps the
/// runnable core with the smallest local clock, so thread interleaving is
/// decided by the simulated microarchitecture (the paper's *unconstrained
/// simulation*).
///
/// ```
/// use lp_isa::{ProgramBuilder, Reg, AluOp};
/// use lp_sim::{Simulator, Mode};
/// use lp_uarch::SimConfig;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), lp_sim::SimError> {
/// let mut pb = ProgramBuilder::new("demo");
/// let mut c = pb.main_code();
/// c.counted_loop("l", Reg::R1, 100, |c| {
///     c.alui(AluOp::Mul, Reg::R2, Reg::R2, 3);
/// });
/// c.halt();
/// c.finish();
///
/// let mut sim = Simulator::new(Arc::new(pb.finish()), 1, SimConfig::gainestown(1));
/// let stats = sim.run(Mode::Detailed, None, u64::MAX)?;
/// assert!(stats.ipc() > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator {
    machine: Machine,
    timing: TimingModel,
    /// The scheduler's whole view, one dense word per thread: its core's
    /// clock while the thread is `Running`, `u64::MAX` while it is blocked
    /// on a futex or halted. Rewritten wherever either changes.
    clocks: Vec<u64>,
    watch: Vec<(Pc, u64)>,
    sample_interval: Option<u64>,
    ff_instructions: u64,
    ff_wall: std::time::Duration,
    obs: lp_obs::Observer,
}

impl Simulator {
    /// Creates a simulator for `program` with a team of `nthreads` threads
    /// on configuration `cfg`.
    ///
    /// # Panics
    /// Panics if `nthreads` exceeds the configured core count.
    pub fn new(program: Arc<Program>, nthreads: usize, cfg: SimConfig) -> Self {
        Self::from_machine(Machine::new(program, nthreads), cfg)
    }

    /// Creates a simulator resuming from an existing machine state (the
    /// checkpoint-driven mode: the machine typically comes from a pinball
    /// region checkpoint). Timing state starts cold; pair with a warmup
    /// segment. Use [`Simulator::watch_pc_from`] to seed marker counts
    /// with their values at the checkpoint.
    ///
    /// # Panics
    /// Panics if the machine's thread count exceeds the configured cores.
    pub fn from_machine(machine: Machine, cfg: SimConfig) -> Self {
        let timing = TimingModel::new(cfg, machine.num_threads());
        Self::from_machine_warm(machine, timing)
    }

    /// Creates a simulator resuming from a machine state **with warm
    /// microarchitectural state** — the live-mode rewind: pairing a
    /// functional snapshot with the [`Simulator::timing_checkpoint`] taken
    /// at the same instant yields a simulator whose caches and predictors
    /// reflect the entire execution history up to the snapshot, exactly as
    /// if it had simulated from program start. Segment statistics stay
    /// correct because cycle counts are deltas from segment entry.
    ///
    /// # Panics
    /// Panics if the machine's thread count differs from the timing
    /// state's core count.
    pub fn from_machine_warm(machine: Machine, timing: TimingModel) -> Self {
        let nthreads = machine.num_threads();
        assert_eq!(
            nthreads,
            timing.ncores(),
            "timing checkpoint is for {} cores, machine has {nthreads} threads",
            timing.ncores()
        );
        let clocks = scheduler_clocks(&machine, &timing);
        Simulator {
            timing,
            clocks,
            watch: Vec::new(),
            sample_interval: None,
            ff_instructions: 0,
            ff_wall: std::time::Duration::ZERO,
            machine,
            obs: lp_obs::global(),
        }
    }

    /// Restarts the microarchitectural state cold — caches, predictors
    /// and core clocks as [`Simulator::from_machine`] builds them — on the
    /// machine as it stands. Watch counts and the fast-forward warming
    /// setting carry over: the cold-start ablation of a region that
    /// continues on the simulator of the region before it.
    pub fn reset_timing(&mut self) {
        let mut timing = TimingModel::new(self.config().clone(), self.machine.num_threads());
        timing.set_ff_warming(self.timing.ff_warming());
        self.clocks = scheduler_clocks(&self.machine, &timing);
        self.timing = timing;
    }

    /// Clones the current microarchitectural state (core clocks, cache
    /// hierarchy, branch predictors) — the warm half of a live-mode
    /// snapshot, consumed by [`Simulator::from_machine_warm`].
    pub fn timing_checkpoint(&self) -> TimingModel {
        self.timing.clone()
    }

    /// Routes this simulator's spans, counters, and IPC heartbeats to
    /// `obs` instead of the process-global observer.
    pub fn set_observer(&mut self, obs: lp_obs::Observer) {
        self.obs = obs;
    }

    /// The simulated machine configuration.
    pub fn config(&self) -> &SimConfig {
        self.timing.config()
    }

    /// Read-only access to the functional machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Registers `pc` for global execution counting (markers must be
    /// watched before the run that crosses them).
    pub fn watch_pc(&mut self, pc: Pc) {
        self.watch_pc_from(pc, 0);
    }

    /// Registers `pc` with an initial count — the count the pc had already
    /// reached at the state this simulator resumed from (checkpoint-driven
    /// runs keep using whole-program `(PC, count)` markers this way).
    pub fn watch_pc_from(&mut self, pc: Pc, initial: u64) {
        if !self.watch.iter().any(|(p, _)| *p == pc) {
            self.watch.push((pc, initial));
        }
    }

    /// Times the watched PC has executed so far.
    pub fn watch_count(&self, pc: Pc) -> u64 {
        self.watch
            .iter()
            .find(|(p, _)| *p == pc)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Disables cache/predictor warming during fast-forward (cold-start
    /// ablation).
    pub fn set_ff_warming(&mut self, enabled: bool) {
        self.timing.set_ff_warming(enabled);
    }

    /// Enables IPC-over-time sampling every `interval` instructions during
    /// detailed runs (Fig. 4b traces).
    pub fn set_ipc_sampling(&mut self, interval: u64) {
        assert!(interval > 0);
        self.sample_interval = Some(interval);
    }

    /// The runnable thread with the smallest core clock, the lowest tid
    /// among equals.
    fn pick_next(&self) -> Option<usize> {
        let (mut best, mut min) = (None, u64::MAX);
        for (tid, &now) in self.clocks.iter().enumerate() {
            if now < min {
                // Kept a branch on purpose: as a conditional move the pick
                // would wait on the clock the last instruction just wrote,
                // while a predicted branch lets the host start stepping the
                // next thread under this one's accounting (fast-forward
                // ~12 % faster, measured).
                std::hint::cold_path();
                (best, min) = (Some(tid), now);
            }
        }
        #[cfg(debug_assertions)]
        assert_eq!(best, self.pick_next_by_scan(), "clocks {:?}", self.clocks);
        best
    }

    /// The scheduling rule read off the machine and the timing model
    /// themselves: the oracle every dev-profile `pick_next` is held to.
    #[cfg(debug_assertions)]
    fn pick_next_by_scan(&self) -> Option<usize> {
        (0..self.timing.ncores())
            .filter(|&tid| self.machine.thread_state(tid) == ThreadState::Running)
            .min_by_key(|&tid| self.timing.core_now(tid))
    }

    /// Runs in `mode` until `stop` is crossed (or program end when `stop`
    /// is `None`), with a hard step budget.
    ///
    /// Detailed runs reset hierarchy/branch statistics at entry (keeping
    /// warmed state) and report statistics for the segment only.
    ///
    /// # Errors
    /// [`SimError::MarkerNotReached`] if the program finished first;
    /// [`SimError::Deadlock`] / [`SimError::StepLimit`] / machine faults.
    pub fn run(
        &mut self,
        mode: Mode,
        stop: Option<StopCond>,
        max_steps: u64,
    ) -> Result<SimStats, SimError> {
        // The no-op hook is monomorphised away; only `run_with` callers pay
        // for an indirect call per instruction.
        self.run_loop(mode, stop, max_steps, |_| false)
    }

    /// [`Simulator::run`] with a per-retire observer hook: `hook` sees
    /// every retired instruction of the segment (after timing accounting,
    /// before marker bookkeeping) and may end the segment cleanly by
    /// returning `true` — the retired instruction that triggered the stop
    /// belongs to the segment that ends at it, exactly like a marker hit.
    ///
    /// This is the observer surface live-mode profiling drives: a
    /// streaming slicer rides the one functional execution instead of a
    /// separate recording pass.
    ///
    /// # Errors
    /// As [`Simulator::run`]; a hook-triggered stop is never an error,
    /// even when a `stop` condition was also given but not yet reached.
    pub fn run_with(
        &mut self,
        mode: Mode,
        stop: Option<StopCond>,
        max_steps: u64,
        hook: &mut dyn FnMut(&lp_isa::Retired) -> bool,
    ) -> Result<SimStats, SimError> {
        self.run_loop(mode, stop, max_steps, hook)
    }

    fn run_loop(
        &mut self,
        mode: Mode,
        stop: Option<StopCond>,
        max_steps: u64,
        mut hook: impl FnMut(&lp_isa::Retired) -> bool,
    ) -> Result<SimStats, SimError> {
        if let Some(StopCond::Marker(m)) = stop {
            assert!(
                self.watch.iter().any(|(p, _)| *p == m.pc),
                "stop marker {m} must be watched before running"
            );
        }
        let wall_start = Instant::now();
        let detailed = mode == Mode::Detailed;
        let mut span = self.obs.span(
            if detailed {
                "sim.detailed"
            } else {
                "sim.fast_forward"
            },
            "sim",
        );
        if detailed {
            self.timing.reset_stats();
        }
        let cycles_start = self.timing.max_cycle();
        let mut stats = SimStats {
            per_thread_instructions: vec![0; self.timing.ncores()],
            ..Default::default()
        };
        let mut steps: u64 = 0;
        let mut sample_insts: u64 = 0;
        let mut sample_cycle_base = cycles_start;
        let mut stopped_at_marker = false;

        'outer: while steps < max_steps {
            if self.machine.is_finished() {
                break;
            }
            let Some(tid) = self.pick_next() else {
                return Err(SimError::Deadlock {
                    at_instructions: stats.instructions,
                });
            };
            // Consumed in place: `?` or a by-value match would move the
            // just-written `Retired` record out of the step result, a
            // per-instruction copy.
            let step = self.machine.step(tid);
            match &step {
                Err(e) => return Err(e.clone().into()),
                Ok(StepResult::Idle | StepResult::AtShared) => {
                    unreachable!("picked a runnable thread")
                }
                Ok(StepResult::Blocked) => self.clocks[tid] = u64::MAX,
                Ok(StepResult::Retired(r)) => {
                    steps += 1;
                    stats.instructions += 1;
                    stats.per_thread_instructions[tid] += 1;
                    if !self.machine.program().is_library_pc(r.pc) {
                        stats.filtered_instructions += 1;
                    }

                    self.timing.account(r, mode);
                    self.clocks[tid] = match r.inst {
                        Inst::Halt => u64::MAX,
                        _ => self.timing.core_now(tid),
                    };
                    if matches!(r.inst, Inst::FutexWake { .. }) {
                        self.unpark_woken(tid);
                    }

                    if detailed {
                        if let Some(interval) = self.sample_interval {
                            sample_insts += 1;
                            if sample_insts >= interval {
                                let cyc = self.timing.max_cycle();
                                let window_cycles = cyc.saturating_sub(sample_cycle_base).max(1);
                                let ipc = sample_insts as f64 / window_cycles as f64;
                                stats.ipc_trace.push(IpcSample {
                                    instructions: stats.instructions,
                                    cycles: cyc - cycles_start,
                                    ipc,
                                });
                                // Heartbeat: a counter track in the trace,
                                // plus liveness for `/healthz` watchers.
                                self.obs.counter_sample("sim.ipc", "sim", "ipc", ipc);
                                self.obs.gauge("sim.last.ipc").set(ipc);
                                self.obs.heartbeat();
                                sample_insts = 0;
                                sample_cycle_base = cyc;
                            }
                        }
                    }

                    if hook(r) {
                        // Count the stop instruction against any watched
                        // markers first, so `watch_count` stays exact for
                        // resumed segments.
                        for (pc, count) in &mut self.watch {
                            if *pc == r.pc {
                                *count += 1;
                            }
                        }
                        stopped_at_marker = true;
                        break 'outer;
                    }

                    // Marker bookkeeping last: the marker occurrence itself
                    // belongs to the segment that ends at it.
                    for (pc, count) in &mut self.watch {
                        if *pc == r.pc {
                            *count += 1;
                            if let Some(StopCond::Marker(m)) = stop {
                                if m.pc == *pc && *count == m.count {
                                    stopped_at_marker = true;
                                    break 'outer;
                                }
                            }
                        }
                    }
                    if let Some(StopCond::AtGlobalInst(n)) = stop {
                        if self.machine.global_retired() >= n {
                            stopped_at_marker = true;
                            break 'outer;
                        }
                    }
                }
            }
        }

        if let Some(cond) = stop {
            if !stopped_at_marker {
                if steps >= max_steps && !self.machine.is_finished() {
                    return Err(SimError::StepLimit { limit: max_steps });
                }
                match cond {
                    StopCond::Marker(m) => {
                        return Err(SimError::MarkerNotReached {
                            marker: m,
                            executed: self.watch_count(m.pc),
                        })
                    }
                    StopCond::AtGlobalInst(_) => {
                        // The program ended before the requested index; for
                        // instruction-count regions that is a valid, shorter
                        // region rather than an error.
                    }
                }
            }
        } else if steps >= max_steps && !self.machine.is_finished() {
            return Err(SimError::StepLimit { limit: max_steps });
        }

        stats.cycles = self.timing.max_cycle().saturating_sub(cycles_start);
        if detailed {
            self.timing.collect_into(&mut stats);
            stats.wall = wall_start.elapsed();
            stats.ff_instructions = self.ff_instructions;
            stats.ff_wall = self.ff_wall;
        } else {
            self.ff_instructions += stats.instructions;
            self.ff_wall += wall_start.elapsed();
            stats.ff_instructions = self.ff_instructions;
            stats.ff_wall = self.ff_wall;
        }

        // Observability: close the segment span with its headline numbers
        // and fold exact counts into the metrics registry.
        span.arg("instructions", stats.instructions);
        span.arg("cycles", stats.cycles);
        if self.obs.is_enabled() {
            if detailed {
                let m = &self.obs;
                m.counter("sim.detailed.instructions")
                    .add(stats.instructions);
                m.counter("sim.detailed.cycles").add(stats.cycles);
                m.counter("sim.detailed.filtered_instructions")
                    .add(stats.filtered_instructions);
                m.counter("sim.detailed.segments").inc();
                m.histogram("sim.segment.instructions")
                    .record(stats.instructions);
                m.gauge("sim.last.ipc").set(stats.ipc());
            } else {
                self.obs
                    .counter("sim.ff.instructions")
                    .add(stats.instructions);
                self.obs.counter("sim.ff.segments").inc();
            }
        }
        Ok(stats)
    }

    /// Runs one region, the paper's one operation on a looppoint (§III-F):
    /// fast-forwards (warming caches and predictors unless
    /// [`Simulator::set_ff_warming`] turned that off) to `start`, then
    /// simulates in detail until `end`, and returns the detailed segment's
    /// statistics with this call's warmup accounted in the `ff_*` fields.
    /// Called again on the same simulator, it runs the next region of a
    /// chain: fast-forward over the gap, then detail.
    ///
    /// `start = None` begins the detailed segment where the simulator
    /// stands (program reset, a snapshot taken on the start marker, or the
    /// previous region's end when that is the start marker); `end = None`
    /// runs it to program end. Both marker PCs are watched
    /// here; a simulator resumed from a checkpoint seeds their counts with
    /// [`Simulator::watch_pc_from`] first.
    ///
    /// # Errors
    /// As [`Simulator::run`]; in particular a marker that is never reached
    /// — including a `start` whose seeded count is already past it —
    /// surfaces as [`SimError::MarkerNotReached`].
    pub fn run_region(
        &mut self,
        start: Option<Marker>,
        end: Option<Marker>,
        max_steps: u64,
    ) -> Result<SimStats, SimError> {
        for m in [start, end].into_iter().flatten() {
            self.watch_pc(m.pc);
        }
        let (ff_instructions, ff_wall) = (self.ff_instructions, self.ff_wall);
        if let Some(s) = start {
            self.run(Mode::FastForward, Some(StopCond::Marker(s)), max_steps)?;
        }
        let mut stats = self.run(Mode::Detailed, end.map(StopCond::Marker), max_steps)?;
        stats.ff_instructions -= ff_instructions;
        stats.ff_wall -= ff_wall;
        Ok(stats)
    }

    /// Makes the threads `waker`'s futex wake released schedulable again,
    /// no earlier than the wake itself.
    fn unpark_woken(&mut self, waker: usize) {
        let wake_cycle = self.timing.core_now(waker);
        for tid in 0..self.clocks.len() {
            if self.clocks[tid] == u64::MAX
                && self.machine.thread_state(tid) == ThreadState::Running
            {
                self.timing.advance_core_to(tid, wake_cycle);
                self.clocks[tid] = self.timing.core_now(tid);
            }
        }
    }
}

/// The scheduler's view of a machine on `timing`: each running thread's
/// core clock, `u64::MAX` for threads parked on futexes (they must not be
/// scheduled until woken) or halted.
fn scheduler_clocks(machine: &Machine, timing: &TimingModel) -> Vec<u64> {
    (0..machine.num_threads())
        .map(|tid| match machine.thread_state(tid) {
            ThreadState::Running => timing.core_now(tid),
            _ => u64::MAX,
        })
        .collect()
}

/// Runs a whole program in detailed mode.
///
/// # Errors
/// Propagates any [`SimError`] from the run.
pub fn simulate_full(
    program: Arc<Program>,
    nthreads: usize,
    cfg: SimConfig,
    max_steps: u64,
) -> Result<SimStats, SimError> {
    let mut sim = Simulator::new(program, nthreads, cfg);
    sim.run(Mode::Detailed, None, max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_isa::{AluOp, ProgramBuilder, Reg};
    use lp_omp::{OmpRuntime, WaitPolicy};

    const BUDGET: u64 = 200_000_000;

    /// A small two-phase program: a cache-friendly compute loop, then a
    /// memory-streaming loop over a large array.
    fn two_phase_program(iters: u64) -> (Arc<Program>, Pc) {
        let mut pb = ProgramBuilder::new("two-phase");
        let mut c = pb.main_code();
        c.li(Reg::R1, 1);
        c.counted_loop("compute", Reg::R2, iters, |c| {
            c.alui(AluOp::Mul, Reg::R1, Reg::R1, 3);
            c.alui(AluOp::Add, Reg::R1, Reg::R1, 7);
        });
        c.li(Reg::R3, 0x100_0000); // array base
        let hdr = c.counted_loop("stream", Reg::R2, iters, |c| {
            c.load(Reg::R4, Reg::R3, 0);
            c.alui(AluOp::Add, Reg::R3, Reg::R3, 64);
            c.alu(AluOp::Add, Reg::R1, Reg::R1, Reg::R4);
        });
        c.halt();
        c.finish();
        (Arc::new(pb.finish()), hdr)
    }

    #[test]
    fn full_simulation_produces_sane_stats() {
        let (p, _) = two_phase_program(1000);
        let stats = simulate_full(p, 1, lp_uarch::SimConfig::gainestown(1), BUDGET).unwrap();
        assert!(stats.instructions > 6000);
        assert!(stats.cycles > 0);
        let ipc = stats.ipc();
        assert!(ipc > 0.1 && ipc < 4.0, "ipc={ipc}");
        assert!(stats.mem.loads >= 1000);
        assert!(stats.mem.l1d_misses > 0, "streaming loop must miss");
    }

    #[test]
    fn inorder_is_slower_than_ooo() {
        let (p, _) = two_phase_program(2000);
        let ooo = simulate_full(p.clone(), 1, lp_uarch::SimConfig::gainestown(1), BUDGET).unwrap();
        let ino = simulate_full(p, 1, lp_uarch::SimConfig::gainestown_inorder(1), BUDGET).unwrap();
        assert_eq!(ooo.instructions, ino.instructions, "same functional path");
        assert!(
            ino.cycles > ooo.cycles,
            "in-order {} should exceed OoO {}",
            ino.cycles,
            ooo.cycles
        );
    }

    #[test]
    fn region_simulation_stops_at_marker() {
        let (p, stream_hdr) = two_phase_program(1000);
        // Region = stream iterations 100..=200 (global counts).
        let start = Marker::new(stream_hdr, 100);
        let end = Marker::new(stream_hdr, 200);
        let mut sim = Simulator::new(p, 1, lp_uarch::SimConfig::gainestown(1));
        let stats = sim.run_region(Some(start), Some(end), BUDGET).unwrap();
        // 100 stream iterations x 5 instructions (load/add/add/sub/branch).
        assert_eq!(stats.instructions, 500);
        assert!(stats.ff_instructions > 0, "warmup happened");
    }

    /// Two regions on one simulator: each reports the fast-forward it ran
    /// itself, and the second starts from the first's end marker.
    #[test]
    fn chained_regions_report_their_own_fast_forward() {
        let (p, hdr) = two_phase_program(1000);
        let mut sim = Simulator::new(p, 1, lp_uarch::SimConfig::gainestown(1));
        let first = sim
            .run_region(
                Some(Marker::new(hdr, 100)),
                Some(Marker::new(hdr, 200)),
                BUDGET,
            )
            .unwrap();
        let second = sim
            .run_region(
                Some(Marker::new(hdr, 300)),
                Some(Marker::new(hdr, 400)),
                BUDGET,
            )
            .unwrap();
        let adjacent = sim
            .run_region(None, Some(Marker::new(hdr, 500)), BUDGET)
            .unwrap();
        assert!(first.ff_instructions > 500, "{}", first.ff_instructions);
        // 100 stream iterations of 5 instructions each, between the markers.
        assert_eq!(second.ff_instructions, 500);
        assert_eq!((second.instructions, adjacent.instructions), (500, 500));
        assert_eq!(adjacent.ff_instructions, 0);
        assert_eq!(adjacent.ff_wall, std::time::Duration::ZERO);
    }

    /// `reset_timing` leaves what a cold simulator resumed from a snapshot
    /// of the same machine has: the same next region, cycle for cycle.
    #[test]
    fn reset_timing_is_a_cold_restore() {
        let (p, hdr) = two_phase_program(1000);
        let cfg = lp_uarch::SimConfig::gainestown(1);
        let mut chained = Simulator::new(p.clone(), 1, cfg.clone());
        chained.set_ff_warming(false);
        chained
            .run_region(None, Some(Marker::new(hdr, 200)), BUDGET)
            .unwrap();
        let snapshot = chained.machine().snapshot();
        chained.reset_timing();
        let mut restored = Simulator::from_machine(Machine::from_snapshot(p, &snapshot), cfg);
        restored.watch_pc_from(hdr, 200);
        restored.set_ff_warming(false);
        let region = (Some(Marker::new(hdr, 300)), Some(Marker::new(hdr, 400)));
        let a = chained.run_region(region.0, region.1, BUDGET).unwrap();
        let b = restored.run_region(region.0, region.1, BUDGET).unwrap();
        assert_eq!((a.cycles, a.instructions), (b.cycles, b.instructions));
        assert_eq!((&a.mem, &a.branch), (&b.mem, &b.branch));
        assert_eq!(a.ff_instructions, b.ff_instructions);
    }

    #[test]
    fn marker_not_reached_is_reported() {
        let (p, hdr) = two_phase_program(10);
        let mut sim = Simulator::new(p, 1, lp_uarch::SimConfig::gainestown(1));
        let err = sim
            .run_region(None, Some(Marker::new(hdr, 500)), BUDGET)
            .unwrap_err();
        assert!(matches!(err, SimError::MarkerNotReached { .. }), "{err}");
    }

    #[test]
    fn start_marker_behind_the_seeded_count_is_an_error() {
        let (p, hdr) = two_phase_program(50);
        let mut sim = Simulator::new(p, 1, lp_uarch::SimConfig::gainestown(1));
        // As if resumed from a checkpoint taken after the 20th execution.
        sim.watch_pc_from(hdr, 20);
        let start = Marker::new(hdr, 10);
        let err = sim
            .run_region(Some(start), Some(Marker::new(hdr, 40)), BUDGET)
            .unwrap_err();
        assert!(
            matches!(err, SimError::MarkerNotReached { marker, .. } if marker == start),
            "{err}"
        );
    }

    #[test]
    fn step_limit_is_enforced() {
        let (p, _) = two_phase_program(100_000);
        let err = simulate_full(p, 1, lp_uarch::SimConfig::gainestown(1), 1000).unwrap_err();
        assert!(matches!(err, SimError::StepLimit { limit: 1000 }));
    }

    fn parallel_program(nthreads: usize, policy: WaitPolicy) -> Arc<Program> {
        let mut pb = ProgramBuilder::new("par");
        let mut rt = OmpRuntime::build(&mut pb, nthreads, policy);
        let mut c = pb.main_code();
        rt.emit_main_init(&mut c);
        rt.emit_parallel(&mut c, "work", |c, rt| {
            rt.emit_static_for(c, "work.loop", 4096, |c, _| {
                // idx in r16: touch a shared array.
                c.li(Reg::R1, 0x100_0000);
                c.alui(AluOp::Shl, Reg::R2, Reg::R16, 3);
                c.alu(AluOp::Add, Reg::R1, Reg::R1, Reg::R2);
                c.load(Reg::R3, Reg::R1, 0);
                c.alui(AluOp::Add, Reg::R3, Reg::R3, 1);
                c.store(Reg::R3, Reg::R1, 0);
            });
        });
        rt.emit_shutdown(&mut c);
        c.halt();
        c.finish();
        Arc::new(pb.finish())
    }

    #[test]
    fn multithreaded_simulation_completes_and_scales() {
        let cfg8 = lp_uarch::SimConfig::gainestown(8);
        let s1 = simulate_full(
            parallel_program(1, WaitPolicy::Passive),
            1,
            cfg8.clone(),
            BUDGET,
        )
        .unwrap();
        let s8 = simulate_full(parallel_program(8, WaitPolicy::Passive), 8, cfg8, BUDGET).unwrap();
        assert!(
            (s8.cycles as f64) < s1.cycles as f64 / 2.0,
            "8 threads ({}) should be much faster than 1 ({})",
            s8.cycles,
            s1.cycles
        );
    }

    #[test]
    fn active_policy_retires_spin_instructions() {
        let passive = simulate_full(
            parallel_program(4, WaitPolicy::Passive),
            4,
            lp_uarch::SimConfig::gainestown(4),
            BUDGET,
        )
        .unwrap();
        let active = simulate_full(
            parallel_program(4, WaitPolicy::Active),
            4,
            lp_uarch::SimConfig::gainestown(4),
            BUDGET,
        )
        .unwrap();
        assert!(
            active.instructions > passive.instructions,
            "spinning inflates instruction count: active={} passive={}",
            active.instructions,
            passive.instructions
        );
        // Spin instructions are in the library image, so the *filtered*
        // counts must be close (they differ only by futex-vs-spin runtime
        // code paths, not by application work).
        let diff = (active.filtered_instructions as f64 - passive.filtered_instructions as f64)
            .abs()
            / passive.filtered_instructions as f64;
        assert!(diff < 0.01, "filtered counts nearly equal, diff={diff}");
    }

    #[test]
    fn ipc_sampling_produces_trace() {
        let (p, _) = two_phase_program(5000);
        let mut sim = Simulator::new(p, 1, lp_uarch::SimConfig::gainestown(1));
        sim.set_ipc_sampling(1000);
        let stats = sim.run(Mode::Detailed, None, BUDGET).unwrap();
        assert!(stats.ipc_trace.len() >= 10);
        // The compute phase should have higher IPC than the streaming phase.
        let first = stats.ipc_trace[1].ipc;
        let last = stats.ipc_trace[stats.ipc_trace.len() - 2].ipc;
        assert!(
            first > last,
            "compute IPC {first} should exceed streaming IPC {last}"
        );
    }

    #[test]
    fn watch_counts_accumulate_across_runs() {
        let (p, hdr) = two_phase_program(50);
        let mut sim = Simulator::new(p, 1, lp_uarch::SimConfig::gainestown(1));
        sim.watch_pc(hdr);
        sim.run(
            Mode::FastForward,
            Some(StopCond::Marker(Marker::new(hdr, 10))),
            BUDGET,
        )
        .unwrap();
        assert_eq!(sim.watch_count(hdr), 10);
        sim.run(
            Mode::Detailed,
            Some(StopCond::Marker(Marker::new(hdr, 30))),
            BUDGET,
        )
        .unwrap();
        assert_eq!(sim.watch_count(hdr), 30);
    }

    #[test]
    fn hook_stop_ends_segment_cleanly_and_resumes() {
        let (p, hdr) = two_phase_program(50);
        let mut sim = Simulator::new(p, 1, lp_uarch::SimConfig::gainestown(1));
        sim.watch_pc(hdr);
        let mut seen = 0u64;
        let stats = sim
            .run_with(Mode::FastForward, None, BUDGET, &mut |_| {
                seen += 1;
                seen == 100
            })
            .unwrap();
        assert_eq!(stats.instructions, 100, "hook stop is exact");
        // The same simulator resumes where the hook stopped it.
        let rest = sim.run(Mode::Detailed, None, BUDGET).unwrap();
        assert!(rest.instructions > 0);
        assert_eq!(sim.watch_count(hdr), 50, "watch counts stay exact");
    }

    #[test]
    fn hook_stop_beats_an_unreached_marker() {
        let (p, hdr) = two_phase_program(50);
        let mut sim = Simulator::new(p, 1, lp_uarch::SimConfig::gainestown(1));
        sim.watch_pc(hdr);
        let mut seen = 0u64;
        // The marker would only fire on the 40th header execution; the
        // hook stops after 10 instructions, and that is not an error.
        let stats = sim
            .run_with(
                Mode::FastForward,
                Some(StopCond::Marker(Marker::new(hdr, 40))),
                BUDGET,
                &mut |_| {
                    seen += 1;
                    seen == 10
                },
            )
            .unwrap();
        assert_eq!(stats.instructions, 10);
    }

    #[test]
    fn deterministic_across_runs() {
        let p = parallel_program(4, WaitPolicy::Active);
        let a = simulate_full(p.clone(), 4, lp_uarch::SimConfig::gainestown(4), BUDGET).unwrap();
        let b = simulate_full(p, 4, lp_uarch::SimConfig::gainestown(4), BUDGET).unwrap();
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.cycles, b.cycles);
    }
}
