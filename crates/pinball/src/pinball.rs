//! Pinball recording.

use crate::observer::ExecObserver;
use crate::replay::Replayer;
use lp_isa::{Machine, MachineError, MachineState, Program, StepResult, ThreadState};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Kind of a race-log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// A retired access to shared memory (load, store, atomic, futex op).
    Access,
    /// A futex wait that put the thread to sleep (no retirement). Logged so
    /// replay reproduces futex queue order, which determines wake order.
    Block,
}

/// One entry of the shared-memory order log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceEvent {
    /// The thread that performed the access (or blocked).
    pub tid: u32,
    /// Entry kind.
    pub kind: RaceKind,
}

/// Errors raised while recording or replaying pinballs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PinballError {
    /// The functional machine faulted.
    Machine(MachineError),
    /// Replay state stopped matching the recorded log.
    Diverged {
        /// Index of the log entry that could not be honoured.
        at_event: usize,
        /// Explanation of the mismatch.
        reason: String,
    },
    /// The step budget was exhausted.
    StepLimit {
        /// The exhausted budget.
        limit: u64,
    },
    /// A requested `(PC, count)` point was never reached during replay.
    MarkerNotReached {
        /// Times the marker PC executed before the program ended.
        executed: u64,
    },
}

impl fmt::Display for PinballError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinballError::Machine(e) => write!(f, "machine fault: {e}"),
            PinballError::Diverged { at_event, reason } => {
                write!(f, "replay diverged at event {at_event}: {reason}")
            }
            PinballError::StepLimit { limit } => write!(f, "step limit of {limit} exhausted"),
            PinballError::MarkerNotReached { executed } => {
                write!(f, "marker not reached (pc executed {executed} times)")
            }
        }
    }
}

impl Error for PinballError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PinballError::Machine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MachineError> for PinballError {
    fn from(e: MachineError) -> Self {
        PinballError::Machine(e)
    }
}

/// Recording parameters.
#[derive(Debug, Clone, Copy)]
pub struct RecordConfig {
    /// Flow-control quantum: instructions each thread may retire before the
    /// recorder rotates to the next thread (§III-B equal-progress).
    pub quantum: u64,
    /// Hard budget on total retired instructions.
    pub max_steps: u64,
}

impl Default for RecordConfig {
    fn default() -> Self {
        RecordConfig {
            quantum: 61,
            max_steps: 2_000_000_000,
        }
    }
}

/// Statistics from a full replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Total instructions retired.
    pub instructions: u64,
    /// Instructions retired per thread.
    pub per_thread: Vec<u64>,
}

/// A recorded, replayable multi-threaded execution.
///
/// Self-contained in the paper's sense: holds the initial architectural
/// state and the shared-access order; replay needs the [`Program`] only as
/// the instruction source (the in-memory stand-in for the pinball's `.text`
/// section).
///
/// ```
/// use lp_isa::{ProgramBuilder, Reg, AluOp};
/// use lp_pinball::{Pinball, RecordConfig};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), lp_pinball::PinballError> {
/// let mut pb = ProgramBuilder::new("demo");
/// let mut c = pb.main_code();
/// c.counted_loop("l", Reg::R1, 10, |c| {
///     c.alui(AluOp::Add, Reg::R2, Reg::R2, 1);
/// });
/// c.halt();
/// c.finish();
/// let program = Arc::new(pb.finish());
///
/// let pinball = Pinball::record(&program, 1, RecordConfig::default())?;
/// let stats = pinball.replay(program, &mut [], u64::MAX)?;
/// assert_eq!(stats.instructions, pinball.instructions());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pinball {
    name: String,
    nthreads: usize,
    start: MachineState,
    events: Vec<RaceEvent>,
    instructions: u64,
}

impl Pinball {
    /// Records `program` executing with `nthreads` threads under
    /// flow-controlled round-robin scheduling.
    ///
    /// # Errors
    /// Machine faults, deadlock, or an exhausted step budget.
    pub fn record(
        program: &Arc<Program>,
        nthreads: usize,
        cfg: RecordConfig,
    ) -> Result<Pinball, PinballError> {
        Pinball::record_with(program, nthreads, cfg, &mut [])
    }

    /// [`Pinball::record`], feeding every retirement to `observers` as the
    /// recording executes it — in *recording* order, which is not the order
    /// a replay hands out (see [`ExecObserver`]).
    ///
    /// # Errors
    /// As [`Pinball::record`].
    pub fn record_with(
        program: &Arc<Program>,
        nthreads: usize,
        cfg: RecordConfig,
        observers: &mut [&mut dyn ExecObserver],
    ) -> Result<Pinball, PinballError> {
        let obs = lp_obs::global();
        let mut span = obs.span("pinball.record", "pinball");
        span.arg("nthreads", nthreads);
        let mut machine = Machine::new(program.clone(), nthreads);
        let start = machine.snapshot();
        let mut events = Vec::new();
        let mut instructions: u64 = 0;
        let mut tid = 0usize;

        'outer: while !machine.is_finished() {
            if instructions >= cfg.max_steps {
                return Err(PinballError::StepLimit {
                    limit: cfg.max_steps,
                });
            }
            // Rotate to the next runnable thread.
            let mut probes = 0;
            while machine.thread_state(tid) != ThreadState::Running {
                tid = (tid + 1) % nthreads;
                probes += 1;
                if probes > nthreads {
                    debug_assert!(machine.is_deadlocked());
                    return Err(PinballError::Machine(MachineError::Deadlock));
                }
            }
            // Run one quantum on this thread.
            for _ in 0..cfg.quantum {
                // Matched in place: `?` would move the record out of the
                // result (see `Replayer::drive`).
                let step = machine.step(tid);
                match &step {
                    Err(e) => return Err(e.clone().into()),
                    Ok(StepResult::Retired(r)) => {
                        instructions += 1;
                        if r.mem.is_some_and(|m| m.shared) {
                            events.push(RaceEvent {
                                tid: tid as u32,
                                kind: RaceKind::Access,
                            });
                        }
                        for observer in observers.iter_mut() {
                            observer.on_retire(r);
                        }
                        if machine.is_finished() {
                            break 'outer;
                        }
                        if machine.thread_state(tid) != ThreadState::Running {
                            break; // thread halted
                        }
                    }
                    Ok(StepResult::Blocked) => {
                        events.push(RaceEvent {
                            tid: tid as u32,
                            kind: RaceKind::Block,
                        });
                        break;
                    }
                    Ok(StepResult::Idle | StepResult::AtShared) => break,
                }
            }
            tid = (tid + 1) % nthreads;
        }

        span.arg("instructions", instructions);
        span.arg("events", events.len());
        obs.counter("pinball.recorded_instructions")
            .add(instructions);
        obs.counter("pinball.race_events").add(events.len() as u64);
        Ok(Pinball {
            name: program.name().to_string(),
            nthreads,
            start,
            events,
            instructions,
        })
    }

    /// Reassembles a pinball from deserialized parts (crate-internal).
    pub(crate) fn from_parts(
        name: String,
        nthreads: usize,
        start: MachineState,
        events: Vec<RaceEvent>,
        instructions: u64,
    ) -> Pinball {
        Pinball {
            name,
            nthreads,
            start,
            events,
            instructions,
        }
    }

    /// The recorded program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Thread count the execution was recorded with.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Total instructions retired during recording.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The shared-access order log.
    pub fn events(&self) -> &[RaceEvent] {
        &self.events
    }

    /// The architectural snapshot replay starts from.
    pub fn start_state(&self) -> &MachineState {
        &self.start
    }

    /// Creates a constrained replayer positioned at the start of the
    /// recording.
    pub fn replayer(&self, program: Arc<Program>) -> Replayer<'_> {
        Replayer::from_state(program, &self.start, &self.events, 0, self.nthreads)
    }

    /// Replays the whole pinball, feeding every retirement to `observers`
    /// through [`ExecObserver::on_replayed`].
    ///
    /// # Errors
    /// Replay divergence, machine faults, or budget exhaustion.
    pub fn replay(
        &self,
        program: Arc<Program>,
        observers: &mut [&mut dyn ExecObserver],
        max_steps: u64,
    ) -> Result<ReplayStats, PinballError> {
        let trace = lp_obs::global();
        let mut span = trace.span("pinball.replay", "pinball");
        let mut rep = self.replayer(program);
        let mut stats = ReplayStats {
            per_thread: vec![0; self.nthreads],
            ..Default::default()
        };
        rep.drive(|r, rep| {
            stats.instructions += 1;
            stats.per_thread[r.tid] += 1;
            for obs in observers.iter_mut() {
                obs.on_replayed(r, rep);
            }
            stats.instructions > max_steps
        })?;
        if stats.instructions > max_steps {
            return Err(PinballError::StepLimit { limit: max_steps });
        }
        span.arg("instructions", stats.instructions);
        trace
            .counter("pinball.replayed_instructions")
            .add(stats.instructions);
        Ok(stats)
    }
}
