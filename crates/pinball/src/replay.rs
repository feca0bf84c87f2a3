//! Constrained replay: re-execution that honours the recorded
//! shared-access order.

use crate::pinball::{PinballError, RaceEvent, RaceKind};
use lp_isa::{Machine, MachineState, Program, Retired, StepResult, ThreadState};
use std::sync::Arc;

/// The class of a thread whose next instruction nobody has looked at.
fn runnable(machine: &Machine, tid: usize) -> Class {
    if machine.thread_state(tid) == ThreadState::Running {
        Class::Open
    } else {
        Class::NotRunnable
    }
}

/// What the replayer knows about a thread's next instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Runnable, and not known to be at a shared access: may be run with
    /// [`Machine::step_private`].
    Open,
    /// Runnable, next instruction is a shared access (ordered by the log).
    /// Its address depends on the thread's own registers only, so this
    /// holds until the thread itself steps.
    AtShared,
    /// Blocked or halted.
    NotRunnable,
}

/// Step-wise constrained replayer.
///
/// Scheduling rule: threads whose next instruction is private (registers or
/// private memory) run freely; shared-memory accesses are only allowed in
/// the recorded order. Futex blocks are replayed from the log too, so futex
/// queue order — and therefore wake order — matches the recording exactly.
/// Given the per-thread determinism of the ISA, this reproduces the recorded
/// execution's shared state at every log point.
#[derive(Debug)]
pub struct Replayer<'p> {
    machine: Machine,
    events: &'p [RaceEvent],
    idx: usize,
    class: Vec<Class>,
}

impl<'p> Replayer<'p> {
    /// Builds a replayer from a snapshot plus the log tail starting at
    /// `event_start`. Used by whole-program replay (`event_start = 0`) and
    /// by region checkpoints.
    pub(crate) fn from_state(
        program: Arc<Program>,
        state: &MachineState,
        events: &'p [RaceEvent],
        event_start: usize,
        nthreads: usize,
    ) -> Self {
        let machine = Machine::from_snapshot(program, state);
        let class = (0..nthreads).map(|tid| runnable(&machine, tid)).collect();
        Replayer {
            machine,
            events,
            idx: event_start,
            class,
        }
    }

    /// The underlying machine (read-only).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Index of the next unconsumed race-log entry.
    pub fn event_index(&self) -> usize {
        self.idx
    }

    /// Whether the replayed execution has finished.
    pub fn is_finished(&self) -> bool {
        self.machine.is_finished()
    }

    /// Reclassifies `tid` after its retirement `r`, and the threads `r`
    /// woke if it is a `FutexWake`. Returns whether `tid` must give way:
    /// it halted, or a thread of lower index may have become runnable.
    fn after_retire(&mut self, tid: usize, r: &Retired) -> bool {
        self.class[tid] = runnable(&self.machine, tid);
        let wake = matches!(r.inst, lp_isa::Inst::FutexWake { .. });
        if wake {
            for t in 0..self.class.len() {
                if self.class[t] == Class::NotRunnable {
                    self.class[t] = runnable(&self.machine, t);
                }
            }
        }
        wake || self.class[tid] != Class::Open
    }

    /// Replays forward, pushing every retirement to `on_retire` **by
    /// reference** in global retirement order, until the program finishes
    /// or the callback returns `true` (stop). The callback also sees the
    /// replayer itself, already advanced past the retirement it is shown,
    /// so it can [`snapshot`](Replayer::snapshot) mid-stream. A stopped
    /// replayer resumes exactly where it left off on the next call.
    ///
    /// This is the one scheduling core of the crate: it owns the replay
    /// schedule (the lowest-index thread whose next instruction is
    /// private runs first; with none, the thread the race log names) and
    /// every [`PinballError::Diverged`] check. Threads are classified
    /// lazily: the lowest-index [`Class::Open`] thread runs with
    /// [`Machine::step_private`], which decodes each instruction once and
    /// either executes it or answers `AtShared`, where classifying every
    /// thread after every step decoded everything twice. The [`Retired`]
    /// record is never moved out of the step result — a per-instruction
    /// copy of a record the machine has just written is what used to make
    /// replay three times slower than bare execution.
    ///
    /// # Errors
    /// [`PinballError::Diverged`] if the log cannot be honoured (which, for
    /// a log recorded from the same program and state, indicates a bug).
    pub fn drive(
        &mut self,
        mut on_retire: impl FnMut(&Retired, &Self) -> bool,
    ) -> Result<(), PinballError> {
        fn diverged(at_event: usize, reason: impl Into<String>) -> PinballError {
            PinballError::Diverged {
                at_event,
                reason: reason.into(),
            }
        }
        while !self.machine.is_finished() {
            // Prefer a thread that is off the shared-access critical path,
            // and keep it until it reaches a shared access or gives way.
            // Its steps are matched in place and apart from the logged
            // ones below: the inlined private step then never has to
            // write its record where an out-of-line call would.
            if let Some(tid) = self.class.iter().position(|&c| c == Class::Open) {
                loop {
                    let step = self.machine.step_private(tid);
                    match &step {
                        Err(e) => return Err(e.clone().into()),
                        Ok(StepResult::AtShared) => {
                            self.class[tid] = Class::AtShared;
                            break;
                        }
                        Ok(StepResult::Retired(r)) => {
                            if r.mem.is_some_and(|m| m.shared) {
                                return Err(diverged(
                                    self.idx,
                                    format!(
                                        "free-scheduled thread {tid} performed a shared access"
                                    ),
                                ));
                            }
                            let gives_way = self.after_retire(tid, r);
                            if on_retire(r, self) {
                                return Ok(());
                            }
                            if gives_way {
                                break;
                            }
                        }
                        Ok(StepResult::Blocked) => {
                            return Err(diverged(
                                self.idx,
                                format!("free-scheduled thread {tid} blocked"),
                            ));
                        }
                        Ok(StepResult::Idle) => unreachable!("an open thread is runnable"),
                    }
                }
                continue;
            }

            // Every runnable thread is at a shared access: the race log
            // names the one that goes next.
            let Some(&ev) = self.events.get(self.idx) else {
                // Log exhausted with only shared accesses pending: the
                // recording ended here too, so any remaining runnable
                // work would be divergence.
                let pending = self.class.contains(&Class::AtShared);
                return Err(diverged(
                    self.idx,
                    if pending {
                        "race log exhausted with shared accesses pending"
                    } else {
                        "no runnable thread (deadlock)"
                    },
                ));
            };
            let tid = ev.tid as usize;
            // Matched in place: `?` would move the record out of the result.
            let step = self.machine.step(tid);
            match &step {
                Err(e) => return Err(e.clone().into()),
                Ok(StepResult::Retired(r)) => {
                    let was_shared = r.mem.is_some_and(|m| m.shared);
                    if ev.kind != RaceKind::Access || !was_shared {
                        return Err(diverged(
                            self.idx,
                            format!(
                                "expected {:?} by thread {}, got retirement (shared={})",
                                ev.kind, ev.tid, was_shared
                            ),
                        ));
                    }
                    self.idx += 1;
                    self.after_retire(tid, r);
                    if on_retire(r, self) {
                        return Ok(());
                    }
                }
                Ok(StepResult::Blocked) => {
                    if ev.kind != RaceKind::Block {
                        return Err(diverged(
                            self.idx,
                            format!("expected Access by thread {}, but thread blocked", ev.tid),
                        ));
                    }
                    self.idx += 1;
                    self.class[tid] = Class::NotRunnable;
                    // No retirement; continue scheduling.
                }
                Ok(StepResult::Idle | StepResult::AtShared) => {
                    return Err(diverged(
                        self.idx,
                        format!("log named non-runnable thread {tid}"),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Executes until the next retirement, returning a copy of it — or
    /// `None` when the program has finished. A one-retirement
    /// [`Replayer::drive`]; loops over whole executions should drive the
    /// replayer instead and take each record by reference.
    ///
    /// # Errors
    /// As [`Replayer::drive`].
    pub fn step(&mut self) -> Result<Option<Retired>, PinballError> {
        let mut retired = None;
        self.drive(|r, _| {
            retired = Some(*r);
            true
        })?;
        Ok(retired)
    }

    /// Takes a snapshot of the current machine state plus the replay
    /// position (for region checkpoints).
    pub fn snapshot(&self) -> (MachineState, usize) {
        (self.machine.snapshot(), self.idx)
    }
}

#[cfg(test)]
mod tests {
    use crate::pinball::{Pinball, RecordConfig};
    use lp_isa::{Addr, AluOp, Machine, ProgramBuilder, Reg};
    use lp_omp::{OmpRuntime, WaitPolicy, APP_BASE};
    use std::sync::Arc;

    fn racy_program(nthreads: usize, policy: WaitPolicy) -> Arc<lp_isa::Program> {
        // Threads contend on locks and atomics; the final shared state is
        // schedule-independent but the access *order* is not — exactly what
        // the race log must pin down.
        let mut pb = ProgramBuilder::new("racy");
        let mut rt = OmpRuntime::build(&mut pb, nthreads, policy);
        let mut c = pb.main_code();
        rt.emit_main_init(&mut c);
        rt.emit_dyn_reset(&mut c);
        rt.emit_parallel(&mut c, "work", |c, rt| {
            rt.emit_dynamic_for(c, "work.loop", 64, 3, |c, rt| {
                c.li(Reg::R1, APP_BASE as i64);
                c.li(Reg::R2, 1);
                c.atomic_add(Reg::R3, Reg::R1, 0, Reg::R2);
                rt.emit_critical(c, lp_omp::LockId(1), |c, _| {
                    c.load(Reg::R4, Reg::R1, 8);
                    c.alui(AluOp::Add, Reg::R4, Reg::R4, 2);
                    c.store(Reg::R4, Reg::R1, 8);
                });
            });
        });
        rt.emit_shutdown(&mut c);
        c.halt();
        c.finish();
        Arc::new(pb.finish())
    }

    #[test]
    fn record_then_replay_matches_instruction_counts() {
        for policy in [WaitPolicy::Passive, WaitPolicy::Active] {
            let p = racy_program(4, policy);
            let pb = Pinball::record(&p, 4, RecordConfig::default()).unwrap();
            let stats = pb.replay(p.clone(), &mut [], u64::MAX).unwrap();
            assert_eq!(
                stats.instructions,
                pb.instructions(),
                "replay must retire exactly the recorded stream ({policy})"
            );
        }
    }

    #[test]
    fn replay_reproduces_final_memory() {
        let p = racy_program(4, WaitPolicy::Passive);
        let pb = Pinball::record(&p, 4, RecordConfig::default()).unwrap();
        let mut rep = pb.replayer(p.clone());
        while rep.step().unwrap().is_some() {}
        assert!(rep.is_finished());
        assert_eq!(rep.machine().mem().load(Addr(APP_BASE)), 64);
        assert_eq!(rep.machine().mem().load(Addr(APP_BASE + 8)), 128);
    }

    #[test]
    fn replay_is_deterministic_across_runs() {
        let p = racy_program(8, WaitPolicy::Active);
        let pb = Pinball::record(&p, 8, RecordConfig::default()).unwrap();
        let a = pb.replay(p.clone(), &mut [], u64::MAX).unwrap();
        let b = pb.replay(p.clone(), &mut [], u64::MAX).unwrap();
        assert_eq!(a, b, "two replays are bit-identical");
        assert_eq!(a.per_thread, b.per_thread);
    }

    #[test]
    fn different_quanta_record_different_interleavings_same_result() {
        // Recording on "different hosts" (different flow-control quanta)
        // yields different race logs but the same functional outcome.
        let p = racy_program(4, WaitPolicy::Passive);
        let pb1 = Pinball::record(
            &p,
            4,
            RecordConfig {
                quantum: 13,
                ..Default::default()
            },
        )
        .unwrap();
        let pb2 = Pinball::record(
            &p,
            4,
            RecordConfig {
                quantum: 173,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(
            pb1.events(),
            pb2.events(),
            "hosts interleave shared accesses differently"
        );
        let mut r1 = pb1.replayer(p.clone());
        while r1.step().unwrap().is_some() {}
        let mut r2 = pb2.replayer(p.clone());
        while r2.step().unwrap().is_some() {}
        assert_eq!(
            r1.machine().mem().load(Addr(APP_BASE)),
            r2.machine().mem().load(Addr(APP_BASE))
        );
    }

    #[test]
    fn single_threaded_pinball_has_no_blocks() {
        let mut pbuild = ProgramBuilder::new("st");
        let mut c = pbuild.main_code();
        c.li(Reg::R1, 0x40);
        c.counted_loop("l", Reg::R2, 10, |c| {
            c.load(Reg::R3, Reg::R1, 0);
            c.alui(AluOp::Add, Reg::R3, Reg::R3, 1);
            c.store(Reg::R3, Reg::R1, 0);
        });
        c.halt();
        c.finish();
        let p = Arc::new(pbuild.finish());
        let pb = Pinball::record(&p, 1, RecordConfig::default()).unwrap();
        assert!(pb
            .events()
            .iter()
            .all(|e| e.kind == crate::pinball::RaceKind::Access));
        assert_eq!(pb.events().len(), 20, "10 loads + 10 stores");
        let stats = pb.replay(p, &mut [], u64::MAX).unwrap();
        assert_eq!(stats.instructions, pb.instructions());
    }

    #[test]
    fn recording_does_not_perturb_program_results() {
        // The recorded program's functional result equals a plain run.
        let p = racy_program(4, WaitPolicy::Passive);
        let mut plain = Machine::new(p.clone(), 4);
        plain.run_to_completion(u64::MAX).unwrap();
        let pb = Pinball::record(&p, 4, RecordConfig::default()).unwrap();
        let mut rep = pb.replayer(p);
        while rep.step().unwrap().is_some() {}
        assert_eq!(
            plain.mem().load(Addr(APP_BASE)),
            rep.machine().mem().load(Addr(APP_BASE))
        );
    }
}
