//! The functional multi-threaded virtual machine.
//!
//! A [`Machine`] executes a [`Program`] one instruction at a time on a fixed
//! pool of threads. It deliberately has **no scheduler**: the caller picks
//! which thread to step, so record/replay, flow-controlled profiling, and
//! timing-driven simulation can each impose their own interleaving. Every
//! retired instruction is returned as a [`Retired`] record — the observation
//! stream a Pin tool would see.

use crate::addr::{Addr, Pc};
use crate::error::MachineError;
use crate::inst::{CtrlKind, Inst, InstClass, Reg, RegFile};
use crate::mem::{FrozenMemory, Memory};
use crate::program::Program;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Maximum call-stack depth per thread.
const CALL_STACK_LIMIT: usize = 1 << 16;

/// Scheduling state of one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Ready to execute.
    Running,
    /// Asleep on a futex word.
    Blocked {
        /// The futex address the thread sleeps on.
        addr: Addr,
    },
    /// Finished (executed `Halt`).
    Halted,
}

/// A memory access performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Word-aligned effective address.
    pub addr: Addr,
    /// Whether the access writes memory (atomics both read and write).
    pub write: bool,
    /// Whether the access is an atomic read-modify-write.
    pub atomic: bool,
    /// Whether the address lies in the shared region of the layout.
    pub shared: bool,
}

/// A control transfer performed by a retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrlEvent {
    /// Kind of transfer (taken/not-taken conditional, jump, call, return).
    pub kind: CtrlKind,
    /// The PC control continued at.
    pub target: Pc,
}

/// Everything an observer needs to know about one retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Executing thread.
    pub tid: usize,
    /// PC of the retired instruction.
    pub pc: Pc,
    /// The instruction itself (instructions are small and `Copy`).
    pub inst: Inst,
    /// Timing class.
    pub class: InstClass,
    /// PC the thread continues at ([`Pc::INVALID`] after `Halt`).
    pub next_pc: Pc,
    /// Memory access, if the instruction touched memory.
    pub mem: Option<MemAccess>,
    /// Control transfer, if the instruction redirected control.
    pub ctrl: Option<CtrlEvent>,
    /// Global retirement sequence number (total order over all threads).
    pub global_seq: u64,
}

/// Result of stepping one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// An instruction retired.
    Retired(Retired),
    /// The thread blocked on a futex (nothing retired; the futex
    /// instruction re-executes after wake-up).
    Blocked,
    /// The thread had already halted or was blocked; nothing happened.
    Idle,
    /// Only from [`Machine::step_private`]: the thread's next instruction
    /// accesses shared memory, and nothing happened — no register, memory,
    /// futex-queue or counter changed.
    AtShared,
}

#[derive(Debug, Clone)]
pub(crate) struct ThreadCtx {
    pub(crate) regs: RegFile,
    pub(crate) pc: Pc,
    pub(crate) state: ThreadState,
    pub(crate) call_stack: Vec<Pc>,
    pub(crate) retired: u64,
}

/// An opaque, restorable snapshot of a machine's full architectural state.
///
/// This is the in-memory equivalent of a pinball's register + memory files:
/// `lp-pinball` wraps it with the logs that make replay deterministic.
/// Memory pages are shared, read-only, with the machine and with every
/// other snapshot that saw the same page contents, so cloning a state
/// copies no page.
#[derive(Debug, Clone)]
pub struct MachineState {
    pub(crate) mem: FrozenMemory,
    pub(crate) threads: Vec<ThreadCtx>,
    pub(crate) futex_waiters: HashMap<u64, VecDeque<usize>>,
    pub(crate) global_seq: u64,
    pub(crate) live_threads: usize,
}

/// The functional VM. See the module-level docs for the execution model.
#[derive(Debug, Clone)]
pub struct Machine {
    program: Arc<Program>,
    mem: Memory,
    threads: Vec<ThreadCtx>,
    futex_waiters: HashMap<u64, VecDeque<usize>>,
    global_seq: u64,
    live_threads: usize,
}

impl Machine {
    /// Creates a machine running `program` on a pool of `nthreads` threads.
    ///
    /// Thread 0 starts at the main entry; threads 1.. start at the worker
    /// entry. Initial data from the program is applied to memory.
    ///
    /// # Panics
    /// Panics if `nthreads > 1` but the program declares no worker entry,
    /// or if `nthreads == 0`.
    pub fn new(program: Arc<Program>, nthreads: usize) -> Self {
        assert!(nthreads > 0, "machine needs at least one thread");
        let worker = program.entry_worker();
        assert!(
            nthreads == 1 || worker.is_some(),
            "multi-threaded machine requires a worker entry point"
        );
        let mut mem = Memory::new();
        for &(addr, word) in program.init_data() {
            mem.store(addr, word);
        }
        let threads = (0..nthreads)
            .map(|tid| ThreadCtx {
                regs: RegFile::default(),
                pc: if tid == 0 {
                    program.entry_main()
                } else {
                    worker.expect("checked above")
                },
                state: ThreadState::Running,
                call_stack: Vec::new(),
                retired: 0,
            })
            .collect();
        Machine {
            program,
            mem,
            threads,
            futex_waiters: HashMap::new(),
            global_seq: 0,
            live_threads: nthreads,
        }
    }

    /// The program this machine executes.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Number of threads in the pool.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Number of threads that have not halted.
    pub fn live_threads(&self) -> usize {
        self.live_threads
    }

    /// Whether every thread has halted.
    pub fn is_finished(&self) -> bool {
        self.live_threads == 0
    }

    /// Whether live threads exist but none is runnable (futex deadlock).
    pub fn is_deadlocked(&self) -> bool {
        self.live_threads > 0 && !self.threads.iter().any(|t| t.state == ThreadState::Running)
    }

    /// The scheduling state of thread `tid`.
    pub fn thread_state(&self, tid: usize) -> ThreadState {
        self.threads[tid].state
    }

    /// Thread ids currently runnable.
    pub fn runnable_threads(&self) -> impl Iterator<Item = usize> + '_ {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == ThreadState::Running)
            .map(|(tid, _)| tid)
    }

    /// Register file of thread `tid`.
    pub fn regs(&self, tid: usize) -> &RegFile {
        &self.threads[tid].regs
    }

    /// Mutable register file of thread `tid` (used by test harnesses).
    pub fn regs_mut(&mut self, tid: usize) -> &mut RegFile {
        &mut self.threads[tid].regs
    }

    /// Current PC of thread `tid`.
    pub fn pc(&self, tid: usize) -> Pc {
        self.threads[tid].pc
    }

    /// Instructions retired so far by thread `tid`.
    pub fn retired(&self, tid: usize) -> u64 {
        self.threads[tid].retired
    }

    /// Global retirement count across all threads.
    pub fn global_retired(&self) -> u64 {
        self.global_seq
    }

    /// Read-only view of memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable view of memory (used by test harnesses and loaders).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Takes a restorable snapshot of the full architectural state. Costs
    /// one 4 KiB copy per page stored to since the previous snapshot; every
    /// other page is shared.
    pub fn snapshot(&self) -> MachineState {
        MachineState {
            mem: self.mem.freeze(),
            threads: self.threads.clone(),
            futex_waiters: self.futex_waiters.clone(),
            global_seq: self.global_seq,
            live_threads: self.live_threads,
        }
    }

    /// Reconstructs a machine from a snapshot and the program it came from.
    pub fn from_snapshot(program: Arc<Program>, state: &MachineState) -> Self {
        Machine {
            program,
            mem: Memory::thaw(&state.mem),
            threads: state.threads.clone(),
            futex_waiters: state.futex_waiters.clone(),
            global_seq: state.global_seq,
            live_threads: state.live_threads,
        }
    }

    fn effective_addr(&self, tid: usize, base: Reg, off: i64) -> Addr {
        Addr(self.threads[tid].regs[base].wrapping_add(off as u64)).align_word()
    }

    fn access(&self, tid: usize, base: Reg, off: i64, write: bool, atomic: bool) -> MemAccess {
        let addr = self.effective_addr(tid, base, off);
        MemAccess {
            addr,
            write,
            atomic,
            shared: self.program.layout().is_shared(addr),
        }
    }

    /// Executes one instruction on thread `tid`.
    ///
    /// Deliberately not `#[inline]`: no pass gains from it end to end,
    /// while [`Machine::run_to_completion`] would drop the [`Retired`]
    /// record and the ledger's bare-VM speed, the yardstick of every other
    /// layer, would double for a loop no pass runs (DESIGN.md §3).
    ///
    /// # Errors
    /// Returns [`MachineError`] for invalid thread ids, invalid PCs, and
    /// call-stack violations. Stepping a blocked or halted thread is not an
    /// error; it returns [`StepResult::Idle`].
    pub fn step(&mut self, tid: usize) -> Result<StepResult, MachineError> {
        self.step_gated::<false>(tid)
    }

    /// [`Machine::step`], unless the instruction accesses shared memory:
    /// then nothing executes and the answer is [`StepResult::AtShared`].
    ///
    /// Constrained (pinball) replay runs threads with this until they reach
    /// the recorded shared-access order, so classifying an instruction and
    /// executing it share one fetch, decode and effective address. It is
    /// `#[inline]` so that the replayer's loop sees through the call.
    ///
    /// # Errors
    /// As [`Machine::step`].
    #[inline]
    pub fn step_private(&mut self, tid: usize) -> Result<StepResult, MachineError> {
        self.step_gated::<true>(tid)
    }

    /// The one body that executes instructions. With `PRIVATE_ONLY`, every
    /// memory instruction answers [`StepResult::AtShared`] in place of its
    /// first side effect when its effective address is shared.
    #[inline(always)]
    fn step_gated<const PRIVATE_ONLY: bool>(
        &mut self,
        tid: usize,
    ) -> Result<StepResult, MachineError> {
        // The effective access of a memory instruction, behind the gate.
        macro_rules! access {
            ($base:expr, $off:expr, $write:expr, $atomic:expr) => {{
                let acc = self.access(tid, $base, $off, $write, $atomic);
                if PRIVATE_ONLY && acc.shared {
                    return Ok(StepResult::AtShared);
                }
                acc
            }};
        }
        if tid >= self.threads.len() {
            return Err(MachineError::BadThread {
                tid,
                nthreads: self.threads.len(),
            });
        }
        if self.threads[tid].state != ThreadState::Running {
            return Ok(StepResult::Idle);
        }
        let pc = self.threads[tid].pc;
        let inst = *self
            .program
            .inst(pc)
            .ok_or(MachineError::InvalidPc { tid, pc })?;

        let mut next_pc = pc.next();
        let mut mem_access: Option<MemAccess> = None;
        let mut ctrl: Option<CtrlEvent> = None;

        match inst {
            Inst::Nop | Inst::Pause | Inst::Fence => {}
            Inst::Halt => {
                self.threads[tid].state = ThreadState::Halted;
                self.live_threads -= 1;
                next_pc = Pc::INVALID;
            }
            Inst::Li { rd, imm } => {
                self.threads[tid].regs[rd] = imm as u64;
            }
            Inst::Alu { op, rd, ra, rb } => {
                let (a, b) = (self.threads[tid].regs[ra], self.threads[tid].regs[rb]);
                self.threads[tid].regs[rd] = op.apply(a, b);
            }
            Inst::AluI { op, rd, ra, imm } => {
                let a = self.threads[tid].regs[ra];
                self.threads[tid].regs[rd] = op.apply(a, imm as u64);
            }
            Inst::Fpu { op, rd, ra, rb } => {
                let (a, b) = (self.threads[tid].regs[ra], self.threads[tid].regs[rb]);
                self.threads[tid].regs[rd] = op.apply(a, b);
            }
            Inst::Load { rd, base, off } => {
                let acc = access!(base, off, false, false);
                self.threads[tid].regs[rd] = self.mem.load(acc.addr);
                mem_access = Some(acc);
            }
            Inst::Store { rs, base, off } => {
                let acc = access!(base, off, true, false);
                self.mem.store(acc.addr, self.threads[tid].regs[rs]);
                mem_access = Some(acc);
            }
            Inst::Branch {
                cond,
                ra,
                rb,
                target,
            } => {
                let (a, b) = (self.threads[tid].regs[ra], self.threads[tid].regs[rb]);
                let taken = cond.eval(a, b);
                if taken {
                    next_pc = target;
                }
                ctrl = Some(CtrlEvent {
                    kind: if taken {
                        CtrlKind::CondTaken
                    } else {
                        CtrlKind::CondNotTaken
                    },
                    target: next_pc,
                });
            }
            Inst::Jump { target } => {
                next_pc = target;
                ctrl = Some(CtrlEvent {
                    kind: CtrlKind::Jump,
                    target,
                });
            }
            Inst::Call { target } => {
                if self.threads[tid].call_stack.len() >= CALL_STACK_LIMIT {
                    return Err(MachineError::CallStackOverflow { tid, pc });
                }
                self.threads[tid].call_stack.push(pc.next());
                next_pc = target;
                ctrl = Some(CtrlEvent {
                    kind: CtrlKind::Call,
                    target,
                });
            }
            Inst::CallInd { ra } => {
                if self.threads[tid].call_stack.len() >= CALL_STACK_LIMIT {
                    return Err(MachineError::CallStackOverflow { tid, pc });
                }
                let target = Pc::from_word(self.threads[tid].regs[ra]);
                self.threads[tid].call_stack.push(pc.next());
                next_pc = target;
                ctrl = Some(CtrlEvent {
                    kind: CtrlKind::Call,
                    target,
                });
            }
            Inst::Ret => {
                let ret = self.threads[tid]
                    .call_stack
                    .pop()
                    .ok_or(MachineError::CallStackUnderflow { tid, pc })?;
                next_pc = ret;
                ctrl = Some(CtrlEvent {
                    kind: CtrlKind::Ret,
                    target: ret,
                });
            }
            Inst::Tid { rd } => {
                self.threads[tid].regs[rd] = tid as u64;
            }
            Inst::AtomicAdd { rd, base, off, rs } => {
                let acc = access!(base, off, true, true);
                let old = self.mem.load(acc.addr);
                let add = self.threads[tid].regs[rs];
                self.mem.store(acc.addr, old.wrapping_add(add));
                self.threads[tid].regs[rd] = old;
                mem_access = Some(acc);
            }
            Inst::AtomicXchg { rd, base, off, rs } => {
                let acc = access!(base, off, true, true);
                let old = self.mem.load(acc.addr);
                self.mem.store(acc.addr, self.threads[tid].regs[rs]);
                self.threads[tid].regs[rd] = old;
                mem_access = Some(acc);
            }
            Inst::AtomicCas {
                rd,
                base,
                off,
                expected,
                new,
            } => {
                let acc = access!(base, off, true, true);
                let old = self.mem.load(acc.addr);
                if old == self.threads[tid].regs[expected] {
                    self.mem.store(acc.addr, self.threads[tid].regs[new]);
                }
                self.threads[tid].regs[rd] = old;
                mem_access = Some(acc);
            }
            Inst::FutexWait {
                base,
                off,
                expected,
            } => {
                let acc = access!(base, off, false, true);
                if self.mem.load(acc.addr) == self.threads[tid].regs[expected] {
                    // Sleep; the instruction re-executes after wake-up.
                    self.threads[tid].state = ThreadState::Blocked { addr: acc.addr };
                    self.futex_waiters
                        .entry(acc.addr.0)
                        .or_default()
                        .push_back(tid);
                    return Ok(StepResult::Blocked);
                }
                mem_access = Some(acc);
            }
            Inst::FutexWake { base, off, count } => {
                let acc = access!(base, off, false, true);
                if let Some(q) = self.futex_waiters.get_mut(&acc.addr.0) {
                    for _ in 0..count {
                        match q.pop_front() {
                            Some(w) => self.threads[w].state = ThreadState::Running,
                            None => break,
                        }
                    }
                    if q.is_empty() {
                        self.futex_waiters.remove(&acc.addr.0);
                    }
                }
                mem_access = Some(acc);
            }
        }

        self.threads[tid].pc = next_pc;
        self.threads[tid].retired += 1;
        let seq = self.global_seq;
        self.global_seq += 1;

        Ok(StepResult::Retired(Retired {
            tid,
            pc,
            inst,
            class: inst.class(),
            next_pc,
            mem: mem_access,
            ctrl,
            global_seq: seq,
        }))
    }

    /// Runs a single-threaded machine to completion, returning the number of
    /// retired instructions.
    ///
    /// Convenience for tests and single-threaded workloads; multi-threaded
    /// execution needs a scheduler (see `lp-pinball` and `lp-sim`).
    ///
    /// # Errors
    /// Propagates the first [`MachineError`]; also errors on deadlock.
    pub fn run_to_completion(&mut self, max_steps: u64) -> Result<u64, MachineError> {
        let n = self.threads.len();
        let mut steps = 0;
        let mut tid = 0;
        while !self.is_finished() && steps < max_steps {
            // Rotate to the next runnable thread (fair round-robin, so
            // active spin loops cannot starve the thread they wait on).
            let start = tid;
            while self.threads[tid].state != ThreadState::Running {
                tid = (tid + 1) % n;
                if tid == start {
                    return Err(MachineError::Deadlock);
                }
            }
            self.step(tid)?;
            steps += 1;
            tid = (tid + 1) % n;
        }
        Ok(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{AluOp, Cond};

    fn run_main(pb: ProgramBuilder) -> Machine {
        let mut m = Machine::new(Arc::new(pb.finish()), 1);
        m.run_to_completion(1_000_000).unwrap();
        assert!(m.is_finished());
        m
    }

    #[test]
    fn arithmetic_program() {
        let mut pb = ProgramBuilder::new("t");
        let mut c = pb.main_code();
        c.li(Reg::R1, 6);
        c.li(Reg::R2, 7);
        c.alu(AluOp::Mul, Reg::R3, Reg::R1, Reg::R2);
        c.alui(AluOp::Add, Reg::R3, Reg::R3, 100);
        c.halt();
        c.finish();
        let m = run_main(pb);
        assert_eq!(m.regs(0)[Reg::R3], 142);
    }

    #[test]
    fn loads_and_stores() {
        let mut pb = ProgramBuilder::new("t");
        pb.data(Addr(0x100), &[11, 22]);
        let mut c = pb.main_code();
        c.li(Reg::R1, 0x100);
        c.load(Reg::R2, Reg::R1, 0);
        c.load(Reg::R3, Reg::R1, 8);
        c.alu_add(Reg::R4, Reg::R2, Reg::R3);
        c.store(Reg::R4, Reg::R1, 16);
        c.halt();
        c.finish();
        let m = run_main(pb);
        assert_eq!(m.mem().load(Addr(0x110)), 33);
    }

    #[test]
    fn loop_and_branch() {
        let mut pb = ProgramBuilder::new("t");
        let mut c = pb.main_code();
        c.li(Reg::R1, 0);
        c.li(Reg::R2, 0);
        c.counted_loop("l", Reg::R3, 100, |c| {
            c.alu_add(Reg::R1, Reg::R1, Reg::R2);
            c.alui_add(Reg::R2, Reg::R2, 1);
        });
        c.halt();
        c.finish();
        let m = run_main(pb);
        assert_eq!(m.regs(0)[Reg::R1], 4950);
    }

    #[test]
    fn zero_trip_loop_skips_body() {
        let mut pb = ProgramBuilder::new("t");
        let mut c = pb.main_code();
        c.li(Reg::R1, 0);
        c.counted_loop("l", Reg::R3, 0, |c| {
            c.alui_add(Reg::R1, Reg::R1, 1);
        });
        c.halt();
        c.finish();
        let m = run_main(pb);
        assert_eq!(m.regs(0)[Reg::R1], 0);
    }

    #[test]
    fn call_and_ret() {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.new_label();
        let mut c = pb.main_code();
        c.li(Reg::R1, 10);
        c.call(f);
        c.call(f);
        c.halt();
        c.bind(f);
        c.alui_add(Reg::R1, Reg::R1, 5);
        c.ret();
        c.finish();
        let m = run_main(pb);
        assert_eq!(m.regs(0)[Reg::R1], 20);
    }

    #[test]
    fn ret_underflow_errors() {
        let mut pb = ProgramBuilder::new("t");
        let mut c = pb.main_code();
        c.ret();
        c.finish();
        let mut m = Machine::new(Arc::new(pb.finish()), 1);
        m.step(0).unwrap(); // prologue li
        let err = m.step(0).unwrap_err();
        assert!(matches!(err, MachineError::CallStackUnderflow { .. }));
    }

    #[test]
    fn atomics() {
        let mut pb = ProgramBuilder::new("t");
        let mut c = pb.main_code();
        c.li(Reg::R1, 0x40);
        c.li(Reg::R2, 5);
        c.atomic_add(Reg::R3, Reg::R1, 0, Reg::R2); // old=0, mem=5
        c.atomic_add(Reg::R4, Reg::R1, 0, Reg::R2); // old=5, mem=10
        c.li(Reg::R5, 10);
        c.li(Reg::R6, 99);
        c.atomic_cas(Reg::R7, Reg::R1, 0, Reg::R5, Reg::R6); // swaps, old=10
        c.atomic_xchg(Reg::R8, Reg::R1, 0, Reg::R2); // old=99, mem=5
        c.halt();
        c.finish();
        let m = run_main(pb);
        assert_eq!(m.regs(0)[Reg::R3], 0);
        assert_eq!(m.regs(0)[Reg::R4], 5);
        assert_eq!(m.regs(0)[Reg::R7], 10);
        assert_eq!(m.regs(0)[Reg::R8], 99);
        assert_eq!(m.mem().load(Addr(0x40)), 5);
    }

    #[test]
    fn cas_failure_leaves_memory() {
        let mut pb = ProgramBuilder::new("t");
        let mut c = pb.main_code();
        c.li(Reg::R1, 0x40);
        c.li(Reg::R2, 7);
        c.store(Reg::R2, Reg::R1, 0);
        c.li(Reg::R5, 999); // wrong expected
        c.li(Reg::R6, 1);
        c.atomic_cas(Reg::R7, Reg::R1, 0, Reg::R5, Reg::R6);
        c.halt();
        c.finish();
        let m = run_main(pb);
        assert_eq!(m.regs(0)[Reg::R7], 7, "old value returned");
        assert_eq!(m.mem().load(Addr(0x40)), 7, "memory unchanged");
    }

    fn futex_pair_program() -> Arc<Program> {
        // Thread 0 stores 1 to the flag and wakes; worker waits on flag==0.
        let mut pb = ProgramBuilder::new("t");
        let mut lib = pb.library_code("librt");
        let worker = lib.export_label("worker");
        lib.li(Reg::R31, 0);
        lib.li(Reg::R1, 0x80);
        lib.li(Reg::R2, 0);
        lib.futex_wait(Reg::R1, 0, Reg::R2);
        lib.halt();
        lib.finish();
        let mut c = pb.main_code();
        c.li(Reg::R1, 0x80);
        c.li(Reg::R2, 1);
        c.store(Reg::R2, Reg::R1, 0);
        c.futex_wake(Reg::R1, 0, u32::MAX);
        c.halt();
        c.finish();
        pb.set_worker_entry(worker);
        Arc::new(pb.finish())
    }

    #[test]
    fn futex_block_and_wake() {
        let mut m = Machine::new(futex_pair_program(), 2);
        // Step worker until it blocks.
        loop {
            match m.step(1).unwrap() {
                StepResult::Blocked => break,
                StepResult::Retired(_) => {}
                other => panic!("worker went {other:?} unexpectedly"),
            }
        }
        assert!(matches!(m.thread_state(1), ThreadState::Blocked { .. }));
        assert!(!m.is_deadlocked()); // main still runnable
                                     // Main sets flag and wakes.
        while m.thread_state(0) == ThreadState::Running {
            m.step(0).unwrap();
        }
        assert_eq!(m.thread_state(1), ThreadState::Running);
        // Worker re-executes the wait, sees flag==1, falls through to halt.
        while m.thread_state(1) == ThreadState::Running {
            m.step(1).unwrap();
        }
        assert!(m.is_finished());
    }

    #[test]
    fn futex_no_block_when_value_differs() {
        let m = futex_pair_program();
        let mut mach = Machine::new(m, 2);
        // Pre-set flag so the worker never blocks.
        mach.mem_mut().store(Addr(0x80), 1);
        loop {
            match mach.step(1).unwrap() {
                StepResult::Retired(r) if r.inst == Inst::Halt => break,
                StepResult::Retired(_) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(mach.thread_state(1), ThreadState::Halted);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut pb = ProgramBuilder::new("t");
        let mut c = pb.main_code();
        c.li(Reg::R1, 1);
        c.li(Reg::R2, 0x40);
        c.store(Reg::R1, Reg::R2, 0);
        c.li(Reg::R3, 77);
        c.halt();
        c.finish();
        let prog = Arc::new(pb.finish());
        let mut m = Machine::new(prog.clone(), 1);
        m.step(0).unwrap();
        m.step(0).unwrap();
        m.step(0).unwrap();
        m.step(0).unwrap(); // store done
        let snap = m.snapshot();
        // Run original to completion.
        m.run_to_completion(100).unwrap();
        assert_eq!(m.regs(0)[Reg::R3], 77);
        // Restore and re-run: same result.
        let mut m2 = Machine::from_snapshot(prog, &snap);
        assert_eq!(m2.mem().load(Addr(0x40)), 1);
        m2.run_to_completion(100).unwrap();
        assert_eq!(m2.regs(0)[Reg::R3], 77);
        assert!(m2.is_finished());
    }

    #[test]
    fn snapshots_miss_later_stores_and_share_unchanged_pages() {
        let mut pb = ProgramBuilder::new("t");
        let mut c = pb.main_code();
        c.li(Reg::R1, 1);
        c.li(Reg::R2, 0x40);
        c.store(Reg::R1, Reg::R2, 0);
        c.li(Reg::R1, 2);
        c.store(Reg::R1, Reg::R2, 0);
        c.halt();
        c.finish();
        let prog = Arc::new(pb.finish());
        let mut m = Machine::new(prog.clone(), 1);
        for _ in 0..4 {
            m.step(0).unwrap(); // prologue, li, li, first store
        }
        let first = m.snapshot();
        let again = m.snapshot();
        assert!(
            first.mem.shares_every_page_with(&again.mem),
            "no store between two snapshots: every page is shared"
        );
        m.run_to_completion(100).unwrap();
        assert_eq!(m.mem().load(Addr(0x40)), 2);
        let restored = Machine::from_snapshot(prog, &first);
        assert_eq!(
            restored.mem().load(Addr(0x40)),
            1,
            "the later store is not seen"
        );
        assert!(!m.snapshot().mem.shares_every_page_with(&first.mem));
    }

    #[test]
    fn retired_metadata() {
        let mut pb = ProgramBuilder::new("t");
        let l = pb.new_label();
        let mut c = pb.main_code();
        c.branch(Cond::Eq, Reg::R31, Reg::R31, l);
        c.nop();
        c.bind(l);
        c.halt();
        c.finish();
        let mut m = Machine::new(Arc::new(pb.finish()), 1);
        m.step(0).unwrap(); // prologue
        match m.step(0).unwrap() {
            StepResult::Retired(r) => {
                let ev = r.ctrl.unwrap();
                assert_eq!(ev.kind, CtrlKind::CondTaken);
                assert_eq!(r.next_pc, ev.target);
                assert_eq!(r.class, InstClass::Branch);
                assert_eq!(r.global_seq, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn indirect_call_through_register() {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.new_label();
        let mut c = pb.main_code();
        c.li_label(Reg::R5, f);
        c.li(Reg::R1, 2);
        c.call_ind(Reg::R5);
        c.halt();
        c.bind(f);
        c.alui(AluOp::Mul, Reg::R1, Reg::R1, 21);
        c.ret();
        c.finish();
        let mut m = Machine::new(Arc::new(pb.finish()), 1);
        m.run_to_completion(100).unwrap();
        assert_eq!(m.regs(0)[Reg::R1], 42);
    }

    #[test]
    fn pc_word_roundtrip() {
        use crate::addr::ImageId;
        let pc = Pc::new(ImageId(3), 0xdead);
        assert_eq!(Pc::from_word(pc.to_word()), pc);
    }

    #[test]
    fn bad_thread_id_errors() {
        let mut pb = ProgramBuilder::new("t");
        let mut c = pb.main_code();
        c.halt();
        c.finish();
        let mut m = Machine::new(Arc::new(pb.finish()), 1);
        assert!(matches!(
            m.step(5),
            Err(MachineError::BadThread { tid: 5, .. })
        ));
    }
}
