//! Library-image runtime code: worker pool, barrier, locks, dispatcher.

use crate::layout;
use crate::RT_BASE;
use lp_isa::{Addr, AluOp, CodeBuilder, Cond, Label, ProgramBuilder, Reg};

/// The `OMP_WAIT_POLICY` analogue: how threads wait at synchronization
/// points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitPolicy {
    /// Threads busy-wait in user-level spin loops (consuming instructions
    /// and cycles in the library image).
    Active,
    /// Threads sleep on futexes (no instructions retired while waiting).
    Passive,
}

impl WaitPolicy {
    /// Lower-case name, as used in workload ids and reports.
    pub fn name(self) -> &'static str {
        match self {
            WaitPolicy::Active => "active",
            WaitPolicy::Passive => "passive",
        }
    }
}

/// The inverse of [`WaitPolicy::name`].
impl std::str::FromStr for WaitPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "active" => Ok(WaitPolicy::Active),
            "passive" => Ok(WaitPolicy::Passive),
            other => Err(format!("unknown wait policy '{other}'")),
        }
    }
}

impl std::fmt::Display for WaitPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Identifies one of the runtime's word-sized locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LockId(pub usize);

impl LockId {
    /// The lock the runtime reserves for floating-point reductions.
    pub const REDUCE: LockId = LockId(layout::NUM_LOCKS - 1);

    pub(crate) fn addr_imm(self) -> i64 {
        assert!(self.0 < layout::NUM_LOCKS, "lock index out of range");
        RT_BASE as i64 + layout::LOCKS + (self.0 as i64) * 8
    }
}

/// Handle to the runtime emitted into a program's library image.
///
/// Create with [`OmpRuntime::build`] *before* emitting main-image code, then
/// use the `emit_*` methods (and the construct helpers in this crate) while
/// generating the application.
#[derive(Debug)]
pub struct OmpRuntime {
    policy: WaitPolicy,
    nthreads: usize,
    pub(crate) barrier_fn: Label,
    pub(crate) lock_acquire_fn: Label,
    pub(crate) lock_release_fn: Label,
    pub(crate) dispatch_next_fn: Label,
    pub(crate) next_single_site: i64,
}

impl OmpRuntime {
    /// Emits the runtime into a fresh library image of `pb` and registers
    /// the worker-pool entry point.
    ///
    /// `nthreads` is the team size the program will run with; the barrier
    /// and the `single` construct are specialized to it (like a runtime that
    /// read `OMP_NUM_THREADS` at startup).
    pub fn build(pb: &mut ProgramBuilder, nthreads: usize, policy: WaitPolicy) -> OmpRuntime {
        assert!(nthreads >= 1, "team needs at least one thread");
        let barrier_fn = pb.new_label();
        let lock_acquire_fn = pb.new_label();
        let lock_release_fn = pb.new_label();
        let dispatch_next_fn = pb.new_label();

        let mut c = pb.library_code("libomp");

        // ---- worker dispatch loop -------------------------------------
        let worker_entry = c.export_label("omp_worker");
        c.li(Reg::R31, 0);
        c.li(Reg::R24, RT_BASE as i64);
        c.li(Reg::R25, 0); // last-seen doorbell generation
        let wloop = c.new_label();
        let wgo = c.new_label();
        let wexit = c.new_label();
        c.bind(wloop);
        c.load(Reg::R26, Reg::R24, layout::DOORBELL);
        c.branch(Cond::Ne, Reg::R26, Reg::R25, wgo);
        match policy {
            WaitPolicy::Active => {
                c.pause();
                c.jump(wloop);
            }
            WaitPolicy::Passive => {
                c.futex_wait(Reg::R24, layout::DOORBELL, Reg::R25);
                c.jump(wloop);
            }
        }
        c.bind(wgo);
        c.alui(AluOp::Add, Reg::R25, Reg::R26, 0); // r25 = new generation
        c.load(Reg::R27, Reg::R24, layout::SHUTDOWN);
        c.branch(Cond::Ne, Reg::R27, Reg::R31, wexit);
        c.load(Reg::R26, Reg::R24, layout::TASK_PTR);
        c.call_ind(Reg::R26); // run the parallel-region body
        c.jump(wloop);
        c.bind(wexit);
        c.halt();

        // ---- sense-reversing centralized barrier ----------------------
        c.bind(barrier_fn);
        c.export_label("omp_barrier");
        c.load(Reg::R26, Reg::R24, layout::BAR_GEN);
        c.li(Reg::R27, 1);
        c.atomic_add(Reg::R28, Reg::R24, layout::BAR_COUNT, Reg::R27);
        c.li(Reg::R27, nthreads as i64 - 1);
        let last = c.new_label();
        let bwait = c.new_label();
        let bdone = c.new_label();
        c.branch(Cond::Eq, Reg::R28, Reg::R27, last);
        c.bind(bwait);
        c.load(Reg::R28, Reg::R24, layout::BAR_GEN);
        c.branch(Cond::Ne, Reg::R28, Reg::R26, bdone);
        match policy {
            WaitPolicy::Active => {
                c.pause();
                c.jump(bwait);
            }
            WaitPolicy::Passive => {
                c.futex_wait(Reg::R24, layout::BAR_GEN, Reg::R26);
                c.jump(bwait);
            }
        }
        c.bind(bdone);
        c.ret();
        c.bind(last);
        c.store(Reg::R31, Reg::R24, layout::BAR_COUNT);
        c.alui(AluOp::Add, Reg::R27, Reg::R26, 1);
        c.store(Reg::R27, Reg::R24, layout::BAR_GEN);
        if policy == WaitPolicy::Passive {
            c.futex_wake(Reg::R24, layout::BAR_GEN, u32::MAX);
        }
        c.ret();

        // ---- test-and-set lock (address in r26) ------------------------
        c.bind(lock_acquire_fn);
        c.export_label("omp_lock_acquire");
        let la_try = c.new_label();
        let la_got = c.new_label();
        c.bind(la_try);
        c.li(Reg::R27, 1);
        c.atomic_cas(Reg::R28, Reg::R26, 0, Reg::R31, Reg::R27);
        c.branch(Cond::Eq, Reg::R28, Reg::R31, la_got);
        match policy {
            WaitPolicy::Active => {
                c.pause();
                c.jump(la_try);
            }
            WaitPolicy::Passive => {
                // Sleep while the lock word is still 1 (held).
                c.futex_wait(Reg::R26, 0, Reg::R27);
                c.jump(la_try);
            }
        }
        c.bind(la_got);
        c.ret();

        c.bind(lock_release_fn);
        c.export_label("omp_lock_release");
        c.store(Reg::R31, Reg::R26, 0);
        if policy == WaitPolicy::Passive {
            c.futex_wake(Reg::R26, 0, 1);
        }
        c.ret();

        // ---- dynamic-for chunk dispatcher (chunk in r27, start -> r26) --
        c.bind(dispatch_next_fn);
        c.export_label("omp_dispatch_next");
        c.atomic_add(Reg::R26, Reg::R24, layout::DYN_NEXT, Reg::R27);
        c.ret();

        c.finish();
        pb.set_worker_entry(worker_entry);
        pb.data(Addr(RT_BASE + layout::NTHREADS as u64), &[nthreads as u64]);

        OmpRuntime {
            policy,
            nthreads,
            barrier_fn,
            lock_acquire_fn,
            lock_release_fn,
            dispatch_next_fn,
            next_single_site: layout::SINGLE_SITES,
        }
    }

    /// The wait policy this runtime was built with.
    pub fn policy(&self) -> WaitPolicy {
        self.policy
    }

    /// The team size this runtime was built for.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Emits the main-thread runtime prologue (`r24`/`r25` setup). Must run
    /// before any other runtime call in main code.
    pub fn emit_main_init(&self, c: &mut CodeBuilder<'_>) {
        c.li(Reg::R24, RT_BASE as i64);
        c.li(Reg::R25, 0);
    }

    /// Emits an explicit team-wide barrier call (`#pragma omp barrier`).
    ///
    /// Only valid inside a parallel-region body (all team threads must
    /// reach it).
    pub fn emit_barrier(&self, c: &mut CodeBuilder<'_>) {
        c.call(self.barrier_fn);
    }

    /// Emits a parallel region: dispatches `body` to the worker pool, runs
    /// it on the main thread too, and joins at the region's implicit
    /// barrier.
    ///
    /// `name` labels the region body in the symbol table. The body may use
    /// registers `r1`–`r23`; values do not persist between regions on
    /// worker threads.
    pub fn emit_parallel(
        &mut self,
        c: &mut CodeBuilder<'_>,
        name: &str,
        body: impl FnOnce(&mut CodeBuilder<'_>, &mut OmpRuntime),
    ) {
        let body_label = c.new_label();
        let skip = c.new_label();
        c.jump(skip);
        c.bind(body_label);
        c.export_label(format!("{name}.omp_fn"));
        body(c, self);
        // Implicit barrier at region end (OpenMP join semantics).
        c.call(self.barrier_fn);
        c.ret();
        c.bind(skip);
        c.li_label(Reg::R26, body_label);
        c.store(Reg::R26, Reg::R24, layout::TASK_PTR);
        c.fence();
        c.alui(AluOp::Add, Reg::R25, Reg::R25, 1);
        c.store(Reg::R25, Reg::R24, layout::DOORBELL);
        if self.policy == WaitPolicy::Passive {
            c.futex_wake(Reg::R24, layout::DOORBELL, u32::MAX);
        }
        c.call(body_label); // the main thread participates in the team
    }

    /// Emits the shutdown sequence: parks the pool permanently. The caller
    /// emits `halt` for the main thread afterwards.
    pub fn emit_shutdown(&mut self, c: &mut CodeBuilder<'_>) {
        c.li(Reg::R26, 1);
        c.store(Reg::R26, Reg::R24, layout::SHUTDOWN);
        c.fence();
        c.alui(AluOp::Add, Reg::R25, Reg::R25, 1);
        c.store(Reg::R25, Reg::R24, layout::DOORBELL);
        if self.policy == WaitPolicy::Passive {
            c.futex_wake(Reg::R24, layout::DOORBELL, u32::MAX);
        }
    }

    /// Emits `omp_set_lock(lock)`.
    pub fn emit_lock_acquire(&self, c: &mut CodeBuilder<'_>, lock: LockId) {
        c.li(Reg::R26, lock.addr_imm());
        c.call(self.lock_acquire_fn);
    }

    /// Emits `omp_unset_lock(lock)`.
    pub fn emit_lock_release(&self, c: &mut CodeBuilder<'_>, lock: LockId) {
        c.li(Reg::R26, lock.addr_imm());
        c.call(self.lock_release_fn);
    }

    /// Emits a zero reset of the dynamic-for dispatch counter. Must run in
    /// *serial* code before a parallel region containing a dynamic loop.
    pub fn emit_dyn_reset(&self, c: &mut CodeBuilder<'_>) {
        c.store(Reg::R31, Reg::R24, layout::DYN_NEXT);
    }

    /// Allocates a fresh shared word for a `single` construct site.
    pub(crate) fn alloc_single_site(&mut self) -> i64 {
        let off = self.next_single_site;
        self.next_single_site += 8;
        RT_BASE as i64 + off
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_isa::Machine;
    use std::sync::Arc;

    fn run(policy: WaitPolicy, nthreads: usize) -> Machine {
        let mut pb = ProgramBuilder::new("rt-test");
        let mut rt = OmpRuntime::build(&mut pb, nthreads, policy);
        let mut c = pb.main_code();
        rt.emit_main_init(&mut c);
        // Region 1: every thread increments a counter.
        rt.emit_parallel(&mut c, "r1", |c, _| {
            c.li(Reg::R1, 1);
            c.li(Reg::R2, crate::APP_BASE as i64);
            c.atomic_add(Reg::R3, Reg::R2, 0, Reg::R1);
        });
        // Region 2: again, proving the pool survives across regions.
        rt.emit_parallel(&mut c, "r2", |c, _| {
            c.li(Reg::R1, 10);
            c.li(Reg::R2, crate::APP_BASE as i64);
            c.atomic_add(Reg::R3, Reg::R2, 0, Reg::R1);
        });
        rt.emit_shutdown(&mut c);
        c.halt();
        c.finish();
        let mut m = Machine::new(Arc::new(pb.finish()), nthreads);
        m.run_to_completion(10_000_000).unwrap();
        assert!(m.is_finished(), "all threads halted");
        m
    }

    #[test]
    fn wait_policy_names_round_trip() {
        for policy in [WaitPolicy::Active, WaitPolicy::Passive] {
            assert_eq!(policy.name().parse(), Ok(policy));
        }
        assert_eq!(
            "spin".parse::<WaitPolicy>(),
            Err("unknown wait policy 'spin'".to_string())
        );
    }

    #[test]
    fn fork_join_passive() {
        let m = run(WaitPolicy::Passive, 4);
        assert_eq!(m.mem().load(Addr(crate::APP_BASE)), 4 + 40);
    }

    #[test]
    fn fork_join_active() {
        let m = run(WaitPolicy::Active, 4);
        assert_eq!(m.mem().load(Addr(crate::APP_BASE)), 4 + 40);
    }

    #[test]
    fn fork_join_single_thread() {
        let m = run(WaitPolicy::Passive, 1);
        assert_eq!(m.mem().load(Addr(crate::APP_BASE)), 11);
    }

    #[test]
    fn fork_join_many_threads() {
        let m = run(WaitPolicy::Active, 16);
        assert_eq!(m.mem().load(Addr(crate::APP_BASE)), 16 + 160);
    }

    #[test]
    fn locks_provide_mutual_exclusion() {
        // Each thread does read-modify-write under a lock; without mutual
        // exclusion the unprotected sequence would lose updates under some
        // interleavings — with the lock the total is always exact.
        let nthreads = 8;
        let mut pb = ProgramBuilder::new("lock-test");
        let mut rt = OmpRuntime::build(&mut pb, nthreads, WaitPolicy::Passive);
        let mut c = pb.main_code();
        rt.emit_main_init(&mut c);
        rt.emit_parallel(&mut c, "locked", |c, rt| {
            c.li(Reg::R4, 100);
            c.counted_loop_reg("", Reg::R4, |c| {
                rt.emit_lock_acquire(c, LockId(3));
                c.li(Reg::R2, crate::APP_BASE as i64);
                c.load(Reg::R1, Reg::R2, 0);
                c.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
                c.store(Reg::R1, Reg::R2, 0);
                rt.emit_lock_release(c, LockId(3));
            });
        });
        rt.emit_shutdown(&mut c);
        c.halt();
        c.finish();
        let mut m = Machine::new(Arc::new(pb.finish()), nthreads);
        m.run_to_completion(50_000_000).unwrap();
        assert_eq!(m.mem().load(Addr(crate::APP_BASE)), 8 * 100);
    }

    #[test]
    fn explicit_barrier_orders_phases() {
        // Phase A: thread writes slot[tid] = tid+1. Barrier. Phase B: thread
        // reads slot[(tid+1) % n] and adds it to a shared sum. Without the
        // barrier a thread could read a not-yet-written slot (value 0).
        let nthreads = 4;
        let slots = crate::APP_BASE + 0x100;
        let mut pb = ProgramBuilder::new("bar-test");
        let mut rt = OmpRuntime::build(&mut pb, nthreads, WaitPolicy::Active);
        let mut c = pb.main_code();
        rt.emit_main_init(&mut c);
        rt.emit_parallel(&mut c, "phases", |c, rt| {
            c.tid(Reg::R1);
            c.alui(AluOp::Add, Reg::R2, Reg::R1, 1); // tid+1
            c.li(Reg::R3, slots as i64);
            c.alui(AluOp::Shl, Reg::R4, Reg::R1, 3);
            c.alu(AluOp::Add, Reg::R3, Reg::R3, Reg::R4);
            c.store(Reg::R2, Reg::R3, 0);
            rt.emit_barrier(c);
            // neighbour = (tid+1) % n
            c.alui(AluOp::Add, Reg::R5, Reg::R1, 1);
            c.alui(AluOp::Rem, Reg::R5, Reg::R5, nthreads as i64);
            c.li(Reg::R3, slots as i64);
            c.alui(AluOp::Shl, Reg::R4, Reg::R5, 3);
            c.alu(AluOp::Add, Reg::R3, Reg::R3, Reg::R4);
            c.load(Reg::R6, Reg::R3, 0);
            c.li(Reg::R7, crate::APP_BASE as i64);
            c.atomic_add(Reg::R8, Reg::R7, 0, Reg::R6);
        });
        rt.emit_shutdown(&mut c);
        c.halt();
        c.finish();
        let mut m = Machine::new(Arc::new(pb.finish()), nthreads);
        m.run_to_completion(10_000_000).unwrap();
        // Sum of (tid+1) over all threads = 1+2+3+4.
        assert_eq!(m.mem().load(Addr(crate::APP_BASE)), 10);
    }

    #[test]
    fn lock_id_addresses() {
        assert_eq!(LockId(0).addr_imm(), RT_BASE as i64 + layout::LOCKS);
        assert_eq!(LockId(2).addr_imm(), RT_BASE as i64 + layout::LOCKS + 16);
        assert_eq!(LockId::REDUCE.0, layout::NUM_LOCKS - 1);
    }

    #[test]
    #[should_panic(expected = "lock index out of range")]
    fn lock_id_out_of_range_panics() {
        let _ = LockId(layout::NUM_LOCKS).addr_imm();
    }

    #[test]
    fn worker_code_is_in_library_image() {
        let mut pb = ProgramBuilder::new("img-test");
        let mut rt = OmpRuntime::build(&mut pb, 2, WaitPolicy::Active);
        let mut c = pb.main_code();
        rt.emit_main_init(&mut c);
        rt.emit_shutdown(&mut c);
        c.halt();
        c.finish();
        let p = pb.finish();
        let w = p.entry_worker().unwrap();
        assert!(p.is_library_pc(w));
        assert!(p.symbol("omp_barrier").is_some());
        assert!(p.is_library_pc(p.symbol("omp_barrier").unwrap()));
    }
}
