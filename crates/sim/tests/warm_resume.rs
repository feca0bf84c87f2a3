//! Resume equals continue: a simulator rebuilt from a functional snapshot
//! plus the timing checkpoint taken at the same instant
//! (`Simulator::from_machine_warm`) must simulate exactly what the original
//! goes on to simulate. This is the test that notices timing state —
//! a ROB cursor, snoop-filter counts, scheduler clocks of threads blocked
//! at the snapshot — that `Clone` or the constructor chain fails to carry.
//! A checkpoint taken into a recycled model
//! (`Simulator::timing_checkpoint_into`) must resume as a fresh one does.

use lp_isa::{AluOp, CodeBuilder, Machine, Marker, Pc, Program, ProgramBuilder, Reg, ThreadState};
use lp_omp::{OmpRuntime, WaitPolicy};
use lp_sim::{Mode, SimStats, Simulator, StopCond};
use lp_uarch::SimConfig;
use std::sync::Arc;

const BUDGET: u64 = 200_000_000;

/// What a run determines of its `SimStats`: everything but the two
/// wall clocks and the fast-forward count of the simulator's own past.
fn simulated(s: &SimStats) -> impl PartialEq + std::fmt::Debug {
    (
        (s.cycles, s.instructions, s.filtered_instructions),
        s.per_thread_instructions.clone(),
        (s.branch, s.mem),
    )
}

/// Two parallel sweeps over a shared array around a serial loop in which
/// the main thread rewrites lines the workers hold while they sleep on the
/// passive runtime's futex; returned with the serial loop's header.
fn sweeps_program() -> (Arc<Program>, Pc) {
    let mut pb = ProgramBuilder::new("resume");
    let mut rt = OmpRuntime::build(&mut pb, 4, WaitPolicy::Passive);
    let mut c = pb.main_code();
    rt.emit_main_init(&mut c);
    let sweep = |c: &mut CodeBuilder<'_>, rt: &mut OmpRuntime, name: &str| {
        rt.emit_parallel(c, name, |c, rt| {
            rt.emit_static_for(c, "", 2048, |c, _| {
                c.li(Reg::R1, 0x100_0000);
                c.alui(AluOp::Shl, Reg::R2, Reg::R16, 3);
                c.alu(AluOp::Add, Reg::R1, Reg::R1, Reg::R2);
                c.load(Reg::R3, Reg::R1, 0);
                c.alui(AluOp::Add, Reg::R3, Reg::R3, 1);
                c.store(Reg::R3, Reg::R1, 0);
            });
        });
    };
    sweep(&mut c, &mut rt, "before");
    c.li(Reg::R1, 0x100_0000);
    let serial = c.counted_loop("serial", Reg::R2, 200, |c| {
        c.store(Reg::R2, Reg::R1, 0);
        c.alui(AluOp::Add, Reg::R1, Reg::R1, 64);
    });
    sweep(&mut c, &mut rt, "after");
    rt.emit_shutdown(&mut c);
    c.halt();
    c.finish();
    (Arc::new(pb.finish()), serial)
}

/// A simulator of `program` fast-forwarded halfway through its serial loop.
fn midway(program: &Arc<Program>, serial: Pc) -> Simulator {
    let mut sim = Simulator::new(program.clone(), 4, SimConfig::gainestown(4));
    sim.watch_pc(serial);
    let midway = Some(StopCond::Marker(Marker::new(serial, 100)));
    sim.run(Mode::FastForward, midway, BUDGET).unwrap();
    sim
}

#[test]
fn resuming_a_warm_checkpoint_equals_continuing() {
    let (program, serial) = sweeps_program();
    let mut original = midway(&program, serial);
    assert!(
        matches!(
            original.machine().thread_state(1),
            ThreadState::Blocked { .. }
        ),
        "the checkpoint must catch workers parked on the futex"
    );
    let snapshot = original.machine().snapshot();
    let mut resumed = Simulator::from_machine_warm(
        Machine::from_snapshot(program, &snapshot),
        original.timing_checkpoint(),
    );

    let continued = original.run(Mode::Detailed, None, BUDGET).unwrap();
    let resumed = resumed.run(Mode::Detailed, None, BUDGET).unwrap();
    assert!(continued.mem.invalidations > 0, "the sweeps share lines");
    assert_eq!(simulated(&resumed), simulated(&continued));
}

#[test]
fn a_recycled_checkpoint_resumes_as_a_fresh_one() {
    let (program, serial) = sweeps_program();
    // A model with a history of its own: the whole program in detail,
    // which fills cache chunks the midway state has not reached.
    let mut used = Simulator::new(program.clone(), 4, SimConfig::gainestown(4));
    used.run(Mode::Detailed, None, BUDGET).unwrap();
    let mut recycled = used.into_timing();

    let original = midway(&program, serial);
    let snapshot = original.machine().snapshot();
    let fresh = original.timing_checkpoint();
    original.timing_checkpoint_into(&mut recycled);
    assert!(recycled.copy_bytes().copied < recycled.copy_bytes().dense);
    assert_eq!(recycled.copy_bytes(), fresh.copy_bytes());

    let resume = |timing| {
        let machine = Machine::from_snapshot(program.clone(), &snapshot);
        Simulator::from_machine_warm(machine, timing)
            .run(Mode::Detailed, None, BUDGET)
            .unwrap()
    };
    let from_fresh = resume(fresh);
    let from_recycled = resume(recycled);
    assert!(from_fresh.mem.invalidations > 0, "the sweeps share lines");
    assert_eq!(simulated(&from_recycled), simulated(&from_fresh));
}
