//! Resume equals continue: a simulator rebuilt from a functional snapshot
//! plus the timing checkpoint taken at the same instant
//! (`Simulator::from_machine_warm`) must simulate exactly what the original
//! goes on to simulate. This is the test that notices timing state —
//! a ROB cursor, snoop-filter counts, scheduler clocks of threads blocked
//! at the snapshot — that `Clone` or the constructor chain fails to carry.

use lp_isa::{AluOp, CodeBuilder, Machine, Marker, ProgramBuilder, Reg, ThreadState};
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

#[test]
fn resuming_a_warm_checkpoint_equals_continuing() {
    // Two parallel sweeps over a shared array around a serial loop in
    // which the main thread rewrites lines the workers hold while they
    // sleep on the passive runtime's futex.
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
    let program = Arc::new(pb.finish());

    let mut original = Simulator::new(program.clone(), 4, SimConfig::gainestown(4));
    original.watch_pc(serial);
    let midway = Some(StopCond::Marker(Marker::new(serial, 100)));
    original.run(Mode::FastForward, midway, BUDGET).unwrap();
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
