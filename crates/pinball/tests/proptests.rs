//! Property-based record/replay equivalence on randomized contended
//! programs, the replay schedule against its eager oracle, and one test per
//! divergence the replayer reports.

use lp_isa::{
    Addr, AluOp, Inst, Machine, MachineState, Marker, ProgramBuilder, Reg, Retired, StepResult,
    ThreadState,
};
use lp_omp::{LockId, OmpRuntime, WaitPolicy, APP_BASE};
use lp_pinball::{Pinball, PinballError, RaceEvent, RaceKind, RecordConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a randomized parallel program: each thread mixes atomic adds,
/// locked updates, and private compute, with parameters drawn by proptest.
fn random_program(
    nthreads: usize,
    policy: WaitPolicy,
    iters: u64,
    chunk: u64,
    use_lock: bool,
) -> Arc<lp_isa::Program> {
    let mut pb = ProgramBuilder::new("prop");
    let mut rt = OmpRuntime::build(&mut pb, nthreads, policy);
    let mut c = pb.main_code();
    rt.emit_main_init(&mut c);
    rt.emit_dyn_reset(&mut c);
    rt.emit_parallel(&mut c, "work", |c, rt| {
        rt.emit_dynamic_for(c, "work.loop", iters, chunk, |c, rt| {
            c.li(Reg::R1, APP_BASE as i64);
            c.li(Reg::R2, 1);
            c.atomic_add(Reg::R3, Reg::R1, 0, Reg::R2);
            if use_lock {
                rt.emit_critical(c, LockId(4), |c, _| {
                    c.load(Reg::R4, Reg::R1, 8);
                    c.alui(AluOp::Add, Reg::R4, Reg::R4, 3);
                    c.store(Reg::R4, Reg::R1, 8);
                });
            }
        });
    });
    rt.emit_shutdown(&mut c);
    c.halt();
    c.finish();
    Arc::new(pb.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any program shape, policy, thread count, and recording quantum:
    /// replay retires exactly the recorded stream and reproduces the final
    /// shared state of a plain run.
    #[test]
    fn record_replay_equivalence(
        nthreads in 1usize..6,
        active in any::<bool>(),
        iters in 8u64..64,
        chunk in 1u64..8,
        use_lock in any::<bool>(),
        quantum in 7u64..300,
    ) {
        let policy = if active { WaitPolicy::Active } else { WaitPolicy::Passive };
        let p = random_program(nthreads, policy, iters, chunk, use_lock);

        let mut plain = Machine::new(p.clone(), nthreads);
        plain.run_to_completion(u64::MAX).unwrap();

        let pb = Pinball::record(&p, nthreads, RecordConfig { quantum, max_steps: u64::MAX })
            .unwrap();
        let mut rep = pb.replayer(p.clone());
        let mut retired = 0u64;
        while rep.step().unwrap().is_some() {
            retired += 1;
        }
        prop_assert_eq!(retired, pb.instructions());
        prop_assert!(rep.is_finished());
        prop_assert_eq!(
            rep.machine().mem().load(Addr(APP_BASE)),
            plain.mem().load(Addr(APP_BASE))
        );
        prop_assert_eq!(
            rep.machine().mem().load(Addr(APP_BASE + 8)),
            plain.mem().load(Addr(APP_BASE + 8))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On-disk pinball serialization is a lossless, canonical round trip
    /// for any recording — including share-everything programs whose race
    /// log approaches one event per retired shared access (the maximal
    /// log for the program). The re-encoded bytes are identical, so the
    /// content checksum is stable across save/load cycles.
    #[test]
    fn fileio_roundtrip_any_recording(
        nthreads in 1usize..6,
        iters in 8u64..64,
        chunk in 1u64..8,
        quantum in 7u64..300,
        all_shared in any::<bool>(),
    ) {
        // `use_lock = all_shared` piles lock traffic on top of the atomic
        // adds: every body instruction then touches shared state, pushing
        // the race log towards its maximum length for the program.
        let p = random_program(nthreads, WaitPolicy::Passive, iters, chunk, all_shared);
        let pb = Pinball::record(&p, nthreads, RecordConfig { quantum, max_steps: u64::MAX })
            .unwrap();
        prop_assert!(!pb.events().is_empty(), "contended programs log events");

        let bytes = pb.to_bytes();
        let loaded = Pinball::from_bytes(&bytes).unwrap();
        prop_assert_eq!(loaded.name(), pb.name());
        prop_assert_eq!(loaded.nthreads(), pb.nthreads());
        prop_assert_eq!(loaded.instructions(), pb.instructions());
        prop_assert_eq!(loaded.events(), pb.events());
        prop_assert_eq!(loaded.to_bytes(), bytes, "canonical re-encoding");
        prop_assert_eq!(loaded.content_checksum(), pb.content_checksum());

        // The loaded pinball replays to the same shared state.
        let a = pb.replay(p.clone(), &mut [], u64::MAX).unwrap();
        let b = loaded.replay(p, &mut [], u64::MAX).unwrap();
        prop_assert_eq!(a, b);
    }
}

/// The retirement stream of one replayer, pulled one `step()` at a time:
/// every record with the `event_index()` seen right after it.
fn pulled(mut rep: lp_pinball::Replayer<'_>) -> Vec<(Retired, usize)> {
    let mut out = Vec::new();
    while let Some(r) = rep.step().unwrap() {
        out.push((r, rep.event_index()));
    }
    assert!(rep.is_finished());
    out
}

/// The same stream as the driver pushes it. `pause_every` makes the
/// callback stop the driver every that many retirements, so the stream is
/// assembled from resumed `drive` calls.
fn pushed(mut rep: lp_pinball::Replayer<'_>, pause_every: usize) -> Vec<(Retired, usize)> {
    let mut out = Vec::new();
    while !rep.is_finished() {
        rep.drive(|r, rep| {
            out.push((*r, rep.event_index()));
            out.len() % pause_every == 0
        })
        .unwrap();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Replayer::step` is a one-retirement `Replayer::drive`: pulled and
    /// pushed streams carry the same `Retired` records and race-log
    /// positions — from the start of the recording and when resuming from
    /// a mid-run checkpoint (`snapshot()` + `replayer_from`), which itself
    /// continues the full stream exactly.
    #[test]
    fn step_and_drive_see_the_same_stream(
        nthreads in 1usize..9,
        active in any::<bool>(),
        iters in 8u64..48,
        chunk in 1u64..8,
        use_lock in any::<bool>(),
        quantum in 7u64..300,
        pause_every in 1usize..50,
        cut in 1u64..8,
    ) {
        let policy = if active { WaitPolicy::Active } else { WaitPolicy::Passive };
        let p = random_program(nthreads, policy, iters, chunk, use_lock);
        let pb = Pinball::record(&p, nthreads, RecordConfig { quantum, max_steps: u64::MAX })
            .unwrap();

        let full = pulled(pb.replayer(p.clone()));
        prop_assert_eq!(full.len() as u64, pb.instructions());
        prop_assert_eq!(full.last().unwrap().1, pb.events().len());
        prop_assert_eq!(&pushed(pb.replayer(p.clone()), usize::MAX), &full);
        prop_assert_eq!(&pushed(pb.replayer(p.clone()), pause_every), &full);

        // Resume from a checkpoint at the `cut`-th execution of the first
        // atomic add of the loop body (every iteration executes it).
        let body = p.symbol("work.loop").unwrap();
        let ckpt = pb.checkpoint_at(p.clone(), Marker::new(body, cut)).unwrap();
        let tail = &full[ckpt.instructions_before() as usize..];
        prop_assert_eq!(ckpt.event_start(), full[ckpt.instructions_before() as usize - 1].1);
        prop_assert_eq!(&pulled(pb.replayer_from(p.clone(), &ckpt))[..], tail);
        prop_assert_eq!(&pushed(pb.replayer_from(p.clone(), &ckpt), pause_every)[..], tail);
    }
}

/// Whether thread `tid`'s next instruction accesses shared memory: the
/// preview the machine used to offer, rebuilt from its public parts.
fn at_shared(m: &Machine, tid: usize) -> bool {
    let (base, off) = match m.program().inst(m.pc(tid)) {
        Some(
            &Inst::Load { base, off, .. }
            | &Inst::Store { base, off, .. }
            | &Inst::AtomicAdd { base, off, .. }
            | &Inst::AtomicXchg { base, off, .. }
            | &Inst::AtomicCas { base, off, .. }
            | &Inst::FutexWait { base, off, .. }
            | &Inst::FutexWake { base, off, .. },
        ) => (base, off),
        _ => return false,
    };
    let addr = Addr(m.regs(tid)[base].wrapping_add(off as u64)).align_word();
    m.program().layout().is_shared(addr)
}

/// The scheduler `Replayer::drive` replaced, as its oracle: every thread is
/// classified anew before every step; the lowest-index runnable thread
/// whose next instruction is private goes, and with none the thread the
/// race log names. Returns what [`pushed`] does.
fn eager(
    program: &Arc<lp_isa::Program>,
    state: &MachineState,
    events: &[RaceEvent],
    mut idx: usize,
) -> Vec<(Retired, usize)> {
    let mut m = Machine::from_snapshot(program.clone(), state);
    let mut out = Vec::new();
    while !m.is_finished() {
        let free = (0..m.num_threads())
            .find(|&t| m.thread_state(t) == ThreadState::Running && !at_shared(&m, t));
        let tid = free.unwrap_or_else(|| events[idx].tid as usize);
        match m.step(tid).unwrap() {
            StepResult::Retired(r) => {
                if free.is_none() {
                    assert_eq!(events[idx].kind, RaceKind::Access);
                    idx += 1;
                }
                out.push((r, idx));
            }
            StepResult::Blocked => {
                assert!(free.is_none(), "a free-scheduled thread blocked");
                assert_eq!(events[idx].kind, RaceKind::Block);
                idx += 1;
            }
            other => panic!("thread {tid}: {other:?}"),
        }
    }
    out
}

/// Lazy classification changes when a thread's next instruction is looked
/// at, not who runs: `drive` hands out the eager scheduler's stream, record
/// for record and log position for log position — from the start, paused
/// and resumed, and from mid-run checkpoints that hold sleeping threads.
#[test]
fn drive_follows_the_eager_schedule() {
    let mut resumed_with_sleepers = 0;
    for nthreads in 1..=8 {
        for policy in [WaitPolicy::Passive, WaitPolicy::Active] {
            for quantum in [13, 61, 173] {
                let p = random_program(nthreads, policy, 24, 2, true);
                let cfg = RecordConfig {
                    quantum,
                    max_steps: u64::MAX,
                };
                let pb = Pinball::record(&p, nthreads, cfg).unwrap();
                let want = eager(&p, pb.start_state(), pb.events(), 0);
                assert_eq!(want.len() as u64, pb.instructions());
                assert_eq!(want.last().unwrap().1, pb.events().len());
                assert_eq!(pushed(pb.replayer(p.clone()), usize::MAX), want);
                assert_eq!(pushed(pb.replayer(p.clone()), 7), want);

                let body = p.symbol("work.loop").unwrap();
                for cut in [3, 11] {
                    let ckpt = pb.checkpoint_at(p.clone(), Marker::new(body, cut)).unwrap();
                    let at_ckpt = Machine::from_snapshot(p.clone(), ckpt.state());
                    let asleep = |t| matches!(at_ckpt.thread_state(t), ThreadState::Blocked { .. });
                    resumed_with_sleepers += usize::from((0..nthreads).any(asleep));
                    let tail = eager(&p, ckpt.state(), pb.events(), ckpt.event_start());
                    assert_eq!(tail[..], want[ckpt.instructions_before() as usize..]);
                    assert_eq!(pushed(pb.replayer_from(p.clone(), &ckpt), 5), tail);
                }
            }
        }
    }
    assert!(
        resumed_with_sleepers > 0,
        "no checkpoint held a thread asleep on a futex"
    );
}

/// A hand-laid two-thread program whose race log is known entry by entry:
/// `[t0 Access, t0 Block, t1 Access, t1 Access, t1 Access, t0 Access]`
/// (t0 stores, sleeps on a futex; t1 loads, sets the futex word, wakes t0,
/// whose re-executed wait then retires).
fn futex_handoff() -> (Arc<lp_isa::Program>, Pinball) {
    const SHARED: i64 = 0x1000;
    let mut pb = ProgramBuilder::new("handoff");
    let worker = pb.new_label();
    pb.set_worker_entry(worker);
    let mut c = pb.main_code();
    c.li(Reg::R1, SHARED);
    c.store(Reg::R2, Reg::R1, 0);
    c.futex_wait(Reg::R1, 8, Reg::R0);
    c.halt();
    c.bind(worker);
    c.li(Reg::R1, SHARED);
    c.li(Reg::R2, 1);
    c.load(Reg::R3, Reg::R1, 0);
    c.store(Reg::R2, Reg::R1, 8);
    c.futex_wake(Reg::R1, 8, 1);
    c.halt();
    c.finish();
    let p = Arc::new(pb.finish());
    let pinball = Pinball::record(&p, 2, RecordConfig::default()).unwrap();
    let log: Vec<(u32, RaceKind)> = pinball.events().iter().map(|e| (e.tid, e.kind)).collect();
    use RaceKind::{Access, Block};
    assert_eq!(
        log,
        [
            (0, Access),
            (0, Block),
            (1, Access),
            (1, Access),
            (1, Access),
            (0, Access)
        ]
    );
    (p, pinball)
}

/// Rewrites the race log of a serialized pinball (one packed `u32` per
/// entry, bit 31 = `Block`) and loads the result.
fn tampered(pinball: &Pinball, edit: impl FnOnce(&mut Vec<u32>)) -> Pinball {
    let bytes = pinball.to_bytes();
    // magic, version, name length + name, thread count, instruction count.
    let count_at = 4 + 4 + 4 + pinball.name().len() + 4 + 8;
    let log_at = count_at + 8;
    let log_end = log_at + 4 * pinball.events().len();
    let mut log: Vec<u32> = bytes[log_at..log_end]
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        .collect();
    edit(&mut log);
    let mut out = bytes[..count_at].to_vec();
    out.extend((log.len() as u64).to_le_bytes());
    out.extend(log.iter().flat_map(|e| e.to_le_bytes()));
    out.extend(&bytes[log_end..]);
    Pinball::from_bytes(&out).unwrap()
}

/// Replays a tampered pinball both ways and returns the divergence both
/// report: `(at_event, reason)`.
fn divergence(p: &Arc<lp_isa::Program>, pinball: &Pinball) -> (usize, String) {
    let mut rep = pinball.replayer(p.clone());
    let pulled = loop {
        match rep.step() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("tampered log replayed to the end"),
            Err(e) => break e,
        }
    };
    let pushed = pinball.replayer(p.clone()).drive(|_, _| false).unwrap_err();
    assert_eq!(pushed, pulled, "step() and drive() diverge identically");
    assert_eq!(
        pinball.replay(p.clone(), &mut [], u64::MAX).unwrap_err(),
        pulled
    );
    match pulled {
        PinballError::Diverged { at_event, reason } => (at_event, reason),
        other => panic!("expected a divergence, got {other}"),
    }
}

const BLOCK: u32 = 1 << 31;

#[test]
fn untampered_handoff_replays() {
    let (p, pinball) = futex_handoff();
    let same = tampered(&pinball, |_| {});
    assert_eq!(same.to_bytes(), pinball.to_bytes());
    let stats = same.replay(p, &mut [], u64::MAX).unwrap();
    assert_eq!(stats.instructions, pinball.instructions());
}

#[test]
fn swapped_log_tids_diverge_at_the_first_swapped_entry() {
    let (p, pinball) = futex_handoff();
    // Entries 1 (t0 Block) and 2 (t1 Access) trade threads: entry 1 now
    // wants t1 to block, but t1's load retires.
    let bad = tampered(&pinball, |log| {
        log[1] = BLOCK | 1;
        log[2] = 0;
    });
    let (at_event, reason) = divergence(&p, &bad);
    assert_eq!(at_event, 1);
    assert_eq!(
        reason,
        "expected Block by thread 1, got retirement (shared=true)"
    );
}

#[test]
fn access_flipped_to_block_diverges_on_the_retirement() {
    let (p, pinball) = futex_handoff();
    let bad = tampered(&pinball, |log| log[0] |= BLOCK);
    let (at_event, reason) = divergence(&p, &bad);
    assert_eq!(at_event, 0);
    assert_eq!(
        reason,
        "expected Block by thread 0, got retirement (shared=true)"
    );
}

#[test]
fn block_flipped_to_access_diverges_when_the_thread_blocks() {
    let (p, pinball) = futex_handoff();
    let bad = tampered(&pinball, |log| log[1] &= !BLOCK);
    let (at_event, reason) = divergence(&p, &bad);
    assert_eq!(at_event, 1);
    assert_eq!(reason, "expected Access by thread 0, but thread blocked");
}

#[test]
fn truncated_log_diverges_where_it_runs_out() {
    let (p, pinball) = futex_handoff();
    for keep in [5, 4, 2] {
        let bad = tampered(&pinball, |log| log.truncate(keep));
        let (at_event, reason) = divergence(&p, &bad);
        assert_eq!(at_event, keep);
        assert_eq!(reason, "race log exhausted with shared accesses pending");
    }
}

#[test]
fn log_naming_a_blocked_thread_diverges_there() {
    let (p, pinball) = futex_handoff();
    // Entry 2 is t1's load; t0 has been asleep since entry 1.
    let bad = tampered(&pinball, |log| log[2] = 0);
    let (at_event, reason) = divergence(&p, &bad);
    assert_eq!(at_event, 2);
    assert_eq!(reason, "log named non-runnable thread 0");
}
