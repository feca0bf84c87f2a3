//! Property-based tests for the ISA and machine.

use lp_isa::*;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_aluop() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Mul),
        Just(AluOp::Div),
        Just(AluOp::Rem),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Shl),
        Just(AluOp::Shr),
    ]
}

proptest! {
    /// ALU semantics agree with a straightforward reference model.
    #[test]
    fn alu_matches_reference(op in arb_aluop(), a: u64, b: u64) {
        let expect = match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => a.checked_div(b).unwrap_or(0),
            AluOp::Rem => if b == 0 { a } else { a % b },
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a << (b & 63),
            AluOp::Shr => a >> (b & 63),
        };
        prop_assert_eq!(op.apply(a, b), expect);
    }

    /// PC word encoding is a bijection over its domain.
    #[test]
    fn pc_word_roundtrip(image in 0u16..u16::MAX, offset: u32) {
        let pc = Pc::new(ImageId(image), offset);
        prop_assert_eq!(Pc::from_word(pc.to_word()), pc);
    }

    /// Memory is a flat word store: the last write to a word wins and
    /// word accesses never alias distinct word addresses.
    #[test]
    fn memory_is_a_word_store(writes in prop::collection::vec((0u64..1u64<<20, any::<u64>()), 1..64)) {
        let mut mem = Memory::new();
        let mut model = std::collections::HashMap::new();
        for &(addr, val) in &writes {
            let a = Addr(addr).align_word();
            mem.store(a, val);
            model.insert(a, val);
        }
        for (&a, &v) in &model {
            prop_assert_eq!(mem.load(a), v);
        }
    }

    /// Executing a random straight-line ALU program is deterministic and
    /// snapshot/restore at any point reproduces the same final registers.
    #[test]
    fn snapshot_restore_any_cut_point(
        ops in prop::collection::vec((arb_aluop(), 0u8..8, 0u8..8, 0u8..8, any::<i16>()), 1..40),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut pb = ProgramBuilder::new("prop");
        let mut c = pb.main_code();
        for (i, &(op, rd, ra, _rb, imm)) in ops.iter().enumerate() {
            if i % 3 == 0 {
                c.li(Reg::from_index(rd), i64::from(imm));
            }
            c.alui(op, Reg::from_index(rd), Reg::from_index(ra), i64::from(imm));
        }
        c.halt();
        c.finish();
        let p = Arc::new(pb.finish());

        let mut m1 = Machine::new(p.clone(), 1);
        m1.run_to_completion(1_000_000).unwrap();

        let cut = ((ops.len() as f64) * cut_frac) as u64;
        let mut m2 = Machine::new(p.clone(), 1);
        for _ in 0..cut {
            m2.step(0).unwrap();
        }
        let snap = m2.snapshot();
        let mut m3 = Machine::from_snapshot(p, &snap);
        m3.run_to_completion(1_000_000).unwrap();
        prop_assert_eq!(m1.regs(0), m3.regs(0));
    }

    /// Loop trip counts: a counted loop of n iterations retires exactly
    /// n executions of its header.
    #[test]
    fn counted_loop_trip_count(n in 0u64..200) {
        let mut pb = ProgramBuilder::new("loop");
        let mut c = pb.main_code();
        let hdr = c.counted_loop("l", Reg::R1, n, |c| {
            c.alui(AluOp::Add, Reg::R2, Reg::R2, 1);
        });
        c.halt();
        c.finish();
        let p = Arc::new(pb.finish());
        let mut m = Machine::new(p, 1);
        let mut count = 0u64;
        while !m.is_finished() {
            if let StepResult::Retired(r) = m.step(0).unwrap() {
                if r.pc == hdr {
                    count += 1;
                }
            }
        }
        prop_assert_eq!(count, n);
        prop_assert_eq!(m.regs(0)[Reg::R2], n);
    }
}

proptest! {
    /// MachineState serialization is a lossless, canonical round trip for
    /// any reachable state: arbitrary register contents, arbitrary store
    /// patterns, snapshots taken at any cut point — including the initial
    /// state with completely empty memory.
    #[test]
    fn state_roundtrip_arbitrary_contents(
        reg_vals in prop::collection::vec(any::<i16>(), 1..8),
        writes in prop::collection::vec((0u64..1u64<<20, any::<i16>()), 0..24),
        cut in 0usize..64,
    ) {
        let mut pb = ProgramBuilder::new("stateio-prop");
        let mut c = pb.main_code();
        for (i, &v) in reg_vals.iter().enumerate() {
            c.li(Reg::from_index((i % 8) as u8), i64::from(v));
        }
        for &(addr, v) in &writes {
            c.li(Reg::R9, (Addr(addr).align_word().0) as i64);
            c.li(Reg::R10, i64::from(v));
            c.store(Reg::R10, Reg::R9, 0);
        }
        c.halt();
        c.finish();
        let p = Arc::new(pb.finish());

        let mut m = Machine::new(p.clone(), 1);
        for _ in 0..cut {
            if m.is_finished() {
                break;
            }
            m.step(0).unwrap();
        }
        let state = m.snapshot();

        // Encode → decode → re-encode is the identity on bytes (canonical
        // form), and the declared length is exact.
        let mut bytes = Vec::new();
        state.write_to(&mut bytes).unwrap();
        prop_assert_eq!(state.encoded_len(), bytes.len());
        let restored = MachineState::read_from(&mut bytes.as_slice()).unwrap();
        let mut again = Vec::new();
        restored.write_to(&mut again).unwrap();
        prop_assert_eq!(&again, &bytes);

        // And the restored state is behaviourally identical: both runs
        // finish with the same registers and retire counts.
        let mut a = Machine::from_snapshot(p.clone(), &state);
        let mut b = Machine::from_snapshot(p, &restored);
        a.run_to_completion(1_000_000).unwrap();
        b.run_to_completion(1_000_000).unwrap();
        prop_assert_eq!(a.regs(0), b.regs(0));
        prop_assert_eq!(a.global_retired(), b.global_retired());
    }

    /// The pristine initial state (no instruction executed, empty memory)
    /// round-trips too — the smallest well-formed checkpoint.
    #[test]
    fn empty_memory_state_roundtrips(nregs in 1usize..8) {
        let mut pb = ProgramBuilder::new("empty-prop");
        let mut c = pb.main_code();
        for i in 0..nregs {
            c.alui(AluOp::Add, Reg::from_index(i as u8), Reg::from_index(i as u8), 1);
        }
        c.halt();
        c.finish();
        let p = Arc::new(pb.finish());
        let state = Machine::new(p, 1).snapshot();

        let mut bytes = Vec::new();
        state.write_to(&mut bytes).unwrap();
        prop_assert_eq!(state.encoded_len(), bytes.len());
        let restored = MachineState::read_from(&mut bytes.as_slice()).unwrap();
        let mut again = Vec::new();
        restored.write_to(&mut again).unwrap();
        prop_assert_eq!(again, bytes);
    }
}

proptest! {
    /// `PcTable` is a `HashMap<Pc, _>` restricted to the program's own
    /// PCs: any mix of inserts, updates and lookups — at PCs inside the
    /// program, one past an image's end, in unknown images and at
    /// `Pc::INVALID` — agrees with the map model, and PCs outside the
    /// program never get a slot.
    #[test]
    fn pc_table_matches_hashmap_model(
        main_len in 1u32..40,
        lib_lens in prop::collection::vec(1u32..20, 0..3),
        ops in prop::collection::vec((0u8..3, 0u16..5, 0u32..44, any::<u8>()), 1..200),
    ) {
        let mut pb = ProgramBuilder::new("pctable");
        let mut c = pb.main_code(); // emits one prologue instruction
        for _ in 1..main_len {
            c.nop();
        }
        c.finish();
        for (i, &len) in lib_lens.iter().enumerate() {
            let mut l = pb.library_code(format!("lib{i}"));
            for _ in 0..len {
                l.nop();
            }
            l.finish();
        }
        let p = pb.finish();
        let in_program = |pc: Pc| p.inst(pc).is_some();

        let mut table: PcTable<u64> = PcTable::new(&p);
        let mut model: std::collections::HashMap<Pc, u64> = std::collections::HashMap::new();
        for &(op, image, offset, v) in &ops {
            let pc = if image == 4 { Pc::INVALID } else { Pc::new(ImageId(image), offset) };
            let v = u64::from(v);
            match op {
                0 => {
                    let got = table.get_or_insert_with(pc, || v).map(|slot| *slot);
                    let want = in_program(pc).then(|| *model.entry(pc).or_insert(v));
                    prop_assert_eq!(got, want);
                }
                1 => {
                    if let Some(slot) = table.get_mut(pc) {
                        *slot += v;
                    }
                    if let Some(slot) = model.get_mut(&pc) {
                        *slot += v;
                    }
                }
                _ => prop_assert_eq!(table.get(pc), model.get(&pc)),
            }
            prop_assert_eq!(table.iter().count(), model.len());
        }
        let mut want: Vec<(Pc, u64)> = model.into_iter().collect();
        want.sort_unstable();
        let got: Vec<(Pc, u64)> = table.iter().map(|(pc, &v)| (pc, v)).collect();
        prop_assert_eq!(got, want, "iteration is the model in ascending PC order");
        prop_assert!(table.iter().all(|(pc, _)| in_program(pc)));
    }
}

/// The seven memory instruction kinds, by index.
const MEM_KINDS: u8 = 7;

/// Emits memory instruction `kind` at `off(base)`, with operands among
/// r1..r3.
fn emit_mem(c: &mut CodeBuilder<'_>, kind: u8, base: Reg, off: i64) {
    match kind {
        0 => c.load(Reg::R1, base, off),
        1 => c.store(Reg::R2, base, off),
        2 => c.atomic_add(Reg::R1, base, off, Reg::R2),
        3 => c.atomic_xchg(Reg::R1, base, off, Reg::R3),
        4 => c.atomic_cas(Reg::R1, base, off, Reg::R2, Reg::R3),
        5 => c.futex_wait(base, off, Reg::R2),
        _ => c.futex_wake(base, off, 1),
    };
}

/// A two-thread program, both threads running the same straight-line code:
/// r20 points into shared memory, r21 into the thread's own private stripe.
fn gated_step_program(body: impl FnOnce(&mut CodeBuilder<'_>)) -> Arc<Program> {
    let mut pb = ProgramBuilder::new("gated");
    let entry = pb.new_label();
    pb.set_worker_entry(entry);
    let mut c = pb.main_code();
    c.bind(entry);
    c.li(Reg::R20, 0x1000);
    c.tid(Reg::R22);
    c.alui(AluOp::Shl, Reg::R22, Reg::R22, 32);
    c.li(Reg::R21, MemLayout::default().private_for(0).0 as i64);
    c.alu_add(Reg::R21, Reg::R21, Reg::R22);
    body(&mut c);
    c.halt();
    c.finish();
    Arc::new(pb.finish())
}

fn state_bytes(m: &Machine) -> Vec<u8> {
    let mut bytes = Vec::new();
    m.snapshot().write_to(&mut bytes).unwrap();
    bytes
}

/// Steps thread `tid` of both machines — `gated` with `step_private`,
/// `twin` with `step` — and holds the gated step to its contract: an
/// `AtShared` answer changed nothing and the `step` after it is the
/// twin's; any other answer is the twin's `step` itself. Returns whether
/// the gate closed.
fn lockstep(gated: &mut Machine, twin: &mut Machine, tid: usize) -> bool {
    let before = state_bytes(gated);
    let private = gated.step_private(tid);
    let plain = twin.step(tid);
    let at_shared = private == Ok(StepResult::AtShared);
    if at_shared {
        assert_eq!(state_bytes(gated), before, "AtShared changed the machine");
        assert_eq!(gated.step(tid), plain);
    } else {
        assert_eq!(private, plain);
    }
    // The gate closes exactly on the instructions that touch shared memory
    // (a futex wait that sleeps retires nothing, so it carries no access).
    match plain {
        Ok(StepResult::Retired(r)) => assert_eq!(at_shared, r.mem.is_some_and(|m| m.shared)),
        Ok(StepResult::Blocked) => {}
        other => assert!(!at_shared, "{other:?}"),
    }
    at_shared
}

/// One case per memory instruction kind, at a shared and at a private
/// address; the futex wait both sleeping (word == expected) and not.
#[test]
fn step_private_gates_every_memory_instruction_kind() {
    for kind in 0..MEM_KINDS {
        for (base, shared) in [(Reg::R20, true), (Reg::R21, false)] {
            for expected in [0, 1] {
                let p = gated_step_program(|c| {
                    c.li(Reg::R2, expected);
                    c.li(Reg::R3, 7);
                    emit_mem(c, kind, base, 8);
                });
                let mut gated = Machine::new(p.clone(), 2);
                let mut twin = Machine::new(p, 2);
                let mut gate_closed = 0;
                for tid in [1, 0] {
                    while twin.thread_state(tid) == ThreadState::Running {
                        gate_closed += usize::from(lockstep(&mut gated, &mut twin, tid));
                    }
                }
                assert_eq!(state_bytes(&gated), state_bytes(&twin));
                // Each thread reaches the instruction once.
                assert_eq!(gate_closed, if shared { 2 } else { 0 }, "kind {kind}");
            }
        }
    }
}

proptest! {
    /// Two machines in lockstep over generated two-thread programs and
    /// schedules: `step_private` either answers `AtShared` and leaves every
    /// byte of the machine alone, or is `step`.
    #[test]
    fn step_private_is_step_behind_a_gate(
        ops in prop::collection::vec((0u8..10, 1u8..4, 0i64..3, any::<bool>(), 0i64..3), 1..40),
        schedule in prop::collection::vec(0usize..2, 1..160),
    ) {
        let p = gated_step_program(|c| {
            for &(op, reg, word, shared, imm) in &ops {
                let base = if shared { Reg::R20 } else { Reg::R21 };
                match op {
                    0..MEM_KINDS => emit_mem(c, op, base, word * 8),
                    7 => drop(c.li(Reg::from_index(reg), imm)),
                    _ => drop(c.alui(AluOp::Add, Reg::from_index(reg), Reg::R1, imm)),
                }
            }
        });
        let mut gated = Machine::new(p.clone(), 2);
        let mut twin = Machine::new(p, 2);
        for &tid in &schedule {
            lockstep(&mut gated, &mut twin, tid);
        }
        prop_assert_eq!(state_bytes(&gated), state_bytes(&twin));
    }
}
