//! Binary serialization of [`MachineState`] — the register + memory files
//! of a pinball.
//!
//! PinPlay pinballs are "portable and shareable user-level checkpoints";
//! this module provides the equivalent: a compact little-endian encoding of
//! the full architectural state that `lp-pinball` wraps (together with the
//! race log) into an on-disk pinball. The format is versioned and
//! self-describing enough to fail loudly on mismatch; it intentionally does
//! **not** include the program (the "binary"), which travels separately, as
//! `.text` does in a real pinball.

use crate::addr::Pc;
use crate::inst::{Reg, RegFile};
use crate::machine::{MachineState, ThreadCtx, ThreadState};
use crate::mem::{FrozenMemory, MEM_PAGE_WORDS};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"LPMS";
const VERSION: u32 = 1;

fn put_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn get_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl MachineState {
    /// Writes the state in the versioned binary format.
    ///
    /// # Errors
    /// Propagates I/O errors from `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        put_u32(w, VERSION)?;

        // Memory pages, sorted for deterministic output.
        let mut pages: Vec<(u64, &[u64; MEM_PAGE_WORDS])> = self.mem.pages().collect();
        pages.sort_by_key(|&(i, _)| i);
        put_u64(w, pages.len() as u64)?;
        for (index, words) in pages {
            put_u64(w, index)?;
            for &word in words.iter() {
                put_u64(w, word)?;
            }
        }

        // Threads.
        put_u32(w, self.threads.len() as u32)?;
        for t in &self.threads {
            for r in Reg::all() {
                put_u64(w, t.regs[r])?;
            }
            put_u64(w, t.pc.to_word())?;
            match t.state {
                ThreadState::Running => put_u32(w, 0)?,
                ThreadState::Blocked { addr } => {
                    put_u32(w, 1)?;
                    put_u64(w, addr.0)?;
                }
                ThreadState::Halted => put_u32(w, 2)?,
            }
            put_u32(w, t.call_stack.len() as u32)?;
            for pc in &t.call_stack {
                put_u64(w, pc.to_word())?;
            }
            put_u64(w, t.retired)?;
        }

        // Futex wait queues, sorted by address.
        let mut futexes: Vec<(&u64, &VecDeque<usize>)> = self.futex_waiters.iter().collect();
        futexes.sort_by_key(|&(a, _)| *a);
        put_u32(w, futexes.len() as u32)?;
        for (addr, queue) in futexes {
            put_u64(w, *addr)?;
            put_u32(w, queue.len() as u32)?;
            for &tid in queue {
                put_u32(w, tid as u32)?;
            }
        }

        put_u64(w, self.global_seq)?;
        put_u32(w, self.live_threads as u32)?;
        Ok(())
    }

    /// Exact byte length [`MachineState::write_to`] would produce, computed
    /// arithmetically (no serialization). Cheap enough to call on every
    /// region checkpoint for memory-footprint accounting.
    pub fn encoded_len(&self) -> usize {
        let n_regs = Reg::all().count();
        let mut n = MAGIC.len() + 4; // magic + version
                                     // Memory pages: count + per page (index + words).
        n += 8 + self.mem.len() * (8 + MEM_PAGE_WORDS * 8);
        // Threads.
        n += 4;
        for t in &self.threads {
            n += n_regs * 8; // registers
            n += 8; // pc
            n += match t.state {
                ThreadState::Blocked { .. } => 4 + 8,
                ThreadState::Running | ThreadState::Halted => 4,
            };
            n += 4 + t.call_stack.len() * 8; // call stack
            n += 8; // retired
        }
        // Futex wait queues.
        n += 4;
        for queue in self.futex_waiters.values() {
            n += 8 + 4 + queue.len() * 4;
        }
        n += 8 + 4; // global_seq + live_threads
        n
    }

    /// Reads a state previously produced by [`MachineState::write_to`].
    ///
    /// # Errors
    /// I/O errors, or `InvalidData` on magic/version/shape mismatches.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<MachineState> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a machine-state blob (bad magic)"));
        }
        let version = get_u32(r)?;
        if version != VERSION {
            return Err(bad("unsupported machine-state version"));
        }

        let mut mem = FrozenMemory::default();
        let npages = get_u64(r)?;
        for _ in 0..npages {
            let index = get_u64(r)?;
            let mut words = [0u64; MEM_PAGE_WORDS];
            for slot in words.iter_mut() {
                *slot = get_u64(r)?;
            }
            mem.push_page(index, words);
        }

        let nthreads = get_u32(r)? as usize;
        if nthreads == 0 || nthreads > 4096 {
            return Err(bad("implausible thread count"));
        }
        let mut threads = Vec::with_capacity(nthreads);
        for _ in 0..nthreads {
            let mut regs = RegFile::default();
            for reg in Reg::all() {
                regs[reg] = get_u64(r)?;
            }
            let pc = Pc::from_word(get_u64(r)?);
            let state = match get_u32(r)? {
                0 => ThreadState::Running,
                1 => ThreadState::Blocked {
                    addr: crate::addr::Addr(get_u64(r)?),
                },
                2 => ThreadState::Halted,
                _ => return Err(bad("unknown thread state tag")),
            };
            let depth = get_u32(r)? as usize;
            if depth > 1 << 16 {
                return Err(bad("implausible call-stack depth"));
            }
            let mut call_stack = Vec::with_capacity(depth);
            for _ in 0..depth {
                call_stack.push(Pc::from_word(get_u64(r)?));
            }
            let retired = get_u64(r)?;
            threads.push(ThreadCtx {
                regs,
                pc,
                state,
                call_stack,
                retired,
            });
        }

        let nfutex = get_u32(r)? as usize;
        let mut futex_waiters = HashMap::with_capacity(nfutex);
        for _ in 0..nfutex {
            let addr = get_u64(r)?;
            let len = get_u32(r)? as usize;
            if len > nthreads {
                return Err(bad("futex queue longer than thread pool"));
            }
            let mut q = VecDeque::with_capacity(len);
            for _ in 0..len {
                let tid = get_u32(r)? as usize;
                if tid >= nthreads {
                    return Err(bad("futex waiter tid out of range"));
                }
                q.push_back(tid);
            }
            futex_waiters.insert(addr, q);
        }

        let global_seq = get_u64(r)?;
        let live_threads = get_u32(r)? as usize;
        if live_threads > nthreads {
            return Err(bad("live thread count exceeds pool"));
        }

        Ok(MachineState {
            mem,
            threads,
            futex_waiters,
            global_seq,
            live_threads,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{Machine, MachineState, ProgramBuilder, Reg};
    use std::sync::Arc;

    fn sample_state() -> (Arc<crate::Program>, MachineState) {
        let mut pb = ProgramBuilder::new("io");
        let f = pb.new_label();
        let mut c = pb.main_code();
        c.li(Reg::R1, 0x40);
        c.li(Reg::R2, 99);
        c.store(Reg::R2, Reg::R1, 0);
        c.call(f);
        c.halt();
        c.bind(f);
        c.counted_loop("l", Reg::R3, 5, |c| {
            c.alui(crate::AluOp::Add, Reg::R4, Reg::R4, 7);
        });
        c.ret();
        c.finish();
        let p = Arc::new(pb.finish());
        let mut m = Machine::new(p.clone(), 1);
        // Stop mid-loop, with a live call stack.
        for _ in 0..10 {
            m.step(0).unwrap();
        }
        (p, m.snapshot())
    }

    #[test]
    fn roundtrip_preserves_execution() {
        let (p, state) = sample_state();
        let mut bytes = Vec::new();
        state.write_to(&mut bytes).unwrap();
        let restored = MachineState::read_from(&mut bytes.as_slice()).unwrap();
        // The bytes are the format's, whatever shares the pages: a read
        // state and a state re-taken from a restored machine write them
        // back exactly.
        let rewrite = |s: &MachineState| {
            let mut out = Vec::new();
            s.write_to(&mut out).unwrap();
            out
        };
        assert_eq!(rewrite(&restored), bytes);
        assert_eq!(
            rewrite(&Machine::from_snapshot(p.clone(), &state).snapshot()),
            bytes
        );
        // FNV-1a of the encoding, pinned from before snapshots shared pages.
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (4428, 8_899_430_396_218_668_714));

        let mut a = Machine::from_snapshot(p.clone(), &state);
        let mut b = Machine::from_snapshot(p, &restored);
        a.run_to_completion(10_000).unwrap();
        b.run_to_completion(10_000).unwrap();
        assert_eq!(a.regs(0), b.regs(0));
        assert_eq!(a.global_retired(), b.global_retired());
        assert_eq!(a.mem().load(crate::Addr(0x40)), 99);
        assert_eq!(b.mem().load(crate::Addr(0x40)), 99);
    }

    #[test]
    fn encoded_len_matches_serialized_size() {
        let (_, state) = sample_state();
        let mut bytes = Vec::new();
        state.write_to(&mut bytes).unwrap();
        assert_eq!(state.encoded_len(), bytes.len());
    }

    #[test]
    fn serialization_is_deterministic() {
        let (_, state) = sample_state();
        let mut x = Vec::new();
        let mut y = Vec::new();
        state.write_to(&mut x).unwrap();
        state.write_to(&mut y).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = MachineState::read_from(&mut &b"XXXXrest"[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_input_rejected() {
        let (_, state) = sample_state();
        let mut bytes = Vec::new();
        state.write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(MachineState::read_from(&mut bytes.as_slice()).is_err());
    }
}
