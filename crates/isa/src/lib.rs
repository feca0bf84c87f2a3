//! # lp-isa — abstract ISA, program images, and functional VM
//!
//! This crate is the foundation of the LoopPoint reproduction. It plays the
//! role that *program binaries plus Intel Pin* play in the original paper:
//! it defines a small register-machine instruction set, lays program code out
//! in [`Image`]s (a *main* executable image and *library* images, mirroring
//! the `binary` / `libiomp5.so` split the paper's spin-filtering heuristic
//! relies on), and executes programs functionally on a [`Machine`] that
//! reports every retired instruction to the caller — the same observation
//! stream a Pin tool sees.
//!
//! ## Address spaces
//!
//! Every instruction lives at a [`Pc`] (image id + instruction index) and
//! every memory access touches an [`Addr`] in a single flat, word-addressed
//! address space. The layout distinguishes *shared* addresses (low range)
//! from *per-thread private* addresses (high range, one stripe per thread);
//! see [`MemLayout`]. Shared accesses are what the pinball race log records.
//!
//! ## Threads
//!
//! A [`Machine`] is created with a fixed thread pool (mirroring an OpenMP
//! runtime's worker pool). Thread 0 runs the program's main entry; worker
//! threads run the worker entry (typically a parked dispatch loop emitted by
//! `lp-omp`). The machine itself has **no scheduler**: callers decide which
//! thread steps next, which is exactly how record/replay (constrained order),
//! flow-control profiling (equal progress), and timing-driven simulation
//! (unconstrained order) impose their different interleavings on one
//! functional core.
//!
//! ## Example
//!
//! ```
//! use lp_isa::{ProgramBuilder, Machine, Reg, StepResult};
//!
//! # fn main() -> Result<(), lp_isa::MachineError> {
//! let mut pb = ProgramBuilder::new("demo");
//! let mut code = pb.main_code();
//! // for i in 0..10 { sum += i }
//! code.li(Reg::R1, 0); // sum
//! code.li(Reg::R2, 0); // i
//! code.counted_loop("body", Reg::R3, 10, |c| {
//!     c.alu_add(Reg::R1, Reg::R1, Reg::R2);
//!     c.alui_add(Reg::R2, Reg::R2, 1);
//! });
//! code.halt();
//! code.finish();
//! let program = pb.finish();
//!
//! let mut machine = Machine::new(std::sync::Arc::new(program), 1);
//! while !machine.is_finished() {
//!     if let StepResult::Retired(_) = machine.step(0)? {}
//! }
//! assert_eq!(machine.regs(0)[Reg::R1], 45);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod builder;
mod disasm;
mod error;
mod fingerprint;
mod image;
mod inst;
mod machine;
mod mem;
mod pctable;
mod program;
mod stateio;

pub use addr::{Addr, ImageId, Marker, MemLayout, Pc};
pub use builder::{CodeBuilder, Label, ProgramBuilder};
pub use disasm::{describe_marker, describe_pc};
pub use error::MachineError;
pub use image::{Image, ImageKind};
pub use inst::{AluOp, Cond, CtrlKind, FpuOp, Inst, InstClass, Reg, RegFile};
pub use machine::{CtrlEvent, Machine, MachineState, MemAccess, Retired, StepResult, ThreadState};
pub use mem::Memory;
pub use pctable::PcTable;
pub use program::Program;
