//! # lp-sim — multicore timing simulation
//!
//! The Sniper-substitute: executes an `lp-isa` program on N cores with a
//! timing model, producing the statistics the paper's evaluation reports
//! (cycles, IPC, branch MPKI, cache MPKI) and supporting the two execution
//! modes LoopPoint's *how to simulate* step needs:
//!
//! * **fast-forward** — functional execution that warms caches and branch
//!   predictors but skips detailed core timing (the paper's binary-driven
//!   warmup "from the start of the application", §III-F);
//! * **detailed** — full out-of-order (or in-order) core timing.
//!
//! Thread interleaving is **unconstrained**: a min-cycle scheduler always
//! steps the runnable core with the smallest local clock, so the *simulated
//! microarchitecture* decides thread progress — spin-loop iteration counts,
//! barrier arrival orders, and dynamic-for chunk assignments all emerge from
//! target timing, exactly the property §II demands of unconstrained
//! simulation (contrast with `lp-pinball`'s constrained replay).
//!
//! Regions are delimited by `(PC, count)` [`Marker`]s — LoopPoint's
//! microarchitecture-invariant region boundaries — and
//! [`Simulator::run_region`] is the one place that fast-forwards to a
//! start marker and then simulates in detail to an end marker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core_model;
mod simulator;
pub mod stats;
mod timing;

pub use core_model::CoreTiming;
pub use lp_isa::Marker;
pub use simulator::{simulate_full, Mode, SimError, Simulator, StopCond};
pub use stats::{IpcSample, SimStats};
pub use timing::TimingModel;
