//! # looppoint — checkpoint-driven sampled simulation for multi-threaded
//! applications
//!
//! A Rust reproduction of **LoopPoint** (Sabu, Patil, Heirman, Carlson —
//! HPCA 2022): a sampling methodology that reduces a multi-threaded
//! application to a handful of representative regions ("looppoints"),
//! simulates only those in detail, and extrapolates whole-program
//! performance — independent of the synchronization primitives the
//! application uses.
//!
//! ## The pipeline
//!
//! ```text
//!  record + DCFG ──▶ constrained replay ──▶ loop-aligned, spin-filtered
//!  (pinball, loops)  (reproducible)         slicing + per-thread BBVs
//!                                                      │
//!       unconstrained simulation  ◀── looppoints ◀── k-means + BIC
//!       of each region (warmup +      (PC,count)      clustering
//!       detailed), in parallel        markers
//!                                                      │
//!                 total runtime = Σ runtimeᵢ × multiplierᵢ   (Eq. 1–2)
//! ```
//!
//! Entry points:
//! * [`analyze`] — the one-time, up-front application analysis (§III-A..E);
//! * [`run_pipeline`] — analyze → region checkpoints → simulate every
//!   looppoint with fast-forward warmup (§III-F, §III-J); `warmup_slices`
//!   is [`WARMUP_SLICES`] for the paper's checkpoint deployment or
//!   [`FROM_RESET`] for binary-driven warmup (§V-A). [`run_job`] condenses
//!   it for the farm; [`prepare_region_checkpoints`] +
//!   [`simulate_prepared`] are its two halves, for one analysis simulated
//!   on several machines;
//! * [`extrapolate`] — Eq. 1/2 runtime and metric reconstruction (§III-G);
//! * [`analyze_live`] — Pac-Sim-style *online* sampling: one pass, no
//!   profiling prequel, per-region simulate-or-predict;
//! * [`Estimate`] — the one Eq. 1/2 estimate both modes build, and
//!   [`diagnose`], its per-cluster accuracy attribution
//!   (representativeness / warmup / multiplier residual);
//! * [`speedups`] — theoretical/actual, serial/parallel speedups (§V-B);
//! * [`baselines`] — BarrierPoint, naive multi-threaded SimPoint, and
//!   time-based sampling, for the paper's comparisons;
//! * [`constrained`] — timing simulation on constrained replay, with its
//!   artificial thread stalls (§V-A.1).
//!
//! ## Quick start
//!
//! A complete, runnable pipeline on a miniature two-thread program (a
//! parallel loop of dependent ALU work). `cargo test --doc` executes this
//! end-to-end: record, replay, slice, cluster, simulate, extrapolate.
//!
//! ```
//! use looppoint::{extrapolate, run_pipeline, LoopPointConfig, SimOptions, FROM_RESET};
//! use lp_isa::{AluOp, ProgramBuilder, Reg};
//! use lp_omp::{OmpRuntime, WaitPolicy};
//! use lp_uarch::SimConfig;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), looppoint::LoopPointError> {
//! // Build a miniature OpenMP-style program: 2 threads, 600 iterations
//! // of a statically scheduled parallel loop.
//! let nthreads = 2;
//! let mut pb = ProgramBuilder::new("doc-demo");
//! let mut rt = OmpRuntime::build(&mut pb, nthreads, WaitPolicy::Passive);
//! let mut c = pb.main_code();
//! rt.emit_main_init(&mut c);
//! rt.emit_parallel(&mut c, "work", |c, rt| {
//!     rt.emit_static_for(c, "work.loop", 600, |c, _| {
//!         c.alui(AluOp::Mul, Reg::R1, Reg::R16, 13);
//!         c.alui(AluOp::Add, Reg::R2, Reg::R1, 7);
//!         c.alui(AluOp::Xor, Reg::R3, Reg::R2, 0x2a);
//!     });
//! });
//! rt.emit_shutdown(&mut c);
//! c.halt();
//! c.finish();
//! let program = Arc::new(pb.finish());
//!
//! // Analyze (tiny slices so even this miniature program yields several),
//! // simulate the representatives from reset, extrapolate whole-program
//! // runtime.
//! let cfg = LoopPointConfig::with_slice_base(500);
//! let simcfg = SimConfig::gainestown(nthreads);
//! let run = run_pipeline(
//!     &program, nthreads, &cfg, &simcfg, &SimOptions::default(), FROM_RESET, None)?;
//! assert!(!run.analysis.looppoints.is_empty());
//! let prediction = extrapolate(&run.results);
//! assert!(prediction.total_cycles > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod cancel;
mod config;
pub mod constrained;
mod coverage;
mod error;
mod estimate;
mod job;
mod live;
#[cfg(test)]
mod pc_table_equivalence;
pub mod persist;
mod pipeline;
mod pool;
pub mod report;
mod simulate;
mod speedup;
#[cfg(test)]
mod testutil;

pub use cancel::CancelToken;
pub use config::{LoopPointConfig, DEFAULT_MAX_STEPS};
pub use coverage::Coverage;
pub use error::LoopPointError;
pub use estimate::{diagnose, extrapolate, Estimate, Prediction};
pub use job::{run_job, run_pipeline, JobOutcome, JobSummary};
pub use live::{
    analyze_live, run_live_job, LiveConfig, LiveOutcome, LiveRegionRecord, LiveRepStats,
    LiveSummary,
};
pub use lp_diag::{error_pct, DiagReport, SelfProfile};
pub use lp_live::{LiveProgress, OnlineConfig};
pub use persist::{
    analysis_key, analyze_cached, checkpoints_key, prepare_region_checkpoints_cached,
};
pub use pipeline::{analyze, Analysis, LoopPointRegion};
pub use simulate::{
    prepare_region_checkpoints, simulate_prepared, simulate_whole, PreparedCheckpoints,
    PreparedRegion, RegionResult, SimOptions, FROM_RESET, WARMUP_SLICES,
};
pub use speedup::{human_duration, speedups, SimTimeModel, SpeedupReport};
