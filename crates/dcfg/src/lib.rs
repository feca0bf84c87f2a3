//! # lp-dcfg — dynamic control-flow graphs
//!
//! LoopPoint identifies its unit of work — loop iterations — from a
//! *Dynamic* Control-Flow Graph (§III-D, §IV-D of the paper): a CFG whose
//! edges carry trip counts observed during a (constrained, reproducible)
//! execution. This crate builds that graph from the retirement stream of an
//! `lp-pinball` recording or replay:
//!
//! 1. [`DcfgBuilder`] records every control-flow edge with per-thread trip
//!    counts;
//! 2. basic blocks are derived so they are single-entry/single-exit and
//!    non-overlapping (the property the paper notes distinguishes DCFG
//!    blocks from Pin's);
//! 3. routines are split at call edges; within each routine, immediate
//!    dominators are computed and **natural loops** identified from back
//!    edges (an edge `u → h` where `h` dominates `u`);
//! 4. [`Dcfg::loop_headers`] exposes the loop-entry PCs — filtered to the
//!    main image by callers, these are the legal slice boundaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod export;
mod graph;
mod loops;

pub use builder::DcfgBuilder;
pub use graph::{BasicBlock, BlockId, Dcfg, Edge};
pub use loops::{LoopInfo, Routine};
