//! # lp-uarch — microarchitectural components
//!
//! The paper evaluates LoopPoint on Sniper 7.4 configured as an Intel
//! Gainestown-like multicore (Table I): 8/16 out-of-order cores at 2.66 GHz
//! with a 128-entry ROB, a Pentium-M branch predictor, and a
//! 32K-L1I/32K-L1D/256K-L2 private + 8M-L3 shared cache hierarchy, all LRU.
//! This crate provides those components for the `lp-sim` timing models:
//!
//! * [`SetAssocCache`] — a set-associative LRU cache;
//! * [`MemoryHierarchy`] — per-core L1I/L1D/L2, shared L3, invalidation-
//!   based coherence for shared lines, and per-core miss statistics;
//! * [`BranchPredictor`] — a Pentium-M-style hybrid (bimodal + gshare with
//!   a chooser), BTB, and return-address stack;
//! * [`SimConfig`] — named machine configurations: the Table I
//!   out-of-order machine, its in-order variant (Fig. 5b portability
//!   study), and a deliberately different *recording host* used when
//!   capturing pinballs, so constrained replay reflects a foreign machine's
//!   interleaving exactly as in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod cache;
mod chunked;
mod config;
mod hierarchy;

pub use branch::{BranchPredictor, BranchPredictorConfig, BranchStats};
pub use cache::{CacheConfig, Fill, SetAssocCache};
pub use chunked::CopyBytes;
pub use config::{CoreModel, LatencyTable, SimConfig};
pub use hierarchy::{AccessResult, CacheLevel, CoreMemStats, MemoryHierarchy};
