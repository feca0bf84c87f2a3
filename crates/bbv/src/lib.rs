//! # lp-bbv — execution slicing and basic-block-vector profiling
//!
//! Implements LoopPoint's *where to simulate* analysis (§III-A/B/C of the
//! paper):
//!
//! * [`LoopAlignedSlicer`] cuts the (constrained, replayed) execution into
//!   slices of approximately `N × slice_base` **spin-filtered** global
//!   instructions for an N-thread run, ending each slice at the next
//!   execution of a *main-image loop header* — so every boundary is a
//!   stable `(PC, count)` marker;
//! * per-slice, per-thread BBVs are collected (block entries weighted by
//!   block length), with every library-image instruction excluded — the
//!   paper's `libiomp5.so` filter — and concatenated per thread so
//!   heterogeneous thread behaviour (Fig. 3) is visible to clustering;
//! * [`FixedSlicer`] is the *naive multi-threaded SimPoint* baseline the
//!   paper criticizes in §II: fixed global instruction-count slices, no
//!   filtering, no loop alignment, boundaries expressed as raw global
//!   instruction indices.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fixed;
mod slicer;
mod vector;

pub use fixed::{FixedSlice, FixedSlicer};
pub use slicer::{BoundaryState, LoopAlignedSlicer, Slice, SlicePolicy, SliceProfile};
pub use vector::SparseVec;
