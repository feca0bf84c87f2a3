//! Baseline sampling methodologies the paper compares against.
//!
//! * [`barrierpoint`] — inter-barrier regions as the unit of work
//!   (Carlson et al., ISPASS 2014). Works well when many small
//!   inter-barrier regions exist; degenerates to one giant region for
//!   applications with few or no barriers (Fig. 9's comparison).
//! * [`simpoint_mt`] — the naive multi-threaded adaptation of SimPoint:
//!   fixed global instruction-count slices, no spin filtering, boundaries
//!   expressed as raw instruction indices (§II's negative result).
//! * [`time_sampling`] — periodic detailed/fast-forward time-based sampling
//!   (ESESC-style); accurate, but must visit the entire application, which
//!   bounds its speedup (§II, Fig. 1).

pub mod barrierpoint;
pub mod simpoint_mt;
pub mod time_sampling;

pub use barrierpoint::{analyze_barrierpoint, BarrierPointAnalysis, BarrierRegion};
pub use simpoint_mt::{analyze_naive, simulate_naive_regions, NaiveAnalysis, NaiveRegion};
pub use time_sampling::{time_based_sampling, TimeSamplingResult};
