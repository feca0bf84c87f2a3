//! # lp-workloads — synthetic multi-threaded benchmark suites
//!
//! Stand-ins for the paper's workloads (SPEC CPU2017 *speed* OpenMP subset,
//! NAS Parallel Benchmarks 3.3 class C, and the artifact's `matrix-omp`
//! demo), generated as `lp-isa` programs over the `lp-omp` runtime.
//!
//! The substitution preserves what the LoopPoint methodology actually
//! depends on (instruction counts are scaled ~1000× down; DESIGN.md §7):
//!
//! * **phase structure** — every app is a schedule of rounds over distinct
//!   kernels (stream, stencil, random access, compute chains, reductions,
//!   locked updates), so clustering has real phases to find;
//! * **synchronization mix** — each SPEC-like app uses exactly the
//!   primitives Table III lists for it (static/dynamic for, barriers,
//!   master, single, reductions, atomics, locks), and both `657.xz_s`
//!   stand-ins are barrier-free (the BarrierPoint failure case);
//! * **parallelism profile** — `657.xz_s.1` is single-threaded,
//!   `657.xz_s.2` runs four heterogeneous threads (Fig. 3's imbalance);
//!   everything else follows the requested thread count;
//! * **steady state** — every array is pre-touched in a dedicated init
//!   phase so cold-cache transients live in their own cluster, mirroring
//!   how the paper's 100 M-instruction slices amortize warmup.
//!
//! ## Example
//!
//! ```
//! use lp_workloads::{build, InputClass, spec_workloads};
//! use lp_omp::WaitPolicy;
//!
//! let spec = &spec_workloads()[0]; // 603.bwaves_s.1
//! let program = build(spec, InputClass::Test, 8, WaitPolicy::Passive);
//! assert_eq!(program.name(), "603.bwaves_s.1");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod demo;
pub mod kernels;
mod npb;
mod recipe;
mod spec;

pub use demo::matrix_demo;
pub use npb::npb_workloads;
pub use recipe::{build, InputClass, Suite, SyncPrimitives, WorkloadSpec};
pub use spec::spec_workloads;

/// The one name → workload resolver: looks `name` up across all suites
/// (`demo-matrix-1..3`, the SPEC-like apps, the NPB-like kernels).
pub fn find(name: &str) -> Option<WorkloadSpec> {
    (1..=3)
        .map(matrix_demo)
        .chain(spec_workloads())
        .chain(npb_workloads())
        .find(|w| w.name == name)
}
