//! # looppoint-repro — facade for the LoopPoint reproduction workspace
//!
//! Re-exports every crate of the reproduction of *LoopPoint:
//! Checkpoint-driven Sampled Simulation for Multi-threaded Applications*
//! (HPCA 2022) under one roof, for the examples and cross-crate
//! integration tests that live in this root package.
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`isa`] | `lp-isa` | abstract ISA, program builder, functional VM |
//! | [`omp`] | `lp-omp` | OpenMP-like runtime (library image, spin/futex waiting) |
//! | [`uarch`] | `lp-uarch` | caches, coherence, branch predictors, Table I configs |
//! | [`sim`] | `lp-sim` | multicore timing simulator (unconstrained) |
//! | [`pinball`] | `lp-pinball` | record / constrained replay checkpoints |
//! | [`dcfg`] | `lp-dcfg` | dynamic CFG, dominators, natural loops |
//! | [`bbv`] | `lp-bbv` | loop-aligned spin-filtered slicing + BBVs |
//! | [`simpoint`] | `lp-simpoint` | random projection + k-means + BIC |
//! | [`looppoint`] | `looppoint` | the methodology itself + baselines |
//! | [`workloads`] | `lp-workloads` | SPEC-like / NPB-like synthetic suites |
//! | [`obs`] | `lp-obs` | span tracing, metrics registry, Chrome-trace export, live telemetry endpoint |
//! | [`diag`] | `lp-diag` | accuracy attribution, error decomposition, self-profiles |
//! | [`cli`] | — | the `run-looppoint` front door: flag table, command registry, renderers |
//!
//! See the `examples/` directory for runnable end-to-end demonstrations
//! (start with `cargo run --release --example quickstart`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use looppoint;
pub use lp_bbv as bbv;
pub use lp_dcfg as dcfg;
pub use lp_diag as diag;
pub use lp_isa as isa;
pub use lp_obs as obs;
pub use lp_omp as omp;
pub use lp_pinball as pinball;
pub use lp_sim as sim;
pub use lp_simpoint as simpoint;
pub use lp_uarch as uarch;
pub use lp_workloads as workloads;
