//! Accuracy-attribution diagnostics for sampled simulation.
//!
//! A LoopPoint prediction can be wrong for several distinct reasons, and
//! knowing the *total* error says nothing about which one to fix. This
//! crate decomposes the end-to-end extrapolation error into per-cluster
//! signed contributions and splits each contribution into three causes:
//!
//! * **representativeness** — the chosen representative region sits far
//!   from its cluster centroid in BBV space, so it stands for work it does
//!   not resemble (§III-E's clustering quality, made visible per cluster);
//! * **warmup / boundary** — microarchitectural state at the region
//!   boundary was approximated (fast-forward warming instead of true
//!   history), proportional to the warmup share of the region's execution;
//! * **extrapolation** — the Eq. 2 multiplier residual: whatever error
//!   remains once the other two causes are accounted for.
//!
//! The decomposition is *exact by construction*: per-cluster signed errors
//! sum to the end-to-end signed error, and the three components sum to
//! each cluster's error (see [`attribution::attribute`]). That invariant
//! is what makes the report trustworthy as a debugging tool — no error
//! mass appears or disappears in the accounting.
//!
//! The crate also summarizes the pipeline's *own* cost from recorded
//! trace spans ([`profile::SelfProfile`]) so a report answers both "why
//! is the prediction wrong?" and "where did the analysis time go?".
//!
//! Reports serialize to JSON ([`DiagReport::to_json`] /
//! [`DiagReport::from_json`] round-trip byte-identically) and render as a
//! human-readable table ([`DiagReport::render_table`]).

#![warn(missing_docs)]

pub mod attribution;
pub mod profile;
pub mod report;

pub use attribution::{attribute, error_pct, Attribution, ClusterInput};
pub use profile::{PhaseCost, SelfProfile};
pub use report::{ClusterDiag, DiagReport, ErrorComponents};

/// Report schema version (the `schema_version` field of the JSON
/// document). Bump on any structural change so downstream tooling can
/// reject documents it does not understand.
pub const SCHEMA_VERSION: u64 = 1;
