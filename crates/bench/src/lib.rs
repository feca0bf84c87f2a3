//! # lp-bench — the experiment harness
//!
//! Shared machinery for the bench targets that regenerate every table and
//! figure of the LoopPoint paper (see `benches/`). Each target is a
//! `harness = false` executable run by `cargo bench`; it prints the same
//! rows/series the paper reports, next to the paper's published values
//! where the paper states them.
//!
//! Absolute numbers are not expected to match (the substrate is a scaled
//! simulator, not the authors' testbed); the *shape* — who wins, by what
//! rough factor, where the crossovers fall — is the reproduction target.
//! `EXPERIMENTS.md` records paper-vs-measured for each experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paper;
pub mod table;

use looppoint::{
    analyze, error_pct, extrapolate, run_pipeline, simulate_whole, speedups, Analysis, JobOutcome,
    LoopPointConfig, LoopPointError, Prediction, SimOptions, SpeedupReport,
};
use lp_obs::json::Value;
use lp_omp::WaitPolicy;
use lp_sim::SimStats;
use lp_uarch::SimConfig;
use lp_workloads::{build, InputClass, WorkloadSpec};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// A pipeline failure inside a bench run, carrying which workload and
/// which phase failed so a 30-workload sweep names its culprit instead of
/// panicking with a bare pipeline error.
pub struct BenchError {
    /// The workload that failed.
    pub workload: String,
    /// The pipeline phase that failed (`"analysis"`, `"sampled
    /// pipeline"`, `"full simulation"`).
    pub phase: &'static str,
    /// The underlying pipeline error.
    pub source: LoopPointError,
}

impl BenchError {
    fn new(workload: &str, phase: &'static str) -> impl FnOnce(LoopPointError) -> BenchError {
        let workload = workload.to_string();
        move |source| BenchError {
            workload,
            phase,
            source,
        }
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} failed: {}",
            self.workload, self.phase, self.source
        )
    }
}

// Debug delegates to Display so `Result::unwrap` in a bench target dies
// with the full "workload: phase failed: cause" message.
impl fmt::Debug for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Command line of the targets that write a `BENCH_*.json`: `--smoke`
/// selects the CI gate's quick variant, `--out PATH` redirects the JSON
/// away from the committed baseline.
pub struct BenchArgs {
    /// Run the quick variant.
    pub smoke: bool,
    /// Where [`BenchArgs::write`] puts the document.
    pub out: PathBuf,
}

impl BenchArgs {
    /// Parses the process arguments; `baseline` is the committed file the
    /// target regenerates when `--out` is absent.
    pub fn parse(baseline: &str) -> BenchArgs {
        let mut args = BenchArgs {
            smoke: false,
            out: PathBuf::from(baseline),
        };
        let mut argv = std::env::args().skip(1);
        // `cargo bench` passes --bench through; anything unknown is
        // ignored so the target stays harness-compatible.
        while let Some(arg) = argv.next() {
            if arg == "--smoke" {
                args.smoke = true;
            } else if arg == "--out" {
                args.out = PathBuf::from(argv.next().expect("--out needs a path"));
            }
        }
        args
    }

    /// Writes `doc` through the production serializer, atomically.
    pub fn write(&self, doc: &Value) {
        lp_obs::write_atomic(&self.out, format!("{doc}\n").as_bytes())
            .unwrap_or_else(|e| panic!("writing {}: {e}", self.out.display()));
        println!("\nwrote {}", self.out.display());
    }
}

/// A JSON object of `members`, in order.
pub fn obj<const N: usize>(members: [(&str, Value); N]) -> Value {
    let members = members.into_iter().map(|(k, v)| (k.to_string(), v));
    Value::Obj(members.collect())
}

/// Thread count used for the SPEC-like evaluation (the paper's default).
pub const SPEC_THREADS: usize = 8;

/// Default slice base for bench-scale pipelines (per-thread filtered
/// instructions; the paper's 100 M scaled per DESIGN.md §7).
pub const BENCH_SLICE_BASE: u64 = 8_000;

/// Everything measured for one application/policy configuration.
#[derive(Debug)]
pub struct AppEval {
    /// Workload name.
    pub name: String,
    /// Wait policy evaluated.
    pub policy: WaitPolicy,
    /// Team size actually used.
    pub nthreads: usize,
    /// The sampled pipeline's analysis and per-region results.
    pub outcome: JobOutcome,
    /// Extrapolated whole-program metrics.
    pub prediction: Prediction,
    /// Full-application reference simulation.
    pub full: SimStats,
    /// Speedup accounting.
    pub speedup: SpeedupReport,
}

impl AppEval {
    /// Absolute runtime-prediction error in percent (Fig. 5 and 7a bars).
    pub fn runtime_error_pct(&self) -> f64 {
        error_pct(self.prediction.total_cycles, self.full.cycles as f64)
    }

    /// Absolute difference in branch MPKI (Fig. 7b bars).
    pub fn branch_mpki_diff(&self) -> f64 {
        (self.prediction.branch_mpki - self.full.branch_mpki()).abs()
    }

    /// Absolute difference in L2 MPKI (Fig. 7c bars).
    pub fn l2_mpki_diff(&self) -> f64 {
        (self.prediction.l2_mpki - self.full.l2_mpki()).abs()
    }

    /// The accuracy-attribution report for this evaluation: per-cluster
    /// signed errors (summing exactly to the end-to-end error) split into
    /// representativeness / warmup / extrapolation causes, plus a
    /// self-profile of the spans recorded by `obs`. See
    /// [`looppoint::diagnose`].
    pub fn diag_report(&self, obs: &lp_obs::Observer) -> lp_diag::DiagReport {
        let estimate =
            looppoint::Estimate::two_phase(&self.outcome.analysis, &self.outcome.results);
        looppoint::diagnose(
            &self.name,
            self.nthreads,
            "two-phase",
            &estimate,
            Some(&self.full),
            obs,
        )
    }
}

/// The default pipeline configuration for bench runs.
pub fn bench_config() -> LoopPointConfig {
    LoopPointConfig::with_slice_base(BENCH_SLICE_BASE)
}

/// Runs the product's sampled pipeline for one workload —
/// [`run_pipeline`] with the given checkpoint warm-up window
/// ([`looppoint::FROM_RESET`] for the accuracy figures,
/// [`looppoint::WARMUP_SLICES`] for the actual-speedup figures) — plus
/// the full-run reference, extrapolation and speedups.
///
/// # Errors
/// [`BenchError`] naming the workload and the failing phase.
pub fn evaluate_app(
    spec: &WorkloadSpec,
    input: InputClass,
    requested_threads: usize,
    policy: WaitPolicy,
    simcfg: &SimConfig,
    warmup_slices: usize,
) -> Result<AppEval, BenchError> {
    let nthreads = spec.effective_threads(requested_threads);
    let program = build(spec, input, requested_threads, policy);
    // Regions run back-to-back: each region's wall time is then measured
    // without host contention, so the *parallel* speedup (full wall over
    // the largest single region, §V-B's "assuming sufficient parallel
    // resources") is computed from clean per-region times.
    let outcome = run_pipeline(
        &program,
        nthreads,
        &bench_config(),
        simcfg,
        &SimOptions::default(),
        warmup_slices,
        None,
    )
    .map_err(BenchError::new(spec.name, "sampled pipeline"))?;
    let prediction = extrapolate(&outcome.results);
    let full = simulate_whole(&program, nthreads, simcfg)
        .map_err(BenchError::new(spec.name, "full simulation"))?;
    let speedup = speedups(&outcome.analysis, &outcome.results, &full);
    Ok(AppEval {
        name: spec.name.to_string(),
        policy,
        nthreads,
        outcome,
        prediction,
        full,
        speedup,
    })
}

/// Analysis-only evaluation (for `ref`-scale experiments where, exactly as
/// in the paper, the full detailed reference is impractical and only
/// theoretical speedups are reported).
///
/// # Errors
/// [`BenchError`] naming the workload; the phase is always `"analysis"`.
pub fn analyze_app(
    spec: &WorkloadSpec,
    input: InputClass,
    requested_threads: usize,
    policy: WaitPolicy,
) -> Result<(Arc<lp_isa::Program>, usize, Analysis), BenchError> {
    let nthreads = spec.effective_threads(requested_threads);
    let program = build(spec, input, requested_threads, policy);
    let analysis = analyze(&program, nthreads, &bench_config())
        .map_err(BenchError::new(spec.name, "analysis"))?;
    Ok((program, nthreads, analysis))
}

/// Geometric-mean helper for speedup summaries.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Arithmetic-mean helper for error summaries.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}
