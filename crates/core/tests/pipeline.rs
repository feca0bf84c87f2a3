//! End-to-end LoopPoint pipeline tests: analysis, simulation,
//! extrapolation accuracy, and speedup accounting, on the synthetic
//! workload suite.

use looppoint::{
    analyze, error_pct, extrapolate, run_pipeline, simulate_whole, speedups, JobOutcome,
    LoopPointConfig, RegionResult, SimOptions, FROM_RESET, WARMUP_SLICES,
};
use lp_isa::{AluOp, ProgramBuilder, Reg};
use lp_omp::WaitPolicy;
use lp_uarch::SimConfig;
use lp_workloads::{build, InputClass};
use std::sync::Arc;

mod oracle;

const NTHREADS: usize = 4;

fn workload(name: &str, policy: WaitPolicy) -> (Arc<lp_isa::Program>, usize) {
    let spec = lp_workloads::find(name).unwrap();
    let n = spec.effective_threads(NTHREADS);
    (build(&spec, InputClass::Train, NTHREADS, policy), n)
}

fn small_cfg() -> LoopPointConfig {
    LoopPointConfig::with_slice_base(8_000)
}

/// The sampled pipeline on one program, regions simulated from reset
/// (binary-driven warmup) unless a checkpoint window is given.
fn sampled(
    p: &Arc<lp_isa::Program>,
    n: usize,
    simcfg: &SimConfig,
    opts: &SimOptions,
    warmup_slices: usize,
) -> JobOutcome {
    run_pipeline(p, n, &small_cfg(), simcfg, opts, warmup_slices, None).unwrap()
}

fn from_reset(p: &Arc<lp_isa::Program>, n: usize, simcfg: &SimConfig) -> JobOutcome {
    sampled(p, n, simcfg, &SimOptions::default(), FROM_RESET)
}

/// Runs the full pipeline and returns (prediction error %, analysis size
/// facts) for one workload/policy.
fn end_to_end(name: &str, policy: WaitPolicy, simcfg: &SimConfig) -> f64 {
    let (p, n) = workload(name, policy);
    let prediction = extrapolate(&from_reset(&p, n, simcfg).results);
    let full = simulate_whole(&p, n, simcfg).unwrap();
    error_pct(prediction.total_cycles, full.cycles as f64)
}

#[test]
fn analysis_invariants() {
    let (p, n) = workload("619.lbm_s.1", WaitPolicy::Passive);
    let analysis = analyze(&p, n, &small_cfg()).unwrap();

    assert!(
        analysis.profile.slices.len() >= 6,
        "enough slices to cluster"
    );
    assert!(
        analysis.looppoints.len() < analysis.profile.slices.len(),
        "sampling must reduce the workload: {} looppoints for {} slices",
        analysis.looppoints.len(),
        analysis.profile.slices.len()
    );

    // Eq. 2 invariant: multiplier-weighted representative sizes reconstruct
    // the whole-program filtered instruction count exactly.
    let reconstructed = analysis.reconstructed_filtered_insts();
    let actual = analysis.profile.total_filtered as f64;
    assert!(
        (reconstructed - actual).abs() / actual < 1e-9,
        "Eq. 2 exactness: {reconstructed} vs {actual}"
    );

    // Region boundaries are main-image loop headers.
    for lp in &analysis.looppoints {
        for m in [lp.start, lp.end].into_iter().flatten() {
            assert!(!p.is_library_pc(m.pc), "boundary {} in main image", m);
        }
    }
}

#[test]
fn runtime_prediction_is_accurate_passive() {
    let cfg = SimConfig::gainestown(NTHREADS);
    for name in ["619.lbm_s.1", "603.bwaves_s.1"] {
        let err = end_to_end(name, WaitPolicy::Passive, &cfg);
        assert!(err < 8.0, "{name} passive runtime error {err:.2}%");
    }
}

#[test]
fn runtime_prediction_is_accurate_active() {
    // The difficult case: spin loops inflate instruction counts, but the
    // spin filter keeps markers and multipliers stable.
    let cfg = SimConfig::gainestown(NTHREADS);
    let err = end_to_end("619.lbm_s.1", WaitPolicy::Active, &cfg);
    assert!(err < 8.0, "active runtime error {err:.2}%");
}

#[test]
fn looppoints_are_portable_across_microarchitectures() {
    // Fig. 5b: the analysis takes no microarchitectural input, so the
    // markers it chooses predict an *in-order* machine too.
    let (p, n) = workload("603.bwaves_s.1", WaitPolicy::Passive);
    let cfg = SimConfig::gainestown_inorder(NTHREADS);
    let prediction = extrapolate(&from_reset(&p, n, &cfg).results);
    let full = simulate_whole(&p, n, &cfg).unwrap();
    let err = error_pct(prediction.total_cycles, full.cycles as f64);
    assert!(err < 8.0, "in-order prediction error {err:.2}%");
}

#[test]
fn metric_extrapolation_tracks_full_run() {
    let (p, n) = workload("619.lbm_s.1", WaitPolicy::Passive);
    let cfg = SimConfig::gainestown(NTHREADS);
    let prediction = extrapolate(&from_reset(&p, n, &cfg).results);
    let full = simulate_whole(&p, n, &cfg).unwrap();

    // Absolute-difference comparisons, as the paper presents Fig. 7b/7c.
    assert!(
        (prediction.l2_mpki - full.l2_mpki()).abs() < 2.0,
        "L2 MPKI: predicted {} vs {}",
        prediction.l2_mpki,
        full.l2_mpki()
    );
    assert!(
        (prediction.branch_mpki - full.branch_mpki()).abs() < 2.0,
        "branch MPKI: predicted {} vs {}",
        prediction.branch_mpki,
        full.branch_mpki()
    );
    assert!(error_pct(prediction.total_instructions, full.instructions as f64) < 8.0);
}

#[test]
fn speedup_report_shape() {
    let (p, n) = workload("649.fotonik3d_s.1", WaitPolicy::Passive);
    let cfg = SimConfig::gainestown(NTHREADS);
    let run = from_reset(&p, n, &cfg);
    let full = simulate_whole(&p, n, &cfg).unwrap();
    let sp = speedups(&run.analysis, &run.results, &full);

    assert!(
        sp.theoretical_serial > 1.5,
        "sampling reduces detailed work: {}x",
        sp.theoretical_serial
    );
    assert!(
        sp.theoretical_parallel >= sp.theoretical_serial,
        "parallel ({}) ≥ serial ({})",
        sp.theoretical_parallel,
        sp.theoretical_serial
    );
}

#[test]
fn parallel_and_serial_region_simulation_agree() {
    let (p, n) = workload("619.lbm_s.1", WaitPolicy::Passive);
    let cfg = SimConfig::gainestown(NTHREADS);
    let serial = from_reset(&p, n, &cfg).results;
    let parallel = sampled(&p, n, &cfg, &SimOptions::parallel(), FROM_RESET).results;
    assert_eq!(serial.len(), parallel.len());
    for (s, par) in serial.iter().zip(&parallel) {
        assert_eq!(
            s.stats.cycles, par.stats.cycles,
            "simulation is deterministic"
        );
        assert_eq!(s.stats.instructions, par.stats.instructions);
    }
}

#[test]
fn single_threaded_application_works() {
    // 657.xz_s.1 runs single-threaded in the paper.
    let (p, n) = workload("657.xz_s.1", WaitPolicy::Passive);
    assert_eq!(n, 1);
    let cfg = SimConfig::gainestown(1);
    let prediction = extrapolate(&from_reset(&p, n, &cfg).results);
    let full = simulate_whole(&p, n, &cfg).unwrap();
    let err = error_pct(prediction.total_cycles, full.cycles as f64);
    assert!(err < 8.0, "single-threaded error {err:.2}%");
}

#[test]
fn heterogeneous_application_works() {
    // 657.xz_s.2: 4 threads, imbalanced — the concatenated per-thread BBVs
    // must still produce accurate representatives.
    let (p, n) = workload("657.xz_s.2", WaitPolicy::Passive);
    assert_eq!(n, 4);
    let cfg = SimConfig::gainestown(4);
    let prediction = extrapolate(&from_reset(&p, n, &cfg).results);
    let full = simulate_whole(&p, n, &cfg).unwrap();
    let err = error_pct(prediction.total_cycles, full.cycles as f64);
    assert!(err < 15.0, "heterogeneous error {err:.2}%");
}

#[test]
fn program_without_loops_reports_no_slices() {
    let mut pb = ProgramBuilder::new("flat");
    let mut c = pb.main_code();
    for _ in 0..50 {
        c.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
    }
    c.halt();
    c.finish();
    let p = Arc::new(pb.finish());
    let err = analyze(&p, 1, &LoopPointConfig::default()).unwrap_err();
    assert!(matches!(err, looppoint::LoopPointError::NoSlices { .. }));
}

#[test]
fn checkpoint_driven_simulation_matches_binary_driven() {
    // The checkpoint-driven mode (restore + short warmup) must agree with
    // binary-driven (fast-forward from program start) on extrapolated
    // runtime to within warmup noise, while doing far less warmup work.
    let (p, n) = workload("619.lbm_s.1", WaitPolicy::Passive);
    let cfg = SimConfig::gainestown(NTHREADS);
    let binary = from_reset(&p, n, &cfg);
    let ckpt = sampled(&p, n, &cfg, &SimOptions::default(), WARMUP_SLICES).results;

    let pred_b = extrapolate(&binary.results).total_cycles;
    let pred_c = extrapolate(&ckpt).total_cycles;
    let diff = (pred_b - pred_c).abs() / pred_b;
    assert!(
        diff < 0.10,
        "modes agree: binary {pred_b:.0} vs checkpointed {pred_c:.0}"
    );

    // And the checkpoint-driven mode skips most of the fast-forward work
    // of binary-driven regions simulated each on its own (the independent
    // oracle) ...
    let opts = SimOptions::default();
    let independent = oracle::independent(&binary.analysis, &p, n, &cfg, &opts, FROM_RESET);
    let ff_b: u64 = independent.iter().map(|s| s.ff_instructions).sum();
    let ff_c: u64 = ckpt.iter().map(|r| r.stats.ff_instructions).sum();
    assert!(
        ff_c * 4 < ff_b,
        "checkpointed warmup ({ff_c}) ≪ binary-driven fast-forward ({ff_b})"
    );
    // ... which chained binary-driven simulation sweeps once: one chain,
    // no instruction fast-forwarded or detailed twice.
    let chained: u64 = binary
        .results
        .iter()
        .map(|r| r.stats.ff_instructions + r.stats.instructions)
        .sum();
    assert_eq!(binary.results.iter().filter(|r| !r.continues).count(), 1);
    assert!(
        chained <= binary.analysis.pinball.instructions(),
        "{chained}"
    );

    // Accuracy against the full run holds too.
    let full = simulate_whole(&p, n, &cfg).unwrap();
    let err = error_pct(pred_c, full.cycles as f64);
    assert!(err < 10.0, "checkpoint-driven error {err:.2}%");
}

/// Where no region continues another — `603.bwaves_s.1`/train/8 threads at
/// slice base 8 000: 3 regions, 3 chains — the job is the independent
/// regions' job: the same `JobSummary`, bit for bit.
#[test]
fn a_job_without_continuing_regions_is_the_independent_job() {
    let spec = lp_workloads::find("603.bwaves_s.1").unwrap();
    let n = spec.effective_threads(8);
    let p = build(&spec, InputClass::Train, 8, WaitPolicy::Passive);
    let cfg = SimConfig::gainestown(8);
    let opts = SimOptions::default();
    let run = sampled(&p, n, &cfg, &opts, WARMUP_SLICES);
    assert_eq!(run.results.len(), 3);
    assert!(run.results.iter().all(|r| !r.continues));
    let independent = oracle::independent(&run.analysis, &p, n, &cfg, &opts, WARMUP_SLICES);
    let results = run
        .results
        .iter()
        .zip(independent)
        .map(|(r, stats)| RegionResult {
            region: r.region.clone(),
            stats,
            continues: false,
        })
        .collect();
    let chained = run.summary();
    assert_eq!(chained, JobOutcome { results, ..run }.summary());
}
