//! Sample a SPEC-like application under both OpenMP wait policies and
//! compare LoopPoint against the naive instruction-count baseline —
//! the §II motivation in one program.
//!
//! Run with: `cargo run --release --example sampling_spec [app-name]`

use looppoint::baselines::{analyze_naive, simulate_naive_regions};
use looppoint::{
    error_pct, extrapolate, run_pipeline, simulate_whole, LoopPointConfig, Prediction, SimOptions,
    FROM_RESET,
};
use lp_omp::WaitPolicy;
use lp_uarch::SimConfig;
use lp_workloads::{build, InputClass};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "627.cam4_s.1".into());
    let spec = lp_workloads::find(&name)
        .unwrap_or_else(|| panic!("unknown workload {name}; try e.g. 627.cam4_s.1"));
    let nthreads = spec.effective_threads(8);
    let simcfg = SimConfig::gainestown(8);
    let lp_cfg = LoopPointConfig::with_slice_base(8_000);

    println!("== {name}: LoopPoint vs naive MT-SimPoint, active vs passive ==\n");
    println!(
        "{:<10} {:>16} {:>16}",
        "policy", "LoopPoint err%", "naive err%"
    );
    for policy in [WaitPolicy::Passive, WaitPolicy::Active] {
        let program = build(&spec, InputClass::Train, 8, policy);

        // LoopPoint.
        let opts = SimOptions::parallel();
        let run = run_pipeline(
            &program, nthreads, &lp_cfg, &simcfg, &opts, FROM_RESET, None,
        )?;
        let analysis = &run.analysis;
        let prediction = extrapolate(&run.results);
        let full = simulate_whole(&program, nthreads, &simcfg)?;
        let lp_err = error_pct(prediction.total_cycles, full.cycles as f64);

        // Naive baseline: fixed instruction-count slices, no filtering.
        let naive = analyze_naive(
            &analysis.pinball,
            &program,
            &analysis.dcfg,
            lp_cfg.slice_base * nthreads as u64,
            &lp_cfg.simpoint,
            u64::MAX,
        )?;
        let naive_results = simulate_naive_regions(&naive, &program, nthreads, &simcfg, u64::MAX)?;
        let naive_prediction =
            Prediction::weighted(naive_results.iter().map(|(r, s)| (r.multiplier, s)));
        let naive_err = error_pct(naive_prediction.total_cycles, full.cycles as f64);

        println!(
            "{:<10} {:>15.2}% {:>15.2}%",
            policy.to_string(),
            lp_err,
            naive_err
        );
    }
    println!(
        "\nExpected shape (paper §II/§V-A): LoopPoint stays ~2%; the naive adaptation\n\
         errs, and errs worse under the active policy where spin loops shift\n\
         instruction-count boundaries between runs."
    );
    Ok(())
}
