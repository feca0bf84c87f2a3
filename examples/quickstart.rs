//! Quickstart: the artifact's demo flow (`run-looppoint.py -p demo-matrix-1`)
//! end-to-end — profile, cluster, simulate representatives, extrapolate,
//! and report error + speedup.
//!
//! Run with: `cargo run --release --example quickstart`

use looppoint::{
    error_pct, extrapolate, run_pipeline, simulate_whole, speedups, LoopPointConfig, SimOptions,
    FROM_RESET,
};
use lp_omp::WaitPolicy;
use lp_uarch::SimConfig;
use lp_workloads::{build, matrix_demo, InputClass};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nthreads = 8;
    let spec = matrix_demo(1);
    println!(
        "== LoopPoint quickstart: {} with {} threads ==",
        spec.name, nthreads
    );

    let program = build(&spec, InputClass::Test, nthreads, WaitPolicy::Passive);
    let simcfg = SimConfig::gainestown(nthreads);

    // 1. One-time, up-front analysis: record a flow-controlled pinball,
    //    replay it for the DCFG and spin-filtered BBV slices, cluster.
    // 2. Simulate each representative unconstrained (warmup from program
    //    start + detailed), in parallel.
    let run = run_pipeline(
        &program,
        nthreads,
        &LoopPointConfig::with_slice_base(4_000),
        &simcfg,
        &SimOptions::parallel(),
        FROM_RESET,
        None,
    )?;
    let (analysis, results) = (&run.analysis, &run.results);
    println!(
        "analysis: {} slices -> {} looppoints (k={} clusters)",
        analysis.profile.slices.len(),
        analysis.looppoints.len(),
        analysis.clustering.k
    );
    for lp in &analysis.looppoints {
        println!(
            "  looppoint: slice {:3}  multiplier {:6.2}  start {:?}  end {:?}",
            lp.slice_index,
            lp.multiplier,
            lp.start.map(|m| m.to_string()),
            lp.end.map(|m| m.to_string()),
        );
    }

    // 3. Extrapolate whole-program performance (Eq. 1-2).
    let prediction = extrapolate(results);

    // 4. Validate against the full detailed run (affordable at demo scale).
    let full = simulate_whole(&program, nthreads, &simcfg)?;
    let err = error_pct(prediction.total_cycles, full.cycles as f64);
    let sp = speedups(analysis, results, &full);

    println!(
        "\npredicted runtime: {:>12.0} cycles",
        prediction.total_cycles
    );
    println!("actual runtime:    {:>12} cycles", full.cycles);
    println!("prediction error:  {err:.2}%");
    println!(
        "speedup: theoretical serial {:.1}x / parallel {:.1}x; actual serial {:.1}x / parallel {:.1}x",
        sp.theoretical_serial, sp.theoretical_parallel, sp.actual_serial, sp.actual_parallel
    );
    Ok(())
}
