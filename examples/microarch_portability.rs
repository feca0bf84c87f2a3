//! Fig. 5b in example form: analyze once, predict two microarchitectures.
//!
//! Run with: `cargo run --release --example microarch_portability`

use looppoint::{
    analyze, error_pct, extrapolate, prepare_region_checkpoints, simulate_prepared, simulate_whole,
    LoopPointConfig, SimOptions, FROM_RESET,
};
use lp_omp::WaitPolicy;
use lp_uarch::SimConfig;
use lp_workloads::{build, InputClass};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = lp_workloads::find("603.bwaves_s.1").unwrap();
    let nthreads = spec.effective_threads(8);
    let program = build(&spec, InputClass::Train, 8, WaitPolicy::Passive);

    println!(
        "== microarchitecture portability of looppoints ({}) ==\n",
        spec.name
    );
    // ONE analysis: architecture-level only (no microarchitectural inputs).
    let analysis = analyze(&program, nthreads, &LoopPointConfig::with_slice_base(8_000))?;
    println!(
        "analysis chose {} looppoints from {} slices (microarchitecture-independent)\n",
        analysis.looppoints.len(),
        analysis.profile.slices.len()
    );

    // Regions prepared once too: each fast-forwards from program start.
    let prepared = prepare_region_checkpoints(&analysis, &program, FROM_RESET)?;
    for simcfg in [SimConfig::gainestown(8), SimConfig::gainestown_inorder(8)] {
        let results = simulate_prepared(
            &prepared,
            &program,
            nthreads,
            &simcfg,
            &SimOptions::parallel(),
        )?;
        let prediction = extrapolate(&results);
        let full = simulate_whole(&program, nthreads, &simcfg)?;
        println!(
            "{:<24} predicted {:>10.0} cycles, actual {:>10}, error {:.2}%  (IPC {:.2})",
            simcfg.name,
            prediction.total_cycles,
            full.cycles,
            error_pct(prediction.total_cycles, full.cycles as f64),
            full.ipc(),
        );
    }
    println!("\nSame markers, both machines: the selection is microarchitecture-portable.");
    Ok(())
}
