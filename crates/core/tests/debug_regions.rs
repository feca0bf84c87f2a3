//! Diagnostic harness (ignored by default): dumps per-slice and per-region
//! data for one workload. Run with:
//! `APP=<name> cargo test -p looppoint --test debug_regions -- --ignored --nocapture`

use looppoint::*;
use lp_omp::WaitPolicy;
use lp_uarch::SimConfig;
use lp_workloads::{build, InputClass};

#[test]
#[ignore]
fn dump_regions() {
    let name = std::env::var("APP").unwrap_or_else(|_| "619.lbm_s.1".into());
    let spec = lp_workloads::find(&name).unwrap();
    let n = spec.effective_threads(4);
    let p = build(&spec, InputClass::Train, 4, WaitPolicy::Passive);
    let cfg = SimConfig::gainestown(n);
    let analysis = analyze(&p, n, &LoopPointConfig::with_slice_base(8000)).unwrap();
    println!(
        "slices={} k={}",
        analysis.profile.slices.len(),
        analysis.looppoints.len()
    );
    for s in &analysis.profile.slices {
        println!(
            "slice {:3} filt={:7} tot={:7} cluster={}",
            s.index, s.filtered_insts, s.total_insts, analysis.clustering.assignments[s.index]
        );
    }
    let results = simulate_representatives(&analysis, &p, n, &cfg, &SimOptions::default()).unwrap();
    let mut pred_cycles = 0.0;
    for r in &results {
        let ipc = r.stats.instructions as f64 / r.stats.cycles.max(1) as f64;
        println!(
            "rep slice={:3} mult={:7.3} insts={:7} cycles={:8} ipc={:.2} contrib={:.0}",
            r.region.slice_index,
            r.region.multiplier,
            r.stats.instructions,
            r.stats.cycles,
            ipc,
            r.stats.cycles as f64 * r.region.multiplier
        );
        pred_cycles += r.stats.cycles as f64 * r.region.multiplier;
    }
    let full = simulate_whole(&p, n, &cfg).unwrap();
    println!(
        "full: insts={} cycles={} ipc={:.2}",
        full.instructions,
        full.cycles,
        full.ipc()
    );
    println!(
        "pred cycles={} err={:.2}%",
        pred_cycles,
        error_pct(pred_cycles, full.cycles as f64)
    );
}
