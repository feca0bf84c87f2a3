//! §II: the naive multi-threaded adaptation of SimPoint — fixed global
//! instruction-count slices, no spin filtering — mispredicts badly,
//! especially under the active wait policy (paper: avg 25%, up to 68.44%
//! active; up to 20% passive).

use looppoint::baselines::{analyze_naive, simulate_naive_regions};
use looppoint::{error_pct, simulate_whole, Prediction};
use lp_bench::paper;
use lp_bench::table::{f, title, Table};
use lp_bench::{analyze_app, mean, BENCH_SLICE_BASE, SPEC_THREADS};
use lp_omp::WaitPolicy;
use lp_uarch::SimConfig;
use lp_workloads::{spec_workloads, InputClass};

fn main() {
    title(
        "Sec. II",
        "Naive MT-SimPoint (instruction-count slices, unfiltered) runtime error %",
    );
    let cfg = SimConfig::gainestown(SPEC_THREADS);
    let mut t = Table::new(&["Application", "active %", "passive %"]);
    let mut act = Vec::new();
    let mut pas = Vec::new();
    for spec in spec_workloads() {
        let mut errs = [0.0f64; 2];
        for (i, policy) in [WaitPolicy::Active, WaitPolicy::Passive]
            .into_iter()
            .enumerate()
        {
            let (program, nthreads, analysis) =
                analyze_app(&spec, InputClass::Train, SPEC_THREADS, policy).unwrap();
            let slice_size = BENCH_SLICE_BASE * nthreads as u64;
            let naive = analyze_naive(
                &analysis.pinball,
                &program,
                &analysis.dcfg,
                slice_size,
                &Default::default(),
                u64::MAX,
            )
            .unwrap();
            let results =
                simulate_naive_regions(&naive, &program, nthreads, &cfg, u64::MAX).unwrap();
            let predicted = Prediction::weighted(results.iter().map(|(r, s)| (r.multiplier, s)));
            let full = simulate_whole(&program, nthreads, &cfg).unwrap();
            errs[i] = error_pct(predicted.total_cycles, full.cycles as f64);
        }
        act.push(errs[0]);
        pas.push(errs[1]);
        t.row(&[spec.name.to_string(), f(errs[0], 2), f(errs[1], 2)]);
    }
    let max = |v: &[f64]| v.iter().cloned().fold(0.0, f64::max);
    t.row(&[
        "AVERAGE (measured)".to_string(),
        f(mean(act.iter().copied()), 2),
        f(mean(pas.iter().copied()), 2),
    ]);
    t.row(&[
        "MAX (measured)".to_string(),
        f(max(&act), 2),
        f(max(&pas), 2),
    ]);
    t.print();
    println!(
        "\nPaper reference: active avg ~{}%, max {}%; passive up to {}%.\n\
         Shape: active ≫ passive, both well above LoopPoint's ~2% (Fig. 5).",
        paper::SEC2_NAIVE_ACTIVE_AVG_PCT,
        paper::SEC2_NAIVE_ACTIVE_MAX_PCT,
        paper::SEC2_NAIVE_PASSIVE_MAX_PCT
    );
}
