//! Fig. 5: runtime prediction errors of SPEC-like applications (train
//! inputs, 8 threads) for unconstrained simulation.
//!
//! (a) active and passive wait policies on the out-of-order machine;
//! (b) the same looppoints simulated on an in-order core — the
//!     microarchitecture-portability study (analysis is done once and
//!     reused, exactly as the paper argues it can be).

use looppoint::{
    error_pct, extrapolate, prepare_region_checkpoints, simulate_prepared, simulate_whole,
    SimOptions, FROM_RESET,
};
use lp_bench::paper;
use lp_bench::table::{f, title, Table};
use lp_bench::{analyze_app, evaluate_app, mean, SPEC_THREADS};
use lp_omp::WaitPolicy;
use lp_uarch::SimConfig;
use lp_workloads::{spec_workloads, InputClass};

fn main() {
    title(
        "Fig. 5a",
        "Runtime prediction error %, SPEC train, 8 threads, out-of-order (unconstrained)",
    );
    let ooo = SimConfig::gainestown(SPEC_THREADS);
    let mut t = Table::new(&["Application", "active %", "passive %"]);
    let mut active_errs = Vec::new();
    let mut passive_errs = Vec::new();
    for spec in spec_workloads() {
        let ea = evaluate_app(
            &spec,
            InputClass::Train,
            SPEC_THREADS,
            WaitPolicy::Active,
            &ooo,
            FROM_RESET,
        )
        .unwrap();
        let ep = evaluate_app(
            &spec,
            InputClass::Train,
            SPEC_THREADS,
            WaitPolicy::Passive,
            &ooo,
            FROM_RESET,
        )
        .unwrap();
        active_errs.push(ea.runtime_error_pct());
        passive_errs.push(ep.runtime_error_pct());
        t.row(&[
            spec.name.to_string(),
            f(ea.runtime_error_pct(), 2),
            f(ep.runtime_error_pct(), 2),
        ]);
    }
    t.row(&[
        "AVERAGE (measured)".to_string(),
        f(mean(active_errs.iter().copied()), 2),
        f(mean(passive_errs.iter().copied()), 2),
    ]);
    t.row(&[
        "AVERAGE (paper)".to_string(),
        f(paper::FIG5_AVG_ERROR_ACTIVE_PCT, 2),
        f(paper::FIG5_AVG_ERROR_PASSIVE_PCT, 2),
    ]);
    t.print();

    title(
        "Fig. 5b",
        "Same looppoints, in-order core: microarchitecture portability",
    );
    let inorder = SimConfig::gainestown_inorder(SPEC_THREADS);
    let mut t = Table::new(&["Application", "in-order error %"]);
    let mut errs = Vec::new();
    for spec in spec_workloads() {
        // One analysis, reused for the other microarchitecture.
        let (program, nthreads, analysis) =
            analyze_app(&spec, InputClass::Train, SPEC_THREADS, WaitPolicy::Passive).unwrap();
        let prepared = prepare_region_checkpoints(&analysis, &program, FROM_RESET).unwrap();
        let results = simulate_prepared(
            &prepared,
            &program,
            nthreads,
            &inorder,
            &SimOptions::parallel(),
        )
        .unwrap();
        let prediction = extrapolate(&results);
        let full = simulate_whole(&program, nthreads, &inorder).unwrap();
        let err = error_pct(prediction.total_cycles, full.cycles as f64);
        errs.push(err);
        t.row(&[spec.name.to_string(), f(err, 2)]);
    }
    t.row(&[
        "AVERAGE (measured)".to_string(),
        f(mean(errs.iter().copied()), 2),
    ]);
    t.print();
    println!("\nPaper shape: looppoints chosen once remain accurate across core models.");
}
