//! Fig. 8: theoretical and actual speedups (serial and parallel) of
//! LoopPoint over full detailed simulation, SPEC train, active policy.

use looppoint::WARMUP_SLICES;
use lp_bench::paper;
use lp_bench::table::{title, x, Table};
use lp_bench::{evaluate_app, geomean, SPEC_THREADS};
use lp_omp::WaitPolicy;
use lp_uarch::SimConfig;
use lp_workloads::{spec_workloads, InputClass};

fn main() {
    title(
        "Fig. 8",
        "LoopPoint speedups over full detailed simulation (SPEC train, active)",
    );
    let cfg = SimConfig::gainestown(SPEC_THREADS);
    let mut t = Table::new(&[
        "Application",
        "theor. serial",
        "theor. parallel",
        "actual serial",
        "actual parallel",
        "regions",
    ]);
    let mut ts = Vec::new();
    let mut tp = Vec::new();
    let mut as_ = Vec::new();
    let mut ap = Vec::new();
    for spec in spec_workloads() {
        let e = evaluate_app(
            &spec,
            InputClass::Train,
            SPEC_THREADS,
            WaitPolicy::Active,
            &cfg,
            WARMUP_SLICES, // checkpoint-driven regions, as the paper deploys them
        )
        .unwrap();
        ts.push(e.speedup.theoretical_serial);
        tp.push(e.speedup.theoretical_parallel);
        as_.push(e.speedup.actual_serial);
        ap.push(e.speedup.actual_parallel);
        t.row(&[
            spec.name.to_string(),
            x(e.speedup.theoretical_serial),
            x(e.speedup.theoretical_parallel),
            x(e.speedup.actual_serial),
            x(e.speedup.actual_parallel),
            e.outcome.results.len().to_string(),
        ]);
    }
    t.row(&[
        "GEOMEAN (measured)".to_string(),
        x(geomean(ts.iter().copied())),
        x(geomean(tp.iter().copied())),
        x(geomean(as_.iter().copied())),
        x(geomean(ap.iter().copied())),
        String::new(),
    ]);
    t.print();
    println!();
    println!(
        "Paper reference (real-scale workloads): avg serial {}x, avg parallel {}x, max {}x.",
        paper::FIG8_AVG_SERIAL_TRAIN,
        paper::FIG8_AVG_PARALLEL_TRAIN,
        paper::FIG8_MAX_SPEEDUP_TRAIN
    );
    println!(
        "Our instruction counts are ~1000x smaller (DESIGN.md §7), so slice counts — and\n\
         therefore attainable speedups — scale down correspondingly; the serial < parallel\n\
         ordering and the per-app ranking are the reproduced shape. Regions are simulated\n\
         checkpoint-driven with 2-slice warmup (the paper's deployment)."
    );
}
