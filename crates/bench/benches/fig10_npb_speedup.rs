//! Fig. 10: actual LoopPoint speedups on the NPB-like suite with 8 and 16
//! cores (class C, passive wait policy).

use looppoint::WARMUP_SLICES;
use lp_bench::paper;
use lp_bench::table::{title, x, Table};
use lp_bench::{evaluate_app, geomean};
use lp_omp::WaitPolicy;
use lp_uarch::SimConfig;
use lp_workloads::{npb_workloads, InputClass};

fn main() {
    title(
        "Fig. 10",
        "NPB actual speedups (serial & parallel), class C, passive, 8 vs 16 threads",
    );
    let mut t = Table::new(&[
        "Kernel",
        "8t serial",
        "8t parallel",
        "16t serial",
        "16t parallel",
    ]);
    let mut p8 = Vec::new();
    let mut p16 = Vec::new();
    for spec in npb_workloads() {
        let e8 = evaluate_app(
            &spec,
            InputClass::NpbC,
            8,
            WaitPolicy::Passive,
            &SimConfig::gainestown(8),
            WARMUP_SLICES,
        )
        .unwrap();
        let e16 = evaluate_app(
            &spec,
            InputClass::NpbC,
            16,
            WaitPolicy::Passive,
            &SimConfig::gainestown(16),
            WARMUP_SLICES,
        )
        .unwrap();
        p8.push(e8.speedup.actual_parallel);
        p16.push(e16.speedup.actual_parallel);
        t.row(&[
            spec.name.to_string(),
            x(e8.speedup.actual_serial),
            x(e8.speedup.actual_parallel),
            x(e16.speedup.actual_serial),
            x(e16.speedup.actual_parallel),
        ]);
    }
    t.row(&[
        "GEOMEAN (measured)".to_string(),
        String::new(),
        x(geomean(p8.iter().copied())),
        String::new(),
        x(geomean(p16.iter().copied())),
    ]);
    t.print();
    println!(
        "\nPaper reference (real-scale): 8t parallel max {}x avg {}x; 16t max {}x avg {}x\n\
         (16-thread speedups are lower than 8-thread, a shape this table should echo).",
        paper::FIG10_MAX_8T,
        paper::FIG10_AVG_8T,
        paper::FIG10_MAX_16T,
        paper::FIG10_AVG_16T
    );
}
