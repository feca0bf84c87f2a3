//! Fig. 6: NPB runtime prediction errors with 8 and 16 threads (passive
//! wait policy, class C inputs) — LoopPoint supports varying the thread
//! count, re-profiling per team size as §III requires.

use looppoint::FROM_RESET;
use lp_bench::paper;
use lp_bench::table::{f, title, Table};
use lp_bench::{evaluate_app, mean};
use lp_omp::WaitPolicy;
use lp_uarch::SimConfig;
use lp_workloads::{npb_workloads, InputClass};

fn main() {
    title(
        "Fig. 6",
        "NPB runtime prediction error %, class C, passive, 8 vs 16 threads",
    );
    let mut t = Table::new(&["Kernel", "8 threads %", "16 threads %"]);
    let mut e8 = Vec::new();
    let mut e16 = Vec::new();
    for spec in npb_workloads() {
        let r8 = evaluate_app(
            &spec,
            InputClass::NpbC,
            8,
            WaitPolicy::Passive,
            &SimConfig::gainestown(8),
            FROM_RESET,
        )
        .unwrap();
        let r16 = evaluate_app(
            &spec,
            InputClass::NpbC,
            16,
            WaitPolicy::Passive,
            &SimConfig::gainestown(16),
            FROM_RESET,
        )
        .unwrap();
        e8.push(r8.runtime_error_pct());
        e16.push(r16.runtime_error_pct());
        t.row(&[
            spec.name.to_string(),
            f(r8.runtime_error_pct(), 2),
            f(r16.runtime_error_pct(), 2),
        ]);
    }
    t.row(&[
        "AVERAGE (measured)".to_string(),
        f(mean(e8.iter().copied()), 2),
        f(mean(e16.iter().copied()), 2),
    ]);
    t.row(&[
        "AVERAGE (paper)".to_string(),
        f(paper::FIG6_AVG_ERROR_8T_PCT, 2),
        f(paper::FIG6_AVG_ERROR_16T_PCT, 2),
    ]);
    t.print();
}
