//! Fig. 7: prediction quality for other metrics (unconstrained mode,
//! train, 8 threads): (a) cycle-count error %, (b) branch-MPKI absolute
//! difference, (c) L2-MPKI absolute difference — absolute differences for
//! the MPKI metrics, exactly as the paper presents them.

use looppoint::FROM_RESET;
use lp_bench::table::{f, title, Table};
use lp_bench::{evaluate_app, mean, SPEC_THREADS};
use lp_omp::WaitPolicy;
use lp_uarch::SimConfig;
use lp_workloads::{spec_workloads, InputClass};

fn main() {
    title(
        "Fig. 7",
        "Metric prediction: cycles error %, branch-MPKI |diff|, L2-MPKI |diff| (active & passive)",
    );
    let cfg = SimConfig::gainestown(SPEC_THREADS);
    let mut t = Table::new(&[
        "Application",
        "cyc% act",
        "cyc% pas",
        "brMPKI act",
        "brMPKI pas",
        "L2MPKI act",
        "L2MPKI pas",
    ]);
    let mut sums = [
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    ];
    for spec in spec_workloads() {
        let a = evaluate_app(
            &spec,
            InputClass::Train,
            SPEC_THREADS,
            WaitPolicy::Active,
            &cfg,
            FROM_RESET,
        )
        .unwrap();
        let p = evaluate_app(
            &spec,
            InputClass::Train,
            SPEC_THREADS,
            WaitPolicy::Passive,
            &cfg,
            FROM_RESET,
        )
        .unwrap();
        let vals = [
            a.runtime_error_pct(),
            p.runtime_error_pct(),
            a.branch_mpki_diff(),
            p.branch_mpki_diff(),
            a.l2_mpki_diff(),
            p.l2_mpki_diff(),
        ];
        for (s, v) in sums.iter_mut().zip(vals) {
            s.push(v);
        }
        t.row(&[
            spec.name.to_string(),
            f(vals[0], 2),
            f(vals[1], 2),
            f(vals[2], 3),
            f(vals[3], 3),
            f(vals[4], 3),
            f(vals[5], 3),
        ]);
    }
    t.row(&[
        "AVERAGE".to_string(),
        f(mean(sums[0].iter().copied()), 2),
        f(mean(sums[1].iter().copied()), 2),
        f(mean(sums[2].iter().copied()), 3),
        f(mean(sums[3].iter().copied()), 3),
        f(mean(sums[4].iter().copied()), 3),
        f(mean(sums[5].iter().copied()), 3),
    ]);
    t.print();
    println!(
        "\nPaper shape: cycle errors a few percent; MPKI absolute differences small\n\
         (the paper reports diffs because the metrics' absolute values are small)."
    );
}
