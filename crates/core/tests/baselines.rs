//! Baseline methodologies behave as the paper describes: BarrierPoint
//! degenerates without barriers, naive SimPoint errs under the active wait
//! policy, time-based sampling is accurate but visit-bound.

use looppoint::baselines::{
    analyze_barrierpoint, analyze_naive, simulate_naive_regions, time_based_sampling,
};
use looppoint::{analyze, error_pct, simulate_whole, LoopPointConfig, Prediction};
use lp_omp::WaitPolicy;
use lp_uarch::SimConfig;
use lp_workloads::{build, InputClass};
use std::sync::Arc;

const BUDGET: u64 = 2_000_000_000;

fn setup(name: &str, policy: WaitPolicy) -> (Arc<lp_isa::Program>, usize, looppoint::Analysis) {
    let spec = lp_workloads::find(name).unwrap();
    let n = spec.effective_threads(4);
    let p = build(&spec, InputClass::Train, 4, policy);
    let analysis = analyze(&p, n, &LoopPointConfig::with_slice_base(8_000)).unwrap();
    (p, n, analysis)
}

#[test]
fn barrierpoint_works_on_barrier_rich_apps() {
    // npb-bt uses explicit barriers every round: many inter-barrier
    // regions, good theoretical speedup.
    let (p, _n, analysis) = setup("npb-bt", WaitPolicy::Passive);
    let dcfg = std::sync::Arc::new(analysis.dcfg);
    let bp =
        analyze_barrierpoint(&analysis.pinball, &p, dcfg, &Default::default(), BUDGET).unwrap();
    assert!(bp.barriers > 10, "barrier-rich app, got {}", bp.barriers);
    assert!(bp.regions.len() > 10);
    assert!(
        bp.theoretical_serial() > 1.5,
        "usable speedup: {}",
        bp.theoretical_serial()
    );
}

#[test]
fn barrierpoint_degenerates_without_barriers() {
    // 657.xz_s.2 has no barriers (only region joins): few, huge
    // inter-barrier regions — the Fig. 9 failure case.
    let (p_xz, _, a_xz) = setup("657.xz_s.2", WaitPolicy::Passive);
    let bp_xz = analyze_barrierpoint(
        &a_xz.pinball,
        &p_xz,
        std::sync::Arc::new(a_xz.dcfg),
        &Default::default(),
        BUDGET,
    )
    .unwrap();

    let (p_bt, _, a_bt) = setup("npb-bt", WaitPolicy::Passive);
    let bp_bt = analyze_barrierpoint(
        &a_bt.pinball,
        &p_bt,
        std::sync::Arc::new(a_bt.dcfg),
        &Default::default(),
        BUDGET,
    )
    .unwrap();

    // xz's largest inter-barrier region is a far bigger fraction of the
    // app than bt's.
    let frac_xz = bp_xz.largest_region() as f64 / bp_xz.total_filtered as f64;
    let frac_bt = bp_bt.largest_region() as f64 / bp_bt.total_filtered as f64;
    assert!(
        frac_xz > 2.0 * frac_bt,
        "xz largest-region fraction {frac_xz:.3} vs bt {frac_bt:.3}"
    );
    assert!(
        bp_xz.theoretical_parallel() < bp_bt.theoretical_parallel(),
        "xz parallel speedup {} should trail bt {}",
        bp_xz.theoretical_parallel(),
        bp_bt.theoretical_parallel()
    );
}

#[test]
fn naive_simpoint_errs_more_under_active_policy() {
    // §II: instruction-count boundaries are unstable when threads spin.
    let cfg = SimConfig::gainestown(4);
    let mut errors = std::collections::HashMap::new();
    for policy in [WaitPolicy::Passive, WaitPolicy::Active] {
        let (p, n, analysis) = setup("627.cam4_s.1", policy);
        let slice_size = 8_000 * n as u64;
        let naive = analyze_naive(
            &analysis.pinball,
            &p,
            &analysis.dcfg,
            slice_size,
            &Default::default(),
            BUDGET,
        )
        .unwrap();
        let results = simulate_naive_regions(&naive, &p, n, &cfg, BUDGET).unwrap();
        let predicted = Prediction::weighted(results.iter().map(|(r, s)| (r.multiplier, s)));
        let full = simulate_whole(&p, n, &cfg).unwrap();
        errors.insert(
            policy.name(),
            error_pct(predicted.total_cycles, full.cycles as f64),
        );
    }
    let active = errors["active"];
    let passive = errors["passive"];
    assert!(
        active > passive,
        "active error ({active:.1}%) should exceed passive ({passive:.1}%)"
    );
    assert!(
        active > 5.0,
        "active-policy naive sampling should err notably, got {active:.1}%"
    );
}

#[test]
fn time_based_sampling_is_accurate_but_visits_everything() {
    let (p, n, _) = setup("619.lbm_s.1", WaitPolicy::Passive);
    let cfg = SimConfig::gainestown(4);
    let full = simulate_whole(&p, n, &cfg).unwrap();
    let ts = time_based_sampling(&p, n, &cfg, 2_000, 20_000, BUDGET).unwrap();

    let err = error_pct(ts.predicted_cycles, full.cycles as f64);
    assert!(err < 15.0, "time-based sampling error {err:.1}%");
    // It visited the whole program (totals differ by a handful of futex
    // retries, since mode switches perturb the interleaving slightly)...
    let visited = ts.detailed_insts + ts.ff_insts;
    let dv = (visited as f64 - full.instructions as f64).abs() / full.instructions as f64;
    assert!(dv < 1e-3, "visited {visited} vs full {}", full.instructions);
    // ...simulating only ~10% in detail.
    let frac = ts.detailed_fraction();
    assert!(frac > 0.05 && frac < 0.2, "detailed fraction {frac:.3}");
}
