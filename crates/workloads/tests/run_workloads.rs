//! Every workload must build and run to completion at test scale, with the
//! properties the figures rely on.

use lp_isa::Machine;
use lp_omp::WaitPolicy;
use lp_workloads::{build, matrix_demo, npb_workloads, spec_workloads, InputClass};

#[test]
fn all_spec_workloads_run_to_completion() {
    for spec in spec_workloads() {
        for policy in [WaitPolicy::Passive, WaitPolicy::Active] {
            let nthreads = spec.effective_threads(8);
            let p = build(&spec, InputClass::Test, 8, policy);
            let mut m = Machine::new(p, nthreads);
            m.run_to_completion(400_000_000)
                .unwrap_or_else(|e| panic!("{} ({policy}): {e}", spec.name));
            assert!(m.is_finished(), "{} ({policy}) finished", spec.name);
            assert!(
                m.global_retired() > 50_000,
                "{} ({policy}) does real work: {}",
                spec.name,
                m.global_retired()
            );
        }
    }
}

#[test]
fn all_npb_workloads_run_with_8_and_16_threads() {
    for spec in npb_workloads() {
        for nthreads in [8, 16] {
            let p = build(&spec, InputClass::Test, nthreads, WaitPolicy::Passive);
            let mut m = Machine::new(p, nthreads);
            m.run_to_completion(400_000_000)
                .unwrap_or_else(|e| panic!("{} ({nthreads}t): {e}", spec.name));
            assert!(m.is_finished(), "{} with {nthreads} threads", spec.name);
        }
    }
}

#[test]
fn input_classes_scale_instruction_counts() {
    let spec = &spec_workloads()[3]; // 619.lbm_s.1 — cheap
    let run = |input| {
        let p = build(spec, input, 8, WaitPolicy::Passive);
        let mut m = Machine::new(p, 8);
        m.run_to_completion(2_000_000_000).unwrap();
        m.global_retired()
    };
    let test = run(InputClass::Test);
    let train = run(InputClass::Train);
    // Init phases are constant-size, so the ratio is below the 6× round
    // multiplier but must still be substantial.
    assert!(
        train > 5 * test / 2,
        "train ({train}) must be much larger than test ({test})"
    );
    let reff = run(InputClass::Ref);
    assert!(reff > 8 * train, "ref ({reff}) ≫ train ({train})");
}

#[test]
fn xz2_is_heterogeneous_and_bwaves_is_balanced() {
    // Fig. 3: 657.xz_s.2 exhibits non-homogeneous per-thread work.
    let imbalance = |name: &str| -> f64 {
        let spec = lp_workloads::find(name).unwrap();
        let nthreads = spec.effective_threads(8);
        let p = build(&spec, InputClass::Test, 8, WaitPolicy::Passive);
        let mut m = Machine::new(p, nthreads);
        m.run_to_completion(400_000_000).unwrap();
        let counts: Vec<u64> = (0..nthreads).map(|t| m.retired(t)).collect();
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        max / min.max(1.0)
    };
    let xz = imbalance("657.xz_s.2");
    let bw = imbalance("603.bwaves_s.1");
    assert!(xz > bw, "xz imbalance {xz:.2} should exceed bwaves {bw:.2}");
}

#[test]
fn demo_runs_quickly() {
    for v in 1..=3 {
        let spec = matrix_demo(v);
        let p = build(&spec, InputClass::Test, 4, WaitPolicy::Passive);
        let mut m = Machine::new(p, 4);
        m.run_to_completion(100_000_000).unwrap();
        assert!(m.is_finished());
    }
}

#[test]
fn find_locates_workloads() {
    assert!(lp_workloads::find("657.xz_s.1").is_some());
    assert!(lp_workloads::find("npb-cg").is_some());
    for v in 1..=3 {
        let demo = lp_workloads::find(&format!("demo-matrix-{v}")).expect("demo resolves");
        assert_eq!(demo.name, matrix_demo(v).name);
    }
    assert!(lp_workloads::find("demo-matrix-4").is_none());
    assert!(lp_workloads::find("nope").is_none());
}

#[test]
fn programs_are_deterministic_builds() {
    let spec = &spec_workloads()[0];
    let a = build(spec, InputClass::Test, 8, WaitPolicy::Passive);
    let b = build(spec, InputClass::Test, 8, WaitPolicy::Passive);
    assert_eq!(a.code_size(), b.code_size());
    assert_eq!(a.entry_main(), b.entry_main());
}
