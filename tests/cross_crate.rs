//! Cross-crate integration tests: properties that only hold when the whole
//! stack (ISA → runtime → pinball → DCFG → BBV → clustering → simulation)
//! cooperates.

use looppoint_repro::isa::Machine;
use looppoint_repro::looppoint::{analyze, LoopPointConfig};
use looppoint_repro::omp::WaitPolicy;
use looppoint_repro::pinball::{Pinball, RecordConfig};
use looppoint_repro::sim::{Mode, Simulator, StopCond};
use looppoint_repro::uarch::SimConfig;
use looppoint_repro::workloads::{build, InputClass};

fn workload(name: &str) -> (std::sync::Arc<looppoint_repro::isa::Program>, usize) {
    let spec = looppoint_repro::workloads::find(name).unwrap();
    let n = spec.effective_threads(4);
    (build(&spec, InputClass::Test, 4, WaitPolicy::Passive), n)
}

/// The paper's central invariance claim (§III-C): `(PC, count)` markers at
/// main-image loop headers denote the same amount of work no matter how
/// threads interleave. We check the *total* header counts across three
/// completely different execution regimes.
#[test]
fn marker_counts_are_interleaving_invariant() {
    let (p, n) = workload("627.cam4_s.1");
    let cfg = LoopPointConfig::with_slice_base(2_000);
    let analysis = analyze(&p, n, &cfg).unwrap();
    let headers = analysis.dcfg.main_image_loop_headers();
    assert!(!headers.is_empty());

    type PcSink<'a> = &'a mut dyn FnMut(looppoint_repro::isa::Pc);
    let count_with = |count: &dyn Fn(PcSink)| {
        let mut map = std::collections::HashMap::new();
        let mut cb = |pc: looppoint_repro::isa::Pc| {
            *map.entry(pc).or_insert(0u64) += 1;
        };
        count(&mut cb);
        headers
            .iter()
            .map(|h| map.get(h).copied().unwrap_or(0))
            .collect::<Vec<u64>>()
    };

    // Regime 1: round-robin functional execution.
    let rr = count_with(&|cb| {
        let mut m = Machine::new(p.clone(), n);
        let mut tid = 0;
        while !m.is_finished() {
            while m.thread_state(tid) != looppoint_repro::isa::ThreadState::Running {
                tid = (tid + 1) % n;
            }
            if let looppoint_repro::isa::StepResult::Retired(r) = m.step(tid).unwrap() {
                cb(r.pc);
            }
            tid = (tid + 1) % n;
        }
    });

    // Regime 2: constrained replay of a recorded pinball.
    let rep = count_with(&|cb| {
        let pb = Pinball::record(
            &p,
            n,
            RecordConfig {
                quantum: 193,
                ..Default::default()
            },
        )
        .unwrap();
        let mut r = pb.replayer(p.clone());
        while let Some(ret) = r.step().unwrap() {
            cb(ret.pc);
        }
    });

    // Regime 3: timing-driven unconstrained simulation.
    let timed = count_with(&|cb| {
        let mut sim = Simulator::new(p.clone(), n, SimConfig::gainestown(n));
        for h in &headers {
            sim.watch_pc(*h);
        }
        sim.run(Mode::Detailed, None, u64::MAX).unwrap();
        for h in &headers {
            for _ in 0..sim.watch_count(*h) {
                cb(*h);
            }
        }
    });

    assert_eq!(rr, rep, "round-robin vs constrained replay");
    assert_eq!(rr, timed, "round-robin vs timing-driven simulation");
}

/// Analysis markers found on the *constrained* replay must be reachable in
/// *unconstrained* simulation — the bridge LoopPoint depends on.
#[test]
fn analysis_markers_are_simulatable() {
    let (p, n) = workload("644.nab_s.1");
    let analysis = analyze(&p, n, &LoopPointConfig::with_slice_base(2_000)).unwrap();
    let simcfg = SimConfig::gainestown(n);
    for lp in &analysis.looppoints {
        let Some(end) = lp.end else { continue };
        let mut sim = Simulator::new(p.clone(), n, simcfg.clone());
        sim.watch_pc(end.pc);
        sim.run(Mode::FastForward, Some(StopCond::Marker(end)), u64::MAX)
            .unwrap_or_else(|e| panic!("marker {end} unreachable: {e}"));
        assert_eq!(sim.watch_count(end.pc), end.count);
    }
}

/// A region checkpoint taken mid-replay must agree with the slicer's
/// instruction accounting: replaying start→end markers covers exactly the
/// slice the profiler measured.
#[test]
fn checkpoints_bracket_profiled_slices() {
    let (p, n) = workload("619.lbm_s.1");
    let analysis = analyze(&p, n, &LoopPointConfig::with_slice_base(2_000)).unwrap();
    let pinball = &analysis.pinball;

    let region = analysis
        .looppoints
        .iter()
        .find(|r| r.start.is_some() && r.end.is_some())
        .expect("an interior region exists");
    let (start, end) = (region.start.unwrap(), region.end.unwrap());
    let slice = &analysis.profile.slices[region.slice_index];

    let ck_start = pinball.checkpoint_at(p.clone(), start).unwrap();
    let ck_end = pinball.checkpoint_at(p.clone(), end).unwrap();
    let replayed = ck_end.instructions_before() - ck_start.instructions_before();
    assert_eq!(
        replayed, slice.total_insts,
        "marker-bracketed replay length equals the profiled slice length"
    );
}

/// Wait-policy independence of the analysis: active and passive builds of
/// the same app select the same *number* of region boundaries at the same
/// marker PCs (counts may shift by runtime-code differences).
#[test]
fn spin_filter_makes_analysis_policy_independent() {
    let spec = looppoint_repro::workloads::find("627.cam4_s.1").unwrap();
    let n = spec.effective_threads(4);
    let cfg = LoopPointConfig::with_slice_base(2_000);
    let pa = build(&spec, InputClass::Test, 4, WaitPolicy::Active);
    let pp = build(&spec, InputClass::Test, 4, WaitPolicy::Passive);
    let aa = analyze(&pa, n, &cfg).unwrap();
    let ap = analyze(&pp, n, &cfg).unwrap();
    assert_eq!(
        aa.profile.slices.len(),
        ap.profile.slices.len(),
        "slice counts match across wait policies"
    );
    // Filtered totals are nearly identical; raw totals are not (spins).
    let fa = aa.profile.total_filtered as f64;
    let fp = ap.profile.total_filtered as f64;
    assert!((fa - fp).abs() / fp < 0.01);
    assert!(aa.profile.total_insts > ap.profile.total_insts);
}

/// End-to-end on the demo app: the whole stack through the facade crate.
#[test]
fn facade_end_to_end_demo() {
    use looppoint_repro::looppoint::{
        error_pct, extrapolate, run_pipeline, simulate_whole, SimOptions, FROM_RESET,
    };
    let spec = looppoint_repro::workloads::matrix_demo(2);
    let n = spec.effective_threads(4);
    let p = build(&spec, InputClass::Test, 4, WaitPolicy::Passive);
    let simcfg = SimConfig::gainestown(n);
    let cfg = LoopPointConfig::with_slice_base(2_000);
    let opts = SimOptions::parallel();
    let run = run_pipeline(&p, n, &cfg, &simcfg, &opts, FROM_RESET, None).unwrap();
    let prediction = extrapolate(&run.results);
    let full = simulate_whole(&p, n, &simcfg).unwrap();
    let err = error_pct(prediction.total_cycles, full.cycles as f64);
    assert!(err < 10.0, "demo end-to-end error {err:.2}%");
}
