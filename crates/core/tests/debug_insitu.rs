//! Diagnostic harness (ignored by default): compares in-situ cycles between
//! two markers inside a full detailed run against the same region simulated
//! with fast-forward warmup — the check that caught the cold-I-cache bug.
//! Run with:
//! `cargo test -p looppoint --test debug_insitu -- --ignored --nocapture`

use looppoint::*;
use lp_omp::WaitPolicy;
use lp_sim::{Mode, Simulator, StopCond};
use lp_uarch::SimConfig;
use lp_workloads::{build, InputClass};

#[test]
#[ignore]
fn insitu_vs_region() {
    let spec = lp_workloads::find("619.lbm_s.1").unwrap();
    let n = spec.effective_threads(4);
    let p = build(&spec, InputClass::Train, 4, WaitPolicy::Passive);
    let cfg = SimConfig::gainestown(n);
    let analysis = analyze(&p, n, &LoopPointConfig::with_slice_base(8000)).unwrap();
    // Pick the biggest-multiplier region with both markers.
    let r = analysis
        .looppoints
        .iter()
        .filter(|r| r.start.is_some() && r.end.is_some())
        .max_by(|a, b| a.multiplier.partial_cmp(&b.multiplier).unwrap())
        .unwrap();
    let (s, e) = (r.region_start(), r.region_end());
    println!("region start={s} end={e}");
    // In-situ: detailed all the way, split at markers.
    let mut sim = Simulator::new(p.clone(), n, cfg.clone());
    sim.watch_pc(s.pc);
    sim.watch_pc(e.pc);
    let pre = sim
        .run(Mode::Detailed, Some(StopCond::Marker(s)), u64::MAX)
        .unwrap();
    let insitu = sim
        .run(Mode::Detailed, Some(StopCond::Marker(e)), u64::MAX)
        .unwrap();
    println!(
        "insitu: insts={} cycles={} ipc={:.2} (pre insts={})",
        insitu.instructions,
        insitu.cycles,
        insitu.instructions as f64 / insitu.cycles as f64,
        pre.instructions
    );
    // Region sim: FF to start, detailed to end.
    let reg = Simulator::new(p.clone(), n, cfg.clone())
        .run_region(Some(s), Some(e), u64::MAX)
        .unwrap();
    println!(
        "region: insts={} cycles={} ipc={:.2} (ff insts={})",
        reg.instructions,
        reg.cycles,
        reg.instructions as f64 / reg.cycles as f64,
        reg.ff_instructions
    );
}
