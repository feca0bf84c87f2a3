//! Fig. 4: an example representative region — loop-header markers and the
//! IPC-over-time trace of the full run versus the chosen region.

use lp_bench::table::{f, title, Table};
use lp_bench::{analyze_app, SPEC_THREADS};
use lp_omp::WaitPolicy;
use lp_sim::{Mode, Simulator};
use lp_uarch::SimConfig;
use lp_workloads::InputClass;

fn main() {
    title(
        "Fig. 4",
        "A representative region of 638.imagick_s.1: (PC,count) markers and IPC trace",
    );
    let spec = lp_workloads::find("638.imagick_s.1").unwrap();
    let (program, nthreads, analysis) =
        analyze_app(&spec, InputClass::Train, SPEC_THREADS, WaitPolicy::Passive).unwrap();

    // The region with the largest multiplier, as the figure highlights.
    let region = analysis
        .looppoints
        .iter()
        .max_by(|a, b| a.multiplier.partial_cmp(&b.multiplier).unwrap())
        .unwrap();
    println!("\nchosen region (slice {}):", region.slice_index);
    if let Some(s) = region.start {
        println!(
            "  start marker: pc={} [{}], count={}",
            s.pc,
            program.symbolize(s.pc),
            s.count
        );
    }
    if let Some(e) = region.end {
        println!(
            "  end marker:   pc={} [{}], count={}",
            e.pc,
            program.symbolize(e.pc),
            e.count
        );
    }
    println!(
        "  multiplier: {:.2}  (cluster {} of {})",
        region.multiplier, region.cluster, analysis.clustering.k
    );

    // (4b) IPC over time: full application.
    let cfg = SimConfig::gainestown(SPEC_THREADS);
    let mut sim = Simulator::new(program.clone(), nthreads, cfg.clone());
    let interval = analysis.profile.total_insts / 60;
    sim.set_ipc_sampling(interval.max(1));
    let full = sim.run(Mode::Detailed, None, u64::MAX).unwrap();
    println!(
        "\nIPC over time (full application, {} samples):",
        full.ipc_trace.len()
    );
    let mut t = Table::new(&["insts", "ipc", "bar"]);
    for s in &full.ipc_trace {
        let bars = "#".repeat((s.ipc * 4.0).round() as usize);
        t.row(&[s.instructions.to_string(), f(s.ipc, 2), bars]);
    }
    t.print();

    // IPC of the chosen region alone (warmup + detailed).
    if let (Some(s), Some(e)) = (region.start, region.end) {
        let mut sim = Simulator::new(program.clone(), nthreads, cfg);
        let stats = sim.run_region(Some(s), Some(e), u64::MAX).unwrap();
        println!(
            "\nregion IPC = {:.2} over {} instructions (full-app aggregate IPC = {:.2})",
            stats.ipc(),
            stats.instructions,
            full.ipc()
        );
    }
}
