//! Live-sampling benchmark: one-pass online sampling (Pac-Sim-style)
//! against both baselines, emitting a machine-readable `BENCH_live.json`.
//!
//! For each workload, three runs over the identical program:
//!
//! 1. **Full detail** — `simulate_whole`, the ground truth (and the cost
//!    ceiling);
//! 2. **Two-phase** — the classic LoopPoint pipeline (`run_job`): a
//!    profiling prequel, clustering, then representative simulation;
//! 3. **Live** — `analyze_live`: no prequel, regions classified online,
//!    unmatched regions simulated in detail from warm checkpoints,
//!    matched regions predicted from their cluster's last detailed IPC.
//!
//! The JSON records, per workload, each mode's cycle estimate, error
//! versus full detail, wall-clock, and — for live — the detailed-region
//! fraction the acceptance gate pins (< 40%). Run via `cargo bench
//! --bench live_sampling` (`-- --smoke` for the CI gate's single-workload
//! variant; `--out PATH` to redirect the JSON).

use looppoint::{error_pct, run_job, simulate_whole, LiveConfig, LoopPointConfig, SimOptions};
use lp_bench::{obj, BenchArgs};
use lp_obs::json::Value;
use lp_omp::WaitPolicy;
use lp_uarch::SimConfig;
use lp_workloads::{build, InputClass};
use std::time::Instant;

const NTHREADS: usize = 2;
const SLICE_BASE: u64 = 2_000;
const WARMUP_SLICES: usize = 2;

fn main() {
    let args = BenchArgs::parse("BENCH_live.json");
    let workloads: &[&str] = if args.smoke {
        &["npb-cg"]
    } else {
        &["npb-cg", "demo-matrix-3", "npb-ft"]
    };

    println!(
        "live-sampling benchmark: {} threads | slice base {SLICE_BASE} {}",
        NTHREADS,
        if args.smoke { "(smoke)" } else { "" }
    );

    let mut rows = Vec::new();
    for name in workloads {
        let spec = lp_workloads::find(name).expect("bench workload exists");
        let nthreads = spec.effective_threads(NTHREADS);
        let program = build(&spec, InputClass::Test, NTHREADS, WaitPolicy::Passive);
        let simcfg = SimConfig::gainestown(nthreads.max(NTHREADS));

        // 1. Ground truth.
        let t = Instant::now();
        let full = simulate_whole(&program, nthreads, &simcfg).unwrap();
        let full_ms = t.elapsed().as_secs_f64() * 1e3;

        // 2. Two-phase LoopPoint.
        let mut cfg = LoopPointConfig::with_slice_base(SLICE_BASE);
        cfg.max_steps = looppoint::DEFAULT_MAX_STEPS;
        let t = Instant::now();
        let two_phase = run_job(
            &program,
            nthreads,
            &cfg,
            &simcfg,
            &SimOptions::default(),
            WARMUP_SLICES,
            None,
        )
        .unwrap();
        let two_phase_ms = t.elapsed().as_secs_f64() * 1e3;
        let two_phase_err = error_pct(two_phase.predicted_cycles, full.cycles as f64);

        // 3. Live (one pass, online).
        let live_cfg = LiveConfig::with_slice_base(SLICE_BASE);
        let t = Instant::now();
        let live =
            looppoint::analyze_live(&program, nthreads, &live_cfg, &simcfg, &mut |_| {}).unwrap();
        let live_ms = t.elapsed().as_secs_f64() * 1e3;
        let live_err = error_pct(live.est_total_cycles, full.cycles as f64);

        println!(
            "  {name:<16} full {:>9} cyc ({full_ms:7.1} ms) | two-phase err {two_phase_err:5.2}% ({two_phase_ms:7.1} ms) | live err {live_err:5.2}%, {:.1}% detailed ({live_ms:7.1} ms)",
            full.cycles,
            live.detailed_fraction() * 100.0,
        );

        rows.push(obj([
            ("workload", (*name).into()),
            ("nthreads", (nthreads as u64).into()),
            (
                "full",
                obj([("cycles", full.cycles.into()), ("ms", full_ms.into())]),
            ),
            (
                "two_phase",
                obj([
                    ("predicted_cycles", two_phase.predicted_cycles.into()),
                    ("err_pct", two_phase_err.into()),
                    ("regions", (two_phase.regions as u64).into()),
                    ("clusters", (two_phase.clusters as u64).into()),
                    ("ms", two_phase_ms.into()),
                ]),
            ),
            (
                "live",
                obj([
                    ("est_cycles", live.est_total_cycles.into()),
                    ("err_pct", live_err.into()),
                    ("regions", (live.regions.len() as u64).into()),
                    ("clusters", (live.clusters.len() as u64).into()),
                    ("detailed_regions", (live.detailed_regions as u64).into()),
                    ("detailed_pct", live.detailed_fraction().into()),
                    ("ms", live_ms.into()),
                ]),
            ),
        ]));
    }

    args.write(&obj([
        ("slice_base", SLICE_BASE.into()),
        ("rows", Value::Arr(rows)),
        ("smoke", Value::Bool(args.smoke)),
    ]));
}
