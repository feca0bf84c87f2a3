//! Ablations of the design choices DESIGN.md calls out: slice size, maxK,
//! the spin filter, warmup, and projection dimensionality.

use looppoint::{
    error_pct, extrapolate, run_pipeline, simulate_whole, LoopPointConfig, SimOptions, FROM_RESET,
};
use lp_bench::table::{f, title, Table};
use lp_bench::SPEC_THREADS;
use lp_omp::WaitPolicy;
use lp_uarch::SimConfig;
use lp_workloads::{build, InputClass};

fn eval_app(app: &str, cfg: &LoopPointConfig, policy: WaitPolicy, warmup: bool) -> (f64, usize) {
    let spec = lp_workloads::find(app).unwrap();
    let n = spec.effective_threads(SPEC_THREADS);
    let program = build(&spec, InputClass::Train, SPEC_THREADS, policy);
    let simcfg = SimConfig::gainestown(SPEC_THREADS);
    let opts = SimOptions {
        warmup,
        ..SimOptions::parallel()
    };
    let run = run_pipeline(&program, n, cfg, &simcfg, &opts, FROM_RESET, None).unwrap();
    let prediction = extrapolate(&run.results);
    let full = simulate_whole(&program, n, &simcfg).unwrap();
    (
        error_pct(prediction.total_cycles, full.cycles as f64),
        run.analysis.looppoints.len(),
    )
}

fn eval(cfg: &LoopPointConfig, policy: WaitPolicy, warmup: bool) -> (f64, usize) {
    eval_app("627.cam4_s.1", cfg, policy, warmup)
}

fn main() {
    title("Ablations", "train inputs, 8 threads");

    println!("\n(a) slice size sweep (per-thread filtered instructions):");
    let mut t = Table::new(&["slice base", "error %", "regions"]);
    for base in [2_000u64, 4_000, 8_000, 16_000, 32_000] {
        let cfg = LoopPointConfig::with_slice_base(base);
        let (err, k) = eval(&cfg, WaitPolicy::Passive, true);
        t.row(&[base.to_string(), f(err, 2), k.to_string()]);
    }
    t.print();
    println!("shape: very small slices are warmup/aliasing-sensitive; very large ones\nunder-sample phases (§III-B's 'sufficiently large' argument).");

    println!("\n(b) maxK sweep:");
    let mut t = Table::new(&["maxK", "error %", "regions"]);
    for max_k in [2usize, 5, 10, 50] {
        let mut cfg = LoopPointConfig::with_slice_base(8_000);
        cfg.simpoint.max_k = max_k;
        let (err, k) = eval(&cfg, WaitPolicy::Passive, true);
        t.row(&[max_k.to_string(), f(err, 2), k.to_string()]);
    }
    t.print();

    println!("\n(c) spin filter on/off (active wait policy, barrier/lock-heavy 644.nab_s.1):");
    let mut t = Table::new(&["filter", "error %", "regions"]);
    for filter in [true, false] {
        let mut cfg = LoopPointConfig::with_slice_base(8_000);
        cfg.filter_spin = filter;
        let (err, k) = eval_app("644.nab_s.1", &cfg, WaitPolicy::Active, true);
        t.row(&[filter.to_string(), f(err, 2), k.to_string()]);
    }
    t.print();
    println!("shape: disabling the §IV-F filter lets spin instructions pollute BBVs,\nslice targets, and multipliers under the active policy.");

    println!("\n(d) warmup on/off:");
    let mut t = Table::new(&["warmup", "error %"]);
    for warm in [true, false] {
        let cfg = LoopPointConfig::with_slice_base(8_000);
        let (err, _) = eval(&cfg, WaitPolicy::Passive, warm);
        t.row(&[warm.to_string(), f(err, 2)]);
    }
    t.print();
    println!("shape: cold microarchitectural state overstates region cost (§III-F).");

    println!("\n(e) varying-length intervals (§III-B extension):");
    let mut t = Table::new(&["policy", "error %", "regions"]);
    for (name, policy) in [
        ("fixed", lp_bbv::SlicePolicy::Fixed),
        ("varying", lp_bbv::SlicePolicy::Varying),
    ] {
        let mut cfg = LoopPointConfig::with_slice_base(8_000);
        cfg.slice_policy = policy;
        let (err, k) = eval(&cfg, WaitPolicy::Passive, true);
        t.row(&[name.to_string(), f(err, 2), k.to_string()]);
    }
    t.print();

    println!("\n(f) projection dimensionality:");
    let mut t = Table::new(&["dims", "error %", "regions"]);
    for dims in [4usize, 16, 100, 400] {
        let mut cfg = LoopPointConfig::with_slice_base(8_000);
        cfg.simpoint.proj_dims = dims;
        let (err, k) = eval(&cfg, WaitPolicy::Passive, true);
        t.row(&[dims.to_string(), f(err, 2), k.to_string()]);
    }
    t.print();
}
