//! The three simulation workloads: `twophase-train`, `fulldetail-train`,
//! `live-train`. Single-threaded in-process calls with default options
//! (the region pool stays serial, as the driver's default). Inputs are
//! fixed; the seed only orders the calls inside a pass. (It once also set
//! `SimpointConfig.seed` and jittered the slice base by up to 5 %, but at
//! this scale either moves k between 36 and 70, and the work with it.)
//!
//! A *pass* calls every app-config once; passes repeat until `--seconds`
//! have been measured. The host this runs on has noisy neighbours that
//! slow memory-bound code by half for seconds at a time, and that noise
//! only ever adds time, so a timing is the **fastest** repeat of a call,
//! not the median: per call for the end-to-end metrics, per pass for a
//! layer. That is also why the inputs are `train` and not `ref`: a call
//! must be short enough to fall between two bursts now and then.
//!
//! A traced run alternates passes without and with spans; the difference
//! of their fastest repeats is the tracing overhead.

use crate::stream::Rng;
use crate::{stats, trace, Run};
use looppoint::{
    analyze_live, error_pct, extrapolate, prepare_region_checkpoints, run_job, simulate_prepared,
    simulate_whole, Analysis, JobSummary, LiveConfig, LiveSummary, LoopPointConfig,
    LoopPointRegion, SimOptions, DEFAULT_MAX_STEPS,
};
use lp_bbv::LoopAlignedSlicer;
use lp_dcfg::DcfgBuilder;
use lp_isa::{Addr, ImageId, Machine, Pc};
use lp_omp::WaitPolicy;
use lp_pinball::Pinball;
use lp_sim::SimStats;
use lp_uarch::{BranchPredictor, MemoryHierarchy, SimConfig};
use lp_workloads::InputClass;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// `app/threads/wait-policy/slice-base`; the input class is `train`
/// (`test` under `--smoke`, with the slice base cut to an eighth).
#[derive(Clone, Copy)]
struct AppConfig {
    app: &'static str,
    threads: usize,
    policy: WaitPolicy,
    slice_base: u64,
}

const fn config(
    app: &'static str,
    threads: usize,
    policy: WaitPolicy,
    slice_base: u64,
) -> AppConfig {
    AppConfig {
        app,
        threads,
        policy,
        slice_base,
    }
}

/// The slice base whose error is reported apart (`core.err_small_slice_pct`):
/// two-phase sampling falls off its warm-up cliff there.
const SMALL_SLICE_BASE: u64 = 2_000;
/// Checkpoint warm-up window of `run_job`, in slices (the deployment default).
const WARMUP_SLICES: usize = 2;
/// Sanity ceiling on `core.err_pct`; no golden cycle counts are pinned.
const ERR_CEILING_PCT: f64 = 25.0;
/// Whole set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

// The 2000 config makes k-means visible and carries the warm-up cliff;
// the active-wait config exercises the spin filter.
const TWOPHASE: [AppConfig; 3] = [
    config("603.bwaves_s.1", 8, WaitPolicy::Passive, 8_000),
    config("603.bwaves_s.1", 8, WaitPolicy::Passive, SMALL_SLICE_BASE),
    config("619.lbm_s.1", 8, WaitPolicy::Active, 8_000),
];

// xz.2 adds heterogeneous barrier-free threads, lbm-active adds spin loops.
const FULLDETAIL: [AppConfig; 4] = [
    config("603.bwaves_s.1", 8, WaitPolicy::Passive, 0),
    config("619.lbm_s.1", 8, WaitPolicy::Active, 0),
    config("627.cam4_s.1", 8, WaitPolicy::Passive, 0),
    config("657.xz_s.2", 4, WaitPolicy::Passive, 0),
];

const LIVE: [AppConfig; 4] = [
    config("603.bwaves_s.1", 8, WaitPolicy::Passive, 8_000),
    config("603.bwaves_s.1", 8, WaitPolicy::Passive, SMALL_SLICE_BASE),
    config("619.lbm_s.1", 8, WaitPolicy::Active, 8_000),
    config("657.xz_s.2", 4, WaitPolicy::Passive, 8_000),
];

/// One built program and what set-up measured on it.
struct Program {
    program: Arc<lp_isa::Program>,
    nthreads: usize,
    simcfg: SimConfig,
    /// Application instructions (functional count).
    insts: u64,
    vm_secs: f64,
    snapshot_us: f64,
    /// Full-detail OoO reference and its wall seconds, when error is wanted.
    full: Option<(SimStats, f64)>,
}

/// One app-config of the pass, pointing at its program.
struct App {
    label: String,
    small_slice: bool,
    slice_base: u64,
    program: usize,
}

struct Inputs {
    programs: Vec<Program>,
    apps: Vec<App>,
}

/// Builds the programs, counts their instructions on the functional VM
/// and, with `need_full`, simulates the full-detail references the error
/// is measured against.
fn set_up(run: &Run, configs: &[AppConfig], need_full: bool) -> Inputs {
    let mut rng = Rng::new(run.args.seed);
    let (input, input_name, slice_div) = if run.args.smoke {
        (InputClass::Test, "test", 8)
    } else {
        (InputClass::Train, "train", 1)
    };

    let mut keys: Vec<(&str, usize, bool)> = Vec::new();
    let mut programs: Vec<Program> = Vec::new();
    let mut apps: Vec<App> = Vec::new();
    for c in configs {
        let key = (c.app, c.threads, c.policy == WaitPolicy::Active);
        let index = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
            let spec = lp_workloads::find(c.app).expect("workload table names a known app");
            let nthreads = spec.effective_threads(c.threads);
            let program = lp_workloads::build(&spec, input, c.threads, c.policy);
            let simcfg = SimConfig::gainestown(nthreads.max(c.threads));
            let mut machine = Machine::new(program.clone(), nthreads);
            let t = Instant::now();
            let insts = machine
                .run_to_completion(DEFAULT_MAX_STEPS)
                .expect("functional run of a generated program");
            let vm_secs = t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(machine.snapshot());
            let snapshot_us = t.elapsed().as_secs_f64() * 1e6;
            let full = need_full.then(|| {
                let t = Instant::now();
                let stats = simulate_whole(&program, nthreads, &simcfg)
                    .expect("full-detail reference simulation");
                (stats, t.elapsed().as_secs_f64())
            });
            keys.push(key);
            programs.push(Program {
                program,
                nthreads,
                simcfg,
                insts,
                vm_secs,
                snapshot_us,
                full,
            });
            programs.len() - 1
        });
        let slice_base = c.slice_base / slice_div;
        let policy = if c.policy == WaitPolicy::Active {
            "active"
        } else {
            "passive"
        };
        apps.push(App {
            label: format!("{}/{input_name}/{}/{policy}/{slice_base}", c.app, c.threads),
            small_slice: c.slice_base == SMALL_SLICE_BASE,
            slice_base,
            program: index,
        });
    }
    // Seeded call order (Fisher–Yates).
    for i in (1..apps.len()).rev() {
        apps.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Inputs { programs, apps }
}

/// Sets up [`SETUPS`] times, so that `setup_s` is a median, and keeps for
/// each program the fastest functional run and reference.
fn prepare(run: &mut Run, configs: &[AppConfig], need_full: bool) -> Inputs {
    let before = run.process_start.elapsed().as_secs_f64();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut inputs: Option<Inputs> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut fresh = set_up(run, configs, need_full);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(kept) = inputs {
            for (new, old) in fresh.programs.iter_mut().zip(kept.programs) {
                new.vm_secs = new.vm_secs.min(old.vm_secs);
                new.snapshot_us = new.snapshot_us.min(old.snapshot_us);
                if let (Some(new), Some(old)) = (new.full.as_mut(), old.full) {
                    new.1 = new.1.min(old.1);
                }
            }
        }
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("SETUPS is at least one");
    run.ledger.set("setup_s", before + stats::median(&setup_s));

    let programs = &inputs.programs;
    let insts: u64 = programs.iter().map(|p| p.insts).sum();
    let vm_secs: f64 = programs.iter().map(|p| p.vm_secs).sum();
    run.ledger.set("isa.vm_mips", insts as f64 / vm_secs / 1e6);
    let snapshots: Vec<f64> = programs.iter().map(|p| p.snapshot_us).collect();
    run.ledger.set("isa.snapshot_us", stats::median(&snapshots));
    let refs: Vec<&SimStats> = programs
        .iter()
        .filter_map(|p| p.full.as_ref().map(|f| &f.0))
        .collect();
    set_simulated_stats(run, &refs);
    inputs
}

/// The simulated machine's own statistics over `refs` (full-detail OoO
/// runs). A simulator-speed change must leave them bit-identical.
fn set_simulated_stats(run: &mut Run, refs: &[&SimStats]) {
    let insts: f64 = refs.iter().map(|s| s.instructions as f64).sum();
    let cycles: f64 = refs.iter().map(|s| s.cycles as f64).sum();
    if insts == 0.0 || cycles == 0.0 {
        return;
    }
    let weighted = |f: fn(&SimStats) -> f64| -> f64 {
        refs.iter()
            .map(|s| f(s) * s.instructions as f64)
            .sum::<f64>()
            / insts
    };
    run.ledger.set("sim.cycles", cycles);
    run.ledger.set("sim.ipc", insts / cycles);
    run.ledger.set("sim.l2_mpki", weighted(SimStats::l2_mpki));
    run.ledger
        .set("sim.branch_mpki", weighted(SimStats::branch_mpki));
}

/// What one call into the system under test produced.
#[derive(Default)]
struct CallOut {
    /// Application (or simulated) instructions the answer covers.
    insts: u64,
    /// Every deterministic field of the output, for the repeat check.
    digest: String,
    /// Predicted whole-program cycles, where the call samples.
    predicted_cycles: Option<f64>,
    /// The simulation statistics, where the call is a whole simulation.
    stats: Option<SimStats>,
    /// Seconds inside the call that are measurement, not the system
    /// (the traced pass's extra bare replay).
    extra_secs: f64,
    /// Named quantities a spanned call saw, summed per pass afterwards.
    seen: Vec<(&'static str, f64)>,
}

struct Call {
    app: usize,
    variant: usize,
    secs: f64,
    out: CallOut,
}

struct Pass {
    spanned: bool,
    calls: Vec<Call>,
}

/// What [`drive`] hands back for the layer metrics.
struct Driven {
    /// The first pass made without spans.
    first: Vec<Call>,
    /// Every pass made with spans (traced runs only).
    spanned: Vec<Vec<Call>>,
}

impl Driven {
    fn sums<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spanned.iter().map(move |pass| {
            pass.iter()
                .flat_map(|c| c.out.seen.iter())
                .filter(|(n, _)| *n == name)
                .map(|(_, v)| v)
                .sum()
        })
    }

    /// A counted quantity: the same in every spanned pass.
    fn count(&self, name: &str) -> f64 {
        self.sums(name).next().unwrap_or(0.0)
    }

    /// A timed quantity: of the pass where it was least.
    fn best(&self, name: &str) -> f64 {
        self.sums(name).reduce(f64::min).unwrap_or(0.0)
    }
}

type CallFn<'a> = dyn FnMut(&mut Run, &Inputs, usize, usize, bool) -> Result<CallOut, String> + 'a;

/// Runs the passes and does the bookkeeping common to the three
/// workloads: operations, the pass-repeat check, the end-to-end metrics,
/// the error metrics and the tracing overhead. `variants` is the number
/// of calls per app-config (2 on `fulldetail-train`: OoO, then in-order).
fn drive(
    run: &mut Run,
    inputs: &Inputs,
    variants: usize,
    repeat_check: &str,
    call: &mut CallFn,
) -> Driven {
    let traced = run.args.traced;
    let units = inputs.apps.len() * variants;
    let mut passes: Vec<Pass> = Vec::new();
    let measuring = Instant::now();
    loop {
        let pass = passes.len() as u32 + 1;
        let spanned = traced && pass.is_multiple_of(2);
        run.tracer.set_enabled(spanned);
        run.tracer.set_pass(pass);
        let open = run.tracer.begin("pass");
        let mut calls = Vec::with_capacity(units);
        for app in 0..inputs.apps.len() {
            for variant in 0..variants {
                let t = Instant::now();
                let out = call(run, inputs, app, variant, spanned);
                let secs = t.elapsed().as_secs_f64();
                let what = format!("pass {pass} {} #{variant}", inputs.apps[app].label);
                match out {
                    Ok(out) => {
                        run.op(true, &what);
                        let secs = secs - out.extra_secs;
                        calls.push(Call {
                            app,
                            variant,
                            secs,
                            out,
                        });
                    }
                    Err(e) => run.op(false, &format!("{what}: {e}")),
                }
            }
        }
        run.tracer.end(open);
        passes.push(Pass { spanned, calls });
        run.note_peak_rss();
        // A traced run ends on a spanned pass, so both kinds are as many.
        if measuring.elapsed().as_secs_f64() >= run.args.seconds && (!traced || spanned) {
            break;
        }
    }
    run.tracer.set_enabled(false);

    let digests = |p: &Pass| {
        p.calls
            .iter()
            .map(|c| c.out.digest.clone())
            .collect::<Vec<_>>()
    };
    if passes.len() > 1 {
        let first = digests(&passes[0]);
        let differing = passes[1..].iter().filter(|p| digests(p) != first).count();
        run.check(
            repeat_check,
            differing == 0,
            &format!("{differing} pass(es) differ from pass 1"),
        );
    }

    // Fastest repeat of each call, over the complete passes of one kind.
    let fastest = |spanned: bool| -> Vec<f64> {
        let complete: Vec<&Pass> = passes
            .iter()
            .filter(|p| p.spanned == spanned && p.calls.len() == units)
            .collect();
        if complete.is_empty() {
            return Vec::new();
        }
        (0..units)
            .map(|i| {
                complete
                    .iter()
                    .map(|p| p.calls[i].secs)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    };
    let plain = fastest(false);
    let plain_secs: f64 = plain.iter().sum();
    println!(
        "{} pass(es) of {units} call(s); fastest repeats:",
        passes.len()
    );
    if let Some(p) = passes.iter().find(|p| !p.spanned && p.calls.len() == units) {
        for (c, secs) in p.calls.iter().zip(&plain) {
            println!(
                "  {:<48} #{} {secs:9.4} s",
                inputs.apps[c.app].label, c.variant
            );
        }
        let insts: f64 = p.calls.iter().map(|c| c.out.insts as f64).sum();
        run.ledger.set("app_mips", insts / plain_secs / 1e6);
        let ms: Vec<f64> = plain.iter().map(|s| s * 1e3).collect();
        run.ledger.set("core.answer_p50_ms", stats::median(&ms));
    }
    let spanned_secs: f64 = fastest(true).iter().sum();
    if plain_secs > 0.0 && spanned_secs > 0.0 {
        run.ledger.set(
            "trace.overhead_pct",
            (spanned_secs - plain_secs) / plain_secs * 100.0,
        );
    }

    let mut kinds = passes.into_iter().partition::<Vec<Pass>, _>(|p| !p.spanned);
    let first = kinds.0.swap_remove(0).calls;
    let spanned = kinds.1.into_iter().map(|p| p.calls).collect();

    // Error against the repo's own full-detail model, slice-base-2000
    // configs apart. A workload that does not sample is exact.
    let reference = |c: &Call| inputs.programs[inputs.apps[c.app].program].full.as_ref();
    let sampled = |small: bool| -> Vec<(f64, f64)> {
        first
            .iter()
            .filter(|c| inputs.apps[c.app].small_slice == small)
            .filter_map(|c| Some((c.out.predicted_cycles?, reference(c)?.0.cycles as f64)))
            .collect()
    };
    let mean = |pairs: &[(f64, f64)], f: fn(f64, f64) -> f64| {
        pairs.iter().map(|&(p, t)| f(p, t)).sum::<f64>() / pairs.len().max(1) as f64
    };
    let (main, small) = (sampled(false), sampled(true));
    let err = mean(&main, error_pct);
    run.ledger.set(
        "accuracy_pct",
        if main.is_empty() {
            100.0
        } else {
            mean(&main, stats::agreement_pct)
        },
    );
    run.ledger.set("core.err_pct", err);
    run.ledger
        .set("core.err_small_slice_pct", mean(&small, error_pct));
    // Test-scale programs are a handful of slices; sampling them says nothing.
    if !main.is_empty() && !run.args.smoke {
        run.check(
            "err_under_sanity_ceiling",
            err < ERR_CEILING_PCT,
            &format!("mean error {err:.2} % on the slice-base-8000 configs"),
        );
    }
    let full_secs: f64 = first.iter().filter_map(|c| reference(c).map(|f| f.1)).sum();
    if full_secs > 0.0 && plain_secs > 0.0 {
        run.ledger
            .set("core.speedup_vs_full_x", full_secs / plain_secs);
    }
    Driven { first, spanned }
}

/// `run_job` taken apart: the same public calls in the same order, each
/// under a span, plus one bare replay to split observer cost from replay
/// cost. Must rebuild `run_job`'s `JobSummary` exactly.
fn decomposed_job(
    run: &mut Run,
    p: &Program,
    cfg: &LoopPointConfig,
) -> Result<(JobSummary, CallOut), String> {
    let t = &mut run.tracer;
    let program = &p.program;

    let (pinball, _) = t.timed("pinball.record", || {
        Pinball::record(program, p.nthreads, cfg.record)
    });
    let pinball = pinball.map_err(|e| e.to_string())?;
    let (bare, bare_s) = t.timed("pinball.replay_bare", || {
        pinball.replay(program.clone(), &mut [], cfg.max_steps)
    });
    bare.map_err(|e| e.to_string())?;

    let (dcfg, _) = t.timed("dcfg.replay", || {
        let mut builder = DcfgBuilder::new(program.clone(), p.nthreads);
        pinball.replay(program.clone(), &mut [&mut builder], cfg.max_steps)?;
        Ok::<_, lp_pinball::PinballError>(builder.finish())
    });
    let dcfg = dcfg.map_err(|e| e.to_string())?;
    if dcfg.main_image_loop_headers().is_empty() {
        return Err("program has no main-image loop headers".to_string());
    }

    let (profile, _) = t.timed("bbv.replay", || {
        let mut slicer = LoopAlignedSlicer::new(program.clone(), &dcfg, p.nthreads, cfg.slice_base);
        slicer.set_spin_filter(cfg.filter_spin);
        slicer.set_policy(cfg.slice_policy);
        pinball.replay(program.clone(), &mut [&mut slicer], cfg.max_steps)?;
        Ok::<_, lp_pinball::PinballError>(slicer.finish())
    });
    let profile = profile.map_err(|e| e.to_string())?;
    if profile.slices.is_empty() {
        return Err("profiling produced no slices".to_string());
    }

    let (clustering, _) = t.timed("simpoint.cluster", || {
        let vectors: Vec<&[(u64, f64)]> = profile.slices.iter().map(|s| s.bbv.entries()).collect();
        lp_simpoint::cluster(&vectors, &cfg.simpoint)
    });

    // Representative per cluster with its Eq. 2 multiplier, as `analyze`
    // selects them.
    let (looppoints, _) = t.timed("core.select", || {
        clustering
            .representatives
            .iter()
            .enumerate()
            .map(|(cluster, &rep)| {
                let slice = &profile.slices[rep];
                let cluster_filtered: u64 = clustering
                    .members(cluster)
                    .map(|i| profile.slices[i].filtered_insts)
                    .sum();
                LoopPointRegion {
                    slice_index: rep,
                    cluster,
                    start: slice.start,
                    end: slice.end,
                    multiplier: if slice.filtered_insts == 0 {
                        0.0
                    } else {
                        cluster_filtered as f64 / slice.filtered_insts as f64
                    },
                    filtered_insts: slice.filtered_insts,
                    cluster_filtered_insts: cluster_filtered,
                }
            })
            .collect::<Vec<_>>()
    });
    let analysis = Analysis {
        pinball,
        dcfg,
        profile,
        clustering,
        looppoints,
    };

    let (prepared, _) = t.timed("core.checkpoints", || {
        prepare_region_checkpoints(&analysis, program, WARMUP_SLICES)
    });
    let prepared = prepared.map_err(|e| e.to_string())?;
    let (results, _) = t.timed("core.region_sim", || {
        simulate_prepared(
            &prepared,
            program,
            p.nthreads,
            &p.simcfg,
            &SimOptions::default(),
        )
    });
    let results = results.map_err(|e| e.to_string())?;
    let (prediction, _) = t.timed("core.extrapolate", || extrapolate(&results));

    let sum = |f: &dyn Fn(&SimStats) -> f64| results.iter().map(|r| f(&r.stats)).sum::<f64>();
    let mut seen = vec![
        ("insts", p.insts as f64),
        ("vm_secs", p.vm_secs),
        ("pinball_bytes", analysis.pinball.to_bytes().len() as f64),
        ("slices", analysis.profile.slices.len() as f64),
        ("k", analysis.clustering.k as f64),
        (
            "checkpoint_bytes",
            looppoint::persist::encode_checkpoints(&prepared).len() as f64,
        ),
        (
            "checkpoints",
            prepared
                .regions
                .iter()
                .filter(|r| r.checkpoint.is_some())
                .count() as f64,
        ),
        ("detailed_insts", sum(&|s| s.instructions as f64)),
        ("detailed_secs", sum(&|s| s.wall.as_secs_f64())),
        ("ff_insts", sum(&|s| s.ff_instructions as f64)),
        ("ff_secs", sum(&|s| s.ff_wall.as_secs_f64())),
    ];
    seen.extend(results.iter().map(|r| {
        (
            "region_ms",
            (r.stats.wall + r.stats.ff_wall).as_secs_f64() * 1e3,
        )
    }));

    let summary = JobSummary {
        slices: analysis.profile.slices.len(),
        clusters: analysis.clustering.k,
        regions: results.len(),
        predicted_cycles: prediction.total_cycles,
        predicted_branch_mpki: prediction.branch_mpki,
        predicted_l2_mpki: prediction.l2_mpki,
        analysis_from_store: false,
        checkpoints_from_store: false,
    };
    let out = CallOut {
        extra_secs: bare_s,
        seen,
        ..CallOut::default()
    };
    Ok((summary, out))
}

/// `twophase-train`: cold `run_job` with no store.
pub fn twophase(run: &mut Run) {
    let inputs = prepare(run, &TWOPHASE, true);
    let mut call = |run: &mut Run,
                    inputs: &Inputs,
                    app: usize,
                    _variant: usize,
                    spanned: bool|
     -> Result<CallOut, String> {
        let app = &inputs.apps[app];
        let p = &inputs.programs[app.program];
        let cfg = LoopPointConfig::with_slice_base(app.slice_base);
        let (summary, out) = if spanned {
            decomposed_job(run, p, &cfg)?
        } else {
            let job = run_job(
                &p.program,
                p.nthreads,
                &cfg,
                &p.simcfg,
                &SimOptions::default(),
                WARMUP_SLICES,
                None,
            );
            (job.map_err(|e| e.to_string())?, CallOut::default())
        };
        Ok(CallOut {
            insts: p.insts,
            digest: format!("{summary:?}"),
            predicted_cycles: Some(summary.predicted_cycles),
            ..out
        })
    };
    let repeat_check = if run.args.traced {
        "decomposition_equals_run_job"
    } else {
        "passes_repeat"
    };
    let driven = drive(run, &inputs, 1, repeat_check, &mut call);
    if driven.spanned.is_empty() {
        return;
    }

    let spans = &run.tracer.spans;
    let stage = |name: &str| trace::best_pass_seconds(spans, name);
    let (record_s, bare_s) = (stage("pinball.record"), stage("pinball.replay_bare"));
    let (dcfg_s, bbv_s, cluster_s) = (
        stage("dcfg.replay"),
        stage("bbv.replay"),
        stage("simpoint.cluster"),
    );
    let (checkpoints_s, region_sim_s) = (stage("core.checkpoints"), stage("core.region_sim"));
    let (select_s, extrapolate_s) = (stage("core.select"), stage("core.extrapolate"));
    let per_pass = |name: &str| {
        trace::counts(spans).get(name).copied().unwrap_or(0) as f64 / driven.spanned.len() as f64
    };
    let pinball_calls: f64 = [
        "pinball.record",
        "pinball.replay_bare",
        "dcfg.replay",
        "bbv.replay",
        "core.checkpoints",
    ]
    .iter()
    .map(|n| per_pass(n))
    .sum();
    let insts = driven.count("insts");
    let vm_secs = driven.count("vm_secs");
    let mips = |secs: f64| insts / secs / 1e6;
    let region_ms: Vec<f64> = driven.spanned[0]
        .iter()
        .flat_map(|c| c.out.seen.iter())
        .filter(|(n, _)| *n == "region_ms")
        .map(|(_, v)| *v)
        .collect();

    let l = &mut run.ledger;
    l.set("pinball.calls", pinball_calls);
    l.set("pinball.record_mips", mips(record_s));
    l.set("pinball.record_overhead_x", record_s / vm_secs);
    l.set("pinball.replay_mips", mips(bare_s));
    l.set("pinball.replay_overhead_x", bare_s / vm_secs);
    l.set("pinball.checkpoint_pass_mips", mips(checkpoints_s));
    l.set(
        "pinball.bytes_per_kinst",
        driven.count("pinball_bytes") / (insts / 1e3),
    );
    l.set("dcfg.self_s", dcfg_s - bare_s);
    l.set("bbv.self_s", bbv_s - bare_s);
    l.set("bbv.slices", driven.count("slices"));
    l.set("simpoint.cluster_s", cluster_s);
    l.set("simpoint.vectors", driven.count("slices"));
    l.set("simpoint.k", driven.count("k"));
    l.set(
        "sim.ooo_kips",
        driven.count("detailed_insts") / driven.best("detailed_secs") / 1e3,
    );
    if driven.best("ff_secs") > 0.0 {
        l.set(
            "sim.ff_mips",
            driven.count("ff_insts") / driven.best("ff_secs") / 1e6,
        );
    }
    l.set("sim.region_ms_p50", stats::median(&region_ms));
    l.set(
        "core.analyze_s",
        record_s + dcfg_s + bbv_s + cluster_s + select_s,
    );
    l.set("core.checkpoints_s", checkpoints_s);
    l.set("core.region_sim_s", region_sim_s);
    l.set("core.extrapolate_ms", extrapolate_s * 1e3);
    l.set(
        "core.detail_inst_share",
        driven.count("detailed_insts") / insts * 100.0,
    );
    if driven.count("checkpoints") > 0.0 {
        l.set(
            "core.checkpoint_kib",
            driven.count("checkpoint_bytes") / driven.count("checkpoints") / 1024.0,
        );
    }
}

/// The fields of a `SimStats` that simulation determines (its two wall
/// clocks are host time).
fn stats_digest(s: &SimStats) -> String {
    format!(
        "{} {} {} {:?} {:?} {:?} {}",
        s.cycles,
        s.instructions,
        s.filtered_instructions,
        s.per_thread_instructions,
        s.branch,
        s.mem,
        s.ff_instructions
    )
}

/// `fulldetail-train`: `simulate_whole`, out-of-order then in-order.
pub fn fulldetail(run: &mut Run) {
    let inputs = prepare(run, &FULLDETAIL, false);
    let mut call = |run: &mut Run,
                    inputs: &Inputs,
                    app: usize,
                    variant: usize,
                    _spanned: bool|
     -> Result<CallOut, String> {
        let p = &inputs.programs[inputs.apps[app].program];
        let (name, simcfg) = if variant == 0 {
            ("sim.ooo", p.simcfg.clone())
        } else {
            (
                "sim.inorder",
                SimConfig::gainestown_inorder(p.simcfg.ncores),
            )
        };
        let (stats, _) = run
            .tracer
            .timed(name, || simulate_whole(&p.program, p.nthreads, &simcfg));
        let stats = stats.map_err(|e| e.to_string())?;
        Ok(CallOut {
            insts: stats.instructions,
            digest: stats_digest(&stats),
            stats: Some(stats),
            ..CallOut::default()
        })
    };
    let driven = drive(run, &inputs, 2, "passes_repeat", &mut call);
    if driven.spanned.is_empty() {
        return;
    }
    let insts = |variant: usize| -> f64 {
        driven
            .first
            .iter()
            .filter(|c| c.variant == variant)
            .map(|c| c.out.insts as f64)
            .sum()
    };
    let (ooo_s, inorder_s) = (
        trace::best_pass_seconds(&run.tracer.spans, "sim.ooo"),
        trace::best_pass_seconds(&run.tracer.spans, "sim.inorder"),
    );
    run.ledger.set("sim.ooo_kips", insts(0) / ooo_s / 1e3);
    run.ledger
        .set("sim.inorder_kips", insts(1) / inorder_s / 1e3);
    let ooo: Vec<&SimStats> = driven
        .first
        .iter()
        .filter(|c| c.variant == 0)
        .filter_map(|c| c.out.stats.as_ref())
        .collect();
    set_simulated_stats(run, &ooo);

    // The two component loops `criterion_micro` times, and a whole-program
    // fast-forward (functional execution with cache and predictor warming);
    // each the fastest of a few repeats, like every timing here.
    const ACCESSES: u64 = 1_000_000;
    const REPEATS: u32 = 5;
    let simcfg = SimConfig::gainestown(8);
    let p = &inputs.programs[0];
    let mut ff_ok = true;
    run.tracer.set_enabled(true);
    for repeat in 1..=REPEATS {
        run.tracer.set_pass(repeat);
        run.tracer.timed("uarch.hierarchy", || {
            let mut hierarchy = MemoryHierarchy::new(&simcfg);
            for i in 0..ACCESSES {
                black_box(hierarchy.access_data(0, Addr(i * 64), i % 7 == 0, true));
            }
        });
        run.tracer.timed("uarch.branch_predictor", || {
            let mut predictor = BranchPredictor::default();
            for i in 0..ACCESSES as u32 {
                black_box(predictor.predict_cond(Pc::new(ImageId(0), i % 37), i % 3 != 0));
            }
        });
        let (ff, _) = run.tracer.timed("sim.fast_forward", || {
            lp_sim::Simulator::new(p.program.clone(), p.nthreads, p.simcfg.clone()).run(
                lp_sim::Mode::FastForward,
                None,
                DEFAULT_MAX_STEPS,
            )
        });
        ff_ok &= ff.is_ok();
    }
    run.tracer.set_enabled(false);
    run.check(
        "fast_forward_completes",
        ff_ok,
        "whole-program fast-forward failed",
    );
    let best = |name: &str| trace::best_pass_seconds(&run.tracer.spans, name);
    let (hierarchy_s, predictor_s, ff_s) = (
        best("uarch.hierarchy"),
        best("uarch.branch_predictor"),
        best("sim.fast_forward"),
    );
    run.ledger.set(
        "uarch.hierarchy_maccess_s",
        ACCESSES as f64 / hierarchy_s / 1e6,
    );
    run.ledger
        .set("uarch.bp_mpredict_s", ACCESSES as f64 / predictor_s / 1e6);
    run.ledger.set("sim.ff_mips", p.insts as f64 / ff_s / 1e6);
}

/// `live-train`: one-pass online sampling.
pub fn live(run: &mut Run) {
    let inputs = prepare(run, &LIVE, true);
    let mut call = |run: &mut Run,
                    inputs: &Inputs,
                    app: usize,
                    _variant: usize,
                    spanned: bool|
     -> Result<CallOut, String> {
        let app = &inputs.apps[app];
        let p = &inputs.programs[app.program];
        let cfg = LiveConfig::with_slice_base(app.slice_base);
        let (outcome, _) = run.tracer.timed("core.analyze_live", || {
            analyze_live(&p.program, p.nthreads, &cfg, &p.simcfg, &mut |_| {})
        });
        let outcome = outcome.map_err(|e| e.to_string())?;
        let seen = if spanned {
            vec![
                ("regions", outcome.regions.len() as f64),
                ("clusters", outcome.clusters.len() as f64),
                ("detailed_regions", outcome.detailed_regions as f64),
                ("detailed_insts", outcome.detailed_insts as f64),
                ("total_insts", outcome.total_insts as f64),
            ]
        } else {
            Vec::new()
        };
        Ok(CallOut {
            insts: p.insts,
            digest: format!("{:?}", LiveSummary::from_outcome(&outcome)),
            predicted_cycles: Some(outcome.est_total_cycles),
            seen,
            ..CallOut::default()
        })
    };
    let driven = drive(run, &inputs, 1, "passes_repeat", &mut call);
    if driven.count("regions") > 0.0 {
        run.ledger.set("live.regions", driven.count("regions"));
        run.ledger.set("live.clusters", driven.count("clusters"));
        run.ledger.set(
            "live.detailed_pct",
            driven.count("detailed_regions") / driven.count("regions") * 100.0,
        );
        run.ledger.set(
            "core.detail_inst_share",
            driven.count("detailed_insts") / driven.count("total_insts") * 100.0,
        );
    }
}
