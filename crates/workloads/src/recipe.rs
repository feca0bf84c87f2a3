//! Workload specifications and the recipe interpreter.

use crate::kernels::{self, KernelCtx, Schedule};
use lp_isa::{Program, ProgramBuilder, Reg};
use lp_omp::{LockId, OmpRuntime, WaitPolicy, APP_BASE};
use std::sync::Arc;

/// Which suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// SPEC CPU2017-speed-like applications.
    Spec,
    /// NAS-Parallel-Benchmarks-like kernels.
    Npb,
    /// Demo applications (the artifact's `matrix-omp`).
    Demo,
}

/// Synchronization primitives a workload uses (Table III columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct SyncPrimitives {
    pub static_for: bool,
    pub dynamic_for: bool,
    pub barrier: bool,
    pub master: bool,
    pub single: bool,
    pub reduction: bool,
    pub atomic: bool,
    pub lock: bool,
}

/// Input scale (the paper's input sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputClass {
    /// Tiny inputs for tests and the demo (seconds end-to-end).
    Test,
    /// The paper's `train` scale (full pipelines validated against full
    /// detailed simulation).
    Train,
    /// The paper's `ref` scale (~12× train; profiled and sampled, full
    /// detailed reference impractical — exactly as in the paper).
    Ref,
    /// NPB class C equivalent.
    NpbC,
}

impl InputClass {
    /// Round-count multiplier relative to the base recipe.
    pub fn round_multiplier(self) -> u64 {
        match self {
            InputClass::Test => 1,
            InputClass::Train => 6,
            InputClass::Ref => 72,
            InputClass::NpbC => 8,
        }
    }

    /// Lower-case name (as used in result tables).
    pub fn name(self) -> &'static str {
        match self {
            InputClass::Test => "test",
            InputClass::Train => "train",
            InputClass::Ref => "ref",
            InputClass::NpbC => "C",
        }
    }
}

/// The inverse of [`InputClass::name`] (`c` is accepted for `C`).
impl std::str::FromStr for InputClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "test" => Ok(InputClass::Test),
            "train" => Ok(InputClass::Train),
            "ref" => Ok(InputClass::Ref),
            "C" | "c" => Ok(InputClass::NpbC),
            other => Err(format!("unknown input class '{other}'")),
        }
    }
}

/// A phase inside a workload round: one parallel region running a kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    Stream {
        base: u64,
        stride: u64,
        iters: u64,
        sched: Schedule,
    },
    Stencil {
        src: u64,
        dst: u64,
        iters: u64,
        sched: Schedule,
    },
    Random {
        base: u64,
        table_words: u64,
        iters: u64,
        sched: Schedule,
    },
    IntCompute {
        iters: u64,
        depth: u32,
        sched: Schedule,
    },
    FpCompute {
        iters: u64,
        depth: u32,
        div: bool,
        sched: Schedule,
    },
    Reduce {
        iters: u64,
        addr: u64,
    },
    Locked {
        iters: u64,
        lock: usize,
        addr: u64,
    },
    Histogram {
        iters: u64,
        base: u64,
        buckets: u64,
    },
    Skewed {
        iters: u64,
        base: u64,
        spread: u64,
        sched: Schedule,
    },
}

impl Phase {
    fn schedule(&self) -> Schedule {
        match *self {
            Phase::Stream { sched, .. }
            | Phase::Stencil { sched, .. }
            | Phase::Random { sched, .. }
            | Phase::IntCompute { sched, .. }
            | Phase::FpCompute { sched, .. }
            | Phase::Skewed { sched, .. } => sched,
            Phase::Reduce { .. } | Phase::Locked { .. } | Phase::Histogram { .. } => {
                Schedule::Static
            }
        }
    }
}

/// The declarative program recipe a spec builds from.
#[derive(Debug, Clone)]
pub(crate) struct Recipe {
    /// Arrays to pre-touch (base address, length in words).
    pub init_arrays: Vec<(u64, u64)>,
    /// Rounds of the phase schedule at `InputClass::Test` scale.
    pub base_rounds: u64,
    /// The per-round phase schedule.
    pub phases: Vec<Phase>,
    /// Scale *iterations* (phase sizes) with the input class instead of
    /// the round count — applications whose serial structure is fixed but
    /// whose working set grows (the paper's 638.imagick: one inter-barrier
    /// region spanning almost the whole application at ref scale).
    pub scale_iters: bool,
    /// Decorate one region per round with a `master` section.
    pub use_master: bool,
    /// Decorate one region per round with a `single` section.
    pub use_single: bool,
    /// Emit an explicit mid-region barrier in stencil phases.
    pub use_barrier: bool,
}

/// A workload's identity and metadata (Tables II and III).
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Benchmark name (e.g. `603.bwaves_s.1`).
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    /// Source language (Table II).
    pub language: &'static str,
    /// Thousands of lines of code in the original (Table II).
    pub kloc: u32,
    /// Application area (Table II).
    pub area: &'static str,
    /// Synchronization primitives (Table III).
    pub sync: SyncPrimitives,
    /// Fixed thread count, if the app dictates one (`657.xz_s.1` = 1,
    /// `657.xz_s.2` = 4).
    pub fixed_threads: Option<usize>,
    pub(crate) recipe: Recipe,
}

impl WorkloadSpec {
    /// The thread count this workload will actually run with when asked
    /// for `requested` threads.
    pub fn effective_threads(&self, requested: usize) -> usize {
        self.fixed_threads.unwrap_or(requested)
    }
}

/// Builds the executable program for a workload at the given input scale,
/// thread count, and wait policy.
///
/// The returned program pairs with a machine/simulator of
/// [`WorkloadSpec::effective_threads`] threads.
pub fn build(
    spec: &WorkloadSpec,
    input: InputClass,
    nthreads: usize,
    policy: WaitPolicy,
) -> Arc<Program> {
    let nthreads = spec.effective_threads(nthreads);
    let (rounds, iter_mult) = if spec.recipe.scale_iters {
        (spec.recipe.base_rounds, input.round_multiplier())
    } else {
        (spec.recipe.base_rounds * input.round_multiplier(), 1)
    };

    let mut pb = ProgramBuilder::new(spec.name);
    let mut rt = OmpRuntime::build(&mut pb, nthreads, policy);
    let mut c = pb.main_code();
    rt.emit_main_init(&mut c);

    // Steady-state warmers: pre-touch every array in dedicated phases.
    // Iteration-scaled recipes touch proportionally larger extents, so the
    // pre-touch must grow with them to keep cold-start transients out of
    // the measured phases.
    for (i, &(base, words)) in spec.recipe.init_arrays.iter().enumerate() {
        let words = words * iter_mult;
        rt.emit_parallel(&mut c, &format!("init{i}"), |c, rt| {
            kernels::init_array(c, rt, &format!("init{i}.loop"), base, words);
        });
    }

    // The round loop. r10 is the round counter; kernels only use r1–r8 and
    // the worksharing helpers r16–r23, so it survives parallel regions on
    // the main thread.
    c.li(Reg::R10, rounds as i64);
    c.counted_loop_reg("main.rounds", Reg::R10, |c| {
        for (pi, phase) in spec.recipe.phases.iter().enumerate() {
            if matches!(phase.schedule(), Schedule::Dynamic { .. }) {
                rt.emit_dyn_reset(c);
            }
            let region = format!("p{pi}");
            let decorate_master = spec.recipe.use_master && pi == 0;
            let decorate_single = spec.recipe.use_single && pi == 1 % spec.recipe.phases.len();
            rt.emit_parallel(c, &region, |c, rt| {
                if decorate_master {
                    rt.emit_master(c, |c, _| {
                        // Serial bookkeeping by the master thread.
                        c.li(Reg::R1, (APP_BASE + 0x80) as i64);
                        c.load(Reg::R2, Reg::R1, 0);
                        c.alui(lp_isa::AluOp::Add, Reg::R2, Reg::R2, 1);
                        c.store(Reg::R2, Reg::R1, 0);
                    });
                }
                if decorate_single {
                    rt.emit_single(c, |c, _| {
                        c.li(Reg::R1, (APP_BASE + 0x88) as i64);
                        c.load(Reg::R2, Reg::R1, 0);
                        c.alui(lp_isa::AluOp::Add, Reg::R2, Reg::R2, 1);
                        c.store(Reg::R2, Reg::R1, 0);
                    });
                }
                emit_phase(c, rt, &region, phase, spec.recipe.use_barrier, iter_mult);
            });
        }
    });

    rt.emit_shutdown(&mut c);
    c.halt();
    c.finish();
    Arc::new(pb.finish())
}

fn emit_phase(
    c: &mut lp_isa::CodeBuilder<'_>,
    rt: &mut OmpRuntime,
    region: &str,
    phase: &Phase,
    use_barrier: bool,
    iter_mult: u64,
) {
    let name = format!("{region}.loop");
    let m = iter_mult;
    match *phase {
        Phase::Stream {
            base,
            stride,
            iters,
            sched,
        } => {
            kernels::stream(
                c,
                rt,
                &name,
                KernelCtx {
                    iters: iters * m,
                    schedule: sched,
                },
                base,
                stride,
            );
        }
        Phase::Stencil {
            src,
            dst,
            iters,
            sched,
        } => {
            kernels::stencil(
                c,
                rt,
                &name,
                KernelCtx {
                    iters: iters * m,
                    schedule: sched,
                },
                src,
                dst,
            );
            if use_barrier {
                // Sweep back after a barrier: classic red/black iteration.
                rt.emit_barrier(c);
                kernels::stencil(
                    c,
                    rt,
                    &format!("{region}.loop2"),
                    KernelCtx {
                        iters: iters * m,
                        schedule: sched,
                    },
                    dst,
                    src,
                );
            }
        }
        Phase::Random {
            base,
            table_words,
            iters,
            sched,
        } => {
            kernels::random_access(
                c,
                rt,
                &name,
                KernelCtx {
                    iters: iters * m,
                    schedule: sched,
                },
                base,
                table_words,
            );
        }
        Phase::IntCompute {
            iters,
            depth,
            sched,
        } => {
            kernels::int_compute(
                c,
                rt,
                &name,
                KernelCtx {
                    iters: iters * m,
                    schedule: sched,
                },
                depth,
            );
        }
        Phase::FpCompute {
            iters,
            depth,
            div,
            sched,
        } => {
            kernels::fp_compute(
                c,
                rt,
                &name,
                KernelCtx {
                    iters: iters * m,
                    schedule: sched,
                },
                depth,
                div,
            );
        }
        Phase::Reduce { iters, addr } => {
            kernels::reduce_sum(
                c,
                rt,
                &name,
                KernelCtx {
                    iters: iters * m,
                    schedule: Schedule::Static,
                },
                addr,
            );
        }
        Phase::Locked { iters, lock, addr } => {
            kernels::locked_update(
                c,
                rt,
                &name,
                KernelCtx {
                    iters: iters * m,
                    schedule: Schedule::Static,
                },
                LockId(lock),
                addr,
            );
        }
        Phase::Histogram {
            iters,
            base,
            buckets,
        } => {
            kernels::atomic_histogram(
                c,
                rt,
                &name,
                KernelCtx {
                    iters: iters * m,
                    schedule: Schedule::Static,
                },
                base,
                buckets,
            );
        }
        Phase::Skewed {
            iters,
            base,
            spread,
            sched,
        } => {
            kernels::skewed_work(
                c,
                rt,
                &name,
                KernelCtx {
                    iters: iters * m,
                    schedule: sched,
                },
                base,
                spread,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_class_scaling() {
        assert_eq!(InputClass::Test.round_multiplier(), 1);
        assert!(InputClass::Ref.round_multiplier() > 10 * InputClass::Test.round_multiplier());
        assert_eq!(InputClass::Train.name(), "train");
        assert_eq!(InputClass::NpbC.name(), "C");
    }

    #[test]
    fn input_class_names_round_trip() {
        use InputClass::*;
        for class in [Test, Train, Ref, NpbC] {
            assert_eq!(class.name().parse(), Ok(class));
        }
        assert_eq!("c".parse(), Ok(NpbC));
        assert_eq!(
            "huge".parse::<InputClass>(),
            Err("unknown input class 'huge'".to_string())
        );
    }
}
