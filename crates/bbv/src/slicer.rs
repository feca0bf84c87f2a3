//! Loop-aligned, spin-filtered slicing — the LoopPoint profiler.

use crate::vector::{dim, SparseVec};
use lp_dcfg::Dcfg;
use lp_isa::{MachineState, Marker, Pc, PcTable, Program, Retired};
use lp_pinball::{ExecObserver, Replayer};
use std::sync::Arc;

/// Slice-length policy (§III-B: fixed ~100 M-per-thread slices by default,
/// "however, the methodology can also be used with varying length
/// intervals").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlicePolicy {
    /// Every slice targets the same filtered-instruction count.
    Fixed,
    /// Slice targets cycle deterministically through
    /// `[base/2, base, 2*base]`, approximating variable-length intervals
    /// matched to application periodicity.
    Varying,
}

/// One profiled slice: a variable-length region bounded by main-image
/// loop-header executions.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Slice index in execution order.
    pub index: usize,
    /// Start boundary; `None` for the first slice (program start).
    pub start: Option<Marker>,
    /// End boundary; `None` for the final slice (program end).
    pub end: Option<Marker>,
    /// Concatenated per-thread BBV (spin-filtered, block entries weighted
    /// by block length).
    pub bbv: SparseVec,
    /// Spin-filtered (main-image) instructions in the slice.
    pub filtered_insts: u64,
    /// All instructions in the slice (including library/spin code).
    pub total_insts: u64,
    /// Per-thread filtered instruction counts (Fig. 3's heterogeneity data).
    pub per_thread_insts: Vec<u64>,
}

/// The full profile of an execution.
#[derive(Debug, Clone)]
pub struct SliceProfile {
    /// All slices in execution order.
    pub slices: Vec<Slice>,
    /// Global filtered-instruction target per slice that was used.
    pub slice_target: u64,
    /// Thread count profiled with.
    pub nthreads: usize,
    /// Total spin-filtered instructions in the execution.
    pub total_filtered: u64,
    /// Total instructions in the execution.
    pub total_insts: u64,
}

impl SliceProfile {
    /// Fraction of instructions removed by the spin filter.
    pub fn filter_ratio(&self) -> f64 {
        if self.total_insts == 0 {
            0.0
        } else {
            1.0 - self.total_filtered as f64 / self.total_insts as f64
        }
    }
}

/// The replayed machine at one slice boundary: what a checkpoint pass
/// replaying to the boundary's marker would snapshot, taken by the slicing
/// replay itself (see [`LoopAlignedSlicer::keep_boundary_states`]).
#[derive(Debug, Clone)]
pub struct BoundaryState {
    /// The boundary: the end of one slice and the start of the next.
    pub marker: Marker,
    /// The machine right after the retirement that reached `marker`.
    pub state: MachineState,
    /// Global execution count of every main-image loop header at that
    /// point — the count a marker watch started here must begin from.
    pub header_counts: Vec<(Pc, u64)>,
}

impl BoundaryState {
    /// The global execution count of `pc` at the boundary (0 for a PC that
    /// is not a main-image loop header).
    pub fn count(&self, pc: Pc) -> u64 {
        self.header_counts
            .iter()
            .find(|&&(p, _)| p == pc)
            .map_or(0, |&(_, count)| count)
    }
}

/// Observer that slices the retirement stream at main-image loop headers
/// once the filtered instruction-count target is met (§III-B: slice size
/// ≈ N × base for an N-threaded application).
#[derive(Debug)]
pub struct LoopAlignedSlicer {
    program: Arc<Program>,
    nthreads: usize,
    slice_target: u64,
    base_target: u64,
    policy: SlicePolicy,
    filter_spin: bool,
    /// Global execution counts of every main-image loop header (dense:
    /// probed once per retired instruction).
    header_counts: PcTable<u64>,
    /// The main-image loop headers, in DCFG order.
    headers: Vec<Pc>,
    /// The machine at every slice boundary, when kept.
    boundary_states: Option<Vec<BoundaryState>>,
    /// `(block id, block length)` at every PC a DCFG block covers:
    /// [`Dcfg::block_of`]'s answer, dense (probed once per block entry).
    block_at: PcTable<(u32, u32)>,
    nblocks: usize,
    /// Per-thread flag: the next retirement enters a new basic block.
    entering_block: Vec<bool>,
    // Current slice accumulation. The BBV is dense, one cell per
    // (thread, block) at `tid * nblocks + block`; `touched` lists the
    // non-zero cells, so closing a slice costs what the slice touched.
    cur_bbv: Vec<u64>,
    touched: Vec<usize>,
    cur_filtered: u64,
    cur_total: u64,
    cur_per_thread: Vec<u64>,
    cur_start: Option<Marker>,
    slices: Vec<Slice>,
    total_filtered: u64,
    total_insts: u64,
}

impl LoopAlignedSlicer {
    /// Creates a slicer.
    ///
    /// `slice_base` is the per-thread slice size; the global target is
    /// `slice_base × nthreads` filtered instructions (the paper's
    /// N × 100 M, scaled).
    pub fn new(program: Arc<Program>, dcfg: &Dcfg, nthreads: usize, slice_base: u64) -> Self {
        assert!(slice_base > 0);
        let mut header_counts = PcTable::new(&program);
        let headers = dcfg.main_image_loop_headers();
        for &pc in &headers {
            header_counts.get_or_insert_with(pc, || 0);
        }
        let block_at = PcTable::from_fn(&program, |pc| {
            let id = dcfg.block_of(pc)?;
            Some((id.0, dcfg.block(id).len))
        });
        let nblocks = dcfg.blocks().len();
        LoopAlignedSlicer {
            program,
            nthreads,
            slice_target: slice_base * nthreads as u64,
            base_target: slice_base * nthreads as u64,
            policy: SlicePolicy::Fixed,
            filter_spin: true,
            header_counts,
            headers,
            boundary_states: None,
            block_at,
            nblocks,
            entering_block: vec![true; nthreads],
            cur_bbv: vec![0; nthreads * nblocks],
            touched: Vec::new(),
            cur_filtered: 0,
            cur_total: 0,
            cur_per_thread: vec![0; nthreads],
            cur_start: None,
            slices: Vec::new(),
            total_filtered: 0,
            total_insts: 0,
        }
    }

    /// Selects the slice-length policy.
    pub fn set_policy(&mut self, policy: SlicePolicy) {
        self.policy = policy;
    }

    /// Disables the library-image spin filter (ablation: every
    /// instruction counts toward BBVs, slice targets, and multipliers —
    /// the configuration §IV-F argues against).
    pub fn set_spin_filter(&mut self, enabled: bool) {
        self.filter_spin = enabled;
    }

    /// Keeps the machine state at every slice boundary the slicer reaches
    /// on a [`Pinball::replay`](lp_pinball::Pinball::replay), for
    /// [`LoopAlignedSlicer::finish_with_boundary_states`]. A state costs
    /// the pages stored to since the previous one, since snapshots share
    /// every other page.
    pub fn keep_boundary_states(&mut self) {
        self.boundary_states.get_or_insert_with(Vec::new);
    }

    fn close_slice(&mut self, end: Option<Marker>) {
        let entries = self.touched.drain(..).map(|cell| {
            let weight = std::mem::take(&mut self.cur_bbv[cell]);
            let (tid, block) = (cell / self.nblocks, cell % self.nblocks);
            (dim(tid, block as u32), weight as f64)
        });
        let bbv = SparseVec::from_entries(entries.collect());
        self.slices.push(Slice {
            index: self.slices.len(),
            start: self.cur_start,
            end,
            bbv,
            filtered_insts: self.cur_filtered,
            total_insts: self.cur_total,
            per_thread_insts: std::mem::replace(&mut self.cur_per_thread, vec![0; self.nthreads]),
        });
        self.cur_filtered = 0;
        self.cur_total = 0;
        self.cur_start = end;
        if self.policy == SlicePolicy::Varying {
            // Deterministic 1/2x, 1x, 2x rotation keyed on slice index.
            self.slice_target = match self.slices.len() % 3 {
                0 => self.base_target / 2,
                1 => self.base_target,
                _ => self.base_target * 2,
            }
            .max(1);
        }
    }

    /// Finalizes the profile (closing the trailing partial slice).
    pub fn finish(self) -> SliceProfile {
        self.finish_with_boundary_states().0
    }

    /// [`LoopAlignedSlicer::finish`], plus the kept boundary states (empty
    /// unless [`LoopAlignedSlicer::keep_boundary_states`] was called). In
    /// execution order: the state at the start of slice `i` is entry
    /// `i - 1`, whose marker is that slice's start marker.
    pub fn finish_with_boundary_states(mut self) -> (SliceProfile, Vec<BoundaryState>) {
        if self.cur_total > 0 || self.slices.is_empty() {
            self.close_slice(None);
        }
        let profile = SliceProfile {
            slices: self.slices,
            slice_target: self.slice_target,
            nthreads: self.nthreads,
            total_filtered: self.total_filtered,
            total_insts: self.total_insts,
        };
        (profile, self.boundary_states.unwrap_or_default())
    }

    /// Accounts one retirement; returns the marker of the slice boundary it
    /// reached, if any.
    #[inline]
    fn observe(&mut self, r: &Retired) -> Option<Marker> {
        let mut boundary = None;
        // Slice boundary check happens *before* accounting, so the header
        // execution opens the next slice (the paper's "end a region at the
        // next loop entry once the target is achieved").
        if !self.filter_spin || !self.program.is_library_pc(r.pc) {
            if let Some(count) = self.header_counts.get_mut(r.pc) {
                *count += 1;
                if self.cur_filtered >= self.slice_target {
                    let marker = Marker::new(r.pc, *count);
                    self.close_slice(Some(marker));
                    boundary = Some(marker);
                }
            }

            // Spin-filtered accounting.
            self.cur_filtered += 1;
            self.total_filtered += 1;
            self.cur_per_thread[r.tid] += 1;
            if self.entering_block[r.tid] {
                if let Some(&(block, len)) = self.block_at.get(r.pc) {
                    let cell = r.tid * self.nblocks + block as usize;
                    if self.cur_bbv[cell] == 0 {
                        self.touched.push(cell);
                    }
                    // Standard BBV weighting: entries × block length.
                    self.cur_bbv[cell] += u64::from(len);
                }
            }
        }
        self.cur_total += 1;
        self.total_insts += 1;
        self.entering_block[r.tid] = r.ctrl.is_some();
        boundary
    }
}

impl ExecObserver for LoopAlignedSlicer {
    fn on_retire(&mut self, r: &Retired) {
        self.observe(r);
    }

    fn on_replayed(&mut self, r: &Retired, replayer: &Replayer<'_>) {
        let Some(marker) = self.observe(r) else {
            return;
        };
        if let Some(states) = &mut self.boundary_states {
            let header_counts = self
                .headers
                .iter()
                .map(|&pc| (pc, self.header_counts.get(pc).copied().unwrap_or(0)))
                .collect();
            states.push(BoundaryState {
                marker,
                state: replayer.snapshot().0,
                header_counts,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp_dcfg::DcfgBuilder;
    use lp_isa::{AluOp, ProgramBuilder, Reg};
    use lp_omp::{OmpRuntime, WaitPolicy, APP_BASE};
    use lp_pinball::{Pinball, RecordConfig};

    fn profile(
        program: &Arc<Program>,
        nthreads: usize,
        slice_base: u64,
    ) -> (SliceProfile, Pinball) {
        let pinball = Pinball::record(program, nthreads, RecordConfig::default()).unwrap();
        let mut dcfg_b = DcfgBuilder::new(program.clone(), nthreads);
        pinball
            .replay(program.clone(), &mut [&mut dcfg_b], u64::MAX)
            .unwrap();
        let dcfg = dcfg_b.finish();
        let mut slicer = LoopAlignedSlicer::new(program.clone(), &dcfg, nthreads, slice_base);
        pinball
            .replay(program.clone(), &mut [&mut slicer], u64::MAX)
            .unwrap();
        (slicer.finish(), pinball)
    }

    fn work_program(nthreads: usize, policy: WaitPolicy, iters: u64) -> Arc<Program> {
        let mut pb = ProgramBuilder::new("work");
        let mut rt = OmpRuntime::build(&mut pb, nthreads, policy);
        let mut c = pb.main_code();
        rt.emit_main_init(&mut c);
        rt.emit_parallel(&mut c, "p", |c, rt| {
            rt.emit_static_for(c, "p.loop", iters, |c, _| {
                c.li(Reg::R1, APP_BASE as i64);
                c.alui(AluOp::Shl, Reg::R2, Reg::R16, 3);
                c.alu(AluOp::Add, Reg::R1, Reg::R1, Reg::R2);
                c.load(Reg::R3, Reg::R1, 0);
                c.alui(AluOp::Add, Reg::R3, Reg::R3, 1);
                c.store(Reg::R3, Reg::R1, 0);
            });
        });
        rt.emit_shutdown(&mut c);
        c.halt();
        c.finish();
        Arc::new(pb.finish())
    }

    #[test]
    fn slices_meet_target_and_align_to_headers() {
        let p = work_program(4, WaitPolicy::Passive, 4000);
        let (profile, _) = profile(&p, 4, 500); // target = 2000 filtered
        assert!(profile.slices.len() >= 3, "got {}", profile.slices.len());
        for s in &profile.slices[..profile.slices.len() - 1] {
            assert!(
                s.filtered_insts >= profile.slice_target,
                "slice {} too small: {}",
                s.index,
                s.filtered_insts
            );
            let end = s.end.expect("non-final slices have end markers");
            assert!(
                !p.is_library_pc(end.pc),
                "boundaries must be main-image loop headers"
            );
        }
        // Consecutive slices share boundaries.
        for w in profile.slices.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // Totals add up.
        let sum: u64 = profile.slices.iter().map(|s| s.filtered_insts).sum();
        assert_eq!(sum, profile.total_filtered);
    }

    #[test]
    fn active_and_passive_profiles_match_after_filtering() {
        // The spin filter makes the *analysis* independent of the wait
        // policy: filtered totals must be very close (runtime code differs
        // slightly between futex and spin paths, app code not at all).
        let pa = work_program(4, WaitPolicy::Active, 2000);
        let pp = work_program(4, WaitPolicy::Passive, 2000);
        let (prof_a, _) = profile(&pa, 4, 500);
        let (prof_p, _) = profile(&pp, 4, 500);
        assert!(prof_a.total_insts > prof_p.total_insts, "spins inflate raw");
        let diff = (prof_a.total_filtered as f64 - prof_p.total_filtered as f64).abs()
            / prof_p.total_filtered as f64;
        assert!(diff < 0.01, "filtered totals nearly equal, diff={diff}");
        assert!(prof_a.filter_ratio() > prof_p.filter_ratio());
    }

    #[test]
    fn bbvs_are_per_thread_concatenated() {
        let p = work_program(4, WaitPolicy::Passive, 4000);
        let (profile, _) = profile(&p, 4, 500);
        let mid = &profile.slices[profile.slices.len() / 2];
        // Every thread contributes dimensions to a steady-state slice.
        let mut threads_seen = [false; 4];
        for &(d, _) in mid.bbv.entries() {
            threads_seen[(d >> 32) as usize] = true;
        }
        assert!(threads_seen.iter().all(|&t| t), "{threads_seen:?}");
        // And per-thread instruction counts are balanced for this
        // homogeneous workload.
        let max = *mid.per_thread_insts.iter().max().unwrap() as f64;
        let min = *mid.per_thread_insts.iter().min().unwrap() as f64;
        assert!(
            min > 0.0 && max / min < 2.0,
            "balanced: {:?}",
            mid.per_thread_insts
        );
    }

    #[test]
    fn profiling_is_deterministic() {
        let p = work_program(4, WaitPolicy::Passive, 2000);
        let pinball = Pinball::record(&p, 4, RecordConfig::default()).unwrap();
        let run = || {
            let mut dcfg_b = DcfgBuilder::new(p.clone(), 4);
            pinball
                .replay(p.clone(), &mut [&mut dcfg_b], u64::MAX)
                .unwrap();
            let dcfg = dcfg_b.finish();
            let mut slicer = LoopAlignedSlicer::new(p.clone(), &dcfg, 4, 300);
            pinball
                .replay(p.clone(), &mut [&mut slicer], u64::MAX)
                .unwrap();
            slicer.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a.slices.len(), b.slices.len());
        for (sa, sb) in a.slices.iter().zip(&b.slices) {
            assert_eq!(sa.start, sb.start);
            assert_eq!(sa.end, sb.end);
            assert_eq!(sa.bbv, sb.bbv);
            assert_eq!(sa.filtered_insts, sb.filtered_insts);
        }
    }

    #[test]
    fn varying_policy_produces_mixed_slice_sizes() {
        let p = work_program(2, WaitPolicy::Passive, 6000);
        let pinball = Pinball::record(&p, 2, RecordConfig::default()).unwrap();
        let mut dcfg_b = DcfgBuilder::new(p.clone(), 2);
        pinball
            .replay(p.clone(), &mut [&mut dcfg_b], u64::MAX)
            .unwrap();
        let dcfg = dcfg_b.finish();
        let mut slicer = LoopAlignedSlicer::new(p.clone(), &dcfg, 2, 1000);
        slicer.set_policy(SlicePolicy::Varying);
        pinball
            .replay(p.clone(), &mut [&mut slicer], u64::MAX)
            .unwrap();
        let profile = slicer.finish();
        assert!(profile.slices.len() >= 6);
        let full: Vec<u64> = profile.slices[..profile.slices.len() - 1]
            .iter()
            .map(|s| s.filtered_insts)
            .collect();
        let min = *full.iter().min().unwrap();
        let max = *full.iter().max().unwrap();
        assert!(
            max as f64 / min as f64 >= 2.0,
            "varying policy yields at least 2x spread: {min}..{max}"
        );
        // Boundaries still share markers and account exactly.
        for w in profile.slices.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let sum: u64 = profile.slices.iter().map(|s| s.filtered_insts).sum();
        assert_eq!(sum, profile.total_filtered);
    }

    #[test]
    fn single_threaded_program_slices() {
        let mut pb = ProgramBuilder::new("st");
        let mut c = pb.main_code();
        c.li(Reg::R1, 0);
        c.counted_loop("l", Reg::R2, 5000, |c| {
            c.alui(AluOp::Add, Reg::R1, Reg::R1, 1);
        });
        c.halt();
        c.finish();
        let p = Arc::new(pb.finish());
        let (profile, _) = profile(&p, 1, 1000);
        assert!(profile.slices.len() > 3);
        assert_eq!(profile.nthreads, 1);
        assert!(profile.filter_ratio() < 1e-9, "no library code executed");
    }
}
