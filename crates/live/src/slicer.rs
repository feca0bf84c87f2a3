//! Streaming, single-pass region slicing — the live-mode profiler.
//!
//! The two-phase pipeline replays a recorded pinball to discover loop
//! headers (via the DCFG) and then replays it *again* to slice. Live mode
//! has neither a recording nor a DCFG: the [`StreamingSlicer`] rides the
//! one functional execution (through the simulator's per-retire hook),
//! discovering loop headers on the fly — the target of any backward taken
//! conditional branch in the main image is a loop entry — and closing a
//! region at the next known header once the filtered-instruction target
//! is met.

use lp_bbv::SparseVec;
use lp_isa::{CtrlKind, Marker, Pc, PcTable, Program, Retired};
use std::collections::HashMap;
use std::sync::Arc;

/// One region produced by the streaming slicer.
#[derive(Debug, Clone)]
pub struct LiveRegion {
    /// Region index in execution order.
    pub index: usize,
    /// Start boundary; `None` for the first region (program start).
    pub start: Option<Marker>,
    /// End boundary; `None` for the final region (program end).
    pub end: Option<Marker>,
    /// Concatenated per-thread BBV (spin-filtered, one count per retired
    /// main-image instruction, keyed by the entry PC of its basic block).
    pub bbv: SparseVec,
    /// Spin-filtered (main-image) instructions in the region.
    pub filtered_insts: u64,
    /// All instructions in the region (including library/spin code).
    pub total_insts: u64,
}

/// Online loop-aligned slicer: feature vectors emerge at region boundaries
/// of the *first and only* execution, with no profiling prequel.
///
/// Differences from the two-phase [`lp_bbv::LoopAlignedSlicer`], both
/// forced by the single pass:
///
/// * **Header discovery is online.** A PC becomes a known loop header the
///   first time a backward taken conditional branch targets it; its
///   execution count starts there. Boundary markers therefore use counts
///   that undercount at most the executions before discovery — a re-run
///   from a snapshot taken *after* discovery sees identical deltas.
/// * **The boundary instruction belongs to the region it ends.** The
///   simulator's retire hook stops the segment *at* the triggering
///   instruction (marker semantics), so a detailed re-run bounded by
///   `(start, end]` markers executes exactly what this slicer accounted.
#[derive(Debug)]
pub struct StreamingSlicer {
    program: Arc<Program>,
    slice_target: u64,
    /// Discovered main-image loop headers and their execution counts
    /// (counted from the moment of discovery).
    header_counts: PcTable<u64>,
    /// Per-thread flag: the next retirement enters a new basic block.
    entering_block: Vec<bool>,
    /// Per-thread entry PC of the basic block currently executing.
    cur_block: Vec<Pc>,
    /// The open region's BBV: per block-entry PC, one counter per thread.
    /// Dense like `header_counts`, because it is bumped once per retired
    /// main-image instruction; counters are zeroed, not freed, at region
    /// boundaries.
    cur_bbv: PcTable<Box<[u64]>>,
    cur_filtered: u64,
    cur_total: u64,
    cur_start: Option<Marker>,
    regions_emitted: usize,
    pending: Option<LiveRegion>,
    total_filtered: u64,
    total_insts: u64,
}

/// Encodes a `(thread, block-entry PC)` pair as a BBV dimension. Only
/// main-image PCs are accumulated (the spin filter), and the main image
/// is a single image, so the instruction offset identifies the block.
fn dim(tid: usize, pc: Pc) -> u64 {
    ((tid as u64) << 32) | u64::from(pc.offset)
}

impl StreamingSlicer {
    /// Creates a streaming slicer. `slice_base` is the per-thread region
    /// size; the global target is `slice_base × nthreads` filtered
    /// instructions, exactly as in the two-phase profiler.
    pub fn new(program: Arc<Program>, nthreads: usize, slice_base: u64) -> Self {
        assert!(slice_base > 0);
        assert!(nthreads > 0);
        StreamingSlicer {
            slice_target: slice_base * nthreads as u64,
            header_counts: PcTable::new(&program),
            entering_block: vec![true; nthreads],
            cur_block: vec![Pc::INVALID; nthreads],
            cur_bbv: PcTable::new(&program),
            program,
            cur_filtered: 0,
            cur_total: 0,
            cur_start: None,
            regions_emitted: 0,
            pending: None,
            total_filtered: 0,
            total_insts: 0,
        }
    }

    /// Observes one retired instruction. Returns `true` when the
    /// instruction closed a region — the caller should stop the current
    /// simulation segment and collect it via [`StreamingSlicer::take_region`].
    pub fn on_retire(&mut self, r: &Retired) -> bool {
        if !self.program.is_library_pc(r.pc) {
            // Spin-filtered accounting: one count per retired main-image
            // instruction, charged to the entry PC of its basic block
            // (equivalent to block entries × block length).
            if self.entering_block[r.tid] {
                self.cur_block[r.tid] = r.pc;
            }
            let nthreads = self.cur_block.len();
            if let Some(per_thread) = self
                .cur_bbv
                .get_or_insert_with(self.cur_block[r.tid], || vec![0; nthreads].into())
            {
                per_thread[r.tid] += 1;
            }
            self.cur_filtered += 1;
            self.total_filtered += 1;

            // Online header discovery: a backward taken conditional branch
            // names its target as a loop entry.
            if let Some(ctrl) = r.ctrl {
                if ctrl.kind == CtrlKind::CondTaken
                    && ctrl.target.image == r.pc.image
                    && ctrl.target.offset <= r.pc.offset
                {
                    self.header_counts.get_or_insert_with(ctrl.target, || 0);
                }
            }

            // Boundary: a known header retiring once the target is met
            // ends the region *including this instruction* (the marker
            // occurrence belongs to the segment it terminates).
            if let Some(count) = self.header_counts.get_mut(r.pc) {
                *count += 1;
                if self.cur_filtered >= self.slice_target {
                    let marker = Marker::new(r.pc, *count);
                    self.cur_total += 1;
                    self.total_insts += 1;
                    self.entering_block[r.tid] = r.ctrl.is_some();
                    self.close_region(Some(marker));
                    return true;
                }
            }
        }
        self.cur_total += 1;
        self.total_insts += 1;
        // A control-flow transfer ends the basic block: the thread's next
        // retirement names a new block-entry PC.
        self.entering_block[r.tid] = r.ctrl.is_some();
        false
    }

    fn close_region(&mut self, end: Option<Marker>) {
        let mut bbv_map: HashMap<u64, u64> = HashMap::new();
        for (pc, per_thread) in self.cur_bbv.iter_mut() {
            for (tid, count) in per_thread.iter_mut().enumerate() {
                if *count > 0 {
                    *bbv_map.entry(dim(tid, pc)).or_default() += std::mem::take(count);
                }
            }
        }
        self.pending = Some(LiveRegion {
            index: self.regions_emitted,
            start: self.cur_start,
            end,
            bbv: SparseVec::from_map(&bbv_map),
            filtered_insts: self.cur_filtered,
            total_insts: self.cur_total,
        });
        self.regions_emitted += 1;
        self.cur_filtered = 0;
        self.cur_total = 0;
        self.cur_start = end;
    }

    /// Collects the region closed by the last boundary, if any.
    pub fn take_region(&mut self) -> Option<LiveRegion> {
        self.pending.take()
    }

    /// Closes the trailing partial region at program end. Returns `None`
    /// when nothing retired since the last boundary (and at least one
    /// region was already emitted).
    pub fn finish_region(&mut self) -> Option<LiveRegion> {
        if self.cur_total > 0 || self.regions_emitted == 0 {
            self.close_region(None);
            self.pending.take()
        } else {
            None
        }
    }

    /// Discovered loop headers and their current global execution counts.
    /// Cloned alongside machine snapshots so a re-run can seed its marker
    /// watch counts with the values at the snapshot.
    pub fn header_counts(&self) -> &PcTable<u64> {
        &self.header_counts
    }

    /// Regions emitted so far (boundaries crossed plus the final close).
    pub fn regions_emitted(&self) -> usize {
        self.regions_emitted
    }

    /// Total spin-filtered instructions observed.
    pub fn total_filtered(&self) -> u64 {
        self.total_filtered
    }

    /// Total instructions observed.
    pub fn total_insts(&self) -> u64 {
        self.total_insts
    }

    /// The global filtered-instruction target per region.
    pub fn slice_target(&self) -> u64 {
        self.slice_target
    }
}
