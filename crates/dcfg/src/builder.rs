//! Edge collection from the retirement stream.

use crate::graph::Dcfg;
use lp_isa::{CtrlKind, Pc, PcTable, Program, Retired};
use lp_pinball::ExecObserver;
use std::sync::Arc;

/// Classification of a recorded control-flow edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum EdgeKind {
    /// Branch (taken or fall-through) or jump: stays within a routine.
    Intra,
    /// Call edge (routine entry).
    Call,
    /// Return edge.
    Ret,
}

#[derive(Debug)]
pub(crate) struct EdgeData {
    pub from: Pc,
    pub to: Pc,
    pub kind: EdgeKind,
    /// Trip count per thread.
    pub counts: Vec<u64>,
}

/// Observer that accumulates a DCFG from retirements.
///
/// Feed it to [`lp_pinball::Pinball::replay`] or
/// [`lp_pinball::Pinball::record_with`], then call [`DcfgBuilder::finish`]:
/// edges are counted per thread, so the graph does not depend on how the
/// pass interleaved the threads.
///
/// ```
/// use lp_dcfg::DcfgBuilder;
/// use lp_isa::{ProgramBuilder, Reg, AluOp};
/// use lp_pinball::{Pinball, RecordConfig};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pb = ProgramBuilder::new("demo");
/// let mut c = pb.main_code();
/// let header = c.counted_loop("hot", Reg::R1, 25, |c| {
///     c.alui(AluOp::Add, Reg::R2, Reg::R2, 1);
/// });
/// c.halt();
/// c.finish();
/// let program = Arc::new(pb.finish());
///
/// let pinball = Pinball::record(&program, 1, RecordConfig::default())?;
/// let mut builder = DcfgBuilder::new(program.clone(), 1);
/// pinball.replay(program, &mut [&mut builder], u64::MAX)?;
/// let dcfg = builder.finish();
/// assert!(dcfg.is_loop_header(header));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DcfgBuilder {
    program: Arc<Program>,
    nthreads: usize,
    /// The observed edges out of each control-transfer PC (dense: probed
    /// once per retired control transfer). A branch has at most two
    /// targets and only indirect calls and returns can have more, so each
    /// list is scanned, not hashed.
    out_edges: PcTable<Vec<EdgeData>>,
    entry_pcs: Vec<Pc>,
}

impl DcfgBuilder {
    /// Creates a builder for executions of `program` with `nthreads`
    /// threads.
    pub fn new(program: Arc<Program>, nthreads: usize) -> Self {
        let mut entry_pcs = vec![program.entry_main()];
        if let Some(w) = program.entry_worker() {
            entry_pcs.push(w);
        }
        DcfgBuilder {
            out_edges: PcTable::new(&program),
            program,
            nthreads,
            entry_pcs,
        }
    }

    fn record(&mut self, tid: usize, from: Pc, to: Pc, kind: EdgeKind) {
        // Only a PC of the program can retire, so every edge has a slot.
        let Some(out) = self.out_edges.get_or_insert_with(from, Vec::new) else {
            return;
        };
        let i = out.iter().position(|e| e.to == to).unwrap_or_else(|| {
            out.push(EdgeData {
                from,
                to,
                kind,
                counts: vec![0; self.nthreads],
            });
            out.len() - 1
        });
        out[i].counts[tid] += 1;
    }

    /// Every recorded edge, in ascending `(from, to)` order — the one order
    /// [`Dcfg::build`] consumes them in, so the graph is a function of the
    /// edge set alone.
    fn sorted_edges(&mut self) -> Vec<EdgeData> {
        let mut edges = Vec::new();
        for (_, out) in self.out_edges.iter_mut() {
            out.sort_by_key(|e| e.to);
            edges.append(out);
        }
        edges
    }

    /// Finalizes the graph: derives non-overlapping basic blocks, splits
    /// routines at call edges, computes dominators, and identifies natural
    /// loops.
    pub fn finish(mut self) -> Dcfg {
        let edges = self.sorted_edges();
        Dcfg::build(self.program, self.entry_pcs, self.nthreads, &edges)
    }
}

impl ExecObserver for DcfgBuilder {
    fn on_retire(&mut self, r: &Retired) {
        let Some(ctrl) = r.ctrl else { return };
        let kind = match ctrl.kind {
            CtrlKind::CondTaken | CtrlKind::CondNotTaken | CtrlKind::Jump => EdgeKind::Intra,
            CtrlKind::Call => EdgeKind::Call,
            CtrlKind::Ret => EdgeKind::Ret,
        };
        self.record(r.tid, r.pc, ctrl.target, kind);
    }
}
