//! Basic-block derivation and the finished DCFG.

use crate::builder::{EdgeData, EdgeKind};
use crate::loops::{find_loops, LoopInfo, Routine};
use lp_isa::{ImageId, Inst, Pc, Program};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Index of a basic block within a [`Dcfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// A single-entry/single-exit, non-overlapping basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// The block's id.
    pub id: BlockId,
    /// First instruction (the block leader).
    pub leader: Pc,
    /// Number of instruction slots in the block.
    pub len: u32,
    /// Times control entered the block during the profiled execution.
    pub executions: u64,
}

/// A dynamic control-flow edge with its trip counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Source instruction (the control transfer).
    pub from: Pc,
    /// Destination instruction.
    pub to: Pc,
    /// Total trips across all threads.
    pub total: u64,
    /// Per-thread trip counts.
    pub per_thread: Vec<u64>,
}

/// The finished dynamic control-flow graph.
#[derive(Debug)]
pub struct Dcfg {
    program: Arc<Program>,
    blocks: Vec<BasicBlock>,
    /// Per image: sorted `(leader offset, block id)` for lookup.
    index: HashMap<ImageId, Vec<(u32, BlockId)>>,
    edges: Vec<Edge>,
    routines: Vec<Routine>,
    loops: Vec<LoopInfo>,
    loop_header_set: HashSet<Pc>,
}

impl Dcfg {
    /// Builds the graph of an `nthreads`-thread execution from its recorded
    /// edges, given in ascending `(from, to)` order.
    pub(crate) fn build(
        program: Arc<Program>,
        entries: Vec<Pc>,
        nthreads: usize,
        recorded: &[EdgeData],
    ) -> Dcfg {
        // ---- 1. leader set --------------------------------------------------
        let mut leaders: HashSet<Pc> = entries.iter().copied().collect();
        for &EdgeData { from, to, .. } in recorded {
            leaders.insert(to);
            // The fall-through successor of any control transfer starts a
            // block (even if only reached on the not-taken path).
            leaders.insert(from.next());
        }
        // Keep only leaders that name real instructions.
        leaders.retain(|pc| program.inst(*pc).is_some());

        // ---- 2. blocks ------------------------------------------------------
        let mut per_image: HashMap<ImageId, Vec<u32>> = HashMap::new();
        for pc in &leaders {
            per_image.entry(pc.image).or_default().push(pc.offset);
        }
        let mut blocks = Vec::new();
        let mut index: HashMap<ImageId, Vec<(u32, BlockId)>> = HashMap::new();
        let mut image_ids: Vec<ImageId> = per_image.keys().copied().collect();
        image_ids.sort();
        for image in image_ids {
            let mut offs = per_image.remove(&image).unwrap();
            offs.sort_unstable();
            offs.dedup();
            let img = program.image(image).expect("leader in known image");
            let mut idx_entries = Vec::with_capacity(offs.len());
            for (i, &off) in offs.iter().enumerate() {
                let next_leader = offs.get(i + 1).copied().unwrap_or(img.len() as u32);
                // The block ends at the first control transfer or halt, or
                // just before the next leader.
                let mut end = next_leader;
                for o in off..next_leader {
                    match img.inst(o) {
                        Some(inst) if inst.is_control() || matches!(inst, Inst::Halt) => {
                            end = o + 1;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            end = o;
                            break;
                        }
                    }
                }
                let id = BlockId(blocks.len() as u32);
                blocks.push(BasicBlock {
                    id,
                    leader: Pc::new(image, off),
                    len: end.saturating_sub(off).max(1),
                    executions: 0,
                });
                idx_entries.push((off, id));
            }
            index.insert(image, idx_entries);
        }

        // ---- 3. edge list and execution counts ------------------------------
        let edges: Vec<Edge> = recorded
            .iter()
            .map(|data| Edge {
                from: data.from,
                to: data.to,
                total: data.counts.iter().sum(),
                per_thread: data.counts.clone(),
            })
            .collect();

        fn lookup_in(
            index: &HashMap<ImageId, Vec<(u32, BlockId)>>,
            blocks: &[BasicBlock],
            pc: Pc,
        ) -> Option<BlockId> {
            let v = index.get(&pc.image)?;
            let i = v.partition_point(|&(off, _)| off <= pc.offset);
            if i == 0 {
                return None;
            }
            let (off, id) = v[i - 1];
            let b = &blocks[id.0 as usize];
            (pc.offset < off + b.len).then_some(id)
        }
        let lookup = |pc: Pc| lookup_in(&index, &blocks, pc);

        // Dynamic entries via recorded edges.
        let mut exec: HashMap<BlockId, u64> = HashMap::new();
        for e in &edges {
            if let Some(b) = lookup(e.to) {
                *exec.entry(b).or_default() += e.total;
            }
        }
        for entry in &entries {
            if let Some(b) = lookup(*entry) {
                // Main entry runs once; worker entry once per extra thread.
                let times = if Some(*entry) == program.entry_worker() {
                    (nthreads.saturating_sub(1)) as u64
                } else {
                    1
                };
                *exec.entry(b).or_default() += times;
            }
        }
        // Implicit straight-line fall-through: a block that ends without a
        // control transfer flows into the next block.
        let mut implicit: Vec<(Pc, Pc)> = Vec::new();
        for image_blocks in index.values() {
            for window in image_blocks.windows(2) {
                let (_, a_id) = window[0];
                let (next_off, b_id) = window[1];
                let a = &blocks[a_id.0 as usize];
                let last = Pc::new(a.leader.image, a.leader.offset + a.len - 1);
                let ends_with_ctrl = program
                    .inst(last)
                    .map(|i| i.is_control() || matches!(i, Inst::Halt))
                    .unwrap_or(true);
                if !ends_with_ctrl && a.leader.offset + a.len == next_off {
                    implicit.push((a.leader, blocks[b_id.0 as usize].leader));
                }
            }
        }
        // Propagate executions along implicit chains (per image, ascending
        // offsets, so predecessors are final before successors).
        for (from, to) in &implicit {
            let from_id = lookup(*from).expect("implicit edge from known block");
            let count = exec.get(&from_id).copied().unwrap_or(0);
            if count > 0 {
                let to_id = lookup(*to).expect("implicit edge to known block");
                *exec.entry(to_id).or_default() += count;
            }
        }
        for b in &mut blocks {
            b.executions = exec.get(&b.id).copied().unwrap_or(0);
        }

        // ---- 4. routines, dominators, loops ---------------------------------
        let mut intra: Vec<(BlockId, BlockId, u64)> = Vec::new();
        let mut routine_entries: HashSet<BlockId> = HashSet::new();
        for entry in &entries {
            if let Some(b) = lookup_in(&index, &blocks, *entry) {
                routine_entries.insert(b);
            }
        }
        // In `(from, to)` order: `find_loops` walks successors in the
        // order given and writes its visit order into `Routine::blocks`.
        for data in recorded {
            let (Some(fb), Some(tb)) = (
                lookup_in(&index, &blocks, data.from),
                lookup_in(&index, &blocks, data.to),
            ) else {
                continue;
            };
            match data.kind {
                EdgeKind::Intra => intra.push((fb, tb, data.counts.iter().sum())),
                EdgeKind::Call => {
                    routine_entries.insert(tb);
                    // Within the caller, a call is a straight-line step to
                    // its return point: connect the call block to the
                    // fall-through block so caller loops spanning calls
                    // stay intact.
                    if let Some(ret_b) = lookup_in(&index, &blocks, data.from.next()) {
                        intra.push((fb, ret_b, data.counts.iter().sum()));
                    }
                }
                EdgeKind::Ret => {}
            }
        }
        for (from, to) in &implicit {
            let (Some(fb), Some(tb)) = (
                lookup_in(&index, &blocks, *from),
                lookup_in(&index, &blocks, *to),
            ) else {
                continue;
            };
            let count = exec.get(&fb).copied().unwrap_or(0);
            intra.push((fb, tb, count));
        }

        let (routines, loops) = find_loops(&blocks, &intra, &routine_entries);
        let loop_header_set = loops.iter().map(|l| l.header).collect();

        Dcfg {
            program,
            blocks,
            index,
            edges,
            routines,
            loops,
            loop_header_set,
        }
    }

    /// Reassembles a graph from its serialized components, rebuilding the
    /// derived lookup structures (the per-image leader index and the
    /// loop-header set).
    ///
    /// This exists for the artifact store: a cached analysis persists the
    /// blocks/edges/routines/loops (all plain data with public fields) and
    /// reconstructs the `Dcfg` *without replaying the pinball*. The caller
    /// is responsible for pairing the parts with the same program they were
    /// profiled from (the store's content-addressed key guarantees this).
    pub fn from_raw_parts(
        program: Arc<Program>,
        blocks: Vec<BasicBlock>,
        edges: Vec<Edge>,
        routines: Vec<Routine>,
        loops: Vec<LoopInfo>,
    ) -> Dcfg {
        let mut index: HashMap<ImageId, Vec<(u32, BlockId)>> = HashMap::new();
        for b in &blocks {
            index
                .entry(b.leader.image)
                .or_default()
                .push((b.leader.offset, b.id));
        }
        for v in index.values_mut() {
            v.sort_unstable();
        }
        let loop_header_set = loops.iter().map(|l| l.header).collect();
        Dcfg {
            program,
            blocks,
            index,
            edges,
            routines,
            loops,
            loop_header_set,
        }
    }

    /// The program this graph was profiled from.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// All basic blocks.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// All recorded dynamic edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Routines discovered from call edges.
    pub fn routines(&self) -> &[Routine] {
        &self.routines
    }

    /// Natural loops discovered from back edges.
    pub fn loops(&self) -> &[LoopInfo] {
        &self.loops
    }

    /// The basic block containing `pc`, if one was derived there.
    pub fn block_of(&self, pc: Pc) -> Option<BlockId> {
        let v = self.index.get(&pc.image)?;
        let i = v.partition_point(|&(off, _)| off <= pc.offset);
        if i == 0 {
            return None;
        }
        let (off, id) = v[i - 1];
        let b = &self.blocks[id.0 as usize];
        (pc.offset < off + b.len).then_some(id)
    }

    /// A block by id.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0 as usize]
    }

    /// Whether `pc` is the header (entry) of an identified natural loop.
    pub fn is_loop_header(&self, pc: Pc) -> bool {
        self.loop_header_set.contains(&pc)
    }

    /// All loop-header PCs.
    pub fn loop_headers(&self) -> impl Iterator<Item = Pc> + '_ {
        self.loops.iter().map(|l| l.header)
    }

    /// Loop-header PCs in the main image only — the paper's legal slice
    /// boundaries (library loops are assumed to be synchronization).
    pub fn main_image_loop_headers(&self) -> Vec<Pc> {
        let mut v: Vec<Pc> = self
            .loops
            .iter()
            .map(|l| l.header)
            .filter(|pc| !self.program.is_library_pc(*pc))
            .collect();
        v.sort();
        v.dedup();
        v
    }
}
