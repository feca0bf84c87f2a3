//! The per-instruction observers keep their per-PC state in dense
//! [`lp_isa::PcTable`]s. These tests pin their outputs, byte for byte, to
//! straightforward `HashMap<Pc, _>` reference models (the implementations
//! the tables replaced) on the `testutil` programs — and the DCFG that
//! rides the recording to the one a replay builds.

use crate::testutil::{contended_program, phased_program};
use lp_bbv::{LoopAlignedSlicer, SlicePolicy, SparseVec};
use lp_dcfg::{Dcfg, DcfgBuilder};
use lp_isa::{CtrlKind, Inst, MachineState, Marker, Pc, Program, Retired};
use lp_live::StreamingSlicer;
use lp_omp::WaitPolicy;
use lp_pinball::{ExecObserver, FnObserver, Pinball, RecordConfig};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

fn programs() -> Vec<(Arc<Program>, usize)> {
    vec![
        (contended_program(4), 4),
        (phased_program(4, WaitPolicy::Passive, 3), 4),
        (phased_program(3, WaitPolicy::Active, 2), 3),
    ]
}

fn record(program: &Arc<Program>, nthreads: usize) -> (Pinball, Dcfg) {
    let pinball = Pinball::record(program, nthreads, RecordConfig::default()).unwrap();
    let mut builder = DcfgBuilder::new(program.clone(), nthreads);
    pinball
        .replay(program.clone(), &mut [&mut builder], u64::MAX)
        .unwrap();
    (pinball, builder.finish())
}

fn state_bytes(s: &MachineState) -> Vec<u8> {
    let mut buf = Vec::new();
    s.write_to(&mut buf).unwrap();
    buf
}

/// `DcfgBuilder`'s edge collection with the `HashMap<(Pc, Pc), _>` it used
/// to keep: per-thread trip counts of every control transfer.
struct HashEdges {
    nthreads: usize,
    edges: HashMap<(Pc, Pc), Vec<u64>>,
}

impl ExecObserver for HashEdges {
    fn on_retire(&mut self, r: &Retired) {
        if let Some(ctrl) = r.ctrl {
            let counts = self.edges.entry((r.pc, ctrl.target));
            counts.or_insert_with(|| vec![0; self.nthreads])[r.tid] += 1;
        }
    }
}

/// Whether `pc` holds an instruction that ends a basic block.
fn ends_block(program: &Program, pc: Pc) -> bool {
    program
        .inst(pc)
        .is_none_or(|i| i.is_control() || matches!(i, Inst::Halt))
}

#[test]
fn dcfg_builder_matches_hashmap_model() {
    for (program, nthreads) in programs() {
        let pinball = Pinball::record(&program, nthreads, RecordConfig::default()).unwrap();
        let mut real = DcfgBuilder::new(program.clone(), nthreads);
        let mut model = HashEdges {
            nthreads,
            edges: HashMap::new(),
        };
        pinball
            .replay(program.clone(), &mut [&mut real, &mut model], u64::MAX)
            .unwrap();
        let dcfg = real.finish();

        // Edges: the map, in key order.
        let mut want: Vec<(Pc, Pc, Vec<u64>)> = model
            .edges
            .iter()
            .map(|(&(from, to), counts)| (from, to, counts.clone()))
            .collect();
        want.sort_unstable();
        assert!(
            want.len() > 10,
            "{}: the model must see edges",
            program.name()
        );
        let got: Vec<(Pc, Pc, Vec<u64>)> = dcfg
            .edges()
            .iter()
            .map(|e| (e.from, e.to, e.per_thread.clone()))
            .collect();
        assert_eq!(got, want, "{}", program.name());

        // Blocks: one per leader (an entry, an edge target, the slot after
        // a control transfer), numbered in PC order, running to the first
        // block-ending instruction or the next leader.
        let entries = [Some(program.entry_main()), program.entry_worker()];
        let leaders: BTreeSet<Pc> = want
            .iter()
            .flat_map(|&(from, to, _)| [to, from.next()])
            .chain(entries.into_iter().flatten())
            .filter(|&pc| program.inst(pc).is_some())
            .collect();
        let got: Vec<Pc> = dcfg.blocks().iter().map(|b| b.leader).collect();
        assert_eq!(got, leaders.iter().copied().collect::<Vec<Pc>>());
        for (i, b) in dcfg.blocks().iter().enumerate() {
            assert_eq!(b.id.0 as usize, i);
            let mut last = b.leader;
            while !ends_block(&program, last) && !leaders.contains(&last.next()) {
                last = last.next();
            }
            assert_eq!(b.len, last.offset - b.leader.offset + 1, "{}", b.leader);
        }

        // Loops: headers are the targets of the backward branches that
        // executed; a loop iterates as often as its header block is
        // entered, and its back edges are the recorded edges from its body
        // into its header.
        let backward: BTreeSet<Pc> = want
            .iter()
            .filter(|(from, to, _)| {
                let branch = matches!(
                    program.inst(*from),
                    Some(Inst::Branch { .. } | Inst::Jump { .. })
                );
                branch && to.image == from.image && to.offset <= from.offset
            })
            .map(|&(_, to, _)| to)
            .collect();
        let headers: BTreeSet<Pc> = dcfg.loop_headers().collect();
        assert_eq!(headers, backward, "{}", program.name());
        assert_eq!(headers.len(), dcfg.loops().len());
        for l in dcfg.loops() {
            assert!(dcfg.is_loop_header(l.header));
            assert_eq!(dcfg.block(l.header_block).leader, l.header);
            assert_eq!(l.iterations, dcfg.block(l.header_block).executions);
            let trips: u64 = dcfg
                .edges()
                .iter()
                .filter(|e| e.to == l.header)
                .filter(|e| dcfg.block_of(e.from).is_some_and(|b| l.blocks.contains(&b)))
                .map(|e| e.total)
                .sum();
            assert_eq!(l.back_edge_trips, trips, "{}", l.header);
        }
    }
}

/// The DCFG may ride the recording because its edge counts are per thread:
/// a recording and its replay hand every thread the same stream, but they
/// interleave the threads differently — whenever there is more than one.
#[test]
fn dcfg_on_the_recording_is_the_dcfg_on_a_replay() {
    let mut cases = Vec::new();
    for nthreads in [1, 2, 4, 8] {
        cases.push((contended_program(nthreads), nthreads));
        for policy in [WaitPolicy::Passive, WaitPolicy::Active] {
            cases.push((phased_program(nthreads, policy, 2), nthreads));
        }
    }
    for (program, nthreads) in cases {
        // Per pass: the DCFG's encoding, one hash per thread of that
        // thread's own stream, and a hash of the global retirement order.
        let observe = |pass: &mut dyn FnMut(&mut [&mut dyn ExecObserver])| {
            let mut builder = DcfgBuilder::new(program.clone(), nthreads);
            // `DefaultHasher::new()` is keyed with constants: hashes of
            // equal streams are equal.
            let mut order = DefaultHasher::new();
            let mut per_thread = vec![DefaultHasher::new(); nthreads];
            let mut hasher = FnObserver(|r: &Retired| {
                (r.tid, r.pc).hash(&mut order);
                (r.pc, r.next_pc).hash(&mut per_thread[r.tid]);
            });
            pass(&mut [&mut builder, &mut hasher]);
            let meta = crate::persist::encode_analysis_meta(&builder.finish(), &[]);
            let per_thread: Vec<u64> = per_thread.iter().map(Hasher::finish).collect();
            (meta, per_thread, order.finish())
        };
        let mut pinball = None;
        let (recorded, record_threads, record_order) = observe(&mut |observers| {
            let cfg = RecordConfig::default();
            pinball = Some(Pinball::record_with(&program, nthreads, cfg, observers).unwrap());
        });
        let pinball = pinball.expect("the pass ran");
        let (replayed, replay_threads, replay_order) = observe(&mut |observers| {
            pinball
                .replay(program.clone(), observers, u64::MAX)
                .unwrap();
        });
        let what = format!("{} on {nthreads} threads", program.name());
        assert_eq!(recorded, replayed, "{what}");
        assert_eq!(record_threads, replay_threads, "{what}");
        assert_eq!(record_order == replay_order, nthreads == 1, "{what}");
    }
}

/// One closed slice or region, in comparable form.
#[derive(Debug, PartialEq)]
struct Closed {
    start: Option<Marker>,
    end: Option<Marker>,
    bbv: SparseVec,
    filtered: u64,
    total: u64,
    per_thread: Vec<u64>,
}

impl Closed {
    /// An empty slice or region opening at `start`.
    fn open(start: Option<Marker>, nthreads: usize) -> Closed {
        Closed {
            start,
            end: None,
            bbv: SparseVec::from_map(&HashMap::new()),
            filtered: 0,
            total: 0,
            per_thread: vec![0; nthreads],
        }
    }
}

/// `LoopAlignedSlicer` with `HashMap<Pc, u64>` header counts.
struct HashLoopSlicer<'d> {
    program: Arc<Program>,
    dcfg: &'d Dcfg,
    target: u64,
    base: u64,
    policy: SlicePolicy,
    filter_spin: bool,
    header_counts: HashMap<Pc, u64>,
    entering_block: Vec<bool>,
    cur_bbv: HashMap<u64, u64>,
    cur: Closed,
    slices: Vec<Closed>,
}

impl<'d> HashLoopSlicer<'d> {
    fn new(program: Arc<Program>, dcfg: &'d Dcfg, nthreads: usize, slice_base: u64) -> Self {
        HashLoopSlicer {
            program,
            dcfg,
            target: slice_base * nthreads as u64,
            base: slice_base * nthreads as u64,
            policy: SlicePolicy::Fixed,
            filter_spin: true,
            header_counts: dcfg
                .main_image_loop_headers()
                .into_iter()
                .map(|pc| (pc, 0))
                .collect(),
            entering_block: vec![true; nthreads],
            cur_bbv: HashMap::new(),
            cur: Closed::open(None, nthreads),
            slices: Vec::new(),
        }
    }

    fn close(&mut self, end: Option<Marker>) {
        let next = Closed::open(end, self.entering_block.len());
        let mut done = std::mem::replace(&mut self.cur, next);
        done.end = end;
        done.bbv = SparseVec::from_map(&self.cur_bbv);
        self.cur_bbv.clear();
        self.slices.push(done);
        if self.policy == SlicePolicy::Varying {
            self.target = match self.slices.len() % 3 {
                0 => self.base / 2,
                1 => self.base,
                _ => self.base * 2,
            }
            .max(1);
        }
    }

    fn finish(mut self) -> Vec<Closed> {
        if self.cur.total > 0 || self.slices.is_empty() {
            self.close(None);
        }
        self.slices
    }
}

impl ExecObserver for HashLoopSlicer<'_> {
    fn on_retire(&mut self, r: &Retired) {
        if !self.filter_spin || !self.program.is_library_pc(r.pc) {
            if let Some(count) = self.header_counts.get_mut(&r.pc) {
                *count += 1;
                if self.cur.filtered >= self.target {
                    let marker = Marker::new(r.pc, *count);
                    self.close(Some(marker));
                }
            }
            self.cur.filtered += 1;
            self.cur.per_thread[r.tid] += 1;
            if self.entering_block[r.tid] {
                if let Some(b) = self.dcfg.block_of(r.pc) {
                    let len = u64::from(self.dcfg.block(b).len);
                    let dim = ((r.tid as u64) << 32) | u64::from(b.0);
                    *self.cur_bbv.entry(dim).or_default() += len;
                }
            }
        }
        self.cur.total += 1;
        self.entering_block[r.tid] = r.ctrl.is_some();
    }
}

#[test]
fn loop_aligned_slicer_matches_hashmap_model() {
    for (program, nthreads) in programs() {
        let (pinball, dcfg) = record(&program, nthreads);
        for (policy, filter_spin) in [
            (SlicePolicy::Fixed, true),
            (SlicePolicy::Varying, true),
            (SlicePolicy::Fixed, false),
        ] {
            let mut real = LoopAlignedSlicer::new(program.clone(), &dcfg, nthreads, 300);
            real.set_policy(policy);
            real.set_spin_filter(filter_spin);
            let mut model = HashLoopSlicer::new(program.clone(), &dcfg, nthreads, 300);
            model.policy = policy;
            model.filter_spin = filter_spin;
            pinball
                .replay(program.clone(), &mut [&mut real, &mut model], u64::MAX)
                .unwrap();
            let profile = real.finish();
            let got: Vec<Closed> = profile
                .slices
                .into_iter()
                .map(|s| Closed {
                    start: s.start,
                    end: s.end,
                    bbv: s.bbv,
                    filtered: s.filtered_insts,
                    total: s.total_insts,
                    per_thread: s.per_thread_insts,
                })
                .collect();
            let want = model.finish();
            assert!(want.len() > 2, "{}: the model must slice", program.name());
            assert_eq!(got, want, "{} {policy:?} {filter_spin}", program.name());
            assert_eq!(
                profile.total_filtered,
                want.iter().map(|s| s.filtered).sum::<u64>()
            );
        }
    }
}

/// `StreamingSlicer` with `HashMap` header counts and BBV accumulation.
struct HashStreamingSlicer {
    program: Arc<Program>,
    target: u64,
    header_counts: HashMap<Pc, u64>,
    entering_block: Vec<bool>,
    cur_block: Vec<u64>,
    cur_bbv: HashMap<u64, u64>,
    cur: Closed,
}

impl HashStreamingSlicer {
    fn on_retire(&mut self, r: &Retired) -> Option<Closed> {
        let mut closed = None;
        if !self.program.is_library_pc(r.pc) {
            if self.entering_block[r.tid] {
                self.cur_block[r.tid] = ((r.tid as u64) << 32) | u64::from(r.pc.offset);
            }
            *self.cur_bbv.entry(self.cur_block[r.tid]).or_default() += 1;
            self.cur.filtered += 1;
            if let Some(ctrl) = r.ctrl {
                if ctrl.kind == CtrlKind::CondTaken
                    && ctrl.target.image == r.pc.image
                    && ctrl.target.offset <= r.pc.offset
                {
                    self.header_counts.entry(ctrl.target).or_insert(0);
                }
            }
            if let Some(count) = self.header_counts.get_mut(&r.pc) {
                *count += 1;
                if self.cur.filtered >= self.target {
                    let marker = Marker::new(r.pc, *count);
                    self.cur.total += 1;
                    closed = Some(self.close(Some(marker)));
                }
            }
        }
        if closed.is_none() {
            self.cur.total += 1;
        }
        self.entering_block[r.tid] = r.ctrl.is_some();
        closed
    }

    fn close(&mut self, end: Option<Marker>) -> Closed {
        let bbv = SparseVec::from_map(&std::mem::take(&mut self.cur_bbv));
        let mut done = std::mem::replace(&mut self.cur, Closed::open(end, 0));
        done.end = end;
        done.bbv = bbv;
        done
    }
}

#[test]
fn streaming_slicer_matches_hashmap_model() {
    for (program, nthreads) in programs() {
        let (pinball, _) = record(&program, nthreads);
        let mut real = StreamingSlicer::new(program.clone(), nthreads, 300);
        let mut model = HashStreamingSlicer {
            program: program.clone(),
            target: 300 * nthreads as u64,
            header_counts: HashMap::new(),
            entering_block: vec![true; nthreads],
            cur_block: vec![0; nthreads],
            cur_bbv: HashMap::new(),
            cur: Closed::open(None, 0),
        };
        let mut regions = 0usize;
        let as_closed = |r: lp_live::LiveRegion| Closed {
            start: r.start,
            end: r.end,
            bbv: r.bbv,
            filtered: r.filtered_insts,
            total: r.total_insts,
            per_thread: Vec::new(),
        };
        pinball
            .replayer(program.clone())
            .drive(|r, _| {
                let closed = real.on_retire(r);
                let want = model.on_retire(r);
                assert_eq!(closed, want.is_some(), "boundary at seq {}", r.global_seq);
                if let Some(want) = want {
                    let got = real.take_region().expect("a closed region is pending");
                    assert_eq!(got.index, regions);
                    assert_eq!(as_closed(got), want);
                    // The view `core::live` snapshots at every boundary
                    // (the table iterates in ascending PC order).
                    let view: Vec<(Pc, u64)> = real
                        .header_counts()
                        .iter()
                        .map(|(pc, &n)| (pc, n))
                        .collect();
                    let mut want_view: Vec<(Pc, u64)> =
                        model.header_counts.clone().into_iter().collect();
                    want_view.sort_unstable();
                    assert_eq!(view, want_view);
                    regions += 1;
                }
                false
            })
            .unwrap();
        assert!(regions > 2, "{}: the model must slice", program.name());
        let tail = real.finish_region().map(as_closed);
        let want_tail = (model.cur.total > 0).then(|| model.close(None));
        assert_eq!(tail, want_tail);
    }
}

/// The per-marker checkpoint loop `checkpoints_at` replaced: one replay,
/// `HashMap` watch counts, snapshot at the marker.
fn hash_checkpoint(
    pinball: &Pinball,
    program: &Arc<Program>,
    marker: Marker,
    watch: &[Pc],
) -> Option<(MachineState, usize, u64, HashMap<Pc, u64>)> {
    let mut rep = pinball.replayer(program.clone());
    let mut counts: HashMap<Pc, u64> = watch.iter().map(|&pc| (pc, 0)).collect();
    let (mut seen, mut instructions) = (0u64, 0u64);
    while let Some(r) = rep.step().unwrap() {
        instructions += 1;
        if let Some(c) = counts.get_mut(&r.pc) {
            *c += 1;
        }
        if r.pc == marker.pc {
            seen += 1;
            if seen == marker.count {
                let (state, event_start) = rep.snapshot();
                return Some((state, event_start, instructions, counts));
            }
        }
    }
    None
}

#[test]
fn checkpoints_at_matches_hashmap_model() {
    for (program, nthreads) in programs() {
        let (pinball, dcfg) = record(&program, nthreads);
        let headers = dcfg.main_image_loop_headers();
        let (first, last) = (headers[0], headers[headers.len() - 1]);
        // Unsorted, with a duplicate, a marker at program start, and watch
        // PCs that are markers, non-markers and outside the program.
        let markers = [
            Marker::new(last, 5),
            Marker::new(first, 2),
            Marker::new(program.entry_main(), 1),
            Marker::new(last, 5),
            Marker::new(first, 1),
        ];
        let watch = [first, program.entry_main().next(), Pc::INVALID, last];
        let batch = pinball
            .checkpoints_at(program.clone(), &markers, &watch)
            .unwrap();
        assert_eq!(batch.len(), markers.len());
        for (marker, (ckpt, counts)) in markers.iter().zip(&batch) {
            let (state, event_start, instructions, want_counts) =
                hash_checkpoint(&pinball, &program, *marker, &watch).expect("marker is reached");
            assert_eq!(ckpt.marker(), *marker);
            assert_eq!(ckpt.name(), format!("{}@{}", pinball.name(), marker));
            assert_eq!(ckpt.event_start(), event_start);
            assert_eq!(ckpt.instructions_before(), instructions);
            assert_eq!(state_bytes(ckpt.state()), state_bytes(&state), "{marker}");
            assert_eq!(counts, &want_counts, "{marker}");
            assert_eq!(counts[&Pc::INVALID], 0);
        }
    }
}

/// A `CallInd` through a garbage register retires (its target is only
/// fetched by the next step), so observers see a wild `next_pc` before the
/// machine faults. The tables must shrug it off: the run ends in
/// `MachineError::InvalidPc`, not in an index panic.
#[test]
fn wild_indirect_call_faults_the_machine_not_the_tables() {
    use lp_isa::{AluOp, ImageId, Inst, InstClass, MachineError, ProgramBuilder, Reg};
    use lp_sim::{Mode, SimError, Simulator};

    let wild = Pc::new(ImageId(0x7fff), 0xdead_beef);
    let mut pb = ProgramBuilder::new("wild");
    let mut c = pb.main_code();
    c.counted_loop("l", Reg::R1, 50, |c| {
        c.alui(AluOp::Add, Reg::R2, Reg::R2, 1);
    });
    c.li(Reg::R5, wild.to_word() as i64);
    c.call_ind(Reg::R5);
    c.halt();
    c.finish();
    let program = Arc::new(pb.finish());

    let mut slicer = StreamingSlicer::new(program.clone(), 1, 10);
    let mut sim = Simulator::new(program.clone(), 1, lp_uarch::SimConfig::gainestown(1));
    let mut last_next_pc = Pc::INVALID;
    let err = sim
        .run_with(Mode::FastForward, None, u64::MAX, &mut |r| {
            last_next_pc = r.next_pc;
            if slicer.on_retire(r) {
                slicer.take_region();
            }
            false
        })
        .unwrap_err();
    assert_eq!(last_next_pc, wild, "the wild call itself retired");
    assert!(
        matches!(err, SimError::Machine(MachineError::InvalidPc { pc, .. }) if pc == wild),
        "{err}"
    );
    assert!(slicer.regions_emitted() > 1);
    let headers = slicer.header_counts().iter().count();
    assert_eq!(headers, 1, "the one loop header was discovered");

    // Records no machine would produce — wild PCs retiring, a backward
    // branch to an offset past the image's end — never panic a slicer or
    // grow its tables.
    let (pinball, dcfg) = record(&contended_program(2), 2);
    drop(pinball);
    let main_pc = program.entry_main();
    let mut two_phase = LoopAlignedSlicer::new(contended_program(2), &dcfg, 2, 10);
    for (pc, target) in [
        (wild, wild),
        (Pc::INVALID, Pc::INVALID),
        (
            Pc::new(main_pc.image, u32::MAX),
            Pc::new(main_pc.image, u32::MAX - 1),
        ),
        (main_pc, wild),
    ] {
        let r = Retired {
            tid: 0,
            pc,
            inst: Inst::Nop,
            class: InstClass::IntAlu,
            next_pc: target,
            mem: None,
            ctrl: Some(lp_isa::CtrlEvent {
                kind: CtrlKind::CondTaken,
                target,
            }),
            global_seq: 0,
        };
        slicer.on_retire(&r);
        slicer.take_region();
        two_phase.on_retire(&r);
    }
    assert_eq!(slicer.header_counts().iter().count(), headers);
    assert!(!two_phase.finish().slices.is_empty());
}
