//! Region checkpoints: pinballs for selected simulation regions.

use crate::pinball::{Pinball, PinballError};
use crate::replay::Replayer;
use lp_isa::{MachineState, Marker, Pc, PcTable, Program};
use std::collections::HashMap;
use std::sync::Arc;

/// A pending multi-marker agenda entry: all requested output slots for one
/// distinct `(PC, count)` marker.
#[derive(Debug)]
struct PendingMarker {
    count: u64,
    out_slots: Vec<usize>,
}

/// Per-PC state of a checkpoint pass, for every marker or watch PC.
#[derive(Debug, Default)]
struct TrackedPc {
    /// Global execution count so far.
    executed: u64,
    /// Markers at this PC that have not fired yet.
    pending: Vec<PendingMarker>,
}

/// One [`Pinball::checkpoints_at`] output per input marker: the checkpoint
/// plus the global execution counts of every watched PC at that marker.
pub type MarkerCheckpoints = Vec<(RegionCheckpoint, HashMap<Pc, u64>)>;

/// A checkpoint of the replayed execution at a `(PC, count)` marker.
///
/// This is the region pinball of §IV-C: restoring it and replaying the race
/// log tail reproduces the region exactly as recorded. LoopPoint generates
/// one per representative region (usually positioned a warmup distance
/// before the region's start marker).
#[derive(Debug, Clone)]
pub struct RegionCheckpoint {
    name: String,
    marker: Marker,
    state: MachineState,
    event_start: usize,
    /// Global instructions retired from program start up to the checkpoint.
    instructions_before: u64,
}

impl RegionCheckpoint {
    /// The marker the checkpoint was taken at.
    pub fn marker(&self) -> Marker {
        self.marker
    }

    /// Checkpoint name (program plus marker).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instructions retired before the checkpoint (the fast-forward length
    /// a simulator is spared).
    pub fn instructions_before(&self) -> u64 {
        self.instructions_before
    }

    /// The architectural snapshot.
    pub fn state(&self) -> &MachineState {
        &self.state
    }

    /// Index into the race log where replay resumes.
    pub fn event_start(&self) -> usize {
        self.event_start
    }
}

impl Pinball {
    /// Replays until the `marker.count`-th global execution of `marker.pc`
    /// and snapshots the machine there — a one-marker
    /// [`Pinball::checkpoints_at`]: one replay per call.
    ///
    /// # Errors
    /// [`PinballError::MarkerNotReached`] if the recording ends first, plus
    /// any replay error.
    pub fn checkpoint_at(
        &self,
        program: Arc<Program>,
        marker: Marker,
    ) -> Result<RegionCheckpoint, PinballError> {
        let mut batch = self.checkpoints_at(program, &[marker], &[])?;
        Ok(batch.pop().expect("one output per input marker").0)
    }

    /// Single-pass, multi-marker checkpoint generation: performs **one**
    /// replay of the pinball and snapshots the machine at every requested
    /// `(PC, count)` marker, returning one `(checkpoint, watch counts)`
    /// pair per input marker, in input order.
    ///
    /// Where k [`Pinball::checkpoint_at`] calls replay the
    /// whole recording k times (O(k·N) retired instructions before any
    /// checkpoint is usable), this carries an agenda of pending markers
    /// through a single replay (O(N)) — the one-logging-pass region-pinball
    /// generation of the SPEC PinPoints tooling. Duplicate and unsorted
    /// markers are fine (duplicates share one snapshot clone), and every
    /// output's watch counts are the global execution counts of each
    /// `watch` PC at that output's marker.
    ///
    /// # Errors
    /// [`PinballError::MarkerNotReached`] if the recording ends before
    /// every marker has fired (reporting the first unmet marker in input
    /// order), plus any replay error.
    pub fn checkpoints_at(
        &self,
        program: Arc<Program>,
        markers: &[Marker],
        watch: &[Pc],
    ) -> Result<MarkerCheckpoints, PinballError> {
        let obs = lp_obs::global();
        let mut span = obs.span("pinball.checkpoint_pass", "pinball");
        span.arg("markers", markers.len());
        if markers.is_empty() {
            return Ok(Vec::new());
        }
        obs.counter("pinball.checkpoint_replays").inc();

        // One dense slot per marker or watch PC: its global execution
        // count, and the pending marker counts sorted descending (pop from
        // the back = smallest count first), each carrying every output
        // slot that requested it (duplicates fold). A PC outside the
        // program gets no slot: it never retires, so a marker there stays
        // unmet and a watch count there stays 0.
        let mut tracked: PcTable<TrackedPc> = PcTable::new(&program);
        let mut remaining = 0usize;
        for &pc in watch {
            tracked.get_or_insert_with(pc, TrackedPc::default);
        }
        for (slot, m) in markers.iter().enumerate() {
            let Some(t) = tracked.get_or_insert_with(m.pc, TrackedPc::default) else {
                remaining += 1;
                continue;
            };
            match t.pending.iter_mut().find(|p| p.count == m.count) {
                Some(p) => p.out_slots.push(slot),
                None => {
                    remaining += 1;
                    t.pending.push(PendingMarker {
                        count: m.count,
                        out_slots: vec![slot],
                    });
                }
            }
        }
        for (_, t) in tracked.iter_mut() {
            t.pending.sort_by_key(|p| std::cmp::Reverse(p.count));
        }

        // Per fired marker: the checkpoint, the output slots that asked
        // for it, and each `watch` PC's count (in `watch` order). Outputs
        // are assembled from these once the pass is over.
        let mut fired: Vec<(RegionCheckpoint, Vec<usize>, Vec<u64>)> = Vec::new();
        let mut instructions: u64 = 0;
        self.replayer(program).drive(|r, rep| {
            instructions += 1;
            let Some(t) = tracked.get_mut(r.pc) else {
                return false;
            };
            t.executed += 1;
            if t.pending.last().is_none_or(|p| p.count != t.executed) {
                return false;
            }
            let PendingMarker { count, out_slots } = t.pending.pop().expect("checked non-empty");
            let marker = Marker::new(r.pc, count);
            let (state, event_start) = rep.snapshot();
            let mut marker_span = obs.span("pinball.checkpoint_pass.marker", "pinball");
            marker_span.arg("marker", marker.to_string());
            marker_span.arg("instructions_before", instructions);
            drop(marker_span);
            obs.counter("pinball.checkpoints").inc();
            let checkpoint = RegionCheckpoint {
                name: format!("{}@{}", self.name(), marker),
                marker,
                state,
                event_start,
                instructions_before: instructions,
            };
            let watch_counts = watch
                .iter()
                .map(|&pc| tracked.get(pc).map_or(0, |t| t.executed))
                .collect();
            fired.push((checkpoint, out_slots, watch_counts));
            remaining -= 1;
            remaining == 0
        })?;

        let mut out: Vec<Option<(RegionCheckpoint, HashMap<Pc, u64>)>> =
            (0..markers.len()).map(|_| None).collect();
        for (checkpoint, out_slots, watch_counts) in fired {
            let counts: HashMap<Pc, u64> = watch.iter().copied().zip(watch_counts).collect();
            for slot in out_slots {
                out[slot] = Some((checkpoint.clone(), counts.clone()));
            }
        }
        if remaining > 0 {
            // Report the first unmet marker in input order.
            let unmet = markers
                .iter()
                .zip(&out)
                .find(|(_, o)| o.is_none())
                .expect("remaining > 0 implies an unmet marker")
                .0;
            let executed = tracked.get(unmet.pc).map_or(0, |t| t.executed);
            return Err(PinballError::MarkerNotReached { executed });
        }
        span.arg("instructions", instructions);
        Ok(out
            .into_iter()
            .map(|o| o.expect("all markers fired"))
            .collect())
    }

    /// Creates a replayer resuming from a region checkpoint.
    pub fn replayer_from<'p>(
        &'p self,
        program: Arc<Program>,
        ckpt: &RegionCheckpoint,
    ) -> Replayer<'p> {
        Replayer::from_state(
            program,
            &ckpt.state,
            self.events(),
            ckpt.event_start,
            self.nthreads(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pinball::RecordConfig;
    use lp_isa::{ProgramBuilder, Reg};
    use lp_omp::{OmpRuntime, WaitPolicy, APP_BASE};

    fn looped_program(nthreads: usize) -> (Arc<Program>, lp_isa::Pc) {
        let mut pb = ProgramBuilder::new("ckpt");
        let mut rt = OmpRuntime::build(&mut pb, nthreads, WaitPolicy::Passive);
        let mut c = pb.main_code();
        rt.emit_main_init(&mut c);
        rt.emit_parallel(&mut c, "work", |c, rt| {
            rt.emit_static_for(c, "work.loop", 128, |c, _| {
                c.li(Reg::R1, APP_BASE as i64);
                c.li(Reg::R2, 1);
                c.atomic_add(Reg::R3, Reg::R1, 0, Reg::R2);
            });
        });
        rt.emit_shutdown(&mut c);
        c.halt();
        c.finish();
        let p = Arc::new(pb.finish());
        let hdr = p.symbol("work.loop").unwrap();
        (p, hdr)
    }

    #[test]
    fn checkpoint_resumes_identically_to_full_replay() {
        let (p, hdr) = looped_program(4);
        let pb = Pinball::record(&p, 4, RecordConfig::default()).unwrap();
        let marker = Marker::new(hdr, 40);
        let ckpt = pb.checkpoint_at(p.clone(), marker).unwrap();
        assert!(ckpt.instructions_before() > 0);

        // Full replay final state.
        let mut full = pb.replayer(p.clone());
        while full.step().unwrap().is_some() {}
        let expect = full.machine().mem().load(lp_isa::Addr(APP_BASE));

        // Resume from the checkpoint: remaining instructions must complete
        // the program to the same state.
        let mut rest = pb.replayer_from(p.clone(), &ckpt);
        let mut tail_insts = 0u64;
        while rest.step().unwrap().is_some() {
            tail_insts += 1;
        }
        assert_eq!(rest.machine().mem().load(lp_isa::Addr(APP_BASE)), expect);
        assert_eq!(
            ckpt.instructions_before() + tail_insts,
            pb.instructions(),
            "checkpoint splits the stream exactly"
        );
    }

    #[test]
    fn checkpoint_state_reflects_partial_progress() {
        let (p, hdr) = looped_program(2);
        let pb = Pinball::record(&p, 2, RecordConfig::default()).unwrap();
        let ckpt = pb.checkpoint_at(p.clone(), Marker::new(hdr, 64)).unwrap();
        let m = lp_isa::Machine::from_snapshot(p, ckpt.state());
        let done = m.mem().load(lp_isa::Addr(APP_BASE));
        // 64th header execution seen; the atomic of that iteration may not
        // have retired yet, but earlier iterations have.
        assert!((32..128).contains(&done), "partial progress, got {done}");
    }

    fn state_bytes(s: &MachineState) -> Vec<u8> {
        let mut buf = Vec::new();
        s.write_to(&mut buf).unwrap();
        buf
    }

    #[test]
    fn single_pass_matches_independent_checkpoints() {
        let (p, hdr) = looped_program(4);
        let pb = Pinball::record(&p, 4, RecordConfig::default()).unwrap();
        let entry = p.entry_main();
        // Unsorted, with a duplicate and a marker at program start.
        let markers = [
            Marker::new(hdr, 96),
            Marker::new(hdr, 8),
            Marker::new(entry, 1),
            Marker::new(hdr, 96), // duplicate
            Marker::new(hdr, 40),
        ];
        let watch = [hdr, entry];
        let batch = pb.checkpoints_at(p.clone(), &markers, &watch).unwrap();
        assert_eq!(batch.len(), markers.len());
        for (i, marker) in markers.iter().enumerate() {
            let (want_ckpt, want_counts) = pb
                .checkpoints_at(p.clone(), &[*marker], &watch)
                .unwrap()
                .pop()
                .unwrap();
            let (got_ckpt, got_counts) = &batch[i];
            assert_eq!(got_ckpt.marker(), want_ckpt.marker());
            assert_eq!(got_ckpt.name(), want_ckpt.name());
            assert_eq!(got_ckpt.event_start(), want_ckpt.event_start());
            assert_eq!(
                got_ckpt.instructions_before(),
                want_ckpt.instructions_before()
            );
            assert_eq!(
                state_bytes(got_ckpt.state()),
                state_bytes(want_ckpt.state()),
                "marker {marker} snapshot must be byte-identical"
            );
            assert_eq!(got_counts, &want_counts, "marker {marker} watch counts");
        }
    }

    #[test]
    fn single_pass_duplicates_share_one_snapshot() {
        let (p, hdr) = looped_program(2);
        let pb = Pinball::record(&p, 2, RecordConfig::default()).unwrap();
        let m = Marker::new(hdr, 16);
        let batch = pb.checkpoints_at(p.clone(), &[m, m, m], &[hdr]).unwrap();
        assert_eq!(batch.len(), 3);
        let first = state_bytes(batch[0].0.state());
        for (ckpt, counts) in &batch {
            assert_eq!(state_bytes(ckpt.state()), first);
            assert_eq!(counts[&hdr], 16);
        }
    }

    #[test]
    fn single_pass_empty_markers_do_not_replay() {
        let (p, _) = looped_program(2);
        let pb = Pinball::record(&p, 2, RecordConfig::default()).unwrap();
        let out = pb.checkpoints_at(p, &[], &[]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn single_pass_unreachable_marker_errors() {
        let (p, hdr) = looped_program(2);
        let pb = Pinball::record(&p, 2, RecordConfig::default()).unwrap();
        let err = pb
            .checkpoints_at(p, &[Marker::new(hdr, 4), Marker::new(hdr, 1_000_000)], &[])
            .unwrap_err();
        assert!(matches!(err, PinballError::MarkerNotReached { executed } if executed == 128));
    }

    #[test]
    fn unreachable_marker_errors() {
        let (p, hdr) = looped_program(2);
        let pb = Pinball::record(&p, 2, RecordConfig::default()).unwrap();
        let err = pb
            .checkpoint_at(p, Marker::new(hdr, 1_000_000))
            .unwrap_err();
        assert!(matches!(err, PinballError::MarkerNotReached { executed } if executed == 128));
    }
}
