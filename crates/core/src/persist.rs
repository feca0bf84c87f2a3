//! Persistence of analysis results through the artifact store.
//!
//! The front half of the pipeline — record, replay, DCFG, slicing,
//! clustering, checkpoint generation — is deterministic in `(program,
//! nthreads, analysis configuration)`. This module derives a 128-bit
//! content key from exactly those inputs ([`analysis_key`]) and persists /
//! restores the four analysis artifacts plus the prepared region
//! checkpoints through an [`lp_store::Store`]:
//!
//! | kind          | payload                                            |
//! |---------------|----------------------------------------------------|
//! | `Pinball`     | canonical pinball bytes (`Pinball::to_bytes`)      |
//! | `Analysis`    | DCFG parts (blocks/edges/routines/loops) + regions |
//! | `BbvMatrix`   | the loop-aligned, spin-filtered slice profile      |
//! | `Clustering`  | assignments, representatives, BIC/SSE scores       |
//! | `Checkpoints` | prepared region states + watch counts              |
//!
//! All encodings are **canonical**: maps are sorted before writing and
//! floats travel as IEEE bit patterns, so a warm load re-encodes to exactly
//! the bytes a cold run would produce — the equivalence CI gate depends on
//! this. Decoders are strict; any shape violation falls back to
//! recomputation (never a panic), the same way a checksum failure does one
//! layer below.

use crate::config::LoopPointConfig;
use crate::error::LoopPointError;
use crate::pipeline::{analyze_keeping, Analysis, LoopPointRegion};
use crate::simulate::{
    prepare_from_boundary_states, prepare_region_checkpoints, PreparedCheckpoints, PreparedRegion,
};
use lp_bbv::{BoundaryState, Slice, SliceProfile, SparseVec};
use lp_dcfg::{BasicBlock, BlockId, Dcfg, Edge, LoopInfo, Routine};
use lp_isa::{MachineState, Marker, Pc, Program};
use lp_pinball::Pinball;
use lp_simpoint::Clustering;
use lp_store::{ArtifactKind, Store, StoreKey, StoreKeyBuilder};
use std::sync::Arc;

/// Bumped whenever any payload encoding below changes shape. Folded into
/// the store key, so old artifacts become unreachable rather than
/// mis-decoded. (v2: clustering carries per-point centroid distances; v3:
/// checkpoints mark regions that continue a chain.)
const PERSIST_VERSION: u64 = 3;

// ---------------------------------------------------------------------------
// Store keys
// ---------------------------------------------------------------------------

/// The content key identifying one analysis: the exact program bytes, the
/// thread count, and every [`LoopPointConfig`] field that influences the
/// analysis result.
///
/// Deliberately **excluded**: `max_steps` (a safety budget, not a
/// behaviour), `simpoint.parallel_sweep` (bit-identical by construction),
/// and the observer handle.
pub fn analysis_key(program: &Program, nthreads: usize, cfg: &LoopPointConfig) -> StoreKey {
    let mut kb = StoreKeyBuilder::new("looppoint/analysis");
    kb.field_u64("persist_version", PERSIST_VERSION)
        .field_bytes("program", &program.canonical_bytes())
        .field_u64("nthreads", nthreads as u64)
        .field_u64("slice_base", cfg.slice_base)
        .field_bool("filter_spin", cfg.filter_spin)
        .field_str("slice_policy", &format!("{:?}", cfg.slice_policy))
        .field_u64("record.quantum", cfg.record.quantum)
        .field_u64("record.max_steps", cfg.record.max_steps)
        .field_u64("simpoint.max_k", cfg.simpoint.max_k as u64)
        .field_u64("simpoint.proj_dims", cfg.simpoint.proj_dims as u64)
        .field_u64("simpoint.seed", cfg.simpoint.seed)
        .field_f64("simpoint.bic_threshold", cfg.simpoint.bic_threshold)
        .field_u64("simpoint.max_iters", cfg.simpoint.max_iters as u64);
    kb.finish()
}

/// The content key for prepared region checkpoints: the analysis key plus
/// the warmup window they were generated with.
pub fn checkpoints_key(analysis_key: StoreKey, warmup_slices: usize) -> StoreKey {
    let mut kb = StoreKeyBuilder::new("looppoint/checkpoints");
    kb.field_bytes("analysis_key", &analysis_key.0)
        .field_u64("warmup_slices", warmup_slices as u64);
    kb.finish()
}

// ---------------------------------------------------------------------------
// Canonical byte writer / strict reader
// ---------------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_f64_slice(out: &mut Vec<u8>, v: &[f64]) {
    put_u64(out, v.len() as u64);
    for &x in v {
        put_f64(out, x);
    }
}

fn put_usize_slice(out: &mut Vec<u8>, v: &[usize]) {
    put_u64(out, v.len() as u64);
    for &x in v {
        put_u64(out, x as u64);
    }
}

fn put_u64_slice(out: &mut Vec<u8>, v: &[u64]) {
    put_u64(out, v.len() as u64);
    for &x in v {
        put_u64(out, x);
    }
}

fn put_opt_marker(out: &mut Vec<u8>, m: &Option<Marker>) {
    match m {
        None => out.push(0),
        Some(m) => {
            out.push(1);
            put_u64(out, m.pc.to_word());
            put_u64(out, m.count);
        }
    }
}

/// Smallest encodings of the variable-size records, for [`Rd::len`]
/// (fixed-size records pass their size directly): a slice is five 8-byte
/// fields (index, two counts, two empty length prefixes) and two `None`
/// marker tags; a looppoint region five 8-byte fields and two tags.
const SLICE_MIN: usize = 5 * 8 + 2;
const LOOPPOINT_MIN: usize = 5 * 8 + 2;

/// Strict little-endian cursor; every read is bounds-checked.
struct Rd<'a> {
    b: &'a [u8],
    pos: usize,
}

type DecodeResult<T> = Result<T, String>;

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Self {
        Rd { b, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or_else(|| format!("truncated at byte {}", self.pos))?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Element count prefix, capped at what the remaining bytes could hold
    /// at `min_size` encoded bytes per element — so a decoder's
    /// `with_capacity(n)` never reserves more than the payload's size
    /// justifies, whatever the count claims.
    fn len(&mut self, min_size: usize) -> DecodeResult<usize> {
        let n = self.u64()?;
        let room = self.b.len().saturating_sub(self.pos) / min_size;
        if n > room as u64 {
            return Err(format!("implausible length {n} at byte {}", self.pos));
        }
        Ok(n as usize)
    }

    fn u64_vec(&mut self) -> DecodeResult<Vec<u64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    fn f64_vec(&mut self) -> DecodeResult<Vec<f64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn usize_vec(&mut self) -> DecodeResult<Vec<usize>> {
        Ok(self.u64_vec()?.into_iter().map(|x| x as usize).collect())
    }

    fn opt_marker(&mut self) -> DecodeResult<Option<Marker>> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let pc = Pc::from_word(self.u64()?);
                let count = self.u64()?;
                Ok(Some(Marker::new(pc, count)))
            }
            t => Err(format!("bad Option<Marker> tag {t}")),
        }
    }

    fn finish(self) -> DecodeResult<()> {
        if self.pos != self.b.len() {
            return Err(format!(
                "{} trailing bytes after payload",
                self.b.len() - self.pos
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Payload encodings
// ---------------------------------------------------------------------------

/// Encodes the slice profile (the BBV matrix artifact).
pub fn encode_profile(p: &SliceProfile) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, p.slice_target);
    put_u64(&mut out, p.nthreads as u64);
    put_u64(&mut out, p.total_filtered);
    put_u64(&mut out, p.total_insts);
    put_u64(&mut out, p.slices.len() as u64);
    for s in &p.slices {
        put_u64(&mut out, s.index as u64);
        put_opt_marker(&mut out, &s.start);
        put_opt_marker(&mut out, &s.end);
        put_u64(&mut out, s.bbv.entries().len() as u64);
        for &(dim, w) in s.bbv.entries() {
            put_u64(&mut out, dim);
            put_f64(&mut out, w);
        }
        put_u64(&mut out, s.filtered_insts);
        put_u64(&mut out, s.total_insts);
        put_u64_slice(&mut out, &s.per_thread_insts);
    }
    out
}

/// Decodes a slice profile.
pub fn decode_profile(bytes: &[u8]) -> DecodeResult<SliceProfile> {
    let mut r = Rd::new(bytes);
    let slice_target = r.u64()?;
    let nthreads = r.u64()? as usize;
    let total_filtered = r.u64()?;
    let total_insts = r.u64()?;
    let nslices = r.len(SLICE_MIN)?;
    let mut slices = Vec::with_capacity(nslices);
    for _ in 0..nslices {
        let index = r.u64()? as usize;
        let start = r.opt_marker()?;
        let end = r.opt_marker()?;
        let nnz = r.len(16)?;
        let mut entries = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            let dim = r.u64()?;
            let w = r.f64()?;
            entries.push((dim, w));
        }
        let bbv = SparseVec::from_entries(entries);
        let filtered_insts = r.u64()?;
        let total = r.u64()?;
        let per_thread_insts = r.u64_vec()?;
        slices.push(Slice {
            index,
            start,
            end,
            bbv,
            filtered_insts,
            total_insts: total,
            per_thread_insts,
        });
    }
    r.finish()?;
    Ok(SliceProfile {
        slices,
        slice_target,
        nthreads,
        total_filtered,
        total_insts,
    })
}

/// Encodes the clustering result.
pub fn encode_clustering(c: &Clustering) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, c.k as u64);
    put_usize_slice(&mut out, &c.assignments);
    put_usize_slice(&mut out, &c.representatives);
    put_usize_slice(&mut out, &c.cluster_sizes);
    put_f64_slice(&mut out, &c.point_distances);
    put_f64(&mut out, c.bic);
    put_f64(&mut out, c.sse);
    out
}

/// Decodes a clustering result.
pub fn decode_clustering(bytes: &[u8]) -> DecodeResult<Clustering> {
    let mut r = Rd::new(bytes);
    let k = r.u64()? as usize;
    let assignments = r.usize_vec()?;
    let representatives = r.usize_vec()?;
    let cluster_sizes = r.usize_vec()?;
    let point_distances = r.f64_vec()?;
    let bic = r.f64()?;
    let sse = r.f64()?;
    r.finish()?;
    if representatives.len() != k || cluster_sizes.len() != k {
        return Err(format!("clustering k={k} disagrees with vector lengths"));
    }
    if point_distances.len() != assignments.len() {
        return Err(format!(
            "clustering point_distances len {} disagrees with {} assignments",
            point_distances.len(),
            assignments.len()
        ));
    }
    Ok(Clustering {
        k,
        assignments,
        representatives,
        cluster_sizes,
        point_distances,
        bic,
        sse,
    })
}

fn put_looppoint(out: &mut Vec<u8>, lp: &LoopPointRegion) {
    put_u64(out, lp.slice_index as u64);
    put_u64(out, lp.cluster as u64);
    put_opt_marker(out, &lp.start);
    put_opt_marker(out, &lp.end);
    put_f64(out, lp.multiplier);
    put_u64(out, lp.filtered_insts);
    put_u64(out, lp.cluster_filtered_insts);
}

fn read_looppoint(r: &mut Rd<'_>) -> DecodeResult<LoopPointRegion> {
    Ok(LoopPointRegion {
        slice_index: r.u64()? as usize,
        cluster: r.u64()? as usize,
        start: r.opt_marker()?,
        end: r.opt_marker()?,
        multiplier: r.f64()?,
        filtered_insts: r.u64()?,
        cluster_filtered_insts: r.u64()?,
    })
}

/// Encodes the analysis metadata artifact: DCFG parts + selected regions.
pub fn encode_analysis_meta(dcfg: &Dcfg, looppoints: &[LoopPointRegion]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, dcfg.blocks().len() as u64);
    for b in dcfg.blocks() {
        put_u64(&mut out, u64::from(b.id.0));
        put_u64(&mut out, b.leader.to_word());
        put_u64(&mut out, u64::from(b.len));
        put_u64(&mut out, b.executions);
    }
    put_u64(&mut out, dcfg.edges().len() as u64);
    for e in dcfg.edges() {
        put_u64(&mut out, e.from.to_word());
        put_u64(&mut out, e.to.to_word());
        put_u64(&mut out, e.total);
        put_u64_slice(&mut out, &e.per_thread);
    }
    put_u64(&mut out, dcfg.routines().len() as u64);
    for rt in dcfg.routines() {
        put_u64(&mut out, rt.entry.to_word());
        put_u64(&mut out, rt.blocks.len() as u64);
        for b in &rt.blocks {
            put_u64(&mut out, u64::from(b.0));
        }
    }
    put_u64(&mut out, dcfg.loops().len() as u64);
    for l in dcfg.loops() {
        put_u64(&mut out, l.header.to_word());
        put_u64(&mut out, u64::from(l.header_block.0));
        put_u64(&mut out, l.blocks.len() as u64);
        for b in &l.blocks {
            put_u64(&mut out, u64::from(b.0));
        }
        put_u64(&mut out, l.back_edge_trips);
        put_u64(&mut out, l.iterations);
    }
    put_u64(&mut out, looppoints.len() as u64);
    for lp in looppoints {
        put_looppoint(&mut out, lp);
    }
    out
}

/// Decodes the analysis metadata artifact, rebuilding the [`Dcfg`] via
/// [`Dcfg::from_raw_parts`] (no replay).
pub fn decode_analysis_meta(
    bytes: &[u8],
    program: &Arc<Program>,
) -> DecodeResult<(Dcfg, Vec<LoopPointRegion>)> {
    let mut r = Rd::new(bytes);
    let nblocks = r.len(32)?;
    let mut blocks = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        blocks.push(BasicBlock {
            id: BlockId(r.u64()? as u32),
            leader: Pc::from_word(r.u64()?),
            len: r.u64()? as u32,
            executions: r.u64()?,
        });
    }
    let nedges = r.len(32)?;
    let mut edges = Vec::with_capacity(nedges);
    for _ in 0..nedges {
        edges.push(Edge {
            from: Pc::from_word(r.u64()?),
            to: Pc::from_word(r.u64()?),
            total: r.u64()?,
            per_thread: r.u64_vec()?,
        });
    }
    let nroutines = r.len(16)?;
    let mut routines = Vec::with_capacity(nroutines);
    for _ in 0..nroutines {
        let entry = Pc::from_word(r.u64()?);
        let nb = r.len(8)?;
        let mut rblocks = Vec::with_capacity(nb);
        for _ in 0..nb {
            rblocks.push(BlockId(r.u64()? as u32));
        }
        routines.push(Routine {
            entry,
            blocks: rblocks,
        });
    }
    let nloops = r.len(40)?;
    let mut loops = Vec::with_capacity(nloops);
    for _ in 0..nloops {
        let header = Pc::from_word(r.u64()?);
        let header_block = BlockId(r.u64()? as u32);
        let nb = r.len(8)?;
        let mut lblocks = Vec::with_capacity(nb);
        for _ in 0..nb {
            lblocks.push(BlockId(r.u64()? as u32));
        }
        let back_edge_trips = r.u64()?;
        let iterations = r.u64()?;
        loops.push(LoopInfo {
            header,
            header_block,
            blocks: lblocks,
            back_edge_trips,
            iterations,
        });
    }
    let nlp = r.len(LOOPPOINT_MIN)?;
    let mut looppoints = Vec::with_capacity(nlp);
    for _ in 0..nlp {
        looppoints.push(read_looppoint(&mut r)?);
    }
    r.finish()?;
    for b in &blocks {
        if program.inst(b.leader).is_none() {
            return Err(format!("block leader {:?} outside program", b.leader));
        }
    }
    let dcfg = Dcfg::from_raw_parts(program.clone(), blocks, edges, routines, loops);
    Ok((dcfg, looppoints))
}

/// Encodes prepared region checkpoints, one tag per region: 0 from reset,
/// 1 a checkpoint, 2 continuing a chain. `replay_passes` is *not* stored:
/// a warm load performs zero replays by definition.
pub fn encode_checkpoints(prepared: &PreparedCheckpoints) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, prepared.regions.len() as u64);
    for p in &prepared.regions {
        put_looppoint(&mut out, &p.region);
        match &p.checkpoint {
            None => out.push(if p.continues { 2 } else { 0 }),
            Some((state, counts)) => {
                assert!(!p.continues, "a continuing region carries no checkpoint");
                out.push(1);
                let mut state_bytes = Vec::with_capacity(state.encoded_len());
                state
                    .write_to(&mut state_bytes)
                    .expect("Vec<u8> writes are infallible");
                put_u64(&mut out, state_bytes.len() as u64);
                out.extend_from_slice(&state_bytes);
                put_u64(&mut out, counts.len() as u64);
                for &(pc, count) in counts {
                    put_u64(&mut out, pc.to_word());
                    put_u64(&mut out, count);
                }
            }
        }
    }
    out
}

/// Decodes prepared region checkpoints (with `replay_passes = 0`).
pub fn decode_checkpoints(bytes: &[u8]) -> DecodeResult<PreparedCheckpoints> {
    let mut r = Rd::new(bytes);
    let n = r.len(LOOPPOINT_MIN + 1)?;
    let mut regions = Vec::with_capacity(n);
    for _ in 0..n {
        let region = read_looppoint(&mut r)?;
        let tag = r.u8()?;
        let checkpoint = match tag {
            0 | 2 => None,
            1 => {
                let len = r.len(1)?;
                let state_bytes = r.take(len)?;
                let state = MachineState::read_from(&mut &state_bytes[..])
                    .map_err(|e| format!("bad machine state: {e}"))?;
                let ncounts = r.len(16)?;
                let mut counts = Vec::with_capacity(ncounts);
                for _ in 0..ncounts {
                    let pc = Pc::from_word(r.u64()?);
                    let count = r.u64()?;
                    counts.push((pc, count));
                }
                Some((state, counts))
            }
            t => return Err(format!("bad checkpoint tag {t}")),
        };
        regions.push(PreparedRegion {
            region,
            checkpoint,
            continues: tag == 2,
        });
    }
    r.finish()?;
    Ok(PreparedCheckpoints {
        regions,
        replay_passes: 0,
    })
}

// ---------------------------------------------------------------------------
// Cached pipeline entry points
// ---------------------------------------------------------------------------

fn try_load_analysis(program: &Arc<Program>, key: StoreKey, store: &Store) -> Option<Analysis> {
    let pinball_bytes = store.load(&key, ArtifactKind::Pinball)?;
    let meta_bytes = store.load(&key, ArtifactKind::Analysis)?;
    let profile_bytes = store.load(&key, ArtifactKind::BbvMatrix)?;
    let clustering_bytes = store.load(&key, ArtifactKind::Clustering)?;
    let decoded = (|| -> DecodeResult<Analysis> {
        let pinball =
            Pinball::from_bytes(&pinball_bytes).map_err(|e| format!("bad pinball: {e}"))?;
        pinball
            .check_program(program)
            .map_err(|e| format!("pinball/program mismatch: {e}"))?;
        let (dcfg, looppoints) = decode_analysis_meta(&meta_bytes, program)?;
        let profile = decode_profile(&profile_bytes)?;
        let clustering = decode_clustering(&clustering_bytes)?;
        Ok(Analysis {
            pinball,
            dcfg,
            profile,
            clustering,
            looppoints,
        })
    })();
    match decoded {
        Ok(a) => Some(a),
        Err(e) => {
            // Checksums passed but the payload shape is wrong — a format
            // drift that escaped the versioned key. Recompute.
            lp_obs::lp_warn!("store: cached analysis undecodable ({e}); recomputing");
            None
        }
    }
}

fn save_analysis(analysis: &Analysis, key: StoreKey, store: &Store) {
    let artifacts: [(ArtifactKind, Vec<u8>); 4] = [
        (ArtifactKind::Pinball, analysis.pinball.to_bytes()),
        (
            ArtifactKind::Analysis,
            encode_analysis_meta(&analysis.dcfg, &analysis.looppoints),
        ),
        (ArtifactKind::BbvMatrix, encode_profile(&analysis.profile)),
        (
            ArtifactKind::Clustering,
            encode_clustering(&analysis.clustering),
        ),
    ];
    for (kind, payload) in artifacts {
        if let Err(e) = store.save(&key, kind, &payload) {
            // A full disk or read-only store must never fail the pipeline:
            // caching is an optimization.
            lp_obs::lp_warn!("store: failed to persist {kind} artifact: {e}");
        }
    }
}

/// [`analyze`] with a persistent cache: consults `store` under
/// [`analysis_key`] first, and on a miss runs the full analysis and
/// persists all four artifacts. Returns the analysis and whether it was
/// served from the store.
///
/// A warm hit performs **zero** recording or replay work, and the returned
/// analysis is byte-identical (under this module's canonical encodings) to
/// what the cold path computes.
///
/// [`analyze`]: crate::analyze
///
/// # Errors
/// Exactly the failure modes of [`analyze`]; store I/O problems degrade to
/// recomputation or a logged warning, never an error.
pub fn analyze_cached(
    program: &Arc<Program>,
    nthreads: usize,
    cfg: &LoopPointConfig,
    store: &Store,
) -> Result<(Analysis, bool), LoopPointError> {
    let (analysis, computed) = analyze_cached_keeping(program, nthreads, cfg, Some(store), false)?;
    Ok((analysis, computed.is_none()))
}

/// [`analyze_cached`] over an optional store (`None`: always compute),
/// whose compute path keeps the slicing replay's boundary states when
/// `keep_boundary_states` (see [`analyze_keeping`]). Returns the analysis
/// and, when it was computed rather than served, those states (empty
/// unless kept).
pub(crate) fn analyze_cached_keeping(
    program: &Arc<Program>,
    nthreads: usize,
    cfg: &LoopPointConfig,
    store: Option<&Store>,
    keep_boundary_states: bool,
) -> Result<(Analysis, Option<Vec<BoundaryState>>), LoopPointError> {
    let Some(store) = store else {
        let (analysis, states) = analyze_keeping(program, nthreads, cfg, keep_boundary_states)?;
        return Ok((analysis, Some(states)));
    };
    let key = analysis_key(program, nthreads, cfg);
    let mut span = cfg.obs.span("analyze.cached", "pipeline");
    span.arg("key", key.hex());
    if let Some(analysis) = try_load_analysis(program, key, store) {
        span.arg("outcome", "hit");
        lp_obs::lp_debug!("analyze: served from store ({key})");
        return Ok((analysis, None));
    }
    span.arg("outcome", "miss");
    let (analysis, states) = analyze_keeping(program, nthreads, cfg, keep_boundary_states)?;
    save_analysis(&analysis, key, store);
    Ok((analysis, Some(states)))
}

/// [`prepare_region_checkpoints`] with a persistent cache, keyed by the
/// analysis key plus `warmup_slices`. On a miss the checkpoints are built
/// (one pinball replay) and persisted. Returns the prepared checkpoints
/// and whether they came from the store; a warm hit has
/// `replay_passes == 0`.
///
/// # Errors
/// Exactly the failure modes of [`prepare_region_checkpoints`].
pub fn prepare_region_checkpoints_cached(
    analysis: &Analysis,
    program: &Arc<Program>,
    nthreads: usize,
    cfg: &LoopPointConfig,
    warmup_slices: usize,
    store: &Store,
) -> Result<(PreparedCheckpoints, bool), LoopPointError> {
    prepare_cached_from(
        analysis,
        None,
        program,
        nthreads,
        cfg,
        warmup_slices,
        Some(store),
    )
}

/// [`prepare_region_checkpoints_cached`] over an optional store (`None`:
/// always build), whose build path takes the slicing replay's boundary
/// states (no replay) when the analysis was just computed with them, and
/// replays once when it was served from the store.
pub(crate) fn prepare_cached_from(
    analysis: &Analysis,
    states: Option<&[BoundaryState]>,
    program: &Arc<Program>,
    nthreads: usize,
    cfg: &LoopPointConfig,
    warmup_slices: usize,
    store: Option<&Store>,
) -> Result<(PreparedCheckpoints, bool), LoopPointError> {
    let build = || match states {
        Some(states) => Ok(prepare_from_boundary_states(
            analysis,
            states,
            warmup_slices,
        )),
        None => prepare_region_checkpoints(analysis, program, warmup_slices),
    };
    let Some(store) = store else {
        return Ok((build()?, false));
    };
    let key = checkpoints_key(analysis_key(program, nthreads, cfg), warmup_slices);
    let mut span = cfg.obs.span("region.checkpoints.cached", "pipeline");
    span.arg("key", key.hex());
    if let Some(bytes) = store.load(&key, ArtifactKind::Checkpoints) {
        match decode_checkpoints(&bytes) {
            Ok(prepared) if prepared.regions.len() == analysis.looppoints.len() => {
                span.arg("outcome", "hit");
                return Ok((prepared, true));
            }
            Ok(_) => {
                lp_obs::lp_warn!("store: cached checkpoints disagree with analysis; recomputing");
            }
            Err(e) => {
                lp_obs::lp_warn!("store: cached checkpoints undecodable ({e}); recomputing");
            }
        }
    }
    span.arg("outcome", "miss");
    let prepared = build()?;
    if let Err(e) = store.save(
        &key,
        ArtifactKind::Checkpoints,
        &encode_checkpoints(&prepared),
    ) {
        lp_obs::lp_warn!("store: failed to persist checkpoints artifact: {e}");
    }
    Ok((prepared, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::analyze;
    use crate::testutil;
    use lp_omp::WaitPolicy;

    fn test_program() -> Arc<Program> {
        testutil::phased_program(2, WaitPolicy::Passive, 6)
    }

    fn fast_config() -> LoopPointConfig {
        LoopPointConfig::with_slice_base(2_000)
    }

    #[test]
    fn key_is_config_sensitive() {
        let program = test_program();
        let base = LoopPointConfig::default();
        let k0 = analysis_key(&program, 2, &base);
        assert_eq!(k0, analysis_key(&program, 2, &base), "deterministic");
        assert_ne!(k0, analysis_key(&program, 3, &base), "nthreads");
        let mut c = base.clone();
        c.slice_base += 1;
        assert_ne!(k0, analysis_key(&program, 2, &c), "slice_base");
        let mut c = base.clone();
        c.filter_spin = false;
        assert_ne!(k0, analysis_key(&program, 2, &c), "filter_spin");
        let mut c = base.clone();
        c.simpoint.seed += 1;
        assert_ne!(k0, analysis_key(&program, 2, &c), "seed");
        // Budget-only knobs do NOT change the key.
        let mut c = base.clone();
        c.max_steps /= 2;
        assert_eq!(
            k0,
            analysis_key(&program, 2, &c),
            "max_steps is budget-only"
        );
        let mut c = base.clone();
        c.simpoint.parallel_sweep = !c.simpoint.parallel_sweep;
        assert_eq!(
            k0,
            analysis_key(&program, 2, &c),
            "parallel_sweep is bit-identical"
        );
    }

    #[test]
    fn checkpoints_key_derives_from_analysis_key() {
        let program = test_program();
        let cfg = LoopPointConfig::default();
        let ak = analysis_key(&program, 2, &cfg);
        assert_ne!(checkpoints_key(ak, 0), checkpoints_key(ak, 1));
        assert_eq!(checkpoints_key(ak, 1), checkpoints_key(ak, 1));
    }

    #[test]
    fn profile_and_clustering_roundtrip() {
        let program = test_program();
        let cfg = fast_config();
        let analysis = analyze(&program, 2, &cfg).unwrap();

        let pb = encode_profile(&analysis.profile);
        let profile = decode_profile(&pb).unwrap();
        assert_eq!(
            encode_profile(&profile),
            pb,
            "profile re-encodes identically"
        );
        assert_eq!(profile.slices.len(), analysis.profile.slices.len());

        let cb = encode_clustering(&analysis.clustering);
        let clustering = decode_clustering(&cb).unwrap();
        assert_eq!(encode_clustering(&clustering), cb);
        assert_eq!(clustering.k, analysis.clustering.k);
        assert_eq!(clustering.assignments, analysis.clustering.assignments);

        let mb = encode_analysis_meta(&analysis.dcfg, &analysis.looppoints);
        let (dcfg, looppoints) = decode_analysis_meta(&mb, &program).unwrap();
        assert_eq!(encode_analysis_meta(&dcfg, &looppoints), mb);
        assert_eq!(
            dcfg.main_image_loop_headers(),
            analysis.dcfg.main_image_loop_headers(),
            "loop-header view survives reconstruction"
        );
        for s in analysis.profile.slices.iter().take(3) {
            if let Some(m) = s.start {
                assert_eq!(dcfg.block_of(m.pc), analysis.dcfg.block_of(m.pc));
            }
        }
    }

    /// Two runs (or two ring nodes) store an artifact under one content
    /// key, so its bytes must not depend on the run: no hash-map iteration
    /// order may reach an encoder.
    #[test]
    fn artifacts_are_a_function_of_their_key() {
        for (program, nthreads) in [
            (testutil::phased_program(4, WaitPolicy::Active, 3), 4),
            (testutil::contended_program(3), 3),
        ] {
            let cfg = LoopPointConfig::with_slice_base(500);
            let encodings = |_| {
                let a = analyze(&program, nthreads, &cfg).unwrap();
                [
                    encode_analysis_meta(&a.dcfg, &a.looppoints),
                    encode_profile(&a.profile),
                    encode_clustering(&a.clustering),
                ]
            };
            let runs: Vec<[Vec<u8>; 3]> = (0..8).map(encodings).collect();
            for run in &runs[1..] {
                assert!(run == &runs[0], "{}: encodings differ", program.name());
            }
            let [meta, profile, clustering] = &runs[0];
            let (dcfg, looppoints) = decode_analysis_meta(meta, &program).unwrap();
            assert_eq!(&encode_analysis_meta(&dcfg, &looppoints), meta);
            assert_eq!(&encode_profile(&decode_profile(profile).unwrap()), profile);
            let decoded = decode_clustering(clustering).unwrap();
            assert_eq!(&encode_clustering(&decoded), clustering);
        }
    }

    #[test]
    fn truncated_payloads_are_rejected_not_panicking() {
        let program = test_program();
        let cfg = fast_config();
        let analysis = analyze(&program, 2, &cfg).unwrap();
        let encoded = [
            encode_profile(&analysis.profile),
            encode_clustering(&analysis.clustering),
            encode_analysis_meta(&analysis.dcfg, &analysis.looppoints),
        ];
        for bytes in &encoded {
            for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
                let cut_bytes = &bytes[..cut];
                assert!(
                    decode_profile(cut_bytes).is_err()
                        || decode_clustering(cut_bytes).is_err()
                        || decode_analysis_meta(cut_bytes, &program).is_err(),
                    "no decoder may accept a truncation"
                );
            }
        }
        // Each specific decoder rejects its own truncations.
        assert!(decode_profile(&encoded[0][..encoded[0].len() - 1]).is_err());
        assert!(decode_clustering(&encoded[1][..encoded[1].len() - 1]).is_err());
        assert!(decode_analysis_meta(&encoded[2][..encoded[2].len() - 1], &program).is_err());
    }

    /// Checkpoints round-trip with all three region tags — from reset (0),
    /// checkpoint (1), continuing a chain (2) — and an unknown tag is
    /// refused.
    #[test]
    fn checkpoints_roundtrip_every_tag() {
        let program = test_program();
        let analysis = analyze(&program, 2, &fast_config()).unwrap();
        let mut tags = [false; 3];
        for window in [0, 2, crate::FROM_RESET] {
            let prepared = crate::prepare_region_checkpoints(&analysis, &program, window).unwrap();
            let bytes = encode_checkpoints(&prepared);
            let decoded = decode_checkpoints(&bytes).unwrap();
            assert_eq!(encode_checkpoints(&decoded), bytes, "window {window}");
            for (a, b) in prepared.regions.iter().zip(&decoded.regions) {
                assert_eq!(a.continues, b.continues);
                assert_eq!(a.checkpoint.is_some(), b.checkpoint.is_some());
                tags[match (&a.checkpoint, a.continues) {
                    (Some(_), _) => 1,
                    (None, false) => 0,
                    (None, true) => 2,
                }] = true;
            }
        }
        assert_eq!(tags, [true; 3], "every tag encoded");
        let prepared = crate::prepare_region_checkpoints(&analysis, &program, 2).unwrap();
        let mut one = PreparedCheckpoints {
            regions: prepared.regions[..1].to_vec(),
            replay_passes: 0,
        };
        one.regions[0].checkpoint = None;
        let mut bytes = encode_checkpoints(&one);
        *bytes.last_mut().unwrap() = 3;
        assert_eq!(
            decode_checkpoints(&bytes).err().as_deref(),
            Some("bad checkpoint tag 3")
        );
    }

    /// A count the payload cannot hold is refused by the length check
    /// before anything is reserved — here 2^20 elements over 1 MiB of
    /// zeros, which the bytes-remaining cap used to let through.
    #[test]
    fn element_counts_are_capped_by_their_minimum_size() {
        let program = test_program();
        let claim = |prefix_u64s: usize| {
            let mut b = vec![0u8; 8 * prefix_u64s];
            put_u64(&mut b, 1 << 20);
            b.resize(b.len() + (1 << 20), 0);
            b
        };
        let errors = [
            decode_profile(&claim(4)).err(),
            decode_clustering(&claim(1)).err(),
            decode_analysis_meta(&claim(0), &program).err(),
            decode_checkpoints(&claim(0)).err(),
        ];
        for (decoder, e) in errors.into_iter().enumerate() {
            assert!(
                e.as_deref()
                    .is_some_and(|e| e.starts_with("implausible length 1048576")),
                "decoder {decoder}: {e:?}"
            );
        }
    }
}
