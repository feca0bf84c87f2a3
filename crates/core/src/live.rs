//! Live (Pac-Sim-style) online sampling: the execution loop that drives
//! `lp-live`'s streaming slicer and online classifier against the
//! simulator — no recording, no profiling prequel, one pass.
//!
//! # How a live run works
//!
//! The program executes **once**, in fast-forward (functional + warming)
//! mode, with the [`lp_live::StreamingSlicer`] riding the simulator's
//! per-retire hook. At each region boundary the slicer hands back a
//! spin-filtered BBV; the [`lp_live::OnlineClassifier`] matches it against
//! the live centroids and decides:
//!
//! * **simulate in detail** — new cluster, no IPC sample yet, stale, or
//!   low confidence: the region is re-run in detailed mode from the
//!   machine snapshot and warm timing model taken at its own start, and
//!   its measured IPC becomes the cluster's prediction source;
//! * **predict** — a confident match: the region's cycles are
//!   extrapolated from the cluster's last detailed IPC, and no detailed
//!   simulation happens at all.
//!
//! The one pass takes that snapshot where it stops at each region start.
//! A [`lp_isa::MachineState`] shares every memory page not stored to since
//! the previous snapshot, so it costs the pages the last region wrote. The
//! timing model the pass has been warming all along is copied into one
//! recycled model — the checkpoint a predicted region left unused, or the
//! model a detailed re-run handed back — and a copy moves only the cache
//! chunks the hierarchy has filled. That model moves into the re-run. A
//! detailed re-run therefore needs no warm-up leg and never re-executes
//! anything outside its region.
//!
//! Every decision is recorded, and every region folds into the run's
//! [`Estimate`] as it is decided, so [`crate::diagnose`] decomposes
//! live-mode error into representativeness / warmup / residual exactly as
//! for two-phase runs.

use crate::config::DEFAULT_MAX_STEPS;
use crate::error::LoopPointError;
use crate::estimate::{Estimate, Prediction};
use lp_diag::ClusterInput;
use lp_isa::{Machine, MachineState, PcTable, Program};
use lp_live::{Action, Decision, DetailReason, LiveProgress, OnlineClassifier, StreamingSlicer};
use lp_obs::{names, Observer};
use lp_sim::{Mode, SimStats, Simulator, TimingModel};
use lp_uarch::{CopyBytes, SimConfig};
use std::sync::Arc;

/// Configuration of a live-mode run.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Per-thread region size in spin-filtered instructions (the global
    /// target is `slice_base × nthreads`, as in two-phase profiling).
    pub slice_base: u64,
    /// Online classifier + simulate/predict policy tuning.
    pub online: lp_live::OnlineConfig,
    /// Hard step budget for any single simulation segment.
    pub max_steps: u64,
    /// Observability handle the run's spans and `live.*` metrics go to.
    pub obs: Observer,
    /// Cooperative cancellation, checked at every region boundary.
    pub cancel: crate::CancelToken,
    /// Distributed trace context the run's spans parent under.
    pub trace: Option<lp_obs::TraceContext>,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            slice_base: 25_000,
            online: lp_live::OnlineConfig::default(),
            max_steps: DEFAULT_MAX_STEPS,
            obs: lp_obs::global(),
            cancel: crate::CancelToken::default(),
            trace: None,
        }
    }
}

impl LiveConfig {
    /// A configuration with a custom per-thread region size.
    pub fn with_slice_base(slice_base: u64) -> Self {
        LiveConfig {
            slice_base,
            ..Default::default()
        }
    }

    /// Routes this run's spans and metrics to `obs` (builder style).
    #[must_use]
    pub fn with_observer(mut self, obs: Observer) -> Self {
        self.obs = obs;
        self
    }

    /// Installs the cancellation token this run honors (builder style).
    #[must_use]
    pub fn with_cancel(mut self, cancel: crate::CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Parents this run's spans under `trace` (builder style).
    #[must_use]
    pub fn with_trace(mut self, trace: Option<lp_obs::TraceContext>) -> Self {
        self.trace = trace;
        self
    }
}

/// Detailed statistics of one region's detailed (re-)simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveRepStats {
    /// Region index the stats belong to.
    pub region: usize,
    /// Detailed cycles of the region.
    pub cycles: u64,
    /// Instructions retired in the detailed window.
    pub instructions: u64,
}

/// One region of a live run: the classification decision plus accounting.
#[derive(Debug, Clone)]
pub struct LiveRegionRecord {
    /// The recorded classification decision (region index, cluster,
    /// spawned, distance, simulate-vs-predict).
    pub decision: Decision,
    /// Spin-filtered instructions in the region.
    pub filtered_insts: u64,
    /// All instructions in the region.
    pub total_insts: u64,
    /// The region's contribution to the running cycle estimate (detailed
    /// cycles when simulated, extrapolated cycles when predicted).
    pub est_cycles: f64,
    /// Detailed stats when the region was simulated in detail.
    pub detailed: Option<LiveRepStats>,
}

/// Everything a finished live run produced.
#[derive(Debug, Clone)]
pub struct LiveOutcome {
    /// Per-region records in execution order (the decision log with
    /// accounting attached).
    pub regions: Vec<LiveRegionRecord>,
    /// The estimate's per-cluster samples, by cluster id: each cluster's
    /// representative is its last detailed simulation.
    pub clusters: Vec<ClusterInput>,
    /// The estimate: whole-program cycles (detailed + extrapolated),
    /// summed in region order.
    pub est_total_cycles: f64,
    /// Regions simulated in detail.
    pub detailed_regions: usize,
    /// Regions predicted.
    pub predicted_regions: usize,
    /// Instructions inside detailed-simulated regions.
    pub detailed_insts: u64,
    /// Whole-program instruction count (all images).
    pub total_insts: u64,
    /// Whole-program spin-filtered instruction count.
    pub total_filtered: u64,
    /// What the region-start timing checkpoints copied, summed over the
    /// run, against what dense copies would have.
    pub checkpoint_bytes: CopyBytes,
}

impl LiveOutcome {
    /// Fraction of regions simulated in detail (`0..=1`).
    pub fn detailed_fraction(&self) -> f64 {
        if self.regions.is_empty() {
            0.0
        } else {
            self.detailed_regions as f64 / self.regions.len() as f64
        }
    }

    /// Fraction of *instructions* inside detailed-simulated regions.
    pub fn detailed_inst_fraction(&self) -> f64 {
        if self.total_insts == 0 {
            0.0
        } else {
            self.detailed_insts as f64 / self.total_insts as f64
        }
    }

    /// Estimated whole-program IPC.
    pub fn est_ipc(&self) -> f64 {
        Prediction::totals(self.est_total_cycles, self.total_insts as f64).ipc
    }

    /// The run's estimate, as [`crate::diagnose`] reads it. Live mode
    /// measures no events outside its detailed windows, so only cycles,
    /// instructions and IPC are predicted.
    pub fn estimate(&self) -> Estimate {
        Estimate {
            prediction: Prediction::totals(self.est_total_cycles, self.total_insts as f64),
            clusters: self.clusters.clone(),
        }
    }

    /// The decision log lines, in region order (stable across runs for a
    /// fixed configuration — see the determinism property test).
    pub fn decision_log(&self) -> Vec<String> {
        self.regions.iter().map(|r| r.decision.log_line()).collect()
    }
}

/// The current region's start: a machine snapshot taken where the main
/// pass stopped, with the warm timing model and the loop-header execution
/// counts at that moment (so a re-run can seed its end-marker watch).
struct LiveCheckpoint {
    /// Architectural and warm microarchitectural state; `None` at program
    /// reset (the first region), which a re-run starts from cold.
    warm: Option<(MachineState, TimingModel)>,
    counts: PcTable<u64>,
}

/// Runs the whole program **once** in live mode: streaming slicing, online
/// classification, per-region simulate-or-predict (see module docs).
/// `progress` is called after every region and once more with
/// `done = true`; pass a no-op closure when partial results are not
/// needed.
///
/// # Errors
/// Simulator failures, step-budget exhaustion, or
/// [`LoopPointError::Cancelled`] when the config's token trips.
pub fn analyze_live(
    program: &Arc<Program>,
    nthreads: usize,
    cfg: &LiveConfig,
    simcfg: &SimConfig,
    progress: &mut dyn FnMut(&LiveProgress),
) -> Result<LiveOutcome, LoopPointError> {
    let _trace_guard = cfg.trace.as_ref().map(|t| t.attach());
    let obs = &cfg.obs;
    let mut span = obs.span(names::SPAN_LIVE_RUN, names::CAT_LIVE);
    span.arg("nthreads", nthreads);
    span.arg("slice_base", cfg.slice_base);

    let mut sim = Simulator::new(program.clone(), nthreads, simcfg.clone());
    sim.set_observer(obs.clone());
    let mut slicer = StreamingSlicer::new(program.clone(), nthreads, cfg.slice_base);
    let mut classifier = OnlineClassifier::new(cfg.online);

    // Where a detailed re-run of the current region starts from.
    let mut start = LiveCheckpoint {
        warm: None,
        counts: PcTable::new(program),
    };

    // The model the next start checkpoint copies into: the last one a
    // predicted region left unused, or the last detailed re-run's.
    let mut spare: Option<TimingModel> = None;
    let mut checkpoint_bytes = CopyBytes::default();

    let mut regions: Vec<LiveRegionRecord> = Vec::new();
    let mut estimate = Estimate::default();
    let mut detailed_regions = 0usize;
    let mut detailed_insts = 0u64;

    let mut program_done = false;
    loop {
        cfg.cancel.check()?;
        sim.run_with(Mode::FastForward, None, cfg.max_steps, &mut |r| {
            slicer.on_retire(r)
        })?;
        let region = match slicer.take_region() {
            Some(r) => r,
            None => {
                // The program finished: close the trailing partial region.
                program_done = true;
                match slicer.finish_region() {
                    Some(r) => r,
                    None => break,
                }
            }
        };

        let decision = classifier.classify(region.index, &region.bbv, region.filtered_insts);
        let mut detailed: Option<LiveRepStats> = None;
        let est_cycles = match decision.action {
            Action::Detail(reason) => {
                let (stats, timing) = simulate_region_detailed(
                    &region,
                    start,
                    program,
                    nthreads,
                    simcfg,
                    cfg.max_steps,
                    obs,
                )?;
                spare = Some(timing);
                classifier.observe_detailed(
                    decision.cluster,
                    region.index,
                    decision.distance,
                    stats.ipc(),
                );
                detailed_regions += 1;
                detailed_insts += region.total_insts;
                obs.counter(names::LIVE_DETAILED).inc();
                if reason != DetailReason::NewCluster && reason != DetailReason::NoSample {
                    obs.counter(names::LIVE_RESIMS).inc();
                }
                detailed = Some(LiveRepStats {
                    region: region.index,
                    cycles: stats.cycles,
                    instructions: stats.instructions,
                });
                stats.cycles as f64
            }
            Action::Predict { ipc } => {
                if let Some((_, timing)) = start.warm {
                    spare = Some(timing);
                }
                obs.counter(names::LIVE_PREDICTED).inc();
                if ipc > 0.0 {
                    region.total_insts as f64 / ipc
                } else {
                    0.0
                }
            }
        };
        obs.counter(names::LIVE_REGIONS).inc();

        let record = LiveRegionRecord {
            decision,
            filtered_insts: region.filtered_insts,
            total_insts: region.total_insts,
            est_cycles,
            detailed,
        };
        let cluster = &classifier.clusters()[record.decision.cluster];
        estimate.add_live_region(
            &record,
            cluster.mean_member_distance(),
            slicer.total_insts(),
        );
        regions.push(record);

        let snapshot = progress_line(&estimate, regions.len(), detailed_regions, false);
        obs.gauge(names::LIVE_CLUSTERS)
            .set(snapshot.clusters as f64);
        obs.gauge(names::LIVE_DETAILED_PCT)
            .set(snapshot.detailed_pct);
        obs.gauge(names::LIVE_EST_IPC).set(snapshot.est_ipc);
        progress(&snapshot);
        if program_done {
            break;
        }
        // The main pass stopped on the next region's start marker.
        let mut timing = spare
            .take()
            .unwrap_or_else(|| TimingModel::new(simcfg.clone(), nthreads));
        sim.timing_checkpoint_into(&mut timing);
        checkpoint_bytes = checkpoint_bytes + timing.copy_bytes();
        start = LiveCheckpoint {
            warm: Some((sim.machine().snapshot(), timing)),
            counts: slicer.header_counts().clone(),
        };
    }

    progress(&progress_line(
        &estimate,
        regions.len(),
        detailed_regions,
        true,
    ));
    let outcome = LiveOutcome {
        clusters: estimate.clusters,
        est_total_cycles: estimate.prediction.total_cycles,
        detailed_regions,
        predicted_regions: regions.len() - detailed_regions,
        detailed_insts,
        total_insts: slicer.total_insts(),
        total_filtered: slicer.total_filtered(),
        regions,
        checkpoint_bytes,
    };
    span.arg("regions", outcome.regions.len());
    span.arg("clusters", outcome.clusters.len());
    span.arg("detailed", outcome.detailed_regions);
    Ok(outcome)
}

/// The progress line after `regions` regions, `detailed` of them simulated
/// in detail, read off the running estimate.
fn progress_line(estimate: &Estimate, regions: usize, detailed: usize, done: bool) -> LiveProgress {
    LiveProgress {
        regions: regions as u64,
        clusters: estimate.clusters.len() as u64,
        detailed: detailed as u64,
        predicted: (regions - detailed) as u64,
        detailed_pct: detailed as f64 / regions as f64,
        est_cycles: estimate.prediction.total_cycles,
        est_ipc: estimate.prediction.ipc,
        done,
    }
}

/// Re-runs one region in detailed mode from `start`, the snapshot at its
/// own start marker, to its end marker, and hands back the re-run's timing
/// model for the next checkpoint to recycle. The timing model moves out of
/// the checkpoint: caches and predictors are as warm as the one pass left
/// them, with no fast-forward leg.
fn simulate_region_detailed(
    region: &lp_live::LiveRegion,
    start: LiveCheckpoint,
    program: &Arc<Program>,
    nthreads: usize,
    simcfg: &SimConfig,
    max_steps: u64,
    obs: &Observer,
) -> Result<(SimStats, TimingModel), LoopPointError> {
    let mut span = obs.span(names::SPAN_LIVE_DETAIL, names::CAT_LIVE);
    span.arg("region", region.index);
    let mut rsim = match start.warm {
        Some((state, timing)) => {
            Simulator::from_machine_warm(Machine::from_snapshot(program.clone(), &state), timing)
        }
        None => Simulator::new(program.clone(), nthreads, simcfg.clone()),
    };
    rsim.set_observer(obs.clone());
    if let Some(end) = region.end {
        rsim.watch_pc_from(end.pc, start.counts.get(end.pc).copied().unwrap_or(0));
    }
    let stats = rsim.run_region(None, region.end, max_steps)?;
    span.arg("cycles", stats.cycles);
    span.arg("instructions", stats.instructions);
    Ok((stats, rsim.into_timing()))
}

/// Compact, serializable outcome of one live job (the lp-farm wire format
/// embeds this verbatim, mirroring [`crate::JobSummary`] for two-phase
/// jobs).
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSummary {
    /// Regions classified.
    pub regions: usize,
    /// Clusters spawned.
    pub clusters: usize,
    /// Regions simulated in detail.
    pub detailed_regions: usize,
    /// Regions predicted.
    pub predicted_regions: usize,
    /// Fraction of regions simulated in detail (`0..=1`).
    pub detailed_pct: f64,
    /// Estimated whole-program cycles.
    pub est_cycles: f64,
    /// Estimated whole-program IPC.
    pub est_ipc: f64,
    /// Whole-program instruction count.
    pub total_insts: u64,
}

impl LiveSummary {
    /// Builds the summary from a finished outcome.
    pub fn from_outcome(o: &LiveOutcome) -> Self {
        LiveSummary {
            regions: o.regions.len(),
            clusters: o.clusters.len(),
            detailed_regions: o.detailed_regions,
            predicted_regions: o.predicted_regions,
            detailed_pct: o.detailed_fraction(),
            est_cycles: o.est_total_cycles,
            est_ipc: o.est_ipc(),
            total_insts: o.total_insts,
        }
    }

    /// The summary as a JSON object (stable field names).
    pub fn to_value(&self) -> lp_obs::json::Value {
        use lp_obs::json::Value;
        Value::Obj(vec![
            ("mode".to_string(), Value::Str("live".to_string())),
            ("regions".to_string(), Value::Int(self.regions as i128)),
            ("clusters".to_string(), Value::Int(self.clusters as i128)),
            (
                "detailed_regions".to_string(),
                Value::Int(self.detailed_regions as i128),
            ),
            (
                "predicted_regions".to_string(),
                Value::Int(self.predicted_regions as i128),
            ),
            ("detailed_pct".to_string(), Value::Num(self.detailed_pct)),
            ("est_cycles".to_string(), Value::Num(self.est_cycles)),
            ("est_ipc".to_string(), Value::Num(self.est_ipc)),
            (
                "total_insts".to_string(),
                Value::Int(self.total_insts as i128),
            ),
        ])
    }
}

/// Runs one live job end to end and returns its compact summary — the
/// live-mode sibling of [`crate::run_job`], used by the lp-farm backend.
/// `progress` receives the same per-region partials [`analyze_live`]
/// emits.
///
/// # Errors
/// As [`analyze_live`].
pub fn run_live_job(
    program: &Arc<Program>,
    nthreads: usize,
    cfg: &LiveConfig,
    simcfg: &SimConfig,
    progress: &mut dyn FnMut(&LiveProgress),
) -> Result<LiveSummary, LoopPointError> {
    let outcome = analyze_live(program, nthreads, cfg, simcfg, progress)?;
    Ok(LiveSummary::from_outcome(&outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::simulate_whole;
    use crate::testutil::phased_program;
    use lp_omp::WaitPolicy;

    fn live_cfg() -> LiveConfig {
        LiveConfig {
            obs: Observer::enabled(),
            ..LiveConfig::with_slice_base(2_000)
        }
    }

    #[test]
    fn live_run_skips_detail_for_repeated_phases() {
        let nthreads = 2;
        let program = phased_program(nthreads, WaitPolicy::Passive, 10);
        let simcfg = SimConfig::gainestown(nthreads);
        let mut partials = Vec::new();
        let outcome = analyze_live(&program, nthreads, &live_cfg(), &simcfg, &mut |p| {
            partials.push(p.clone())
        })
        .unwrap();

        assert!(outcome.regions.len() >= 4, "{}", outcome.regions.len());
        assert_eq!(
            outcome.detailed_regions + outcome.predicted_regions,
            outcome.regions.len()
        );
        assert!(
            outcome.predicted_regions > 0,
            "repeated phases must be predicted, not re-simulated"
        );
        assert!(outcome.detailed_fraction() < 1.0);
        assert!(outcome.est_total_cycles > 0.0);
        // Partial results: one per region plus the final done line.
        assert_eq!(partials.len(), outcome.regions.len() + 1);
        let last = partials.last().unwrap();
        assert!(last.done);
        assert!(!partials[0].done);
        // The stream's last line is the outcome's estimate, bit for bit.
        assert_eq!(
            last.est_cycles.to_bits(),
            outcome.est_total_cycles.to_bits()
        );
        assert_eq!(last.est_ipc.to_bits(), outcome.est_ipc().to_bits());
        // The estimate lands near the measured whole-program run.
        let full = simulate_whole(&program, nthreads, &simcfg).unwrap();
        let err = crate::error_pct(outcome.est_total_cycles, full.cycles as f64);
        assert!(
            err < 25.0,
            "live estimate off by {err:.1}% (est {}, actual {})",
            outcome.est_total_cycles,
            full.cycles
        );
    }

    #[test]
    fn cancellation_is_honored_between_regions() {
        let nthreads = 2;
        let program = phased_program(nthreads, WaitPolicy::Passive, 4);
        let cancel = crate::CancelToken::new();
        cancel.cancel();
        let cfg = LiveConfig {
            cancel,
            ..live_cfg()
        };
        let err = analyze_live(
            &program,
            nthreads,
            &cfg,
            &SimConfig::gainestown(nthreads),
            &mut |_| {},
        )
        .unwrap_err();
        assert!(matches!(err, LoopPointError::Cancelled), "{err}");
    }

    #[test]
    fn live_summary_serializes_every_field() {
        let nthreads = 2;
        let program = phased_program(nthreads, WaitPolicy::Passive, 5);
        let summary = run_live_job(
            &program,
            nthreads,
            &live_cfg(),
            &SimConfig::gainestown(nthreads),
            &mut |_| {},
        )
        .unwrap();
        let v = summary.to_value();
        for key in [
            "mode",
            "regions",
            "clusters",
            "detailed_regions",
            "predicted_regions",
            "detailed_pct",
            "est_cycles",
            "est_ipc",
            "total_insts",
        ] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
        assert_eq!(v.get("mode").unwrap().as_str(), Some("live"));
    }
}
