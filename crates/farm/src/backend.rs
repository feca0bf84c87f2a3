//! What the farm executes: the [`JobBackend`] trait and the production
//! [`PipelineBackend`] that runs the full LoopPoint pipeline.
//!
//! The queue/supervisor machinery is generic over the backend so the
//! fault-tolerance tests can plug in deterministic mock backends (panic
//! on demand, fail N times then succeed, block until cancelled) without
//! paying for real pipeline runs.

use crate::job::JobSpec;
use looppoint::{CancelToken, LoopPointConfig, SimOptions};
use lp_isa::Program;
use lp_obs::Observer;
use lp_store::{ArtifactKind, Store, StoreKey, StoreKeyBuilder};
use lp_uarch::SimConfig;
use lp_workloads::InputClass;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The compute a farm worker performs for one job.
///
/// `job_key` must be a *content key*: two specs that would produce the
/// same result must map to the same key (that is what dedup keys on),
/// and specs producing different results must differ. `execute` returns
/// the result as a JSON document (stored verbatim in the job record) or
/// a human-readable error; it should poll `cancel` and bail out promptly
/// once tripped.
pub trait JobBackend: Send + Sync + 'static {
    /// Content key for dedup (32 lowercase hex chars by convention).
    ///
    /// # Errors
    /// A message when the spec is invalid (unknown program, bad enum).
    fn job_key(&self, spec: &JobSpec) -> Result<String, String>;

    /// Runs the job to completion (or until `cancel` trips). A backend
    /// may emit partial results — one JSON document per call — through
    /// `progress` while the job runs; the farm buffers them per job and
    /// streams them to `GET /jobs/{id}` followers. Backends without
    /// partials ignore the sink.
    ///
    /// # Errors
    /// A message on any pipeline failure; the farm decides on retry.
    fn execute(
        &self,
        spec: &JobSpec,
        cancel: &CancelToken,
        progress: &mut dyn FnMut(String),
    ) -> Result<String, String>;
}

/// Spec fields the content key depends on: (program, input, wait
/// policy, ncores, slice_base, max_steps, mode).
type KeyMemoKey = (String, String, String, usize, u64, u64, String);
/// Spec fields program expansion depends on: (program, input, wait
/// policy, ncores).
type ProgramMemoKey = (String, String, String, usize);

/// The production backend: resolves the named workload, builds the
/// program, and runs [`looppoint::run_job`] — store-backed when the farm
/// shares an artifact store, so identical work across daemon restarts is
/// also a cache hit, not just within one process.
pub struct PipelineBackend {
    store: Option<Arc<Store>>,
    obs: Observer,
    /// `job_key` memo: computing a key builds the whole program, which
    /// is far too slow to repeat for every submission of a hot spec
    /// (and `submit` calls it on the HTTP request path). Keyed on
    /// exactly the spec fields the content key depends on.
    key_memo: Mutex<HashMap<KeyMemoKey, StoreKey>>,
    /// Built-program memo: workload expansion is deterministic in
    /// (program, input, threads, wait policy), so repeat executions of a
    /// hot spec — the common case once the store is warm — share one
    /// immutable build instead of re-expanding per attempt.
    program_memo: Mutex<HashMap<ProgramMemoKey, (Arc<Program>, usize)>>,
}

impl PipelineBackend {
    /// A backend writing through `store` (if given) and reporting into
    /// `obs`. The store arrives shared (`Arc`) so the caller can keep
    /// its own handle to the same directory.
    pub fn new(store: Option<Arc<Store>>, obs: Observer) -> PipelineBackend {
        PipelineBackend {
            store,
            obs,
            key_memo: Mutex::new(HashMap::new()),
            program_memo: Mutex::new(HashMap::new()),
        }
    }

    /// Everything both `job_key` and `execute` need, derived once.
    fn setup(
        &self,
        spec: &JobSpec,
    ) -> Result<(Arc<Program>, usize, LoopPointConfig, SimConfig), String> {
        let memo_key = (
            spec.program.clone(),
            spec.input.clone(),
            spec.wait_policy.clone(),
            spec.ncores,
        );
        let (program, nthreads) = {
            let mut memo = self.program_memo.lock().expect("program memo lock");
            match memo.get(&memo_key) {
                Some((p, n)) => (Arc::clone(p), *n),
                None => {
                    let wspec = lp_workloads::find(&spec.program)
                        .ok_or_else(|| format!("unknown program '{}'", spec.program))?;
                    let input: InputClass = spec.input.parse()?;
                    let policy: lp_omp::WaitPolicy = spec.wait_policy.parse()?;
                    let nthreads = wspec.effective_threads(spec.ncores);
                    let program = lp_workloads::build(&wspec, input, spec.ncores, policy);
                    memo.insert(memo_key, (Arc::clone(&program), nthreads));
                    (program, nthreads)
                }
            }
        };
        // Inherit the worker's ambient trace context (the job's root, when
        // invoked from a farm worker) so run_job re-attaches it on its own
        // thread and every pipeline span joins the job's trace.
        let mut cfg = LoopPointConfig::with_slice_base(spec.slice_base)
            .with_observer(self.obs.clone())
            .with_trace(lp_obs::tracectx::current());
        cfg.max_steps = spec.max_steps;
        let simcfg = SimConfig::gainestown(nthreads.max(spec.ncores));
        Ok((program, nthreads, cfg, simcfg))
    }
}

impl PipelineBackend {
    /// The job's content [`StoreKey`] — what `job_key` renders as hex
    /// and the summary cache files under.
    fn store_key(&self, spec: &JobSpec) -> Result<StoreKey, String> {
        let memo_key = (
            spec.program.clone(),
            spec.input.clone(),
            spec.wait_policy.clone(),
            spec.ncores,
            spec.slice_base,
            spec.max_steps,
            spec.mode.clone(),
        );
        if let Some(key) = self.key_memo.lock().expect("key memo lock").get(&memo_key) {
            return Ok(*key);
        }
        let (program, nthreads, cfg, _) = self.setup(spec)?;
        // The analysis key already folds in the program content, thread
        // count, and every analysis knob; compose the simulation-side
        // parameters on top so jobs only dedup when the *whole* result
        // (summary included) would be identical.
        let mut kb = StoreKeyBuilder::new("farm/job/v1");
        kb.field_str(
            "analysis",
            &looppoint::analysis_key(&program, nthreads, &cfg).hex(),
        )
        .field_u64("max_steps", spec.max_steps)
        .field_str("mode", &spec.mode);
        let key = kb.finish();
        self.key_memo
            .lock()
            .expect("key memo lock")
            .insert(memo_key, key);
        Ok(key)
    }
}

impl JobBackend for PipelineBackend {
    fn job_key(&self, spec: &JobSpec) -> Result<String, String> {
        Ok(self.store_key(spec)?.hex())
    }

    fn execute(
        &self,
        spec: &JobSpec,
        cancel: &CancelToken,
        progress: &mut dyn FnMut(String),
    ) -> Result<String, String> {
        // Terminal-summary cache: the job key is a content key over the
        // whole result, so a stored summary under it IS the answer —
        // repeat work across daemon restarts skips the pipeline (and its
        // region re-simulation) entirely.
        let key = self.store_key(spec)?;
        if let Some(store) = &self.store {
            if let Some(bytes) = store.load(&key, ArtifactKind::JobSummary) {
                if let Ok(text) = String::from_utf8(bytes) {
                    return Ok(text);
                }
            }
        }
        let (program, nthreads, cfg, simcfg) = self.setup(spec)?;
        let text = if spec.mode == "live" {
            let live_cfg = looppoint::LiveConfig {
                slice_base: spec.slice_base,
                max_steps: spec.max_steps,
                obs: self.obs.clone(),
                cancel: cancel.clone(),
                trace: lp_obs::tracectx::current(),
                ..looppoint::LiveConfig::default()
            };
            let summary =
                looppoint::run_live_job(&program, nthreads, &live_cfg, &simcfg, &mut |p| {
                    progress(p.to_value().to_string());
                })
                .map_err(|e| e.to_string())?;
            summary.to_value().to_string()
        } else {
            let cfg = cfg.with_cancel(cancel.clone());
            let opts = SimOptions {
                max_steps: spec.max_steps,
                ..Default::default()
            };
            let summary = looppoint::run_job(
                &program,
                nthreads,
                &cfg,
                &simcfg,
                &opts,
                looppoint::WARMUP_SLICES,
                self.store.as_deref(),
            )
            .map_err(|e| e.to_string())?;
            summary.to_value().to_string()
        };
        if let Some(store) = &self.store {
            // Best-effort: losing the summary cache only costs a rerun.
            let _ = store.save(&key, ArtifactKind::JobSummary, text.as_bytes());
        }
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> JobSpec {
        JobSpec {
            program: "demo-matrix-1".to_string(),
            slice_base: 500,
            ..JobSpec::default()
        }
    }

    #[test]
    fn key_is_content_addressed() {
        let backend = PipelineBackend::new(None, Observer::disabled());
        let a = backend.job_key(&demo_spec()).unwrap();
        let b = backend.job_key(&demo_spec()).unwrap();
        assert_eq!(a, b, "identical specs share a key");
        assert_eq!(a.len(), 32);

        let mut other = demo_spec();
        other.ncores = 4;
        assert_ne!(
            backend.job_key(&other).unwrap(),
            a,
            "threads change the key"
        );
        let mut other = demo_spec();
        other.slice_base = 600;
        assert_ne!(
            backend.job_key(&other).unwrap(),
            a,
            "slicing changes the key"
        );
    }

    #[test]
    fn unknown_program_is_a_key_error() {
        let backend = PipelineBackend::new(None, Observer::disabled());
        let mut spec = demo_spec();
        spec.program = "no-such-app".to_string();
        let err = backend.job_key(&spec).unwrap_err();
        assert!(err.contains("unknown program"), "{err}");
    }

    #[test]
    fn execute_runs_the_pipeline_and_honors_cancel() {
        let backend = PipelineBackend::new(None, Observer::disabled());
        let spec = demo_spec();
        let out = backend
            .execute(&spec, &CancelToken::new(), &mut |_| {})
            .unwrap();
        let v = lp_obs::json::parse(&out).unwrap();
        assert!(v.get("predicted_cycles").unwrap().as_f64().unwrap() > 0.0);

        let tripped = CancelToken::new();
        tripped.cancel();
        let err = backend.execute(&spec, &tripped, &mut |_| {}).unwrap_err();
        assert!(err.contains("cancel"), "{err}");
    }
}
