//! A bounded, work-stealing worker pool for region simulations.
//!
//! Region simulations are embarrassingly parallel, but spawning one
//! unbounded OS thread per region oversubscribes the host as soon as the
//! clustering picks tens of looppoints. This pool caps concurrency at a
//! given width (`SimOptions::pool_size`), lets workers steal items off a
//! shared atomic cursor, and aborts outstanding work on the first error
//! via a shared cancel flag — failed pipelines stop burning CPU instead of
//! running every remaining region to completion.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Effective pool width: `requested`, clamped to `[1, items]`.
pub(crate) fn effective_pool_size(requested: usize, items: usize) -> usize {
    requested.clamp(1, items.max(1))
}

/// Runs `f` over `items` on [`effective_pool_size`] worker threads.
///
/// Items are claimed work-stealing style off a shared atomic cursor, so an
/// expensive item never serializes the queue behind it. The first `Err`
/// raises the shared cancel flag: workers finish their in-flight item and
/// stop claiming new ones. Results come back in item order; the returned
/// error is the erroring item with the lowest index (deterministic even
/// when several items fail concurrently).
///
/// Per-claim, the current number of busy workers is recorded into the
/// `region.pool.occupancy` histogram so pool utilization shows up in the
/// metrics report.
pub(crate) fn run_cancelable<T, R, E, F>(items: &[T], pool_size: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    let obs = lp_obs::global();
    let occupancy = obs.histogram("region.pool.occupancy");
    let workers = effective_pool_size(pool_size, items.len());
    obs.gauge("region.pool.size").set(workers as f64);

    let cursor = AtomicUsize::new(0);
    let active = AtomicUsize::new(0);
    let cancel = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<R, E>>>> = items.iter().map(|_| Mutex::new(None)).collect();

    // The ambient trace context is thread-local; capture the caller's and
    // re-attach it in each worker so region-sim spans stay parented under
    // the pipeline (and, transitively, the farm job) that spawned them.
    let trace_ctx = lp_obs::tracectx::current();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _trace_guard = trace_ctx.as_ref().map(|c| c.attach());
                loop {
                    if cancel.load(Ordering::Acquire) {
                        break;
                    }
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= items.len() {
                        break;
                    }
                    let busy = active.fetch_add(1, Ordering::Relaxed) + 1;
                    occupancy.record(busy as u64);
                    let result = f(&items[idx]);
                    if result.is_err() {
                        cancel.store(true, Ordering::Release);
                    }
                    *slots[idx].lock().expect("pool slot poisoned") = Some(result);
                    active.fetch_sub(1, Ordering::Relaxed);
                }
            });
        }
    });

    // First error in item order wins; on cancellation later slots may be
    // unvisited (None), which is fine — the error precedes them.
    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        match slot.into_inner().expect("pool slot poisoned") {
            Some(Ok(r)) => out.push(r),
            Some(Err(e)) => return Err(e),
            None => break,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_all_items_in_order() {
        let items: Vec<u64> = (0..37).collect();
        let out: Vec<u64> = run_cancelable(&items, 4, |&x| Ok::<_, ()>(x * 2)).unwrap();
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_is_serial() {
        let items: Vec<u64> = (0..5).collect();
        let out: Vec<u64> = run_cancelable(&items, 1, |&x| Ok::<_, ()>(x + 1)).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn first_error_cancels_outstanding_work() {
        let items: Vec<u64> = (0..1000).collect();
        let executed = AtomicUsize::new(0);
        let err = run_cancelable(&items, 2, |&x| {
            executed.fetch_add(1, Ordering::Relaxed);
            if x == 3 {
                Err(format!("boom at {x}"))
            } else {
                // Slow non-failing items so cancellation can win the race.
                std::thread::sleep(std::time::Duration::from_micros(200));
                Ok(x)
            }
        })
        .unwrap_err();
        assert!(err.starts_with("boom"));
        let ran = executed.load(Ordering::Relaxed);
        assert!(
            ran < items.len(),
            "cancel flag must abort outstanding work (ran {ran}/{})",
            items.len()
        );
    }

    #[test]
    fn lowest_index_error_is_reported() {
        let items: Vec<u64> = (0..8).collect();
        // Every item fails; the reported error must be item 0's.
        let err = run_cancelable(&items, 4, |&x| Err::<(), _>(x)).unwrap_err();
        assert_eq!(err, 0);
    }

    #[test]
    fn effective_size_clamps() {
        assert_eq!(effective_pool_size(99, 3), 3);
        assert_eq!(effective_pool_size(2, 10), 2);
        assert_eq!(effective_pool_size(0, 10), 1);
        assert_eq!(effective_pool_size(0, 0), 1);
    }

    #[test]
    fn zero_width_still_runs_every_item() {
        let items: Vec<u64> = (0..5).collect();
        let out = run_cancelable(&items, 0, |&x| Ok::<_, ()>(x + 1)).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_items_is_empty_result() {
        let items: Vec<u64> = Vec::new();
        let out: Vec<u64> = run_cancelable(&items, 4, |&x| Ok::<_, ()>(x)).unwrap();
        assert!(out.is_empty());
    }
}
