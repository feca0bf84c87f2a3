//! The metrics registry: named counters, gauges, and log₂-bucketed
//! histograms with lock-free updates on the hot path.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones;
//! look one up once, then update it with a single atomic op per event.
//! Handles from a disabled [`crate::Observer`] are no-ops.

use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a value: 0 holds exactly 0; bucket `i >= 1` holds
/// `[2^(i-1), 2^i)` — so 1 maps to bucket 1, `u64::MAX` to bucket 64.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i` (see [`bucket_index`]).
#[inline]
pub fn bucket_lower_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating accumulate: a sum overflow must not wrap silently.
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(value);
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((bucket_lower_bound(i), c));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A monotonically increasing named counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n` to the counter (no-op when disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A named gauge holding the most recent `f64` sample.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge (no-op when disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when disabled).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

/// A named histogram over `u64` samples, log₂-bucketed.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one sample (no-op when disabled).
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.record(value);
        }
    }

    /// Snapshot of the current distribution (empty when disabled).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.as_ref().map(|h| h.snapshot()).unwrap_or_default()
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded samples.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// `(bucket lower bound, sample count)` for every non-empty bucket,
    /// in ascending bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) from the log₂
    /// buckets: the target rank's bucket is found by cumulative count,
    /// then the value is linearly interpolated across the bucket's
    /// `[2^i, 2^(i+1))` range. Exact for the zero bucket; within one
    /// bucket width otherwise. Returns `0.0` on an empty histogram.
    ///
    /// This is the one shared quantile implementation — the flat-JSON
    /// metrics export and the `/metrics/history` quantile columns both
    /// come from here.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for &(lo, c) in &self.buckets {
            let next = seen + c;
            if next as f64 >= target {
                if lo == 0 {
                    return 0.0;
                }
                let hi = lo.saturating_mul(2).max(lo);
                let frac = if c == 0 {
                    0.0
                } else {
                    ((target - seen as f64) / c as f64).clamp(0.0, 1.0)
                };
                return lo as f64 + frac * (hi - lo) as f64;
            }
            seen = next;
        }
        self.buckets.last().map_or(0.0, |&(lo, _)| lo as f64)
    }

    /// The median ([`HistogramSnapshot::quantile`] at 0.5).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// The 90th percentile.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// The registry: name → metric, created on first use.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
}

impl MetricsRegistry {
    /// The counter registered under `name` (created zeroed on first use).
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("metrics registry poisoned");
        let arc = map.entry(name.to_string()).or_default();
        Counter(Some(Arc::clone(arc)))
    }

    /// The gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("metrics registry poisoned");
        let arc = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits())));
        Gauge(Some(Arc::clone(arc)))
    }

    /// The histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().expect("metrics registry poisoned");
        let arc = map.entry(name.to_string()).or_default();
        Histogram(Some(Arc::clone(arc)))
    }

    /// A consistent point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Point-in-time copy of the whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as the metrics-report JSON document.
    pub fn to_json(&self) -> Value {
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Value::from(v)))
                .collect(),
        );
        let gauges = Value::Obj(
            self.gauges
                .iter()
                .map(|(k, &v)| (k.clone(), Value::Num(v)))
                .collect(),
        );
        let histograms = Value::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    let buckets = Value::Arr(
                        h.buckets
                            .iter()
                            .map(|&(lo, c)| Value::Arr(vec![Value::from(lo), Value::from(c)]))
                            .collect(),
                    );
                    (
                        k.clone(),
                        Value::Obj(vec![
                            ("count".to_string(), Value::from(h.count)),
                            ("sum".to_string(), Value::from(h.sum)),
                            ("p50".to_string(), Value::Num(h.p50())),
                            ("p90".to_string(), Value::Num(h.p90())),
                            ("p99".to_string(), Value::Num(h.p99())),
                            ("buckets".to_string(), buckets),
                        ]),
                    )
                })
                .collect(),
        );
        Value::Obj(vec![
            ("counters".to_string(), counters),
            ("gauges".to_string(), gauges),
            ("histograms".to_string(), histograms),
        ])
    }

    /// Parses a document produced by [`MetricsSnapshot::to_json`] back into
    /// a snapshot, so one node can federate another node's `/metrics.json`.
    /// Quantile fields are ignored (they are derived from the buckets).
    pub fn from_json(doc: &Value) -> Result<MetricsSnapshot, String> {
        fn members<'a>(doc: &'a Value, key: &str) -> Result<&'a [(String, Value)], String> {
            match doc.get(key) {
                Some(Value::Obj(members)) => Ok(members),
                Some(_) => Err(format!("metrics field {key:?} is not an object")),
                None => Err(format!("metrics document is missing {key:?}")),
            }
        }
        let mut snap = MetricsSnapshot::default();
        for (name, v) in members(doc, "counters")? {
            let v = v
                .as_u64()
                .ok_or_else(|| format!("counter {name:?} is not a u64"))?;
            snap.counters.insert(name.clone(), v);
        }
        for (name, v) in members(doc, "gauges")? {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("gauge {name:?} is not a number"))?;
            snap.gauges.insert(name.clone(), v);
        }
        for (name, h) in members(doc, "histograms")? {
            let count = h
                .get("count")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("histogram {name:?} is missing count"))?;
            let sum = h
                .get("sum")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("histogram {name:?} is missing sum"))?;
            let raw = h
                .get("buckets")
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("histogram {name:?} is missing buckets"))?;
            let mut buckets = Vec::with_capacity(raw.len());
            for pair in raw {
                let (lo, c) = match pair.as_arr() {
                    Some([lo, c]) => (lo.as_u64(), c.as_u64()),
                    _ => (None, None),
                };
                match (lo, c) {
                    (Some(lo), Some(c)) => buckets.push((lo, c)),
                    _ => return Err(format!("histogram {name:?} has a malformed bucket")),
                }
            }
            snap.histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    count,
                    sum,
                    buckets,
                },
            );
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
    }

    #[test]
    fn bucket_bounds_partition_the_domain() {
        // Every bucket's lower bound maps back into that bucket, and the
        // value just below it maps into the previous one.
        for i in 0..HISTOGRAM_BUCKETS {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            if i >= 2 {
                assert_eq!(bucket_index(lo - 1), i - 1);
            }
        }
    }

    #[test]
    fn histogram_records_edge_values() {
        let reg = MetricsRegistry::default();
        let h = reg.histogram("lat");
        h.record(0);
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        // Sum saturates instead of wrapping.
        assert_eq!(s.sum, u64::MAX);
        assert_eq!(s.buckets, vec![(0, 2), (1, 1), (1u64 << 63, 1)]);
    }

    #[test]
    fn counters_and_gauges() {
        let reg = MetricsRegistry::default();
        let c = reg.counter("insts");
        c.add(40);
        c.inc();
        c.inc();
        // Same name → same underlying cell.
        assert_eq!(reg.counter("insts").get(), 42);

        let g = reg.gauge("ipc");
        g.set(1.75);
        assert_eq!(reg.gauge("ipc").get(), 1.75);
    }

    #[test]
    fn disabled_handles_are_noops() {
        let c = Counter::default();
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = Gauge::default();
        g.set(2.0);
        assert_eq!(g.get(), 0.0);
        let h = Histogram::default();
        h.record(9);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn snapshot_roundtrips_via_json() {
        let reg = MetricsRegistry::default();
        reg.counter("a.b").add(u64::MAX);
        reg.gauge("g").set(0.5);
        reg.histogram("h").record(1023);
        let snap = reg.snapshot();
        let doc = crate::json::parse(&snap.to_json().to_string()).unwrap();
        assert_eq!(
            doc.get("counters").unwrap().get("a.b").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(
            doc.get("gauges").unwrap().get("g").unwrap().as_f64(),
            Some(0.5)
        );
        let h = doc.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(h.get("sum").unwrap().as_u64(), Some(1023));
    }

    #[test]
    fn snapshot_parses_back_from_json() {
        let reg = MetricsRegistry::default();
        reg.counter("c").add(7);
        reg.gauge("g").set(-2.5);
        let h = reg.histogram("h");
        h.record(0);
        h.record(100);
        let snap = reg.snapshot();
        let doc = crate::json::parse(&snap.to_json().to_string()).unwrap();
        let back = MetricsSnapshot::from_json(&doc).unwrap();
        assert_eq!(back, snap);

        // Malformed documents are rejected, not mis-parsed.
        assert!(MetricsSnapshot::from_json(&Value::Null).is_err());
        let bad = crate::json::parse(r#"{"counters":{"c":-1},"gauges":{},"histograms":{}}"#);
        assert!(MetricsSnapshot::from_json(&bad.unwrap()).is_err());
    }

    #[test]
    fn quantiles_from_log2_buckets() {
        // Empty → 0.
        assert_eq!(HistogramSnapshot::default().p50(), 0.0);

        // All samples zero → every quantile is exactly 0.
        let reg = MetricsRegistry::default();
        let h = reg.histogram("z");
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.p99(), 0.0);

        // A single-bucket distribution interpolates inside the bucket:
        // 100 samples in [64, 128) → p50 lands mid-bucket, p99 near the top.
        let h = reg.histogram("one");
        for _ in 0..100 {
            h.record(100);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![(64, 100)]);
        assert!((s.p50() - 96.0).abs() < 1.0, "p50 = {}", s.p50());
        assert!(s.p99() > 124.0 && s.p99() <= 128.0, "p99 = {}", s.p99());
        // Quantiles are monotone in q.
        assert!(s.p50() <= s.p90() && s.p90() <= s.p99());

        // Two well-separated buckets: 90 cheap + 10 expensive samples →
        // p50 sits in the cheap bucket, p99 in the expensive one.
        let h = reg.histogram("two");
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(5_000);
        }
        let s = h.snapshot();
        assert!(s.p50() >= 8.0 && s.p50() < 16.0, "p50 = {}", s.p50());
        assert!(s.p99() >= 4096.0 && s.p99() < 8192.0, "p99 = {}", s.p99());

        // q is clamped; the top bucket saturates rather than overflowing.
        let h = reg.histogram("sat");
        h.record(u64::MAX);
        let s = h.snapshot();
        assert!(s.quantile(2.0).is_finite());
        assert!(s.quantile(-1.0) >= 0.0);
    }

    #[test]
    fn json_export_carries_quantiles() {
        let reg = MetricsRegistry::default();
        let h = reg.histogram("lat");
        for _ in 0..10 {
            h.record(100);
        }
        let doc = crate::json::parse(&reg.snapshot().to_json().to_string()).unwrap();
        let lat = doc.get("histograms").unwrap().get("lat").unwrap();
        let p50 = lat.get("p50").unwrap().as_f64().unwrap();
        let p99 = lat.get("p99").unwrap().as_f64().unwrap();
        assert!((64.0..128.0).contains(&p50), "p50 = {p50}");
        assert!(p50 <= p99 && p99 <= 128.0);
        assert!(lat.get("p90").is_some());
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let reg = std::sync::Arc::new(MetricsRegistry::default());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = std::sync::Arc::clone(&reg);
                std::thread::spawn(move || {
                    let c = reg.counter("n");
                    let h = reg.histogram("d");
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i % 17);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(reg.counter("n").get(), 80_000);
        assert_eq!(reg.histogram("d").snapshot().count, 80_000);
    }
}
