//! Pure text renderers for the client commands: documents in, `String`
//! out — polling, terminals and ANSI stay with the commands, so every
//! line a user sees here is reachable from a test.

use lp_obs::json::Value;
use lp_obs::names;
use lp_obs::timeseries::HistoryColumn;
use std::collections::HashMap;

/// An ASCII sparkline of `values` scaled to their max, right-aligned in
/// a `width`-char field (recent samples rightmost).
pub fn sparkline(values: &[f64], width: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#@";
    let top = RAMP.len() - 1;
    // Never zero, so an all-idle history divides to the lowest mark.
    let max = values.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
    let mark = |v: &f64| RAMP[((v / max * top as f64).round() as usize).min(top)] as char;
    let recent = &values[values.len().saturating_sub(width)..];
    format!("{:>width$}", recent.iter().map(mark).collect::<String>())
}

/// Width of the jobs/s sparkline column of a `top` frame.
const SPARK_WIDTH: usize = 24;

/// What `top` remembers of one node's `/metrics/history` between frames.
#[derive(Debug, Default)]
pub struct NodeHistory {
    /// Highest sample sequence absorbed — the next poll's `since`.
    pub since: u64,
    /// The `values` object of the newest sample.
    latest: Option<Value>,
    /// Recent jobs/s samples, oldest first, at most [`SPARK_WIDTH`].
    rates: Vec<f64>,
}

impl NodeHistory {
    /// Absorbs one `/metrics/history` NDJSON body (a sample per line).
    pub fn absorb(&mut self, ndjson: &str) {
        let rate = HistoryColumn::rate(names::FARM_DONE).label;
        for sample in ndjson.lines().filter_map(|l| lp_obs::json::parse(l).ok()) {
            let seq = sample.get("seq").and_then(Value::as_u64);
            self.since = self.since.max(seq.unwrap_or(0));
            let Some(values) = sample.get("values") else {
                continue;
            };
            self.rates.extend(values.get(&rate).and_then(Value::as_f64));
            self.latest = Some(values.clone());
        }
        let excess = self.rates.len().saturating_sub(SPARK_WIDTH);
        self.rates.drain(..excess);
    }
}

/// The metric `name` in `section` of a node snapshot; absent reads as 0.
fn metric(doc: &Value, section: &str, name: &str) -> f64 {
    let value = doc.get(section).and_then(|s| s.get(name));
    value.and_then(Value::as_f64).unwrap_or(0.0)
}

/// One frame of the `top` dashboard from a `GET /cluster/metrics`
/// document (`nodes`: `{node, ordinal, metrics}` each, `errors`) and the
/// per-node history absorbed so far: a header, the cluster totals, and a
/// row per node (jobs/s, queue depth, running, dedup %, queue-wait
/// p50/p99 in ms, jobs/s history).
pub fn top_frame(
    via: &str,
    frame: u64,
    federated: &Value,
    history: &HashMap<String, NodeHistory>,
) -> String {
    let members = |key: &str| federated.get(key).and_then(Value::as_arr).unwrap_or(&[]);
    let nodes: Vec<(&str, &Value)> = members("nodes")
        .iter()
        .filter_map(|n| Some((n.get("node")?.as_str()?, n)))
        .collect();
    let total = |section: &str, name: &str| -> f64 {
        let per_node = nodes.iter().filter_map(|(_, n)| n.get("metrics"));
        per_node.map(|m| metric(m, section, name)).sum()
    };
    let mut out = format!(
        "lp-farm top — {} node{} via {via} — frame {frame}{}\n",
        nodes.len(),
        if nodes.len() == 1 { "" } else { "s" },
        match members("errors").len() {
            0 => String::new(),
            n => format!(" — {n} unreachable"),
        },
    );
    out.push_str(&format!(
        "cluster: {:.0} submitted, {:.0} done, {:.0} queued, {:.0} running\n\n",
        total("counters", names::FARM_SUBMITTED),
        total("counters", names::FARM_DONE),
        total("gauges", names::FARM_QUEUE_DEPTH),
        total("gauges", names::FARM_RUNNING),
    ));
    out.push_str(&format!(
        "{:<21} {:>3} {:>7} {:>5} {:>4} {:>6} {:>8} {:>8}  {}\n",
        "NODE", "ORD", "JOBS/S", "QUEUE", "RUN", "DEDUP%", "P50MS", "P99MS", "JOBS/S HISTORY"
    ));
    let rate = HistoryColumn::rate(names::FARM_DONE).label;
    let wait_p50 = HistoryColumn::quantile(names::FARM_QUEUE_WAIT_US, 0.50).label;
    let wait_p99 = HistoryColumn::quantile(names::FARM_QUEUE_WAIT_US, 0.99).label;
    let no_history = NodeHistory::default();
    for (addr, node) in nodes {
        let seen = history.get(addr).unwrap_or(&no_history);
        let latest = |label: &str| {
            let value = seen.latest.as_ref().and_then(|v| v.get(label));
            value.and_then(Value::as_f64).unwrap_or(0.0)
        };
        let metrics = node.get("metrics").unwrap_or(&Value::Null);
        let submitted = metric(metrics, "counters", names::FARM_SUBMITTED);
        let dedup = if submitted > 0.0 {
            100.0 * metric(metrics, "counters", names::FARM_DEDUP_HITS) / submitted
        } else {
            0.0
        };
        out.push_str(&format!(
            "{addr:<21} {:>3} {:>7.1} {:>5.0} {:>4.0} {dedup:>6.1} {:>8.2} {:>8.2}  {}\n",
            node.get("ordinal").and_then(Value::as_u64).unwrap_or(0),
            latest(&rate),
            metric(metrics, "gauges", names::FARM_QUEUE_DEPTH),
            metric(metrics, "gauges", names::FARM_RUNNING),
            latest(&wait_p50) / 1_000.0,
            latest(&wait_p99) / 1_000.0,
            sparkline(&seen.rates, SPARK_WIDTH),
        ));
    }
    out
}

/// Rebuilds the span tree of a Chrome `trace_event` document (using the
/// `span_id`/`parent_span_id` args the exporter embeds) and renders it
/// as indented text: one line per span with offset-from-root and
/// duration, instant markers inlined under the span they belong to.
///
/// # Errors
/// A message when the document has no `traceEvents` or no events.
pub fn render_trace_tree(title: &str, doc: &Value) -> Result<String, String> {
    struct Ev {
        name: String,
        ts: u64,
        dur: u64,
        span: String,
        parent: String,
        instant: bool,
        detail: String,
    }

    let raw = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("document has no traceEvents array")?;
    let mut events = Vec::with_capacity(raw.len());
    for e in raw {
        let arg = |key: &str| e.get("args").and_then(|a| a.get(key));
        let text = |key: &str| arg(key).and_then(Value::as_str).unwrap_or("").to_string();
        let ph = e.get("ph").and_then(Value::as_str).unwrap_or("");
        if ph == "M" {
            continue; // viewer metadata (process_name lanes), not a span
        }
        // The dedup marker's payload is worth surfacing inline.
        let detail = match (text("detail"), text("primary_trace_id")) {
            (d, _) if !d.is_empty() => d,
            (_, p) if !p.is_empty() => format!(
                "primary job {} trace {p}",
                arg("primary").and_then(Value::as_u64).unwrap_or(0)
            ),
            _ => String::new(),
        };
        events.push(Ev {
            name: e
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            ts: e.get("ts").and_then(Value::as_u64).unwrap_or(0),
            dur: e.get("dur").and_then(Value::as_u64).unwrap_or(0),
            span: text("span_id"),
            parent: text("parent_span_id"),
            instant: ph == "i" || ph == "I",
            detail,
        });
    }
    if events.is_empty() {
        return Err("trace has no events".to_string());
    }

    // Tree nodes are the Complete spans, keyed by span id; instants hang
    // off the span they ran inside (their own span id when it names a
    // span, else their parent's).
    let mut span_of: HashMap<&str, usize> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        if !ev.instant && !ev.span.is_empty() {
            span_of.entry(ev.span.as_str()).or_insert(i);
        }
    }
    let mut children: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut roots = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let home = if ev.instant {
            span_of
                .get(ev.span.as_str())
                .or_else(|| span_of.get(ev.parent.as_str()))
                .copied()
        } else {
            span_of.get(ev.parent.as_str()).copied().filter(|&p| p != i)
        };
        match home {
            Some(p) => children.entry(p).or_default().push(i),
            None => roots.push(i),
        }
    }
    for kids in children.values_mut() {
        kids.sort_by_key(|&i| (events[i].ts, events[i].instant));
    }
    roots.sort_by_key(|&i| events[i].ts);

    let base = roots.iter().map(|&i| events[i].ts).min().unwrap_or(0);
    let ms = |us: u64| us as f64 / 1_000.0;
    let mut out = format!("trace for {title} ({} events)\n", events.len());
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        let ev = &events[i];
        let indent = "  ".repeat(depth);
        if ev.instant {
            let detail = if ev.detail.is_empty() {
                String::new()
            } else {
                format!("  ({})", ev.detail)
            };
            out.push_str(&format!(
                "{indent}@ {:<28} +{:.3} ms{detail}\n",
                ev.name,
                ms(ev.ts.saturating_sub(base)),
            ));
        } else {
            out.push_str(&format!(
                "{indent}{:<30} +{:.3} ms  {:.3} ms\n",
                ev.name,
                ms(ev.ts.saturating_sub(base)),
                ms(ev.dur),
            ));
            if let Some(kids) = children.get(&i) {
                for &k in kids.iter().rev() {
                    stack.push((k, depth + 1));
                }
            }
        }
    }
    Ok(out)
}
