//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is recorded from the benchmark's side of a public call — name,
//! start, end, parent, pass — kept in a `Vec` and written as Chrome-trace
//! JSON at exit. A layer's self time is its spans' duration minus the
//! part their child spans cover. With tracing off [`Tracer::begin`] and
//! [`Tracer::end`] only read the clock, so the end-to-end run pays one
//! `Instant::now` pair per call.

use lp_obs::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are microseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub pass: u32,
    pub lane: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Handle returned by [`Tracer::begin`]; carries the start time so the
/// caller gets the elapsed seconds back whether or not spans are kept.
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

/// Span recorder for one thread of the benchmark.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    lane: u32,
    pass: u32,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`, so the tracers of
    /// several client threads share one time axis. `lane` becomes the
    /// Chrome-trace thread id.
    pub fn new(enabled: bool, origin: Instant, lane: u32) -> Tracer {
        Tracer {
            enabled,
            origin,
            lane,
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Switches span keeping on or off; open spans must be closed first.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggle between spans only");
        self.enabled = enabled;
    }

    /// Spans begun from now on carry this pass id.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    pub fn pass(&self) -> u32 {
        self.pass
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_us: started.duration_since(self.origin).as_secs_f64() * 1e6,
                end_us: f64::NAN,
                parent: self.stack.last().copied(),
                pass: self.pass,
                lane: self.lane,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, started }
    }

    /// Closes `open` and returns the seconds it covered.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(index) = open.index {
            self.spans[index].end_us = now.duration_since(self.origin).as_secs_f64() * 1e6;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans must close innermost first");
        }
        now.duration_since(open.started).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; returns its value and seconds.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let value = f();
        (value, self.end(open))
    }

    /// Takes another thread's finished spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Seconds of self time per span name: duration minus child durations.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_us();
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, us) in spans.iter().zip(own) {
        *by_name.entry(s.name).or_insert(0.0) += us / 1e6;
    }
    by_name
}

/// Seconds the spans named `name` cover in the pass where they cover
/// least. Every spanned pass repeats the same calls and the host's noise
/// only ever adds time, so the fastest pass is the best estimate of what a
/// layer costs; 0 when no pass has such a span.
pub fn best_pass_seconds(spans: &[Span], name: &str) -> f64 {
    let mut by_pass: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_pass.entry(s.pass).or_insert(0.0) += s.dur_us() / 1e6;
    }
    by_pass.into_values().reduce(f64::min).unwrap_or(0.0)
}

/// Number of spans per name.
pub fn counts(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for s in spans {
        *by_name.entry(s.name).or_insert(0) += 1;
    }
    by_name
}

/// The spans as a Chrome `trace_event` document (complete events; the
/// layer is the part of the span name before the first dot).
pub fn chrome_json(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![("pass".to_string(), Value::Int(i128::from(s.pass)))];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Value::Str(spans[p].name.to_string())));
            }
            Value::Obj(vec![
                ("name".to_string(), Value::Str(s.name.to_string())),
                (
                    "cat".to_string(),
                    Value::Str(s.name.split('.').next().unwrap_or(s.name).to_string()),
                ),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("ts".to_string(), Value::Num(s.start_us)),
                ("dur".to_string(), Value::Num(s.dur_us())),
                ("pid".to_string(), Value::Int(1)),
                ("tid".to_string(), Value::Int(i128::from(s.lane))),
                ("args".to_string(), Value::Obj(args)),
            ])
        })
        .collect();
    Value::Obj(vec![("traceEvents".to_string(), Value::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            pass: 1,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("pass", 0.0, 10e6, None),
            span("core.analyze", 1e6, 7e6, Some(0)),
            span("pinball.replay", 2e6, 5e6, Some(1)),
            span("core.analyze", 7e6, 9e6, Some(0)),
        ];
        let own = self_seconds(&spans);
        assert_eq!(own["pass"], 2.0);
        assert_eq!(own["core.analyze"], 5.0);
        assert_eq!(own["pinball.replay"], 3.0);
        assert_eq!(own.values().sum::<f64>(), 10.0);
        assert_eq!(counts(&spans)["core.analyze"], 2);
    }

    #[test]
    fn best_pass_is_the_one_where_a_name_took_least() {
        let mut spans = vec![
            span("sim.ooo", 0.0, 3e6, None),
            span("sim.ooo", 3e6, 5e6, None),
            span("sim.inorder", 5e6, 6e6, None),
        ];
        let mut second = vec![
            span("sim.ooo", 6e6, 8e6, None),
            span("sim.ooo", 8e6, 10.5e6, None),
        ];
        second.iter_mut().for_each(|s| s.pass = 2);
        spans.extend(second);
        assert_eq!(best_pass_seconds(&spans, "sim.ooo"), 4.5);
        assert_eq!(best_pass_seconds(&spans, "sim.inorder"), 1.0);
        assert_eq!(best_pass_seconds(&spans, "absent"), 0.0);
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_survive_a_merge() {
        let origin = Instant::now();
        let mut main = Tracer::new(true, origin, 0);
        let outer = main.begin("outer");
        let ((), secs) = main.timed("inner", || ());
        assert!(secs >= 0.0);
        main.end(outer);
        let mut worker = Tracer::new(true, origin, 1);
        let a = worker.begin("a");
        worker.timed("b", || ());
        worker.end(a);
        main.absorb(worker);
        let parents: Vec<_> = main.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
        assert!(main.spans.iter().all(|s| s.end_us >= s.start_us));
    }

    #[test]
    fn disabled_tracer_keeps_no_spans_but_still_times() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let (v, secs) = t.timed("x", || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn chrome_document_round_trips_through_the_parser() {
        let spans = vec![
            span("pass", 0.0, 4.5, None),
            span("sim.ooo \"q\"", 1.25, 3.0, Some(0)),
        ];
        let text = chrome_json(&spans).to_string();
        let doc = lp_obs::json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").unwrap().as_str(),
            Some("sim.ooo \"q\"")
        );
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("sim"));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(1.75));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_str(),
            Some("pass")
        );
    }
}
