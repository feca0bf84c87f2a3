//! `lp-perf` — the repo's layered performance ledger.
//!
//! One process runs one workload and prints every metric by name with
//! its unit, checks the outputs, and ends with one JSON result line.
//! Every layer is measured from outside, by timing calls into the
//! crates' public functions, with the process-global observer left in
//! its default (disabled) state. See `README.md` beside this file for
//! the metric definitions and the measured baseline.
//!
//! ```text
//! lp-perf [run] --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--smoke] [--trace-out <file>] [--out <file>]
//! lp-perf compare <a.ndjson> <b.ndjson>
//! lp-perf selfcheck [--seed <n>] [--seconds <s>] [--smoke]
//! lp-perf manifest
//! ```

#![forbid(unsafe_code)]

mod compare;
mod metrics;
mod service;
mod sim;
mod stats;
mod stream;
mod trace;

use lp_obs::json::Value;
use metrics::Ledger;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Test-scale inputs and a short job stream, for a CI gate.
    pub smoke: bool,
    pub trace_out: Option<String>,
    pub out: Option<String>,
}

/// State one run accumulates: metrics, spans, operation and check counts.
pub struct Run {
    pub args: RunArgs,
    /// Taken first thing in `main`; `setup_s` counts from here.
    pub process_start: Instant,
    pub ledger: Ledger,
    pub tracer: Tracer,
    attempted: u64,
    failed: u64,
    peak_rss_mib: Option<f64>,
}

impl Run {
    fn new(args: RunArgs, process_start: Instant) -> Run {
        Run {
            ledger: Ledger::new(args.traced),
            // Spans are switched on per pass by the workloads, so that a
            // traced run can time one pass without them.
            tracer: Tracer::new(false, process_start, 0),
            args,
            process_start,
            attempted: 0,
            failed: 0,
            peak_rss_mib: None,
        }
    }

    /// Reads the peak resident set size, the first time it is called: the
    /// workloads call it after their first pass, so `peak_rss_mb` is the
    /// peak of one pass of fixed work however many passes a run fits in.
    pub fn note_peak_rss(&mut self) {
        self.peak_rss_mib.get_or_insert_with(peak_rss_mib);
    }

    /// Counts one operation (an app-config call or a job).
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("FAILED op    {what}");
        }
    }

    /// Counts one output check; a failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: &str) {
        self.attempted += 1;
        if ok {
            println!("ok     check {name}");
        } else {
            self.failed += 1;
            println!("FAILED check {name}: {detail}");
        }
    }

    fn result_line(&self) -> String {
        Value::Obj(vec![
            ("correct".to_string(), Value::Bool(self.failed == 0)),
            (
                "attempted".to_string(),
                Value::Int(i128::from(self.attempted)),
            ),
            ("failed".to_string(), Value::Int(i128::from(self.failed))),
            ("metrics".to_string(), self.ledger.to_value()),
        ])
        .to_string()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: lp-perf [run] --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         [--smoke] [--trace-out <file>] [--out <file>]\n       \
         lp-perf compare <a.ndjson> <b.ndjson>\n       \
         lp-perf selfcheck [--seed <n>] [--seconds <s>] [--smoke]\n       \
         lp-perf manifest\nworkloads: {}",
        metrics::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        trace_out: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--smoke" => parsed.smoke = true,
            "--trace-out" => parsed.trace_out = Some(value()?),
            "--out" => parsed.out = Some(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if metrics::workload(&parsed.workload).is_none() {
        return Err(format!("unknown workload '{}'", parsed.workload));
    }
    Ok(parsed)
}

fn run(args: RunArgs, process_start: Instant) -> ExitCode {
    let mut run = Run::new(args, process_start);
    println!(
        "lp-perf {} seed {} seconds {} trace {}{} ({} host threads)",
        run.args.workload,
        run.args.seed,
        run.args.seconds,
        u8::from(run.args.traced),
        if run.args.smoke { " smoke" } else { "" },
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    match run.args.workload.as_str() {
        "twophase-train" => sim::twophase(&mut run),
        "fulldetail-train" => sim::fulldetail(&mut run),
        "live-train" => sim::live(&mut run),
        "farm-sweep" => service::sweep(&mut run, service::Topology::BareFarm),
        "ring-sweep" => service::sweep(&mut run, service::Topology::Ring),
        other => unreachable!("parse_run_args admitted workload {other}"),
    }
    run.note_peak_rss();
    run.ledger
        .set("peak_rss_mb", run.peak_rss_mib.unwrap_or(0.0));
    run.ledger.set("trace.spans", run.tracer.spans.len() as f64);
    if run.args.traced {
        let counts = trace::counts(&run.tracer.spans);
        for (name, secs) in trace::self_seconds(&run.tracer.spans) {
            println!(
                "self   {name:<26} {:>7} span(s) {secs:>10.4} s",
                counts[name]
            );
        }
    }
    if let Some(path) = &run.args.trace_out {
        let doc = trace::chrome_json(&run.tracer.spans).to_string();
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("lp-perf: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    for line in run.ledger.lines() {
        println!("{line}");
    }
    let result = run.result_line();
    if let Some(path) = &run.args.out {
        if let Err(e) = compare::append_result(path, &run.args, &result) {
            eprintln!("lp-perf: appending to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare::compare(a, b),
            _ => usage(),
        },
        Some("selfcheck") => compare::selfcheck(&argv[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest_text());
            ExitCode::SUCCESS
        }
        Some(first) => {
            let flags = if first == "run" {
                &argv[1..]
            } else {
                &argv[..]
            };
            match parse_run_args(flags) {
                Ok(args) => run(args, process_start),
                Err(e) => {
                    eprintln!("lp-perf: {e}");
                    usage()
                }
            }
        }
        None => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_flags_parse_and_bad_ones_are_refused() {
        let args = parse_run_args(&strings(&[
            "--workload",
            "live-train",
            "--seed",
            "9",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.traced),
            ("live-train", 9, 2.5, true)
        );
        assert!(parse_run_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_run_args(&strings(&["--workload", "live-train", "--trace", "2"])).is_err());
        assert!(parse_run_args(&strings(&["--workload", "live-train", "--seconds", "0"])).is_err());
        assert!(parse_run_args(&strings(&["--workload", "live-train", "--seed"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let args = parse_run_args(&strings(&["--workload", "farm-sweep"])).unwrap();
        let mut run = Run::new(args, Instant::now());
        run.op(true, "job 1");
        run.check("demo", false, "forced");
        let doc = lp_obs::json::parse(&run.result_line()).unwrap();
        let Value::Obj(members) = &doc else {
            panic!("object expected")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("failed").unwrap().as_u64(), Some(1));
    }
}
