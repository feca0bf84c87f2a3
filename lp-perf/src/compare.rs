//! `lp-perf compare` and `lp-perf selfcheck`: reading results back.
//!
//! `--out <file>` appends one line per run: the run's arguments around
//! its result object. `compare` takes two such files (say, ten seeds on
//! the parent commit and ten on a change) and judges every workload ×
//! end-to-end metric against the bound `metrics.rs` fixes for it.

use crate::metrics::{self, Better};
use crate::{stats, RunArgs};
use lp_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, ExitCode};

pub fn append_result(path: &str, args: &RunArgs, result: &str) -> std::io::Result<()> {
    let line = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"result\":{result}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        args.smoke
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(line.as_bytes())
}

/// Metric values by (workload, metric name), end-to-end runs only.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn end_to_end_samples(text: &str) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        if doc.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let Some(Value::Obj(members)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("line {}: no result.metrics object", n + 1));
        };
        for (name, metric) in members {
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("line {}: metric {name} has no value", n + 1))?;
            samples
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(samples)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound: no call either way.
    Unresolved,
}

/// Judges `b` against `a`. `gain` is the relative change of the median in
/// the metric's good direction; a gain counts once it exceeds the spread.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let gain = match better {
        _ if ma == 0.0 => 0.0,
        Better::Higher => (mb - ma) / ma.abs(),
        Better::Lower => (ma - mb) / ma.abs(),
    };
    let spread = stats::quartile_spread(a).max(stats::quartile_spread(b));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if gain < -bound {
        Verdict::Regressed
    } else if gain > spread && gain > 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (gain, spread, verdict)
}

pub fn compare(path_a: &str, path_b: &str) -> ExitCode {
    let load = |path: &str| -> Result<Samples, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        end_to_end_samples(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("lp-perf compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<15} {:<20} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "gain %", "spread", "bound"
    );
    let mut regressed = 0;
    for w in &metrics::WORKLOADS {
        for m in &metrics::END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (gain, spread, verdict) = judge(va, vb, m.better, m.bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{:<15} {:<20} {:>14.4} {:>14.4} {:>+8.2} {:>7.3} {:>7.3}  {:?} (n={}/{})",
                w.name,
                m.name,
                stats::median(va),
                stats::median(vb),
                gain * 100.0,
                spread,
                m.bound,
                verdict,
                va.len(),
                vb.len()
            );
        }
    }
    if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{regressed} metric(s) regressed");
        ExitCode::FAILURE
    }
}

/// Runs this executable on one workload and returns its metrics.
fn child_metrics(
    workload: &str,
    traced: bool,
    extra: &[String],
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .args(extra)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("exit {:?}\n{stdout}", output.status.code()));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = json::parse(last).map_err(|e| e.to_string())?;
    let Some(Value::Obj(members)) = doc.get("metrics") else {
        return Err("result line has no metrics".to_string());
    };
    Ok(members
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// Runs every workload twice end to end and twice traced: each end-to-end
/// pair must agree within the metric's bound, and every simulated or
/// counted layer metric must repeat exactly.
pub fn selfcheck(extra: &[String]) -> ExitCode {
    let mut failures = 0;
    for w in &metrics::WORKLOADS {
        for traced in [false, true] {
            let pair = (
                child_metrics(w.name, traced, extra),
                child_metrics(w.name, traced, extra),
            );
            let (a, b) = match pair {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    println!("FAILED {} trace {}: {e}", w.name, u8::from(traced));
                    failures += 1;
                    continue;
                }
            };
            for (name, &va) in &a {
                let vb = b.get(name).copied().unwrap_or(f64::NAN);
                let ok = if let Some(m) = metrics::end_to_end(name) {
                    (va - vb).abs() / va.abs().max(f64::MIN_POSITIVE) <= m.bound
                } else {
                    !metrics::layer(name).is_some_and(|m| m.exact) || va == vb
                };
                if !ok {
                    failures += 1;
                }
                if !ok || metrics::end_to_end(name).is_some() {
                    println!(
                        "{} {:<15} {:<26} {va:>16.6} {vb:>16.6}",
                        if ok { "ok    " } else { "FAILED" },
                        w.name,
                        name
                    );
                }
            }
        }
    }
    if failures == 0 {
        println!("selfcheck: every pair agrees");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: {failures} disagreement(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [
            100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0,
        ];
        let scaled = |f: f64| steady.map(|v| v * f);
        assert_eq!(
            judge(&steady, &scaled(1.0), Better::Higher, 0.05).2,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&steady, &scaled(1.04), Better::Higher, 0.05).2,
            Verdict::Improved
        );
        assert_eq!(
            judge(&steady, &scaled(0.97), Better::Higher, 0.05).2,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&steady, &scaled(0.9), Better::Higher, 0.05).2,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady, &scaled(1.1), Better::Lower, 0.05).2,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady, &scaled(0.9), Better::Lower, 0.05).2,
            Verdict::Improved
        );
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(
            judge(&noisy, &scaled(0.5), Better::Higher, 0.05).2,
            Verdict::Unresolved
        );
    }

    #[test]
    fn result_lines_written_by_out_read_back() {
        let dir = std::path::PathBuf::from(format!(".lp-perf-scratch/test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.ndjson");
        let path_str = path.to_str().unwrap();
        let args = RunArgs {
            workload: "live-train".to_string(),
            seed: 3,
            seconds: 10.0,
            traced: false,
            smoke: false,
            trace_out: None,
            out: None,
        };
        let result = |v: f64| {
            format!("{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\"app_mips\":{{\"value\":{v},\"unit\":\"Minst/s\"}}}}}}")
        };
        append_result(path_str, &args, &result(7.5)).unwrap();
        append_result(path_str, &args, &result(8.5)).unwrap();
        let traced = RunArgs {
            traced: true,
            ..args
        };
        append_result(path_str, &traced, &result(1.0)).unwrap();
        let samples = end_to_end_samples(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(
            samples[&("live-train".to_string(), "app_mips".to_string())],
            vec![7.5, 8.5]
        );
        assert!(end_to_end_samples("{\"workload\":1}").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir(".lp-perf-scratch");
    }
}
