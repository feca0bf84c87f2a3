//! The ledger's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo root
//! is `lp-perf manifest` written to a file; a unit test keeps them equal.

use lp_obs::json::Value;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "twophase-train",
        why: "cold run_job, no store: record, two analysis replays, k-means and checkpoint generation are most of the time, detailed simulation the rest",
    },
    Workload {
        name: "fulldetail-train",
        why: "simulate_whole OoO then in-order: only lp-sim, lp-uarch and lp-isa run, so an analysis change must show nothing here",
    },
    Workload {
        name: "live-train",
        why: "analyze_live: the same simulator layers driven through streaming hooks, timing-model clones and detail-from-warm-state",
    },
    Workload {
        name: "farm-sweep",
        why: "closed loop of 1/3-unique jobs into one 2-worker farm daemon: queue, dedup, journal, httpd and wire protocol do work the simulation workloads never touch",
    },
    Workload {
        name: "ring-sweep",
        why: "the identical job stream into a 2-node ring with the same 2 workers in total, every submission to node 0: the cluster tax as one ratio",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "app_mips",
        unit: "Minst/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "accuracy_pct",
        unit: "%",
        better: Better::Higher,
        bound: 0.01,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Simulated or counted, not timed: repeats exactly for one seed.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Every layer metric, grouped by crate. A workload that bypasses a layer
/// reports 0 for it, which is the evidence that it does bypass it.
pub const PER_LAYER: [Layer; 75] = [
    // The tracer itself.
    timed("trace.overhead_pct", "%", Lower),
    timed("trace.spans", "count", Lower),
    // lp-isa
    timed("isa.vm_mips", "Minst/s", Higher),
    timed("isa.snapshot_us", "us", Lower),
    // lp-pinball
    exact("pinball.calls", "count", Lower),
    timed("pinball.record_mips", "Minst/s", Higher),
    timed("pinball.record_overhead_x", "x", Lower),
    timed("pinball.replay_mips", "Minst/s", Higher),
    timed("pinball.replay_overhead_x", "x", Lower),
    timed("pinball.checkpoint_pass_mips", "Minst/s", Higher),
    exact("pinball.bytes_per_kinst", "B/kinst", Lower),
    // lp-dcfg, lp-bbv
    timed("dcfg.self_s", "s", Lower),
    timed("bbv.self_s", "s", Lower),
    exact("bbv.slices", "count", Lower),
    // lp-simpoint
    timed("simpoint.cluster_s", "s", Lower),
    exact("simpoint.vectors", "count", Lower),
    exact("simpoint.k", "count", Lower),
    // lp-sim, lp-uarch
    timed("sim.ooo_kips", "kinst/s", Higher),
    timed("sim.inorder_kips", "kinst/s", Higher),
    timed("sim.ff_mips", "Minst/s", Higher),
    timed("sim.region_ms_p50", "ms", Lower),
    exact("sim.cycles", "cycles", Lower),
    exact("sim.ipc", "inst/cycle", Higher),
    exact("sim.l2_mpki", "1/kinst", Lower),
    exact("sim.branch_mpki", "1/kinst", Lower),
    timed("uarch.hierarchy_maccess_s", "Maccess/s", Higher),
    timed("uarch.bp_mpredict_s", "Mpredict/s", Higher),
    // looppoint (core)
    timed("core.analyze_s", "s", Lower),
    timed("core.checkpoints_s", "s", Lower),
    timed("core.region_sim_s", "s", Lower),
    timed("core.extrapolate_ms", "ms", Lower),
    exact("core.detail_inst_share", "%", Lower),
    timed("core.answer_p50_ms", "ms", Lower),
    timed("core.speedup_vs_full_x", "x", Higher),
    exact("core.checkpoint_kib", "KiB", Lower),
    exact("core.err_pct", "%", Lower),
    exact("core.err_small_slice_pct", "%", Lower),
    // lp-live
    exact("live.detailed_pct", "%", Lower),
    exact("live.regions", "count", Lower),
    exact("live.clusters", "count", Lower),
    // lp-store
    exact("store.calls", "count", Lower),
    timed("store.save_mbps", "MB/s", Higher),
    timed("store.load_mbps", "MB/s", Higher),
    timed("store.on_jobs_per_s", "1/s", Higher),
    timed("store.tax_x", "x", Lower),
    timed("store.compression_x", "x", Higher),
    exact("store.artifacts", "count", Lower),
    timed("store.bytes", "B", Lower),
    // lp-obs httpd, lp-farm-proto
    timed("http.calls", "count", Lower),
    timed("httpd.healthz_rps", "1/s", Higher),
    timed("httpd.req_p50_us", "us", Lower),
    timed("httpd.req_tail_us", "us", Lower),
    timed("proto.submit_rtt_p50_us", "us", Lower),
    timed("proto.submit_rtt_tail_us", "us", Lower),
    // lp-farm
    timed("farm.jobs_per_s", "1/s", Higher),
    timed("farm.job_p50_ms", "ms", Lower),
    timed("farm.job_tail_ms", "ms", Lower),
    timed("farm.queue_wait_p50_ms", "ms", Lower),
    timed("farm.queue_wait_tail_ms", "ms", Lower),
    exact("farm.tail_pctile", "%", Higher),
    exact("farm.computes", "count", Lower),
    exact("farm.dedup_ratio", "ratio", Higher),
    exact("farm.useful_compute_ratio", "ratio", Higher),
    timed("farm.rejected_503", "count", Lower),
    timed("farm.retries", "count", Lower),
    timed("farm.journal_fsyncs", "count", Lower),
    timed("farm.journal_bytes", "B", Lower),
    // The load generator.
    timed("gen.refill_lag_p50_ms", "ms", Lower),
    timed("gen.refill_lag_tail_ms", "ms", Lower),
    // lp-cluster
    timed("cluster.forwarded", "count", Lower),
    timed("cluster.forward_hop_p50_us", "us", Lower),
    timed("cluster.forward_hop_tail_us", "us", Lower),
    timed("cluster.fetch_hits", "count", Lower),
    exact("cluster.recomputes", "count", Lower),
    timed("cluster.job_proxied", "count", Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Metric values of one run, in table order. Every declared name of the
/// run's kind is present (0 until set), so the printed set never depends on
/// which code path ran.
pub struct Ledger {
    /// Name, unit, value.
    entries: Vec<(&'static str, &'static str, f64)>,
}

impl Ledger {
    pub fn new(traced: bool) -> Ledger {
        let entries = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit, 0.0)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit, 0.0)).collect()
        };
        Ledger { entries }
    }

    /// Sets a metric of this run's kind; a name of the other kind is
    /// dropped, so workload code states every number it has once.
    ///
    /// # Panics
    /// On a name neither table declares, or a value that is not finite.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.entries.iter_mut().find(|e| e.0 == name) {
            Some(entry) => entry.2 = value,
            None => assert!(
                layer(name).is_some() || end_to_end(name).is_some(),
                "metric {name} is not declared in metrics.rs"
            ),
        }
    }

    /// `name value unit` lines.
    pub fn lines(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|(name, unit, value)| format!("{name:<30} {value:>16.6} {unit}"))
            .collect()
    }

    /// The `metrics` object of the result line.
    pub fn to_value(&self) -> Value {
        Value::Obj(
            self.entries
                .iter()
                .map(|&(name, unit, value)| {
                    (
                        name.to_string(),
                        Value::Obj(vec![
                            ("value".to_string(), Value::Num(value)),
                            ("unit".to_string(), Value::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let text = |s: &str| Value::Str(s.to_string());
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| text(s)).collect());
    let obj = |members: Vec<(&str, Value)>| {
        Value::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "lp-perf/Cargo.toml",
        "--",
    ];
    let workloads = WORKLOADS
        .iter()
        .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]));
    let end_to_end = END_TO_END.iter().map(|m| {
        obj(vec![
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
            ("bound", Value::Num(m.bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        obj(vec![
            ("name", text(m.name)),
            ("unit", text(m.unit)),
            ("better", text(m.better.as_str())),
        ])
    });
    obj(vec![
        ("command", strs(&command)),
        ("paths", strs(&["lp-perf"])),
        ("run_seconds", Value::Int(i128::from(RUN_SECONDS))),
        ("workloads", Value::Arr(workloads.collect())),
        ("end_to_end", Value::Arr(end_to_end.collect())),
        ("per_layer", Value::Arr(per_layer.collect())),
    ])
}

/// [`manifest`] as indented text, one metric per line.
pub fn manifest_text() -> String {
    let doc = manifest();
    let Value::Obj(members) = &doc else {
        unreachable!("manifest is an object")
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in members.iter().enumerate() {
        let comma = if i + 1 < members.len() { "," } else { "" };
        match value {
            Value::Arr(items) if items.iter().all(|v| matches!(v, Value::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let sep = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {item}{sep}\n"));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            other => out.push_str(&format!("  \"{key}\": {other}{comma}\n")),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_benchmark_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    #[test]
    fn committed_manifest_is_what_the_tables_generate() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest_text(), "rerun `lp-perf manifest`");
        assert!(committed.len() <= 64 * 1024);
        let doc = lp_obs::json::parse(&committed).expect("valid JSON");
        assert_eq!(
            doc,
            manifest(),
            "the indented text parses to the same document"
        );
    }

    #[test]
    fn ledger_result_round_trips_and_keeps_to_its_kind() {
        let mut l = Ledger::new(false);
        l.set("app_mips", 12.034_567_891);
        l.set("isa.vm_mips", 55.0); // a layer metric: dropped from an end-to-end run
        let doc = lp_obs::json::parse(&l.to_value().to_string()).expect("valid JSON");
        let Value::Obj(members) = &doc else {
            panic!("object expected")
        };
        assert_eq!(members.len(), END_TO_END.len());
        let m = doc.get("app_mips").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(12.034_567_891));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("Minst/s"));
        assert_eq!(
            doc.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(Ledger::new(true).lines().len(), PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_names_are_a_bug() {
        Ledger::new(true).set("farm.typo", 1.0);
    }
}
