//! The diagnostics report: machine-readable JSON (stable schema,
//! byte-identical round-trip) plus a human-readable table.

use crate::attribution::Attribution;
use crate::profile::{CriticalStep, PhaseCost, SelfProfile};
use crate::SCHEMA_VERSION;
use lp_obs::json::{self, Value};
use std::fmt::Write as _;

/// Signed error cycles of one cluster, split by cause. The three fields
/// sum exactly to the cluster's `error_cycles` (see
/// [`crate::attribution`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ErrorComponents {
    /// Error charged to a representative far from its centroid.
    pub representativeness: f64,
    /// Error charged to approximated warmup/boundary state.
    pub warmup: f64,
    /// The multiplier-extrapolation residual (exact remainder).
    pub extrapolation: f64,
}

/// Per-cluster accuracy diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterDiag {
    /// Cluster id.
    pub cluster: usize,
    /// Profile index of the representative slice.
    pub slice_index: usize,
    /// Eq. 2 multiplier.
    pub multiplier: f64,
    /// Fraction of whole-program filtered work this cluster stands for.
    pub weight: f64,
    /// This cluster's contribution to the extrapolated total (cycles).
    pub predicted_cycles: f64,
    /// Share of the measured total charged to this cluster (cycles).
    pub attributed_actual_cycles: f64,
    /// Signed error in cycles (`predicted − attributed actual`).
    pub error_cycles: f64,
    /// Absolute percentage error against the attributed actual share.
    pub error_pct: f64,
    /// BBV distance of the representative to its centroid.
    pub rep_distance: f64,
    /// Mean BBV distance of cluster members to the centroid.
    pub mean_member_distance: f64,
    /// The per-cause decomposition of `error_cycles`.
    pub components: ErrorComponents,
}

/// A complete accuracy-attribution report for one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagReport {
    /// Workload name.
    pub workload: String,
    /// Thread count the run used.
    pub nthreads: u64,
    /// Number of clusters (`clusters.len()`, denormalized for tooling).
    pub k: u64,
    /// Extrapolated total cycles.
    pub predicted_cycles: f64,
    /// Measured total cycles the prediction is judged against.
    pub actual_cycles: f64,
    /// End-to-end signed error in cycles.
    pub error_cycles: f64,
    /// End-to-end absolute percentage error.
    pub error_pct: f64,
    /// Per-cluster decomposition (sums to `error_cycles`).
    pub clusters: Vec<ClusterDiag>,
    /// Where the pipeline's own wall-clock went.
    pub profile: SelfProfile,
}

impl DiagReport {
    /// Assembles a report from an [`Attribution`] and a [`SelfProfile`].
    pub fn new(
        workload: impl Into<String>,
        nthreads: u64,
        attribution: Attribution,
        profile: SelfProfile,
    ) -> DiagReport {
        DiagReport {
            workload: workload.into(),
            nthreads,
            k: attribution.clusters.len() as u64,
            predicted_cycles: attribution.predicted_cycles,
            actual_cycles: attribution.actual_cycles,
            error_cycles: attribution.error_cycles,
            error_pct: attribution.error_pct,
            clusters: attribution.clusters,
            profile,
        }
    }

    /// Serializes the report as a self-describing JSON document
    /// (`schema_version` = [`SCHEMA_VERSION`]). Round-trips through
    /// [`DiagReport::from_json`] byte-identically.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// The report as a JSON value tree (for embedding into larger
    /// documents, e.g. the driver's multi-workload report array).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("schema_version".to_string(), Value::from(SCHEMA_VERSION)),
            ("workload".to_string(), Value::from(self.workload.clone())),
            ("nthreads".to_string(), Value::from(self.nthreads)),
            ("k".to_string(), Value::from(self.k)),
            ("predicted_cycles".to_string(), jnum(self.predicted_cycles)),
            ("actual_cycles".to_string(), jnum(self.actual_cycles)),
            ("error_cycles".to_string(), jnum(self.error_cycles)),
            ("error_pct".to_string(), jnum(self.error_pct)),
            (
                "clusters".to_string(),
                Value::Arr(self.clusters.iter().map(cluster_value).collect()),
            ),
            ("profile".to_string(), profile_value(&self.profile)),
        ])
    }

    /// Parses a document produced by [`DiagReport::to_json`].
    ///
    /// # Errors
    /// Malformed JSON, wrong `schema_version`, or missing/mistyped fields.
    pub fn from_json(text: &str) -> Result<DiagReport, String> {
        let doc = json::parse(text).map_err(|e| format!("diag report JSON: {e:?}"))?;
        DiagReport::from_value(&doc)
    }

    /// Parses a report from an already-parsed JSON value (one element of
    /// the driver's report array).
    ///
    /// # Errors
    /// Wrong `schema_version`, or missing/mistyped fields.
    pub fn from_value(doc: &Value) -> Result<DiagReport, String> {
        let version = field_u64(doc, "schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported diag schema_version {version} (expected {SCHEMA_VERSION})"
            ));
        }
        let clusters = doc
            .get("clusters")
            .and_then(Value::as_arr)
            .ok_or("missing clusters array")?
            .iter()
            .map(cluster_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DiagReport {
            workload: field_str(doc, "workload")?,
            nthreads: field_u64(doc, "nthreads")?,
            k: field_u64(doc, "k")?,
            predicted_cycles: field_f64(doc, "predicted_cycles")?,
            actual_cycles: field_f64(doc, "actual_cycles")?,
            error_cycles: field_f64(doc, "error_cycles")?,
            error_pct: field_f64(doc, "error_pct")?,
            clusters,
            profile: profile_from_value(doc.get("profile").ok_or("missing profile")?)?,
        })
    }

    /// Renders the report as a human-readable fixed-width table: totals,
    /// one row per cluster with the per-cause split, and the self-profile
    /// summary (top phases + critical path).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "accuracy attribution: {} ({} threads, k = {})",
            self.workload, self.nthreads, self.k
        );
        let _ = writeln!(
            out,
            "  predicted {:.0} cycles, actual {:.0} cycles -> signed error {:+.0} ({:.2}%)",
            self.predicted_cycles, self.actual_cycles, self.error_cycles, self.error_pct
        );
        let _ = writeln!(
            out,
            "\n  cluster  weight%   error_cycles    repr%  warmup%  extrap%"
        );
        for c in &self.clusters {
            let split = |part: f64| {
                if c.error_cycles == 0.0 {
                    0.0
                } else {
                    part / c.error_cycles * 100.0
                }
            };
            let _ = writeln!(
                out,
                "  {:>7}  {:>6.2}  {:>+13.0}  {:>6.1}  {:>6.1}  {:>6.1}",
                c.cluster,
                c.weight * 100.0,
                c.error_cycles,
                split(c.components.representativeness),
                split(c.components.warmup),
                split(c.components.extrapolation),
            );
        }
        let _ = writeln!(out, "\n  self-profile ({} us wall):", self.profile.wall_us);
        for p in self.profile.phases.iter().take(6) {
            let _ = writeln!(
                out,
                "    {:<24} {:>10} us  x{}",
                p.name, p.total_us, p.count
            );
        }
        if !self.profile.critical_path.is_empty() {
            let chain: Vec<String> = self
                .profile
                .critical_path
                .iter()
                .map(|s| format!("{} ({} us)", s.name, s.dur_us))
                .collect();
            let _ = writeln!(out, "  critical path: {}", chain.join(" > "));
        }
        out
    }
}

/// A float as a JSON value; non-finite values render as the strings
/// `"NaN"` / `"+Inf"` / `"-Inf"` so the document stays valid JSON and
/// round-trips losslessly.
fn jnum(v: f64) -> Value {
    if v.is_finite() {
        Value::from(v)
    } else if v.is_nan() {
        Value::Str("NaN".to_string())
    } else if v > 0.0 {
        Value::Str("+Inf".to_string())
    } else {
        Value::Str("-Inf".to_string())
    }
}

fn num_from(v: &Value) -> Option<f64> {
    match v {
        Value::Str(s) => match s.as_str() {
            "NaN" => Some(f64::NAN),
            "+Inf" => Some(f64::INFINITY),
            "-Inf" => Some(f64::NEG_INFINITY),
            _ => None,
        },
        other => other.as_f64(),
    }
}

fn field_f64(doc: &Value, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(num_from)
        .ok_or_else(|| format!("missing/mistyped number field {key:?}"))
}

fn field_u64(doc: &Value, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing/mistyped integer field {key:?}"))
}

fn field_str(doc: &Value, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing/mistyped string field {key:?}"))
}

fn cluster_value(c: &ClusterDiag) -> Value {
    Value::Obj(vec![
        ("cluster".to_string(), Value::from(c.cluster as u64)),
        ("slice_index".to_string(), Value::from(c.slice_index as u64)),
        ("multiplier".to_string(), jnum(c.multiplier)),
        ("weight".to_string(), jnum(c.weight)),
        ("predicted_cycles".to_string(), jnum(c.predicted_cycles)),
        (
            "attributed_actual_cycles".to_string(),
            jnum(c.attributed_actual_cycles),
        ),
        ("error_cycles".to_string(), jnum(c.error_cycles)),
        ("error_pct".to_string(), jnum(c.error_pct)),
        ("rep_distance".to_string(), jnum(c.rep_distance)),
        (
            "mean_member_distance".to_string(),
            jnum(c.mean_member_distance),
        ),
        (
            "components".to_string(),
            Value::Obj(vec![
                (
                    "representativeness".to_string(),
                    jnum(c.components.representativeness),
                ),
                ("warmup".to_string(), jnum(c.components.warmup)),
                (
                    "extrapolation".to_string(),
                    jnum(c.components.extrapolation),
                ),
            ]),
        ),
    ])
}

fn cluster_from_value(v: &Value) -> Result<ClusterDiag, String> {
    let comp = v.get("components").ok_or("missing components")?;
    Ok(ClusterDiag {
        cluster: field_u64(v, "cluster")? as usize,
        slice_index: field_u64(v, "slice_index")? as usize,
        multiplier: field_f64(v, "multiplier")?,
        weight: field_f64(v, "weight")?,
        predicted_cycles: field_f64(v, "predicted_cycles")?,
        attributed_actual_cycles: field_f64(v, "attributed_actual_cycles")?,
        error_cycles: field_f64(v, "error_cycles")?,
        error_pct: field_f64(v, "error_pct")?,
        rep_distance: field_f64(v, "rep_distance")?,
        mean_member_distance: field_f64(v, "mean_member_distance")?,
        components: ErrorComponents {
            representativeness: field_f64(comp, "representativeness")?,
            warmup: field_f64(comp, "warmup")?,
            extrapolation: field_f64(comp, "extrapolation")?,
        },
    })
}

fn profile_value(p: &SelfProfile) -> Value {
    Value::Obj(vec![
        ("wall_us".to_string(), Value::from(p.wall_us)),
        (
            "phases".to_string(),
            Value::Arr(
                p.phases
                    .iter()
                    .map(|ph| {
                        Value::Obj(vec![
                            ("name".to_string(), Value::from(ph.name.clone())),
                            ("total_us".to_string(), Value::from(ph.total_us)),
                            ("count".to_string(), Value::from(ph.count)),
                            ("max_us".to_string(), Value::from(ph.max_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "critical_path".to_string(),
            Value::Arr(
                p.critical_path
                    .iter()
                    .map(|s| {
                        Value::Obj(vec![
                            ("name".to_string(), Value::from(s.name.clone())),
                            ("dur_us".to_string(), Value::from(s.dur_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn profile_from_value(v: &Value) -> Result<SelfProfile, String> {
    let phases = v
        .get("phases")
        .and_then(Value::as_arr)
        .ok_or("missing profile.phases")?
        .iter()
        .map(|p| {
            Ok(PhaseCost {
                name: field_str(p, "name")?,
                total_us: field_u64(p, "total_us")?,
                count: field_u64(p, "count")?,
                max_us: field_u64(p, "max_us")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let critical_path = v
        .get("critical_path")
        .and_then(Value::as_arr)
        .ok_or("missing profile.critical_path")?
        .iter()
        .map(|s| {
            Ok(CriticalStep {
                name: field_str(s, "name")?,
                dur_us: field_u64(s, "dur_us")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(SelfProfile {
        wall_us: field_u64(v, "wall_us")?,
        phases,
        critical_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::{attribute, ClusterInput};

    fn sample_report() -> DiagReport {
        let inputs = vec![
            ClusterInput {
                cluster: 0,
                slice_index: 2,
                multiplier: 3.25,
                predicted_cycles: 3_250.0,
                cluster_filtered_insts: 3_000,
                rep_cycles: 1_000,
                rep_instructions: 2_400,
                ff_instructions: 600,
                rep_distance: 0.05,
                mean_member_distance: 0.2,
            },
            ClusterInput {
                cluster: 1,
                slice_index: 5,
                multiplier: 1.0,
                predicted_cycles: 700.0,
                cluster_filtered_insts: 1_000,
                rep_cycles: 700,
                rep_instructions: 1_500,
                ff_instructions: 0,
                rep_distance: 0.0,
                mean_member_distance: 0.0,
            },
        ];
        let attribution = attribute(&inputs, 3_950.0, 4_000.0);
        let profile = SelfProfile {
            wall_us: 12_345,
            phases: vec![PhaseCost {
                name: "analyze".to_string(),
                total_us: 9_000,
                count: 1,
                max_us: 9_000,
            }],
            critical_path: vec![CriticalStep {
                name: "analyze".to_string(),
                dur_us: 9_000,
            }],
        };
        DiagReport::new("demo", 4, attribution, profile)
    }

    #[test]
    fn json_round_trip_is_byte_identical_and_lossless() {
        let report = sample_report();
        let text = report.to_json();
        let back = DiagReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn non_finite_values_survive_the_round_trip() {
        let mut report = sample_report();
        report.error_pct = f64::INFINITY;
        report.clusters[0].error_pct = f64::NAN;
        let text = report.to_json();
        lp_obs::json::parse(&text).expect("must stay valid JSON");
        let back = DiagReport::from_json(&text).unwrap();
        assert!(back.error_pct.is_infinite() && back.error_pct > 0.0);
        assert!(back.clusters[0].error_pct.is_nan());
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let text =
            sample_report()
                .to_json()
                .replacen("\"schema_version\":1", "\"schema_version\":999", 1);
        let err = DiagReport::from_json(&text).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn table_names_totals_clusters_and_critical_path() {
        let t = sample_report().render_table();
        assert!(t.contains("accuracy attribution: demo"));
        assert!(t.contains("signed error"));
        assert!(t.contains("cluster  weight%"));
        assert!(t.contains("critical path: analyze"));
        // One row per cluster.
        assert!(
            t.lines()
                .filter(|l| l.trim_start().starts_with('0') || l.trim_start().starts_with('1'))
                .count()
                >= 2,
            "{t}"
        );
    }
}
