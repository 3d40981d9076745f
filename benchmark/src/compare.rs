//! `compare A.json B.json`: per workload × end-to-end metric, both
//! medians, the ratio with its base, and a verdict from the registry's
//! bounds. Comparing two runs of one commit is the A/A test.

use crate::adapter::Json;
use crate::registry::{Better, Metric, END_TO_END};
use crate::report::SCHEMA;
use crate::stats::quartile_spread;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The spread within a run exceeds the bound, so the medians cannot
    /// tell a change from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric of one workload in one result file: the reported median
/// and, for timings, the samples behind it (empty for exact metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    pub value: f64,
    pub samples: Vec<f64>,
}

/// Judges B against the base A. A metric regresses when its median is
/// worse than A's by more than the bound; it improves when it is better
/// by more than the spread. Where the spread of either side exceeds the
/// bound the medians decide nothing: the verdict is unresolved unless
/// every sample of one side beats every sample of the other.
pub fn verdict(m: &Metric, a: &Side, b: &Side) -> Verdict {
    let bound = m.bound.expect("only end-to-end metrics are compared");
    let sign = if m.better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (b.value - a.value) / a.value.abs();
    let spread = quartile_spread(&a.samples).max(quartile_spread(&b.samples));
    if spread > bound {
        let worst = |s: &Side| s.samples.iter().map(|v| sign * v).fold(f64::MIN, f64::max);
        let best = |s: &Side| s.samples.iter().map(|v| sign * v).fold(f64::MAX, f64::min);
        return if worst(b) < best(a) {
            Verdict::Improved
        } else if best(b) > worst(a) && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < 0.0 && -worse_by > spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

struct ResultFile(Json);

impl ResultFile {
    fn parse(label: &str, text: &str) -> Result<ResultFile, String> {
        let json = Json::parse(text).map_err(|e| format!("{label}: not JSON: {e}"))?;
        if json.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{label}: not a {SCHEMA} result file"));
        }
        if json.get("quick").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{label}: a --quick run is a plumbing smoke, not a measurement; refusing to compare it"
            ));
        }
        Ok(ResultFile(json))
    }

    fn workloads(&self) -> &[Json] {
        self.0
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
    }

    fn workload(&self, name: &str) -> Option<&Json> {
        self.workloads()
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
    }
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        samples: m
            .get("samples")
            .and_then(Json::as_arr)
            .map(|s| s.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
    })
}

fn failure_rate(workload: &Json) -> Option<f64> {
    let attempted = workload.get("ops_attempted")?.as_f64()?;
    let failed = workload.get("ops_failed")?.as_f64()?;
    (attempted > 0.0).then(|| failed / attempted)
}

/// The comparison table, and whether B fails against A: any regression,
/// or a higher `ops_failed / ops_attempted` on any workload.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = ResultFile::parse("A", a_text)?;
    let b = ResultFile::parse("B", b_text)?;
    let instance = |f: &ResultFile| f.0.get("instance").and_then(Json::as_u64);
    if instance(&a) != instance(&b) {
        return Err(
            "A and B routed different instances (--instance): their numbers do not compare".into(),
        );
    }
    let mut out = String::new();
    let mut failed = false;
    let _ = writeln!(
        out,
        "{:<22} {:<13} {:>14} {:>14} {:>16}  verdict (bound)",
        "workload", "metric", "A", "B", "B/A (base A)"
    );
    for wa in a.workloads() {
        let name = wa
            .get("name")
            .and_then(Json::as_str)
            .ok_or("A: a workload without a name")?;
        let wb = b
            .workload(name)
            .ok_or(format!("B: workload '{name}' is missing"))?;
        for m in &END_TO_END {
            let (sa, sb) = match (side(wa, m.name), side(wb, m.name)) {
                (Some(sa), Some(sb)) => (sa, sb),
                _ => {
                    return Err(format!(
                        "{name}: '{}' is missing from A or B (compare needs --trace 0 results)",
                        m.name
                    ))
                }
            };
            let v = verdict(m, &sa, &sb);
            failed |= v == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{:<22} {:<13} {:>14.6} {:>14.6} {:>16.4}  {} ({})",
                name,
                m.name,
                sa.value,
                sb.value,
                sb.value / sa.value,
                v.as_str(),
                m.bound.expect("end-to-end metrics carry a bound")
            );
        }
        let (fa, fb) = (
            failure_rate(wa).ok_or(format!("A: '{name}' has no ops count"))?,
            failure_rate(wb).ok_or(format!("B: '{name}' has no ops count"))?,
        );
        if fb > fa {
            failed = true;
            let _ = writeln!(
                out,
                "{name:<22} ops_failed/ops_attempted rose from {fa} to {fb}: FAILED"
            );
        }
    }
    Ok((out, failed))
}
