//! What a run prints and writes: a table a person reads, the one-line
//! JSON object the driver reads, and the stamped result file `compare`
//! reads.

use crate::adapter::json_escape;
use crate::registry::Metric;
use crate::stats::summarize;
use crate::workload::{RunOptions, WorkloadReport};
use std::fmt::Write as _;
use std::process::Command;

pub const SCHEMA: &str = "pgr-benchmark/1";

/// `{}` on an `f64` is the shortest text that reads back to the same
/// number — every digit measured, and valid JSON for finite values.
fn num(v: f64) -> String {
    format!("{v}")
}

fn metric_json(m: &Metric, v: f64) -> String {
    format!(
        "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
        m.name,
        num(v),
        m.unit
    )
}

/// Every metric by name with its unit, the timing summaries, the ops
/// count and the traced pass's reconciliation.
pub fn print_table(r: &WorkloadReport) {
    println!(
        "== {} — {} nets, {} pins, {} rows, netlist {} B (fnv1a64 {:016x})",
        r.workload, r.facts.nets, r.facts.pins, r.facts.rows, r.netlist_bytes, r.netlist_hash
    );
    for (m, v) in &r.metrics {
        println!("{:<44} {:>18} {}", m.name, num(*v), m.unit);
        if let Some(samples) = r.timing(m.name) {
            let s = summarize(samples);
            let tail = match s.tail {
                Some((pct, v)) => format!("p{:.0} {v:.6}", pct.floor()),
                None => format!("max {:.6} (too few samples for a tail percentile)", s.max),
            };
            println!(
                "{:<44} n={} min {:.6} max {:.6} {} spread {:.4}",
                "", s.n, s.min, s.max, tail, s.spread
            );
        }
    }
    let reps: Vec<String> = r.reps.iter().map(|(p, n)| format!("{p}={n}")).collect();
    println!("repetitions: {}", reps.join(" "));
    if let Some(x) = r.reconciliation {
        println!("traced pass: (Σ core.phase.*.wall_s + core.route_self_s) ÷ bench.route = {x:.4}");
    }
    println!(
        "ops_attempted {} ops_failed {}",
        r.ops.attempted, r.ops.failed
    );
    for f in &r.ops.failures {
        println!("  FAILED {f}");
    }
}

/// The driver's contract: one JSON object, last on standard output, with
/// exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn contract_line(r: &WorkloadReport) -> String {
    let metrics: Vec<String> = r.metrics.iter().map(|(m, v)| metric_json(m, *v)).collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.ops.failed == 0,
        r.ops.attempted,
        r.ops.failed,
        metrics.join(",")
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and on what the numbers were taken. Only gathered when a result
/// file is written: the driver's runs stay inside their checkout.
fn environment_json() -> String {
    let unknown = || "unknown".to_string();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    format!(
        "{{\"git_commit\":\"{}\",\"rustc\":\"{}\",\"nproc\":{},\"cpu\":\"{}\"}}",
        json_escape(&command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        json_escape(&command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_escape(&cpu)
    )
}

/// The stamped result file: seed, environment, and per workload the
/// input facts, every repetition count, the ops, every metric and the
/// samples behind the timings.
pub fn result_json(reports: &[WorkloadReport], opts: &RunOptions) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{SCHEMA}\",\"quick\":{},\"seed\":{},\"instance\":{},\"seconds\":{},\"env\":{},\n\"workloads\":[",
        opts.quick,
        opts.seed,
        opts.instance,
        num(opts.seconds),
        environment_json()
    );
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"input\":{{\"nets\":{},\"pins\":{},\"cells\":{},\"rows\":{},\"width\":{},\"netlist_bytes\":{},\"netlist_hash\":\"{:016x}\"}},",
            r.workload, r.facts.nets, r.facts.pins, r.facts.cells, r.facts.rows, r.facts.width,
            r.netlist_bytes, r.netlist_hash
        );
        let reps: Vec<String> = r.reps.iter().map(|(p, n)| format!("\"{p}\":{n}")).collect();
        let failures: Vec<String> = r
            .ops
            .failures
            .iter()
            .map(|f| format!("\"{}\"", json_escape(f)))
            .collect();
        let _ = write!(
            out,
            "\n\"reps\":{{{}}},\"ops_attempted\":{},\"ops_failed\":{},\"failures\":[{}],",
            reps.join(","),
            r.ops.attempted,
            r.ops.failed,
            failures.join(",")
        );
        for (key, bounded) in [("end_to_end", true), ("per_layer", false)] {
            let entries: Vec<String> = r
                .metrics
                .iter()
                .filter(|(m, _)| m.bound.is_some() == bounded)
                .map(|(m, v)| match r.timing(m.name) {
                    Some(samples) => {
                        let s: Vec<String> = samples.iter().map(|&x| num(x)).collect();
                        format!(
                            "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":[{}]}}",
                            m.name,
                            num(*v),
                            m.unit,
                            s.join(",")
                        )
                    }
                    None => metric_json(m, *v),
                })
                .collect();
            let _ = write!(out, "\n\"{key}\":{{{}}}", entries.join(",\n"));
            out.push(if bounded { ',' } else { '}' });
        }
    }
    out.push_str("\n]}\n");
    out
}
