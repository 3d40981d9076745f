//! End-to-end check of the tracing exporters: a traced parallel route's
//! Chrome-trace phase spans must agree with the communicator's own
//! [`RankStats::phases`] accounting, and `--trace-out`'s file writer must
//! produce both artifacts.

use pgr_bench::tables::write_traces;
use pgr_circuit::mcnc::Mcnc;
use pgr_mpi::trace::chrome_trace_json;
use pgr_mpi::{run_instrumented, InstrumentConfig, MachineModel, RankStats, RunMeta, TraceConfig};
use pgr_router::{Algorithm, PartitionKind, RouterConfig};
use std::path::PathBuf;

fn meta(procs: usize) -> RunMeta {
    RunMeta::new("primary2", "row-wise", procs, "SparcCenter 1000", 0.05, 0)
}

fn traced_route(procs: usize) -> (Vec<RankStats>, Vec<pgr_mpi::RankTrace>, MachineModel) {
    let circuit = Mcnc::Primary2.circuit_scaled(0.05);
    let machine = MachineModel::sparc_center_1000();
    let cfg = RouterConfig::default();
    let procs = procs.min(circuit.num_rows());
    let traced = InstrumentConfig {
        trace: TraceConfig::on(),
        ..InstrumentConfig::off()
    };
    let (report, traces, _) = run_instrumented(procs, machine, traced, move |comm| {
        Algorithm::RowWise
            .try_route(&circuit, &cfg, PartitionKind::PinWeight, comm)
            .unwrap();
    });
    (report.stats, traces, machine)
}

/// Pull `"key":<number>` out of a single-line Chrome trace event.
fn field(line: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let start = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).expect("field terminator");
    rest[..end].parse().expect("numeric field")
}

fn name_of(line: &str) -> &str {
    let start = line.find("\"name\":\"").expect("name field") + 8;
    let end = start + line[start..].find('"').expect("name close");
    &line[start..end]
}

#[test]
fn chrome_trace_phase_spans_agree_with_rank_stats() {
    let (stats, traces, machine) = traced_route(4);
    assert_eq!(stats.len(), traces.len());
    assert!(
        traces.iter().all(|t| t.dropped == 0),
        "ring must not overflow at this size"
    );

    // Unit-level agreement: reconstructed durations equal the stats.
    for (s, t) in stats.iter().zip(&traces) {
        assert!(!s.phases.is_empty(), "route marks phases");
        assert_eq!(t.phase_durations(), s.phases, "rank {}", t.rank);
    }

    // Exporter-level agreement: parse the phase spans back out of the
    // Chrome JSON and compare durations (emitted in µs, 3 decimals).
    let json = pgr_mpi::chrome_trace_json(&traces);
    for (s, t) in stats.iter().zip(&traces) {
        let mut spans: Vec<(String, f64)> = Vec::new();
        for line in json.lines().filter(|l| l.contains("\"cat\":\"phase\"")) {
            if field(line, "tid") as usize == t.rank {
                let name = name_of(line)
                    .strip_prefix("phase:")
                    .expect("phase span name")
                    .to_string();
                spans.push((name, field(line, "dur") / 1e6));
            }
        }
        assert_eq!(spans.len(), s.phases.len(), "rank {}", t.rank);
        for ((got_name, got_dur), (want_name, want_dur)) in spans.iter().zip(&s.phases) {
            assert_eq!(got_name, want_name);
            assert!(
                (got_dur - want_dur).abs() < 1e-6,
                "rank {}: {got_name} {got_dur} vs {want_dur}",
                t.rank
            );
        }
    }
    let _ = machine;
}

#[test]
fn write_traces_emits_both_artifacts() {
    let (stats, traces, machine) = traced_route(2);
    let dir: PathBuf = std::env::temp_dir().join(format!("pgr-trace-test-{}", std::process::id()));
    let trace_path = write_traces(
        &dir,
        "primary2_row",
        chrome_trace_json(&traces),
        &stats,
        &machine,
        &meta(2),
        &[],
    )
    .expect("write ok");
    assert!(trace_path.ends_with("primary2_row.trace.json"));

    let trace_json = std::fs::read_to_string(&trace_path).expect("trace file");
    let stats_json =
        std::fs::read_to_string(dir.join("primary2_row.stats.json")).expect("stats file");
    std::fs::remove_dir_all(&dir).ok();

    // Both artifacts are balanced JSON naming every rank.
    for (json, tag) in [(&trace_json, "trace"), (&stats_json, "stats")] {
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{tag} balanced"
        );
    }
    for t in &traces {
        assert!(trace_json.contains(&format!("rank {}", t.rank)));
        assert!(stats_json.contains(&format!("\"rank\":{}", t.rank)));
    }
    assert!(stats_json.contains(&format!("\"machine\":\"{}\"", machine.name)));
    assert!(stats_json.contains("\"makespan\":"));
    // Every phase the stats account for shows up as a span.
    for (name, _) in &stats[0].phases {
        assert!(
            trace_json.contains(&format!("phase:{name}")),
            "missing span {name}"
        );
    }
}

#[test]
fn untraced_route_produces_no_trace_events() {
    let circuit = Mcnc::Primary2.circuit_scaled(0.05);
    let cfg = RouterConfig::default();
    let (_, traces, _) = run_instrumented(
        2,
        MachineModel::ideal(),
        InstrumentConfig::off(),
        move |comm| {
            Algorithm::RowWise
                .try_route(&circuit, &cfg, PartitionKind::PinWeight, comm)
                .unwrap();
        },
    );
    assert!(
        traces.is_empty(),
        "InstrumentConfig::off() must not collect anything"
    );
}
