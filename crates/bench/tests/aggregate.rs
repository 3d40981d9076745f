//! Aggregator integration tests: hand-built fixture dumps through
//! [`load_paths`] / [`aggregate`], plus a full round trip proving the
//! artifacts `--trace-out` writes are accepted back by `repro aggregate`.

use pgr_bench::aggregate::{aggregate, load_paths};
use pgr_bench::tables::write_traces;
use pgr_circuit::mcnc::Mcnc;
use pgr_mpi::trace::chrome_trace_json;
use pgr_mpi::{run_instrumented, InstrumentConfig, MachineModel, RunMeta};
use pgr_obs::{metrics_json, RankMetrics, SCHEMA_VERSION};
use pgr_router::{
    route_parallel_guarded, try_route_serial, Algorithm, PartitionKind, RouterConfig,
};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pgr-agg-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn meta(algorithm: &str, procs: usize) -> RunMeta {
    RunMeta::new("fixture", algorithm, procs, "TestBox", 1.0, 7)
}

/// Hand-built stats dump with a chosen makespan (one rank, one phase).
fn stats_fixture(run: &RunMeta, makespan: f64) -> String {
    format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"kind\":\"stats\",\"run\":{},\
         \"machine\":\"TestBox\",\"makespan\":{makespan},\"ranks\":[\
         {{\"rank\":0,\"time\":{makespan},\"ops\":1,\"msgs_sent\":0,\
         \"bytes_sent\":64,\"peak_mem\":0,\
         \"phases\":[{{\"name\":\"setup\",\"seconds\":{makespan}}}]}}]}}",
        run.to_json()
    )
}

/// Hand-built metrics dump carrying a tracks counter.
fn metrics_fixture(run: &RunMeta, tracks: u64) -> String {
    let mut m = RankMetrics::empty(0);
    m.counters.push(("route.tracks".into(), tracks));
    metrics_json(run, &[m])
}

fn write(dir: &std::path::Path, name: &str, text: &str) {
    std::fs::write(dir.join(name), text).unwrap();
}

#[test]
fn speedup_and_quality_from_hand_built_fixtures() {
    let dir = tmp_dir("speedup");
    let serial = meta("serial", 1);
    let par = meta("row-wise", 4);
    write(&dir, "serial.stats.json", &stats_fixture(&serial, 10.0));
    write(&dir, "serial.metrics.json", &metrics_fixture(&serial, 100));
    write(&dir, "par.stats.json", &stats_fixture(&par, 2.5));
    write(&dir, "par.metrics.json", &metrics_fixture(&par, 110));
    // A parallel run a budget breach cut short: its metrics dump holds
    // no tracks counter.
    let cut = meta("net-wise", 4);
    write(&dir, "cut.stats.json", &stats_fixture(&cut, 1.25));
    write(
        &dir,
        "cut.metrics.json",
        &metrics_json(&cut, &[RankMetrics::empty(0)]),
    );

    let records = load_paths(std::slice::from_ref(&dir)).unwrap();
    assert_eq!(records.len(), 3, "three distinct run identities");
    let agg = aggregate(&records);
    let row = |a: &str| {
        agg.records
            .iter()
            .find(|r| r.run.algorithm == a)
            .unwrap()
            .clone()
    };
    let s = row("serial");
    assert_eq!(s.get("speedup"), Some(1.0));
    assert_eq!(s.get("scaled_tracks"), Some(1.0));
    let p = row("row-wise");
    assert_eq!(p.get("makespan"), Some(2.5));
    assert_eq!(p.get("speedup"), Some(4.0), "10.0 / 2.5");
    assert_eq!(p.get("tracks"), Some(110.0));
    assert_eq!(p.get("scaled_tracks"), Some(1.1));
    assert_eq!(p.bytes_sent, 64);
    assert_eq!(p.phases.len(), 1);
    assert_eq!(p.phases[0].name, "setup");
    assert_eq!(p.phases[0].seconds, Some(2.5));
    // No speedup for a route that never completed, however short it ran.
    let c = row("net-wise");
    assert_eq!(c.get("makespan"), Some(1.25));
    assert_eq!(c.get("tracks"), None);
    assert_eq!(c.get("speedup"), None);
    assert_eq!(c.get("scaled_tracks"), None);

    // The markdown report names the series and carries both numbers.
    let md = agg.to_markdown();
    assert!(md.contains("fixture — TestBox"), "{md}");
    assert!(md.contains("4.00"), "{md}");
    assert!(md.contains("1.10"), "{md}");
    assert!(
        !md.contains("8.00"),
        "the cut-short run's 10.0 / 1.25: {md}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_is_deterministic_regardless_of_argument_order() {
    let dir_a = tmp_dir("det-a");
    let dir_b = tmp_dir("det-b");
    let serial = meta("serial", 1);
    let par = meta("net-wise", 2);
    write(&dir_a, "s.stats.json", &stats_fixture(&serial, 8.0));
    write(&dir_a, "s.metrics.json", &metrics_fixture(&serial, 50));
    write(&dir_b, "p.stats.json", &stats_fixture(&par, 4.0));
    write(&dir_b, "p.metrics.json", &metrics_fixture(&par, 55));

    let ab = aggregate(&load_paths(&[dir_a.clone(), dir_b.clone()]).unwrap());
    let ba = aggregate(&load_paths(&[dir_b.clone(), dir_a.clone()]).unwrap());
    assert_eq!(ab.to_json(), ba.to_json(), "argument order must not matter");
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn unparseable_and_mismatched_schema_are_rejected_by_name() {
    let dir = tmp_dir("reject");
    write(&dir, "bad.stats.json", "{ not json");
    let err = load_paths(std::slice::from_ref(&dir)).unwrap_err();
    assert!(err.contains("bad.stats.json"), "{err}");
    assert!(err.contains("unparseable"), "{err}");

    std::fs::remove_file(dir.join("bad.stats.json")).unwrap();
    let future = stats_fixture(&meta("serial", 1), 1.0).replace(
        &format!("\"schema_version\":{SCHEMA_VERSION}"),
        "\"schema_version\":999",
    );
    write(&dir, "future.stats.json", &future);
    let err = load_paths(std::slice::from_ref(&dir)).unwrap_err();
    assert!(err.contains("future.stats.json"), "{err}");
    assert!(err.contains("schema_version 999"), "{err}");

    // A field every v5 writer emits is required, by file and field —
    // not read as zero (a rank's bytes) or skipped (a phase entry).
    std::fs::remove_file(dir.join("future.stats.json")).unwrap();
    let whole = stats_fixture(&meta("serial", 1), 1.0);
    for (field, gone) in [
        ("ranks[].bytes_sent", "\"bytes_sent\":64,"),
        ("ranks[].time", "\"time\":1,"),
        ("ranks[].phases[].seconds", ",\"seconds\":1"),
        ("run.seed", ",\"seed\":7"),
    ] {
        assert!(whole.contains(gone), "fixture lost {gone}");
        write(&dir, "holed.stats.json", &whole.replace(gone, ""));
        let err = load_paths(std::slice::from_ref(&dir)).unwrap_err();
        assert!(err.contains("holed.stats.json"), "{err}");
        assert!(err.contains(field), "{err}");
    }

    std::fs::remove_file(dir.join("holed.stats.json")).unwrap();
    write(
        &dir,
        "odd.stats.json",
        &format!("{{\"schema_version\":{SCHEMA_VERSION},\"kind\":\"nope\",\"run\":{{}}}}"),
    );
    let err = load_paths(std::slice::from_ref(&dir)).unwrap_err();
    assert!(err.contains("odd.stats.json"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn phases_outside_the_registry_are_rejected_by_name() {
    // A dump naming a phase the registry does not know comes from a
    // pipeline that bypassed the engine; aggregating it would emit trend
    // series nothing can align with.
    let dir = tmp_dir("registry");
    let bad_stats = stats_fixture(&meta("serial", 1), 1.0).replace("\"setup\"", "\"warmup\"");
    write(&dir, "s.stats.json", &bad_stats);
    let err = load_paths(std::slice::from_ref(&dir)).unwrap_err();
    assert!(err.contains("warmup"), "{err}");
    assert!(err.contains("phase registry"), "{err}");

    std::fs::remove_file(dir.join("s.stats.json")).unwrap();
    let mut m = RankMetrics::empty(0);
    m.counters.push(("route.tracks".into(), 5));
    m.windows.push(("bogus".into(), RankMetrics::empty(0)));
    write(
        &dir,
        "m.metrics.json",
        &metrics_json(&meta("serial", 1), &[m]),
    );
    let err = load_paths(std::slice::from_ref(&dir)).unwrap_err();
    assert!(err.contains("bogus"), "{err}");
    assert!(err.contains("phase registry"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn phase_windows_round_trip_through_the_json() {
    let dir = tmp_dir("phase-gate");
    let run = meta("row-wise", 4);
    let mut m = RankMetrics::empty(0);
    m.counters.push(("route.wirelength".into(), 1000));
    let mut w = RankMetrics::empty(0);
    w.counters.push(("route.wirelength".into(), 1000));
    m.windows.push(("connect".into(), w));
    write(&dir, "p.metrics.json", &metrics_json(&run, &[m]));
    write(&dir, "p.stats.json", &stats_fixture(&run, 2.0));

    let agg = aggregate(&load_paths(std::slice::from_ref(&dir)).unwrap());
    let rec = &agg.records[0];
    let connect = rec.phases.iter().find(|p| p.name == "connect").unwrap();
    assert_eq!(
        connect.counters,
        vec![("route.wirelength".to_string(), 1000)],
        "window counters survive the JSON round trip"
    );
    assert!(
        agg.to_json().contains("\"name\":\"connect\""),
        "per-phase series emitted"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wait_fraction_and_phase_wait_series_derive() {
    let dir = tmp_dir("wait");
    let run = meta("hybrid", 4);
    // 2.0 rank-seconds blocked out of 4 ranks × 2.5 s makespan = 20 %,
    // 1.5 s of it inside the connect window.
    let mut m = RankMetrics::empty(0);
    m.counters.push(("mpi.recv_wait_micros".into(), 2_000_000));
    let mut w = RankMetrics::empty(0);
    w.counters.push(("mpi.recv_wait_micros".into(), 1_500_000));
    m.windows.push(("connect".into(), w));
    write(&dir, "p.metrics.json", &metrics_json(&run, &[m]));
    write(&dir, "p.stats.json", &stats_fixture(&run, 2.5));

    let agg = aggregate(&load_paths(std::slice::from_ref(&dir)).unwrap());
    let rec = &agg.records[0];
    assert_eq!(rec.get("wait_fraction"), Some(0.2));
    let connect = rec.phases.iter().find(|p| p.name == "connect").unwrap();
    assert_eq!(connect.wait_seconds, Some(1.5));
    // A phase with stats seconds but no metrics window carries no wait
    // number rather than a fabricated zero.
    let setup = rec.phases.iter().find(|p| p.name == "setup").unwrap();
    assert_eq!(setup.wait_seconds, None);
    let json = agg.to_json();
    assert!(json.contains("\"wait_fraction\":0.2"), "{json}");
    assert!(json.contains("\"wait_seconds\":1.5"), "{json}");
    let md = agg.to_markdown();
    assert!(md.contains("wait %"), "{md}");
    assert!(md.contains("20.0"), "{md}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Full round trip: two independent instrumented runs (a serial one and
/// a parallel one) written through the same `write_traces` path that
/// `repro --trace-out` uses, then merged by the aggregator into a
/// speedup report.
#[test]
fn trace_out_artifacts_round_trip_through_aggregate() {
    let dir_serial = tmp_dir("rt-serial");
    let dir_par = tmp_dir("rt-par");
    let machine = MachineModel::sparc_center_1000();
    let cfg = RouterConfig::default();

    let circuit = Mcnc::Primary2.circuit_scaled(0.05);
    let (report, traces, metrics) =
        run_instrumented(1, machine, InstrumentConfig::full(), move |comm| {
            try_route_serial(&circuit, &cfg, comm).unwrap();
        });
    let run = RunMeta::new("primary2", "serial", 1, machine.name, 0.05, 0);
    write_traces(
        &dir_serial,
        "primary2_serial",
        chrome_trace_json(&traces),
        &report.stats,
        &machine,
        &run,
        &metrics,
    )
    .unwrap();

    let circuit = Mcnc::Primary2.circuit_scaled(0.05);
    let cfg = RouterConfig::default();
    let procs = 4.min(circuit.num_rows());
    let out = route_parallel_guarded(
        &circuit,
        &cfg,
        Algorithm::RowWise,
        PartitionKind::PinWeight,
        procs,
        machine,
        InstrumentConfig::full(),
    );
    let run = RunMeta {
        algorithm: "row-wise".into(),
        procs: out.stats.len(),
        ..run
    };
    write_traces(
        &dir_par,
        "primary2_row-wise_p4",
        chrome_trace_json(&out.traces),
        &out.stats,
        &machine,
        &run,
        &out.metrics,
    )
    .unwrap();

    let records = load_paths(&[dir_serial.clone(), dir_par.clone()]).unwrap();
    assert_eq!(records.len(), 2, "two independent runs merged");
    let agg = aggregate(&records);
    let par = agg
        .records
        .iter()
        .find(|r| r.run.algorithm == "row-wise")
        .unwrap();
    assert!(par.get("speedup").is_some(), "speedup derived across runs");
    assert!(par.get("speedup").unwrap() > 0.0);
    assert_eq!(
        par.get("tracks"),
        Some(out.result.as_ref().unwrap().track_count().max(0) as f64)
    );
    assert!(par.get("load_imbalance").is_some_and(|x| x >= 1.0));
    assert!(!par.phases.is_empty(), "phase trend carried through");
    let serial = agg
        .records
        .iter()
        .find(|r| r.run.algorithm == "serial")
        .unwrap();
    assert_eq!(serial.get("speedup"), Some(1.0));
    std::fs::remove_dir_all(&dir_serial).ok();
    std::fs::remove_dir_all(&dir_par).ok();
}
