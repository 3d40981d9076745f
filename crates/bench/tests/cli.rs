//! Black-box CLI tests of the `repro` binary: flag validation, the
//! `--trace-out` directory guarantee, and the `aggregate` exit-code
//! contract (0 clean, 2 usage/load error).

use pgr_mpi::RunMeta;
use pgr_obs::{metrics_json, RankMetrics, SCHEMA_VERSION};
use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pgr-cli-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn meta(algorithm: &str, procs: usize) -> RunMeta {
    RunMeta::new("fixture", algorithm, procs, "TestBox", 1.0, 7)
}

fn stats_fixture(run: &RunMeta, makespan: f64) -> String {
    format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"kind\":\"stats\",\"run\":{},\
         \"machine\":\"TestBox\",\"makespan\":{makespan},\"ranks\":[\
         {{\"rank\":0,\"time\":{makespan},\"ops\":1,\"msgs_sent\":0,\
         \"bytes_sent\":0,\"peak_mem\":0,\"phases\":[]}}]}}",
        run.to_json()
    )
}

fn metrics_fixture(run: &RunMeta, tracks: u64) -> String {
    let mut m = RankMetrics::empty(0);
    m.counters.push(("route.tracks".into(), tracks));
    metrics_json(run, &[m])
}

/// Fixture set: a serial run plus one parallel run.
fn fixture_dir(tag: &str) -> PathBuf {
    let dir = tmp_dir(tag);
    let serial = meta("serial", 1);
    let par = meta("row-wise", 4);
    std::fs::write(dir.join("s.stats.json"), stats_fixture(&serial, 10.0)).unwrap();
    std::fs::write(dir.join("s.metrics.json"), metrics_fixture(&serial, 100)).unwrap();
    std::fs::write(dir.join("p.stats.json"), stats_fixture(&par, 2.5)).unwrap();
    std::fs::write(dir.join("p.metrics.json"), metrics_fixture(&par, 103)).unwrap();
    dir
}

#[test]
fn unknown_flag_is_an_error_not_a_target() {
    let out = repro(&["--bogus", "table1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown flag '--bogus'"),
        "{}",
        stderr(&out)
    );

    let out = repro(&["aggregate", "--bogus", "somewhere"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown flag '--bogus'"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn unknown_target_and_empty_invocations_exit_2() {
    let out = repro(&["no-such-target"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown target"), "{}", stderr(&out));

    assert_eq!(repro(&[]).status.code(), Some(2));
    assert_eq!(repro(&["aggregate"]).status.code(), Some(2));
}

#[test]
fn unknown_circuit_names_exit_2_with_the_valid_list() {
    for list in ["avq.lrage", "primary2,avq.lrage", "avq.lrage,primary2"] {
        let out = repro(&["--circuits", list, "table1"]);
        assert_eq!(out.status.code(), Some(2), "{list}");
        let err = stderr(&out);
        assert!(
            err.contains(
                "--circuits 'avq.lrage' is not a benchmark circuit; valid: primary2, biomed, \
                 industry2, industry3, avq.small, avq.large"
            ),
            "{list}: {err}"
        );
        assert!(out.stdout.is_empty(), "{list}: nothing runs");
    }
}

/// The usage text, `all` and the dispatch are generated from one table:
/// no target can be runnable but undocumented, and what `all` leaves out
/// is stated, not implied.
#[test]
fn help_lists_every_target_and_all_omits_exactly_the_two_smokes() {
    use pgr_bench::tables::TARGETS;
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(2));
    let help = stderr(&out);
    let listed = help
        .lines()
        .find_map(|l| l.strip_prefix("targets: "))
        .expect("a targets line");
    let listed: Vec<&str> = listed.split(' ').collect();
    let mut names: Vec<&str> = TARGETS.iter().map(|t| t.0).collect();
    names.push("all");
    assert_eq!(listed, names);
    let omitted: Vec<&str> = TARGETS.iter().filter(|t| !t.3).map(|t| t.0).collect();
    assert_eq!(omitted, ["stress", "big-circuit"]);
    assert!(
        help.contains("every target but stress big-circuit"),
        "{help}"
    );
    // Lookup takes the first row that matches: an alias must not shadow
    // another row's name.
    for alias in TARGETS.iter().flat_map(|t| t.1) {
        assert!(!names.contains(alias), "{alias} shadows a target");
    }
}

#[test]
fn trace_out_creates_missing_directories_at_parse_time() {
    let root = tmp_dir("trace-out");
    let nested = root.join("a/b/c");
    assert!(!nested.exists());
    // The unknown target aborts before any routing, but the directory
    // guarantee holds from flag parsing on.
    let out = repro(&["--trace-out", nested.to_str().unwrap(), "no-such-target"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(nested.is_dir(), "--trace-out must create the directory");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn aggregate_exit_codes_cover_clean_and_error() {
    let dir = fixture_dir("agg");
    let agg_json = dir.join("agg.json");

    // Clean run writes the report and exits 0.
    let out = repro(&[
        "aggregate",
        "--out",
        agg_json.to_str().unwrap(),
        "--md",
        dir.join("agg.md").to_str().unwrap(),
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(agg_json.is_file());

    // `--out` and `--md` are the only flags: the golden aggregate is
    // compared byte for byte outside `repro` (tests/golden_aggregate.rs).
    let out = repro(&["aggregate", "--baseline", agg_json.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown flag '--baseline'"),
        "{}",
        stderr(&out)
    );

    // Unusable input: missing path → 2 with the path named.
    let out = repro(&["aggregate", "/definitely/not/here"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("not/here"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}
