//! End-to-end tests of the `pgr` command-line tool: generate → stats →
//! route (serial and parallel, with verification, CSV, heatmap, SVG).

use std::process::Command;

fn pgr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pgr"))
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("pgr-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

fn generate_netlist(name: &str) -> String {
    let path = tmp(name);
    let out = pgr()
        .args([
            "generate", "biomed", "--scale", "0.06", "--seed", "3", "-o", &path,
        ])
        .output()
        .expect("run pgr generate");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn generate_then_stats() {
    let path = generate_netlist("stats.netlist");
    let out = pgr().args(["stats", &path]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("name           biomed"), "{text}");
    assert!(text.contains("rows"));
    assert!(text.contains("max net degree"));
}

#[test]
fn route_serial_with_verify() {
    let path = generate_netlist("serial.netlist");
    let out = pgr().args(["route", &path, "--verify"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tracks"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("solution verified"), "{err}");
}

#[test]
fn route_parallel_csv_is_machine_readable() {
    let path = generate_netlist("par.netlist");
    let out = pgr()
        .args([
            "route",
            &path,
            "--algorithm",
            "hybrid",
            "--procs",
            "3",
            "--csv",
            "--verify",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    assert_eq!(
        header,
        "circuit,algorithm,procs,tracks,area,wirelength,feedthroughs,spans,sim_seconds"
    );
    let row = lines.next().unwrap();
    let fields: Vec<&str> = row.split(',').collect();
    assert_eq!(fields.len(), 9);
    assert_eq!(fields[0], "biomed");
    assert_eq!(fields[1], "hybrid");
    assert_eq!(fields[2], "3");
    assert!(fields[3].parse::<i64>().unwrap() > 0, "tracks numeric");
}

#[test]
fn route_with_svg_and_heatmap() {
    let path = generate_netlist("plot.netlist");
    let svg_path = tmp("chip.svg");
    let out = pgr()
        .args([
            "route",
            &path,
            "--svg",
            &svg_path,
            "--heatmap",
            "--detailed",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let svg = std::fs::read_to_string(&svg_path).expect("svg written");
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("</svg>"));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("congestion heatmap"), "{text}");
    assert!(text.contains("detailed (left-edge) routing"), "{text}");
}

#[test]
fn deterministic_across_invocations() {
    let path = generate_netlist("det.netlist");
    let run = || {
        let out = pgr()
            .args(["route", &path, "--csv", "--seed", "9"])
            .output()
            .unwrap();
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(run(), run());
}

#[test]
fn helpful_errors() {
    let out = pgr().args(["route", "/nonexistent/file"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let out = pgr()
        .args(["generate", "not-a-circuit", "-o", &tmp("x")])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown circuit"));

    let path = generate_netlist("badalgo.netlist");
    let out = pgr()
        .args(["route", &path, "--algorithm", "quantum"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));

    for scale in ["0", "-1", "nan"] {
        let out = pgr()
            .args(["generate", "biomed", "--scale", scale, "-o", &tmp("x")])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--scale {scale}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--scale must be in (0, 1]"), "{err}");
    }

    let out = pgr().arg("--help").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    for flag in ["--detailed", "--heatmap", "--svg FILE"] {
        assert!(err.contains(flag), "usage names {flag}: {err}");
    }
}
