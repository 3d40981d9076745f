//! `compare` verdicts on synthetic inputs.

use pgr_benchmark::compare::{compare, verdict, Side, Verdict};
use pgr_benchmark::registry::{Metric, END_TO_END};

fn metric(name: &str) -> &'static Metric {
    END_TO_END.iter().find(|m| m.name == name).unwrap()
}

/// Nine samples around `center`, quartile spread ≈ `spread`.
fn timing(center: f64, spread: f64) -> Side {
    let samples: Vec<f64> = (-4..=4)
        .map(|i| center * (1.0 + spread * i as f64 / 5.0))
        .collect();
    Side {
        value: center,
        samples,
    }
}

fn exact(value: f64) -> Side {
    Side {
        value,
        samples: Vec::new(),
    }
}

#[test]
fn timing_verdicts_follow_the_bound_and_the_spread() {
    let route = metric("route_s");
    let bound = route.bound.unwrap();
    let a = timing(1.0, 0.02);
    assert_eq!(
        verdict(route, &a, &timing(1.0, 0.02)),
        Verdict::Unchanged,
        "A/A"
    );
    assert_eq!(
        verdict(route, &a, &timing(1.0 + bound * 0.9, 0.02)),
        Verdict::Unchanged
    );
    assert_eq!(
        verdict(route, &a, &timing(1.0 + bound * 1.1, 0.02)),
        Verdict::Regressed
    );
    // Better by less than the spread is noise; by more, a gain.
    assert_eq!(verdict(route, &a, &timing(0.99, 0.02)), Verdict::Unchanged);
    assert_eq!(verdict(route, &a, &timing(0.90, 0.02)), Verdict::Improved);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved() {
    let route = metric("route_s");
    let bound = route.bound.unwrap();
    let noisy = timing(1.0, bound * 2.0);
    // Medians 5 % apart, either way, inside noise twice the bound: no call.
    assert_eq!(
        verdict(route, &noisy, &timing(1.05, bound * 2.0)),
        Verdict::Unresolved
    );
    assert_eq!(
        verdict(route, &noisy, &timing(0.95, bound * 2.0)),
        Verdict::Unresolved
    );
    // One noisy side is enough.
    assert_eq!(
        verdict(route, &timing(1.0, 0.01), &noisy),
        Verdict::Unresolved
    );
    // … unless every run of B reads better than every run of A,
    assert_eq!(
        verdict(route, &noisy, &timing(0.4, bound * 2.0)),
        Verdict::Improved
    );
    // … or every run reads worse, by more than the bound.
    assert_eq!(
        verdict(route, &noisy, &timing(2.5, bound * 2.0)),
        Verdict::Regressed
    );
}

#[test]
fn exact_metrics_have_no_spread() {
    let tracks = metric("tracks");
    let bound = tracks.bound.unwrap();
    assert_eq!(
        verdict(tracks, &exact(7525.0), &exact(7525.0)),
        Verdict::Unchanged
    );
    assert_eq!(
        verdict(tracks, &exact(7525.0), &exact(7524.0)),
        Verdict::Improved
    );
    assert_eq!(
        verdict(tracks, &exact(7525.0), &exact(7526.0)),
        Verdict::Unchanged
    );
    let over = 7525.0 * (1.0 + bound * 1.01);
    assert_eq!(
        verdict(tracks, &exact(7525.0), &exact(over)),
        Verdict::Regressed
    );
}

/// A one-workload result file with the given `route_s` median, tracks
/// and failed-op count.
fn result_file(quick: bool, route_s: f64, tracks: f64, failed: u32) -> String {
    let samples: Vec<String> = timing(route_s, 0.02)
        .samples
        .iter()
        .map(|s| s.to_string())
        .collect();
    format!(
        r#"{{"schema":"pgr-benchmark/1","quick":{quick},"seed":1997,"instance":0,"seconds":12,"env":{{}},
"workloads":[{{"name":"serial_avq_large","input":{{}},"reps":{{}},
"ops_attempted":25,"ops_failed":{failed},"failures":[],
"end_to_end":{{"setup_s":{{"value":0.018,"unit":"s","samples":[0.018,0.018,0.018]}},
"route_s":{{"value":{route_s},"unit":"s","samples":[{}]}},
"peak_heap_mb":{{"value":89.98,"unit":"MB"}},
"tracks":{{"value":{tracks},"unit":"tracks"}},
"virtual_s":{{"value":1613.2,"unit":"sim_s"}}}},
"per_layer":{{}}}}]}}"#,
        samples.join(",")
    )
}

#[test]
fn compare_passes_an_a_a_pair_and_prints_every_metric() {
    let a = result_file(false, 0.497, 7525.0, 0);
    let (table, failed) = compare(&a, &a).unwrap();
    assert!(!failed, "{table}");
    for m in &END_TO_END {
        assert!(table.contains(m.name), "{table}");
    }
    assert_eq!(
        table.matches("unchanged").count(),
        END_TO_END.len(),
        "{table}"
    );
}

#[test]
fn compare_fails_on_a_regression_and_on_more_failed_ops() {
    let a = result_file(false, 0.497, 7525.0, 0);
    let (table, failed) = compare(&a, &result_file(false, 0.7, 7525.0, 0)).unwrap();
    assert!(failed && table.contains("REGRESSED"), "{table}");
    let (table, failed) = compare(&a, &result_file(false, 0.3, 7525.0, 0)).unwrap();
    assert!(!failed && table.contains("improved"), "{table}");
    let (table, failed) = compare(&a, &result_file(false, 0.497, 9000.0, 0)).unwrap();
    assert!(failed && table.contains("REGRESSED"), "{table}");
    let (table, failed) = compare(&a, &result_file(false, 0.497, 7525.0, 1)).unwrap();
    assert!(
        failed && table.contains("ops_failed/ops_attempted rose"),
        "{table}"
    );
}

#[test]
fn compare_refuses_quick_runs_and_foreign_files() {
    let a = result_file(false, 0.497, 7525.0, 0);
    let quick = result_file(true, 0.497, 7525.0, 0);
    assert!(compare(&a, &quick).unwrap_err().contains("--quick"));
    assert!(compare(&quick, &a).unwrap_err().contains("--quick"));
    assert!(compare(&a, "{\"schema\":\"other\"}")
        .unwrap_err()
        .contains("result file"));
    assert!(compare("not json", &a).is_err());
    // Another instance is another set of circuits.
    let held_out = a.replace("\"instance\":0", "\"instance\":7");
    assert!(compare(&a, &held_out)
        .unwrap_err()
        .contains("different instances"));
    // A workload of A that B lacks is an error, not a silent skip.
    let other = a.replace("serial_avq_large", "serial_big_100k");
    assert!(compare(&a, &other).unwrap_err().contains("missing"));
}
