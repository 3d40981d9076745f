//! The registry obeys the driver's limits, and `BENCHMARK.json` says
//! exactly what the registry says.

use pgr_benchmark::adapter::Json;
use pgr_benchmark::registry::{
    validate, Better, Metric, Workload, END_TO_END, PER_LAYER, PHASES, RUN_SECONDS, WORKLOADS,
};

#[test]
fn the_registry_is_within_the_contract() {
    validate(&WORKLOADS, &END_TO_END, &PER_LAYER).unwrap();
    assert_eq!(
        (WORKLOADS.len(), END_TO_END.len(), PER_LAYER.len()),
        (4, 5, 63)
    );
    for phase in PHASES {
        for suffix in ["wall_s", "virtual_s"] {
            assert!(
                pgr_benchmark::registry::phase_metric(phase, suffix).is_some(),
                "core.phase.{phase}.{suffix}"
            );
        }
    }
}

fn metric(name: &'static str, unit: &'static str, bound: Option<f64>) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

#[test]
fn validation_rejects_what_the_driver_would_refuse() {
    let setup = metric("setup_s", "s", Some(0.25));
    let layer = metric("core.x", "s", None);
    let ok = |e2e: &[Metric], layers: &[Metric]| validate(&WORKLOADS, e2e, layers);
    ok(&[setup], &[layer]).unwrap();
    // Charset, length and first character of names; charset of units.
    for bad in ["", "has space", "-leading", "ünï", "slash/in/name"] {
        assert!(
            ok(&[setup], &[metric(bad, "s", None)]).is_err(),
            "name '{bad}'"
        );
    }
    let long: &'static str = Box::leak("n".repeat(65).into_boxed_str());
    assert!(ok(&[setup], &[metric(long, "s", None)]).is_err());
    for bad in ["", "s (simulated)", "seventeen-chars-u"] {
        assert!(
            ok(&[setup], &[metric("core.x", bad, None)]).is_err(),
            "unit '{bad}'"
        );
    }
    // Uniqueness, across the two lists and the workloads.
    assert!(ok(&[setup], &[layer, layer]).is_err());
    assert!(ok(&[setup], &[metric("setup_s", "s", None)]).is_err());
    assert!(ok(&[setup], &[metric(WORKLOADS[0].name, "s", None)]).is_err());
    // Caps.
    let many = |n: usize, bound: Option<f64>| -> Vec<Metric> {
        (0..n)
            .map(|i| metric(Box::leak(format!("m{i}").into_boxed_str()), "s", bound))
            .collect()
    };
    assert!(ok(&[setup], &many(128, None)).is_ok());
    assert!(ok(&[setup], &many(129, None)).is_err());
    let mut e2e = many(16, Some(0.1));
    assert!(ok(&e2e, &[layer]).is_err(), "no setup_s");
    e2e[0] = setup;
    assert!(ok(&e2e, &[layer]).is_ok());
    e2e.push(metric("one_too_many", "s", Some(0.1)));
    assert!(ok(&e2e, &[layer]).is_err());
    assert!(ok(&[], &[layer]).is_err());
    assert!(ok(&[setup], &[]).is_err());
    // Bounds: end-to-end in (0, 0.25], per-layer none.
    for bound in [None, Some(0.0), Some(0.26), Some(-0.1)] {
        assert!(
            ok(&[setup, metric("route_s", "s", bound)], &[layer]).is_err(),
            "{bound:?}"
        );
    }
    assert!(ok(&[setup], &[metric("core.x", "s", Some(0.1))]).is_err());
    assert!(ok(&[metric("setup_s", "ms", Some(0.25))], &[layer]).is_err());
    // Workloads: 2 to 8, one-line whys of at most 200 characters.
    let w = |name: &'static str, why: &'static str| Workload {
        name,
        why,
        input: WORKLOADS[0].input,
        driver: WORKLOADS[0].driver,
    };
    assert!(validate(&[w("only", "one")], &[setup], &[layer]).is_err());
    assert!(validate(&[w("a", "x"), w("a", "y")], &[setup], &[layer]).is_err());
    assert!(validate(&[w("a", "x"), w("b", "two\nlines")], &[setup], &[layer]).is_err());
    let long_why: &'static str = Box::leak("y".repeat(201).into_boxed_str());
    assert!(validate(&[w("a", "x"), w("b", long_why)], &[setup], &[layer]).is_err());
    assert!(validate(&[w("a", "x"), w("b", "y")], &[setup], &[layer]).is_ok());
}

fn keys(obj: &Json) -> Vec<&str> {
    obj.as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn assert_metrics_equal(listed: &Json, registered: &[Metric], bounded: bool) {
    let listed = listed.as_arr().unwrap();
    assert_eq!(listed.len(), registered.len());
    for (j, m) in listed.iter().zip(registered) {
        let want = if bounded {
            vec!["name", "unit", "better", "bound"]
        } else {
            vec!["name", "unit", "better"]
        };
        assert_eq!(keys(j), want, "{}", m.name);
        assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(
            j.get("unit").and_then(Json::as_str),
            Some(m.unit),
            "{}",
            m.name
        );
        assert_eq!(
            j.get("better").and_then(Json::as_str),
            Some(m.better.as_str()),
            "{}",
            m.name
        );
        assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
    }
}

#[test]
fn benchmark_json_equals_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let strings = |key: &str| -> Vec<&str> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect()
    };
    assert_eq!(strings("paths"), ["benchmark"]);
    let command = strings("command");
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"benchmark/Cargo.toml") && command.contains(&"--release"));
    assert_eq!(
        command.last(),
        Some(&"run"),
        "the driver appends --workload … to `run`"
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(RUN_SECONDS)
    );

    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(j), ["name", "why"]);
        assert_eq!(j.get("name").and_then(Json::as_str), Some(w.name));
        assert_eq!(
            j.get("why").and_then(Json::as_str),
            Some(w.why),
            "{}",
            w.name
        );
    }
    assert_metrics_equal(doc.get("end_to_end").unwrap(), &END_TO_END, true);
    assert_metrics_equal(doc.get("per_layer").unwrap(), &PER_LAYER, false);
}
