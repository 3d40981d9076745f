//! Span self time: a span's duration minus the part its children cover.

use pgr_benchmark::adapter::Json;
use pgr_benchmark::spans::SpanLog;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let mut log = SpanLog::new("t");
    let root = log.record(None, "bench.route", "bench", None, 0.0, 10.0);
    log.record(Some(root), "a", "core", None, 1.0, 4.0);
    log.record(Some(root), "b", "core", None, 3.0, 6.0); // overlaps a
    log.record(Some(root), "c", "core", None, 6.0, 7.0); // touches b
                                                         // Union of children = [1, 7] = 6.
    assert!(close(log.self_time(root, None), 4.0));
}

#[test]
fn self_time_ignores_grandchildren_and_clips_to_the_parent() {
    let mut log = SpanLog::new("t");
    let root = log.record(None, "bench.route", "bench", None, 0.0, 10.0);
    let child = log.record(Some(root), "phase", "core", None, 2.0, 5.0);
    // Nested inside the child: covers part of the child, none of the
    // root's own time.
    log.record(Some(child), "kernel", "geom", None, 2.5, 4.5);
    // Starts inside the parent, ends after it: only [8, 10] counts.
    log.record(Some(root), "late", "core", None, 8.0, 12.0);
    // Entirely outside the parent: nothing counts.
    log.record(Some(root), "stray", "core", None, 11.0, 13.0);
    assert!(close(log.self_time(root, None), 10.0 - 3.0 - 2.0));
    assert!(close(log.self_time(child, None), 1.0));
    // A span with no children is all self time.
    let leaf = log.record(None, "probe.x", "geom", None, 20.0, 20.5);
    assert!(close(log.self_time(leaf, None), 0.5));
}

#[test]
fn self_time_along_one_rank() {
    let mut log = SpanLog::new("t");
    let root = log.record(None, "bench.route", "bench", None, 0.0, 10.0);
    log.record(Some(root), "core.phase.coarse", "core", Some(0), 0.5, 5.0);
    log.record(Some(root), "core.phase.coarse", "core", Some(1), 0.5, 9.0);
    log.record(Some(root), "core.phase.assemble", "core", Some(1), 9.0, 9.5);
    assert!(close(log.self_time(root, Some(0)), 5.5));
    assert!(close(log.self_time(root, Some(1)), 1.0));
    assert!(close(log.self_time(root, None), 1.0));
}

#[test]
fn timed_spans_nest_and_serialize() {
    let mut log = SpanLog::new("serial_avq_large.seed7");
    let (out, outer) = log.time(None, "outer", "bench", || 41 + 1);
    assert_eq!(out, 42);
    let (_, inner) = log.time(Some(outer), "inner", "geom", || ());
    assert!(log.get(inner).start_s >= log.get(outer).end_s);
    let doc = Json::parse(&log.to_json()).expect("spans.json is JSON");
    assert_eq!(
        doc.get("run").and_then(Json::as_str),
        Some("serial_avq_large.seed7")
    );
    let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
    assert_eq!(spans.len(), 2);
    for key in ["id", "parent", "name", "layer", "rank", "start_s", "end_s"] {
        assert!(spans[1].get(key).is_some(), "span field '{key}'");
    }
    assert_eq!(
        spans[1].get("parent").and_then(Json::as_u64),
        Some(outer as u64)
    );
    assert_eq!(spans[1].get("layer").and_then(Json::as_str), Some("geom"));
}
