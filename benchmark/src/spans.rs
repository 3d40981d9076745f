//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Kept in memory and written out when the workload ends
//! (`--trace-dir/<workload>.spans.json`). Spans inside the program are a
//! later change; until then the per-rank × phase spans are rebuilt from
//! what the public run report returns.

use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    pub name: String,
    /// The crate the time is spent in (`core`, `mpi`, `geom`, …) or
    /// `bench` for the benchmark's own root spans.
    pub layer: &'static str,
    pub rank: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// All spans of one workload run; they share the `run` identifier.
pub struct SpanLog {
    pub run: String,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(run: impl Into<String>) -> Self {
        SpanLog {
            run: run.into(),
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since this log's epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn record(
        &mut self,
        parent: Option<SpanId>,
        name: impl Into<String>,
        layer: &'static str,
        rank: Option<usize>,
        start_s: f64,
        end_s: f64,
    ) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            layer,
            rank,
            start_s,
            end_s,
        });
        id
    }

    /// Runs `f` inside a new span and returns its result and the span.
    pub fn time<R>(
        &mut self,
        parent: Option<SpanId>,
        name: impl Into<String>,
        layer: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (out, self.record(parent, name, layer, None, start, end))
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// A span's duration minus the part of it that its child spans cover
    /// (overlapping children are counted once; parts of a child outside
    /// the parent are ignored). `rank` restricts the children to one
    /// rank's — the way to ask for the self time along the slowest rank
    /// of a parallel call.
    pub fn self_time(&self, id: SpanId, rank: Option<usize>) -> f64 {
        let parent = &self.spans[id];
        let mut covered: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id) && (rank.is_none() || s.rank == rank))
            .map(|s| (s.start_s.max(parent.start_s), s.end_s.min(parent.end_s)))
            .filter(|(a, b)| b > a)
            .collect();
        covered.sort_by(|a, b| a.partial_cmp(b).expect("span times are never NaN"));
        let mut union = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (a, b) in covered {
            if b > reach {
                union += b - a.max(reach);
                reach = b;
            }
        }
        parent.duration() - union
    }

    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"run\":\"{}\",\"spans\":[", self.run);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"rank\":{},\"start_s\":{:.9},\"end_s\":{:.9}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.layer,
                s.rank.map_or("null".to_string(), |r| r.to_string()),
                s.start_s,
                s.end_s
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
