//! Per-rank event tracing over the virtual-time communicator.
//!
//! Every rank can record a stream of [`TraceEvent`]s — sends, receives,
//! collectives, computation, and phase markers — stamped with virtual
//! time. The default configuration ([`TraceConfig::off`]) records
//! nothing and allocates nothing on the send/recv hot path; enabling it
//! costs one ring-buffer push per event.
//!
//! Two exporters turn the traces into artifacts:
//!
//! * [`chrome_trace_json`] — a `chrome://tracing` / Perfetto timeline
//!   with one track per rank, phases as nested spans and messages as
//!   slices, all in virtual microseconds;
//! * [`stats_json`] — a compact machine-readable dump of
//!   [`RankStats`](crate::RankStats) for cross-run aggregation.
//!
//! Each rank's ring is its own, held by its [`Comm`](crate::Comm) like
//! its metric shard, and it also feeds the structured
//! [`CommError`](crate::error::CommError) diagnostics: when a receive
//! can never complete, the `Comm` attaches the ring's last events to
//! the error.

use crate::comm::RankStats;
use crate::machine::MachineModel;
use pgr_obs::{json_escape, RunMeta, Timer, SCHEMA_VERSION};
use std::collections::VecDeque;

/// Metric counting events evicted from a rank's trace ring — incremented
/// at eviction time so it lands in the phase window that overflowed.
/// Non-zero means exporters and the causal profiler saw a hole.
pub const TRACE_DROPPED: &str = "trace.dropped";

/// What a rank was doing during a traced interval.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// Point-to-point send (including collective-internal sends).
    ///
    /// `seq` is the per-`(src, dst)` transport sequence number — unique
    /// per message regardless of tag — which lets the causal profiler
    /// pair this event with its matching `Recv` even when chaos
    /// schedules perturb delivery order.
    Send {
        dst: usize,
        tag: u32,
        bytes: usize,
        seq: u64,
    },
    /// Point-to-point receive completion.
    ///
    /// `seq` mirrors the matching `Send`; `stamp` is the sender's
    /// virtual send-completion time carried by the delivered envelope
    /// (the receive charge was computed from it).
    Recv {
        src: usize,
        tag: u32,
        bytes: usize,
        seq: u64,
        stamp: f64,
    },
    /// Entry into a collective operation.
    Collective { op: &'static str },
    /// Explicitly charged computation.
    Compute { ops: u64 },
    /// A [`Comm::phase_mark`](crate::Comm::phase_mark) marker.
    Phase { name: &'static str },
    /// An instantaneous annotation from algorithm code.
    Mark { name: &'static str },
}

/// One traced interval on a rank's virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub kind: TraceEventKind,
    /// Virtual time when the event began (seconds).
    pub t0: f64,
    /// Virtual time when the event ended (seconds; `== t0` for marks).
    pub t1: f64,
}

impl TraceEvent {
    /// Short human-readable label (also used as the Chrome slice name).
    pub fn label(&self) -> String {
        match &self.kind {
            TraceEventKind::Send {
                dst, tag, bytes, ..
            } => format!("send→{dst} tag={tag} ({bytes} B)"),
            TraceEventKind::Recv {
                src, tag, bytes, ..
            } => format!("recv←{src} tag={tag} ({bytes} B)"),
            TraceEventKind::Collective { op } => format!("collective:{op}"),
            TraceEventKind::Compute { ops } => format!("compute {ops} ops"),
            TraceEventKind::Phase { name } => format!("phase:{name}"),
            TraceEventKind::Mark { name } => (*name).to_string(),
        }
    }
}

/// Events retained per rank: a ring, oldest evicted first. A fully
/// instrumented route of avq.large, the largest of the paper's circuits,
/// peaks near 51 000 events; a 100 000-net circuit overflows it.
pub const TRACE_CAPACITY: usize = 65_536;

/// Tracing configuration for a run. The default ([`TraceConfig::off`])
/// keeps the communicator allocation-free.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceConfig {
    /// Record events at all.
    pub enabled: bool,
}

impl TraceConfig {
    /// No tracing, no allocations: the default.
    pub const fn off() -> Self {
        TraceConfig { enabled: false }
    }

    /// Tracing on.
    pub const fn on() -> Self {
        TraceConfig { enabled: true }
    }
}

/// The completed event trace of one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct RankTrace {
    pub rank: usize,
    /// Events in virtual-time order (the last [`TRACE_CAPACITY`] at
    /// most).
    pub events: Vec<TraceEvent>,
    /// The rank's final virtual clock — closes the last open phase.
    pub final_time: f64,
    /// Events evicted from the ring (0 unless the run overflowed it).
    pub dropped: u64,
}

impl RankTrace {
    /// Phase durations reconstructed from the `Phase` markers: each mark
    /// to the next, the last to `final_time`. Matches
    /// [`RankStats::phases`] exactly when the ring did not overflow.
    pub fn phase_durations(&self) -> Vec<(&'static str, f64)> {
        let (names, starts): (Vec<&'static str>, Vec<f64>) = self
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Phase { name } => Some((name, e.t0)),
                _ => None,
            })
            .unzip();
        names
            .into_iter()
            .zip(mark_spans(&starts, self.final_time))
            .collect()
    }
}

/// Durations between consecutive marks: each of `starts` to the next,
/// the last to `end`.
pub(crate) fn mark_spans(starts: &[f64], end: f64) -> Vec<f64> {
    let ends = starts.iter().skip(1).chain([&end]);
    starts.iter().zip(ends).map(|(s, e)| e - s).collect()
}

/// One rank's event ring, owned by its [`Comm`](crate::Comm) like its
/// metric shard: nothing shares it, so recording takes no lock.
#[derive(Debug, Default)]
pub(crate) struct TraceRing {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceRing {
    /// Record one event; returns `true` when the ring was full and the
    /// oldest event was evicted to make room (the caller surfaces that
    /// as the [`TRACE_DROPPED`] metric).
    pub(crate) fn record(&mut self, event: TraceEvent) -> bool {
        let evicted = self.events.len() >= TRACE_CAPACITY;
        if evicted {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
        evicted
    }

    /// The last `n` events (for error context).
    pub(crate) fn tail(&self, n: usize) -> Vec<TraceEvent> {
        let skip = self.events.len().saturating_sub(n);
        self.events.iter().skip(skip).cloned().collect()
    }

    /// Close the ring into rank `rank`'s trace, ending at `final_time`.
    pub(crate) fn finish(self, rank: usize, final_time: f64) -> RankTrace {
        RankTrace {
            rank,
            events: self.events.into(),
            final_time,
            dropped: self.dropped,
        }
    }
}

fn micros(t: f64) -> f64 {
    t * 1e6
}

/// Render traces as Chrome Trace Event Format JSON (load in
/// `chrome://tracing` or <https://ui.perfetto.dev>). One timeline track
/// per rank (`tid` = rank); phases are rendered as spans covering the
/// interval from each phase marker to the next, message and compute
/// events as slices inside them. Matched send→recv pairs are linked by
/// flow arrows (`ph:"s"`/`ph:"f"`), so Perfetto renders the message
/// graph. Timestamps are **virtual** microseconds.
pub fn chrome_trace_json(traces: &[RankTrace]) -> String {
    chrome_trace_with_path(traces, None)
}

/// Reserved Perfetto color for a critical-path slice of the given class.
fn critical_cname(class: pgr_obs::BlameClass) -> &'static str {
    use pgr_obs::BlameClass::*;
    match class {
        Compute => "good",
        RecvWait => "terrible",
        Transport => "bad",
        Recovery => "yellow",
        Resume => "olive",
        Degraded => "grey",
    }
}

/// [`chrome_trace_json`] plus, when a critical path is supplied, one
/// color-tagged `cat:"critical"` slice per path segment on the owning
/// rank's track (compute green, recv-wait red, transport dark red,
/// recovery yellow, degraded grey). When any ring evicted events the
/// top-level object carries `"truncated":true` and the total drop count.
pub fn chrome_trace_with_path(
    traces: &[RankTrace],
    critical: Option<&[pgr_obs::PathSegment]>,
) -> String {
    let mut ev = Vec::new();
    ev.push(
        r#"{"name":"process_name","ph":"M","pid":0,"args":{"name":"pgr virtual ranks"}}"#
            .to_string(),
    );
    for t in traces {
        ev.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{},"args":{{"name":"rank {}"}}}}"#,
            t.rank, t.rank
        ));
        // Phase spans: marker-to-marker, the last closing at final_time.
        let phases = t.phase_durations();
        for (i, (name, dur)) in phases.iter().enumerate() {
            let start: f64 = phases[..i].iter().map(|(_, d)| d).sum();
            ev.push(format!(
                r#"{{"name":"phase:{}","cat":"phase","ph":"X","ts":{:.3},"dur":{:.3},"pid":0,"tid":{}}}"#,
                json_escape(name),
                micros(start + phase_origin(t)),
                micros(*dur),
                t.rank
            ));
        }
        for e in &t.events {
            let (cat, dur) = match e.kind {
                TraceEventKind::Phase { .. } => continue, // already emitted as spans
                TraceEventKind::Send { .. } => ("send", e.t1 - e.t0),
                TraceEventKind::Recv { .. } => ("recv", e.t1 - e.t0),
                TraceEventKind::Collective { .. } => ("collective", 0.0),
                TraceEventKind::Compute { .. } => ("compute", e.t1 - e.t0),
                TraceEventKind::Mark { .. } => ("mark", 0.0),
            };
            if dur > 0.0 {
                ev.push(format!(
                    r#"{{"name":"{}","cat":"{}","ph":"X","ts":{:.3},"dur":{:.3},"pid":0,"tid":{}}}"#,
                    json_escape(&e.label()),
                    cat,
                    micros(e.t0),
                    micros(dur),
                    t.rank
                ));
            } else {
                ev.push(format!(
                    r#"{{"name":"{}","cat":"{}","ph":"i","ts":{:.3},"s":"t","pid":0,"tid":{}}}"#,
                    json_escape(&e.label()),
                    cat,
                    micros(e.t0),
                    t.rank
                ));
            }
        }
    }
    // Flow arrows: one s/f pair per matched send→recv, anchored at the
    // end of each slice ("bp":"e" binds the finish to the enclosing
    // slice's close).
    let (matches, _) = crate::profile::match_messages(traces);
    for (id, m) in matches.iter().enumerate() {
        ev.push(format!(
            r#"{{"name":"msg","cat":"flow","ph":"s","id":{},"ts":{:.3},"pid":0,"tid":{}}}"#,
            id,
            micros(m.send_t1),
            m.src
        ));
        ev.push(format!(
            r#"{{"name":"msg","cat":"flow","ph":"f","bp":"e","id":{},"ts":{:.3},"pid":0,"tid":{}}}"#,
            id,
            micros(m.recv_t1),
            m.dst
        ));
    }
    if let Some(path) = critical {
        for s in path.iter().filter(|s| s.t1 > s.t0) {
            ev.push(format!(
                r#"{{"name":"critical:{}","cat":"critical","ph":"X","ts":{:.3},"dur":{:.3},"pid":0,"tid":{},"cname":"{}"}}"#,
                s.class.name(),
                micros(s.t0),
                micros(s.t1 - s.t0),
                s.rank,
                critical_cname(s.class)
            ));
        }
    }
    let dropped: u64 = traces.iter().map(|t| t.dropped).sum();
    let truncated = if dropped > 0 {
        format!("\"truncated\":true,\"dropped_events\":{dropped},")
    } else {
        String::new()
    };
    format!(
        "{{\"displayTimeUnit\":\"ms\",{truncated}\"traceEvents\":[\n{}\n]}}\n",
        ev.join(",\n")
    )
}

/// Virtual time of the first phase marker (phase spans start there, not
/// at zero, when setup work preceded the first marker).
fn phase_origin(t: &RankTrace) -> f64 {
    t.events
        .iter()
        .find_map(|e| match e.kind {
            TraceEventKind::Phase { .. } => Some(e.t0),
            _ => None,
        })
        .unwrap_or(0.0)
}

/// A rank's sub-phase timers as `,"timers":{phase:{timer:{"ns":…,"calls":…}}}`
/// (nothing when none ran): the host time behind a phase's
/// `wall_seconds`, under that phase's name.
fn timers_json(timers: &[(&'static str, &'static str, Timer)]) -> String {
    if timers.is_empty() {
        return String::new();
    }
    let mut phases: Vec<(&str, Vec<String>)> = Vec::new();
    for &(phase, name, t) in timers {
        let entry = format!("\"{name}\":{{\"ns\":{},\"calls\":{}}}", t.ns, t.calls);
        match phases.last_mut() {
            Some((p, entries)) if *p == phase => entries.push(entry),
            _ => phases.push((phase, vec![entry])),
        }
    }
    let phases: Vec<String> = phases
        .iter()
        .map(|(p, entries)| format!("\"{p}\":{{{}}}", entries.join(",")))
        .collect();
    format!(",\"timers\":{{{}}}", phases.join(","))
}

/// Compact JSON dump of per-rank statistics for cross-run aggregation:
/// `{"schema_version":…,"kind":"stats","run":{…},"machine":…,"makespan":…,
/// "ranks":[{rank,time,ops,…,phases:[…]},…]}`. The `run` descriptor
/// carries the coordinates (circuit, algorithm, procs, …) cross-run
/// series are keyed on, and `schema_version` lets the aggregator reject
/// dumps it cannot interpret instead of mis-reading them.
pub fn stats_json(stats: &[RankStats], machine: &MachineModel, run: &RunMeta) -> String {
    let makespan = stats.iter().map(|s| s.time).fold(0.0, f64::max);
    let ranks: Vec<String> = stats
        .iter()
        .map(|s| {
            let phases: Vec<String> = s
                .phases
                .iter()
                .enumerate()
                .map(|(i, (n, d))| {
                    // Wall seconds ride alongside the virtual account,
                    // per phase, when the run measured them.
                    let wall = s
                        .wall
                        .as_ref()
                        .and_then(|w| w.phases.get(i))
                        .map(|wd| format!(",\"wall_seconds\":{wd:.9}"))
                        .unwrap_or_default();
                    format!(
                        "{{\"name\":\"{}\",\"seconds\":{:.9}{}}}",
                        json_escape(n),
                        d,
                        wall
                    )
                })
                .collect();
            let wall = s
                .wall
                .as_ref()
                .map(|w| format!(",\"wall_time\":{:.9}{}", w.time, timers_json(&w.timers)))
                .unwrap_or_default();
            format!(
                "{{\"rank\":{},\"time\":{:.9}{},\"ops\":{},\"msgs_sent\":{},\"bytes_sent\":{},\"peak_mem\":{},\"phases\":[{}]}}",
                s.rank,
                s.time,
                wall,
                s.ops,
                s.msgs_sent,
                s.bytes_sent,
                s.peak_mem,
                phases.join(",")
            )
        })
        .collect();
    // `wall_makespan` appears only when every rank carried a wall
    // measurement — virtual-mode dumps stay byte-identical to those of
    // writers predating the field.
    let wall_makespan = crate::comm::wall_makespan(stats)
        .map(|t| format!(",\"wall_makespan\":{t:.9}"))
        .unwrap_or_default();
    format!(
        "{{\"schema_version\":{},\"kind\":\"stats\",\"run\":{},\"machine\":\"{}\",\"makespan\":{:.9}{},\"ranks\":[\n{}\n]}}\n",
        SCHEMA_VERSION,
        run.to_json(),
        json_escape(machine.name),
        makespan,
        wall_makespan,
        ranks.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(name: &'static str, t: f64) -> TraceEvent {
        TraceEvent {
            kind: TraceEventKind::Phase { name },
            t0: t,
            t1: t,
        }
    }

    #[test]
    fn phase_durations_close_at_final_time() {
        let t = RankTrace {
            rank: 0,
            events: vec![phase("a", 0.0), phase("b", 1.5), phase("c", 2.0)],
            final_time: 5.0,
            dropped: 0,
        };
        assert_eq!(
            t.phase_durations(),
            vec![("a", 1.5), ("b", 0.5), ("c", 3.0)]
        );
    }

    #[test]
    fn ring_capacity_evicts_oldest() {
        let mut ring = TraceRing::default();
        for i in 0..TRACE_CAPACITY + 2 {
            ring.record(phase("x", i as f64));
        }
        let traces = [ring.finish(0, 0.0)];
        assert_eq!(traces[0].events.len(), TRACE_CAPACITY);
        assert_eq!(traces[0].dropped, 2);
        assert_eq!(traces[0].events[0].t0, 2.0, "oldest two evicted");
    }

    #[test]
    fn chrome_json_has_one_track_per_rank() {
        let traces = vec![
            RankTrace {
                rank: 0,
                events: vec![phase("setup", 0.0)],
                final_time: 1.0,
                dropped: 0,
            },
            RankTrace {
                rank: 1,
                events: vec![phase("setup", 0.0)],
                final_time: 1.0,
                dropped: 0,
            },
        ];
        let json = chrome_trace_json(&traces);
        assert!(json.contains(r#""tid":0"#));
        assert!(json.contains(r#""tid":1"#));
        assert!(json.contains("rank 0"));
        assert!(json.contains("rank 1"));
        assert!(json.contains("phase:setup"));
        // Perfetto track labels: process + per-rank thread metadata.
        assert!(json.contains(r#""name":"process_name""#));
        assert_eq!(json.matches(r#""name":"thread_name""#).count(), 2);
        // Complete traces carry no truncation stamp.
        assert!(!json.contains("truncated"));
        // Sanity: balanced braces (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn chrome_json_links_matched_messages_with_flow_arrows() {
        let send = TraceEvent {
            kind: TraceEventKind::Send {
                dst: 1,
                tag: 7,
                bytes: 8,
                seq: 0,
            },
            t0: 0.0,
            t1: 0.1,
        };
        let recv = TraceEvent {
            kind: TraceEventKind::Recv {
                src: 0,
                tag: 7,
                bytes: 8,
                seq: 0,
                stamp: 0.1,
            },
            t0: 0.0,
            t1: 0.3,
        };
        let traces = vec![
            RankTrace {
                rank: 0,
                events: vec![send],
                final_time: 0.1,
                dropped: 0,
            },
            RankTrace {
                rank: 1,
                events: vec![recv],
                final_time: 0.3,
                dropped: 0,
            },
        ];
        let json = chrome_trace_json(&traces);
        assert!(json.contains(r#""ph":"s","id":0,"ts":100000.000,"pid":0,"tid":0"#));
        assert!(json.contains(r#""ph":"f","bp":"e","id":0,"ts":300000.000,"pid":0,"tid":1"#));
        // With a critical path supplied, segments become color-tagged
        // slices on the owning rank's track.
        let path = vec![pgr_obs::PathSegment {
            rank: 1,
            t0: 0.1,
            t1: 0.2,
            class: pgr_obs::BlameClass::RecvWait,
            phase: None,
        }];
        let annotated = chrome_trace_with_path(&traces, Some(&path));
        assert!(annotated.contains(r#""name":"critical:recv_wait""#));
        assert!(annotated.contains(r#""cname":"terrible""#));
    }

    #[test]
    fn chrome_json_stamps_truncation() {
        let traces = vec![RankTrace {
            rank: 0,
            events: vec![phase("setup", 0.0)],
            final_time: 1.0,
            dropped: 5,
        }];
        let json = chrome_trace_json(&traces);
        assert!(json.contains(r#""truncated":true"#));
        assert!(json.contains(r#""dropped_events":5"#));
        pgr_obs::Json::parse(&json).expect("truncated output still parses");
    }

    #[test]
    fn phase_durations_accumulate_recovery_reentries() {
        // A kill makes survivors re-enter phases from the top: the same
        // name appears once per entry, each interval measured to the
        // next mark, and the total still covers [first mark, final].
        let t = RankTrace {
            rank: 0,
            events: vec![
                phase("setup", 0.0),
                phase("steiner", 1.0),
                phase("setup", 1.5), // recovery restart re-enters
                phase("steiner", 3.5),
            ],
            final_time: 4.0,
            dropped: 0,
        };
        let durs = t.phase_durations();
        assert_eq!(
            durs,
            vec![
                ("setup", 1.0),
                ("steiner", 0.5),
                ("setup", 2.0),
                ("steiner", 0.5)
            ]
        );
        let total: f64 = durs.iter().map(|(_, d)| d).sum();
        assert_eq!(total, t.final_time);
        assert_eq!(durs.iter().filter(|(n, _)| *n == "setup").count(), 2);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn stats_json_is_complete() {
        let stats = vec![RankStats {
            rank: 0,
            time: 1.25,
            ops: 10,
            msgs_sent: 2,
            bytes_sent: 64,
            bytes_to: vec![0, 64],
            peak_mem: 128,
            phases: vec![("setup", 0.5), ("route", 0.75)],
            wall: None,
        }];
        let run = RunMeta::new("t", "serial", 1, "ideal", 1.0, 7);
        let json = stats_json(&stats, &MachineModel::ideal(), &run);
        assert!(json.contains(&format!("\"schema_version\":{SCHEMA_VERSION}")));
        assert!(json.contains("\"kind\":\"stats\""));
        assert!(json.contains("\"circuit\":\"t\""));
        assert!(json.contains("\"algorithm\":\"serial\""));
        assert!(json.contains("\"machine\":\"ideal\""));
        assert!(json.contains("\"rank\":0"));
        assert!(json.contains("\"setup\""));
        assert!(json.contains("\"route\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The emitted document is valid JSON by the workspace's own reader.
        pgr_obs::Json::parse(&json).expect("stats_json parses");
        // Virtual-mode dumps carry no wall fields at all.
        assert!(!json.contains("wall"));
        assert!(!json.contains("clock"));
    }

    #[test]
    fn stats_json_carries_wall_seconds_when_measured() {
        let stats = vec![RankStats {
            rank: 0,
            time: 1.25,
            ops: 10,
            msgs_sent: 2,
            bytes_sent: 64,
            bytes_to: vec![0, 64],
            peak_mem: 128,
            phases: vec![("setup", 0.5), ("route", 0.75)],
            wall: Some(crate::comm::WallStats {
                time: 0.003,
                phases: vec![0.001, 0.002],
                timers: vec![
                    ("coarse", "mpi.blocked", Timer { ns: 7, calls: 1 }),
                    ("coarse", "ft.attach", Timer { ns: 30, calls: 3 }),
                    ("coarse", "mpi.parked", Timer { ns: 4, calls: 1 }),
                    ("connect", "connect.kernel", Timer { ns: 5, calls: 2 }),
                ],
            }),
        }];
        let run = RunMeta {
            clock: "wall".into(),
            ..RunMeta::new("t", "serial", 1, "ideal", 1.0, 7)
        };
        let json = stats_json(&stats, &MachineModel::ideal(), &run);
        let v = pgr_obs::Json::parse(&json).expect("stats_json parses");
        let r = v.get("run").unwrap();
        assert_eq!(r.get("clock").unwrap().as_str(), Some("wall"));
        assert_eq!(v.get("wall_makespan").unwrap().as_f64(), Some(0.003));
        let rank0 = &v.get("ranks").unwrap().as_arr().unwrap()[0];
        assert_eq!(rank0.get("wall_time").unwrap().as_f64(), Some(0.003));
        // Virtual account is still the primary record.
        assert_eq!(rank0.get("time").unwrap().as_f64(), Some(1.25));
        let phases = rank0.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases[0].get("seconds").unwrap().as_f64(), Some(0.5));
        assert_eq!(phases[0].get("wall_seconds").unwrap().as_f64(), Some(0.001));
        assert_eq!(phases[1].get("wall_seconds").unwrap().as_f64(), Some(0.002));
        // The sub-phase timers sit under the phase they ran in.
        let timers = rank0.get("timers").unwrap();
        let timer = |phase: &str, name: &str, field: &str| {
            let t = timers.get(phase).and_then(|p| p.get(name));
            t.and_then(|t| t.get(field)).and_then(|v| v.as_u64())
        };
        assert_eq!(timer("coarse", "ft.attach", "ns"), Some(30));
        assert_eq!(timer("coarse", "ft.attach", "calls"), Some(3));
        assert_eq!(timer("coarse", "mpi.blocked", "calls"), Some(1));
        assert_eq!(timer("coarse", "mpi.parked", "ns"), Some(4));
        assert_eq!(timer("coarse", "mpi.parked", "calls"), Some(1));
        assert_eq!(timer("connect", "connect.kernel", "ns"), Some(5));
    }
}
