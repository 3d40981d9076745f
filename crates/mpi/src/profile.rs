//! Cross-rank causal profiling: happens-before matching, critical-path
//! extraction, and makespan blame attribution.
//!
//! The virtual clocks make this exact rather than statistical. A rank's
//! clock only advances inside traced events, so each [`RankTrace`]'s
//! positive-duration events tile `[0, final_time]` with no gaps; and a
//! receive's charge is a pure function of the receiver's clock and the
//! delivered stamp (`start = max(t0 + recv_overhead, stamp + latency)`),
//! so re-deriving it from the trace reproduces the scheduler's
//! arithmetic bit-for-bit. [`match_messages`] pairs every `Send` with
//! its `Recv` on the transport sequence number `(src, dst, seq)` — the
//! same identity the reliable transport orders deliveries by, so the
//! matching is invariant to any reorder/duplicate schedule reliability
//! masks. [`build_profile`] then walks the happens-before DAG backwards
//! from the slowest rank's final clock: whenever a receive was bound by
//! its sender (`stamp + latency > t0 + recv_overhead`) the path hops to
//! the sender's send-completion, otherwise it stays local. The result
//! is a contiguous chain of [`PathSegment`]s whose durations telescope
//! to the makespan *exactly*, each blamed on a [`BlameClass`].
//!
//! When the trace ring evicted events ([`RankTrace::dropped`] non-zero)
//! the chain would have holes, so the profiler refuses to fabricate one:
//! it degrades to the per-phase compute/wait/slack attribution (which
//! only needs the events that survived) and says so in
//! [`Profile::warnings`].

use crate::machine::MachineModel;
use crate::trace::{RankTrace, TraceEvent, TraceEventKind};
use pgr_obs::profile::PRE_PHASE;
use pgr_obs::{
    BlameClass, PathSegment, PhaseBlame, Profile, RankBlame, MARK_DEGRADED_SERIAL,
    MARK_RECOVERY_CAUGHT_UP, MARK_RECOVERY_RESTART,
};
use std::collections::HashMap;

/// One send paired with its delivery — an edge of the happens-before
/// DAG. All ranks are physical ids (trace indices).
#[derive(Debug, Clone, PartialEq)]
pub struct MatchedMessage {
    pub src: usize,
    pub dst: usize,
    pub tag: u32,
    /// Per-`(src, dst)` transport sequence number the pair was matched on.
    pub seq: u64,
    pub bytes: usize,
    pub send_t0: f64,
    /// Sender's virtual send completion (equals the delivered stamp
    /// unless an unmasked delay inflated the wire).
    pub send_t1: f64,
    /// Stamp carried by the delivered envelope.
    pub stamp: f64,
    pub recv_t0: f64,
    pub recv_t1: f64,
}

/// Pair every traced `Recv` with its `Send` by `(src, dst, seq)`.
///
/// Returns the matches in receiver trace order plus warnings for
/// receives whose send is missing (only possible when a ring truncated
/// or the sender died before tracing the send). Unmatched *sends* are
/// normal — dropped frames (sentinel seq), messages to ranks that died,
/// or in-flight frames a victim never drained — and are not warned
/// about.
pub fn match_messages(traces: &[RankTrace]) -> (Vec<MatchedMessage>, Vec<String>) {
    let sends = send_index(traces);
    let mut matches = Vec::new();
    let mut warnings = Vec::new();
    for t in traces {
        for e in &t.events {
            if let TraceEventKind::Recv {
                src,
                tag,
                bytes,
                seq,
                stamp,
            } = e.kind
            {
                match sends.get(&(src, t.rank, seq)) {
                    Some(&(s0, s1)) => matches.push(MatchedMessage {
                        src,
                        dst: t.rank,
                        tag,
                        seq,
                        bytes,
                        send_t0: s0,
                        send_t1: s1,
                        stamp,
                        recv_t0: e.t0,
                        recv_t1: e.t1,
                    }),
                    None => {
                        if warnings.len() < 8 {
                            warnings.push(format!(
                                "recv on rank {} from {} seq {} has no matching send",
                                t.rank, src, seq
                            ));
                        }
                    }
                }
            }
        }
    }
    (matches, warnings)
}

/// Every traced send that reached the wire, keyed by `(src, dst, seq)`,
/// with its `(t0, t1)` interval.
fn send_index(traces: &[RankTrace]) -> HashMap<(usize, usize, u64), (f64, f64)> {
    let mut sends = HashMap::new();
    for t in traces {
        for e in &t.events {
            if let TraceEventKind::Send { dst, seq, .. } = e.kind {
                if seq != u64::MAX {
                    sends.insert((t.rank, dst, seq), (e.t0, e.t1));
                }
            }
        }
    }
    sends
}

/// Per-rank derived view used by the walk and the phase tables.
struct RankView<'a> {
    /// Positive-duration events, chronological; their `t1`s are strictly
    /// increasing and, on an untruncated trace, tile `[first.t0,
    /// final_time]`.
    dur: Vec<&'a TraceEvent>,
    /// `(phase name, mark time)` in order; re-entered phases appear
    /// once per entry.
    marks: Vec<(&'static str, f64)>,
    /// Time of the last `recovery.restart` mark, if any.
    last_restart: Option<f64>,
    /// Time of the last `recovery.caught_up` mark, if any — the moment
    /// the final checkpoint-resumed attempt finished replaying to the
    /// boundary where the previous attempt died.
    last_caught_up: Option<f64>,
    /// Time of the first `degraded.serial` mark, if any.
    degraded_from: Option<f64>,
}

impl<'a> RankView<'a> {
    fn build(t: &'a RankTrace) -> Self {
        let mut v = RankView {
            dur: Vec::new(),
            marks: Vec::new(),
            last_restart: None,
            last_caught_up: None,
            degraded_from: None,
        };
        for e in &t.events {
            match e.kind {
                TraceEventKind::Phase { name } => v.marks.push((name, e.t0)),
                TraceEventKind::Mark { name } => {
                    if name == MARK_RECOVERY_RESTART {
                        v.last_restart = Some(e.t0);
                    } else if name == MARK_RECOVERY_CAUGHT_UP {
                        v.last_caught_up = Some(e.t0);
                    } else if name == MARK_DEGRADED_SERIAL && v.degraded_from.is_none() {
                        v.degraded_from = Some(e.t0);
                    }
                }
                _ => {
                    if e.t1 > e.t0 {
                        v.dur.push(e);
                    }
                }
            }
        }
        v
    }

    /// Phase a moment *ending* at `t` belongs to: the latest mark
    /// strictly before `t` (a segment ending exactly at a boundary
    /// belongs to the phase that just closed).
    fn phase_at(&self, t: f64) -> &'static str {
        self.marks
            .iter()
            .rev()
            .find(|&&(_, m)| m < t)
            .map(|&(n, _)| n)
            .unwrap_or(PRE_PHASE)
    }

    /// Index of the duration event ending exactly at `t`, if any.
    fn event_ending_at(&self, t: f64) -> Option<usize> {
        let i = self.dur.partition_point(|e| e.t1 < t);
        (i < self.dur.len() && self.dur[i].t1 == t).then_some(i)
    }
}

/// The recv-side wait inside one receive event: how long the rank sat
/// blocked past its own overhead because the wire had not delivered.
/// Re-derives the scheduler's charge exactly.
fn recv_wait(e: &TraceEvent, stamp: f64, machine: &MachineModel) -> f64 {
    let ready = e.t0 + machine.recv_overhead;
    let start = ready.max(stamp + machine.latency);
    start - ready
}

/// Build a run's causal [`Profile`] from its traces.
///
/// Always produces the per-phase × rank compute/wait/slack tables; on a
/// complete (untruncated) trace additionally extracts the critical path.
/// `machine` must be the model the run executed under — the walk
/// re-derives receive charges from it.
pub fn build_profile(traces: &[RankTrace], machine: &MachineModel) -> Profile {
    let mut profile = Profile {
        makespan: traces.iter().map(|t| t.final_time).fold(0.0, f64::max),
        dropped_events: traces.iter().map(|t| t.dropped).sum(),
        ..Profile::default()
    };
    let views: Vec<RankView> = traces.iter().map(RankView::build).collect();

    // --- per-phase × rank blame (survives truncation) ---
    let mut order: Vec<&'static str> = Vec::new();
    let mut totals: HashMap<(&'static str, usize), (f64, f64)> = HashMap::new();
    for (t, v) in traces.iter().zip(&views) {
        for e in &v.dur {
            let phase = v.phase_at(e.t1);
            if !order.contains(&phase) {
                order.push(phase);
            }
            let cell = totals.entry((phase, t.rank)).or_insert((0.0, 0.0));
            cell.0 += e.t1 - e.t0;
            if let TraceEventKind::Recv { stamp, .. } = e.kind {
                cell.1 += recv_wait(e, stamp, machine);
            }
        }
    }
    for &phase in &order {
        let mut ranks: Vec<RankBlame> = traces
            .iter()
            .filter_map(|t| {
                totals
                    .get(&(phase, t.rank))
                    .map(|&(total, wait)| RankBlame {
                        rank: t.rank,
                        total,
                        compute: total - wait,
                        wait,
                        slack: 0.0,
                    })
            })
            .collect();
        let slowest = ranks.iter().map(|r| r.total).fold(0.0, f64::max);
        for r in &mut ranks {
            r.slack = slowest - r.total;
        }
        profile.phases.push(PhaseBlame {
            phase,
            on_path: [0.0; 6],
            ranks,
        });
    }

    if profile.dropped_events > 0 {
        profile.truncated = true;
        profile.warnings.push(format!(
            "trace ring evicted {} event(s); critical path unavailable, \
             falling back to per-phase attribution",
            profile.dropped_events
        ));
        return profile;
    }
    if profile.makespan == 0.0 {
        return profile;
    }

    // --- critical-path walk ---
    let sends = send_index(traces);
    let mut segs: Vec<PathSegment> = Vec::new();
    let push = |segs: &mut Vec<PathSegment>, rank: usize, t0: f64, t1: f64, class: BlameClass| {
        if t1 > t0 {
            segs.push(PathSegment {
                rank,
                t0,
                t1,
                class,
                phase: None,
            });
        }
    };
    let total_events: usize = views.iter().map(|v| v.dur.len()).sum();
    let cap = 2 * total_events + 16;
    let mut r = traces
        .iter()
        .position(|t| t.final_time == profile.makespan)
        .expect("some rank attains the makespan");
    let mut t = profile.makespan;
    let mut steps = 0usize;
    let mut failure: Option<String> = None;
    while t > 0.0 {
        steps += 1;
        if steps > cap {
            failure =
                Some("critical-path walk made no progress (degenerate machine model?)".into());
            break;
        }
        let Some(i) = views[r].event_ending_at(t) else {
            failure = Some(format!("no traced event on rank {r} ends at t={t}"));
            break;
        };
        let e = views[r].dur[i];
        match e.kind {
            TraceEventKind::Recv {
                src, seq, stamp, ..
            } => {
                let ready = e.t0 + machine.recv_overhead;
                let start = ready.max(stamp + machine.latency);
                if start > ready {
                    // The sender was binding: transfer, then the wire,
                    // then hop to the send's completion.
                    let Some(&(_s0, s1)) = sends.get(&(src, r, seq)) else {
                        failure = Some(format!(
                            "recv on rank {r} from {src} seq {seq} has no matching send"
                        ));
                        break;
                    };
                    push(&mut segs, r, start, t, BlameClass::Compute);
                    push(&mut segs, r, stamp, start, BlameClass::RecvWait);
                    if stamp > s1 {
                        push(&mut segs, r, s1, stamp, BlameClass::Transport);
                    }
                    r = src;
                    t = s1;
                } else {
                    // The receiver's own overhead/backlog was binding:
                    // the whole event is local progress.
                    push(&mut segs, r, e.t0, t, BlameClass::Compute);
                    t = e.t0;
                }
            }
            _ => {
                push(&mut segs, r, e.t0, t, BlameClass::Compute);
                t = e.t0;
            }
        }
    }
    if let Some(why) = failure {
        profile
            .warnings
            .push(format!("{why}; falling back to per-phase attribution"));
        return profile;
    }
    segs.reverse();

    // Recovery/resume/degraded reclassification and phase tagging.
    // Ordering matters: time before the last restart is thrown-away
    // work (Recovery) even when earlier rounds resumed; time between
    // the last restart and the last caught-up mark is the final
    // resume's replay (Resume); anything after is normal progress.
    for s in &mut segs {
        let v = &views[s.rank];
        if v.degraded_from.is_some_and(|d| s.t1 > d) {
            s.class = BlameClass::Degraded;
        } else if v.last_restart.is_some_and(|m| s.t1 <= m) {
            s.class = BlameClass::Recovery;
        } else if v.last_caught_up.is_some_and(|m| s.t1 <= m) {
            s.class = BlameClass::Resume;
        }
        s.phase = Some(v.phase_at(s.t1));
        profile.class_seconds[s.class.index()] += s.t1 - s.t0;
        let name = s.phase.expect("just set");
        let entry = match profile.phases.iter_mut().find(|p| p.phase == name) {
            Some(p) => p,
            None => {
                profile.phases.push(PhaseBlame {
                    phase: name,
                    on_path: [0.0; 6],
                    ranks: Vec::new(),
                });
                profile.phases.last_mut().expect("just pushed")
            }
        };
        entry.on_path[s.class.index()] += s.t1 - s.t0;
    }
    profile.critical_path = segs;
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{run_instrumented, InstrumentConfig};
    use crate::trace::TraceConfig;
    use pgr_obs::{MetricsConfig, Phase};

    fn machine() -> MachineModel {
        MachineModel::sparc_center_1000()
    }

    fn instrument() -> InstrumentConfig {
        InstrumentConfig {
            trace: TraceConfig::on(),
            metrics: MetricsConfig::on(),
            ..InstrumentConfig::default()
        }
    }

    /// Two ranks: 1 computes then sends, 0 waits on the recv. The
    /// critical path must hop through rank 1 and blame the wire.
    #[test]
    fn path_hops_to_a_binding_sender() {
        let m = machine();
        let (_, traces, _) = run_instrumented(2, m, instrument(), |comm| {
            if comm.rank() == 1 {
                comm.compute(500_000);
                comm.send(0, 7, &42u64);
            } else {
                let _: u64 = comm.recv(1, 7);
                comm.compute(1_000);
            }
        });
        let p = build_profile(&traces, &m);
        assert!(p.warnings.is_empty(), "warnings: {:?}", p.warnings);
        assert!(p.is_contiguous(), "path: {:?}", p.critical_path);
        assert_eq!(p.critical_path_seconds(), p.makespan);
        assert!(
            p.critical_path.iter().any(|s| s.rank == 1),
            "path must visit the binding sender"
        );
        // The wire hop [stamp, stamp + latency] is on the path; its
        // length is latency up to one ULP of the surrounding magnitude.
        assert!(
            p.class_seconds[BlameClass::RecvWait.index()] >= 0.99 * m.latency,
            "the wire hop is on the path"
        );
        assert_eq!(p.class_seconds[BlameClass::Transport.index()], 0.0);
    }

    /// A receiver that computes long past the send is never bound by the
    /// sender: the path stays on the receiver.
    #[test]
    fn path_stays_local_when_receiver_is_binding() {
        let m = machine();
        let (_, traces, _) = run_instrumented(2, m, instrument(), |comm| {
            if comm.rank() == 1 {
                comm.send(0, 7, &42u64);
            } else {
                comm.compute(5_000_000);
                let _: u64 = comm.recv(1, 7);
            }
        });
        let p = build_profile(&traces, &m);
        assert!(p.is_contiguous());
        assert_eq!(p.critical_path_seconds(), p.makespan);
        // Rank 0 computes ~10× longer than rank 1's send; the final
        // event chain is all rank 0.
        assert!(p.critical_path.iter().all(|s| s.rank == 0));
        assert_eq!(p.class_seconds[BlameClass::RecvWait.index()], 0.0);
    }

    #[test]
    fn matching_pairs_every_recv_and_is_tag_blind() {
        let m = machine();
        let (_, traces, _) = run_instrumented(3, m, instrument(), |comm| {
            let me = comm.rank();
            let next = (me + 1) % comm.size();
            let prev = (me + comm.size() - 1) % comm.size();
            // Two tags interleaved over the same (src, dst) edge.
            comm.send(next, 1, &(me as u64));
            comm.send(next, 2, &(me as u64 + 100));
            let a: u64 = comm.recv(prev, 1);
            let b: u64 = comm.recv(prev, 2);
            assert_eq!(b - a, 100);
        });
        let (matches, warnings) = match_messages(&traces);
        assert!(warnings.is_empty(), "{warnings:?}");
        let recvs: usize = traces
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| matches!(e.kind, TraceEventKind::Recv { .. }))
            .count();
        assert_eq!(matches.len(), recvs, "every recv matched");
        for mm in &matches {
            assert_eq!(mm.stamp, mm.send_t1, "lossless run: stamp == send end");
        }
    }

    #[test]
    fn truncated_ring_degrades_to_phase_attribution() {
        let m = machine();
        let cfg = InstrumentConfig {
            trace: TraceConfig {
                enabled: true,
                capacity: 4,
                watchdog: None,
            },
            metrics: MetricsConfig::on(),
            ..InstrumentConfig::default()
        };
        let (_, traces, metrics) = run_instrumented(2, m, cfg, |comm| {
            comm.phase_mark(Phase::Setup);
            for i in 0..10 {
                let peer = 1 - comm.rank();
                if comm.rank() == 0 {
                    comm.send(peer, i, &1u64);
                    let _: u64 = comm.recv(peer, i);
                } else {
                    let _: u64 = comm.recv(peer, i);
                    comm.send(peer, i, &2u64);
                }
            }
        });
        assert!(traces.iter().any(|t| t.dropped > 0), "ring overflowed");
        let p = build_profile(&traces, &m);
        assert!(p.truncated);
        assert!(p.critical_path.is_empty(), "no bogus path");
        assert!(!p.warnings.is_empty());
        assert!(!p.phases.is_empty(), "per-phase attribution survives");
        // The drop surfaced as a metric too, inside the open window.
        let dropped: u64 = metrics
            .iter()
            .map(|r| r.counter(crate::trace::TRACE_DROPPED).unwrap_or(0))
            .sum();
        assert_eq!(dropped, p.dropped_events);
    }

    #[test]
    fn recv_wait_metric_matches_trace_derivation() {
        let m = machine();
        let (_, traces, metrics) = run_instrumented(2, m, instrument(), |comm| {
            if comm.rank() == 1 {
                comm.compute(2_000_000);
                comm.send(0, 7, &vec![0u64; 64]);
            } else {
                let _: Vec<u64> = comm.recv(1, 7);
            }
        });
        let trace_wait: f64 = traces
            .iter()
            .flat_map(|t| &t.events)
            .filter_map(|e| match e.kind {
                TraceEventKind::Recv { stamp, .. } => Some(recv_wait(e, stamp, &m)),
                _ => None,
            })
            .sum();
        let metric_wait: u64 = metrics
            .iter()
            .map(|r| r.counter(crate::comm::RECV_WAIT_MICROS).unwrap_or(0))
            .sum();
        assert!(trace_wait > 0.0);
        assert_eq!(metric_wait, (trace_wait * 1e6) as u64);
    }
}
