//! The causal-profile model: where did the makespan go?
//!
//! A profile is built (by `pgr-mpi`) from one run's `RankTrace` streams:
//! matching every `Send` to its `Recv` yields the cross-rank
//! happens-before DAG, and walking it backwards from the slowest rank's
//! final clock extracts the **critical path** — the unique chain of
//! segments whose durations sum to the virtual makespan exactly. Every
//! second on that path is blamed on one [`BlameClass`]; off-path time is
//! summarized per phase × rank as compute/wait/slack ([`RankBlame`]).
//!
//! This module owns only the *model* and its renderers (versioned JSON
//! via [`Profile::to_json`], the human blame table via
//! [`Profile::blame_markdown`]); the DAG construction lives next to the
//! traces in `pgr-mpi` so this crate stays free of router types.

use crate::emit::{json_f64, RunMeta, SCHEMA_VERSION};
use crate::json_escape;

/// Trace mark recorded by the engine when a recovery round restarts the
/// attempt; critical-path segments before the last such mark on a rank
/// are blamed on [`BlameClass::Recovery`].
pub const MARK_RECOVERY_RESTART: &str = "recovery.restart";

/// Trace mark recorded by the engine when the run falls back to the
/// degraded serial pipeline; segments after it are blamed on
/// [`BlameClass::Degraded`].
pub const MARK_DEGRADED_SERIAL: &str = "degraded.serial";

/// Trace mark recorded by the engine when a checkpoint-resumed attempt
/// catches up to the boundary where the previous attempt died; segments
/// between the restart mark and this mark are blamed on
/// [`BlameClass::Resume`] (the replay that a full restart would have
/// charged to [`BlameClass::Recovery`]).
pub const MARK_RECOVERY_CAUGHT_UP: &str = "recovery.caught_up";

/// What a critical-path second was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlameClass {
    /// Local work: compute events, send/recv overheads, payload
    /// transfer — time the rank was making progress.
    Compute,
    /// Wire latency the receiver sat exposed to because the sender was
    /// the binding dependency (recv blocked past its own overhead).
    RecvWait,
    /// Transport inflation: the delivered stamp is later than the
    /// sender's virtual send completion — unmasked retransmit/backoff
    /// or injected delay riding the message.
    Transport,
    /// Time spent before the last recovery restart on the segment's
    /// rank — work a rank kill forced the survivors to redo.
    Recovery,
    /// Time spent between a checkpoint-resumed restart and its
    /// caught-up mark — the resumed attempt replaying from the last
    /// committed boundary up to where the previous attempt died.
    Resume,
    /// Time spent after the run fell back to the degraded serial
    /// pipeline.
    Degraded,
}

impl BlameClass {
    /// Every class, in display order.
    pub const ALL: [BlameClass; 6] = [
        BlameClass::Compute,
        BlameClass::RecvWait,
        BlameClass::Transport,
        BlameClass::Recovery,
        BlameClass::Resume,
        BlameClass::Degraded,
    ];

    /// Stable snake_case key used in JSON and trace color tags.
    pub const fn name(self) -> &'static str {
        match self {
            BlameClass::Compute => "compute",
            BlameClass::RecvWait => "recv_wait",
            BlameClass::Transport => "transport",
            BlameClass::Recovery => "recovery",
            BlameClass::Resume => "resume",
            BlameClass::Degraded => "degraded",
        }
    }

    /// Position in [`BlameClass::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for BlameClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One contiguous interval of the critical path, attributed to a single
/// rank and blame class. Consecutive segments abut in virtual time
/// (`seg[i].t1 == seg[i + 1].t0`), so the whole path telescopes to
/// `[0, makespan]`.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSegment {
    /// Physical rank the time is charged to (for wire segments, the
    /// receiver).
    pub rank: usize,
    pub t0: f64,
    pub t1: f64,
    pub class: BlameClass,
    /// Phase the segment ends in (trace phase-mark name), when known.
    pub phase: Option<&'static str>,
}

impl PathSegment {
    pub fn seconds(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// Per-rank blame within one phase: how the rank's phase time splits
/// into compute vs. recv-wait, and how far it finished ahead of the
/// phase's slowest rank (`slack`).
#[derive(Debug, Clone, PartialEq)]
pub struct RankBlame {
    pub rank: usize,
    /// Total traced seconds the rank spent in the phase.
    pub total: f64,
    /// `total` minus the recv-wait share.
    pub compute: f64,
    /// Seconds recvs sat blocked past their own overhead.
    pub wait: f64,
    /// Slowest rank's `total` minus this rank's `total`.
    pub slack: f64,
}

/// One phase's blame: per-rank rows plus the phase's share of the
/// critical path, by class.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseBlame {
    /// Trace phase-mark name; `"(pre-phase)"` collects time before the
    /// first mark.
    pub phase: &'static str,
    /// Critical-path seconds this phase contributes, indexed by
    /// [`BlameClass::index`].
    pub on_path: [f64; 6],
    pub ranks: Vec<RankBlame>,
}

/// Name used for time before the first phase mark.
pub const PRE_PHASE: &str = "(pre-phase)";

/// A run's causal profile.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Slowest rank's final virtual clock.
    pub makespan: f64,
    /// The trace ring evicted events; the critical path is unavailable
    /// and only per-phase attribution below is meaningful.
    pub truncated: bool,
    /// Events evicted across all ranks (0 unless `truncated`).
    pub dropped_events: u64,
    /// Chronological critical path; empty when `truncated` or when
    /// extraction failed (see `warnings`).
    pub critical_path: Vec<PathSegment>,
    /// Critical-path seconds by [`BlameClass::index`].
    pub class_seconds: [f64; 6],
    /// Per-phase blame, in first-appearance order.
    pub phases: Vec<PhaseBlame>,
    /// Why the profile is weaker than requested (truncation, unmatched
    /// messages, …). Empty on a clean run.
    pub warnings: Vec<String>,
}

impl Profile {
    /// Sum of critical-path segment durations. On a clean profile this
    /// equals [`Profile::makespan`] exactly (the segments telescope).
    pub fn critical_path_seconds(&self) -> f64 {
        // Telescoping sum: contiguous segments cancel pairwise, so sum
        // as (last.t1 - first.t0) when contiguity holds to keep the
        // "exactly equal" property immune to f64 re-association.
        if self.is_contiguous() {
            match (self.critical_path.first(), self.critical_path.last()) {
                (Some(a), Some(b)) => b.t1 - a.t0,
                _ => 0.0,
            }
        } else {
            self.critical_path.iter().map(|s| s.seconds()).sum()
        }
    }

    /// True when the path segments abut pairwise and span `[0, makespan]`.
    pub fn is_contiguous(&self) -> bool {
        if self.critical_path.is_empty() {
            return false;
        }
        self.critical_path[0].t0 == 0.0
            && self.critical_path.last().expect("non-empty").t1 == self.makespan
            && self
                .critical_path
                .windows(2)
                .all(|w| w[0].t1 == w[1].t0 && w[0].t1 >= w[0].t0)
    }

    /// Versioned JSON dump: `{"schema_version":…,"kind":"profile",…}`.
    pub fn to_json(&self, run: &RunMeta) -> String {
        let classes: Vec<String> = BlameClass::ALL
            .iter()
            .map(|c| {
                format!(
                    "\"{}\":{}",
                    c.name(),
                    json_f64(self.class_seconds[c.index()])
                )
            })
            .collect();
        let path: Vec<String> = self
            .critical_path
            .iter()
            .map(|s| {
                format!(
                    "{{\"rank\":{},\"t0\":{},\"t1\":{},\"class\":\"{}\"{}}}",
                    s.rank,
                    json_f64(s.t0),
                    json_f64(s.t1),
                    s.class.name(),
                    match s.phase {
                        Some(p) => format!(",\"phase\":\"{}\"", json_escape(p)),
                        None => String::new(),
                    }
                )
            })
            .collect();
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                let on_path: Vec<String> = BlameClass::ALL
                    .iter()
                    .map(|c| format!("\"{}\":{}", c.name(), json_f64(p.on_path[c.index()])))
                    .collect();
                let ranks: Vec<String> = p
                    .ranks
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"rank\":{},\"total\":{},\"compute\":{},\"wait\":{},\"slack\":{}}}",
                            r.rank,
                            json_f64(r.total),
                            json_f64(r.compute),
                            json_f64(r.wait),
                            json_f64(r.slack)
                        )
                    })
                    .collect();
                format!(
                    "{{\"name\":\"{}\",\"critical_path\":{{{}}},\"ranks\":[{}]}}",
                    json_escape(p.phase),
                    on_path.join(","),
                    ranks.join(",")
                )
            })
            .collect();
        let warnings: Vec<String> = self
            .warnings
            .iter()
            .map(|w| format!("\"{}\"", json_escape(w)))
            .collect();
        format!(
            "{{\"schema_version\":{},\"kind\":\"profile\",\"run\":{},\"makespan\":{},\
             \"critical_path_seconds\":{},\"truncated\":{},\"dropped_events\":{},\
             \"class_seconds\":{{{}}},\"critical_path\":[\n{}\n],\"phases\":[\n{}\n],\
             \"warnings\":[{}]}}\n",
            SCHEMA_VERSION,
            run.to_json(),
            json_f64(self.makespan),
            json_f64(self.critical_path_seconds()),
            self.truncated,
            self.dropped_events,
            classes.join(","),
            path.join(",\n"),
            phases.join(",\n"),
            warnings.join(",")
        )
    }

    /// The human blame table: one markdown section per run, a
    /// phase × rank table with compute %, wait %, slack, and the phase's
    /// critical-path share.
    pub fn blame_markdown(&self, run: &RunMeta) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "## Makespan blame — {} {} P={}\n\n",
            run.circuit, run.algorithm, run.procs
        ));
        out.push_str(&format!(
            "makespan {:.6} s; critical path: {}\n\n",
            self.makespan,
            if self.critical_path.is_empty() {
                "unavailable".to_string()
            } else {
                BlameClass::ALL
                    .iter()
                    .filter(|c| self.class_seconds[c.index()] > 0.0)
                    .map(|c| {
                        format!(
                            "{} {:.1}%",
                            c.name(),
                            100.0 * self.class_seconds[c.index()]
                                / self.makespan.max(f64::MIN_POSITIVE)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        ));
        for w in &self.warnings {
            out.push_str(&format!("> warning: {w}\n"));
        }
        if !self.warnings.is_empty() {
            out.push('\n');
        }
        out.push_str("| phase | rank | total (s) | compute % | wait % | slack (s) | on critical path (s) |\n");
        out.push_str("|---|---:|---:|---:|---:|---:|---:|\n");
        for p in &self.phases {
            let on_path: f64 = p.on_path.iter().sum();
            for (i, r) in p.ranks.iter().enumerate() {
                let pct = |x: f64| {
                    if r.total > 0.0 {
                        100.0 * x / r.total
                    } else {
                        0.0
                    }
                };
                out.push_str(&format!(
                    "| {} | {} | {:.6} | {:.1} | {:.1} | {:.6} | {} |\n",
                    if i == 0 { p.phase } else { "" },
                    r.rank,
                    r.total,
                    pct(r.compute),
                    pct(r.wait),
                    r.slack,
                    if i == 0 {
                        format!("{on_path:.6}")
                    } else {
                        String::new()
                    }
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn run() -> RunMeta {
        RunMeta::new("primary1", "hybrid", 3, "SparcCenter 1000", 0.25, 1997)
    }

    fn sample() -> Profile {
        let mut p = Profile {
            makespan: 1.0,
            critical_path: vec![
                PathSegment {
                    rank: 1,
                    t0: 0.0,
                    t1: 0.6,
                    class: BlameClass::Compute,
                    phase: Some("setup"),
                },
                PathSegment {
                    rank: 0,
                    t0: 0.6,
                    t1: 0.9,
                    class: BlameClass::RecvWait,
                    phase: Some("connect"),
                },
                PathSegment {
                    rank: 0,
                    t0: 0.9,
                    t1: 1.0,
                    class: BlameClass::Compute,
                    phase: Some("connect"),
                },
            ],
            ..Profile::default()
        };
        p.class_seconds[BlameClass::Compute.index()] = 0.7;
        p.class_seconds[BlameClass::RecvWait.index()] = 0.3;
        p.phases.push(PhaseBlame {
            phase: "setup",
            on_path: [0.6, 0.0, 0.0, 0.0, 0.0, 0.0],
            ranks: vec![
                RankBlame {
                    rank: 0,
                    total: 0.5,
                    compute: 0.5,
                    wait: 0.0,
                    slack: 0.1,
                },
                RankBlame {
                    rank: 1,
                    total: 0.6,
                    compute: 0.6,
                    wait: 0.0,
                    slack: 0.0,
                },
            ],
        });
        p
    }

    #[test]
    fn contiguous_path_sums_exactly_to_makespan() {
        let p = sample();
        assert!(p.is_contiguous());
        assert_eq!(p.critical_path_seconds(), p.makespan);
    }

    #[test]
    fn gaps_break_contiguity() {
        let mut p = sample();
        p.critical_path[1].t0 = 0.5;
        assert!(!p.is_contiguous());
        assert!(Profile::default().critical_path_seconds() == 0.0);
    }

    #[test]
    fn json_roundtrips_through_the_reader() {
        let p = sample();
        let v = Json::parse(&p.to_json(&run())).expect("profile JSON parses");
        assert_eq!(
            v.get("schema_version").unwrap().as_u64(),
            Some(SCHEMA_VERSION as u64)
        );
        assert_eq!(v.get("kind").unwrap().as_str(), Some("profile"));
        assert_eq!(v.get("makespan").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("truncated").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("critical_path_seconds").unwrap().as_f64(), Some(1.0));
        let path = v.get("critical_path").unwrap().as_arr().unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(path[1].get("class").unwrap().as_str(), Some("recv_wait"));
        assert_eq!(path[0].get("phase").unwrap().as_str(), Some("setup"));
        let classes = v.get("class_seconds").unwrap();
        assert_eq!(classes.get("compute").unwrap().as_f64(), Some(0.7));
        assert_eq!(classes.get("recovery").unwrap().as_f64(), Some(0.0));
        let phases = v.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases[0].get("name").unwrap().as_str(), Some("setup"));
        let ranks = phases[0].get("ranks").unwrap().as_arr().unwrap();
        assert_eq!(ranks[1].get("slack").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn truncated_profile_says_so() {
        let p = Profile {
            makespan: 2.0,
            truncated: true,
            dropped_events: 17,
            warnings: vec!["trace ring evicted 17 event(s)".into()],
            ..Profile::default()
        };
        let v = Json::parse(&p.to_json(&run())).expect("parses");
        assert_eq!(v.get("truncated").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("dropped_events").unwrap().as_u64(), Some(17));
        assert_eq!(v.get("warnings").unwrap().as_arr().unwrap().len(), 1);
        let md = p.blame_markdown(&run());
        assert!(md.contains("unavailable"));
        assert!(md.contains("warning: trace ring evicted"));
    }

    #[test]
    fn blame_markdown_has_one_row_per_phase_rank() {
        let md = sample().blame_markdown(&run());
        assert!(md.contains("## Makespan blame — primary1 hybrid P=3"));
        assert!(md.contains("compute 70.0%, recv_wait 30.0%"));
        assert!(md.contains("| setup | 0 |"));
        // Second rank row leaves the phase column blank.
        assert!(md.contains("|  | 1 |"));
    }

    #[test]
    fn class_names_are_stable_and_indexed() {
        for (i, c) in BlameClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let names: Vec<_> = BlameClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            [
                "compute",
                "recv_wait",
                "transport",
                "recovery",
                "resume",
                "degraded"
            ]
        );
    }
}
