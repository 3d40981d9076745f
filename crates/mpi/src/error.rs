//! Structured communication-failure diagnostics.
//!
//! A wrong communication pattern used to surface as a blanket
//! `expect("all peers hung up …")` panic with no record of who was
//! waiting for what. [`CommError`] replaces that: every failure names
//! the blocked rank, the expected `(src, tag)`, a snapshot of the
//! messages that *did* arrive but matched nothing, and — when tracing is
//! enabled — the rank's most recent trace events, so a mismatched
//! send/recv pattern is debuggable from the error alone.

use crate::trace::TraceEvent;
use crate::wire::WireError;
use std::fmt;
use std::time::Duration;

/// A received-but-unmatched message sitting in a rank's pending queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingMsg {
    pub src: usize,
    pub tag: u32,
    pub bytes: usize,
}

impl fmt::Display for PendingMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src={} tag={} ({} B)", self.src, self.tag, self.bytes)
    }
}

/// Reliable-transport state captured when a diagnostic fires, so a
/// watchdog stall during a retransmit/reorder wait is distinguishable
/// from a plain mismatched send/recv pattern.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransportSnapshot {
    /// Retransmits this rank's sender has performed so far.
    pub retransmits: u64,
    /// Virtual-seconds backoff of the most recent retransmit (0 if none).
    pub last_backoff: f64,
    /// Frames force-delivered after exhausting the retry budget.
    pub exhausted: u64,
    /// Corrupt frames this rank has seen (send-side interceptions plus
    /// receive-side CRC rejections).
    pub corrupt_seen: u64,
    /// Corrupt frames healed by retransmission (reliability on).
    pub corrupt_dropped: u64,
    /// Non-empty reorder buffers: `(src, parked frames, next expected seq)`.
    pub reorder: Vec<(usize, usize, u64)>,
}

impl fmt::Display for TransportSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reliable transport: {} retransmit(s), last backoff {:.6}s, {} exhausted",
            self.retransmits, self.last_backoff, self.exhausted
        )?;
        if self.corrupt_seen > 0 || self.corrupt_dropped > 0 {
            write!(
                f,
                ", {} corrupt frame(s) seen ({} healed by retransmit)",
                self.corrupt_seen, self.corrupt_dropped
            )?;
        }
        if self.reorder.is_empty() {
            write!(f, "; all reorder buffers in sequence")
        } else {
            for (src, depth, expected) in &self.reorder {
                write!(
                    f,
                    "; src={src} holds {depth} frame(s) awaiting seq {expected}"
                )?;
            }
            Ok(())
        }
    }
}

/// Why a communicator operation could not complete.
#[derive(Debug, Clone)]
pub enum CommError {
    /// A receive that can never be satisfied: the rank is waiting on
    /// itself (or is a solo communicator) with no matching buffered
    /// self-send — no peer exists that could ever produce the message.
    Unsatisfiable {
        rank: usize,
        size: usize,
        src: usize,
        tag: u32,
        pending: Vec<PendingMsg>,
        recent: Vec<TraceEvent>,
    },
    /// Every peer exited while this rank still expected a message — the
    /// canonical mismatched send/recv pattern.
    PeersDisconnected {
        rank: usize,
        src: usize,
        tag: u32,
        pending: Vec<PendingMsg>,
        recent: Vec<TraceEvent>,
    },
    /// The watchdog found the rank blocked in `recv` past its real-time
    /// budget. `all_ranks` carries the formatted trace tails of every
    /// rank (deadlock triage), when tracing is enabled; `transport`
    /// carries the reliable-transport retry/backoff/reorder state, when
    /// the reliability layer is on.
    Stalled {
        rank: usize,
        src: usize,
        tag: u32,
        waited: Duration,
        pending: Vec<PendingMsg>,
        recent: Vec<TraceEvent>,
        all_ranks: Option<String>,
        transport: Option<Box<TransportSnapshot>>,
    },
    /// The peer this rank is receiving from has been declared dead by
    /// the failure detector; the message will never arrive. Carries the
    /// victim's last recorded heartbeat so the death is triageable.
    RankDead {
        /// The observing (blocked) rank.
        rank: usize,
        /// The dead peer (physical rank id).
        dead: usize,
        tag: u32,
        /// Virtual clock of the victim's last heartbeat.
        last_heartbeat: f64,
        /// Phase the victim died at.
        phase: &'static str,
        /// Phase-boundary count the victim died at.
        boundary: u64,
    },
    /// A received frame failed its CRC-32 integrity check — the payload
    /// was corrupted in transit. Only reachable with the reliable
    /// transport off (with it on, corruption is intercepted at the
    /// sender and healed by retransmission); the wrong payload is never
    /// delivered either way.
    Corrupt {
        /// Sending rank (physical id, as stamped in the frame).
        src: usize,
        /// Receiving (detecting) rank.
        dst: usize,
        tag: u32,
        /// CRC-32 the sender computed over the original payload.
        expected: u32,
        /// CRC-32 of the bytes that actually arrived.
        got: u32,
    },
    /// A received payload did not decode as the expected type.
    Decode {
        rank: usize,
        src: usize,
        tag: u32,
        error: WireError,
    },
    /// A receive matched a frame of the other kind: `recv_bytes`/`recv`
    /// found a modeled transfer (which carries no payload to hand over),
    /// or `recv_modeled` found a real frame. Like [`CommError::Decode`],
    /// a sender/receiver mismatch — a programming error with a
    /// diagnosis.
    KindMismatch {
        rank: usize,
        src: usize,
        tag: u32,
        /// Whether the matched frame was a modeled transfer (the
        /// receive asked for the opposite).
        modeled: bool,
        /// The size the frame is accounted at.
        bytes: usize,
        /// The bytes it actually carried.
        wire_bytes: usize,
    },
    /// A send found the destination rank already exited.
    PeerGone {
        rank: usize,
        dst: usize,
        tag: u32,
        bytes: usize,
    },
}

impl CommError {
    /// The rank the failure occurred on.
    pub fn rank(&self) -> usize {
        match self {
            CommError::Unsatisfiable { rank, .. }
            | CommError::PeersDisconnected { rank, .. }
            | CommError::Stalled { rank, .. }
            | CommError::Decode { rank, .. }
            | CommError::KindMismatch { rank, .. }
            | CommError::PeerGone { rank, .. }
            | CommError::RankDead { rank, .. } => *rank,
            // The receiver detects the corruption.
            CommError::Corrupt { dst, .. } => *dst,
        }
    }

    /// The pending-queue snapshot, if this failure carries one.
    pub fn pending(&self) -> &[PendingMsg] {
        match self {
            CommError::Unsatisfiable { pending, .. }
            | CommError::PeersDisconnected { pending, .. }
            | CommError::Stalled { pending, .. } => pending,
            _ => &[],
        }
    }
}

fn fmt_context(
    f: &mut fmt::Formatter<'_>,
    pending: &[PendingMsg],
    recent: &[TraceEvent],
) -> fmt::Result {
    if pending.is_empty() {
        write!(f, "\n  pending queue: empty (nothing unmatched arrived)")?;
    } else {
        write!(f, "\n  pending queue ({} unmatched):", pending.len())?;
        for p in pending {
            write!(f, "\n    {p}")?;
        }
    }
    if !recent.is_empty() {
        write!(f, "\n  last {} trace events:", recent.len())?;
        for e in recent {
            write!(f, "\n    [{:.6}s..{:.6}s] {}", e.t0, e.t1, e.label())?;
        }
    }
    Ok(())
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Unsatisfiable {
                rank,
                size,
                src,
                tag,
                pending,
                recent,
            } => {
                if *size == 1 {
                    write!(
                        f,
                        "rank {rank}: recv(src={src}, tag={tag}) on a solo communicator can never be \
                         satisfied — no peer exists and no matching self-send is buffered"
                    )?;
                } else {
                    write!(
                        f,
                        "rank {rank}: recv(src={src}, tag={tag}) waits on itself with no matching \
                         buffered self-send — it can never be satisfied"
                    )?;
                }
                fmt_context(f, pending, recent)
            }
            CommError::PeersDisconnected {
                rank,
                src,
                tag,
                pending,
                recent,
            } => {
                write!(
                    f,
                    "rank {rank}: blocked in recv(src={src}, tag={tag}) but every peer has exited — \
                     mismatched send/recv pattern"
                )?;
                fmt_context(f, pending, recent)
            }
            CommError::Stalled {
                rank,
                src,
                tag,
                waited,
                pending,
                recent,
                all_ranks,
                transport,
            } => {
                write!(
                    f,
                    "rank {rank}: watchdog — blocked in recv(src={src}, tag={tag}) for {waited:?} \
                     (real time) with peers still running; likely deadlock"
                )?;
                fmt_context(f, pending, recent)?;
                if let Some(t) = transport {
                    write!(f, "\n  {t}")?;
                }
                if let Some(dump) = all_ranks {
                    write!(f, "\n  all ranks' trace tails:\n{dump}")?;
                }
                Ok(())
            }
            CommError::RankDead {
                rank,
                dead,
                tag,
                last_heartbeat,
                phase,
                boundary,
            } => {
                write!(
                    f,
                    "rank {rank}: recv(src={dead}, tag={tag}) — peer rank {dead} is dead \
                     (last heartbeat at {last_heartbeat:.6}s virtual, died in phase \
                     \"{phase}\" at boundary {boundary})"
                )
            }
            CommError::Corrupt {
                src,
                dst,
                tag,
                expected,
                got,
            } => {
                write!(
                    f,
                    "rank {dst}: frame from src={src} tag={tag} failed its CRC-32 integrity \
                     check (expected {expected:#010x}, got {got:#010x}) — payload corrupted \
                     in transit and discarded"
                )
            }
            CommError::Decode {
                rank,
                src,
                tag,
                error,
            } => {
                write!(
                    f,
                    "rank {rank}: payload from src={src} tag={tag} failed to decode: {error}"
                )
            }
            CommError::KindMismatch {
                rank,
                src,
                tag,
                modeled,
                bytes,
                wire_bytes,
            } => {
                let (asked, found, sent, fix) = if *modeled {
                    (
                        "recv_bytes",
                        "a modeled transfer",
                        "send_modeled",
                        "recv_modeled",
                    )
                } else {
                    (
                        "recv_modeled",
                        "a real frame",
                        "send/send_bytes",
                        "recv/recv_bytes",
                    )
                };
                write!(
                    f,
                    "rank {rank}: {asked}(src={src}, tag={tag}) matched {found} of {bytes} B \
                     ({wire_bytes} B on the wire) — the sender used {sent}; receive it with {fix}"
                )
            }
            CommError::PeerGone {
                rank,
                dst,
                tag,
                bytes,
            } => {
                write!(f, "rank {rank}: send(dst={dst}, tag={tag}, {bytes} B) but the destination rank already exited")
            }
        }
    }
}

impl std::error::Error for CommError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommError::Decode { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_rank_src_tag_and_pending() {
        let e = CommError::PeersDisconnected {
            rank: 2,
            src: 0,
            tag: 7,
            pending: vec![PendingMsg {
                src: 1,
                tag: 9,
                bytes: 16,
            }],
            recent: vec![],
        };
        let s = e.to_string();
        assert!(s.contains("rank 2"), "{s}");
        assert!(s.contains("src=0"), "{s}");
        assert!(s.contains("tag=7"), "{s}");
        assert!(s.contains("src=1 tag=9 (16 B)"), "{s}");
        assert_eq!(e.rank(), 2);
        assert_eq!(e.pending().len(), 1);
    }

    #[test]
    fn rank_dead_display_carries_heartbeat_and_phase() {
        let e = CommError::RankDead {
            rank: 0,
            dead: 3,
            tag: 11,
            last_heartbeat: 1.25,
            phase: "coarse",
            boundary: 4,
        };
        let s = e.to_string();
        assert!(s.contains("rank 0"), "{s}");
        assert!(s.contains("peer rank 3 is dead"), "{s}");
        assert!(s.contains("1.250000s"), "{s}");
        assert!(s.contains("\"coarse\""), "{s}");
        assert!(s.contains("boundary 4"), "{s}");
        assert_eq!(e.rank(), 0);
        assert!(e.pending().is_empty());
    }

    #[test]
    fn stalled_display_includes_transport_snapshot() {
        let e = CommError::Stalled {
            rank: 1,
            src: 0,
            tag: 5,
            waited: Duration::from_millis(250),
            pending: vec![],
            recent: vec![],
            all_ranks: None,
            transport: Some(Box::new(TransportSnapshot {
                retransmits: 3,
                last_backoff: 0.004,
                exhausted: 0,
                corrupt_seen: 0,
                corrupt_dropped: 0,
                reorder: vec![(2, 1, 7)],
            })),
        };
        let s = e.to_string();
        assert!(s.contains("3 retransmit(s)"), "{s}");
        assert!(s.contains("0.004000s"), "{s}");
        assert!(s.contains("src=2 holds 1 frame(s) awaiting seq 7"), "{s}");
        assert!(
            !s.contains("corrupt frame(s)"),
            "corruption line omitted when no corruption was seen: {s}"
        );
    }

    #[test]
    fn transport_snapshot_reports_corruption_counters() {
        let t = TransportSnapshot {
            retransmits: 5,
            last_backoff: 0.002,
            exhausted: 0,
            corrupt_seen: 4,
            corrupt_dropped: 3,
            reorder: vec![],
        };
        let s = t.to_string();
        assert!(
            s.contains("4 corrupt frame(s) seen (3 healed by retransmit)"),
            "{s}"
        );
    }

    #[test]
    fn corrupt_display_names_edge_and_checksums() {
        let e = CommError::Corrupt {
            src: 2,
            dst: 0,
            tag: 9,
            expected: 0xCBF4_3926,
            got: 0x0000_00FF,
        };
        let s = e.to_string();
        assert!(s.contains("rank 0"), "{s}");
        assert!(s.contains("src=2"), "{s}");
        assert!(s.contains("tag=9"), "{s}");
        assert!(s.contains("0xcbf43926"), "{s}");
        assert!(s.contains("0x000000ff"), "{s}");
        assert_eq!(e.rank(), 0, "the receiver detects the corruption");
        assert!(e.pending().is_empty());
    }

    #[test]
    fn solo_unsatisfiable_message_is_coherent() {
        let e = CommError::Unsatisfiable {
            rank: 0,
            size: 1,
            src: 0,
            tag: 3,
            pending: vec![],
            recent: vec![],
        };
        let s = e.to_string();
        assert!(s.contains("solo communicator"), "{s}");
        assert!(s.contains("can never be satisfied"), "{s}");
        assert!(
            !s.contains("hung up"),
            "no misleading peers-hung-up text: {s}"
        );
    }
}
