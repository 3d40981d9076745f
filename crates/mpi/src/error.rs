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
    /// The source exited while this rank still expected a message from
    /// it — the canonical mismatched send/recv pattern — or a peer's
    /// closure panicked, after which the world can never complete.
    PeersDisconnected {
        rank: usize,
        src: usize,
        tag: u32,
        pending: Vec<PendingMsg>,
        recent: Vec<TraceEvent>,
    },
    /// The peer this rank is receiving from was killed by the fault
    /// layer's schedule; the message will never arrive. Carries the death
    /// record from the victim's exit notice so the death is triageable.
    RankDead {
        /// The observing (blocked) rank.
        rank: usize,
        /// The dead peer (physical rank id).
        dead: usize,
        tag: u32,
        /// The victim's virtual clock at death: the boundary crossing
        /// it died at.
        died_at: f64,
        /// Phase the victim died at.
        phase: &'static str,
        /// Phase-boundary count the victim died at.
        boundary: u64,
    },
    /// A received frame was corrupted in transit: the fault layer marked
    /// it, and its value was discarded, never delivered. Only reachable
    /// with the reliable transport off (with it on, corruption is
    /// intercepted at the sender and healed by retransmission).
    Corrupt {
        /// Sending rank (physical id, as stamped in the frame).
        src: usize,
        /// Receiving (detecting) rank.
        dst: usize,
        tag: u32,
    },
    /// A received value was not the type the receive asked for, or a
    /// charged frame met a receive of one billed at its encoding (or the
    /// reverse) ([`WireError::WrongType`]).
    Decode {
        rank: usize,
        src: usize,
        tag: u32,
        error: WireError,
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
    /// This error with `tail` as the blocked rank's recent trace events,
    /// if it is a failure that carries them.
    pub(crate) fn with_recent(mut self, tail: Vec<TraceEvent>) -> Self {
        if let CommError::Unsatisfiable { recent, .. }
        | CommError::PeersDisconnected { recent, .. } = &mut self
        {
            *recent = tail;
        }
        self
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
                    "rank {rank}: blocked in recv(src={src}, tag={tag}) but its source has exited \
                     or a peer panicked — mismatched send/recv pattern"
                )?;
                fmt_context(f, pending, recent)
            }
            CommError::RankDead {
                rank,
                dead,
                tag,
                died_at,
                phase,
                boundary,
            } => {
                write!(
                    f,
                    "rank {rank}: recv(src={dead}, tag={tag}) — peer rank {dead} is dead \
                     (killed at {died_at:.6}s virtual, entering phase \
                     \"{phase}\" at boundary {boundary})"
                )
            }
            CommError::Corrupt { src, dst, tag } => {
                write!(
                    f,
                    "rank {dst}: frame from src={src} tag={tag} was corrupted in transit \
                     and discarded"
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
        assert!(
            matches!(&e, CommError::PeersDisconnected { rank: 2, pending, .. } if pending.len() == 1)
        );
    }

    #[test]
    fn rank_dead_display_carries_death_clock_and_phase() {
        let e = CommError::RankDead {
            rank: 0,
            dead: 3,
            tag: 11,
            died_at: 1.25,
            phase: "coarse",
            boundary: 4,
        };
        let s = e.to_string();
        assert!(s.contains("rank 0"), "{s}");
        assert!(s.contains("peer rank 3 is dead"), "{s}");
        assert!(s.contains("1.250000s"), "{s}");
        assert!(s.contains("\"coarse\""), "{s}");
        assert!(s.contains("boundary 4"), "{s}");
        assert!(matches!(e, CommError::RankDead { rank: 0, .. }));
    }

    #[test]
    fn corrupt_display_names_edge_and_checksums() {
        let e = CommError::Corrupt {
            src: 2,
            dst: 0,
            tag: 9,
        };
        let s = e.to_string();
        assert!(s.contains("rank 0"), "{s}");
        assert!(s.contains("src=2"), "{s}");
        assert!(s.contains("tag=9"), "{s}");
        assert!(s.contains("corrupted in transit"), "{s}");
        assert!(
            matches!(e, CommError::Corrupt { dst: 0, .. }),
            "the receiver detects the corruption"
        );
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
